import numpy as np
import pytest

from capdetect import (
    KrausChannel,
    MeasurementBasis,
    SIGMA_X,
    SIGMA_Z,
    apply_channel,
    choi_matrix,
    computational_basis,
    conditional_probs,
    is_cptp,
    pauli_bases,
    pauli_channel,
    vshape_qutrit_channel,
    weyl_bases,
    weyl_operator,
)
from capdetect import qcore
from capdetect.channels import _KINDS, ChannelSpec, affine_to_kraus, gad_affine, pauli_family_channel
from capdetect.qcore import (
    CERT_TOL,
    PAULI_KETS,
    PAULIS,
    basis_ket,
    trace_preservation_error,
)
from conftest import (
    VALID_PARAMS,
    fourier_basis,
    haar_random_basis,
    maximally_entangled,
    projector,
    qutrit_vshape_transitions,
    random_cptp_channel,
    reference_apply_channel,
    reference_conditional_probs,
    reference_eigenbasis,
    reference_is_cptp,
    weyl_label_kets,
)


def test_apply_identity_channel():
    rng = np.random.default_rng(0)
    ch = KrausChannel((np.eye(2, dtype=complex),))
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    assert np.allclose(apply_channel(ch, rho), rho)


def test_apply_full_dephasing_erases_coherences():
    ch = KrausChannel((projector(basis_ket(2, 0)), projector(basis_ket(2, 1))))
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(apply_channel(ch, plus), np.eye(2) / 2)


def test_apply_vshape_complete_decay():
    ch = vshape_qutrit_channel(1.0, 1.0)
    out = apply_channel(ch, projector(basis_ket(3, 1)))
    assert np.allclose(out, projector(basis_ket(3, 0)))


def test_apply_channel_dimension_mismatch():
    ch = KrausChannel((np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_channel(ch, np.eye(3) / 3)


def test_apply_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        for _ in range(30):
            ch = random_cptp_channel(d, int(rng.integers(1, d * d + 1)), rng)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_choi_identity_is_entangled_projector():
    ch = KrausChannel((np.eye(2, dtype=complex),))
    phi = maximally_entangled(2)
    assert np.allclose(choi_matrix(ch), np.outer(phi, phi.conj()))


def test_choi_depolarizing_is_maximally_mixed():
    ch = pauli_channel(0.25, 0.25, 0.25)
    assert np.allclose(choi_matrix(ch), np.eye(4) / 4)


def test_choi_gad_positive():
    ch = affine_to_kraus(gad_affine(0.36, 1.0))
    assert np.linalg.eigvalsh(choi_matrix(ch)).min() >= -1e-10


def test_is_cptp_rejects_trace_decreasing():
    diag = is_cptp(KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2),)))
    assert not diag
    assert diag.trace_preservation_error > 0.4


def test_trace_preservation_alone_decides_is_cptp():
    # any Kraus set is completely positive (Choi 1975), so the Choi spectrum
    # never decides the verdict: on seeded random sets of ranks 1, 2, d and
    # d^2, as drawn and with weights spread over 8 decades, each scaled on
    # and off trace preservation, is_cptp says what the trace check says,
    # and the worst Choi eigenvalue is rounding of the Choi trace, scale^2
    rng = np.random.default_rng(38)
    verdicts, worst = [], 0.0
    for d in range(2, 13):
        for r in sorted({1, 2, d, d * d}):
            drawn = random_cptp_channel(d, r, rng).operators
            spread = np.sqrt(np.logspace(0, -8, r))[rng.permutation(r), None, None] * drawn
            evals, evecs = np.linalg.eigh((spread.conj().transpose(0, 2, 1) @ spread).sum(axis=0))
            spread = spread @ (evecs / np.sqrt(evals)) @ evecs.conj().T  # sum A^dag A = I again
            for ops in (drawn, spread):
                for scale in (0.5, 1.0, 1 + 1e-9, 3.0, 1e3):
                    ch = KrausChannel(scale * ops)
                    diag = is_cptp(ch)
                    assert diag.trace_preservation_error == trace_preservation_error(ch)
                    assert diag.valid == (trace_preservation_error(ch) <= CERT_TOL)
                    verdicts.append((scale, diag.valid))
                    worst = min(worst, diag.min_choi_eigenvalue / scale**2)
    assert len(verdicts) == 430
    assert all(valid == (scale == 1.0) for scale, valid in verdicts)
    assert -1e-14 < worst <= 0.0


def test_is_cptp_names_overflowing_products(monkeypatch):
    # products past the float range give a non-finite trace-preservation
    # error, with no warning, and is_cptp fails before any Choi matrix
    def refuse(*args, **kwargs):
        raise AssertionError("is_cptp formed the Choi matrix")

    monkeypatch.setattr(qcore, "choi_matrix", refuse)
    ch = KrausChannel([1e200 * np.eye(2)])
    assert not np.isfinite(trace_preservation_error(ch))
    diag = is_cptp(ch)
    assert not diag.valid and not np.isfinite(diag.trace_preservation_error)
    assert np.isnan(diag.min_choi_eigenvalue)


def test_is_cptp_accepts_pauli_simplex():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        assert is_cptp(pauli_channel(p[1], p[2], p[3])).valid


def test_maximally_entangled_vectors():
    assert np.allclose(maximally_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    v3 = np.zeros(9)
    v3[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.allclose(maximally_entangled(3), v3)
    for d in range(2, 8):
        assert abs(np.linalg.norm(maximally_entangled(d)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        maximally_entangled(1)


def test_conditional_probs_identity():
    ch = KrausChannel((np.eye(3, dtype=complex),))
    rng = np.random.default_rng(3)
    basis = haar_random_basis(3, rng)
    assert np.allclose(conditional_probs(ch, basis), np.eye(3), atol=1e-12)


def test_conditional_probs_pauli_z():
    ch = pauli_channel(0.15, 0.05, 0.1)
    t = conditional_probs(ch, computational_basis(2))
    assert np.allclose(t, [[0.8, 0.2], [0.2, 0.8]], atol=1e-12)


def test_conditional_probs_vshape_matches_closed_form():

    for g01, g02 in [(0.3, 0.8), (0.0, 0.5), (1.0, 0.2)]:
        ch = vshape_qutrit_channel(g01, g02)
        q1, _, _ = qutrit_vshape_transitions(g01, g02)
        t = conditional_probs(ch, computational_basis(3))
        assert np.max(np.abs(t - q1)) < 1e-12


def test_conditional_probs_columns_are_distributions():
    rng = np.random.default_rng(4)
    for i in range(1000):
        d = 2 + i % 3
        ch = random_cptp_channel(d, int(rng.integers(1, d * d + 1)), rng)
        basis = haar_random_basis(d, rng)
        t = conditional_probs(ch, basis)
        assert t.min() >= 0.0
        assert np.max(np.abs(t.sum(axis=0) - 1.0)) < 1e-10
        # reference: p(m|n) = <m|E(|n><n|)|m>, one input state at a time
        loop = np.array(
            [[(m.conj() @ apply_channel(ch, projector(n)) @ m).real for n in basis.kets]
             for m in basis.kets]
        )
        assert np.max(np.abs(t - loop)) < 1e-14


def test_stacked_transitions_equal_each_basis_bit_for_bit():
    # one stacked pass over k bases gives each basis's own matrix, and the
    # bits of the one-basis formula: Pauli, Weyl and Haar-random bases
    rng = np.random.default_rng(18)
    for d in (2, 3, 5, 7):
        families = [list(weyl_bases(d)), [haar_random_basis(d, rng, f"custom{k}") for k in range(3)]]
        if d == 2:
            families.append(pauli_bases())
        for _ in range(12):
            ch = random_cptp_channel(d, int(rng.integers(1, d * d + 1)), rng)
            for bases in families:
                stack = conditional_probs(ch, bases)
                assert stack.shape == (len(bases), d, d)
                for t, b in zip(stack, bases):
                    plain = np.clip((np.abs(b.kets.conj() @ np.stack(ch.operators) @ b.kets.T) ** 2).sum(axis=0),
                                    0.0, 1.0)
                    assert np.array_equal(t.view(np.uint64), plain.view(np.uint64))
                    assert np.array_equal(t.view(np.uint64), conditional_probs(ch, b).view(np.uint64))
    with pytest.raises(ValueError, match="dimension mismatch: channel dim 3, basis dim 2"):
        conditional_probs(vshape_qutrit_channel(0.3, 0.6), pauli_bases())


def test_conditional_probs_rejects_an_empty_basis_list():
    # the one check of a basis list, so sampling and detection with no bases
    # fail by it, not with numpy's "need at least one array to stack"
    from capdetect import DetectionConfig, detect_capacity
    from capdetect.protocol_sim import sample_counts

    ch = pauli_channel(0.15, 0.05, 0.1)
    message = "^at least one measurement basis is required$"
    for call in (lambda: conditional_probs(ch, []), lambda: conditional_probs(ch, iter(())),
                  lambda: sample_counts(ch, (), 100, 1), lambda: detect_capacity(ch, DetectionConfig([]))):
        with pytest.raises(ValueError, match=message):
            call()
    # so does every other list conditional_probs cannot measure, not with
    # numpy's "all input arrays must have the same shape" or an AttributeError
    qutrit = computational_basis(3, "c3")
    for bases, message in ((["x"], r"^basis 1 must be a MeasurementBasis, got str$"),
                           ([pauli_bases()[0], None], r"^basis 2 must be a MeasurementBasis, got NoneType$"),
                           ([pauli_bases()[2], qutrit],
                            r"^dimension mismatch: channel dim 2, basis dim 3 \(basis 'c3'\)$"),
                           (qutrit, r"^dimension mismatch: channel dim 2, basis dim 3 \(basis 'c3'\)$")):
        for call in (lambda: conditional_probs(ch, bases), lambda: sample_counts(ch, bases, 100, 1)):
            with pytest.raises(ValueError, match=message):
                call()


def test_operator_stack_keeps_the_bits_of_the_tuple_and_loop_forms():
    # transitions and both CPTP diagnostics to the bit, and the channel's
    # action as values (a zero's sign may differ), on random channels of
    # rank 1-4 and a channel of every spec kind
    rng = np.random.default_rng(36)
    channels = [random_cptp_channel(d, r, rng) for d in (2, 3, 5) for r in range(1, 5)]
    channels += [ChannelSpec(kind, params).build() for kind, params in VALID_PARAMS.items()]
    channels += [pauli_family_channel(d, rng.dirichlet(np.ones(d * d)).reshape(d, d)) for d in (3, 5)]
    assert VALID_PARAMS.keys() == _KINDS.keys()
    for ch in channels:
        d = ch.dim
        bases = [*weyl_bases(d), haar_random_basis(d, rng)]
        assert np.array_equal(conditional_probs(ch, bases).view(np.int64),
                              reference_conditional_probs(ch, bases).view(np.int64))
        diag = is_cptp(ch)
        got = np.array([diag.trace_preservation_error, diag.min_choi_eigenvalue])
        assert np.array_equal(got.view(np.int64), np.array(reference_is_cptp(ch)).view(np.int64))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T)
        assert np.array_equal(apply_channel(ch, rho), reference_apply_channel(ch, rho))


def test_kraus_channel_is_one_read_only_stack():
    source = np.eye(2)
    ch = KrausChannel([source, SIGMA_X])
    source[0, 0] = 5.0  # construction copies
    assert ch.operators.shape == (2, 2, 2) and ch.operators.dtype == complex
    assert np.array_equal(ch.operators, [np.eye(2), SIGMA_X])
    with pytest.raises(ValueError, match="read-only"):
        ch.operators[0, 0, 0] = 0.0
    unequal = "^Kraus operators must all be square with equal dimension$"
    for ops, message in (((np.eye(2), np.eye(3)), unequal), ((np.eye(2), np.ones((2, 3))), unequal),
                         ((np.ones((2, 3)),), unequal), ((), "^channel needs at least one Kraus operator$"),
                         ([], "^channel needs at least one Kraus operator$")):
        with pytest.raises(ValueError, match=message):
            KrausChannel(ops)


def test_weyl_pauli_identifications():
    assert np.allclose(weyl_operator(2, 0, 1), SIGMA_X)
    assert np.allclose(weyl_operator(2, 1, 0), SIGMA_Z)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(weyl_operator(3, 1, 0), np.diag([1, w, w**2]))


def test_weyl_unitarity():
    for d in range(2, 6):
        stack = weyl_operator(d, *np.divmod(np.arange(d * d), d))  # index arrays give the stack
        for l in range(d):
            for s in range(d):
                u = weyl_operator(d, l, s)
                assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12
                assert np.array_equal(stack[l * d + s].view(np.int64), u.view(np.int64))


def test_weyl_index_range():
    with pytest.raises(ValueError):
        weyl_operator(3, 3, 0)
    with pytest.raises(ValueError):
        weyl_operator(3, [0, 1], [0, -1])


WEYL_DIMS = (2, 3, 5, 7)


def test_eigenbasis_sigma_z():
    assert np.array_equal(PAULI_KETS[2], np.eye(2))


def test_eigenbasis_sigma_x_phase_convention():
    s = 1 / np.sqrt(2)
    assert np.allclose(PAULI_KETS[0], [[s, s], [s, -s]])


def test_eigenbasis_weyl_d3_is_fourier():
    kets = weyl_label_kets(3)[0, 1]
    assert np.max(np.abs(kets - fourier_basis(3).kets)) < 1e-15


def test_eigenbasis_bit_stable():
    a, b = weyl_label_kets(5), weyl_label_kets(5)
    assert all(np.array_equal(a[key], b[key]) for key in a)


def test_pauli_kets_match_eig_reference():
    for kets, sigma in zip(PAULI_KETS, PAULIS):
        assert np.max(np.abs(kets - reference_eigenbasis(sigma))) < 1e-15


def test_weyl_kets_are_eigenvectors_in_phase_order():
    for d in WEYL_DIMS:
        for (l, s), kets in weyl_label_kets(d).items():
            u = weyl_operator(d, l, s)
            lam = np.einsum("ij,jk,ik->i", kets.conj(), u, kets)
            assert np.max(np.linalg.norm(kets @ u.T - lam[:, None] * kets, axis=1)) <= 1e-13
            # phases are multiples of pi/d; with l, s != 0 the eigenvalue 1
            # is listed last, as phase 2 pi
            steps = np.rint(np.angle(lam) * d / np.pi).astype(int) % (2 * d)
            if l and s:
                steps[steps == 0] = 2 * d
            assert np.all(np.diff(steps) > 0), (d, l, s, steps)
            lead = kets[np.arange(d), np.argmax(np.abs(kets) > 1e-8, axis=1)]
            assert np.all(lead.imag == 0.0) and np.all(lead.real > 0)


def test_weyl_kets_match_eig_reference():
    for d in WEYL_DIMS:
        for (l, s), kets in weyl_label_kets(d).items():
            ref = reference_eigenbasis(weyl_operator(d, l, s))
            assert np.max(np.abs(kets - ref)) <= 1e-14, (d, l, s)


def test_weyl_family_is_d_plus_one_unbiased_classes():
    for d in WEYL_DIMS:
        # two labels share a class when their overlap matrix is a permutation
        classes = []
        for kets in weyl_label_kets(d).values():
            if not any(np.allclose(np.abs(c.conj() @ kets.T).max(axis=1), 1.0, atol=1e-12)
                       for c in classes):
                classes.append(kets)
        assert len(classes) == d + 1
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                assert np.max(np.abs(np.abs(a.conj() @ b.T) ** 2 - 1.0 / d)) < 1e-14


def test_measurement_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        MeasurementBasis("bad", np.array([[1, 0], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match=r"^basis 'nan' is not orthonormal: .* = nan$"):
        MeasurementBasis("nan", np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match=r"^basis 'computational' must be a non-empty square array of kets "
                                         r"\(rows\), got shape \(0, 0\)$"):
        computational_basis(0)
