import numpy as np
import pytest

from capdetect import (
    DegenerateBasisError,
    KrausChannel,
    MeasurementBasis,
    SIGMA_X,
    SIGMA_Z,
    apply_channel,
    choi_matrix,
    computational_basis,
    conditional_probs,
    eigenbasis,
    fourier_basis,
    is_cptp,
    maximally_entangled,
    pauli_channel,
    vshape_qutrit_channel,
    weyl_operator,
)
from capdetect.channels import affine_to_kraus, gad_affine
from capdetect.qcore import basis_ket, dagger, haar_random_basis, projector, random_cptp_channel


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
            rho = g @ dagger(g)
            rho /= np.trace(rho)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert np.max(np.abs(out - dagger(out))) < 1e-10


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
    t = conditional_probs(ch, eigenbasis(SIGMA_Z, "z"))
    assert np.allclose(t, [[0.8, 0.2], [0.2, 0.8]], atol=1e-12)


def test_conditional_probs_vshape_matches_closed_form():
    from capdetect import qutrit_vshape_transitions

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


def test_weyl_pauli_identifications():
    assert np.allclose(weyl_operator(2, 0, 1), SIGMA_X)
    assert np.allclose(weyl_operator(2, 1, 0), SIGMA_Z)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(weyl_operator(3, 1, 0), np.diag([1, w, w**2]))


def test_weyl_unitarity():
    for d in range(2, 6):
        for l in range(d):
            for s in range(d):
                u = weyl_operator(d, l, s)
                assert np.max(np.abs(u @ dagger(u) - np.eye(d))) < 1e-12


def test_weyl_index_range():
    with pytest.raises(ValueError):
        weyl_operator(3, 3, 0)


def test_eigenbasis_sigma_z():
    b = eigenbasis(SIGMA_Z, "z")
    assert np.allclose(b.kets, np.eye(2))


def test_eigenbasis_sigma_x_phase_convention():
    b = eigenbasis(SIGMA_X, "x")
    s = 1 / np.sqrt(2)
    assert np.allclose(b.kets, [[s, s], [s, -s]])


def test_eigenbasis_weyl_d3_is_fourier():
    b = eigenbasis(weyl_operator(3, 0, 1), "u01")
    assert np.max(np.abs(b.kets - fourier_basis(3).kets)) < 1e-12


def test_eigenbasis_rejects_degenerate():
    with pytest.raises(DegenerateBasisError):
        eigenbasis(np.eye(2, dtype=complex))


def test_eigenbasis_rejects_non_normal():
    with pytest.raises(ValueError, match="not normal"):
        eigenbasis(np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex))


def test_eigenbasis_bit_stable():
    rng = np.random.default_rng(6)
    m = weyl_operator(5, 2, 3)
    a = eigenbasis(m, "u23")
    b = eigenbasis(m.copy(), "u23")
    assert np.array_equal(a.kets, b.kets)
    u = haar_random_basis(3, rng).kets.T
    assert np.array_equal(eigenbasis(u).kets, eigenbasis(u.copy()).kets)
    # phase convention: first significant amplitude is real positive
    for v in eigenbasis(weyl_operator(3, 1, 2)).kets:
        lead = v[np.flatnonzero(np.abs(v) > 1e-8)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-14)
        assert lead.real > 0


def test_eigenbasis_orthonormal_on_random_unitaries():
    rng = np.random.default_rng(5)
    matrices = [haar_random_basis(int(rng.integers(2, 6)), rng).kets.T for _ in range(25)]
    # near-degenerate normal matrices U diag(lambda) U^dag, one gap above
    # gap_tol: bare eigenvectors are orthogonal only to about eps/gap here
    for gap in (1e-6, 1e-7, 3e-8):
        for d in (2, 3, 5):
            u = haar_random_basis(d, rng).kets.T
            theta = rng.uniform(0.0, 2 * np.pi, d)
            theta[1] = theta[0] + gap
            matrices.append(u @ np.diag(np.exp(1j * theta)) @ dagger(u))
    for m in matrices:
        d = m.shape[0]
        try:
            b = eigenbasis(m)
        except DegenerateBasisError:
            continue
        gram = b.kets.conj() @ b.kets.T
        assert np.max(np.abs(gram - np.eye(d))) < 1e-10
        for v in b.kets:
            assert np.linalg.norm(m @ v - (v.conj() @ m @ v) * v) < 1e-12


def test_measurement_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        MeasurementBasis("bad", np.array([[1, 0], [1, 0]], dtype=complex))
