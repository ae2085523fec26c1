import numpy as np
import pytest

from capdetect import (
    AffineQubitChannel,
    DetectionConfig,
    KrausChannel,
    MeasurementBasis,
    affine_to_kraus,
    binary_capacity,
    blahut_arimoto_batch,
    binary_entropy,
    computational_basis,
    dephasing_axis_channel,
    dephasing_detected,
    detect_capacity,
    detect_pauli_qubit,
    extremal_affine,
    fourier_basis,
    gad_affine,
    holevo_gad_p1,
    kraus_to_affine,
    pauli_bases,
    pauli_channel,
    pauli_axis_capacity,
    pauli_family_channel,
    pseudoclassicality,
    qutrit_vshape_transitions,
    rotated_pauli_channel,
    rotated_pauli_detected,
    stretched_affine,
    t_threshold,
    von_mises_expected_capacity,
    vshape_qutrit_channel,
    weakly_symmetric_capacity,
    weyl_operator,
)
from capdetect.cli import grid_values
from capdetect.qcore import haar_random_basis, random_cptp_channel
from conftest import random_cp_affine, reference_eigenbasis

LN2 = np.log(2.0)


def test_detect_identity_qubit():
    ch = KrausChannel((np.eye(2, dtype=complex),))
    res = detect_capacity(ch)
    assert res.c_det_bits == pytest.approx(1.0, abs=1e-12)
    assert res.converged


def test_detect_argmax_tie_breaks_to_lowest_index():
    # lambda1 = lambda2 gives an exact x/y tie in the closed form
    res = detect_pauli_qubit(AffineQubitChannel(0.6, 0.6, 0.2))
    assert res.per_basis[0].mutual_information_bits == res.per_basis[1].mutual_information_bits
    assert res.argmax_basis == "x"
    assert res.argmax_index == 0


def test_detect_identity_qutrit_weyl():
    ch = KrausChannel((np.eye(3, dtype=complex),))
    res = detect_capacity(ch, DetectionConfig("weyl"))
    assert res.c_det_bits == pytest.approx(np.log2(3), abs=1e-9)
    assert len(res.per_basis) == 8


def test_detect_pauli_channel_value_and_argmax():
    res = detect_capacity(pauli_channel(0.15, 0.05, 0.1))
    assert res.c_det_bits == pytest.approx(0.3901596952835996, abs=1e-9)
    assert res.argmax_basis == "x"


def test_detect_flags_unconverged():
    # 2x2 transitions use the exact closed form; a 3x3 one without the
    # weakly-symmetric structure has to iterate
    ch = vshape_qutrit_channel(0.3, 0.6)
    cfg = DetectionConfig([computational_basis(3)], 1e-12, max_iterations=2)
    res = detect_capacity(ch, cfg)
    assert res.per_basis[0].method == "BA"
    assert not res.converged
    assert not res.per_basis[0].converged


def test_detect_basis_monotonicity():
    rng = np.random.default_rng(10)
    from capdetect.qcore import random_cptp_channel

    for _ in range(15):
        ch = random_cptp_channel(2, 3, rng)
        bases = pauli_bases()
        small = detect_capacity(ch, DetectionConfig(bases[:2]))
        big = detect_capacity(ch, DetectionConfig(bases + [haar_random_basis(2, rng)]))
        assert big.c_det_bits >= small.c_det_bits - 1e-12


def test_pauli_epsilons_examples():
    # each Pauli axis is the binary channel [[1 - eps0, eps1], [eps0, 1 - eps1]]
    def axis_epsilons(ch):
        res = detect_pauli_qubit(ch)
        assert [r.label for r in res.per_basis] == ["x", "y", "z"]
        for r in res.per_basis:
            assert r.method == "binary-closed-form"
            assert np.allclose(r.transition.sum(axis=0), 1.0, atol=1e-15)
        return [(r.transition[1, 0], r.transition[0, 1]) for r in res.per_basis]

    assert np.allclose(
        axis_epsilons(gad_affine(0.36, 1.0)),
        [(0.1, 0.1), (0.1, 0.1), (0.0, 0.36)],
        atol=1e-12,
    )
    lam = (0.7, 0.5, 0.6)
    for (e0, e1), l in zip(axis_epsilons(AffineQubitChannel(*lam)), lam):
        assert e0 == e1 == pytest.approx((1 - l) / 2, abs=1e-12)
    assert np.allclose(axis_epsilons(AffineQubitChannel(1.0, 1.0, 1.0)), 0.0, atol=1e-15)


def test_pauli_axis_capacity_array_matches_detect_pauli_qubit():
    rng = np.random.default_rng(11)
    chans = [random_cp_affine(rng) for _ in range(300)]
    chans += [AffineQubitChannel(c.lambda1, c.lambda2, c.lambda3, 0.0) for c in chans[:60]]
    chans += [AffineQubitChannel(-0.6, 0.6, -0.2), AffineQubitChannel(-1.0, -1.0, 1.0)]
    lam = np.array([[c.lambda1, c.lambda2, c.lambda3, c.t3] for c in chans])
    assert (lam[:, :3] < 0).any(axis=1).sum() > 100
    caps, p0s = pauli_axis_capacity(*lam.T)
    assert caps.shape == p0s.shape == (len(chans), 3)
    for c, row_caps, row_p0s in zip(chans, caps, p0s):
        res = detect_pauli_qubit(c)
        assert row_caps.max() == res.c_det_bits
        assert row_caps.tolist() == [r.mutual_information_bits for r in res.per_basis]
        assert row_p0s.tolist() == [r.optimal_prior[0] for r in res.per_basis]


def test_detect_pauli_qubit_unital_closed_form():
    res = detect_pauli_qubit(AffineQubitChannel(0.7, 0.5, 0.6))
    assert res.c_det_bits == pytest.approx(1 - binary_entropy(0.15), abs=1e-12)
    assert res.argmax_basis == "x"
    assert res.per_basis[0].method == "binary-closed-form"


def test_detect_pauli_qubit_gad():
    res = detect_pauli_qubit(gad_affine(0.36, 1.0))
    assert res.c_det_bits == pytest.approx(0.5310044064107188, abs=1e-9)
    assert res.argmax_basis == "x"
    assert res.per_basis[2].mutual_information_bits == pytest.approx(0.44386843348479105, abs=1e-9)


def test_detect_pauli_qubit_stretched_zero():
    res = detect_pauli_qubit(stretched_affine(0.5, 0.0))
    assert res.c_det_bits == pytest.approx(0.32192809488736235, abs=1e-9)
    assert res.argmax_basis == "z"


WEYL = DetectionConfig("weyl")


def _weyl_symmetric(res) -> bool:
    # in prime d every Weyl-basis transition of a generalized Pauli channel
    # is symmetric: its columns and rows are permutations of each other
    return all(weakly_symmetric_capacity(r.transition, tol=1e-9) is not None for r in res.per_basis)


def test_detect_weyl_qubit_matches_unital_form():
    ch = pauli_channel(0.15, 0.05, 0.1)
    res = detect_capacity(ch, WEYL)
    assert res.c_det_bits == pytest.approx(0.3901596952835996, abs=1e-9)


def test_detect_weyl_qutrit_endpoints():
    q = np.zeros((3, 3))
    q[0, 0] = 1.0
    assert detect_capacity(pauli_family_channel(3, q), WEYL).c_det_bits == pytest.approx(
        np.log2(3), abs=1e-12
    )
    uniform = pauli_family_channel(3, np.full((3, 3), 1 / 9))
    assert detect_capacity(uniform, WEYL).c_det_bits == pytest.approx(0.0, abs=1e-9)


def test_detect_weyl_rejects_composite():
    q = np.zeros((4, 4))
    q[0, 0] = 1.0
    with pytest.raises(ValueError, match="needs a prime dimension, got 4"):
        detect_capacity(pauli_family_channel(4, q), WEYL)


def test_detect_weyl_rejects_non_pauli_channel():
    assert not _weyl_symmetric(detect_capacity(vshape_qutrit_channel(0.3, 0.6), WEYL))
    q = np.random.default_rng(2).dirichlet(np.ones(9)).reshape(3, 3)
    assert _weyl_symmetric(detect_capacity(pauli_family_channel(3, q), WEYL))


def test_detect_weyl_matches_engine():
    # an independent BA solve of the same transitions, no closed forms
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        for _ in range(4):
            ch = pauli_family_channel(d, rng.dirichlet(np.ones(d * d)).reshape(d, d))
            res = detect_capacity(ch, WEYL)
            assert _weyl_symmetric(res)
            caps, _, _, gaps = blahut_arimoto_batch(
                np.stack([r.transition for r in res.per_basis]), 1e-12
            )
            assert np.all(gaps <= 1e-12)
            got = np.array([r.mutual_information_bits for r in res.per_basis])
            np.testing.assert_allclose(got, caps, rtol=0, atol=1e-10)
            assert res.c_det_bits == pytest.approx(caps.max(), abs=1e-10)


def test_detect_weyl_matches_reference_bases():
    # every label solved on its own eig-reference basis gives the values
    # that one solve per Weyl class reports under that label
    rng = np.random.default_rng(31)
    for d in (3, 5):
        for rank in (1, 2, 3):
            ch = random_cptp_channel(d, rank, rng)
            ref_bases = [MeasurementBasis(f"weyl({l},{s})", reference_eigenbasis(weyl_operator(d, l, s)))
                         for l in range(d) for s in range(d) if (l, s) != (0, 0)]
            ref = detect_capacity(ch, DetectionConfig(ref_bases))
            res = detect_capacity(ch, WEYL)
            assert [r.label for r in res.per_basis] == [r.label for r in ref.per_basis]
            for a, b in zip(res.per_basis, ref.per_basis):
                assert np.max(np.abs(a.transition - b.transition)) <= 1e-12
            assert abs(res.c_det_bits - ref.c_det_bits) <= 1e-12


def test_weyl_argmax_is_first_label_of_winning_class():
    # U_ls and its powers U_(kl, ks) share one basis, so their values tie exactly
    d = 5
    res = detect_capacity(random_cptp_channel(d, 3, np.random.default_rng(8)), WEYL)
    value = {r.label: r.mutual_information_bits for r in res.per_basis}
    l, s = (int(x) for x in res.argmax_basis[5:-1].split(","))
    members = [f"weyl({k * l % d},{k * s % d})" for k in range(1, d)]
    assert len({value[m] for m in members}) == 1
    labels = [r.label for r in res.per_basis]
    assert res.argmax_index == min(labels.index(m) for m in members)
    assert sum(v == res.c_det_bits for v in value.values()) == len(members)


def test_t_threshold_anchor():
    assert t_threshold(0.5, 0.5) == pytest.approx(LN2 / 2, abs=1e-12)


def test_t_threshold_zero_shift_is_r_squared():
    for r in (0.0, 0.2, 0.55, 0.9):
        assert t_threshold(0.0, r) == pytest.approx(r * r, abs=1e-12)


def test_t_threshold_continuity_across_seam():
    r = 0.3
    mid = t_threshold(r, r)
    for d in (3e-7, 9e-7, 1.2e-6, 5e-6, 1e-5):
        assert abs(t_threshold(r - d, r) - mid) < 1e-6
        assert abs(t_threshold(r + d, r) - mid) < 1e-6


def test_t_threshold_domain():
    with pytest.raises(ValueError):
        t_threshold(-0.1, 0.5)
    with pytest.raises(ValueError):
        t_threshold(0.5, 1.1)
    with pytest.raises(ValueError, match="exceeds 1"):
        t_threshold(0.7, 0.5)


def test_pseudoclassical_unital_pauli():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        lam, _ = kraus_to_affine(pauli_channel(p[1], p[2], p[3]))
        ch = AffineQubitChannel(*np.diag(lam))
        rep = pseudoclassicality(ch)
        assert rep.pseudoclassical
        # the certificate's closed form is the detection's own, to the bit
        assert rep.c1_bits == detect_pauli_qubit(ch).c_det_bits


def test_pseudoclassical_stretched_threshold():
    # certified exactly while s^2 <= T(1/2, 1/2) = ln2/2
    s_star = np.sqrt(LN2 / 2)
    for s in (0.0, 0.3, s_star - 1e-6):
        rep = pseudoclassicality(stretched_affine(0.5, s))
        assert rep.pseudoclassical
        assert rep.c1_bits == pytest.approx(0.32192809488736235, abs=1e-9)
    for s in (s_star + 1e-6, 0.65, 0.7):
        rep = pseudoclassicality(stretched_affine(0.5, s))
        assert not rep.pseudoclassical
        assert rep.c1_bits is None


def test_gad_never_pseudoclassical():
    for g in np.linspace(0.05, 0.95, 10):
        for p in np.linspace(0.0, 1.0, 9):
            if abs(p - 0.5) < 1e-9:
                continue
            assert not pseudoclassicality(gad_affine(g, p)).pseudoclassical


def test_holevo_gad_endpoints():
    assert holevo_gad_p1(0.0) == pytest.approx(1.0, abs=1e-12)
    assert holevo_gad_p1(1.0) == pytest.approx(0.0, abs=1e-12)


def test_holevo_gad_against_dense_grid():
    for g in (0.36, 0.5, 0.8):
        t = np.linspace(0.0, 1.0, 400_001)
        gg = (1 + np.sqrt(1 - 4 * g * (1 - g) * t * t)) / 2
        oracle = np.max(binary_entropy(t * (1 - g)) - binary_entropy(gg))
        assert holevo_gad_p1(g) == pytest.approx(oracle, abs=1e-9)
    # fig1's gammas, both ends of the interval, and seeded random gammas: the
    # search never falls below a 20,001-point grid's best value, and the
    # grid's own error (quadratic in its 5e-5 spacing) bounds the rest
    gammas = np.concatenate([
        grid_values(0.0, 1.0, 0.01),
        [1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9],
        np.random.default_rng(16).uniform(0.0, 1.0, 200),
    ])
    c1 = holevo_gad_p1(gammas)
    t = np.linspace(0.0, 1.0, 20_001)
    for g, c in zip(gammas, c1):
        s = (1 + np.sqrt(np.clip(1 - 4 * g * (1 - g) * t * t, 0.0, 1.0))) / 2
        oracle = np.max(binary_entropy(t * (1 - g)) - binary_entropy(s))
        assert oracle <= c <= oracle + 2e-9, g


def test_holevo_gad_array_call_matches_scalar_calls():
    gammas = np.concatenate([np.linspace(0.0, 1.0, 11), [0.36, 0.999]])
    vec = holevo_gad_p1(gammas)
    assert vec.shape == gammas.shape
    assert np.array_equal(vec, [holevo_gad_p1(g) for g in gammas])
    assert isinstance(holevo_gad_p1(0.5), float)
    for bad in (-0.1, 1.5, np.nan, [0.2, np.nan]):
        with pytest.raises(ValueError, match="outside"):
            holevo_gad_p1(bad)


def test_holevo_gad_exceeds_detected():
    c1 = holevo_gad_p1(0.5)
    c_det = detect_pauli_qubit(gad_affine(0.5, 1.0)).c_det_bits
    assert c_det == pytest.approx(0.39912396330714384, abs=1e-9)
    assert c1 > c_det


def test_dephasing_detected_anchors():
    assert dephasing_detected(0.37, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    theta = np.arccos(1 / np.sqrt(3))
    worst = dephasing_detected(0.9, theta, np.pi / 4)
    assert worst == pytest.approx(1 - binary_entropy(0.6), abs=1e-9)
    assert worst == pytest.approx(0.02904940554533142, abs=1e-9)


def test_dephasing_detected_quarter_period():
    rng = np.random.default_rng(13)
    for _ in range(40):
        p = rng.uniform(0, 1)
        th = rng.uniform(0, np.pi / 2)
        ph = rng.uniform(0, 3 * np.pi / 2)
        assert dephasing_detected(p, th, ph) == pytest.approx(
            dephasing_detected(p, th, ph + np.pi / 2), abs=1e-12
        )


def test_dephasing_detected_matches_engine():
    rng = np.random.default_rng(14)
    cfg = DetectionConfig("pauli", 1e-10)
    for _ in range(40):
        p = rng.uniform(0, 1)
        th = rng.uniform(0, np.pi / 2)
        ph = rng.uniform(0, 2 * np.pi)
        eng = detect_capacity(dephasing_axis_channel(p, th, ph), cfg).c_det_bits
        assert abs(eng - dephasing_detected(p, th, ph)) < 1e-9


def test_rotated_pauli_detected_anchors():
    base = detect_pauli_qubit(AffineQubitChannel(0.7, 0.5, 0.6)).c_det_bits
    assert rotated_pauli_detected(0.15, 0.05, 0.1, 0.0) == pytest.approx(base, abs=1e-12)
    assert rotated_pauli_detected(0.15, 0.05, 0.1, np.pi / 2) == pytest.approx(
        0.2780719051126377, abs=1e-12
    )


def test_rotated_pauli_detected_even_in_phi():
    phis = np.linspace(0, np.pi, 25)
    a = rotated_pauli_detected(0.15, 0.05, 0.1, phis)
    b = rotated_pauli_detected(0.15, 0.05, 0.1, -phis)
    assert np.allclose(a, b, atol=1e-12)


def test_rotated_pauli_detected_matches_engine():
    rng = np.random.default_rng(15)
    cfg = DetectionConfig("pauli", 1e-10)
    for _ in range(40):
        p = rng.dirichlet(np.ones(4))
        phi = rng.uniform(-np.pi, np.pi)
        ch = rotated_pauli_channel(p[1], p[2], p[3], phi)
        eng = detect_capacity(ch, cfg).c_det_bits
        assert abs(eng - rotated_pauli_detected(p[1], p[2], p[3], phi)) < 1e-9


def test_von_mises_flat_equals_uniform_average():
    flat = von_mises_expected_capacity(0.15, 0.05, 0.1, 0.0)
    phis = np.linspace(-np.pi, np.pi, 200_001)
    uniform = np.trapezoid(rotated_pauli_detected(0.15, 0.05, 0.1, phis), phis) / (2 * np.pi)
    assert flat == pytest.approx(uniform, abs=1e-6)


def test_von_mises_limits_and_monotonicity():
    v0 = von_mises_expected_capacity(0.15, 0.05, 0.1, 0.0)
    assert v0 == pytest.approx(0.3031, abs=5e-3)
    vals = [von_mises_expected_capacity(0.15, 0.05, 0.1, k) for k in (0, 0.5, 1, 2, 5, 10, 100, 1000)]
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(0.3901596952835996, abs=1e-3)


def test_von_mises_matches_scipy_simpson():
    simpson = pytest.importorskip("scipy.integrate").simpson
    for k in (0.0, 0.5, 10.0, 1000.0):
        for quad_points in (64, 65, 2000, 2001):
            n = quad_points + 1 - quad_points % 2
            phi = np.linspace(-np.pi, np.pi, n)
            weights = np.exp(k * (np.cos(phi) - 1.0))
            values = rotated_pauli_detected(0.15, 0.05, 0.1, phi)
            ref = simpson(values * weights, x=phi) / simpson(weights, x=phi)
            got = von_mises_expected_capacity(0.15, 0.05, 0.1, k, quad_points)
            assert abs(got - ref) < 1e-14


def test_von_mises_array_call_matches_scalar_calls():
    ks = np.concatenate([np.linspace(0.0, 10.0, 101), [0.05, 1000.0]])
    vec = von_mises_expected_capacity(0.15, 0.05, 0.1, ks)
    assert vec.shape == ks.shape
    assert vec.tolist() == [von_mises_expected_capacity(0.15, 0.05, 0.1, k) for k in ks]
    assert isinstance(von_mises_expected_capacity(0.15, 0.05, 0.1, 0.5), float)
    grid = von_mises_expected_capacity(0.15, 0.05, 0.1, ks[:100].reshape(10, 10))
    assert np.array_equal(grid.ravel(), vec[:100])
    with pytest.raises(ValueError, match=r"got -1\.0 \(2 of 3 entries\)"):
        von_mises_expected_capacity(0.15, 0.05, 0.1, [0.5, -1.0, np.nan])


def test_von_mises_rejects_bad_args():
    with pytest.raises(ValueError):
        von_mises_expected_capacity(0.15, 0.05, 0.1, -1.0)
    with pytest.raises(ValueError):
        von_mises_expected_capacity(0.15, 0.05, 0.1, 1.0, quad_points=32)


def test_qutrit_transitions_endpoints():
    q1, q2, gt = qutrit_vshape_transitions(0.0, 0.0)
    assert np.allclose(q1, np.eye(3)) and np.allclose(q2, np.eye(3)) and gt == 0.0
    q1, q2, gt = qutrit_vshape_transitions(1.0, 1.0)
    assert gt == pytest.approx(1 / 3, abs=1e-12)
    assert np.allclose(q1[0], 1.0) and np.allclose(q1[1:], 0.0)
    assert np.allclose(q2, 1 / 3)


def test_qutrit_transitions_halfway():
    _, _, gt = qutrit_vshape_transitions(0.5, 0.5)
    assert gt == pytest.approx(0.12064293751410052, abs=1e-12)


def test_qutrit_transitions_array_matches_scalar_calls():
    rng = np.random.default_rng(12)
    g01 = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 40)])
    g02 = np.concatenate([[1.0, 0.0, 0.5], rng.uniform(0.0, 1.0, 40)])
    q1, q2, gt = qutrit_vshape_transitions(g01, g02)
    assert q1.shape == q2.shape == (g01.size, 3, 3) and gt.shape == g01.shape
    for k in range(g01.size):
        s1, s2, sgt = qutrit_vshape_transitions(float(g01[k]), float(g02[k]))
        assert np.array_equal(q1[k], s1) and np.array_equal(q2[k], s2)
        assert gt[k] == sgt
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError, match="gamma02"):
            qutrit_vshape_transitions(g01[:3], np.array([0.2, bad, 0.4]))
        with pytest.raises(ValueError, match="gamma01"):
            qutrit_vshape_transitions(bad, 0.5)


def test_detect_capacity_vshape_uses_shortcut_for_fourier():
    ch = vshape_qutrit_channel(0.4, 0.7)
    cfg = DetectionConfig([computational_basis(3, "B1"), fourier_basis(3, "B2")])
    res = detect_capacity(ch, cfg)
    methods = {r.label: r.method for r in res.per_basis}
    assert methods["B2"] == "weakly-symmetric"
    assert methods["B1"] == "BA"


def test_chain_inequality_on_zoo():
    rng = np.random.default_rng(16)
    # unital Pauli: detected equals the certified one-shot capacity
    for _ in range(10):
        p = rng.dirichlet(np.ones(4))
        lam, _ = kraus_to_affine(pauli_channel(p[1], p[2], p[3]))
        ch = AffineQubitChannel(*np.diag(lam))
        rep = pseudoclassicality(ch)
        assert detect_pauli_qubit(ch).c_det_bits <= rep.c1_bits + 1e-9
        assert detect_pauli_qubit(ch).c_det_bits == pytest.approx(rep.c1_bits, abs=1e-9)
    # certified stretched channels: equality; beyond threshold only the bound holds
    for s in (0.1, 0.4, 0.58):
        rep = pseudoclassicality(stretched_affine(0.5, s))
        assert rep.pseudoclassical
        assert detect_pauli_qubit(stretched_affine(0.5, s)).c_det_bits == pytest.approx(
            rep.c1_bits, abs=1e-9
        )
    # amplitude damping: strict gap
    for g in (0.2, 0.5, 0.8):
        assert detect_pauli_qubit(gad_affine(g, 1.0)).c_det_bits < holevo_gad_p1(g) + 1e-9


def test_gad_detected_independent_of_p():
    for g in np.linspace(0.0, 1.0, 11):
        ref = detect_pauli_qubit(gad_affine(g, 1.0)).c_det_bits
        for p in np.linspace(0.0, 1.0, 11):
            res = detect_pauli_qubit(gad_affine(g, p))
            assert res.c_det_bits == pytest.approx(ref, abs=1e-9)
            # transverse (x) term is the maximizer everywhere
            assert res.per_basis[0].mutual_information_bits == pytest.approx(
                res.c_det_bits, abs=1e-12
            )


def test_extremal_first_term_maximizes():
    # two-term closed form: the symmetric term of the least-damped transverse
    # axis (angle alpha) against the binary asymmetric shift-axis term; the
    # first is the maximizer across the whole parameter range
    for a in np.linspace(0, np.pi / 2, 12):
        for b in np.linspace(a, np.pi / 2, 8):
            ch = extremal_affine(a, b)
            res = detect_pauli_qubit(ch)
            first = 1 - binary_entropy(np.sin(a / 2) ** 2)
            second = binary_capacity(
                np.sin((b - a) / 2) ** 2, np.sin((b + a) / 2) ** 2
            ).capacity_bits
            assert res.c_det_bits == pytest.approx(max(first, second), abs=1e-9)
            assert res.c_det_bits == pytest.approx(first, abs=1e-9)


def test_closed_form_vs_engine_qubit_affine():
    rng = np.random.default_rng(17)
    cfg = DetectionConfig("pauli", 1e-10)
    for _ in range(25):
        ch = random_cp_affine(rng)
        eng = detect_capacity(affine_to_kraus(ch), cfg).c_det_bits
        assert abs(eng - detect_pauli_qubit(ch).c_det_bits) < 1e-9
