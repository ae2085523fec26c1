import contextlib
import io
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from capdetect import (
    AffineQubitChannel,
    ChannelSpec,
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
    detect_from_transitions,
    detect_pauli_qubit,
    extremal_affine,
    gad_affine,
    holevo_gad_p1,
    kraus_to_affine,
    pauli_bases,
    pauli_channel,
    pauli_axis_capacity,
    pauli_family_channel,
    pseudoclassicality,
    rotated_pauli_channel,
    rotated_pauli_detected,
    stretched_affine,
    t_threshold,
    von_mises_expected_capacity,
    vshape_detected,
    vshape_qutrit_channel,
    weyl_bases,
    weyl_operator,
)
from capdetect.cli import grid_values
from conftest import (
    fourier_basis,
    haar_random_basis,
    qutrit_vshape_transitions,
    random_cp_affine,
    random_cptp_channel,
    reference_eigenbasis,
    weakly_symmetric_capacity,
)

LN2 = np.log(2.0)
DATA = pathlib.Path(__file__).resolve().parent / "data"


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
    # 2x2 transitions use the exact closed form and every other shape
    # iterates; the V-shape's computational-basis transition needs more
    # than 2 evaluations
    ch = vshape_qutrit_channel(0.3, 0.6)
    cfg = DetectionConfig([computational_basis(3)], 1e-12, max_iterations=2)
    res = detect_capacity(ch, cfg)
    assert res.per_basis[0].method == "BA"
    assert not res.converged
    assert not res.per_basis[0].converged


def test_detect_basis_monotonicity():
    rng = np.random.default_rng(10)

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
    # explicit bases are checked where they are resolved
    with pytest.raises(ValueError, match=r"^basis 1 must be a MeasurementBasis, got str$"):
        DetectionConfig(("x",)).resolve_bases(2)
    for bases, kind in ((5, "int"), (None, "NoneType")):
        with pytest.raises(ValueError, match=r"^bases must be a basis family name or a sequence of "
                                             rf"MeasurementBasis, got {kind}$"):
            DetectionConfig(bases).resolve_bases(2)
    # a dimension follows the integer rule; an integer keeps its builder's text
    for build, d in ((weyl_bases, 3.0), (weyl_bases, True), (computational_basis, 2.5),
                     (computational_basis, True)):
        with pytest.raises(ValueError, match=rf"^dimension must be an integer >= 0, got {d!r}$"):
            build(d)
    with pytest.raises(ValueError, match=r"^the weyl basis family needs a prime dimension, got 4$"):
        weyl_bases(np.int64(4))
    with pytest.raises(ValueError, match=r"^basis 'computational' must be a non-empty square array"):
        computational_basis(0)
    assert weyl_bases(np.int64(3)) is weyl_bases(3)
    assert np.array_equal(computational_basis(np.int64(2)).kets, np.eye(2))


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
    caps = rotated_pauli_detected(0.15, 0.05, 0.1, phis)
    # the trapezoid rule, written out: np.trapezoid is numpy >= 2.0 only
    uniform = np.sum((caps[1:] + caps[:-1]) / 2 * np.diff(phis)) / (2 * np.pi)
    assert flat == pytest.approx(uniform, abs=1e-6)


def test_von_mises_limits_and_monotonicity():
    v0 = von_mises_expected_capacity(0.15, 0.05, 0.1, 0.0)
    assert v0 == pytest.approx(0.3031, abs=5e-3)
    vals = [von_mises_expected_capacity(0.15, 0.05, 0.1, k) for k in (0, 0.5, 1, 2, 5, 10, 100, 1000)]
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(0.3901596952835996, abs=1e-3)


def test_von_mises_takes_any_concentration_up_to_inf_to_the_point_mass():
    # the limit K -> inf is the channel at phi = 0, with no warning on the way
    point_mass = rotated_pauli_detected(0.15, 0.05, 0.1, 0.0)
    assert point_mass == 0.3901596952835995
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1e300, 1e308, np.inf):
            assert von_mises_expected_capacity(0.15, 0.05, 0.1, k) == point_mass, k
        ks = np.array([0.0, 1e300, 1e308, np.inf])
        assert von_mises_expected_capacity(0.15, 0.05, 0.1, ks)[1:].tolist() == [point_mass] * 3


def test_von_mises_matches_scipy_simpson():
    simpson = pytest.importorskip("scipy.integrate").simpson
    phi = np.linspace(-np.pi, np.pi, 2001)
    values = rotated_pauli_detected(0.15, 0.05, 0.1, phi)
    for k in (0.0, 0.5, 10.0, 1000.0):
        weights = np.exp(k * (np.cos(phi) - 1.0))
        ref = simpson(values * weights, x=phi) / simpson(weights, x=phi)
        got = von_mises_expected_capacity(0.15, 0.05, 0.1, k)
        assert abs(got - ref) < 1e-14


def test_von_mises_array_call_matches_scalar_calls():
    ks = np.concatenate([np.linspace(0.0, 10.0, 101), [0.05, 1000.0]])
    vec = von_mises_expected_capacity(0.15, 0.05, 0.1, ks)
    assert vec.shape == ks.shape
    assert vec.tolist() == [von_mises_expected_capacity(0.15, 0.05, 0.1, k) for k in ks]
    assert isinstance(von_mises_expected_capacity(0.15, 0.05, 0.1, 0.5), float)
    grid = von_mises_expected_capacity(0.15, 0.05, 0.1, ks[:100].reshape(10, 10))
    assert np.array_equal(grid.ravel(), vec[:100])
    with pytest.raises(ValueError, match=r"^concentration = -1\.0 outside \[0, inf\] \(2 of 3 entries\)$"):
        von_mises_expected_capacity(0.15, 0.05, 0.1, [0.5, -1.0, np.nan])


def test_von_mises_rejects_bad_args():
    for bad in (-1.0, np.nan, -np.inf):
        with pytest.raises(ValueError, match=r"^concentration = "):
            von_mises_expected_capacity(0.15, 0.05, 0.1, bad)


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



VSHAPE_EDGES = np.array([0.0, 1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 2.0**-53, 1.0])


def _vshape_pairs():
    """fig2's default grid, 2,000 seeded random pairs and the edge set, each
    as two flat gamma arrays."""
    grid = grid_values(0.0, 1.0, 0.01)
    rng = np.random.default_rng(909)
    sets = [(grid[:, None], grid), tuple(rng.uniform(0.0, 1.0, (2, 2000))),
            (VSHAPE_EDGES[:, None], VSHAPE_EDGES)]
    return [tuple(g.ravel() for g in np.broadcast_arrays(*s)) for s in sets]


def test_vshape_closed_form_inside_ba_bracket():
    for g01, g02 in _vshape_pairs():
        i1, _ = vshape_detected(g01, g02)
        q1, _, _ = qutrit_vshape_transitions(g01, g02)
        lower, _, _, gaps = blahut_arimoto_batch(q1, tol_bits=1e-12)
        assert gaps.max() <= 1e-12
        assert np.all(lower - 1e-15 <= i1) and np.all(i1 <= lower + gaps + 1e-15)


def test_vshape_with_one_closed_arm_is_a_z_channel():
    # gamma02 = 1 makes input 2 a copy of input 0. binary_capacity reports 0
    # once 1 - gamma01 < 1e-12, where C < 1e-12 / (e ln 2)
    for g01, _ in _vshape_pairs():
        i1, _ = vshape_detected(g01, 1.0)
        z = binary_capacity(0.0, g01).capacity_bits
        live = 1.0 - g01 >= 1e-12
        np.testing.assert_allclose(i1[live], z[live], rtol=0, atol=1e-15)
        assert np.all(z[~live] == 0.0) and np.all((0.0 <= i1[~live]) & (i1[~live] <= 1e-12))


def test_vshape_detected_fourier_matches_weakly_symmetric_and_scalars():
    edges = np.stack(_vshape_pairs()[2])
    g01, g02 = np.concatenate([edges, np.random.default_rng(13).uniform(0.0, 1.0, (2, 30))], axis=1)
    i1, i2 = vshape_detected(g01, g02)
    _, q2, _ = qutrit_vshape_transitions(g01, g02)
    for k in range(g01.size):
        assert vshape_detected(float(g01[k]), float(g02[k])) == (i1[k], i2[k])
        assert i2[k] == pytest.approx(weakly_symmetric_capacity(q2[k]), abs=1e-14)


def test_vshape_detected_rejects_gammas_outside_unit_interval():
    for bad in (-0.1, 1.1, np.nan):
        for args in ((np.array([0.1, 0.2, 0.3]), np.array([0.2, bad, 0.4])), (bad, 0.5)):
            with pytest.raises(ValueError) as want:
                qutrit_vshape_transitions(*args)
            with pytest.raises(ValueError) as got:
                vshape_detected(*args)
            assert str(got.value) == str(want.value)

def test_detect_capacity_vshape_certifies_fourier_at_once():
    # the Fourier-basis transition is weakly symmetric, so Blahut-Arimoto's
    # bracket closes on its first evaluations from the uniform prior
    ch = vshape_qutrit_channel(0.4, 0.7)
    cfg = DetectionConfig([computational_basis(3, "B1"), fourier_basis(3, "B2")])
    b1, b2 = detect_capacity(ch, cfg).per_basis
    assert (b1.label, b1.method) == ("B1", "BA")
    assert (b2.label, b2.method) == ("B2", "BA")
    assert b2.iterations <= 2 and b2.gap_bits <= cfg.ba_tolerance_bits and b2.converged


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


def test_basis_results_keep_each_solve_iterations_and_gap():
    rng = np.random.default_rng(41)
    for d, max_iter in ((2, 100_000), (3, 100_000), (5, 100_000), (3, 3), (5, 2)):
        ch = random_cptp_channel(d, 3, rng)
        config = DetectionConfig("pauli" if d == 2 else "weyl", 1e-10, max_iter)
        res = detect_capacity(ch, config)
        _, views = config.resolve_bases(d)
        solves = {}
        for r, (label, i, _) in zip(res.per_basis, views):
            assert r.label == label
            if r.method == "BA":
                assert 1 <= r.iterations <= max_iter and r.converged == (r.gap_bits <= 1e-10)
            else:
                assert (r.iterations, r.gap_bits, r.converged) == (0, 0.0, True)
            # every label of a Weyl class reports its class's one solve
            solve = (r.mutual_information_bits, r.method, r.iterations, r.gap_bits)
            assert solves.setdefault(i, solve) == solve
        assert len(solves) == (3 if d == 2 else d + 1)
        assert res.converged == all(r.converged for r in res.per_basis)
        if max_iter < 10:
            assert any(r.method == "BA" and not r.converged for r in res.per_basis)
        for entry in res.as_dict()["per_basis"]:
            assert list(entry) == ["label", "mutual_information_bits", "method", "converged",
                                   "optimal_prior", "transition"]
    config = DetectionConfig([computational_basis(3), fourier_basis(3)])
    ws = detect_capacity(vshape_qutrit_channel(0.3, 0.6), config).per_basis[1]
    assert ws.method == "BA" and ws.iterations <= 2 and ws.gap_bits <= config.ba_tolerance_bits


def test_detect_from_transitions_checks_its_input():
    bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValueError, match="got 2 transition matrices and 1 labels"):
        detect_from_transitions([bsc, bsc], ["a"])
    with pytest.raises(ValueError, match="got 1 transition matrices and 2 labels"):
        detect_from_transitions([bsc], ["a", "b"])
    with pytest.raises(ValueError, match="at least one transition matrix is required"):
        detect_from_transitions([], [])
    with pytest.raises(ValueError, match=re.escape("share one shape, got shapes [(2, 2), (3, 3)]")):
        detect_from_transitions([bsc, np.eye(3)], ["a", "b"])
    # the 2x2 closed form reads two entries, so the column sums are checked first
    with pytest.raises(ValueError, match=r"^column 1 of transition 2 must sum to 1, got 0\.7 "):
        detect_from_transitions([bsc, np.array([[0.5, 0.5], [0.2, 0.2]])], ["a", "b"])
    with pytest.raises(ValueError, match=re.escape("transition 1 must be two-dimensional, got shape (2,)")):
        detect_from_transitions([[0.5, 0.5]], ["a"])
    with pytest.raises(ValueError, match=r"^transition must be non-empty, got shape \(2, 0\)$"):
        detect_from_transitions([np.zeros((2, 0))], ["a"])
    z = np.array([[1.0, 0.5], [0.0, 0.5]])
    result = detect_from_transitions([bsc, z], ["bsc", "z"])
    assert result.c_det_bits == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-12)
    assert result.per_basis[1].mutual_information_bits == pytest.approx(np.log2(1.25), abs=1e-12)



def test_basis_results_own_their_transitions():
    """Changing the input after detect_from_transitions returns leaves the
    results alone; a rectangular transition is reported as given. Under
    Pauli and custom bases, whose views keep the solved order, changing one
    detect_capacity result leaves a second request's result and the shared
    Pauli kets alone."""
    bsc = np.array([[0.9, 0.2], [0.1, 0.8]])
    erasure = np.array([[0.7, 0.0], [0.0, 0.7], [0.3, 0.3]])
    results = [detect_from_transitions([t], ["a"]).per_basis[0] for t in (bsc, erasure)]
    before = [(r.transition.tolist(), r.optimal_prior.tolist()) for r in results]
    assert before[1][0] == erasure.tolist()
    bsc[:] = 0.5
    erasure[:] = 0.5
    assert [(r.transition.tolist(), r.optimal_prior.tolist()) for r in results] == before

    channel = affine_to_kraus(gad_affine(0.36, 1.0))
    kets = [b.kets.copy() for b in pauli_bases()]
    for config in (DetectionConfig("pauli"), DetectionConfig([computational_basis(2), fourier_basis(2)])):
        first, second = (detect_capacity(channel, config) for _ in range(2))
        before = [(r.transition.tolist(), r.optimal_prior.tolist()) for r in second.per_basis]
        for r in first.per_basis:
            r.transition[:] = 0.5
            r.optimal_prior[:] = 0.5
        assert [(r.transition.tolist(), r.optimal_prior.tolist()) for r in second.per_basis] == before
        assert detect_capacity(channel, config).as_dict() == second.as_dict()
    assert all(np.array_equal(b.kets, k) for b, k in zip(pauli_bases(), kets))


@pytest.mark.parametrize("name, c_det, argmax", [
    # random d = 5 Kraus channels whose Weyl transitions have optimal priors
    # on a face of the simplex; SQUAREM alone took 414 and 305 evaluations,
    # and found these values
    ("kraus_d5_member24", 0.4052774236577389, "weyl(1,2)"),
    ("kraus_d5_member21", 0.48016985650560123, "weyl(1,0)"),
])
def test_boundary_tail_closes_within_48_evaluations(name, c_det, argmax):
    spec = ChannelSpec.from_dict(json.loads((DATA / f"{name}.json").read_text()))
    res = detect_capacity(spec.build(), DetectionConfig("weyl"))
    assert len(res.per_basis) == 24 and res.converged and res.argmax_basis == argmax
    for r in res.per_basis:
        assert r.method == "BA" and r.converged and r.iterations <= 48, r.label
    assert abs(res.c_det_bits - c_det) <= 1e-9


def test_readme_quickstart_prints_what_its_comments_say():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quickstart\n\n```python\n", 1)[1].split("```", 1)[0]
    assert re.findall(r"^print\(.*\) +# (.*)$", block, flags=re.M) == [
        "0.531004 (x basis wins)", "0.321928 = log2(5/4)", "(0.321928, p0 = 0.6)", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    pauli, engine, ba, binary, pseudo = out.getvalue().splitlines()
    assert round(float(pauli), 6) == 0.531004
    value, label = engine.split()
    assert float(value) == pytest.approx(float(pauli), abs=1e-9) and label == "x"
    assert round(float(ba), 6) == 0.321928
    fields = re.fullmatch(r"BinaryCapacity\(capacity_bits=(\S+), optimal_p0=(\S+)\)", binary).groups()
    cap, p0 = map(float, fields)
    assert round(cap, 6) == 0.321928 and round(p0, 6) == 0.6
    assert pseudo == "True"
