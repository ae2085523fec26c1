import contextlib
import dataclasses
import decimal
import io
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
from capdetect.qcore import conditional_probs, weyl_class
from capdetect.cli import grid_values
from capdetect.detect import BasisResult, DetectionResult, _symmetric_axes_detected, pseudoclassical_certificate
from conftest import (
    depolarizing_channel,
    fourier_basis,
    haar_random_basis,
    king_capacity,
    qutrit_vshape_transitions,
    random_cp_affine,
    random_cptp_channel,
    reference_eigenbasis,
    weakly_symmetric_capacity,
    werner_holevo_c1,
    werner_holevo_channel,
    weyl_label_kets,
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
    assert len(res.per_basis) == 4


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
    # explicit bases are checked where they are measured; resolving one only lists it
    with pytest.raises(ValueError, match=r"^basis 1 must be a MeasurementBasis, got str$"):
        detect_capacity(pauli_channel(0.1, 0.2, 0.05), DetectionConfig(("x",)))
    assert DetectionConfig(("x",)).resolve_bases(2) == ("x",)
    with pytest.raises(ValueError, match=r"^unknown basis family 'mub'; choose from pauli, weyl$"):
        DetectionConfig("mub").resolve_bases(2)
    for bases, kind in ((5, "int"), (None, "NoneType")):
        with pytest.raises(ValueError, match=r"^bases must be a basis family name or a sequence of "
                                             rf"MeasurementBasis, got {kind}$"):
            DetectionConfig(bases).resolve_bases(2)
    # a dimension follows the integer rule; an integer keeps its builder's text
    for build, d in ((weyl_bases, 3.0), (weyl_bases, True), (computational_basis, 2.5),
                     (computational_basis, True)):
        with pytest.raises(ValueError, match=rf"^dimension must be an integer >= 0, got {d!r}$"):
            build(d)
    for d in (np.int64(4), 1, 0):
        with pytest.raises(ValueError, match=rf"^the weyl basis family needs a prime dimension, got {d}$"):
            weyl_bases(d)
    with pytest.raises(ValueError, match=r"^basis 'computational' must be a non-empty square array"):
        computational_basis(0)
    assert weyl_bases(np.int64(3)) is weyl_bases(3)
    assert np.array_equal(computational_basis(np.int64(2)).kets, np.eye(2))


def test_detection_reports_no_capacity_below_zero():
    # the uniform generalized Pauli channel carries nothing; at d = 7, 7 of
    # its 8 Weyl bases read below 0, down to -6.4e-16 bits
    r = detect_capacity(pauli_family_channel(7, np.full((7, 7), 1.0 / 49)), WEYL)
    values = [b.mutual_information_bits for b in r.per_basis]
    assert values == [0.0] * 8 and not np.signbit(values).any()
    assert (r.c_det_bits, r.argmax_index) == (0.0, 0)


# How far a reported c_det_bits may lie from the mutual information of the
# reported prior and transition, computed exactly: 2^-48 bits, 16 units in
# the last place of 1 bit, above the largest excess, 1.28e-15 bits (the
# uniform d = 19 channel, where c_det_bits should read 0)
_DECIMAL_MARGIN = 2.0**-48


def _decimal_mutual_information(prior, transition) -> decimal.Decimal:
    """I(p, T) in bits at 60 digits, in stdlib decimal, from the float
    entries taken exactly; p is rescaled to sum to 1 exactly, and a zero
    entry of T adds nothing."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = [decimal.Decimal(x) for x in prior]
        total = sum(p)
        p = [x / total for x in p]
        t = [[decimal.Decimal(x) for x in row] for row in transition]
        info = decimal.Decimal(0)
        for row in t:
            q = sum(tn * pn for tn, pn in zip(row, p))
            info += sum((pn * tn * (tn / q).ln() for tn, pn in zip(row, p) if tn > 0), decimal.Decimal(0))
        return info / decimal.Decimal(2).ln()


def test_c_det_bits_is_the_reported_priors_information_within_a_stated_margin():
    """An oracle that shares no code with capdetect: c_det_bits <= I(p*, T)
    + m and I(p*, T) <= c_det_bits + gap + m, where p* and T are the
    winning basis's reported prior and float transition and I is computed
    at 60 digits. c_det_bits is not yet a bound by itself: with numpy 2.4
    some cases read above I, the closed form by up to 6.6e-16 bits and the
    uniform d = 19 channel by 1.28e-15."""
    channels = [*(random_cptp_channel(2, 2, np.random.default_rng(seed)) for seed in range(12)),
                *(random_cptp_channel(3, 2, np.random.default_rng(seed)) for seed in range(12)),
                _D5_MEMBER24, pauli_family_channel(19, np.full((19, 19), 1 / 361))]
    for channel in channels:
        result = detect_capacity(channel, DetectionConfig("pauli" if channel.dim == 2 else "weyl"))
        best = result.per_basis[result.argmax_index]
        info = _decimal_mutual_information(best.optimal_prior, best.transition)
        above = decimal.Decimal(result.c_det_bits) - info
        assert above <= decimal.Decimal(_DECIMAL_MARGIN), (channel.dim, float(above))
        assert -above <= decimal.Decimal(best.gap_bits) + decimal.Decimal(_DECIMAL_MARGIN), channel.dim


@pytest.mark.parametrize("d", [3, 5, 7])
def test_depolarizing_detection_equals_kings_capacity(d):
    # every orthonormal basis sees the transition (1 - p) I + (p/d) J, so
    # each basis detects the channel's capacity
    rng = np.random.default_rng(7)
    haar = DetectionConfig([haar_random_basis(d, rng, f"custom{k}") for k in range(3)])
    for p in (0.05, 0.3, 0.9):
        capacity = king_capacity(d, p)
        for config in (WEYL, haar):
            r = detect_capacity(depolarizing_channel(d, p), config)
            assert abs(r.c_det_bits - capacity) <= 1e-12
            assert all(abs(b.mutual_information_bits - capacity) <= 1e-12 for b in r.per_basis)


@pytest.mark.parametrize("symmetric", [False, True], ids=["antisymmetric", "symmetric"])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_werner_holevo_detection_reaches_c1_in_weyl_bases(d, symmetric):
    # the computational and X bases are closed under complex conjugation and
    # reach C1; a Haar basis detects no more than C1, and no basis below 0
    channel, c1 = werner_holevo_channel(d, symmetric), werner_holevo_c1(d, symmetric)
    rng = np.random.default_rng(7)
    weyl = detect_capacity(channel, WEYL)
    haar = detect_capacity(channel, DetectionConfig([haar_random_basis(d, rng, f"custom{k}") for k in range(5)]))
    assert abs(weyl.c_det_bits - c1) <= 1e-12
    assert all(b.mutual_information_bits <= c1 + 1e-12 for b in haar.per_basis)
    assert all(b.mutual_information_bits >= 0.0 for r in (weyl, haar) for b in r.per_basis)


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
    # each reported basis gives the values of its label solved on its own
    # eig-reference basis
    rng = np.random.default_rng(31)
    for d in (3, 5):
        for rank in (1, 2, 3):
            ch = random_cptp_channel(d, rank, rng)
            ref_bases = [MeasurementBasis(f"weyl({l},{s})", reference_eigenbasis(weyl_operator(d, l, s)))
                         for l in range(d) for s in range(d) if (l, s) != (0, 0)]
            ref = detect_capacity(ch, DetectionConfig(ref_bases))
            res = detect_capacity(ch, WEYL)
            by_label = {r.label: r for r in ref.per_basis}
            assert len(res.per_basis) == d + 1
            for a in res.per_basis:
                assert np.max(np.abs(a.transition - by_label[a.label].transition)) <= 1e-12
            assert abs(res.c_det_bits - ref.c_det_bits) <= 1e-12


def test_weyl_argmax_is_first_label_of_winning_class():
    # U_ls and its powers U_(kl, ks) share one basis, reported once under
    # the class member that comes first in row-major (l, s) order
    d = 5
    res = detect_capacity(random_cptp_channel(d, 3, np.random.default_rng(8)), WEYL)
    labels = [r.label for r in res.per_basis]
    assert labels == ["weyl(0,1)", *(f"weyl(1,{s})" for s in range(d))]
    assert len({weyl_class(d, *_weyl_label(label))[0] for label in labels}) == d + 1
    for label in labels:
        l, s = _weyl_label(label)
        assert (l, s) == min((k * l % d, k * s % d) for k in range(1, d))
    values = [r.mutual_information_bits for r in res.per_basis]
    assert res.argmax_index == values.index(max(values)) and res.argmax_basis == labels[res.argmax_index]


def _weyl_label(label: str) -> tuple:
    return tuple(int(x) for x in label[5:-1].split(","))


_D5_MEMBER24 = ChannelSpec.from_dict(json.loads((DATA / "kraus_d5_member24.json").read_text())).build()


@pytest.mark.parametrize("d, channel", [
    *((d, random_cptp_channel(d, rank, np.random.default_rng(10 * d + rank))) for d in (3, 5, 7) for rank in (1, 3)),
    (5, _D5_MEMBER24),
    (3, vshape_qutrit_channel(0.3, 0.6)),
])
def test_weyl_bound_loses_no_label(d, channel):
    """Each of the d^2 - 1 labels is its class's reported basis with the kets
    in its own order: its own transition, from qcore's closed-form kets, is
    the class's reported transition permuted by the label's order, and all
    d^2 - 1 solved alone give the reported bound and winning class.
    Reordered kets round a matmul and a Blahut-Arimoto solve differently,
    by a few ulp, so neither is bit for bit."""
    res = detect_capacity(channel, WEYL)
    reported = {}
    for r in res.per_basis:
        c, order = weyl_class(d, *_weyl_label(r.label))
        reported[c] = r.transition, np.argsort(order)  # each ket's row in the report
    labels, transitions = [], []
    for (l, s), kets in weyl_label_kets(d).items():
        c, order = weyl_class(d, l, s)
        transition, row = reported[c]
        own = conditional_probs(channel, MeasurementBasis(f"weyl({l},{s})", kets))
        assert np.max(np.abs(own - transition[row[order]][:, row[order]])) <= 1e-15
        labels.append(f"weyl({l},{s})")
        transitions.append(own)
    every = detect_from_transitions(transitions, labels, WEYL)
    assert abs(every.c_det_bits - res.c_det_bits) <= 1e-12
    assert weyl_class(d, *_weyl_label(every.argmax_basis))[0] == weyl_class(d, *_weyl_label(res.argmax_basis))[0]


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


def _decimal_threshold(t_norm: float, r: float) -> float:
    """T(t_norm, r) at 60 digits from the paper's defining quotient, in
    stdlib decimal, sharing no code with capdetect: r^2 - t r + u [H(1/2 +
    (t + r)/2) - H(x)] / H'(x) at x = (1 + u)/2, u = t - r; at u = 0 its
    limit r^2 - t r + (ln 2 / 2)(1 - H(1/2 + r)); at x = 0 or 1, where H'
    diverges and the bracket vanishes, r^2 - t r."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t, r = decimal.Decimal(t_norm), decimal.Decimal(r)
        one, ln2 = decimal.Decimal(1), decimal.Decimal(2).ln()

        def entropy(x):
            return -sum((p * p.ln() for p in (x, one - x) if p > 0), decimal.Decimal(0)) / ln2

        u, base = t - r, r * r - t * r
        x = (one + u) / 2
        if u == 0:
            return float(base + ln2 / 2 * (one - entropy(one / 2 + r)))
        if x in (0, 1):
            return float(base)
        hprime = ((one - x) / x).ln() / ln2
        return float(base + u * (entropy((one + t + r) / 2) - entropy(x)) / hprime)


def test_t_threshold_equals_a_60_digit_reference():
    # each u on both sides of the line t = r, where the defining quotient
    # is 0/0; 9.9e-7 and 1.01e-6 straddle the width of a guard window
    points = {(1.0, 0.0), (0.0, 1.0)}
    for r in np.arange(11) * 0.05:
        for u in (0.0, 1e-15, 1e-12, 1e-9, 1e-7, 9.9e-7, 1.01e-6, 1e-4, 0.1):
            points |= {(t, float(r)) for t in (r - u, r + u) if t >= 0.0 and t + r <= 1.0}
    worst = max(abs(t_threshold(t, r) - _decimal_threshold(t, r)) for t, r in points)
    assert worst <= 2e-15


def test_pseudoclassicality_certifies_no_channel_past_the_exact_threshold():
    # 9e-7 off the line t = r, lambda^2 = 0.24731612225797509 lies 4.1e-7
    # above the exact T = 0.24731571110906259: a threshold that errs by
    # 6.6e-7 there, as a guard window's limit value did, certifies it
    ch = AffineQubitChannel(0.4973088801318302, 0.4973088801318302, 0.45, 0.45 - 9e-7)
    rep = pseudoclassicality(ch)
    assert rep.threshold_T == pytest.approx(_decimal_threshold(0.45 - 9e-7, 0.45), abs=2e-15)
    assert rep.lambda_m_sq > rep.threshold_T
    assert rep.pseudoclassical is False and rep.c1_bits is None


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


def test_pseudoclassical_certificate_is_each_channels_report():
    # one (l3, t3) and an array of (l1, l2), shifted and unital, on both
    # sides of the threshold: each element is its channel's report, to the
    # bit, with lambda_m_sq the correctly rounded max(l1^2, l2^2)
    rng = np.random.default_rng(40)
    scale = np.linspace(0.0, 1.0, 41)
    flags = set()
    for ch in [random_cp_affine(rng) for _ in range(30)] + [stretched_affine(0.5, 0.7)]:
        for t3 in (ch.t3, 0.0):
            l1, l2 = scale * ch.lambda1, scale * ch.lambda2
            lam_m_sq, threshold, pseudo, c1, caps = pseudoclassical_certificate(l1, l2, ch.lambda3, t3)
            assert caps.shape == (41, 3) and pseudo.dtype == bool and c1.dtype == object
            for i in range(41):
                rep = pseudoclassicality(AffineQubitChannel(l1[i], l2[i], ch.lambda3, t3))
                assert (float(lam_m_sq[i]), threshold, bool(pseudo[i]), c1[i]) == (
                    rep.lambda_m_sq, rep.threshold_T, rep.pseudoclassical, rep.c1_bits)
                assert rep.lambda_m_sq == max(l1[i] * l1[i], l2[i] * l2[i])
                flags.add((t3 == 0.0, rep.pseudoclassical))
    assert flags == {(True, True), (False, True), (False, False)}


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


def test_holevo_gad_in_blocks_equals_one_pass(monkeypatch):
    # each gamma's schedule is fixed and _h's two forms give the same
    # floats, so blocks of any size, which split the grid's ends 0 and 1
    # from the gammas inside, change no bit
    gammas = np.concatenate([grid_values(0.0, 1.0, 0.01), np.random.default_rng(52).uniform(0.0, 1.0, 52)])
    whole = holevo_gad_p1(gammas)  # 153 gammas, one block
    for block in (1, 2, 7, 64, 152):
        monkeypatch.setattr("capdetect.detect._GAD_BLOCK", block)
        assert np.array_equal(holevo_gad_p1(gammas), whole), block
        assert np.array_equal(holevo_gad_p1(gammas.reshape(9, 17)), whole.reshape(9, 17)), block
    assert holevo_gad_p1(np.zeros((0, 3))).shape == (0, 3)


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


def test_pauli_closed_forms_reject_what_no_channel_has():
    # each fails as the channel builder of its family does, naming the
    # parameter; the first two returned 0.5310044064107189 without a check
    simplex = r"^simplex weight 1 - px - py - pz = -0\.30000000000000004 outside \[0, inf\]$"
    cases = (
        (lambda: rotated_pauli_detected(0.5, 0.4, 0.4, 0.3), lambda: pauli_channel(0.5, 0.4, 0.4), simplex),
        (lambda: von_mises_expected_capacity(0.5, 0.4, 0.4, 1.0), lambda: pauli_channel(0.5, 0.4, 0.4), simplex),
        (lambda: rotated_pauli_detected(-0.1, 0.05, 0.1, 0.3), lambda: pauli_channel(-0.1, 0.05, 0.1),
         r"^px = -0\.1 outside \[0, inf\]$"),
        (lambda: dephasing_detected(1.5, 0.3, 0.2), lambda: dephasing_axis_channel(1.5, 0.3, 0.2),
         r"^p = 1\.5 outside \[0, 1\]$"),
        # the angles: the closed forms took any theta and phi
        (lambda: dephasing_detected(0.9, 2.0, 0.2), lambda: dephasing_axis_channel(0.9, 2.0, 0.2),
         r"^theta = 2\.0 outside \[0, 1\.5708\]$"),
        (lambda: dephasing_detected(0.9, -0.1, 0.2), lambda: dephasing_axis_channel(0.9, -0.1, 0.2),
         r"^theta = -0\.1 outside \[0, 1\.5708\]$"),
        (lambda: dephasing_detected(0.9, 0.3, 7.0), lambda: dephasing_axis_channel(0.9, 0.3, 7.0),
         r"^phi = 7\.0 outside \[0, 6\.28319\]$"),
        (lambda: dephasing_detected(0.9, 0.3, -0.5), lambda: dephasing_axis_channel(0.9, 0.3, -0.5),
         r"^phi = -0\.5 outside \[0, 6\.28319\]$"),
        (lambda: rotated_pauli_detected(0.15, 0.05, 0.1, 4.0), lambda: rotated_pauli_channel(0.15, 0.05, 0.1, 4.0),
         r"^phi = 4\.0 outside \[-3\.14159, 3\.14159\]$"),
        (lambda: rotated_pauli_detected(0.15, 0.05, 0.1, -4.0), lambda: rotated_pauli_channel(0.15, 0.05, 0.1, -4.0),
         r"^phi = -4\.0 outside \[-3\.14159, 3\.14159\]$"),
    )
    for closed_form, builder, message in cases:
        for call in (closed_form, builder):
            with pytest.raises(ValueError, match=message):
                call()


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


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_closed_forms_on_axes_equal_their_scalar_calls_bit_for_bit():
    # each term is computed at the shape of the inputs it varies over, so a
    # grid over two axes, or an array against a scalar, must give each cell
    # the float of its own scalar call, whichever entropy branch it takes
    theta = np.concatenate([grid_values(0.0, np.pi / 2, np.pi / 16), [np.arccos(1 / np.sqrt(3))]])
    phi = grid_values(0.0, 2 * np.pi, np.pi / 10)
    for p in (0.0, 0.37, 0.9, 1.0):
        grid = dephasing_detected(p, theta[:, None], phi)
        assert grid.shape == (theta.size, phi.size)
        assert np.array_equal(_bits(grid), _bits([[dephasing_detected(p, t, f) for f in phi] for t in theta]))
        assert isinstance(dephasing_detected(p, theta[3], phi[2]), float)
    for px, py, pz in ((0.15, 0.05, 0.1), (0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.25, 0.25, 0.25)):
        values = rotated_pauli_detected(px, py, pz, phi - np.pi)
        assert values.shape == phi.shape
        scalars = [rotated_pauli_detected(px, py, pz, f - np.pi) for f in phi]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(_bits(values), _bits(scalars))
    g01 = np.concatenate([VSHAPE_EDGES, grid_values(0.05, 0.95, 0.15)])
    g02 = np.concatenate([grid_values(0.0, 1.0, 0.125), VSHAPE_EDGES[1:-1]])
    want = [[vshape_detected(a, b) for b in g02] for a in g01]
    assert all(type(v) is float for row in want for pair in row for v in pair)
    for k, got in enumerate(vshape_detected(g01[:, None], g02)):
        assert got.shape == (g01.size, g02.size)
        assert np.array_equal(_bits(got), _bits([[pair[k] for pair in row] for row in want]))
    for i, a in enumerate(g01):
        for k, got in enumerate(vshape_detected(a, g02)):
            assert got.shape == g02.shape
            assert np.array_equal(_bits(got), _bits([pair[k] for pair in want[i]]))
    for j, b in enumerate(g02):
        for k, got in enumerate(vshape_detected(g01, b)):
            assert got.shape == g01.shape
            assert np.array_equal(_bits(got), _bits([row[j][k] for row in want]))


def test_closed_forms_give_a_point_as_scalars_its_bits_in_an_array():
    # a float64 scalar's ** 2 is libm pow and an array's is np.square, which
    # differ in the last bit on about 1 in 1,000 draws; so the dephasing
    # points are every draw whose sine or cosine squares differently by pow
    # than by a product, plus the first 300
    rng = np.random.default_rng(3)
    theta, phi = rng.uniform(0.0, np.pi / 2, 20_000), rng.uniform(0.0, 2 * np.pi, 20_000)

    def squares_apart(x):
        return np.array([v ** 2 for v in x.tolist()]) != x * x

    odd = squares_apart(np.sin(theta)) | squares_apart(np.cos(theta))
    odd |= squares_apart(np.sin(phi)) | squares_apart(np.cos(phi))
    odd[:300] = True
    u = rng.uniform(0.0, 1.0, (4, 200))
    cases = {
        "dephasing_detected": (lambda t, f: dephasing_detected(0.9, t, f), (theta[odd], phi[odd])),
        "rotated_pauli_detected": (lambda f: rotated_pauli_detected(0.15, 0.05, 0.1, f), (2 * np.pi * u[0] - np.pi,)),
        "vshape_detected": (vshape_detected, (u[0], u[1])),
        "holevo_gad_p1": (holevo_gad_p1, (u[0, :20],)),
        "von_mises_expected_capacity": (lambda k: von_mises_expected_capacity(0.15, 0.05, 0.1, k), (20 * u[1, :20],)),
        "pauli_axis_capacity": (pauli_axis_capacity, (2 * u[0] - 1, 2 * u[1] - 1, 2 * u[2] - 1, u[3] - 0.5)),
        "binary_capacity": (binary_capacity, (u[0], u[1])),
        "binary_entropy": (binary_entropy, (u[2],)),
    }
    for name, (f, args) in cases.items():
        whole = f(*args)
        each = np.asarray([f(*point) for point in zip(*(a.tolist() for a in args))], dtype=float)
        if isinstance(whole, tuple):  # a pair of result arrays against one pair per point
            each = np.moveaxis(each, 0, 1)
        assert np.array_equal(_bits(whole), _bits(each)), name


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
        assert [r.label for r in res.per_basis] == [b.label for b in config.resolve_bases(d)]
        for r in res.per_basis:
            if r.method == "BA":
                assert 1 <= r.iterations <= max_iter and r.converged == (r.gap_bits <= 1e-10)
            else:
                assert (r.iterations, r.gap_bits, r.converged) == (0, 0.0, True)
        assert len(res.per_basis) == (3 if d == 2 else d + 1)
        assert res.converged == all(r.converged for r in res.per_basis)
        if max_iter < 10:
            assert any(r.method == "BA" and not r.converged for r in res.per_basis)
        for entry in res.as_dict()["per_basis"]:
            assert list(entry) == ["label", "mutual_information_bits", "method", "converged",
                                   "optimal_prior", "transition"]
    config = DetectionConfig([computational_basis(3), fourier_basis(3)])
    ws = detect_capacity(vshape_qutrit_channel(0.3, 0.6), config).per_basis[1]
    assert ws.method == "BA" and ws.iterations <= 2 and ws.gap_bits <= config.ba_tolerance_bits


_ODD_LABELS = ('say "x"', "back\\slash", "qubit \u00e9 \u2603 \U0001f600", "nul \0 tab \t", "100% %s null")


def _odd_result():
    """Every float json writes apart (NaN, +-inf, -0.0, the least
    subnormal), labels that json escapes, and a rectangular transition."""
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
    per_basis = [BasisResult(label, np.array([odd, odd[::-1], [0.1] * 6]), np.array(odd[k:] + odd[:k]),
                             odd[k], method, k % 2 == 0)
                 for k, (label, method) in enumerate(zip(_ODD_LABELS, ["BA", "binary-closed-form"] * 3))]
    return DetectionResult(per_basis, -0.0, _ODD_LABELS[2], 2, False)


@st.composite
def _detection_results(draw):
    """Results of 1 to 6 bases with transitions of 2 to 5 outputs and
    inputs, of either method, any float and any label."""
    bases, outputs, inputs = draw(st.integers(1, 6)), draw(st.integers(2, 5)), draw(st.integers(2, 5))
    method = draw(st.sampled_from(["BA", "binary-closed-form"]))

    def floats(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(st.floats(), min_size=size, max_size=size))).reshape(shape)

    per_basis = [BasisResult(draw(st.text()), floats(outputs, inputs), floats(inputs), draw(st.floats()), method,
                             draw(st.booleans())) for _ in range(bases)]
    return DetectionResult(per_basis, draw(st.floats()), draw(st.text()), draw(st.integers(0, bases - 1)),
                           draw(st.booleans()))


@given(_detection_results())
@example(_odd_result())
@example(DetectionResult([], 0.5, "none", 0))
@example(detect_capacity(random_cptp_channel(3, 2, np.random.default_rng(52)), DetectionConfig("weyl")))
@example(detect_capacity(random_cptp_channel(5, 3, np.random.default_rng(52)), DetectionConfig("weyl")))
def test_json_text_is_the_text_of_json_dumps(result):
    assert result.json_text() == json.dumps(result.as_dict(), indent=2)


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
    Pauli and custom bases, changing one detect_capacity result leaves a
    second request's result and the shared Pauli kets alone."""
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
    assert len(res.per_basis) == 6 and res.converged and res.argmax_basis == argmax
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


def _affine_scalars(ch):
    """An affine channel's four fields and whether it is unital, then its
    pseudoclassicality report's fields, after writing the report as JSON."""
    report = dataclasses.asdict(pseudoclassicality(ch))
    json.dumps(report)
    return (ch.lambda1, ch.lambda2, ch.lambda3, ch.t3, ch.t3 == 0.0, *report.values())


# each case maps a scalar type to the scalars that the call returns; the
# affine cases use the builders of the gad, stretched, extremal and
# affine_qubit spec kinds
SCALAR_RESULTS = {
    "binary_entropy": lambda s: (binary_entropy(s(0.3)),),
    "binary_capacity": lambda s: binary_capacity(s(0.1), s(0.3)),
    "holevo_gad_p1": lambda s: (holevo_gad_p1(s(0.3)),),
    "symmetric_axes": lambda s: (_symmetric_axes_detected(s(0.1), s(0.2), s(0.3)),),
    "dephasing": lambda s: (dephasing_detected(s(0.3), s(0.4), s(0.5)),),
    "rotated_pauli": lambda s: (rotated_pauli_detected(s(0.1), s(0.05), s(0.1), s(0.3)),),
    "von_mises": lambda s: (von_mises_expected_capacity(s(0.15), s(0.05), s(0.1), s(2.0)),),
    "vshape": lambda s: vshape_detected(s(0.3), s(0.6)),
    "t_threshold": lambda s: (t_threshold(s(0.3), s(0.5)),),
    "t_threshold_seam": lambda s: (t_threshold(s(0.5), s(0.5)),),
    "t_threshold_edge": lambda s: (t_threshold(s(0.0), s(1.0)),),  # x = 0: no H' term
    "gad": lambda s: _affine_scalars(gad_affine(s(0.36), s(1.0))),
    "stretched": lambda s: _affine_scalars(stretched_affine(s(0.5), s(0.3))),
    "extremal": lambda s: _affine_scalars(extremal_affine(s(0.4), s(1.1))),
    "affine_qubit": lambda s: _affine_scalars(AffineQubitChannel(s(0.6), s(0.5), s(0.2), s(0.1))),
}


@pytest.mark.parametrize("scalar", [float, np.float64, np.asarray], ids=["float", "float64", "0-d"])
@pytest.mark.parametrize("case", SCALAR_RESULTS)
def test_scalar_inputs_give_python_floats_and_bools(case, scalar):
    # no numpy scalar escapes: every value is exactly a float or a bool;
    # c1_bits is None where no certificate holds
    values = [v for v in SCALAR_RESULTS[case](scalar) if v is not None]
    assert values and [type(v) for v in values] == [bool if type(v) is bool else float for v in values]
