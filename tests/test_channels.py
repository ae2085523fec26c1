import inspect
import json
import pathlib
import re

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from capdetect import (
    AffineQubitChannel,
    ChannelSpec,
    affine_to_kraus,
    apply_channel,
    computational_basis,
    conditional_probs,
    dephasing_axis_channel,
    detect_capacity,
    extremal_affine,
    gad_affine,
    is_cptp,
    kraus_to_affine,
    pauli_channel,
    pauli_family_channel,
    pseudoclassicality,
    rotated_pauli_channel,
    stretched_affine,
    vshape_qutrit_channel,
    weyl_bases,
)
from capdetect import qcore
from capdetect.channels import _FLOAT_MAX, _KINDS, check_numbers
from capdetect.qcore import PAULIS, SIGMA_Z, basis_ket
from conftest import (
    VALID_PARAMS,
    haar_random_basis,
    projector,
    random_cp_affine,
    random_cptp_channel,
    reference_affine_to_kraus,
    reference_check_numbers,
    reference_kraus_to_affine,
)


def test_pauli_family_identity():
    q = np.zeros((2, 2))
    q[0, 0] = 1.0
    ch = pauli_family_channel(2, q)
    assert len(ch.operators) == 1
    assert np.allclose(ch.operators[0], np.eye(2))


def test_pauli_family_d2_affine_map():
    lam, t = kraus_to_affine(pauli_channel(0.15, 0.05, 0.1))
    assert np.allclose(lam, np.diag([0.7, 0.5, 0.6]), atol=1e-12)
    assert np.allclose(t, 0.0, atol=1e-12)


def test_pauli_family_d3_uniform_is_uniform_in_weyl_bases():
    ch = pauli_family_channel(3, np.full((3, 3), 1 / 9))
    for b in weyl_bases(3):
        assert np.allclose(conditional_probs(ch, b), np.full((3, 3), 1 / 3), atol=1e-10)


def test_pauli_family_dim_follows_the_integer_rule():
    # as ChannelSpec checks dim; 2.0 passed the shape test, since
    # (2, 2) == (2.0, 2.0), and failed in weyl_operator with numpy's TypeError
    q = np.eye(2) / 2
    for dim in (2.0, True, 1):
        with pytest.raises(ValueError, match=rf"^dim must be an integer >= 2, got {dim!r}$"):
            pauli_family_channel(dim, q if dim != 1 else [[1.0]])
    assert np.array_equal(pauli_family_channel(np.int64(2), q).operators, pauli_family_channel(2, q).operators)


def test_pauli_family_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        pauli_family_channel(2, np.full((2, 2), 0.3))
    with pytest.raises(ValueError, match=r"^probability table q must be a finite number, got nan$"):
        pauli_family_channel(2, [[np.nan, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError, match=r"^q = -0\.25 outside \[0, 1\] \(1 of 4 entries\)$"):
        pauli_family_channel(2, [[-0.25, 0.75], [0.25, 0.25]])
    simplex = r"^simplex weight 1 - px - py - pz = -0\.19999999999999996 outside \[0, inf\]$"
    with pytest.raises(ValueError, match=simplex):
        pauli_channel(0.6, 0.6, 0.0)
    with pytest.raises(ValueError, match=r"^px = nan outside \[0, inf\]$"):
        pauli_channel(np.nan, 0.1, 0.1)


def test_pauli_family_q_entries_are_probabilities():
    # each entry is checked against [0, 1], so the sum cannot overflow
    with pytest.raises(ValueError, match=r"^q = 1e\+308 outside \[0, 1\] \(2 of 4 entries\)$"):
        pauli_family_channel(2, [[1e308, 1e308], [0, 0]])
    with pytest.raises(ValueError, match=r"^q = 1\.5 outside \[0, 1\] \(2 of 4 entries\)$"):
        pauli_family_channel(2, [[1.5, -0.5], [0, 0]])
    ch = pauli_family_channel(2, [[1 + 1e-13, 0], [0, -1e-13]])
    assert len(ch.operators) == 1
    # the builder reads q by the spec number rule, so a direct call rejects
    # what a spec rejects: a bool cell, and an array judged by its dtype
    for q, bad in (([[True, 0], [0, 0]], "True"), (np.eye(2, dtype=bool), "dtype bool"),
                   (np.array([[1, 0], [0, 0]]).astype("m8"), "dtype timedelta64")):
        with pytest.raises(ValueError, match=rf"^probability table q must be an array of numbers, got {bad}$"):
            pauli_family_channel(2, q)


def test_gad_affine_values():
    ch = gad_affine(0.36, 1.0)
    assert ch.lambda1 == pytest.approx(0.8, abs=1e-12)
    assert ch.lambda2 == pytest.approx(0.8, abs=1e-12)
    assert ch.lambda3 == pytest.approx(0.64, abs=1e-12)
    assert ch.t3 == pytest.approx(0.36, abs=1e-12)


def test_gad_half_p_is_unital():
    for g in np.linspace(0, 1, 11):
        assert gad_affine(g, 0.5).t3 == pytest.approx(0.0, abs=1e-12)


def test_extremal_alpha_zero_is_unital():
    ch = extremal_affine(0.0, 0.7)
    assert ch.t3 == pytest.approx(0.0, abs=1e-12)
    assert ch.lambda1 == pytest.approx(1.0)
    assert ch.lambda2 == pytest.approx(np.cos(0.7))
    assert ch.lambda3 == pytest.approx(np.cos(0.7))


def test_stretched_rejects_overstretching():
    with pytest.raises(ValueError, match="sqrt"):
        stretched_affine(0.5, 0.8)
    # the constructor's closed form decides the edge |s| = sqrt(1 - gamma)
    for gamma in (0.0, 0.5, 0.99):
        edge = math.sqrt(1.0 - gamma)
        for s in (edge - 1e-9, -(edge - 1e-9)):
            assert stretched_affine(gamma, s).lambda1 == s
        for s in (edge + 1e-9, -(edge + 1e-9)):
            message = f"|s| = {abs(s)} exceeds sqrt(1-gamma) = {edge:.6f}; not completely positive"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                stretched_affine(gamma, s)


def test_affine_constructor_rejects_cp_violation():
    with pytest.raises(ValueError, match=r"\(1\+l3\)\^2"):
        AffineQubitChannel(1.0, 1.0, 0.9, 0.0)


def _written_out_choi_min(l1, l2, l3, t3) -> float:
    """Least eigenvalue of sum_kl E(|k><l|) ⊗ |k><l| / 2, each E(|k><l|)
    applied through the Bloch form (l1, l2, l3, t3) term by term."""
    choi = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for l in range(2):
            e_kl = np.zeros((2, 2), dtype=complex)
            e_kl[k, l] = 1.0
            image = np.trace(e_kl) * (np.eye(2) + t3 * SIGMA_Z) / 2
            for li, si in zip((l1, l2, l3), PAULIS):
                image = image + li * np.trace(si @ e_kl) * si / 2
            choi += 0.5 * np.kron(image, e_kl)
    return float(np.linalg.eigvalsh(choi).min())


def _near_pole_cases(rng):
    """(l1, l2, l3, t3) near l3 = +-1, the pole's own block on both sides of
    its boundary sqrt(t3^2 + (l1 -+ l2)^2) = 1 -+ l3: l3 up to 9e-13 past the
    pole, radii from 1e-6 inside to 1e-6 outside, along the shift, the
    transverse axis and random directions."""
    for sign in (1.0, -1.0):
        for gap in (-9e-13, -1e-13, 0.0, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
            l3 = sign * (1.0 - gap)
            room = max(gap, 0.0)
            for off in (-1e-6, -1e-12, -3e-13, 0.0, 1e-13, 2e-13, 3e-13, 6e-13, 1e-12, 2e-12, 1e-9, 1e-6):
                for angle in (0.0, np.pi / 2, *rng.uniform(0.0, 2 * np.pi, 2)):
                    r = max(room * (1.0 + off) + off, 0.0)
                    t3, near = r * np.cos(angle), r * np.sin(angle)
                    far = rng.uniform(-1.0, 1.0)  # l1 +- l2 of the other block, far inside
                    if sign > 0:  # the minus block is the pole's
                        yield (far + near) / 2, (far - near) / 2, l3, t3
                    else:
                        yield (near + far) / 2, (near - far) / 2, l3, t3


def test_cp_region_is_the_choi_blocks_closed_form_near_the_poles():
    # the constructor accepted (0, 0, 0.999999, 1.4e-6), whose quadratic
    # margin is -9.6e-13, although its Choi matrix has the eigenvalue -1e-7
    with pytest.raises(ValueError, match=r"^not completely positive: \(l1-l2\)\^2 <= \(1-l3\)\^2 - t3\^2 "
                                         r"violated by 4\.000e-07$"):
        AffineQubitChannel(0, 0, 0.999999, 1.4e-6)
    accepted = rejected = 0
    for params in _near_pole_cases(np.random.default_rng(40)):
        clamped = [min(max(float(p), -1.0), 1.0) for p in params]
        least = _written_out_choi_min(*clamped)
        ch = _cp_or_none(*params)
        if ch is None:
            rejected += 1
            assert least < -2.5e-13 + 1e-15, params
            continue
        accepted += 1
        assert [ch.lambda1, ch.lambda2, ch.lambda3, ch.t3] == clamped
        assert least >= -2.5e-13 - 1e-15, params  # so affine_to_kraus needs no guard of its own
        kraus = affine_to_kraus(ch)
        assert is_cptp(kraus).trace_preservation_error <= 1e-10, params
        report = pseudoclassicality(ch)
        assert report.pseudoclassical in (True, False)
        spec = {"lambda1": params[0], "lambda2": params[1], "lambda3": params[2], "t3": params[3]}
        c_det = detect_capacity(ChannelSpec("affine_qubit", spec).build()).c_det_bits
        assert 0.0 <= c_det <= 1.0 + 1e-12, params
    assert accepted >= 600 and rejected >= 250


def test_vshape_endpoints():
    assert len(vshape_qutrit_channel(0.0, 0.0).operators) == 1
    ch = vshape_qutrit_channel(1.0, 1.0)
    rho = np.full((3, 3), 1 / 3, dtype=complex)
    assert np.allclose(apply_channel(ch, rho), projector(basis_ket(3, 0)))
    assert is_cptp(vshape_qutrit_channel(0.5, 0.5)).valid


def test_dephasing_axis_z_is_pauli_z():
    lam, t = kraus_to_affine(dephasing_axis_channel(0.3, 0.0, 0.0))
    assert np.allclose(lam, np.diag([0.4, 0.4, 1.0]), atol=1e-12)
    assert np.allclose(t, 0.0, atol=1e-12)


def test_dephasing_axis_p_zero_is_identity():
    ch = dephasing_axis_channel(0.0, 0.7, 1.2)
    assert len(ch.operators) == 1
    assert np.allclose(ch.operators[0], np.eye(2))


def test_dephasing_axis_z_flip_probability():
    # flip probability in the z basis is p sin^2(theta)
    theta = np.arccos(1 / np.sqrt(3))
    ch = dephasing_axis_channel(0.9, theta, np.pi / 4)
    t = conditional_probs(ch, computational_basis(2))
    assert t[1, 0] == pytest.approx(0.9 * np.sin(theta) ** 2, abs=1e-12)
    assert t[1, 0] == pytest.approx(0.6, abs=1e-12)


def test_rotated_pauli_phi_zero_matches_plain():
    a = rotated_pauli_channel(0.15, 0.05, 0.1, 0.0)
    b = pauli_channel(0.15, 0.05, 0.1)
    for x, y in zip(a.operators, b.operators):
        assert np.allclose(x, y)


def test_rotated_pauli_z_statistics_unchanged():
    z = computational_basis(2)
    ref = conditional_probs(pauli_channel(0.15, 0.05, 0.1), z)
    for phi in (-np.pi, -1.1, 0.4, np.pi):
        t = conditional_probs(rotated_pauli_channel(0.15, 0.05, 0.1, phi), z)
        assert np.allclose(t, ref, atol=1e-12)
        assert t[1, 0] == pytest.approx(0.2, abs=1e-12)


def test_stacked_builders_keep_the_bits_of_their_operator_loops():
    # pauli_family_channel and rotated_pauli_channel against the
    # operator-by-operator forms they replaced, to the bit
    rng = np.random.default_rng(36)
    for d in (2, 3, 5):
        q = rng.dirichlet(np.ones(d * d)).reshape(d, d)
        q[q < 0.5 / d**2] = 0.0
        q /= q.sum()
        loop = []
        for l in range(d):
            for s in range(d):
                if q[l, s] > 0.0:
                    u, k = np.zeros((d, d), dtype=complex), np.arange(d)
                    u[k, (k + s) % d] = np.exp(2j * np.pi * k * l / d)
                    loop.append(np.sqrt(q[l, s]) * u)
        assert np.array_equal(pauli_family_channel(d, q).operators.view(np.int64), np.array(loop).view(np.int64))
    for phi in (-np.pi, -1.1, 0.0, 0.4, np.pi):
        rot = np.cos(phi / 2) * np.eye(2, dtype=complex) + 1j * np.sin(phi / 2) * SIGMA_Z
        loop = [rot @ a for a in pauli_channel(0.15, 0.05, 0.1).operators]
        got = rotated_pauli_channel(0.15, 0.05, 0.1, phi).operators
        assert np.array_equal(got.view(np.int64), np.array(loop).view(np.int64))


def test_kraus_to_affine_keeps_the_bits_of_its_pauli_loop():
    rng = np.random.default_rng(38)
    channels = [random_cptp_channel(2, r, rng) for r in range(1, 5) for _ in range(3)]
    channels += [pauli_channel(0.15, 0.05, 0.1), dephasing_axis_channel(0.3, 0.5, 1.0),
                 affine_to_kraus(gad_affine(0.36, 1.0)), affine_to_kraus(extremal_affine(0.4, 1.1))]
    for ch in channels:
        for got, want in zip(kraus_to_affine(ch), reference_kraus_to_affine(ch)):
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(ValueError, match=r"^affine Bloch form needs a qubit channel, got dim 3$"):
        kraus_to_affine(random_cptp_channel(3, 2, rng))


def test_kraus_build_forms_no_choi_matrix(monkeypatch):
    # a Kraus set is completely positive by construction, so build checks
    # trace preservation alone: no Choi matrix and no eigensolver
    def refuse(*args, **kwargs):
        raise AssertionError("a kraus build formed the Choi spectrum")

    monkeypatch.setattr(qcore, "choi_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    member = json.loads((pathlib.Path(__file__).resolve().parent / "data" / "kraus_d5_member24.json").read_text())
    assert ChannelSpec.from_dict(member).build().dim == 5
    assert ChannelSpec("kraus", VALID_PARAMS["kraus"]).build().dim == 2
    half = [[[1 / np.sqrt(2), 0], [0, 0], [0, 0], [1 / np.sqrt(2), 0]]]
    with pytest.raises(ValueError, match=r"^Kraus set is not CPTP: trace-preservation error 5\.000e-01$"):
        ChannelSpec("kraus", {"dim": 2, "operators": half}).build()


def test_affine_to_kraus_identity():
    ch = affine_to_kraus(AffineQubitChannel(1.0, 1.0, 1.0, 0.0))
    assert len(ch.operators) == 1
    assert np.allclose(np.abs(ch.operators[0]), np.eye(2), atol=1e-8)


def test_affine_to_kraus_depolarizing():
    ch = affine_to_kraus(AffineQubitChannel(0.0, 0.0, 0.0, 0.0))
    rng = np.random.default_rng(6)

    for _ in range(5):
        t = conditional_probs(ch, haar_random_basis(2, rng))
        assert np.allclose(t, 0.5, atol=1e-10)


def test_affine_to_kraus_gad_z_errors():
    ch = affine_to_kraus(gad_affine(0.36, 1.0))
    t = conditional_probs(ch, computational_basis(2))
    # input |0> (excited Bloch +z) is noise-free, input |1> decays with 0.36
    assert t[1, 0] == pytest.approx(0.0, abs=1e-10)
    assert t[0, 1] == pytest.approx(0.36, abs=1e-10)


def _cp_or_none(*params):
    try:
        return AffineQubitChannel(*params)
    except ValueError:
        return None


def _written_out_choi_cases(rng):
    """Canonical channels for the bit-for-bit Choi test: uniform in the CP
    region, with t3 = 0, with l1 = l2, just inside the CP boundary along a
    random ray, signed zeros and the corners, and every affine zoo kind."""
    yield from (random_cp_affine(rng) for _ in range(3000))
    for tie in (False, True):  # t3 = 0, then l1 = l2
        n = 0
        while n < 600:
            l1, l2, l3, t3 = rng.uniform(-1, 1, 4)
            ch = _cp_or_none(l1, l1 if tie else l2, l3, t3 if tie else 0.0)
            if ch is not None:
                n += 1
                yield ch
    for _ in range(600):
        ray, lo, hi = rng.uniform(-1, 1, 4), 0.0, 2.0
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _cp_or_none(*(mid * ray)) else (lo, mid)
        yield AffineQubitChannel(*(lo * ray))
    for params in ((-0.0, -0.0, -0.0, -0.0), (0, 0, 0, 0), (1, 1, 1, 0), (-1, -1, 1, 0), (0, 0, 1, 0),
                   (-0.0, 0.0, 0.0, 1.0), (0.0, -0.0, 0.0, -1.0), (-0.0, 0.0, -1.0, 0.0), (1, -1, -1, 0)):
        yield AffineQubitChannel(*params)
    grid = np.linspace(0.0, 1.0, 9)
    for a in grid:
        for b in grid:
            yield gad_affine(a, b)
            yield stretched_affine(a, (2 * b - 1) * np.sqrt(1 - a))
            yield extremal_affine(a * np.pi / 2, max(a, b) * np.pi / 2)
            yield ChannelSpec("affine_qubit", {"lambda1": b, "lambda2": b * a, "lambda3": a, "t3": 0.0}).affine()


def test_affine_to_kraus_writes_out_the_choi_construction_bit_for_bit():
    # the 8 written-out Choi entries keep the bits of applying the Bloch
    # form to each |k><l|, so eigh and the Kraus operators keep theirs; the
    # cases cover every zoo kind with an affine form
    assert {k for k, b in _KINDS.items() if b is AffineQubitChannel
            or inspect.signature(b).return_annotation is AffineQubitChannel} == {
        "gad", "stretched", "extremal", "affine_qubit"}
    count = 0
    for ch in _written_out_choi_cases(np.random.default_rng(18)):
        ref, got = reference_affine_to_kraus(ch), affine_to_kraus(ch)
        assert len(got.operators) == len(ref.operators)
        for a, b in zip(got.operators, ref.operators):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), ch
        count += 1
    assert count >= 5000


def test_affine_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ch = random_cp_affine(rng)
        lam, t = kraus_to_affine(affine_to_kraus(ch))
        assert np.allclose(np.diag(lam), [ch.lambda1, ch.lambda2, ch.lambda3], atol=1e-9)
        assert np.allclose(lam - np.diag(np.diag(lam)), 0.0, atol=1e-9)
        assert np.allclose(t, [0.0, 0.0, ch.t3], atol=1e-9)


def test_cp_inequality_matches_choi_psd():
    # the two complete-positivity tests agree outside a 1e-8 boundary band
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(10_000, 4))
    checked = 0
    for l1, l2, l3, t3 in pts:
        margin = min(
            (1 + l3) ** 2 - t3**2 - (l1 + l2) ** 2,
            (1 - l3) ** 2 - t3**2 - (l1 - l2) ** 2,
        )
        if abs(margin) <= 1e-8:
            continue
        blocks = [
            np.array([[1 + l3 + t3, l1 + l2], [l1 + l2, 1 + l3 - t3]]) / 4,
            np.array([[1 - l3 + t3, l1 - l2], [l1 - l2, 1 - l3 - t3]]) / 4,
        ]
        min_eig = min(np.linalg.eigvalsh(b).min() for b in blocks)
        checked += 1
        if margin > 0:
            assert min_eig > -1e-8
        else:
            assert min_eig < 1e-8
    assert checked > 9000


def test_zoo_constructors_cptp_on_grids():
    grid = np.linspace(0.0, 1.0, 15)
    for g in grid:
        for p in grid:
            assert is_cptp(affine_to_kraus(gad_affine(g, p)), tol=1e-9).valid
    for g in grid:
        for s in np.linspace(-1, 1, 15) * np.sqrt(1 - g):
            assert is_cptp(affine_to_kraus(stretched_affine(g, s)), tol=1e-9).valid
    for a in np.linspace(0, np.pi / 2, 10):
        for b in np.linspace(a, np.pi / 2, 10):
            assert is_cptp(affine_to_kraus(extremal_affine(a, b)), tol=1e-9).valid
    for g1 in np.linspace(0, 1, 15):
        for g2 in np.linspace(0, 1, 15):
            assert is_cptp(vshape_qutrit_channel(g1, g2), tol=1e-9).valid
    for p in np.linspace(0, 1, 8):
        for th in np.linspace(0, np.pi / 2, 5):
            for ph in np.linspace(0, 2 * np.pi, 6, endpoint=False):
                assert is_cptp(dephasing_axis_channel(p, th, ph), tol=1e-9).valid


def test_channel_spec_valid_gad():
    spec = ChannelSpec.from_dict({"kind": "gad", "params": {"gamma": 0.36, "p": 1.0}})
    assert spec.affine().t3 == pytest.approx(0.36)
    assert is_cptp(spec.build()).valid


def test_readme_spec_table_lists_every_kind_and_parameter():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Channel spec files", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.M)
    documented = {kind: re.findall(r"(optional )?`(\w+)`", params) for kind, params in rows}
    expected = {}
    for kind, builder in _KINDS.items():
        params = inspect.signature(builder).parameters.values()
        expected[kind] = [("optional " if p.default is not p.empty else "", p.name) for p in params]
    assert documented == expected


def test_channel_spec_rejects_overstretched():
    with pytest.raises(ValueError, match="sqrt"):
        ChannelSpec.from_dict({"kind": "stretched", "params": {"gamma": 0.5, "s": 0.8}}).build()


def test_channel_spec_rejects_simplex_violation():
    with pytest.raises(ValueError, match="simplex"):
        ChannelSpec.from_dict({"kind": "pauli", "params": {"px": 0.6, "py": 0.6, "pz": 0.0}}).build()


def test_channel_spec_rejects_unknown_kind_and_params():
    # constructing a spec checks it, so the constructor and from_dict agree
    for kind, params, message in (
        ("mystery", {}, "unknown channel kind 'mystery'; choose from "),
        ("gad", {"gamma": 0.1, "p": 0.5, "zeta": 1}, "unknown parameter(s) for kind 'gad': ['zeta']"),
        ("gad", {"gamma": 0.1}, "missing parameter(s) for kind 'gad': ['p']"),
        ("gad", [0.1, 0.5], "'params' must be an object"),
        ("kraus", {"dim": 1, "operators": [[[1, 0]]]}, "kraus dim must be an integer >= 2, got 1"),
    ):
        for make in (lambda: ChannelSpec(kind, params),
                     lambda: ChannelSpec.from_dict({"kind": kind, "params": params})):
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                make()


def test_channel_spec_rejects_non_numeric_parameters():
    for kind, params, bad in (
        ("pauli", {"px": "0.1", "py": 0.1, "pz": 0.1}, "px"),
        ("gad", {"gamma": 0.1, "p": None}, "p"),
        ("rotated_pauli", {"px": 0.1, "py": 0.1, "pz": 0.1, "phi": [0.2]}, "phi"),
        ("affine_qubit", {"lambda1": 0.5, "lambda2": 0.5, "lambda3": True}, "lambda3"),
        ("generalized_pauli", {"dim": "3", "q": np.eye(3).tolist()}, "dim"),
    ):
        with pytest.raises(ValueError, match=f"parameter '{bad}' of kind '{kind}' must be a number"):
            ChannelSpec.from_dict({"kind": kind, "params": params})


def test_channel_spec_kraus_round_trip():
    ops = pauli_channel(0.15, 0.05, 0.1).operators
    doc = {
        "kind": "kraus",
        "params": {
            "dim": 2,
            "operators": [[[c.real, c.imag] for c in op.reshape(-1)] for op in ops],
        },
    }
    spec = ChannelSpec.from_dict(doc)
    rebuilt = spec.build()
    for a, b in zip(rebuilt.operators, ops):
        assert np.allclose(a, b)


def test_channel_spec_rejects_non_cptp_kraus():
    doc = {
        "kind": "kraus",
        "params": {"dim": 2, "operators": [[[1 / np.sqrt(2), 0], [0, 0], [0, 0], [1 / np.sqrt(2), 0]]]},
    }
    spec = ChannelSpec.from_dict(doc)  # ranges and CPTP are checked by build()
    with pytest.raises(ValueError, match="not CPTP"):
        spec.build()
    assert not is_cptp(spec.build(require_cptp=False)).valid


def test_channel_spec_rejects_non_numeric_cells():
    # checked when the spec is constructed, before any channel is built
    with pytest.raises(ValueError, match=r"^parameter 'px' of kind 'pauli' must be a number, got '0.1'$"):
        ChannelSpec("pauli", {"px": "0.1", "py": 0.1, "pz": 0.1}).build()
    array_msg = "parameter '{}' of kind '{}' must be an array of numbers, got {}"
    for kind, params, bad in (
        ("generalized_pauli", {"dim": 2, "q": [["0.7", 0.1], [0.1, 0.1]]}, "'0.7'"),
        ("generalized_pauli", {"dim": 2, "q": [[True, False], [False, False]]}, "True"),
        ("kraus", {"dim": 2, "operators": [[["1", 0], [0, 0], [0, 0], [1, 0]]]}, "'1'"),
        ("kraus", {"dim": 2, "operators": [[[1, 0], [0, 0], [0, 0], [None, 0]]]}, "None"),
    ):
        name = "q" if kind == "generalized_pauli" else "operators"
        message = "^" + re.escape(array_msg.format(name, kind, bad)) + "$"
        with pytest.raises(ValueError, match=message):
            ChannelSpec.from_dict({"kind": kind, "params": params})
        with pytest.raises(ValueError, match=message):
            ChannelSpec(kind, params).build()
    # numbers in numpy arrays and tuples are still accepted
    q = np.array([[0.7, 0.1], [0.1, 0.1]])
    assert ChannelSpec("generalized_pauli", {"dim": 2, "q": q}).build().dim == 2
    assert ChannelSpec("generalized_pauli", {"dim": 2, "q": tuple(map(tuple, q))}).build().dim == 2
    # the spec keeps each array as the check read it, a float array, which
    # the builder takes without reading its cells again; its params, repr
    # and equality stay those of the parameters as given
    spec = ChannelSpec("generalized_pauli", {"dim": 2, "q": [[1, 0], [0, 0]]})
    assert spec._arrays["q"].dtype == float and np.array_equal(spec._arrays["q"], [[1, 0], [0, 0]])
    assert spec.params == {"dim": 2, "q": [[1, 0], [0, 0]]}
    assert spec == ChannelSpec("generalized_pauli", {"dim": 2, "q": [[1, 0], [0, 0]]})
    assert spec != ChannelSpec("generalized_pauli", {"dim": 2, "q": [[0, 1], [0, 0]]})
    assert repr(spec) == "ChannelSpec(kind='generalized_pauli', params={'dim': 2, 'q': [[1, 0], [0, 0]]})"
    kraus = {"dim": 2, "operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}
    assert [op.shape for op in ChannelSpec("kraus", kraus)._arrays["operators"]] == [(4, 2)]
    assert ChannelSpec("kraus", kraus) == ChannelSpec.from_dict({"kind": "kraus", "params": kraus})
    # numpy refuses a ragged table as one array, and so does the spec
    with pytest.raises(ValueError, match=r"^parameter 'q' of kind 'generalized_pauli' is not a rectangular "
                                         r"array of numbers$"):
        ChannelSpec("generalized_pauli", {"dim": 2, "q": [np.zeros((2, 2)), np.zeros(2)]})
    # a numpy array is judged by its dtype, also inside a list: numpy reads
    # the cells of a duration, a nanosecond time or a record as numbers
    records = np.zeros((2, 2), dtype=[("n", float)])
    records["n"][0, 0] = 1.0
    for q, dtype in ((np.array([[1, 0], [0, 0]]).astype("m8"), "timedelta64"),
                     ([np.array([1, 0]).astype("M8[ns]"), [0, 0]], "datetime64[ns]"),
                     (records, "[('n', '<f8')]"), (np.eye(2, dtype=bool), "bool"),
                     (np.eye(2, dtype=object), "object")):
        with pytest.raises(ValueError, match=r"^parameter 'q' of kind 'generalized_pauli' must be an array of "
                                             rf"numbers, got dtype {re.escape(dtype)}$"):
            ChannelSpec("generalized_pauli", {"dim": 2, "q": q})
    # lists nested past the recursion limit, or into themselves, which the
    # cell walk recursed into until a RecursionError
    deep, loop = [0.5], []
    for _ in range(5000):
        deep = [deep]
    loop.append(loop)
    for q in (deep, loop):
        with pytest.raises(ValueError, match=r"^parameter 'q' of kind 'generalized_pauli' is nested too deeply$"):
            ChannelSpec.from_dict({"kind": "generalized_pauli", "params": {"dim": 2, "q": q}})
    # so are numpy's integer and float scalars, as check_integer takes them,
    # which build the channel their Python values give
    assert ChannelSpec("generalized_pauli", {"dim": np.int64(2), "q": [[1, 0], [0, 0]]}).build().dim == 2
    gad = ChannelSpec("gad", {"gamma": np.float32(0.3), "p": np.float64(1.0)}).build()
    same = ChannelSpec("gad", {"gamma": float(np.float32(0.3)), "p": 1.0}).build()
    assert np.array_equal(gad.operators, same.operators)
    q = [[np.int64(1), np.int64(0)], [np.uint8(0), np.int32(0)]]
    assert np.array_equal(ChannelSpec("generalized_pauli", {"dim": 2, "q": q}).build().operators,
                          pauli_family_channel(2, [[1.0, 0.0], [0.0, 0.0]]).operators)
    # a numpy bool is still no number; it and a numpy NaN are named as
    # Python's values, alike on every numpy
    with pytest.raises(ValueError, match=r"^parameter 'px' of kind 'pauli' must be a number, got True$"):
        ChannelSpec("pauli", {"px": np.True_, "py": 0.1, "pz": 0.1})
    with pytest.raises(ValueError, match=r"^parameter 'q' of kind 'generalized_pauli' must be an array of numbers, "
                                         r"got False$"):
        ChannelSpec("generalized_pauli", {"dim": 2, "q": [[1, np.False_], [0, 0]]})
    with pytest.raises(ValueError, match=r"^parameter 'gamma' of kind 'gad' must be a finite number, got nan$"):
        ChannelSpec("gad", {"gamma": np.float32("nan"), "p": 1.0})
    # numpy's times are no numbers, though a nanosecond one's item() is an int
    for when in (np.datetime64(1, "ns"), np.timedelta64(1, "ns")):
        with pytest.raises(ValueError, match=r"^parameter 'gamma' of kind 'gad' must be a number, got "):
            ChannelSpec("gad", {"gamma": when, "p": 1.0})


# Spec cells: valid lists pass level by level, an array of integers or
# floats by its dtype, and any other value is walked cell by cell, so the
# first bad cell keeps its text. numpy's integer and float scalars are
# numbers; its bools and durations are not.
_GOOD_CELLS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**64), 2**64)
               | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.integers(0, 255).map(np.uint8)
               | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
               | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32))
_BAD_CELLS = st.sampled_from([True, False, None, "0.1", "", math.nan, math.inf, -math.inf, 10**400,
                              -(10**400), int(_FLOAT_MAX) + 1, b"1", 1j, {"re": 1}, np.True_, np.False_,
                              np.float64(math.nan), np.float32(math.inf), np.timedelta64(1, "s"),
                              np.datetime64(1, "ns"), np.complex128(1j)])
_CELLS = _GOOD_CELLS | _BAD_CELLS


@st.composite
def _cell_arrays(draw):
    """A rectangular nested list, tuple or array of cells, mostly valid, or
    one with a row cut short or given another depth."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    cells = draw(st.lists(_GOOD_CELLS, min_size=math.prod(shape), max_size=math.prod(shape)))
    for i in draw(st.sets(st.integers(0, max(len(cells) - 1, 0)), max_size=2)) if cells else ():
        cells[i] = draw(_CELLS)
    value = np.array(cells, dtype=object).reshape(shape).tolist()
    how = draw(st.sampled_from(["list", "list", "tuple", "array", "ragged", "deeper"]))
    if how == "tuple":
        value = tuple(map(tuple, value)) if len(shape) > 1 else tuple(value)
    elif how == "array" and all(type(c) in (int, float) for c in cells):
        value = np.array(value)  # int64, uint64 or float64, or object past 64 bits
    elif how in ("ragged", "deeper") and len(shape) > 1 and shape[0] > 1 and shape[1] > 0:
        value[-1] = value[-1][:-1] if how == "ragged" else [value[-1]]
    return value


_NESTED_CELLS = st.recursive(_CELLS, lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
                             max_leaves=12)


def _holds_other_arrays(value) -> bool:
    """Whether ``value`` is, or holds in its lists and tuples, a numpy array
    whose dtype is neither an integer nor a float other than
    ``np.longdouble``."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "iuf" or value.dtype.char == "g"
    return isinstance(value, (list, tuple)) and any(map(_holds_other_arrays, value))


_RECORDS = np.zeros((2, 2), dtype=[("n", float)])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_cell_arrays() | _NESTED_CELLS)
@example([[1.0], [0, 0]])
@example([[[1, 0], [0]], [[1, 0], [0, 1]]])
@example([[1, 0], [0, [10**400]]])
@example([[0.5, int(_FLOAT_MAX) + 1]])
@example(np.array([[0.5, math.nan]]))
@example(np.array([[1, 0], [0, 0]]).astype("m8"))
@example([np.array([1, 0]).astype("M8[ns]"), [0, 0]])
@example(_RECORDS)
@example(np.eye(2, dtype=bool))
def test_check_numbers_names_the_cell_the_walk_names(value):
    """check_numbers accepts a value exactly when the cell-by-cell walk
    does and numpy reads it as one array, and then returns what
    np.asarray(value, dtype=float) returns, to the bit; otherwise it raises
    the walk's text, naming the same first bad cell, or says the value is
    not rectangular. An array of any dtype but integers and floats fails by
    its dtype, which the walk does not judge."""
    def outcome(check):
        try:
            return check(value, "parameter 'q'")
        except ValueError as exc:
            return str(exc)
    got, walked = outcome(check_numbers), outcome(reference_check_numbers)
    if _holds_other_arrays(value):
        assert isinstance(got, str)
        assert got == walked or got.startswith("parameter 'q' must be an array of numbers, got dtype ")
    elif walked is not None:
        assert isinstance(got, str) and got == walked
    else:
        try:
            want = np.asarray(value, dtype=float)
        except ValueError:
            assert got == "parameter 'q' is not a rectangular array of numbers"
        else:
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
