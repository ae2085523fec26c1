"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Tolerances are pinned to the stated targets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from capdetect import (
    DetectionConfig,
    affine_to_kraus,
    binary_capacity,
    binary_entropy,
    blahut_arimoto,
    computational_basis,
    conditional_probs,
    dephasing_axis_channel,
    dephasing_detected,
    detect_capacity,
    detect_pauli_qubit,
    pauli_channel,
    pseudoclassicality,
    rotated_pauli_channel,
    rotated_pauli_detected,
    stretched_affine,
    t_threshold,
    von_mises_expected_capacity,
    vshape_qutrit_channel,
    detect_from_samples,
)
from capdetect.cli import main, reproduce_figure
from conftest import (
    entangled_joint_distribution,
    fourier_basis,
    haar_random_basis,
    qutrit_vshape_transitions,
    random_cp_affine,
    random_cptp_channel,
    random_transition,
    simplex_grid_search_capacity,
    table_rows,
)

LN2 = np.log(2.0)


def _report(num, runtime, budget, detail):
    assert runtime < budget, f"criterion {num} exceeded budget: {runtime:.2f}s >= {budget}s"
    print(f"ACCEPTANCE {num}: PASS ({runtime:.2f}s < {budget}s) {detail}")


def test_criterion_01_z_channel_closed_form(capsys):
    best = float("inf")
    for _ in range(200):
        t0 = time.perf_counter()
        binary_capacity(0.0, 0.5)
        best = min(best, time.perf_counter() - t0)
    cap, p0 = binary_capacity(0.0, 0.5)
    assert cap == pytest.approx(0.321928, abs=1e-6)
    assert p0 == pytest.approx(0.6, abs=1e-6)
    assert best < 1e-3, f"single evaluation took {best * 1e3:.3f} ms"
    code = main(["binary", "0", "0.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["capacity_bits"] == pytest.approx(0.321928, abs=1e-6)
    assert out["optimal_p0"] == pytest.approx(0.6, abs=1e-6)
    _report(1, best, 1e-3, f"C={cap:.6f}, p0={p0:.6f}, eval {best * 1e6:.1f} us")


def test_criterion_02_ba_matches_closed_form_and_grid_search():
    t0 = time.perf_counter()
    worst_closed = 0.0
    for e0 in np.linspace(0.0, 0.5, 50):
        for e1 in np.linspace(0.0, 0.5, 50):
            t = np.array([[1 - e0, e1], [e0, 1 - e1]])
            ba = blahut_arimoto(t, tol_bits=1e-8).capacity_bits
            worst_closed = max(worst_closed, abs(ba - binary_capacity(e0, e1).capacity_bits))
    assert worst_closed < 1e-6

    rng = np.random.default_rng(2024)
    worst_grid = 0.0
    for size in (3, 4):
        for _ in range(50):
            t = random_transition(rng, size, size)
            ba = blahut_arimoto(t, tol_bits=1e-8).capacity_bits
            worst_grid = max(worst_grid, abs(ba - simplex_grid_search_capacity(t)))
    assert worst_grid < 1e-5
    runtime = time.perf_counter() - t0
    _report(2, runtime, 30.0, f"|BA-closed| {worst_closed:.2e}, |BA-grid| {worst_grid:.2e}")


def test_criterion_03_fig1_reproduction(tmp_path):
    t0 = time.perf_counter()
    rows = table_rows(reproduce_figure("fig1", out=str(tmp_path / "fig1.csv"))[1])
    assert len(rows) == 101
    worst = 0.0
    for g, c_det, c1 in rows:
        exact = 1.0 - binary_entropy((1.0 - np.sqrt(1.0 - g)) / 2.0)
        worst = max(worst, abs(c_det - exact))
        if 0.0 < g < 1.0:
            assert c1 > c_det, f"no strict gap at gamma={g}"
    assert worst < 1e-9
    assert rows[0][1] == pytest.approx(1.0, abs=1e-9)
    assert rows[0][2] == pytest.approx(1.0, abs=1e-9)
    assert rows[-1][1] == pytest.approx(0.0, abs=1e-9)
    assert rows[-1][2] == pytest.approx(0.0, abs=1e-9)
    runtime = time.perf_counter() - t0
    _report(3, runtime, 10.0, f"101 points, worst |C_DET - closed| = {worst:.2e}")


def test_criterion_04_pseudoclassicality_threshold():
    t0 = time.perf_counter()

    def certified(s):
        return pseudoclassicality(stretched_affine(0.5, s)).pseudoclassical

    lo, hi = 0.0, np.sqrt(0.5)
    assert certified(lo) and not certified(hi)
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        if certified(mid):
            lo = mid
        else:
            hi = mid
    boundary = (lo + hi) / 2
    assert abs(boundary - np.sqrt(LN2 / 2)) < 1e-3
    for s in (0.0, 0.2, 0.45, 0.58):
        rep = pseudoclassicality(stretched_affine(0.5, s))
        assert rep.pseudoclassical
        assert rep.c1_bits == pytest.approx(0.321928, abs=1e-6)
        assert detect_pauli_qubit(stretched_affine(0.5, s)).c_det_bits == pytest.approx(
            0.321928, abs=1e-6
        )
    runtime = time.perf_counter() - t0
    _report(4, runtime, 5.0, f"flag flips at |s| = {boundary:.6f} (sqrt(ln2/2) = {np.sqrt(LN2/2):.6f})")


def test_criterion_05_t_function_anchor_and_continuity():
    t0 = time.perf_counter()
    assert t_threshold(0.5, 0.5) == pytest.approx(LN2 / 2, abs=1e-9)
    # two-sided continuity at an interior seam point (the (0.5, 0.5) anchor
    # sits on the complete-positivity boundary, so its right side is out of
    # domain); plus the one-sided approach to the anchor itself
    r = 0.3
    mid = t_threshold(r, r)
    worst = 0.0
    for d in (3e-7, 6e-7, 9e-7, 1.5e-6, 5e-6):
        worst = max(worst, abs(t_threshold(r - d, r) - mid), abs(t_threshold(r + d, r) - mid))
    assert worst < 1e-6
    for d in (1e-9, 1e-8, 1e-7):
        assert abs(t_threshold(0.5 - d, 0.5) - LN2 / 2) < 1e-6
    runtime = time.perf_counter() - t0
    _report(5, runtime, 5.0, f"T(1/2,1/2) = ln2/2 exact, worst seam jump {worst:.2e}")


def test_criterion_06_fig4_endpoints_and_monotonicity():
    t0 = time.perf_counter()
    v0 = von_mises_expected_capacity(0.15, 0.05, 0.1, 0.0)
    v_inf = von_mises_expected_capacity(0.15, 0.05, 0.1, 1000.0)
    assert v0 == pytest.approx(0.3031, abs=5e-3)
    assert v_inf == pytest.approx(0.3902, abs=1e-3)
    ks = list(np.arange(0.0, 10.5, 0.5)) + [20.0, 50.0, 100.0, 1000.0]
    vals = [von_mises_expected_capacity(0.15, 0.05, 0.1, k) for k in ks]
    assert np.all(np.diff(vals) >= -1e-12)
    runtime = time.perf_counter() - t0
    _report(6, runtime, 20.0, f"K=0: {v0:.4f}, K=1e3: {v_inf:.4f}, monotone over {len(ks)} K values")


def test_criterion_07_qutrit_analytics_and_fig2(tmp_path):
    t0 = time.perf_counter()
    b1 = computational_basis(3, "B1")
    b2 = fourier_basis(3, "B2")
    worst_q = 0.0
    worst_ba = 0.0
    for g01 in np.linspace(0.0, 1.0, 21):
        for g02 in np.linspace(0.0, 1.0, 21):
            ch = vshape_qutrit_channel(g01, g02)
            q1, q2, gt = qutrit_vshape_transitions(g01, g02)
            worst_q = max(
                worst_q,
                np.max(np.abs(conditional_probs(ch, b1) - q1)),
                np.max(np.abs(conditional_probs(ch, b2) - q2)),
            )
            shortcut = np.log2(3.0)
            probs = np.array([gt, gt, 1 - 2 * gt])
            nz = probs[probs > 0]
            shortcut += (nz * np.log2(nz)).sum()
            ba = blahut_arimoto(q2, tol_bits=1e-8).capacity_bits
            worst_ba = max(worst_ba, abs(shortcut - ba))
    assert worst_q < 1e-12
    assert worst_ba < 1e-6
    rows = table_rows(reproduce_figure("fig2", out=str(tmp_path / "fig2.csv"))[1])
    labels = {r[3] for r in rows}
    assert labels == {"B1", "B2"}, "argmax region boundary missing"
    runtime = time.perf_counter() - t0
    _report(
        7, runtime, 60.0,
        f"21x21 worst |Q - engine| = {worst_q:.1e}, |shortcut - BA| = {worst_ba:.1e}, "
        f"fig2 {len(rows)} rows with both regions",
    )


def test_criterion_08_entangled_protocol_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for i in range(500):
        d = 2 + i % 2
        ch = random_cptp_channel(d, int(rng.integers(1, d * d + 1)), rng)
        basis = haar_random_basis(d, rng)
        joint = entangled_joint_distribution(ch, basis)
        cond = conditional_probs(ch, basis)
        worst = max(worst, float(np.max(np.abs(joint - cond / d))))
    assert worst < 1e-10
    runtime = time.perf_counter() - t0
    _report(8, runtime, 30.0, f"500 pairs, worst |P - p/d| = {worst:.2e}")


def test_criterion_09_closed_forms_match_engine():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    cfg = DetectionConfig("pauli", ba_tolerance_bits=1e-10)

    worst_affine = 0.0
    for _ in range(1000):
        ch = random_cp_affine(rng)
        eng = detect_capacity(affine_to_kraus(ch), cfg).c_det_bits
        worst_affine = max(worst_affine, abs(eng - detect_pauli_qubit(ch).c_det_bits))
    assert worst_affine < 1e-9

    worst_deph = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, 1.0)
        th = rng.uniform(0.0, np.pi / 2)
        ph = rng.uniform(0.0, 2 * np.pi)
        eng = detect_capacity(dephasing_axis_channel(p, th, ph), cfg).c_det_bits
        worst_deph = max(worst_deph, abs(eng - dephasing_detected(p, th, ph)))
    assert worst_deph < 1e-9

    worst_rot = 0.0
    for _ in range(1000):
        pr = rng.dirichlet(np.ones(4))
        phi = rng.uniform(-np.pi, np.pi)
        ch = rotated_pauli_channel(pr[1], pr[2], pr[3], phi)
        eng = detect_capacity(ch, cfg).c_det_bits
        worst_rot = max(worst_rot, abs(eng - rotated_pauli_detected(pr[1], pr[2], pr[3], phi)))
    assert worst_rot < 1e-9

    theta_star = np.arccos(1 / np.sqrt(3))
    for p in (0.3, 0.6, 0.9):
        assert dephasing_detected(p, theta_star, np.pi / 4) == pytest.approx(
            1 - binary_entropy(2 * p / 3), abs=1e-9
        )
    runtime = time.perf_counter() - t0
    _report(
        9, runtime, 60.0,
        f"worst devs: affine {worst_affine:.1e}, dephasing {worst_deph:.1e}, rotated {worst_rot:.1e}",
    )


def test_criterion_10_sampling_convergence_and_determinism():
    t0 = time.perf_counter()
    ch = pauli_channel(0.15, 0.05, 0.1)
    cfg = DetectionConfig("pauli")
    est = detect_from_samples(ch, cfg, 10**6, seed=20240101, resamples=1000)
    assert est.point_estimate_bits == pytest.approx(0.390159, abs=5e-3)
    twin = detect_from_samples(ch, cfg, 10**6, seed=20240101, resamples=1000)
    assert est == twin
    runtime = time.perf_counter() - t0
    _report(10, runtime, 30.0, f"point = {est.point_estimate_bits:.6f} (target 0.390159 +- 5e-3)")
