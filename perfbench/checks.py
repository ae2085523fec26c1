"""Correctness checks on the program's outputs.

Each check returns None when the output is correct, or a one-line reason.
"""

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIGURE_TOL = 1e-9
# c_det from Blahut-Arimoto is the lower end of a bracket narrower than the
# solver tolerance (1e-9 bits by default); the slack covers rounding in the
# Kraus-to-transition reconstruction
SOLVER_TOL = 1e-9 + 1e-12
AFFINE_KINDS = ("gad", "stretched", "extremal", "affine_qubit")


def _reference_rows(figure: str) -> list:
    with gzip.open(REFERENCE_DIR / f"{figure}.csv.gz", "rt", newline="") as f:
        return f.read().split("\n")


_REFERENCES = {}


def check_figure(figure: str, text: str):
    """Rows and label cells must match the stored table exactly; numeric
    cells within FIGURE_TOL."""
    if figure not in _REFERENCES:
        _REFERENCES[figure] = _reference_rows(figure)
    ref = _REFERENCES[figure]
    got = text.split("\n")
    if len(got) != len(ref):
        return f"{figure}: {len(got) - 2} rows, reference has {len(ref) - 2}"
    if got[0] != ref[0]:
        return f"{figure}: header {got[0]!r} differs from {ref[0]!r}"
    for k, (g_line, r_line) in enumerate(zip(got, ref)):
        if g_line == r_line:
            continue
        g_cells, r_cells = g_line.split(","), r_line.split(",")
        if len(g_cells) != len(r_cells):
            return f"{figure} line {k}: {len(g_cells)} cells, reference has {len(r_cells)}"
        for g, r in zip(g_cells, r_cells):
            if g == r:
                continue
            try:
                rv = float(r)
            except ValueError:
                return f"{figure} line {k}: label {g!r} differs from {r!r}"
            try:
                gv = float(g)
            except ValueError:
                return f"{figure} line {k}: {g!r} is not a number (reference {r!r})"
            if not abs(gv - rv) <= FIGURE_TOL:
                return f"{figure} line {k}: {gv!r} differs from {rv!r} by more than {FIGURE_TOL}"
    return None


def channel_dim(spec: dict) -> int:
    kind, p = spec["kind"], spec["params"]
    if kind in ("kraus", "generalized_pauli"):
        return int(p["dim"])
    return 3 if kind == "vshape_qutrit" else 2


def check_bound(spec: dict, text: str, capdetect_modules: dict):
    doc = json.loads(text)
    d = channel_dim(spec)
    c = doc["c_det_bits"]
    if not 0.0 <= c <= math.log2(d) + 1e-12:
        return f"c_det_bits {c} outside [0, log2 {d}]"
    per = doc["per_basis"]
    mis = [b["mutual_information_bits"] for b in per]
    best = max(mis)
    if c != best:
        return f"c_det_bits {c} is not the largest per-basis value {best}"
    idx = doc["argmax_index"]
    if idx != mis.index(best) or doc["argmax_basis"] != per[idx]["label"]:
        return f"argmax {idx}/{doc['argmax_basis']!r} inconsistent with per-basis values"
    if doc["converged"] != all(b["converged"] for b in per):
        return "top-level converged flag disagrees with the per-basis flags"
    if spec["kind"] in AFFINE_KINDS and doc["converged"]:
        channels = capdetect_modules["channels"]
        detect = capdetect_modules["detect"]
        affine = channels.ChannelSpec.from_dict(spec).affine()
        ref = detect.detect_pauli_qubit(affine).c_det_bits
        if not abs(c - ref) <= SOLVER_TOL:
            return f"c_det_bits {c} differs from the closed form {ref} by {abs(c - ref):.3e}"
    return None


def check_simulate(request: dict, text: str):
    doc = json.loads(text)
    lo, pt, hi = doc["ci_low_bits"], doc["point_estimate_bits"], doc["ci_high_bits"]
    if not lo <= pt <= hi:
        return f"interval [{lo}, {hi}] does not contain the point estimate {pt}"
    d = channel_dim(request["spec"])
    if not 0.0 <= pt <= math.log2(d) + 1e-12:
        return f"point estimate {pt} outside [0, log2 {d}]"
    for key, field in (("shots", "shots_per_input"), ("seed", "seed"),
                       ("resamples", "bootstrap_resamples")):
        if doc[field] != request[key]:
            return f"{field} {doc[field]} does not echo the requested {request[key]}"
    return None
