"""Command-line interface: capacity bounds from channel specs, raw
Blahut-Arimoto runs, sampling simulations, CPTP checks, and byte-stable
figure data files.

Numeric CSV output uses 12 significant digits and LF line endings so that
regenerated files are byte-identical for a fixed configuration.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .qcore import KrausChannel, MeasurementBasis, is_cptp
from .channels import ChannelSpec, check_numbers, gad_params, stretched_affine
from .infotheory import (
    binary_capacity,
    blahut_arimoto,
    blahut_arimoto_batch,
    check_solver_settings,
    warn_unconverged,
)
from .detect import (
    DetectionConfig,
    detect_capacity,
    holevo_gad_p1,
    dephasing_detected,
    pauli_axis_capacity,
    qutrit_vshape_transitions,
    t_threshold,
    von_mises_expected_capacity,
)
from .protocol_sim import detect_from_samples

FIGURES = ("fig1", "fig2", "fig3", "fig4", "suppl_stretched")

_DEFAULT_GRIDS = {
    "fig1": {"gamma": (0.0, 1.0, 0.01)},
    "fig2": {"gamma01": (0.0, 1.0, 0.01), "gamma02": (0.0, 1.0, 0.01)},
    "fig3": {"theta": (0.0, np.pi / 2, np.pi / 200), "phi": (0.0, 2 * np.pi, np.pi / 50)},
    "fig4": {"k": (0.0, 10.0, 0.1)},
    "suppl_stretched": {"s": (-0.707, 0.707, 0.002)},
}


def grid_values(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid with endpoint snapping against float drift."""
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} below start {start}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    v = start + step * np.arange(n)
    v[np.abs(v - stop) < step * 1e-9] = stop
    return v


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


def _csv_column(values) -> tuple:
    """The row-template format and the cells of one CSV column. The template
    prints a column of floats or of labels itself; any other column (flags,
    missing values) is formatted cell by cell."""
    types = set(map(type, values))
    if types == {float}:
        return "%.12g", values
    if types == {str}:
        return "%s", values
    return "%s", [_fmt(v) for v in values]


def _emit(text: str, out):
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as f:
            f.write(text)


def _emit_json(payload: dict, out):
    _emit(json.dumps(payload, indent=2) + "\n", out)


def _write_table(columns, rows, out, fmt: str, name: str):
    if fmt == "json":
        _emit_json({"figure": name, "columns": list(columns), "rows": rows}, out)
    elif fmt == "csv":
        formats, cells = zip(*map(_csv_column, zip(*rows)))
        template = ",".join(formats) + "\n"
        _emit(",".join(columns) + "\n" + "".join(map(template.__mod__, zip(*cells))), out)
    else:
        raise ValueError(f"unknown format '{fmt}' (choose csv or json)")


def _fig1(grids, tol, max_iter):
    gammas = grid_values(*grids["gamma"])
    c1 = holevo_gad_p1(gammas)  # rejects gammas outside [0, 1]
    c_det = pauli_axis_capacity(*gad_params(gammas, 1.0)).capacity_bits.max(axis=-1)
    rows = list(zip(gammas.tolist(), c_det.tolist(), c1.tolist()))
    return ("gamma", "c_det_bits", "c1_bits"), rows


def _fig2(grids, tol, max_iter):
    g01 = grid_values(*grids["gamma01"])
    g02 = grid_values(*grids["gamma02"])
    q1, _, gt = qutrit_vshape_transitions(g01[:, None], g02)
    gt = gt.ravel()
    i1, _, _, gaps = blahut_arimoto_batch(q1.reshape(-1, 3, 3), tol_bits=tol, max_iter=max_iter)
    warn_unconverged(gaps, tol, "fig2")
    diag = 1.0 - 2.0 * gt
    ent = np.zeros_like(gt)
    m = gt > 0.0
    ent[m] -= 2.0 * gt[m] * np.log2(gt[m])
    m = diag > 0.0
    ent[m] -= diag[m] * np.log2(diag[m])
    i2 = np.log2(3.0) - ent
    b2 = i2 > i1
    a, b = np.meshgrid(g01, g02, indexing="ij")
    rows = list(zip(a.ravel().tolist(), b.ravel().tolist(), np.where(b2, i2, i1).tolist(),
                    np.where(b2, "B2", "B1").tolist()))
    return ("gamma01", "gamma02", "c_det_bits", "argmax_basis"), rows


def _fig3(grids, tol, max_iter):
    thetas = grid_values(*grids["theta"])
    phis = grid_values(*grids["phi"])
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    caps = dephasing_detected(0.9, th, ph)
    rows = list(zip(th.ravel().tolist(), ph.ravel().tolist(), caps.ravel().tolist()))
    return ("theta", "phi", "c_det_bits"), rows


def _fig4(grids, tol, max_iter):
    ks = grid_values(*grids["k"])
    caps = von_mises_expected_capacity(0.15, 0.05, 0.1, ks)
    return ("k_phi", "avg_c_det_bits"), list(zip(ks.tolist(), caps.tolist()))


def _suppl_stretched(grids, tol, max_iter):
    s = grid_values(*grids["s"])
    # complete positivity bounds |s|, so the widest channel checks the grid
    widest = stretched_affine(0.5, float(s[np.argmax(np.abs(s))]))
    l3, t3 = widest.lambda3, widest.t3
    caps = pauli_axis_capacity(s, s, l3, t3).capacity_bits
    # max(l1^2, l2^2) = s^2 against T(|t3|, |l3|), one threshold for the grid
    pseudo = (s * s <= t_threshold(abs(t3), abs(l3))).tolist()
    c1 = [c if p else None for c, p in zip(caps[:, 2].tolist(), pseudo)]
    rows = list(zip(s.tolist(), caps.max(axis=-1).tolist(), c1, pseudo))
    return ("s", "c_det_bits", "c1_bits", "pseudoclassical"), rows


_FIGURE_BUILDERS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "suppl_stretched": _suppl_stretched,
}


def reproduce_figure(which: str, out=None, grid_overrides=None, fmt: str = "csv",
                     tol: float = 1e-9, max_iter: int = 100_000):
    """Regenerate one figure's data table; returns (columns, rows) and
    optionally writes them to ``out``."""
    if which not in FIGURES:
        raise ValueError(f"unknown figure '{which}'; choose from {FIGURES}")
    check_solver_settings(tol, max_iter)
    grids = dict(_DEFAULT_GRIDS[which])
    for name, spec in (grid_overrides or {}).items():
        if name not in grids:
            raise ValueError(f"figure {which} has no grid '{name}' (has {sorted(grids)})")
        if not np.isfinite(spec).all():
            raise ValueError(f"grid '{name}' values must be finite, got {spec}")
        grids[name] = spec
    columns, rows = _FIGURE_BUILDERS[which](grids, tol, max_iter)
    _write_table(columns, rows, out, fmt, which)
    return columns, rows


def _load_channel(path: str, require_cptp: bool = True) -> KrausChannel:
    with open(path) as f:
        doc = json.load(f)
    return ChannelSpec.from_dict(doc, build=False).build(require_cptp=require_cptp)


def _load_custom_bases(path: str) -> list:
    with open(path) as f:
        docs = json.load(f)
    if not isinstance(docs, list) or not docs:
        raise ValueError("custom basis file must be a non-empty JSON list of matrices")
    bases = []
    for i, mat in enumerate(docs):
        check_numbers(mat, f"basis {i}")
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
            raise ValueError(
                f"basis {i}: expected a d x d matrix of [re, im] cells, got shape {arr.shape}"
            )
        kets = arr[..., 0] + 1j * arr[..., 1]
        bases.append(MeasurementBasis(f"custom{i}", kets))
    return bases


def _resolve_config(args, dim: int) -> DetectionConfig:
    if args.bases.startswith("custom:"):
        bases = _load_custom_bases(args.bases.split(":", 1)[1])
        return DetectionConfig(bases, args.tol, args.max_iter)
    if args.bases in ("pauli", "weyl"):
        return DetectionConfig(args.bases, args.tol, args.max_iter)
    raise ValueError(f"--bases must be pauli, weyl, or custom:<path>, got '{args.bases}'")


def _read_transition_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                if rows:
                    raise ValueError(f"non-numeric row in {path}: {line!r}")
                continue  # optional header
    if not rows:
        raise ValueError(f"no numeric rows found in {path}")
    return np.array(rows)


def _parse_grid_overrides(specs) -> dict:
    overrides = {}
    for spec in specs or ():
        try:
            name, rng = spec.split("=", 1)
            start, stop, step = (float(x) for x in rng.split(":"))
        except ValueError:
            raise ValueError(f"--grid expects name=start:stop:step, got '{spec}'")
        overrides[name] = (start, stop, step)
    return overrides


def _cmd_bound(args) -> int:
    channel = _load_channel(args.channel)
    config = _resolve_config(args, channel.dim)
    result = detect_capacity(channel, config)
    _emit_json(result.as_dict(), args.out)
    return 0


def _cmd_ba(args) -> int:
    t = _read_transition_csv(args.matrix)
    r = blahut_arimoto(t, tol_bits=args.tol, max_iter=args.max_iter)
    _emit_json(
        {
            "capacity_bits": r.capacity_bits,
            "optimal_prior": list(map(float, r.optimal_prior)),
            "iterations": r.iterations,
            "gap_bits": r.gap_bits,
            "converged": r.converged,
        },
        args.out,
    )
    return 0


def _cmd_binary(args) -> int:
    cap, p0 = binary_capacity(args.eps0, args.eps1)
    _emit_json({"capacity_bits": cap, "optimal_p0": p0}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    channel = _load_channel(args.channel)
    config = _resolve_config(args, channel.dim)
    est = detect_from_samples(channel, config, args.shots, args.seed, args.resamples)
    _emit_json(est.as_dict(), args.out)
    return 0


def _cmd_check_cp(args) -> int:
    channel = _load_channel(args.channel, require_cptp=False)
    diag = is_cptp(channel, tol=args.tol)
    _emit_json(
        {
            "cptp": diag.valid,
            "trace_preservation_error": diag.trace_preservation_error,
            "min_choi_eigenvalue": diag.min_choi_eigenvalue,
            "tolerance": args.tol,
        },
        args.out,
    )
    return 0 if diag.valid else 1


def _cmd_reproduce(args) -> int:
    reproduce_figure(
        args.figure,
        out=args.out,
        grid_overrides=_parse_grid_overrides(args.grid),
        fmt=args.format,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    return 0


def _add_common(p, channel=False, bases=False, sampling=False):
    if channel:
        p.add_argument("--channel", required=True, help="path to a channel spec JSON file")
    if bases:
        p.add_argument("--bases", default="pauli", help="pauli | weyl | custom:<path>")
    p.add_argument("--tol", type=float, default=1e-9, help="solver tolerance in bits")
    p.add_argument("--max-iter", type=int, default=100_000)
    if sampling:
        p.add_argument("--shots", type=int, required=True, help="shots per input state")
        p.add_argument("--seed", type=int, required=True, help="unsigned 64-bit sampling seed")
        p.add_argument("--resamples", type=int, default=1000, help="bootstrap resamples")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one. ``parse_args`` does not change it and returns a fresh namespace;
    the one list option, ``--grid``, defaults to None, so every call starts
    its own list."""
    parser = argparse.ArgumentParser(
        prog="capdetect",
        description="Measurement-based lower bounds to the classical capacity of quantum channels.",
    )
    parser.add_argument("--version", action="version", version=f"capdetect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="detected capacity of a channel over a basis family")
    _add_common(p, channel=True, bases=True)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("ba", help="Blahut-Arimoto capacity of a raw transition matrix CSV")
    p.add_argument("matrix", help="CSV file, outputs as rows, inputs as columns, header optional")
    _add_common(p)
    p.set_defaults(fn=_cmd_ba)

    p = sub.add_parser("binary", help="closed-form binary asymmetric channel capacity")
    p.add_argument("eps0", type=float)
    p.add_argument("eps1", type=float)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_binary)

    p = sub.add_parser("simulate", help="finite-shot estimate with bootstrap confidence interval")
    _add_common(p, channel=True, bases=True, sampling=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("check-cp", help="certify trace preservation and complete positivity")
    p.add_argument("--channel", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check_cp)

    p = sub.add_parser("reproduce", help="regenerate a figure data file")
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--grid", action="append", metavar="NAME=START:STOP:STEP",
                   help="override a sweep grid (repeatable)")
    _add_common(p)
    p.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"capdetect: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
