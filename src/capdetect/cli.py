"""Command-line interface: capacity bounds from channel specs, raw
Blahut-Arimoto runs, sampling simulations, CPTP checks, and byte-stable
figure data files.

Numeric CSV output uses 12 significant digits and LF line endings so that
regenerated files are byte-identical for a fixed configuration.
"""

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .qcore import CERT_TOL, KrausChannel, MeasurementBasis, is_cptp
from .channels import ChannelSpec, _matrix_from_cells, check_numbers, gad_params, stretched_affine
from .infotheory import binary_capacity, blahut_arimoto, check_transition_matrix
from .detect import (
    BASIS_FAMILIES,
    DetectionConfig,
    detect_capacity,
    holevo_gad_p1,
    dephasing_detected,
    pauli_axis_capacity,
    t_threshold,
    von_mises_expected_capacity,
    vshape_detected,
)
from .protocol_sim import RESAMPLES, detect_from_samples

# Most rows a figure table may have; its rows are the product of its grids'
# point counts. The defaults have at most 10,201, and at this limit the
# costliest table (fig1) peaks near 0.7 GB.
_MAX_TABLE_ROWS = 1_000_000


def _grid_points(start: float, stop: float, step: float) -> float:
    """Point count of the inclusive grid start:stop:step; inf when it overflows."""
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} below start {start}")
    return float(np.floor((stop - start) / step + 1e-9)) + 1


def grid_values(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid with endpoint snapping against float drift."""
    v = start + step * np.arange(int(_grid_points(start, stop, step)))
    v[np.abs(v - stop) < step * 1e-9] = stop
    return v


def _emit(text: str, out):
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as f:
            f.write(text)


def _float_text(x) -> str:
    """A float's JSON text: its repr, or NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


class _FloatTexts(dict):
    """The JSON texts of one response's floats, by value: each distinct
    nonzero value is formatted once. A zero is formatted at each use, since
    0.0 and -0.0 are equal keys with different texts, and NaN equals no key."""

    def __missing__(self, x):
        if x and x - x == 0.0:  # nonzero and finite
            text = self[x] = float.__repr__(x)
            return text
        return _float_text(x)


_CONSTANT_TEXTS = {None: "null", True: "true", False: "false"}.__getitem__
# the text of a str, int, bool or None, by its exact type
_SCALAR_TEXTS = {str: encode_basestring_ascii, int: int.__repr__, bool: _CONSTANT_TEXTS,
                 type(None): _CONSTANT_TEXTS}


def _json_text(o) -> str:
    """``json.dumps(o, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, str, int, float, bool and None; any other type raises
    TypeError, as json.dumps does. Before 3.13, CPython encodes with an
    indent in pure Python, one generator frame per value. This writer makes
    at most one call per dict, list or tuple and looks up each scalar's text
    by its exact type. A flat list of floats, or a matrix of them, is one
    block of texts joined at C speed, taken from a table of the response's
    values, so a response costs its containers and its distinct numbers."""
    floats = _FloatTexts()
    if type(o) is float:
        return floats[o]
    text = _SCALAR_TEXTS.get(type(o))
    return text(o) if text else _json_value(o, "\n", floats)


def _float_texts(values, floats: _FloatTexts):
    """The JSON texts of a block of floats, or None when it holds another
    type. A block with a value the table holds is looked up; any other is
    formatted in one call and recorded."""
    try:  # float.__float__ and float.__repr__ reject every non-float
        if not floats.keys().isdisjoint(values):
            return list(map(floats.__getitem__, map(float.__float__, values)))
        texts = list(map(float.__repr__, values))
    except TypeError:
        return None
    if not all(map(math.isfinite, values)):  # NaN and infinities have their own texts
        return list(map(_float_text, values))
    floats.update(zip(values, texts))
    floats.pop(0.0, None)
    return texts


def _json_value(o, indent: str, floats: _FloatTexts) -> str:
    """The JSON text of a value whose exact type is not a scalar's: a dict,
    list or tuple whose lines start with ``indent``, or an instance of a
    subclass of str, int or float."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        get = _SCALAR_TEXTS.get
        parts = []
        for k, v in o.items():
            t = type(v)
            if t is float:
                text = floats[v]
            else:
                text = get(t)
                text = text(v) if text else _json_value(v, inner, floats)
            parts.append(f"{encode_basestring_ascii(k)}: {text}")
        return f"{{{inner}{(',' + inner).join(parts)}{indent}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        sep = "," + inner
        items = None
        t = type(o[0])
        if t is float:
            texts = _float_texts(o, floats)
            if texts is not None:
                items = sep.join(texts)
        elif t is list and all(o) and set(map(type, o)) == {list} and len(set(map(len, o))) == 1:
            texts = _float_texts(list(chain.from_iterable(o)), floats)  # a matrix, row by row
            if texts is not None:
                n, row_inner = len(o[0]), inner + "  "
                row_sep = "," + row_inner
                items = sep.join([f"[{row_inner}{row_sep.join(texts[i:i + n])}{inner}]"
                                  for i in range(0, len(texts), n)])
        if items is None:
            get = _SCALAR_TEXTS.get
            items = sep.join([floats[v] if (t := type(v)) is float else text(v) if (text := get(t))
                              else _json_value(v, inner, floats) for v in o])
        return f"[{inner}{items}{indent}]"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit_json(payload: dict, out):
    _emit(_json_text(payload) + "\n", out)


def _distinct(values: np.ndarray, stable: bool):
    """``np.unique(values, return_inverse=True)``, with the inverse flat on
    every numpy version, sorting stably when ``stable``: a stable sort takes
    a column of a few labels in long runs, where quicksort is slow."""
    flat = values.ravel()
    order = flat.argsort(kind="stable" if stable else "quicksort")
    ordered = flat[order]
    first = np.empty(flat.size, dtype=bool)  # where a new value starts
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    codes = np.empty(flat.size, dtype=np.intp)
    codes[order] = np.cumsum(first) - 1
    return ordered[first], codes


def _cell_texts(column: np.ndarray, end: str, json_cells: bool):
    """The distinct cell texts of one column, each followed by ``end``, and
    each cell's code, its index into them, flat. A float is told apart by
    its bit pattern, so -0.0 and 0.0 stay apart, and a column's distinct
    floats are formatted in one ``%`` call; None is an empty CSV cell or
    null, and a flag is true or false."""
    if column.dtype == object:  # floats and None
        missing = np.equal(column, None).ravel()
        texts, codes = _cell_texts(np.where(missing, 0.0, column.ravel()).astype(float), end, json_cells)
        codes[missing] = len(texts)
        return texts + [("null" if json_cells else "") + end], codes
    if column.dtype == bool:
        return ["false" + end, "true" + end], column.astype(np.intp).ravel()
    size = column.dtype.itemsize
    if size in (4, 8):  # floats and 1- or 2-character labels: by bit pattern, as integers sort fastest
        keys, codes = _distinct(column.view(f"u{size}"), column.dtype != float)
        keys = keys.view(column.dtype)
    else:
        keys, codes = _distinct(column, True)
    if column.dtype == float:
        values = tuple(keys.tolist())
        texts = ((("%r" if json_cells else "%.12g") + end + "\0") * len(values) % values).split("\0")
        texts.pop()
        if json_cells:  # NaN and the infinities have their own JSON texts
            for i in np.flatnonzero(~np.isfinite(keys)).tolist():
                texts[i] = _float_text(values[i]) + end
        return texts, codes
    label = encode_basestring_ascii if json_cells else str
    return [label(k) + end for k in keys.tolist()], codes


# each table format's text after a cell, after a row's last cell, and after
# the table's last cell
_TABLE_ENDS = {
    "csv": (",", "\n", "\n"),
    "json": (",\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ]\n}\n"),
}


def _write_table(names, columns, out, fmt: str, figure: str):
    """Write a table of equally shaped columns as CSV, or as the text of
    ``json.dumps({"figure": figure, "columns": names, "rows": rows},
    indent=2)``. Each column is its distinct cell texts and a code per cell;
    an axis along which a column is broadcast is read once, so a grid column
    costs its axis. The codes of all columns fill one (rows, columns)
    array, and the table is one gather of texts and one join."""
    if fmt not in _TABLE_ENDS:
        raise ValueError(f"unknown format '{fmt}' (choose csv or json)")
    cell_end, row_end, table_end = _TABLE_ENDS[fmt]
    texts = []
    codes = np.empty((*columns[0].shape, len(columns)), dtype=np.intp)
    for j, column in enumerate(columns):
        # the column with each axis it is broadcast along (stride 0) cut to one point
        base = column[tuple(slice(None) if step else slice(0, 1) for step in column.strides)]
        ends = row_end if j == len(columns) - 1 else cell_end
        column_texts, column_codes = _cell_texts(base, ends, fmt == "json")
        np.add(column_codes.reshape(base.shape), len(texts), out=codes[..., j])
        texts += column_texts
    texts = np.array(texts, dtype=object)
    cells = texts[codes.ravel()]
    del codes, texts  # before the list of cells is made
    cells = cells.tolist()
    if fmt == "json":
        columns_text = _json_value(list(names), "\n  ", _FloatTexts())
        head = (f'{{\n  "figure": {encode_basestring_ascii(figure)},\n  "columns": {columns_text},'
                f'\n  "rows": [\n    [\n      ')
    else:
        head = ",".join(names) + "\n"
    cells[0] = head + cells[0]
    cells[-1] = cells[-1][:-len(row_end)] + table_end
    text = "".join(cells)
    del cells  # and the texts, before the text is encoded
    _emit(text, out)


def _fig1(grids):
    gammas = grid_values(*grids["gamma"])
    c1 = holevo_gad_p1(gammas)  # rejects gammas outside [0, 1]
    c_det = pauli_axis_capacity(*gad_params(gammas, 1.0)).capacity_bits.max(axis=-1)
    return ("gamma", "c_det_bits", "c1_bits"), (gammas, c_det, c1)


def _fig2(grids):
    g01 = grid_values(*grids["gamma01"])
    g02 = grid_values(*grids["gamma02"])
    i1, i2 = vshape_detected(g01[:, None], g02)
    b2 = i2 > i1
    columns = (*np.broadcast_arrays(g01[:, None], g02), np.where(b2, i2, i1), np.where(b2, "B2", "B1"))
    return ("gamma01", "gamma02", "c_det_bits", "argmax_basis"), columns


def _fig3(grids):
    thetas = grid_values(*grids["theta"])
    phis = grid_values(*grids["phi"])
    caps = dephasing_detected(0.9, thetas[:, None], phis)
    return ("theta", "phi", "c_det_bits"), (*np.broadcast_arrays(thetas[:, None], phis), caps)


def _fig4(grids):
    ks = grid_values(*grids["k"])
    return ("k_phi", "avg_c_det_bits"), (ks, von_mises_expected_capacity(0.15, 0.05, 0.1, ks))


def _suppl_stretched(grids):
    s = grid_values(*grids["s"])
    # complete positivity bounds |s|, so the widest channel checks the grid
    widest = stretched_affine(0.5, float(s[np.argmax(np.abs(s))]))
    l3, t3 = widest.lambda3, widest.t3
    caps = pauli_axis_capacity(s, s, l3, t3).capacity_bits
    # max(l1^2, l2^2) = s^2 against T(|t3|, |l3|), one threshold for the grid
    pseudo = s * s <= t_threshold(abs(t3), abs(l3))
    c1 = np.where(pseudo, caps[:, 2], None)
    return ("s", "c_det_bits", "c1_bits", "pseudoclassical"), (s, caps.max(axis=-1), c1, pseudo)


# each figure's table builder and default grids
_FIGURE_TABLES = {
    "fig1": (_fig1, {"gamma": (0.0, 1.0, 0.01)}),
    "fig2": (_fig2, {"gamma01": (0.0, 1.0, 0.01), "gamma02": (0.0, 1.0, 0.01)}),
    "fig3": (_fig3, {"theta": (0.0, np.pi / 2, np.pi / 200), "phi": (0.0, 2 * np.pi, np.pi / 50)}),
    "fig4": (_fig4, {"k": (0.0, 10.0, 0.1)}),
    "suppl_stretched": (_suppl_stretched, {"s": (-0.707, 0.707, 0.002)}),
}
FIGURES = tuple(_FIGURE_TABLES)


def _figure_table(which: str, grid_overrides=None):
    """One figure's column names and columns, on its default grids with
    ``grid_overrides`` in place. The columns have one shape; a table over two
    grids has its grid columns as broadcast views of the two axes."""
    if which not in FIGURES:
        raise ValueError(f"unknown figure '{which}'; choose from {FIGURES}")
    builder, defaults = _FIGURE_TABLES[which]
    grids = dict(defaults)
    for name, spec in (grid_overrides or {}).items():
        if name not in grids:
            raise ValueError(f"figure {which} has no grid '{name}' (has {sorted(grids)})")
        if not np.isfinite(spec).all():
            raise ValueError(f"grid '{name}' values must be finite, got {spec}")
        grids[name] = spec
    points = {name: _grid_points(*spec) for name, spec in grids.items()}
    if math.prod(points.values()) > _MAX_TABLE_ROWS:
        shown = " x ".join(f"'{name}' ({n:.0f} points)" for name, n in points.items())
        raise ValueError(f"grid {shown} exceeds the limit of {_MAX_TABLE_ROWS:,} rows per table")
    return builder(grids)


def reproduce_figure(which: str, out=None, grid_overrides=None, fmt: str = "csv"):
    """Regenerate one figure's data table, write it to ``out`` (stdout when
    None) and return its column names and its columns, each flat."""
    names, columns = _figure_table(which, grid_overrides)
    _write_table(names, columns, out, fmt, which)
    return names, [c.ravel() for c in columns]


def _json_int(text: str):
    """A JSON integer as an int; one past int()'s digit limit (4,300 digits
    by default) is read as the float it rounds to, +-inf, so that the number
    checks reject it by name as they reject any integer beyond the float range."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_text(path: str) -> str:
    """The text of the file ``path``, read as UTF-8 with an optional
    byte-order mark; a byte that does not decode fails by the file's name
    and the byte's place."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start + 1} "
                         f"(0x{data[exc.start]:02x})") from None


def _read_json(path: str):
    """The JSON document in the file ``path``; a syntax error fails by the
    file's name, with the line and column where json finds it."""
    try:
        return json.loads(_read_text(path), parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno} of {path}: column {exc.colno}: {exc.msg}") from None


def _load_channel(path: str, require_cptp: bool = True) -> KrausChannel:
    return ChannelSpec.from_dict(_read_json(path)).build(require_cptp=require_cptp)


def _load_custom_bases(path: str, dim: int) -> list:
    """The bases of a custom basis file: dim x dim matrices whose rows are
    the kets, in the cell layouts of Kraus operators."""
    docs = _read_json(path)
    if not isinstance(docs, list) or not docs:
        raise ValueError("custom basis file must be a non-empty JSON list of matrices")
    bases = []
    for i, mat in enumerate(docs):
        check_numbers(mat, f"basis {i}")
        bases.append(MeasurementBasis(f"custom{i}", _matrix_from_cells(mat, dim, f"basis {i}")))
    return bases


def _resolve_config(args, dim: int) -> DetectionConfig:
    bases = args.bases
    if bases.startswith("custom:"):
        bases = _load_custom_bases(bases.split(":", 1)[1], dim)
    elif bases not in BASIS_FAMILIES:
        raise ValueError(f"--bases must be {', '.join(BASIS_FAMILIES)}, or custom:<path>, got '{bases}'")
    return DetectionConfig(bases, args.tol, args.max_iter)


def _csv_number(cell: str):
    """``float(cell)``, or None when the cell is no number."""
    try:
        return float(cell)
    except ValueError:
        return None


def _read_transition_csv(path: str) -> np.ndarray:
    """The matrix of a ``ba`` CSV file, read as UTF-8 with an optional
    byte-order mark: after at most one header line, which holds no number,
    rows of finite numbers, all of one length, that form a column-stochastic
    matrix. Blank lines are skipped."""
    lines = io.StringIO(_read_text(path), newline=None)  # \r\n and \r end lines, as in text mode
    rows = [[c.strip() for c in line.split(",")] for line in lines if line.strip()]
    if rows and all(_csv_number(c) is None for c in rows[0]):
        del rows[0]  # the header
    if not rows:
        raise ValueError(f"no numeric rows found in {path}")
    matrix = []
    for r, row in enumerate(rows, 1):
        matrix.append([_csv_number(c) for c in row])
        for c, (cell, value) in enumerate(zip(row, matrix[-1]), 1):
            if value is None or not math.isfinite(value):
                raise ValueError(f"row {r} of {path}: cell {c} must be a finite number, got {cell!r}")
        if len(row) != len(rows[0]):
            raise ValueError(f"row {r} of {path} has {len(row)} cells, expected {len(rows[0])}")
    t = np.array(matrix)
    check_transition_matrix(t, path)
    return t


def _parse_grid_overrides(specs) -> dict:
    overrides = {}
    for spec in specs or ():
        try:
            name, rng = spec.split("=", 1)
            start, stop, step = (float(x) for x in rng.split(":"))
        except ValueError:
            raise ValueError(f"--grid expects name=start:stop:step, got '{spec}'")
        if name in overrides:
            raise ValueError(f"--grid '{name}' given twice")
        overrides[name] = (start, stop, step)
    return overrides


def _cmd_bound(args) -> int:
    channel = _load_channel(args.channel)
    config = _resolve_config(args, channel.dim)
    result = detect_capacity(channel, config)
    _emit_json(result.as_dict(), args.out)
    return 0


def _cmd_ba(args) -> int:
    r = blahut_arimoto(_read_transition_csv(args.matrix), tol_bits=args.tol, max_iter=args.max_iter)
    _emit_json({**asdict(r), "optimal_prior": r.optimal_prior.tolist()}, args.out)
    return 0


def _cmd_binary(args) -> int:
    _emit_json(binary_capacity(args.eps0, args.eps1)._asdict(), args.out)
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
    reproduce_figure(args.figure, args.out, _parse_grid_overrides(args.grid), args.format)
    return 0


def _add_common(p, channel=False, bases=False, sampling=False):
    if channel:
        p.add_argument("--channel", required=True, help="path to a channel spec JSON file")
    if bases:
        families = " | ".join([*BASIS_FAMILIES, "custom:<path>"])
        p.add_argument("--bases", default=DetectionConfig.bases, help=families)
    p.add_argument("--tol", type=float, default=DetectionConfig.ba_tolerance_bits,
                   help="solver tolerance in bits")
    p.add_argument("--max-iter", type=int, default=DetectionConfig.max_iterations)
    if sampling:
        p.add_argument("--shots", type=int, required=True, help="shots per input state")
        p.add_argument("--seed", type=int, required=True, help="unsigned 64-bit sampling seed")
        p.add_argument("--resamples", type=int, default=RESAMPLES, help="bootstrap resamples")
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
    p.add_argument("matrix", help="CSV file, outputs as rows, inputs as columns, "
                                  "after an optional header line with no number")
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
    p.add_argument("--tol", type=float, default=CERT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check_cp)

    p = sub.add_parser("reproduce", help="regenerate a figure data file")
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--grid", action="append", metavar="NAME=START:STOP:STEP",
                   help="override a sweep grid (repeatable)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"capdetect: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
