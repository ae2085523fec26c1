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
    pseudoclassical_certificate,
    von_mises_expected_capacity,
    vshape_detected,
)
from .protocol_sim import RESAMPLES, detect_from_samples

# Most rows a figure table may have; its rows are the product of its grids'
# point counts. The defaults have at most 10,201, and at this limit the
# costliest table, fig1, peaked at 438 MB on a 2-vCPU Linux VM (CSV and
# JSON alike), nearly all of it its Pauli-axis closed form over (rows, 3)
# arrays.
_MAX_TABLE_ROWS = 1_000_000

# Most rows the table writer gathers, joins and writes at a time, so that no
# whole-table code array, cell list or text is built; at a million rows this
# about halves the peak of a JSON table. A process writing the five default
# tables peaked lowest at this size on a 2-vCPU Linux VM: 31.5 MB, against
# 31.6 MB at 256 rows, 31.9 MB at 4,096 and 32.5 MB at 16,384, one block per
# table.
_BLOCK_ROWS = 1024


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


def _emit(pieces, out):
    """Write the text ``pieces``, in turn, to stdout when ``out`` is None,
    else to the file ``out`` as UTF-8 bytes, each piece encoded as it is
    written."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "wb") as f:
            f.writelines(map(str.encode, pieces))


def _emit_json(payload: dict, out):
    _emit((json.dumps(payload, indent=2), "\n"), out)


def _cell_texts(column: np.ndarray, end: str, json_cells: bool):
    """The distinct cell texts of one column, each followed by ``end``, and
    each cell's code, its index into them, flat: ``np.unique`` of the flat
    column, stable (``return_index``) on labels, which come in long runs. A
    float is told apart by its bit pattern, so -0.0 and 0.0 stay apart. A
    column's distinct values are formatted in one call: ``json.dumps`` for
    JSON and flags, ``%`` for CSV floats; None is an empty CSV cell or null."""
    if column.dtype == object:  # floats and None
        missing = np.equal(column, None).ravel()
        texts, codes = _cell_texts(np.where(missing, 0.0, column.ravel()).astype(float), end, json_cells)
        codes[missing] = len(texts)
        return texts + [("null" if json_cells else "") + end], codes
    size = column.dtype.itemsize
    # floats and 1- or 2-character labels by bit pattern, as integers sort fastest
    found = np.unique((column.view(f"u{size}") if size in (4, 8) else column).ravel(),
                      return_index=column.dtype != float, return_inverse=True)
    keys, codes = found[0].view(column.dtype), found[-1]
    if json_cells or column.dtype == bool:
        return (json.dumps(keys.tolist(), separators=(end + "\0", ":"))[1:-1] + end).split("\0"), codes
    if column.dtype == float:
        values = tuple(keys.tolist())
        texts = (("%.12g" + end + "\0") * len(values) % values).split("\0")
        texts.pop()
        return texts, codes
    return [str(k) + end for k in keys.tolist()], codes


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
    costs its axis. The table is written in blocks of rows (see
    ``_BLOCK_ROWS``), each one gather of texts and one join."""
    if fmt not in _TABLE_ENDS:
        raise ValueError(f"unknown format '{fmt}' (choose csv or json)")
    cell_end, row_end, table_end = _TABLE_ENDS[fmt]
    texts = []
    codes = []  # each column's offset into texts and its codes, at the shape of its base
    for j, column in enumerate(columns):
        # the column with each axis it is broadcast along (stride 0) cut to one point
        base = column[tuple(slice(None) if step else slice(0, 1) for step in column.strides)]
        ends = row_end if j == len(columns) - 1 else cell_end
        column_texts, column_codes = _cell_texts(base, ends, fmt == "json")
        codes.append((len(texts), column_codes.reshape(base.shape)))
        texts += column_texts
    texts = np.array(texts, dtype=object)
    if fmt == "json":
        columns_text = json.dumps(list(names), indent=2).replace("\n", "\n  ")
        head = (f'{{\n  "figure": {json.dumps(figure)},\n  "columns": {columns_text},'
                f'\n  "rows": [\n    [\n      ')
    else:
        head = ",".join(names) + "\n"
    _emit(_table_pieces(head, texts, codes, columns[0].shape, row_end, table_end), out)


def _table_pieces(head, texts, codes, shape, row_end: str, table_end: str):
    """The head, then the text of each block of leading-axis slices of at
    most ``_BLOCK_ROWS`` rows (one slice when a slice alone is longer), the
    last ending with ``table_end`` in place of ``row_end``."""
    yield head
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    block = np.empty((step, *shape[1:], len(codes)), dtype=np.intp)
    for start in range(0, shape[0], step):
        rows = block[:shape[0] - start]
        for j, (offset, column_codes) in enumerate(codes):
            if len(column_codes) > 1:  # not broadcast along the leading axis
                column_codes = column_codes[start:start + step]
            np.add(column_codes, offset, out=rows[..., j])
        cells = texts[rows.ravel()].tolist()
        if start + step >= shape[0]:
            cells[-1] = cells[-1][:-len(row_end)] + table_end
        text = "".join(cells)
        del cells  # before the text is encoded
        yield text


def _fig1(gammas):
    c1 = holevo_gad_p1(gammas)  # rejects gammas outside [0, 1]
    c_det = pauli_axis_capacity(*gad_params(gammas, 1.0)).capacity_bits.max(axis=-1)
    return ("gamma", "c_det_bits", "c1_bits"), (c_det, c1)


def _fig2(g01, g02):
    i1, i2 = vshape_detected(g01, g02)
    b2 = i2 > i1
    return ("gamma01", "gamma02", "c_det_bits", "argmax_basis"), (np.where(b2, i2, i1), np.where(b2, "B2", "B1"))


def _fig3(thetas, phis):
    return ("theta", "phi", "c_det_bits"), (dephasing_detected(0.9, thetas, phis),)


def _fig4(ks):
    return ("k_phi", "avg_c_det_bits"), (von_mises_expected_capacity(0.15, 0.05, 0.1, ks),)


def _suppl_stretched(s):
    # complete positivity bounds |s|, so the widest channel checks the grid
    widest = stretched_affine(0.5, float(s[np.argmax(np.abs(s))]))
    _, _, pseudo, c1, caps = pseudoclassical_certificate(s, s, widest.lambda3, widest.t3)
    return ("s", "c_det_bits", "c1_bits", "pseudoclassical"), (caps.max(axis=-1), c1, pseudo)


# each figure's table builder and default grids, in the order of the
# builder's axes
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
    ``grid_overrides`` in place. The builder takes each grid as one open
    ``np.ix_`` axis and returns all column names and only its value columns;
    the grid columns are broadcast views of the axes, read once each."""
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
        # from 1e16 on a count is shown to 6 digits, as 1e+300, not in its hundreds of digits
        shown = " x ".join(f"'{name}' ({n:.0f} points)" if n < 1e16 else f"'{name}' ({n:g} points)"
                           for name, n in points.items())
        raise ValueError(f"grid {shown} exceeds the limit of {_MAX_TABLE_ROWS:,} rows per table")
    axes = np.ix_(*(grid_values(*spec) for spec in grids.values()))
    names, values = builder(*axes)
    return names, (*np.broadcast_arrays(*axes), *values)


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


_JSON_DECODER = json.JSONDecoder(parse_int=_json_int)


def _read_json(path: str):
    """The JSON document in the file ``path``; a syntax error fails by the
    file's name, with the line and column where json finds it, and so does
    nesting past the parser's recursion limit."""
    try:
        return _JSON_DECODER.decode(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno} of {path}: column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read as JSON") from None


def _load_channel(path: str, require_cptp: bool = True) -> KrausChannel:
    return ChannelSpec.from_dict(_read_json(path)).build(require_cptp=require_cptp)


def _load_custom_bases(path: str, dim: int) -> list:
    """The bases of a custom basis file: dim x dim matrices whose rows are
    the kets, in the cell layouts of Kraus operators."""
    docs = _read_json(path)
    if not isinstance(docs, list) or not docs:
        raise ValueError("custom basis file must be a non-empty JSON list of matrices")
    return [MeasurementBasis(f"custom{i}", _matrix_from_cells(check_numbers(mat, f"basis {i}"), dim, f"basis {i}"))
            for i, mat in enumerate(docs)]


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
    _emit((detect_capacity(channel, config).json_text(), "\n"), args.out)
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
    diag = is_cptp(_load_channel(args.channel, require_cptp=False), tol=args.tol)
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


def _add_common(p, channel=False, sampling=False):
    """The options of a solving command; with ``channel``, the channel spec and its measured bases."""
    if channel:
        p.add_argument("--channel", required=True, help="path to a channel spec JSON file")
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
    _add_common(p, channel=True)
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
    _add_common(p, channel=True, sampling=True)
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
