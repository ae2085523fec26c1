import argparse
import contextlib
import dataclasses
import enum
import gzip
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import capdetect
from capdetect import (
    ChannelSpec,
    binary_entropy,
    blahut_arimoto,
    blahut_arimoto_batch,
    detect_from_transitions,
    detect_pauli_qubit,
    gad_affine,
    mutual_information,
    pseudoclassicality,
    sample_transition,
    stretched_affine,
)
from capdetect import cli, protocol_sim
from capdetect.channels import _ARRAY_PARAMS, _KINDS, _PARAMS
from capdetect.cli import FIGURES, grid_values, main, reproduce_figure
from conftest import REFERENCE_FIGURE_BUILDERS, VALID_PARAMS, reference_csv_text, sole_reacher_matrices, table_rows

ROOT = pathlib.Path(__file__).resolve().parents[1]
# a fresh process's environment, with this checkout's capdetect first on its path
FRESH_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.dirname(os.path.dirname(capdetect.__file__)), os.environ.get("PYTHONPATH", "")]))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


GAD = {"kind": "gad", "params": {"gamma": 0.36, "p": 1.0}}


def test_grid_values_snaps_endpoint():
    v = grid_values(0.0, 1.0, 0.01)
    assert v.size == 101
    assert v[0] == 0.0 and v[-1] == 1.0
    with pytest.raises(ValueError):
        grid_values(0.0, 1.0, -0.1)


def test_binary_command(capsys):
    code, out, _ = run(capsys, "binary", "0", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["capacity_bits"] == pytest.approx(0.321928, abs=1e-6)
    assert doc["optimal_p0"] == pytest.approx(0.6, abs=1e-6)


def test_binary_command_rejects_bad_input(capsys):
    code, _, err = run(capsys, "binary", "0", "1.5")
    assert code == 1
    assert "outside [0, 1]" in err


def test_ba_command(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("out0,out1\n1.0,0.5\n0.0,0.5\n")
    code, out, _ = run(capsys, "ba", str(path), "--tol", "1e-10")
    assert code == 0
    doc = json.loads(out)
    ref = blahut_arimoto(np.array([[1.0, 0.5], [0.0, 0.5]]), tol_bits=1e-10)
    assert doc["capacity_bits"] == ref.capacity_bits
    assert doc["converged"] is True
    assert doc["optimal_prior"][0] == pytest.approx(0.6, abs=1e-6)


def test_ba_command_rejects_bad_matrix(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0.9,0.5\n0.0,0.5\n")
    assert run(capsys, "ba", str(path)) == (
        1, "", f"capdetect: error: column 1 of {path} must sum to 1, got 0.9 (deviation 1.000e-01)\n")


@pytest.mark.parametrize("text, row, cells", [
    ("1.0,0.5\n0.0\n", 2, 1),
    ("out0,out1\n1.0,0.5\n0.0,0.5\n0.0,0.0,0.0\n", 3, 3),
])
def test_ba_command_rejects_ragged_matrix(tmp_path, capsys, text, row, cells):
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    code, out, err = run(capsys, "ba", str(path))
    assert code == 1 and out == ""
    assert err == f"capdetect: error: row {row} of {path} has {cells} cells, expected 2\n"


@pytest.mark.parametrize("text, message", [
    ("\ufeffin0,in1\n1.0,0.5\n0.0,0.5\n", None),
    ("\ufeff1.0,0.5\r\n0.0,0.5\r\n", None),
    ("\nin0,in1\n\n1.0,0.5\n\n0.0,0.5\n", None),
    ("0.9,x\n0.1,0.9\n", "row 1 of {path}: cell 2 must be a finite number, got 'x'"),
    ("0x1,0\n0,1\n", "row 1 of {path}: cell 1 must be a finite number, got '0x1'"),
    ("0.5,0.5,\n0.5,0.5,\n", "row 1 of {path}: cell 3 must be a finite number, got ''"),
    ("in0,in1\nin0,in1\n1.0,0.5\n0.0,0.5\n", "row 1 of {path}: cell 1 must be a finite number, got 'in0'"),
    ("in0,in1\n1.0,0.5\n0.0, inf\n", "row 2 of {path}: cell 2 must be a finite number, got 'inf'"),
    ("nan,x\n1.0,0.5\n", "row 1 of {path}: cell 1 must be a finite number, got 'nan'"),
    ("in0,in1\n", "no numeric rows found in {path}"),
])
def test_ba_matrix_file_takes_one_header_line_without_numbers(tmp_path, capsys, text, message):
    """UTF-8, with or without a byte-order mark: the first line is a header
    only when none of its cells is a number, and every other cell must be a
    finite number; an error names the file, the row and the cell."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    code, out, err = run(capsys, "ba", str(path))
    if message is None:
        assert (code, err) == (0, "")
        assert json.loads(out)["optimal_prior"][0] == pytest.approx(0.6, abs=1e-6)
    else:
        assert (code, out, err) == (1, "", f"capdetect: error: {message.format(path=path)}\n")


def test_integers_past_the_digit_limit_fail_by_name(tmp_path, capsys):
    """An integer too long for int() (4,300 digits by default) reads as +-inf,
    so a spec parameter or a custom basis cell of 5,001 digits fails as a
    401-digit one does: one line that names it."""
    huge = "1" + "0" * 5000
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"kind": "gad", "params": {{"gamma": -{huge}, "p": 1.0}}}}')
    assert run(capsys, "bound", "--channel", str(spec)) == (
        1, "", "capdetect: error: parameter 'gamma' of kind 'gad' must be a finite number, got -inf\n")
    bpath = tmp_path / "bases.json"
    bpath.write_text(f"[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [{huge}, 0]]]]")
    argv = ["bound", "--channel", write_json(tmp_path, "gad.json", GAD), "--bases", f"custom:{bpath}"]
    assert run(capsys, *argv) == (1, "", "capdetect: error: basis 1 must be a finite number, got inf\n")


def test_version_is_the_one_pyproject_gives(capsys):
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert not re.search(r"(?m)^version = ", pyproject)
    assert re.findall(r'(?m)^dynamic\.version = \{attr = "([^"]*)"\}$', pyproject) == ["capdetect.__version__"]
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr() == ("capdetect 0.1.0\n", "")


@pytest.mark.parametrize("depth", [*range(984, 991), 5000])
def test_json_nested_past_the_parser_fails_by_the_file(tmp_path, capsys, depth):
    """A spec or custom basis file of lists nested past the JSON parser's
    recursion limit fails in one line that names the file: in a fresh
    process a spec 990 lists deep printed a RecursionError traceback. A
    parser that counts its own C recursion (Python 3.12 on) may read a
    depth, and the file then fails on its cells, also in one line."""
    nested = "[" * depth + "]" * depth
    try:
        json.loads(nested)  # here, fewer frames deep than the CLI reads it
        read = True
    except RecursionError:
        read = False
    spec, bases = tmp_path / "spec.json", tmp_path / "bases.json"
    spec.write_text(f'{{"kind": "generalized_pauli", "params": {{"dim": 2, "q": {nested}}}}}')
    bases.write_text(nested)
    gad = write_json(tmp_path, "gad.json", GAD)
    for path, argv in ((spec, ["bound", "--channel", str(spec)]),
                       (bases, ["bound", "--channel", gad, "--bases", f"custom:{bases}"])):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.count("\n") == 1, err[-300:]
        if not (read and re.fullmatch(r"capdetect: error: (parameter 'q' of kind 'generalized_pauli'|probability "
                                      r"table q|basis 0) is n[^\n]*\n", err)):
            assert err == f"capdetect: error: {path} is nested too deeply to read as JSON\n"


def test_bound_command_and_round_trip(tmp_path, capsys):
    spec = write_json(tmp_path, "gad.json", GAD)
    out_path = tmp_path / "bound.json"
    code, _, _ = run(capsys, "bound", "--channel", spec, "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    expected = detect_pauli_qubit(gad_affine(0.36, 1.0)).c_det_bits
    assert abs(doc["c_det_bits"] - expected) < 1e-9
    assert doc["argmax_basis"] == "x"
    # re-serialized JSON reproduces the float exactly
    again = json.loads(json.dumps(doc))
    assert again["c_det_bits"] == doc["c_det_bits"]


def test_bound_rejects_invalid_specs(tmp_path, capsys):
    bad1 = write_json(tmp_path, "s.json", {"kind": "stretched", "params": {"gamma": 0.5, "s": 0.8}})
    code, _, err = run(capsys, "bound", "--channel", bad1)
    assert code == 1 and "sqrt" in err
    bad2 = write_json(tmp_path, "p.json", {"kind": "pauli", "params": {"px": 0.6, "py": 0.6, "pz": 0.0}})
    code, _, err = run(capsys, "bound", "--channel", bad2)
    assert code == 1 and "simplex" in err


def test_bound_rejects_non_numeric_parameter_and_composite_weyl(tmp_path, capsys):
    spec = write_json(tmp_path, "p.json", {"kind": "pauli", "params": {"px": "0.1", "py": 0.1, "pz": 0.1}})
    code, out, err = run(capsys, "bound", "--channel", spec)
    assert code == 1 and out == ""
    assert err == "capdetect: error: parameter 'px' of kind 'pauli' must be a number, got '0.1'\n"
    q = np.zeros((4, 4))
    q[0, 0] = 1.0
    spec = write_json(tmp_path, "w4.json", {"kind": "generalized_pauli", "params": {"dim": 4, "q": q.tolist()}})
    code, out, err = run(capsys, "bound", "--channel", spec, "--bases", "weyl")
    assert code == 1 and out == ""
    assert err == "capdetect: error: the weyl basis family needs a prime dimension, got 4\n"


def test_bound_prints_no_capacity_below_zero(tmp_path, capsys):
    # all 14 Weyl bases of the uniform d = 13 generalized Pauli channel read
    # -3.2e-16 bits, and so did c_det_bits
    spec = write_json(tmp_path, "u13.json", {"kind": "generalized_pauli",
                                             "params": {"dim": 13, "q": np.full((13, 13), 1 / 169).tolist()}})
    code, out, _ = run(capsys, "bound", "--channel", spec, "--bases", "weyl")
    doc = json.loads(out)
    assert code == 0 and '\n  "c_det_bits": 0.0,\n' in out
    assert [b["mutual_information_bits"] for b in doc["per_basis"]] == [0.0] * 14


@pytest.mark.parametrize("dim", [2.0, 2.5])
def test_bound_rejects_non_integer_generalized_pauli_dim(tmp_path, capsys, dim):
    spec = write_json(tmp_path, "gp.json", {"kind": "generalized_pauli",
                                            "params": {"dim": dim, "q": [[0.7, 0.1], [0.1, 0.1]]}})
    code, out, err = run(capsys, "bound", "--channel", spec)
    assert code == 1 and out == ""
    assert err == f"capdetect: error: generalized_pauli dim must be an integer >= 2, got {dim}\n"


@pytest.mark.parametrize("cell, shown", [('"1"', "'1'"), ("true", "True"), ("null", "None")])
def test_bound_rejects_non_numeric_custom_basis_cells(tmp_path, capsys, cell, shown):
    spec = write_json(tmp_path, "gad.json", GAD)
    bpath = tmp_path / "bases.json"
    bpath.write_text(f"[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [{cell}, 0]]]]")
    code, out, err = run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")
    assert code == 1 and out == ""
    assert err == f"capdetect: error: basis 1 must be an array of numbers, got {shown}\n"


def test_overflowing_cells_fail_in_one_line(tmp_path, capsys):
    # a custom basis whose Gram product overflows, and a q table whose sum
    # would: each fails on its own rule, with no numpy warning
    spec = write_json(tmp_path, "gad.json", GAD)
    bpath = write_json(tmp_path, "bases.json", [[[1e200, 0], [0, 0], [0, 0], [1e200, 0]]])
    code, out, err = run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")
    assert (code, out, err) == (1, "", "capdetect: error: basis 'custom0' is not orthonormal: "
                                       "max |<m|n> - delta_mn| = inf\n")
    spec = write_json(tmp_path, "q.json", {"kind": "generalized_pauli",
                                           "params": {"dim": 2, "q": [[1e308, 1e308], [0, 0]]}})
    code, out, err = run(capsys, "bound", "--channel", spec)
    assert (code, out, err) == (1, "", "capdetect: error: q = 1e+308 outside [0, 1] (2 of 4 entries)\n")


def test_non_finite_numbers_fail_at_ingestion_by_name(tmp_path, capsys):
    """NaN, Infinity and -Infinity, which json.load reads, in every parameter
    of every kind, in a q or operators cell and in a custom basis cell: each
    request exits 1 naming the parameter or the basis."""
    assert VALID_PARAMS.keys() == _KINDS.keys()
    for kind, params in VALID_PARAMS.items():
        assert params.keys() == _PARAMS[kind].keys(), kind
        ChannelSpec.from_dict({"kind": kind, "params": params}).build()
        for name, bad in itertools.product(params, (math.nan, math.inf, -math.inf)):
            doc = json.loads(json.dumps({"kind": kind, "params": params}))
            if name in _ARRAY_PARAMS:  # the first number of the array
                cell = doc["params"][name][0]
                while isinstance(cell[0], list):
                    cell = cell[0]
                cell[0] = bad
            else:
                doc["params"][name] = bad
            code, out, err = run(capsys, "bound", "--channel", write_json(tmp_path, "spec.json", doc))
            assert (code, out, err) == (
                1, "", f"capdetect: error: parameter '{name}' of kind '{kind}' must be a finite number, got {bad!r}\n")
    spec = write_json(tmp_path, "gad.json", GAD)
    for text, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")):
        bpath = tmp_path / "bases.json"
        bpath.write_text(f"[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, {text}]]]]")
        code, out, err = run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")
        assert (code, out, err) == (1, "", f"capdetect: error: basis 1 must be a finite number, got {shown}\n")


# what a request's parts are spoiled with: a bad number (in an array, in its
# first cell; 401 digits is past the float range), one more list around the
# value, ragged rows (the first innermost row cut to one cell), a plain
# number where an array belongs, or the parameter left out
_BAD_NUMBERS = {"huge": 10**400, "bool": True, "string": "0.1", "null": None,
                "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
_SPOILS = (*_BAD_NUMBERS, "nested", "ragged", "number", "missing")
_S = 2**-0.5
_QUBIT_BASES = ([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[_S, 0], [_S, 0]], [[_S, 0], [-_S, 0]]])


def _spoiled(value, how: str):
    if how == "nested":
        return [value]
    if not isinstance(value, list):
        return [[value], [value, value]] if how == "ragged" else _BAD_NUMBERS[how]
    if how == "number":
        return 0.5
    value = json.loads(json.dumps(value))
    row = value
    while isinstance(row[0], list):
        row = row[0]
    if how == "ragged":
        del row[1:]
    else:
        row[0] = _BAD_NUMBERS[how]
    return value


@st.composite
def _requests(draw):
    """(spec, custom basis file or None, command with integer options, the
    patterns of the names an error may give): each part valid or spoiled."""
    kind = draw(st.sampled_from(sorted(VALID_PARAMS)))
    params, names = dict(VALID_PARAMS[kind]), []
    for name in sorted(draw(st.sets(st.sampled_from(sorted(params)), max_size=2))):
        how = draw(st.sampled_from(_SPOILS))
        if how == "number" and name not in _ARRAY_PARAMS:
            continue  # a number is what a scalar parameter takes
        if how == "missing":
            del params[name]
        else:
            params[name] = _spoiled(params[name], how)
        if how != "missing" or _PARAMS[kind][name].default is _PARAMS[kind][name].empty:
            names.append("operator" if name == "operators" else rf"\b{name}\b")
    bases = None
    if kind != "vshape_qutrit" and draw(st.booleans()):
        bases = [draw(st.sampled_from(_QUBIT_BASES)) for _ in range(draw(st.integers(1, 2)))]
        for i in draw(st.sets(st.integers(0, len(bases) - 1), max_size=1)):
            how = draw(st.sampled_from((*_SPOILS[:-1], "skew")))
            bases[i] = [bases[i][0]] * 2 if how == "skew" else _spoiled(bases[i], how)
            names.append(rf"\b(basis {i}|custom{i})\b")
        if draw(st.integers(0, 9)) == 0:
            bases, names = draw(st.sampled_from(([], {}))), names + ["custom basis file"]
    argv = [draw(st.sampled_from(("bound", "simulate")))]
    # (flag, the name its error gives, valid values, bad values); None omits it
    options = [("--max-iter", "max_iter", (None, 10**20), (0, -3))]
    if argv[0] == "simulate":
        options += [("--shots", "shots", (50, 2**63 - 1), (0, -1, 2**63, 10**20)),
                    ("--seed", "seed", (3,), (-1, 2**64)),
                    ("--resamples", "resamples", (100,), (99, -5, 10**20))]
    for flag, name, good, bad in options:
        value = draw(st.sampled_from(good * 3 + bad))
        if value in bad:
            names.append(name)
        if value is not None:
            argv += [flag, str(value)]
    if kind == "vshape_qutrit" and bases is None:
        argv += ["--bases", "weyl"]
    doc = {"kind": kind, "params": params}
    how = draw(st.sampled_from((None,) * 8 + _SPEC_FILES))
    if how is not None:  # the file is read before anything in it is checked
        doc, names = _spoiled_file(doc, how, names)
    return doc, bases, argv, names


# what a spec file's bytes are spoiled with: a byte-order mark, which is
# read, a JSON syntax error, or an encoding other than UTF-8
_SPEC_FILES = ("bom", "comma", "cut", "latin-1", "utf-16")
_SPEC_FILE = r"\S*spec\.json"


def _spoiled_file(doc, how: str, names: list):
    """The bytes of a spec file holding ``doc``, spoiled as ``how`` says,
    and the patterns of the names its error may give, which are ``names``
    when the file is read."""
    text = json.dumps(doc)
    if how == "bom":
        return b"\xef\xbb\xbf" + text.encode(), names
    if how == "comma":
        return (text[:-1] + ",}").encode(), [rf"^capdetect: error: line 1 of {_SPEC_FILE}: column {len(text) + 1}: "]
    if how == "cut":
        return text[:-1].encode(), [rf"^capdetect: error: line 1 of {_SPEC_FILE}: column {len(text)}: "]
    data = text.replace('"kind"', '"kind\u00e9"', 1).encode(how) if how == "latin-1" else text.encode(how)
    return data, [rf"^capdetect: error: {_SPEC_FILE} is not UTF-8 text: .* at byte \d+ \(0x[0-9a-f]{{2}}\)$"]


# what a ba matrix file's cell is spoiled with
_CSV_CELLS = {"empty": "", "nan": "nan", "inf": "inf", "-inf": "-inf", "text": "x", "hex": "0x1"}
_CSV_FILE = r"\S*matrix\.csv"


@st.composite
def _ba_requests(draw):
    """(the text of a ba matrix file, None, the command, the patterns of the
    names an error may give): a column-stochastic matrix of 1-3 rows and 2-3
    columns, with or without a header line and a byte-order mark, valid, or
    with one cell spoiled, a row cut short, a comma ending every row, or
    only the header left; or an entry outside [0, 1] or a column that does
    not sum to 1. Two columns keep a number in each row, so a spoiled first
    row is never a header."""
    n_out, n_in = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    weights = np.array([[draw(st.integers(1, 9)) for _ in range(n_in)] for _ in range(n_out)], dtype=float)
    rows = [[repr(x) for x in row] for row in (weights / weights.sum(axis=0)).tolist()]
    header = ",".join(f"in{n}" for n in range(n_in)) if draw(st.booleans()) else None
    how = draw(st.sampled_from((None, None, None, *_CSV_CELLS, "ragged", "comma", "header only", "range", "sum")))
    names = []
    if how == "range":  # an entry outside [0, 1], which leaves its column's sum off too
        r, c = draw(st.integers(0, n_out - 1)), draw(st.integers(0, n_in - 1))
        rows[r][c] = draw(st.sampled_from(("1.5", "-0.25", "1.000001")))
        names.append(rf"row {r + 1} of {_CSV_FILE}: cell {c + 1} must lie in \[0, 1\], got {re.escape(rows[r][c])}$")
    elif how == "sum":  # a column that does not sum to 1
        c = draw(st.integers(0, n_in - 1))
        rows[0][c] = repr(float(rows[0][c]) / 2)
        names.append(rf"column {c + 1} of {_CSV_FILE} must sum to 1, got 0\.\d+ \(deviation \d\.\d{{3}}e-\d\d\)$")
    elif how in _CSV_CELLS:
        r, c = draw(st.integers(0, n_out - 1)), draw(st.integers(0, n_in - 1))
        rows[r][c] = _CSV_CELLS[how]
        names.append(rf"row {r + 1} of {_CSV_FILE}: cell {c + 1} must be a finite number")
    elif how == "ragged" and n_out > 1:
        del rows[draw(st.integers(0, n_out - 1))][1:]
        names.append(rf"row \d of {_CSV_FILE} has \d cells, expected \d")
    elif how == "comma":
        rows = [row + [""] for row in rows]
        names.append(rf"row 1 of {_CSV_FILE}: cell {n_in + 1} must be a finite number")
    elif how == "header only":
        rows = []
        names.append(f"no numeric rows found in {_CSV_FILE}")
    end = draw(st.sampled_from(("\n", "\r\n")))
    lines = ([header] if header else []) + [",".join(row) for row in rows]
    text = "\ufeff" * draw(st.booleans()) + "".join(line + end for line in lines)
    argv = ["ba"]
    value = draw(st.sampled_from((None, None, 10**20, 0, -3)))
    if value is not None:
        argv += ["--max-iter", str(value)]
        if value < 1:
            names.append("max_iter")
    return text, None, argv, names


# near the pole l3 = 1: the quadratic CP margin of the first, -9.6e-13,
# passed construction, and bound and check-cp then failed on a Choi matrix
# the spec never gave; the second lies inside
_NEAR_POLE = {"kind": "affine_qubit", "params": {"lambda1": 0, "lambda2": 0, "lambda3": 0.999999, "t3": 1.4e-6}}
_INSIDE_POLE = {"kind": "affine_qubit", "params": {**_NEAR_POLE["params"], "t3": 1e-6}}
_NEAR_POLE_ERROR = (r"^capdetect: error: not completely positive: \(l1-l2\)\^2 <= \(1-l3\)\^2 - t3\^2 "
                    r"violated by 4\.000e-07$")
# a bad cell in nested and flat operators, named by the cell walk
_OPERATORS_ERROR = r"^capdetect: error: parameter 'operators' of kind 'kraus' must be an array of numbers, got "


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_requests(), _ba_requests()))
@example((_NEAR_POLE, None, ["bound"], [_NEAR_POLE_ERROR]))
@example((_NEAR_POLE, None, ["check-cp"], [_NEAR_POLE_ERROR]))
@example((_INSIDE_POLE, None, ["bound"], []))
@example((_INSIDE_POLE, None, ["check-cp"], []))
@example(({"kind": "gad", "params": {"gamma": 10**400, "p": 1.0}}, None, ["bound"],
          [r"^capdetect: error: parameter 'gamma' of kind 'gad' must be a finite number, got 10{400}$"]))
@example((b'{"kind": "gad", "params": {"gamma": 1' + b"0" * 5000 + b', "p": 1.0}}', None, ["bound"],
          [r"^capdetect: error: parameter 'gamma' of kind 'gad' must be a finite number, got inf$"]))
@example(({"kind": "generalized_pauli", "params": {"dim": 2, "q": [[1.0], [0, 0]]}}, None, ["bound"],
          [r"^capdetect: error: parameter 'q' of kind 'generalized_pauli' is not a rectangular array of numbers$"]))
@example(({"kind": "kraus", "params": {"dim": 2, "operators": [[[_S, 0], [0, 0], [0, 0], [_S, 0]]]}}, None,
          ["bound"], [r"^capdetect: error: Kraus set is not CPTP: trace-preservation error 5\.000e-01$"]))
@example(({"kind": "kraus", "params": {"dim": 2, "operators": [[[[1, 0], [0, 0]], [[0, 0], ["1", 0]]]]}}, None,
          ["bound"], [_OPERATORS_ERROR + "'1'$"]))
@example(({"kind": "kraus", "params": {"dim": 2, "operators": [[[1, 0], [0, 0], [0, 0], [True, 0]]]}}, None,
          ["bound"], [_OPERATORS_ERROR + "True$"]))
@example(({"kind": "kraus", "params": {"dim": 2, "operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                                               [[0, 0], [0, 0], [None, 0], [0, 0]]]}}, None,
          ["bound"], [_OPERATORS_ERROR + "None$"]))
@example(({"kind": "kraus", "params": {"dim": 2, "operators": 0.5}}, None, ["bound"], ["operator"]))
@example(({"kind": "kraus", "params": {"dim": 2, "operators": [[[1, 0], [0], [0, 0], [1, 0]]]}}, None,
          ["bound"], ["operator"]))
@example((GAD, [_QUBIT_BASES[0], [[[1, 0]], [[0, 0], [1, 0]]]], ["bound"], ["basis 1"]))
@example((GAD, [_QUBIT_BASES[0], [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]]], ["bound"], ["basis 1"]))
@example((GAD, None, ["simulate", "--shots", str(10**20), "--seed", "3", "--resamples", "100"], ["shots"]))
@example((GAD, None, ["simulate", "--shots", "100", "--seed", str(2**64), "--resamples", "100"],
          [r"^capdetect: error: seed must be an integer in \[0, 2\^64\), got 18446744073709551616$"]))
@example((GAD, None, ["simulate", "--shots", "100", "--seed", "-1", "--resamples", "100"],
          [r"^capdetect: error: seed must be an integer in \[0, 2\^64\), got -1$"]))
@example((GAD, None, ["simulate", "--shots", "100", "--seed", "1", "--resamples", "50"],
          [r"^capdetect: error: resamples must be an integer >= 100, got 50$"]))
@example(([1, 2], None, ["bound"], [r"^capdetect: error: channel spec must be a JSON object$"]))
@example(({"kind": "generalized_pauli", "params": {"dim": 3, "q": [[0.5, 0], [0, 0.5]]}}, None, ["bound"],
          [r"^capdetect: error: probability table q must be 3x3, got \(2, 2\)$"]))
@example(({"kind": "extremal", "params": {"alpha": 1.0, "beta": 0.5}}, None, ["bound"],
          [r"^capdetect: error: need 0 <= alpha <= beta <= pi/2, got \(1\.0, 0\.5\)$"]))
@example(({"kind": "kraus", "params": {"dim": 2, "operators": []}}, None, ["bound"],
          [r"^capdetect: error: channel needs at least one Kraus operator$"]))
@example(({"kind": "vshape_qutrit", "params": {"gamma01": 0.3, "gamma02": 0.6}}, None, ["bound"],
          [r"^capdetect: error: the pauli basis family is only defined for qubits$"]))
@example(("\ufeff0.9,0.1\n0.1,0.9\n", None, ["ba"], []))
@example(("0.9,x\n0.1,0.9\n", None, ["ba"], [rf"row 1 of {_CSV_FILE}: cell 2 must be a finite number"]))
@example(("0.5,0.5,\n0.5,0.5,\n", None, ["ba"], [rf"row 1 of {_CSV_FILE}: cell 3 must be a finite number"]))
@example(("0.9,0.5\n0.0,0.5\n", None, ["ba"], [rf"column 1 of {_CSV_FILE} must sum to 1, got 0.9 "]))
@example(("1.5,0\n-0.5,1\n", None, ["ba"], [rf"row 1 of {_CSV_FILE}: cell 1 must lie in \[0, 1\], got 1\.5$"]))
@example((b'{"kind": "gad", "params": {"gamma": 0.3,}}', None, ["bound"],
          [rf"line 1 of {_SPEC_FILE}: column 41: Expecting property name"]))
@example((b'\xef\xbb\xbf{"kind": "gad", "params": {"gamma": 0.3, "p": 1.0}}', None, ["bound"], []))
@example((b'\xff\xfe{', None, ["bound"], [rf"{_SPEC_FILE} is not UTF-8 text: invalid start byte at byte 1 \(0xff\)"]))
def test_every_bad_request_fails_with_one_named_error_line(case):
    """Through the CLI, in process: a request exits 0 with JSON on stdout, or
    exits 1 with one stderr line that names a spoiled parameter, basis,
    option, spec file or matrix file cell, never with a traceback. A ba
    request's first part is its matrix file's text; a spec given as bytes is
    written as they are."""
    doc, bases, argv, names = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if argv[0] == "ba":
            (tmp / "matrix.csv").write_bytes(doc.encode())
            argv = [*argv, str(tmp / "matrix.csv")]
        elif isinstance(doc, bytes):
            (tmp / "spec.json").write_bytes(doc)
            argv = [*argv, "--channel", str(tmp / "spec.json")]
        else:
            argv = [*argv, "--channel", write_json(tmp, "spec.json", doc)]
        if bases is not None:
            argv += ["--bases", "custom:" + write_json(tmp, "bases.json", bases)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if not names:
        assert (code, err) == (0, ""), err
        json.loads(out)
        return
    assert (code, out) == (1, ""), out
    assert err.startswith("capdetect: error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert any(re.search(name, err) for name in names), (names, err)


@st.composite
def _bad_transitions(draw):
    """(a stack of 1-3 column-stochastic matrices of one shape, 2-3 outputs
    and 2-3 inputs, with one matrix spoiled, its index, and how): an entry
    outside [0, 1], a NaN entry, or an entry moved so that its column's sum
    is off by more than 1e-9 while every entry stays inside [0, 1]. Every
    entry starts inside [1/19, 9/10], so a move of at most 0.03 keeps it there."""
    count, n_out, n_in = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=count * n_out * n_in,
                                     max_size=count * n_out * n_in)), dtype=float)
    stack = weights.reshape(count, n_out, n_in)
    stack /= stack.sum(axis=1, keepdims=True)
    k, r, c = draw(st.integers(0, count - 1)), draw(st.integers(0, n_out - 1)), draw(st.integers(0, n_in - 1))
    how = draw(st.sampled_from(("range", "nan", "sum")))
    if how == "range":
        stack[k, r, c] = draw(st.sampled_from((-0.25, -2e-9, 1.5, 1.0 + 2e-9)))
    elif how == "nan":
        stack[k, r, c] = np.nan
    else:
        stack[k, r, c] += draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(2e-9, 0.03))
    return stack, k, r, c, how


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_bad_transitions())
def test_every_function_that_takes_a_transition_names_its_fault(case):
    """Each function that takes a transition, and a ba file through the CLI,
    fails with one line naming the spoiled entry's row and cell, or its
    column, and in a stack of several the matrix number too."""
    stack, k, r, c, how = case

    def fault(name, ba=False):
        if how == "sum":
            return rf"^column {c + 1} of {name} must sum to 1, got \S+ \(deviation \d\.\d{{3}}e-\d\d\)$"
        if how == "nan" and ba:  # the reader takes finite numbers only
            return rf"^row {r + 1} of {name}: cell {c + 1} must be a finite number, got 'nan'$"
        return rf"^row {r + 1} of {name}: cell {c + 1} must lie in \[0, 1\], got {re.escape(str(stack[k, r, c]))}$"

    matrix, in_stack = stack[k], "transition" if len(stack) == 1 else f"transition {k + 1}"
    labels = [f"b{i}" for i in range(len(stack))]
    n_in = matrix.shape[1]
    for call, name in ((lambda: blahut_arimoto(matrix), "transition"),
                       (lambda: mutual_information(np.full(n_in, 1.0 / n_in), matrix), "transition"),
                       (lambda: sample_transition(matrix, 10, 1), "transition"),
                       (lambda: blahut_arimoto_batch(stack), in_stack),
                       (lambda: detect_from_transitions(list(stack), labels), in_stack)):
        with pytest.raises(ValueError, match=fault(name)):
            call()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["ba", str(path)]) == 1
    err = err.getvalue()
    assert err.startswith("capdetect: error: ") and err.count("\n") == 1, err
    assert re.search(fault(re.escape(str(path)), ba=True), err.removeprefix("capdetect: error: ")), err


def test_bound_custom_bases(tmp_path, capsys):
    spec = write_json(tmp_path, "gad.json", GAD)
    s = 1 / np.sqrt(2)
    bases = [
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],          # computational
        [[[s, 0], [s, 0]], [[s, 0], [-s, 0]]],          # x
    ]
    bpath = write_json(tmp_path, "bases.json", bases)
    code, out, _ = run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")
    assert code == 0
    doc = json.loads(out)
    assert {r["label"] for r in doc["per_basis"]} == {"custom0", "custom1"}


def test_bound_custom_bases_layouts_and_dimension(tmp_path, capsys):
    spec = write_json(tmp_path, "gad.json", GAD)
    s = 1 / np.sqrt(2)
    nested = [[[[s, 0], [s, 0]], [[s, 0], [-s, 0]]]]
    flat = [[[s, 0], [s, 0], [s, 0], [-s, 0]]]
    outs = []
    for layout in (nested, flat):
        bpath = write_json(tmp_path, "bases.json", layout)
        code, out, _ = run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    qutrit = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
    bpath = write_json(tmp_path, "bases.json", [nested[0], qutrit])
    code, out, err = run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")
    assert code == 1 and out == ""
    assert err == ("capdetect: error: basis 1: expected 4 [re, im] cells (flat row-major or 2 rows), "
                   "got shape (3, 3, 2)\n")


def test_check_cp_valid_and_invalid(tmp_path, capsys):
    good = write_json(tmp_path, "good.json", GAD)
    code, out, _ = run(capsys, "check-cp", "--channel", good)
    assert code == 0
    assert json.loads(out)["cptp"] is True

    r = 1 / np.sqrt(2)
    bad = write_json(
        tmp_path,
        "bad.json",
        {"kind": "kraus", "params": {"dim": 2, "operators": [[[r, 0], [0, 0], [0, 0], [r, 0]]]}},
    )
    code, out, _ = run(capsys, "check-cp", "--channel", bad)
    assert code == 1
    doc = json.loads(out)
    assert doc["cptp"] is False
    assert doc["trace_preservation_error"] > 0.4


def test_check_cp_pins_the_d5_member(capsys):
    # both diagnostics to the bit, on a rank-4 d = 5 channel
    path = pathlib.Path(__file__).resolve().parent / "data" / "kraus_d5_member24.json"
    code, out, _ = run(capsys, "check-cp", "--channel", str(path))
    doc = json.loads(out)
    assert code == 0 and json.dumps(doc, indent=2) + "\n" == out
    assert doc["trace_preservation_error"] == 4.440892177700906e-16
    assert doc["min_choi_eigenvalue"] == -1.2427483330875032e-16


def test_overflowing_kraus_cells_name_trace_preservation(tmp_path, capsys):
    # A^dag A overflows: bound and simulate fail on trace preservation in one
    # line, with no warning, and check-cp reports it with no Choi spectrum
    spec = write_json(tmp_path, "big.json", {"kind": "kraus", "params": {
        "dim": 2, "operators": [[[1e200, 0], [0, 0], [0, 0], [1e200, 0]]]}})
    for extra in ((), ("--shots", "100", "--seed", "1")):
        code, out, err = run(capsys, "simulate" if extra else "bound", "--channel", spec, *extra)
        assert code == 1 and out == ""
        assert re.fullmatch(r"capdetect: error: Kraus set is not CPTP: trace-preservation error (inf|nan)\n", err)
    code, out, err = run(capsys, "check-cp", "--channel", spec)
    doc = json.loads(out)
    assert code == 1 and err == "" and json.dumps(doc, indent=2) + "\n" == out
    assert doc["cptp"] is False and not math.isfinite(doc["trace_preservation_error"])
    assert math.isnan(doc["min_choi_eigenvalue"])


def test_simulate_deterministic(tmp_path, capsys):
    spec = write_json(tmp_path, "pauli.json", {"kind": "pauli", "params": {"px": 0.15, "py": 0.05, "pz": 0.1}})
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["simulate", "--channel", spec, "--shots", "2000", "--seed", "7", "--resamples", "120"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["shots_per_input"] == 2000
    assert 0.0 <= doc["ci_low_bits"] <= doc["point_estimate_bits"] <= doc["ci_high_bits"] <= 1.0


def test_simulate_refuses_an_oversized_bootstrap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(protocol_sim, "_MAX_BOOTSTRAP_CELLS", 400)
    spec = write_json(tmp_path, "gad.json", GAD)
    args = ["simulate", "--channel", spec, "--shots", "50", "--seed", "1"]
    assert run(capsys, *args, "--resamples", "100")[0] == 0
    monkeypatch.setattr(protocol_sim, "_sample", None)  # refused before any sampling
    code, out, err = run(capsys, *args, "--resamples", "101")
    assert (code, out) == (1, "")
    assert "resamples x d^2 = 101 x 2^2 exceeds the limit of 400 bootstrap cells" in err


def test_reproduce_fig1_rows(tmp_path):
    out = tmp_path / "fig1.csv"
    cols, columns = reproduce_figure("fig1", out=str(out), grid_overrides={"gamma": (0.0, 1.0, 0.1)})
    rows = table_rows(columns)
    assert cols == ("gamma", "c_det_bits", "c1_bits")
    assert rows[0] == pytest.approx((0.0, 1.0, 1.0), abs=1e-9)
    for g, c_det, c1 in rows:
        assert c_det <= c1 + 1e-9
    text = out.read_text()
    assert "\r" not in text
    assert text.startswith("gamma,c_det_bits,c1_bits\n")


def test_reproduce_byte_stability(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    grid = {"gamma": (0.0, 1.0, 0.25)}
    reproduce_figure("fig1", out=str(a), grid_overrides=grid)
    reproduce_figure("fig1", out=str(b), grid_overrides=grid)
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_fig2_region_boundary(tmp_path):
    out = tmp_path / "fig2.csv"
    _, columns = reproduce_figure(
        "fig2",
        out=str(out),
        grid_overrides={"gamma01": (0.0, 1.0, 0.1), "gamma02": (0.0, 1.0, 0.1)},
    )
    labels = {r[3] for r in table_rows(columns)}
    assert labels == {"B1", "B2"}


def test_reproduce_fig2_matches_engine():
    from capdetect import DetectionConfig, computational_basis, detect_capacity, vshape_qutrit_channel
    from conftest import fourier_basis

    _, columns = reproduce_figure("fig2", grid_overrides={"gamma01": (0.3, 0.3, 1.0), "gamma02": (0.8, 0.8, 1.0)})
    (g1, g2, c, label), = table_rows(columns)
    cfg = DetectionConfig([computational_basis(3, "B1"), fourier_basis(3, "B2")], 1e-10)
    ref = detect_capacity(vshape_qutrit_channel(0.3, 0.8), cfg)
    assert c == pytest.approx(ref.c_det_bits, abs=1e-8)
    assert label == ref.argmax_basis


def test_reproduce_fig3_worst_case_present(tmp_path):
    _, columns = reproduce_figure(
        "fig3",
        grid_overrides={"theta": (0.0, np.pi / 2, np.pi / 20), "phi": (0.0, 2 * np.pi, np.pi / 10)},
    )
    caps = np.array([r[2] for r in table_rows(columns)])
    assert caps.max() == pytest.approx(1.0, abs=1e-9)  # theta = 0 row is noise-free
    assert caps.min() >= 1 - binary_entropy(0.6) - 1e-9


def test_reproduce_fig4_endpoint(tmp_path):
    rows = table_rows(reproduce_figure("fig4", grid_overrides={"k": (0.0, 1.0, 0.5)})[1])
    assert rows[0][1] == pytest.approx(0.3031, abs=5e-3)
    vals = [r[1] for r in rows]
    assert vals == sorted(vals)


def test_reproduce_suppl_stretched_flag(tmp_path):
    rows = table_rows(reproduce_figure("suppl_stretched", grid_overrides={"s": (0.0, 0.7, 0.002)})[1])
    flips = [
        (lo[0], hi[0])
        for lo, hi in zip(rows, rows[1:])
        if lo[3] != hi[3]
    ]
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo <= np.sqrt(np.log(2) / 2) <= hi
    inside = [r for r in rows if r[3]]
    for r in inside:
        assert r[2] == pytest.approx(0.321928, abs=1e-6)
        assert r[1] == pytest.approx(r[2], abs=1e-9)  # detected equals certified value
    outside = [r for r in rows if not r[3]]
    assert all(r[2] is None for r in outside)


def test_reproduce_rejects_unknown_grid(tmp_path):
    with pytest.raises(ValueError, match="no grid"):
        reproduce_figure("fig1", grid_overrides={"delta": (0, 1, 0.1)})
    # and an unknown figure or format, which the command line's choices stop first
    out = tmp_path / "fig1.xml"
    with pytest.raises(ValueError, match=r"^unknown format 'xml' \(choose csv or json\)$"):
        reproduce_figure("fig1", out=str(out), fmt="xml")
    assert not out.exists()
    with pytest.raises(ValueError, match=r"^unknown figure 'fig9'; choose from \('fig1', "):
        reproduce_figure("fig9")


def test_csv_number_format(tmp_path):
    out = tmp_path / "f.csv"
    reproduce_figure("fig1", out=str(out), grid_overrides={"gamma": (0.36, 0.36, 1.0)})
    line = out.read_text().splitlines()[1]
    g, c_det, c1 = line.split(",")
    assert g == "0.36"
    assert c_det == f"{detect_pauli_qubit(gad_affine(0.36, 1.0)).c_det_bits:.12g}"


def test_reproduce_json_format(tmp_path):
    out = tmp_path / "fig4.json"
    reproduce_figure("fig4", out=str(out), grid_overrides={"k": (0.0, 0.0, 1.0)}, fmt="json")
    doc = json.loads(out.read_text())
    assert doc["figure"] == "fig4"
    assert doc["columns"] == ["k_phi", "avg_c_det_bits"]
    assert doc["rows"][0][1] == pytest.approx(0.3031, abs=5e-3)


def test_unknown_bases_flag(tmp_path, capsys):
    spec = write_json(tmp_path, "gad.json", GAD)
    code, _, err = run(capsys, "bound", "--channel", spec, "--bases", "magic")
    assert code == 1
    assert "pauli, weyl, or custom" in err


def test_runs_without_scipy(tmp_path):
    # the package needs numpy only; a blocked scipy import must not matter
    script = (
        "import sys; sys.modules['scipy'] = None; "
        "from capdetect.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    spec = write_json(tmp_path, "w3.json", {"kind": "generalized_pauli", "params": {
        "dim": 3, "q": [[0.6, 0.1, 0.0], [0.1, 0.1, 0.0], [0.0, 0.0, 0.1]]}})
    fig4 = tmp_path / "fig4.csv"
    bound = tmp_path / "bound.json"
    for argv in (["reproduce", "fig4", "--grid", "k=0:1:0.5", "--out", str(fig4)],
                 ["bound", "--channel", spec, "--bases", "weyl", "--out", str(bound)]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=FRESH_ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert len(fig4.read_text().splitlines()) == 4
    assert len(json.loads(bound.read_text())["per_basis"]) == 4


def test_cli_import_leaves_numpy_random_unloaded(tmp_path):
    # only simulate samples; importing the CLI, and a bound request, must
    # not pay for loading numpy.random
    script = (
        "import sys; from capdetect.cli import main; "
        "loaded = 'numpy.random' in sys.modules; code = main(sys.argv[1:]); "
        "print(loaded, 'numpy.random' in sys.modules); sys.exit(code)"
    )
    spec = write_json(tmp_path, "gad.json", GAD)
    out = tmp_path / "out.json"
    loads = {}
    for argv in (["bound", "--channel", spec, "--out", str(out)],
                 ["simulate", "--channel", spec, "--shots", "500", "--seed", "3",
                  "--resamples", "100", "--out", str(out)]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=FRESH_ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loads[argv[0]] = proc.stdout.split()
    assert loads == {"bound": ["False", "False"], "simulate": ["False", "True"]}
    doc = json.loads(out.read_text())
    assert 0.0 <= doc["ci_low_bits"] <= doc["point_estimate_bits"] <= doc["ci_high_bits"] <= 1.0


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 14 ms to import, and np.percentile pulls it in
    # through np.unique; no command may load it beyond what importing numpy
    # loads (numpy before 2.0 imports it with numpy itself)
    script = (
        "import sys, numpy; from capdetect.cli import main; "
        "before = 'numpy.ma' in sys.modules; loaded = []\n"
        "for argv in sys.argv[1:]:\n"
        "    assert main(argv.split('|')) == 0\n"
        "    loaded.append('numpy.ma' in sys.modules)\n"
        "print(before, *loaded)"
    )
    spec = write_json(tmp_path, "gad.json", GAD)
    out = tmp_path / "out"
    argvs = [["simulate", "--channel", spec, "--shots", "500", "--seed", "3", "--resamples", "100", "--out", out],
             ["bound", "--channel", spec, "--out", out],
             ["reproduce", "fig1", "--grid", "gamma=0:1:0.5", "--out", out],
             ["simulate", "--channel", spec, "--shots", "10000", "--seed", "7", "--resamples", "200", "--out", out]]
    proc = subprocess.run([sys.executable, "-c", script, *("|".join(map(str, a)) for a in argvs)], env=FRESH_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, *loaded = proc.stdout.split()
    assert loaded == [before] * len(argvs)


def test_requests_give_the_same_bytes_here_and_in_a_fresh_process(tmp_path, capsys):
    """Each request, through ``main`` here and through the console script's
    call in a fresh process, which runs them in reverse order: the same
    bytes, each json.dumps(..., indent=2)'s own text, and each bound and ba
    response converged."""
    files = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in (
        ("gad", GAD),
        ("vshape", {"kind": "vshape_qutrit", "params": {"gamma01": 0.3, "gamma02": 0.6}}),
        ("extremal", {"kind": "extremal", "params": {"alpha": 0.4, "beta": 1.1}}),
        # two qubit bases, one in each cell layout
        ("custom", [_QUBIT_BASES[0], [[_S, 0], [_S, 0], [_S, 0], [-_S, 0]]]))}
    matrices = {"matrix": [[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]],
                # q = 0 on the third output in every round: Blahut-Arimoto's
                # masked log2 q and +inf rule, which no benchmark request reaches
                "zero_row": [[0.7, 0.2, 0.1], [0.3, 0.8, 0.9], [0, 0, 0]],
                # 5 x 4, its last input alone reaches output 5 with a tiny
                # optimal weight; off the face-Newton face it ran 100,000
                # evaluations unconverged
                "sole": sole_reacher_matrices()[3289].tolist()}
    for name, rows in matrices.items():
        files[name] = str(tmp_path / f"{name}.csv")
        pathlib.Path(files[name]).write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    # rank 4, d = 5: its Kraus operators are summed as one stack
    member = str(ROOT / "tests" / "data" / "kraus_d5_member24.json")
    requests = [
        ["simulate", "--channel", files["gad"], "--shots", "10000", "--seed", "7", "--resamples", "200"],
        # Fourier-class transitions, weakly symmetric, whose streams are re-keyed per cell
        ["bound", "--channel", files["vshape"], "--bases", "weyl"],
        ["simulate", "--channel", files["vshape"], "--bases", "weyl", "--shots", "5000", "--seed", "11",
         "--resamples", "200"],
        ["bound", "--channel", files["extremal"]],  # built from the written-out affine Choi matrix
        # six 101-row bases solved in one stack, tall enough to reduce column by column
        ["simulate", "--channel", member, "--bases", "weyl", "--shots", "2000", "--seed", "5", "--resamples", "100"],
        ["bound", "--channel", files["gad"], "--bases", f"custom:{files['custom']}"],
        ["binary", "0", "0.5"],  # a noiseless input 0
        ["ba", files["matrix"]],
        ["ba", files["zero_row"]],
        ["check-cp", "--channel", files["gad"]],
        ["check-cp", "--channel", member],
        # optimal priors on a face of the simplex: face-Newton candidates
        ["bound", "--channel", member, "--bases", "weyl"],
        ["ba", files["sole"]],
    ]
    outs = [tmp_path / f"out{k}.json" for k in range(len(requests))]
    script = ("import sys; from capdetect.cli import main\n"
              "for argv in reversed(sys.argv[1:]):\n"
              "    assert main(argv.split('|')) == 0, argv\n")
    fresh = subprocess.Popen([sys.executable, "-c", script, *("|".join([*argv, "--out", str(out)])
                                                              for argv, out in zip(requests, outs))],
                             env=FRESH_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    here = [run(capsys, *argv) for argv in requests]
    assert fresh.communicate(timeout=120) == ("", "") and fresh.returncode == 0
    for argv, (code, text, err), out in zip(requests, here, outs):
        assert (code, err) == (0, ""), argv
        assert out.read_bytes().decode() == text, argv
        doc = json.loads(text)
        assert json.dumps(doc, indent=2) + "\n" == text, argv
        if argv[0] in ("bound", "ba"):
            assert doc["converged"] is True, argv
    tail = json.loads(here[-2][1])  # the d + 1 = 6 Weyl bases, each listed once
    labels = [r["label"] for r in tail["per_basis"]]
    assert [len(labels), len(set(labels)), tail["argmax_basis"]] == [6, 6, "weyl(1,2)"]


# sha256 of the default-grid tables (csv, json); each csv is the gunzipped
# table in perfbench/reference/. The json pins every value to the last bit,
# so a change to holevo_gad_p1's search or to fig2's closed forms shows
# there first
FIGURE_SHA256 = {
    "fig1": ("eae119209faabcff2934e0c6f31b57953d294aa4aff782d8a96dc9deb4e6042d",
             "38cfcfda744a6b091747b15bf078796045e1e54cd321cf5a26d8a2e28e0fa737"),
    "fig2": ("e6000894d8a5a7dfcb1fcb17796aae36de163f3f9f80f4607b48476a787c5c29",
             "b1aeb4251d561173855d722b69ae231077d74fbdf3cea96a0f3b3676bc727364"),
    "fig3": ("22adb84d13a7ce12c77499342896678c52567bef6a6bd6a12957cc10a6ce643c",
             "cd33f66b90dd63e3973797802daea2705cbacef6329b9956aa66b6323083a8dd"),
    "fig4": ("ce88b7d625ead6129ebce2a89d6abd8f12fbd1f4271e50c9b2b7b8a40bc24555",
             "7d910c2c861fee0ebf8372f1072725a3398dda127c95b3a5eda52dc18b152653"),
    "suppl_stretched": ("6f69b98997fb5ecd217cc2339d3c1ace0c757268f1549abe0934a341d753c3c0",
                        "7977c8ac4351590f7d58b9653f20f5d911dba35aabeef56c0eb8276f33ac4529"),
}


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
def test_default_figures_are_byte_stable(tmp_path, monkeypatch, figure):
    calls = []
    monkeypatch.setattr(cli, "reproduce_figure", lambda *a, **k: calls.append(a) or reproduce_figure(*a, **k))
    for fmt, digest in zip(("csv", "json"), FIGURE_SHA256[figure]):
        out = tmp_path / f"{figure}.{fmt}"
        reproduce_figure(figure, out=str(out), fmt=fmt)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, fmt
        # the command is the library call, with the figure first
        assert main(["reproduce", figure, "--format", fmt, "--out", str(tmp_path / "cli")]) == 0
        assert (tmp_path / "cli").read_bytes() == out.read_bytes(), fmt
    assert [args[0] for args in calls] == [figure, figure]
    # the csv is the benchmark's reference table, and the json is the text
    # of json.dumps(..., indent=2), whose rows at 12 digits are that table
    reference = gzip.decompress((ROOT / "perfbench" / "reference" / f"{figure}.csv.gz").read_bytes())
    assert (tmp_path / f"{figure}.csv").read_bytes() == reference
    text = (tmp_path / f"{figure}.json").read_bytes().decode()
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text and doc["figure"] == figure
    assert reference_csv_text(doc["columns"], list(map(tuple, doc["rows"]))) == reference.decode()


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_builders_return_value_columns_and_the_table_broadcasts_the_grids(monkeypatch, figure):
    # a builder is its closed form on open axes; the table makes the grid
    # columns, each broadcast (stride 0) along every other grid's axis
    builder, grids = cli._FIGURE_TABLES[figure]
    axes = np.ix_(*(grid_values(*spec) for spec in grids.values()))
    shape = np.broadcast_shapes(*(a.shape for a in axes))
    names, values = builder(*axes)
    assert len(names) == len(grids) + len(values)
    assert [np.shape(v) for v in values] == [shape] * len(values)
    written = []
    monkeypatch.setattr(cli, "_write_table", lambda names, columns, *args: written.append((names, columns)))
    reproduce_figure(figure, out=os.devnull)
    [(written_names, columns)] = written
    assert written_names == names and len(columns) == len(names)
    for k, axis in enumerate(axes):
        assert columns[k].shape == shape
        assert [step == 0 for step in columns[k].strides] == [j != k for j in range(len(axes))]
        assert np.array_equal(columns[k], np.broadcast_to(axis, shape))
    for got, value in zip(columns[len(axes):], values):
        assert np.array_equal(got, value)


def test_suppl_stretched_matches_per_row_reports():
    rows = table_rows(reproduce_figure("suppl_stretched", out=os.devnull)[1])
    assert {r[3] for r in rows} == {True, False}
    for s, c_det, c1, flag in rows:
        ch = stretched_affine(0.5, s)
        report = pseudoclassicality(ch)
        assert type(flag) is bool and flag == report.pseudoclassical, s
        assert c1 == (report.c1_bits if flag else None), s
        assert c_det == detect_pauli_qubit(ch).c_det_bits, s


@pytest.mark.parametrize("figure, grid, message", [
    ("fig1", "gamma=0:1.5:0.05", "gamma = 1.05 outside [0, 1] (10 of 31 entries)"),
    ("fig2", "gamma01=0:1.2:0.1", "gamma01 = 1.1 outside [0, 1] (2 of 13 entries)"),
    ("suppl_stretched", "s=-0.72:0.5:0.01",
     "|s| = 0.72 exceeds sqrt(1-gamma) = 0.707107; not completely positive"),
    ("suppl_stretched", "s=-0.5:0.71:0.01",
     "|s| = 0.71 exceeds sqrt(1-gamma) = 0.707107; not completely positive"),
    ("fig1", "gamma", "--grid expects name=start:stop:step, got 'gamma'"),
    ("fig1", "gamma=1:0:0.1", "grid stop 0.0 below start 1.0"),
    ("fig1", ["gamma=0:1:0.5", "gamma=0:0.5:0.25"], "--grid 'gamma' given twice"),
    ("fig1", "gamma=0:1:1e-300", "grid 'gamma' (1e+300 points) exceeds the limit of 1,000,000 rows per table"),
    ("fig3", ["theta=0:3:1", "phi=0:7:7"], "theta = 2.0 outside [0, 1.5708] (2 of 4 entries)"),
    ("fig3", "phi=0:7:7", "phi = 7.0 outside [0, 6.28319] (1 of 2 entries)"),
])
def test_reproduce_names_first_bad_grid_value(capsys, figure, grid, message):
    grids = [grid] if isinstance(grid, str) else grid
    code, out, err = run(capsys, "reproduce", figure, *[arg for g in grids for arg in ("--grid", g)])
    assert code == 1 and out == ""
    assert err == f"capdetect: error: {message}\n"


def test_each_request_builds_its_channel_once(tmp_path, capsys, monkeypatch):
    builds = []
    build = ChannelSpec.build

    def counting_build(self, *args, **kwargs):
        builds.append(self.kind)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(ChannelSpec, "build", counting_build)
    damping = {"kind": "kraus", "params": {"dim": 2, "operators": [
        [[1, 0], [0, 0], [0, 0], [0.8, 0]],
        [[0, 0], [0.6, 0], [0, 0], [0, 0]],
    ]}}
    spec = write_json(tmp_path, "k.json", damping)
    for argv in (["bound", "--channel", spec],
                 ["simulate", "--channel", spec, "--shots", "200", "--seed", "3",
                  "--resamples", "100"],
                 ["check-cp", "--channel", spec]):
        builds.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and builds == ["kraus"], argv


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    code, out, _ = run(capsys, "reproduce", "fig1", "--grid", "gamma=0:1:0.5")
    assert code == 0 and len(out.splitlines()) == 1 + 3
    code, out, _ = run(capsys, "reproduce", "fig1")
    assert code == 0 and len(out.splitlines()) == 1 + 101

    qutrit = write_json(tmp_path, "v.json", {"kind": "vshape_qutrit",
                                             "params": {"gamma01": 0.3, "gamma02": 0.6}})
    qubit = write_json(tmp_path, "gad.json", GAD)
    out_path = tmp_path / "weyl.json"
    code, out, _ = run(capsys, "bound", "--channel", qutrit, "--bases", "weyl", "--out", str(out_path))
    assert code == 0 and out == ""
    assert len(json.loads(out_path.read_text())["per_basis"]) == 4
    code, out, _ = run(capsys, "bound", "--channel", qubit)
    assert code == 0
    assert [r["label"] for r in json.loads(out)["per_basis"]] == ["x", "y", "z"]

    with pytest.raises(SystemExit) as exit_info:
        main(["bound"])
    assert exit_info.value.code == 2
    assert "--channel" in capsys.readouterr().err
    code, out, _ = run(capsys, "bound", "--channel", qubit)
    assert code == 0 and json.loads(out)["argmax_basis"] == "x"


def test_main_builds_the_parser_once(monkeypatch):
    from capdetect.cli import build_parser

    inits = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(["binary", "0", "0.5"]) == 0
    assert len(inits) == 7  # the top-level parser and its 6 sub-parsers
    inits.clear()
    assert main(["binary", "0.1", "0.2"]) == 0
    assert inits == []


@pytest.mark.parametrize("command, message", [
    (["bound", "--channel", "{v}", "--bases", "weyl", "--tol", "nan"],
     "tol_bits must be finite and > 0, got nan"),
    (["bound", "--channel", "{v}", "--max-iter", "0"], "max_iter must be an integer >= 1, got 0"),
    (["simulate", "--channel", "{g}", "--shots", "100", "--seed", "1", "--tol", "inf"],
     "tol_bits must be finite and > 0, got inf"),
    (["ba", "{t}", "--max-iter", "0"], "max_iter must be an integer >= 1, got 0"),
    (["ba", "{t}", "--tol=-1e-9"], "tol_bits must be finite and > 0, got -1e-09"),
    (["check-cp", "--channel", "{g}", "--tol", "nan"], "tol must be finite and > 0, got nan"),
])
def test_cli_rejects_bad_solver_settings(tmp_path, capsys, command, message):
    paths = {
        "v": write_json(tmp_path, "v.json", {"kind": "vshape_qutrit",
                                             "params": {"gamma01": 0.3, "gamma02": 0.6}}),
        "g": write_json(tmp_path, "g.json", GAD),
        "t": str(tmp_path / "t.csv"),
    }
    (tmp_path / "t.csv").write_text("1.0,0.5\n0.0,0.5\n")
    code, out, err = run(capsys, *(arg.format(**paths) for arg in command))
    assert code == 1 and out == ""
    assert err == f"capdetect: error: {message}\n"


@pytest.mark.parametrize("flag, value", [("--tol", "1e-9"), ("--max-iter", "100")])
def test_reproduce_takes_no_solver_settings(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["reproduce", "fig1", flag, value])
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: {flag} {value}" in out.err


@pytest.mark.parametrize("grid, shown", [
    ("gamma=0:inf:0.1", "(0.0, inf, 0.1)"),
    ("gamma=nan:1:0.1", "(nan, 1.0, 0.1)"),
    ("gamma=0:1:nan", "(0.0, 1.0, nan)"),
    ("gamma=-inf:1:0.1", "(-inf, 1.0, 0.1)"),
])
def test_reproduce_rejects_non_finite_grid(capsys, grid, shown):
    code, out, err = run(capsys, "reproduce", "fig1", "--grid", grid)
    assert code == 1 and out == ""
    assert err == f"capdetect: error: grid 'gamma' values must be finite, got {shown}\n"
    with pytest.raises(ValueError, match=r"grid 'gamma' values must be finite"):
        reproduce_figure("fig1", grid_overrides={"gamma": tuple(map(float, grid[6:].split(":")))})


@pytest.mark.parametrize("argv, shown", [
    (["fig1", "--grid", "gamma=0:1:1e-13"], "'gamma' (10000000000001 points)"),
    (["fig1", "--grid", "gamma=0:1:5e-324"], "'gamma' (inf points)"),
    (["fig2", "--grid", "gamma01=0:1:0.001", "--grid", "gamma02=0:1:0.001"],
     "'gamma01' (1001 points) x 'gamma02' (1001 points)"),
    (["fig3", "--grid", "phi=0:6:1e-5"], "'theta' (101 points) x 'phi' (600001 points)"),
])
def test_reproduce_refuses_an_oversized_table(capsys, argv, shown):
    code, out, err = run(capsys, "reproduce", *argv)
    assert code == 1 and out == ""
    assert err == f"capdetect: error: grid {shown} exceeds the limit of 1,000,000 rows per table\n"


# sha256 of fig2's json table on a 1000 x 1000 grid; the text was checked
# once to be json.dumps(json.loads(text), indent=2) + "\n", a round trip of
# about 8 s
FIG2_MILLION_ROWS_SHA256 = "26c3326b44c30623f1508dd443b0bf330f1780e37829b53e7744cfe80dd3330b"


def test_a_million_row_table_is_written_under_230_mb():
    # through the console script's call in a fresh process; the peak was
    # 299 MB while the writer built the whole table's text, and is about
    # 157 MB in blocks of rows
    entry_point = "import sys; from capdetect.cli import main; sys.exit(main())"
    child = subprocess.Popen([sys.executable, "-c", entry_point, "reproduce", "fig2", "--format", "json",
                              "--grid", "gamma01=0:1:0.001001", "--grid", "gamma02=0:1:0.001001"],
                             env=FRESH_ENV, stdout=subprocess.PIPE)
    digest = hashlib.sha256()
    while chunk := child.stdout.read(1 << 20):
        digest.update(chunk)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert usage.ru_maxrss < 230 * 1024, f"peak RSS {usage.ru_maxrss / 1024:.0f} MB"
    assert digest.hexdigest() == FIG2_MILLION_ROWS_SHA256


def test_table_limit_counts_rows(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_MAX_TABLE_ROWS", 11)
    assert main(["reproduce", "fig1", "--grid", "gamma=0:1:0.1", "--out", str(tmp_path / "a")]) == 0
    with pytest.raises(ValueError, match=r"'gamma' \(12 points\) exceeds the limit of 11 rows"):
        reproduce_figure("fig1", grid_overrides={"gamma": (0.0, 1.0, 0.09)})


# the table writer: one column at a time, each distinct value formatted once,
# written in blocks of rows, and the bytes of the row-wise CSV writer it
# replaced and of json.dumps

def _block_texts(write) -> set:
    """The texts ``write(out)`` writes to stdout (``out`` None) and to a
    file, with the writer's own block size and with blocks of 1, 2, 3 and 7
    rows; one text when they all agree."""
    texts = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        for rows in (cli._BLOCK_ROWS, 1, 2, 3, 7):
            with unittest.mock.patch.object(cli, "_BLOCK_ROWS", rows):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    write(None)
                write(path)
            with open(path, newline="") as f:
                texts |= {buf.getvalue(), f.read()}
    return texts


def _table_text(names, columns, fmt: str) -> str:
    [text] = _block_texts(lambda out: cli._write_table(names, columns, out, fmt, "table"))
    return text


def _table(*columns):
    """(names, numpy columns, rows) of a table given as (values, dtype) pairs."""
    return (tuple(f"c{j}" for j in range(len(columns))),
            [np.array(values, dtype=dtype) for values, dtype in columns],
            list(zip(*[values for values, _ in columns])))


_CSV_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 0.1])
_CSV_KINDS = (
    (_CSV_FLOATS, float),
    (st.text(alphabet="B12 ,xé", max_size=3), str),
    (st.booleans(), bool),
    (st.none() | _CSV_FLOATS, object),  # a float-or-None column
)


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(1, 12))
    columns = []
    for values, dtype in draw(st.lists(st.sampled_from(_CSV_KINDS), min_size=1, max_size=5)):
        # a few distinct values per column, as in a figure, so most repeat
        pool = draw(st.lists(values, min_size=1, max_size=4))
        columns.append((draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)), dtype))
    return _table(*columns)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tables())
@example(_table(([-0.0], float), (["B2"], str), ([True], bool), ([None], object)))
@example(_table(([0.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e16, -0.0], float)))
@example(_table(([None, -0.0, 0.0, None, math.nan, 1e16], object)))
@example(_table(([False, True, True], bool), (["B1", "B1", ""], str)))
def test_csv_writer_equals_the_row_writer(table):
    names, columns, rows = table
    assert _table_text(names, columns, "csv") == reference_csv_text(names, rows)
    payload = {"figure": "table", "columns": list(names), "rows": rows}
    assert _table_text(names, columns, "json") == json.dumps(payload, indent=2) + "\n"
    # a grid: the first column along one axis, the others along the other,
    # the last of two or more stored in full
    grid = list(np.broadcast_arrays(columns[0][:, None], *(c[None, :] for c in columns[1:])))
    if len(grid) > 1:
        grid[-1] = grid[-1].copy()
    flat = [c.ravel() for c in grid]
    assert _table_text(names, grid, "csv") == _table_text(names, flat, "csv") == \
        reference_csv_text(names, table_rows(flat))
    assert _table_text(names, grid, "json") == _table_text(names, flat, "json")


# tables of every length from one row to two blocks of 7 and one row more,
# and grids whose leading-axis slices of 2 and 3 rows fill a block, or leave
# one slice over or one short, or whose slice of 8 rows is longer than a block
@pytest.mark.parametrize("shape", [(n,) for n in range(1, 16)] +
                         [(m, k) for k in (2, 3, 8) for m in range(1, 8)])
def test_table_blocks_keep_every_byte(shape):
    axes = np.ix_(*(np.arange(n) / (j + 3) for j, n in enumerate(shape)))
    value = sum(axes) + 0.125
    index = np.arange(value.size).reshape(shape)
    labels = np.where(index % 3 == 0, "B2", "B1")
    maybe = np.where(index % 4 == 1, None, -value).astype(object)
    columns = (*np.broadcast_arrays(*axes), value, labels, maybe, index % 2 == 0)
    names = tuple(f"c{j}" for j in range(len(columns)))
    rows = table_rows([c.ravel() for c in columns])
    for fmt, reference in (("csv", reference_csv_text(names, rows)),
                           ("json", json.dumps({"figure": "table", "columns": list(names), "rows": rows},
                                               indent=2) + "\n")):
        assert _table_text(names, columns, fmt) == reference


_SMALL_GRIDS = {
    "fig1": {"gamma": (0.0, 1.0, 0.125)},
    "fig2": {"gamma01": (0.0, 1.0, 0.25), "gamma02": (0.0, 1.0, 0.2)},
    "fig3": {"theta": (0.0, 1.5, 0.25), "phi": (0.0, 6.0, 1.5)},
    "fig4": {"k": (0.0, 2.0, 0.5)},
    "suppl_stretched": {"s": (-0.7, 0.7, 0.05)},
}


@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_rows_equal_the_row_builders(capsys, figure):
    grids = _SMALL_GRIDS[figure]
    names, rows = REFERENCE_FIGURE_BUILDERS[figure]({**cli._FIGURE_TABLES[figure][1], **grids})
    got_names, got_columns = reproduce_figure(figure, out=os.devnull, grid_overrides=grids)
    got_rows = table_rows(got_columns)
    # repr tells float from bool and -0.0 from 0.0, and shows tuple and list
    assert (got_names, repr(got_rows)) == (names, repr(rows))
    argv = ["reproduce", figure] + [f"--grid={k}={a!r}:{b!r}:{c!r}" for k, (a, b, c) in grids.items()]
    payload = {"figure": figure, "columns": list(names), "rows": rows}
    for fmt, reference in (("csv", reference_csv_text(names, rows)), ("json", json.dumps(payload, indent=2) + "\n")):
        command = [*argv, "--format", fmt]
        assert _block_texts(lambda out: main(command if out is None else [*command, "--out", out])) == {reference}
    assert capsys.readouterr() == ("", "")


# the JSON writer: every --out and stdout JSON is json.dumps(payload, indent=2)

def _emitted(payload) -> str:
    """The text ``_emit_json`` writes to stdout, after checking that it
    writes the same text to a file, and writes no file when it raises."""
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        try:
            cli._emit_json(payload, out)
        except TypeError:
            assert not os.path.exists(out)
            raise
        with open(out, newline="") as f:
            written = f.read()
    with contextlib.redirect_stdout(buf):
        cli._emit_json(payload, None)
    assert buf.getvalue() == written
    return written


@pytest.mark.parametrize("payload", [
    np.int64(3), np.float32(0.5), np.bool_(True), {1, 2}, object(), 1j,
    [1.0, np.int64(2)], [0.5, {0.5}], {"a": {"b": frozenset()}}, ({"c": [np.array(1.0)]},),
    {(1,): 0.5}, [{"a": 0.5, (1,): [0.5, 0.25]}],
])
def test_json_writer_raises_where_json_dumps_does(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError):
        _emitted(payload)


class _Label(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# payloads whose values repeat across flat lists, matrix rows and scalars,
# with signed zeros, NaN, infinities, np.float64, tuples and subclasses
_ROW = [0.5, 1 / 3, 0.125, 2.5e-17, 0.0]


@pytest.mark.parametrize("payload", [
    {"prior": _ROW, "transition": [_ROW[::-1], _ROW, _ROW[1:] + _ROW[:1]], "rows": (tuple(_ROW), _ROW)},
    [[0.0, -0.0, 0.5, 0.25, 0.125], [-0.0, 0.0, 0.125, 0.25, 0.5], 0.0, -0.0, [-0.0, 0.0], [[0.0, -0.0]] * 3],
    [_ROW, [math.nan, 0.5, math.inf, 0.125, -math.inf], [[math.nan, 1 / 3], [math.inf, 0.5]],
     [[0.5, 1 / 3, 0.125, 2.5e-17, -math.inf]] * 2, math.nan, [math.inf] * 5],
    [_ROW, [np.float64(0.5), 1 / 3, np.float64(-0.0), 0.125, np.float64(2.5e-17)], [[0.5, np.float64(1 / 3)]] * 3],
    # ints and flags equal to floats keep their own texts
    [[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2, 3.0, 4.0, 5.0], [1, 2, 3, 4, 5], [1.0, True, 0.0, False, 1.0], 1, True],
    [[(0.5, 0.25), (0.125, 0.0625)], [[0.5], [0.25, 0.125]], [[], []], [[0.5, "x"], [0.5, 0.25]]],
    [[0.5, 1 / 3, -0.0], [0.5, 1 / 3, -0.0], [1 / 3], [[0.0, 1 / 3], [0.5, -0.0]], [0.25], 0.25, [-0.0]],
    # subclasses of str, int and float: as the value, a dict value, a list
    # item and an entry of a list of floats
    _Label("x\u00e9"), _Level.HIGH, np.float64(0.5), np.float64(-math.inf),
    {"label": _Label("B1"), "level": _Level.LOW, "bits": np.float64(1 / 3), "p": 0.5},
    [_Label("B1"), _Level.LOW, np.float64(-0.0), 0.5, [_Level.HIGH, 0.25]],
    [[1.0, 0.5, 0.25], [1.0, _Level.LOW, 0.25], [0.5, _Label("x"), 0.25], [0.5, np.float64(0.25), 0.125],
     [[0.5, 1.0], [1.0, _Level.LOW]], [[np.float64(0.5), 0.25], [0.125, np.float64(math.nan)]]],
])
def test_json_writer_float_table_cases(payload):
    assert _emitted(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    [0.5, 0.25, np.int64(1), 0.125, 0.0625],
    [_ROW, [0.5, 1 / 3, np.int64(1), 0.125, 2.5e-17]],
    [[0.5, 0.25], [np.int64(1), 0.125]],
    [_ROW, [_ROW, [0.5, 1 / 3, 0.125, 2.5e-17, np.int64(0)]]],
])
def test_json_writer_rejects_an_integer_in_a_float_row(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError):
        _emitted(payload)


# basis families are built once per process; nothing a caller does to them
# reaches the next request

def test_basis_family_caches_leak_nothing():
    from capdetect import DetectionConfig, pauli_bases, weyl_bases

    labels = [b.label for b in pauli_bases()]
    got = pauli_bases()
    got.append(got[0])
    got[0] = None
    assert [b.label for b in pauli_bases()] == labels == ["x", "y", "z"]

    # a resolved family is a shared tuple of frozen bases with read-only kets
    kets = [b.kets.copy() for b in weyl_bases(5)]
    for family, d in (("pauli", 2), ("weyl", 5)):
        resolved = DetectionConfig(family).resolve_bases(d)
        with pytest.raises(TypeError):
            resolved[0] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            resolved[0].label = "changed"
        with pytest.raises(ValueError):
            resolved[1].kets[0, 0] = 1
        assert DetectionConfig(family).resolve_bases(d) is resolved
    assert [b.label for b in weyl_bases(5)] == ["weyl(0,1)", *(f"weyl(1,{s})" for s in range(5))]
    assert all(np.array_equal(b.kets, k) for b, k in zip(weyl_bases(5), kets))

    for _ in range(2):
        with pytest.raises(ValueError, match="prime dimension, got 4"):
            weyl_bases(4)


def test_weyl_request_after_another_dimension_matches_a_fresh_process(tmp_path, capsys):
    q5 = np.full((5, 5), 0.02)
    q5[0, 0] = 0.52
    w5 = write_json(tmp_path, "w5.json", {"kind": "generalized_pauli", "params": {"dim": 5, "q": q5.tolist()}})
    q3 = [[0.6, 0.1, 0.0], [0.1, 0.1, 0.0], [0.0, 0.0, 0.1]]
    w3 = write_json(tmp_path, "w3.json", {"kind": "generalized_pauli", "params": {"dim": 3, "q": q3}})
    assert run(capsys, "bound", "--channel", w5, "--bases", "weyl")[0] == 0
    code, warm, _ = run(capsys, "bound", "--channel", w3, "--bases", "weyl")
    assert code == 0
    proc = subprocess.run([sys.executable, "-m", "capdetect.cli", "bound", "--channel", w3,
                           "--bases", "weyl"], env=FRESH_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert warm == proc.stdout and len(json.loads(warm)["per_basis"]) == 4


def test_custom_bases_are_read_on_every_request(tmp_path, capsys):
    spec = write_json(tmp_path, "gad.json", GAD)
    s = 1 / np.sqrt(2)
    computational = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    x = [[[s, 0], [s, 0]], [[s, 0], [-s, 0]]]
    bpath = write_json(tmp_path, "bases.json", [computational])
    first = json.loads(run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")[1])
    write_json(tmp_path, "bases.json", [x, computational])
    second = json.loads(run(capsys, "bound", "--channel", spec, "--bases", f"custom:{bpath}")[1])
    assert len(first["per_basis"]) == 1 and len(second["per_basis"]) == 2
    assert second["per_basis"][1] == first["per_basis"][0] | {"label": "custom1"}
    assert second["argmax_basis"] == "custom0" and second["c_det_bits"] > first["c_det_bits"]
