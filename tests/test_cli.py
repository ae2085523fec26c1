import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import capdetect
from capdetect import (
    ChannelSpec,
    binary_entropy,
    blahut_arimoto,
    detect_pauli_qubit,
    gad_affine,
    pseudoclassicality,
    stretched_affine,
)
from capdetect.cli import grid_values, main, reproduce_figure


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
    code, _, err = run(capsys, "ba", str(path))
    assert code == 1
    assert "columns must sum to 1" in err


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


def test_reproduce_fig1_rows(tmp_path):
    out = tmp_path / "fig1.csv"
    cols, rows = reproduce_figure("fig1", out=str(out), grid_overrides={"gamma": (0.0, 1.0, 0.1)})
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
    cols, rows = reproduce_figure(
        "fig2",
        out=str(out),
        grid_overrides={"gamma01": (0.0, 1.0, 0.1), "gamma02": (0.0, 1.0, 0.1)},
    )
    labels = {r[3] for r in rows}
    assert labels == {"B1", "B2"}


def test_reproduce_fig2_warns_when_unconverged(capsys):
    grid = ["--grid", "gamma01=0.1:0.9:0.4", "--grid", "gamma02=0.1:0.9:0.4"]
    with pytest.warns(RuntimeWarning, match=r"fig2: \d+ of 9 .* did not converge .* worst gap"):
        main(["reproduce", "fig2", "--max-iter", "2", *grid])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gamma01,gamma02,c_det_bits,argmax_basis"
    assert len(lines) == 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["reproduce", "fig2", *grid])


def test_reproduce_fig2_matches_engine():
    from capdetect import DetectionConfig, computational_basis, detect_capacity, fourier_basis, vshape_qutrit_channel

    _, rows = reproduce_figure("fig2", grid_overrides={"gamma01": (0.3, 0.3, 1.0), "gamma02": (0.8, 0.8, 1.0)})
    (g1, g2, c, label), = rows
    cfg = DetectionConfig([computational_basis(3, "B1"), fourier_basis(3, "B2")], 1e-10)
    ref = detect_capacity(vshape_qutrit_channel(0.3, 0.8), cfg)
    assert c == pytest.approx(ref.c_det_bits, abs=1e-8)
    assert label == ref.argmax_basis


def test_reproduce_fig3_worst_case_present(tmp_path):
    _, rows = reproduce_figure(
        "fig3",
        grid_overrides={"theta": (0.0, np.pi / 2, np.pi / 20), "phi": (0.0, 2 * np.pi, np.pi / 10)},
    )
    caps = np.array([r[2] for r in rows])
    assert caps.max() == pytest.approx(1.0, abs=1e-9)  # theta = 0 row is noise-free
    assert caps.min() >= 1 - binary_entropy(0.6) - 1e-9


def test_reproduce_fig4_endpoint(tmp_path):
    _, rows = reproduce_figure("fig4", grid_overrides={"k": (0.0, 1.0, 0.5)})
    assert rows[0][1] == pytest.approx(0.3031, abs=5e-3)
    vals = [r[1] for r in rows]
    assert vals == sorted(vals)


def test_reproduce_suppl_stretched_flag(tmp_path):
    _, rows = reproduce_figure("suppl_stretched", grid_overrides={"s": (0.0, 0.7, 0.002)})
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


def test_reproduce_rejects_unknown_grid():
    with pytest.raises(ValueError, match="no grid"):
        reproduce_figure("fig1", grid_overrides={"delta": (0, 1, 0.1)})


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
    src = os.path.dirname(os.path.dirname(capdetect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    spec = write_json(tmp_path, "w3.json", {"kind": "generalized_pauli", "params": {
        "dim": 3, "q": [[0.6, 0.1, 0.0], [0.1, 0.1, 0.0], [0.0, 0.0, 0.1]]}})
    fig4 = tmp_path / "fig4.csv"
    bound = tmp_path / "bound.json"
    for argv in (["reproduce", "fig4", "--grid", "k=0:1:0.5", "--out", str(fig4)],
                 ["bound", "--channel", spec, "--bases", "weyl", "--out", str(bound)]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert len(fig4.read_text().splitlines()) == 4
    assert len(json.loads(bound.read_text())["per_basis"]) == 8


# sha256 of the default-grid tables (csv, json); fig1's json pins c1_bits to
# the last bit, so a change to holevo_gad_p1's search shows here first
FIGURE_SHA256 = {
    "fig1": ("eae119209faabcff2934e0c6f31b57953d294aa4aff782d8a96dc9deb4e6042d",
             "38cfcfda744a6b091747b15bf078796045e1e54cd321cf5a26d8a2e28e0fa737"),
    "fig2": ("90dfacdfc873e32ad508659e800e06fae3e6b5444306c12ec963c208b6507b2c",
             "7b8fe139f57f40021a0ac4a4606d5b1d2caa26610cacac2bce07aefd3ca49878"),
    "fig3": ("22adb84d13a7ce12c77499342896678c52567bef6a6bd6a12957cc10a6ce643c",
             "cd33f66b90dd63e3973797802daea2705cbacef6329b9956aa66b6323083a8dd"),
    "fig4": ("ce88b7d625ead6129ebce2a89d6abd8f12fbd1f4271e50c9b2b7b8a40bc24555",
             "7d910c2c861fee0ebf8372f1072725a3398dda127c95b3a5eda52dc18b152653"),
    "suppl_stretched": ("6f69b98997fb5ecd217cc2339d3c1ace0c757268f1549abe0934a341d753c3c0",
                        "7977c8ac4351590f7d58b9653f20f5d911dba35aabeef56c0eb8276f33ac4529"),
}


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
def test_default_figures_are_byte_stable(tmp_path, figure):
    for fmt, digest in zip(("csv", "json"), FIGURE_SHA256[figure]):
        out = tmp_path / f"{figure}.{fmt}"
        reproduce_figure(figure, out=str(out), fmt=fmt)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, fmt


def test_suppl_stretched_matches_per_row_reports():
    _, rows = reproduce_figure("suppl_stretched", out=os.devnull)
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
])
def test_reproduce_names_first_bad_grid_value(capsys, figure, grid, message):
    code, out, err = run(capsys, "reproduce", figure, "--grid", grid)
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
    assert len(json.loads(out_path.read_text())["per_basis"]) == 8
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
    (["reproduce", "fig2", "--max-iter", "0"], "max_iter must be an integer >= 1, got 0"),
    (["reproduce", "fig1", "--tol", "nan"], "tol_bits must be finite and > 0, got nan"),
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
