import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import capdetect
from capdetect import binary_entropy, blahut_arimoto, detect_pauli_qubit, gad_affine
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
