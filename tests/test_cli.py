"""Exit codes, output schemas and determinism of the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptscatter import cli


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- decompose


def test_decompose_sigma3(capsys):
    code, out, _ = run(capsys, ["decompose", "[[1,0],[0,-1]]"])
    assert code == 0
    rep = json.loads(out)
    assert rep["coefficients"]["a1"] == [1.0, 0.0]
    assert rep["pt_symmetric"] is True
    assert rep["krein_xi"] == 0.0
    assert rep["c_params"] == {"xi": 0.0, "chi": 0.0}


def test_decompose_sigma1_not_pt(capsys):
    code, out, _ = run(capsys, ["decompose", "[[0,1],[1,0]]"])
    assert code == 0
    rep = json.loads(out)
    assert rep["coefficients"]["a2"] == [1.0, 0.0]
    assert rep["pt_symmetric"] is False
    assert rep["krein_xi"] is None


def test_decompose_malformed_input(capsys):
    code, _, err = run(capsys, ["decompose", "[[1,0],[0"])
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, ["decompose", "[[1,0,0],[0,1,0],[0,0,1]]"])
    assert code == 2


# ---------------------------------------------------------------- classify


def test_classify_examples(capsys):
    code, out, _ = run(capsys, ["classify", "--beta0", "0.25", "--beta1", "0.2",
                                "--chi", "1.0", "--xi", "0.0"])
    assert code == 0
    assert json.loads(out)["nonnegative"] is True

    code, out, _ = run(capsys, ["classify", "--beta0", "0.25", "--beta1", "0.3",
                                "--chi", "1.0", "--xi", "0.0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["nonnegative"] is False
    assert rep["eigenvalues_lower"][0] < 0

    code, out, _ = run(capsys, ["classify", "--beta0", "0.6", "--beta1", "0.0",
                                "--chi", "0.0", "--xi", "0.0"])
    assert code == 0
    assert json.loads(out)["nonnegative"] is False


def test_classify_non_numeric_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["classify", "--beta0", "abc", "--beta1", "0"])
    assert info.value.code == 2


def test_classify_overflowing_chi_exits_2(capsys):
    code, out, err = run(capsys, ["classify", "--beta0", "0.2", "--beta1", "0.1",
                                  "--chi", "1000"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "chi" in err


def test_classify_internal_disagreement_exits_3(capsys, monkeypatch):
    from ptscatter.extensions import SpectraClassification

    def fake(e, tol):
        return SpectraClassification(True, True, False, (0.0, 1.0), (0.0, 1.0))

    monkeypatch.setattr(cli, "classify_nonnegative", fake)
    code, _, err = run(capsys, ["classify", "--beta0", "0.1", "--beta1", "0.0"])
    assert code == 3
    assert "disagrees" in err


# ---------------------------------------------------------------- smatrix/sweep


def test_smatrix_point_query(capsys):
    code, out, _ = run(capsys, ["smatrix", "--beta0", "0.25", "--beta1", "0",
                                "--z-im", "-1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == 12
    assert float(cells[10]) == 0.0   # std_norm of the zero matrix
    assert lines[-1].startswith("# singular_points: 0/1")


def test_smatrix_rejects_upper_half_plane(capsys):
    code, out, err = run(capsys, ["smatrix", "--beta0", "0", "--beta1", "0",
                                  "--z-im", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sweep_identity_rows(capsys):
    code, out, _ = run(capsys, ["sweep", "--beta0", "0", "--beta1", "0",
                                "--steps", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = lines[1:-1]
    assert len(rows) == 9
    for row in rows:
        cells = row.split(",")
        assert float(cells[2]) == 1.0          # s11_re
        assert float(cells[4]) == 0.0          # s12_re
        assert float(cells[10]) == 1.0         # std_norm
    # row-major: im outer ascending, re inner ascending
    assert [r.split(",")[0] for r in rows[:3]] == ["-3", "0", "3"]
    assert float(rows[0].split(",")[1]) == -3.0
    assert float(rows[-1].split(",")[1]) == pytest.approx(-0.1)


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, ["sweep", "--beta0", "0.25", "--beta1", "0.1",
                                "--chi", "0.5", "--steps", "2", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["total_points"] == 4
    assert rep["singular_points"] == 0
    assert {"z", "singular", "s11", "std_norm", "metric_defect"} <= set(rep["records"][0])


def test_sweep_rejects_bad_grid(capsys):
    for grid in (["--im-max", "0.5"], ["--steps", "0"],
                 ["--re-min", "3", "--re-max", "-3"],
                 ["--im-min", "-0.1", "--im-max", "-3"]):
        code, out, err = run(capsys, ["sweep", "--beta0", "0", "--beta1", "0"] + grid)
        assert code == 2, grid
        assert out == ""
        assert err.startswith("error: ")


def test_sweep_all_singular_exits_4(capsys):
    # T = I is singular exactly at z = -i/2
    code, out, err = run(capsys, ["sweep", "--beta0", "1", "--beta1", "0",
                                  "--re-min", "0", "--re-max", "0",
                                  "--im-min", "-0.5", "--im-max", "-0.5",
                                  "--steps", "1"])
    assert code == 4
    lines = out.strip().splitlines()
    assert lines[1].split(",")[2] == "nan"
    assert lines[-1] == "# singular_points: 1/1"
    assert "singular" in err


def test_sweep_flagged_rows_dont_fail_whole_run(capsys):
    # 2x2 grid; the two re = 0 points sit on the singularity of T = I
    code, out, _ = run(capsys, ["sweep", "--beta0", "1", "--beta1", "0",
                                "--re-min", "0", "--re-max", "1",
                                "--im-min", "-0.5", "--im-max", "-0.5",
                                "--steps", "2"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "# singular_points: 2/4"


def test_sweep_overflowing_chi_flags_every_point(capsys):
    # cosh(400) squares past the float range in the denominator's condition
    # estimate; such a point counts as singular
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, ["sweep", "--beta0", "0.2", "--beta1", "0.1",
                                      "--chi", "400", "--steps", "2"])
    assert code == 4
    lines = out.strip().splitlines()
    assert all(line.split(",")[2:] == ["nan"] * 10 for line in lines[1:5])
    assert lines[-1] == "# singular_points: 4/4"
    assert "singular" in err


# ---------------------------------------------------------------- verify


def test_verify_explicit_admissible(capsys):
    code, out, _ = run(capsys, ["verify", "--beta0", "0.25", "--beta1", "0.2",
                                "--chi", "1", "--xi", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_consistent"] is True
    checks = rep["results"][0]["checks"]
    for name in ("condition_a", "condition_b", "condition_c", "condition_d"):
        assert checks[name]["passed"] is True


def test_verify_explicit_inadmissible_is_consistent(capsys):
    code, out, _ = run(capsys, ["verify", "--beta0", "0.25", "--beta1", "0.3",
                                "--chi", "1", "--xi", "0"])
    assert code == 0
    rep = json.loads(out)
    entry = rep["results"][0]["checks"]["condition_a"]
    assert entry["passed"] is False and entry["consistent"] is True


def test_verify_requires_parameters_or_random():
    with pytest.raises(SystemExit) as info:
        cli.main(["verify"])
    assert info.value.code == 2


def test_verify_random_deterministic_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["verify", "--random", "10", "--seed", "42",
                     "--output", str(out1)]) == 0
    assert cli.main(["verify", "--random", "10", "--seed", "42",
                     "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["all_consistent"] is True
    assert rep["draws"] == 10


def test_verify_violation_exits_5(capsys, monkeypatch):
    real = cli.run_parameter_suite

    def sabotaged(e, tol):
        suite = real(e, tol)
        suite["checks"]["condition_a"]["consistent"] = False
        suite["consistent"] = False
        return suite

    monkeypatch.setattr(cli, "run_parameter_suite", sabotaged)
    code, _, err = run(capsys, ["verify", "--beta0", "0.1", "--beta1", "0.0"])
    assert code == 5
    assert "replay" in err


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code = cli.main(["smatrix", "--beta0", "0", "--beta1", "0", "--z-im", "-1",
                     "--output", str(path)])
    assert code == 0
    assert path.read_text().startswith(cli.CSV_HEADER)
    assert capsys.readouterr().out == ""


def test_verify_violation_echoes_the_flags_as_given(capsys, monkeypatch):
    def inconsistent(e, tol):
        return {"consistent": False}

    monkeypatch.setattr(cli, "run_parameter_suite", inconsistent)
    code, _, err = run(capsys, ["verify", "--beta0", "0.1", "--beta1", "0.0",
                                "--xi", "7"])
    assert code == 5
    assert err == ("error: property violation; replay with: ptscatter verify "
                   "--beta0 0.1 --beta1 0.0 --chi 0.0 --xi 7.0\n")


@pytest.mark.parametrize("argv", [
    ["decompose", "[[1,0],[0,-1]]"],
    ["classify", "--beta0", "0.25", "--beta1", "0.2"],
    ["smatrix", "--beta0", "0.25", "--beta1", "0.2", "--z-im", "-1"],
    ["sweep", "--beta0", "0.25", "--beta1", "0.2", "--steps", "2"],
    ["verify", "--beta0", "0.25", "--beta1", "0.2"],
    ["verify", "--random", "1"],
])
@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_bad_tolerance_exits_2_on_every_subcommand(capsys, argv, tol):
    code, out, err = run(capsys, argv + [f"--tolerance={tol}"])
    assert code == 2
    assert out == ""
    assert err == "error: tol must be positive\n"


# ---------------------------------------------------------------- bad input

@pytest.mark.parametrize("argv", [
    ["smatrix", "--beta0", "0", "--beta1", "0", "--z-im", "0.5"],
    ["sweep", "--beta0", "0", "--beta1", "0", "--steps", "0"],
    ["sweep", "--beta0", "0", "--beta1", "0", "--im-max", "0.5"],
    ["sweep", "--beta0", "0", "--beta1", "0", "--re-min", "3", "--re-max", "-3"],
    ["verify", "--random", "0"],
    ["verify", "--random", "1", "--seed", "-1"],
    ["decompose", "1"],
    ["decompose", "[[1,0],[0,'a']]"],
    ["decompose", "{1: 2}"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_prints_one_error_line(capsys, argv):
    # each input is rejected by the library function it enters
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def run_process(argv):
    """The CLI in a fresh interpreter, so numpy warnings reach real stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "ptscatter"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)


def test_overflowing_chi_sweep_writes_only_its_error_line():
    proc = run_process(["sweep", "--beta0", "0.2", "--beta1", "0.1", "--chi", "400",
                        "--steps", "2"])
    assert proc.returncode == 4
    assert proc.stderr == "error: every grid point had a singular denominator\n"


def test_overflowing_chi_verify_writes_only_its_error_line():
    proc = run_process(["verify", "--beta0", "0.2", "--beta1", "0.1", "--chi", "700"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
