"""Exit codes, output schemas and determinism of the command line."""

import json

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


def test_smatrix_rejects_upper_half_plane():
    with pytest.raises(SystemExit) as info:
        cli.main(["smatrix", "--beta0", "0", "--beta1", "0", "--z-im", "0.5"])
    assert info.value.code == 2


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


def test_sweep_rejects_bad_grid():
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--beta0", "0", "--beta1", "0", "--im-max", "0.5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--beta0", "0", "--beta1", "0", "--steps", "0"])
    assert info.value.code == 2


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
