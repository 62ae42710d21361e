"""Exit codes, output schemas and determinism of the command line."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ptscatter import (SingularMatrixError, cli, extension_params, metric,
                       operator_norm, s_matrix_zero_range)
from ptscatter.scattering import _metric_defect
from ptscatter.verify import _pair


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
    assert json.loads(out)["closed_form_verdict"] is True

    code, out, _ = run(capsys, ["classify", "--beta0", "0.25", "--beta1", "0.3",
                                "--chi", "1.0", "--xi", "0.0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["closed_form_verdict"] is False
    assert rep["eigenvalues_lower"][0] < 0

    code, out, _ = run(capsys, ["classify", "--beta0", "0.6", "--beta1", "0.0",
                                "--chi", "0.0", "--xi", "0.0"])
    assert code == 0
    assert json.loads(out)["closed_form_verdict"] is False


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


def test_verify_at_chi_700_names_the_singular_denominator(capsys):
    # the suite forms no metric product G T, so the first error is the S
    # denominator at -3-3i, whose determinant overflows to NaN
    code, out, err = run(capsys, ["verify", "--beta0", "0.2", "--beta1", "0.1",
                                  "--chi", "700"])
    assert code == 2
    assert out == ""
    assert err == "error: denominator is singular at z = (-3-3j)\n"


def test_verify_overflowing_t_names_t(capsys):
    code, out, err = run(capsys, ["verify", "--beta0", "0", "--beta1", "1e308", "--chi", "2"])
    assert code == 2
    assert out == ""
    assert err == "error: the matrix T = beta0 I + beta1 C overflows\n"


def test_classify_finite_hermitian_oracle_has_finite_eigenvalues(capsys):
    code, out, _ = run(capsys, ["classify", "--beta0", "0", "--beta1", "1e308", "--chi", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["eigenvalues_lower"] == rep["eigenvalues_upper"] == [-1e308, 1e308]


def test_classify_internal_disagreement_exits_3(capsys, monkeypatch):
    from ptscatter.extensions import SpectraClassification

    def fake(e, tol):
        return SpectraClassification(True, False, (0.0, 1.0), (0.0, 1.0))

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


def test_sweep_overflowing_span_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["sweep", "--beta0", "0.2", "--beta1", "0.1",
                                      "--re-min=-1e308", "--re-max=1e308"])
    assert code == 2
    assert out == ""
    assert err == "error: re_max - re_min must be finite, got re_min=-1e+308, re_max=1e+308\n"


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


# The per-point sweep loop as first written, kept as the reference for the
# batched pass: one s_matrix_zero_range, operator_norm and metric defect per
# point, one record dict per row, one format call per cell.

_NAN_S = np.full((2, 2), complex(np.nan, np.nan))


def reference_sweep_rows(e, zs):
    g = metric(e.metric)
    rows = []
    singular = 0
    for z in zs:
        try:
            ev = s_matrix_zero_range(e, z)
        except SingularMatrixError:
            singular += 1
            rows.append({"z": complex(z), "singular": True, "s": _NAN_S,
                         "std_norm": float("nan"), "metric_defect": float("nan")})
            continue
        rows.append({"z": complex(z), "singular": False, "s": ev.s,
                     "std_norm": operator_norm(ev.s), "metric_defect": _metric_defect(g, ev.s)})
    return rows, singular


def reference_rows_to_csv(rows, singular):
    lines = [cli.CSV_HEADER]
    for r in rows:
        values = [r["z"]] + list(r["s"].ravel())
        cells = [f"{float(x):.17g}" for v in values for x in (v.real, v.imag)]
        cells += [f"{float(r['std_norm']):.17g}", f"{float(r['metric_defect']):.17g}"]
        lines.append(",".join(cells))
    lines.append(f"# singular_points: {singular}/{len(rows)}")
    return "\n".join(lines) + "\n"


def reference_rows_to_json(rows, singular, config):
    records = []
    for r in rows:
        rec = {"z": _pair(r["z"]), "singular": r["singular"]}
        if not r["singular"]:
            s = r["s"]
            rec.update({
                "s11": _pair(s[0, 0]), "s12": _pair(s[0, 1]),
                "s21": _pair(s[1, 0]), "s22": _pair(s[1, 1]),
                "std_norm": r["std_norm"], "metric_defect": r["metric_defect"],
            })
        records.append(rec)
    return {"config": config, "records": records,
            "singular_points": singular, "total_points": len(rows)}


def reference_run_points(args, zs, config, evaluate=None):
    e = extension_params(args.beta0, args.beta1, args.chi, args.xi)
    rows, singular = reference_sweep_rows(e, zs)
    if args.format == "csv":
        cli._emit(reference_rows_to_csv(rows, singular), args.output)
    else:
        cli._emit_json(reference_rows_to_json(rows, singular, config), args.output)
    if singular == len(rows):
        print("error: every grid point had a singular denominator", file=sys.stderr)
        return cli.EXIT_ALL_SINGULAR
    return cli.EXIT_OK


def sweep_cases():
    rng = np.random.default_rng(61)
    cases = []
    for k in range(50):
        params = [f"--beta0={rng.uniform(-0.25, 0.75)!r}", f"--beta1={rng.uniform(-0.5, 0.5)!r}",
                  f"--chi={rng.uniform(-3.0, 3.0)!r}", f"--xi={rng.uniform(0.0, 2 * math.pi)!r}"]
        grid = ["--steps", "16"]
        if k % 5 == 0:   # a random grid, reversed bounds excluded
            re = sorted(rng.uniform(-4.0, 4.0, 2).tolist())
            im = sorted(rng.uniform(-4.0, 0.0, 2).tolist())
            grid += [f"--re-min={re[0]!r}", f"--re-max={re[1]!r}",
                     f"--im-min={im[0]!r}", f"--im-max={im[1]!r}"]
        cases.append(["sweep"] + params + grid)
        cases.append(["smatrix"] + params + [f"--z-re={rng.uniform(-3, 3)!r}",
                                             f"--z-im={rng.uniform(-3, 0)!r}"])
    singular_rows = ["--beta0", "1", "--beta1", "0", "--re-min", "0", "--re-max", "1",
                     "--im-min", "-0.5", "--im-max", "-0.5"]
    cases += [
        ["sweep"] + singular_rows + ["--steps", "2"],      # 2 of 4 rows singular
        ["sweep"] + singular_rows + ["--steps", "3"],
        # all singular: exit 4
        ["sweep", "--beta0", "1", "--beta1", "0", "--re-min", "0", "--re-max", "0",
         "--im-min", "-0.5", "--im-max", "-0.5", "--steps", "1"],
        ["smatrix", "--beta0", "1", "--beta1", "0", "--z-im", "-0.5"],
        ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--chi", "400", "--steps", "4"],
        ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--chi", "20", "--steps", "16"],
        ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--chi", "-0.0", "--steps", "16"],
        ["sweep", "--beta0", "0.25", "--beta1", "-0.0", "--xi", "3.141592653589793",
         "--steps", "16"],
        ["smatrix", "--beta0", "0.25", "--beta1", "0", "--z-im", "-1"],
        # signed zeros and repeated values in the z columns
        ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--re-min=-0.0", "--re-max=0.0",
         "--steps", "2"],
        ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--chi", "0.5", "--im-min=-1",
         "--im-max=-0.0", "--steps", "3"],
        ["sweep", "--beta0", "0.3", "--beta1", "-0.2", "--xi", "1", "--steps", "1"],
        # bounds of -0.0: each axis is [-0, 0, -0], both zeros in one column
        ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--re-min=-0.0", "--re-max=-0.0",
         "--im-min=-0.0", "--im-max=-0.0", "--steps", "3"],
    ]
    return [argv + ["--format", fmt] for argv in cases for fmt in ("csv", "json")]


def test_sweep_and_smatrix_match_the_per_point_loop(capsys, monkeypatch):
    for argv in sweep_cases():
        got = run(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_run_points", reference_run_points)
            want = run(capsys, argv)
        assert got == want, argv


def test_sweep_csv_edge_fields_match_the_per_field_loop(capsys, monkeypatch):
    # z = -0.5i is a pole of T = I; z_re holds +0 and a decade the CSV
    # writer leaves to '%.17g' itself, z_im holds -0
    argv = ["sweep", "--beta0", "1", "--beta1", "0", "--re-min=-2e-7", "--re-max=0.0",
            "--im-min=-1", "--im-max=-0.0", "--steps", "3"]
    got = run(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_run_points", reference_run_points)
        want = run(capsys, argv)
    assert got == want
    rows = [line.split(",") for line in got[1].splitlines()[1:-1]]
    assert ["0", "-0.5"] + ["nan"] * 10 in rows
    assert {"-1.9999999999999999e-07", "-9.9999999999999995e-08", "0"} <= {r[0] for r in rows}
    assert "-0" in {r[1] for r in rows}


def test_sweep_does_not_evaluate_point_by_point(capsys, monkeypatch):
    import ptscatter.matrix2 as matrix2
    import ptscatter.scattering as scattering

    def per_point(*args, **kwargs):
        raise AssertionError("sweep evaluated its grid one point at a time")

    for module in (cli, scattering, matrix2):
        for name in ("s_matrix", "s_matrix_zero_range", "operator_norm",
                     "_metric_defect", "hermitian_eigenvalues"):
            monkeypatch.setattr(module, name, per_point, raising=False)
    code, out, err = run(capsys, ["sweep", "--beta0", "0.2", "--beta1", "0.1",
                                  "--chi", "0.5", "--steps", "16"])
    assert code == 0, err
    assert out.count("\n") == 16 * 16 + 2


@pytest.mark.parametrize("argv", [
    ["smatrix", "--beta0", "0", "--beta1", "0", "--z-im", "-1"],
    ["sweep", "--beta0", "0", "--beta1", "0", "--steps", "2"],
    ["verify", "--beta0", "0.25", "--beta1", "0.2"],
], ids=lambda argv: argv[0])
def test_unwritable_output_prints_one_error_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv + ["--output", str(tmp_path / "missing" / "x.out")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------- one parser

INTERLEAVED = [
    ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--chi", "2", "--steps", "3"],
    ["verify", "--random", "1", "--seed", "3"],
    ["verify", "--beta0", "0.25", "--beta1", "0.2", "--chi", "1", "--xi", "0.5"],
    ["classify", "--beta0", "0.25", "--beta1", "0.2"],
    ["sweep", "--beta0", "0.2", "--bogus"],                   # argparse usage error
    ["verify", "--random", "1", "--tolerance", "-1"],         # bad --tolerance
    ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--steps", "2", "--format", "json"],
    ["verify", "--random", "1"],                              # default seed again
    ["verify", "--beta0", "0.1", "--beta1", "0.0"],           # default chi and xi
    ["verify"],                                               # parser.error
    ["classify", "--beta0", "0.1", "--beta1", "0.0", "--tolerance", "1e-6"],
]


def outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_interleaved_calls(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    got = [outcome(capsys, argv) for argv in INTERLEAVED * 2]
    # the same calls, each with a parser of its own
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    want = [outcome(capsys, argv) for argv in INTERLEAVED * 2]
    assert got == want
    assert {code for code, _, _ in want} >= {0, 2, ("SystemExit", 2)}


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


@pytest.mark.parametrize("beta0, beta1, pole", [
    ("0.25", "0.25", [0.0, 0.0]),     # a corner of the diamond: lambda = 1/2
    ("-0.26", "0.01", [0.0, -3.0]),   # lambda = -1/4
    ("-0.25", "0", [0.0, -3.0]),
    ("-0.5", "0", [0.0, -2.0]),       # a Mobius witness point
])
def test_verify_skips_a_pole_at_its_sample_points_and_lists_it(capsys, beta0, beta1, pole):
    # S has a pole at z = -i(1 - 1/(2 lambda)) for each eigenvalue lambda of T
    code, out, err = run(capsys, ["verify", "--beta0", beta0, "--beta1", beta1])
    assert (code, err) == (0, "")
    [suite] = json.loads(out)["results"]
    assert suite["singular_z"] == [pole]
    assert suite["consistent"]
    # the route gap's tolerance scales with the condition of the kept points
    assert suite["checks"]["formula_equivalence"]["tolerance"] < 1e-8


CLASSIFICATION_KEYS = {"closed_form_verdict", "oracle_verdict", "eigenvalues_lower",
                       "eigenvalues_upper"}


def test_classify_and_verify_documents_hold_each_verdict_once(capsys):
    code, out, _ = run(capsys, ["classify", "--beta0", "0.25", "--beta1", "0.2"])
    assert code == 0
    assert set(json.loads(out)) == {"beta0", "beta1", "chi", "xi"} | CLASSIFICATION_KEYS
    code, out, _ = run(capsys, ["verify", "--random", "1"])
    assert code == 0
    [suite] = json.loads(out)["results"]
    assert set(suite) == {"params", "classification", "standard_norm_max", "singular_z",
                          "checks", "consistent", "draw", "admissible_draw"}
    assert set(suite["classification"]) == CLASSIFICATION_KEYS


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
    # the tolerance is checked before verify asks for its parameters
    ["verify"],
    ["verify", "--beta0", "0.25"],
    ["verify", "--beta0", "0.25", "--beta1", "0.2"],
    ["verify", "--random", "1"],
])
@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_bad_tolerance_exits_2_on_every_subcommand(capsys, argv, tol):
    code, out, err = run(capsys, argv + [f"--tolerance={tol}"])
    assert code == 2
    assert out == ""
    assert err == "error: tol must be positive\n"


# every option a subcommand registers, so that one no computation reads
# shows up in review
PARAM_FLAGS = {"--beta0", "--beta1", "--chi", "--xi"}
OPTIONS = {
    "decompose": {"--tolerance", "--output"},
    "classify": PARAM_FLAGS | {"--tolerance", "--output"},
    "smatrix": PARAM_FLAGS | {"--z-re", "--z-im", "--format", "--output"},
    "sweep": PARAM_FLAGS | {"--re-min", "--re-max", "--im-min", "--im-max", "--steps",
                            "--format", "--output"},
    "verify": PARAM_FLAGS | {"--random", "--seed", "--tolerance", "--output"},
}


def test_each_subcommand_registers_exactly_its_options():
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {flag for action in parser._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")}
               for name, parser in sub.choices.items()}
    assert options == OPTIONS


@pytest.mark.parametrize("argv", [
    ["smatrix", "--beta0", "0.25", "--beta1", "0.2", "--z-im", "-1"],
    ["sweep", "--beta0", "0.25", "--beta1", "0.2", "--steps", "2"],
], ids=lambda argv: argv[0])
def test_tolerance_is_a_usage_error_where_no_verdict_is_drawn(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--tolerance=1e-6"])
    out = capsys.readouterr()
    assert info.value.code == 2 and out.out == ""
    assert out.err.endswith("error: unrecognized arguments: --tolerance=1e-6\n")


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
    ["decompose", "'abc'"],
    ["decompose", "[[1,2],[3]]"],
    ["decompose", "[[1,2],[3,{}]]"],
    pytest.param(["decompose", "[[1%s,0],[0,1]]" % ("0" * 400)], id="decompose 10**400"),
    # ast.literal_eval raises RecursionError, and MemoryError when deeper
    pytest.param(["decompose", "[[1,0],[0,%s1]]" % ("-" * 3000)], id="decompose 3000 minus"),
    pytest.param(["decompose", "[[1,0],[0,%s1]]" % ("-" * 100000)], id="decompose 100000 minus"),
    # a 4000000 x 4000000 complex grid (about 233 TiB) exceeds a 47-bit
    # address space; its two axes take 64 MB
    ["sweep", "--beta0", "0.1", "--beta1", "0.1", "--steps", "4000000"],
    # finite T whose S overflows at a regular point once printed a row of NaNs
    ["smatrix", "--beta0", "0.2", "--beta1", "1e308", "--chi", "0.5", "--z-im", "-1"],
    ["sweep", "--beta0", "0.2", "--beta1", "1e308", "--chi", "0.5", "--re-min", "0",
     "--re-max", "0", "--im-min", "-1", "--im-max", "-1", "--steps", "1"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_prints_one_error_line(capsys, argv):
    # each input is rejected by the library function it enters
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("flag", ["--re-min", "--re-max", "--im-min", "--im-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_sweep_bound_is_named(capsys, flag, value):
    code, out, err = run(capsys, ["sweep", "--beta0", "0.2", "--beta1", "0.1", f"{flag}={value}"])
    name = flag[2:].replace("-", "_")
    assert (code, out, err) == (2, "", f"error: {name} must be finite, got {value}\n")


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


# ---------------------------------------------------------------- JSON writer


@pytest.mark.parametrize("argv", [
    ["verify", "--random", "1", "--seed", "3"],
    ["verify", "--random", "200", "--seed", "42"],
    ["verify", "--beta0", "0.25", "--beta1", "0.25"],     # singular_z holds z = 0
    ["verify", "--beta0", "0.3", "--beta1", "0"],         # contraction_bound
    ["classify", "--beta0", "0.25", "--beta1", "0.2", "--chi", "1"],
    ["decompose", "[[1,0],[0,-1]]"],
    ["decompose", "[[0,1],[1,0]]"],                        # c_params is None
    ["decompose", "[[1,2],[3,4]]"],                        # krein_xi is None too
    ["sweep", "--beta0", "-0.25", "--beta1", "0", "--steps", "9", "--format", "json"],
    ["sweep", "--beta0", "0.2", "--beta1", "0.1", "--chi", "400", "--steps", "2",
     "--format", "json"],
    ["smatrix", "--beta0", "0.25", "--beta1", "0.1", "--z-im", "-1", "--format", "json"],
    ["smatrix", "--beta0", "-0.25", "--beta1", "0", "--z-im", "-3", "--format", "json"],
], ids=lambda argv: " ".join(argv[:5]))
def test_json_output_equals_json_dumps(capsys, monkeypatch, argv):
    emitted = []
    emit_json = cli._emit_json

    def recording(obj, path):
        emitted.append(obj)
        emit_json(obj, path)

    monkeypatch.setattr(cli, "_emit_json", recording)
    _, out, _ = run(capsys, argv)
    [obj] = emitted
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # the writer takes only these exact types: a document that gains a
    # numpy scalar, a tuple or a non-str key fails here
    values, keys = set(), set()
    _collect_types(obj, values, keys)
    assert values <= {dict, list, str, int, bool, type(None), float}
    assert keys == {str}
    if argv[0] == "sweep":
        assert any(rec["singular"] for rec in obj["records"])


def _collect_types(o, values, keys):
    """Add the exact type of o and of every value in it to values, and of
    every dict key in it to keys."""
    values.add(type(o))
    if type(o) is dict:
        keys.update(map(type, o))
        for v in o.values():
            _collect_types(v, values, keys)
    elif type(o) is list:
        for v in o:
            _collect_types(v, values, keys)


EDGE_VALUES = [
    {}, [], [1e16, 1e-7, -2.5e-300, 0.1 + 0.2, 123456789.0], "", 0, -0.0, 5e-324,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
    [-5e-324, -1.7976931348623157e308, -10 ** 40],
    {"z": [0.0, -3.0], "singular": True, "s11": [math.nan, -math.inf]},
    [[True, None], {"k": -1}, "é"], True, False, None, 10 ** 40,
    "\"\\\n\t\x00\x1f\x7f é   \ud800 \U0001f600",
    {"b": [1, [2.0, {}]], "a": {"": [], "é": None}, "\n": [[[]]]},
    {"b": 1, "a": 2, "B": 3, "": 4, "é": 5, "\x00": 6, "aa": 7},
    [{"k": -0.0}, [{"x": -math.inf}]],
]


@pytest.mark.parametrize("obj", EDGE_VALUES, ids=range(len(EDGE_VALUES)))
def test_json_writer_handles_edge_values(obj):
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [1j, np.int64(1), {1, 2}, [object()], {"a": b"x"},
                                 np.array([1.0]), {"a": [np.float32(1.0)]}])
def test_json_writer_raises_what_json_raises(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json_text(obj)
    assert str(got.value) == str(expected.value)


class _Float(float):
    pass


@pytest.mark.parametrize("obj", [(), [(1.0, 2.0)], np.float64(0.1), {"a": _Float(2.5)}],
                         ids=["tuple", "nested-tuple", "float64", "float-subclass"])
def test_json_writer_takes_only_exact_types(obj):
    # json.dumps writes these; no document holds them, so the writer does not
    with pytest.raises(TypeError, match="^Object of type (tuple|float64|_Float) "
                                        "is not JSON serializable$"):
        cli._json_text(obj)
