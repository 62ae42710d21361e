"""Tests of the benchmark itself: tracing coverage, self-time arithmetic and
the correctness checks.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import child  # noqa: E402
import ptscatter  # noqa: E402
import ptscatter.cli  # noqa: E402
import tracer  # noqa: E402
from workloads import (SCAN_MIN_ABS_BETA1, SCAN_SETS, Scan, Sweep,  # noqa: E402
                       check_battery, check_scan, check_sweep, scan, sweep_argv)


@pytest.fixture
def installed():
    t = tracer.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_no_public_function_stays_reachable_unwrapped(installed):
    originals = {}
    for modname in tracer.LAYER_MODULES:
        for name, fn in tracer.public_functions(sys.modules[modname]).items():
            originals[id(fn.__wrapped__)] = f"{modname}.{name}"
    assert len(originals) == len(installed.names) > 0
    assert {n.rsplit(".", 2)[1] for n in installed.names} == set(tracer.LAYERS)
    for module in tracer.package_modules():
        for attr, value in vars(module).items():
            assert id(value) not in originals, f"{module.__name__}.{attr} is unwrapped"
    # the package namespace and the `from .x import f` copies are wrapped too
    assert ptscatter.s_matrix.__wrapped__ is not None
    assert sys.modules["ptscatter.verify"].s_matrix is ptscatter.scattering.s_matrix
    assert ptscatter.cli.s_matrix_zero_range is ptscatter.scattering.s_matrix_zero_range


def test_uninstall_restores_the_package():
    before = dict(vars(ptscatter.scattering))
    t = tracer.Tracer().install()
    assert ptscatter.scattering.s_matrix is not before["s_matrix"]
    t.uninstall()
    assert vars(ptscatter.scattering) == before


def test_spans_record_parents(installed, tmp_path):
    ptscatter.operator_norm(np.eye(2))
    installed.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as data:
        names = [str(data["names"][f]) for f in data["fid"]]
        parents = data["parent"].tolist()
    assert names == ["ptscatter.matrix2.operator_norm", "ptscatter.matrix2.as_matrix",
                     "ptscatter.matrix2.det", "ptscatter.matrix2.as_matrix"]
    assert parents == [-1, 0, 0, 2]


def test_self_times_on_a_synthetic_tree():
    # 0 [0, 100] has children 1 [10, 40] and 2 [50, 70]; 3 [20, 30] is 1's child
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0, 10, 50, 20])
    end = np.array([100, 40, 70, 30])
    assert tracer.self_times(parent, start, end).tolist() == [50, 20, 20, 10]


def _traced_counts(tmp_path, name):
    t = tracer.Tracer().install()
    try:
        scan(Scan(5).batch(1)[:20])
    finally:
        t.uninstall()
    t.dump(tmp_path / name)
    return tracer.summarize(tmp_path / name)


def test_traced_call_counts_repeat(tmp_path):
    first = _traced_counts(tmp_path, "a.npz")
    second = _traced_counts(tmp_path, "b.npz")
    assert first["calls"] == second["calls"]
    assert first["s_matrix_calls"] == 80 and first["s_matrix_distinct"] == 80


def _battery_report(tmp_path):
    path = tmp_path / "battery.json"
    code = ptscatter.cli.main(["verify", "--random", "2", "--seed", "3",
                               "--output", str(path)])
    return code, json.loads(path.read_text())


def test_battery_check_accepts_a_good_report(tmp_path):
    code, report = _battery_report(tmp_path)
    out = check_battery(report, code, 2)
    assert (out.items, out.failed, out.wrong) == (2, 0, 0)
    assert check_battery(report, code, 3).failed == 3


def test_battery_check_catches_a_flipped_consistent(tmp_path):
    code, report = _battery_report(tmp_path)
    report["results"][1]["checks"]["condition_b"]["consistent"] = False
    out = check_battery(report, code, 2)
    assert out.failed >= 1 and out.wrong == out.failed


def test_battery_check_catches_a_wrong_verdict(tmp_path):
    code, report = _battery_report(tmp_path)
    check = report["results"][0]["checks"]["condition_a"]
    check["passed"] = not check["passed"]
    assert check_battery(report, code, 2).failed >= 1


def _sweep_csv(tmp_path, params):
    path = tmp_path / "sweep.csv"
    assert ptscatter.cli.main(sweep_argv(params, 5, path)) == 0
    return path.read_text()


def test_sweep_check_catches_one_perturbed_row(tmp_path):
    params = Sweep(4).batch(1)[0]
    text = _sweep_csv(tmp_path, params)
    assert check_sweep(text, params, 5).failed == 0
    lines = text.splitlines()
    cells = lines[8].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[8] = ",".join(cells)
    out = check_sweep("\n".join(lines) + "\n", params, 5)
    assert (out.failed, out.wrong) == (1, 1)
    assert "row 7 " in out.notes[0]


def test_sweep_check_catches_a_truncated_csv(tmp_path):
    params = Sweep(4).batch(1)[0]
    lines = _sweep_csv(tmp_path, params).splitlines()
    del lines[3]
    assert check_sweep("\n".join(lines) + "\n", params, 5).failed == 25


def test_scan_check_catches_doctored_outputs():
    params = Scan(9).batch(1)[:40]
    result = scan(params)
    assert check_scan(params, result).wrong == 0
    result["oracle"][3] = not result["oracle"][3]
    result["t_rec"][7, 2, 0, 1] += 1e-6
    result["betas"][11, 0] += 1e-6
    out = check_scan(params, result)
    assert out.wrong == 3


def test_scan_check_counts_undocumented_exceptions_as_failed_not_wrong():
    params = Scan(9).batch(1)[:10]
    result = scan(params)
    base = check_scan(params, result).failed
    result["errors"].append([2, "s_matrix:1", "SingularMatrixError", "documented"])
    result["errors"].append([4, "t_from_s:0", "OverflowError", "undocumented"])
    out = check_scan(params, result)
    assert out.failed == base + 1 and out.wrong == 0


def test_scan_draws_keep_beta1_above_the_floor():
    params = Scan(1).batch(1)
    assert np.abs(params[:, 1]).min() >= SCAN_MIN_ABS_BETA1
    assert check_scan(params[:200], scan(params[:200])).failed == 0


def test_batches_are_seeded_and_distinct():
    assert np.array_equal(Scan(7).batch(2), Scan(7).batch(2))
    assert not np.array_equal(Scan(7).batch(2), Scan(7).batch(3))
    assert Sweep(7).batch(1) != Sweep(8).batch(1)


def test_child_runs_a_fixed_number_of_batches(tmp_path):
    out = tmp_path / "child.npz"
    assert child.main(["scan", "3", str(out), "--batches", "1"]) == 0
    with np.load(out) as data:
        # the warm-up batch is checked and counted but not timed
        assert len(data["latency_ns"]) == SCAN_SETS
        assert (int(data["items"]), int(data["timed_items"])) == (2 * SCAN_SETS, SCAN_SETS)
        assert int(data["failed"]) == 0
        assert (data["latency_ns"] > 0).all()


@pytest.mark.xfail(strict=True, raises=ptscatter.AssumptionError,
                   reason="known defect: betas_from_t rejects valid T at small |beta1|")
@pytest.mark.parametrize("beta1", [1e-6, 1e-5, 1e-4])
def test_betas_from_t_inverts_small_beta1(beta1):
    # scan keeps |beta1| >= SCAN_MIN_ABS_BETA1 because of this; when it
    # passes, lower the floor
    e = ptscatter.extension_params(0.2, beta1, 1.5, 0.7)
    back = ptscatter.betas_from_t(ptscatter.t_from_betas(e))
    assert abs(back.beta1 - beta1) <= 1e-6 * beta1


@pytest.mark.xfail(strict=True, reason="known defect: verify misjudges S near a grid pole")
def test_verify_is_consistent_near_a_pole():
    # out-of-region draw of `verify --random 2 --seed 1571048702`: the
    # eigenvalue beta0 - |beta1| sits 4e-5 from the pole of S at z = -3i.
    # battery runs admissible draws only because of this
    from ptscatter.verify import run_parameter_suite

    e = ptscatter.extension_params(-0.24876168095150114, -0.0012823971079812813,
                                   -1.4354489678740707, 2.929887110558113)
    assert run_parameter_suite(e)["consistent"]
