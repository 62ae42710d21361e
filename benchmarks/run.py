"""ptscatter benchmark runner.

    python3 benchmarks/run.py --workload battery|sweep|scan --seed N \
        --seconds S --trace 0|1
    python3 benchmarks/run.py --acceptance

Run from a checkout holding ``src/ptscatter``; nothing needs installing.

With ``--trace 0`` three child processes (``child.py``) in turn make the
workload's calls one after another for a third of ``--seconds`` each -- a
closed loop with one client -- timing each call; the benchmark reads each
child's peak RSS with ``os.wait4`` and the outputs it checked.  Set-up
time is the median of cold ``import ptscatter`` runs in fresh
interpreters, taken before each child.  With ``--trace 1`` untraced and traced children of a
fixed size alternate, and the result holds the per-layer metrics of the
traced ones (see ``tracer.py``).  The last line of standard output is the
JSON result; the lines before it give the provenance and a table of every
metric with its unit.

``--acceptance`` is a report, not a workload: it runs
``pytest -s tests/test_acceptance.py`` and prints each criterion's elapsed
time against its budget.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build"
TIMED_CHILDREN = 3     # an untraced run's --seconds are split among these
SETUP_PROBES = 4       # cold imports before each timed child
BATCH_STRIDE = 10 ** 6  # timed child i starts at batch 1 + i * BATCH_STRIDE
TRACE_BATCHES = 3      # counted batches in each child of a traced run
MIN_CHILDREN = 2       # of each kind in a traced run
CHILD_TIMEOUT_S = 60   # beyond a child's share of --seconds
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ptscatter; "
                "print(time.perf_counter() - t)")


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_child, which kills the child


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(argv, timeout_s: int) -> float:
    """Run one child to its end and return its peak RSS in MB; raises if it fails."""
    with tempfile.TemporaryFile(dir=SCRATCH) as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        signal.alarm(timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, ChildTimeout):
                raise RuntimeError(f"child exceeded {timeout_s}s: {argv}") from None
            raise
        finally:
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"child exited {proc.returncode}: {argv}\n"
                               + err.read().decode()[-2000:])
        return usage.ru_maxrss / 1024.0


def child(args, workdir, limit, spans=None) -> dict:
    """Run child.py and load what it wrote."""
    out = workdir / "child.npz"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), args.workload, str(args.seed),
            str(out), *limit]
    if spans is not None:
        argv += ["--spans", str(spans)]
    rss = run_child(argv, int(args.seconds) + CHILD_TIMEOUT_S)
    with np.load(out) as data:
        result = {key: data[key] for key in data.files}
    out.unlink()
    result["notes"] = json.loads(str(result["notes"]))
    result["latency_ms"] = result.pop("latency_ns") / 1e6
    result["rss_mb"] = rss
    if spans is not None:
        result["summary"] = tracer.summarize(spans)
    return result


def cold_import_s() -> float:
    """Time of ``import ptscatter`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"import ptscatter failed: {out.stderr.strip()}")
    return float(out.stdout)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, workload, children, calls) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": workload.sizes(),
        "children": children,
        "timed_calls": calls,
    }


def end_to_end(runs, setup) -> tuple[dict, dict]:
    """The bounded metrics, and the informational ones printed beside them.

    Shared hosts alternate between a fast state and one about 1.7x slower,
    switching within seconds.  The median call falls between the two and
    moves with their mix from run to run; p90 stays in the slow state,
    which every run seen so far spent more than a tenth of its time in."""
    lat = np.concatenate([r["latency_ms"] for r in runs])
    metrics = {
        "call_p90_ms": (float(np.percentile(lat, 90)), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
    }
    info = {
        "call_p10_ms": (float(np.percentile(lat, 10)), "ms"),
        "call_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "items_per_s": (sum(int(r["timed_items"]) for r in runs) / (lat.sum() / 1e3), "1/s"),
    }
    return metrics, info


def per_layer(plain, traced) -> dict:
    summaries = [r["summary"] for r in traced]
    first = summaries[0]
    metrics = {}
    for layer, modname in zip(tracer.LAYERS, tracer.LAYER_MODULES):
        names = [n for n in first["calls"] if n.rsplit(".", 1)[0] == modname]
        metrics[f"{layer}.calls"] = (sum(first["calls"][n] for n in names), "count")
        metrics[f"{layer}.self_s"] = (
            statistics.median(sum(s["self_s"][n] for n in names) for s in summaries), "s")
    calls = first["calls"]
    s_calls = first["s_matrix_calls"]
    metrics.update({
        "scattering.s_evals": (calls["ptscatter.scattering.s_matrix"]
                               + calls["ptscatter.scattering.s_matrix_zero_range"], "count"),
        # 1 when s_matrix is never called: nothing is evaluated twice
        "scattering.s_unique_ratio": (first["s_matrix_distinct"] / s_calls if s_calls else 1.0,
                                      "ratio"),
        "scattering.singular": (first["singular"], "count"),
        "matrix2.as_matrix.calls": (calls["ptscatter.matrix2.as_matrix"], "count"),
        "matrix2.operator_norm.calls": (calls["ptscatter.matrix2.operator_norm"], "count"),
        "clifford.calls_per_item": (metrics["clifford.calls"][0] / int(traced[0]["timed_items"]),
                                    "count/item"),
        "trace_overhead_frac": (statistics.median(r["latency_ms"].sum() for r in traced)
                                / statistics.median(r["latency_ms"].sum() for r in plain) - 1.0,
                                "fraction"),
    })
    return metrics


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        cold_import_s()  # warm-up: writes the bytecode caches
        info = {}
        if args.trace:
            # traced and untraced children of the same fixed size alternate;
            # call counts are read from the first traced one
            limit = ["--batches", str(TRACE_BATCHES)]
            runs, deadline = [], time.perf_counter() + args.seconds
            while len(runs) < 2 * MIN_CHILDREN or time.perf_counter() < deadline:
                traced = len(runs) % 2 == 1
                runs.append(child(args, workdir, limit, workdir / "spans.npz" if traced else None))
            plain = runs[0::2]
            metrics = per_layer(plain, runs[1::2])
        else:
            # set-up probes go between the timed children, so they see the
            # same host states as the calls
            setup, runs = [], []
            for i in range(TIMED_CHILDREN):
                setup += [cold_import_s() for _ in range(SETUP_PROBES)]
                runs.append(child(args, workdir, [
                    "--seconds", str(args.seconds / TIMED_CHILDREN),
                    "--start", str(1 + i * BATCH_STRIDE)]))
            metrics, info = end_to_end(runs, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(int(r["items"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    wrong = sum(int(r["wrong"]) for r in runs)
    calls = sum(len(r["latency_ms"]) for r in runs)
    print("provenance " + json.dumps(provenance(args, workload, len(runs), calls),
                                     sort_keys=True))
    notes = [n for r in runs for n in r["notes"]]
    for note in notes[:5]:
        print(f"failure: {note}")
    print(f"{'metric':<34} {'value':>16}  unit")
    info["failed_frac"] = (failed / attempted, "fraction")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:<34} {value:>16.6g}  {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


ACCEPTANCE_LINE = re.compile(r"ACCEPTANCE (\d+): (PASS|FAIL)(?: \(([\d.]+)s\))? - (.*)$")
BUDGET = re.compile(r"criterion\((\d+),\s*([\d.]+),")


def acceptance_report() -> int:
    """Each acceptance criterion's elapsed time against its budget."""
    test_file = ROOT / "tests" / "test_acceptance.py"
    budgets = {int(n): float(b) for n, b in BUDGET.findall(test_file.read_text())}
    SCRATCH.mkdir(exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
                           str(test_file)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=600)
    rows = []
    for line in proc.stdout.splitlines():
        m = ACCEPTANCE_LINE.search(line)
        if m:
            n = int(m.group(1))
            elapsed = float(m.group(3)) if m.group(3) else None
            rows.append({"criterion": n, "passed": m.group(2) == "PASS",
                         "elapsed_s": elapsed, "budget_s": budgets.get(n),
                         "share_of_budget": elapsed / budgets[n]
                         if elapsed is not None and n in budgets else None,
                         "description": m.group(4)})
    print(f"{'criterion':>9} {'result':>6} {'elapsed_s':>10} {'budget_s':>9} {'share':>7}")
    for r in rows:
        elapsed = "-" if r["elapsed_s"] is None else f"{r['elapsed_s']:.2f}"
        share = "-" if r["share_of_budget"] is None else f"{r['share_of_budget']:.2f}"
        print(f"{r['criterion']:>9} {'PASS' if r['passed'] else 'FAIL':>6} "
              f"{elapsed:>10} {r['budget_s']:>9} {share:>7}")
    print(json.dumps({"provenance": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                                     "python": platform.python_version(),
                                     "numpy": np.__version__, "git_commit": git_commit()},
                      "criteria": rows}))
    ok = proc.returncode == 0 and len(rows) == len(budgets) and all(r["passed"] for r in rows)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--acceptance", action="store_true",
                        help="report acceptance-criterion timings instead of a workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ptscatter" / "__init__.py").is_file():
        print(f"error: no ptscatter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.acceptance:
        return acceptance_report()
    if args.workload is None:
        parser.error("--workload is required unless --acceptance is given")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
