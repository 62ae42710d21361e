"""Time one benchmark workload on two source trees in interleaved pairs.

    python3 tools/time_pairs.py OLD_SRC NEW_SRC --workload battery|sweep|scan \
        --pairs N --out-dir DIR [--calls C] [--seed S]

OLD_SRC and NEW_SRC are directories holding a ``ptscatter`` package (for
example ``src`` of two checkouts).  Pair k runs each tree once, each in a
fresh interpreter with its tree on ``PYTHONPATH``, over the same inputs;
even pairs run OLD first and odd pairs NEW first, so a drift of the host's
speed does not favour one tree.  A run makes C calls in process, one after
another, after a few untimed warm-up calls, and times each:

* ``battery``: ``cli.main(["verify", "--random", "1", "--seed", S, ...])``
  with a fresh S per call;
* ``sweep``: ``cli.main(["sweep", ..., "--steps", "16", "--format", "csv"])``
  with a fresh parameter set per call;
* ``scan``: one parameter set of ``benchmarks/workloads.py``'s ``scan``.

The CLI writes its output under DIR (use a RAM disk such as ``/dev/shm`` to
keep file-system cost out of the timings).  Each child's peak RSS is read
with ``os.wait4``, as ``benchmarks/run.py`` reads it.  The tool prints each
pair's p50 and p90 in ms and peak RSS in MB for both trees, then for each
of the three each side's median and quartiles over the pairs, the gap
between the medians and the number of pairs in which NEW reads lower.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
WARMUP = 20


def _battery(rng, calls, out):
    path = str(out / "battery.json")
    return [["verify", "--random", "1", "--seed", str(int(s)), "--output", path]
            for s in rng.integers(0, 2 ** 31, calls)]


def _sweep(rng, calls, out):
    path = str(out / "sweep.csv")
    return [["sweep", f"--beta0={rng.uniform(-0.25, 0.75)!r}",
             f"--beta1={rng.uniform(-0.5, 0.5)!r}", f"--chi={rng.uniform(-2.0, 2.0)!r}",
             f"--xi={rng.uniform(0.0, 2.0 * math.pi)!r}", "--steps", "16",
             "--format", "csv", "--output", path] for _ in range(calls)]


def child(workload: str, calls: int, seed: int, out: Path) -> None:
    """Print the per-call latencies in ns of one run, as a JSON list."""
    import time

    import numpy as np

    rng = np.random.default_rng(seed)
    if workload == "scan":
        sys.path.insert(0, str(BENCHMARKS))
        from workloads import draw_scan_params, scan
        scan(draw_scan_params(rng, WARMUP))
        latency = scan(draw_scan_params(rng, calls))["latency_ns"].tolist()
    else:
        from ptscatter.cli import main
        argvs = {"battery": _battery, "sweep": _sweep}[workload](rng, WARMUP + calls, out)
        latency, clock = [], time.perf_counter_ns
        for argv in argvs:
            start = clock()
            main(argv)
            latency.append(clock() - start)
        latency = latency[WARMUP:]
    print(json.dumps(latency))


def run(src: Path, args, seed: int) -> tuple[list, float]:
    """The per-call latencies of one child run and its peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, __file__, "--child", "--workload",
                                 args.workload, "--calls", str(args.calls), "--seed", str(seed),
                                 "--out-dir", str(args.out_dir)],
                                env=env, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        if status:
            err.seek(0)
            sys.exit(f"{src}: the child run failed:\n{err.read()[-2000:].decode()}")
    return json.loads(out.splitlines()[-1]), usage.ru_maxrss / 1024.0


def percentile_ms(latency, q) -> float:
    ordered = sorted(latency)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)] / 1e6


def quartiles(values, unit) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.3f} {unit}, quartiles {q1:.3f}-{q3:.3f} (IQR {q3 - q1:.3f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="SRC")
    parser.add_argument("--workload", choices=("battery", "sweep", "scan"), required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--calls", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.workload, args.calls, args.seed, args.out_dir)
        return 0
    if len(args.trees) != 2:
        parser.error("expected OLD_SRC and NEW_SRC")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    trees = [Path(a).resolve() for a in args.trees]
    units = {"p50": "ms", "p90": "ms", "rss": "MB"}
    stats = {side: {metric: [] for metric in units} for side in ("old", "new")}
    for k in range(args.pairs):
        order = [("old", trees[0]), ("new", trees[1])][::1 if k % 2 == 0 else -1]
        for side, src in order:
            latency, rss = run(src, args, args.seed * 100003 + k)
            stats[side]["p50"].append(percentile_ms(latency, 0.5))
            stats[side]["p90"].append(percentile_ms(latency, 0.9))
            stats[side]["rss"].append(rss)
        old, new = ({m: v[-1] for m, v in stats[side].items()} for side in ("old", "new"))
        print(f"pair {k:2} ({order[0][0]} first): p50 {old['p50']:.3f} -> {new['p50']:.3f}"
              f"  p90 {old['p90']:.3f} -> {new['p90']:.3f} ms"
              f"  rss {old['rss']:.2f} -> {new['rss']:.2f} MB", flush=True)
    for metric, unit in units.items():
        for side in ("old", "new"):
            print(f"{metric} {side}: {quartiles(stats[side][metric], unit)}")
        gap = statistics.median(stats["old"][metric]) - statistics.median(stats["new"][metric])
        wins = sum(n < o for o, n in zip(stats["old"][metric], stats["new"][metric]))
        print(f"{metric}: median gap {gap:.3f} {unit}, new lower in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
