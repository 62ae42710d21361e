"""Time one benchmark workload on two source trees in interleaved pairs.

    python3 tools/time_pairs.py OLD_SRC NEW_SRC --workload battery|sweep|scan \
        --pairs N --out-dir DIR [--calls C] [--seed S]

OLD_SRC and NEW_SRC are directories holding a ``ptscatter`` package (for
example ``src`` of two checkouts).  Pair k runs the benchmark's own child,
``benchmarks/child.py WORKLOAD SEED DIR/child.npz --batches B``, once per
tree, each in a fresh interpreter with its tree on ``PYTHONPATH`` and the
same SEED on both sides; even pairs run OLD first and odd pairs NEW first,
so a drift of the host's speed does not favour one tree.  B is C divided
by the workload's calls per batch in ``benchmarks/workloads.py``, rounded
up, so each side makes at least C timed calls after the untimed warm-up
batch, and the child checks every output as the benchmark does.  C
defaults to the workload's entry in DEFAULT_CALLS: ``scan``'s calls are
the shortest, and at 3000 calls (6 batches) two runs of one tree differed
in p90 by more than the quartile spread, which 20000 calls avoid.  Before
each child the tool times SETUP_PROBES cold imports with
``benchmarks/run.py``'s IMPORT_PROBE and reads the child's peak RSS with
``os.wait4``, as ``run.py`` does.

Scratch files go under DIR (use a RAM disk such as ``/dev/shm`` to keep
file-system cost out of the timings).  The tool prints each pair's p50 and
p90 in ms, peak RSS in MB, set-up time in s and each side's failed and
wrong item counts; then for each metric each side's median and quartiles
over the pairs, the gap between the medians and the number of pairs in
which NEW reads lower; then each side's totals.  It exits 1 if a child
reports a wrong output or if the two trees fail different numbers of
items in a pair.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
from run import IMPORT_PROBE, SETUP_PROBES  # noqa: E402
from workloads import BATTERY_CALLS, SCAN_SETS, SWEEP_CALLS  # noqa: E402

CALLS_PER_BATCH = {"battery": BATTERY_CALLS, "sweep": SWEEP_CALLS, "scan": SCAN_SETS}
DEFAULT_CALLS = {"battery": 3000, "sweep": 3000, "scan": 20000}
UNITS = {"p50": "ms", "p90": "ms", "rss": "MB", "setup": "s"}
COUNTS = ("items", "failed", "wrong")


def setup_s(env) -> float:
    """The median of SETUP_PROBES cold ``import ptscatter`` times."""
    return statistics.median(float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=60).stdout) for _ in range(SETUP_PROBES))


def run(src: Path, args, seed: int, batches: int) -> dict:
    """The metrics and outcome counts of one child run of the tree src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    setup = setup_s(env)
    out = args.out_dir / "child.npz"
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, str(BENCHMARKS / "child.py"), args.workload,
                                 str(seed), str(out), "--batches", str(batches)],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        if status:
            err.seek(0)
            sys.exit(f"{src}: the child run failed:\n{err.read()[-2000:].decode()}")
    with np.load(out) as data:
        latency_ms = data["latency_ns"] / 1e6
        result = {key: int(data[key]) for key in COUNTS}
        notes = str(data["notes"])
    out.unlink()
    if result["failed"]:
        print(f"{src}: failure notes {notes}", flush=True)
    return {"p50": float(np.percentile(latency_ms, 50)),
            "p90": float(np.percentile(latency_ms, 90)),
            "rss": usage.ru_maxrss / 1024.0, "setup": setup, **result}


def quartiles(values, unit) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"median {q2:.3f} {unit}, quartiles {q1:.3f}-{q3:.3f} (IQR {q3 - q1:.3f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="SRC")
    parser.add_argument("--workload", choices=sorted(CALLS_PER_BATCH), required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--calls", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    trees = [Path(a).resolve() for a in args.trees]
    calls = args.calls or DEFAULT_CALLS[args.workload]
    batches = math.ceil(calls / CALLS_PER_BATCH[args.workload])
    runs = {"old": [], "new": []}
    unequal = 0
    for k in range(args.pairs):
        order = [("old", trees[0]), ("new", trees[1])][::1 if k % 2 == 0 else -1]
        for side, src in order:
            runs[side].append(run(src, args, args.seed * 100003 + k, batches))
        old, new = runs["old"][-1], runs["new"][-1]
        unequal += old["failed"] != new["failed"]
        print(f"pair {k:2} ({order[0][0]} first): p50 {old['p50']:.3f} -> {new['p50']:.3f}"
              f"  p90 {old['p90']:.3f} -> {new['p90']:.3f} ms"
              f"  rss {old['rss']:.2f} -> {new['rss']:.2f} MB"
              f"  setup {old['setup']:.3f} -> {new['setup']:.3f} s"
              f"  failed/wrong {old['failed']}/{old['wrong']} -> {new['failed']}/{new['wrong']}",
              flush=True)
    for metric, unit in UNITS.items():
        values = {side: [r[metric] for r in runs[side]] for side in runs}
        for side in runs:
            print(f"{metric} {side}: {quartiles(values[side], unit)}")
        gap = statistics.median(values["old"]) - statistics.median(values["new"])
        wins = sum(n < o for o, n in zip(values["old"], values["new"]))
        print(f"{metric}: median gap {gap:.3f} {unit}, new lower in {wins} of {args.pairs} pairs")
    for side in runs:
        total = {key: sum(r[key] for r in runs[side]) for key in COUNTS}
        print(f"{side}: {total['items']} items, {total['failed']} failed, {total['wrong']} wrong")
    if unequal:
        print(f"the trees failed different numbers of items in {unequal} of {args.pairs} pairs")
    wrong = any(r["wrong"] for side in runs for r in runs[side])
    return 1 if wrong or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
