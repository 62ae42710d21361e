"""One benchmark child: a workload's batches run in this process, each call timed.

    python3 benchmarks/child.py WORKLOAD SEED OUT.npz --seconds S [--start K]
    python3 benchmarks/child.py WORKLOAD SEED OUT.npz --batches B [--spans SPANS.npz]

Batch 0 is a warm-up: its outputs are checked and counted, its latencies
are not kept.  With ``--seconds`` the child then runs batches K, K+1, ...
(K is 1 by default) until S seconds have passed; with ``--batches`` it
runs batches 1 to B, so traced call counts repeat for a seed.  ``--spans``
installs the tracer for the counted batches and writes its spans at the
end.  The output holds
the per-call latencies, the item counts (all, and of the counted batches),
the failure and wrong-value counts, and up to five failure notes.
Scratch files go next to OUT.npz.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, Outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--batches", type=int)
    parser.add_argument("--start", type=int, default=1)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    workdir = Path(args.out).parent
    _, warm_up = workload.run(workload.batch(0), workdir)
    outcome = Outcome(0)
    spans = tracer.Tracer().install() if args.spans else None
    latency, k = [], args.start
    deadline = time.perf_counter() + (args.seconds or 0.0)
    try:
        while (k <= args.batches if args.batches
               else k == args.start or time.perf_counter() < deadline):
            lat, out = workload.run(workload.batch(k), workdir)
            latency += lat
            outcome.add(out)
            k += 1
    finally:
        if spans is not None:
            spans.uninstall()
            spans.dump(args.spans)
    timed_items = outcome.items
    outcome.add(warm_up)
    np.savez(args.out, latency_ns=np.array(latency, dtype=np.int64), items=outcome.items,
             timed_items=timed_items, failed=outcome.failed, wrong=outcome.wrong,
             notes=json.dumps(outcome.notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
