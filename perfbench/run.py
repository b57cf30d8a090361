"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closed_write --seed 1 \
        --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` repeats untraced runs of
the workload (each one built from nothing with the same seed) until
``--seconds`` have passed, and reports the end-to-end metrics: virtual
ones from the first run, set-up time as the median over the runs, and
the window's wall time as the fastest run's, span by span
(``perfbench/timing.py``).
``--trace 1`` alternates untraced and traced runs for ``--seconds``,
then makes one profiled run, and reports the per-layer metrics.  Every
run of a seed must reproduce the first one's virtual outputs exactly.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` count the seed's ops once; the lines above it
repeat every metric by name with its unit, plus sample counts and the
output checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.metrics import end_to_end, per_layer  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """The runs of one invocation, grouped by kind."""
    runs = {"plain": [], "traced": [], "profiled": []}
    began = time.perf_counter()
    while True:
        gc.collect()
        runs["plain"].append(workload(seed))
        if trace:
            gc.collect()
            runs["traced"].append(workload(seed, tracer=Tracer()))
        if time.perf_counter() - began >= seconds:
            break
    if trace:
        runs["profiled"].append(workload(seed, profile=True))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace))
    every = [run for kind in runs.values() for run in kind]
    reference = every[0].virtual
    checks = list(every[0].checks)
    mismatched = [i for i, run in enumerate(every) if run.virtual != reference]
    checks.append(("every run reproduces the first run's virtual outputs",
                   not mismatched, f"runs {mismatched} differ"))
    checks.extend(check for run in every[1:] for check in run.checks
                  if not check[1])

    if args.trace:
        metrics, notes = per_layer(runs)
    else:
        metrics, notes = end_to_end(runs["plain"], peak_rss_mb())

    finite = {name: math.isfinite(value)
              for name, (value, _unit) in metrics.items()}
    checks.append(("every metric is a finite number", all(finite.values()),
                   ", ".join(name for name, ok in finite.items() if not ok)))

    acc = reference["accounting"]
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit:8s} {notes.get(name, '')}")
    print(f"runs: {len(runs['plain'])} untraced, {len(runs['traced'])} "
          f"traced, {len(runs['profiled'])} profiled; accounting per run: "
          + ", ".join(f"{k}={v}" for k, v in acc.items()
                      if k != "failed_share"))
    for name, passed, detail in checks:
        print(f"check {'ok  ' if passed else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    # Every run of the seed replays the same ops, so the seed's ops are
    # counted once: the same seed reports the same counts however many
    # runs fit in --seconds.
    print(json.dumps({
        "correct": all(passed for _name, passed, _detail in checks),
        "attempted": acc["offered"],
        "failed": acc["failed"] + acc["dropped"] + acc["stranded"],
        "metrics": {name: {"value": value if finite[name] else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
