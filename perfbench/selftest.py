"""Determinism self-tests for the benchmark.

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

or ``python3 perfbench/selftest.py``.  The file name keeps it out of
the repository's default test collection: it runs every workload
several times (about two minutes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.timing import SLICES, fastest_window_s  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: wall-clock based, so never expected to repeat
WALL_METRICS = {"setup_s", "sim_ops_per_s", "peak_rss_mb"}
WALL_COUNTS = {"partition.critical_path_share"}


def _counts(observation) -> dict:
    return {key: value for key, value in observation.window.items()
            if key not in WALL_COUNTS}


def test_one_seed_repeats_virtual_metrics_and_counts():
    for name, workload in WORKLOADS.items():
        first, second = workload(7), workload(7)
        assert first.virtual == second.virtual, name
        assert _counts(first) == _counts(second), name


def test_another_seed_changes_virtual_metrics():
    for name, workload in WORKLOADS.items():
        one, other = workload(7).virtual, workload(8).virtual
        # Counts such as a saturated master's throughput may coincide;
        # continuous virtual latencies may not.
        for key in ("write_p50_us", "read_p99_us", "unavailable_ms"):
            assert one[key] != other[key], (name, key)


def test_traced_runs_repeat_counts_and_match_untraced():
    for name, workload in WORKLOADS.items():
        plain = workload(7)
        first = workload(7, tracer=Tracer())
        second = workload(7, tracer=Tracer())
        assert first.virtual == plain.virtual, name
        assert _counts(first) == _counts(second), name
        assert first.queue_waits == second.queue_waits, name


def test_fastest_window_takes_each_span_from_the_fastest_run():
    """Two runs over 0..100 virtual µs, each slowed 3x in one half:
    the span-by-span fastest time is that of a run slowed nowhere."""
    def run(slow_half: int) -> list:
        samples, wall = [], 0.0
        for step in range(1000):
            vt = step / 10
            samples.append((wall, vt))
            wall += 0.003 if (vt >= 50) == slow_half else 0.001
        return samples + [(wall, 100.0)]

    assert SLICES % 2 == 0
    assert abs(fastest_window_s([run(0), run(1)]) - 1.0) < 1e-9
    assert abs(fastest_window_s([run(1)]) - 2.0) < 1e-9


def _run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "closed_write", "--seed", "7", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return result


def test_separate_processes_agree():
    """String hashing differs per process; the results must not."""
    outputs = [{name: metric["value"]
                for name, metric in _run(0)["metrics"].items()
                if name not in WALL_METRICS} for _ in range(2)]
    assert outputs[0] == outputs[1]


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        printed = _run(trace)["metrics"]
        assert {name: metric["unit"] for name, metric in printed.items()} \
            == {metric["name"]: metric["unit"] for metric in spec[key]}


if __name__ == "__main__":
    for test in (test_fastest_window_takes_each_span_from_the_fastest_run,
                 test_one_seed_repeats_virtual_metrics_and_counts,
                 test_another_seed_changes_virtual_metrics,
                 test_traced_runs_repeat_counts_and_match_untraced,
                 test_separate_processes_agree,
                 test_printed_metrics_match_benchmark_json):
        test()
        print(f"ok {test.__name__}")
