"""Turn observations into the named metrics of ``BENCHMARK.json``.

Each function returns ``({name: (value, unit)}, {name: note})``; the
notes carry sample counts for the human-readable lines.
"""

from __future__ import annotations

import statistics

from repro.metrics.stats import percentile

from perfbench.timing import SLICES, fastest_window_s
from perfbench.tracer import PROFILE_LAYERS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(runs: list, peak_rss_mb: float) -> tuple[dict, dict]:
    """Untraced runs: virtual metrics from the first (all runs agree),
    set-up time as the median over the runs and the window's wall time
    as the fastest run's, span by span (see ``perfbench.timing``)."""
    virtual = runs[0].virtual
    ops = virtual["committed"]
    median_rate = statistics.median(ops / r.window_s for r in runs)
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in runs), "s"),
        "sim_ops_per_s": (
            ops / fastest_window_s([r.progress for r in runs]), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "goodput_ops_s": (virtual["goodput_ops_s"], "1/s"),
    }
    notes = {"setup_s": f"median of {len(runs)} runs",
             "sim_ops_per_s": f"fastest of {len(runs)} runs per "
                              f"1/{SLICES} of the window, {ops} ops; "
                              f"median whole-window rate {median_rate:.0f}",
             "goodput_ops_s": f"{ops} completions in "
                              f"{virtual['window_us']:.0f} virtual us"}
    for kind in ("write", "read"):
        for pct in ("p50", "p99"):
            name = f"{kind}_{pct}_us"
            metrics[name] = (virtual[name], "us")
            notes[name] = f"n={virtual[f'{kind}_n']}"
    metrics["ops_completed_share"] = (
        1.0 - virtual["accounting"]["failed_share"], "share")
    notes["ops_completed_share"] = (
        f"ops_failed_share={virtual['accounting']['failed_share']:.6f}")
    metrics["unavailable_ms"] = (virtual["unavailable_ms"], "ms")
    return metrics, notes


def per_layer(runs: dict) -> tuple[dict, dict]:
    """Counts from the first traced run, shares from the profiled run,
    and the traced/untraced wall-clock gap."""
    traced = runs["traced"][0]
    virtual = traced.virtual
    w = traced.window
    ops = virtual["committed"]
    acc = virtual["accounting"]
    waits = sorted(traced.queue_waits)

    def per_op(key: str) -> float:
        return _ratio(w.get(key, 0), ops)

    metrics = {
        "sim.events_per_op": (per_op("sim.events"), "count"),
        "sim.latency_samples_per_op": (per_op("sim.samples"), "count"),
        "net.messages_per_op": (per_op("net.messages"), "count"),
        "net.bytes_per_op": (per_op("net.bytes"), "B"),
        "rpc.rpcs_per_op": (per_op("rpc.calls"), "count"),
        "rpc.timeouts": (w.get("rpc.timeouts", 0), "count"),
        "core.fast_path_rate": (
            _ratio(w["core.fast_updates"], w["core.updates"]), "share"),
        "core.witness_accept_rate": (
            _ratio(w.get("core.witness_accepts", 0),
                   w.get("core.witness_records", 0)), "share"),
        "core.conflict_syncs_per_kop": (
            1e3 * per_op("core.conflict_syncs"), "count"),
        "core.sync_batch_entries": (
            _ratio(w["core.synced_entries"], w["core.syncs"]), "count"),
        "core.gc_rpcs_per_kop": (1e3 * per_op("core.gc_rpcs"), "count"),
        "core.master_queue_wait_p50_us": (
            percentile(waits, 50.0) if waits else 0.0, "us"),
        "core.master_queue_wait_p99_us": (
            percentile(waits, 99.0) if waits else 0.0, "us"),
        "core.attempts_per_op": (per_op("core.master_attempts"), "count"),
        "kvstore.execute_per_op": (per_op("kvstore.executes"), "count"),
        "kvstore.wal_appends_per_op": (per_op("kvstore.wal_appends"),
                                       "count"),
        "kvstore.disk_busy_us_per_op": (per_op("kvstore.disk_busy_us"),
                                        "us"),
        "rifl.checks_per_op": (per_op("rifl.checks"), "count"),
        "rifl.duplicates": (w.get("rifl.duplicates", 0), "count"),
        "rifl.stale": (w.get("rifl.stale", 0), "count"),
        "cluster.detect_ms": (virtual.get("detect_ms") or 0.0, "ms"),
        "cluster.recover_ms": (virtual.get("recover_ms") or 0.0, "ms"),
        "cluster.config_fetches_per_kop": (
            1e3 * per_op("cluster.config_fetches"), "count"),
        "partition.windows_per_vms": (
            _ratio(w.get("partition.windows", 0), w["vt"] / 1e3), "1/ms"),
        "partition.envelopes_per_op": (per_op("partition.envelopes"),
                                       "count"),
        "partition.critical_path_share": (
            w.get("partition.critical_path_share", 0.0), "share"),
        "partition.stranded_ops": (acc["stranded"], "count"),
        "workload.ops_failed_share": (acc["failed_share"], "share"),
        "trace.overhead_share": (statistics.median(
            t.window_s / p.window_s - 1.0
            for p, t in zip(runs["plain"], runs["traced"])), "share"),
    }
    notes = {"core.master_queue_wait_p50_us": f"n={len(waits)}",
             "core.master_queue_wait_p99_us": f"n={len(waits)}",
             "trace.overhead_share":
                 f"median of {len(runs['traced'])} traced/untraced pairs"}

    layers = runs["profiled"][0].layers
    total = sum(seconds for _calls, seconds in layers.values())
    for layer in PROFILE_LAYERS:
        calls, seconds = layers.get(layer, (0, 0.0))
        metrics[f"{layer}.pycalls_per_op"] = (_ratio(calls, ops), "count")
        metrics[f"{layer}.self_share"] = (_ratio(seconds, total), "share")
    return metrics, notes
