"""The four benchmark workloads.

Each ``run_<name>(seed, tracer=None, profile=False)`` builds a cluster
from nothing through the repo's public entry points, measures one
window, checks what it can about the outputs, and returns a
:class:`Observation`.  The same seed gives the same virtual results:
``Observation.virtual`` holds every deterministic output, and a traced
run must reproduce it exactly.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import random
import time

from repro.baselines import curp_config
from repro.cluster import FailureDetector
from repro.core.config import CurpConfig, StorageProfile
from repro.harness.builder import build_cluster
from repro.harness.profiles import RAMCLOUD_PROFILE
from repro.kvstore.operations import Write
from repro.metrics.stats import LatencyRecorder
from repro.net.faults import FaultPlan, HostFlap
from repro.sim.distributions import Fixed
from repro.sim.partition import PartitionedSimulation
from repro.verify.checker import (CheckerLimitExceeded, LinearizabilityError,
                                  check_linearizable)
from repro.verify.history import History
from repro.workload.clients import run_closed_loop
from repro.workload.openloop import (ConstantRate, KeySetWorkload,
                                     OpenLoopEngine, TenantSpec)
from repro.workload.partitioned import build_openloop_partition
from repro.workload.ycsb import YCSB_A, YcsbWorkload

from perfbench.timing import ProgressSampler
from perfbench.tracer import LayerProfile, Tracer, merge_layers

# ----------------------------------------------------------------------
# the modelled deployments (virtual time in µs, rates in ops/s)
# ----------------------------------------------------------------------
#: closed_write: Figure 6's single master under 16 closed-loop writers
CLOSED_CLIENTS = 16
CLOSED_WARMUP = 800.0
CLOSED_WINDOW = 4_000.0
#: read-back after the drain: reads of written keys at an unloaded rate
READBACK_READS = 2_000
READBACK_RATE = 200_000.0

#: openloop_ycsb_a: YCSB-A over 1M zipfian objects on 4 shards
YCSB_SHARDS = 4
YCSB_RATE = 1_600_000.0          # 400k ops/s per shard
YCSB_CONNECTIONS = 16
YCSB_WARMUP = 200.0
YCSB_WINDOW = 12_000.0
YCSB_LIMIT = 50.0

#: kill_master: 4 shards with durable backups; m0's host is killed
KILL_SHARDS = 4
KILL_RATE = 80_000.0             # 20k ops/s per shard
KILL_CONNECTIONS = 16
KILL_MIX = YcsbWorkload(name="kill-mix", read_fraction=0.5,
                        item_count=2_000, value_size=8)
KILL_WARMUP = 5_000.0
KILL_AT = 20_000.0
KILL_END = 45_000.0
KILL_LIMIT = 1_000.0
#: watchdog as in benchmarks/bench_availability.py
WATCHDOG = dict(interval=500.0, miss_threshold=3, ping_timeout=200.0,
                data_probes=True, data_probe_slo=1_000.0, gray_threshold=3)

#: pdes_p2: the bench_parallel_sim.py traffic at P=2, process backend.
#: A fixed 10 µs wire (the lookahead) as in the script, with RAMCloud's
#: fixed host costs, so queueing spreads the latencies.  Every cost is
#: fixed, so both partitions finish connecting at the same virtual
#: instant (a jittered wire leaves them apart; see README.md).
#: functools.partial, not a lambda, so the profile pickles.
PDES_PROFILE = dataclasses.replace(
    RAMCLOUD_PROFILE, name="pdes-bench",
    latency=functools.partial(Fixed, 10.0))
PDES_PARTITIONS = 2
PDES_ARGS = {"n_masters": 4, "rate_per_shard": 200_000.0, "n_clients": 4,
             "keys_per_shard": 64, "remote_fraction": 0.2,
             "profile": PDES_PROFILE}
PDES_WARMUP = 1_000.0
PDES_WINDOW = 12_000.0
PDES_LIMIT = 100.0


def retry_budget(config: CurpConfig) -> float:
    """Virtual µs after which a client has given up on any op: every
    attempt times out and backs off.  A drain this long leaves in
    flight only ops that will never finish."""
    return config.max_attempts * (config.rpc_timeout + config.retry_backoff)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Observation:
    """One run of one workload."""

    #: deterministic per seed: compared across runs and with tracing
    virtual: dict
    setup_s: float
    #: wall seconds of the measured window
    window_s: float
    #: counter deltas over the measured window (layer counters)
    window: dict
    #: (name, passed, detail) for every output check
    checks: list
    #: virtual µs each queued master-worker request waited (traced run)
    queue_waits: list = dataclasses.field(default_factory=list)
    #: per-layer (calls, self seconds) over the window (profiled run)
    layers: dict = dataclasses.field(default_factory=dict)
    #: (wall seconds, virtual µs) samples over the window
    progress: list = dataclasses.field(default_factory=list)


class UniqueWrites:
    """A YCSB op source whose writes carry distinct values.

    Keys and the read/write choice come from the wrapped workload's own
    stream, with the same rng draws; only the written value changes, so
    a read result names the write it observed.  Records every value
    written per key, and for closed loops each stream's draw instants.
    """

    def __init__(self, workload: YcsbWorkload, sim=None):
        self.workload = workload
        self.sim = sim
        self.issued = 0
        self.written: dict[str, list] = {}
        #: per stream: virtual instants at which it drew an op
        self.draws: list[list[float]] = []
        #: called once, at the first draw (the closed loop's start)
        self.on_first_draw = None

    def generator(self) -> "UniqueStream":
        return UniqueStream(self)


class UniqueStream:
    def __init__(self, source: UniqueWrites):
        self.source = source
        self.inner = source.workload.generator()
        self.draws: list[float] = []
        source.draws.append(self.draws)

    def next_op(self, rng):
        source = self.source
        op = self.inner.next_op(rng)
        if source.sim is not None:
            if source.on_first_draw is not None:
                hook, source.on_first_draw = source.on_first_draw, None
                hook()
            self.draws.append(source.sim.now)
        source.issued += 1
        if isinstance(op, Write):
            size = source.workload.value_size
            value = f"{source.issued:0{size}d}"
            source.written.setdefault(op.key, []).append(value)
            return Write(op.key, value)
        return op


def master_objects(cluster) -> list:
    """Every master object the run has had, replaced ones included."""
    seen = {}
    for master_id, master in cluster.masters.items():
        seen[id(master)] = master
        current = cluster.master(master_id)
        seen[id(current)] = current
    return list(seen.values())


def counters(cluster, tracer: Tracer | None) -> dict:
    """The public counters the per-layer metrics are built from."""
    stats = cluster.network.stats
    out = {
        "vt": cluster.sim.now,
        "sim.events": cluster.sim.processed_events,
        "net.messages": stats.messages_sent,
        "net.bytes": stats.bytes_sent,
        "core.updates": 0, "core.fast_updates": 0, "core.reads": 0,
        "core.conflict_syncs": 0, "core.syncs": 0, "core.synced_entries": 0,
        "core.gc_rpcs": 0,
    }
    for client in cluster.clients:
        out["core.updates"] += client.completed_updates
        out["core.fast_updates"] += client.fast_path_updates
        out["core.reads"] += client.completed_reads
    for master in master_objects(cluster):
        out["core.conflict_syncs"] += master.stats.conflict_syncs
        out["core.syncs"] += master.stats.syncs
        out["core.synced_entries"] += master.stats.synced_entries
        out["core.gc_rpcs"] += master.stats.gc_rpcs
    mailbox = cluster.network.mailbox
    out["partition.envelopes"] = mailbox.exported if mailbox else 0
    if tracer is not None:
        out.update(tracer.snapshot())
    return out


def delta(end: dict, start: dict) -> dict:
    return {key: value - start.get(key, 0) for key, value in end.items()}


def history_rows(history: History, first: int, last: int, owner) -> list:
    """(kind, on_m0, invoked, completed) for records[first:last]."""
    return [(record.kind, owner(record.key) == "m0", record.invoked_at,
             record.completed_at)
            for record in history.records[first:last]]


def time_to_service(ops, probes) -> float:
    """Mean, over the ``probes`` instants, of the time from the probe to
    the first completion of an op issued at or after it.

    ``ops`` are (invoked, completed) pairs, completed None when the op
    never finished.  With one probe at a fault this is the outage a new
    request sees; over a grid of probes in healthy service it is the
    mean wait for the next arrival plus its latency.
    """
    done = sorted((invoked, completed) for invoked, completed in ops
                  if completed is not None)
    invoked = [pair[0] for pair in done]
    first = [math.inf] * (len(done) + 1)
    for i in range(len(done) - 1, -1, -1):
        first[i] = min(done[i][1], first[i + 1])
    waits = [first[bisect.bisect_left(invoked, t)] - t for t in probes]
    return sum(waits) / len(waits)


def probe_grid(start: float, end: float) -> list[float]:
    """1,000 instants over the first 90% of [start, end]: late in the
    window the next op may be issued after the loops stop."""
    step = 0.9 * (end - start) / 1_000
    return [start + i * step for i in range(1_000)]


def latency_summary(rows) -> dict:
    """Virtual latency percentiles of the completed rows, by kind."""
    recorders = {"write": LatencyRecorder(), "read": LatencyRecorder()}
    for kind, _on_m0, invoked, completed in rows:
        if completed is not None:
            recorders[kind].record(completed - invoked)
    return recorder_summary(recorders)


def recorder_summary(recorders: dict) -> dict:
    out = {}
    for kind, recorder in recorders.items():
        out[f"{kind}_n"] = recorder.count
        if recorder.count:
            out[f"{kind}_p50_us"] = recorder.percentile(50.0)
            out[f"{kind}_p99_us"] = recorder.percentile(99.0)
    return out


def check_reads(history: History, written: dict) -> tuple:
    """Every completed read returned None or a value written to its key."""
    bad = [record for record in history.records
           if record.kind == "read" and not record.is_pending
           and record.result is not None
           and record.result not in written.get(record.key, ())]
    return ("reads return written values", not bad,
            f"{len(bad)} reads returned a value never written to the key")


def accounting(offered: int, completed: int, failed: int, dropped: int,
               stranded: int, carried: int = 0) -> dict:
    """Where every measured op went.  ``carried`` ops were in flight
    when the window opened and finish (or not) inside it."""
    return {"offered": offered, "completed": completed, "failed": failed,
            "dropped": dropped, "stranded": stranded, "carried": carried,
            "failed_share": (failed + dropped + stranded) / offered}


def check_accounting(acc: dict) -> tuple:
    balance = acc["completed"] + acc["failed"] + acc["dropped"] \
        + acc["stranded"]
    ok = acc["offered"] + acc["carried"] == balance
    return ("issued == completed + failed + dropped + stranded", ok,
            f"{acc['offered']} issued (+{acc['carried']} carried in) vs "
            f"{balance} accounted")


class _Instruments:
    """The optional tracer and profiler around one serial run."""

    def __init__(self, tracer: Tracer | None, profile: bool):
        self.tracer = tracer
        self.profile = LayerProfile() if profile else None
        self.sampler = None

    def __enter__(self) -> "_Instruments":
        if self.tracer is not None:
            self.tracer.install()
        return self

    def __exit__(self, *exc) -> None:
        if self.sampler is not None:
            self.sampler.stop()
        if self.tracer is not None:
            self.tracer.uninstall()

    def open_window(self, cluster, sample: bool = True) -> dict:
        """Counters, queue-wait count and wall clock as the window opens;
        with ``sample``, progress samples start too."""
        mark = {"counts": counters(cluster, self.tracer),
                "waits": len(self.tracer.queue_waits) if self.tracer else 0,
                "wall": time.perf_counter()}
        if sample:
            sim = cluster.sim
            self.sampler = ProgressSampler(lambda: sim.now).start()
        if self.profile is not None:
            self.profile.start()
        return mark

    def close_window(self, cluster, mark: dict) -> tuple:
        """(counter deltas, wall seconds, queue waits, layer profile,
        progress samples)."""
        window_s = time.perf_counter() - mark["wall"]
        progress = self.sampler.stop() if self.sampler is not None else []
        self.sampler = None
        layers = self.profile.stop() if self.profile is not None else {}
        counts = delta(counters(cluster, self.tracer), mark["counts"])
        waits = self.tracer.queue_waits[mark["waits"]:] if self.tracer else []
        return counts, window_s, waits, layers, progress


# ----------------------------------------------------------------------
# closed_write
# ----------------------------------------------------------------------
def run_closed_write(seed: int, tracer: Tracer | None = None,
                     profile: bool = False) -> Observation:
    """Figure 6: 16 closed-loop clients writing 100 B values uniformly
    over 1M keys on one CURP (f=3) master; then a drain and an
    open-loop read-back of written keys."""
    began = time.perf_counter()
    with _Instruments(tracer, profile) as inst:
        cluster = build_cluster(curp_config(3), profile=RAMCLOUD_PROFILE,
                                seed=seed)
        source = UniqueWrites(
            YcsbWorkload(name="writes", read_fraction=0.0,
                         item_count=1_000_000, value_size=100,
                         distribution="uniform"), sim=cluster.sim)
        window = {}

        def open_window():
            window["start"] = inst.open_window(cluster)
            window["setup_s"] = window["start"]["wall"] - began

        # The loops start after the client connects; the window opens
        # where run_closed_loop ends its warmup.
        source.on_first_draw = lambda: cluster.sim.schedule_callback(
            CLOSED_WARMUP, open_window)
        result = run_closed_loop(cluster, source,
                                 n_clients=CLOSED_CLIENTS,
                                 duration=CLOSED_WINDOW,
                                 warmup=CLOSED_WARMUP)
        t0 = window["start"]["counts"]["vt"]
        t1 = cluster.sim.now
        counts, window_s, waits, layers, progress = inst.close_window(
            cluster, window["start"])
        cluster.settle()

        # A closed-loop client draws its next op the instant the last
        # one completed: each draw but a stream's first is a completion.
        ops = [(invoked, completed) for draws in source.draws
               for invoked, completed in zip(draws, draws[1:] + [None])]
        issued = source.issued
        done = sum(c.completed_updates for c in cluster.clients)
        stranded = sum(c.tracker.outstanding_count for c in cluster.clients)
        acc = accounting(issued, done, 0, 0, stranded)

        keys = sorted(source.written)
        sample = random.Random(seed).sample(keys,
                                            min(len(keys), READBACK_READS))
        history = History()
        reader = OpenLoopEngine(
            cluster,
            [TenantSpec("readback", ConstantRate(READBACK_RATE),
                        KeySetWorkload(name="readback", keys=tuple(sample),
                                       read_fraction=1.0),
                        n_clients=CLOSED_CLIENTS)],
            history=history)
        reader.run(duration=READBACK_READS / READBACK_RATE * 1e6)
        drained = reader.drain(retry_budget(cluster.config))

    reads = LatencyRecorder()
    for record in history.records:
        if not record.is_pending:
            reads.record(record.completed_at - record.invoked_at)
    latency = recorder_summary({"write": result["write_latency"],
                                "read": reads})
    single = [r for r in history.records
              if not r.is_pending and len(source.written[r.key]) == 1
              and r.result != source.written[r.key][0]]
    checks = [
        check_accounting(acc),
        ("read-back drained", drained and not any(
            r.is_pending for r in history.records), ""),
        check_reads(history, source.written),
        ("read-back sees the only write of a key", not single,
         f"{len(single)} reads missed their key's single write"),
    ]
    virtual = {
        "committed": result["operations"],
        "window_us": t1 - t0,
        "goodput_ops_s": result["operations"] / ((t1 - t0) / 1e6),
        "unavailable_ms": time_to_service(ops, probe_grid(t0, t1)) / 1e3,
        "sim.events": cluster.sim.processed_events,
        "accounting": acc,
        **latency,
    }
    return Observation(virtual=virtual, setup_s=window["setup_s"],
                       window_s=window_s, window=counts, checks=checks,
                       queue_waits=waits, layers=layers, progress=progress)


# ----------------------------------------------------------------------
# open-loop workloads on one simulator
# ----------------------------------------------------------------------
def _open_loop(cluster, engine: OpenLoopEngine, history: History,
               inst: _Instruments, began: float, warmup_end: float,
               window_end: float, owner, probes=None) -> Observation:
    """Warm up, measure from ``warmup_end`` to ``window_end`` (virtual
    µs), stop and drain.  ``unavailable_ms`` is timed from ``probes``,
    by default a grid over the window.  Latencies are timed from
    arrival: without backpressure every arrival is issued, and recorded
    in the history, at its arrival instant."""
    cluster.sim.run(until=warmup_end)
    (tenant,) = engine.tenants
    carried = tenant.in_flight
    tenant.reset()
    first = len(history)
    start = inst.open_window(cluster)
    setup_s = start["wall"] - began
    t0 = cluster.sim.now
    cluster.sim.run(until=window_end)
    engine.stop()
    results = engine.results(cluster.sim.now - t0)
    last = len(history)
    counts, window_s, waits, layers, progress = inst.close_window(
        cluster, start)
    drained = engine.drain(retry_budget(cluster.config))
    t1 = t0 + results["elapsed"]
    rows = history_rows(history, first, last, owner)
    acc = accounting(tenant.offered, tenant.completed, tenant.failed,
                     tenant.dropped, tenant.in_flight + len(tenant.queue),
                     carried)
    virtual = {
        "committed": results["completed"],
        "window_us": t1 - t0,
        "goodput_ops_s": results["goodput"],
        "unavailable_ms": time_to_service(
            [(invoked, done) for _k, on_m0, invoked, done in rows if on_m0],
            probes or probe_grid(t0, t1)) / 1e3,
        "sim.events": cluster.sim.processed_events,
        "accounting": acc,
        **latency_summary(rows),
    }
    checks = [check_accounting(acc),
              ("drain leaves nothing in flight", drained,
               f"{tenant.in_flight} ops still in flight")]
    return Observation(virtual=virtual, setup_s=setup_s, window_s=window_s,
                       window=counts, checks=checks, queue_waits=waits,
                       layers=layers, progress=progress)


def run_openloop_ycsb_a(seed: int, tracer: Tracer | None = None,
                        profile: bool = False) -> Observation:
    """YCSB-A (50/50 read/update, zipf 0.99 over 1M objects) offered as
    Poisson arrivals below saturation to 4 CURP (f=3) shards."""
    began = time.perf_counter()
    with _Instruments(tracer, profile) as inst:
        cluster = build_cluster(curp_config(3), profile=RAMCLOUD_PROFILE,
                                n_masters=YCSB_SHARDS, seed=seed)
        source = UniqueWrites(YCSB_A)
        history = History()
        engine = OpenLoopEngine(
            cluster, [TenantSpec("ycsb-a", ConstantRate(YCSB_RATE), source,
                                 n_clients=YCSB_CONNECTIONS)],
            slo=YCSB_LIMIT, history=history)
        engine.start()
        warmed = cluster.sim.now + YCSB_WARMUP
        run = _open_loop(cluster, engine, history, inst, began, warmed,
                         warmed + YCSB_WINDOW,
                         cluster.shard_map.master_for_key)
    run.checks.append(check_reads(history, source.written))
    return run


def run_kill_master(seed: int, tracer: Tracer | None = None,
                    profile: bool = False) -> Observation:
    """4 shards with durable backups; the watchdog holds standbys, and
    m0's host dies for good at KILL_AT under a 50/50 open-loop mix."""
    began = time.perf_counter()
    with _Instruments(tracer, profile) as inst:
        cluster = build_cluster(
            curp_config(3, storage=StorageProfile(enabled=True)),
            profile=RAMCLOUD_PROFILE, n_masters=KILL_SHARDS, seed=seed)
        detector = FailureDetector(
            cluster.coordinator, [cluster.add_host("standby-m", "master")],
            witness_standbys=[cluster.add_host("standby-w", "witness")],
            backup_standbys=[cluster.add_host("standby-b", "backup")],
            **WATCHDOG)
        detector.start()
        victim = cluster.coordinator.masters["m0"].host
        injector = cluster.inject_faults(FaultPlan(
            events=(HostFlap(host=victim, start=KILL_AT),), seed=seed))
        # The shard map is rebuilt on change: this one is m0's as built.
        owner = cluster.shard_map.master_for_key
        source = UniqueWrites(KILL_MIX)
        history = History()
        engine = OpenLoopEngine(
            cluster, [TenantSpec("mix", ConstantRate(KILL_RATE), source,
                                 n_clients=KILL_CONNECTIONS)],
            slo=KILL_LIMIT, history=history)
        engine.start()
        run = _open_loop(cluster, engine, history, inst, began,
                         KILL_WARMUP, KILL_END, owner, probes=[KILL_AT])
        detector.stop()
        injector.heal_all()

    detected = [t for t, kind, target in detector.detections
                if kind == "master" and target == "m0"]
    repaired = [t for t, kind, target in detector.repairs
                if kind == "master" and target == "m0"]
    run.virtual.update({
        "recoveries": detector.recoveries_completed,
        "detect_ms": (detected[0] - KILL_AT) / 1e3 if detected else None,
        "recover_ms": ((repaired[0] - detected[0]) / 1e3
                       if detected and repaired else None),
    })
    try:
        check_linearizable(history)
        verdict = ("history is linearizable", True, f"{len(history)} ops")
    except LinearizabilityError as error:
        verdict = ("history is linearizable", False, str(error)[:500])
    except CheckerLimitExceeded as error:
        verdict = ("history is linearizable", False,
                   f"inconclusive, not a pass: {error}")
    run.checks += [
        verdict,
        check_reads(history, source.written),
        ("m0 recovered exactly once", detector.recoveries_completed == 1,
         f"{detector.recoveries_completed} recoveries"),
    ]
    return run


# ----------------------------------------------------------------------
# pdes_p2
# ----------------------------------------------------------------------
class PdesDriver:
    """One partition of pdes_p2: the repo's open-loop partition driver
    plus a history, the public counters and the optional instruments,
    all read inside the worker and returned as plain data."""

    def __init__(self, inner, tracer: Tracer | None, profile: bool):
        self.inner = inner
        self.sim = inner.sim
        self.network = inner.network
        self.cluster = inner.cluster
        self.engine = inner.engine
        self.history = History()
        self.engine.history = self.history
        self.engine.slo = PDES_LIMIT
        self.inst = _Instruments(tracer, profile)
        self.owner = self.cluster.shard_map.master_for_key

    def start(self) -> int:
        return self.inner.start()

    def open_window(self) -> None:
        """Reset the engine counters and mark the window's start."""
        self.carried = sum(t.in_flight for t in self.engine.tenants)
        self.inner.reset()
        self.first = len(self.history)
        self.t0 = self.sim.now
        self.mark = self.inst.open_window(self.cluster, sample=False)

    def close_window(self) -> dict:
        self.inner.stop()
        self.last = len(self.history)
        counts, _wall, waits, layers, _progress = self.inst.close_window(
            self.cluster, self.mark)
        return {"results": self.engine.results(self.sim.now - self.t0),
                "counts": counts, "waits": waits, "layers": layers}

    def report(self) -> dict:
        """After the drain: where every op went, and the window's ops."""
        tenants = self.engine.tenants
        acc = accounting(
            sum(t.offered for t in tenants),
            sum(t.completed for t in tenants),
            sum(t.failed for t in tenants),
            sum(t.dropped for t in tenants),
            sum(t.in_flight + len(t.queue) for t in tenants),
            self.carried)
        return {"accounting": acc, "events": self.sim.processed_events,
                "rows": history_rows(self.history, self.first, self.last,
                                     self.owner)}


def pdes_partition(partition_id: int, n_partitions: int,
                   args: dict) -> PdesDriver:
    """``PartitionedSimulation`` setup: runs inside each worker, so the
    tracer and profiler are installed where the partition executes."""
    args = dict(args)
    tracer = Tracer().install() if args.pop("trace") else None
    profile = args.pop("cprofile")
    inner = build_openloop_partition(partition_id, n_partitions, args)
    return PdesDriver(inner, tracer, profile)


def run_pdes_p2(seed: int, tracer: Tracer | None = None,
                profile: bool = False) -> Observation:
    """The 4-shard cross-partition open loop at P=2 on the process
    backend, stopped and then drained past every client's retry budget,
    so ops still in flight will never finish."""
    began = time.perf_counter()
    args = dict(PDES_ARGS, seed=seed, trace=tracer is not None,
                cprofile=profile)
    runner_profile = LayerProfile() if profile else None
    with PartitionedSimulation(pdes_partition, PDES_PARTITIONS,
                               setup_args=args, backend="process") as psim:
        psim.call("start")
        psim.advance(psim.now + PDES_WARMUP)
        psim.call("open_window")
        before = psim.scaling_stats()
        t0 = psim.now
        wall = time.perf_counter()
        setup_s = wall - began
        if runner_profile is not None:
            runner_profile.start()
        sampler = ProgressSampler(lambda: psim.now).start()
        try:
            psim.advance(t0 + PDES_WINDOW)
        finally:
            progress = sampler.stop()
        if runner_profile is not None:
            runner_layers = runner_profile.stop()
        window_s = time.perf_counter() - wall
        after = psim.scaling_stats()
        closed = psim.call("close_window")
        psim.advance(psim.now + retry_budget(CurpConfig()))
        reports = psim.call("report")

    counts: dict = {}
    for part in closed:
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
    counts["vt"] = PDES_WINDOW
    busy = [b - a for a, b in zip(before["busy"], after["busy"])]
    counts["partition.windows"] = after["windows"] - before["windows"]
    counts["partition.critical_path_share"] = max(busy) / sum(busy)
    acc = accounting(*(sum(r["accounting"][key] for r in reports)
                       for key in ("offered", "completed", "failed",
                                   "dropped", "stranded", "carried")))
    rows = [row for report in reports for row in report["rows"]]
    committed = sum(part["results"]["completed"] for part in closed)
    good = sum(part["results"]["goodput"] for part in closed)
    t1 = t0 + PDES_WINDOW
    virtual = {
        "committed": committed,
        "window_us": PDES_WINDOW,
        "goodput_ops_s": good,
        "unavailable_ms": time_to_service(
            [(invoked, done) for _k, on_m0, invoked, done in rows if on_m0],
            probe_grid(t0, t1)) / 1e3,
        "sim.events": [report["events"] for report in reports],
        "accounting": acc,
        **latency_summary(rows),
    }
    layers = {}
    if profile:
        layers = merge_layers([runner_layers]
                              + [part["layers"] for part in closed])
    return Observation(
        virtual=virtual, setup_s=setup_s, window_s=window_s, window=counts,
        checks=[check_accounting(acc)],
        queue_waits=[w for part in closed for w in part["waits"]],
        layers=layers, progress=progress)


WORKLOADS = {
    "closed_write": run_closed_write,
    "openloop_ycsb_a": run_openloop_ycsb_a,
    "kill_master": run_kill_master,
    "pdes_p2": run_pdes_p2,
}
