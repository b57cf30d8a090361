"""Workload drivers shaped for partitioned (PDES) simulation.

A :class:`~repro.sim.partition.PartitionedSimulation` driver cannot
call ``sim.run`` across phase boundaries itself — the runner owns the
clock and all partitions must cross each barrier together.  The driver
here therefore splits the usual "run a workload" call into barrier-
synchronous steps (``start`` / ``reset`` / ``stop`` / ``results``)
invoked via ``PartitionedSimulation.call``, with the runner's
``advance`` doing all time-keeping in between.

:func:`build_openloop_partition` is the module-level setup entry point
(picklable, so the process backend can ship it):
it builds this partition's cluster slice and returns an
:class:`OpenLoopPartitionDriver` driving Poisson open-loop tenants —
one per *local* shard, keys pinned to that shard, with an optional
``remote_fraction`` of keys owned by other partitions' shards to
exercise the cross-partition mailbox.  Run with ``n_partitions == 1``
the same function builds the whole cluster and drives every shard from
one simulator — the serial baseline the scaling bench compares
against, running literally the same workload code.
"""

from __future__ import annotations

import hashlib
import typing

from repro.core.config import CurpConfig
from repro.harness.builder import Cluster, build_partitioned_cluster
from repro.harness.profiles import TEST_PROFILE
from repro.workload.openloop import (
    ConstantRate,
    KeySetWorkload,
    OpenLoopEngine,
    TenantSpec,
)


def keys_for_master(cluster: "Cluster", master_id: str,
                    count: int) -> list[str]:
    """Deterministic keys that hash into ``master_id``'s tablets.

    Probes ``{master_id}:key{i}`` for i = 0, 1, ... against the
    coordinator's shard map (which covers the whole keyspace even on a
    partition slice), keeping the first ``count`` hits — every caller
    with the same map gets the same keys.
    """
    keys: list[str] = []
    i = 0
    while len(keys) < count:
        candidate = f"{master_id}:key{i}"
        if cluster.shard_for(candidate) == master_id:
            keys.append(candidate)
        i += 1
        if i > 1_000_000:  # pragma: no cover - degenerate shard map
            raise RuntimeError(f"could not find {count} keys for "
                               f"{master_id}")
    return keys


class OpenLoopPartitionDriver:
    """One partition's open-loop workload, driven at barriers.

    Exposes the ``sim`` / ``network`` attributes the partition runner
    requires, plus barrier-callable phases.  Every method argument and
    return value is picklable.
    """

    def __init__(self, cluster: "Cluster", rate_per_shard: float,
                 n_clients: int = 4, keys_per_shard: int = 32,
                 read_fraction: float = 0.5, value_size: int = 100,
                 remote_fraction: float = 0.0, max_window: int = 64):
        if not 0.0 <= remote_fraction <= 0.9:
            raise ValueError(f"remote_fraction must be in [0, 0.9]: "
                             f"{remote_fraction}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        local_ids = sorted(cluster.masters, key=lambda m: int(m[1:]))
        all_ids = sorted(cluster.coordinator.masters,
                         key=lambda m: int(m[1:]))
        tenants = []
        for master_id in local_ids:
            keys = keys_for_master(cluster, master_id, keys_per_shard)
            if remote_fraction > 0.0 and len(all_ids) > 1:
                # Mix in keys owned by every *other* shard (local or
                # remote partition alike) so the tenant's traffic
                # crosses shards at the requested rate.
                others = [m for m in all_ids if m != master_id]
                n_remote = max(len(others), round(
                    keys_per_shard * remote_fraction
                    / max(1.0 - remote_fraction, 1e-9)))
                per_other = max(1, n_remote // len(others))
                for other in others:
                    keys.extend(keys_for_master(cluster, other, per_other))
            tenants.append(TenantSpec(
                name=f"shard-{master_id}",
                schedule=ConstantRate(rate_per_shard),
                workload=KeySetWorkload(
                    name=f"keys-{master_id}", keys=tuple(keys),
                    read_fraction=read_fraction, value_size=value_size),
                n_clients=n_clients))
        self.engine = OpenLoopEngine(cluster, tenants,
                                     max_window=max_window)

    # ------------------------------------------------------------------
    # barrier-callable phases
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Connect client pools and start the arrival loops; returns
        the number of clients created.  Advances the local clock by the
        connect RPCs (local-coordinator traffic only) — the runner
        starts its next window from the earliest partition clock."""
        self.engine.start()
        return sum(len(t.clients) for t in self.engine.tenants)

    def reset(self) -> None:
        """Zero the measurement counters (end-of-warmup barrier)."""
        for tenant in self.engine.tenants:
            tenant.reset()

    def stop(self) -> None:
        self.engine.stop()

    def results(self, elapsed: float) -> dict:
        """The engine's aggregate results over ``elapsed`` µs, plus
        this partition's cross-partition traffic counters."""
        results = self.engine.results(elapsed)
        mailbox = self.network.mailbox
        results["partition"] = {
            "partition_id": self.cluster.partition_id,
            "exported": mailbox.exported if mailbox else 0,
            "imported": mailbox.imported if mailbox else 0,
            "events": self.sim.processed_events,
        }
        return results

    def digest(self) -> dict:
        """Stable end-state digest of every local master's store —
        the determinism tests' equality witness."""
        digests = {}
        for master_id in sorted(self.cluster.masters):
            master = self.cluster.master(master_id)
            hasher = hashlib.sha256()
            for key in sorted(master.store._objects):
                obj = master.store._objects[key]
                hasher.update(
                    f"{key}={obj.value!r}@{obj.version}".encode())
            digests[master_id] = {
                "keys": len(master.store._objects),
                "sha256": hasher.hexdigest(),
                "log_end": master.store.log.end,
            }
        return digests


def build_openloop_partition(partition_id: int, n_partitions: int,
                             args: dict | None) -> OpenLoopPartitionDriver:
    """Setup entry point for :class:`PartitionedSimulation`.

    ``args`` keys (all optional): ``n_masters``, ``seed``, ``profile``,
    ``config_kwargs`` (forwarded to :class:`CurpConfig`), plus the
    :class:`OpenLoopPartitionDriver` workload knobs (``rate_per_shard``
    etc.).
    """
    args = dict(args or {})
    config = CurpConfig(**args.pop("config_kwargs", {}))
    cluster = build_partitioned_cluster(
        partition_id, n_partitions,
        config=config,
        profile=args.pop("profile", TEST_PROFILE),
        n_masters=args.pop("n_masters", n_partitions),
        seed=args.pop("seed", 0))
    return OpenLoopPartitionDriver(cluster, **args)
