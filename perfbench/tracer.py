"""Per-layer instrumentation for the traced run, kept outside ``src/``.

:class:`Tracer` wraps public functions of each layer at class level and
counts what passes through them: calls, outcomes and virtual-time
waits.  The wrappers only read arguments and return values, so the
simulation is unchanged: same events, same rng draws, same virtual
results.  Install it *before* the cluster is built, because some hot
paths bind methods once at construction (``LatencyModel`` keeps a bound
``sample``).

:class:`LayerProfile` runs ``cProfile`` over the measured window and
groups self time and Python calls by package under ``src/repro/``.
"""

from __future__ import annotations

import collections
import cProfile
import functools
import os
import sysconfig
import time

from repro.core.witness_cache import WitnessCache
from repro.kvstore.store import KVStore
from repro.kvstore.wal import SegmentedWal, VirtualDisk
from repro.rifl.result_registry import DuplicateState, ResultRegistry
from repro.rpc.errors import RpcTimeout
from repro.rpc.transport import RpcTransport
from repro.sim.distributions import Distribution
from repro.sim.resources import Resource

#: client RPCs that are one attempt at a data operation on a master
MASTER_ATTEMPTS = frozenset({"update", "read"})

#: layers reported by the profile, in report order
PROFILE_LAYERS = ("sim", "partition", "net", "rpc", "core", "kvstore",
                  "rifl", "cluster", "workload", "stdlib")


def _all_subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


class Tracer:
    """Counters at the public boundaries of sim, rpc, core, kvstore,
    rifl and cluster.  ``snapshot()`` returns plain picklable data, so a
    partition worker can ship it back to the runner."""

    def __init__(self) -> None:
        self.counts: collections.Counter = collections.Counter()
        #: virtual µs from ``Resource.request`` to the grant, master
        #: worker pools only (immediate grants count as 0)
        self.queue_waits: list[float] = []
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _patch(self, owner: type, name: str, make) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def install(self) -> "Tracer":
        counts = self.counts
        waits = self.queue_waits

        depth = [0]

        def sample(original):
            # Shifted.sample calls its inner distribution: count the
            # outermost draw only, one per latency or cost sample.
            def wrapper(dist, rng):
                if not depth[0]:
                    counts["sim.samples"] += 1
                depth[0] += 1
                try:
                    return original(dist, rng)
                finally:
                    depth[0] -= 1
            return wrapper

        for cls in _all_subclasses(Distribution):
            if "sample" in cls.__dict__:
                self._patch(cls, "sample", sample)

        def request(original):
            def wrapper(resource):
                grant = original(resource)
                if resource.name.endswith("-workers"):
                    if grant.triggered:
                        waits.append(0.0)
                    else:
                        sim = resource.sim
                        asked = sim.now
                        grant.add_callback(
                            lambda _event: waits.append(sim.now - asked))
                return grant
            return wrapper

        def try_acquire(original):
            def wrapper(resource):
                granted = original(resource)
                # A refusal falls back to request(), which records it.
                if granted and resource.name.endswith("-workers"):
                    waits.append(0.0)
                return granted
            return wrapper

        self._patch(Resource, "request", request)
        self._patch(Resource, "try_acquire", try_acquire)

        def rpc_call(original):
            def wrapper(transport, dst, method, *args, **kwargs):
                counts["rpc.calls"] += 1
                if method in MASTER_ATTEMPTS:
                    counts["core.master_attempts"] += 1
                return original(transport, dst, method, *args, **kwargs)
            return wrapper

        self._patch(RpcTransport, "call", rpc_call)
        self._patch(RpcTransport, "call_cb", rpc_call)

        def register(original):
            def wrapper(transport, method, handler):
                if method == "get_config":
                    inner = handler

                    def handler(args, ctx):
                        counts["cluster.config_fetches"] += 1
                        return inner(args, ctx)
                return original(transport, method, handler)
            return wrapper

        self._patch(RpcTransport, "register", register)

        def timeout_init(original):
            def wrapper(error, *args, **kwargs):
                counts["rpc.timeouts"] += 1
                return original(error, *args, **kwargs)
            return wrapper

        self._patch(RpcTimeout, "__init__", timeout_init)

        def witness_record(original):
            def wrapper(cache, *args, **kwargs):
                accepted = original(cache, *args, **kwargs)
                counts["core.witness_records"] += 1
                if accepted:
                    counts["core.witness_accepts"] += 1
                return accepted
            return wrapper

        self._patch(WitnessCache, "record", witness_record)

        def counting(key):
            def make(original):
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return original(*args, **kwargs)
                return wrapper
            return make

        self._patch(KVStore, "execute", counting("kvstore.executes"))
        self._patch(SegmentedWal, "append", counting("kvstore.wal_appends"))

        def disk_charge(original):
            def wrapper(disk, cost):
                before = disk.busy_time
                delay = original(disk, cost)
                counts["kvstore.disk_busy_us"] += disk.busy_time - before
                return delay
            return wrapper

        self._patch(VirtualDisk, "charge", disk_charge)

        def registry_check(original):
            def wrapper(registry, rpc_id):
                state, result = original(registry, rpc_id)
                counts["rifl.checks"] += 1
                if state is DuplicateState.COMPLETED:
                    counts["rifl.duplicates"] += 1
                elif state is DuplicateState.STALE:
                    counts["rifl.stale"] += 1
                return state, result
            return wrapper

        self._patch(ResultRegistry, "check", registry_check)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        state = dict(self.counts)
        state["core.queue_waits"] = len(self.queue_waits)
        return state


def _layer_of(code, stdlib: str) -> str:
    """Which layer a profiled function belongs to."""
    if isinstance(code, str):  # a builtin: "<built-in method ...>"
        return "stdlib"
    path = code.co_filename
    marker = os.sep + os.path.join("src", "repro") + os.sep
    at = path.find(marker)
    if at >= 0:
        rest = path[at + len(marker):]
        if rest in (os.path.join("sim", "partition.py"),
                    os.path.join("net", "mailbox.py")):
            return "partition"
        return rest.split(os.sep, 1)[0]
    if path.startswith(stdlib) and "site-packages" not in path:
        return "stdlib"
    return "other"


class LayerProfile:
    """cProfile over a window, summed by layer as (calls, self seconds).

    Timed in process CPU seconds, so a PDES worker or runner blocked on
    its pipe between windows adds nothing."""

    def __init__(self) -> None:
        self._profiler = cProfile.Profile(time.process_time)

    def start(self) -> None:
        self._profiler.enable()

    def stop(self) -> dict[str, list[float]]:
        self._profiler.disable()
        stdlib = sysconfig.get_paths()["stdlib"]
        layers: dict[str, list[float]] = {}
        for entry in self._profiler.getstats():
            totals = layers.setdefault(_layer_of(entry.code, stdlib),
                                       [0, 0.0])
            totals[0] += entry.callcount
            totals[1] += entry.inlinetime
        return layers


def merge_layers(parts) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    for part in parts:
        for layer, (calls, seconds) in part.items():
            totals = merged.setdefault(layer, [0, 0.0])
            totals[0] += calls
            totals[1] += seconds
    return merged
