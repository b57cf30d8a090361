"""Conservative parallel discrete-event simulation (PDES) by partition.

Every optimization before this one made the single event loop faster;
this layer runs *several* event loops at once.  The cluster is split
into partitions (one shard — a master plus its witnesses and backups —
per partition, clients routed to the partition of the shard they
drive), each partition owns a full :class:`~repro.sim.simulator.
Simulator` + :class:`~repro.net.network.Network`, and the partitions
synchronize only at conservative-window barriers:

- **lookahead** ``L`` is a lower bound on the wire latency of any
  cross-partition message.  Within a window ``[T, T+L)`` no partition
  can affect another before ``T+L``, so all partitions run the window
  concurrently with no communication at all.
- at the **barrier** each partition drains its cross-partition
  :class:`~repro.net.mailbox.CrossPartitionMailbox` outbox; the runner
  routes the latency-stamped envelopes and the receivers schedule them
  into their own heaps (always in their future — enforced by
  :class:`~repro.net.mailbox.LookaheadViolation`).

This is classic null-message-free conservative PDES (Chandy–Misra with
a global window barrier), shaped to this codebase: the end-of-instant
frame-coalescing boundary already forces sends to quiesce before time
advances, so a window edge is indistinguishable from any other instant
boundary to protocol code.

Backends
--------
``inline``
    every partition in the calling process/thread.  No parallelism —
    this is the determinism-test and debugging backend, and the
    semantics reference for ``process``.
``process``
    the default: one ``multiprocessing`` worker per partition (fork
    where available, spawn otherwise).  Partition state is *built
    inside* the worker by the picklable ``setup`` callable, so nothing
    but commands and envelopes ever crosses the pipe.

Determinism: each partition's simulator owns its rng and its heap, the
mailbox applies imports in a total order, and windows are fixed by
``(lookahead, until)`` — so a fixed seed and partition count reproduce
bit-identical results on any backend.  With one partition no window
chopping happens at all (the lookahead is infinite), which is what
keeps the serial golden traces byte-identical.

The driver contract: ``setup(partition_id, n_partitions, setup_args)``
returns any object with ``sim`` and ``network`` attributes; extra
methods on it (start workloads, snapshot counters, collect results)
are invoked at barriers via :meth:`PartitionedSimulation.call` and
must take/return picklable values for the process backend.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
import typing


class PartitionError(RuntimeError):
    """A partition worker raised; carries the remote traceback."""


# ----------------------------------------------------------------------
# the per-partition serve loop (the process backend's worker side)
# ----------------------------------------------------------------------
def _serve(recv: typing.Callable[[], typing.Any],
           send: typing.Callable[[typing.Any], None]) -> None:
    """Run one partition behind a (recv, send) message pair.

    First message must be ``("init", setup, partition_id, n_partitions,
    setup_args)``; afterwards the loop answers ``advance`` / ``call`` /
    ``stop`` commands until told to exit.  Busy time is accumulated
    with ``time.process_time`` — CPU seconds actually spent inside
    this partition, the honest numerator for scaling measurements on
    oversubscribed machines.
    """
    driver = None
    mailbox = None
    sim = None
    busy = 0.0
    while True:
        try:
            command = recv()
        except EOFError:
            return
        op = command[0]
        try:
            if op == "init":
                _, setup, partition_id, n_partitions, setup_args = command
                t0 = time.process_time()
                driver = setup(partition_id, n_partitions, setup_args)
                busy += time.process_time() - t0
                sim = driver.sim
                mailbox = driver.network.mailbox
                min_latency = driver.network.latency.min_latency()
                send(("ready", min_latency, busy, sim.now))
            elif op == "advance":
                _, window_end, imports = command
                t0 = time.process_time()
                if imports:
                    mailbox.apply(imports)
                # A partition whose clock ran past the window's end (a
                # driver call did local RPC work) sits the window out.
                if window_end > sim.now:
                    sim.run(until=window_end)
                busy += time.process_time() - t0
                send(("ok", None, _drain(mailbox), busy, sim.now))
            elif op == "call":
                _, name, args, kwargs = command
                t0 = time.process_time()
                result = getattr(driver, name)(*args, **kwargs)
                busy += time.process_time() - t0
                send(("ok", result, _drain(mailbox), busy, sim.now))
            elif op == "stop":
                send(("bye", busy))
                return
            else:  # pragma: no cover - protocol bug
                raise ValueError(f"unknown partition command: {op!r}")
        except Exception:
            send(("err", traceback.format_exc()))
            if op == "init":
                return


def _drain(mailbox) -> list:
    """Outbox → routed ``(dst_partition, envelope)`` pairs."""
    if mailbox is None:
        return []
    route = mailbox.route
    return [(route(env.dst), env) for env in mailbox.collect()]


# ----------------------------------------------------------------------
# backend: inline (reference semantics, used by determinism tests)
# ----------------------------------------------------------------------
class _InlinePartition:
    def __init__(self, setup, partition_id: int, n_partitions: int,
                 setup_args):
        t0 = time.process_time()
        self.driver = setup(partition_id, n_partitions, setup_args)
        self.busy = time.process_time() - t0
        self.sim = self.driver.sim
        self.mailbox = self.driver.network.mailbox
        self.min_latency = self.driver.network.latency.min_latency()

    @property
    def clock(self) -> float:
        return self.sim.now

    def advance(self, window_end: float, imports: list) -> list:
        t0 = time.process_time()
        if imports:
            self.mailbox.apply(imports)
        if window_end > self.sim.now:
            self.sim.run(until=window_end)
        self.busy += time.process_time() - t0
        return _drain(self.mailbox)

    def call(self, name: str, args, kwargs):
        t0 = time.process_time()
        result = getattr(self.driver, name)(*args, **kwargs)
        self.busy += time.process_time() - t0
        return result, _drain(self.mailbox)

    def stop(self) -> None:
        pass


# ----------------------------------------------------------------------
# backend: multiprocessing
# ----------------------------------------------------------------------
def _process_worker(conn) -> None:
    try:
        _serve(conn.recv, conn.send)
    finally:
        conn.close()


class _ProcessPartition:
    """Half-duplex command channel to one worker process.

    ``post`` / ``wait`` are split so the runner can issue a window to
    every partition before collecting any reply — that concurrency *is*
    the speedup.
    """

    def __init__(self, ctx, setup, partition_id: int, n_partitions: int,
                 setup_args):
        self.conn, child = multiprocessing.Pipe()
        self.proc = ctx.Process(target=_process_worker, args=(child,),
                                daemon=True,
                                name=f"sim-partition-{partition_id}")
        self.proc.start()
        child.close()
        self.busy = 0.0
        self.partition_id = partition_id
        self.conn.send(("init", setup, partition_id, n_partitions,
                        setup_args))
        reply = self._recv()
        self.min_latency = reply[1]
        self.busy = reply[2]
        self.clock = reply[3]

    def _recv(self):
        reply = self.conn.recv()
        if reply[0] == "err":
            raise PartitionError(
                f"partition {self.partition_id} worker failed:\n{reply[1]}")
        return reply

    def post_advance(self, window_end: float, imports: list) -> None:
        self.conn.send(("advance", window_end, imports))

    def post_call(self, name: str, args, kwargs) -> None:
        self.conn.send(("call", name, args, kwargs))

    def wait(self):
        """Collect one (result, exports) reply; updates busy/clock."""
        reply = self._recv()
        _tag, result, exports, self.busy, self.clock = reply
        return result, exports

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
            reply = self.conn.recv()
            if reply[0] == "bye":
                self.busy = reply[1]
        except (BrokenPipeError, EOFError, OSError):
            pass
        finally:
            self.conn.close()
            self.proc.join(timeout=5.0)
            if self.proc.is_alive():  # pragma: no cover - hung worker
                self.proc.terminate()
                self.proc.join(timeout=5.0)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class PartitionedSimulation:
    """Drive ``n_partitions`` simulators in conservative lockstep.

    Parameters
    ----------
    setup:
        picklable callable ``setup(partition_id, n_partitions,
        setup_args) -> driver`` where the driver exposes ``sim`` and
        ``network`` attributes (a :class:`~repro.harness.builder.
        Cluster` qualifies).  Runs once per partition, *inside* the
        worker for the process backend.
    lookahead:
        conservative window length in µs.  ``None`` derives the bound
        from the latency models (min over partitions of
        ``LatencyModel.min_latency()``); pass an explicit value when
        cross-partition links are provably slower than the model-wide
        minimum — the mailbox's :class:`~repro.net.mailbox.
        LookaheadViolation` check still catches an overclaim.  With a
        single partition the lookahead is infinite and ``advance``
        degenerates to one plain ``sim.run`` per call, which is what
        keeps serial golden traces byte-identical.
    backend:
        ``"inline"`` or ``"process"``.
    """

    def __init__(self, setup, n_partitions: int, *,
                 setup_args: typing.Any = None,
                 lookahead: float | None = None,
                 backend: str = "process"):
        if n_partitions < 1:
            raise ValueError(f"n_partitions must be >= 1: {n_partitions}")
        if backend not in ("inline", "process"):
            raise ValueError(f"unknown backend: {backend!r}")
        self.n_partitions = n_partitions
        self.backend = backend
        self.now = 0.0
        self.windows = 0
        self._closed = False
        self._pending: list[list] = [[] for _ in range(n_partitions)]
        if backend == "inline":
            self._parts: list = [
                _InlinePartition(setup, pid, n_partitions, setup_args)
                for pid in range(n_partitions)]
        else:
            ctx = self._mp_context()
            self._parts = [
                _ProcessPartition(ctx, setup, pid, n_partitions, setup_args)
                for pid in range(n_partitions)]
        # Setup may do local RPC work (client connects) that advances a
        # partition's clock; ``now`` is the latest clock, and windows
        # start from the earliest (see advance).
        self.now = max(part.clock for part in self._parts)
        if n_partitions == 1:
            self.lookahead = math.inf
        elif lookahead is not None:
            if lookahead <= 0:
                raise ValueError(f"lookahead must be positive: {lookahead}")
            self.lookahead = float(lookahead)
        else:
            derived = min(part.min_latency for part in self._parts)
            if derived <= 0:
                raise ValueError(
                    "latency models admit zero-latency messages, so no "
                    "conservative lookahead can be derived; give the "
                    "cross-partition links a positive floor (e.g. "
                    "Shifted) or pass lookahead= explicitly")
            self.lookahead = derived

    @staticmethod
    def _mp_context():
        # fork is cheapest and fully deterministic here (workers build
        # their own state, inheriting only module code); fall back to
        # spawn on platforms without it.
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - e.g. Windows
            return multiprocessing.get_context("spawn")

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def advance(self, until: float) -> None:
        """Run every partition to virtual time ``until``.

        Chops the interval up to ``until`` into lookahead-sized windows
        with a barrier (outbox exchange) between each.  Each window ends
        one lookahead after the *earliest* partition clock: that
        partition may send at its own clock, and its message must not
        land in a receiver's past.  A driver call can leave the clocks
        apart, and a partition already past a window's end sits that
        window out.  After the last window any envelope due exactly at
        ``until`` is delivered too, so a phase boundary observes the
        same state a serial run would.
        """
        until = float(until)
        if until < self.now:
            raise ValueError(f"until={until} is in the past ({self.now})")
        while True:
            earliest = min(part.clock for part in self._parts)
            if earliest >= until:
                break
            self._exchange(min(earliest + self.lookahead, until))
        self.now = until
        while any(env.deliver_at <= until
                  for pending in self._pending for env in pending):
            self._exchange(until)

    def _exchange(self, window_end: float) -> None:
        """One window: post imports + the deadline to every partition
        (they run concurrently), then collect and route exports."""
        imports, self._pending = (self._pending,
                                  [[] for _ in range(self.n_partitions)])
        parts = self._parts
        if self.backend == "inline":
            routed = [part.advance(window_end, imports[pid])
                      for pid, part in enumerate(parts)]
        else:
            for pid, part in enumerate(parts):
                part.post_advance(window_end, imports[pid])
            routed = [part.wait()[1] for part in parts]
        for exports in routed:
            for dst_pid, env in exports:
                self._pending[dst_pid].append(env)
        self.windows += 1

    # ------------------------------------------------------------------
    # driver methods (barrier-synchronous RPC into the partitions)
    # ------------------------------------------------------------------
    def call(self, name: str, *args, **kwargs) -> list:
        """Invoke ``driver.<name>(*args, **kwargs)`` on every partition
        (concurrently for worker backends); returns per-partition
        results.  Only valid at a barrier — which is always, from the
        caller's point of view: ``advance`` never returns mid-window.
        """
        parts = self._parts
        if self.backend == "inline":
            replies = [part.call(name, args, kwargs) for part in parts]
        else:
            for part in parts:
                part.post_call(name, args, kwargs)
            replies = [part.wait() for part in parts]
        results = []
        for result, exports in replies:
            results.append(result)
            for dst_pid, env in exports:
                self._pending[dst_pid].append(env)
        self.now = max(self.now, max(part.clock for part in parts))
        return results

    def call_on(self, partition_id: int, name: str, *args, **kwargs):
        """Invoke a driver method on a single partition."""
        part = self._parts[partition_id]
        if self.backend == "inline":
            result, exports = part.call(name, args, kwargs)
        else:
            part.post_call(name, args, kwargs)
            result, exports = part.wait()
        for dst_pid, env in exports:
            self._pending[dst_pid].append(env)
        self.now = max(self.now, part.clock)
        return result

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------
    def scaling_stats(self) -> dict:
        """Per-partition busy CPU seconds and the critical path.

        ``critical_path`` (the slowest partition's busy time) is the
        wall-clock floor on a machine with >= n_partitions idle cores;
        ``total_busy / critical_path`` is the parallel speedup the
        partitioning itself makes available, independent of how many
        cores the measuring machine happens to have.
        """
        busy = [part.busy for part in self._parts]
        critical = max(busy) if busy else 0.0
        return {
            "busy": busy,
            "total_busy": sum(busy),
            "critical_path": critical,
            "windows": self.windows,
            "lookahead": self.lookahead,
            "backend": self.backend,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for part in self._parts:
            part.stop()

    def __enter__(self) -> "PartitionedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
