"""Partitioned simulation (ISSUE 9): mailbox, runner, builder, and
cross-partition protocol traffic.

The golden byte-identity and two-run digest-equality tests live in
``test_scheduler_determinism.py`` next to the pins they defend; this
file covers the machinery itself.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import curp_config
from repro.core.config import CurpConfig
from repro.harness.builder import (
    build_cluster,
    build_partitioned_cluster,
    partition_masters,
)
from repro.harness.profiles import RAMCLOUD_PROFILE
from repro.kvstore.operations import Write
from repro.net.latency import LatencyModel
from repro.net.mailbox import CrossPartitionMailbox, LookaheadViolation
from repro.net.network import Network
from repro.sim.distributions import (
    Exponential,
    Fixed,
    LogNormal,
    Shifted,
    Uniform,
)
from repro.sim.partition import PartitionedSimulation
from repro.sim.simulator import Simulator
from repro.workload.partitioned import (
    build_openloop_partition,
    keys_for_master,
)


# ----------------------------------------------------------------------
# lookahead derivation
# ----------------------------------------------------------------------
def test_distribution_lower_bounds():
    assert Fixed(3.5).lower_bound() == 3.5
    assert Uniform(1.0, 9.0).lower_bound() == 1.0
    assert Exponential(5.0).lower_bound() == 0.0
    assert LogNormal(median=2.0, sigma=0.3).lower_bound() == 0.0
    assert LogNormal(median=2.0, sigma=0.0).lower_bound() == 2.0
    assert Shifted(1.18, LogNormal(1.05, 0.18)).lower_bound() == 1.18


def test_latency_model_min_latency_includes_overrides():
    model = LatencyModel(Fixed(5.0))
    assert model.min_latency() == 5.0
    model.set_pair("a", "b", Uniform(2.0, 4.0))
    assert model.min_latency() == 2.0
    model.set_pair("a", "c", Exponential(9.0))
    assert model.min_latency() == 0.0


# ----------------------------------------------------------------------
# mailbox semantics
# ----------------------------------------------------------------------
def _bare_network(seed: int = 1) -> Network:
    return Network(Simulator(seed=seed), latency=LatencyModel(Fixed(2.0)))


def test_mailbox_registration_guards():
    network = _bare_network()
    network.add_host("local")
    mailbox = CrossPartitionMailbox(network, 0)
    with pytest.raises(ValueError):
        mailbox.register_remote("local", 1)  # exists locally
    with pytest.raises(ValueError):
        mailbox.register_remote("elsewhere", 0)  # own partition
    with pytest.raises(ValueError):
        mailbox.register_remote_prefix("p0-", 0)
    mailbox.register_remote("elsewhere", 1)
    mailbox.register_remote_prefix("p2-", 2)
    assert mailbox.route("elsewhere") == 1
    assert mailbox.route("p2-client9") == 2
    assert mailbox.route("p2-client9") == 2  # cached exact hit
    assert mailbox.route("unknown") is None


def test_unknown_destination_still_raises_with_mailbox():
    network = _bare_network()
    host = network.add_host("a")
    CrossPartitionMailbox(network, 0).register_remote("b", 1)
    host.send("b", "ok")  # remote: exported
    with pytest.raises(KeyError):
        host.send("nowhere", "boom")


def test_remote_send_exports_latency_stamped_envelope():
    network = _bare_network()
    host = network.add_host("a")
    mailbox = CrossPartitionMailbox(network, 0)
    mailbox.register_remote("b", 1)
    host.send("b", "payload", size_bytes=64)
    assert mailbox.exported == 1
    env = mailbox.outbox[0]
    assert env.dst == "b" and env.src_partition == 0
    assert env.deliver_at == 2.0  # Fixed(2.0) wire latency from t=0
    # sender-side stats count the transmission exactly like a local one
    assert network.stats.messages_sent == 1
    assert network.stats.bytes_sent == 64
    assert network.stats.per_host_sent["a"] == 1


def test_mailbox_apply_orders_and_checks_lookahead():
    network = _bare_network()
    got = []
    host = network.add_host("b")
    host.set_message_handler(lambda m: got.append((network.sim.now, m)))
    mailbox = CrossPartitionMailbox(network, 1)
    from repro.net.mailbox import Envelope
    # Deliberately shuffled: apply() must sort by (deliver_at,
    # src_partition, seq).
    envelopes = [Envelope(5.0, 2, 1, "b", "late"),
                 Envelope(3.0, 0, 7, "b", "early"),
                 Envelope(5.0, 0, 2, "b", "mid")]
    mailbox.apply(envelopes)
    network.sim.run(until=10.0)
    assert [payload for _, payload in got] == ["early", "mid", "late"]
    assert [t for t, _ in got] == [3.0, 5.0, 5.0]
    assert mailbox.imported == 3
    # An envelope in the receiver's past is a conservative-window bug.
    network.sim.run(until=20.0)
    with pytest.raises(LookaheadViolation):
        mailbox.apply([Envelope(15.0, 0, 9, "b", "stale")])


# ----------------------------------------------------------------------
# the runner, on bare two-host partitions
# ----------------------------------------------------------------------
class _PairDriver:
    """One host per partition; records everything it receives."""

    def __init__(self, partition_id: int, n_partitions: int):
        self.sim = Simulator(seed=partition_id + 1)
        self.network = Network(self.sim, latency=LatencyModel(Fixed(2.0)))
        self.mailbox = CrossPartitionMailbox(self.network, partition_id)
        self.host = self.network.add_host(f"h{partition_id}")
        self.received: list[tuple[float, str]] = []
        self.host.set_message_handler(
            lambda m: self.received.append((self.sim.now, m.payload)))
        for q in range(n_partitions):
            if q != partition_id:
                self.mailbox.register_remote(f"h{q}", q)

    def send(self, dst: str, payload: str) -> None:
        self.host.send(dst, payload)

    def got(self) -> list:
        return list(self.received)


def _pair_setup(partition_id: int, n_partitions: int, _args):
    return _PairDriver(partition_id, n_partitions)


def test_runner_delivers_cross_partition_at_stamped_time():
    with PartitionedSimulation(_pair_setup, 2, backend="inline") as psim:
        assert psim.lookahead == 2.0  # derived from Fixed(2.0)
        psim.call_on(0, "send", "h1", "hello")
        psim.call_on(1, "send", "h0", "reply")
        psim.advance(10.0)
        got = psim.call("got")
    assert got[0] == [(2.0, "reply")]
    assert got[1] == [(2.0, "hello")]


def test_runner_boundary_drain_delivers_at_exact_until():
    """An envelope due exactly at ``until`` arrives before advance()
    returns — phase boundaries see the same state a serial run would."""
    with PartitionedSimulation(_pair_setup, 2, backend="inline") as psim:
        psim.call_on(0, "send", "h1", "edge")
        psim.advance(2.0)  # deliver_at == until exactly
        got = psim.call_on(1, "got")
    assert got == [(2.0, "edge")]


def test_runner_rejects_backward_advance_and_bad_backend():
    with PartitionedSimulation(_pair_setup, 1, backend="inline") as psim:
        psim.advance(5.0)
        with pytest.raises(ValueError):
            psim.advance(1.0)
    for backend in ("teleport", "auto"):
        with pytest.raises(ValueError):
            PartitionedSimulation(_pair_setup, 2, backend=backend)
    with pytest.raises(ValueError):
        PartitionedSimulation(_pair_setup, 0)


def test_zero_lookahead_requires_explicit_value():
    def setup(partition_id, n_partitions, _args):
        driver = _PairDriver(partition_id, n_partitions)
        driver.network.latency = LatencyModel(Exponential(2.0))
        return driver
    with pytest.raises(ValueError):
        PartitionedSimulation(setup, 2, backend="inline")
    with PartitionedSimulation(setup, 2, backend="inline",
                               lookahead=0.5) as psim:
        assert psim.lookahead == 0.5


# ----------------------------------------------------------------------
# the partition-aware builder
# ----------------------------------------------------------------------
def test_partition_masters_split_is_contiguous_and_complete():
    for n_masters, n_partitions in ((4, 2), (4, 4), (5, 2), (7, 3)):
        seen = []
        for p in range(n_partitions):
            block = partition_masters(p, n_partitions, n_masters)
            assert len(block) >= 1
            seen.extend(block)
        assert seen == list(range(n_masters))


def test_build_partitioned_single_partition_is_serial_build():
    serial = build_cluster(curp_config(1), n_masters=2, seed=9)
    sliced = build_partitioned_cluster(0, 1, config=curp_config(1),
                                       n_masters=2, seed=9)
    assert sliced.coordinator.host.name == "coordinator"
    assert sliced.network.mailbox is None
    assert sliced.client_prefix == ""
    assert sorted(sliced.network.hosts) == sorted(serial.network.hosts)
    assert sliced.shard_map.tablets() == serial.shard_map.tablets()


def test_build_partitioned_slice_topology():
    config = curp_config(1)
    slice0 = build_partitioned_cluster(0, 2, config=config,
                                       n_masters=4, seed=9)
    slice1 = build_partitioned_cluster(1, 2, config=config,
                                       n_masters=4, seed=9)
    assert sorted(slice0.masters) == ["m0", "m1"]
    assert sorted(slice1.masters) == ["m2", "m3"]
    # Each slice's shard map still covers the whole keyspace...
    assert (slice0.shard_map.tablets() == slice1.shard_map.tablets())
    assert slice0.shard_map.tablets()[0][0] == 0
    assert slice0.shard_map.tablets()[-1][1] == 2 ** 64
    # ...with remote shards routed through the mailbox.
    assert slice0.network.mailbox.route("m2-host") == 1
    assert slice0.network.mailbox.route("m2-witness0") == 1
    assert slice0.network.mailbox.route("p1-coordinator") == 1
    assert slice0.network.mailbox.route("p1-client3") == 1
    assert slice0.network.mailbox.route("m0-host") is None
    # Local hosts exist; remote ones don't.
    assert "m0-host" in slice0.network.hosts
    assert "m2-host" not in slice0.network.hosts
    with pytest.raises(ValueError):
        build_partitioned_cluster(2, 2, config=config, n_masters=4)
    with pytest.raises(ValueError):
        build_partitioned_cluster(0, 3, config=config, n_masters=2)


def test_partitioned_client_names_are_prefixed():
    cluster = build_partitioned_cluster(0, 2, config=curp_config(1),
                                        n_masters=2, seed=9)
    client = cluster.new_client()
    assert client.host.name == "p0-client1"


# ----------------------------------------------------------------------
# cross-partition protocol traffic (a CURP update spanning partitions)
# ----------------------------------------------------------------------
class _SliceDriver:
    def __init__(self, cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.client = None
        self.outcome = None

    def connect(self) -> None:
        if self.cluster.partition_id == 0:
            self.client = self.cluster.new_client()

    def write(self, key: str, value: str) -> None:
        def op():
            outcome = yield from self.client.update(Write(key, value))
            self.outcome = (self.sim.now, outcome.result)
        self.client.host.spawn(op())

    def get_outcome(self):
        return self.outcome

    def read_local(self, master_id: str, key: str):
        master = self.cluster.master(master_id)
        return master.store.read(key)


def _slice_setup(partition_id: int, n_partitions: int, _args):
    cluster = build_partitioned_cluster(partition_id, n_partitions,
                                        config=curp_config(1),
                                        n_masters=2, seed=7)
    return _SliceDriver(cluster)


def test_cross_partition_curp_update_completes():
    """A client in partition 0 updates a key whose shard lives entirely
    in partition 1: the update RPC, witness records, replication and
    all replies cross the mailbox — and the op completes with the value
    durable on the remote master."""
    with PartitionedSimulation(_slice_setup, 2, backend="inline") as psim:
        psim.call("connect")
        # m1 lives in partition 1; pick a key it owns.
        cluster0 = psim._parts[0].driver.cluster
        key = keys_for_master(cluster0, "m1", 1)[0]
        psim.call_on(0, "write", key, "over-the-wire")
        psim.advance(psim.now + 500.0)
        outcome = psim.call_on(0, "get_outcome")
        stored = psim.call_on(1, "read_local", "m1", key)
        exported = psim._parts[0].mailbox.exported
    assert outcome is not None and outcome[1] is not None
    assert stored == "over-the-wire"
    assert exported >= 2  # at least the update RPC + a witness record


def test_process_backend_matches_inline():
    """The multiprocessing backend reproduces the inline backend's run
    bit-for-bit: same completions, same digests, same export counts."""
    args = {"n_masters": 2, "seed": 31, "rate_per_shard": 30_000.0,
            "n_clients": 2, "keys_per_shard": 8, "remote_fraction": 0.25}

    def run(backend: str):
        with PartitionedSimulation(build_openloop_partition, 2,
                                   setup_args=args,
                                   backend=backend) as psim:
            psim.call("start")
            psim.advance(psim.now + 1_000.0)
            psim.call("reset")
            start = psim.now
            psim.advance(start + 5_000.0)
            psim.call("stop")
            results = psim.call("results", 5_000.0)
            digests = psim.call("digest")
        return ([r["completed"] for r in results],
                [r["partition"]["exported"] for r in results],
                digests)

    assert run("inline") == run("process")


def _jittered_wire():
    return Shifted(10.0, LogNormal(median=1.05, sigma=0.18))


#: RAMCloud host costs on a jittered wire with a 10 µs floor (the
#: lookahead): the partitions finish connecting at different instants.
_JITTER_PROFILE = dataclasses.replace(RAMCLOUD_PROFILE, name="jittered",
                                      latency=_jittered_wire)


@pytest.mark.parametrize("seed", [43, 63])
def test_windows_start_from_the_earliest_partition_clock(seed):
    """After ``start`` the partitions' clocks differ by ~2 µs on these
    seeds.  A window measured from the later clock lets the lagging
    partition run past the lookahead, and its cross-partition sends
    then land in the other partition's past (LookaheadViolation)."""
    args = {"n_masters": 4, "seed": seed, "rate_per_shard": 200_000.0,
            "n_clients": 4, "keys_per_shard": 64, "remote_fraction": 0.2,
            "profile": _JITTER_PROFILE}
    with PartitionedSimulation(build_openloop_partition, 2,
                               setup_args=args, backend="inline") as psim:
        psim.call("start")
        clocks = [part.clock for part in psim._parts]
        assert clocks[0] != clocks[1]
        psim.advance(psim.now + 1_000.0)
        psim.call("stop")
        results = psim.call("results", 1_000.0)
    assert all(r["partition"]["exported"] > 0 for r in results)
    assert all(r["completed"] > 0 for r in results)


@pytest.mark.parametrize("n_partitions", [2, 4])
def test_cross_partition_ops_drain_exactly_once(n_partitions):
    """Every partition's clients reach the same masters, so RIFL client
    ids must be unique cluster-wide.  With no drops and no crashes every
    RPC a master sees is new, and after a drain past the retry budget
    every offered op has completed, failed or been dropped."""
    args = {"n_masters": 4, "seed": 7, "rate_per_shard": 25_000.0,
            "n_clients": 2, "keys_per_shard": 8, "remote_fraction": 0.2}
    config = CurpConfig()
    budget = config.max_attempts * (config.rpc_timeout
                                    + config.retry_backoff)
    with PartitionedSimulation(build_openloop_partition, n_partitions,
                               setup_args=args, backend="inline") as psim:
        psim.call("start")
        psim.advance(psim.now + 5_000.0)
        psim.call("stop")
        psim.advance(psim.now + budget)
        results = psim.call("results", 5_000.0)
        masters = [master for part in psim._parts
                   for master in part.driver.cluster.masters.values()]
    assert sum(r["partition"]["exported"] for r in results) > 0
    for result in results:
        for name, tenant in result["per_tenant"].items():
            assert tenant["in_flight"] + tenant["queued"] == 0, name
            assert tenant["offered"] == (tenant["completed"]
                                         + tenant["failed"]
                                         + tenant["dropped"]), name
    assert len(masters) == 4
    assert [m.stats.duplicates_filtered for m in masters] == [0] * 4
