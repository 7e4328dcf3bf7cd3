"""FaultTimeline semantics: outages, bursts, gray, partitions, crashes.

The timeline is the one fault model: windows active for virtual
``[start, end)``, either bound open (an always-on fault is a window
without edges), scoped by ops / shards / replica roles, consulted on the
store hot path only when non-empty. Everything here runs on direct
stores with a ``NullTimeSource`` clock advanced by hand — no kernel
needed — except where edges have to reach a schedule.
"""

import json
import math

import pytest

from repro.kvstore import (
    FaultTimeline,
    FaultWindow,
    KernelTimeSource,
    KVStore,
    ReplicaGroup,
    ShardedStore,
    ThrottledError,
    UnavailableError,
)
from repro.sim import LatencyModel, RandomSchedule, RandomSource, SimKernel


class CountingRand:
    """RandomSource proxy that counts draws (and forces their value)."""

    def __init__(self, value=0.99):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value

    def randint(self, lo, hi):
        return hi


def make_store(shard_id=None, latency_scale=0.0, bare=False, rand=None,
               timeline=None):
    s = KVStore(latency=LatencyModel(RandomSource(7, "lat"),
                                     scale=latency_scale),
                rand=rand or RandomSource(7, "store"), shard_id=shard_id)
    s.timeline = timeline
    if not bare:
        s.create_table("data", hash_key="Key")
    return s


def make_group(timeline=None):
    leader = make_store(shard_id=0, bare=True)
    followers = [make_store(shard_id=0, bare=True)]
    group = ReplicaGroup(leader, followers,
                         rand=RandomSource(9, "repl"),
                         latency=LatencyModel(RandomSource(9, "rl")))
    group.timeline = timeline
    group.ensure_table("data", hash_key="Key")
    return group


class TestWindowSemantics:
    def test_active_is_half_open(self):
        w = FaultWindow("outage", 100.0, 200.0)
        assert not w.active(99.9)
        assert w.active(100.0)
        assert w.active(199.9)
        assert not w.active(200.0)

    def test_open_bounds_span_all_time(self):
        tl = FaultTimeline().error_burst(rate=0.2).gray(None, 50.0)
        always, until_50 = tl.windows
        assert (always.start, always.end) == (-math.inf, math.inf)
        assert always.active(-1e300) and always.active(1e300)
        assert until_50.active(-1e300) and not until_50.active(50.0)

    def test_scoping_ops_and_shards(self):
        tl = FaultTimeline().outage(0, 10, shards=[1], ops=["db.write"])
        assert tl.outage_active(5.0, "db.write", 1)
        assert not tl.outage_active(5.0, "db.read", 1)
        assert not tl.outage_active(5.0, "db.write", 0)
        assert not tl.outage_active(15.0, "db.write", 1)

    def test_scalar_scopes_normalize(self):
        tl = FaultTimeline().outage(0, 10, shards=0, ops="db.read")
        assert tl.outage_active(0.0, "db.read", 0)
        assert not tl.outage_active(0.0, "db.read", 1)

    def test_role_scoping_spares_other_role_only(self):
        tl = FaultTimeline().outage(0, 10, role="leader")
        assert tl.outage_active(5.0, "db.read", 0, "leader")
        assert not tl.outage_active(5.0, "db.read", 0, "follower")
        # A node with no role (unreplicated store) is its own leader.
        assert tl.outage_active(5.0, "db.read", 0, None)

    def test_ops_and_shards_compose_conjunctively(self):
        (window,) = FaultTimeline().error_burst(ops="db.write",
                                                shards=1).windows
        assert window.applies_to("db.write", 1)
        assert not window.applies_to("db.write", 0)
        assert not window.applies_to("db.read", 1)
        s = make_store(shard_id=1, timeline=FaultTimeline().add(window))
        assert s.get("data", "a") is None  # wrong op
        with pytest.raises(ThrottledError):
            s.put("data", {"Key": "a", "V": 1})

    def test_gray_multipliers_compound(self):
        tl = (FaultTimeline().gray(0, 100, multiplier=3.0)
              .gray(50, 100, multiplier=2.0))
        assert tl.latency_multiplier(10.0, "db.read") == 3.0
        assert tl.latency_multiplier(60.0, "db.read") == 6.0
        assert tl.latency_multiplier(100.0, "db.read") == 1.0

    def test_gray_open_ended(self):
        tl = FaultTimeline().gray(10, multiplier=4.0)
        assert tl.latency_multiplier(1e12, "db.read") == 4.0

    def test_gray_below_rate_one_is_a_spike(self):
        tl = FaultTimeline().gray(multiplier=4.0, rate=0.5)
        hit, miss = CountingRand(value=0.1), CountingRand(value=0.9)
        assert tl.latency_multiplier(0.0, "db.read", rand=hit) == 4.0
        assert tl.latency_multiplier(0.0, "db.read", rand=miss) == 1.0
        assert hit.draws == miss.draws == 1

    def test_rate_is_max_of_active(self):
        tl = (FaultTimeline().error_burst(0, 100, rate=0.3)
              .error_burst(0, 50, rate=0.9))
        assert tl.rate("error_burst", 10.0, "db.read") == 0.9
        assert tl.rate("error_burst", 70.0, "db.read") == 0.3
        assert tl.rate("leader_crash", 10.0, "db.read") == 0.0

    def test_partition_heal_time(self):
        tl = (FaultTimeline().partition(0, 100, shards=[0])
              .partition(50, 300, shards=[0]))
        assert tl.partition_heal_time(60.0, 0) == 300.0
        assert tl.partition_heal_time(60.0, 1) is None
        assert tl.partition_heal_time(301.0, 0) is None

    def test_describe_round_trips_json(self):
        tl = (FaultTimeline().outage(1, 2, shards=[0])
              .gray(3, multiplier=9.0).error_burst(4, 5, rate=0.5)
              .leader_crash(rate=0.02))
        desc = json.loads(json.dumps(tl.describe()))
        assert [w["kind"] for w in desc] == [
            "outage", "gray", "error_burst", "leader_crash"]
        assert desc[0]["shards"] == [0]
        assert desc[1]["end"] is None
        assert (desc[3]["start"], desc[3]["end"], desc[3]["rate"]) == (
            None, None, 0.02)

    def test_empty_timeline_is_falsy(self):
        assert not FaultTimeline()
        assert FaultTimeline().outage(0, 1)


class TestScopedDraws:
    """A window draws only for the ops and nodes it scopes: a fault on
    one shard cannot perturb its siblings' random streams."""

    def test_ops_scope_gates_the_draw(self):
        s = make_store(timeline=FaultTimeline().error_burst(ops="db.read"))
        s.put("data", {"Key": "a", "V": 1})  # writes unaffected
        with pytest.raises(ThrottledError):
            s.get("data", "a")

    def test_shard_scope_spares_siblings(self):
        tl = FaultTimeline().error_burst(shards=[0])
        sick = make_store(shard_id=0, timeline=tl)
        healthy = make_store(shard_id=1, timeline=tl)
        with pytest.raises(ThrottledError):
            sick.get("data", "a")
        assert healthy.get("data", "a") is None

    def test_unsharded_node_ignores_shard_scoped_window(self):
        s = make_store(timeline=FaultTimeline().error_burst(shards=[0]))
        assert s.get("data", "a") is None

    def test_no_draw_outside_scope(self):
        tl = (FaultTimeline().error_burst(rate=0.5, shards=0)
              .gray(rate=0.5, shards=0))
        rand = CountingRand()
        make_store(shard_id=1, rand=rand, timeline=tl).get("data", "a")
        assert rand.draws == 0
        make_store(shard_id=0, rand=rand, timeline=tl).get("data", "a")
        assert rand.draws == 2  # the burst's, then the spike's

    def test_leader_crash_fails_over_only_in_scope(self):
        in_scope = make_group(FaultTimeline().leader_crash(ops="db.write"))
        in_scope.put("data", {"Key": "a", "V": 1})
        assert in_scope.stats.failovers == 1
        in_scope.get("data", "a")  # db.read: out of scope
        assert in_scope.stats.failovers == 1

        out_of_scope = make_group(FaultTimeline().leader_crash(shards=9))
        out_of_scope.put("data", {"Key": "a", "V": 1})
        assert out_of_scope.stats.failovers == 0

    def test_leader_crash_draws_from_the_group_stream(self):
        rand = CountingRand(value=0.5)
        group = make_group(FaultTimeline().leader_crash(rate=0.5))
        group.rand = rand
        group.put("data", {"Key": "a", "V": 1})
        assert (rand.draws, group.stats.failovers) == (1, 0)

    def test_unreplicated_node_ignores_leader_crash(self):
        rand = CountingRand(value=0.0)
        s = make_store(rand=rand, timeline=FaultTimeline().leader_crash())
        s.put("data", {"Key": "a", "V": 1})
        assert s.get("data", "a")["V"] == 1
        assert rand.draws == 0


class TestBatches:
    """A batch consults the windows once per round trip, and a throttle
    partially serves it: a prefix lands, the rest comes back
    unprocessed — whichever window throttles it."""

    def test_batch_get_draws_once(self):
        rand = CountingRand()  # 0.99: never throttles at rate 0.5
        s = make_store(rand=rand,
                       timeline=FaultTimeline().error_burst(rate=0.5))
        s.batch_get("data", [f"k{i}" for i in range(25)])
        assert rand.draws == 1

    def test_batch_write_draws_once(self):
        rand = CountingRand()
        s = make_store(rand=rand,
                       timeline=FaultTimeline().error_burst(rate=0.5))
        s.batch_write("data", puts=[{"Key": f"k{i}", "V": i}
                                    for i in range(25)])
        assert rand.draws == 1

    def test_a_throttle_serves_a_batch_write_prefix(self):
        rand = CountingRand(value=0.0)  # the one draw throttles
        s = make_store(rand=rand,
                       timeline=FaultTimeline().error_burst(rate=0.5))
        result = s.batch_write("data", puts=[{"Key": f"k{i}", "V": i}
                                             for i in range(10)])
        served = 10 - len(result.unprocessed_puts)
        assert 0 < served < 10
        rand.value = 0.99  # stop throttling for the verification reads
        for i in range(served):
            assert s.get("data", f"k{i}")["V"] == i
        for i in range(served, 10):
            assert s.get("data", f"k{i}") is None

    def test_scheduled_burst_on_batch_get_serves_a_prefix(self):
        s = make_store(rand=CountingRand(value=0.0))
        for i in range(6):
            s.put("data", {"Key": f"k{i}", "V": i})
        s.timeline = FaultTimeline().error_burst(0.0, 100.0)
        keys = [f"k{i}" for i in range(6)]
        result = s.batch_get("data", keys)
        served = len(keys) - len(result.unprocessed_keys)
        assert 0 < served < len(keys)
        assert [result[i]["V"] for i in range(served)] == list(
            range(served))
        assert result.unprocessed_keys == keys[served:]

    def test_sharded_batch_draws_once_per_shard(self):
        rands = [CountingRand(), CountingRand()]
        tl = FaultTimeline().error_burst(rate=0.5)
        nodes = [KVStore(latency=LatencyModel(RandomSource(3, f"lat{i}")),
                         rand=rands[i], shard_id=i)
                 for i in range(2)]
        for node in nodes:
            node.timeline = tl
        sharded = ShardedStore(nodes)
        sharded.ensure_table("data", hash_key="Key")
        keys = [f"k{i}" for i in range(32)]
        sharded.batch_get("data", keys)
        owners = {sharded.shard_for("data", key) for key in keys}
        assert owners == {0, 1}  # both shards hit
        assert [r.draws for r in rands] == [1, 1]


class TestEdges:
    def _fault_labels(self, timeline):
        """Fired-trace labels naming a fault, from two concurrent
        readers of one store under a RandomSchedule."""
        kernel = SimKernel(seed=3, schedule=RandomSchedule(0))
        kernel.capture_trace = True
        s = KVStore(time_source=KernelTimeSource(kernel),
                    latency=LatencyModel(RandomSource(3, "lat")),
                    rand=RandomSource(3, "store"))
        s.create_table("data", hash_key="Key")
        s.timeline = timeline

        def reader():
            for _ in range(5):
                try:
                    s.get("data", "a")
                except ThrottledError:
                    pass

        for _ in range(2):
            kernel.spawn(reader)
        kernel.run()
        kernel.shutdown()
        return [label for _t, label in kernel.fired_trace
                if "fault:" in label]

    def test_always_on_window_fires_no_edge(self):
        assert self._fault_labels(
            FaultTimeline().error_burst(rate=0.5)) == []

    def test_a_finite_edge_reaches_the_schedule(self):
        labels = self._fault_labels(
            FaultTimeline().error_burst(0.0, 1.0, rate=0.5))
        assert any("fault:error_burst:start:0" in label
                   for label in labels)


class TestStoreWiring:
    def test_outage_raises_before_any_effect(self):
        s = make_store(timeline=FaultTimeline().outage(0, 100,
                                                       ops=["db.write"]))
        with pytest.raises(UnavailableError):
            s.put("data", {"Key": "a", "V": 1})
        assert s.get("data", "a") is None  # nothing landed

    def test_outage_heals_on_schedule(self):
        s = make_store(timeline=FaultTimeline().outage(0, 100))
        with pytest.raises(UnavailableError):
            s.get("data", "a")
        s.time.sleep(150.0)
        assert s.get("data", "a") is None  # served, just empty

    def test_outage_scoped_to_other_shard_is_invisible(self):
        s = make_store(shard_id=2,
                       timeline=FaultTimeline().outage(0, 100, shards=[0]))
        s.put("data", {"Key": "a", "V": 1})
        assert s.get("data", "a")["V"] == 1

    def test_batch_ops_respect_outage(self):
        s = make_store(timeline=FaultTimeline().outage(0, 100))
        with pytest.raises(UnavailableError):
            s.batch_get("data", ["a", "b"])
        with pytest.raises(UnavailableError):
            s.batch_write("data", puts=[{"Key": "a", "V": 1}])

    def test_error_burst_throttles_at_full_rate(self):
        s = make_store(timeline=FaultTimeline().error_burst(0, 100))
        with pytest.raises(ThrottledError):
            s.get("data", "a")
        s.time.sleep(100.0)
        assert s.get("data", "a") is None

    def test_gray_window_multiplies_latency(self):
        healthy = make_store(latency_scale=1.0)
        healthy.put("data", {"Key": "a", "V": 1})
        t0 = healthy.time.now()
        healthy.get("data", "a")
        base = healthy.time.now() - t0

        gray = make_store(latency_scale=1.0,
                          timeline=FaultTimeline().gray(0, None,
                                                        multiplier=10.0))
        gray.put("data", {"Key": "a", "V": 1})
        t0 = gray.time.now()
        gray.get("data", "a")
        slowed = gray.time.now() - t0
        # Same seeded latency draw sequence, 10x the service time.
        assert slowed == pytest.approx(base * 10.0)

    def test_empty_timeline_is_bit_identical(self):
        plain = make_store(latency_scale=1.0)
        timed = make_store(latency_scale=1.0, timeline=FaultTimeline())
        for s in (plain, timed):
            s.put("data", {"Key": "a", "V": 1})
            s.get("data", "a")
        assert plain.time.now() == timed.time.now()
        assert (plain.metering.snapshot() == timed.metering.snapshot())


class TestPartitions:
    def test_partition_stalls_shipping_until_heal(self):
        group = make_group(FaultTimeline().partition(0, 500, shards=[0]))
        group.put("data", {"Key": "a", "V": 1})
        # Drain well past normal ship delay but before the heal: the
        # follower must still be blind to the write.
        group.leader.time.sleep(200.0)
        for node in group.nodes:
            node.time.sleep(200.0)
        assert group.get("data", "a", consistency="eventual") is None
        lag = group.replication_lag()
        assert all(v >= 1 for v in lag.values())
        # Past the heal the stalled records become visible.
        group.leader.time.sleep(400.0)
        for node in group.nodes:
            node.time.sleep(400.0)
        assert group.get("data", "a",
                         consistency="eventual")["V"] == 1
        assert all(v == 0 for v in group.replication_lag().values())

    def test_leader_role_outage_spares_followers(self):
        group = make_group()
        group.put("data", {"Key": "a", "V": 1})
        for node in group.nodes:
            node.time.sleep(5_000.0)  # let the write ship
        tl = FaultTimeline().outage(5_000.0, 6_000.0, role="leader")
        for node in group.nodes:
            node.timeline = tl
        with pytest.raises(UnavailableError):
            group.get("data", "a")  # strong: leader-routed
        assert group.get("data", "a",
                         consistency="eventual")["V"] == 1

    def test_failover_converges_after_partition(self):
        group = make_group(FaultTimeline().partition(0, 500, shards=[0]))
        group.put("data", {"Key": "a", "V": 1})
        group.put("data", {"Key": "b", "V": 2})
        # Fail the leader mid-partition: promotion replays the pending
        # (stalled) suffix, so no acknowledged write is lost.
        group.fail_leader()
        assert group.get("data", "a")["V"] == 1
        assert group.get("data", "b")["V"] == 2
