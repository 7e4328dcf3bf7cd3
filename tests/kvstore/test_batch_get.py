"""``KVStore.batch_get``: semantics, metering, and fault injection."""

import pytest

from repro.kvstore import FaultTimeline, KVStore, ThrottledError
from repro.sim import LatencyModel, RandomSource, SimKernel
from repro.kvstore import KernelTimeSource


@pytest.fixture
def store():
    s = KVStore()
    s.create_table("data", hash_key="Key")
    s.create_table("ranged", hash_key="Key", range_key="RowId")
    for i in range(5):
        s.put("data", {"Key": f"k{i}", "V": i})
        s.put("ranged", {"Key": "item", "RowId": f"r{i}", "V": i})
    return s


class TestSemantics:
    def test_results_align_with_keys(self, store):
        items = store.batch_get("data", ["k3", "k0", "k4"])
        assert [item["V"] for item in items] == [3, 0, 4]

    def test_missing_keys_come_back_as_none(self, store):
        items = store.batch_get("data", ["k1", "nope", "k2", "gone"])
        assert items[0]["V"] == 1
        assert items[1] is None
        assert items[2]["V"] == 2
        assert items[3] is None

    def test_empty_batch_is_free(self, store):
        before = store.metering.copy()
        assert store.batch_get("data", []) == []
        assert store.metering.diff(before) == {}

    def test_composite_keys(self, store):
        items = store.batch_get(
            "ranged", [("item", "r2"), ("item", "r9"), ("item", "r0")])
        assert items[0]["V"] == 2
        assert items[1] is None
        assert items[2]["V"] == 0

    def test_duplicate_keys_allowed(self, store):
        items = store.batch_get("data", ["k1", "k1"])
        assert [item["V"] for item in items] == [1, 1]


class TestMetering:
    def test_one_round_trip_for_n_rows(self, store):
        before = store.metering.copy()
        store.batch_get("data", [f"k{i}" for i in range(5)])
        delta = store.metering.diff(before)
        assert set(delta) == {"batch_get"}
        assert delta["batch_get"].count == 1     # one request...
        assert delta["batch_get"].items == 5     # ...covering five rows

    def test_read_units_match_n_singleton_gets(self, store):
        """Batching saves round trips, not read units: the provider
        still charges per row touched."""
        keys = [f"k{i}" for i in range(5)]
        before = store.metering.copy()
        store.batch_get("data", keys)
        batched = store.metering.diff(before)["batch_get"]

        singleton = KVStore()
        singleton.create_table("data", hash_key="Key")
        for i in range(5):
            singleton.put("data", {"Key": f"k{i}", "V": i})
        before = singleton.metering.copy()
        for key in keys:
            singleton.get("data", key)
        gets = singleton.metering.diff(before)["read"]

        assert gets.count == 5
        assert batched.count == 1
        assert batched.read_units == pytest.approx(gets.read_units)
        assert batched.bytes_read == gets.bytes_read

    def test_missing_rows_still_pay_a_unit(self, store):
        before = store.metering.copy()
        store.batch_get("data", ["nope-1", "nope-2"])
        delta = store.metering.diff(before)["batch_get"]
        assert delta.read_units >= 2.0


def faulty_store(seed, timeline):
    s = KVStore(rand=RandomSource(seed))
    s.timeline = timeline
    s.create_table("data", hash_key="Key")
    return s


def batch_burst():
    """Every batch read throttles; point reads sail through."""
    return FaultTimeline().error_burst(ops="db.batch_read")


class TestFaultInjection:
    def test_single_key_throttle_raises(self):
        """A 1-key batch has no partial to serve: throttle = rejection,
        matching the point-read contract."""
        s = faulty_store(1, batch_burst())
        s.put("data", {"Key": "a", "V": 1})
        with pytest.raises(ThrottledError):
            s.batch_get("data", ["a"])
        # Nothing was metered: the batch failed as one unit.
        assert "batch_get" not in s.metering.ops

    def test_throttle_serves_a_partial_prefix(self):
        """DynamoDB-style partial results: a throttled multi-key batch
        serves a prefix and reports the rest as unprocessed."""
        s = faulty_store(2, batch_burst())
        for i in range(6):
            s.put("data", {"Key": f"k{i}", "V": i})
        keys = [f"k{i}" for i in range(6)]
        saw_partial = False
        for _ in range(50):
            try:
                result = s.batch_get("data", keys)
            except ThrottledError:
                continue  # served == 0 this draw
            assert result.unprocessed_keys, "throttled batch came whole"
            saw_partial = True
            served = len(keys) - len(result.unprocessed_keys)
            # The served prefix is real data, aligned with the request.
            for i in range(served):
                assert result[i] == {"Key": f"k{i}", "V": i}
            # Unserved positions are None and listed for retry.
            for i in result.unprocessed_indexes:
                assert result[i] is None
            assert result.unprocessed_keys == keys[served:]
        assert saw_partial

    def test_partial_batch_meters_only_served_rows(self):
        s = faulty_store(3, batch_burst())
        for i in range(6):
            s.put("data", {"Key": f"k{i}", "V": i})
        keys = [f"k{i}" for i in range(6)]
        while True:
            before = s.metering.copy()
            try:
                result = s.batch_get("data", keys)
                break
            except ThrottledError:
                assert s.metering.diff(before) == {}
        served = len(keys) - len(result.unprocessed_keys)
        delta = s.metering.diff(before)["batch_get"]
        assert delta.count == 1
        assert delta.items == served

    def test_one_throttle_draw_per_batch_not_per_row(self):
        """p=0.5 throttling over many 8-row batches: if each *row* drew
        independently, nearly every batch would be degraded
        (1 - 0.5^8 ≈ 99.6%); a per-batch draw degrades about half."""
        s = faulty_store(7, FaultTimeline().error_burst(rate=0.5))
        keys = [f"k{i}" for i in range(8)]
        whole = 0
        for _ in range(200):
            try:
                result = s.batch_get("data", keys)
            except ThrottledError:
                continue
            if result.complete:
                whole += 1
        assert 60 <= whole <= 140  # ~100 expected; ~1 if per-row

    def test_batch_get_all_retries_the_remainder(self):
        """The caller-side loop completes a batch under heavy batch
        throttling by retrying unprocessed keys, falling back to point
        gets (which this policy leaves alone) if batches stay degraded."""
        from repro.kvstore import batch_get_all
        s = faulty_store(11, batch_burst())
        for i in range(8):
            s.put("data", {"Key": f"k{i}", "V": i})
        rows = batch_get_all(s, "data",
                             [f"k{i}" for i in range(8)] + ["missing"])
        assert [r["V"] for r in rows[:8]] == list(range(8))
        assert rows[8] is None

    def test_an_eventual_batch_stays_eventual_through_its_retries(self):
        """A partial throttle must change neither the routing nor the
        price of the rows it delays: the retried remainder and the
        point-``get`` fallback read at the first round's consistency, so
        every served row meters as eventual."""
        from repro.kvstore import batch_get_all
        s = faulty_store(11, batch_burst())
        for i in range(8):
            s.put("data", {"Key": f"k{i}", "V": i})
        before = s.metering.copy()
        rows = batch_get_all(s, "data", [f"k{i}" for i in range(8)],
                             consistency="eventual")
        assert [r["V"] for r in rows] == list(range(8))
        ops = s.metering.diff(before)
        # The remainder really went through retries *and* the fallback...
        assert ops["batch_get"].count > 1 and ops["read"].count >= 1
        assert ops["batch_get"].items + ops["read"].items == 8
        # ...and not one round trip of either kind was served strong.
        for kind in ("batch_get", "read"):
            assert ops[kind].eventual_count == ops[kind].count, kind
        assert s.metering.per_table_eventual["data"] == (
            ops["batch_get"].count + ops["read"].count)

    def test_op_filter_targets_batches_only(self):
        """``ops=`` scopes the window: batch reads throttle, point reads
        sail through."""
        s = faulty_store(3, batch_burst())
        s.put("data", {"Key": "a", "V": 1})
        assert s.get("data", "a")["V"] == 1
        with pytest.raises(ThrottledError):
            s.batch_get("data", ["a"])

    def test_latency_spike_applies_per_batch(self):
        kernel = SimKernel(seed=5)
        rand = RandomSource(5)
        spiky = KVStore(
            time_source=KernelTimeSource(kernel),
            latency=LatencyModel(rand.child("lat")),
            rand=rand.child("store"))
        spiky.timeline = FaultTimeline().gray(multiplier=10.0)
        spiky.create_table("data", hash_key="Key")
        durations = []

        def body():
            start = kernel.now
            spiky.batch_get("data", ["a", "b"])
            durations.append(kernel.now - start)

        kernel.spawn(body)
        kernel.run()
        kernel.shutdown()
        assert durations[0] > 0.0
