"""Unit tests for the KVStore facade: latency, metering, transactions."""

import pytest

from repro.kvstore import (
    AttrNotExists,
    ConditionFailed,
    Eq,
    FaultTimeline,
    KVStore,
    KernelTimeSource,
    Set,
    TableExists,
    TableNotFound,
    ThrottledError,
    TransactPut,
    TransactUpdate,
    TransactionCanceled,
)
from repro.sim import LatencyModel, RandomSource, SimKernel


@pytest.fixture
def store():
    s = KVStore()
    s.create_table("data", hash_key="Key")
    return s


class TestTableManagement:
    def test_create_and_use(self, store):
        store.put("data", {"Key": "a", "V": 1})
        assert store.get("data", "a")["V"] == 1

    def test_duplicate_create_rejected(self, store):
        with pytest.raises(TableExists):
            store.create_table("data", hash_key="Key")

    def test_ensure_table_idempotent(self, store):
        t1 = store.ensure_table("data", hash_key="Key")
        t2 = store.ensure_table("data", hash_key="Key")
        assert t1 is t2

    def test_unknown_table_rejected(self, store):
        with pytest.raises(TableNotFound):
            store.get("ghost", "a")

    def test_drop_table(self, store):
        store.drop_table("data")
        with pytest.raises(TableNotFound):
            store.get("data", "a")

    def test_table_names_sorted(self, store):
        store.create_table("alpha", hash_key="K")
        assert store.table_names() == ["alpha", "data"]


class TestMetering:
    def test_reads_and_writes_counted(self, store):
        store.put("data", {"Key": "a", "V": 1})
        store.get("data", "a")
        store.get("data", "a")
        snap = store.metering.snapshot()
        assert snap["write"]["count"] == 1
        assert snap["read"]["count"] == 2

    def test_bytes_metered(self, store):
        store.put("data", {"Key": "a", "Blob": "x" * 2048})
        assert store.metering.bytes_written >= 2048

    def test_dollar_cost_positive(self, store):
        store.put("data", {"Key": "a", "V": 1})
        store.get("data", "a")
        assert store.metering.dollar_cost() > 0

    def test_diff_isolates_window(self, store):
        store.put("data", {"Key": "a", "V": 1})
        baseline = store.metering.copy()
        store.get("data", "a")
        delta = store.metering.diff(baseline)
        assert "read" in delta and "write" not in delta


class TestTransactWrite:
    def test_cross_table_atomic_commit(self, store):
        store.create_table("log", hash_key="LogKey")
        store.transact_write([
            TransactUpdate("data", ("a",), [Set("V", 1)]),
            TransactPut("log", {"LogKey": "op1", "Done": True}),
        ])
        assert store.get("data", "a")["V"] == 1
        assert store.get("log", "op1")["Done"] is True

    def test_failing_condition_cancels_everything(self, store):
        store.create_table("log", hash_key="LogKey")
        store.put("log", {"LogKey": "op1"})
        with pytest.raises(TransactionCanceled):
            store.transact_write([
                TransactUpdate("data", ("a",), [Set("V", 1)]),
                TransactPut("log", {"LogKey": "op1"},
                            condition=AttrNotExists("LogKey")),
            ])
        assert store.get("data", "a") is None

    def test_empty_transaction_is_noop(self, store):
        store.transact_write([])

    def test_same_table_twice(self, store):
        store.transact_write([
            TransactUpdate("data", ("a",), [Set("V", 1)]),
            TransactUpdate("data", ("b",), [Set("V", 2)]),
        ])
        assert store.get("data", "b")["V"] == 2


class TestFaultInjection:
    def test_throttling_raises(self):
        s = KVStore(rand=RandomSource(1))
        s.timeline = FaultTimeline().error_burst()
        s.create_table("data", hash_key="Key")
        with pytest.raises(ThrottledError):
            s.get("data", "a")

    def test_no_faults_by_default(self, store):
        for _ in range(100):
            store.get("data", "a")


class TestVirtualLatency:
    def test_ops_consume_virtual_time_under_kernel(self):
        kernel = SimKernel(seed=3)
        rand = RandomSource(3)
        store = KVStore(time_source=KernelTimeSource(kernel),
                        latency=LatencyModel(rand.child("lat")),
                        rand=rand.child("store"))
        store.create_table("data", hash_key="Key")
        durations = []

        def body():
            start = kernel.now
            store.put("data", {"Key": "a", "V": 1})
            store.get("data", "a")
            durations.append(kernel.now - start)

        kernel.spawn(body)
        kernel.run()
        kernel.shutdown()
        assert durations and durations[0] > 0

    def test_scan_latency_scales_with_rows(self):
        kernel = SimKernel(seed=3)
        rand = RandomSource(3)
        spec = LatencyModel(rand.child("lat"))
        store = KVStore(time_source=KernelTimeSource(kernel),
                        latency=spec, rand=rand.child("store"))
        store.create_table("data", hash_key="Key")
        for i in range(500):
            store.table("data").put({"Key": f"k{i:04d}"})
        samples = {}

        def body():
            start = kernel.now
            store.scan("data", limit=1)
            samples["short"] = kernel.now - start
            start = kernel.now
            store.scan("data")
            samples["long"] = kernel.now - start

        kernel.spawn(body)
        kernel.run()
        kernel.shutdown()
        assert samples["long"] > samples["short"]

    def test_null_time_source_is_instant(self, store):
        store.get("data", "a")
        assert store.time.now() == 0.0


class TestTimeSourceAlignment:
    """``NullTimeSource`` and ``KernelTimeSource`` must agree on
    zero-duration sleeps: neither advances, so metering and timing are
    invariant to which source backs a zero-latency store."""

    def test_zero_duration_sleep_is_a_noop_in_both(self):
        from repro.kvstore import NullTimeSource
        null = NullTimeSource()
        null.sleep(0.0)
        null.sleep(-1.0)  # defensive: negative durations never advance
        assert null.now() == 0.0
        kernel = SimKernel(seed=0)
        kts = KernelTimeSource(kernel)
        kts.sleep(0.0)  # outside any process: must not blow up or move
        assert kts.now() == 0.0
        kernel.shutdown()

    def test_positive_sleep_still_advances_null_source(self):
        from repro.kvstore import NullTimeSource
        null = NullTimeSource()
        null.sleep(2.5)
        assert null.now() == 2.5

    def test_zero_latency_store_meters_identically_under_both(self):
        from repro.kvstore import NullTimeSource

        def drive(store):
            store.create_table("data", hash_key="Key")
            store.put("data", {"Key": "a", "V": 1})
            store.get("data", "a")
            store.batch_get("data", ["a", "b"])
            store.scan("data")
            return store.metering.snapshot(), store.time.now()

        null_store = KVStore(time_source=NullTimeSource())
        kernel = SimKernel(seed=0)
        kernel_store = KVStore(time_source=KernelTimeSource(kernel))
        null_metered, null_now = drive(null_store)
        kernel_metered = None

        def body():
            nonlocal kernel_metered
            kernel_metered = drive(kernel_store)

        kernel.spawn(body)
        kernel.run()
        kernel.shutdown()
        assert null_metered == kernel_metered[0]
        assert null_now == kernel_metered[1] == 0.0


class TestServiceCapacity:
    def test_bounded_parallelism_queues_in_virtual_time(self):
        """With 1 server, N concurrent readers serialize: total elapsed
        ~= sum of service times; with plenty of servers they overlap."""
        from repro.sim.latency import ServiceCapacity

        def makespan(servers):
            kernel = SimKernel(seed=5)
            rand = RandomSource(5)
            store = KVStore(time_source=KernelTimeSource(kernel),
                            latency=LatencyModel(rand.child("lat")),
                            rand=rand.child("store"),
                            capacity=servers)
            store.create_table("data", hash_key="Key")
            store.table("data").put({"Key": "a"})
            for _ in range(8):
                kernel.spawn(lambda: store.get("data", "a"))
            end = kernel.run()
            kernel.shutdown()
            return end

        serial = makespan(1)
        parallel = makespan(8)
        assert serial > 4 * parallel

    def test_rejects_nonpositive_capacity(self):
        from repro.sim.latency import ServiceCapacity
        with pytest.raises(ValueError):
            ServiceCapacity(0)

    def test_store_capacity_zero_rejected_not_unbounded(self):
        """capacity=0 must be an error, not silently 'no queue'."""
        with pytest.raises(ValueError):
            KVStore(capacity=0)


class TestConditionFailures:
    def test_condition_failed_propagates(self, store):
        store.put("data", {"Key": "a", "N": 1})
        with pytest.raises(ConditionFailed):
            store.update("data", "a", [Set("N", 2)], condition=Eq("N", 9))

    def test_storage_bytes_rollup(self, store):
        store.create_table("other", hash_key="K")
        store.put("data", {"Key": "a", "Blob": "x" * 100})
        store.put("other", {"K": "b", "Blob": "y" * 50})
        assert store.storage_bytes() >= 150
        assert store.storage_bytes("other") >= 50
        assert store.item_count("data") == 1
