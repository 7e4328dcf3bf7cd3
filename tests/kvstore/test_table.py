"""Unit tests for tables: atomic ops, queries, scans, indexes."""

import pytest

from repro.kvstore import (
    AttrNotExists,
    ConditionFailed,
    Eq,
    Gt,
    ItemTooLarge,
    KeySchema,
    KVStore,
    Set,
    Table,
    TransactPut,
    TransactUpdate,
)
from repro.kvstore.errors import ValidationError
from repro.kvstore.expressions import Projection, path


@pytest.fixture
def simple():
    """A hash-key-only table."""
    return Table("data", KeySchema("Key"))


@pytest.fixture
def composite():
    """A hash+range table, like a linked DAAL table."""
    return Table("daal", KeySchema("Key", "RowId"))


class TestPutGet:
    def test_put_then_get(self, simple):
        simple.put({"Key": "a", "Value": 1})
        assert simple.get("a") == {"Key": "a", "Value": 1}

    def test_get_missing_returns_none(self, simple):
        assert simple.get("nope") is None

    def test_put_replaces_whole_item(self, simple):
        simple.put({"Key": "a", "Value": 1, "Extra": True})
        simple.put({"Key": "a", "Value": 2})
        assert simple.get("a") == {"Key": "a", "Value": 2}

    def test_get_returns_copy(self, simple):
        """The top level is the reader's own copy; the values in it are
        the stored frozen ones, which refuse mutation."""
        simple.put({"Key": "a", "List": [1]})
        fetched = simple.get("a")
        with pytest.raises(TypeError, match="read-only"):
            fetched["List"].append(2)
        fetched["List"] = [1, 2]
        del fetched["Key"]
        assert simple.get("a") == {"Key": "a", "List": [1]}

    def test_put_stores_copy(self, simple):
        item = {"Key": "a", "List": [1]}
        simple.put(item)
        item["List"].append(2)
        assert simple.get("a")["List"] == [1]

    def test_composite_key_roundtrip(self, composite):
        composite.put({"Key": "k", "RowId": "HEAD", "Value": 0})
        composite.put({"Key": "k", "RowId": "r1", "Value": 1})
        assert composite.get(("k", "HEAD"))["Value"] == 0
        assert composite.get(("k", "r1"))["Value"] == 1

    def test_missing_hash_key_rejected(self, simple):
        with pytest.raises(ValidationError):
            simple.put({"Value": 1})

    def test_scalar_key_rejected_for_composite(self, composite):
        with pytest.raises(ValidationError):
            composite.get("k")


class TestConditionalOps:
    def test_conditional_put_insert_once(self, simple):
        cond = AttrNotExists("Key")
        simple.put({"Key": "a", "V": 1}, condition=cond)
        with pytest.raises(ConditionFailed):
            simple.put({"Key": "a", "V": 2}, condition=cond)
        assert simple.get("a")["V"] == 1

    def test_conditional_update(self, simple):
        simple.put({"Key": "a", "N": 5})
        simple.update("a", [Set("N", 6)], condition=Eq("N", 5))
        with pytest.raises(ConditionFailed):
            simple.update("a", [Set("N", 7)], condition=Eq("N", 5))
        assert simple.get("a")["N"] == 6

    def test_update_creates_missing_item(self, simple):
        simple.update("new", [Set("V", 1)])
        assert simple.get("new") == {"Key": "new", "V": 1}

    def test_update_condition_sees_missing_item(self, simple):
        simple.update("new", [Set("V", 1)],
                      condition=AttrNotExists("Key"))
        with pytest.raises(ConditionFailed):
            simple.update("new", [Set("V", 2)],
                          condition=AttrNotExists("Key"))

    def test_update_returns_new_item(self, simple):
        simple.put({"Key": "a", "N": 1})
        result = simple.update("a", [Set("N", 2)], return_new=True)
        assert result == {"Key": "a", "N": 2}
        # Unasked, a write hands back nothing (DynamoDB's ReturnValues).
        assert simple.update("a", [Set("N", 3)]) is None
        assert simple.get("a") == {"Key": "a", "N": 3}

    def test_update_cannot_change_key(self, simple):
        simple.put({"Key": "a", "N": 1})
        with pytest.raises(ValidationError):
            simple.update("a", [Set("Key", "b")])

    def test_conditional_delete(self, simple):
        simple.put({"Key": "a", "N": 1})
        with pytest.raises(ConditionFailed):
            simple.delete("a", condition=Eq("N", 99))
        assert simple.delete("a", condition=Eq("N", 1)) is True
        assert simple.get("a") is None

    def test_delete_missing_is_false(self, simple):
        assert simple.delete("ghost") is False

    def test_failed_condition_leaves_item_unchanged(self, simple):
        simple.put({"Key": "a", "N": 1})
        with pytest.raises(ConditionFailed):
            simple.update("a", [Set("N", 99)], condition=Eq("N", 0))
        assert simple.get("a")["N"] == 1


class TestSizeLimit:
    def test_oversized_put_rejected(self):
        table = Table("t", KeySchema("Key"), max_item_bytes=100)
        with pytest.raises(ItemTooLarge):
            table.put({"Key": "a", "Blob": "x" * 200})

    def test_oversized_update_rejected_and_rolled_back(self):
        table = Table("t", KeySchema("Key"), max_item_bytes=100)
        table.put({"Key": "a", "Blob": "small"})
        with pytest.raises(ItemTooLarge):
            table.update("a", [Set("Blob", "y" * 200)])
        assert table.get("a")["Blob"] == "small"

    def test_row_fills_up_like_olive_daal(self):
        """A single-row DAAL hits the item cap — the paper's motivation."""
        table = Table("t", KeySchema("Key"), max_item_bytes=2048)
        table.put({"Key": "a", "Log": {}})
        with pytest.raises(ItemTooLarge):
            for i in range(200):
                table.update("a", [Set(path("Log", f"entry-{i:04d}"),
                                       "v" * 16)])


class TestQuery:
    def test_query_orders_by_range_key(self, composite):
        for row_id in ["r3", "HEAD", "r1"]:
            composite.put({"Key": "k", "RowId": row_id})
        result = composite.query("k")
        assert [r["RowId"] for r in result.items] == ["HEAD", "r1", "r3"]

    def test_query_other_partition_empty(self, composite):
        composite.put({"Key": "k", "RowId": "HEAD"})
        assert composite.query("other").items == []

    def test_query_with_projection(self, composite):
        composite.put({"Key": "k", "RowId": "HEAD", "Value": "big",
                       "NextRow": "r1"})
        result = composite.query("k",
                                 projection=Projection.of("RowId", "NextRow"))
        assert result.items == [{"RowId": "HEAD", "NextRow": "r1"}]

    def test_query_consumed_bytes_shrinks_with_projection(self, composite):
        composite.put({"Key": "k", "RowId": "HEAD", "Value": "v" * 500})
        full = composite.query("k")
        projected = composite.query(
            "k", projection=Projection.of("RowId", "NextRow"))
        assert projected.consumed_bytes < full.consumed_bytes


class TestScanPaging:
    def _fill(self, table, n):
        for i in range(n):
            table.put({"Key": f"k{i:03d}", "N": i})

    def test_scan_all(self, simple):
        self._fill(simple, 10)
        result = simple.scan()
        assert len(result.items) == 10
        assert result.scanned_count == 10

    def test_scan_limit_pages(self, simple):
        self._fill(simple, 10)
        result = simple.scan(limit=4)
        assert [item["Key"] for item in result.items] == [
            f"k{i:03d}" for i in range(4)]
        assert result.scanned_count == 4

    def test_scan_limit_applies_before_filter(self, simple):
        """DynamoDB semantics: limit counts scanned, not matched, items."""
        self._fill(simple, 10)
        result = simple.scan(filter_condition=Gt("N", 7), limit=5)
        assert result.items == []  # first 5 items all have N <= 7
        assert result.scanned_count == 5

    def test_scan_deterministic_order(self, simple):
        self._fill(simple, 5)
        first = [i["Key"] for i in simple.scan().items]
        second = [i["Key"] for i in simple.scan().items]
        assert first == second


class TestSecondaryIndex:
    def test_sparse_index_lookup(self, simple):
        simple.add_index("pending", "Pending")
        simple.put({"Key": "a", "Pending": "yes"})
        simple.put({"Key": "b"})
        simple.put({"Key": "c", "Pending": "yes"})
        keys = {i["Key"] for i in simple.query_index("pending", "yes")}
        assert keys == {"a", "c"}

    def test_index_updated_on_attribute_removal(self, simple):
        from repro.kvstore import Remove
        simple.add_index("pending", "Pending")
        simple.put({"Key": "a", "Pending": "yes"})
        simple.update("a", [Remove("Pending")])
        assert simple.query_index("pending", "yes") == []

    def test_index_updated_on_value_change(self, simple):
        simple.add_index("status", "Status")
        simple.put({"Key": "a", "Status": "open"})
        simple.update("a", [Set("Status", "done")])
        assert simple.query_index("status", "open") == []
        assert [i["Key"] for i in simple.query_index("status", "done")] == [
            "a"]

    def test_index_updated_on_delete(self, simple):
        simple.add_index("status", "Status")
        simple.put({"Key": "a", "Status": "open"})
        simple.delete("a")
        assert simple.query_index("status", "open") == []

    def test_index_backfills_existing_items(self, simple):
        simple.put({"Key": "a", "Status": "open"})
        simple.add_index("status", "Status")
        assert [i["Key"] for i in simple.query_index("status", "open")] == [
            "a"]

    def test_unknown_index_rejected(self, simple):
        with pytest.raises(ValidationError):
            simple.query_index("nope", 1)

    @pytest.mark.parametrize("value", [{"m": 1}, [1], {1}],
                             ids=["map", "list", "set"])
    @pytest.mark.parametrize("write", [
        "put", "update", "batch_write", "transact_write"])
    def test_a_container_in_an_indexed_attribute_writes_nothing(self, write,
                                                               value):
        """The row is refused before it lands: the old row and its index
        entry stay, and no other row of the request is written."""
        store = KVStore()
        store.create_table("data", hash_key="Key")
        store.table("data").add_index("status", "Status")
        store.put("data", {"Key": "a", "Status": "open"})
        other = {"Key": "b", "Status": "open"}
        writes = {
            "put": lambda: store.put("data", {"Key": "a", "Status": value}),
            "update": lambda: store.update("data", "a",
                                           [Set("Status", value)]),
            "batch_write": lambda: store.batch_write("data", puts=[
                other, {"Key": "a", "Status": value}]),
            "transact_write": lambda: store.transact_write([
                TransactPut("data", other),
                TransactUpdate("data", "a", [Set("Status", value)])]),
        }
        with pytest.raises(ValidationError, match="must be scalar"):
            writes[write]()
        assert store.get("data", "a") == {"Key": "a", "Status": "open"}
        assert store.get("data", "b") is None
        assert store.table("data")._indexes["status"].entries == {
            "open": {("a",)}}


class TestStats:
    def test_item_count(self, composite):
        composite.put({"Key": "k", "RowId": "HEAD"})
        composite.put({"Key": "k", "RowId": "r1"})
        composite.put({"Key": "j", "RowId": "HEAD"})
        assert composite.item_count() == 3

    def test_storage_bytes_grows(self, simple):
        before = simple.storage_bytes()
        simple.put({"Key": "a", "Blob": "x" * 1000})
        assert simple.storage_bytes() >= before + 1000
