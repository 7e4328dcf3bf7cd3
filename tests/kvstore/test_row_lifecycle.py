"""A row's life in the store: walked once, never mutated in place, shared.

Three contracts, one test group each:

- a rejected item rejects its whole request — a ``transact_write`` or a
  ``batch_write`` builds and checks every row before the first one lands,
  on one node, across shards and on a replica group alike;
- nothing a caller holds aliases a stored row — not what an operation
  returns, not what it was handed — although a replica group's followers
  share the leader's row objects;
- the fused walk (:func:`walk_value` / :func:`walk_item`) is exactly the
  three single walks it replaced — kept below as references — the same
  copy, the same size, the same errors; a projected read
  (:meth:`Projection.walk`) hands out exactly what copying the selected
  paths into a fresh row and sizing that did; and the bytes the store
  meters are the row's ``item_size``.
"""

import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    ItemTooLarge,
    KVStore,
    ReplicaGroup,
    ReplicatedStore,
    Set,
    ShardedStore,
    TransactPut,
    TransactUpdate,
    item_size,
    path,
)
from repro.kvstore import item as item_model
from repro.kvstore.errors import ValidationError
from repro.kvstore.expressions import Projection
from repro.kvstore.item import value_size, walk_item, walk_value
from repro.kvstore.store import NullTimeSource
from repro.kvstore.surface import leaves
from repro.sim import LatencyModel, RandomSource

EVENTUAL = "eventual"
SHIP_LAG = 250.0  # >= any clamped ship delay (DEFAULT_MAX_LAG_MS)
CAP = 100
FAST = dict(deadline=None, max_examples=200,
            suppress_health_check=[HealthCheck.too_slow])


def make_group(max_item_bytes=None):
    """One leader + two lagging followers on a manual clock."""
    clock = NullTimeSource()
    nodes = [KVStore(time_source=clock, rand=RandomSource(7 + i, "n"),
                     shard_id=0)
             for i in range(3)]
    group = ReplicaGroup(
        nodes[0], nodes[1:], rand=RandomSource(7, "repl"),
        latency=LatencyModel(RandomSource(7, "repl-lat")))
    group.create_table("data", hash_key="Key",
                       max_item_bytes=max_item_bytes)
    for node in group.nodes:
        node.table("data").add_index("by_ix", "Ix")
    return group, clock


def settle(group, clock) -> None:
    """Let every shipped record become visible and apply it."""
    clock.sleep(SHIP_LAG + 1)
    group.replication_lag()  # drains every follower


def stored(node) -> dict:
    """A deep snapshot of one node's ``data`` table."""
    return {key: copy_item(row)
            for key, row in node._tables["data"]._iter_raw()}


# -- the single walks the store used before its walks were fused ------------------
_SCALARS = (type(None), bool, int, float, str, bytes)


def validate_value(value) -> None:
    """Reject value types the store does not model."""
    if isinstance(value, _SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for element in value:
            validate_value(element)
        return
    if isinstance(value, dict):
        for key, element in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"map keys must be str, got {key!r}")
            validate_value(element)
        return
    if isinstance(value, (set, frozenset)):
        for element in value:
            if not isinstance(element, (int, float, str, bytes)):
                raise ValidationError(
                    f"set elements must be scalar, got {element!r}")
        return
    raise ValidationError(f"unsupported attribute value: {value!r}")


def copy_value(value):
    """Deep-copy a value so callers can never alias stored state."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return [copy_value(v) for v in value]
    if isinstance(value, list):
        return [copy_value(v) for v in value]
    if isinstance(value, dict):
        return {k: copy_value(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return set(value)
    raise ValidationError(f"unsupported attribute value: {value!r}")


def copy_item(item: dict) -> dict:
    return {name: copy_value(value) for name, value in item.items()}


def project(projection: Projection, item: dict) -> tuple[dict, int]:
    """A projected read as two walks: copy each selected path into a
    fresh row (creating the maps above it), then size that row."""
    out: dict = {}
    for target in projection.paths:
        present, value = target.get(item)
        if present:
            target.set(out, copy_value(value))
    return out, item_size(out)


def scribble(value) -> None:
    """Mutate every container reachable from ``value``."""
    if isinstance(value, dict):
        for element in list(value.values()):
            scribble(element)
        value["Scribbled"] = True
    elif isinstance(value, list):
        for element in value:
            scribble(element)
        value.append("scribbled")
    elif isinstance(value, set):
        value.add("scribbled")


def nested_row(key: str) -> dict:
    return {"Key": key, "Ix": "i", "List": [1, [2, {"m": 3}]],
            "Map": {"inner": {"deep": [4]}}, "Set": {5, 6}}


# -- a rejected item rejects the whole request ---------------------------------
OVERSIZED = {"Key": "b", "Blob": "x" * (2 * CAP)}
UNSUPPORTED = {"Key": "b", "Blob": object()}


class TestRejectedRequestsWriteNothing:
    def test_transact_write_with_an_oversized_second_put(self):
        store = KVStore()
        store.create_table("data", hash_key="Key", max_item_bytes=CAP)
        with pytest.raises(ItemTooLarge):
            store.transact_write([
                TransactPut("data", {"Key": "a", "V": 1}),
                TransactPut("data", OVERSIZED)])
        assert store.get("data", "a") is None
        assert "transact_write" not in store.metering.ops

    def test_a_cross_shard_transaction_with_an_oversized_put(self):
        store = ShardedStore([KVStore(shard_id=i) for i in range(2)])
        store.create_table("data", hash_key="Key", max_item_bytes=CAP)
        # Shards apply in index order: the oversized put is on the last.
        keys = [f"k{i}" for i in range(16)]
        first = next(k for k in keys if store.shard_for("data", k) == 0)
        other = next(k for k in keys if store.shard_for("data", k) == 1)
        with pytest.raises(ItemTooLarge):
            store.transact_write([
                TransactPut("data", {"Key": first, "V": 1}),
                TransactPut("data", {**OVERSIZED, "Key": other})])
        assert store.item_count("data") == 0

    @pytest.mark.parametrize("bad, error", [(OVERSIZED, ItemTooLarge),
                                            (UNSUPPORTED, ValidationError)],
                             ids=["oversized", "unsupported"])
    def test_batch_write_with_a_rejected_item_after_the_first(self, bad,
                                                              error):
        store = KVStore()
        store.create_table("data", hash_key="Key", max_item_bytes=CAP)
        store.put("data", {"Key": "gone", "V": 0})
        with pytest.raises(error):
            store.batch_write("data", puts=[{"Key": "a", "V": 1}, bad],
                              deletes=["gone"])
        assert store.get("data", "a") is None
        assert store.get("data", "gone") == {"Key": "gone", "V": 0}
        assert "batch_write" not in store.metering.ops

    @pytest.mark.parametrize("bad, error", [(OVERSIZED, ItemTooLarge),
                                            (UNSUPPORTED, ValidationError)],
                             ids=["oversized", "unsupported"])
    @pytest.mark.parametrize("stack", ["sharded", "replicated"])
    def test_a_sharded_batch_write_with_a_rejected_item_on_a_later_shard(
            self, stack, bad, error):
        """Shards apply in index order, and each checks only its own
        puts: shard 0's row used to land before shard 1 refused."""
        clock = NullTimeSource()
        if stack == "sharded":
            store = ShardedStore([KVStore(time_source=clock, shard_id=i)
                                  for i in range(4)])
        else:
            store = ReplicatedStore([
                ReplicaGroup(KVStore(time_source=clock, shard_id=i),
                             [KVStore(time_source=clock, shard_id=i)],
                             rand=RandomSource(i, "repl"),
                             latency=LatencyModel(RandomSource(i, "ship")))
                for i in range(4)])
        store.create_table("data", hash_key="Key", max_item_bytes=CAP)
        keys = [f"k{i}" for i in range(32)]
        first = next(k for k in keys if store.shard_for("data", k) == 0)
        other = next(k for k in keys if store.shard_for("data", k) == 1)
        with pytest.raises(error):
            store.batch_write("data", puts=[{"Key": first, "V": 1},
                                            {**bad, "Key": other}])
        clock.sleep(SHIP_LAG + 1)
        if stack == "replicated":
            store.replication_lag()  # drains every follower
            assert store.replication_stats.shipped == 0
        for leaf in leaves(store):
            assert leaf.item_count("data") == 0
            assert "batch_write" not in leaf.metering.ops

    @pytest.mark.parametrize("request_kind",
                             ["transact_write", "batch_write"])
    def test_a_replica_group_stays_alike(self, request_kind):
        """The leader used to keep the partial row while no record
        shipped: a follower that never receives it diverges for good."""
        group, clock = make_group(max_item_bytes=CAP)
        with pytest.raises(ItemTooLarge):
            if request_kind == "transact_write":
                group.transact_write([
                    TransactUpdate("data", ("a",), [Set("V", 1)]),
                    TransactPut("data", OVERSIZED)])
            else:
                group.batch_write("data", puts=[{"Key": "a", "V": 1},
                                                OVERSIZED])
        settle(group, clock)
        assert group.stats.shipped == 0
        assert [stored(node) for node in group.nodes] == [{}, {}, {}]


# -- nothing a caller holds aliases a stored row ----------------------------------
RETURNED = {
    "update": lambda g: g.update("data", ("a",), [Set("V", [1, {"x": 2}])]),
    "delete": lambda g: g.delete("data", "a"),
    "query": lambda g: g.query("data", "a").items,
    "projected query": lambda g: g.query("data", "a", projection=(
        Projection.of("List", path("Map", "inner"), "Set"))).items,
    "scan": lambda g: g.scan("data").items,
    "projected scan": lambda g: g.scan("data", projection=(
        Projection.of("List", path("List", 1), path("Map", "inner",
                                                   "deep")))).items,
    "query_index": lambda g: g.query_index("data", "by_ix", "i"),
    "batch_get": lambda g: list(g.batch_get("data", ["a", "b"])),
    "eventual get": lambda g: g.get("data", "a", consistency=EVENTUAL),
    "eventual batch_get": lambda g: list(
        g.batch_get("data", ["a", "b"], consistency=EVENTUAL)),
}
HANDED = {
    "put": lambda g, item: g.put("data", item),
    "batch_write": lambda g, item: g.batch_write("data", puts=[item]),
    "TransactPut": lambda g, item: g.transact_write(
        [TransactPut("data", item)]),
}


class TestNothingAliasesAStoredRow:
    @pytest.mark.parametrize("operation", sorted(RETURNED))
    def test_mutating_what_an_operation_returns(self, operation):
        group, clock = make_group()
        group.put("data", nested_row("a"))
        group.put("data", nested_row("b"))
        settle(group, clock)  # followers now hold the leader's rows
        result = RETURNED[operation](group)
        assert result
        before = [stored(node) for node in group.nodes]
        scribble(result)
        assert [stored(node) for node in group.nodes] == before
        settle(group, clock)
        follower_states = [stored(node) for node in group.followers]
        assert follower_states == [stored(group.leader)] * 2

    @pytest.mark.parametrize("operation", sorted(HANDED))
    def test_mutating_an_item_after_writing_it(self, operation):
        group, clock = make_group()
        item = nested_row("a")
        HANDED[operation](group, item)
        settle(group, clock)
        before = [stored(node) for node in group.nodes]
        assert before[0][("a",)] == nested_row("a")
        scribble(item)
        assert [stored(node) for node in group.nodes] == before

    def test_a_lagging_follower_serves_the_shared_pre_update_row(self):
        """Followers hold the leader's row objects; an update stores a
        fresh draft, so a follower keeps serving the old object untouched
        until the update's own record applies. An in-place update would
        leak early."""
        group, clock = make_group()
        group.put("data", {"Key": "a", "V": [1, {"n": 1}]})
        settle(group, clock)
        old = group.leader._tables["data"]._get_raw(("a",))
        assert all(node._tables["data"]._get_raw(("a",)) is old
                   for node in group.followers)
        group.update("data", ("a",), [Set(path("V", 1, "n"), 2)])
        assert group.get("data", "a") == {"Key": "a", "V": [1, {"n": 2}]}
        assert group.get("data", "a", consistency=EVENTUAL) == {
            "Key": "a", "V": [1, {"n": 1}]}
        assert old == {"Key": "a", "V": [1, {"n": 1}]}
        settle(group, clock)
        assert group.get("data", "a", consistency=EVENTUAL) == {
            "Key": "a", "V": [1, {"n": 2}]}
        new = group.leader._tables["data"]._get_raw(("a",))
        assert new is not old
        assert all(node._tables["data"]._get_raw(("a",)) is new
                   for node in group.followers)


# -- the fused walk is exact --------------------------------------------------------
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False), st.text(max_size=8),
                    st.binary(max_size=8))
SET_ELEMENTS = st.one_of(st.booleans(), st.integers(),
                         st.floats(allow_nan=False), st.text(max_size=8),
                         st.binary(max_size=8))
LEAVES = SCALARS | st.sets(SET_ELEMENTS, max_size=4) | st.frozensets(
    SET_ELEMENTS, max_size=4)
REJECTED = st.one_of(
    st.builds(object),
    st.complex_numbers(allow_nan=False),
    st.dictionaries(st.integers(), SCALARS, min_size=1, max_size=2),
    st.sets(st.one_of(st.none(), st.tuples(st.integers())), min_size=1,
            max_size=2))


def nest(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
        max_leaves=24)


VALUES = nest(LEAVES)
MAYBE_REJECTED = nest(LEAVES | REJECTED)
ROWS = st.dictionaries(st.text(min_size=1, max_size=5).filter(
    lambda name: name not in ("Key", "Ix")), VALUES, max_size=4).map(
    lambda attrs: {"Key": "a", "Ix": "i", **attrs})

READS_AND_REMOVALS = {
    # operation -> (call, metering key, field); each moves the row once
    "get": (lambda s: s.get("data", "a"), "read", "bytes_read"),
    "query": (lambda s: s.query("data", "a"), "query", "bytes_read"),
    "scan": (lambda s: s.scan("data"), "scan", "bytes_read"),
    "query_index": (lambda s: s.query_index("data", "by_ix", "i"),
                    "query_index", "bytes_read"),
    "batch_get": (lambda s: s.batch_get("data", ["a"]), "batch_get",
                  "bytes_read"),
    "delete": (lambda s: s.delete("data", "a"), "delete",
               "bytes_written"),
    "batch_write delete": (lambda s: s.batch_write("data", deletes=["a"]),
                           "batch_write", "bytes_written"),
}
PUTS = {
    "put": (lambda s, row: s.put("data", row), "write"),
    "batch_write put": (lambda s, row: s.batch_write("data", puts=[row]),
                        "batch_write"),
    "transact_write put": (lambda s, row: s.transact_write(
        [TransactPut("data", row)]), "transact_write"),
}
FILL = {
    "put": lambda s, blob: s.put("data", {"Key": "a", "B": blob}),
    "update": lambda s, blob: s.update("data", ("a",), [Set("B", blob)]),
    "transact_write": lambda s, blob: s.transact_write(
        [TransactPut("data", {"Key": "a", "B": blob})]),
    "batch_write": lambda s, blob: s.batch_write(
        "data", puts=[{"Key": "a", "B": blob}]),
}


def containers(value) -> list:
    """Every container object reachable from ``value``."""
    found = []
    if isinstance(value, (list, tuple, dict, set, frozenset)):
        found.append(value)
        elements = value.values() if isinstance(value, dict) else value
        for element in elements:
            found.extend(containers(element))
    return found


def fresh_store() -> KVStore:
    store = KVStore()
    store.create_table("data", hash_key="Key")
    store.table("data").add_index("by_ix", "Ix")
    return store


class TestFusedWalk:
    @settings(**FAST)
    @given(VALUES)
    def test_walk_value_is_the_copy_and_the_size(self, value):
        copied, size = walk_value(value)
        assert copied == copy_value(value)
        assert size == value_size(value)
        shared = {id(c) for c in containers(value)} & {
            id(c) for c in containers(copied)}
        assert not shared

    @settings(**FAST)
    @given(st.dictionaries(st.text(max_size=5), VALUES, max_size=5))
    def test_walk_item_is_the_copy_and_the_size(self, item):
        assert walk_item(item) == (copy_item(item), item_size(item))

    @settings(**FAST)
    @given(MAYBE_REJECTED)
    def test_walk_raises_what_validation_raises(self, value):
        try:
            validate_value(value)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                walk_value(value)
            assert str(raised.value) == str(exc)
        else:
            assert walk_value(value) == (copy_value(value),
                                         value_size(value))

    @pytest.mark.parametrize("value, message", [
        ({1: "v"}, "map keys must be str, got 1"),
        ({"ok": [{None: 1}]}, "map keys must be str, got None"),
        ({None}, "set elements must be scalar, got None"),
        ([{(1,)}], "set elements must be scalar, got (1,)"),
        (1j, "unsupported attribute value: 1j"),
        ({"a": [Ellipsis]}, "unsupported attribute value: Ellipsis"),
    ])
    def test_each_rejection_has_validations_message(self, value, message):
        for walk in (validate_value, walk_value):
            with pytest.raises(ValidationError) as raised:
                walk(value)
            assert str(raised.value) == message

    @settings(**FAST)
    @given(ROWS)
    def test_every_operation_meters_the_rows_item_size(self, row):
        size = item_size(row)
        for call, meter in PUTS.values():
            store = fresh_store()
            call(store, row)
            assert store.metering.ops[meter].bytes_written == size
        for call, meter, field in READS_AND_REMOVALS.values():
            store = fresh_store()
            store.put("data", row)
            before = store.metering.copy()
            call(store)
            assert getattr(store.metering.diff(before)[meter],
                           field) == size
        store = fresh_store()
        store.put("data", row)
        before = store.metering.copy()
        new_row = store.update("data", ("a",), [Set("N", 1)])
        assert store.metering.diff(before)["write"].bytes_written == (
            item_size(new_row))
        before = store.metering.copy()
        store.transact_write([TransactUpdate("data", ("a",),
                                             [Set("N", 2)])])
        assert store.metering.diff(before)[
            "transact_write"].bytes_written == item_size(
                store.get("data", "a"))

    def test_the_store_keeps_no_single_purpose_copy_or_check(self):
        """The references above live here only: under ``src/`` a copy or
        a check is a walk, so it cannot drift from the size it meters."""
        src = pathlib.Path(item_model.__file__).resolve().parents[2]
        for module in src.rglob("*.py"):
            assert not re.search(r"\b(copy_value|copy_item|validate_value)\b",
                                 module.read_text()), module

    @pytest.mark.parametrize("operation", sorted(FILL))
    def test_item_too_large_fires_at_exactly_one_byte_over(self,
                                                           operation):
        store = KVStore()
        store.create_table("data", hash_key="Key", max_item_bytes=CAP)
        # "Key" + "a" + "B" = 5 bytes of names and key around the blob.
        FILL[operation](store, "x" * (CAP - 5))
        assert item_size(store.get("data", "a")) == CAP
        with pytest.raises(ItemTooLarge):
            FILL[operation](store, "y" * (CAP - 4))
        assert store.get("data", "a")["B"] == "x" * (CAP - 5)


# -- a projected read is the two walks it replaced -----------------------------------
class Name(str):
    pass


class Map(dict):
    pass


class Seq(list):
    pass


# Few names, so paths hit and two paths often share a top attribute.
NAMES = st.sampled_from(["a", "b", "c"])
PROJECTED_LEAVES = st.one_of(
    SCALARS, NAMES.map(Name), st.sets(SET_ELEMENTS, max_size=3),
    st.binary(max_size=4))
PROJECTED_VALUES = st.recursive(PROJECTED_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=3),
    st.lists(children, max_size=3).map(Seq),
    st.dictionaries(NAMES, children, max_size=3),
    st.dictionaries(NAMES, children, max_size=3).map(Map)),
    max_leaves=16)
PROJECTED_ROWS = st.dictionaries(NAMES, PROJECTED_VALUES, max_size=3)
PATHS = st.builds(
    lambda top, rest: path(top, *rest), NAMES,
    st.lists(NAMES | st.integers(min_value=0, max_value=2), max_size=3))
PROJECTIONS = st.lists(PATHS, min_size=1, max_size=4).map(
    lambda paths: Projection(paths))


class TestProjectedWalk:
    @settings(**FAST)
    @given(PROJECTED_ROWS, PROJECTIONS)
    def test_one_pass_equals_copy_then_size(self, row, projection):
        snapshot = copy_item(row)
        try:
            expected = project(projection, row)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                projection.walk(row)
            assert str(raised.value) == str(exc)
            return
        out, size = projection.walk(row)
        assert (out, size) == expected
        tops = [target.top for target in projection.paths]
        if len(set(tops)) == len(tops):
            # Key order follows the paths; it can differ from the two
            # walks' only where two paths share a top attribute.
            assert repr(out) == repr(expected[0])
        scribble(out)
        assert row == snapshot

    @pytest.mark.parametrize("targets, row, expected", [
        # The skeleton probe: a map member under its parent, nothing
        # when the member is missing.
        (["RowId", path("RecentWrites", "k")],
         {"RowId": "r", "RecentWrites": {"k": True, "j": False}},
         {"RowId": "r", "RecentWrites": {"k": True}}),
        (["RowId", path("RecentWrites", "k")],
         {"RowId": "r", "RecentWrites": {"j": False}}, {"RowId": "r"}),
        # Two members of one map; a whole value covers a deeper path.
        ([path("M", "x"), path("M", "y")], {"M": {"x": 1, "y": 2, "z": 3}},
         {"M": {"x": 1, "y": 2}}),
        ([path("M", "x"), "M"], {"M": {"x": 1, "y": 2}},
         {"M": {"x": 1, "y": 2}}),
        # A list index lands only inside a list selected whole.
        (["L", path("L", 1)], {"L": [1, 2]}, {"L": [1, 2]}),
        ([path("L", 5)], {"L": [1, 2]}, {}),
    ])
    def test_worked_examples(self, targets, row, expected):
        projection = Projection.of(*targets)
        assert projection.walk(row) == (expected, item_size(expected))
        assert project(projection, row) == (expected, item_size(expected))

    def test_an_index_into_a_fresh_map_is_rejected_as_before(self):
        projection = Projection.of(path("L", 1), "L")
        with pytest.raises(ValidationError, match="list index 1 out of range"):
            projection.walk({"L": [1, 2]})
