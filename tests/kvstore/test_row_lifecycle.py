"""A row's life in the store: walked once, never mutated in place, shared.

The contracts, one test group each:

- a rejected item rejects its whole request — a ``transact_write`` or a
  ``batch_write`` builds and checks every row before the first one lands,
  on one node, across shards and on a replica group alike;
- nothing a caller holds can change a stored row — not what an
  operation returns, not what it was handed — although a replica
  group's followers share the leader's row objects and a read hands out
  the stored values themselves: the top level of each row it returns is
  fresh, and every container below it refuses mutation;
- the fused walk (:func:`walk_value` / :func:`walk_item`, the deep copy
  and size the store once handed out, kept below as the reference the
  frozen walk is checked against) is exactly the three single walks it
  replaced — the same copy, the same size, the same errors; a projected
  read (:meth:`Projection.walk`) hands out exactly what copying the
  selected paths into a fresh row and sizing that did; and the bytes the
  store meters are the row's ``item_size``;
- a stored value is frozen and shared: :func:`freeze_value` is
  :func:`walk_value` with a frozen copy, a copy-on-write update builds
  what deep-copying the whole row and walking it again built (that
  path is kept below as the reference), every container inside a stored
  row refuses mutation, a read hands out the stored values by
  reference, and one frozen value written to many rows on many replicas
  stays one object;
- every stored row records its size when it is built — by a put, an
  update that re-sizes only what it touched, a batch, a transaction, a
  replica install or a chain migration — and it is the size a walk of
  the row measures;
- one distinct value is one object: two freezes return one object
  exactly when the values are alike — equal, with equal member classes,
  member order and float signs — at the size a walk measures, and
  dropping the table of canonical objects mid-run changes no stored
  value;
- a partition of one row is the row itself: a range-keyed table driven
  through every kind of write and read, a replica install, a chain
  migration and a failover answers as a dict-of-dicts model, with
  partitions growing from one row to two and shrinking back.
"""

import copy
import pathlib
import pickle
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    Add,
    ChainMigrator,
    Delete,
    IfNotExists,
    ItemTooLarge,
    KeySchema,
    KVStore,
    ListAppend,
    Remove,
    ReplicaGroup,
    ReplicatedStore,
    Set,
    ShardedStore,
    Table,
    TransactPut,
    TransactUpdate,
    Value,
    item_size,
    path,
)
from repro.kvstore import item as item_model
from repro.kvstore.errors import ValidationError
from repro.kvstore.expressions import Projection, apply_updates
from repro.kvstore.item import (
    FrozenList,
    FrozenMap,
    FrozenRow,
    freeze_item,
    freeze_value,
    value_size,
)
from repro.kvstore.store import NullTimeSource
from repro.kvstore.surface import leaves
from repro.kvstore.table import _sort_token
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


def walk_value(value) -> tuple:
    """``(deep copy of value, value_size(value))`` in one pass, raising
    what :func:`validate_value` raises: the walk every read once handed
    out its rows through. The copy shares no container with ``value``;
    tuples come back as lists, frozensets as sets."""
    cls = value.__class__
    if cls is bool or value is None:
        return value, 1
    if isinstance(value, (dict, list, tuple)):
        if isinstance(value, dict):
            out, size = {}, 3
            for key, element in value.items():
                if not isinstance(key, str):
                    raise ValidationError(
                        f"map keys must be str, got {key!r}")
                out[key], element_size = walk_value(element)
                size += len(key.encode("utf-8")) + element_size + 1
            return out, size
        out, size = [], 3
        for element in value:
            copied, element_size = walk_value(element)
            out.append(copied)
            size += 1 + element_size
        return out, size
    if isinstance(value, (set, frozenset)):
        validate_value(value)
        return set(value), value_size(value)
    validate_value(value)
    return value, value_size(value)


def walk_item(item: dict) -> tuple[dict, int]:
    """``(deep copy of item, item_size(item))`` in one pass."""
    out, size = {}, 0
    for name, value in item.items():
        if not isinstance(name, str):
            raise ValidationError(
                f"attribute names must be str, got {name!r}")
        out[name], value_bytes = walk_value(value)
        size += len(name.encode("utf-8")) + value_bytes
    return out, size


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
    """Mutate every container reachable from ``value``: a plain one
    takes the change, a frozen one (a stored value) must refuse it."""
    if isinstance(value, (FrozenMap, FrozenList, frozenset)):
        assert refuses_mutation(value)
    if isinstance(value, dict):
        for element in list(value.values()):
            scribble(element)
        if type(value) is not FrozenMap:
            value["Scribbled"] = True
    elif isinstance(value, list):
        for element in list(value):
            scribble(element)
        if type(value) is not FrozenList:
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
    "update": lambda g: g.update("data", ("a",), [Set("V", [1, {"x": 2}])],
                                 return_new=True),
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
        """A read hands out the stored values themselves: the reader may
        change each row's top level, which is its own, and every
        container below it refuses (:func:`scribble` asserts so)."""
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

    def test_writes_hand_back_only_what_was_asked_for(self):
        """``update`` returns the new row only on request, ``delete``
        only whether it removed one: no copy of a row goes out unread."""
        group, clock = make_group()
        group.put("data", nested_row("a"))
        assert group.update("data", ("a",), [Set("V", 1)]) is None
        assert group.delete("data", "a") is True
        assert group.delete("data", "a") is False
        settle(group, clock)
        assert [stored(node) for node in group.nodes] == [{}, {}, {}]

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
        for walk in (validate_value, walk_value, freeze_value):
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
        new_row = store.update("data", ("a",), [Set("N", 1)],
                               return_new=True)
        assert store.metering.diff(before)["write"].bytes_written == (
            item_size(new_row))
        before = store.metering.copy()
        store.transact_write([TransactUpdate("data", ("a",),
                                             [Set("N", 2)])])
        assert store.metering.diff(before)[
            "transact_write"].bytes_written == item_size(
                store.get("data", "a"))

    def test_the_store_keeps_no_single_purpose_copy_or_check(self):
        """The references above live here only: under ``src/`` a check
        is the frozen walk, so it cannot drift from the size it meters,
        and no walk deep-copies a value to hand it out."""
        src = pathlib.Path(item_model.__file__).resolve().parents[2]
        for module in src.rglob("*.py"):
            assert not re.search(
                r"\b(copy_value|copy_item|validate_value|walk_value"
                r"|walk_item)\b|\bdeepcopy\(", module.read_text()), module
        # One walk family: the frozen walks and the size of what is not
        # frozen yet.
        functions = {name for name, value in vars(item_model).items()
                     if callable(value) and getattr(
                         value, "__module__", None) == item_model.__name__}
        assert functions == {
            "FrozenMap", "FrozenRow", "FrozenList", "_refuse", "_set_size",
            "value_size", "item_size", "freeze_value", "freeze_item",
            "freeze_update", "compare_values"}

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
        """Over a stored (frozen) row: the selection by reference is what
        copying the paths out and sizing them handed out, each value
        selected whole is the stored object, and changing what it
        hands out cannot change the row."""
        stored_row = freeze_item(row)
        snapshot = copy_item(stored_row)
        try:
            expected = project(projection, row)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                projection.walk(stored_row)
            assert str(raised.value) == str(exc)
            return
        out, size = projection.walk(stored_row)
        assert (out, size) == expected
        tops = [target.top for target in projection.paths]
        if len(set(tops)) == len(tops):
            # Key order follows the paths; it can differ from the two
            # walks' only where two paths share a top attribute.
            assert repr(copy_item(out)) == repr(expected[0])
        for target in projection.paths:
            if len(target.segments) == 1 and target.top in out:
                assert out[target.top] is stored_row[target.top]
        scribble(out)
        assert stored_row == snapshot

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


# -- stored values are frozen and shared ------------------------------------------
def reference_update(existing, updates) -> tuple[dict, int]:
    """The update path before stored values were frozen: deep-copy the
    whole stored row, apply the actions to the copy, walk it again."""
    draft = {"Key": "a"} if existing is None else copy_item(existing)
    apply_updates(draft, updates)
    return walk_item(draft)


def measured_size(row: dict) -> int:
    """A row's size as a walk of a plain copy measures it — what the
    size a stored row records must equal."""
    return item_size(copy_item(row))


def all_frozen(value) -> bool:
    return all(isinstance(c, (FrozenMap, FrozenList, frozenset))
               for c in containers(value))


def all_frozen_row(row: dict) -> bool:
    """Every value of a stored row is frozen (the row itself is a
    :class:`FrozenRow`, read-only too)."""
    return all(all_frozen(value) for value in row.values())


def all_plain(value) -> bool:
    return all(type(c) in (dict, list, set) for c in containers(value))


UPDATE_ROWS = st.dictionaries(NAMES, VALUES, max_size=3).map(
    lambda attrs: {"Key": "a", **attrs})
ACTIONS = st.one_of(
    st.builds(Set, PATHS, VALUES),
    st.builds(Set, PATHS, PATHS),  # a path operand: SET x = y
    st.builds(Remove, PATHS),
    st.builds(lambda target, value: Set(target, ListAppend(
        IfNotExists(target, Value([])), Value([value]))), PATHS, VALUES),
    st.builds(lambda target: Add(target, 1), PATHS))
UPDATES = st.lists(ACTIONS, min_size=1, max_size=4)
WRITES = {
    "put": lambda s, row: s.put("data", row),
    "update": lambda s, row: s.update("data", "a", [
        Set(name, value) for name, value in row.items() if name != "Key"]),
    "batch_write": lambda s, row: s.batch_write("data", puts=[row]),
    "TransactPut": lambda s, row: s.transact_write(
        [TransactPut("data", row)]),
    "TransactUpdate": lambda s, row: s.transact_write([TransactUpdate(
        "data", "a", [Set(name, value) for name, value in row.items()
                      if name != "Key"])]),
}
READS = {
    "get": lambda s: [s.get("data", "a")],
    "query": lambda s: s.query("data", "a").items,
    "projected query": lambda s: s.query("data", "a", projection=(
        Projection.of("List", path("Map", "inner"), "Set"))).items,
    "scan": lambda s: s.scan("data").items,
    "query_index": lambda s: s.query_index("data", "by_ix", "i"),
    "batch_get": lambda s: list(s.batch_get("data", ["a"])),
}


def refuses_mutation(container) -> bool:
    mutate = {FrozenMap: lambda c: c.update(x=1),
              FrozenList: lambda c: c.append(1)}.get(type(container))
    if mutate is None:
        return isinstance(container, frozenset)
    with pytest.raises(TypeError, match="read-only"):
        mutate(container)
    return True


class TestFrozenValues:
    @settings(**FAST)
    @given(VALUES)
    def test_freeze_value_is_walk_value_frozen(self, value):
        frozen, size = freeze_value(value)
        assert (frozen, size) == walk_value(value)
        assert all_frozen(frozen)
        # Frozen once: writing it again takes it by reference.
        again = freeze_value(frozen)
        assert again == (frozen, size) and (
            again[0] is frozen or not containers(frozen))
        mutable = {id(c) for c in containers(value)
                   if not isinstance(c, (tuple, frozenset))}
        assert not mutable & {id(c) for c in containers(frozen)}

    def test_a_copy_of_a_frozen_value_is_plain(self):
        """"Copy it to change it": a copy of a callee's result is the
        app's own, mutable all the way down."""
        value = {"List": [1, {"m": [2]}], "Map": {"n": 3}}
        frozen = freeze_value(value)[0]
        for copied in (copy.deepcopy(frozen),
                       pickle.loads(pickle.dumps(frozen))):
            assert copied == value and all_plain(copied)
        assert type(copy.copy(frozen)) is dict
        assert type(copy.copy(frozen["List"])) is list

    @settings(**FAST)
    @given(MAYBE_REJECTED)
    def test_freeze_raises_what_walk_raises(self, value):
        try:
            expected = walk_value(value)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                freeze_value(value)
            assert str(raised.value) == str(exc)
        else:
            assert freeze_value(value) == expected

    @settings(**FAST)
    @given(UPDATE_ROWS, UPDATES)
    def test_copy_on_write_update_is_the_deep_copy_update(self, row,
                                                          updates):
        table = Table("data", KeySchema("Key"))
        table.put(row)
        existing = table._get_raw(("a",))
        snapshot = copy_item(existing)
        try:
            expected = reference_update(existing, updates)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                table.draft(("a",), existing, updates)
            assert str(raised.value) == str(exc)
        else:
            new = table.draft(("a",), existing, updates)
            assert (new, new.size) == expected
            assert type(new) is FrozenRow and all_frozen_row(new)
        # The stored row and every value in it are as they were.
        assert existing == snapshot and all_frozen_row(existing)

    @pytest.mark.parametrize("operation", sorted(WRITES))
    def test_every_container_inside_a_stored_row_is_frozen(self,
                                                           operation):
        store = fresh_store()
        row = nested_row("a")
        WRITES[operation](store, row)
        stored_row = store.table("data")._get_raw(("a",))
        assert copy_item(stored_row) == nested_row("a")
        found = containers(list(stored_row.values()))[1:]
        assert len(found) == 7  # three lists, three maps, a set
        assert all(refuses_mutation(c) for c in found)
        assert row == nested_row("a")  # the caller's item is its own

    @pytest.mark.parametrize("operation", sorted(READS))
    def test_a_read_hands_out_the_stored_values(self, operation):
        """Each row a read returns is a fresh plain ``dict`` holding the
        stored frozen values by reference (a projection builds fresh
        maps down to what it selects): no value is copied on the way
        out, and none can be changed."""
        store = fresh_store()
        store.put("data", nested_row("a"))
        stored_row = store.table("data")._get_raw(("a",))
        rows = READS[operation](store)
        assert rows and all(row for row in rows)
        for row in rows:
            assert type(row) is dict and row is not stored_row
            picked = dict(row)
            if operation == "projected query":
                # A projection builds a fresh map down to a member.
                assert type(row["Map"]) is dict
                assert row["Map"]["inner"] is stored_row["Map"]["inner"]
                del picked["Map"]
            assert all(value is stored_row[name]
                       for name, value in picked.items())

    def test_a_written_frozen_value_is_shared_not_copied(self):
        """One frozen value in two rows on both replicas is one object,
        across a failover too, and after a chain migration: it re-writes
        the rows it read, and a read hands out the stored values."""
        clock = NullTimeSource()
        groups = [ReplicaGroup(
            KVStore(time_source=clock, shard_id=shard),
            [KVStore(time_source=clock, shard_id=shard)],
            rand=RandomSource(7, "repl"), lag_scale=0.0)
            for shard in range(2)]
        store = ReplicatedStore(groups)
        store.create_table("data", hash_key="Key", range_key="RowId")
        shared, _size = freeze_value({"List": [1, {"m": 2}], "Set": {3}})
        store.put("data", {"Key": "k", "RowId": "r1", "V": shared})
        store.put("data", {"Key": "k", "RowId": "r2"})
        store.update("data", ("k", "r2"), [Set("V", shared)])
        owner = store.shard_for("data", "k")

        def values(node) -> list:
            return [node.table("data")._get_raw(("k", row_id))["V"]
                    for row_id in ("r1", "r2")]

        def held(shard) -> list:
            return [value for node in groups[shard].nodes
                    for value in values(node)]

        assert all(value is shared for value in held(owner))
        groups[owner].fail_leader()
        assert all(value is shared for value in held(owner))
        target = 1 - owner
        assert ChainMigrator(store).migrate([("data", "k", target)]) == 1
        moved = held(target)
        assert all(value is shared for value in moved)
        # Followers share the rows the target's leader stored.
        assert moved[0] is moved[2] and moved[1] is moved[3]
        assert shared == {"List": [1, {"m": 2}], "Set": {3}}
        assert type(shared) is FrozenMap


# -- every stored row records its size ----------------------------------------------
SIZE_ACTIONS = ACTIONS | st.builds(
    Add, PATHS, st.sets(SET_ELEMENTS, min_size=1, max_size=3)) | st.builds(
    Delete, PATHS, st.sets(SET_ELEMENTS, min_size=1, max_size=3)) | st.builds(
    Set, NAMES, VALUES) | st.builds(Remove, NAMES)  # whole attributes
SIZE_UPDATES = st.lists(SIZE_ACTIONS, min_size=1, max_size=4)


def replicated_pair() -> tuple:
    """Two shards of a leader and a follower each, shipping at once."""
    clock = NullTimeSource()
    store = ReplicatedStore([ReplicaGroup(
        KVStore(time_source=clock, shard_id=shard),
        [KVStore(time_source=clock, shard_id=shard)],
        rand=RandomSource(7, "repl"), lag_scale=0.0)
        for shard in range(2)])
    store.create_table("data", hash_key="Key")
    return store, clock


def attempt(write) -> None:
    """Run a write that the drawn actions may make invalid."""
    try:
        write()
    except ValidationError:
        pass


def assert_sizes_recorded(store, clock) -> None:
    """Every row on every node — once every follower has installed what
    shipped — records the size a walk of it measures."""
    clock.sleep(SHIP_LAG + 1)
    store.replication_lag()
    rows = [stored_row for leaf in leaves(store)
            for _key, stored_row in leaf.table("data")._iter_raw()]
    assert len(rows) >= 2 * 2  # a and b, on a leader and a follower
    for stored_row in rows:
        assert type(stored_row) is FrozenRow
        assert stored_row.size == measured_size(stored_row)
        assert item_size(stored_row) == stored_row.size


class TestRecordedRowSize:
    @settings(**dict(FAST, max_examples=100))
    @given(UPDATE_ROWS, SIZE_UPDATES, SIZE_UPDATES)
    def test_every_stored_row_records_the_size_a_walk_measures(
            self, row, updates, more):
        store, clock = replicated_pair()
        store.put("data", row)
        # One update per action, so one invalid action does not void
        # the rest; the first on "created" makes a row of just the key.
        for key, actions in (("a", updates), ("created", more)):
            for action in actions:
                attempt(lambda: store.update("data", key, [action]))
        store.batch_write("data", puts=[{**row, "Key": "b"}])
        attempt(lambda: store.transact_write([
            TransactPut("data", {**row, "Key": "c"}),
            TransactUpdate("data", "b", more)]))
        assert_sizes_recorded(store, clock)
        # A chain migration re-writes the rows it moves.
        source = store.shard_for("data", "a")
        assert ChainMigrator(store).migrate([("data", "a", 1 - source)]) == 1
        assert_sizes_recorded(store, clock)

    def test_an_update_lands_exactly_on_the_cap_and_not_a_byte_over(self):
        store = KVStore()
        store.create_table("data", hash_key="Key", max_item_bytes=CAP)
        store.put("data", {"Key": "a", "B": "x", "M": {"n": [1, {2}]}})
        table = store.table("data")
        # Re-sizing only "B" must land where a walk of the whole row does.
        room = CAP - table._get_raw(("a",)).size + 1
        store.update("data", ("a",), [Set("B", "y" * room)])
        at_cap = table._get_raw(("a",))
        assert at_cap.size == measured_size(at_cap) == CAP
        before = store.metering.copy()
        with pytest.raises(ItemTooLarge):
            store.update("data", ("a",), [Set("B", "z" * (room + 1))])
        with pytest.raises(ItemTooLarge):
            store.update("data", ("a",), [Set(path("M", "o"), "")])
        assert table._get_raw(("a",)) is at_cap
        assert not store.metering.diff(before)


# -- one object per distinct value ------------------------------------------------
#: Few scalars, so equal values (and equal-but-unlike ones) are common.
ALIKE_SCALARS = st.sampled_from(
    [0, 1, True, False, 1.0, 0.0, -0.0, 2.5, "a", "1", b"a", None])
ALIKE_VALUES = st.recursive(ALIKE_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=3),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from("ab"), children, max_size=2)),
    max_leaves=8)
ALIKE_CONTAINERS = st.one_of(
    st.lists(ALIKE_VALUES, max_size=3),
    st.dictionaries(st.sampled_from("abc"), ALIKE_VALUES, max_size=3))
#: A container and a second one: a deep copy of it, the same members
#: in another order, or another draw.
ALIKE_PAIRS = ALIKE_CONTAINERS.flatmap(lambda value: st.tuples(
    st.just(value), st.one_of(
        st.just(copy.deepcopy(value)),
        st.just(dict(reversed(list(value.items()))) if isinstance(
            value, dict) else list(reversed(value))),
        ALIKE_CONTAINERS)))


def signature(value):
    """What makes two values one stored object: the same structure (a
    tuple is a list), the same member names in the same order, the same
    exact member classes, and a float's every bit (its sign too)."""
    if isinstance(value, dict):
        return ("map", tuple((name, signature(member))
                             for name, member in value.items()))
    if isinstance(value, (list, tuple)):
        return ("list", tuple(signature(member) for member in value))
    if value.__class__ is float:
        return (float, value.hex())
    return (value.__class__, value)


class TestCanonicalValues:
    @settings(**FAST)
    @given(ALIKE_PAIRS)
    def test_one_object_exactly_when_the_values_are_alike(self, pair):
        first, second = pair
        item_model._canonical.clear()
        frozen, size = freeze_value(first)
        again, again_size = freeze_value(second)
        assert (again is frozen) == (signature(first) == signature(second))
        assert size == walk_value(first)[1]
        assert again_size == walk_value(second)[1]
        if again is frozen:
            assert frozen.size == size == again_size
        assert (frozen, again) == (walk_value(first)[0],
                                   walk_value(second)[0])

    @pytest.mark.parametrize("first, second", [
        ([1], [True]), ([1], [1.0]), ([True], [1.0]), ([0.0], [-0.0]),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}), (["1"], [1]),
        ([b"a"], ["a"]), ([Name("a")], ["a"])])
    def test_equal_but_unlike_values_never_share(self, first, second):
        assert freeze_value(second)[0] is not freeze_value(first)[0]

    @pytest.mark.parametrize("value", [[{1}], {"s": frozenset({1})},
                                       [Name("a")], [[{1}]]])
    def test_a_set_or_a_subclass_inside_is_never_looked_up(self, value):
        assert freeze_value(copy.deepcopy(value))[0] is not (
            freeze_value(value)[0])

    def test_a_value_frozen_without_a_lookup_is_its_own(self):
        value = {"n": "x", "List": [1, 2.5]}
        item_model._canonical.clear()
        shared = freeze_value(copy.deepcopy(value))[0]
        entries = dict(item_model._canonical)
        own, size = freeze_value(value, lookup=False)
        assert own is not shared and own == shared
        assert size == own.size == walk_value(value)[1]
        # Its members are looked up as ever; the table gained nothing.
        assert own["List"] is shared["List"]
        assert item_model._canonical == entries

    def test_a_map_an_update_grew_is_not_looked_up(self):
        store = fresh_store()
        store.put("data", {"Key": "a", "Log": {"k0": True}})
        item_model._canonical.clear()
        store.update("data", "a", [Set(path("Log", "k1"), False)])
        assert not item_model._canonical
        row = store.table("data")._get_raw(("a",))
        assert row["Log"] == {"k0": True, "k1": False} and all_frozen_row(row)
        assert row.size == measured_size(row)
        # A map an update shrank, or wrote whole, is looked up.
        store.update("data", "a", [Remove(path("Log", "k0"))])
        assert freeze_value({"k1": False})[0] is (
            store.table("data")._get_raw(("a",))["Log"])

    def test_alike_values_share_all_the_way_down(self):
        value = {"List": [1, {"m": [2.5, None]}], "Map": {"n": "x"}}
        frozen = freeze_value(value)[0]
        again = freeze_value(copy.deepcopy(value))[0]
        assert again is frozen
        assert freeze_value([copy.deepcopy(value["List"])])[0][0] is (
            frozen["List"])
        # A tuple freezes as the list it stands for.
        assert freeze_value((1, {"m": [2.5, None]}))[0] is frozen["List"]

    @settings(**dict(FAST, max_examples=50))
    @given(st.lists(ALIKE_CONTAINERS, min_size=1, max_size=12),
           st.integers(min_value=1, max_value=6))
    def test_clearing_the_table_mid_run_changes_no_stored_value(
            self, values, limit):
        """With a table of ``limit`` entries it is dropped wholesale
        again and again while rows are written: every stored value is
        still the value written, sized as a walk of it."""
        saved = item_model.CANONICAL_LIMIT
        item_model.CANONICAL_LIMIT = limit
        item_model._canonical.clear()
        try:
            store = fresh_store()
            for index, value in enumerate(values):
                store.put("data", {"Key": f"k{index}", "V": value})
                store.update("data", f"u{index}", [Set("V", value)])
                assert len(item_model._canonical) <= limit
            for index, value in enumerate(values):
                for key in (f"k{index}", f"u{index}"):
                    row = store.table("data")._get_raw((key,))
                    assert row["V"] == walk_value(value)[0]
                    assert row.size == measured_size(row)
                    assert all_frozen(row["V"])
        finally:
            item_model.CANONICAL_LIMIT = saved


# -- a partition of one row is the row ----------------------------------------------
HASHES = st.sampled_from(["h0", "h1", "h2"])
RANGES = st.sampled_from(["r0", "r1", 0, 1])
RANGE_OPS = st.one_of(
    st.tuples(st.just("put"), HASHES, RANGES, st.integers(0, 3)),
    st.tuples(st.just("update"), HASHES, RANGES, st.integers(0, 3)),
    st.tuples(st.just("delete"), HASHES, RANGES),
    st.tuples(st.just("migrate"), HASHES),
    st.tuples(st.just("failover"), st.integers(0, 1)))


def ranged_pair() -> tuple:
    """Two shards of a leader and a follower each, a range-keyed table
    indexed on ``Ix``, shipping at once."""
    clock = NullTimeSource()
    groups = [ReplicaGroup(
        KVStore(time_source=clock, shard_id=shard),
        [KVStore(time_source=clock, shard_id=shard)],
        rand=RandomSource(7, "repl"), lag_scale=0.0) for shard in range(2)]
    store = ReplicatedStore(groups)
    store.create_table("data", hash_key="H", range_key="R")
    for node in (node for group in groups for node in group.nodes):
        node.table("data").add_index("by_ix", "Ix")
    return store, groups


def model_order(rows: list) -> list:
    return sorted(rows, key=lambda row: (_sort_token(row["H"]),
                                         _sort_token(row["R"])))


def assert_answers_as(store, model: dict) -> None:
    """Every read, on the store and on each leaf's table, answers what
    the dict-of-dicts reference holds (a whole-store scan or index
    query merges the shards in no particular order; a leaf's is in key
    order)."""
    every = model_order([row for part in model.values()
                         for row in part.values()])
    assert model_order(store.scan("data").items) == every
    for hash_value in ("h0", "h1", "h2"):
        assert store.query("data", hash_value).items == model_order(
            list(model.get(hash_value, {}).values()))
        for range_value in ("r0", "r1", 0, 1):
            assert store.get("data", (hash_value, range_value)) == (
                model.get(hash_value, {}).get(range_value))
    for ix in range(4):
        assert model_order(store.query_index("data", "by_ix", ix)) == [
            row for row in every if row["Ix"] == ix]
    for leaf in leaves(store):
        table = leaf.table("data")
        held = {key: dict(row) for key, row in table._iter_raw()}
        assert table.item_count() == len(held)
        assert table.scan().items == model_order(list(held.values()))
        for (hash_value, range_value), row in held.items():
            assert table._get_raw((hash_value, range_value)) == row
            assert (row["H"], row["R"]) == (hash_value, range_value)
        # A partition of one row is the row itself; two or more, a map.
        for hash_value, partition in table._partitions.items():
            rows = [key for key in held if key[0] == hash_value]
            assert (type(partition) is FrozenRow) == (len(rows) == 1)


class TestBarePartitions:
    @settings(**dict(FAST, max_examples=100))
    @given(st.lists(RANGE_OPS, min_size=1, max_size=25))
    def test_answers_as_a_dict_of_dicts(self, operations):
        store, groups = ranged_pair()
        model: dict = {}
        for operation in operations:
            kind, *args = operation
            if kind in ("put", "update"):
                hash_value, range_value, ix = args
                if kind == "put":
                    row = {"H": hash_value, "R": range_value, "Ix": ix}
                    store.put("data", row)
                else:
                    row = dict(model.get(hash_value, {}).get(
                        range_value, {"H": hash_value, "R": range_value}))
                    row["Ix"] = ix
                    store.update("data", (hash_value, range_value),
                                 [Set("Ix", ix)])
                model.setdefault(hash_value, {})[range_value] = row
            elif kind == "delete":
                hash_value, range_value = args
                part = model.get(hash_value, {})
                assert store.delete("data", (hash_value, range_value)) == (
                    part.pop(range_value, None) is not None)
                if not part:
                    model.pop(hash_value, None)
            elif kind == "migrate":
                (hash_value,) = args
                target = 1 - store.shard_for("data", hash_value)
                ChainMigrator(store).migrate([("data", hash_value, target)])
            else:
                groups[args[0]].fail_leader()
            assert_answers_as(store, model)

    def test_a_partition_grows_to_a_map_and_shrinks_back_to_the_row(self):
        table = Table("data", KeySchema("H", "R"))
        table.put({"H": "h", "R": "b", "V": 1})
        only = table._get_raw(("h", "b"))
        assert table._partitions["h"] is only
        table.put({"H": "h", "R": "a", "V": 2})
        assert type(table._partitions["h"]) is dict
        assert [row["R"] for row in table.query("h").items] == ["a", "b"]
        assert table.delete(("h", "a")) and not table.delete(("h", "a"))
        assert table._partitions["h"] is only
        assert table.query("h").items == [{"H": "h", "R": "b", "V": 1}]
        assert table._get_raw(("h", "a")) is None
        assert not table.delete(("h", "a")) and table.item_count() == 1
        assert table.delete(("h", "b")) and table._partitions == {}
