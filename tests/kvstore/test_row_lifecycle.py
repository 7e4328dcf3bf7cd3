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
- the store's one walk is the spec's (``store_spec``: its copy, size
  and error rules are the reference): a projected read
  (:meth:`Projection.walk`) hands out what the spec selects, at its
  size, and the bytes the store meters are the spec's size of the row;
- a stored value is frozen and shared: :func:`freeze_value` is the
  spec's copy and size, frozen; a copy-on-write update builds the
  spec's row; every container inside a stored row refuses mutation, a
  read hands out the stored values by reference, and one frozen value
  written to many rows on many replicas stays one object;
- an update that re-sizes only what it touched lands exactly on the
  item cap and not a byte over (every stored row's recorded size is
  the spec's: ``test_store_conformance.py``, and the record model);
- one distinct value is one object: two freezes return one object
  exactly when the values are alike — equal, with equal member classes,
  member order and float signs — at the size a walk measures, and
  dropping the table of canonical objects mid-run changes no stored
  value;
- a partition of one row is the row itself: a range-keyed table driven
  through every kind of write and read, a replica install, a chain
  migration and a failover answers as the spec does, with partitions
  growing from one row to two and shrinking back;
- a stored row is a read-only record of its values over one names
  tuple per shape: through every kind of write, replica installs,
  chain migrations, failovers and a table of shapes dropped mid-run,
  every mapping method of every stored row, and the ``dict`` a read
  hands out, answers as the spec's row in attribute order; every
  assignment or deletion raises, and two rows whose names differ only
  in order are two shapes that compare equal.

What an operation means is the spec's (``store_spec``); this module
checks how the store holds its rows."""

import copy
import pathlib
import pickle
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import store_spec

from repro.kvstore import (
    ChainMigrator,
    IfNotExists,
    ItemTooLarge,
    KeySchema,
    KVStore,
    Plus,
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
from repro.kvstore.expressions import Projection
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
    return {key: plain(row.as_dict())
            for key, row in node._tables["data"]._iter_raw()}


plain, spec_size, spec_item_size = (
    store_spec.plain, store_spec.size, store_spec.item_size)


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
        Projection.of("List", path("Map", "inner", "deep")))).items,
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
        group.put("data", {"Key": "a", "V": {"m": {"n": 1}}})
        settle(group, clock)
        old = group.leader._tables["data"]._get_raw(("a",))
        assert type(old) is FrozenRow and not isinstance(old, dict)
        assert all(node._tables["data"]._get_raw(("a",)) is old
                   for node in group.followers)
        group.update("data", ("a",), [Set(path("V", "m", "n"), 2)])
        assert group.get("data", "a") == {"Key": "a", "V": {"m": {"n": 2}}}
        assert group.get("data", "a", consistency=EVENTUAL) == {
            "Key": "a", "V": {"m": {"n": 1}}}
        assert old == {"Key": "a", "V": {"m": {"n": 1}}}
        settle(group, clock)
        assert group.get("data", "a", consistency=EVENTUAL) == {
            "Key": "a", "V": {"m": {"n": 2}}}
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
    @pytest.mark.parametrize("value, message", [
        ({1: "v"}, "map keys must be str, got 1"),
        ({"ok": [{None: 1}]}, "map keys must be str, got None"),
        ({None}, "set elements must be scalar, got None"),
        ([{(1,)}], "set elements must be scalar, got (1,)"),
        (1j, "unsupported attribute value: 1j"),
        ({"a": [Ellipsis]}, "unsupported attribute value: Ellipsis"),
    ])
    def test_each_rejection_has_validations_message(self, value, message):
        for walk in (plain, freeze_value):
            with pytest.raises(ValidationError) as raised:
                walk(value)
            assert str(raised.value) == message

    @settings(**FAST)
    @given(ROWS)
    def test_every_operation_meters_the_rows_item_size(self, row):
        size = spec_item_size(row)
        assert item_size(row) == size
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
            spec_item_size(new_row))
        before = store.metering.copy()
        store.transact_write([TransactUpdate("data", ("a",),
                                             [Set("N", 2)])])
        assert store.metering.diff(before)[
            "transact_write"].bytes_written == spec_item_size(
                store.get("data", "a"))

    def test_the_store_keeps_no_single_purpose_copy_or_check(self):
        """Under ``src/`` a check is the frozen walk, so it cannot drift
        from the size it meters, and no walk deep-copies a value to hand
        it out."""
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
        assert spec_item_size(store.get("data", "a")) == CAP
        with pytest.raises(ItemTooLarge):
            FILL[operation](store, "y" * (CAP - 4))
        assert store.get("data", "a")["B"] == "x" * (CAP - 5)


# -- a projected read is the spec's selection ----------------------------------------
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
    lambda top, rest: path(top, *rest), NAMES, st.lists(NAMES, max_size=3))
PROJECTIONS = st.lists(PATHS, min_size=1, max_size=4).map(
    lambda paths: Projection(paths))


class TestProjectedWalk:
    @settings(**FAST)
    @given(PROJECTED_ROWS, PROJECTIONS)
    def test_one_pass_is_the_specs_selection(self, row, projection):
        """Over a stored (frozen) row: the selection by reference is what
        the spec selects, at its size, each value selected whole is the
        stored object, and changing what it hands out cannot change the
        row."""
        stored_row = freeze_item(row)
        snapshot = plain(stored_row.as_dict())
        expected = store_spec.project(row, projection)
        out, size = projection.walk(stored_row)
        assert (out, size) == (expected, spec_item_size(expected))
        tops = [target.top for target in projection.paths]
        if len(set(tops)) == len(tops):
            # Key order follows the paths; it can differ from the two
            # walks' only where two paths share a top attribute.
            assert repr(plain(out)) == repr(expected)
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
        # A member path that meets a list selects nothing of its own.
        (["L", path("L", "x")], {"L": [1, 2]}, {"L": [1, 2]}),
        ([path("L", "x")], {"L": [1, 2]}, {}),
        # Top-level names, a nested one, a missing one; the DAAL's
        # traversal projection.
        (["a", "c"], {"a": 1, "b": 2, "c": 3}, {"a": 1, "c": 3}),
        ([path("m", "x")], {"m": {"x": 1, "y": 2}}, {"m": {"x": 1}}),
        (["a", "zzz"], {"a": 1}, {"a": 1}),
        (["RowId", "NextRow"], {"RowId": "HEAD", "Key": "k", "Value": "big",
                                "RecentWrites": {"a": True}, "NextRow": "r2"},
         {"RowId": "HEAD", "NextRow": "r2"}),
    ])
    def test_worked_examples(self, targets, row, expected):
        projection = Projection.of(*targets)
        assert projection.walk(row) == (expected, spec_item_size(expected))
        assert store_spec.project(row, projection) == expected


# -- stored values are frozen and shared ------------------------------------------
def all_frozen(value) -> bool:
    return all(isinstance(c, (FrozenMap, FrozenList, frozenset))
               for c in containers(value))


def all_frozen_row(row: FrozenRow) -> bool:
    """A stored row is a :class:`FrozenRow` record — read-only, not a
    ``dict`` — and every value in it is frozen."""
    return type(row) is FrozenRow and not isinstance(row, dict) and all(
        all_frozen(value) for value in row.values())


def all_plain(value) -> bool:
    return all(type(c) in (dict, list, set) for c in containers(value))


UPDATE_ROWS = st.dictionaries(NAMES, VALUES, max_size=3).map(
    lambda attrs: {"Key": "a", **attrs})


def bump(name: str) -> Set:
    """``SET name = if_not_exists(name, 0) + 1``, the DAAL's counter
    update (``LogSize``, ``Version``), on a name no other action writes."""
    return Set(name, Plus(IfNotExists(path(name), Value(0)), Value(1)))


ACTIONS = st.one_of(
    st.builds(Set, PATHS, VALUES),
    # A path operand: SET x = if_not_exists(y, NULL).
    st.builds(lambda target, source: Set(target, IfNotExists(
        source, Value(None))), PATHS, PATHS),
    st.builds(Remove, PATHS),
    # A sum of two lists: a plain list of frozen elements in the draft.
    st.builds(lambda target, value: Set(target, Plus(
        Value([value]), Value([value]))), PATHS, VALUES),
    st.just(bump("N")))
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
              FrozenList: lambda c: c.append(1),
              FrozenRow: lambda c: c.__setitem__("x", 1)}.get(type(container))
    if mutate is None:
        return isinstance(container, frozenset)
    with pytest.raises(TypeError, match="read-only"):
        mutate(container)
    return True


class TestFrozenValues:
    @settings(**FAST)
    @given(VALUES)
    def test_freeze_value_is_the_specs_copy_frozen(self, value):
        frozen, size = freeze_value(value)
        assert (frozen, size) == (plain(value), spec_size(value))
        assert value_size(value) == size
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
    def test_freeze_raises_what_the_spec_raises(self, value):
        try:
            expected = plain(value), spec_size(value)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                freeze_value(value)
            assert str(raised.value) == str(exc)
        else:
            assert freeze_value(value) == expected

    @settings(**FAST)
    @given(UPDATE_ROWS, UPDATES)
    def test_copy_on_write_update_is_the_specs_update(self, row, updates):
        table = Table("data", KeySchema("Key"))
        table.put(row)
        existing = table._get_raw(("a",))
        snapshot = plain(existing.as_dict())
        try:
            expected = store_spec.update_row(snapshot, {"Key": "a"},
                                             updates)
        except ValidationError:
            # The only refusal these actions can meet: a path through a
            # scalar, a list or a set on the way.
            with pytest.raises(ValidationError, match="non-map"):
                table.draft(("a",), existing, updates)
        else:
            new = table.draft(("a",), existing, updates)
            assert store_spec.exact(new.as_dict()) == store_spec.exact(
                expected)
            assert new.size == spec_item_size(expected)
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
        assert plain(stored_row.as_dict()) == nested_row("a")
        found = containers(list(stored_row.values()))[1:]
        assert len(found) == 7  # three lists, three maps, a set
        assert all(refuses_mutation(c) for c in found)
        # The row itself is a read-only record, not a map.
        assert all_frozen_row(stored_row) and refuses_mutation(stored_row)
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


class TestRecordedRowSize:
    """An update re-sizes only what it touched."""

    def test_an_update_lands_exactly_on_the_cap_and_not_a_byte_over(self):
        store = KVStore()
        store.create_table("data", hash_key="Key", max_item_bytes=CAP)
        store.put("data", {"Key": "a", "B": "x", "M": {"n": [1, {2}]}})
        table = store.table("data")
        # Re-sizing only "B" must land where a walk of the whole row does.
        room = CAP - table._get_raw(("a",)).size + 1
        store.update("data", ("a",), [Set("B", "y" * room)])
        at_cap = table._get_raw(("a",))
        assert at_cap.size == spec_item_size(at_cap) == CAP
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
        assert size == spec_size(first)
        assert again_size == spec_size(second)
        if again is frozen:
            assert frozen.size == size == again_size
        assert (frozen, again) == (plain(first), plain(second))

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
        assert size == own.size == spec_size(value)
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
        assert row.size == spec_item_size(row)
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
                    assert row["V"] == plain(value)
                    assert row.size == spec_item_size(row)
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


def in_key_order(rows: list) -> list:
    return sorted(rows, key=lambda row: store_spec.key_order(
        (row["H"], row["R"])))


def assert_answers_as(store, spec) -> None:
    """Every read, on the store and on each leaf's table, answers what
    the spec does (a whole-store scan merges the shards in an order of
    its own; a leaf's is in key order)."""
    assert in_key_order(store.scan("data").items) == spec.scan("data").items
    for hash_value in ("h0", "h1", "h2"):
        assert store.query("data", hash_value).items == spec.query(
            "data", hash_value).items
        for range_value in ("r0", "r1", 0, 1):
            key = (hash_value, range_value)
            assert store.get("data", key) == spec.get("data", key)
    for ix in range(4):
        assert store.query_index("data", "by_ix", ix) == spec.query_index(
            "data", "by_ix", ix)
    for leaf in leaves(store):
        table = leaf.table("data")
        held = {key: dict(row) for key, row in table._iter_raw()}
        assert table.item_count() == len(held)
        assert table.scan().items == in_key_order(list(held.values()))
        for (hash_value, range_value), row in held.items():
            assert table._get_raw((hash_value, range_value)) == row
            assert (row["H"], row["R"]) == (hash_value, range_value)
        # A partition of one row is the row itself, a FrozenRow record;
        # two or more, a plain map of them.
        for hash_value, partition in table._partitions.items():
            rows = [key for key in held if key[0] == hash_value]
            assert type(partition) is (FrozenRow if len(rows) == 1
                                       else dict)


class TestBarePartitions:
    @settings(**dict(FAST, max_examples=100))
    @given(st.lists(RANGE_OPS, min_size=1, max_size=25))
    def test_answers_as_the_spec(self, operations):
        store, groups = ranged_pair()
        spec = store_spec.StoreSpec()
        spec.create_table("data", "H", "R").add_index("by_ix", "Ix")
        for kind, *args in operations:
            if kind == "migrate":
                target = 1 - store.shard_for("data", args[0])
                ChainMigrator(store).migrate([("data", args[0], target)])
            elif kind == "failover":
                groups[args[0]].fail_leader()
            else:
                name, call = {
                    "put": lambda h, r, ix: ("put", (
                        "data", {"H": h, "R": r, "Ix": ix})),
                    "update": lambda h, r, ix: ("update", (
                        "data", (h, r), [Set("Ix", ix)])),
                    "delete": lambda h, r: ("delete", ("data", (h, r))),
                }[kind](*args)
                assert getattr(store, name)(*call) == getattr(spec, name)(
                    *call)
            assert_answers_as(store, spec)

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


# -- a stored row is its values over one shared shape --------------------------------
RECORD_KEYS = ["k0", "k1", "k2"]
RECORD_NAMES = st.sampled_from(["A", "B", "C"])
RECORD_VALUES = st.one_of(
    st.integers(0, 3), st.text(max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from("xy"), st.integers(0, 2), max_size=2))
RECORD_ATTRS = st.dictionaries(RECORD_NAMES, RECORD_VALUES, max_size=4)
RECORD_ACTIONS = st.lists(st.one_of(
    st.builds(Set, RECORD_NAMES, RECORD_VALUES),  # adds a name if absent
    st.builds(Remove, RECORD_NAMES),
    st.just(bump("N")),
    # A member of a map; raises on a list, so the update writes nothing.
    st.builds(lambda name, value: Set(path(name, "x"), value),
              RECORD_NAMES, RECORD_VALUES)), min_size=1, max_size=3)
RECORD_KEY = st.sampled_from(RECORD_KEYS)
RECORD_OPS = st.one_of(
    st.tuples(st.just("put"), RECORD_KEY, RECORD_ATTRS),
    st.tuples(st.just("update"), RECORD_KEY, RECORD_ACTIONS),
    st.tuples(st.just("batch"), st.lists(st.tuples(RECORD_KEY, RECORD_ATTRS),
                                         max_size=3, unique_by=lambda p: p[0])),
    st.tuples(st.just("transact"), st.permutations(RECORD_KEYS),
              RECORD_ATTRS, RECORD_ACTIONS),
    st.tuples(st.just("delete"), RECORD_KEY),
    st.tuples(st.just("migrate"), RECORD_KEY),
    st.tuples(st.just("failover"), st.integers(0, 1)),
    st.tuples(st.just("clear shapes")))


def assert_record_is(row, expected: dict) -> None:
    """Every mapping method of a stored row answers what the plain
    ``dict`` ``expected`` does, in the same attribute order."""
    assert type(row) is FrozenRow
    assert list(row) == list(row.keys()) == list(expected)
    assert list(row.values()) == list(expected.values())
    assert list(row.items()) == list(expected.items())
    assert len(row) == len(expected)
    for name, value in expected.items():
        assert name in row and row[name] == value
        assert row.get(name) == value and row.get(name, 7) == value
    assert "Absent" not in row and row.get("Absent") is None
    assert row.get("Absent", 7) == 7
    with pytest.raises(KeyError):
        row["Absent"]
    assert row == expected and expected == row and not row != expected
    fresh = row.as_dict()
    assert type(fresh) is dict and list(fresh.items()) == list(
        expected.items())
    assert all(fresh[name] is row[name] for name in fresh)
    for plain in (dict(row), copy.copy(row), copy.deepcopy(row),
                  pickle.loads(pickle.dumps(row))):
        assert type(plain) is dict and plain == expected
    assert row.size == spec_item_size(row)


class TestRowRecords:
    @settings(**dict(FAST, max_examples=100))
    @given(st.lists(RECORD_OPS, min_size=1, max_size=12),
           st.integers(min_value=1, max_value=4))
    # Removing a name and setting it again moves it to the end: the
    # same names, another shape.
    @example([("put", "k0", {"A": 1, "B": 2}),
              ("update", "k0", [Remove("A"), Set("A", 3)])], 4)
    def test_every_stored_row_answers_as_the_spec(self, operations, limit):
        """Through puts, updates that add and remove attributes, batches,
        transactions, replica installs, chain migrations, failovers and
        a shape table dropped again and again (it holds ``limit``
        shapes), every row on every node and every row a read hands out
        is the spec's."""
        saved = item_model.SHAPE_LIMIT
        item_model.SHAPE_LIMIT = limit
        item_model._shapes.clear()
        try:
            store, clock = replicated_pair()
            groups = list(store.groups)
            spec = store_spec.StoreSpec()
            spec.create_table("data", "Key")
            for kind, *args in operations:
                self.apply(store, groups, spec, kind, args)
                assert len(item_model._shapes) <= limit
                self.assert_answers_as(store, clock, spec.tables["data"].rows)
        finally:
            item_model.SHAPE_LIMIT = saved

    #: ``kind -> (operation, its arguments)`` of the drawn writes.
    WRITES = {
        "put": lambda key, attrs: ("put", ("data", {"Key": key, **attrs})),
        "update": lambda key, actions: ("update", ("data", key, actions)),
        "batch": lambda puts: ("batch_write", ("data", [
            {"Key": key, **attrs} for key, attrs in puts])),
        "transact": lambda keys, attrs, actions: ("transact_write", ([
            TransactPut("data", {"Key": keys[0], **attrs}),
            TransactUpdate("data", keys[1], actions)],)),
        "delete": lambda key: ("delete", ("data", key)),
    }

    @classmethod
    def apply(cls, store, groups, spec, kind, args) -> None:
        if kind in cls.WRITES:
            name, call = cls.WRITES[kind](*args)
            outcomes = []
            for target in (store, spec):
                try:
                    result = getattr(target, name)(*call)
                    outcomes.append(getattr(result, "complete", result))
                except ValidationError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], (kind, outcomes)
        elif kind == "migrate":
            (key,) = args
            target = 1 - store.shard_for("data", key)
            ChainMigrator(store).migrate([("data", key, target)])
        elif kind == "failover":
            groups[args[0]].fail_leader()
        else:
            item_model._shapes.clear()

    @staticmethod
    def assert_answers_as(store, clock, rows: dict) -> None:
        clock.sleep(SHIP_LAG + 1)
        store.replication_lag()  # every follower installs what shipped
        for key in RECORD_KEYS:
            read = store.get("data", key)
            assert read == rows.get((key,))
            if read is not None:
                assert type(read) is dict
                assert list(read.items()) == list(rows[(key,)].items())
        for read in store.scan("data").items:
            assert list(read.items()) == list(rows[(read["Key"],)].items())
        for leaf in leaves(store):
            for key, row in leaf.table("data")._iter_raw():
                assert_record_is(row, rows[key])

    def test_every_assignment_or_deletion_raises(self):
        row = freeze_item({"Key": "a", "V": [1], "W": 2})
        attempts = [
            lambda: row.__setitem__("V", 2),
            lambda: row.__setitem__("New", 1),
            lambda: row.__delitem__("V"),
            lambda: setattr(row, "size", 3),
            lambda: delattr(row, "size"),
            lambda: setattr(row, "extra", 1),
            lambda: row.update(V=2),
            lambda: row.pop("V"),
            lambda: row.clear(),
            lambda: row.setdefault("New", 1),
            lambda: row["V"].append(2),
        ]
        for mutate in attempts:
            with pytest.raises((TypeError, AttributeError)):
                mutate()
        assert_record_is(row, {"Key": "a", "V": [1], "W": 2})
        with pytest.raises(TypeError):
            hash(row)
        with pytest.raises(TypeError):
            row < row  # noqa: B015 - a map has no order

    def test_names_in_another_order_are_another_shape_but_equal(self):
        first = freeze_item({"Key": "a", "V": 1, "W": [2]})
        again = freeze_item({"Key": "b", "V": 3, "W": 4})
        turned = freeze_item({"Key": "a", "W": [2], "V": 1})
        assert again.keys() is first.keys()  # one tuple per shape
        assert turned.keys() is not first.keys()
        assert list(turned) != list(first)
        assert turned == first and not turned != first
        assert turned.as_dict() == first.as_dict()
        assert first != again and first != {"Key": "a", "V": 1}

    def test_clearing_the_shape_table_changes_no_stored_row(self):
        store = fresh_store()
        store.put("data", {"Key": "a", "Ix": "i", "V": 1})
        held = store.table("data")._get_raw(("a",))
        item_model._shapes.clear()
        store.put("data", {"Key": "b", "Ix": "i", "V": 2})
        store.update("data", "a", [Set("W", 3)])
        store.update("data", "a", [Remove("W")])
        assert_record_is(held, {"Key": "a", "Ix": "i", "V": 1})
        rows = {key: row for (key,), row in
                store.table("data")._iter_raw()}
        # A row keeps the tuple it was built with; later rows of its
        # shape share the table's new one.
        assert rows["b"].keys() is not held.keys()
        assert rows["a"].keys() is rows["b"].keys()
        assert_record_is(rows["a"], {"Key": "a", "Ix": "i", "V": 1})
        assert store.query_index("data", "by_ix", "i") == [
            {"Key": "a", "Ix": "i", "V": 1}, {"Key": "b", "Ix": "i", "V": 2}]
