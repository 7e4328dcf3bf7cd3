"""The store surface is one declaration: every layer conforms to it,
and every stack of layers answers what the store's spec answers.

``repro.kvstore.surface`` writes the ten operations once; ``KVStore``,
``ShardedStore``, ``ReplicaGroup`` and ``ResilientStore`` each handle
them *by kind*. ``store_spec.StoreSpec`` is the one model of what they
mean. These tests pin the seam:

(a) statically — the ten public names sit in each class's own
    ``__dict__`` (``perfbench/probes.py`` attaches there) with one
    identical signature, and the positional conventions the per-kind
    handlers index by hold;
(b) dynamically — one scripted sequence through all ten operations
    (hits, misses, failed conditions, empty and paged batches, limited
    and projected queries and scans,
    positional and keyword arguments, a cancelled transaction, an
    unknown table) answers and ends as the spec does on every stack,
    and the single-placement stacks book the bare node's metering
    totals and final virtual clock;
(c) by property — random sequences of the ten operations over the 14
    expression forms give every stack, bare and resilient, the spec's
    return values, exception types and contents: every leaf's rows,
    followers drained, each at the size it records. A rejected write (a
    failed condition, an oversized or unsupported item anywhere in a
    batch or a transaction) leaves every leaf as it was, books and ships
    nothing.
"""

import dataclasses
import inspect

import pytest
from hypothesis import HealthCheck, note, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import store_spec
from repro.kvstore import (
    AttrNotExists,
    Eq,
    Gt,
    IfNotExists,
    KVStore,
    ReplicaGroup,
    ReplicatedStore,
    Plus,
    Set,
    ShardedStore,
    Table,
    TransactPut,
    TransactUpdate,
    Value,
    batch_get_all,
    batch_write_all,
    path,
)
from repro.kvstore.expressions import Projection
from repro.kvstore.store import NullTimeSource
from repro.kvstore.table import QueryResult
from repro.kvstore.surface import (
    BATCH,
    KEYED_READ,
    KEYED_WRITE,
    OPS,
    TABLE_READ,
    TRANSACT,
    UPDATE,
    leaves,
)
from repro.resilience import ResilienceState, ResilientStore, RetryPolicy
from repro.sim import LatencyModel, RandomSource

LAYERS = (KVStore, ShardedStore, ReplicaGroup, ResilientStore)
OP_NAMES = ("get", "put", "update", "delete", "query", "scan",
            "query_index", "batch_get", "batch_write", "transact_write")
READS = ("get", "query", "scan", "query_index", "batch_get")


def add(name: str, amount: int) -> Set:
    """``SET name = if_not_exists(name, 0) + amount``."""
    return Set(name, Plus(IfNotExists(path(name), Value(0)), Value(amount)))


# -- (a) the static seam ---------------------------------------------------------
class TestDeclaredOnce:
    def test_the_declaration_lists_the_ten_operations(self):
        assert tuple(sorted(op.name for op in OPS)) == tuple(
            sorted(OP_NAMES))
        assert all(op.entry.__name__ == op.name for op in OPS)
        assert {op.kind for op in OPS} == {
            KEYED_READ, KEYED_WRITE, BATCH, TABLE_READ, TRANSACT}

    @pytest.mark.parametrize("name", OP_NAMES)
    def test_one_signature_on_every_layer(self, name):
        signatures = {cls.__name__: inspect.signature(getattr(cls, name))
                      for cls in LAYERS}
        assert len(set(signatures.values())) == 1, signatures

    @pytest.mark.parametrize("cls", LAYERS, ids=lambda c: c.__name__)
    def test_each_layer_owns_exactly_the_ten_names(self, cls):
        """In the class's *own* namespace, as plain functions (not
        inherited — per-layer probes attach there), each reaching a
        per-kind handler the class provides."""
        assert all(name in cls.__dict__ for name in OP_NAMES)
        assert all(inspect.isfunction(cls.__dict__[name])
                   for name in OP_NAMES)
        for op in OPS:
            assert callable(getattr(cls, f"_{op.kind}")), (
                f"{cls.__name__} has no handler for kind {op.kind!r}")

    def test_labels_find_the_condition_before_return_new(self):
        for return_new in (False, True):
            assert UPDATE.labels(("data", "c", [], Eq("V", 1),
                                  return_new)) == ("db.cond_write",
                                                   "cond_write")
            assert UPDATE.labels(("data", "c", [], None, return_new)) == (
                "db.write", "write")

    def test_reads_take_only_the_parameters_their_callers_pass(self):
        assert {name: list(inspect.signature(
            getattr(KVStore, name)).parameters)[2:] for name in READS} == {
            "get": ["key", "consistency"],
            "query": ["hash_value", "projection", "limit", "consistency"],
            "scan": ["filter_condition", "projection", "limit",
                     "consistency"],
            "query_index": ["index_name", "value", "consistency"],
            "batch_get": ["keys", "consistency"],
        }
        # A page is its rows and what they cost: there is no cursor.
        assert [f.name for f in dataclasses.fields(QueryResult)] == [
            "items", "scanned_count", "consumed_bytes"]

    def test_positional_conventions_the_handlers_index_by(self):
        for op in OPS:
            params = list(inspect.signature(op.entry).parameters)
            assert params[0] == "self"
            if op.kind != TRANSACT:
                assert params[1] == "table", op.name
            if op.name in READS:
                assert params[-1] == "consistency", op.name
            if op.kind == KEYED_WRITE:
                # The condition ends the call, or comes just before
                # update's return_new flag (StoreOp.labels reads it).
                assert params[-1 - op.returns_new] == "condition", op.name
                assert op.returns_new == (params[-1] == "return_new")
            if op.kind in (KEYED_READ, KEYED_WRITE, TABLE_READ):
                # After the table, the arguments are the Table method's.
                passed = params[2:-1] if op.name in READS else params[2:]
                expected = list(inspect.signature(
                    getattr(Table, op.name)).parameters)[1:]
                assert passed == expected, op.name


# -- (b) one script, every stack -------------------------------------------------
def node(shard_id=0, clock=None, seed=7):
    return KVStore(time_source=clock,
                   latency=LatencyModel(RandomSource(seed, "lat")),
                   rand=RandomSource(seed, "node"), shard_id=shard_id)


def group(shard_id=0, followers=0, seed=7):
    clock = NullTimeSource()
    members = [node(shard_id, clock, seed + i) for i in range(followers + 1)]
    return ReplicaGroup(members[0], members[1:],
                        rand=RandomSource(seed, "repl"),
                        latency=LatencyModel(RandomSource(seed, "ship")),
                        lag_scale=0.0)


def resilient(inner):
    state = ResilienceState(None, RandomSource(7, "resilience"),
                            RetryPolicy())
    return ResilientStore(inner, state)


#: Stacks with one placement: everything must match the bare node.
SINGLE = {
    "KVStore": lambda: node(),
    "ShardedStore x1": lambda: ShardedStore([node()]),
    "ReplicaGroup alone": lambda: group(),
    "ReplicatedStore 1x1": lambda: ReplicatedStore([group()]),
}
#: Stacks that spread rows: answers and contents must match.
SPREAD = {
    "ShardedStore x3": lambda: ShardedStore(
        [node(i, seed=7 + i) for i in range(3)]),
    "ReplicatedStore 2x2": lambda: ReplicatedStore(
        [group(i, followers=1, seed=7 + 10 * i) for i in range(2)]),
}


def page(result):
    """A query/scan page: its rows, the rows it walked and their bytes."""
    return (result.items, result.scanned_count, result.consumed_bytes)


def run_script(store):
    """Drive all ten operations (on a stack of layers or on the spec);
    return ``(outcomes, contents)``."""
    out = []

    def step(label, fn, shape=lambda value: value):
        try:
            out.append((label, "ok", shape(fn())))
        except Exception as exc:  # noqa: BLE001 — the type *is* the outcome
            out.append((label, "raised", type(exc).__name__))

    store.create_table("data", hash_key="K")
    store.create_table("ranged", hash_key="H", range_key="R")
    store.create_table("empty", hash_key="K")
    for leaf in leaves(store):
        leaf.table("ranged").add_index("by_tag", "Tag")
    only_v = Projection.of("V")

    # keyed reads and writes: hits, misses, failed conditions
    step("get miss", lambda: store.get("data", "a"))
    step("put", lambda: store.put("data", {"K": "a", "V": 1}))
    step("put if-absent", lambda: store.put(
        "data", {"K": "b", "V": 2}, AttrNotExists("K")))
    step("put if-absent again", lambda: store.put(
        "data", {"K": "b", "V": 3}, condition=AttrNotExists("K")))
    step("get strong positional", lambda: store.get("data", "a", "strong"))
    step("get eventual", lambda: store.get(
        "data", "b", consistency="eventual"))
    step("update creates", lambda: store.update(
        "data", "c", [Set("V", 1)]))
    step("update if", lambda: store.update(
        "data", "c", [add("V", 2)], Eq("V", 1)))
    step("update if fails", lambda: store.update(
        "data", "c", [add("V", 2)], condition=Eq("V", 1)))
    step("update returning the new row", lambda: store.update(
        "data", "c", [add("V", 1)], Eq("V", 3), return_new=True))
    step("update if fails returning", lambda: store.update(
        "data", "c", [add("V", 2)], Eq("V", 1), True))
    step("delete hit", lambda: store.delete("data", "a"))
    step("delete miss", lambda: store.delete("data", "a"))
    step("delete if fails", lambda: store.delete(
        "data", "c", Eq("V", 99)))

    # one partition: query, positional and keyword, projected, limited
    for r in range(6):
        store.put("ranged", {"H": "h1", "R": r, "V": r * r,
                             "Tag": "even" if r % 2 == 0 else "odd"})
    store.put("ranged", {"H": "h2", "R": 0, "V": -1, "Tag": "even"})
    step("query all", lambda: store.query("ranged", "h1"), page)
    step("query miss", lambda: store.query("ranged", "nobody"), page)
    step("query projection positional", lambda: store.query(
        "ranged", "h1", only_v), page)
    step("query limit", lambda: store.query("ranged", "h1", limit=2), page)
    step("query limit eventual positional", lambda: store.query(
        "ranged", "h1", None, 1, "eventual"), page)

    # whole table: scans (empty, filtered, projected, limited), index reads
    step("scan empty", lambda: store.scan("empty"), page)
    step("scan filter positional", lambda: store.scan(
        "ranged", Eq("Tag", "even")),
        lambda r: (sorted(r.items, key=repr), r.scanned_count))
    step("scan filter+projection", lambda: store.scan(
        "ranged", Gt("R", 3), projection=only_v),
        lambda r: (sorted(r.items, key=repr), r.scanned_count))
    # Which rows a limit leaves depends on placement; how many does not.
    step("scan limit", lambda: store.scan("ranged", limit=3),
         lambda r: (len(r.items), r.scanned_count))
    step("index hit", lambda: store.query_index("ranged", "by_tag", "odd"))
    step("index miss eventual", lambda: store.query_index(
        "ranged", "by_tag", "prime", consistency="eventual"))
    step("index unknown", lambda: store.query_index(
        "ranged", "by_nothing", "odd"))

    # batches: empty, mixed, malformed, paged through the *_all wrappers
    step("batch_get empty", lambda: store.batch_get("data", []), list)
    step("batch_get", lambda: store.batch_get(
        "data", ["b", "zz", "c"], "eventual"),
        lambda r: (list(r), r.unprocessed_indexes))
    step("batch_write empty", lambda: store.batch_write("data"),
         lambda r: r.complete)
    step("batch_write mixed", lambda: store.batch_write(
        "data", ({"K": f"w{i}", "V": i} for i in range(4)), ["b"]),
        lambda r: r.complete)
    step("batch_write too big", lambda: store.batch_write(
        "data", puts=[{"K": f"x{i}"} for i in range(26)]))
    step("batch_write repeats", lambda: store.batch_write(
        "data", [{"K": "r1"}, {"K": "r2"}], deletes=["r1"]))
    step("batch_write_all 40", lambda: batch_write_all(
        store, "data", puts=[{"K": f"p{i:02d}", "V": i}
                             for i in range(40)]))
    step("batch_get_all 40", lambda: batch_get_all(
        store, "data", [f"p{i:02d}" for i in range(40)]))

    # transactions: committed, cancelled (nothing applied), empty
    step("transact", lambda: store.transact_write([
        TransactPut("data", {"K": "t1", "V": 1}, AttrNotExists("K")),
        TransactUpdate("ranged", ("h1", 0), [Set("V", 100)]),
        TransactUpdate("data", "w0", [Set("V", -1)], Eq("V", 0))]))
    step("transact cancelled", lambda: store.transact_write([
        TransactPut("data", {"K": "t2", "V": 2}),
        TransactPut("data", {"K": "t1", "V": 9}, AttrNotExists("K"))]))
    step("transact empty", lambda: store.transact_write([]))
    step("cancelled left nothing", lambda: store.get("data", "t2"))

    # an unknown table is TableNotFound from every operation
    unknown = {
        "get": lambda: store.get("nope", "a"),
        "put": lambda: store.put("nope", {"K": "a"}),
        "update": lambda: store.update("nope", "a", [Set("V", 1)]),
        "delete": lambda: store.delete("nope", "a"),
        "query": lambda: store.query("nope", "a"),
        "scan": lambda: store.scan("nope"),
        "query_index": lambda: store.query_index("nope", "i", 1),
        "batch_get": lambda: store.batch_get("nope", ["a"]),
        "batch_write": lambda: store.batch_write("nope", [{"K": "a"}]),
        "transact_write": lambda: store.transact_write(
            [TransactPut("nope", {"K": "a"})]),
    }
    assert sorted(unknown) == sorted(OP_NAMES)
    for name, call in unknown.items():
        step(f"unknown table {name}", call)
        assert out[-1][1:] == ("raised", "TableNotFound"), out[-1]

    contents = {name: sorted(store.scan(name).items, key=repr)
                for name in ("data", "ranged", "empty")}
    return out, contents


def books(store) -> tuple:
    """The merged metering totals and the final virtual clock."""
    return store.metering.snapshot(), next(leaves(store)).time.now()


@pytest.fixture(scope="module")
def reference():
    """The spec's answers and contents, and the bare node's books."""
    outcomes, contents = run_script(store_spec.StoreSpec())
    bare = node()
    run_script(bare)
    books_ = books(bare)
    # The script must really exercise what it claims to.
    kinds = {outcome for _label, outcome, _value in outcomes}
    assert kinds == {"ok", "raised"}
    raised = {value for _label, outcome, value in outcomes
              if outcome == "raised"}
    assert {"ConditionFailed", "TransactionCanceled", "TableNotFound",
            "ValueError", "ValidationError"} <= raised
    assert set(books_[0]) >= {"read", "write", "cond_write", "delete",
                              "query", "scan", "query_index", "batch_get",
                              "batch_write", "transact_write"}
    assert books_[1] > 0, "the reference run must consume virtual time"
    return outcomes, books_, contents


@pytest.mark.parametrize("wrapped", [False, True],
                         ids=["bare", "resilient"])
@pytest.mark.parametrize("stack", SINGLE)
def test_single_placement_stacks_are_indistinguishable(
        reference, stack, wrapped):
    store = SINGLE[stack]()
    if wrapped:
        store = resilient(store)
    assert run_script(store) == (reference[0], reference[2])
    assert books(store) == reference[1], (
        "metering totals / final virtual clock")


@pytest.mark.parametrize("wrapped", [False, True],
                         ids=["bare", "resilient"])
@pytest.mark.parametrize("stack", SPREAD)
def test_spread_stacks_answer_and_end_alike(reference, stack, wrapped):
    store = SPREAD[stack]()
    if wrapped:
        store = resilient(store)
    assert run_script(store) == (reference[0], reference[2])


# -- (c) random sequences against the spec ------------------------------------------
#: The property's one budget: the same examples, calls each, every run.
SPEC_BUDGET = settings(max_examples=30, stateful_step_count=40,
                       derandomize=True, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])
WRITES = ("put", "update", "delete", "batch_write", "transact_write")
STACKS = {f"{name} {wrap}": (build, wrap)
          for name, build in {**SINGLE, **SPREAD}.items()
          for wrap in ("bare", "resilient")}


def prepared(store):
    for name, (hash_key, range_key, cap) in store_spec.TABLES.items():
        store.create_table(name, hash_key, range_key, cap)
        for leaf in leaves(store):
            leaf.table(name).add_index(*store_spec.INDEX)
    return store


def outcome(target, name: str, args: tuple):
    try:
        return "ok", getattr(target, name)(*args)
    except Exception as exc:  # noqa: BLE001 — the type *is* the outcome
        return "raised", exc


def answer(name: str, args: tuple, result, spread: bool):
    """What the contract fixes of one result: a projected row is a map
    (its member order is the store's), and a spread stack's whole-table
    scan merges its shards in an order of its own."""
    if name in ("query", "scan"):
        rows = [store_spec.exact(row, args[2] is None)
                for row in result.items]
        if spread and name == "scan":
            rows.sort(key=repr)
        return rows, result.scanned_count, result.consumed_bytes
    if name == "batch_get":
        return store_spec.exact(list(result)), result.unprocessed_indexes
    if name == "batch_write":
        return result.unprocessed_puts, result.unprocessed_deletes
    return store_spec.exact(result)


def agrees(spec, name: str, args: tuple, got, expected, spread: bool):
    if (spread and name == "scan" and args[3] is not None
            and args[3] < len(spec.table(args[0]).rows)):
        # Which rows a limit leaves is placement's: some of the spec's.
        every = outcome(spec, "scan", args[:3] + (None,) + args[4:])
        if got[0] == "raised":
            return every[0] == "raised" and type(got[1]) is type(every[1])
        rows, scanned, _bytes = answer(name, args, got[1], spread)
        return scanned == args[3] and (every[0] == "raised" or set(
            rows) <= set(answer(name, args, every[1], spread)[0]))
    if expected[0] == "raised":
        kinds = getattr(expected[1], "faults", ()) if spread else ()
        return got[0] == "raised" and (
            type(got[1]) is type(expected[1])
            or type(got[1]).__name__ in kinds)
    return got[0] == "ok" and (answer(name, args, got[1], spread)
                               == answer(name, args, expected[1], spread))


def booked_and_shipped(store) -> tuple:
    """What a call may book: the metering and the records shipped to
    followers (``ShardedStore`` and ``KVStore`` ship none)."""
    stats = (getattr(store, "replication_stats", None)
             or getattr(store, "stats", None))
    return store.metering.snapshot(), getattr(stats, "shipped", 0)


def held(spec) -> dict:
    """``table -> {key: (row, size)}`` a leaf may hold, as ``exact``
    compares rows."""
    return {name: {key: (store_spec.exact(row), store_spec.item_size(row))
                   for key, row in table.rows.items()}
            for name, table in spec.tables.items()}


def assert_holds(store, want: dict) -> None:
    """Every leaf holds the spec's rows (``held``) at their recorded sizes,
    each on as many leaves, and the store counts them."""
    if hasattr(store, "replication_lag"):
        store.replication_lag()  # drains every follower
    for name, rows in want.items():
        copies: dict = {}
        for leaf in leaves(store):
            for key, row in leaf.table(name)._iter_raw():
                assert (store_spec.exact(row.as_dict()), row.size) == (
                    rows.get(key)), (name, key, row, rows.get(key))
                copies[key] = copies.get(key, 0) + 1
        assert copies.keys() == rows.keys(), name
        assert len(set(copies.values())) <= 1, copies
        assert store.item_count(name) == len(rows), name


class StoreAgainstSpec(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.spec = prepared(store_spec.StoreSpec())
        self.stores = {label: prepared(resilient(build()) if wrap ==
                                       "resilient" else build())
                       for label, (build, wrap) in STACKS.items()}

    @initialize(puts=store_spec.SEED_PUTS)
    def seed(self, puts) -> None:
        """A row under every key first, so that the calls meet values of
        every kind."""
        for call in puts:
            self.call(call)

    @rule(call=store_spec.STEPS)
    def call(self, call) -> None:
        name, args = call
        note(name + store_spec.show(args))
        expected = outcome(self.spec, name, args)
        # A rejected write writes, ships and books nothing.
        rejected = expected[0] == "raised" and name in WRITES
        want = rejected and held(self.spec)
        for label, store in self.stores.items():
            booked = rejected and booked_and_shipped(store)
            got = outcome(store, name, args)
            assert agrees(self.spec, name, args, got, expected,
                          label.rsplit(" ", 1)[0] in SPREAD), (
                label, got, expected)
            if rejected:
                assert booked_and_shipped(store) == booked, label
                assert_holds(store, want)

    def teardown(self) -> None:
        want = held(self.spec)
        for store in self.stores.values():
            assert_holds(store, want)


TestStoreAgainstSpec = SPEC_BUDGET(StoreAgainstSpec).TestCase
