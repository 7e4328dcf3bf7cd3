"""The store surface is one declaration: every layer conforms to it.

``repro.kvstore.surface`` writes the ten operations once; ``KVStore``,
``ShardedStore``, ``ReplicaGroup`` and ``ResilientStore`` each handle
them *by kind*. These tests pin the seam:

(a) statically — the ten public names sit in each class's own
    ``__dict__`` (``perfbench/probes.py`` attaches there) with one
    identical signature, and the positional conventions the per-kind
    handlers index by hold;
(b) dynamically — one scripted sequence through all ten operations
    (hits, misses, failed conditions, empty and paged batches/scans,
    positional and keyword arguments, a cancelled transaction, an
    unknown table) gives the same answers on every stack of layers:
    identical return values, exception types, metering totals and final
    virtual clock on the single-placement stacks; identical return
    values, exceptions and final contents on the multi-shard ones.
"""

import inspect

import pytest

from repro.kvstore import (
    Add,
    AttrNotExists,
    Eq,
    Ge,
    KVStore,
    ReplicaGroup,
    ReplicatedStore,
    Set,
    ShardedStore,
    Table,
    TransactDelete,
    TransactPut,
    TransactUpdate,
    batch_get_all,
    batch_write_all,
)
from repro.kvstore.expressions import Projection
from repro.kvstore.store import NullTimeSource
from repro.kvstore.surface import (
    BATCH,
    KEYED_READ,
    KEYED_WRITE,
    OPS,
    TABLE_READ,
    TRANSACT,
)
from repro.resilience import ResilienceState, ResilientStore, RetryPolicy
from repro.sim import LatencyModel, RandomSource

LAYERS = (KVStore, ShardedStore, ReplicaGroup, ResilientStore)
OP_NAMES = ("get", "put", "update", "delete", "query", "scan",
            "query_index", "batch_get", "batch_write", "transact_write")
READS = ("get", "query", "scan", "query_index", "batch_get")


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

    def test_positional_conventions_the_handlers_index_by(self):
        for op in OPS:
            params = list(inspect.signature(op.entry).parameters)
            assert params[0] == "self"
            if op.kind != TRANSACT:
                assert params[1] == "table", op.name
            if op.name in READS:
                assert params[-1] == "consistency", op.name
            if op.kind == KEYED_WRITE:
                assert params[-1] == "condition", op.name
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
    """A query/scan page with its cursor made placement-neutral: a
    sharded scan's cursor is an opaque tagged tuple, so only whether the
    page was the last one is comparable across stacks."""
    return (result.items, result.last_evaluated_key is not None,
            result.scanned_count, result.consumed_bytes)


def run_script(store):
    """Drive all ten operations; return ``(outcomes, books, contents)``
    — books being the merged metering totals and the final clock."""
    out = []

    def step(label, fn, shape=lambda value: value):
        try:
            out.append((label, "ok", shape(fn())))
        except Exception as exc:  # noqa: BLE001 — the type *is* the outcome
            out.append((label, "raised", type(exc).__name__))

    store.create_table("data", hash_key="K")
    store.create_table("ranged", hash_key="H", range_key="R")
    store.create_table("empty", hash_key="K")
    store.table("ranged").add_index("by_tag", "Tag")
    only_v = Projection.of("V")

    # keyed reads and writes: hits, misses, failed conditions
    step("get miss", lambda: store.get("data", "a"))
    step("put", lambda: store.put("data", {"K": "a", "V": 1}))
    step("put if-absent", lambda: store.put(
        "data", {"K": "b", "V": 2}, AttrNotExists("K")))
    step("put if-absent again", lambda: store.put(
        "data", {"K": "b", "V": 3}, condition=AttrNotExists("K")))
    step("get projected", lambda: store.get("data", "a", only_v))
    step("get eventual", lambda: store.get(
        "data", "b", consistency="eventual"))
    step("get strong kw", lambda: store.get(
        "data", "b", projection=None, consistency="strong"))
    step("update creates", lambda: store.update(
        "data", "c", [Set("V", 1)]))
    step("update if", lambda: store.update(
        "data", "c", [Add("V", 2)], Eq("V", 1)))
    step("update if fails", lambda: store.update(
        "data", "c", [Add("V", 2)], condition=Eq("V", 1)))
    step("delete hit", lambda: store.delete("data", "a"))
    step("delete miss", lambda: store.delete("data", "a"))
    step("delete if fails", lambda: store.delete(
        "data", "c", Eq("V", 99)))

    # one partition: query, positional and keyword, paged, reversed
    for r in range(6):
        store.put("ranged", {"H": "h1", "R": r, "V": r * r,
                             "Tag": "even" if r % 2 == 0 else "odd"})
    store.put("ranged", {"H": "h2", "R": 0, "V": -1, "Tag": "even"})
    step("query all", lambda: store.query("ranged", "h1"), page)
    step("query miss", lambda: store.query("ranged", "nobody"), page)
    step("query range positional", lambda: store.query(
        "ranged", "h1", Ge("R", 4)), page)
    step("query filter+projection", lambda: store.query(
        "ranged", "h1", None, Eq("Tag", "odd"), only_v), page)
    first = store.query("ranged", "h1", limit=2)
    out.append(("query page 1", "ok", page(first)))
    step("query page 2", lambda: store.query(
        "ranged", "h1", limit=2,
        exclusive_start=first.last_evaluated_key), page)
    step("query reverse eventual", lambda: store.query(
        "ranged", "h1", reverse=True, limit=1, consistency="eventual"),
        page)

    # whole table: scans (empty, filtered, paged to the end), index reads
    step("scan empty", lambda: store.scan("empty"), page)
    step("scan filter positional", lambda: store.scan(
        "ranged", Eq("Tag", "even")),
        lambda r: (sorted(r.items, key=repr), r.scanned_count))
    pages, cursor = [], None
    while True:
        result = store.scan("ranged", limit=3, exclusive_start=cursor)
        pages.append(result)
        cursor = result.last_evaluated_key
        if cursor is None:
            break
    out.append(("scan paged rows", "ok", sorted(
        (item for result in pages for item in result.items), key=repr)))
    out.append(("scan paged counts", "ok",
                sum(result.scanned_count for result in pages)))
    step("index hit", lambda: store.query_index("ranged", "by_tag", "odd"))
    step("index miss eventual", lambda: store.query_index(
        "ranged", "by_tag", "prime", consistency="eventual"))
    step("index projected", lambda: store.query_index(
        "ranged", "by_tag", "even", Projection.of("H", "R", "Tag")))
    step("index unknown", lambda: store.query_index(
        "ranged", "by_nothing", "odd"))

    # batches: empty, mixed, malformed, paged through the *_all wrappers
    step("batch_get empty", lambda: store.batch_get("data", []), list)
    step("batch_get", lambda: store.batch_get(
        "data", ["b", "zz", "c"], None, "eventual"),
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
        store, "data", [f"p{i:02d}" for i in range(40)], only_v))

    # transactions: committed, cancelled (nothing applied), empty
    step("transact", lambda: store.transact_write([
        TransactPut("data", {"K": "t1", "V": 1}, AttrNotExists("K")),
        TransactUpdate("ranged", ("h1", 0), [Set("V", 100)]),
        TransactDelete("data", "w0")]))
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

    books = (store.metering.snapshot(), store.time_sources()[0].now())
    contents = {name: sorted(_all_rows(store, name), key=repr)
                for name in ("data", "ranged", "empty")}
    return out, books, contents


def _all_rows(store, table):
    rows, cursor = [], None
    while True:
        result = store.scan(table, exclusive_start=cursor)
        rows.extend(result.items)
        cursor = result.last_evaluated_key
        if cursor is None:
            return rows


@pytest.fixture(scope="module")
def reference():
    outcomes, books, contents = run_script(node())
    # The script must really exercise what it claims to.
    kinds = {outcome for _label, outcome, _value in outcomes}
    assert kinds == {"ok", "raised"}
    raised = {value for _label, outcome, value in outcomes
              if outcome == "raised"}
    assert {"ConditionFailed", "TransactionCanceled", "TableNotFound",
            "ValueError", "ValidationError"} <= raised
    assert set(books[0]) >= {"read", "write", "cond_write", "delete",
                             "query", "scan", "query_index", "batch_get",
                             "batch_write", "transact_write"}
    assert books[1] > 0, "the reference run must consume virtual time"
    return outcomes, books, contents


@pytest.mark.parametrize("wrapped", [False, True],
                         ids=["bare", "resilient"])
@pytest.mark.parametrize("stack", SINGLE)
def test_single_placement_stacks_are_indistinguishable(
        reference, stack, wrapped):
    store = SINGLE[stack]()
    if wrapped:
        store = resilient(store)
    outcomes, books, contents = run_script(store)
    assert outcomes == reference[0]
    assert books == reference[1], "metering totals / final virtual clock"
    assert contents == reference[2]


@pytest.mark.parametrize("wrapped", [False, True],
                         ids=["bare", "resilient"])
@pytest.mark.parametrize("stack", SPREAD)
def test_spread_stacks_answer_and_end_alike(reference, stack, wrapped):
    store = SPREAD[stack]()
    if wrapped:
        store = resilient(store)
    outcomes, _books, contents = run_script(store)
    assert outcomes == reference[0]
    assert contents == reference[2]
