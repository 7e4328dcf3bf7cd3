"""One walk over the store tree, and one direct path to rows.

``surface.layers`` is the only code that knows how store layers nest: a
wrapper's ``inner`` store, a facade's ``nodes``. Overlap scopes, the
fault-timeline install, observability and ``BeldiEnv``'s index
declarations all go through it, and the only direct access to rows is a
leaf's ``KVStore.table(name)``. These tests pin the walk, what the env
builds with it on a replicated stack, and — by source, in the style of
``tests/core/test_single_definitions.py`` — that no second walk and no
second ``table()`` grows back.
"""

import ast
import pathlib

from repro.core import BeldiConfig, BeldiRuntime
from repro.core.env import PENDING_INDEX, SHADOW_TXN_INDEX
from repro.kvstore import KVStore, ReplicaGroup, ReplicatedStore, surface
from repro.kvstore.surface import layers, leaves
from repro.resilience import ResilientStore

SRC = pathlib.Path(surface.__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------

def test_the_walk_steps_through_the_wrapper_to_every_member():
    runtime = BeldiRuntime(seed=3, shards=2, replicas=2)
    try:
        wrapped = runtime._resilient_store
        walked = list(layers(wrapped))
        assert [type(layer) for layer in walked] == [
            ResilientStore, ReplicatedStore,
            ReplicaGroup, KVStore, KVStore,
            ReplicaGroup, KVStore, KVStore]
        # The wrapper forwards ``nodes``; the walk must not skip the
        # layer it forwards to.
        assert walked[1] is runtime.store
        assert list(leaves(wrapped)) == [
            member for group in runtime.store.nodes
            for member in group.nodes]
        # What the walk feeds: one timeline and one hub on every layer.
        assert all(layer.timeline is runtime.fault_timeline
                   for layer in walked[1:])
    finally:
        runtime.kernel.shutdown()


def test_a_leaf_is_its_own_walk():
    store = KVStore()
    assert list(layers(store)) == [store]
    assert list(leaves(store)) == [store]


# ---------------------------------------------------------------------------
# what BeldiEnv declares through it
# ---------------------------------------------------------------------------

def test_env_indexes_live_on_every_leaf_and_survive_a_failover():
    runtime = BeldiRuntime(seed=5, shards=2, replicas=2,
                           config=BeldiConfig(gc_t=1e12))
    try:
        ssf = runtime.register_ssf("f", lambda ctx, p: None, tables=["kv"])
        env = ssf.env
        shadow = env.shadow_table("kv")
        for leaf in leaves(runtime.store):
            assert leaf.replica_role in ("leader", "follower")
            assert PENDING_INDEX in leaf.table(env.intent_table)._indexes
            assert SHADOW_TXN_INDEX in leaf.table(shadow)._indexes
        store = runtime.store
        keys = [f"i{n}" for n in range(8)]
        for key in keys:
            store.put(env.intent_table, {"InstanceId": key,
                                         "Pending": "yes"})
        store.put(shadow, {"Key": "k", "RowId": "r", "TxnId": "t1"})
        for group in store.nodes:
            group.fail_leader()
        pending = store.query_index(env.intent_table, PENDING_INDEX, "yes")
        assert sorted(row["InstanceId"] for row in pending) == keys
        assert [row["RowId"] for row in store.query_index(
            shadow, SHADOW_TXN_INDEX, "t1")] == ["r"]
    finally:
        runtime.kernel.shutdown()


# ---------------------------------------------------------------------------
# the guard: no second walk, no second direct path
# ---------------------------------------------------------------------------

def _trees(root: pathlib.Path) -> dict:
    trees = {str(path.relative_to(root)): ast.parse(path.read_text())
             for path in sorted(root.rglob("*.py"))}
    assert len(trees) > 40, "the scan found almost nothing"
    return trees


def _reads_nodes(node: ast.AST) -> bool:
    """Does ``node`` read a ``nodes`` attribute, plainly or by
    ``getattr(x, "nodes", ...)``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "nodes":
            return True
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "getattr" and len(sub.args) > 1
                and isinstance(sub.args[1], ast.Constant)
                and sub.args[1].value == "nodes"):
            return True
    return False


def _calls_itself(func: ast.FunctionDef) -> bool:
    """Does ``func`` call itself, as ``name(...)`` or ``self.name(...)``?
    (A layer calling the same-named method *on a node* is one step of
    per-layer delegation — ``create_table``, ``metering`` — not a walk.)"""
    for sub in ast.walk(func):
        if isinstance(sub, ast.Call):
            callee = sub.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (isinstance(callee, ast.Attribute)
                    and callee.attr == func.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"):
                return True
    return False


#: The hand-written walks the one walk replaced: each layer's clock list
#: and the snapshot's leaf finder.
REPLACED = ("time_sources", "_time_sources", "_leaf_nodes")


def store_tree_walks(root: pathlib.Path) -> list:
    """``file:function`` of every hand-written walk of the store tree: a
    function that reads ``nodes`` and recurses, one that unrolls a level
    (a loop over ``nodes`` that reads ``nodes`` again inside), or one of
    the per-layer collectors the walk replaced."""
    found = []
    for name, tree in _trees(root).items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = any(
                isinstance(loop, ast.For) and _reads_nodes(loop.iter)
                and any(_reads_nodes(stmt) for stmt in loop.body)
                for loop in ast.walk(func))
            if (func.name in REPLACED or _reads_nodes(func)
                    and (_calls_itself(func) or nested)):
                found.append(f"{name}:{func.name}")
    return found


def table_methods(root: pathlib.Path) -> list:
    """``file:Class`` of every class that defines a ``table`` method."""
    return [f"{name}:{cls.name}"
            for name, tree in _trees(root).items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "table"]


def test_only_the_surface_walks_the_store_tree():
    # The one walk splits "what lies beneath" (``_beneath``, which reads
    # ``nodes``) from the recursion (``layers``), so it matches neither
    # shape above; every other shape is a second walk.
    assert store_tree_walks(SRC) == []
    functions = {func.name: func
                 for func in ast.walk(_trees(SRC)["kvstore/surface.py"])
                 if isinstance(func, ast.FunctionDef)}
    assert _calls_itself(functions["layers"])
    assert _reads_nodes(functions["_beneath"])


def test_only_a_leaf_hands_out_a_table():
    assert table_methods(SRC) == ["kvstore/store.py:KVStore"]
