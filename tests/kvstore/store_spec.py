"""The store's spec: what ``src/`` asks of the store, as a plain model.

:class:`StoreSpec` answers the ten store operations, with the store's
own signatures, over one ``{key tuple: row}`` dict per table of plain
Python values. It reads the fields of the 14 expression forms and of
``Projection`` and evaluates them itself: nothing here calls a form's
``evaluate`` / ``resolve`` / ``apply``, ``repro.kvstore.item`` or a
table, so a defect there cannot agree with itself. It answers what one
node answers; a multi-shard transaction may raise any of its faults.

The rules are DynamoDB's (§2.2; the extended version's §4.1):

- a value is ``None``, a bool, a number, a string, bytes, a list (a
  tuple is one), a map with string keys or a set of numbers, strings or
  bytes; anything else, or a name that is not a string, raises
  ``ValidationError``;
- on a missing row or attribute, ``attribute_exists`` is false,
  ``attribute_not_exists`` true, ``=``, ``>`` and ``size <`` false;
  ``>`` across types raises ``ValidationError``;
- ``SET`` resolves its operand against the row as the earlier actions
  left it, ``if_not_exists(p, d)`` is ``p``'s value or else ``d``'s, and
  a path through a scalar, a list or a set raises ``ValidationError``;
  ``REMOVE`` of a missing path does nothing;
- an update creates a missing row from its key and may not change a
  key attribute; a row over the table's cap raises ``ItemTooLarge``; a
  failed condition raises ``ConditionFailed`` (``TransactionCanceled``
  in a transaction) and writes nothing;
- a transaction checks every condition, rejects an item named twice,
  builds every row, then writes all of them or none;
- a projection hands out the present selected paths in fresh maps; a
  read's bytes are its rows' :func:`size`; a scan walks rows in key
  order, its limit bounding the rows walked.

Where the store deliberately differs from DynamoDB:

- ``SET a.b = v`` creates a missing map ``a`` (the protocol's first
  ``SET RecentWrites.<log key>`` on a fresh row relies on it);
- ``=`` and an index lookup are Python equality: 1, 1.0 and True match;
- ``+`` adds numbers (a bool is 0 / 1) and joins two strings, two byte
  strings or two lists; anything else raises ``ValidationError``;
- ``size`` of a string counts characters, not UTF-8 bytes;
- ``>`` orders two bools, and an empty set is a value;
- conditions short-circuit left to right;
- an indexed attribute holds no map, list or set (``ValidationError``).
"""

from hypothesis import strategies as st

from repro.kvstore.errors import (
    ConditionFailed,
    ItemTooLarge,
    TableExists,
    TableNotFound,
    TransactionCanceled,
    ValidationError,
)
from repro.kvstore.expressions import (
    And,
    AttrExists,
    AttrNotExists,
    Eq,
    Gt,
    IfNotExists,
    Or,
    Path,
    Plus,
    Projection,
    Remove,
    Set,
    SizeLt,
    Value,
    path,
)
from repro.kvstore.surface import (
    BatchGetResult,
    BatchWriteResult,
    TransactPut,
    TransactUpdate,
)
from repro.kvstore.table import QueryResult

#: DynamoDB's item cap, and its cap on one ``BatchWriteItem``.
ITEM_CAP, BATCH_CAP = 400 * 1024, 25
_SCALAR = (int, float, str, bytes)


# -- values -------------------------------------------------------------------
def plain(value):
    """A fresh copy of ``value`` in plain containers, raising
    ``ValidationError`` for what the store does not model."""
    if value is None or isinstance(value, (bool, *_SCALAR)):
        return value
    if isinstance(value, (list, tuple)):
        return [plain(element) for element in value]
    if isinstance(value, dict):
        out = {}
        for key, element in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"map keys must be str, got {key!r}")
            out[key] = plain(element)
        return out
    if isinstance(value, (set, frozenset)):
        for element in value:
            if not isinstance(element, _SCALAR):
                raise ValidationError(
                    f"set elements must be scalar, got {element!r}")
        return set(value)
    raise ValidationError(f"unsupported attribute value: {value!r}")


def size(value) -> int:
    """A value's bytes: a number is ``len(str(n)) // 2 + 1``, a container
    3 plus its members (a list's and a map's one byte more each, a map's
    member names too)."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return len(str(value)) // 2 + 1
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return 3 + sum(len(key.encode("utf-8")) + size(member) + 1
                       for key, member in value.items())
    if isinstance(value, (set, frozenset)):
        return 3 + sum(size(member) for member in value)
    return 3 + sum(1 + size(member) for member in value)


def item_size(row: dict) -> int:
    return sum(len(name.encode("utf-8")) + size(value)
               for name, value in row.items())


def exact(value, ordered: bool = True):
    """What makes two answers one: types (a bool is no number, a frozen
    container is its plain kind), a float's every bit, and — ``ordered``
    — a map's member order."""
    if isinstance(value, dict):
        members = tuple((name, exact(member, ordered))
                        for name, member in value.items())
        return ("map", members if ordered else frozenset(members))
    if isinstance(value, list):
        return ("list", tuple(exact(member, ordered) for member in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(exact(member) for member in value))
    if value.__class__ is float:
        return (float, value.hex())
    return (value.__class__, value)


def key_order(key: tuple) -> tuple:
    """Keys order by part: None, bools, numbers, strings, bytes."""
    return tuple(map(_token, key))


def _token(value) -> tuple:
    for rank, kinds in enumerate((type(None), bool, (int, float), str,
                                  bytes)):
        if isinstance(value, kinds):
            return (rank, "" if value is None else value)
    return (5, str(value))


# -- paths, conditions, operands, actions -------------------------------------
def lookup(row, segments) -> tuple:
    """``(present, value)`` of a path in ``row`` (``None``: no row)."""
    node = row
    for segment in segments:
        if not isinstance(node, dict) or segment not in node:
            return False, None
        node = node[segment]
    return row is not None, node


def _order(left, right) -> int:
    if isinstance(left, bool) or isinstance(right, bool):
        comparable = isinstance(left, bool) and isinstance(right, bool)
    else:
        comparable = any(isinstance(left, kind) and isinstance(right, kind)
                         for kind in ((int, float), str, bytes))
    if not comparable:
        raise ValidationError(f"cannot compare {left!r} with {right!r}")
    return (left > right) - (left < right)


def holds(condition, row) -> bool:
    kind = condition.__class__
    if kind is And:
        return all(holds(part, row) for part in condition.conditions)
    if kind is Or:
        return any(holds(part, row) for part in condition.conditions)
    present, value = lookup(row, condition.path.segments)
    if kind is AttrExists:
        return present
    if kind is AttrNotExists:
        return not present
    if not present:
        return False
    if kind is Eq:
        return value == condition.value
    if kind is Gt:
        return _order(value, condition.value) > 0
    if kind is SizeLt:
        return (isinstance(value, (str, bytes, list, dict, set))
                and len(value) < condition.value)
    raise TypeError(f"not in the store's vocabulary: {condition!r}")


def resolve(operand, row):
    kind = operand.__class__
    if kind is Value:
        return plain(operand.value)
    if kind is IfNotExists:
        present, value = lookup(row, operand.ref.segments)
        return plain(value) if present else resolve(operand.default, row)
    if kind is Plus:
        left, right = resolve(operand.left, row), resolve(operand.right, row)
        numbers = (isinstance(left, (int, float))
                   and isinstance(right, (int, float)))
        if numbers or (left.__class__ is right.__class__
                       and isinstance(left, (str, bytes, list))):
            return left + right
        raise ValidationError(f"cannot add {right!r} to {left!r}")
    raise TypeError(f"not in the store's vocabulary: {operand!r}")


def put_at(row: dict, segments, value) -> None:
    node = row
    for segment in segments[:-1]:
        node = node.setdefault(segment, {})
        if not isinstance(node, dict):
            raise ValidationError(f"cannot set {segments[-1]!r} in {node!r}")
    node[segments[-1]] = value


def update_row(existing, key_attrs: dict, updates) -> dict:
    """The row ``updates`` make of ``existing`` (``None``: a row of just
    ``key_attrs``), raising ``ValidationError`` as the store must."""
    row = dict(key_attrs) if existing is None else plain(dict(existing))
    for action in updates:
        segments = action.path.segments
        if action.__class__ is Set:
            put_at(row, segments, resolve(action.operand, row))
        elif action.__class__ is Remove:
            if lookup(row, segments)[0]:
                del lookup(row, segments[:-1])[1][segments[-1]]
        else:
            raise TypeError(f"not in the store's vocabulary: {action!r}")
    for name, value in key_attrs.items():
        if row.get(name) != value:
            raise ValidationError(
                f"update may not modify key attribute {name!r}")
    return row


def project(row: dict, projection) -> dict:
    """The selected paths of ``row`` that are present, in fresh maps."""
    if projection is None:
        return plain(row)
    out: dict = {}
    for target in projection.paths:
        present, value = lookup(row, target.segments)
        if present:
            put_at(out, target.segments, plain(value))
    return out


# -- the model ----------------------------------------------------------------
class SpecTable:
    def __init__(self, hash_key: str, range_key, cap: int) -> None:
        self.names = tuple(name for name in (hash_key, range_key) if name)
        self.cap = cap
        self.rows: dict = {}
        self.indexes: dict = {}  # index name -> attribute

    def add_index(self, name: str, attribute: str) -> None:
        self.indexes[name] = attribute

    def key_of(self, key) -> tuple:
        if isinstance(key, dict):
            for name in self.names:
                if name not in key:
                    raise ValidationError(f"item missing key {name!r}")
            return tuple(key[name] for name in self.names)
        if isinstance(key, tuple):
            if len(key) != len(self.names):
                raise ValidationError(f"key tuple of {len(key)} parts")
            return key
        if len(self.names) > 1:
            raise ValidationError("table has a range key")
        return (key,)

    def get(self, key):
        row = self.rows.get(self.key_of(key))
        return None if row is None else plain(row)

    def admit(self, row: dict) -> dict:
        """``row``, if the table may hold it."""
        for attribute in self.indexes.values():
            if isinstance(row.get(attribute), (list, dict, set)):
                raise ValidationError("index attributes must be scalar")
        if item_size(row) > self.cap:
            raise ItemTooLarge(f"{item_size(row)} bytes over {self.cap}")
        return row

    def ordered(self, rows: dict) -> list:
        return [row for key, row in sorted(
            rows.items(), key=lambda pair: key_order(pair[0]))]

    def updated(self, key: tuple, updates) -> dict:
        return self.admit(update_row(self.rows.get(key),
                                     dict(zip(self.names, key)), updates))


def _check(condition, row, failure) -> None:
    if condition is not None and not holds(condition, row):
        raise failure("condition failed")


def _page(rows: list, projection, limit) -> QueryResult:
    walked = rows if limit is None else rows[:limit]
    items = [project(row, projection) for row in walked]
    return QueryResult(items, len(walked), sum(map(item_size, items)))


class StoreSpec:
    """The ten operations, on plain rows (see the module docstring)."""

    def __init__(self) -> None:
        self.tables: dict = {}

    def create_table(self, name, hash_key, range_key=None,
                     max_item_bytes=None) -> SpecTable:
        if name in self.tables:
            raise TableExists(name)
        self.tables[name] = SpecTable(hash_key, range_key,
                                      max_item_bytes or ITEM_CAP)
        return self.tables[name]

    def table(self, name: str) -> SpecTable:
        if name not in self.tables:
            raise TableNotFound(name)
        return self.tables[name]

    def get(self, table, key, consistency=None):
        return self.table(table).get(key)

    def put(self, table, item, condition=None) -> None:
        table = self.table(table)
        row = plain(item)
        key = table.key_of(row)
        _check(condition, table.rows.get(key), ConditionFailed)
        table.rows[key] = table.admit(row)

    def update(self, table, key, updates, condition=None, return_new=False):
        table = self.table(table)
        key = table.key_of(key)
        _check(condition, table.rows.get(key), ConditionFailed)
        row = table.rows[key] = table.updated(key, updates)
        return plain(row) if return_new else None

    def delete(self, table, key, condition=None) -> bool:
        table = self.table(table)
        key = table.key_of(key)
        _check(condition, table.rows.get(key), ConditionFailed)
        return table.rows.pop(key, None) is not None

    def query(self, table, hash_value, projection=None, limit=None,
              consistency=None) -> QueryResult:
        table = self.table(table)
        return _page(table.ordered({key: row for key, row in
                                    table.rows.items()
                                    if key[0] == hash_value}),
                     projection, limit)

    def scan(self, table, filter_condition=None, projection=None,
             limit=None, consistency=None) -> QueryResult:
        table = self.table(table)
        rows = table.ordered(table.rows)
        walked = rows if limit is None else rows[:limit]
        page = _page([row for row in walked if filter_condition is None
                      or holds(filter_condition, row)], projection, None)
        page.scanned_count = len(walked)
        return page

    def query_index(self, table, index_name, value,
                    consistency=None) -> list:
        table = self.table(table)
        if index_name not in table.indexes:
            raise ValidationError(f"no index named {index_name!r}")
        attribute = table.indexes[index_name]
        return [plain(row) for row in table.ordered(table.rows)
                if attribute in row and row[attribute] == value]

    def batch_get(self, table, keys, consistency=None) -> BatchGetResult:
        if not keys:
            return BatchGetResult()
        table = self.table(table)
        return BatchGetResult([table.get(key) for key in keys])

    def batch_write(self, table, puts=(), deletes=()) -> BatchWriteResult:
        puts, deletes = list(puts), list(deletes)
        if not puts and not deletes:
            return BatchWriteResult()
        table = self.table(table)
        if len(puts) + len(deletes) > BATCH_CAP:
            raise ValueError(f"over {BATCH_CAP} items")
        keys: list = []
        for row in puts + deletes:
            keys.append(table.key_of(row))
            if keys[-1] in keys[:-1]:
                raise ValueError("one key twice")
        rows = [table.admit(plain(item)) for item in puts]
        table.rows.update(zip(keys, rows))
        for key in keys[len(puts):]:
            table.rows.pop(key, None)
        return BatchWriteResult()

    def transact_write(self, ops) -> None:
        if not ops:
            return None
        tables = [self.table(op.table) for op in ops]
        targets = [(table, table.key_of(
            op.item if op.__class__ is TransactPut else op.key), op)
            for table, op in zip(tables, ops)]
        faults = [_fault(_check, op.condition, table.rows.get(key),
                         TransactionCanceled) for table, key, op in targets]
        if len({(id(table), key) for table, key, _op in targets}) < len(ops):
            faults.append(ValidationError("one item twice"))
        rows = [_fault(lambda: table.admit(plain(op.item))
                       if op.__class__ is TransactPut
                       else table.updated(key, op.updates))
                for table, key, op in targets]
        faults = [fault for fault in faults + rows
                  if isinstance(fault, Exception)]
        if faults:
            # One node raises the first fault; a multi-shard transaction
            # whichever its first failing shard finds first.
            faults[0].faults = {type(fault).__name__ for fault in faults}
            raise faults[0]
        for (table, key, _op), row in zip(targets, rows):
            table.rows[key] = row
        return None


def _fault(compute, *args):
    """``compute(*args)``, or the exception it raised."""
    try:
        return compute(*args)
    except Exception as exc:  # noqa: BLE001 — a fault is an answer here
        return exc


# -- what the property draws --------------------------------------------------
#: ``name -> (hash key, range key, item cap)``: a small cap on ``data``
#: so drawn rows cross it; both tables carry ``INDEX`` on every leaf.
TABLES = {"data": ("K", None, 30), "ranged": ("H", "R", None)}
INDEX = ("by_ix", "Ix")
KEYS = {"data": ["a", "b", "c"],
        "ranged": [("h0", "r0"), ("h0", "r1"), ("h0", 0), ("h1", 1)]}
HASHES = {"data": ["a", "b", "d"], "ranged": ["h0", "h1", "h2"]}
#: Few names, so paths and conditions meet what the writes stored; the
#: key names of both tables are ordinary attributes of the other.
NAMES = st.sampled_from(["A", "A", "Ix", "K", "H"])
MEMBERS = st.sampled_from(["x", "y"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                    st.floats(-100, 100), st.text("abé", max_size=12),
                    st.binary(max_size=3))
LEAVES = SCALARS | st.sets(st.integers(0, 2) | st.text("ab", max_size=2),
                           max_size=3)
#: Two maps deep at most: a recursive strategy draws several times slower.
LISTS = st.lists(LEAVES, max_size=3)
VALUES = st.one_of(LEAVES, LISTS, LISTS.map(tuple), st.dictionaries(
    MEMBERS, LEAVES | LISTS | st.dictionaries(MEMBERS, LEAVES, max_size=2),
    max_size=2))
#: One value in ten is one the store does not model.
ANY_VALUE = st.integers(0, 9).flatmap(
    lambda n: VALUES if n else st.sampled_from(
        [object(), {1: "v"}, {None}, 1j, path("A")]))
PATHS = st.builds(lambda top, rest: path(top, *rest), NAMES,
                  st.lists(MEMBERS, max_size=2))
ATOMS = st.one_of(
    st.builds(AttrExists, PATHS), st.builds(AttrNotExists, PATHS),
    st.builds(Eq, PATHS, VALUES), st.builds(Gt, PATHS, SCALARS),
    st.builds(SizeLt, PATHS, st.integers(0, 3)))
CONDITIONS = st.one_of(
    ATOMS, st.lists(ATOMS, min_size=1, max_size=3).map(lambda c: And(*c)),
    st.builds(lambda a, b: a | b, ATOMS, ATOMS))


def sometimes(strategy, one_in: int):
    """``strategy``'s value one time in ``one_in``, else ``None`` (a
    ``one_of`` would weigh each of its flattened branches alike)."""
    return st.integers(1, one_in).flatmap(
        lambda n: strategy if n == 1 else st.none())


MAYBE = sometimes(CONDITIONS, 2)
VALUE = st.builds(Value, ANY_VALUE)
OPERANDS = st.one_of(VALUE, st.builds(IfNotExists, PATHS, VALUE),
                     st.builds(Plus, VALUE | st.builds(
                         IfNotExists, PATHS, VALUE), VALUE))
UPDATES = st.lists(st.one_of(
    st.builds(Set, PATHS, OPERANDS), st.builds(Remove, PATHS),
    # SET a.x = v: through a map, a missing name, a scalar or a list.
    st.builds(lambda top, member, value: Set(path(top, member), value),
              st.sampled_from(["A", "Ix"]), MEMBERS, VALUES)), max_size=3)
PROJECTIONS = st.none() | st.lists(PATHS, min_size=1, max_size=3).map(
    lambda targets: Projection.of(*targets))
LIMITS = st.none() | st.integers(0, 4)
READ_AS = st.sampled_from([None, "strong", "eventual"])


#: One item in four carries a blob that a ``data`` row cannot hold.
BLOB = {"Blob": "é" * 14}
BLOBS = st.sampled_from([{}, {}, {}, BLOB])


def _item(table: str, attrs=st.dictionaries(NAMES, ANY_VALUE, max_size=3),
          more=BLOBS):
    names = TABLES[table][:2]
    return st.builds(
        lambda attrs, more, key: {**attrs, **more, **dict(zip(names, (
            key if isinstance(key, tuple) else (key,))))},
        attrs, more, st.sampled_from(KEYS[table]))


def _update(t: str):
    return st.tuples(st.just("update"), st.tuples(
        st.just(t), st.sampled_from(KEYS[t]), UPDATES, MAYBE, st.booleans()))


def _batch_write(t: str):
    return st.tuples(st.just("batch_write"), st.tuples(
        st.just(t), st.lists(_item(t), max_size=3),
        st.lists(st.sampled_from(KEYS[t]), max_size=2)))


def _calls(t: str):
    key, item, table = st.sampled_from(KEYS[t]), _item(t), st.just(t)
    return st.one_of(
        st.tuples(st.just("get"), st.tuples(table, key, READ_AS)),
        st.tuples(st.just("put"), st.tuples(table, item, MAYBE)),
        _update(t),
        st.tuples(st.just("delete"), st.tuples(table, key, MAYBE)),
        st.tuples(st.just("query"), st.tuples(
            table, st.sampled_from(HASHES[t]), PROJECTIONS, LIMITS,
            READ_AS)),
        st.tuples(st.just("scan"), st.tuples(
            table, MAYBE, PROJECTIONS, LIMITS, READ_AS)),
        st.tuples(st.just("query_index"), st.tuples(
            table, st.sampled_from([INDEX[0], "by_nothing"]), SCALARS,
            READ_AS)),
        st.tuples(st.just("batch_get"), st.tuples(
            table, st.lists(key, max_size=4), READ_AS)),
        _batch_write(t))


#: A condition on one transaction op in four, so that most transactions
#: get as far as building their rows.
SELDOM = sometimes(CONDITIONS, 4)
TRANSACT_OPS = st.one_of(*(st.one_of(
    # One put in two too big for ``data``: the rest of its transaction
    # must not land.
    st.builds(TransactPut, st.just(t), _item(
        t, more=st.sampled_from([{}, BLOB])), SELDOM),
    st.builds(TransactUpdate, st.just(t), st.sampled_from(KEYS[t]), UPDATES,
              SELDOM)) for t in TABLES))
TRANSACT_CALLS = st.tuples(st.just("transact_write"), st.tuples(
    st.lists(TRANSACT_OPS, max_size=3)))
#: ``(operation name, its arguments)``: any of the ten, on either table
#: (a ``one_of`` weighs its flattened branches alike, so an update or a
#: transaction one time in twenty).
CALLS = st.one_of(_calls("data"), _calls("ranged"), TRANSACT_CALLS)
#: What the property draws next: any call, an update, a transaction or
#: a batch write, one time in four each — the updates carry most of the
#: vocabulary, and a batch or a transaction is what may half-apply.
STEPS = st.sampled_from([
    CALLS, _update("data") | _update("ranged"), TRANSACT_CALLS,
    _batch_write("data") | _batch_write("ranged")]).flatmap(
        lambda calls: calls)
#: One unconditional put per key of both tables, of a row whose ``A`` is
#: a scalar, a list or a map and whose ``Ix`` is a scalar: what a nested
#: path meets on the way.
SEED_PUTS = st.tuples(*(st.tuples(st.just("put"), st.tuples(
    st.just(t), st.fixed_dictionaries({
        "A": SCALARS | st.lists(SCALARS, max_size=2) | st.dictionaries(
            MEMBERS, SCALARS, max_size=2), "Ix": SCALARS}).map(
        lambda attrs, t=t, key=key: {**attrs, **dict(zip(TABLES[t][:2], (
            key if isinstance(key, tuple) else (key,))))}),
    st.none())) for t in TABLES for key in KEYS[t]))


def show(value) -> str:
    """A drawn argument as a falsifying example should read it."""
    if isinstance(value, Path):
        return ".".join(value.segments)
    if isinstance(value, (list, tuple)):
        inner = ", ".join(map(show, value))
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if value.__class__.__module__.startswith("repro.kvstore"):
        fields = (show(field) for name, field in vars(value).items()
                  if not name.startswith("_"))
        return f"{value.__class__.__name__}({', '.join(fields)})"
    return repr(value)
