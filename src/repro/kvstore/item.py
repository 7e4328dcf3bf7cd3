"""Item model: attribute values, frozen copies, and size accounting.

Items are plain ``dict``s mapping attribute names to values. Supported
value types mirror DynamoDB's: ``None``, ``bool``, ``int``, ``float``,
``str``, ``bytes``, ``list``, ``dict`` (map), and ``set``.

A value the store keeps is **frozen**: its maps and lists are
:class:`FrozenMap` / :class:`FrozenList` (a set is a ``frozenset``),
which refuse mutation and carry their byte size. A frozen value is
never copied again: every row, replica and log entry that holds it
shares the one object, writing it once more takes it by reference, and
a read hands it out as it is — nothing a reader holds can change a
stored row, because every container in it raises on mutation.

One object per distinct value: a map or list :func:`freeze_value`
builds is looked up in one module-level table (:data:`_canonical`) by
its structure — member names in order, each member's exact class and
value, a float to its sign, a nested container by its own canonical
object — and an alike value already frozen is handed out instead, with
its recorded size. So values that separate requests compute alike (two
intents' ``Args``, two searches' ``Ret``) are one object too. The table
is dropped wholesale at :data:`CANONICAL_LIMIT` entries; a stored value
keeps its object. Not looked up: sets, a container holding a set or a
scalar's subclass, and a value whose like never comes again, frozen
with ``lookup=False``: a map an update grew by members (a row's
``RecentWrites``, whose keys never repeat; :func:`freeze_update`) and
an intent's ``Caller`` (it names one call).

One row, one tuple. The row itself is not a map but a
:class:`FrozenRow`, the tuple ``(names, size, *values)``: its names,
which are one tuple per distinct row shape (:data:`_shapes`) shared by
every row of that shape — a workload's thousands of rows come in a
handful of shapes — then its recorded size (so metering never walks a
stored row again), then its values in the order of its names. It
answers the read-only mapping protocol, and builds the fresh ``dict``
a read hands out in one step (:meth:`FrozenRow.as_dict`).

One walk family. :func:`freeze_item` / :func:`freeze_value` validate,
size and build the frozen copy the store keeps, taking frozen parts by
reference; a container's structural key is built in the same walk, one
member at a time. :func:`freeze_update` re-freezes and re-sizes only
the attributes an update touched. :func:`item_size` /
:func:`value_size` size what is not frozen yet (reading a frozen
container's recorded size).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Iterable

from repro.kvstore.errors import ValidationError


def _refuse(self, *args: Any, **kwargs: Any) -> None:
    raise TypeError("a stored value is read-only; copy it to change it")


class FrozenMap(dict):
    """A map the store owns: read-only, sized once (``size``)."""

    __slots__ = ("size",)

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # A copy (``copy``, ``deepcopy``, pickle) is a plain map.
        return dict, (dict(self),)


_item = tuple.__getitem__
_VALUES = slice(2, None)


class FrozenRow(tuple):
    """A row the store keeps: its names — one tuple per distinct shape
    (:data:`_shapes`), shared by every row of that shape — then its
    ``size`` (the row's :func:`item_size`: names and values, without a
    map's overhead), then its values in the order of its names.

    Read-only, it answers the mapping protocol the store's code uses on
    a stored row: ``row[name]``, ``get``, ``in``, ``len``, iteration
    over the names, ``keys`` / ``values`` / ``items`` (sequences in the
    row's order), ``==`` against a ``dict`` or another row, and
    :meth:`as_dict`, the fresh top-level ``dict`` a read hands out. A
    copy (``copy``, ``deepcopy``, pickle) is a plain ``dict``."""

    __slots__ = ()
    # The two fixed places, read in C (a namedtuple's field readers):
    # ``__getitem__`` is the lookup by name.
    _head = namedtuple("_head", "shape size")
    _shape, size = _head.shape, _head.size
    del _head

    @staticmethod
    def build(names: tuple, values: Iterable, size: int) -> "FrozenRow":
        """The row of ``values`` under ``names``, recording ``size``;
        ``names`` is swapped for the one shared tuple of its shape."""
        shape = _shapes.get(names)
        if shape is None:
            if len(_shapes) >= SHAPE_LIMIT:
                _shapes.clear()
            shape = _shapes[names] = names
        return FrozenRow((shape, size, *values))

    def keys(self) -> tuple:
        return self._shape

    def values(self) -> tuple:
        return _item(self, _VALUES)

    def items(self) -> tuple:
        return tuple(zip(self._shape, _item(self, _VALUES)))

    def as_dict(self) -> dict:
        return dict(zip(self._shape, _item(self, _VALUES)))

    def __getitem__(self, name: str) -> Any:
        try:
            return _item(self, self._shape.index(name) + 2)
        except ValueError:
            raise KeyError(name) from None

    def get(self, name: str, default: Any = None) -> Any:
        names = self._shape
        if name in names:
            return _item(self, names.index(name) + 2)
        return default

    def __contains__(self, name: object) -> bool:
        return name in self._shape

    def __iter__(self):
        return iter(self._shape)

    def __len__(self) -> int:
        return len(self._shape)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is FrozenRow:
            other = other.as_dict()
        elif not isinstance(other, dict):
            return NotImplemented
        return self.as_dict() == other

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __lt__(self, other: object) -> bool:
        return NotImplemented  # rows, like maps, have no order

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = None  # type: ignore[assignment]
    __setitem__ = __delitem__ = _refuse

    def __repr__(self) -> str:
        return f"FrozenRow({self.as_dict()!r})"

    def __reduce__(self):
        return dict, (self.as_dict(),)


class FrozenList(list):
    """A list the store owns: read-only, sized once (``size``)."""

    __slots__ = ("size",)

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = reverse = sort = clear = \
        _refuse

    def __reduce__(self):
        return list, (list(self),)


def value_size(value: Any) -> int:
    """Approximate DynamoDB on-disk size of a single value, in bytes."""
    cls = value.__class__
    if cls is FrozenMap or cls is FrozenList:
        return value.size
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        # DynamoDB numbers cost roughly (significant digits)/2 + 1; a
        # simple string-length proxy is close enough for metering.
        return max(1, len(str(value)) // 2 + 1)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 3 + sum(1 + value_size(v) for v in value)
    if isinstance(value, dict):
        return 3 + sum(len(k.encode("utf-8")) + value_size(v) + 1
                       for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return 3 + sum(value_size(v) for v in value)
    raise ValidationError(f"unsupported attribute value: {value!r}")


def item_size(item: dict[str, Any]) -> int:
    """Approximate stored size of an item (names + values), in bytes: a
    stored row's recorded size."""
    if item.__class__ is FrozenRow:
        return item.size
    return sum(len(name.encode("utf-8")) + value_size(value)
               for name, value in item.items())


def _set_size(value: Any) -> int:
    """``value_size`` of a set, raising for an element that is not a
    scalar."""
    size = 3
    for element in value:
        if not isinstance(element, (int, float, str, bytes)):
            raise ValidationError(
                f"set elements must be scalar, got {element!r}")
        size += value_size(element)
    return size


#: The canonical frozen containers, by structural key: the container's
#: class, then per member — a map's member name first — the member: a
#: ``str``, ``int``, ``bytes`` or ``None`` as it is (no two of those
#: classes hold equal values), a ``bool``, a ``float`` or a frozen
#: container as a tagged pair: a float as itself, or by ``hex()`` when
#: zero (``0.0 == -0.0``), a container by ``id`` (the entry's object
#: holds it, so the id stays its own). A container with any other
#: member (a set, a scalar's subclass) has no key.
_canonical: dict[tuple, Any] = {}
#: Entries ``_canonical`` holds before it is dropped wholesale: a stored
#: value keeps its object, and a later equal value starts a new one.
CANONICAL_LIMIT = 4_096
_FLOAT, _NESTED = range(2)
_TRUE, _FALSE = ("bool", True), ("bool", False)
#: The one names tuple of each row shape, by itself: every
#: :class:`FrozenRow` with these names in this order holds this tuple.
#: Dropped wholesale at :data:`SHAPE_LIMIT` entries; a row keeps its
#: tuple, and a later row of its shape starts a new one.
_shapes: dict[tuple, tuple] = {}
SHAPE_LIMIT = 4_096


def freeze_value(value: Any, lookup: bool = True) -> tuple[Any, int]:
    """``(frozen copy of value, value_size(value))`` in one pass, raising
    :class:`ValidationError` for a value the store does not model: a
    type outside the model, a map key that is not a ``str``, a set
    element that is not a scalar. A frozen part of ``value`` is taken
    by reference with its recorded size; a mutable part is copied into
    a new frozen one (tuples and lists into a :class:`FrozenList`, maps
    into a :class:`FrozenMap`, sets into a ``frozenset``). Nothing the
    copy holds is mutable, so the caller may keep mutating ``value``.

    A map or list built here is the one canonical object of its value:
    freezing an equal value — same member names in the same order, same
    member classes, same floats to the sign — hands out the object the
    first freeze built (see :data:`_canonical`); the walk that freezes
    each member also adds it to the key. ``lookup=False`` copies a
    mutable ``value`` into a new object of its own and leaves the table
    alone (its members are still looked up): for a value no other is
    ever alike, whose lookup could only miss and whose entry would only
    keep it alive."""
    cls = value.__class__
    if cls is str:
        return value, len(value.encode("utf-8"))
    if cls is int or cls is float:
        return value, len(str(value)) // 2 + 1
    if cls is FrozenMap or cls is FrozenList:
        return value, value.size
    if cls is dict:
        kind, out, members = FrozenMap, {}, value.items()
    elif cls is list or cls is tuple:
        kind, out, members = FrozenList, [None] * len(value), enumerate(value)
    elif cls is bool or value is None:
        return value, 1
    elif isinstance(value, (set, frozenset)):
        size = _set_size(value)
        return (value if cls is frozenset else frozenset(value)), size
    elif isinstance(value, dict):
        return freeze_value(dict(value), lookup)
    elif isinstance(value, (list, tuple)):
        return freeze_value(list(value), lookup)
    else:
        # Scalars (and their subclasses) are immutable: shared as they
        # are. Anything else is outside the model, and raises here.
        return value, value_size(value)
    size = 3
    key = [kind] if lookup else None
    for name, member in members:
        if kind is FrozenMap:
            if not isinstance(name, str):
                raise ValidationError(f"map keys must be str, got {name!r}")
            size += len(name.encode("utf-8"))
            if key is not None:
                key.append(name)
        member, member_size = freeze_value(member)
        out[name] = member
        size += member_size + 1
        if key is not None:
            member_cls = member.__class__
            if (member_cls is str or member_cls is int or member is None
                    or member_cls is bytes):
                key.append(member)
            elif member_cls is float:
                key.append((_FLOAT, member or member.hex()))
            elif member_cls is FrozenMap or member_cls is FrozenList:
                key.append((_NESTED, id(member)))
            elif member_cls is bool:
                key.append(_TRUE if member else _FALSE)
            else:  # a set, a scalar's subclass: never looked up
                key = None
    if key is not None:
        key = tuple(key)
        canonical = _canonical.get(key)
        if canonical is not None:
            return canonical, size
    out = kind(out)
    out.size = size
    if key is not None:
        if len(_canonical) >= CANONICAL_LIMIT:
            _canonical.clear()
        _canonical[key] = out
    return out, size


def freeze_item(item: dict[str, Any]) -> FrozenRow:
    """The row the store keeps for ``item``: its values frozen, its
    size recorded, raising what :func:`freeze_value` raises for any
    value (and for a name that is not a ``str``)."""
    values = []
    size = 0
    for name, value in item.items():
        if not isinstance(name, str):
            raise ValidationError(
                f"attribute names must be str, got {name!r}")
        value, value_bytes = freeze_value(value)
        values.append(value)
        size += len(name.encode("utf-8")) + value_bytes
    return FrozenRow.build(tuple(item), values, size)


def freeze_update(existing: FrozenRow, draft: dict[str, Any],
                  touched: Iterable[str]) -> FrozenRow:
    """:func:`freeze_item` of ``draft`` — ``existing.as_dict()`` that an
    update changed only in the top-level attributes ``touched`` —
    freezing and sizing just those: every other value is
    ``existing``'s, frozen and sized already.

    A touched map the update grew by members is a log (a row's
    ``RecentWrites``): its keys never repeat, so no other map is ever
    alike, and it is frozen without a lookup."""
    size = existing.size
    names = existing._shape
    for name in touched:
        name_bytes = len(name.encode("utf-8"))
        old = None
        if name in names:
            old = _item(existing, names.index(name) + 2)
            size -= name_bytes + value_size(old)
        if name in draft:
            value = draft[name]
            grown = (value.__class__ is dict and old.__class__ is FrozenMap
                     and len(value) > len(old))
            draft[name], value_bytes = freeze_value(value, lookup=not grown)
            size += name_bytes + value_bytes
    return FrozenRow.build(tuple(draft), draft.values(), size)


def compare_values(left: Any, right: Any) -> int:
    """Three-way comparison used by condition expressions.

    Only values of comparable types may be ordered; mixed-type comparisons
    raise ``ValidationError`` (DynamoDB rejects them too). Numbers compare
    numerically across int/float.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return (left > right) - (left < right)
        raise ValidationError(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    if isinstance(left, bytes) and isinstance(right, bytes):
        return (left > right) - (left < right)
    raise ValidationError(f"cannot compare {left!r} with {right!r}")
