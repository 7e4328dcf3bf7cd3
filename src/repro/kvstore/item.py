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

One walk family. :func:`freeze_item` / :func:`freeze_value` validate,
size and build the frozen copy the store keeps, taking frozen parts by
reference; the row itself is a :class:`FrozenRow`, which records its
size, so metering never walks a stored row again. :func:`freeze_update`
re-freezes and re-sizes only the attributes an update touched.
:func:`item_size` / :func:`value_size` size what is not frozen yet
(reading a frozen container's recorded size).
"""

from __future__ import annotations

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


class FrozenRow(FrozenMap):
    """A row the store keeps: read-only, its ``size`` the row's
    :func:`item_size` (names and values, without a map's overhead)."""

    __slots__ = ()


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


def freeze_value(value: Any) -> tuple[Any, int]:
    """``(frozen copy of value, value_size(value))`` in one pass, raising
    :class:`ValidationError` for a value the store does not model: a
    type outside the model, a map key that is not a ``str``, a set
    element that is not a scalar. A frozen part of ``value`` is taken
    by reference with its recorded size; a mutable part is copied into
    a new frozen one (tuples and lists into a :class:`FrozenList`, maps
    into a :class:`FrozenMap`, sets into a ``frozenset``). Nothing the
    copy holds is mutable, so the caller may keep mutating ``value``."""
    cls = value.__class__
    if cls is str:
        return value, len(value.encode("utf-8"))
    if cls is int or cls is float:
        return value, len(str(value)) // 2 + 1
    if cls is FrozenMap or cls is FrozenList:
        return value, value.size
    if cls is dict:
        out = {}
        size = 3
        for key, element in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"map keys must be str, got {key!r}")
            out[key], element_size = freeze_value(element)
            size += len(key.encode("utf-8")) + element_size + 1
        out = FrozenMap(out)
    elif cls is list or cls is tuple:
        out = []
        size = 3
        for element in value:
            element, element_size = freeze_value(element)
            out.append(element)
            size += 1 + element_size
        out = FrozenList(out)
    elif cls is bool or value is None:
        return value, 1
    elif isinstance(value, (set, frozenset)):
        size = _set_size(value)
        return (value if cls is frozenset else frozenset(value)), size
    elif isinstance(value, dict):
        return freeze_value(dict(value))
    elif isinstance(value, (list, tuple)):
        return freeze_value(list(value))
    else:
        # Scalars (and their subclasses) are immutable: shared as they
        # are. Anything else is outside the model, and raises here.
        return value, value_size(value)
    out.size = size
    return out, size


def freeze_item(item: dict[str, Any]) -> FrozenRow:
    """The row the store keeps for ``item``: its values frozen, its
    size recorded, raising what :func:`freeze_value` raises for any
    value (and for a name that is not a ``str``)."""
    out = {}
    size = 0
    for name, value in item.items():
        if not isinstance(name, str):
            raise ValidationError(
                f"attribute names must be str, got {name!r}")
        out[name], value_bytes = freeze_value(value)
        size += len(name.encode("utf-8")) + value_bytes
    row = FrozenRow(out)
    row.size = size
    return row


def freeze_update(existing: FrozenRow, draft: dict[str, Any],
                  touched: Iterable[str]) -> FrozenRow:
    """:func:`freeze_item` of ``draft`` — a shallow copy of ``existing``
    that an update changed only in the top-level attributes ``touched``
    — freezing and sizing just those: every other value is
    ``existing``'s, frozen and sized already."""
    size = existing.size
    for name in touched:
        name_bytes = len(name.encode("utf-8"))
        if name in existing:
            size -= name_bytes + value_size(existing[name])
        if name in draft:
            draft[name], value_bytes = freeze_value(draft[name])
            size += name_bytes + value_bytes
    row = FrozenRow(draft)
    row.size = size
    return row


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
