"""Item model: attribute values, deep copies, and size accounting.

Items are plain ``dict``s mapping attribute names to values. Supported
value types mirror DynamoDB's: ``None``, ``bool``, ``int``, ``float``,
``str``, ``bytes``, ``list``, ``dict`` (map), and ``set``.

One walk family. :func:`walk_item` / :func:`walk_value` validate,
deep-copy and size a row in one pass: every row a round trip writes or
hands out, and every value an update action copies, goes through them
(a projected read walks only the attributes it selects, through
:meth:`~repro.kvstore.expressions.Projection.walk`). :func:`item_size` /
:func:`value_size` size a row without copying it, for rows that are
measured where they lie: storage totals, migration metering and a
transaction's planned rows.
"""

from __future__ import annotations

from typing import Any

from repro.kvstore.errors import ValidationError

def value_size(value: Any) -> int:
    """Approximate DynamoDB on-disk size of a single value, in bytes."""
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
    """Approximate stored size of an item (names + values), in bytes."""
    return sum(len(name.encode("utf-8")) + value_size(value)
               for name, value in item.items())


def walk_value(value: Any) -> tuple[Any, int]:
    """``(deep copy of value, value_size(value))`` in one pass, raising
    :class:`ValidationError` for a value the store does not model: a
    type outside the model, a map key that is not a ``str``, a set
    element that is not a scalar. The copy shares no container with
    ``value``; tuples come back as lists, frozensets as sets."""
    cls = value.__class__
    if cls is str:
        return value, len(value.encode("utf-8"))
    if cls is int or cls is float:
        return value, len(str(value)) // 2 + 1
    if cls is bool or value is None:
        return value, 1
    if cls is dict:
        out = {}
        size = 3
        for key, element in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"map keys must be str, got {key!r}")
            out[key], element_size = walk_value(element)
            size += len(key.encode("utf-8")) + element_size + 1
        return out, size
    if cls is list or cls is tuple:
        out = []
        size = 3
        for element in value:
            copied, element_size = walk_value(element)
            out.append(copied)
            size += 1 + element_size
        return out, size
    return _walk_other(value)


def _walk_other(value: Any) -> tuple[Any, int]:
    """:func:`walk_value` for bytes, sets and subclasses of the
    supported types, by ``isinstance`` like :func:`value_size`."""
    if value is None or isinstance(value, bool):
        return value, 1
    if isinstance(value, (int, float)):
        return value, len(str(value)) // 2 + 1
    if isinstance(value, str):
        return value, len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return value, len(value)
    if isinstance(value, (list, tuple)):
        return walk_value(list(value))
    if isinstance(value, dict):
        return walk_value(dict(value))
    if isinstance(value, (set, frozenset)):
        size = 3
        for element in value:
            if not isinstance(element, (int, float, str, bytes)):
                raise ValidationError(
                    f"set elements must be scalar, got {element!r}")
            size += value_size(element)
        return set(value), size
    raise ValidationError(f"unsupported attribute value: {value!r}")


def walk_item(item: dict[str, Any]) -> tuple[dict[str, Any], int]:
    """``(deep copy of item, item_size(item))`` in one pass, raising
    what :func:`walk_value` raises for any value (and for a name that is
    not a ``str``); the store's one walk per row."""
    out = {}
    size = 0
    for name, value in item.items():
        if not isinstance(name, str):
            raise ValidationError(
                f"attribute names must be str, got {name!r}")
        cls = value.__class__
        if cls is str:
            out[name] = value
            size += len(name.encode("utf-8")) + len(value.encode("utf-8"))
            continue
        out[name], value_bytes = walk_value(value)
        size += len(name.encode("utf-8")) + value_bytes
    return out, size


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
