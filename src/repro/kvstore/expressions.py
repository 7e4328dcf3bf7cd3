"""Condition and update expression language.

A structured (AST-based) equivalent of the part of DynamoDB's expression
strings that Beldi writes, and nothing more — a form comes back together
with its first caller:

- **conditions** evaluate against an item (possibly ``None`` for a missing
  item) and return a bool — used for conditional writes, query filters, and
  scan filters: ``attribute_exists``, ``attribute_not_exists``, ``=``,
  ``>``, ``size(...) <``, ``AND`` and ``OR`` (also written ``a | b``);
- **updates** mutate an item in place — ``SET`` (with ``+`` and
  ``if_not_exists`` operands) and ``REMOVE``. The item is a table's draft:
  a shallow copy of a stored row, whose values are frozen
  (:mod:`repro.kvstore.item`). A path swaps each frozen map it changes
  for a mutable copy on the way down, and every operand resolves to a
  frozen value, so an update copies only what it changes and never
  touches the stored row.

Paths address nested map members: ``path("RecentWrites", log_key)`` is
the member ``RecentWrites.<log_key>``. Beldi's linked DAAL relies on
exactly this: a single conditional update can test
``attribute_not_exists(RecentWrites.k) AND size(RecentWrites) < N AND
attribute_not_exists(NextRow)`` and apply ``SET Value=v,
LogSize=LogSize+1, RecentWrites.k=True`` atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.kvstore.errors import ValidationError
from repro.kvstore.item import (
    FrozenMap,
    compare_values,
    freeze_value,
    value_size,
)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

_ABSENT = object()  # what a row's ``get`` answers for a missing name


@dataclass(frozen=True)
class Path:
    """An attribute path: a top-level name, then nested map member names."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValidationError("empty attribute path")
        for segment in self.segments:
            if not isinstance(segment, str):
                raise ValidationError(
                    f"a path names attributes only, not {segment!r}")

    @property
    def top(self) -> str:
        return self.segments[0]

    def get(self, item: Optional[dict]) -> tuple[bool, Any]:
        """Return ``(present, value)`` for this path in ``item`` (a
        ``dict``, or a stored :class:`~repro.kvstore.item.FrozenRow`)."""
        if item is None:
            return False, None
        node: Any = item.get(self.segments[0], _ABSENT)
        if node is _ABSENT:
            return False, None
        for segment in self.segments[1:]:
            if not isinstance(node, dict) or segment not in node:
                return False, None
            node = node[segment]
        return True, node

    def set(self, item: dict, value: Any) -> None:
        """Set the path in ``item``, creating missing intermediate maps
        (and thawing frozen ones, :func:`_thawed`). A scalar or a list on
        the way is kept, so the path meets it and raises
        :class:`ValidationError`."""
        node: Any = item
        for segment in self.segments[:-1]:
            if not isinstance(node, dict):
                raise ValidationError(
                    f"cannot descend into non-map at {segment!r}")
            if segment not in node:
                node[segment] = {}
            node = _thawed(node, segment)
        last = self.segments[-1]
        if not isinstance(node, dict):
            raise ValidationError(f"cannot set {last!r} on non-map")
        node[last] = value

    def remove(self, item: dict) -> None:
        """Remove the path from ``item``; missing paths are a no-op."""
        if not self.get(item)[0]:
            return
        node: Any = item
        for segment in self.segments[:-1]:
            node = _thawed(node, segment)
        node.pop(self.segments[-1])

    def __str__(self) -> str:
        return ".".join(self.segments)


def _thawed(node: dict, name: str) -> Any:
    """``node[name]``, which an update is about to change: a frozen map
    there is first replaced by a mutable shallow copy. ``node`` itself
    is already mutable — the draft, or a copy made on the way."""
    child = node[name]
    if child.__class__ is FrozenMap:
        child = node[name] = dict(child)
    return child


def path(*segments: str) -> Path:
    """Convenience constructor: ``path("RecentWrites", key)``."""
    return Path(tuple(segments))


def _as_path(value: Union[str, Path]) -> Path:
    if isinstance(value, Path):
        return value
    return Path((value,))


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

class Condition:
    """Base class; subclasses implement ``evaluate(item) -> bool``."""

    def evaluate(self, item: Optional[dict]) -> bool:
        raise NotImplementedError

    def __or__(self, other: "Condition") -> "Or":
        return Or(self, other)


class _PathCondition(Condition):
    def __init__(self, target: Union[str, Path]) -> None:
        self.path = _as_path(target)


class AttrExists(_PathCondition):
    def evaluate(self, item: Optional[dict]) -> bool:
        present, _ = self.path.get(item)
        return present


class AttrNotExists(_PathCondition):
    def evaluate(self, item: Optional[dict]) -> bool:
        present, _ = self.path.get(item)
        return not present


class _Comparison(Condition):
    """Comparison against a constant; false when the path is missing."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        self.value = value


class Eq(_Comparison):
    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        return present and lhs == self.value


class Gt(_Comparison):
    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        return present and compare_values(lhs, self.value) > 0


_SIZED = (str, bytes, list, dict, set, frozenset)


class SizeLt(_Comparison):
    """``size(path) < value``; false when the path is missing or holds a
    value without a size (a number, a bool, ``None``)."""

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        return present and isinstance(lhs, _SIZED) and len(lhs) < self.value


class And(Condition):
    def __init__(self, *conditions: Condition) -> None:
        if not conditions:
            raise ValidationError("And() needs at least one condition")
        self.conditions = conditions

    def evaluate(self, item: Optional[dict]) -> bool:
        return all(c.evaluate(item) for c in self.conditions)


class Or(Condition):
    def __init__(self, *conditions: Condition) -> None:
        if not conditions:
            raise ValidationError("Or() needs at least one condition")
        self.conditions = conditions

    def evaluate(self, item: Optional[dict]) -> bool:
        return any(c.evaluate(item) for c in self.conditions)


# ---------------------------------------------------------------------------
# Update operands (right-hand sides of SET)
# ---------------------------------------------------------------------------

class Operand:
    def resolve(self, item: dict) -> Any:
        raise NotImplementedError


@dataclass(frozen=True)
class Value(Operand):
    value: Any

    def resolve(self, item: dict) -> Any:
        return freeze_value(self.value)[0]


@dataclass(frozen=True)
class IfNotExists(Operand):
    ref: Path
    default: Operand

    def resolve(self, item: dict) -> Any:
        present, value = self.ref.get(item)
        if present:
            return freeze_value(value)[0]
        return self.default.resolve(item)


@dataclass(frozen=True)
class Plus(Operand):
    left: Operand
    right: Operand

    def resolve(self, item: dict) -> Any:
        left, right = self.left.resolve(item), self.right.resolve(item)
        try:
            return left + right
        except TypeError:
            raise ValidationError(
                f"cannot add {type(right).__name__} to "
                f"{type(left).__name__}") from None


# ---------------------------------------------------------------------------
# Update actions
# ---------------------------------------------------------------------------

class UpdateAction:
    def apply(self, item: dict) -> None:
        raise NotImplementedError


class Set(UpdateAction):
    """``SET path = operand`` (a plain value is a :class:`Value`)."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        self.operand = value if isinstance(value, Operand) else Value(value)

    def apply(self, item: dict) -> None:
        # Every operand resolves through the validating walk, and a sum
        # of frozen values is a value the store models (frozen when the
        # table freezes the draft).
        self.path.set(item, self.operand.resolve(item))


class Remove(UpdateAction):
    """``REMOVE path`` — missing paths are a no-op."""

    def __init__(self, target: Union[str, Path]) -> None:
        self.path = _as_path(target)

    def apply(self, item: dict) -> None:
        self.path.remove(item)


def apply_updates(item: dict, updates: Sequence[UpdateAction]) -> None:
    """Apply a sequence of update actions to ``item`` in place."""
    for action in updates:
        action.apply(item)


@dataclass
class Projection:
    """Selects which top-level/nested attributes a read hands out.

    Beldi's traversal projects just ``RowId`` and ``NextRow`` so a scan of a
    linked DAAL downloads ~32 bytes per row rather than the whole row.

    The paths compile once, into a tree of the selected attributes in the
    order the paths first name them; :meth:`walk` then selects and sizes
    a row's selection in one pass, taking each selected value by
    reference. A path inside a value an earlier path selects whole adds
    nothing.
    """

    paths: list[Path] = field(default_factory=list)

    @classmethod
    def of(cls, *targets: Union[str, Path]) -> "Projection":
        return cls([_as_path(t) for t in targets])

    def __post_init__(self) -> None:
        # name -> None for a value selected whole, else its members' tree.
        tree: dict = {}
        for target in self.paths:
            node = tree
            *parents, last = target.segments
            for segment in parents:
                node = node.setdefault(segment, {})
                if node is None:
                    break  # inside a value an earlier path selects whole
            else:
                node[last] = None
        self._selected = _freeze(tree)

    def walk(self, row: dict) -> tuple[dict, int]:
        """``(the row's selected attributes, their bytes)``: fresh maps
        down to each selected value, which is ``row``'s own (a stored
        row's values are frozen), sized as a stored item would be."""
        return _walk_selected(row, self._selected)


def _freeze(tree: dict) -> tuple:
    """A compiled selection: ``(name, its UTF-8 length, members)`` per
    attribute, ``members`` being ``None`` for a value selected whole."""
    return tuple((name, len(name.encode("utf-8")),
                  None if members is None else _freeze(members))
                 for name, members in tree.items())


def _walk_selected(row: dict, selected: tuple) -> tuple[dict, int]:
    out = {}
    size = 0
    for name, name_bytes, members in selected:
        value = row.get(name, _ABSENT)
        if value is _ABSENT:
            continue
        if members is None:
            if value.__class__ is str:  # RowId, NextRow: the common case
                out[name] = value
                size += name_bytes + len(value.encode("utf-8"))
                continue
            out[name] = value
            value_bytes = value_size(value)
        elif isinstance(value, dict):
            picked, value_bytes = _walk_selected(value, members)
            if not picked:
                continue
            out[name] = picked
            # A map's own overhead, plus one byte per member.
            value_bytes += 3 + len(picked)
        else:
            continue
        size += name_bytes + value_bytes
    return out, size
