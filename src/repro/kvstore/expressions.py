"""Condition and update expression language.

A structured (AST-based) equivalent of DynamoDB's expression strings:

- **conditions** evaluate against an item (possibly ``None`` for a missing
  item) and return a bool — used for conditional writes, query filters, and
  scan filters;
- **updates** mutate an item in place — ``SET`` (with arithmetic,
  ``if_not_exists`` and ``list_append`` operands), ``REMOVE``, ``ADD`` and
  ``DELETE``. The item is a table's draft: a shallow copy of a stored
  row, whose values are frozen (:mod:`repro.kvstore.item`). A path swaps
  each frozen container it changes for a mutable copy on the way down,
  and every operand resolves to a frozen value, so an update copies only
  what it changes and never touches the stored row.

Paths address nested attributes: ``path("RecentWrites", log_key)`` is the
map member ``RecentWrites.<log_key>``. Beldi's linked DAAL relies on exactly
this: a single conditional update can test ``attribute_not_exists(
RecentWrites.k) AND LogSize < N AND attribute_not_exists(NextRow)`` and
apply ``SET Value=v, LogSize=LogSize+1, RecentWrites.k=True`` atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

from repro.kvstore.errors import ValidationError
from repro.kvstore.item import (
    FrozenList,
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
    """An attribute path: top-level name plus nested map keys/list indexes."""

    segments: tuple[Union[str, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValidationError("empty attribute path")
        if not isinstance(self.segments[0], str):
            raise ValidationError("path must start with an attribute name")

    @property
    def top(self) -> str:
        return self.segments[0]  # type: ignore[return-value]

    def get(self, item: Optional[dict]) -> tuple[bool, Any]:
        """Return ``(present, value)`` for this path in ``item`` (a
        ``dict``, or a stored :class:`~repro.kvstore.item.FrozenRow`)."""
        if item is None:
            return False, None
        node: Any = item.get(self.segments[0], _ABSENT)
        if node is _ABSENT:
            return False, None
        for segment in self.segments[1:]:
            if isinstance(segment, str):
                if not isinstance(node, dict) or segment not in node:
                    return False, None
                node = node[segment]
            else:
                if not isinstance(node, list) or not (
                        0 <= segment < len(node)):
                    return False, None
                node = node[segment]
        return True, node

    def set(self, item: dict, value: Any) -> None:
        """Set the path in ``item``, creating intermediate maps as needed
        (and thawing frozen ones, :func:`_thawed`)."""
        node: Any = item
        for segment in self.segments[:-1]:
            if isinstance(segment, str):
                if not isinstance(node, dict):
                    raise ValidationError(
                        f"cannot descend into non-map at {segment!r}")
                if segment not in node or not isinstance(
                        node[segment], (dict, list)):
                    node[segment] = {}
            elif not isinstance(node, list) or not (
                    0 <= segment < len(node)):
                raise ValidationError(f"list index {segment} out of range")
            node = _thawed(node, segment)
        last = self.segments[-1]
        if isinstance(last, str):
            if not isinstance(node, dict):
                raise ValidationError(f"cannot set {last!r} on non-map")
            node[last] = value
        else:
            if not isinstance(node, list) or not (0 <= last < len(node)):
                raise ValidationError(f"list index {last} out of range")
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
        return ".".join(str(s) for s in self.segments)


def _thawed(node: Any, segment: Union[str, int]) -> Any:
    """``node[segment]``, which an update is about to change: a frozen
    container there is first replaced by a mutable shallow copy. ``node``
    itself is already mutable — the draft, or a copy made on the way."""
    child = node[segment]
    cls = child.__class__
    if cls is FrozenMap:
        child = node[segment] = dict(child)
    elif cls is FrozenList:
        child = node[segment] = list(child)
    return child


def path(*segments: Union[str, int]) -> Path:
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

    def __and__(self, other: "Condition") -> "And":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


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

    def _compare(self, lhs: Any) -> int:
        return compare_values(lhs, self.value)

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        return self._test(lhs)

    def _test(self, lhs: Any) -> bool:
        raise NotImplementedError


class Eq(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return lhs == self.value


class Ne(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return lhs != self.value


class Lt(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) < 0


class Le(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) <= 0


class Gt(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) > 0


class Ge(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) >= 0


class Between(Condition):
    def __init__(self, target: Union[str, Path], low: Any, high: Any) -> None:
        self.path = _as_path(target)
        self.low = low
        self.high = high

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        return (compare_values(lhs, self.low) >= 0
                and compare_values(lhs, self.high) <= 0)


class In(Condition):
    def __init__(self, target: Union[str, Path],
                 options: Iterable[Any]) -> None:
        self.path = _as_path(target)
        self.options = list(options)

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        return present and lhs in self.options


class BeginsWith(Condition):
    def __init__(self, target: Union[str, Path], prefix: str) -> None:
        self.path = _as_path(target)
        self.prefix = prefix

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        return present and isinstance(lhs, str) and lhs.startswith(
            self.prefix)


class Contains(Condition):
    def __init__(self, target: Union[str, Path], member: Any) -> None:
        self.path = _as_path(target)
        self.member = member

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        if isinstance(lhs, (str, list, set, frozenset)):
            return self.member in lhs
        return False


def _size_of(value: Any) -> Optional[int]:
    if isinstance(value, (str, bytes, list, dict, set, frozenset)):
        return len(value)
    return None


class _SizeComparison(Condition):
    def __init__(self, target: Union[str, Path], bound: int) -> None:
        self.path = _as_path(target)
        self.bound = bound

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        size = _size_of(lhs)
        if size is None:
            return False
        return self._test(size)

    def _test(self, size: int) -> bool:
        raise NotImplementedError


class SizeLt(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size < self.bound


class SizeLe(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size <= self.bound


class SizeGt(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size > self.bound


class SizeGe(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size >= self.bound


class SizeEq(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size == self.bound


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


class Not(Condition):
    def __init__(self, condition: Condition) -> None:
        self.condition = condition

    def evaluate(self, item: Optional[dict]) -> bool:
        return not self.condition.evaluate(item)


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
class PathRef(Operand):
    ref: Path

    def resolve(self, item: dict) -> Any:
        present, value = self.ref.get(item)
        if not present:
            raise ValidationError(f"path {self.ref} missing during update")
        return freeze_value(value)[0]


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
        return self.left.resolve(item) + self.right.resolve(item)


@dataclass(frozen=True)
class Minus(Operand):
    left: Operand
    right: Operand

    def resolve(self, item: dict) -> Any:
        return self.left.resolve(item) - self.right.resolve(item)


@dataclass(frozen=True)
class ListAppend(Operand):
    left: Operand
    right: Operand

    def resolve(self, item: dict) -> Any:
        left = self.left.resolve(item)
        right = self.right.resolve(item)
        if not isinstance(left, list) or not isinstance(right, list):
            raise ValidationError("list_append needs two lists")
        return left + right


def _as_operand(value: Any) -> Operand:
    if isinstance(value, Operand):
        return value
    if isinstance(value, Path):
        return PathRef(value)
    return Value(value)


# ---------------------------------------------------------------------------
# Update actions
# ---------------------------------------------------------------------------

class UpdateAction:
    def apply(self, item: dict) -> None:
        raise NotImplementedError


class Set(UpdateAction):
    """``SET path = operand`` (operand may reference other paths)."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        self.operand = _as_operand(value)

    def apply(self, item: dict) -> None:
        # Every operand resolves through the validating walk, and
        # arithmetic on frozen values yields values the store models
        # (a concatenation is a plain list of frozen elements, frozen
        # when the table freezes the draft).
        self.path.set(item, self.operand.resolve(item))


class Remove(UpdateAction):
    """``REMOVE path`` — missing paths are a no-op."""

    def __init__(self, target: Union[str, Path]) -> None:
        self.path = _as_path(target)

    def apply(self, item: dict) -> None:
        self.path.remove(item)


class Add(UpdateAction):
    """``ADD path value`` — numeric increment or set union."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        self.value = value

    def apply(self, item: dict) -> None:
        present, current = self.path.get(item)
        if isinstance(self.value, (int, float)) and not isinstance(
                self.value, bool):
            base = current if present else 0
            if not isinstance(base, (int, float)) or isinstance(base, bool):
                raise ValidationError(f"ADD to non-number at {self.path}")
            self.path.set(item, base + self.value)
        elif isinstance(self.value, (set, frozenset)):
            if present and not isinstance(current, (set, frozenset)):
                raise ValidationError(f"ADD set to non-set at {self.path}")
            base = set(current) if present else set()
            self.path.set(item, base | set(self.value))
        else:
            raise ValidationError("ADD needs a number or a set")


class Delete(UpdateAction):
    """``DELETE path value`` — set difference."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        if not isinstance(value, (set, frozenset)):
            raise ValidationError("DELETE needs a set")
        self.value = set(value)

    def apply(self, item: dict) -> None:
        present, current = self.path.get(item)
        if not present:
            return
        if not isinstance(current, (set, frozenset)):
            raise ValidationError(f"DELETE from non-set at {self.path}")
        self.path.set(item, set(current) - self.value)


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
    reference. A path inside a value an earlier path
    selects whole adds nothing. A list index is honoured only there: the
    projection builds maps, not lists, so a row that holds any other
    indexed path is rejected.
    """

    paths: list[Path] = field(default_factory=list)

    @classmethod
    def of(cls, *targets: Union[str, Path]) -> "Projection":
        return cls([_as_path(t) for t in targets])

    def __post_init__(self) -> None:
        # name -> None for a value selected whole, else its members' tree.
        tree: dict = {}
        self._rejected: list[tuple[Path, int]] = []
        for target in self.paths:
            node = tree
            depth = len(target.segments)
            for segment in target.segments:
                depth -= 1
                if isinstance(segment, int):
                    self._rejected.append((target, segment))
                    break
                if not depth:
                    node[segment] = None
                    break
                node = node.setdefault(segment, {})
                if node is None:
                    break  # inside a value an earlier path selects whole
        self._selected = _freeze(tree)

    def walk(self, row: dict) -> tuple[dict, int]:
        """``(the row's selected attributes, their bytes)``: fresh maps
        down to each selected value, which is ``row``'s own (a stored
        row's values are frozen), sized as a stored item would be."""
        for target, index in self._rejected:
            if target.get(row)[0]:
                raise ValidationError(f"list index {index} out of range")
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
