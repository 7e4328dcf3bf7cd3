"""Worked examples of the store's spec, and the store answering them.

Each row is one rule of ``store_spec`` for a condition or an update: the
spec must give its answer, and the store (a condition on a stored row,
a table's draft of an update) the spec's — a refusal by the spec's
error type, and with the store's own words in its message. Projections' examples sit with
the projected walk (``test_row_lifecycle.py``). Also: what a form
refuses to be built from, which the spec cannot state."""

import pytest

from repro.kvstore import (
    And,
    AttrExists,
    AttrNotExists,
    Eq,
    Gt,
    IfNotExists,
    KeySchema,
    Or,
    Plus,
    Remove,
    Set,
    SizeLt,
    Table,
    Value,
    path,
)
import store_spec
from repro.kvstore.errors import ValidationError
from repro.kvstore.expressions import Projection, apply_updates
from repro.kvstore.item import freeze_item

LOG = "inst-1.3"
#: The write wrapper's condition (Fig. 6).
BELDI_WRITE = And(AttrNotExists(path("RecentWrites", LOG)),
                  SizeLt("RecentWrites", 4), AttrNotExists(path("NextRow")))
AB = {"a": 1, "b": 2}
SIZED = {"l": [1, 2], "st": {"x", "y"}, "b": b"ab"}


def refused(fragment: str) -> tuple:
    """The store raises ``ValidationError`` with ``fragment`` in its
    message; the spec must raise the same type (its words are its own)."""
    return ValidationError, fragment


#: ``(condition, row — None: no row —, whether it holds or its refusal)``.
CONDITIONS = [
    (Eq("a", 5), {"a": 5}, True),
    (Eq("a", 5), {"a": 6}, False),
    (Eq("a", 5), {}, False),
    (Eq("a", 5), None, False),
    (Eq(path("m", "x"), 1), {"m": {"x": 1}}, True),
    (Eq(path("m", "y"), 1), {"m": {"x": 1}}, False),
    (Eq("a", "5"), {"a": 5}, False),
    (Eq("a", 5), {"a": "5"}, False),
    (Gt("n", 9), {"n": 10}, True),
    (Gt("n", 9.5), {"n": 10}, True),
    (Gt("n", 10), {"n": 10}, False),
    (Gt("n", 9), {}, False),
    (Gt("n", 0), None, False),
    (Gt("s", "a"), {"s": "b"}, True),
    (Gt("s", 5), {"s": "a"}, refused("cannot compare")),
    (AttrExists("a"), None, False),
    (AttrNotExists("a"), None, True),
    (AttrExists(path("m", "k")), {"m": {"k": None}}, True),
    (AttrNotExists(path("m", "z")), {"m": {"k": None}}, True),
    (AttrExists(path("l", "x")), {"l": [10, 20]}, False),
    (SizeLt("log", 3), {"log": AB}, True),
    (SizeLt("log", 2), {"log": AB}, False),
    (SizeLt("s", 4), {"s": "abc"}, True),
    *[(SizeLt(name, 3), SIZED, True) for name in SIZED],
    *[(SizeLt(name, 2), SIZED, False) for name in SIZED],
    (SizeLt("log", 3), {}, False),
    (SizeLt("n", 3), {"n": 1}, False),
    (And(Eq("a", 1), Eq("b", 2)), AB, True),
    (And(Eq("a", 1), Eq("b", 99)), AB, False),
    (Or(Eq("a", 99), Eq("b", 2)), AB, True),
    (Or(Eq("a", 99), Eq("b", 99)), AB, False),
    (And(Eq("a", 1), Eq("b", 9) | Eq("b", 2)), AB, True),
    (And(Eq("a", 9), Eq("b", 9) | Eq("b", 2)), AB, False),
    (Eq("a", 9) | Eq("b", 2), AB, True),
    (Eq("a", 9) | Eq("b", 9), AB, False),
    (Eq("a", 1) | Eq("b", 2) | Eq("c", 3), {"c": 3}, True),
    (Eq("a", 1) | Eq("b", 2) | Eq("c", 9), {"c": 3}, False),
    (BELDI_WRITE, {"RecentWrites": {}, "LogSize": 0}, True),
    (BELDI_WRITE, {"RecentWrites": {LOG: True}}, False),
    (BELDI_WRITE, {"RecentWrites": {f"k{i}": True for i in range(4)}}, False),
    (BELDI_WRITE, {"RecentWrites": {}, "NextRow": "row-2"}, False),
]


def counter(amount) -> Set:
    """``SET n = if_not_exists(n, 0) + amount``."""
    return Set("n", Plus(IfNotExists(path("n"), Value(0)), Value(amount)))


def sum_of(current, amount) -> tuple:
    return ([Set("V", Plus(IfNotExists(path("V"), Value(0)), Value(amount)))],
            {"V": current}, refused("cannot add"))


#: ``(updates, row, the row they make — or their refusal)``.
UPDATES = [
    ([Set("a", 2), Set("b", "x")], {"a": 1}, {"a": 2, "b": "x"}),
    ([Set(path("m", "k"), True)], {}, {"m": {"k": True}}),
    ([Set(path("a", "b", "c"), 7)], {}, {"a": {"b": {"c": 7}}}),
    # A path through a scalar or a list raises.
    ([Set(path("W", "x"), 1)], {"W": 5}, refused("non-map")),
    ([Set(path("W", "x", "y"), 1)], {"W": {"x": "s"}}, refused("non-map")),
    ([Set(path("l", "x"), 1)], {"l": [10, 20]}, refused("non-map")),
    ([Set(path("l", "x", "y"), 1)], {"l": [10, 20]}, refused("non-map")),
    ([counter(1)], {"n": 10}, {"n": 11}),
    ([counter(1), counter(1)], {}, {"n": 2}),
    ([counter(5), counter(-2)], {}, {"n": 3}),
    ([Set("b", IfNotExists(path("a"), Value(None)))], {"a": 5},
     {"a": 5, "b": 5}),
    ([Set("l", Plus(IfNotExists(path("l"), Value([])), Value([2, 3])))],
     {"l": [1]}, {"l": [1, 2, 3]}),
    sum_of("str", 1), sum_of([1], 1), sum_of({"a"}, {"b"}),
    ([Set("b", path("a"))], {"a": 5}, refused("unsupported")),
    ([Remove("a")], AB, {"b": 2}),
    ([Remove(path("m", "x"))], {"m": {"x": 1, "y": 2}}, {"m": {"y": 2}}),
    ([Remove(path("zzz", "x"))], {"a": 1}, {"a": 1}),
    ([Remove("a"), Set("a", 2)], {"a": 1}, {"a": 2}),
    ([Set("a", 3), Remove("a")], {"a": 2}, {}),
]
KEY = {"Key": "k"}


def answer(compute):
    """What ``compute`` answers, as ``store_spec.exact`` compares it, or
    ``ValidationError`` when it raises that."""
    try:
        return store_spec.exact(compute())
    except ValidationError:
        return ValidationError


def check(spec, store, expected) -> None:
    """The spec answers ``expected`` — a refusal by its error's type —
    and the store the spec's answer, a refusal with its message."""
    if isinstance(expected, tuple):
        error, fragment = expected
        assert answer(spec) is error
        with pytest.raises(error, match=fragment):
            store()
    else:
        assert answer(spec) == store_spec.exact(expected)
        assert answer(store) == store_spec.exact(expected)


@pytest.mark.parametrize("condition, row, expected", CONDITIONS)
def test_a_condition_holds_where_the_spec_says(condition, row, expected):
    row = None if row is None else {**KEY, **row}
    stored = None if row is None else freeze_item(row)
    check(lambda: store_spec.holds(condition, row),
          lambda: condition.evaluate(stored), expected)


@pytest.mark.parametrize("updates, row, expected", UPDATES)
def test_an_update_makes_the_row_the_spec_says(updates, row, expected):
    table = Table("t", KeySchema("Key"))
    table.put({**KEY, **row})
    check(lambda: store_spec.update_row({**KEY, **row}, KEY, updates),
          lambda: table.draft(("k",), table._get_raw(("k",)),
                              updates).as_dict(),
          expected if isinstance(expected, tuple) else {**KEY, **expected})


def test_a_set_value_is_copied():
    payload = {"inner": [1]}
    item = {}
    apply_updates(item, [Set("v", payload)])
    payload["inner"].append(2)
    assert item["v"] == {"inner": [1]}


@pytest.mark.parametrize("build, refusal", [
    (lambda: path("l", 1), "names attributes only"),
    (lambda: Projection.of("l", 1), "names attributes only"),
    (lambda: path(), "empty attribute path"),
    (And, "at least one"), (Or, "at least one")])
def test_a_form_refuses_what_it_cannot_name(build, refusal):
    with pytest.raises(ValidationError, match=refusal):
        build()
