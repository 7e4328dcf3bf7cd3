"""Unit tests for the condition/update expression language."""

import pytest

from repro.kvstore import (
    Add,
    And,
    AttrExists,
    AttrNotExists,
    BeginsWith,
    Between,
    Contains,
    Delete,
    Eq,
    Ge,
    Gt,
    IfNotExists,
    In,
    Le,
    ListAppend,
    Lt,
    Ne,
    Not,
    Or,
    PathRef,
    Plus,
    Remove,
    Set,
    SizeGe,
    SizeLt,
    Value,
    path,
)
from repro.kvstore.errors import ValidationError
from repro.kvstore.expressions import Projection, apply_updates


class TestPaths:
    def test_top_level_get(self):
        present, value = path("a").get({"a": 1})
        assert (present, value) == (True, 1)

    def test_missing_attr(self):
        assert path("b").get({"a": 1}) == (False, None)

    def test_missing_item(self):
        assert path("a").get(None) == (False, None)

    def test_nested_map_get(self):
        item = {"m": {"x": {"y": 5}}}
        assert path("m", "x", "y").get(item) == (True, 5)

    def test_list_index_get(self):
        assert path("l", 1).get({"l": [10, 20]}) == (True, 20)

    def test_list_index_out_of_range(self):
        assert path("l", 5).get({"l": [10]}) == (False, None)

    def test_set_creates_intermediate_maps(self):
        item = {}
        path("a", "b", "c").set(item, 7)
        assert item == {"a": {"b": {"c": 7}}}

    def test_remove_nested(self):
        item = {"m": {"x": 1, "y": 2}}
        path("m", "x").remove(item)
        assert item == {"m": {"y": 2}}

    def test_remove_missing_is_noop(self):
        item = {"a": 1}
        path("zzz", "x").remove(item)
        assert item == {"a": 1}

    def test_empty_path_rejected(self):
        with pytest.raises(ValidationError):
            path()


class TestConditions:
    def test_eq(self):
        assert Eq("a", 5).evaluate({"a": 5})
        assert not Eq("a", 5).evaluate({"a": 6})

    def test_eq_missing_attr_is_false(self):
        assert not Eq("a", 5).evaluate({})
        assert not Eq("a", 5).evaluate(None)

    def test_ne(self):
        assert Ne("a", 5).evaluate({"a": 6})
        assert not Ne("a", 5).evaluate({})

    def test_ordering_comparisons(self):
        item = {"n": 10}
        assert Lt("n", 11).evaluate(item)
        assert Le("n", 10).evaluate(item)
        assert Gt("n", 9).evaluate(item)
        assert Ge("n", 10).evaluate(item)
        assert not Lt("n", 10).evaluate(item)

    def test_string_ordering(self):
        assert Lt("s", "b").evaluate({"s": "a"})

    def test_mixed_type_comparison_rejected(self):
        with pytest.raises(ValidationError):
            Lt("s", 5).evaluate({"s": "a"})

    def test_between(self):
        assert Between("n", 5, 10).evaluate({"n": 7})
        assert Between("n", 5, 10).evaluate({"n": 5})
        assert not Between("n", 5, 10).evaluate({"n": 11})

    def test_in(self):
        assert In("x", [1, 2, 3]).evaluate({"x": 2})
        assert not In("x", [1, 2, 3]).evaluate({"x": 9})

    def test_begins_with(self):
        assert BeginsWith("s", "ab").evaluate({"s": "abc"})
        assert not BeginsWith("s", "zz").evaluate({"s": "abc"})

    def test_contains_on_list_set_string(self):
        assert Contains("l", 2).evaluate({"l": [1, 2]})
        assert Contains("s", "bc").evaluate({"s": "abc"})
        assert Contains("st", "x").evaluate({"st": {"x", "y"}})
        assert not Contains("n", 1).evaluate({"n": 42})

    def test_attr_exists_on_missing_item(self):
        assert not AttrExists("a").evaluate(None)
        assert AttrNotExists("a").evaluate(None)

    def test_attr_exists_nested(self):
        item = {"m": {"k": None}}
        assert AttrExists(path("m", "k")).evaluate(item)
        assert AttrNotExists(path("m", "z")).evaluate(item)

    def test_size_conditions(self):
        item = {"log": {"a": 1, "b": 2}}
        assert SizeLt("log", 3).evaluate(item)
        assert not SizeLt("log", 2).evaluate(item)
        assert SizeGe("log", 2).evaluate(item)

    def test_size_of_missing_attr_is_false(self):
        assert not SizeLt("log", 3).evaluate({})

    def test_size_of_scalar_is_false(self):
        assert not SizeLt("n", 3).evaluate({"n": 1})

    def test_and_or_not(self):
        item = {"a": 1, "b": 2}
        assert And(Eq("a", 1), Eq("b", 2)).evaluate(item)
        assert not And(Eq("a", 1), Eq("b", 99)).evaluate(item)
        assert Or(Eq("a", 99), Eq("b", 2)).evaluate(item)
        assert Not(Eq("a", 99)).evaluate(item)

    def test_operator_overloads(self):
        item = {"a": 1, "b": 2}
        assert (Eq("a", 1) & Eq("b", 2)).evaluate(item)
        assert (Eq("a", 9) | Eq("b", 2)).evaluate(item)
        assert (~Eq("a", 9)).evaluate(item)

    def test_beldi_write_condition_shape(self):
        """The exact condition shape used by the write wrapper (Fig. 6)."""
        log_key = "inst-1.3"
        cond = And(
            AttrNotExists(path("RecentWrites", log_key)),
            SizeLt("RecentWrites", 4),
            AttrNotExists(path("NextRow")),
        )
        fresh_row = {"RecentWrites": {}, "LogSize": 0}
        assert cond.evaluate(fresh_row)
        logged = {"RecentWrites": {log_key: True}}
        assert not cond.evaluate(logged)
        full = {"RecentWrites": {f"k{i}": True for i in range(4)}}
        assert not cond.evaluate(full)
        chained = {"RecentWrites": {}, "NextRow": "row-2"}
        assert not cond.evaluate(chained)


class TestUpdates:
    def test_set_constant(self):
        item = {"a": 1}
        apply_updates(item, [Set("a", 2), Set("b", "x")])
        assert item == {"a": 2, "b": "x"}

    def test_set_nested_creates_maps(self):
        item = {}
        apply_updates(item, [Set(path("m", "k"), True)])
        assert item == {"m": {"k": True}}

    def test_set_from_path_ref(self):
        item = {"a": 5}
        apply_updates(item, [Set("b", PathRef(path("a")))])
        assert item["b"] == 5

    def test_set_arithmetic(self):
        item = {"n": 10}
        apply_updates(item, [Set("n", Plus(PathRef(path("n")), Value(1)))])
        assert item["n"] == 11

    def test_if_not_exists(self):
        item = {}
        update = Set("n", Plus(IfNotExists(path("n"), Value(0)), Value(1)))
        apply_updates(item, [update])
        apply_updates(item, [update])
        assert item["n"] == 2

    def test_list_append(self):
        item = {"l": [1]}
        apply_updates(item, [
            Set("l", ListAppend(PathRef(path("l")), Value([2, 3])))])
        assert item["l"] == [1, 2, 3]

    def test_remove(self):
        item = {"a": 1, "b": 2}
        apply_updates(item, [Remove("a")])
        assert item == {"b": 2}

    def test_add_number_creates_attr(self):
        item = {}
        apply_updates(item, [Add("n", 5)])
        apply_updates(item, [Add("n", -2)])
        assert item["n"] == 3

    def test_add_set_union(self):
        item = {"s": {"a"}}
        apply_updates(item, [Add("s", {"b", "c"})])
        assert item["s"] == {"a", "b", "c"}

    def test_delete_set_difference(self):
        item = {"s": {"a", "b"}}
        apply_updates(item, [Delete("s", {"a"})])
        assert item["s"] == {"b"}

    def test_set_value_is_deep_copied(self):
        payload = {"inner": [1]}
        item = {}
        apply_updates(item, [Set("v", payload)])
        payload["inner"].append(2)
        assert item["v"] == {"inner": [1]}

    def test_add_to_non_number_rejected(self):
        with pytest.raises(ValidationError):
            apply_updates({"n": "str"}, [Add("n", 1)])


class TestProjection:
    def test_projects_top_level(self):
        proj = Projection.of("a", "c")
        assert proj.walk({"a": 1, "b": 2, "c": 3})[0] == {"a": 1, "c": 3}

    def test_projects_nested(self):
        proj = Projection.of(path("m", "x"))
        assert proj.walk({"m": {"x": 1, "y": 2}})[0] == {"m": {"x": 1}}

    def test_missing_paths_skipped(self):
        proj = Projection.of("a", "zzz")
        assert proj.walk({"a": 1})[0] == {"a": 1}

    def test_daal_traversal_projection(self):
        """The RowId+NextRow projection used to build DAAL skeletons."""
        row = {"RowId": "HEAD", "Key": "k", "Value": "big" * 100,
               "RecentWrites": {"a": True}, "NextRow": "r2"}
        skeleton, _size = Projection.of("RowId", "NextRow").walk(row)
        assert skeleton == {"RowId": "HEAD", "NextRow": "r2"}
