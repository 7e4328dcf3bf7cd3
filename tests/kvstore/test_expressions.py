"""Unit tests for the condition/update expression language."""

import pytest

from repro.kvstore import (
    And,
    AttrExists,
    AttrNotExists,
    Eq,
    Gt,
    IfNotExists,
    Or,
    Plus,
    Remove,
    Set,
    SizeLt,
    Value,
    path,
)
from repro.kvstore.errors import ValidationError
from repro.kvstore.expressions import Projection, apply_updates
from repro.kvstore.item import freeze_item


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

    def test_a_path_names_attributes_only(self):
        with pytest.raises(ValidationError, match="names attributes only"):
            path("l", 1)

    def test_a_path_that_meets_a_list_raises(self):
        row = freeze_item({"Key": "k", "l": [10, 20]}).as_dict()
        assert path("l", "x").get(row) == (False, None)
        for target in (path("l", "x"), path("l", "x", "y")):
            with pytest.raises(ValidationError, match="non-map"):
                Set(target, 1).apply(dict(row))

    def test_a_projection_names_attributes_only(self):
        with pytest.raises(ValidationError, match="names attributes only"):
            Projection.of("l", 1)

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

    def test_eq_on_nested_path(self):
        item = {"m": {"x": 1}}
        assert Eq(path("m", "x"), 1).evaluate(item)
        assert not Eq(path("m", "y"), 1).evaluate(item)

    def test_eq_across_types_is_false(self):
        assert not Eq("a", "5").evaluate({"a": 5})
        assert not Eq("a", 5).evaluate({"a": "5"})

    def test_ordering_comparisons(self):
        item = {"n": 10}
        assert Gt("n", 9).evaluate(item)
        assert Gt("n", 9.5).evaluate(item)
        assert not Gt("n", 10).evaluate(item)
        assert not Gt("n", 9).evaluate({})

    def test_string_ordering(self):
        assert Gt("s", "a").evaluate({"s": "b"})

    def test_mixed_type_comparison_rejected(self):
        with pytest.raises(ValidationError):
            Gt("s", 5).evaluate({"s": "a"})

    def test_gt_on_missing_item_is_false(self):
        assert not Gt("n", 0).evaluate(None)

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
        assert SizeLt("s", 4).evaluate({"s": "abc"})

    def test_size_counts_list_set_and_bytes_members(self):
        item = {"l": [1, 2], "st": {"x", "y"}, "b": b"ab"}
        for name in ("l", "st", "b"):
            assert SizeLt(name, 3).evaluate(item)
            assert not SizeLt(name, 2).evaluate(item)

    def test_size_of_missing_attr_is_false(self):
        assert not SizeLt("log", 3).evaluate({})

    def test_size_of_scalar_is_false(self):
        assert not SizeLt("n", 3).evaluate({"n": 1})

    def test_and_or(self):
        item = {"a": 1, "b": 2}
        assert And(Eq("a", 1), Eq("b", 2)).evaluate(item)
        assert not And(Eq("a", 1), Eq("b", 99)).evaluate(item)
        assert Or(Eq("a", 99), Eq("b", 2)).evaluate(item)
        assert not Or(Eq("a", 99), Eq("b", 99)).evaluate(item)

    def test_and_or_need_a_condition(self):
        for combinator in (And, Or):
            with pytest.raises(ValidationError, match="at least one"):
                combinator()

    def test_and_or_nest(self):
        item = {"a": 1, "b": 2}
        assert And(Eq("a", 1), Eq("b", 9) | Eq("b", 2)).evaluate(item)
        assert not And(Eq("a", 9), Eq("b", 9) | Eq("b", 2)).evaluate(item)

    def test_operator_overloads(self):
        item = {"a": 1, "b": 2}
        assert (Eq("a", 9) | Eq("b", 2)).evaluate(item)
        assert not (Eq("a", 9) | Eq("b", 9)).evaluate(item)

    def test_chained_or(self):
        item = {"c": 3}
        assert (Eq("a", 1) | Eq("b", 2) | Eq("c", 3)).evaluate(item)
        assert not (Eq("a", 1) | Eq("b", 2) | Eq("c", 9)).evaluate(item)

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

    def test_set_arithmetic(self):
        item = {"n": 10}
        apply_updates(item, [Set("n", Plus(IfNotExists(path("n"), Value(0)),
                                           Value(1)))])
        assert item["n"] == 11

    def test_if_not_exists(self):
        item = {}
        update = Set("n", Plus(IfNotExists(path("n"), Value(0)), Value(1)))
        apply_updates(item, [update])
        apply_updates(item, [update])
        assert item["n"] == 2

    def test_if_not_exists_reads_a_present_value(self):
        item = {"a": 5}
        apply_updates(item, [Set("b", IfNotExists(path("a"), Value(None)))])
        assert item["b"] == 5

    def test_counter_adds_negative_amounts(self):
        item = {}
        for amount in (5, -2):
            apply_updates(item, [Set("n", Plus(
                IfNotExists(path("n"), Value(0)), Value(amount)))])
        assert item["n"] == 3

    def test_plus_concatenates_lists(self):
        item = {"l": [1]}
        apply_updates(item, [Set("l", Plus(
            IfNotExists(path("l"), Value([])), Value([2, 3])))])
        assert list(item["l"]) == [1, 2, 3]

    @pytest.mark.parametrize("current, amount", [
        ("str", 1), ([1], 1), ({"a"}, {"b"})])
    def test_plus_of_mismatched_types_rejected(self, current, amount):
        item = freeze_item({"Key": "k", "V": current}).as_dict()
        with pytest.raises(ValidationError, match="cannot add"):
            apply_updates(dict(item), [Set("V", Plus(
                IfNotExists(path("V"), Value(0)), Value(amount)))])

    def test_a_path_is_not_a_set_value(self):
        with pytest.raises(ValidationError, match="unsupported"):
            apply_updates({"a": 5}, [Set("b", path("a"))])

    def test_remove(self):
        item = {"a": 1, "b": 2}
        apply_updates(item, [Remove("a")])
        assert item == {"b": 2}

    def test_updates_apply_in_order(self):
        item = {"a": 1}
        apply_updates(item, [Remove("a"), Set("a", 2)])
        assert item == {"a": 2}
        apply_updates(item, [Set("a", 3), Remove("a")])
        assert item == {}

    def test_set_value_is_deep_copied(self):
        payload = {"inner": [1]}
        item = {}
        apply_updates(item, [Set("v", payload)])
        payload["inner"].append(2)
        assert item["v"] == {"inner": [1]}


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
