"""Unit tests for ``repro.obs.tracer``: nesting, determinism, exports."""

import json

import pytest

from repro.obs.tracer import Tracer, validate_chrome_trace


class FakeKernel:
    """What a tracer reads off its kernel: the virtual clock and the
    process whose span stack is in use (``None``: driver, callbacks)."""

    def __init__(self):
        self.now = 0.0
        self.current_process = None


@pytest.fixture
def clock():
    return FakeKernel()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpans:
    def test_nesting_defaults_parent_to_enclosing_span(self, tracer,
                                                       clock):
        with tracer.span("outer", span_id="o"):
            clock.now = 5.0
            with tracer.span("inner"):
                clock.now = 8.0
        outer, inner = tracer.records
        assert inner["parent_id"] == "o"
        assert inner["track"] == "o"  # children ride the root's track
        assert outer["ts"] == 0.0 and outer["dur"] == 8.0
        assert inner["ts"] == 5.0 and inner["dur"] == 3.0

    def test_explicit_parent_overrides_stack(self, tracer):
        with tracer.span("root", span_id="r"):
            with tracer.span("cross", parent_id="elsewhere"):
                pass
        assert tracer.records[1]["parent_id"] == "elsewhere"

    def test_span_closes_on_base_exception_and_flags_failure(
            self, tracer, clock):
        class Unwind(BaseException):
            pass

        with pytest.raises(Unwind):
            with tracer.span("doomed"):
                clock.now = 2.0
                raise Unwind()
        record = tracer.records[0]
        assert record["dur"] == 2.0
        assert record["args"]["failed"] is True

    def test_leaked_children_close_with_their_parent(self, tracer,
                                                     clock):
        with tracer.span("parent"):
            tracer.span("leaked")  # handle dropped, never exited
            clock.now = 4.0
        leaked = tracer.records[1]
        assert leaked["dur"] == 4.0

    def test_events_attach_to_the_open_span(self, tracer):
        with tracer.span("s", span_id="s0"):
            tracer.event("ping", detail=1)
        tracer.event("orphan")
        ping, orphan = tracer.records[1], tracer.records[2]
        assert ping["parent_id"] == "s0"
        assert orphan["parent_id"] is None
        assert orphan["track"] == "events"

    def test_record_span_takes_explicit_bounds(self, tracer, clock):
        clock.now = 10.0
        tracer.record_span("store.read", "store", start=7.0, end=9.5)
        record = tracer.records[0]
        assert record["ts"] == 7.0 and record["dur"] == 2.5

    def test_per_process_stacks_do_not_cross(self, tracer, clock):
        with tracer.span("main-root", span_id="m"):
            clock.current_process = "other"
            with tracer.span("other-root"):
                tracer.event("other-mark")
            clock.current_process = None
            tracer.event("main-mark")
        other_root, other_mark, main_mark = tracer.records[1:]
        assert other_root["parent_id"] is None  # not adopted by main's span
        assert other_mark["parent_id"] == other_root["span_id"]
        assert main_mark["parent_id"] == "m"

    def test_a_stack_lives_only_while_it_holds_a_span(self, tracer, clock):
        """A finished process must not be kept alive by its stack."""
        clock.current_process = "worker"
        with tracer.span("outer"):
            tracer.span("leaked")  # handle dropped, never exited
        assert tracer._stacks == {}

    def test_on_the_sim_kernel_callbacks_adopt_no_process_span(self):
        """A ``call_later`` callback fires while a process sits in a
        span: its event is parentless, on the ``events`` track, and no
        stack outlives the process."""
        from repro.sim import SimKernel

        kernel = SimKernel(seed=1)
        tracer = Tracer(kernel)

        def body():
            with tracer.span("req", span_id="r"):
                kernel.call_later(1.0, lambda: tracer.event("watchdog"))
                kernel.sleep(2.0)
                tracer.event("in-req")

        kernel.spawn(body)
        kernel.run()
        kernel.shutdown()
        events = {record["name"]: record for record in tracer.records
                  if record["dur"] is None}
        assert events["watchdog"]["parent_id"] is None
        assert events["watchdog"]["track"] == "events"
        assert events["in-req"]["parent_id"] == "r"
        assert tracer._stacks == {}


class TestSanitization:
    def test_args_never_leak_object_ids(self, tracer):
        class Opaque:
            pass  # default repr embeds id() as 0x...

        with tracer.span("s", weird=Opaque(), ok=(1, "two"),
                         mapping={"b": 2, "a": float("nan")}):
            pass
        args = tracer.records[0]["args"]
        assert args["weird"] == "Opaque"
        assert args["ok"] == [1, "two"]
        assert args["mapping"] == {"a": None, "b": 2}
        assert "0x" not in json.dumps(args)

    def test_a_dict_with_keys_of_mixed_types_sorts_by_their_text(
            self, tracer):
        """Step tuples and store keys ride in lifecycle events; ``1``
        and ``"b"`` do not compare, their rendered forms do."""
        tracer.event("x", key={"b": 2, 1: "a", (0, "k"): None})
        args = tracer.records[0]["args"]
        assert list(args["key"].items()) == [
            ("(0, 'k')", None), ("1", "a"), ("b", 2)]


class TestExports:
    def fill(self, tracer, clock):
        with tracer.span("req", cat="request", span_id="r1"):
            clock.now = 1.0
            with tracer.span("op", cat="op"):
                clock.now = 2.0
                tracer.event("mark")
        clock.now = 2.0
        tracer.record_span("late", "store", start=0.5, end=1.5)

    def test_sorted_records_order_is_ts_phase_seq(self, tracer, clock):
        self.fill(tracer, clock)
        keys = [(r["ts"], r["phase"], r["seq"])
                for r in tracer.sorted_records()]
        assert keys == sorted(keys)
        # The backfilled store span sorts by its start time, not by
        # when it was recorded.
        assert [r["name"] for r in tracer.sorted_records()] == [
            "req", "late", "op", "mark"]

    def test_jsonl_shape(self, tracer, clock):
        self.fill(tracer, clock)
        lines = tracer.to_jsonl().strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            row = json.loads(line)
            assert "phase" not in row
            assert set(row) == {"seq", "name", "cat", "span_id",
                                "parent_id", "track", "ts", "dur",
                                "args"}

    def test_chrome_export_is_valid_and_loadable(self, tracer, clock):
        self.fill(tracer, clock)
        data = tracer.to_chrome()
        assert validate_chrome_trace(data) == []
        phases = [e["ph"] for e in data["traceEvents"]]
        assert phases.count("M") == 2  # one track metadata per root
        assert phases.count("X") == 3
        assert phases.count("i") == 1
        # Virtual ms become trace µs.
        req = next(e for e in data["traceEvents"] if e["name"] == "req")
        assert req["ts"] == 0 and req["dur"] == 2000.0

    def test_same_inputs_export_byte_identically(self):
        def build():
            clock = FakeKernel()
            tracer = Tracer(clock)
            self.fill(tracer, clock)
            return tracer

        a, b = build(), build()
        assert a.chrome_json() == b.chrome_json()
        assert a.to_jsonl() == b.to_jsonl()


class TestValidator:
    def test_flags_structural_problems(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"]
        bad = {"traceEvents": [
            {"ph": "Q", "name": "weird"},
            {"ph": "X", "name": "negative", "ts": -1.0, "dur": 1.0,
             "args": {}},
            {"ph": "X", "name": "nodur", "ts": 0.0, "dur": None,
             "args": {}},
            {"ph": "X", "name": "orphan", "ts": 0.0, "dur": 1.0,
             "args": {"span_id": "a", "parent_id": "ghost"}},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) == 4

    def test_flags_escaping_child(self):
        bad = {"traceEvents": [
            {"ph": "X", "name": "parent", "ts": 0.0, "dur": 1.0,
             "args": {"span_id": "p"}},
            {"ph": "X", "name": "child", "ts": 0.5, "dur": 2.0,
             "args": {"span_id": "c", "parent_id": "p"}},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) == 1 and "escapes" in problems[0]
