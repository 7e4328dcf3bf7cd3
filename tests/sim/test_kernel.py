"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    FifoSchedule,
    ProcessKilled,
    RandomSchedule,
    ReplaySchedule,
    SimKernel,
    SimulationError,
)


@pytest.fixture
def kernel():
    k = SimKernel(seed=1)
    yield k
    k.shutdown()


class TestBasicScheduling:
    def test_single_process_runs(self, kernel):
        trace = []
        kernel.spawn(lambda: trace.append("ran"))
        kernel.run()
        assert trace == ["ran"]

    def test_sleep_advances_virtual_time(self, kernel):
        times = []

        def body():
            kernel.sleep(5.0)
            times.append(kernel.now)
            kernel.sleep(2.5)
            times.append(kernel.now)

        kernel.spawn(body)
        kernel.run()
        assert times == [5.0, 7.5]

    def test_spawn_delay(self, kernel):
        times = []
        kernel.spawn(lambda: times.append(kernel.now), delay=3.0)
        kernel.run()
        assert times == [3.0]

    def test_processes_interleave_by_time(self, kernel):
        trace = []

        def proc(name, first, second):
            kernel.sleep(first)
            trace.append((name, kernel.now))
            kernel.sleep(second)
            trace.append((name, kernel.now))

        kernel.spawn(proc, "a", 1.0, 10.0)
        kernel.spawn(proc, "b", 2.0, 2.0)
        kernel.run()
        assert trace == [("a", 1.0), ("b", 2.0), ("b", 4.0), ("a", 11.0)]

    def test_fifo_order_at_equal_times(self, kernel):
        trace = []
        for i in range(5):
            kernel.spawn(lambda i=i: trace.append(i), delay=1.0)
        kernel.run()
        assert trace == [0, 1, 2, 3, 4]

    def test_run_until_horizon(self, kernel):
        trace = []
        kernel.spawn(lambda: trace.append("late"), delay=100.0)
        kernel.run(until=50.0)
        assert trace == []
        assert kernel.now == 50.0
        kernel.run()
        assert trace == ["late"]

    def test_process_result_captured(self, kernel):
        proc = kernel.spawn(lambda: 42)
        kernel.run()
        assert proc.finished
        assert proc.result == 42

    def test_process_error_captured(self, kernel):
        def boom():
            raise ValueError("bad")

        proc = kernel.spawn(boom)
        kernel.run()
        assert isinstance(proc.error, ValueError)

    def test_zero_sleep_yields(self, kernel):
        trace = []

        def a():
            trace.append("a1")
            kernel.sleep(0.0)
            trace.append("a2")

        def b():
            trace.append("b1")

        kernel.spawn(a)
        kernel.spawn(b)
        kernel.run()
        assert trace == ["a1", "b1", "a2"]


class TestRunningProcess:
    """Exactly one process runs at a time, so the kernel names it in one
    field; ``None`` while it dispatches, in callbacks and on the driver."""

    def test_current_process_follows_the_baton(self, kernel):
        seen = []

        def body(name):
            seen.append((name, kernel.current_process))
            kernel.sleep(1.0)
            seen.append((name, kernel.current_process))

        a = kernel.spawn(body, "a")
        b = kernel.spawn(body, "b")
        kernel.run()
        assert seen == [("a", a), ("b", b), ("a", a), ("b", b)]

    def test_no_process_runs_on_the_driver_or_in_callbacks(self, kernel):
        seen = []

        def body():
            kernel.call_later(0.5, lambda: seen.append(
                ("callback", kernel.current_process)))
            kernel.sleep(1.0)
            seen.append(("body", kernel.current_process))

        assert kernel.current_process is None
        proc = kernel.spawn(body)
        kernel.run()
        assert seen == [("callback", None), ("body", proc)]
        assert kernel.current_process is None

    def test_call_later_runs_at_its_virtual_time(self, kernel):
        fired = []
        kernel.call_later(2.0, lambda: fired.append(("late", kernel.now)))
        kernel.call_later(1.0, lambda: fired.append(("early", kernel.now)))
        kernel.run()
        assert fired == [("early", 1.0), ("late", 2.0)]

    @pytest.mark.parametrize("schedule", ["spawn", "call_later"])
    def test_negative_delays_are_rejected(self, kernel, schedule):
        ran = []
        with pytest.raises(ValueError, match="negative delay"):
            if schedule == "spawn":
                kernel.spawn(lambda: ran.append("spawned"), delay=-1.0)
            else:
                kernel.call_later(-1.0, lambda: ran.append("called"))
        kernel.spawn(lambda: ran.append("ok"))
        kernel.run()
        assert ran == ["ok"]  # nothing was queued by the rejected call

    def test_a_callback_that_blocks_fails_loudly(self, kernel):
        kernel.call_later(1.0, lambda: kernel.sleep(1.0))
        with pytest.raises(SimulationError, match="inside a simulated"):
            kernel.run()


class TestEvents:
    def test_wait_and_set(self, kernel):
        evt = kernel.event("e")
        trace = []

        def waiter():
            kernel.wait(evt)
            trace.append(("woke", kernel.now, evt.value))

        def setter():
            kernel.sleep(4.0)
            evt.set("payload")

        kernel.spawn(waiter)
        kernel.spawn(setter)
        kernel.run()
        assert trace == [("woke", 4.0, "payload")]

    def test_wait_on_already_set_event(self, kernel):
        evt = kernel.event()
        evt.set(1)
        trace = []
        kernel.spawn(lambda: trace.append(kernel.wait(evt)))
        kernel.run()
        assert trace == [True]

    def test_wait_timeout(self, kernel):
        evt = kernel.event()
        results = []

        def waiter():
            results.append(kernel.wait(evt, timeout=2.0))
            results.append(kernel.now)

        kernel.spawn(waiter)
        kernel.run()
        assert results == [False, 2.0]

    def test_event_beats_timeout(self, kernel):
        evt = kernel.event()
        results = []

        def waiter():
            results.append(kernel.wait(evt, timeout=10.0))
            results.append(kernel.now)

        kernel.spawn(waiter)
        kernel.spawn(lambda: evt.set(), delay=1.0)
        kernel.run()
        assert results == [True, 1.0]
        # The stale timeout wakeup must not disturb later execution.
        assert kernel.run() >= 1.0

    def test_multiple_waiters_all_wake(self, kernel):
        evt = kernel.event()
        woke = []
        for i in range(4):
            kernel.spawn(lambda i=i: (kernel.wait(evt), woke.append(i)))
        kernel.spawn(lambda: evt.set(), delay=1.0)
        kernel.run()
        assert sorted(woke) == [0, 1, 2, 3]

    def test_set_is_idempotent(self, kernel):
        evt = kernel.event()
        evt.set("first")
        evt.set("second")
        assert evt.value == "first"


class TestJoin:
    def test_join_returns_result(self, kernel):
        results = []

        def child():
            kernel.sleep(3.0)
            return "done"

        def parent():
            proc = kernel.spawn(child)
            results.append(kernel.join(proc))
            results.append(kernel.now)

        kernel.spawn(parent)
        kernel.run()
        assert results == ["done", 3.0]

    def test_join_reraises_child_error(self, kernel):
        caught = []

        def child():
            raise RuntimeError("child failed")

        def parent():
            proc = kernel.spawn(child)
            try:
                kernel.join(proc)
            except RuntimeError as exc:
                caught.append(str(exc))

        kernel.spawn(parent)
        kernel.run()
        assert caught == ["child failed"]

    def test_join_killed_child_returns_none(self, kernel):
        def child():
            kernel.sleep(100.0)

        def parent():
            proc = kernel.spawn(child)
            kernel.sleep(1.0)
            proc.kill()
            assert kernel.join(proc) is None

        parent_proc = kernel.spawn(parent)
        kernel.run()
        assert parent_proc.error is None


class TestKill:
    def test_kill_blocked_process(self, kernel):
        trace = []

        def victim():
            trace.append("start")
            kernel.sleep(100.0)
            trace.append("never")

        victim_proc = kernel.spawn(victim)

        def killer():
            kernel.sleep(5.0)
            victim_proc.kill()

        kernel.spawn(killer)
        kernel.run()
        assert trace == ["start"]
        assert victim_proc.finished
        assert isinstance(victim_proc.error, ProcessKilled)

    def test_kill_before_start(self, kernel):
        trace = []
        victim = kernel.spawn(lambda: trace.append("ran"), delay=10.0)

        def killer():
            victim.kill()

        kernel.spawn(killer)
        kernel.run()
        assert trace == []
        assert victim.finished
        assert isinstance(victim.error, ProcessKilled)

    def test_kill_is_uncatchable_by_except_exception(self, kernel):
        trace = []

        def victim():
            try:
                kernel.sleep(100.0)
            except Exception:  # noqa: BLE001 - the point of the test
                trace.append("caught")

        victim_proc = kernel.spawn(victim)
        kernel.spawn(lambda: victim_proc.kill(), delay=1.0)
        kernel.run()
        assert trace == []
        assert isinstance(victim_proc.error, ProcessKilled)

    def test_kill_finished_process_is_noop(self, kernel):
        proc = kernel.spawn(lambda: "ok")
        kernel.run()
        proc.kill()
        kernel.run()
        assert proc.result == "ok"


class TestWaiterHygiene:
    def test_killed_waiter_discarded_from_event(self, kernel):
        """Regression: a process killed while blocked in wait() used to
        stay in the event's waiter list forever (ghost wakeups)."""
        evt = kernel.event("gate")
        victim = kernel.spawn(lambda: kernel.wait(evt))
        kernel.spawn(lambda: victim.kill(), delay=1.0)
        kernel.run()
        assert victim.finished
        assert evt._waiters == []
        # A later set() must find no dead waiters to wake.
        kernel.spawn(lambda: evt.set("late"), delay=1.0)
        kernel.run()
        assert evt.is_set

    def test_killed_waiter_discarded_before_wakeup_delivery(self, kernel):
        """kill() removes the waiter registration immediately, not just
        when the kill exception unwinds the wait."""
        evt = kernel.event("gate")
        victim = kernel.spawn(lambda: kernel.wait(evt))

        def killer():
            kernel.sleep(1.0)
            victim.kill()
            assert evt._waiters == []  # discarded synchronously

        killer_proc = kernel.spawn(killer)
        kernel.run()
        assert killer_proc.error is None
        assert isinstance(victim.error, ProcessKilled)

    def test_timed_out_waiter_discarded(self, kernel):
        evt = kernel.event("gate")
        kernel.spawn(lambda: kernel.wait(evt, timeout=2.0))
        kernel.run()
        assert evt._waiters == []


class TestDeadlockDetection:
    def test_deadlock_raises_with_diagnostic(self, kernel):
        """Regression: run_until_processes_exit used to return silently
        when survivors were blocked on events nobody will ever set."""
        evt = kernel.event("never-set")
        stuck = kernel.spawn(lambda: kernel.wait(evt), name="stuck")
        with pytest.raises(SimulationError) as excinfo:
            kernel.run_until_processes_exit([stuck])
        message = str(excinfo.value)
        assert "deadlock" in message
        assert "stuck" in message
        assert "never-set" in message

    def test_no_deadlock_when_event_is_set(self, kernel):
        evt = kernel.event("gate")
        waiter = kernel.spawn(lambda: kernel.wait(evt))
        kernel.spawn(lambda: evt.set(), delay=3.0)
        kernel.run_until_processes_exit([waiter])
        assert waiter.finished

    def test_limit_returns_instead_of_raising(self, kernel):
        slow = kernel.spawn(lambda: kernel.sleep(100.0))
        assert kernel.run_until_processes_exit([slow], limit=10.0) == 10.0
        assert not slow.finished
        kernel.run_until_processes_exit([slow])
        assert slow.finished


class TestEventTimeoutTies:
    def test_event_wins_same_instant_tie(self, kernel):
        """A set() landing at exactly the timeout instant wins: the
        waiter observes True, not a timeout. (Previously resolved by
        heap insertion order — the timeout, scheduled first, won.)"""
        evt = kernel.event("tie")
        results = []

        def waiter():
            results.append(kernel.wait(evt, timeout=5.0))
            results.append(kernel.now)

        kernel.spawn(waiter)

        def setter():
            kernel.sleep(5.0)
            evt.set("on-the-wire")

        kernel.spawn(setter)
        kernel.run()
        assert results == [True, 5.0]

    def test_timeout_still_fires_when_nothing_sets(self, kernel):
        evt = kernel.event("tie")
        results = []
        kernel.spawn(lambda: results.append(kernel.wait(evt, timeout=5.0)))
        kernel.run()
        assert results == [False]


class TestSchedules:
    def _trace_run(self, schedule):
        kernel = SimKernel(seed=1, schedule=schedule)
        kernel.capture_trace = True
        trace = []
        for i in range(4):
            def body(i=i):
                kernel.sleep(1.0)
                trace.append(i)
            kernel.spawn(body, name=f"w{i}")
        kernel.run()
        kernel.shutdown()
        return trace, list(kernel.schedule_trace), list(kernel.fired_trace)

    def test_fifo_schedule_matches_no_schedule(self):
        baseline, _, _ = self._trace_run(None)
        fifo, decisions, _ = self._trace_run(FifoSchedule())
        assert fifo == baseline == [0, 1, 2, 3]
        assert all(idx == 0 for idx in decisions)

    def test_random_schedule_records_replayable_trace(self):
        shuffled, decisions, fired = self._trace_run(RandomSchedule(9))
        assert sorted(shuffled) == [0, 1, 2, 3]
        assert decisions, "multi-candidate decisions must be recorded"
        replayed, redecisions, refired = self._trace_run(
            ReplaySchedule(decisions))
        assert replayed == shuffled
        assert redecisions == decisions
        assert refired == fired

    def test_replay_divergence_raises(self):
        kernel = SimKernel(seed=1, schedule=ReplaySchedule([99]))
        for i in range(3):
            kernel.spawn(lambda: None, name=f"w{i}")
        with pytest.raises(SimulationError, match="replay diverged"):
            kernel.run()
        kernel.shutdown()

    def test_interleave_point_noop_without_schedule(self, kernel):
        order = []

        def a():
            order.append("a1")
            kernel.interleave_point("probe")
            order.append("a2")

        kernel.spawn(a)
        kernel.spawn(lambda: order.append("b"))
        kernel.run()
        assert order == ["a1", "a2", "b"]

    def test_interleave_point_yields_under_exploring_schedule(self):
        # Decision 1 picks a's spawn over b's; a then yields at the
        # interleave point, and decision 2 lets b run in the gap.
        kernel = SimKernel(seed=1, schedule=ReplaySchedule([0, 0]))
        order = []

        def a():
            order.append("a1")
            kernel.interleave_point("probe")
            order.append("a2")

        kernel.spawn(a)
        kernel.spawn(lambda: order.append("b"))
        kernel.run()
        kernel.shutdown()
        assert order == ["a1", "b", "a2"]


class TestDeterminism:
    def _run_once(self, seed):
        kernel = SimKernel(seed=seed)
        trace = []

        def worker(name, rand):
            for _ in range(5):
                kernel.sleep(rand.uniform(0.1, 2.0))
                trace.append((name, round(kernel.now, 6)))

        from repro.sim import RandomSource
        root = RandomSource(seed)
        for i in range(4):
            kernel.spawn(worker, f"w{i}", root.child(f"w{i}"))
        kernel.run()
        kernel.shutdown()
        return trace

    def test_same_seed_same_trace(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_trace(self):
        assert self._run_once(7) != self._run_once(8)
