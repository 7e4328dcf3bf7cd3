"""Thread-backed discrete-event simulation kernel.

Design
------
The kernel owns a priority queue of timestamped entries and a virtual
clock. Simulated processes are plain Python callables that run on pooled
OS threads, but only one process executes at a time: whenever a process
blocks (``sleep``, ``wait``), its own thread runs the dispatch step — pop
the next scheduled entry and resume exactly one process — and then parks
until its own wakeup fires. The driver thread (``run``) only starts the
chain and collects it when the queue drains; it is not woken per event.

This *baton-passing* dispatch halves the OS context switches of the
classic driver-loop design (resume + yield-back per event becomes a
single handoff), and a process waking *itself* (the ``sleep`` fast path,
by far the most common event) costs no thread switch at all: the
dispatching thread releases its own baton and keeps running. The
event ordering is identical by construction — the same pops happen in
the same order, just on whichever thread blocked last. Each baton (one
per process, one per pooled worker, one for the driver) is a raw
``_thread`` lock held at zero: a release hands it over, an acquire
parks until then, with no Python-level code in between.

Because every blocking point goes through the kernel, arbitrary user code
(Beldi SSF handlers, garbage collectors, load generators) runs unmodified
in virtual time, and the execution is fully deterministic for a given
seed and spawn order.

Queue entries
-------------
Every entry is a tuple ``(time, phase, seq, label, proc, token, reason)``:

- a **wakeup** carries its target ``proc`` and the wake ``token`` captured
  when it was scheduled; a stale token (the process was resumed by
  something else first) makes the entry a no-op;
- a **start** is a wakeup whose token is the ``_START`` sentinel — it
  assigns the process a pooled worker thread and releases it;
- an **inline callback** has ``proc=None`` and its callable in the token
  slot (``call_later`` / ``call_at``); it runs on the dispatching
  thread, where ``current_process`` is ``None`` — no process runs while
  the kernel dispatches.

Labels are either strings or tuples of strings joined with ``":"`` only
when something actually reads them (trace capture, schedule choice) —
the common case never pays the formatting.

Schedules
---------
When a pluggable schedule (see :mod:`repro.sim.schedule`) is installed,
the kernel gathers all entries that share the earliest ``(time, phase)``
and lets the schedule pick which fires next; each multi-candidate
decision is appended to :attr:`SimKernel.schedule_trace`, so any
execution can be replayed bit-for-bit from ``(seed, trace)``. Without a
schedule the kernel pops the heap directly — byte-identical to the
historical FIFO behaviour.

Tie-breaking: ``wait(timeout=...)`` deadlines are queued at phase 1 while
all normal wakeups use phase 0, so an event ``set()`` landing at exactly
the timeout instant always wins the tie (the waiter observes ``True``).

Killing
-------
Processes cannot be preempted mid-Python-statement; instead, a killed
process receives :class:`ProcessKilled` at its *next* kernel interaction.
This mirrors how a serverless platform can only observe a function at its
system-call boundaries, and is exactly the granularity Beldi's crash model
needs (crashes happen between externally visible operations).
"""

from __future__ import annotations

import _thread
import heapq
import itertools
import threading
from typing import Any, Callable, Iterable, Optional


class SimulationError(Exception):
    """Base class for kernel-level failures."""


class ProcessKilled(BaseException):
    """Raised inside a process that has been killed.

    Derives from ``BaseException`` so ordinary ``except Exception`` blocks in
    user code cannot accidentally swallow a platform-initiated kill (timeout
    or crash injection), matching how a real worker is torn down.
    """


class ProcessCrashed(ProcessKilled):
    """A kill that models a crash-fault (injected by a crash policy)."""


#: Token sentinel marking a start entry (never equals a live wake token).
_START = -1

#: Shared wake-reason for sleeps — the reason is only ever read, so every
#: sleep can hand out the same tuple instead of allocating one per call.
_SLEEP_REASON = ("sleep", None)
_KILL_REASON = ("killed", None)


def _baton():
    """A raw lock held from birth: ``release`` hands it over and
    ``acquire`` waits for that hand-over. It stands for a semaphore at
    zero that is released at most once before each acquire, which is
    every handoff here, without ``threading.Semaphore``'s Python-level
    ``Condition``."""
    lock = _thread.allocate_lock()
    lock.acquire()
    return lock


def _label_text(label: Any) -> str:
    """Render a queue-entry label (str, or tuple of parts joined lazily)."""
    return label if label.__class__ is str else ":".join(label)


class SimEvent:
    """A one-shot signalling primitive in virtual time.

    Processes block on :meth:`SimKernel.wait`; ``set`` wakes every waiter at
    the current virtual time. A value may be attached to the event.
    """

    __slots__ = ("_kernel", "name", "is_set", "value", "_waiters")

    def __init__(self, kernel: "SimKernel", name: str = "") -> None:
        self._kernel = kernel
        self.name = name
        self.is_set = False
        self.value: Any = None
        self._waiters: list["Process"] = []

    def set(self, value: Any = None) -> None:
        """Mark the event set and schedule all waiters to resume now."""
        if self.is_set:
            return
        self.is_set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        if not waiters:
            return
        event_name = self.name or "anon"
        reason = ("event", self)
        for proc in waiters:
            if proc.finished:
                continue
            self._kernel._schedule_wakeup(
                0.0, proc, reason, (proc.name, "event", event_name))

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "set" if self.is_set else "unset"
        return f"<SimEvent {self.name or id(self)} {state}>"


class Process:
    """Handle to a simulated process.

    Attributes
    ----------
    name:
        Diagnostic label.
    result:
        Return value of the body once finished.
    error:
        Exception raised by the body, if any (not re-raised by the kernel;
        callers inspect it or use :meth:`SimKernel.join`).
    """

    __slots__ = ("_kernel", "name", "_body", "result", "error", "finished",
                 "killed", "_kill_exc", "done_event", "_resume",
                 "_wake_token", "_wake_reason", "_started", "_waiting_on",
                 "_label_sleep", "_label_kill")

    def __init__(self, kernel: "SimKernel", name: str,
                 body: Callable[[], Any]) -> None:
        self._kernel = kernel
        self.name = name
        self._body = body
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finished = False
        self.killed = False
        self._kill_exc: Optional[ProcessKilled] = None
        self.done_event = SimEvent(kernel, name=f"{name}.done")
        # Handoff baton: released exactly once per scheduled resume.
        self._resume = _baton()
        # Token distinguishing the *current* pending wakeup; stale wakeups
        # (e.g. a timed-out sleep racing an event set) are ignored.
        self._wake_token = 0
        self._wake_reason: Any = None
        self._started = False
        # Event this process is currently blocked on in wait(), if any.
        # Cleared on resume so kill/exit paths can discard the waiter
        # registration instead of leaking it (and ghosting in repr).
        self._waiting_on: Optional[SimEvent] = None
        # Hot labels, prebuilt once (joined lazily, and only if captured).
        self._label_sleep = (name, "sleep")
        self._label_kill = (name, "kill")

    def _block(self) -> Any:
        """Hand the baton to the kernel; return the reason we were woken."""
        self._kernel._dispatch()
        self._resume.acquire()
        if self.killed and self._kill_exc is not None:
            exc, self._kill_exc = self._kill_exc, None
            raise exc
        return self._wake_reason

    def kill(self, crash: bool = False) -> None:
        """Request termination; takes effect at the next kernel interaction."""
        if self.finished or self.killed:
            return
        self.killed = True
        self._kill_exc = ProcessCrashed() if crash else ProcessKilled()
        tracer = self._kernel.tracer
        if tracer is not None:
            tracer.event("kill", cat="fault", crash=crash,
                         process=self.name)
        # A process blocked in wait() must stop being a waiter right away:
        # a later set() would otherwise schedule a dead wakeup for it.
        waiting = self._waiting_on
        if waiting is not None:
            waiting._discard_waiter(self)
        # If the process is blocked, schedule an immediate wakeup so the
        # kill is delivered promptly; a stale token means it is currently
        # running and will observe the flag at its next block.
        self._kernel._schedule_wakeup(0.0, self, _KILL_REASON,
                                      self._label_kill)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "live"
        return f"<Process {self.name} {state}>"


class _WorkerThread:
    """A pooled OS thread that runs process bodies one after another."""

    def __init__(self, kernel: "SimKernel", index: int) -> None:
        self._kernel = kernel
        self._task = _baton()
        self._proc: Optional[Process] = None
        self._stop = False
        self.thread = threading.Thread(
            target=self._loop, name=f"sim-worker-{index}", daemon=True)
        self.thread.start()

    def submit(self, proc: Process) -> None:
        self._proc = proc
        self._task.release()

    def shutdown(self) -> None:
        self._stop = True
        self._task.release()

    def _loop(self) -> None:
        while True:
            self._task.acquire()
            if self._stop:
                return
            proc = self._proc
            self._proc = None
            assert proc is not None
            self._run_one(proc)
            self._kernel._recycle_worker(self)

    def _run_one(self, proc: Process) -> None:
        kernel = self._kernel
        try:
            # First resume: wait for the kernel to schedule our start.
            proc._resume.acquire()
            if proc.killed and proc._kill_exc is not None:
                raise proc._kill_exc
            proc.result = proc._body()
        except ProcessKilled as exc:
            proc.error = exc
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            proc.error = exc
        finally:
            proc.finished = True
            proc._wake_token += 1  # invalidate any pending wakeups
            waiting = proc._waiting_on
            if waiting is not None:
                waiting._discard_waiter(proc)
                proc._waiting_on = None
            kernel._on_process_exit(proc)
            # The exiting process passes the baton on instead of waking
            # the driver — the dispatch chain continues on this thread.
            kernel._dispatch()


class SimKernel:
    """Deterministic virtual-time scheduler.

    Typical use::

        kernel = SimKernel(seed=7)
        kernel.spawn(my_process)
        kernel.run()
    """

    def __init__(self, seed: int = 0, schedule: Optional[Any] = None) -> None:
        self.now = 0.0
        self.seed = seed
        #: Pluggable scheduling policy (duck-typed; see repro.sim.schedule).
        #: None keeps the historical pure-FIFO heap order.
        self.schedule = schedule
        #: Indices chosen at each multi-candidate decision; together with
        #: the seed this replays the execution bit-for-bit.
        self.schedule_trace: list[int] = []
        #: When True, every resumed wakeup is appended to fired_trace as
        #: (virtual time, label) — the kernel-level event trace used by
        #: determinism and replay assertions.
        self.capture_trace = False
        self.fired_trace: list[tuple[float, str]] = []
        #: Optional :class:`repro.obs.Tracer` recording schedule/fault
        #: events (interleave yields, kills) in virtual time. Installed
        #: by an observability-enabled runtime; ``None`` costs one
        #: attribute check per event.
        self.tracer = None
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        # Released exactly once per dispatch chain: when the queue drains
        # (or ``until`` is reached), the last dispatching thread wakes the
        # driver blocked in run().
        self._driver = _baton()
        #: Exception raised inside a dispatch step on a worker thread,
        #: transported to (and re-raised on) the driver thread.
        self._dispatch_error: Optional[BaseException] = None
        self._until: Optional[float] = None
        self._idle_workers: list[_WorkerThread] = []
        self._worker_count = 0
        #: The one process that runs right now. Set at every baton
        #: handoff; ``None`` while the kernel dispatches (callbacks
        #: included) and on the driver thread.
        self.current_process: Optional[Process] = None
        self._running = False
        self._proc_seq = itertools.count()
        # Non-zero while an overlap scope is open; interleave points must
        # not yield there (scope bodies are atomic in virtual time).
        self._no_yield = 0

    # -- introspection -----------------------------------------------------
    def _require_process(self) -> Process:
        proc = self.current_process
        if proc is None:
            raise SimulationError(
                "this operation must be called from inside a simulated "
                "process (use SimKernel.spawn)")
        return proc

    # -- scheduling core ----------------------------------------------------
    def _schedule_wakeup(self, delay: float, proc: Process, reason: Any,
                         label: Any, phase: int = 0) -> None:
        """Queue a wakeup for ``proc`` bound to its current wake token."""
        heapq.heappush(self._queue,
                       (self.now + delay, phase, next(self._seq), label,
                        proc, proc._wake_token, reason))

    def _pop_next(self) -> tuple:
        """Pop the next queue entry, letting the schedule break ties.

        Without a schedule this is a plain heappop (FIFO at equal times).
        With one, all entries sharing the earliest ``(time, phase)`` are
        offered to ``schedule.choose`` by label; the chosen index is
        recorded in :attr:`schedule_trace`.
        """
        head = heapq.heappop(self._queue)
        if self.schedule is None or not self._queue:
            return head
        group = [head]
        key = (head[0], head[1])
        while self._queue and (self._queue[0][0], self._queue[0][1]) == key:
            group.append(heapq.heappop(self._queue))
        if len(group) == 1:
            return head
        idx = self.schedule.choose([_label_text(entry[3])
                                    for entry in group])
        if not isinstance(idx, int) or not 0 <= idx < len(group):
            raise SimulationError(
                f"schedule chose invalid index {idx!r} among "
                f"{len(group)} candidates")
        self.schedule_trace.append(idx)
        chosen = group.pop(idx)
        for entry in group:
            heapq.heappush(self._queue, entry)
        return chosen

    # -- dispatch (the baton) ------------------------------------------------
    def _dispatch(self) -> None:
        """Run queue entries until exactly one process is resumed.

        Called by whichever thread just blocked (or exited, or by the
        driver to start the chain). Resuming a process hands the baton to
        that process's thread — it will dispatch next when *it* blocks.
        When the queue drains or virtual time reaches the run's ``until``
        bound, the driver's baton is released instead. Errors raised by
        schedule policies or inline callbacks are stashed for the driver.
        """
        self.current_process = None
        queue = self._queue
        until = self._until
        try:
            if self.schedule is None:
                # Hot path: plain heap order, entries fired inline.
                pop = heapq.heappop
                while queue:
                    entry = queue[0]
                    when = entry[0]
                    if until is not None and when > until:
                        self.now = until
                        break
                    pop(queue)
                    self.now = when
                    if self._fire_entry(entry):
                        return
                else:
                    if until is not None and until > self.now:
                        self.now = until
            else:
                # Exploration path: tie groups offered to the schedule.
                while queue:
                    if until is not None and queue[0][0] > until:
                        self.now = until
                        break
                    entry = self._pop_next()
                    self.now = entry[0]
                    if self._fire_entry(entry):
                        return
                else:
                    if until is not None and until > self.now:
                        self.now = until
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._dispatch_error = exc
        self._driver.release()

    def _fire_entry(self, entry: tuple) -> bool:
        """Fire one popped entry; True iff the baton was handed off.

        Trace capture and the handoff of :attr:`current_process` happen
        *before* the resumed process is released: once its baton is
        up, that thread may reach its own dispatch step (and its own
        capture) at any moment.
        """
        proc = entry[4]
        if proc is None:
            # Inline callback (call_later): runs here, with no process
            # running; it never hands the baton off.
            entry[5]()
            return False
        token = entry[5]
        if token == _START:
            if proc.finished:
                return False
            proc._started = True
            if self.capture_trace:
                self.fired_trace.append((entry[0], _label_text(entry[3])))
            if self._idle_workers:
                worker = self._idle_workers.pop()
            else:
                worker = _WorkerThread(self, self._worker_count)
                self._worker_count += 1
            self.current_process = proc
            worker.submit(proc)
            proc._resume.release()
            return True
        if (proc.finished or not proc._started
                or token != proc._wake_token):
            # Stale wakeup: resumed by something else, already done,
            # or killed before start (flag observed at start instead).
            return False
        proc._wake_token += 1
        proc._wake_reason = entry[6]
        if self.capture_trace:
            self.fired_trace.append((entry[0], _label_text(entry[3])))
        self.current_process = proc
        proc._resume.release()
        return True

    def _recycle_worker(self, worker: _WorkerThread) -> None:
        self._idle_workers.append(worker)

    def _on_process_exit(self, proc: Process) -> None:
        proc.done_event.set(proc.result)

    # -- process management --------------------------------------------------
    def spawn(self, body: Callable[..., Any], *args: Any,
              name: Optional[str] = None, delay: float = 0.0,
              **kwargs: Any) -> Process:
        """Create a process that starts after ``delay`` virtual time units."""
        label = name or getattr(body, "__name__", "process")
        label = f"{label}#{next(self._proc_seq)}"

        if args or kwargs:
            def run() -> Any:
                return body(*args, **kwargs)
        else:
            run = body

        proc = Process(self, label, run)
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self.now + delay, 0, next(self._seq),
                        (label, "start"), proc, _START, None))
        return proc

    # -- blocking primitives (called from inside processes) ------------------
    def sleep(self, duration: float) -> None:
        """Advance this process's local time by ``duration``."""
        proc = self._require_process()
        if duration < 0:
            raise ValueError(f"negative sleep: {duration}")
        heapq.heappush(self._queue,
                       (self.now + duration, 0, next(self._seq),
                        proc._label_sleep, proc, proc._wake_token,
                        _SLEEP_REASON))
        proc._block()

    def wait(self, event: SimEvent, timeout: Optional[float] = None) -> bool:
        """Block until ``event`` is set; returns False on timeout.

        When a ``set()`` and the timeout land at the same virtual instant,
        the event wins the tie: timeout wakeups are queued at phase 1, so
        every same-instant normal wakeup (including the setter's resume and
        the resulting waiter wakeups) fires first and invalidates the
        pending timeout via the wake token.
        """
        proc = self._require_process()
        if event.is_set:
            return True
        event._add_waiter(proc)
        proc._waiting_on = event
        if timeout is not None:
            self._schedule_wakeup(
                timeout, proc, ("timeout", event),
                (proc.name, "timeout", event.name or "anon"), phase=1)
        try:
            reason = proc._block()
        except BaseException:
            # Killed (or crashed) while blocked: stop being a waiter so a
            # later set() does not schedule a dead wakeup for us.
            event._discard_waiter(proc)
            proc._waiting_on = None
            raise
        proc._waiting_on = None
        kind = reason[0] if isinstance(reason, tuple) else reason
        if kind == "timeout" and not event.is_set:
            event._discard_waiter(proc)
            return False
        return True

    def join(self, proc: Process, timeout: Optional[float] = None) -> Any:
        """Wait for ``proc``; re-raises its error, else returns its result."""
        finished = self.wait(proc.done_event, timeout=timeout)
        if not finished:
            raise TimeoutError(f"join timed out on {proc.name}")
        if proc.error is not None and not isinstance(proc.error,
                                                     ProcessKilled):
            raise proc.error
        return proc.result

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name=name)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` inline in the kernel loop after ``delay``.

        The callback must not block; it may set events or kill processes
        (used for execution-timeout watchdogs). It runs while the kernel
        dispatches, when ``current_process`` is ``None``, so a callback
        that tries to block fails loudly.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.call_at(self.now + delay, fn)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """:meth:`call_later` at the absolute virtual time ``when`` — for
        a timer whose instant was fixed earlier, which ``now + (when -
        now)`` need not reproduce to the last bit."""
        if when < self.now:
            raise ValueError(f"time in the past: {when} < {self.now}")
        heapq.heappush(self._queue,
                       (when, 0, next(self._seq), "call_later", None, fn,
                        None))

    def interleave_point(self, tag: str) -> None:
        """Optional scheduling point for schedule exploration.

        A no-op unless an installed schedule opts in via its
        ``interleave_points`` attribute — so production runs and the
        golden-pinned FIFO executions are byte-identical. When active, the
        calling process yields at this point, letting the schedule run any
        other ready process first. Never yields inside an overlap scope
        (scope bodies are atomic in virtual time).
        """
        sched = self.schedule
        if sched is None or not getattr(sched, "interleave_points", False):
            return
        if self._no_yield:
            return
        proc = self.current_process
        if proc is None:
            return
        if self.tracer is not None:
            self.tracer.event(f"interleave:{tag}", cat="schedule",
                              process=proc.name)
        self._schedule_wakeup(0.0, proc, ("interleave", tag),
                              (proc.name, "interleave", tag))
        proc._block()

    # -- driving the simulation ----------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or virtual time reaches ``until``.

        Returns the final virtual time. Must be called from a non-simulated
        (driver) thread.
        """
        if self.current_process is not None:
            raise SimulationError("run() called from inside a process")
        if self._running:
            raise SimulationError("kernel is already running")
        self._running = True
        self._until = until
        try:
            # Start the dispatch chain; it hops from blocking thread to
            # blocking thread and releases the driver's baton exactly
            # once, when the queue drains or ``until`` is reached.
            self._dispatch()
            self._driver.acquire()
            error = self._dispatch_error
            if error is not None:
                self._dispatch_error = None
                raise error
        finally:
            self._until = None
            self._running = False
        return self.now

    def run_until_processes_exit(self, procs: Iterable[Process],
                                 limit: Optional[float] = None) -> float:
        """Convenience driver: run until all ``procs`` finished.

        Raises :class:`SimulationError` if the event queue drains while
        some of ``procs`` are still blocked on events nobody will set —
        a deadlock that previously returned silently. Reaching ``limit``
        returns normally (the caller decides whether that is a failure).
        """
        procs = list(procs)
        while any(not p.finished for p in procs):
            self.run(until=limit)
            if limit is not None and self.now >= limit:
                break
            if not self._queue:
                blocked = [p for p in procs if not p.finished]
                if not blocked:
                    break
                detail = "; ".join(
                    f"{p.name} waiting on {p._waiting_on!r}"
                    for p in blocked)
                raise SimulationError(
                    f"deadlock: event queue drained with {len(blocked)} "
                    f"process(es) still blocked: {detail}")
        return self.now

    def shutdown(self) -> None:
        """Tear down pooled worker threads (test hygiene)."""
        for worker in self._idle_workers:
            worker.shutdown()
        self._idle_workers.clear()
