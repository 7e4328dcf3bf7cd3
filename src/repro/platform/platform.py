"""The serverless platform: registry, dispatch, concurrency, timeouts.

One :class:`ServerlessPlatform` models one provider account. Functions are
registered under string identifiers; invocations spawn kernel processes
that pay calibrated dispatch/cold-start latency, run the handler, and are
killed when they exceed their execution timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.platform.context import InvocationContext
from repro.platform.crashes import CrashPolicy, NeverCrash
from repro.platform.errors import (
    FunctionCrashed,
    FunctionNotFound,
    FunctionTimeout,
    TooManyRequests,
)
from repro.sim.kernel import Process, ProcessCrashed, ProcessKilled, \
    SimKernel
from repro.sim.latency import LatencyModel
from repro.sim.randsrc import RandomSource

Handler = Callable[[InvocationContext, Any], Any]


@dataclass
class PlatformConfig:
    """Account-level knobs.

    concurrency_limit:
        Max simultaneously running function instances; the gateway rejects
        client requests beyond it (AWS: 1,000/account — scaled down for
        bench runs, see docs/benchmarks.md).
    default_timeout:
        Execution timeout in virtual ms; the "T" from which Beldi derives
        its GC synchrony bound.
    warm_keepalive:
        How long an idle container stays warm.
    internal_retry_limit / internal_retry_backoff:
        SSF-to-SSF invocations over the cap retry with backoff instead of
        failing outright (the SDK behaviour).
    entry_admission_fraction:
        The gateway admits a new *client* request only while active
        instances are below this fraction of the cap, reserving headroom
        for the workflow-internal invocations of already-admitted
        requests (AWS's reserved-concurrency pattern). Without this, an
        overloaded account livelocks: admitted entry functions hold every
        slot while their children starve.
    """

    concurrency_limit: int = 100
    default_timeout: float = 60_000.0
    warm_keepalive: float = 600_000.0
    internal_retry_limit: int = 40
    internal_retry_backoff: float = 25.0
    entry_admission_fraction: float = 0.5


@dataclass
class PlatformStats:
    invocations: int = 0
    completions: int = 0
    crashes: int = 0
    timeouts: int = 0
    rejected: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    injected_crashes: int = 0
    peak_concurrency: int = 0


class _FunctionEntry:
    def __init__(self, name: str, handler: Handler, timeout: float) -> None:
        self.name = name
        self.handler = handler
        self.timeout = timeout
        self.warm_expiries: list[float] = []
        self.invocation_counter = 0


class ServerlessPlatform:
    """A provider account: functions, workers, gateway, timers."""

    def __init__(self, kernel: SimKernel,
                 rand: Optional[RandomSource] = None,
                 latency: Optional[LatencyModel] = None,
                 config: Optional[PlatformConfig] = None,
                 crash_policy: Optional[CrashPolicy] = None) -> None:
        self.kernel = kernel
        self.rand = rand or RandomSource(0, "platform")
        self.latency = latency or LatencyModel.zero()
        self.config = config or PlatformConfig()
        self.crash_policy = crash_policy or NeverCrash()
        self.stats = PlatformStats()
        self._functions: dict[str, _FunctionEntry] = {}
        self._active = 0
        self._timers: list[dict] = []

    # -- registration -----------------------------------------------------------
    def register(self, name: str, handler: Handler,
                 timeout: Optional[float] = None) -> None:
        self._functions[name] = _FunctionEntry(
            name, handler, timeout or self.config.default_timeout)

    def is_registered(self, name: str) -> bool:
        return name in self._functions

    def _entry(self, name: str) -> _FunctionEntry:
        entry = self._functions.get(name)
        if entry is None:
            raise FunctionNotFound(f"no function named {name!r}")
        return entry

    # -- concurrency accounting ----------------------------------------------------
    @property
    def active_instances(self) -> int:
        return self._active

    def _acquire_slot_or_reject(self) -> None:
        admission_limit = max(
            1, int(self.config.concurrency_limit
                   * self.config.entry_admission_fraction))
        if self._active >= admission_limit:
            self.stats.rejected += 1
            raise TooManyRequests(
                f"gateway admission limit {admission_limit} reached")
        self._grab_slot()

    def _acquire_slot_with_retry(self) -> None:
        attempts = 0
        while self._active >= self.config.concurrency_limit:
            attempts += 1
            if attempts > self.config.internal_retry_limit:
                self.stats.rejected += 1
                raise TooManyRequests(
                    "concurrency limit reached after retries")
            self.kernel.sleep(self.config.internal_retry_backoff * attempts)
        self._grab_slot()

    def _grab_slot(self) -> None:
        self._active += 1
        if self._active > self.stats.peak_concurrency:
            self.stats.peak_concurrency = self._active

    def _release_slot(self) -> None:
        self._active -= 1

    # -- dispatch ---------------------------------------------------------------------
    def _start_instance(self, entry: _FunctionEntry, payload: Any
                        ) -> tuple[Process, InvocationContext]:
        """Spawn the worker process for one invocation (slot already held)."""
        now = self.kernel.now
        entry.warm_expiries = [t for t in entry.warm_expiries if t > now]
        if entry.warm_expiries:
            entry.warm_expiries.pop()
            cold = False
            self.stats.warm_starts += 1
        else:
            cold = True
            self.stats.cold_starts += 1
        request_id = self.rand.uuid()
        index = entry.invocation_counter
        entry.invocation_counter += 1
        self.stats.invocations += 1
        deadline = now + entry.timeout  # dispatch latency included, like AWS
        ctx = InvocationContext(self, entry.name, request_id, index,
                                deadline, cold)
        ctx.lifecycle("start")
        #: The timeout timer's only hold on the worker's ``Process``;
        #: the exiting worker empties it, so a finished invocation is
        #: not kept alive until its timer fires.
        running: list = []

        def worker() -> Any:
            try:
                self.kernel.sleep(self.latency.sample("lambda.dispatch"))
                if cold:
                    self.kernel.sleep(
                        self.latency.sample("lambda.cold_start"))
                # Handler CPU time (marshalling, app logic) — the Python
                # body itself runs in zero virtual time.
                self.kernel.sleep(self.latency.sample("lambda.compute"))
                ctx.crash_point("enter")
                result = entry.handler(ctx, payload)
                ctx.crash_point("exit")
                entry.warm_expiries.append(
                    self.kernel.now + self.config.warm_keepalive)
                self.stats.completions += 1
                return result
            except ProcessCrashed:
                # Counted where the worker dies, not where someone waits
                # for it: nobody awaits an async worker, or the tail of
                # one that already responded.
                self.stats.crashes += 1
                raise
            finally:
                self._release_slot()
                running.clear()

        proc = self.kernel.spawn(worker, name=f"fn:{entry.name}")
        # The event only, not the process: the worker's closure holds the
        # context, and a reference back would make every invocation a
        # cycle for the garbage collector to find.
        ctx.done_event = proc.done_event
        running.append(proc)
        self._arm_timeout(running, entry.timeout)
        return proc, ctx

    def _arm_timeout(self, running: list, timeout: float) -> None:
        """Kill the worker in ``running`` if it is still there — not yet
        exited — after ``timeout``."""
        def enforce() -> None:
            if running and not running[0].finished:
                self.stats.timeouts += 1
                running[0].kill(crash=False)

        self.kernel.call_later(timeout, enforce)

    def _await_result(self, proc: Process, ctx: InvocationContext) -> Any:
        self.kernel.wait(proc.done_event)
        if ctx.responded:
            # The response was handed over; whatever became of the
            # worker afterwards is not the waiter's business.
            result = ctx.response
        elif proc.error is None:
            result = proc.result
        elif isinstance(proc.error, ProcessCrashed):
            raise FunctionCrashed(f"{proc.name} crashed") from None
        elif isinstance(proc.error, ProcessKilled):
            raise FunctionTimeout(f"{proc.name} timed out") from None
        else:
            raise proc.error
        ctx.lifecycle("consumed")
        return result

    # -- public invocation API ----------------------------------------------------------
    def sync_invoke(self, name: str, payload: Any,
                    meanwhile: Optional[Callable[[], None]] = None) -> Any:
        """SSF-to-SSF synchronous invocation (waits for the result).

        ``meanwhile()`` runs in the invoker once the worker has started
        and before its result is awaited — what an SDK caller does
        between sending the request and reading the response. It never
        runs if no worker started (``TooManyRequests``); if it raises,
        the worker goes on unawaited, like an async one.
        """
        entry = self._entry(name)
        self._acquire_slot_with_retry()
        proc, ctx = self._start_instance(entry, payload)
        if meanwhile is not None:
            meanwhile()
        return self._await_result(proc, ctx)

    def async_invoke(self, name: str, payload: Any) -> None:
        """Fire-and-forget. No automatic retry on failure (§7.2: automatic
        Lambda restarts are disabled; Beldi's IC owns recovery)."""
        entry = self._entry(name)
        self.kernel.sleep(self.latency.sample("lambda.async_ack"))
        self._acquire_slot_with_retry()
        self._start_instance(entry, payload)

    def client_request(self, name: str, payload: Any) -> Any:
        """External request through the gateway; rejected at the cap."""
        entry = self._entry(name)
        self._acquire_slot_or_reject()
        return self._await_result(*self._start_instance(entry, payload))

    # -- timers -----------------------------------------------------------------------------
    def add_timer(self, name: str, period: float,
                  payload_factory: Optional[Callable[[], Any]] = None,
                  suppress_overlap: bool = True) -> dict:
        """Invoke ``name`` every ``period`` virtual ms (IC/GC triggers).

        With ``suppress_overlap`` a tick is skipped while the previous
        invocation of this timer is still running, which is how the paper's
        1-minute IC/GC timers behave in practice.
        """
        handle = {"stopped": False, "running": False, "ticks": 0,
                  "errors": 0}

        def tick_body() -> None:
            handle["running"] = True
            try:
                payload = payload_factory() if payload_factory else {}
                self.sync_invoke(name, payload)
            except Exception:  # noqa: BLE001 - timer survives failures
                handle["errors"] += 1
            finally:
                handle["running"] = False

        def loop() -> None:
            while not handle["stopped"]:
                self.kernel.sleep(period)
                if handle["stopped"]:
                    return
                if suppress_overlap and handle["running"]:
                    continue
                handle["ticks"] += 1
                self.kernel.spawn(tick_body, name=f"timer:{name}")

        self.kernel.spawn(loop, name=f"timer-loop:{name}")
        self._timers.append(handle)
        return handle

    def stop_timers(self) -> None:
        for handle in self._timers:
            handle["stopped"] = True
