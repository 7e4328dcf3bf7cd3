"""Per-invocation context handed to function handlers.

The context is the handler's only window onto the platform: its identity
(request id — what Beldi uses as the first instance id in a workflow), its
deadline, nested invocation of other functions, and the crash points the
fault-injection machinery hooks into.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.kernel import ProcessCrashed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.platform import ServerlessPlatform


class InvocationContext:
    """Identity and services for one running function instance."""

    def __init__(self, platform: "ServerlessPlatform", function: str,
                 request_id: str, invocation_index: int,
                 deadline: float, cold_start: bool) -> None:
        self.platform = platform
        self.function = function
        self.request_id = request_id
        self.invocation_index = invocation_index
        self.deadline = deadline
        self.cold_start = cold_start
        #: The worker process's ``done`` event (set at spawn): what a
        #: synchronous invoker waits on.
        self.done_event = None
        self.responded = False
        self.response: Any = None

    # -- time ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.platform.kernel.now

    def sleep(self, duration: float) -> None:
        self.platform.kernel.sleep(duration)

    # -- early response ------------------------------------------------------------
    def respond(self, result: Any) -> None:
        """Hand ``result`` to whoever waits on this invocation, and keep
        running.

        What a Lambda custom runtime does when it POSTs the invocation
        response and works on before polling ``next``: the waiter is
        released now, while the worker keeps its concurrency slot, its
        timeout and its bill until it exits. The response rides the event
        the waiter already blocks on, so an invocation that never
        responds early schedules nothing it did not schedule before. The
        handler's eventual return value (and a later crash) reach nobody.
        """
        if self.responded:
            return
        self.responded = True
        self.response = result
        self.done_event.set(result)

    # -- nested invocation -------------------------------------------------------
    def sync_invoke(self, function: str, payload: Any,
                    meanwhile: Optional[Callable[[], None]] = None) -> Any:
        """Call another function and wait for its result; ``meanwhile()``
        runs between its start and the wait
        (:meth:`ServerlessPlatform.sync_invoke`)."""
        return self.platform.sync_invoke(function, payload,
                                         meanwhile=meanwhile)

    def async_invoke(self, function: str, payload: Any) -> None:
        """Fire-and-forget invocation of another function."""
        self.platform.async_invoke(function, payload)

    # -- lifecycle events ------------------------------------------------------------
    def lifecycle(self, name: str, **args: Any) -> None:
        """Say that a lifecycle fact of this invocation just became
        true: one ``cat="lifecycle"`` instant event that names its
        execution — this worker — explicitly, whichever process runs the
        code (``docs/observability.md``). Nothing when tracing is off."""
        tracer = self.platform.kernel.tracer
        if tracer is not None:
            tracer.event(name, cat="lifecycle", function=self.function,
                         invocation=self.invocation_index,
                         request=self.request_id, **args)

    # -- fault injection -----------------------------------------------------------
    def crash_point(self, tag: str) -> None:
        """Die here if the active crash policy says so.

        Instrumentation is cooperative: the Beldi library brackets every
        externally visible operation with crash points, giving tests a
        complete, nameable crash space.
        """
        policy = self.platform.crash_policy
        if policy.should_crash(self.function, self.invocation_index, tag):
            self.platform.stats.injected_crashes += 1
            tracer = self.platform.kernel.tracer
            if tracer is not None:
                tracer.event(f"crash:{tag}", cat="fault",
                             function=self.function,
                             invocation=self.invocation_index)
            raise ProcessCrashed()
        # Crash points double as interleave points: under an exploring
        # schedule the kernel may run another ready process here. A no-op
        # (no yield) otherwise.
        self.platform.kernel.interleave_point(tag)

    def interleave(self, tag: str) -> None:
        """Named scheduling point with no crash semantics (conflict sites
        such as lock handoffs that the crash sweep does not enumerate)."""
        self.platform.kernel.interleave_point(tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<InvocationContext {self.function} "
                f"req={self.request_id} #{self.invocation_index}>")
