"""Error types surfaced by the platform emulator."""

from __future__ import annotations


class PlatformError(Exception):
    """Base class for platform errors."""


class FunctionNotFound(PlatformError):
    """Invocation of an unregistered function identifier."""


class TooManyRequests(PlatformError):
    """The account concurrency cap rejected this request (HTTP 429).

    The paper observes AWS's 1,000-concurrent-Lambda account limit as the
    saturation bottleneck for both Beldi and the baseline.
    """


class FunctionTimeout(PlatformError):
    """The invocation exceeded its configured execution timeout.

    The platform kills the worker; Beldi's intent collector is what brings
    the work back.
    """


class FunctionCrashed(PlatformError):
    """The invoked function's worker crashed (fault injection or a bug).

    For synchronous invocations the caller sees this error; the paper's
    model is that the provider does nothing further (automatic restarts are
    disabled in the evaluation, §7.2) and recovery is entirely Beldi's job.
    """
