"""The no-guarantees baseline (§7.2).

The paper's baseline runs the same applications directly on the platform
and store, without Beldi's library: no intents, no logs, no callbacks, no
locks, no transactions. A crash mid-workflow leaves state corrupted
(double increments, half-applied reservations) and concurrent requests
interleave freely — which is exactly what the evaluation contrasts Beldi
against. The API mirrors :class:`BeldiContext` so application code runs
unchanged in either mode.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.kvstore import ConditionFailed, KVStore, KernelTimeSource, Set
from repro.kvstore.expressions import Condition
from repro.platform import PlatformConfig, ServerlessPlatform
from repro.platform.context import InvocationContext
from repro.sim.kernel import SimKernel
from repro.sim.latency import LatencyModel
from repro.sim.randsrc import RandomSource


class BaselineEnv:
    """Plain one-row-per-item tables, namespaced like a Beldi env."""

    def __init__(self, store: KVStore, name: str,
                 tables: Iterable[str] = ()) -> None:
        self.store = store
        self.name = name
        self._tables: dict[str, str] = {}
        for short in tables:
            self.declare_table(short)

    def declare_table(self, short: str) -> str:
        full = f"{self.name}.{short}"
        self.store.ensure_table(full, hash_key="Key")
        self._tables[short] = full
        return full

    def data_table(self, short: str) -> str:
        return self._tables[short]

    def seed(self, short: str, key: Any, value: Any) -> None:
        self.store.put(self.data_table(short), {"Key": key, "Value": value})

    def peek(self, short: str, key: Any) -> Any:
        row = self.store.get(self.data_table(short), key)
        return row.get("Value") if row else None


class _NoopTransaction:
    """Baseline 'transactions' provide no isolation or atomicity."""

    outcome = "committed"
    committed = True
    aborted = False

    def __enter__(self) -> "_NoopTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class BaselineContext:
    """Same surface as BeldiContext, none of the guarantees."""

    def __init__(self, runtime: "BaselineRuntime", function_name: str,
                 env: BaselineEnv,
                 platform_ctx: InvocationContext) -> None:
        self.runtime = runtime
        self.function_name = function_name
        self.env = env
        self.platform_ctx = platform_ctx
        self.instance_id = platform_ctx.request_id

    def read(self, table: str, key: Any) -> Any:
        row = self.env.store.get(self.env.data_table(table), key)
        return row.get("Value") if row else None

    def read_eventual(self, table: str, key: Any) -> Any:
        # The baseline has no replication and no log to replay from;
        # a staleness-tolerant read is just a read.
        return self.read(table, key)

    def read_many(self, table: str, keys: Iterable[Any]) -> list:
        return [self.read(table, key) for key in keys]

    def write(self, table: str, key: Any, value: Any) -> None:
        self.env.store.update(self.env.data_table(table), (key,),
                              [Set("Value", value)])

    def cond_write(self, table: str, key: Any, value: Any,
                   condition: Condition) -> bool:
        try:
            self.env.store.update(self.env.data_table(table), (key,),
                                  [Set("Value", value)],
                                  condition=condition)
            return True
        except ConditionFailed:
            return False

    def sync_invoke(self, callee: str, payload: Any = None) -> Any:
        return self.platform_ctx.sync_invoke(
            callee, {"kind": "call", "input": payload})

    def async_invoke(self, callee: str, payload: Any = None) -> None:
        self.platform_ctx.async_invoke(
            callee, {"kind": "call", "input": payload})

    def parallel_invoke(self, calls: Any) -> list:
        kernel = self.runtime.kernel
        procs = [
            kernel.spawn(self.platform_ctx.sync_invoke, callee,
                         {"kind": "call", "input": payload},
                         name=f"parallel:{callee}")
            for callee, payload in calls
        ]
        return [kernel.join(proc) for proc in procs]

    # Locks and transactions are advisory no-ops in the baseline.
    def lock(self, table: str, key: Any) -> None:
        pass

    def unlock(self, table: str, key: Any) -> None:
        pass

    def begin_tx(self) -> None:
        pass

    def end_tx(self, commit: bool = True) -> str:
        return "commit"

    def transaction(self) -> _NoopTransaction:
        return _NoopTransaction()

    def abort_tx(self) -> None:
        pass

    def in_transaction(self) -> bool:
        return False

    def record(self, compute: Callable[[], Any]) -> Any:
        return compute()

    def fresh_id(self) -> str:
        return self.runtime.fresh_uuid()

    def current_time(self) -> float:
        return self.platform_ctx.now

    def sleep(self, duration: float) -> None:
        self.platform_ctx.sleep(duration)

    def crash_point(self, tag: str) -> None:
        self.platform_ctx.crash_point(tag)


@dataclass
class BaselineSSF:
    name: str
    handler: Callable[[BaselineContext, Any], Any]
    env: BaselineEnv


class BaselineRuntime:
    """Registration/run surface mirroring :class:`BeldiRuntime`."""

    def __init__(self, kernel: Optional[SimKernel] = None, seed: int = 0,
                 latency_scale: float = 0.0,
                 platform_config: Optional[PlatformConfig] = None,
                 store: Optional[KVStore] = None,
                 platform: Optional[ServerlessPlatform] = None) -> None:
        self.kernel = kernel or SimKernel(seed=seed)
        self.rand = RandomSource(seed, "baseline")
        latency = LatencyModel(self.rand.child("latency"),
                               scale=latency_scale)
        self.store = store or KVStore(
            time_source=KernelTimeSource(self.kernel),
            latency=latency, rand=self.rand.child("store"))
        self.platform = platform or ServerlessPlatform(
            self.kernel, rand=self.rand.child("platform"),
            latency=latency, config=platform_config)
        self._ids = self.rand.child("ids")
        self.envs: dict[str, BaselineEnv] = {}
        self.ssfs: dict[str, BaselineSSF] = {}

    def fresh_uuid(self) -> str:
        return self._ids.uuid()

    def create_env(self, name: str,
                   tables: Iterable[str] = ()) -> BaselineEnv:
        env = BaselineEnv(self.store, name, tables)
        self.envs[name] = env
        return env

    def register_ssf(self, name: str, handler, env=None,
                     tables: Iterable[str] = ()) -> BaselineSSF:
        if env is None:
            env = self.create_env(name, tables)
        ssf = BaselineSSF(name, handler, env)
        self.ssfs[name] = ssf

        def platform_handler(platform_ctx: InvocationContext,
                             payload: Any) -> Any:
            payload = payload or {}
            ctx = BaselineContext(self, name, env, platform_ctx)
            return handler(ctx, payload.get("input"))

        self.platform.register(name, platform_handler)
        return ssf

    def start_collectors(self, *args: Any, **kwargs: Any) -> None:
        """The baseline has no collectors; kept for interface parity."""

    def stop_collectors(self) -> None:
        pass

    def client_call(self, ssf_name: str, payload: Any = None) -> Any:
        return self.platform.client_request(
            ssf_name, {"kind": "call", "input": payload})

    def run_workflow(self, ssf_name: str, payload: Any = None,
                     until: Optional[float] = None) -> Any:
        box: dict[str, Any] = {}

        def client() -> None:
            box["result"] = self.client_call(ssf_name, payload)

        proc = self.kernel.spawn(client, name="client")
        self.kernel.run(until=until)
        if proc.error is not None:
            raise proc.error
        return box.get("result")
