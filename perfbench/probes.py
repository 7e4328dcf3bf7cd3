"""Benchmark-owned probes: spans around each layer's public functions.

Installed from outside (no file under ``src/`` knows about them) and only
in the traced pass. Every wrapper records one span — layer, name, virtual
start/end from ``kernel.now``, thread-CPU start/end, parent from a
per-thread stack, request id — and spans are aggregated in memory.

Two clocks, two attribution rules:

* **cpu** — ``time.thread_time_ns()`` self time: a span's CPU minus its
  child spans'. Thread CPU excludes time parked in the kernel, so a
  blocked simulated process costs nothing while it waits.
* **virt** — the virtual clock only advances inside ``SimKernel.sleep``
  and ``SimKernel.wait``. Each advance is attributed to the innermost
  non-``sim`` span on the blocked thread's stack: the layer that decided
  to wait. Waits on another *process's* completion are the exception —
  that interval is already attributed on the awaited process's own
  thread — so for a request that runs sequentially the per-layer virtual
  times sum to its latency exactly.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

from repro.core import context as core_context
from repro.core import daal
from repro.core import txn as core_txn
from repro.kvstore import KVStore, ReplicaGroup, ShardedStore
from repro.kvstore.store import TimeSource
from repro.platform import ServerlessPlatform
from repro.resilience import ResilientStore
from repro.sim.kernel import SimKernel
from repro.workload import openloop

STORE_OPS = ("get", "put", "update", "delete", "query", "scan",
             "query_index", "batch_get", "batch_write", "transact_write")
STORE_LAYERS = ((ResilientStore, "resilience"),
                (ShardedStore, "kvstore.sharding"),
                (ReplicaGroup, "kvstore.replication"),
                (KVStore, "kvstore.store"))
CONTEXT_LAYERS = {
    "core.ops": ("read", "read_eventual", "write", "cond_write"),
    "core.invoke": ("sync_invoke", "async_invoke", "parallel_invoke"),
    "core.txn": ("lock", "unlock", "begin_tx", "end_tx"),
}
#: Process-name prefix -> the layer whose code the process body is.
PROCESS_LAYERS = (("fn:", "platform", "worker"),
                  ("timer", "platform", "timer"),
                  ("parallel:", "core.invoke", "branch"))
INJECTED = ("UnavailableError", "ThrottledError")
#: Full spans are kept for the first requests only (the trace file).
TRACE_REQUESTS = 200

# Frame slots (a list, not a class: this is the probe's own hot path).
LAYER, NAME, V0, C0, SELF_VIRT, CHILD_CPU, RID, SPAN_ID, PARENT_ID = range(9)


class Probes:
    def __init__(self) -> None:
        self.enabled = False
        self.kernel = None
        self._local = threading.local()
        self._span_ids = 0
        #: (layer, name) -> [count, virt incl ms, virt self ms,
        #:                   cpu incl ns, cpu self ns]
        self.names = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.counters = defaultdict(float)
        self.finish_virt_ms: list = []
        #: request id -> {layer: attributed virtual ms}
        self.request_virt: dict = {}
        self.rid_of: dict = {}
        self.rid_base = 0
        self.spans: list = []
        self.live = 0
        self.live_max = 0
        self.threads_max = 0
        self.lateness_max = 0.0
        self.lag_ms_max = 0.0

    # -- per-thread state --------------------------------------------------
    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.rid = None
            return local.stack

    def _enter(self, layer: str, name: str, parent_id=None) -> list:
        stack = self._stack()
        self._span_ids += 1
        if parent_id is None and stack:
            parent_id = stack[-1][SPAN_ID]
        frame = [layer, name, self.kernel.now, 0, 0.0, 0, self._local.rid,
                 self._span_ids, parent_id]
        stack.append(frame)
        frame[C0] = time.thread_time_ns()
        return frame

    def _exit(self, frame: list) -> float:
        """Close ``frame``; returns its inclusive virtual ms."""
        cpu = time.thread_time_ns() - frame[C0]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][CHILD_CPU] += cpu
        virt = self.kernel.now - frame[V0]
        totals = self.names[(frame[LAYER], frame[NAME])]
        totals[0] += 1
        totals[1] += virt
        totals[2] += frame[SELF_VIRT]
        totals[3] += cpu
        totals[4] += cpu - frame[CHILD_CPU]
        rid = frame[RID]
        if rid is not None and rid < TRACE_REQUESTS:
            self.spans.append({
                "id": frame[SPAN_ID], "parent": frame[PARENT_ID],
                "request": rid, "layer": frame[LAYER], "name": frame[NAME],
                "thread": threading.current_thread().name,
                "virt_start_ms": frame[V0], "virt_end_ms": frame[V0] + virt,
                "virt_self_ms": frame[SELF_VIRT],
                "cpu_us": cpu / 1000.0,
                "cpu_self_us": (cpu - frame[CHILD_CPU]) / 1000.0})
        return virt

    def _attribute(self, delta: float) -> None:
        """The clock advanced ``delta`` ms while this thread was blocked."""
        for frame in reversed(self._local.stack):
            if frame[LAYER] != "sim":
                frame[SELF_VIRT] += delta
                rid = frame[RID]
                if rid is not None:
                    per_layer = self.request_virt.setdefault(rid, {})
                    per_layer[frame[LAYER]] = (
                        per_layer.get(frame[LAYER], 0.0) + delta)
                return

    # -- wrappers ------------------------------------------------------------
    def span(self, fn, layer: str, name: str, after=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if layer == "kvstore.store" and (
                        type(exc).__name__ in INJECTED):
                    self.counters["injected_errors"] += 1
                self._exit(frame)
                raise
            virt = self._exit(frame)
            if after is not None:
                after(result, virt)
            return result
        return wrapper

    def _blocking(self, fn, name: str):
        """``SimKernel.sleep`` / ``wait``: the only places time passes."""
        def wrapper(kernel, target, *args, **kwargs):
            if not self.enabled:
                return fn(kernel, target, *args, **kwargs)
            frame = self._enter("sim", name)
            try:
                return fn(kernel, target, *args, **kwargs)
            finally:
                delta = self._exit(frame)
                if delta:
                    if name == "wait" and target.name.endswith(".done"):
                        if any(f[LAYER] == "core.invoke"
                               for f in self._local.stack):
                            self.counters["invoke_wait_ms"] += delta
                    else:
                        self._attribute(delta)
        return wrapper

    def _spawn(self, fn):
        def wrapper(kernel, body, *args, name=None, delay=0.0, **kwargs):
            if not self.enabled:
                return fn(kernel, body, *args, name=name, delay=delay,
                          **kwargs)
            frame = self._enter("sim", "spawn")
            label = name or getattr(body, "__name__", "process")
            rid = self._local.rid
            for arg in args:
                rid = self.rid_of.get(id(arg), rid)
            layer, role = "workload", "client"
            for prefix, prefix_layer, prefix_role in PROCESS_LAYERS:
                if label.startswith(prefix):
                    layer, role = prefix_layer, prefix_role
            due = kernel.now + delay
            cause = frame[PARENT_ID]

            def root():
                self._stack()
                self._local.rid = rid
                self.threads_max = max(self.threads_max,
                                       threading.active_count())
                self.lateness_max = max(self.lateness_max,
                                        kernel.now - due)
                root_frame = self._enter(layer, role, parent_id=cause)
                try:
                    return body(*args, **kwargs)
                finally:
                    self._exit(root_frame)
                    self._local.rid = None
                    self.live -= 1

            self.live += 1
            self.live_max = max(self.live_max, self.live)
            try:
                return fn(kernel, root, name=label, delay=delay)
            finally:
                self._exit(frame)
        return wrapper

    def _client_request(self, fn):
        spanned = self.span(fn, "platform", "client_request")

        def wrapper(platform, name, payload):
            if not self.enabled:
                return fn(platform, name, payload)
            self._stack()
            local = self._local
            previous = local.rid
            local.rid = self.rid_of.get(id(payload.get("input")), previous)
            try:
                return spanned(platform, name, payload)
            finally:
                local.rid = previous
        return wrapper

    def _register(self, fn):
        def wrapper(platform, name, handler, timeout=None):
            if name.endswith(".gc"):
                layer = "core.gc"
            elif name.endswith(".ic"):
                layer = "core.collector"
            else:
                layer = "core.runtime"
            return fn(platform, name, self.span(handler, layer, "handler"),
                      timeout)
        return wrapper

    def _count(self, fn, key: str, amount=None):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counters[key] += 1
                if amount is not None:
                    self.counters[f"{key}_sum"] += amount(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points (process-wide)."""
        SimKernel.sleep = self._blocking(SimKernel.sleep, "sleep")
        SimKernel.wait = self._blocking(SimKernel.wait, "wait")
        SimKernel.join = self.span(SimKernel.join, "sim", "join")
        SimKernel.spawn = self._spawn(SimKernel.spawn)
        ServerlessPlatform.client_request = self._client_request(
            ServerlessPlatform.client_request)
        for name in ("sync_invoke", "async_invoke"):
            setattr(ServerlessPlatform, name, self.span(
                getattr(ServerlessPlatform, name), "platform", name))
        ServerlessPlatform.register = self._register(
            ServerlessPlatform.register)
        context = core_context.BeldiContext
        for layer, methods in CONTEXT_LAYERS.items():
            for name in methods:
                setattr(context, name, self.span(
                    getattr(context, name), layer, name))

        def finished(mode, virt):
            if mode != "inherited":
                self.counters[f"txn_{mode}"] += 1
                self.finish_virt_ms.append(virt)

        finish = self.span(core_txn.finish_transaction, "core.txn",
                           "finish", after=finished)
        # BeldiContext.end_tx holds its own reference to the function.
        core_txn.finish_transaction = finish
        core_context.finish_transaction = finish
        core_txn.tx_lock = self.span(core_txn.tx_lock, "core.txn",
                                     "tx_lock")
        daal.load_skeleton = self._count(daal.load_skeleton, "traversals")
        TimeSource.pay = self._count(
            TimeSource.pay, "paid", amount=lambda _self, duration: duration)
        for cls, layer in STORE_LAYERS:
            for op in STORE_OPS:
                if op in cls.__dict__:
                    setattr(cls, op, self.span(cls.__dict__[op], layer, op))
        openloop.AdmissionWindow.try_enter = self.span(
            openloop.AdmissionWindow.try_enter, "workload", "admission")
        openloop.run_open_loop = self.span(
            openloop.run_open_loop, "workload", "run_open_loop")

    def begin_stage(self, runtime, payloads: list) -> None:
        """Point the probes at one runtime and map payloads to requests."""
        self.kernel = runtime.kernel
        self.rid_of = {id(payload): self.rid_base + i
                       for i, payload in enumerate(payloads)}
        self.rid_base += len(payloads)
        for group in getattr(runtime.store, "groups", ()):
            # The group's own latency model only ever samples repl.ship
            # (follower lag) and repl.failover.
            def sample(name, units=0.0, _sample=group.latency.sample,
                       _group=group):
                value = _sample(name, units)
                if name == "repl.ship":
                    self.lag_ms_max = max(self.lag_ms_max, min(
                        value * _group.lag_scale, _group.max_lag))
                return value
            group.latency.sample = sample
        self.enabled = True

    def end_stage(self) -> None:
        self.enabled = False

    # -- reading the aggregate -----------------------------------------------
    def layer_totals(self) -> dict:
        """layer -> {spans, virt_ms (self), cpu_s (self)}."""
        out: dict = {}
        for (layer, _name), (count, _incl, virt, _cpu, cpu_self) in (
                self.names.items()):
            row = out.setdefault(layer, {"spans": 0, "virt_ms": 0.0,
                                         "cpu_s": 0.0})
            row["spans"] += count
            row["virt_ms"] += virt
            row["cpu_s"] += cpu_self / 1e9
        return out

    def count(self, layer: str, *names: str) -> int:
        return sum(self.names[(layer, name)][0] for name in names
                   if (layer, name) in self.names)

    def write_trace(self, path) -> None:
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                out.write(json.dumps(span) + "\n")


def identity_gaps(probes: Probes, latencies: list, rid_base: int) -> float:
    """Largest |sum of per-layer virtual ms - recorded latency| over the
    ok requests of one stage (the exclusive-time identity)."""
    worst = 0.0
    for index, latency in enumerate(latencies):
        if latency is None:
            continue
        attributed = sum(probes.request_virt.get(rid_base + index,
                                                 {}).values())
        worst = max(worst, abs(attributed - latency))
    return worst


def layer_metrics(probes: Probes, books: dict, requests: int,
                  cpu_s: float, obs_spans: int, admission: dict) -> dict:
    """The named per-layer metrics of BENCHMARK.json, from the probes
    (times, span counts) and the program's books (everything else)."""
    layers = probes.layer_totals()
    names = probes.names
    counters = probes.counters

    def cpu_us(layer: str) -> float:
        return layers.get(layer, {}).get("cpu_s", 0.0) * 1e6

    def virt(layer: str) -> float:
        return layers.get(layer, {}).get("virt_ms", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def incl(layer: str, name: str, slot: int) -> float:
        return names[(layer, name)][slot] if (layer, name) in names else 0.0

    blocking = probes.count("sim", "sleep", "wait")
    ops = probes.count("core.ops", *CONTEXT_LAYERS["core.ops"])
    invokes = probes.count("core.invoke", *CONTEXT_LAYERS["core.invoke"])
    invoke_virt = sum(incl("core.invoke", name, 1)
                      for name in CONTEXT_LAYERS["core.invoke"])
    txns = counters["txn_commit"] + counters["txn_abort"]
    round_trips = books["round_trips"]
    paid = counters["paid"]
    gc_passes = books.get("gc_passes", 0)
    invocations = books["platform_invocations"]
    resilience_calls = layers.get("resilience", {}).get("spans", 0)
    finish = sorted(probes.finish_virt_ms)
    return {
        "sim.blocking_calls_per_req": ratio(blocking, requests),
        "sim.spawns_per_req": ratio(probes.count("sim", "spawn"), requests),
        "sim.cpu_us_per_blocking_call": ratio(cpu_us("sim"), blocking),
        "sim.cpu_share": ratio(cpu_us("sim") / 1e6, cpu_s),
        "sim.live_procs_max": probes.live_max,
        "sim.threads_max": probes.threads_max,
        "workload.admission_wait_ms_per_req": ratio(
            incl("workload", "admission", 2), requests),
        "workload.queue_depth_max": admission["queue_depth_max"],
        "workload.shed_share": ratio(admission["shed"], requests),
        "workload.gen_lateness_ms_max": probes.lateness_max,
        "workload.cpu_us_per_req": ratio(cpu_us("workload"), requests),
        "platform.invocations_per_req": ratio(invocations, requests),
        "platform.cold_start_share": ratio(books["platform_cold_starts"],
                                           invocations),
        "platform.rejected_share": ratio(
            books["platform_rejected"],
            invocations + books["platform_rejected"]),
        "platform.peak_concurrency": books["platform_peak_concurrency"],
        "platform.virt_ms_per_req": ratio(virt("platform"), requests),
        "platform.cpu_us_per_req": ratio(cpu_us("platform"), requests),
        "platform.injected_crashes": books["platform_injected_crashes"],
        "core.ops.count_per_req": ratio(ops, requests),
        "core.ops.cpu_us_per_op": ratio(cpu_us("core.ops"), ops),
        "core.tailcache.hit_ratio": ratio(
            books["tail_hits"], books["tail_hits"] + books["tail_misses"]),
        "core.daal.traversal_queries_per_req": ratio(
            counters["traversals"], requests),
        "core.daal.chain_rows_max": books["chain_rows_max"],
        "core.invoke.sync_per_req": ratio(invokes, requests),
        "core.invoke.virt_ms_per_req": ratio(
            invoke_virt - counters["invoke_wait_ms"], requests),
        "core.invoke.wait_on_callee_ms_per_req": ratio(
            counters["invoke_wait_ms"], requests),
        "core.txn.commits": counters["txn_commit"],
        "core.txn.abort_share": ratio(counters["txn_abort"], txns),
        "core.txn.lock_wait_ms_per_txn": ratio(
            incl("core.txn", "tx_lock", 2), txns),
        "core.txn.finish_virt_ms_p50": (
            finish[(len(finish) - 1) // 2] if finish else 0.0),
        "core.gc.passes": gc_passes,
        "core.gc.virt_ms_per_pass": ratio(incl("core.gc", "handler", 1),
                                          gc_passes),
        "core.gc.rows_reclaimed": books.get("rows_reclaimed", 0),
        "core.gc.cpu_s": incl("core.gc", "handler", 3) / 1e9,
        "core.collector.restarts": books.get("restarts", 0),
        "kvstore.round_trips_per_req": ratio(round_trips, requests),
        "kvstore.read_units_per_req": ratio(books["read_units"], requests),
        "kvstore.write_units_per_req": ratio(books["write_units"],
                                             requests),
        "kvstore.eventual_read_share": ratio(books["eventual_reads"],
                                             books["read_round_trips"]),
        "kvstore.batch_items_per_rt": ratio(books["items"], round_trips),
        "kvstore.service_ms_per_rt": ratio(
            counters["paid_sum"] - books["queue_waited_ms"], paid),
        "kvstore.queue_wait_ms_per_rt": ratio(books["queue_waited_ms"],
                                              paid),
        "kvstore.shard_load_max_over_mean": books[
            "shard_load_max_over_mean"],
        "kvstore.store.cpu_us_per_rt": ratio(cpu_us("kvstore.store"),
                                             round_trips),
        "kvstore.sharding.cpu_us_per_rt": ratio(cpu_us("kvstore.sharding"),
                                                round_trips),
        "kvstore.replication.cpu_us_per_rt": ratio(
            cpu_us("kvstore.replication"), round_trips),
        "kvstore.replication.shipped_records": books["shipped_records"],
        "kvstore.replication.lag_ms_max": probes.lag_ms_max,
        "kvstore.replication.failovers": books["failovers"],
        "kvstore.rebalance.migrations": books["migrations"],
        "kvstore.rebalance.rows_moved": books["rows_moved"],
        "kvstore.rebalance.usd_share": ratio(books["migration_dollars"],
                                             books["dollars"]),
        "kvstore.faults.injected_errors": counters["injected_errors"],
        "resilience.retries_per_req": ratio(books["resilience_retries"],
                                            requests),
        "resilience.backoff_ms_per_req": ratio(
            books["resilience_backoff_ms"], requests),
        "resilience.fast_fail_share": ratio(books["resilience_fast_fails"],
                                            resilience_calls),
        "resilience.breaker_opens": books["resilience_breaker_opens"],
        "resilience.degraded_reads": books["resilience_degraded_reads"],
        "resilience.deadline_aborts": books["resilience_deadline_aborts"],
        "resilience.cpu_us_per_rt": ratio(cpu_us("resilience"),
                                          round_trips),
        "obs.spans_per_req": ratio(obs_spans, requests),
    }
