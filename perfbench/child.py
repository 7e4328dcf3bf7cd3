"""One measured pass of one workload, in a fresh (pinned) process.

Started by ``perfbench/run.py``; prints one JSON object on stdout.
``--start`` is the parent's ``time.time()`` just before it launched this
process, so ``setup_s`` covers interpreter start-up and imports too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402 - needs the path above

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
#: |sum of per-layer virtual ms - latency| allowed per request (ms).
IDENTITY_TOLERANCE_MS = 1e-6
SINGLE_SSF = ("profile-ladder", "profile-faults")
#: The calibration spin and what it costs on a quiet reference box.
SPIN_ITERATIONS = 60_000
SPIN_REFERENCE_S = 0.00275
SPIN_EVERY_S = 0.2


class Calibrator(threading.Thread):
    """Samples how fast this CPU is *while* the workload runs.

    On a shared box the same work costs 600..950 CPU-ms from one minute
    to the next (a busy sibling core, a noisy neighbour), so raw CPU
    seconds are not comparable between runs. This thread times a fixed
    pure-Python spin every ``SPIN_EVERY_S`` wall seconds on its own
    thread-CPU clock; the typical spin, over the reference spin, is the
    factor by which CPU seconds of this run are long or short.
    """

    def __init__(self) -> None:
        super().__init__(name="perfbench-calibrator", daemon=True)
        self.spins: list = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(SPIN_EVERY_S):
            begin = time.thread_time()
            total = 0
            for i in range(SPIN_ITERATIONS):
                total += i * i
            self.spins.append(time.thread_time() - begin)

    def finish(self) -> tuple:
        """Stop; returns ``(cpu seconds spent spinning, speed factor)``."""
        self._done.set()
        self.join()
        if not self.spins:
            return 0.0, 1.0
        # Mean of the middle 80%: a spin interrupted
        # by a thread switch reads long, and a plain median is noisier.
        cut = len(self.spins) // 10
        middle = sorted(self.spins)[cut:len(self.spins) - cut]
        return (sum(self.spins),
                statistics.mean(middle) / SPIN_REFERENCE_S)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--subset", action="store_true",
                        help="the traced pass's share of the input")
    parser.add_argument("--traced", action="store_true",
                        help="observability on and probes installed")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dark-cpu-per-req", type=float, default=0.0)
    args = parser.parse_args()

    probes = None
    if args.traced:
        from perfbench.probes import Probes, identity_gaps, layer_metrics
        probes = Probes()
        probes.install()
    stages = workloads.WORKLOADS[args.workload](
        args.seed, args.scale, args.subset, args.traced)
    setup_s = time.time() - args.start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    cpu_s = wall_s = 0.0
    obs_spans = 0
    rid_bases = []
    calibrator = Calibrator()
    calibrator.start()
    for stage in stages:
        if probes is not None:
            rid_bases.append(probes.rid_base)
            probes.begin_stage(stage.runtime, stage.payloads)
        before = workloads.running_totals(stage.runtime)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        stage.result = stage.drive()
        cpu_s += time.process_time() - cpu0
        wall_s += time.perf_counter() - wall0
        if probes is not None:
            probes.end_stage()
            obs_spans += len(stage.runtime.obs.tracer.records)
        stage.books = workloads.read_books(stage, before)
        stage.runtime.stop_collectors()
        stage.runtime.kernel.shutdown()

    spin_cpu_s, slowdown = calibrator.finish()
    cpu_s -= spin_cpu_s
    attempted = sum(len(stage.result.outcomes) for stage in stages)
    metrics, detail = workloads.virtual_metrics(args.workload, stages)
    unscripted, problems = workloads.check(args.workload, stages)
    digest = hashlib.sha256()
    for stage in stages:
        digest.update(repr((stage.label, stage.result.latencies,
                            stage.result.outcomes)).encode())
    report = {
        "workload": args.workload,
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "calibrated_cpu_s": cpu_s / slowdown,
        "cpu_slowdown": slowdown,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "unscripted_failures": unscripted,
        "problems": problems,
        "virtual": metrics,
        "detail": detail,
        "latency_digest": digest.hexdigest(),
    }
    if probes is not None:
        reference = next(s for s in stages if s.reference)
        if args.workload in SINGLE_SSF:
            gap = max(identity_gaps(probes, stage.result.latencies, base)
                      for stage, base in zip(stages, rid_bases))
            report["identity_gap_ms"] = gap
            if gap > IDENTITY_TOLERANCE_MS:
                problems.append(
                    f"per-layer virtual times miss a latency by {gap} ms")
        report["layers"] = probes.layer_totals()
        report["per_layer"] = layer_metrics(
            probes, reference.books, attempted, cpu_s, obs_spans,
            {"shed": reference.result.shed,
             "queue_depth_max": reference.result.queue_depth_max})
        # Both sides on the calibrated clock; the dark side is the child
        # that ran the same input just before this one.
        report["per_layer"]["obs.trace_overhead_share"] = (
            report["calibrated_cpu_s"] / attempted
            / args.dark_cpu_per_req - 1.0 if args.dark_cpu_per_req else 0.0)
        OUT_DIR.mkdir(exist_ok=True)
        probes.write_trace(OUT_DIR / f"{args.workload}.trace.jsonl")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
