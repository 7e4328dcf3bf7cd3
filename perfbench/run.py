"""perfbench — the two-clock benchmark's one command.

    python3 perfbench/run.py [--workload NAME] [--seed 11] [--seconds 12]
                             [--trace 0|1] [--check-repeat]

Each (workload, pass) runs in a fresh child process, one at a time, all
pinned to one CPU. ``--trace 0`` is the *dark* pass (no tracing, no
probes) and reports the end-to-end metrics; ``--trace 1`` is the *traced*
pass (``observability=True`` plus perfbench/probes.py) and reports the
per-layer metrics. With neither ``--workload`` nor ``--trace`` it runs
all four workloads, both passes. The last line of standard output is one
JSON object; the exit code is non-zero when a correctness check fails.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: ``--seconds`` that runs the workloads at full size (scale 1.0): about
#: this many host CPU seconds per dark pass on the reference box.
FULL_SIZE_SECONDS = 30.0
#: Extra set-up-only children per dark pass; ``setup_s`` is the median.
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 170
HOST_METRICS = ("sim_req_per_cpu_s", "peak_rss_mb", "setup_s")


def pin_to_one_cpu():
    """Pin this process (children inherit it) to the last allowed CPU."""
    if not hasattr(os, "sched_setaffinity"):
        print("warning: no sched_setaffinity here; runs are NOT pinned")
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate_spin() -> float:
    """A fixed pure-Python loop: how fast is this box right now?"""
    begin = time.process_time()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.process_time() - begin


def launch(workload: str, seed: int, scale: float, *flags: str) -> dict:
    """Run one child to completion and return the object it printed."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--start", repr(time.time()), *flags]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: child failed ({done.returncode}): "
                 f"{' '.join(command)}")
    return json.loads(done.stdout.splitlines()[-1])


def dark_pass(workload: str, seed: int, scale: float) -> dict:
    """End-to-end metrics of one workload: one measured child, with
    set-up-only children before and after it so that ``setup_s`` is a
    median over a stretch of time, not one instant's luck."""
    def setups(count: int) -> list:
        return [launch(workload, seed, scale, "--setup-only")["setup_s"]
                for _ in range(count)]

    before = setups(SETUP_REPEATS // 2)
    child = launch(workload, seed, scale)
    after = setups(SETUP_REPEATS - SETUP_REPEATS // 2)
    metrics = dict(child["virtual"])
    metrics["sim_req_per_cpu_s"] = (child["attempted"]
                                    / child["calibrated_cpu_s"])
    metrics["peak_rss_mb"] = child["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(
        before + [child["setup_s"]] + after)
    return {"metrics": metrics, "child": child,
            "problems": list(child["problems"])}


def traced_pass(workload: str, seed: int, scale: float) -> dict:
    """Per-layer metrics: the traced child replays the input share a
    dark child just ran, and must reproduce its virtual results."""
    dark = launch(workload, seed, scale, "--subset")
    traced = launch(
        workload, seed, scale, "--subset", "--traced",
        "--dark-cpu-per-req",
        repr(dark["calibrated_cpu_s"] / dark["attempted"]))
    problems = list(traced["problems"])
    if (traced["latency_digest"] != dark["latency_digest"]
            or traced["virtual"] != dark["virtual"]):
        problems.append("traced pass changed the virtual results")
    return {"metrics": traced["per_layer"], "child": traced,
            "problems": problems}


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def print_pass(workload: str, kind: str, result: dict, spec: list) -> None:
    child = result["child"]
    print(f"\n== {workload} [{kind}]  attempted={child['attempted']}  "
          f"cpu={child['cpu_s']:.2f}s x{child['cpu_slowdown']:.3f} slowdown"
          f"  wall={child['wall_s']:.2f}s (info)")
    detail = child["detail"]
    if kind == "dark":
        print(f"   latency percentiles over {detail['samples']} ok samples "
              f"of {detail['recorded']} recorded requests; "
              f"p99_ms={detail['p99_ms']:.2f} (info)")
        if "post_heal_p99_ms" in detail:
            print(f"   {detail['incident_samples']} ok arrivals inside "
                  f"outages, {detail['post_heal_samples']} after heals; "
                  f"post_heal_p99_ms={detail['post_heal_p99_ms']:.2f} (info)")
        if len(detail["stages"]) > 1:
            print("   stage     recorded      ok  shed  goodput_rps"
                  "    p50_ms    p99_ms")
            for row in detail["stages"]:
                print(f"   {row['stage']:8s} {row['recorded']:9d} "
                      f"{row['ok']:7d} {row['shed']:5d} "
                      f"{row['goodput_rps']:12.2f} {row['p50_ms']:9.2f} "
                      f"{row['p99_ms']:9.2f}")
    for entry in spec:
        name = entry["name"]
        host = name in HOST_METRICS or "cpu" in name or "overhead" in name
        print(f"   {name:42s} {result['metrics'][name]:16.6f} "
              f"{entry['unit']:8s} {'host' if host else 'virtual/books'}")
    if kind == "traced":
        if "identity_gap_ms" in child:
            print(f"   exclusive-time identity: worst gap "
                  f"{child['identity_gap_ms']:.3e} ms over ok requests")
        print("   layer                     spans   virt self ms"
              "   cpu self s")
        for layer, row in sorted(child["layers"].items()):
            print(f"   {layer:22s} {row['spans']:8d} {row['virt_ms']:14.1f}"
                  f" {row['cpu_s']:12.3f}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def contract_line(result: dict, spec: list) -> dict:
    child = result["child"]
    return {
        "correct": not result["problems"],
        "attempted": child["attempted"],
        "failed": child["unscripted_failures"],
        "metrics": {entry["name"]: {
            "value": result["metrics"][entry["name"]],
            "unit": entry["unit"]} for entry in spec},
    }


def check_repeat(names: list, seed: int, scale: float, spec: list) -> bool:
    """Two sets of dark passes of the same code must agree: virtual
    metrics exactly, host metrics within their bound."""
    agreed = True
    print(f"\n{'workload':15s} {'metric':22s} {'first':>14s} "
          f"{'second':>14s} {'rel diff':>9s} {'bound':>6s}")
    for workload in names:
        first = dark_pass(workload, seed, scale)["metrics"]
        second = dark_pass(workload, seed, scale)["metrics"]
        for entry in spec:
            name = entry["name"]
            a, b = first[name], second[name]
            diff = abs(b - a) / abs(a) if a else abs(b)
            host = name in HOST_METRICS
            ok = diff <= entry["bound"] if host else a == b
            agreed &= ok
            print(f"{workload:15s} {name:22s} {a:14.6f} {b:14.6f} "
                  f"{diff:9.4f} {entry['bound'] if host else 0:6} "
                  f"{'' if ok else 'DISAGREE'}")
    return agreed


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perfbench: src/repro not found next to perfbench/ — "
                 "run from a checkout of the repository")
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help=f"size of the run: {FULL_SIZE_SECONDS:g} is "
                        "full size, about that many CPU seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args()
    scale = args.seconds / FULL_SIZE_SECONDS
    names = [args.workload] if args.workload else workloads

    cpu = pin_to_one_cpu()
    print(f"perfbench  nproc={os.cpu_count()}  pinned_cpu={cpu}  "
          f"calib_spin_s={calibrate_spin():.4f} (info)  seed={args.seed}  "
          f"seconds={args.seconds:g}  scale={scale:.4f}")
    if args.check_repeat:
        agreed = check_repeat(names, args.seed, scale, spec["end_to_end"])
        print(json.dumps({"correct": agreed}))
        sys.exit(0 if agreed else 1)

    passes = [("dark", dark_pass, spec["end_to_end"]),
              ("traced", traced_pass, spec["per_layer"])]
    if args.trace is not None:
        passes = [passes[args.trace]]
    lines = {}
    for workload in names:
        for kind, run, metric_spec in passes:
            result = run(workload, args.seed, scale)
            print_pass(workload, kind, result, metric_spec)
            lines[f"{workload}/{kind}"] = contract_line(result, metric_spec)
    correct = all(line["correct"] for line in lines.values())
    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {"correct": correct, "passes": lines}
    print(json.dumps(line))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
