"""Golden-pinned kernel determinism: the DST mix, byte-for-byte.

The sim-kernel speed pass (ISSUE 9) refactors the event loop — closure-
free wakeup entries, lazy labels, the solo-sleep fast path — and nothing
may shift a single event. These goldens were recorded at the pre-refactor
kernel (PR 8 head, commit ``108b710``) by running the concurrent DST mix
(two contending travel reservations + a movie workflow, one kernel, one
shared store; see ``tests/core/dst.py``) with ``capture_trace`` on, and
pin, per case:

- the full ``fired_trace`` — every resumed wakeup as ``(virtual time,
  label)``, hashed over its canonical JSON, so the refactored kernel
  must reproduce the exact ``(time, phase, seq)`` pop order *and* the
  exact label strings (including wait/timeout tie-breaks: a ``set()``
  at the timeout instant still wins);
- the full ``schedule_trace`` (inline, not hashed) for the explored
  cases — every multi-candidate decision index under a pinned
  :class:`~repro.sim.schedule.RandomSchedule`;
- a digest of the final store state (every env table's full contents)
  and the final virtual clock.

Any drift — an event reordered, a label reformatted, a latency draw
moved — changes a hash and fails loudly. To re-record after an
*intentional* semantic change (never for the speed pass itself), run::

    KERNEL_GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest \
        tests/sim/test_kernel_goldens.py

and commit the refreshed ``goldens/kernel_dst.json`` with a justification
of why the event order was allowed to move (see docs/testing.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "core"))

import dst  # noqa: E402  (the tests/core DST harness)
from repro.sim import RandomSchedule  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "kernel_dst.json"
REGEN = bool(os.environ.get("KERNEL_GOLDEN_REGEN"))

#: The ``paper`` profile: the acceptance topology. The kernel under test
#: is exactly the seed's substrate — one store, no sharding, no caches,
#: no overlap — so the goldens isolate *kernel* behavior from every
#: layer above it.
PAPER = dict(profile="paper", shards=1, observability=False)

#: (case name) -> (flags, schedule seed or None for pure-FIFO heap order).
CASES = {
    "fifo-flags-off": (PAPER, None),
    "random-s1-flags-off": (PAPER, 1),
    "random-s2-flags-off": (PAPER, 2),
    # One deep case so sharded/elastic kernel traffic (2PC interleave
    # points, migration yields) is pinned too — still deterministic.
    "fifo-light-flags": (dst.LIGHT_FLAGS, None),
}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _run_case(flags: dict, schedule_seed) -> dict:
    schedule = (RandomSchedule(schedule_seed)
                if schedule_seed is not None else None)
    h = dst.run_one(flags, schedule=schedule, capture_trace=True)
    fired = [[when, label] for when, label in h.kernel.fired_trace]
    return {
        "final_now": h.kernel.now,
        "fired_len": len(fired),
        "fired_sha256": _digest(fired),
        "fired_head": fired[:5],
        "fired_tail": fired[-5:],
        "schedule_trace": list(h.kernel.schedule_trace),
        "state_sha256": _digest(dst.final_state(h)),
        "results": json.loads(json.dumps(h.results, sort_keys=True,
                                         default=repr)),
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    if REGEN:
        recorded = {name: _run_case(*spec) for name, spec in CASES.items()}
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        return recorded
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; record with KERNEL_GOLDEN_REGEN=1")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_reproduces_golden(case, goldens):
    if REGEN:
        pytest.skip("goldens regenerated, nothing to compare against")
    flags, schedule_seed = CASES[case]
    got = _run_case(flags, schedule_seed)
    want = goldens[case]
    # Compare the cheap scalars first so a drift names *where* it moved
    # before the hash says only *that* it moved.
    assert got["fired_len"] == want["fired_len"], (
        "event count drifted — the kernel fired a different number of "
        "wakeups than the pre-refactor recording")
    assert got["fired_head"] == want["fired_head"]
    assert got["fired_tail"] == want["fired_tail"]
    assert got["schedule_trace"] == want["schedule_trace"], (
        "multi-candidate decisions diverged — tie groups changed")
    assert got["final_now"] == want["final_now"]
    assert got["fired_sha256"] == want["fired_sha256"], (
        "fired_trace hash drifted: some (time, phase, seq) ordering or "
        "label changed between the recorded and refactored kernels")
    assert got["state_sha256"] == want["state_sha256"], (
        "final store state diverged from the pre-refactor recording")
    assert got["results"] == want["results"]


@pytest.mark.parametrize("case", sorted(
    name for name, (flags, _seed) in CASES.items()
    if not flags["observability"]))
def test_traced_twin_fires_the_same_events(case, goldens):
    """Tracing only reads the clock: the traced twin of a dark case
    fires the same wakeups in the same order. Being traced, it is also
    the run whose lifecycle orders ``dst.run_requests`` can check — a
    dark run records nothing to check them from."""
    if REGEN:
        pytest.skip("goldens regenerated, nothing to compare against")
    flags, schedule_seed = CASES[case]
    traced = _run_case(dict(flags, observability=True), schedule_seed)
    assert traced == goldens[case]


def test_same_seed_twice_is_bit_identical():
    """Control: two fresh in-process runs of one case agree with each
    other (catches nondeterminism that would also poison the goldens —
    e.g. id()-dependent ordering surviving into the trace)."""
    first = _run_case(*CASES["fifo-flags-off"])
    second = _run_case(*CASES["fifo-flags-off"])
    assert first == second
