"""The simulated answer of a run, and the benchmark's correctness gate.

A run's answer is what the paper's figures are computed from: ROI
cycles, per-thread COH/CSE/sleep totals, delivered packets, hops,
per-type message counts and the big-router counters.  It leaves out the
kernel's event count (``extra["sim_events"]``) on purpose, so a change
that schedules fewer events for the same simulation still passes; that
is also why the gate does not compare ``result_fingerprint``.

Hops and forwarded acks live on the assembled system, not on the
result, so they enter the answer only when the system was observed (the
traced run, and the recorded expectations).

Expected answers are stored per seed under ``expected/``: for 2018, the
paper's seed and the benchmark's default, and for 7919, held out while
the benchmark was written.  For a seed without a stored file, only
invariants are checked: every thread finished all its critical
sections, and, where the system was observed, the network drained: the
events left after the ROI deliver every packet still in flight when the
last thread finished.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro import api

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
#: cycles the kernel may run after the ROI to drain the network
DRAIN_CYCLES = 100_000


def answer(result, system=None) -> Dict:
    """The answer of ``result``; the run's ``ManyCoreSystem``, when given,
    adds the hop and forwarded-ack counts."""
    threads = [[t.coh_cycles, t.cse_cycles, t.sleeps, t.cs_completed]
               for t in result.threads]
    digest = hashlib.sha256(
        json.dumps(threads, separators=(",", ":")).encode()).hexdigest()
    coherence = result.coherence
    out = {
        "roi_cycles": result.roi_cycles,
        "coh_cycles": result.total_coh,
        "cse_cycles": result.total_cse,
        "sleeps": sum(t.sleeps for t in result.threads),
        "threads_sha256": digest[:16],
        "packets": result.network_packets,
        "msg_counts": dict(sorted(coherence.msg_counts.items())),
        "getx_stopped": coherence.getx_stopped,
        "early_invs": coherence.early_invs_generated,
        "table_overflows": coherence.barrier_table_overflows,
        "os_sleeps": result.os_sleeps,
        "os_wakeups": result.os_wakeups,
    }
    if system is not None:
        out["hops"] = system.network.total_hops
        out["acks_forwarded"] = sum(
            getattr(router, "acks_forwarded", 0)
            for router in system.network.routers.values())
    return out


def observe(system, result) -> Dict:
    """The full answer of a run that just returned, then drain its network.

    The answer is taken first: draining delivers the packets still in
    flight, whose handlers may count further messages on the result.
    Returns ``{"answer": ..., "in_flight": packets left after draining}``.
    """
    got = answer(result, system)
    system.sim.run(until=system.sim.cycle + DRAIN_CYCLES)
    return {"answer": got, "in_flight": system.network.in_flight}


def mismatches(got: Dict, expected: Dict) -> List[str]:
    """Fields of ``got`` that differ from ``expected``.

    Fields absent from ``got`` (hops on an unobserved run) are skipped;
    a field absent from ``expected`` is a mismatch.
    """
    return [
        f"{key}: got {value!r}, expected {expected.get(key)!r}"
        for key, value in got.items()
        if expected.get(key) != value
    ]


def invariant_errors(spec: api.RunSpec, result,
                     in_flight: Optional[int] = None) -> List[str]:
    """Checks that hold for every seed."""
    config = spec.resolved_config()
    workload = api.generate_workload(
        spec.benchmark,
        num_threads=config.num_threads,
        mesh_nodes=config.noc.width * config.noc.height,
        seed=spec.seed,
        scale=spec.scale,
        lock_homes=spec.lock_homes,
    )
    errors = []
    done = [t.cs_completed for t in result.threads]
    due = [len(items) for items in workload.items]
    if done != due:
        errors.append(f"critical sections completed {sum(done)} of "
                      f"{sum(due)}")
    if result.roi_cycles <= 0 or result.network_packets <= 0:
        errors.append("empty run")
    if in_flight:
        errors.append(f"{in_flight} packets still in flight after draining")
    return errors


def expected_path(seed: int) -> Path:
    return EXPECTED_DIR / f"seed-{seed}.json"


def load_expected(seed: int, workload: str) -> Optional[List[Dict]]:
    """The stored answers of ``workload`` for ``seed``, or ``None``."""
    path = expected_path(seed)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


class Gate:
    """Checks runs against their stored answers or the invariants.

    :attr:`failures` keeps the reason for each failure; :attr:`failed`
    counts failed runs.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        """Count one failed run, or one failed pass of a plan."""
        self.failed = min(self.failed + 1, max(self.attempted, 1))
        self.failures.append(message)

    def check(self, spec: api.RunSpec, result,
              expected: Optional[Dict] = None,
              observed: Optional[Dict] = None) -> Optional[Dict]:
        """Check one run; returns its answer, ``None`` if it failed.

        ``expected`` is the run's stored answer (``None``: invariants
        only).  ``observed`` is :func:`observe`'s record of the run, when
        its system was observed; its answer replaces the result's own.
        """
        self.attempted += 1
        if result is None:
            self.fail(f"{spec.label()}: raised")
            return None
        if observed is None:
            errors = invariant_errors(spec, result)
            got = answer(result)
        else:
            errors = invariant_errors(spec, result, observed["in_flight"])
            got = observed["answer"]
        if expected is not None:
            if expected.get("label") != spec.label():
                errors.append(f"stored answer is for {expected.get('label')}")
            errors.extend(mismatches(got, expected))
        if errors:
            self.fail(f"{spec.label()}: " + "; ".join(errors))
            return None
        return got
