"""Timed and traced runs of one workload.

A timed run (tracing off) makes as many passes over the workload's
plan as fit in the measuring time, every pass on the same inputs, and
sets up in a fresh process before the first pass and after each.  A
pass executes the plan cold, one run at a time, then asks for the same
plan again warm.  The first pass warms up: it is checked against the
stored answers (or the invariants) and not timed.  Every later pass is
timed and must give the first pass's answers.  A :mod:`perfbench.gauge`
sample is taken before every run of a timed pass; the pass's times are
scaled by its mean sample (see that module for why), and each time
reported is the median of its scaled samples.  A traced run executes the plan once untraced and once with
the :mod:`perfbench.tracing` wrappers installed, requires both to give
the same answers, and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import api

from . import answers, gauge
from .plans import WORKLOADS, plan
from .tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: scratch space inside the checkout: temporary caches and trace files
WORK_DIR = ROOT / ".perfbench"
#: fresh-process set-ups before the first pass of a timed run; one more
#: follows every pass, so that the median spans the whole run
SETUP_PROBES = 3
#: passes every timed run makes: the warm-up, and two timed passes even
#: where one pass takes more than a third of the measuring time
MIN_PASSES = 3
#: after each pass a warm request is repeated until this much time is
#: spent (at least :data:`MIN_WARM_REPEATS` times)
WARM_SECONDS = 0.25
MIN_WARM_REPEATS = 5


def setup_probe(name: str, seed: int, size: float) -> Dict[str, float]:
    """One set-up in a fresh interpreter: see ``perfbench/probe.py``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"),
         name, str(seed), repr(size)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_warm(ask) -> List[float]:
    """Time ``ask()`` repeatedly; returns every duration."""
    times: List[float] = []
    spent = 0.0
    while len(times) < MIN_WARM_REPEATS or spent < WARM_SECONDS:
        start = perf_counter()
        ask()
        times.append(perf_counter() - start)
        spent += times[-1]
    return times


class Pass:
    """One cold execution of a plan and the warm requests after it.

    Every run executes inline.  Without ``disk_cache`` the plan runs
    with the cache off and is asked again of the same executor, which
    answers from its in-memory table.  With it the plan runs against a
    fresh cache directory and is asked again through a new executor on
    that directory, which answers from disk.
    """

    def __init__(self, specs: List[api.RunSpec], disk_cache: bool):
        self.specs = specs
        self.disk_cache = disk_cache
        self.executors: List[api.Executor] = []
        self.plan_s = 0.0
        self.cold: List[Optional[object]] = []
        self.warm: List[Optional[object]] = []
        self.warm_s: List[float] = []
        self.isolation_errors: List[str] = []

    def run(self, warm_repeats: bool = True, between=None) -> "Pass":
        """Execute the pass; ``between()``, when given, is called before
        every run, outside the timings."""
        WORK_DIR.mkdir(exist_ok=True)
        cache_dir = None
        if self.disk_cache:
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        try:
            self._run(cache_dir, warm_repeats, between)
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        return self

    def _executor(self, cache_dir) -> api.Executor:
        if cache_dir is None:
            executor = api.Executor(jobs=1, use_cache=False)
        else:
            executor = api.Executor(jobs=1, cache_dir=cache_dir)
        self.executors.append(executor)
        return executor

    def _run(self, cache_dir, warm_repeats: bool, between) -> None:
        specs = self.specs
        cold = self._executor(cache_dir)
        # one request per run, so that ``between`` can fall between runs
        for spec in specs:
            if between is not None:
                between()
            start = perf_counter()
            self.cold.append(cold.run([spec], on_error="skip")[spec])
            self.plan_s += perf_counter() - start
        if cold.stats.executed + cold.stats.failed != len(specs):
            self.isolation_errors.append(
                f"cold pass executed {cold.stats.executed} of {len(specs)}")

        def ask():
            executor = cold if cache_dir is None else self._executor(cache_dir)
            by_spec = executor.run(specs, on_error="skip")
            if cache_dir is not None and (
                    executor.stats.executed
                    or executor.stats.cache_hits != len(specs)):
                self.isolation_errors.append(
                    f"warm pass executed {executor.stats.executed}, "
                    f"hit {executor.stats.cache_hits} of {len(specs)}")
            return by_spec

        if warm_repeats:
            self.warm_s = _timed_warm(ask)
            by_spec = ask()
        else:
            start = perf_counter()
            by_spec = ask()
            self.warm_s = [perf_counter() - start]
        self.warm = [by_spec[spec] for spec in specs]

    @property
    def run_s(self) -> List[float]:
        """Each executed run's seconds, in plan order (a run that failed
        is missing)."""
        by_label = {record.label: record.wall_time
                    for record in self.executors[0].stats.records}
        return [by_label[spec.label()] for spec in self.specs
                if spec.label() in by_label]

    def check(self, gate: answers.Gate,
              expected: Optional[List[Optional[Dict]]]) -> List[Optional[Dict]]:
        """Gate every cold run; a warm answer must equal the cold one.

        ``expected`` holds one answer per run (``None``: invariants
        only).  Returns each run's answer, labelled, ``None`` where the
        run failed.
        """
        got_all: List[Optional[Dict]] = []
        for index, (spec, cold, warm) in enumerate(
                zip(self.specs, self.cold, self.warm)):
            got = gate.check(spec, cold,
                             None if expected is None else expected[index])
            if got is not None and (
                    warm is None or answers.answer(warm) != got):
                gate.fail(f"{spec.label()}: warm answer differs")
                got = None
            got_all.append(None if got is None
                           else {"label": spec.label(), **got})
        for error in self.isolation_errors:
            gate.fail(error)
        return got_all


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, size: float = 1.0,
            expected: Optional[List[Dict]] = None,
            probes: int = SETUP_PROBES) -> Dict:
    """The timed run: end-to-end metrics, with tracing off.

    ``expected`` holds the stored answers for ``seed`` (``None``:
    invariants only), which the warm-up pass is checked against; every
    timed pass must repeat the warm-up's answers.
    """
    workload = WORKLOADS[name]
    specs = plan(name, seed, size)
    gate = answers.Gate()
    start = perf_counter()
    # every sample is kept with the index of the timed pass whose gauge
    # scales it; set-ups before the first timed pass go with that pass
    setups = [(0, setup_probe(name, seed, size)) for _ in range(probes)]
    reference = expected
    pass_s: List[float] = []
    plan_s: List[float] = []
    run_s: List[List[Tuple[int, float]]] = [[] for _ in specs]
    warm_s: List[Tuple[int, float]] = []
    gauge_s: List[List[float]] = []
    peak_mb = 0.0
    # beyond MIN_PASSES, another pass only when one more of the mean
    # length fits in the measuring time
    while True:
        begun = perf_counter()
        timed = len(plan_s)
        if pass_s:
            gauge_s.append([])
            done = Pass(specs, workload.disk_cache).run(
                between=lambda: gauge_s[-1].append(gauge.sample()))
        else:
            done = Pass(specs, workload.disk_cache).run()
        got = done.check(gate, reference)
        if not pass_s:
            reference = got
            # timed passes repeat the same work: memory they add is the
            # allocator's, not the program's
            peak_mb = peak_rss_mb()
        else:
            # keep only the timings, so memory does not grow
            plan_s.append(done.plan_s)
            if len(done.run_s) == len(specs):
                for times, seconds_taken in zip(run_s, done.run_s):
                    times.append((timed, seconds_taken))
            warm_s.extend((timed, t) for t in done.warm_s)
        del done
        if probes and pass_s:
            setups.append((timed, setup_probe(name, seed, size)))
        pass_s.append(perf_counter() - begun)
        if (len(pass_s) >= MIN_PASSES
                and perf_counter() - start + mean(pass_s) > seconds):
            break

    def medians(scales: List[float]) -> Dict[str, float]:
        def scaled(samples):
            return [value * scales[index] for index, value in samples]

        # each run's median over the passes; a run that failed in every
        # pass has none (the gate has counted it)
        per_run = [median(scaled(samples)) for samples in run_s
                   if samples] or scaled(enumerate(plan_s))
        return {
            "setup_s": median(scaled(
                (index, s["setup_s"]) for index, s in setups)),
            "plan_s": median(scaled(enumerate(plan_s))),
            "run_p50_s": median(per_run),
            "run_max_s": max(per_run),
            "warm_plan_s": median(scaled(warm_s)),
        }

    pass_gauge = [mean(samples) for samples in gauge_s]
    metrics = medians([gauge.GAUGE_REF_S / g for g in pass_gauge])
    metrics["peak_rss_mb"] = peak_mb
    return {
        "gate": gate,
        "passes": {"plan_s": plan_s, "gauge_mean_s": pass_gauge},
        "unscaled": medians([1.0] * len(plan_s)),
        "samples": {"setup_s": len(setups), "plan_s": len(plan_s),
                    "run_p50_s": len(specs), "run_max_s": len(specs),
                    "warm_plan_s": len(warm_s),
                    "gauge": sum(map(len, gauge_s))},
        "setup_parts": {key: median(s[key] for _, s in setups)
                        for key in setups[0][1]},
        "metrics": metrics,
    }


def measure_traced(name: str, seed: int, size: float = 1.0,
                   expected: Optional[List[Dict]] = None) -> Dict:
    """The traced run: per-layer metrics and the tracing overhead."""
    workload = WORKLOADS[name]
    specs = plan(name, seed, size)
    gate = answers.Gate()
    untraced = Pass(specs, workload.disk_cache).run(warm_repeats=False)
    untraced.check(gate, expected)
    plain = [None if r is None else answers.answer(r) for r in untraced.cold]

    tracer = Tracer(on_run=answers.observe)
    with tracer:
        tracer.install()
        traced = Pass(specs, workload.disk_cache).run(warm_repeats=False)

    # observing must not change the answer
    for error in traced.isolation_errors:
        gate.fail(error)
    if len(tracer.runs) != len(specs):
        gate.fail(f"observed {len(tracer.runs)} of {len(specs)} runs")
    for index, (spec, result, run) in enumerate(
            zip(specs, traced.cold, tracer.runs)):
        got = gate.check(spec, result,
                         None if expected is None else expected[index],
                         observed=run)
        if got is not None and {
                key: got[key] for key in plain[index] or {}} != plain[index]:
            gate.fail(f"{spec.label()}: traced answer differs")
    observed = [run["answer"] for run in tracer.runs]
    metrics = layer_metrics(tracer, traced.cold, observed, traced)
    metrics["trace.overhead"] = traced.plan_s / untraced.plan_s
    return {"gate": gate, "metrics": metrics, "trace": tracer.dump()}


def layer_metrics(tracer: Tracer, results: List, observed: List[Dict],
                  traced: Pass) -> Dict[str, float]:
    """Per-layer metrics of the traced run.

    Counts come from the observed answers (taken as each run returned)
    and the results; times come from the spans.
    """
    spans = tracer.totals()

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def total(key: str) -> int:
        return sum(got[key] for got in observed)

    results = [r for r in results if r is not None]
    events = sum(int(r.extra["sim_events"]) for r in results)
    packets = total("packets")
    hops = total("hops")
    stats = [executor.stats for executor in traced.executors]
    busy = sum(record.wall_time for record in stats[0].records)
    out = {
        "sim.events": events,
        "sim.roi_cycles": total("roi_cycles"),
        "sim.events_per_hop": events / max(hops, 1),
        "sim.self_s": span("sim.run", "self_s"),
        "noc.packets": packets,
        "noc.hops": hops,
        "noc.hops_per_packet": hops / max(packets, 1),
        "noc.latency_cycles": sum(
            r.network_mean_latency * r.network_packets for r in results
        ) / max(packets, 1),
        "inpg.getx_stopped": total("getx_stopped"),
        "inpg.early_invs": total("early_invs"),
        "inpg.acks_forwarded": total("acks_forwarded"),
        "inpg.table_overflows": total("table_overflows"),
        "coherence.messages": sum(
            sum(got["msg_counts"].values()) for got in observed),
        "coherence.invs": sum(
            got["msg_counts"].get("Inv", 0) for got in observed),
        "locks.acquires": sum(r.cs_completed for r in results),
        "cpu.os_sleeps": total("os_sleeps"),
        "cpu.os_wakeups": total("os_wakeups"),
        "cpu.coh_cycles": total("coh_cycles"),
        "cpu.cse_cycles": total("cse_cycles"),
        "workloads.generate_s": span("workloads.generate", "total_s"),
        "system.build_s": span("system.build", "total_s"),
        "exec.runs_executed": sum(s.executed for s in stats),
        "exec.cache_hits": sum(s.cache_hits for s in stats),
        "exec.failures": sum(s.failed for s in stats),
        "exec.retries": sum(
            f.attempts - 1 for s in stats for f in s.failures),
        "exec.busy_s": busy,
        "exec.run_share": busy / traced.plan_s,
        "exec.cache_get_s": span("exec.cache_get", "total_s")
        + span("exec.nullcache_get", "total_s"),
        "exec.cache_put_s": span("exec.cache_put", "total_s")
        + span("exec.nullcache_put", "total_s"),
        "stats.self_s": span("stats.serialize", "self_s")
        + span("stats.deserialize", "self_s"),
        "stats.serialize_calls": span("stats.serialize", "calls"),
        "stats.deserialize_calls": span("stats.deserialize", "calls"),
    }
    for layer in ("noc", "inpg", "coherence"):
        totals = tracer.layer_totals(layer)
        out[f"{layer}.calls"] = totals["calls"]
        out[f"{layer}.self_s"] = totals["self_s"]
    for layer in ("locks", "cpu"):
        out[f"{layer}.self_s"] = tracer.layer_totals(layer)["self_s"]
    for layer, count in tracer.census.items():
        out[f"sim.scheduled.{layer}"] = count
    return out
