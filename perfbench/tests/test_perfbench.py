"""Tests of the benchmark itself.

Run with ``python -m pytest perfbench/tests``.  The smoke tests run each
workload at a tiny size and take about a minute and a half.
"""

import copy
import functools
import json
import re
from statistics import median

import pytest

from perfbench import answers, gauge, measure
from perfbench.plans import WORKLOADS, build_system, plan
from perfbench.record_expected import record
from perfbench.tracing import CENSUS_LAYERS, Tracer
from repro.perf.profiling import layer_of

from conftest import ROOT

TINY = 0.05
SEED = 11

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap("noc.leaf", leaf)

    def outer():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 3.0

    outer = tracer.wrap("sim.run", outer)
    outer()
    outer()

    assert tracer.aggregate[("sim.run", "<root>")] == [2, 16.0, 8.0]
    assert tracer.aggregate[("noc.leaf", "sim.run")] == [4, 8.0, 0.0]
    totals = tracer.totals()
    assert totals["sim.run"] == {"calls": 2, "total_s": 16.0, "self_s": 8.0}
    assert totals["noc.leaf"] == {"calls": 4, "total_s": 8.0, "self_s": 8.0}
    assert tracer.layer_totals("noc")["self_s"] == 8.0
    # only coarse boundaries keep one record per call
    assert [r[0] for r in tracer.records] == ["sim.run", "sim.run"]
    assert tracer.records[0][1:4] == (0.0, 8.0, "<root>")


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    boom = tracer.wrap("noc.boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.aggregate[("noc.boom", "<root>")] == [1, 1.0, 0.0]
    assert tracer._stack == [["<root>", 1.0]]


def test_install_and_restore_put_every_original_back():
    from repro.locks.tas import TasLock
    from repro.noc.router import Router
    from repro.sim.kernel import Simulator
    from repro.stats import serialize
    from repro.exec import executor

    before = (Router.accept, TasLock.acquire, Simulator.schedule,
              executor.serialize_run_result, serialize.serialize_run_result)
    with Tracer() as tracer:
        tracer.install()
        assert Router.accept is not before[0]
        assert TasLock.acquire is not before[1]
        assert Simulator.schedule is not before[2]
        assert executor.serialize_run_result is not before[3]
    after = (Router.accept, TasLock.acquire, Simulator.schedule,
             executor.serialize_run_result, serialize.serialize_run_result)
    assert after == before


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------
def test_census_classifies_callbacks_with_layer_of():
    from repro.coherence.l1cache import L1Cache
    from repro.inpg.big_router import BigRouter
    from repro.locks.qsl import QueueSpinLock
    from repro.noc.router import Router
    from repro.sim.kernel import Simulator

    tracer = Tracer()
    cases = {
        Router.accept: "noc",
        L1Cache.handle: "coherence",
        BigRouter.inspect: "coherence",
        QueueSpinLock.acquire: "cpu",
        Simulator.stop: "kernel",
        Simulator().stop: "kernel",
        functools.partial(Router.accept, None): "noc",
        tracer.wrap("noc.accept", Router.accept): "noc",
        print: "other",
        test_census_classifies_callbacks_with_layer_of: "other",
    }
    for fn, layer in cases.items():
        assert tracer.classify(fn) == layer, fn
    assert layer_of(Router.accept.__code__.co_filename) == "noc"
    assert set(tracer.census) == set(CENSUS_LAYERS)


def test_census_counts_every_scheduled_callback():
    from repro.noc.router import Router
    from repro.sim.kernel import Simulator

    with Tracer() as tracer:
        tracer.install(("sim.",))
        sim = Simulator()
        sim.schedule(1, Router.accept, None)
        sim.schedule_at(2, print)
        sim.schedule_cancellable(3, Simulator.stop, sim)
    assert tracer.census == {"noc": 1, "coherence": 0, "cpu": 0,
                             "kernel": 1, "other": 1}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_declaration_is_valid(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]
    assert 1 <= declared["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in declared[kind]]
    assert len(names) == len(set(names))
    for kind in ("workloads", "end_to_end", "per_layer"):
        for entry in declared[kind]:
            assert NAME.match(entry["name"]), entry
            if kind == "workloads":
                assert set(entry) == {"name", "why"}
                assert len(entry["why"]) <= 200
                continue
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("higher", "lower")
            keys = {"name", "unit", "better"}
            if kind == "end_to_end":
                keys.add("bound")
                assert 0 < entry["bound"] <= 0.25
            assert set(entry) == keys, entry
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
def test_gate_flags_a_doctored_answer_and_a_missing_result():
    specs = plan("fig12_8x8", SEED, TINY)[:2]
    expected = record(SEED, TINY, ("fig12_8x8",))["fig12_8x8"][:2]
    results = [build_system(spec).run() for spec in specs]
    gate = answers.Gate()
    for spec, result, want in zip(specs, results, expected):
        assert gate.check(spec, result, want) is not None
    doctored = copy.deepcopy(expected)
    doctored[1]["msg_counts"]["GetX"] += 1
    gate = answers.Gate()
    assert gate.check(specs[0], results[0], doctored[0]) is not None
    assert gate.check(specs[1], results[1], doctored[1]) is None
    assert gate.check(specs[1], None, doctored[1]) is None
    assert (gate.attempted, gate.failed) == (3, 2)
    assert "msg_counts" in gate.failures[0]
    assert "raised" in gate.failures[1]


def test_invariants_catch_unfinished_critical_sections():
    spec = plan("fig12_8x8", SEED, TINY)[0]
    system = build_system(spec)
    due = system.workload.total_cs
    result = system.run()
    assert answers.invariant_errors(spec, result) == []
    result.threads[3].cs_completed -= 1
    assert answers.invariant_errors(spec, result, in_flight=2) == [
        f"critical sections completed {due - 1} of {due}",
        "2 packets still in flight after draining",
    ]


# ----------------------------------------------------------------------
# every workload, tiny
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name, declared):
    expected = record(SEED, TINY, (name,))[name]

    report = measure.measure(name, SEED, 0, TINY, expected, probes=1)
    gate = report["gate"]
    assert report["samples"]["plan_s"] == measure.MIN_PASSES - 1
    assert gate.failures == []
    assert gate.attempted == measure.MIN_PASSES * len(expected)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert set(report["metrics"]) == end_to_end
    assert all(value > 0 for value in report["metrics"].values())
    # the warm-up pass is checked, not timed; each timed pass is scaled
    # by its own gauge samples, one before every run
    assert report["samples"]["gauge"] == (
        (measure.MIN_PASSES - 1) * len(expected))
    scaled = [t * gauge.GAUGE_REF_S / g for t, g in zip(
        report["passes"]["plan_s"], report["passes"]["gauge_mean_s"])]
    assert report["metrics"]["plan_s"] == pytest.approx(median(scaled))
    assert report["unscaled"]["plan_s"] == median(report["passes"]["plan_s"])

    doctored = copy.deepcopy(expected)
    doctored[-1]["roi_cycles"] += 1
    gate = measure.measure(name, SEED, 0, TINY, doctored, probes=1)["gate"]
    assert gate.failed == 1
    assert "roi_cycles" in gate.failures[0]

    first = measure.measure_traced(name, SEED, TINY, expected)
    assert first["gate"].failures == []
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert set(first["metrics"]) == per_layer
    # every layer is reached on every workload: no time reads a fixed 0
    assert all(first["metrics"][m["name"]] > 0
               for m in declared["per_layer"] if m["unit"] == "s")
    second = measure.measure_traced(name, SEED, TINY, expected)
    census = {k: v for k, v in first["metrics"].items()
              if k.startswith("sim.scheduled.")}
    assert census == {k: second["metrics"][k] for k in census}
    assert sum(census.values()) > 0
    assert first["metrics"]["noc.hops"] == second["metrics"]["noc.hops"] > 0
    if WORKLOADS[name].disk_cache:
        assert first["metrics"]["exec.runs_executed"] == len(expected)
        assert first["metrics"]["exec.cache_hits"] == len(expected)
