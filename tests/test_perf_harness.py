"""Tests for the perf-bench report (bench-core/v2) and profiling harness.

The report file is committed data other sessions build on, so the things
tested here are contracts: v1 files migrate without losing either
baseline, baselines survive re-measurement verbatim, the regression gate
trips on rate drops and on pinned-work drift, and the profiler
attributes self time to the right simulator layer.
"""

import json

import pytest

from repro.perf.profiling import (
    LAYERS,
    PROFILE_SCHEMA,
    format_layer_table,
    layer_of,
    profile_workload,
    write_profile_report,
)
from repro.perf.report import (
    BENCH_SCHEMA,
    baseline_keys_chronological,
    check_against,
    format_speedup_table,
    load_report,
    write_report,
)
from repro.perf.workloads import (
    QUICK_WORKLOADS,
    WORKLOADS,
    WorkloadResult,
)


def _result(name, events=1000, wall_s=0.5, cycles=100):
    return WorkloadResult(
        name=name, wall_s=wall_s, events=events, cycles=cycles
    )


V1_REPORT = {
    "schema": "bench-core/v1",
    "baseline": {
        "label": "pre-optimization seed (PR 1)",
        "kernel_chain": {
            "wall_s": 1.0, "events": 1000, "cycles": 100,
            "events_per_sec": 1000.0,
        },
    },
    "workloads": {
        "kernel_chain": {
            "wall_s": 0.5, "events": 1000, "cycles": 100,
            "events_per_sec": 2000.0,
        },
    },
    "speedup": {"kernel_chain": 2.0},
}


class TestReportSchema:
    def test_load_migrates_v1_preserving_both_baselines(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(V1_REPORT))
        report = load_report(path)
        assert report["schema"] == BENCH_SCHEMA
        baselines = report["baselines"]
        assert baselines["seed"]["label"] == "pre-optimization seed (PR 1)"
        assert (
            baselines["seed"]["workloads"]["kernel_chain"]["events_per_sec"]
            == 1000.0
        )
        # the v1 committed numbers become a second baseline, not lost
        migrated = [k for k in baselines if k != "seed"]
        assert len(migrated) == 1
        assert (
            baselines[migrated[0]]["workloads"]["kernel_chain"]
            ["events_per_sec"] == 2000.0
        )

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "bench-core/v99"}))
        assert load_report(path) is None
        assert load_report(tmp_path / "absent.json") is None

    def test_first_write_seeds_baseline(self, tmp_path):
        path = tmp_path / "bench.json"
        report = write_report(
            {"kernel_chain": _result("kernel_chain")}, path,
            baseline_label="fresh",
        )
        assert report["schema"] == BENCH_SCHEMA
        assert report["baselines"]["seed"]["label"] == "fresh"
        assert report["speedup"]["kernel_chain"]["seed"] == 1.0

    def test_remeasure_keeps_baselines_verbatim(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report({"kernel_chain": _result("kernel_chain")}, path)
        before = load_report(path)["baselines"]
        write_report(
            {"kernel_chain": _result("kernel_chain", wall_s=0.25)}, path
        )
        after = load_report(path)
        assert after["baselines"] == before
        assert after["speedup"]["kernel_chain"]["seed"] == 2.0

    def test_snapshot_baseline_freezes_committed_numbers(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report({"kernel_chain": _result("kernel_chain")}, path)
        write_report(
            {"kernel_chain": _result("kernel_chain", wall_s=0.1)}, path,
            snapshot_baseline="pr-n", baseline_label="previous PR",
        )
        report = load_report(path)
        assert (
            report["baselines"]["pr-n"]["workloads"]["kernel_chain"]
            ["events_per_sec"] == 2000.0
        )
        assert report["speedup"]["kernel_chain"]["pr-n"] == 5.0

    def test_snapshots_get_increasing_order(self, tmp_path):
        """Baselines record their chronology explicitly: the seed is
        order 0 and every snapshot takes the next slot, so rendering
        never depends on (alphabetical) JSON key order."""
        path = tmp_path / "bench.json"
        write_report({"kernel_chain": _result("kernel_chain")}, path)
        write_report(
            {"kernel_chain": _result("kernel_chain", wall_s=0.25)}, path,
            snapshot_baseline="zz-first",
        )
        write_report(
            {"kernel_chain": _result("kernel_chain", wall_s=0.1)}, path,
            snapshot_baseline="aa-second",
        )
        report = load_report(path)
        assert report["baselines"]["seed"]["order"] == 0
        assert report["baselines"]["zz-first"]["order"] == 1
        assert report["baselines"]["aa-second"]["order"] == 2
        # chronological, not alphabetical
        assert baseline_keys_chronological(report["baselines"]) == [
            "seed", "zz-first", "aa-second",
        ]

    def test_speedup_table_labels_comparison_baseline(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report({"kernel_chain": _result("kernel_chain")}, path)
        write_report(
            {"kernel_chain": _result("kernel_chain", wall_s=0.25)}, path,
            snapshot_baseline="pr-n",
        )
        table = format_speedup_table(load_report(path))
        header = table.splitlines()[0]
        # columns oldest-first, newest explicitly marked as the
        # comparison the current PR is judged against
        assert header.index("vs seed") < header.index("vs pr-n")
        assert "vs pr-n (comparison)" in header
        assert "kernel_chain" in table and "2.00x" in table

    def test_committed_file_is_current_schema(self):
        """The repo's own BENCH_core.json must parse as v2 and keep both
        historical baselines."""
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        report = load_report(path)
        assert report is not None and report["schema"] == BENCH_SCHEMA
        assert "seed" in report["baselines"]
        assert len(report["baselines"]) >= 2
        for name in ("dir_invalidation_storm", "lock_handoff_chain",
                     "flit_uniform"):
            assert name in report["workloads"]
        # chronology is explicit: every committed baseline is ordered
        # and the seed is oldest
        assert all("order" in b for b in report["baselines"].values())
        assert baseline_keys_chronological(report["baselines"])[0] == "seed"


class TestRegressionGate:
    COMMITTED = {
        "schema": BENCH_SCHEMA,
        "workloads": {
            "kernel_chain": {
                "wall_s": 0.5, "events": 1000, "cycles": 100,
                "events_per_sec": 2000.0,
            },
        },
    }

    def test_passes_within_tolerance(self):
        results = {"kernel_chain": _result("kernel_chain", wall_s=0.6)}
        assert check_against(results, self.COMMITTED) == []

    def test_fails_on_rate_collapse(self):
        results = {"kernel_chain": _result("kernel_chain", wall_s=2.0)}
        failures = check_against(results, self.COMMITTED)
        assert len(failures) == 1 and "below the committed" in failures[0]

    def test_fails_on_pinned_work_drift(self):
        results = {
            "kernel_chain": _result("kernel_chain", events=999, wall_s=0.5)
        }
        failures = check_against(results, self.COMMITTED)
        assert any("pinned" in f for f in failures)

    def test_unknown_workload_is_not_gated(self):
        results = {"brand_new": _result("brand_new")}
        assert check_against(results, self.COMMITTED) == []

    def test_quick_subset_covers_coherence(self):
        """CI's --quick gate must include a coherence-stress workload."""
        assert "dir_invalidation_storm" in QUICK_WORKLOADS
        assert set(QUICK_WORKLOADS) <= set(WORKLOADS)

    def test_unknown_workload_names_rejected_up_front(self, capsys):
        from repro.perf.report import main

        assert main(["--workloads", "flit_uniform", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "known:" in err


class TestLayerAttribution:
    @pytest.mark.parametrize(
        "path,layer",
        [
            ("/x/src/repro/sim/kernel.py", "kernel"),
            ("/x/src/repro/noc/router.py", "noc"),
            ("/x/src/repro/noc/packet.py", "noc"),
            ("/x/src/repro/noc/flitsim.py", "noc-flit"),
            ("/x/src/repro/noc/flit_fabric.py", "noc-flit"),
            ("/x/src/repro/coherence/directory.py", "coherence"),
            ("/x/src/repro/inpg/big_router.py", "coherence"),
            ("/x/src/repro/cpu/thread.py", "cpu"),
            ("/x/src/repro/locks/qsl.py", "cpu"),
            ("/x/src/repro/workloads/generator.py", "cpu"),
            ("/x/src/repro/obs/registry.py", "obs"),
            ("/x/src/repro/stats/metrics.py", "obs"),
            ("/usr/lib/python3.11/heapq.py", "other"),
            ("~", "other"),
        ],
    )
    def test_layer_of(self, path, layer):
        assert layer_of(path) == layer

    def test_profile_report_shape(self, tmp_path, monkeypatch):
        """Profile a miniature kernel workload end to end: shares sum to
        ~1, every layer is listed, hotspots carry locations."""
        from repro.perf import workloads as wl

        def tiny():
            return wl.kernel_chain(total_events=5_000, chains=8)

        monkeypatch.setitem(WORKLOADS, "tiny_kernel", tiny)
        entry = profile_workload("tiny_kernel")
        assert entry["events"] >= 5_000
        assert set(entry["layers"]) == set(LAYERS)
        total_share = sum(
            layer["share"] for layer in entry["layers"].values()
        )
        assert total_share == pytest.approx(1.0, abs=0.01)
        assert entry["layers"]["kernel"]["share"] > 0
        assert entry["hotspots"], "no hotspots recorded"
        top = entry["hotspots"][0]
        assert top["file"] and top["tottime_s"] >= 0

        report = {
            "schema": PROFILE_SCHEMA,
            "top_n": 15,
            "workloads": {"tiny_kernel": entry},
        }
        out = tmp_path / "profile.json"
        write_profile_report(report, out)
        assert json.loads(out.read_text())["schema"] == PROFILE_SCHEMA
        table = format_layer_table(report)
        assert "tiny_kernel" in table
        for layer in LAYERS:
            assert layer in table

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            profile_workload("no_such_workload")
