"""Measure the core workloads and maintain ``BENCH_core.json``.

The report file is schema-versioned (``bench-core/v2``)::

    {
      "schema": "bench-core/v2",
      "workloads": { "<name>": {wall_s, events, cycles, events_per_sec} },
      "baselines": {
        "<key>": { "label": "<provenance>",
                   "workloads": { "<name>": {...} } },
        ...
      },
      "speedup":   { "<name>": { "<baseline key>": <ratio>, ... } }
    }

``workloads`` holds the most recent measurement; every entry under
``baselines`` is kept verbatim across re-measurements, so the file
documents the whole optimization history (the PR 1 seed numbers AND the
PR 2 hot-path numbers survive the PR 3 refresh).  ``--snapshot-baseline
KEY`` freezes the *committed* ``workloads`` numbers as a new named
baseline before the fresh measurement replaces them.  A ``bench-core/v1``
file (single ``baseline`` mapping) is migrated transparently on load.

Each baseline carries an integer ``order`` (0 = oldest); snapshots get
the next free slot.  Speedups are always *rendered* oldest-first by that
field — the JSON file itself is written with sorted keys, so key order
in the file is alphabetical and deliberately carries no meaning.

``--check`` re-runs a subset and fails when events/sec drops more than
:data:`REGRESSION_TOLERANCE` below the committed ``workloads`` numbers —
the CI perf-smoke gate.

``--profile`` additionally runs each selected workload under cProfile
and writes a per-layer attribution + top-N hotspot report
(:mod:`repro.perf.profiling`, schema ``perf-profile/v1``) next to the
bench file — ``BENCH_profile.json`` by default.  Profiled runs are never
used for the gate numbers (cProfile skews them).

``--trace-out PATH`` additionally captures one *observed* reference run
of the end-to-end system the ``fig12_quick`` workload bottoms out in and
writes it as Chrome trace-event JSON, so a perf investigation has a
structured timeline next to the throughput numbers.  The measurements
themselves always run unobserved — tracing never skews the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .workloads import QUICK_WORKLOADS, WORKLOADS, WorkloadResult

#: schema tag written into every report file
BENCH_SCHEMA = "bench-core/v2"
#: previous schema, migrated transparently on load
BENCH_SCHEMA_V1 = "bench-core/v1"
#: default report location: the repository root
DEFAULT_OUTPUT = "BENCH_core.json"
#: --check fails when current events/sec < (1 - tolerance) * committed
REGRESSION_TOLERANCE = 0.30


def run_workloads(names: Iterable[str]) -> Dict[str, WorkloadResult]:
    """Execute the named workloads (in the given order)."""
    results: Dict[str, WorkloadResult] = {}
    for name in names:
        runner = WORKLOADS.get(name)
        if runner is None:
            raise KeyError(
                f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
            )
        result = runner()
        results[name] = result
        print(
            f"  {name}: {result.events:,} events in {result.wall_s:.2f}s "
            f"({result.events_per_sec / 1e6:.2f} Mev/s)"
        )
    return results


def _migrate_v1(data: dict) -> dict:
    """Lift a ``bench-core/v1`` report into the v2 shape.

    The v1 single ``baseline`` mapping becomes the ``seed`` baseline and
    the v1 ``workloads`` numbers (the measurement the file was committed
    with) are preserved as a second baseline, so no history is lost.
    """
    old_baseline = dict(data.get("baseline", {}))
    label = old_baseline.pop("label", "baseline")
    baselines = {
        "seed": {"label": label, "order": 0, "workloads": old_baseline},
        "pre-refresh": {
            "label": "committed workloads at v1->v2 migration",
            "order": 1,
            "workloads": dict(data.get("workloads", {})),
        },
    }
    return {
        "schema": BENCH_SCHEMA,
        "workloads": dict(data.get("workloads", {})),
        "baselines": baselines,
        "speedup": {},
    }


def load_report(path: Path) -> Optional[dict]:
    """Parse an existing report (migrating v1); None when absent/alien."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    schema = data.get("schema")
    if schema == BENCH_SCHEMA:
        return data
    if schema == BENCH_SCHEMA_V1:
        return _migrate_v1(data)
    return None


def baseline_keys_chronological(baselines: dict) -> List[str]:
    """Baseline keys oldest-first, by their ``order`` field.

    Entries written before the field existed sort first (order ``-1``)
    in file order; ties break on the key so rendering is deterministic.
    """
    return sorted(baselines, key=lambda k: (baselines[k].get("order", -1), k))


def _next_order(baselines: dict) -> int:
    return 1 + max(
        (b.get("order", -1) for b in baselines.values()), default=-1
    )


def format_speedup_table(report: dict, names: Optional[Iterable[str]] = None) -> str:
    """Render per-workload speedups, baselines as columns oldest-first.

    The header names every comparison baseline explicitly (``vs <key>``)
    so a reader never has to guess which predecessor a ratio is against;
    the newest baseline — the one a fresh optimization PR is judged by —
    is marked ``(comparison)``.
    """
    baselines = report.get("baselines", {})
    speedup = report.get("speedup", {})
    keys = baseline_keys_chronological(baselines)
    if names is not None:
        wanted = set(names)
        rows = [n for n in speedup if n in wanted]
    else:
        rows = list(speedup)
    rows.sort()
    if not keys or not rows:
        return ""
    headers = [f"vs {key}" for key in keys]
    headers[-1] += " (comparison)"
    widths = [max(len(h), 8) for h in headers]
    name_w = max([len("workload")] + [len(n) for n in rows])
    lines = [
        f"{'workload':<{name_w}}  "
        + "  ".join(f"{h:>{w}}" for h, w in zip(headers, widths))
    ]
    lines.append("-" * len(lines[0]))
    for name in rows:
        ratios = speedup.get(name, {})
        cells = []
        for key, w in zip(keys, widths):
            ratio = ratios.get(key)
            cells.append(
                f"{ratio:>{w - 1}.2f}x" if ratio is not None
                else f"{'-':>{w}}"
            )
        lines.append(f"{name:<{name_w}}  " + "  ".join(cells))
    return "\n".join(lines)


def _compute_speedup(workloads: dict, baselines: dict) -> dict:
    speedup: Dict[str, Dict[str, float]] = {}
    for name, entry in workloads.items():
        rate = entry.get("events_per_sec")
        if not rate:
            continue
        per_baseline = {}
        for key, baseline in baselines.items():
            base = baseline.get("workloads", {}).get(name)
            if isinstance(base, dict) and base.get("events_per_sec"):
                per_baseline[key] = round(
                    rate / base["events_per_sec"], 2
                )
        if per_baseline:
            speedup[name] = per_baseline
    return speedup


def write_report(
    results: Dict[str, WorkloadResult],
    path: Path,
    baseline_label: Optional[str] = None,
    snapshot_baseline: Optional[str] = None,
) -> dict:
    """Merge fresh measurements into the report file at ``path``.

    The first measurement also becomes the ``seed`` baseline.
    ``snapshot_baseline`` freezes the previously *committed* workload
    numbers under that key before they are overwritten — this is how a
    new optimization PR preserves its predecessor's numbers.
    """
    previous = load_report(path)
    workloads = dict(previous.get("workloads", {})) if previous else {}
    baselines = dict(previous.get("baselines", {})) if previous else {}

    if snapshot_baseline and workloads:
        baselines[snapshot_baseline] = {
            "label": baseline_label or snapshot_baseline,
            "order": _next_order(baselines),
            "workloads": dict(workloads),
        }

    for name, result in results.items():
        workloads[name] = result.as_dict()

    if not baselines:
        baselines["seed"] = {
            "label": baseline_label or "baseline",
            "order": 0,
            "workloads": {k: dict(v) for k, v in workloads.items()},
        }

    report = {
        "schema": BENCH_SCHEMA,
        "workloads": workloads,
        "baselines": baselines,
        "speedup": _compute_speedup(workloads, baselines),
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def check_against(
    results: Dict[str, WorkloadResult],
    committed: dict,
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Regression check: fresh results vs the committed ``workloads``.

    Returns a list of human-readable failures (empty = pass).
    """
    failures: List[str] = []
    reference = committed.get("workloads", {})
    for name, result in results.items():
        entry = reference.get(name)
        if not entry:
            continue  # workload not in the committed report: nothing to gate
        committed_rate = entry.get("events_per_sec", 0.0)
        if committed_rate <= 0:
            continue
        floor = (1.0 - tolerance) * committed_rate
        if result.events_per_sec < floor:
            failures.append(
                f"{name}: {result.events_per_sec:,.0f} ev/s is "
                f"{100 * (1 - result.events_per_sec / committed_rate):.1f}% "
                f"below the committed {committed_rate:,.0f} ev/s "
                f"(tolerance {100 * tolerance:.0f}%)"
            )
        if result.events != entry.get("events", result.events):
            failures.append(
                f"{name}: simulated {result.events:,} events but the "
                f"committed report says {entry['events']:,} — the pinned "
                "workload changed; re-run scripts/perf_report.py"
            )
    return failures


def capture_reference_trace(path: Path) -> None:
    """Run one observed end-to-end simulation and write its Chrome trace.

    Uses the same shape of run the ``fig12_quick`` workload bottoms out
    in (a scaled-down iNPG benchmark), executed inline and uncached so
    the trace reflects exactly what was simulated here.
    """
    from ..exec import RunSpec
    from ..exec.executor import execute_spec
    from ..obs import Observation

    spec = RunSpec(
        benchmark="kdtree", mechanism="inpg", primitive="qsl", scale=0.25
    )
    observe = Observation(label=spec.label())
    execute_spec(spec, observe=observe)
    observe.write_chrome_trace(path)
    print(
        f"  reference trace: {spec.label()} -> {path} "
        f"({len(observe.records()):,} records)"
    )


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure simulation-core performance "
        "(events/sec on canonical workloads)."
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"report file to update (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--workloads", nargs="*", metavar="NAME",
        help=f"subset to run (default: all; known: {sorted(WORKLOADS)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the fast workloads (skips the end-to-end fig12 "
        "run and the full lock-handoff chain)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="do not rewrite the report; fail if events/sec regressed "
        f">{100 * REGRESSION_TOLERANCE:.0f}%% vs the committed numbers",
    )
    parser.add_argument(
        "--snapshot-baseline", default=None, metavar="KEY",
        help="before updating, freeze the committed workload numbers as "
        "a named baseline (preserves the predecessor's numbers)",
    )
    parser.add_argument(
        "--baseline-label", default=None,
        help="provenance note stored with a new baseline",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also run each selected workload under cProfile and write "
        "a per-layer attribution + hotspot report (perf-profile/v1)",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="hotspot report path (default: BENCH_profile.json next to "
        "--output; implies --profile)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="also capture an observed reference run of the end-to-end "
        "system (written via --trace-out; default perf_trace.json)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="Chrome trace-event JSON for the observed reference run "
        "(implies --trace)",
    )
    args = parser.parse_args(argv)

    if args.workloads:
        names = list(args.workloads)
        # validate the whole selection up front: a typo'd name must not
        # surface as a traceback after minutes of earlier measurements
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            print(
                f"error: unknown workload(s) {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(WORKLOADS))}",
                file=sys.stderr,
            )
            return 2
    elif args.quick:
        names = list(QUICK_WORKLOADS)
    else:
        names = list(WORKLOADS)

    path = Path(args.output)
    print(f"measuring {len(names)} workload(s): {', '.join(names)}")
    results = run_workloads(names)

    if args.trace or args.trace_out is not None:
        capture_reference_trace(Path(args.trace_out or "perf_trace.json"))

    if args.profile or args.profile_out is not None:
        from .profiling import (
            format_layer_table,
            profile_workloads,
            write_profile_report,
        )

        profile_path = (
            Path(args.profile_out)
            if args.profile_out is not None
            else path.parent / "BENCH_profile.json"
        )
        print(f"profiling {len(names)} workload(s) under cProfile:")
        profile_report = profile_workloads(names)
        write_profile_report(profile_report, profile_path)
        print(format_layer_table(profile_report))
        print(f"wrote {profile_path} (schema {profile_report['schema']})")

    if args.check:
        committed = load_report(path)
        if committed is None:
            print(f"error: no committed report at {path} to check against",
                  file=sys.stderr)
            return 2
        failures = check_against(results, committed)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"perf check passed (within "
              f"{100 * REGRESSION_TOLERANCE:.0f}% of {path})")
        return 0

    report = write_report(
        results, path,
        baseline_label=args.baseline_label,
        snapshot_baseline=args.snapshot_baseline,
    )
    table = format_speedup_table(report, names=results)
    if table:
        print(table)
    print(f"wrote {path} (schema {BENCH_SCHEMA})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
