"""Run one benchmark workload and report its metrics.

Usage::

    python3 perfbench/run.py --workload fig12_8x8 [--seed 2018]
        [--seconds 60] [--trace 0|1]

``--trace 0`` is a timed run and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` is a traced run and reports the
per-layer metrics.  Every run checks each simulated answer (see
``perfbench/answers.py``).  The output is a table of metrics with their
units, the machine and inputs the numbers belong to, and, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The same record, with the trace spans of a traced run, is
written under ``.perfbench/``.

Every workload in turn::

    for w in fig12_8x8 sweep_cache; do
        python3 perfbench/run.py --workload $w; done

The simulator is imported from ``src/`` next to this directory; nothing
needs installing.  ``REPRO_*`` environment variables are cleared first
so that none of them changes what runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` (``None`` outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_stamp(seed: int, loadavg) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_start": list(loadavg),
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[var]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import answers, measure
        from perfbench.plans import WORKLOADS
    except ImportError as err:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    expected = answers.load_expected(args.seed, args.workload)
    if args.trace:
        report = measure.measure_traced(args.workload, args.seed,
                                        expected=expected)
    else:
        report = measure.measure(args.workload, args.seed, args.seconds,
                                 expected=expected)
    if set(report["metrics"]) != set(units):
        raise RuntimeError(
            f"reported metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(report['metrics']) ^ set(units))}")
    gate = report["gate"]
    stamp = machine_stamp(args.seed, loadavg)
    samples = report.get("samples", {})

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"# machine: {json.dumps(stamp)}")
    if "setup_parts" in report:
        parts = ", ".join(f"{k}={v:.4f}" for k, v in
                          report["setup_parts"].items())
        print(f"# set-up medians, unscaled: {parts}")
    unscaled = report.get("unscaled", {})
    if unscaled:
        print(f"# times are scaled by the host-speed gauge "
              f"(perfbench/gauge.py, {samples['gauge']} samples); "
              f"'unscaled' is the same median in plain seconds")
    print(f"{'metric':<26} {'value':>16}  {'unit':<12} {'unscaled':>12}  "
          f"samples")
    for name in units:
        value = report["metrics"][name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        plain = f"{unscaled[name]:.6g}" if name in unscaled else ""
        print(f"{name:<26} {shown:>16}  {units[name]:<12} {plain:>12}  "
              f"{samples.get(name, '')}")
    share = gate.failed / gate.attempted if gate.attempted else 0.0
    print(f"{'failed_runs':<26} {share:>16.6g}  {'share':<12} "
          f"{gate.failed} of {gate.attempted}")
    if expected is None:
        source = "invariants (no stored answers for this seed)"
    else:
        source = "stored answers"
    if not args.trace:
        source += " on the warm-up pass; every timed pass repeats its answers"
    verdict = "PASS" if not gate.failures else "FAIL"
    print(f"# correctness: {verdict} against {source}")
    for failure in gate.failures:
        print(f"#   {failure}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": stamp,
        "metrics": {name: {"value": report["metrics"][name],
                           "unit": units[name]} for name in units},
        "unscaled": report.get("unscaled"),
        "samples": samples,
        "passes": report.get("passes"),
        "failures": gate.failures,
    }
    if "trace" in report:
        record["spans"] = report["trace"]
    measure.WORK_DIR.mkdir(exist_ok=True)
    out = (measure.WORK_DIR
           / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
