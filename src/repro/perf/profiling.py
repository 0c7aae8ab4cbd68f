"""cProfile-based per-layer attribution for the tracked perf workloads.

``inpg-perf --profile`` runs each selected workload under :mod:`cProfile`
and reduces the raw stats two ways:

* **per-layer attribution** — every profiled function is assigned to one
  simulator layer by its module path (``repro/sim`` -> kernel, the flit
  fabric ``repro/noc/flitsim`` + ``repro/noc/flit_fabric`` -> noc-flit,
  the rest of ``repro/noc`` -> noc, ``repro/coherence`` +
  ``repro/inpg`` -> coherence, ``repro/cpu`` + ``repro/locks`` +
  ``repro/workloads`` -> cpu, ``repro/obs`` + ``repro/stats`` -> obs,
  everything else -> other); the report sums
  *self* time (tottime) per layer, so the shares add up to the profiled
  wall time instead of double-counting callers.  The flit fabric gets
  its own layer because the packet-level and flit-level datapaths are
  optimized independently and lumping them under ``noc`` hid which one
  a hotspot belonged to.
* **top-N hotspots** — the functions with the largest self time, with
  call counts and cumulative time, ready to paste into a perf PR.

The result is written as schema-versioned JSON
(:data:`PROFILE_SCHEMA`) next to ``BENCH_core.json`` —
``BENCH_profile.json`` by default.  Profiled runs are *slower* than
plain ones (cProfile hooks every call), so their events/sec numbers are
never written into ``BENCH_core.json``; the two files answer different
questions (how fast / where does it go).
"""

from __future__ import annotations

import cProfile
import json
import pstats
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from .workloads import WORKLOADS

#: schema tag written into every profile report
PROFILE_SCHEMA = "perf-profile/v1"
#: default report location, next to BENCH_core.json
DEFAULT_PROFILE_OUTPUT = "BENCH_profile.json"
#: hotspots kept per workload
TOP_N = 15

#: path fragment (under ``src/repro/``) -> layer name; first match wins.
_LAYER_BY_PACKAGE = (
    ("repro/sim/", "kernel"),
    ("repro/noc/flitsim", "noc-flit"),
    ("repro/noc/flit_fabric", "noc-flit"),
    ("repro/noc/", "noc"),
    ("repro/coherence/", "coherence"),
    ("repro/inpg/", "coherence"),
    ("repro/cpu/", "cpu"),
    ("repro/locks/", "cpu"),
    ("repro/workloads/", "cpu"),
    ("repro/obs/", "obs"),
    ("repro/stats/", "obs"),
)

#: every layer the report always lists (zero-filled when unexercised)
LAYERS = ("kernel", "noc", "noc-flit", "coherence", "cpu", "obs", "other")


def layer_of(filename: str) -> str:
    """Map a profiled function's filename to its simulator layer."""
    normalized = filename.replace("\\", "/")
    for fragment, layer in _LAYER_BY_PACKAGE:
        if fragment in normalized:
            return layer
    return "other"


def _shorten(filename: str) -> str:
    """Repo-relative path for report readability (best effort)."""
    normalized = filename.replace("\\", "/")
    marker = "src/repro/"
    idx = normalized.rfind(marker)
    if idx >= 0:
        return normalized[idx + len("src/"):]
    return normalized.rsplit("/", 1)[-1]


def profile_workload(name: str) -> dict:
    """Run one workload under cProfile; returns its report entry."""
    runner = WORKLOADS.get(name)
    if runner is None:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    result = runner()
    profiler.disable()

    stats = pstats.Stats(profiler)
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    rows: List[Tuple[float, float, int, str, int, str]] = []
    total_self = 0.0
    for (filename, lineno, funcname), (
        _cc, ncalls, tottime, cumtime, _callers
    ) in stats.stats.items():  # type: ignore[attr-defined]
        total_self += tottime
        layer_self[layer_of(filename)] += tottime
        rows.append((tottime, cumtime, ncalls, filename, lineno, funcname))

    rows.sort(reverse=True)
    hotspots = [
        {
            "function": funcname,
            "file": _shorten(filename),
            "line": lineno,
            "ncalls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        }
        for tottime, cumtime, ncalls, filename, lineno, funcname
        in rows[:TOP_N]
    ]
    layers = {
        layer: {
            "self_s": round(layer_self[layer], 4),
            "share": round(layer_self[layer] / total_self, 4)
            if total_self > 0 else 0.0,
        }
        for layer in LAYERS
    }
    return {
        "wall_s": round(result.wall_s, 4),
        "events": result.events,
        "cycles": result.cycles,
        "profiled_self_s": round(total_self, 4),
        "layers": layers,
        "hotspots": hotspots,
    }


def profile_workloads(names: Iterable[str]) -> dict:
    """Profile the named workloads into one report dict."""
    report = {
        "schema": PROFILE_SCHEMA,
        "top_n": TOP_N,
        "workloads": {},
    }
    for name in names:
        print(f"  profiling {name} ...")
        entry = profile_workload(name)
        report["workloads"][name] = entry
        top = entry["hotspots"][0] if entry["hotspots"] else None
        shares = ", ".join(
            f"{layer}={entry['layers'][layer]['share']:.0%}"
            for layer in LAYERS
            if entry["layers"][layer]["self_s"] > 0
        )
        print(f"    layers: {shares}")
        if top is not None:
            print(
                f"    hottest: {top['function']} "
                f"({top['file']}:{top['line']}) {top['tottime_s']}s"
            )
    return report


def write_profile_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def format_layer_table(report: dict) -> str:
    """Render the per-layer attribution as an aligned text table."""
    lines = []
    header = f"{'workload':<24}" + "".join(
        f"{layer:>12}" for layer in LAYERS
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in sorted(report.get("workloads", {}).items()):
        layers = entry.get("layers", {})
        row = f"{name:<24}" + "".join(
            f"{layers.get(layer, {}).get('share', 0.0):>11.1%} "
            for layer in LAYERS
        )
        lines.append(row.rstrip())
    return "\n".join(lines)
