"""Benchmark: regenerate Figure 15 (NoC dimension and table size sweep).

Shape checks: iNPG's benefit grows with the mesh dimension (more threads
competing per lock), and a 4-entry barrier table limits it on the larger
meshes relative to 16 entries.

The 16x16 point is included only under REPRO_FULL=1 (it is the slowest
single simulation in the suite).
"""

import os

from conftest import run_once

from repro.experiments import fig15_sensitivity
from repro.experiments.common import ExperimentOptions


def _dims():
    if os.environ.get("REPRO_FULL", "") not in ("", "0"):
        return (2, 4, 8, 16)
    return (2, 4, 8)


def test_fig15_sensitivity(benchmark, sweep_quick, sweep_scale):
    dims = _dims()
    result = run_once(
        benchmark,
        lambda: fig15_sensitivity.run(
            ExperimentOptions(scale=sweep_scale, quick=sweep_quick),
            dims=dims,
        ),
    )
    print("\n" + result.render())
    # 2x2 has almost no network to optimize: its effect must be small
    small = result.reduction[(2, 16)]
    assert abs(small) < 0.10
    # envelope on the largest mesh, all table sizes
    for size in result.table_sizes:
        assert result.reduction[(dims[-1], size)] > -0.12, size
