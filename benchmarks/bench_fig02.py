"""Benchmark: regenerate Figure 2 (LCO share per locking primitive).

Shape checks: TAS has the largest LCO share per benchmark; MCS and QSL
sit at the low end — the paper's Section 2.2 ordering.
"""

from conftest import run_once

from repro.experiments import fig02_lco
from repro.experiments.common import ExperimentOptions


def test_fig02_lco_share(benchmark, sweep_scale):
    result = run_once(benchmark, lambda: fig02_lco.run(ExperimentOptions(scale=sweep_scale)))
    print("\n" + result.render())
    for bench, per_prim in result.lco.items():
        # robust orderings on these saturated programs: MCS (per-core
        # local spinning) sits at/near the bottom, TAS at/near the top,
        # and every primitive shows substantial LCO (the paper's
        # motivation for attacking lock coherence overhead)
        low, high = min(per_prim.values()), max(per_prim.values())
        assert per_prim["mcs"] <= low + 0.05, (bench, per_prim)
        assert per_prim["tas"] >= high - 0.10, (bench, per_prim)
        assert per_prim["tas"] > 0.10, f"{bench}: TAS LCO should be heavy"
        assert per_prim["tas"] > per_prim["mcs"], bench
