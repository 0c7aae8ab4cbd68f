"""Benchmark: regenerate Figure 8 (CS characteristics and grouping).

Shape checks: COH dominates CSE for contended programs (the paper's
central observation) and sorting by total CS time recovers the group
structure.
"""

from conftest import run_once

from repro.experiments import fig08_cs_chars
from repro.experiments.common import ExperimentOptions


def test_fig08_cs_characteristics(benchmark, sweep_quick, sweep_scale):
    result = run_once(
        benchmark,
        lambda: fig08_cs_chars.run(
            ExperimentOptions(scale=sweep_scale, quick=sweep_quick)),
    )
    print("\n" + result.render())
    ordered = result.sorted_by_cs_time()
    assert len(ordered) >= 6
    # heavy group programs have more total CS time than light group ones
    assert ordered[-1].total_cs_time > ordered[0].total_cs_time
    # Group 3 programs must be heavily contended: COH > CSE
    for stats in ordered:
        if stats.group == 3:
            assert stats.total_coh > stats.total_cse, stats.benchmark
    # ascending sort should roughly match the profile-derived groups
    groups_in_order = [s.group for s in ordered]
    assert groups_in_order[0] == 1
    assert groups_in_order[-1] == 3
