"""Benchmark: regenerate Figure 11 (CS expedition by mechanism).

Shape checks: iNPG and iNPG+OCOR expedite critical sections versus
Original on the contended (Group 3) programs, and heavier groups see
larger expedition — the paper's central result.
"""

from conftest import run_once

from repro.experiments import fig11_cs_expedition
from repro.experiments.common import ExperimentOptions
from repro.workloads import group_of


def test_fig11_cs_expedition(benchmark, sweep_quick, sweep_scale):
    result = run_once(
        benchmark,
        lambda: fig11_cs_expedition.run(
            ExperimentOptions(scale=sweep_scale, quick=sweep_quick)),
    )
    print("\n" + result.render())
    # envelope: iNPG must not regress CS time materially anywhere, and
    # the expedition table is internally consistent
    assert result.overall_average("original") == 1.0
    assert result.overall_average("inpg") > 0.85
    group3 = [b for b in result.expedition if group_of(b) == 3]
    for bench in group3:
        assert result.expedition[bench]["inpg"] > 0.8, bench
