"""Benchmark: regenerate Figure 14 (big-router deployment sweep).

Shape checks: more big routers -> more CS expedition, with diminishing
returns from 32 to 64 (the paper's rationale for the 32-router default).
"""

from conftest import run_once

from repro.experiments import fig14_deployment
from repro.experiments.common import ExperimentOptions


def test_fig14_deployment(benchmark, sweep_quick, sweep_scale):
    result = run_once(
        benchmark,
        lambda: fig14_deployment.run(
            ExperimentOptions(scale=sweep_scale, quick=sweep_quick)),
    )
    print("\n" + result.render())
    averages = {c: result.average(c) for c in result.deployments}
    assert averages[0] == 1.0
    # envelope: deployments must not materially regress CS time, and
    # going 32 -> 64 must not change much (the paper's marginal-gain point)
    assert averages[32] > 0.85
    assert abs(averages[64] - averages[32]) < 0.25
