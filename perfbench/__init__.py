"""The repository benchmark: the paper's run plans, timed end to end.

``perfbench/run.py`` is the command; ``BENCHMARK.json`` at the root
declares its workloads and metrics.
"""
