"""One set-up of a workload in a fresh interpreter, timed step by step.

Usage: ``python3 perfbench/probe.py <workload> <seed> <size>``

Set-up is everything before the first simulated cycle: importing the
package, building the plan, generating the first run's workload and
assembling its system.  Prints one JSON line with each step's seconds
and their sum, ``setup_s``.
"""

import os
import sys
from time import perf_counter

start = perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import api  # noqa: E402

imported = perf_counter()

import json  # noqa: E402

from perfbench.plans import plan  # noqa: E402


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    spec = plan(name, seed, size)[0]
    config = spec.resolved_config()
    planned = perf_counter()
    workload = api.generate_workload(
        spec.benchmark,
        num_threads=config.num_threads,
        mesh_nodes=config.noc.width * config.noc.height,
        seed=spec.seed,
        scale=spec.scale,
        lock_homes=spec.lock_homes,
    )
    generated = perf_counter()
    api.ManyCoreSystem(config, workload, primitive=spec.primitive)
    built = perf_counter()
    parts = {
        "import_s": imported - start,
        "plan_s": planned - imported,
        "generate_s": generated - planned,
        "build_s": built - generated,
    }
    parts["setup_s"] = sum(parts.values())
    print(json.dumps(parts))


if __name__ == "__main__":
    main()
