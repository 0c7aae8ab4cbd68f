"""Record the expected answer of every run of every workload for a seed.

Usage: ``python3 perfbench/record_expected.py <seed>``

Each run is executed inline by generating its workload and assembling
its system directly, so the answer also carries the hop and
forwarded-ack counts that only the assembled system exposes.  Writes
``perfbench/expected/seed-<seed>.json``.  Re-record only when a change
to the simulator is meant to change its answers.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import answers  # noqa: E402
from perfbench.plans import WORKLOADS, build_system, plan  # noqa: E402


def record(seed: int, size: float = 1.0, names=tuple(WORKLOADS)):
    """``{workload: [answer, ...]}`` for each workload named, at ``seed``."""
    out = {}
    for name in names:
        rows = []
        for spec in plan(name, seed, size):
            system = build_system(spec)
            observed = answers.observe(system, system.run())
            if observed["in_flight"]:
                raise RuntimeError(f"{spec.label()}: network did not drain")
            rows.append({"label": spec.label(), **observed["answer"]})
        out[name] = rows
    return out


def main() -> None:
    seed = int(sys.argv[1])
    path = answers.expected_path(seed)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "workloads": record(seed)}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
