"""The benchmark's workloads: the paper's own run plans, built from a seed.

Each workload is one run plan, a list of :class:`repro.api.RunSpec`,
plus how it executes.  The seed is the workload-generation seed of
every spec; the program only receives the generated inputs.

``size`` multiplies every spec's workload scale.  The benchmark always
runs at ``size=1``; the benchmark's own tests use tiny sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import api

#: the Figure 12 quick plan: two programs per Figure 8 group, in the
#: order ``inpg-experiments --quick`` submits them
QUICK_PROGRAMS = ("bwaves", "raytrace", "bodytrack", "imagick",
                  "fluidanimate", "nab")
#: the lock primitives of Figure 13, in its submission order
PRIMITIVES = ("tas", "ticket", "abql", "mcs", "qsl")
#: Figure 13's matrix runs on the two Group 2 programs here
SWEEP_PROGRAMS = ("bodytrack", "imagick")

DEFAULT_SEED = 2018


@dataclass(frozen=True)
class Workload:
    """A benchmark workload, and why it was chosen."""

    name: str
    why: str
    #: ``False`` runs with the cache off and asks again of the same
    #: executor, which answers from memory; ``True`` runs against a fresh
    #: disk cache, then asks again through a new executor on it
    disk_cache: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig12_8x8",
            "Figure 12 quick plan inline: QSL lock handoffs through "
            "coherence, big routers and a short-route 8x8 NoC together",
            disk_cache=False,
        ),
        Workload(
            "sweep_cache",
            "Figure 13 matrix (five lock primitives x original/iNPG) inline, "
            "cold then warm disk cache: executor, cache writes and reads, "
            "serialisation, spin locks",
            disk_cache=True,
        ),
    )
}


def plan(name: str, seed: int = DEFAULT_SEED,
         size: float = 1.0) -> List[api.RunSpec]:
    """The run plan of workload ``name``, in submission order.

    The scales are small so that a timed run repeats every run about
    ten times, which its medians need on a host whose speed drifts.
    """
    if name == "fig12_8x8":
        return [
            api.RunSpec(benchmark=program, mechanism=mechanism,
                        primitive="qsl", scale=0.25 * size, seed=seed)
            for program in QUICK_PROGRAMS
            for mechanism in api.MECHANISMS
        ]
    if name == "sweep_cache":
        # in Figure 13's submission order: program, primitive, mechanism
        return [
            api.RunSpec(benchmark=program, mechanism=mechanism,
                        primitive=primitive, scale=0.5 * size, seed=seed)
            for program in SWEEP_PROGRAMS
            for primitive in PRIMITIVES
            for mechanism in ("original", "inpg")
        ]
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


def build_system(spec: api.RunSpec) -> api.ManyCoreSystem:
    """Generate ``spec``'s workload and assemble its system, as the
    executor does for one run."""
    config = spec.resolved_config()
    workload = api.generate_workload(
        spec.benchmark,
        num_threads=config.num_threads,
        mesh_nodes=config.noc.width * config.noc.height,
        seed=spec.seed,
        scale=spec.scale,
        lock_homes=spec.lock_homes,
    )
    return api.ManyCoreSystem(config, workload, primitive=spec.primitive)
