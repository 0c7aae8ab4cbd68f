"""Network-on-chip substrate: topologies, routing, routers, fabric.

Two fidelity levels: the packet-granularity :class:`Network` used by the
full system (any :class:`Topology`: mesh, torus, ring — selected by the
``NocConfig.topology`` axis via :func:`make_topology`), and the
event-driven, mesh-only flit-level validation model
(:mod:`repro.noc.flitsim`).  Output-port arbitration is selectable per
the ``NocConfig.arbiter`` axis (:class:`OutputPort` round-robin or
:mod:`repro.noc.arbiter` weighted round-robin).
Synthetic traffic patterns and load sweeps live in
:mod:`repro.noc.traffic`.
"""

from .arbiter import WeightedRoundRobinArbiter, WrrOutputPort
from .flitsim import FlitNetwork, FlitPacket, FlitRouter
from .network import Network
from .packet import Packet
from .port import OutputPort
from .router import CONTINUE, STOPPED, Router
from .topology import (
    TOPOLOGY_CLASSES,
    Mesh,
    Ring,
    Topology,
    Torus,
    make_topology,
)
from .traffic import (
    PATTERNS,
    TrafficResult,
    latency_load_curve,
    run_packet_traffic,
)

__all__ = [
    "CONTINUE",
    "FlitNetwork",
    "FlitPacket",
    "FlitRouter",
    "Mesh",
    "Network",
    "OutputPort",
    "PATTERNS",
    "Packet",
    "Ring",
    "Router",
    "STOPPED",
    "TOPOLOGY_CLASSES",
    "Topology",
    "Torus",
    "TrafficResult",
    "WeightedRoundRobinArbiter",
    "WrrOutputPort",
    "latency_load_curve",
    "make_topology",
    "run_packet_traffic",
]
