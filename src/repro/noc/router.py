"""Two-stage pipelined router (baseline "normal" router).

Timing model, following the paper's baseline (Peh & Dally speculative
2-stage router, Table 1):

* stage 1 (RC/VA/SA) + stage 2 (ST) = ``pipeline_cycles`` (default 2) from
  head-flit arrival to the packet requesting its output port;
* the output port serializes the packet at one flit/cycle;
* the link to the next router adds ``link_cycles`` (default 1).

Routers expose an :meth:`inspect` hook, called when a packet enters the
router, **before** route computation.  Normal routers always let packets
continue; the iNPG big router overrides it to stop lock requests and
generate early invalidations (``repro.inpg.big_router``).

Datapath hot path: every output port is bound to its downstream once, at
wiring (:meth:`Router.wire`), and ``accept`` schedules the request of the
output port toward the packet's destination directly — one indexed load
per hop, no closures or per-hop routing calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from ..sim import Component, Simulator
from .packet import Packet
from .port import OutputPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

#: inspect() verdicts
CONTINUE = "continue"
STOPPED = "stopped"


class Router(Component):
    """A mesh router at ``node``."""

    is_big = False

    def __init__(self, sim: Simulator, node: int, network: "Network"):
        super().__init__(sim, f"router{node}")
        self.node = node
        self.network = network
        cfg = network.config
        self.pipeline_cycles = cfg.router_pipeline_cycles
        self.link_cycles = cfg.link_cycles
        #: one output port per neighbour + one ejection port to the local
        #: NI; the network builds them per the ``arbiter`` axis.
        self.ports: Dict[int, OutputPort] = {}
        for neighbor in network.mesh.neighbors(node):
            self.ports[neighbor] = network.make_port(
                f"router{node}->r{neighbor}"
            )
        self.ports[node] = network.make_port(f"router{node}->local")
        self.packets_seen = 0
        #: row[dst] -> next node on the routing path (shared, precomputed)
        topo = network.mesh
        self._hop_row = topo.next_hop_row(node)
        requests = {hop: port.request for hop, port in self.ports.items()}
        #: row[dst] -> request of the output port toward dst (the local
        #: ejection port for dst == node); accept() schedules it directly
        self._dest = list(map(requests.__getitem__, self._hop_row))
        if topo.has_datelines:
            #: row[dst] -> the hop toward dst wraps around a dateline
            self._dateline_row = tuple(
                hop != node and topo.crosses_dateline(node, hop)
                for hop in self._hop_row
            )
            # only destinations behind a dateline pay the escalation;
            # the mesh datapath is untouched.
            for dst, crosses in enumerate(self._dateline_row):
                if crosses:
                    self._dest[dst] = self._route_dateline
        #: subclasses that override inspect() pay for the hook; the base
        #: router skips the call entirely.
        self._inspects = type(self).inspect is not Router.inspect
        self._record_trace = network.record_traces
        self._schedule = sim.schedule

    # ------------------------------------------------------------------
    # Wiring (called by the network once all routers exist)
    # ------------------------------------------------------------------
    def wire(self) -> None:
        """Bind every output port's downstream: a neighbour port hands
        the head flit to that neighbour's ``accept`` after the link
        delay, the local port to this router's ejection.

        Idempotent, and deliberately so: ``repro.faults`` installs
        per-router fault wrappers as instance-level ``accept``
        attributes, then re-runs ``wire()`` on every router so the ports
        bind the wrapped entry points (link-site wrappers are layered
        afterwards via :meth:`wrap_link`)."""
        routers = self.network.routers
        link = self.link_cycles
        for hop, port in self.ports.items():
            if hop == self.node:
                port.bind(self._eject)
            else:
                port.bind(routers[hop].accept, link)
        self._deliver = self.network.deliver_local

    def wrap_link(
        self,
        neighbor: int,
        wrap: Callable[[Callable[[Packet], None]], Callable[[Packet], None]],
    ) -> None:
        """Interpose on the outgoing link toward ``neighbor``.

        ``wrap`` receives the port's current hand-off (a ``(packet)``
        callable that sends the head flit over the link) and returns the
        replacement, which the port then calls at each hand-off; the
        fault injector uses this to model lossy/slow links without
        touching the uncontended datapath.
        """
        if neighbor == self.node or neighbor not in self.ports:
            raise ValueError(
                f"router {self.node} has no link toward {neighbor}"
            )
        port = self.ports[neighbor]
        port.bind(wrap(port.hand_off))

    # ------------------------------------------------------------------
    # Hook for subclasses (big router)
    # ------------------------------------------------------------------
    def inspect(self, packet: Packet) -> str:
        """Inspect a packet entering this router.

        Returns :data:`CONTINUE` to let it proceed normally or
        :data:`STOPPED` if the router has taken over the packet (the base
        router never stops packets).
        """
        return CONTINUE

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def accept(self, packet: Packet) -> None:
        """Head flit of ``packet`` arrives at this router."""
        self.packets_seen += 1
        packet._hops += 1
        if self._record_trace:
            t = packet._trace_list
            if t is None:
                packet._trace_list = t = []
            t.append(self.node)
        if self._inspects and self.inspect(packet) == STOPPED:
            return
        self._schedule(self.pipeline_cycles, self._dest[packet.dst], packet)

    def _route_dateline(self, packet: Packet) -> None:
        """Route toward a destination whose next hop wraps around a
        dateline (torus/ring).

        The packet escalates once to the dateline VC class
        (``vnet + 2``) — the model of the dateline virtual channels that
        break the ring channel-dependency cycle (DESIGN.md §15).
        ``__init__`` puts it in the destination row only for such
        destinations, so mesh routers never test for datelines.
        """
        self.network.dateline_crossings += 1
        if packet.vnet < 2:
            packet.vnet += 2
        self.ports[self._hop_row[packet.dst]].request(packet)

    def _eject(self, packet: Packet) -> None:
        # the endpoint has the packet when the tail flit arrives
        tail = packet.size_flits - 1
        self._schedule(tail if tail > 0 else 0, self._deliver, packet)

    def forward_now(self, packet: Packet) -> None:
        """Re-enter the datapath at this router (used by big routers to
        send generated or converted packets on their way)."""
        self._schedule(self.pipeline_cycles, self._dest[packet.dst], packet)
