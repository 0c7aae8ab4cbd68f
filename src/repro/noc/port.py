"""Router output-port resource model.

Each output port is a serial resource: a packet of ``n`` flits occupies the
port (and the downstream link) for ``n`` cycles.  When several packets want
the same port, the port arbitrates:

* baseline routers: oldest request first (FIFO, matching round-robin
  fairness in expectation);
* OCOR routers: highest packet priority first, FIFO among equals
  (Section 5.1 Case 2 — RTR-carrying SWAP packets are prioritized).

This packet-granularity model preserves what matters for LCO: hop pipeline
latency, link serialization, and queueing at contended ports (above all the
home node's ejection port, where GetX bursts pile up).

Every port is bound once, when the network wires its routers, to its
*downstream* (:meth:`OutputPort.bind`): the neighbour router's ``accept``
behind the link, or the local ejection.  A grant then hands the head flit
on without a per-request callback.
"""

from __future__ import annotations

import heapq
from functools import partial
from heapq import heappush
from typing import Callable, List, Optional, Tuple

from ..sim import Component, Simulator
from .packet import Packet

#: queue key: (vnet, negated priority, arrival cycle, tie-break seq)
_QueueKey = Tuple[int, int, int, int]

#: head-flit hand-off target: ``(packet) -> None``
Downstream = Callable[[Packet], None]


class OutputPort(Component):
    """A serial output port with pluggable priority arbitration."""

    __slots__ = (
        "priority_aware",
        "_pending",
        "_seq",
        "_busy",
        "packets_sent",
        "flits_sent",
        "total_wait_cycles",
        "_peak_queue_depth",
        "_schedule",
        "_downstream",
        "_link",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        priority_aware: bool = False,
    ):
        super().__init__(sim, name)
        self.priority_aware = priority_aware
        self._pending: List[Tuple[_QueueKey, Packet]] = []
        self._seq = 0
        self._busy = False
        #: statistics
        self.packets_sent = 0
        self.flits_sent = 0
        self.total_wait_cycles = 0
        self._peak_queue_depth = 0
        self._schedule = sim.schedule
        #: the hand-off target and its delay, set by :meth:`bind`
        self._downstream: Optional[Downstream] = None
        self._link: Optional[int] = None

    def bind(self, downstream: Downstream, link: Optional[int] = None) -> None:
        """Send the head flit of every granted packet to ``downstream``.

        The hand-off runs one cycle after the grant.  With ``link`` set
        it schedules ``downstream(packet)`` ``link`` cycles later (a link
        into the neighbour router's ``accept``); with ``link=None`` it
        calls ``downstream(packet)`` itself (the local ejection, or a
        fault-wrapped link that does its own scheduling).
        """
        self._downstream = downstream
        self._link = link

    @property
    def hand_off(self) -> Downstream:
        """The bound hand-off as one ``(packet)`` callable — what a link
        wrapper (``Router.wrap_link``) interposes on."""
        if self._link is None:
            return self._downstream
        return partial(self._schedule, self._link, self._downstream)

    def request(self, packet: Packet) -> None:
        """Ask to transmit ``packet``; it is handed to the bound
        downstream (:meth:`bind`) when its head flit has left the port.

        Arbitration is per virtual network first (control never waits
        behind queued data bursts), then by OCOR priority where enabled,
        then oldest-first.  An idle port grants immediately without
        touching the arbitration heap (the common uncontended case).
        """
        if not self._busy and not self._pending:
            # The slow path transits the heap, so every request used to
            # push depth to at least 1; keep that stat identical here.
            if self._peak_queue_depth == 0:
                self._peak_queue_depth = 1
            # inlined _grant(): the uncontended case is the datapath
            self._busy = True
            self.packets_sent += 1
            occupancy = packet.size_flits
            if occupancy > 1:
                self.flits_sent += occupancy
                schedule = self._schedule
                schedule(1, self._pass_head, packet)
                schedule(occupancy, self._grant_next)
            else:
                self.flits_sent += 1
                self._schedule(1, self._pass_head_and_release, packet)
            return
        priority = packet.priority if self.priority_aware else 0
        key = (packet.vnet, -priority, self.sim.cycle, self._seq)
        self._seq += 1
        pending = self._pending
        heappush(pending, (key, packet))
        if len(pending) > self._peak_queue_depth:
            self._peak_queue_depth = len(pending)

    def _grant(self, packet: Packet) -> None:
        """Grant ``packet`` the port (wormhole / cut-through).

        The head flit leaves one cycle after the grant and the packet
        proceeds immediately — its body streams behind it — while this
        port stays busy for the full serialization time before granting
        the next packet.  A 1-flit packet frees the port in the cycle
        its head leaves, so its hand-off and the release share one
        kernel entry (:meth:`_pass_head_and_release`).
        """
        self._busy = True
        self.packets_sent += 1
        occupancy = packet.size_flits
        if occupancy > 1:
            self.flits_sent += occupancy
            schedule = self._schedule
            schedule(1, self._pass_head, packet)
            schedule(occupancy, self._grant_next)
        else:
            self.flits_sent += 1
            self._schedule(1, self._pass_head_and_release, packet)

    def _pass_head(self, packet: Packet) -> None:
        """The head flit of ``packet`` leaves: hand it downstream."""
        link = self._link
        if link is None:
            self._downstream(packet)
        else:
            self._schedule(link, self._downstream, packet)

    def _pass_head_and_release(self, packet: Packet) -> None:
        """:meth:`_pass_head` then :meth:`_grant_next`, as one entry.

        The unfused grant appends the two entries back to back for the
        same cycle, so nothing can run between them and running them
        together keeps every same-cycle order.  The fused entry counts
        in ``sim.fused_events`` so ``events_processed`` stays the
        unfused count (DESIGN.md §8, "Fused adjacent entries").
        """
        self.sim.fused_events += 1
        link = self._link
        if link is None:
            self._downstream(packet)
        else:
            self._schedule(link, self._downstream, packet)
        # inlined _grant_next() for the idle case
        if self._pending:
            self._grant_next()
        else:
            self._busy = False

    def _grant_next(self) -> None:
        """The port freed up: grant the best queued request, if any."""
        if not self._pending:
            self._busy = False
            return
        key, packet = heapq.heappop(self._pending)
        self.total_wait_cycles += self.sim.cycle - key[2]
        self._grant(packet)

    @property
    def peak_queue_depth(self) -> int:
        """Deepest arbitration queue seen (read-only; aggregated by the
        ``repro.obs`` registry as ``noc/peak_queue_depth``)."""
        return self._peak_queue_depth

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def mean_wait(self) -> float:
        """Average queueing delay per packet, cycles."""
        if self.packets_sent == 0:
            return 0.0
        return self.total_wait_cycles / self.packets_sent
