"""Unit tests for output ports, routers, and the network fabric."""

import pytest

from repro.config import NocConfig
from repro.noc import Network, OutputPort, Packet, Router
from repro.sim import Simulator


def unfused(port_cls):
    """``port_cls`` with the schedule from before the fused hand-off: a
    1-flit grant appends its head hand-off and its port release as two
    entries of the next cycle.  The reference the fused port must
    replay exactly."""

    class Unfused(port_cls):
        __slots__ = ()

        def request(self, packet):
            if not self._busy and not self.queue_depth:
                if self._peak_queue_depth == 0:
                    self._peak_queue_depth = 1
                self._grant(packet)
            else:
                super().request(packet)

        def _grant(self, packet):
            self._busy = True
            occupancy = max(packet.size_flits, 1)
            self.packets_sent += 1
            self.flits_sent += occupancy
            self._schedule(1, self._pass_head, packet)
            self._schedule(occupancy, self._grant_next)

    Unfused.__name__ = f"Unfused{port_cls.__name__}"
    return Unfused


def make_network(width=4, height=4, priority=False, record_traces=False):
    sim = Simulator()
    net = Network(sim, NocConfig(width=width, height=height),
                  priority_arbitration=priority,
                  record_traces=record_traces)
    return sim, net


class TestOutputPort:
    def test_cut_through_head_and_serialization(self):
        """Wormhole semantics: the head proceeds after one cycle; the
        port stays busy for the full flit serialization before granting
        the next packet."""
        sim = Simulator()
        port = OutputPort(sim, "p")
        done = []
        port.bind(lambda p: done.append((p.payload, sim.cycle)))
        first = Packet(src=0, dst=1, payload="first", size_flits=8)
        second = Packet(src=0, dst=1, payload="second", size_flits=1)
        port.request(first)
        port.request(second)
        sim.run()
        assert done[0] == ("first", 1)     # head after 1 cycle
        assert done[1] == ("second", 9)    # blocked 8 cycles + 1

    def test_fifo_order_without_priority(self):
        sim = Simulator()
        port = OutputPort(sim, "p")
        order = []
        port.bind(lambda p: order.append(p.payload))
        for i in range(3):
            port.request(Packet(src=0, dst=1, payload=i, size_flits=2))
        sim.run()
        assert order == [0, 1, 2]

    def test_priority_arbitration(self):
        sim = Simulator()
        port = OutputPort(sim, "p", priority_aware=True)
        order = []
        port.bind(lambda p: order.append(p.payload))
        # first packet grabs the port; among the queued ones the
        # high-priority packet must win even though it was queued last.
        port.request(Packet(src=0, dst=1, payload="head", size_flits=4))
        port.request(Packet(src=0, dst=1, payload="low", priority=1))
        port.request(Packet(src=0, dst=1, payload="high", priority=7))
        sim.run()
        assert order == ["head", "high", "low"]

    def test_priority_ignored_when_not_priority_aware(self):
        sim = Simulator()
        port = OutputPort(sim, "p", priority_aware=False)
        order = []
        port.bind(lambda p: order.append(p.payload))
        port.request(Packet(src=0, dst=1, payload="head", size_flits=4))
        port.request(Packet(src=0, dst=1, payload="first", priority=0))
        port.request(Packet(src=0, dst=1, payload="second", priority=9))
        sim.run()
        assert order == ["head", "first", "second"]

    def test_wait_statistics(self):
        sim = Simulator()
        port = OutputPort(sim, "p")
        port.bind(lambda p: None)
        port.request(Packet(src=0, dst=1, payload=0, size_flits=10))
        port.request(Packet(src=0, dst=1, payload=1, size_flits=1))
        sim.run()
        assert port.packets_sent == 2
        assert port.flits_sent == 11
        assert port.total_wait_cycles == 10  # second waited for the first

    def test_one_flit_grant_is_one_entry_and_two_events(self):
        """The hand-off and the release of a 1-flit grant run as one
        kernel entry that counts as the two events it replaces."""
        counts = {}
        for port_cls in (OutputPort, unfused(OutputPort)):
            sim = Simulator()
            port = port_cls(sim, "p")
            done = []
            port.bind(lambda p: done.append((p.payload, sim.cycle)))
            port.request(Packet(src=0, dst=1, payload="ctrl"))
            port.request(Packet(src=0, dst=1, payload="next"))
            assert sim.run(max_events=1) == 1
            assert done == [("ctrl", 1)]
            sim.run()
            assert done == [("ctrl", 1), ("next", 2)]
            assert not port.busy
            counts[port_cls is OutputPort] = (
                sim.events_processed, sim.fused_events)
        assert counts == {True: (4, 2), False: (4, 0)}

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_request_in_the_release_cycle(self, fused):
        """A request entry queued before a 1-flit grant's release (same
        cycle) waits and is granted by it; one queued after finds the
        port busy again — exactly as with separate entries."""
        sim = Simulator()
        port = (OutputPort if fused else unfused(OutputPort))(sim, "p")
        log = []
        port.bind(lambda p: log.append((p.payload, sim.cycle)))
        sim.schedule(1, port.request, Packet(src=0, dst=1, payload="early"))
        port.request(Packet(src=0, dst=1, payload="a"))  # frees at cycle 1
        sim.schedule(1, port.request, Packet(src=0, dst=1, payload="late"))
        sim.run()
        assert log == [("a", 1), ("early", 2), ("late", 3)]
        assert port.total_wait_cycles == 1  # late waited one cycle
        assert port.peak_queue_depth == 1
        # two request entries + three (hand-off, release) pairs
        assert sim.events_processed == 2 + 3 * 2

    def test_bound_hand_off(self):
        """A link binding schedules the downstream after the link delay;
        ``hand_off`` exposes the same behaviour as one callable."""
        sim = Simulator()
        port = OutputPort(sim, "p")
        log = []
        port.bind(lambda p: log.append((p.payload, sim.cycle)), link=3)
        port.request(Packet(src=0, dst=1, payload="x"))
        sim.schedule(10, port.hand_off, Packet(src=0, dst=1, payload="y"))
        sim.run()
        assert log == [("x", 4), ("y", 13)]


class TestNetworkDelivery:
    def test_packet_reaches_destination(self):
        sim, net = make_network()
        got = []
        for n in range(16):
            net.register_endpoint(n, lambda p, n=n: got.append((n, p.payload)))
        net.send(0, 15, "hello")
        sim.run()
        assert got == [(15, "hello")]

    def test_latency_scales_with_distance(self):
        sim, net = make_network(8, 8)
        for n in range(64):
            net.register_endpoint(n, lambda p: None)
        near = net.send(0, 1, "near")
        far = net.send(0, 63, "far")
        sim.run()
        assert near.latency > 0
        assert far.latency > near.latency
        # 14 hops of (2-cycle pipeline + 1-cycle link) + ejection
        assert far.latency >= 14 * 3

    def test_local_delivery(self):
        sim, net = make_network()
        got = []
        net.register_endpoint(5, lambda p: got.append(p.payload))
        for n in range(16):
            if n != 5:
                net.register_endpoint(n, lambda p: None)
        net.send(5, 5, "self")
        sim.run()
        assert got == ["self"]

    def test_trace_records_xy_path(self):
        sim, net = make_network(4, 4, record_traces=True)
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        pkt = net.send(0, 10, "x")
        sim.run()
        assert pkt.trace == net.mesh.xy_route(0, 10)
        assert pkt.hops == len(pkt.trace)

    def test_hops_counted_without_tracing(self):
        """Tracing is off by default but hop counts are always kept."""
        sim, net = make_network(4, 4)
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        pkt = net.send(0, 10, "x")
        sim.run()
        assert pkt.trace == []
        assert pkt.hops == len(net.mesh.xy_route(0, 10))
        assert net.total_hops == pkt.hops - 1

    def test_duplicate_endpoint_rejected(self):
        sim, net = make_network()
        net.register_endpoint(0, lambda p: None)
        with pytest.raises(ValueError):
            net.register_endpoint(0, lambda p: None)

    def test_missing_endpoint_raises(self):
        sim, net = make_network()
        net.send(0, 3, "x")
        with pytest.raises(RuntimeError):
            sim.run()

    def test_network_statistics(self):
        sim, net = make_network()
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        net.send(0, 3, "a")
        net.send(1, 2, "b")
        sim.run()
        assert net.packets_injected == 2
        assert net.packets_delivered == 2
        assert net.in_flight == 0
        assert net.mean_latency > 0

    def test_contention_increases_latency(self):
        """Many packets to one node must queue at its ejection port."""
        sim, net = make_network(4, 4)
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        solo_sim, solo_net = make_network(4, 4)
        for n in range(16):
            solo_net.register_endpoint(n, lambda p: None)
        solo = solo_net.send(0, 5, "solo", size_flits=8)
        solo_sim.run()
        packets = [
            net.send(src, 5, f"p{src}", size_flits=8)
            for src in (0, 1, 2, 3, 4, 6, 8, 12)
        ]
        sim.run()
        worst = max(p.latency for p in packets)
        assert worst > solo.latency
