"""Property tests for output-port arbitration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import OutputPort, Packet
from repro.noc.arbiter import WrrOutputPort
from repro.sim import Simulator

from test_port_router import unfused

request = st.tuples(
    st.integers(min_value=0, max_value=20),   # issue delay
    st.integers(min_value=1, max_value=8),    # size flits
    st.integers(min_value=0, max_value=9),    # priority
    st.integers(min_value=0, max_value=1),    # vnet
)


class TestPortProperties:
    @given(st.lists(request, min_size=1, max_size=30),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_every_request_granted_exactly_once(self, reqs, priority_aware):
        sim = Simulator()
        port = OutputPort(sim, "p", priority_aware=priority_aware)
        granted = []
        port.bind(lambda q: granted.append(q.payload))
        for i, (delay, size, prio, vnet) in enumerate(reqs):
            pkt = Packet(src=0, dst=1, payload=i, size_flits=size,
                         priority=prio, vnet=vnet)
            sim.schedule(delay, port.request, pkt)
        sim.run()
        assert sorted(granted) == list(range(len(reqs)))
        assert not port.busy
        assert port.queue_depth == 0
        assert port.packets_sent == len(reqs)

    @given(st.lists(request, min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_grants_respect_serialization_spacing(self, reqs):
        """Consecutive grants are separated by at least the previous
        packet's flit count (the port transmits one flit per cycle)."""
        sim = Simulator()
        port = OutputPort(sim, "p")
        grants = []  # (cycle, size)
        port.bind(lambda q: grants.append((sim.cycle, q.payload)))
        for i, (delay, size, prio, vnet) in enumerate(reqs):
            pkt = Packet(src=0, dst=1, payload=size, size_flits=size)
            sim.schedule(delay, port.request, pkt)
        sim.run()
        for (t1, size1), (t2, _size2) in zip(grants, grants[1:]):
            assert t2 - t1 >= min(size1, t2 - t1), (grants,)
        # stronger: back-to-back grants spaced >= size of the earlier one
        # whenever the later request was already pending
        total_busy = sum(s for _, s in grants)
        assert grants[-1][0] >= grants[0][0]
        assert port.flits_sent == total_busy

    @given(st.lists(request, min_size=3, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_control_vnet_never_waits_behind_queued_data(self, reqs):
        """Among packets queued at the same time, vnet 0 wins."""
        sim = Simulator()
        port = OutputPort(sim, "p", priority_aware=True)
        order = []
        port.bind(lambda p: order.append((p.payload, p.vnet)))
        # one blocking packet, then everything queued at cycle 0
        port.request(Packet(src=0, dst=1, payload="head", size_flits=8))
        for i, (_, size, prio, vnet) in enumerate(reqs):
            port.request(Packet(src=0, dst=1, payload=i, size_flits=size,
                                priority=prio, vnet=vnet))
        sim.run()
        vnets = [v for payload, v in order if payload != "head"]
        # all control packets precede all data packets
        first_data = next((i for i, v in enumerate(vnets) if v == 1),
                          len(vnets))
        assert all(v == 1 for v in vnets[first_data:])

    @given(st.lists(st.tuples(request, st.booleans()), min_size=1,
                    max_size=30),
           st.booleans(), st.sampled_from([OutputPort, WrrOutputPort]))
    @settings(max_examples=100, deadline=None)
    def test_fused_grant_replays_the_unfused_schedule(
            self, reqs, priority_aware, port_cls):
        """Hand-offs, their cycles, the port statistics and the event
        count match the port that schedules a 1-flit grant's hand-off
        and release as two entries.  A *late* request is appended to its
        cycle's bucket from inside that cycle, so it lands after the
        grant entries scheduled the cycle before."""

        def replay(cls):
            sim = Simulator()
            port = cls(sim, "p", priority_aware=priority_aware)
            log = []
            port.bind(lambda q: log.append((sim.cycle, q.payload)))
            for i, ((delay, size, prio, vnet), late) in enumerate(reqs):
                pkt = Packet(src=0, dst=1, payload=i, size_flits=size,
                             priority=prio, vnet=vnet)
                if late:
                    sim.schedule(delay, sim.schedule, 0, port.request, pkt)
                else:
                    sim.schedule(delay, port.request, pkt)
            sim.run()
            return log, (port.packets_sent, port.flits_sent,
                         port.total_wait_cycles, port.peak_queue_depth,
                         port.busy, sim.events_processed)

        assert replay(port_cls) == replay(unfused(port_cls))
