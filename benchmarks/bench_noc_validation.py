"""Benchmark: validate the packet-level NoC model against the flit model.

The main simulator uses packet-granularity router timing; this bench
cross-checks it against the detailed flit-level model (2-stage
speculative pipeline, per-VC buffers, credit flow control) on zero-load
latency and on a contended many-to-one pattern.
"""

from conftest import run_once

from repro.config import NocConfig
from repro.noc import FlitNetwork, Network
from repro.sim import Simulator


def flit_latency(src, dst, length, width=8, height=8):
    sim = Simulator()
    net = FlitNetwork(sim, NocConfig(width=width, height=height))
    pkt = net.send(src, dst, length)
    sim.run(until=100_000)
    return pkt.latency


def packet_latency(src, dst, length, width=8, height=8):
    sim = Simulator()
    net = Network(sim, NocConfig(width=width, height=height))
    for n in range(width * height):
        net.register_endpoint(n, lambda p: None)
    pkt = net.send(src, dst, "x", size_flits=length)
    sim.run()
    return pkt.latency


def test_zero_load_latency_agreement(benchmark):
    def run():
        out = {}
        for (src, dst, length) in [(0, 63, 1), (0, 63, 8), (0, 7, 8),
                                   (27, 36, 1)]:
            out[(src, dst, length)] = (
                flit_latency(src, dst, length),
                packet_latency(src, dst, length),
            )
        return out

    pairs = run_once(benchmark, run)
    print("\n(src,dst,len) -> (flit, packet) latency")
    for key, (f, p) in pairs.items():
        print(f"  {key}: flit={f} packet={p}")
        assert 0.5 <= p / f <= 2.0, (key, f, p)


def test_hotspot_contention_agreement(benchmark):
    """Many-to-one traffic: both models must show congestion growth of
    the same order."""

    def run():
        # flit model
        fsim = Simulator()
        fnet = FlitNetwork(fsim, NocConfig(width=4, height=4))
        fpkts = [fnet.send(src, 5, 8) for src in range(16) if src != 5]
        fsim.run(until=500_000)
        # packet model
        psim = Simulator()
        pnet = Network(psim, NocConfig(width=4, height=4))
        for n in range(16):
            pnet.register_endpoint(n, lambda p: None)
        ppkts = [pnet.send(src, 5, "x", size_flits=8)
                 for src in range(16) if src != 5]
        psim.run()
        return (
            max(p.latency for p in fpkts),
            max(p.latency for p in ppkts),
        )

    fmax, pmax = run_once(benchmark, run)
    print(f"\nhotspot max latency: flit={fmax} packet={pmax}")
    # both exhibit serialization: >> zero-load 8-flit latency (~20)
    assert fmax > 40 and pmax > 40
    assert 0.3 <= pmax / fmax <= 3.0
