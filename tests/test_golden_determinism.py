"""Golden determinism tests: pinned fingerprints of whole runs.

The hot-path optimizations (tuple event entries, precomputed routing,
allocation-free datapath, incremental flit-router bookkeeping) are only
acceptable if they are *bit-exact*: a run is a pure function of its
configuration and seed, and the optimized kernel must replay the seed
implementation event for event.

These tests pin md5 fingerprints over the delivered-packet stream —
``(src, dst, size_flits, delivery_cycle)`` in delivery order — plus the
final ROI cycle and the total event count of small fig12-shaped runs.
The constants were captured on the pre-optimization seed tree; any
change to event ordering, packet timing, or spurious/elided events
shifts at least one of them.
"""

import hashlib

import pytest

from repro.config import NocConfig
from repro.noc.flitsim import FlitNetwork
from repro.noc.network import Network
from repro.sim import Simulator, make_rng
from repro.system import run_benchmark

# (benchmark, mechanism) -> (md5, roi_cycles, packets_delivered, sim_events)
# captured at scale=0.25, seed=2018 on the seed implementation.
GOLDEN_RUNS = {
    ("bwaves", "original"):
        ("3ecc6ffd17133339622466b7d95149c4", 4184, 1155, 26426),
    ("bwaves", "inpg"):
        ("dd781b988e06c2e9c1a90bd54369a7b4", 4184, 1157, 26531),
    ("fluidanimate", "original"):
        ("7036a289d9c4c4d83336ef00d111df3b", 14186, 8868, 235289),
    ("fluidanimate", "inpg"):
        ("c5d897ec2a81a2d581fa4c2ed1f40252", 15155, 9019, 243517),
}

# protocol-family pins (same scheme as GOLDEN_RUNS): the table-compiled
# MSI/MESI variants are deterministic too, and deliberately *different*
# work than MOESI — a protocol switch that silently falls back to the
# default would reproduce the MOESI stream and trip these.
# MESI matches MSI on fig12 lock workloads by design: lock words are
# first touched by an atomic (GetX), so the clean-GetS exclusive grant
# never fires here; the storm pins below separate all three.
GOLDEN_PROTOCOL_RUNS = {
    ("msi", "bwaves", "original"):
        ("69f806569f180ebe090377e4f6b0de6b", 4069, 1158, 26821),
    ("msi", "bwaves", "inpg"):
        ("8f29e6bd5479ccf411e692f4a31f6d77", 4069, 1169, 27106),
    ("msi", "fluidanimate", "inpg"):
        ("5f03be31f94724130a22e7325800b3ca", 13336, 9679, 256064),
    ("mesi", "bwaves", "original"):
        ("69f806569f180ebe090377e4f6b0de6b", 4069, 1158, 26821),
    ("mesi", "bwaves", "inpg"):
        ("8f29e6bd5479ccf411e692f4a31f6d77", 4069, 1169, 27106),
    ("mesi", "fluidanimate", "inpg"):
        ("5f03be31f94724130a22e7325800b3ca", 13336, 9679, 256064),
}

# topology/arbiter-family pins (same scheme as GOLDEN_RUNS): the torus
# and ring fabrics and the WRR arbiter are deterministic and do
# *distinct* work from the mesh/rr default — a topology switch that
# silently routed as a mesh would reproduce the GOLDEN_RUNS stream and
# trip these.  Torus finishes earlier (wraparound halves the average
# hop count), the ring later (linear paths), and WRR keeps the mesh ROI
# while reordering grants under backlog.
GOLDEN_TOPOLOGY_RUNS = {
    ("torus", "bwaves", "original"):
        ("2ac0d827dd03cb25cb91c0f0ce3f5333", 3783, 1148, 21524),
    ("torus", "bwaves", "inpg"):
        ("e62240aa18ac27547983da3c94b78610", 3783, 1180, 22075),
    ("ring", "bwaves", "original"):
        ("d690402bf923cbd38cf2ddedaa52cdd2", 6623, 1042, 68884),
    ("ring", "bwaves", "inpg"):
        ("783b86917c297245bef488fe76f8afb5", 6623, 1047, 69633),
}

GOLDEN_ARBITER_RUNS = {
    ("wrr", "bwaves", "original"):
        ("d458b5e3988ce3589cd8d650d6cab0c1", 4184, 1155, 26426),
    ("wrr", "bwaves", "inpg"):
        ("30007f6d38a80ab61d4c20f30a5f96d6", 4184, 1157, 26535),
}

# same-cycle ordering pins (same scheme as GOLDEN_RUNS): every pin above
# runs QSL without priority arbitration, where a reorder of same-cycle NoC
# entries can leave the delivery stream untouched.  Ticket and MCS locks,
# OCOR's priority arbitration and the WRR arbiter expose such reorders,
# so these pins catch a datapath change that moves an entry within its
# cycle.  Key: (benchmark, mechanism, primitive, arbiter).
GOLDEN_ORDERING_RUNS = {
    ("bodytrack", "original", "ticket", "rr"):
        ("611d36bc910b811fb8c9a66be579443c", 7017, 3492, 96285),
    ("bodytrack", "inpg", "ticket", "rr"):
        ("a541450c9dc920aa796403511e23d1f1", 7020, 3565, 97888),
    ("bodytrack", "original", "mcs", "rr"):
        ("436cf0fcc9d7de29b97ea27cf83aec9a", 4686, 2156, 47415),
    ("imagick", "original", "ticket", "rr"):
        ("45391b8d85b88d2137c9aef66fdd40c1", 7246, 3124, 85381),
    ("fluidanimate", "ocor", "qsl", "rr"):
        ("9c3e47738f80eb5dd4c67bd8743d90f2", 13435, 9157, 242231),
    ("fluidanimate", "inpg+ocor", "qsl", "rr"):
        ("2e5559f1386948ec8501ddd929b0c398", 14890, 8684, 235689),
    ("fluidanimate", "inpg", "qsl", "wrr"):
        ("48336c40dd124b85c8b07d8797c8abaa", 14648, 8420, 233169),
}

# dir_invalidation_storm per protocol (load-first rounds, so the MESI
# exclusive grant fires and all three streams diverge).
GOLDEN_PROTOCOL_STORM = {
    "moesi": ("713d4a11a63a27a4f2a38f8618fb46f7", 25328, 358137),
    "msi": ("4531e309efbe429890447a6afe3681ba", 28799, 316485),
    "mesi": ("4f5ddcda675cfb4c76f011da55ca0522", 28803, 316489),
}

# flit-level model: uniform-random traffic, seed 11 (the perf workload
# shape) -> (md5 over (src, dst, length, injected, delivered), events)
GOLDEN_FLIT = ("49e0dffdc473d86980de9a26886aa321", 63963, 1200)

# coherence-stress perf workloads (repro.perf.workloads) -> delivered-
# packet md5 (same scheme as GOLDEN_RUNS), final cycle, sim events.
# Captured when the workloads were introduced, alongside the bitmask/
# pool/dispatch fast path they exercise.
GOLDEN_PERF_WORKLOADS = {
    "dir_invalidation_storm":
        ("713d4a11a63a27a4f2a38f8618fb46f7", 25328, 358137),
    "lock_handoff_chain":
        ("efe80f80f6e2cb8497dbaa45aef24730", 61224, 893131),
}


def fingerprint_run(bench, mechanism, observe=None, **run_kwargs):
    """Run a small fig12-shaped simulation, hashing every delivery.

    ``run_kwargs`` pass through to :func:`run_benchmark` (the fault
    tests use this to fingerprint runs under fault plans / watchdogs).
    """
    digest = hashlib.md5()
    original_deliver = Network.deliver_local

    def recording_deliver(self, packet):
        digest.update(
            b"%d,%d,%d,%d;"
            % (packet.src, packet.dst, packet.size_flits, self.sim.cycle)
        )
        original_deliver(self, packet)

    Network.deliver_local = recording_deliver
    try:
        result = run_benchmark(
            bench, mechanism=mechanism, scale=0.25, seed=2018,
            observe=observe, **run_kwargs,
        )
    finally:
        Network.deliver_local = original_deliver
    return (
        digest.hexdigest(),
        result.roi_cycles,
        result.network_packets,
        int(result.extra["sim_events"]),
    )


class TestGoldenFig12:
    @pytest.mark.parametrize(
        "bench,mechanism", sorted(GOLDEN_RUNS), ids="/".join
    )
    def test_pinned_fingerprint(self, bench, mechanism):
        assert fingerprint_run(bench, mechanism) == \
            GOLDEN_RUNS[(bench, mechanism)]

    def test_back_to_back_runs_identical(self):
        """Same config + seed => identical fingerprint within a process
        (no hidden global state in the optimized fast paths)."""
        first = fingerprint_run("bwaves", "original")
        second = fingerprint_run("bwaves", "original")
        assert first == second

    @pytest.mark.parametrize(
        "bench,mechanism",
        [("bwaves", "original"), ("fluidanimate", "inpg")],
        ids="/".join,
    )
    def test_observed_run_is_bit_exact(self, bench, mechanism):
        """Wiring in full observability (counters + trace ring) must not
        perturb scheduling: the pinned fingerprints stay byte-identical."""
        from repro.obs import Observation

        observe = Observation(label="golden")
        assert fingerprint_run(bench, mechanism, observe=observe) == \
            GOLDEN_RUNS[(bench, mechanism)]
        assert observe.records(), "tracer captured no events"


class TestGoldenOrdering:
    """Lock primitives, priority arbitration and WRR pin the same-cycle
    order of NoC entries that the QSL pins above cannot see."""

    @pytest.mark.parametrize(
        "bench,mechanism,primitive,arbiter", sorted(GOLDEN_ORDERING_RUNS),
        ids=["/".join(key) for key in sorted(GOLDEN_ORDERING_RUNS)],
    )
    def test_pinned_fingerprint(self, bench, mechanism, primitive, arbiter):
        from repro.config import SystemConfig

        config = SystemConfig().with_overrides(noc={"arbiter": arbiter})
        assert fingerprint_run(
            bench, mechanism, primitive=primitive, config=config
        ) == GOLDEN_ORDERING_RUNS[(bench, mechanism, primitive, arbiter)]


def fingerprint_perf_workload(name, **workload_kwargs):
    """Run one coherence-stress perf workload, hashing every delivery.

    ``workload_kwargs`` pass through to the workload builder (the
    protocol-family tests use ``protocol=``).
    """
    from repro.perf.workloads import (
        run_dir_invalidation_storm,
        run_lock_handoff_chain,
    )

    builders = {
        "dir_invalidation_storm": run_dir_invalidation_storm,
        "lock_handoff_chain": run_lock_handoff_chain,
    }
    digest = hashlib.md5()
    original_deliver = Network.deliver_local

    def recording_deliver(self, packet):
        digest.update(
            b"%d,%d,%d,%d;"
            % (packet.src, packet.dst, packet.size_flits, self.sim.cycle)
        )
        original_deliver(self, packet)

    Network.deliver_local = recording_deliver
    try:
        first, _second = builders[name](**workload_kwargs)
    finally:
        Network.deliver_local = original_deliver
    sim = first if isinstance(first, Simulator) else first.sim
    return digest.hexdigest(), sim.cycle, sim.events_processed


class TestGoldenPerfWorkloads:
    """The tracked coherence-stress workloads are pinned work: their
    packet streams must stay bit-exact or events/sec comparisons lie."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_PERF_WORKLOADS))
    def test_pinned_fingerprint(self, name):
        assert fingerprint_perf_workload(name) == \
            GOLDEN_PERF_WORKLOADS[name]

    def test_back_to_back_storms_identical(self):
        """Per-run transaction ids: a second in-process run replays the
        first exactly (the old process-global counter only got away with
        it because txn ids never reach the wire)."""
        assert fingerprint_perf_workload("dir_invalidation_storm") == \
            fingerprint_perf_workload("dir_invalidation_storm")


class TestGoldenProtocolFamily:
    """The MSI/MESI sibling tables are deterministic, pinned, and do
    distinct work from the MOESI default."""

    @pytest.mark.parametrize(
        "protocol,bench,mechanism", sorted(GOLDEN_PROTOCOL_RUNS),
        ids="/".join,
    )
    def test_pinned_fingerprint(self, protocol, bench, mechanism):
        from dataclasses import replace

        from repro.config import SystemConfig

        config = replace(SystemConfig(), protocol=protocol)
        assert fingerprint_run(bench, mechanism, config=config) == \
            GOLDEN_PROTOCOL_RUNS[(protocol, bench, mechanism)]

    @pytest.mark.parametrize("protocol", sorted(GOLDEN_PROTOCOL_STORM))
    def test_pinned_storm_fingerprint(self, protocol):
        assert fingerprint_perf_workload(
            "dir_invalidation_storm", protocol=protocol
        ) == GOLDEN_PROTOCOL_STORM[protocol]

    def test_protocols_do_distinct_work(self):
        """MSI diverges from MOESI on the lock runs, and the storm's
        load-first rounds separate all three protocols pairwise."""
        assert GOLDEN_PROTOCOL_RUNS[("msi", "bwaves", "original")] != \
            GOLDEN_RUNS[("bwaves", "original")]
        storm_pins = set(GOLDEN_PROTOCOL_STORM.values())
        assert len(storm_pins) == len(GOLDEN_PROTOCOL_STORM)


class TestGoldenTopologyFamily:
    """Torus, ring and the WRR arbiter are deterministic, pinned, and do
    distinct work from the mesh/round-robin default."""

    @staticmethod
    def _config(**noc):
        from repro.config import SystemConfig

        return SystemConfig().with_overrides(noc=noc)

    @pytest.mark.parametrize(
        "topology,bench,mechanism", sorted(GOLDEN_TOPOLOGY_RUNS),
        ids="/".join,
    )
    def test_pinned_topology_fingerprint(self, topology, bench, mechanism):
        assert fingerprint_run(
            bench, mechanism, config=self._config(topology=topology)
        ) == GOLDEN_TOPOLOGY_RUNS[(topology, bench, mechanism)]

    @pytest.mark.parametrize(
        "arbiter,bench,mechanism", sorted(GOLDEN_ARBITER_RUNS), ids="/".join
    )
    def test_pinned_arbiter_fingerprint(self, arbiter, bench, mechanism):
        assert fingerprint_run(
            bench, mechanism, config=self._config(arbiter=arbiter)
        ) == GOLDEN_ARBITER_RUNS[(arbiter, bench, mechanism)]

    def test_fabrics_do_distinct_work(self):
        """Each topology's delivery stream is unique, and the WRR pins
        differ from round-robin's even where the ROI coincides."""
        md5s = {GOLDEN_RUNS[("bwaves", "original")][0]}
        for key in (("torus", "bwaves", "original"),
                    ("ring", "bwaves", "original")):
            md5s.add(GOLDEN_TOPOLOGY_RUNS[key][0])
        md5s.add(GOLDEN_ARBITER_RUNS[("wrr", "bwaves", "original")][0])
        assert len(md5s) == 4

    def test_torus_back_to_back_identical(self):
        """The dateline path and per-class shape caches hold no hidden
        cross-run state."""
        config = self._config(topology="torus")
        assert fingerprint_run("bwaves", "original", config=config) == \
            fingerprint_run("bwaves", "original", config=config)


class TestGoldenFlit:
    def test_pinned_flit_fingerprint(self):
        sim = Simulator()
        net = FlitNetwork(sim, NocConfig(width=8, height=8))
        rng = make_rng(11, "perf/flit")
        nodes = net.mesh.num_nodes
        for i in range(1200):
            src = rng.randrange(nodes)
            dst = rng.randrange(nodes)
            while dst == src:
                dst = rng.randrange(nodes)
            length = 8 if i % 4 == 0 else 1
            sim.schedule_at(i // 2, net.send, src, dst, length)
        sim.run(until=2_000_000)
        digest = hashlib.md5()
        for p in net.delivered:
            digest.update(
                b"%d,%d,%d,%d,%d;"
                % (p.src, p.dst, p.length, p.injected_cycle,
                   p.delivered_cycle)
            )
        assert (digest.hexdigest(), sim.events_processed,
                len(net.delivered)) == GOLDEN_FLIT


class TestFlitPacketParity:
    """The packet model's latency must stay within 2x of the detailed
    flit model (same shapes as ``benchmarks/bench_noc_validation.py``)."""

    @pytest.mark.parametrize(
        "src,dst,length", [(0, 63, 1), (0, 63, 8), (27, 36, 1)]
    )
    def test_zero_load_latency_agreement(self, src, dst, length):
        fsim = Simulator()
        fnet = FlitNetwork(fsim, NocConfig(width=8, height=8))
        fpkt = fnet.send(src, dst, length)
        fsim.run(until=100_000)

        psim = Simulator()
        pnet = Network(psim, NocConfig(width=8, height=8))
        for n in range(64):
            pnet.register_endpoint(n, lambda p: None)
        ppkt = pnet.send(src, dst, "x", size_flits=length)
        psim.run()

        assert fpkt.latency > 0 and ppkt.latency > 0
        ratio = ppkt.latency / fpkt.latency
        assert 0.5 <= ratio <= 2.0, (src, dst, length, fpkt.latency,
                                     ppkt.latency)
