"""Unit tests for the coherence fast-path representation.

The hot-path overhaul replaced FrozenSet sharer/ack bookkeeping with
integer bitmasks, Enum ``elif`` chains with per-tag dispatch tables, and
burst allocations with a per-run message pool.  These tests pin the
parts golden fingerprints cannot see: that the bitmask algebra *is*
set algebra, that pooled messages are re-initialized field by field,
that transaction ids restart per run (cross-run determinism), and that
the hot classes stay ``__slots__``-only.
"""

import pytest

from repro.config import SystemConfig
from repro.coherence.memsystem import MemorySystem
from repro.coherence.messages import (
    MESSAGE_TYPES,
    N_MESSAGE_TYPES,
    VALUE_BY_TAG,
    CoherenceMessage,
    MessagePool,
    MessageType,
    mask_to_set,
    popcount,
)
from repro.noc.network import Network
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Tag encoding
# ----------------------------------------------------------------------
class TestTagEncoding:
    def test_tags_are_declaration_order(self):
        assert [m.tag for m in MESSAGE_TYPES] == list(range(N_MESSAGE_TYPES))

    def test_value_by_tag_matches_enum(self):
        for m in MessageType:
            assert VALUE_BY_TAG[m.tag] == m.value

    def test_message_stamps_tag(self):
        msg = CoherenceMessage(MessageType.INV_ACK, addr=0x40, requester=3)
        assert msg.tag == MessageType.INV_ACK.tag

    def test_dispatch_tables_cover_every_tag(self):
        from repro.coherence import directory, l1cache

        assert len(directory._HANDLER_NAMES) == N_MESSAGE_TYPES
        assert len(l1cache._HANDLER_NAMES) == N_MESSAGE_TYPES


# ----------------------------------------------------------------------
# Bitmask sharer bookkeeping == FrozenSet semantics
# ----------------------------------------------------------------------
class TestSharerBitmask:
    """Run the directory's mask algebra next to a model set and require
    identical observable state at every step (0, 1, and all-64 sharers)."""

    @pytest.mark.parametrize(
        "cores",
        [[], [0], [63], list(range(64))],
        ids=["empty", "lowest", "highest", "all-64"],
    )
    def test_add_remove_roundtrip(self, cores):
        mask, model = 0, set()
        for core in cores:
            mask |= 1 << core
            model.add(core)
            assert mask_to_set(mask) == model
            assert popcount(mask) == len(model)
        for core in cores:
            assert (mask >> core) & 1  # membership test the hot code uses
            mask &= ~(1 << core)
            model.discard(core)
            assert mask_to_set(mask) == model
            assert popcount(mask) == len(model)
        assert mask == 0 and model == set()

    def test_iteration_order_is_sorted(self):
        """The Inv fan-out walks lowest-bit-first — the same order the
        FrozenSet implementation got from ``sorted()``."""
        cores = [63, 5, 0, 17, 41]
        mask = 0
        for core in cores:
            mask |= 1 << core
        walked = []
        m = mask
        while m:
            low = m & -m
            walked.append(low.bit_length() - 1)
            m ^= low
        assert walked == sorted(cores)

    def test_expected_minus_acked_commit_check(self):
        """``expected & ~acked == 0`` iff the expected set is covered."""
        expected = (1 << 3) | (1 << 9) | (1 << 63)
        acked = 0
        for core in (3, 9):
            acked |= 1 << core
            assert expected & ~acked  # still waiting on 63
        acked |= 1 << 63
        assert expected & ~acked == 0
        # a stray ack outside the expected set must not unblock commit
        assert ((1 << 3) | (1 << 4)) & ~(1 << 4)

    def test_directory_entry_exposes_set_view(self):
        """End to end: sharers accumulated by real GetS traffic read back
        as a plain set through the compat property."""
        sim = Simulator()
        cfg = SystemConfig()
        net = Network(sim, cfg.noc)
        memsys = MemorySystem(sim, cfg, net, model_dram=False)
        addr = memsys.addr_for_home(0)
        for core in range(64):
            memsys.load(core, addr, lambda _v: None)
        sim.run()
        ent = memsys.dirs[0].entry(addr)
        assert ent.sharers == set(range(64))
        assert popcount(ent.sharer_mask) == 64
        # a full invalidation (RMW) collapses the mask to the owner
        memsys.rmw(7, addr, lambda old: (old + 1, old), lambda _v: None)
        sim.run()
        assert ent.sharers == set()
        assert ent.owner == 7


# ----------------------------------------------------------------------
# Message pool
# ----------------------------------------------------------------------
class TestMessagePool:
    def test_acquire_release_reuses_instance(self):
        pool = MessagePool()
        msg = pool.acquire(MessageType.INV, 0x80, 5, inv_target=9)
        assert pool.allocated == 1 and pool.reused == 0
        pool.release(msg)
        assert len(pool) == 1
        again = pool.acquire(MessageType.INV_ACK, 0xC0, 6, stale=True)
        assert again is msg
        assert pool.reused == 1 and len(pool) == 0

    def test_reinit_clears_previous_fields(self):
        pool = MessagePool()
        msg = pool.acquire(
            MessageType.INV, 0x80, 5,
            inv_target=9, early=True, via_router=12, txn_id=77,
        )
        pool.release(msg)
        fresh = pool.acquire(MessageType.ACK_COUNT, 0x100, 2, ack_from=0b101)
        assert fresh is msg
        assert fresh.mtype is MessageType.ACK_COUNT
        assert fresh.tag == MessageType.ACK_COUNT.tag
        assert fresh.ack_from == 0b101
        # every stale field is back at its constructor default
        assert fresh.inv_target == -1
        assert fresh.early is False
        assert fresh.via_router is None
        assert fresh.txn_id == 0
        assert fresh._in_pool is False

    def test_double_release_is_noop(self):
        pool = MessagePool()
        msg = pool.acquire(MessageType.INV, 0x80, 5)
        pool.release(msg)
        pool.release(msg)
        assert len(pool) == 1 and pool.released == 1

    def test_fault_injection_disables_recycling(self):
        """The duplicate fault aliases one payload across two packets, so
        a faulted system must never return messages to the pool."""
        from repro.faults.plan import FaultPlan
        from repro.system import ManyCoreSystem
        from repro.workloads.generator import generate_workload

        cfg = SystemConfig()
        workload = generate_workload(
            "bwaves", num_threads=4, mesh_nodes=64, seed=1, scale=0.05
        )
        plan = FaultPlan.parse("duplicate:0.01", seed=3)
        system = ManyCoreSystem(cfg, workload, fault_plan=plan)
        assert system.memsys._recycle is False

    def test_pool_active_in_invalidation_storm(self):
        from repro.perf.workloads import run_dir_invalidation_storm

        sim, net = run_dir_invalidation_storm(rounds=3)
        pool = net.memsys.msg_pool
        assert pool.reused > 0, "storm bursts never recycled a message"
        assert pool.released >= pool.reused


# ----------------------------------------------------------------------
# Per-run transaction ids (cross-run determinism)
# ----------------------------------------------------------------------
class TestPerRunTxnIds:
    def _run_and_collect(self):
        sim = Simulator()
        cfg = SystemConfig()
        net = Network(sim, cfg.noc)
        memsys = MemorySystem(sim, cfg, net, model_dram=False)
        return [memsys.next_txn_id() for _ in range(5)]

    def test_fresh_system_restarts_ids(self):
        assert self._run_and_collect() == [1, 2, 3, 4, 5]
        assert self._run_and_collect() == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# Slots lint: hot classes must not grow a __dict__
# ----------------------------------------------------------------------
def _hot_classes():
    from repro.coherence.directory import DirEntry, Transaction
    from repro.coherence.l1cache import _PendingLoad, _PendingWrite
    from repro.noc.flitsim import Flit, FlitPacket, VirtualChannel
    from repro.noc.packet import Packet
    from repro.obs.registry import Counter
    from repro.sim.kernel import Event

    return [
        Packet, Flit, FlitPacket, VirtualChannel, Event, Counter,
        CoherenceMessage, MessagePool, Transaction, DirEntry,
        _PendingLoad, _PendingWrite,
    ]


class TestSlotsLint:
    @pytest.mark.parametrize(
        "cls", _hot_classes(), ids=lambda c: c.__name__
    )
    def test_hot_class_is_fully_slotted(self, cls):
        """Every class on the MRO (except object) must declare
        ``__slots__`` — one missing link silently re-adds a per-instance
        dict and the allocation win evaporates."""
        for klass in cls.__mro__[:-1]:
            assert "__slots__" in vars(klass), (
                f"{cls.__name__}: {klass.__name__} has no __slots__"
            )
