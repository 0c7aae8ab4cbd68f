"""Tests for the flit-level full-system mode."""

import pytest

from repro import ManyCoreSystem, SystemConfig, single_lock_workload
from repro.config import NocConfig
from repro.obs import Observation

#: the flit-level full-system reference answer for ``mcs_run`` below:
#: (roi_cycles, network_packets, sim_events)
GOLDEN_FLIT_SYSTEM = (2364, 586, 9430)


def flit_config(**kw):
    return SystemConfig(
        noc=NocConfig(width=4, height=4, flit_level=True),
        num_threads=16,
        **kw,
    )


def mcs_workload():
    return single_lock_workload(8, home_node=5, cs_per_thread=2,
                                cs_cycles=50, parallel_cycles=150)


def run_mcs(observe=None):
    return ManyCoreSystem(flit_config(), mcs_workload(), primitive="mcs",
                          observe=observe).run(max_cycles=20_000_000)


def answer(result):
    return (result.roi_cycles, result.network_packets,
            result.extra["sim_events"])


@pytest.fixture(scope="module")
def mcs_run():
    return run_mcs()


class TestFlitLevelSystem:
    def test_full_run_completes(self, mcs_run):
        assert mcs_run.cs_completed == 16
        assert mcs_run.network_mean_latency > 0

    def test_full_system_golden(self, mcs_run):
        assert answer(mcs_run) == GOLDEN_FLIT_SYSTEM

    def test_observed_matches_unobserved(self, mcs_run):
        observe = Observation(label="flit-mcs")
        observed = run_mcs(observe=observe)
        assert observe.attached
        assert answer(observed) == answer(mcs_run)

    def test_matches_packet_model_order_of_magnitude(self, mcs_run):
        wl = mcs_workload()
        flit = mcs_run
        packet_cfg = SystemConfig(
            noc=NocConfig(width=4, height=4), num_threads=16
        )
        packet = ManyCoreSystem(packet_cfg, wl, primitive="mcs").run(
            max_cycles=20_000_000
        )
        ratio = flit.roi_cycles / packet.roi_cycles
        assert 0.3 < ratio < 3.0, (flit.roi_cycles, packet.roi_cycles)

    def test_inpg_rejected_on_flit_fabric(self):
        cfg = flit_config().with_mechanism("inpg")
        wl = single_lock_workload(8, home_node=5)
        with pytest.raises(ValueError):
            ManyCoreSystem(cfg, wl, primitive="mcs")

    @pytest.mark.parametrize("primitive", ["tas", "ticket", "qsl"])
    def test_other_primitives_complete(self, primitive):
        cfg = flit_config()
        wl = single_lock_workload(6, home_node=5, cs_per_thread=1,
                                  cs_cycles=40, parallel_cycles=100)
        result = ManyCoreSystem(cfg, wl, primitive=primitive).run(
            max_cycles=20_000_000
        )
        assert result.cs_completed == 6
