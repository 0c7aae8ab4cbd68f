"""Unit tests for SystemConfig, mechanism selection, the generic
``with_overrides`` builder, and the simulation-axis vocabulary."""

import pytest

from repro.config import (
    ARBITERS,
    MECHANISMS,
    PLACEMENTS,
    PROTOCOL_NAMES,
    TOPOLOGIES,
    InpgConfig,
    NocConfig,
    SystemConfig,
    check_network_model,
    config_from_dict,
    config_to_dict,
    describe_axes,
)


class TestDefaults:
    def test_table1_defaults(self):
        cfg = SystemConfig()
        assert cfg.num_threads == 64
        assert cfg.noc.width == cfg.noc.height == 8
        assert cfg.noc.router_pipeline_cycles == 2
        assert cfg.noc.data_packet_flits == 8
        assert cfg.noc.ctrl_packet_flits == 1
        assert cfg.cache.block_bytes == 128
        assert cfg.cache.l1_latency == 2
        assert cfg.cache.l2_latency == 6
        assert cfg.inpg.num_big_routers == 32
        assert cfg.inpg.barrier_table_size == 16
        assert cfg.inpg.barrier_ttl == 128
        assert cfg.ocor.retry_times == 128
        assert cfg.ocor.priority_levels == 9
        assert cfg.os.qsl_spin_retries == 128

    def test_both_mechanisms_default_off(self):
        cfg = SystemConfig()
        assert not cfg.inpg.enabled
        assert not cfg.ocor.enabled


class TestMechanismSelection:
    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_roundtrip(self, mech):
        cfg = SystemConfig().with_mechanism(mech)
        assert cfg.inpg.enabled == ("inpg" in mech)
        assert cfg.ocor.enabled == ("ocor" in mech)

    def test_case_insensitive(self):
        cfg = SystemConfig().with_mechanism("iNPG+OCOR")
        assert cfg.inpg.enabled and cfg.ocor.enabled

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            SystemConfig().with_mechanism("magic")

    def test_original_config_unchanged(self):
        base = SystemConfig()
        assert base.with_mechanism("original") == base


class TestWithOverrides:
    def test_section_dict_deep_replaces(self):
        base = SystemConfig()
        derived = base.with_overrides(noc={"width": 4, "height": 4},
                                      num_threads=16)
        assert derived.noc.width == derived.noc.height == 4
        assert derived.num_threads == 16
        # untouched fields survive, and the base is never mutated
        assert derived.noc.router_pipeline_cycles == 2
        assert base.noc.width == 8 and base.num_threads == 64

    def test_section_instance_accepted(self):
        noc = NocConfig(width=2, height=2)
        assert SystemConfig().with_overrides(noc=noc).noc == noc

    def test_unknown_section_field_rejected(self):
        with pytest.raises(TypeError, match="bandwidth"):
            SystemConfig().with_overrides(noc={"bandwidth": 9})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(TypeError, match="turbo"):
            SystemConfig().with_overrides(turbo=True)

    def test_no_overrides_is_identity(self):
        base = SystemConfig()
        assert base.with_overrides() == base

    def test_with_mechanism_is_with_overrides(self):
        base = SystemConfig()
        for mech in MECHANISMS:
            flags = {"inpg": "inpg" in mech, "ocor": "ocor" in mech}
            assert base.with_mechanism(mech) == base.with_overrides(
                inpg={"enabled": flags["inpg"]},
                ocor={"enabled": flags["ocor"]},
            )

    def test_derived_config_stays_hashable(self):
        # frozen dataclasses are dict keys throughout the executor
        derived = SystemConfig().with_overrides(
            noc={"topology": "torus", "wrr_weights": [3, 1]})
        assert hash(derived) is not None
        assert derived.noc.wrr_weights == (3, 1)  # list normalized


class TestAxisVocabulary:
    def test_axis_tuples(self):
        assert TOPOLOGIES == ("mesh", "torus", "ring")
        assert ARBITERS == ("rr", "wrr")
        assert PLACEMENTS == ("spread", "center", "perimeter")
        # defaults first, by convention
        cfg = SystemConfig()
        assert cfg.noc.topology == TOPOLOGIES[0]
        assert cfg.noc.arbiter == ARBITERS[0]
        assert cfg.inpg.placement == PLACEMENTS[0]
        assert cfg.protocol == PROTOCOL_NAMES[0]

    def test_describe_axes_is_consistent(self):
        axes = describe_axes()
        # the three CLI-reachable axes; big-router placement is
        # config-only
        assert set(axes) == {"protocol", "topology", "arbiter"}
        for name, axis in axes.items():
            assert axis["default"] == axis["choices"][0], name
            section, _, field = axis["config_field"].partition(".")
            cfg = SystemConfig()
            holder = getattr(cfg, section) if field else cfg
            value = getattr(holder, field or section)
            assert value == axis["default"], name

    @pytest.mark.parametrize("field,value", [
        ("topology", "hypercube"),
        ("arbiter", "lottery"),
    ])
    def test_invalid_axis_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NocConfig(**{field: value})

    def test_removed_flit_engine_field_refused(self):
        # the deleted vector engine's axis: a payload naming it must not
        # be silently read as the event engine
        payload = config_to_dict(SystemConfig())
        payload["noc"]["flit_engine"] = "event"
        with pytest.raises(TypeError, match="flit_engine"):
            config_from_dict(payload)

    def test_invalid_wrr_weights_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(wrr_weights=())
        with pytest.raises(ValueError):
            NocConfig(wrr_weights=(1, 0))

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            InpgConfig(placement="edges")


class TestNocConfig:
    def test_node_coordinates(self):
        noc = NocConfig(width=8, height=8)
        assert noc.node_at(5, 6) == 53
        assert noc.coords(53) == (5, 6)
        assert noc.num_nodes == 64

    def test_out_of_range(self):
        noc = NocConfig(width=4, height=4)
        with pytest.raises(ValueError):
            noc.node_at(4, 0)


class TestNetworkModelCheck:
    """One check decides which configs the flit-level model refuses;
    ``ManyCoreSystem`` and ``inpg-sim`` both call it."""

    def test_packet_level_accepts_every_axis(self):
        for mechanism in MECHANISMS:
            for topology in TOPOLOGIES:
                check_network_model(SystemConfig().with_overrides(
                    noc={"topology": topology}).with_mechanism(mechanism))

    def test_flit_level_refusals(self):
        from repro.errors import UnsupportedTopology

        flit = SystemConfig().with_overrides(noc={"flit_level": True})
        check_network_model(flit)
        check_network_model(flit.with_mechanism("ocor"))
        with pytest.raises(ValueError, match="iNPG requires"):
            check_network_model(flit.with_mechanism("inpg"))
        with pytest.raises(UnsupportedTopology) as excinfo:
            check_network_model(flit.with_overrides(noc={"topology": "ring"}))
        assert excinfo.value.model == "flit/event"
        assert excinfo.value.topology == "ring"

    def test_system_refuses_before_building(self):
        from repro.errors import UnsupportedTopology
        from repro.system import ManyCoreSystem
        from repro.workloads.generator import single_lock_workload

        flit = SystemConfig().with_overrides(
            noc={"flit_level": True, "topology": "torus"})
        with pytest.raises(UnsupportedTopology):
            ManyCoreSystem(flit, single_lock_workload(4, home_node=5))
