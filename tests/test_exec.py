"""Tests for the declarative run-plan execution engine (repro.exec)."""

import json

import pytest

from repro.config import NocConfig, SystemConfig
from repro.exec import Executor, ResultCache, RunSpec
from repro.exec.cache import NullCache
from repro.faults import FaultPlan
from repro.stats.serialize import RESULT_SCHEMA_VERSION


def small_config(**kwargs) -> SystemConfig:
    return SystemConfig(noc=NocConfig(width=4, height=4), num_threads=16,
                        **kwargs)


def small_spec(**kwargs) -> RunSpec:
    defaults = dict(benchmark="vips", mechanism="original",
                    primitive="mcs", scale=0.3, config=small_config())
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert small_spec().fingerprint == small_spec().fingerprint

    def test_default_config_and_explicit_default_coincide(self):
        a = RunSpec(benchmark="vips", mechanism="inpg")
        b = RunSpec(benchmark="vips", mechanism="inpg",
                    config=SystemConfig())
        assert a.fingerprint == b.fingerprint

    def test_mechanism_resolves_into_config(self):
        # "inpg" as a mechanism string vs pre-baked config flags:
        # same effective run, same content address
        a = RunSpec(benchmark="vips", mechanism="inpg")
        b = RunSpec(benchmark="vips", mechanism=None,
                    config=SystemConfig().with_mechanism("inpg"))
        assert a.fingerprint == b.fingerprint

    @pytest.mark.parametrize("change", [
        {"benchmark": "dedup"},
        {"mechanism": "inpg"},
        {"primitive": "qsl"},
        {"scale": 0.5},
        {"seed": 7},
        {"max_cycles": 1_000_000},
        {"config": small_config(seed=99)},
    ])
    def test_each_field_changes_fingerprint(self, change):
        assert small_spec(**change).fingerprint != small_spec().fingerprint

    def test_lock_homes_is_part_of_the_key(self):
        # a sweep over lock placement must never hit a stale entry for a
        # different placement
        default = small_spec()
        pinned = small_spec(lock_homes=(5,))
        other = small_spec(lock_homes=(9,))
        prints = {default.fingerprint, pinned.fingerprint, other.fingerprint}
        assert len(prints) == 3

    def test_lock_homes_sequence_type_is_normalized(self):
        assert (small_spec(lock_homes=[5, 9]).fingerprint ==
                small_spec(lock_homes=(5, 9)).fingerprint)

    def test_microbench_defaults_resolve(self):
        implicit = RunSpec.microbench(config=small_config())
        explicit = RunSpec.microbench(
            cs_per_thread=4, cs_cycles=100, parallel_cycles=200,
            config=small_config(),
        )
        assert implicit.fingerprint == explicit.fingerprint
        varied = RunSpec.microbench(cs_cycles=60, config=small_config())
        assert varied.fingerprint != implicit.fingerprint


class TestAxisFingerprints:
    """Every simulation axis follows one fingerprint convention: the
    default value is elided (legacy cache keys stay valid), every
    non-default value addresses itself."""

    BASELINE = RunSpec(benchmark="vips", mechanism="original")

    # (RunSpec field, default value, each non-default value)
    SPEC_AXES = [
        ("protocol", "moesi", ("msi", "mesi")),
        ("topology", "mesh", ("torus", "ring")),
        ("arbiter", "rr", ("wrr",)),
    ]

    @pytest.mark.parametrize("field,default,_", SPEC_AXES,
                             ids=lambda v: str(v))
    def test_explicit_default_never_changes_fingerprint(
            self, field, default, _):
        spec = RunSpec(benchmark="vips", mechanism="original",
                       **{field: default})
        assert spec.fingerprint == self.BASELINE.fingerprint

    @pytest.mark.parametrize("field,default,values", SPEC_AXES,
                             ids=lambda v: str(v))
    def test_each_non_default_value_addresses_itself(
            self, field, default, values):
        prints = {self.BASELINE.fingerprint}
        for value in values:
            spec = RunSpec(benchmark="vips", mechanism="original",
                           **{field: value})
            prints.add(spec.fingerprint)
            assert f"{field}={value}" in spec.label()
        assert len(prints) == 1 + len(values)

    def test_placement_axis_same_convention(self):
        inpg = RunSpec(benchmark="vips", mechanism="inpg")
        spread = RunSpec(
            benchmark="vips", mechanism="inpg",
            config=SystemConfig().with_overrides(
                inpg={"enabled": True, "placement": "spread"}))
        center = RunSpec(
            benchmark="vips", mechanism="inpg",
            config=SystemConfig().with_overrides(
                inpg={"enabled": True, "placement": "center"}))
        assert spread.fingerprint == inpg.fingerprint
        assert center.fingerprint != inpg.fingerprint

    def test_wrr_weights_inert_under_default_arbiter(self):
        # weights only matter once the WRR arbiter reads them
        weighted = RunSpec(
            benchmark="vips", mechanism="original",
            config=SystemConfig().with_overrides(
                noc={"wrr_weights": (7, 3)}))
        assert weighted.fingerprint == self.BASELINE.fingerprint
        wrr_a = RunSpec(benchmark="vips", mechanism="original",
                        arbiter="wrr")
        wrr_b = RunSpec(
            benchmark="vips", mechanism="original", arbiter="wrr",
            config=SystemConfig().with_overrides(
                noc={"wrr_weights": (7, 3)}))
        assert wrr_b.fingerprint != wrr_a.fingerprint

    def test_legacy_payload_shape_is_stable(self):
        """The canonical payload of a default spec carries none of the
        axis keys — byte-for-byte the pre-axis cache address."""
        payload = self.BASELINE.canonical_payload()
        noc = payload["config"]["noc"]
        for key in ("topology", "arbiter", "wrr_weights"):
            assert key not in noc, key
        assert "placement" not in payload["config"]["inpg"]
        assert "protocol" not in payload["config"]

    def test_axis_specs_roundtrip_to_dict(self):
        spec = RunSpec(benchmark="vips", mechanism="original",
                       topology="torus", arbiter="wrr")
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint == spec.fingerprint


class TestPinnedCacheAddresses:
    """Exact cache addresses and labels for one spec per axis value.

    ``TestAxisFingerprints`` only checks that fingerprints differ; these
    pins catch a refactor of the canonical payload that would move every
    cache entry (and so cold-start every deployed cache) while keeping
    the values distinct."""

    WRR_31 = SystemConfig().with_overrides(noc={"wrr_weights": (3, 1)})
    FLIT = SystemConfig().with_overrides(noc={"flit_level": True})

    # (spec, fingerprint, label)
    PINS = [
        (RunSpec(benchmark="vips", mechanism="original"),
         "fc4bafd07b849d231860f740b388bcab6aa551eee63ea3c1ec44e8130763f9aa",
         "vips[original/qsl scale=1.0 seed=2018]"),
        (RunSpec(benchmark="vips", mechanism="original", protocol="msi"),
         "97c087be56eeb66f15981074979a63ae8e199b48bab8356c08d880b45253971d",
         "vips[original/qsl scale=1.0 seed=2018 protocol=msi]"),
        (RunSpec(benchmark="vips", mechanism="original", protocol="mesi"),
         "03d1b152250f2f12c3a2b20426c8cfd75d80a52d7f3cf38686a9a8b6293660e5",
         "vips[original/qsl scale=1.0 seed=2018 protocol=mesi]"),
        (RunSpec(benchmark="vips", mechanism="original", topology="torus"),
         "22b824baee21f03256df255cf599074feffbbc468754b25d055cfbbd56282770",
         "vips[original/qsl scale=1.0 seed=2018 topology=torus]"),
        (RunSpec(benchmark="vips", mechanism="original", topology="ring"),
         "a306bb1b9d9c658fe892b42850a5489563ad2cdc6149568b1db14ea9272d66a0",
         "vips[original/qsl scale=1.0 seed=2018 topology=ring]"),
        (RunSpec(benchmark="vips", mechanism="original", arbiter="wrr"),
         "11d251e324c577d807e42afe12e6b0ead74b2518594e0ca8f69cf53072e98d89",
         "vips[original/qsl scale=1.0 seed=2018 arbiter=wrr]"),
        (RunSpec(benchmark="vips", mechanism="original", arbiter="wrr",
                 config=WRR_31),
         "75a0b1d6e15fe24863ca8642646634179e5a9ab7612ce7150657e8cad824ead4",
         "vips[original/qsl scale=1.0 seed=2018 arbiter=wrr]"),
        (RunSpec(benchmark="vips", mechanism="inpg",
                 config=SystemConfig().with_overrides(
                     inpg={"placement": "center"})),
         "9cd1841f2a383308d85a4c57ae1362a3add5a1935bd14817bddc0cdb431e07f2",
         "vips[inpg/qsl scale=1.0 seed=2018]"),
        (RunSpec(benchmark="vips", mechanism="inpg",
                 config=SystemConfig().with_overrides(
                     inpg={"placement": "perimeter"})),
         "88dcd5a5ce0915eb3e44bfdad92f3962cd44a52503d32e3985b4e4a9593d1be9",
         "vips[inpg/qsl scale=1.0 seed=2018]"),
        (RunSpec(benchmark="vips", mechanism="original", config=FLIT),
         "7d28878a960c4b1d5912a69ace98f66241a8bf7614b421faa992dfcbc0f66da8",
         "vips[original/qsl scale=1.0 seed=2018]"),
        (RunSpec.microbench(home_node=27, mechanism="inpg", primitive="tas"),
         "ff89b274fffc46a980d3910768f3ab4dbe53dda5102a7ecae94c86815299aaea",
         "microbench[inpg/tas scale=1.0 seed=2018]"),
        (RunSpec(benchmark="vips", mechanism="original",
                 fault_plan=FaultPlan.parse("drop:0.01", seed=3)),
         "0253da080367828aae3cf4dd7bc63680f6561f00e6176cc0773bbefc20328291",
         "vips[original/qsl scale=1.0 seed=2018 faults=drop:0.01]"),
    ]

    IDS = ["default", "msi", "mesi", "torus", "ring", "wrr", "wrr-3-1",
           "center", "perimeter", "flit", "microbench", "faults"]

    @pytest.mark.parametrize("spec,fingerprint,label", PINS, ids=IDS)
    def test_fingerprint_and_label_pinned(self, spec, fingerprint, label):
        assert spec.fingerprint == fingerprint
        assert spec.label() == label


class TestExecutor:
    def test_plan_dedups_identical_specs(self, tmp_path):
        ex = Executor(jobs=1, cache_dir=tmp_path)
        results = ex.run([small_spec(), small_spec()])
        assert ex.stats.executed == 1
        assert ex.stats.memory_hits == 1
        assert len(results) == 1  # same spec, one mapping entry

    def test_memory_hits_across_plans(self, tmp_path):
        ex = Executor(jobs=1, cache_dir=tmp_path)
        first = ex.run_one(small_spec())
        second = ex.run_one(small_spec())
        assert second is first
        assert ex.stats.executed == 1
        assert ex.stats.memory_hits == 1

    def test_disk_cache_survives_executor_instances(self, tmp_path):
        spec = small_spec()
        ex1 = Executor(jobs=1, cache_dir=tmp_path)
        r1 = ex1.run_one(spec)
        assert ex1.stats.executed == 1
        # fresh executor, same directory: zero simulations executed
        ex2 = Executor(jobs=1, cache_dir=tmp_path)
        r2 = ex2.run_one(spec)
        assert ex2.stats.executed == 0
        assert ex2.stats.disk_hits == 1
        assert r2.roi_cycles == r1.roi_cycles
        assert r2.summary() == r1.summary()
        assert r2.timeline.intervals == r1.timeline.intervals

    def test_clear_memory_keeps_disk(self, tmp_path):
        spec = small_spec()
        ex = Executor(jobs=1, cache_dir=tmp_path)
        ex.run_one(spec)
        ex.clear_memory()
        ex.run_one(spec)
        assert ex.stats.executed == 1
        assert ex.stats.disk_hits == 1

    def test_no_cache_writes_nothing(self, tmp_path):
        ex = Executor(jobs=1, use_cache=False)
        assert isinstance(ex.cache, NullCache)
        ex.run_one(small_spec())
        assert ex.stats.executed == 1
        assert list(tmp_path.iterdir()) == []

    def test_stats_record_observability(self, tmp_path):
        ex = Executor(jobs=1, cache_dir=tmp_path)
        result = ex.run_one(small_spec())
        [record] = ex.stats.records
        assert record.sim_cycles == result.roi_cycles
        assert record.sim_events > 0
        assert record.wall_time > 0
        footer = ex.stats.render_footer(jobs=1, cache_dir=str(tmp_path))
        assert "executed: 1" in footer
        assert "hit rate: 0.0%" in footer


class TestDiskCacheInvalidation:
    def test_schema_bump_invalidates_entry(self, tmp_path):
        spec = small_spec()
        ex1 = Executor(jobs=1, cache_dir=tmp_path)
        r1 = ex1.run_one(spec)
        # simulate an entry written by an older serialization schema
        [entry_path] = tmp_path.glob("*.json")
        entry = json.loads(entry_path.read_text())
        assert entry["schema"] == RESULT_SCHEMA_VERSION
        entry["schema"] = RESULT_SCHEMA_VERSION - 1
        entry_path.write_text(json.dumps(entry))
        ex2 = Executor(jobs=1, cache_dir=tmp_path)
        r2 = ex2.run_one(spec)
        # the stale entry was ignored (not mis-read): a real re-run
        assert ex2.stats.disk_hits == 0
        assert ex2.stats.executed == 1
        assert r2.roi_cycles == r1.roi_cycles
        # and the fresh run healed the entry back to the current schema
        entry = json.loads(entry_path.read_text())
        assert entry["schema"] == RESULT_SCHEMA_VERSION

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = small_spec()
        Executor(jobs=1, cache_dir=tmp_path).run_one(spec)
        [entry_path] = tmp_path.glob("*.json")
        entry_path.write_text("{not json")
        ex = Executor(jobs=1, cache_dir=tmp_path)
        ex.run_one(spec)
        assert ex.stats.executed == 1

    def test_cache_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        Executor(jobs=1, cache=cache).run_one(small_spec())
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestCommonIntegration:
    def test_cached_run_includes_lock_homes(self, tmp_path):
        # lock placement threads all the way through the generator call
        from repro.experiments.common import cached_run, set_executor

        set_executor(Executor(jobs=1, cache_dir=tmp_path))
        try:
            pinned = cached_run("vips", "original", primitive="mcs",
                                scale=0.3, config=small_config(),
                                lock_homes=(3,))
            default = cached_run("vips", "original", primitive="mcs",
                                 scale=0.3, config=small_config())
            # both simulated: different placements are different runs
            from repro.experiments.common import get_executor

            assert get_executor().stats.executed == 2
            assert pinned is not default
        finally:
            set_executor(Executor())
