"""Unit tests for repro.gpusim.config."""

import dataclasses
import math

import pytest

from repro.errors import ConfigError
from repro.gpusim import config as config_module
from repro.gpusim.config import (
    FERMI_C2050,
    KEPLER_K20,
    KEPLER_K40,
    PRESETS,
    DeviceConfig,
    preset,
    supports_dynamic_parallelism,
)


def _bad_device_values():
    """``(field, value)`` for every numeric field and each value it must
    refuse: below its floor, fractional (integer fields), NaN, inf, a
    bool and a string."""
    cases = []
    for name, floor in config_module._COUNT_FLOORS.items():
        for value in (floor - 1, 2.5, math.nan, math.inf, True, "1"):
            cases.append((name, value))
    for name, zero_ok in config_module._REAL_ZERO_OK.items():
        for value in (-1.0 if zero_ok else 0.0, math.nan, math.inf, True, "1"):
            cases.append((name, value))
    return cases


_NUMERIC = {f.name for f in dataclasses.fields(DeviceConfig)} - {
    "name", "compute_capability"}


class TestPresets:
    def test_k20_matches_paper_hardware(self):
        assert KEPLER_K20.sm_count == 13
        assert KEPLER_K20.cores_per_sm == 192
        assert KEPLER_K20.warp_size == 32
        assert KEPLER_K20.compute_capability == (3, 5)

    def test_preset_lookup(self):
        assert preset("k20") is KEPLER_K20
        assert preset("K40") is KEPLER_K40
        assert preset("c2050") is FERMI_C2050

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigError, match="unknown device preset"):
            preset("h100")

    def test_dynamic_parallelism_support(self):
        assert supports_dynamic_parallelism(KEPLER_K20)
        assert supports_dynamic_parallelism(KEPLER_K40)
        assert not supports_dynamic_parallelism(FERMI_C2050)


class TestValidation:
    def test_rejects_nonpositive_sm_count(self):
        with pytest.raises(ConfigError, match="sm_count"):
            DeviceConfig(sm_count=0)

    def test_rejects_non_power_of_two_warp(self):
        with pytest.raises(ConfigError, match="power of two"):
            DeviceConfig(warp_size=24)

    def test_rejects_block_larger_than_sm(self):
        with pytest.raises(ConfigError):
            DeviceConfig(max_threads_per_block=4096, max_threads_per_sm=2048)

    def test_rejects_smem_block_exceeding_sm(self):
        with pytest.raises(ConfigError, match="shared_mem_per_block"):
            DeviceConfig(shared_mem_per_block=98304)

    def test_every_numeric_field_is_checked(self):
        assert set(config_module._COUNT_FLOORS) | set(
            config_module._REAL_ZERO_OK) == _NUMERIC

    @pytest.mark.parametrize("field,value", _bad_device_values())
    @pytest.mark.parametrize("make", ["construct", "replace"])
    def test_malformed_number_fails_fast(self, make, field, value):
        build = DeviceConfig if make == "construct" else KEPLER_K20.replace
        with pytest.raises(ConfigError, match=rf"DeviceConfig\.{field} "):
            build(**{field: value})

    def test_presets_and_repo_configs_construct(self):
        for cfg in PRESETS.values():
            assert DeviceConfig(**{f.name: getattr(cfg, f.name)
                                   for f in dataclasses.fields(cfg)}) == cfg
        # the configs the repo derives: ablation sweeps and test devices
        for changes in ({"device_launch_throughput_per_us": 0.1},
                        {"memory_parallelism_per_warp": 1000.0},
                        {"max_concurrent_kernels": 1},
                        {"pending_launch_limit": 16},
                        {"max_launch_depth": 1},
                        {"host_launch_overhead_us": 0.0},
                        {"device_launch_latency_us": 0}):
            KEPLER_K20.replace(**changes)


class TestConversions:
    def test_cycle_roundtrip(self):
        cfg = KEPLER_K20
        assert cfg.ms_to_cycles(cfg.cycles_to_ms(1e6)) == pytest.approx(1e6)

    def test_us_to_cycles(self):
        cfg = DeviceConfig(clock_ghz=1.0)
        assert cfg.us_to_cycles(1.0) == pytest.approx(1000.0)

    def test_one_ms_at_k20_clock(self):
        assert KEPLER_K20.cycles_to_ms(0.706e9) == pytest.approx(1000.0)

    def test_warp_throughput(self):
        assert KEPLER_K20.warp_throughput_per_cycle == pytest.approx(6.0)

    def test_total_cores(self):
        assert KEPLER_K20.total_cores == 13 * 192


class TestReplace:
    def test_replace_returns_new_config(self):
        cfg = KEPLER_K20.replace(sm_count=15)
        assert cfg.sm_count == 15
        assert KEPLER_K20.sm_count == 13

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            KEPLER_K20.replace(warp_size=-1)

    def test_describe_mentions_name(self):
        assert "K20" in KEPLER_K20.describe()
