"""Unit tests for SimConfig (Table 2 defaults and design selection)."""

import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.htm.design import DESIGN_REGISTRY, LEGACY_LETTER_DESIGNS
from repro.sim.config import (
    HtmPolicy,
    ORACLE_MODES,
    SimConfig,
    resolve_oracle_mode,
)


class TestTable2Defaults:
    def test_core_count(self):
        assert SimConfig().num_cores == 32

    def test_cache_sizes(self):
        config = SimConfig()
        assert config.l1_size == 48 * 1024 and config.l1_assoc == 12
        assert config.l2_size == 512 * 1024 and config.l2_assoc == 8
        assert config.l3_size == 4 * 1024 * 1024 and config.l3_assoc == 16

    def test_latencies(self):
        config = SimConfig()
        assert (config.l1_latency, config.l2_latency) == (1, 10)
        assert (config.l3_latency, config.mem_latency) == (45, 80)

    def test_speculative_window(self):
        config = SimConfig()
        assert config.rob_entries == 352
        assert config.lq_entries == 128
        assert config.sq_entries == 72

    def test_clear_table_sizes(self):
        config = SimConfig()
        assert config.ert_entries == 16
        assert config.alt_entries == 32
        assert config.crt_entries == 64
        assert config.crt_assoc == 8


class TestDesignSelection:
    @pytest.mark.parametrize(
        "design, letter, powertm, clear",
        [
            ("baseline", "B", False, False),
            ("powertm", "P", True, False),
            ("clear", "C", False, True),
            ("clear+powertm", "W", True, True),
        ],
    )
    def test_design_round_trip(self, design, letter, powertm, clear):
        config = SimConfig.for_design(design)
        assert config.design == design
        assert config.powertm == powertm
        assert config.clear == clear
        assert config.config_letter == letter

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(design="nonesuch")
        with pytest.raises(ConfigurationError):
            SimConfig.for_design("nonesuch")

    def test_new_designs_registered(self):
        assert "lrw" in DESIGN_REGISTRY
        assert "bigatomics" in DESIGN_REGISTRY
        assert SimConfig.for_design("lrw").design == "lrw"

    def test_new_design_letter_falls_back_to_name(self):
        assert SimConfig.for_design("lrw").config_letter == "lrw"
        assert SimConfig.for_design("bigatomics").config_letter == "bigatomics"

    def test_htm_policy(self):
        assert SimConfig.for_design("powertm").htm_policy is HtmPolicy.POWER_TM
        assert SimConfig().htm_policy is HtmPolicy.REQUESTER_WINS

    def test_design_knob_validation(self):
        for knob in ("lrw_read_lines", "lrw_write_lines",
                     "bigatomics_lines", "bigatomics_commit_cycles"):
            with pytest.raises(ConfigurationError):
                SimConfig(**{knob: 0})


class TestLegacyLetterShim:
    @pytest.mark.parametrize("letter", sorted(LEGACY_LETTER_DESIGNS))
    def test_for_letter_warns_and_maps(self, letter):
        with pytest.deprecated_call():
            config = SimConfig.for_letter(letter)
        assert config.design == LEGACY_LETTER_DESIGNS[letter]
        assert config.config_letter == letter
        assert config == SimConfig.for_design(LEGACY_LETTER_DESIGNS[letter])

    def test_unknown_letter_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig.for_letter("X")


class TestLegacyBooleanShim:
    @pytest.mark.parametrize(
        "flags, design",
        [
            (dict(powertm=False, clear=False), "baseline"),
            (dict(powertm=True), "powertm"),
            (dict(clear=True), "clear"),
            (dict(powertm=True, clear=True), "clear+powertm"),
        ],
    )
    def test_constructor_flags_warn_and_normalize(self, flags, design):
        with pytest.deprecated_call():
            config = SimConfig(num_cores=4, **flags)
        assert config.design == design
        assert config == SimConfig.for_design(design, num_cores=4)
        assert config.fingerprint() == SimConfig.for_design(
            design, num_cores=4
        ).fingerprint()

    def test_conflicting_design_and_flags_rejected(self):
        with pytest.raises(ConfigurationError), pytest.deprecated_call():
            SimConfig(design="baseline", clear=True)

    def test_consistent_design_and_flags_accepted(self):
        with pytest.deprecated_call():
            config = SimConfig(design="clear", clear=True)
        assert config.design == "clear"

    def test_reading_properties_does_not_warn(self):
        config = SimConfig.for_design("clear+powertm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.powertm and config.clear


class TestOracleModes:
    def test_modes_accepted(self):
        for mode in ORACLE_MODES:
            config = SimConfig(oracle=mode)
            assert config.oracle == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="oracle"):
            SimConfig(oracle="sometimes")

    def test_mode_properties(self):
        expectations = {
            "off": (False, False, False),
            "shadow": (True, True, False),
            "online": (True, False, True),
            "cross-check": (True, True, True),
        }
        for mode, (armed, shadow, online) in expectations.items():
            config = SimConfig(oracle=mode)
            assert config.oracle_armed is armed
            assert config.shadow_oracle is shadow
            assert config.online_monitor is online

    @pytest.mark.parametrize("legacy, mode", [(True, "shadow"), (False, "off")])
    def test_boolean_kwarg_warns_and_normalizes(self, legacy, mode):
        with pytest.deprecated_call():
            config = SimConfig(oracle=legacy)
        assert config.oracle == mode
        assert config == SimConfig(oracle=mode)
        assert config.fingerprint() == SimConfig(oracle=mode).fingerprint()

    @pytest.mark.parametrize("legacy, mode", [(True, "shadow"), (False, "off")])
    def test_boolean_payloads_migrate_silently(self, legacy, mode):
        data = SimConfig(oracle=mode).to_dict()
        data["oracle"] = legacy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            migrated = SimConfig.from_dict(data)
        assert migrated.oracle == mode
        assert migrated.fingerprint() == SimConfig(oracle=mode).fingerprint()

    def test_resolve_oracle_mode(self):
        assert resolve_oracle_mode(None) is None
        assert resolve_oracle_mode("online") == "online"
        with pytest.deprecated_call():
            assert resolve_oracle_mode(True) == "shadow"
        with pytest.deprecated_call():
            assert resolve_oracle_mode(False) == "off"
        with pytest.raises(ConfigurationError):
            resolve_oracle_mode("bogus")

    def test_reading_mode_properties_does_not_warn(self):
        config = SimConfig(oracle="cross-check")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.oracle_armed


class TestValidation:
    def test_rejects_no_cores(self):
        with pytest.raises(ConfigurationError):
            SimConfig(num_cores=0)

    def test_rejects_zero_retries(self):
        with pytest.raises(ConfigurationError):
            SimConfig(retry_threshold=0)

    def test_rejects_empty_tables(self):
        with pytest.raises(ConfigurationError):
            SimConfig(alt_entries=0)


class TestReplaced:
    def test_override_applied(self):
        config = SimConfig().replaced(retry_threshold=7)
        assert config.retry_threshold == 7

    def test_other_fields_preserved(self):
        config = SimConfig.for_design("clear", num_cores=8).replaced(
            retry_threshold=7
        )
        assert config.num_cores == 8
        assert config.clear

    def test_replaced_keeps_design(self):
        config = SimConfig.for_design("lrw").replaced(num_cores=2)
        assert config.design == "lrw"

    def test_legacy_flag_override_warns_and_layers(self):
        base = SimConfig.for_design("powertm")
        with pytest.deprecated_call():
            config = base.replaced(clear=True)
        assert config.design == "clear+powertm"
        with pytest.deprecated_call():
            config = base.replaced(powertm=False)
        assert config.design == "baseline"

    def test_original_unchanged(self):
        original = SimConfig()
        original.replaced(num_cores=2)
        assert original.num_cores == 32


class TestDictMigration:
    def test_round_trip_serializes_design(self):
        config = SimConfig.for_design("lrw", num_cores=4)
        data = config.to_dict()
        assert data["design"] == "lrw"
        assert "powertm" not in data and "clear" not in data
        assert SimConfig.from_dict(data) == config

    @pytest.mark.parametrize(
        "powertm, clear, design",
        [
            (False, False, "baseline"),
            (True, False, "powertm"),
            (False, True, "clear"),
            (True, True, "clear+powertm"),
        ],
    )
    def test_legacy_boolean_payloads_migrate_silently(self, powertm, clear,
                                                      design):
        data = SimConfig.for_design(design, num_cores=4).to_dict()
        del data["design"]
        data["powertm"] = powertm
        data["clear"] = clear
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            migrated = SimConfig.from_dict(data)
        assert migrated.design == design
        assert migrated.fingerprint() == SimConfig.for_design(
            design, num_cores=4
        ).fingerprint()

    def test_conflicting_legacy_keys_rejected(self):
        data = SimConfig.for_design("baseline").to_dict()
        data["clear"] = True
        with pytest.raises(ConfigurationError):
            SimConfig.from_dict(data)

    def test_unknown_keys_rejected(self):
        data = SimConfig().to_dict()
        data["mystery"] = 1
        with pytest.raises(ConfigurationError):
            SimConfig.from_dict(data)

    @pytest.mark.parametrize("backend", ["reference", "batch"])
    def test_legacy_backend_key_dropped(self, backend):
        # v4 payloads named one of two bit-identical event loops; one
        # loop remains, so either value maps to the same config.
        config = SimConfig.for_design("clear", num_cores=4)
        data = config.to_dict()
        assert "backend" not in data
        data["backend"] = backend
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            migrated = SimConfig.from_dict(data)
        assert migrated == config
        assert migrated.fingerprint() == config.fingerprint()
