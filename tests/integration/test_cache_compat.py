"""Cache compatibility across the v1 -> v2 result-schema bump.

SCHEMA_VERSION participates in both the cache key and the stored
payload, so entries written by an older build must silently miss (never
deserialize into the new shape), while same-version entries round-trip
exactly — traces included — and legacy v1 result dicts (no ``trace``
slot, no ``metrics`` section) still deserialize for consumers holding
old JSON files.
"""

import json

import pytest

from repro.sim import engine as engine_mod
from repro.sim.config import SimConfig
from repro.sim.engine import SCHEMA_VERSION, ExperimentEngine, RunSpec
from repro.sim.runner import RunResult


def make_spec(trace=False):
    return RunSpec(
        workload="arrayswap",
        config=SimConfig.for_design("baseline", num_cores=4),
        seed=1, ops_per_thread=4, trace=trace,
    )


class TestCacheRoundTrip:
    def test_same_version_hits(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        first = engine.run_specs_report([make_spec()])
        assert first.cache_hits == 0
        second = engine.run_specs_report([make_spec()])
        assert second.cache_hits == 1
        assert second.results[0].to_dict() == first.results[0].to_dict()

    def test_trace_survives_the_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        first = engine.run_specs([make_spec(trace=True)])[0]
        second_report = engine.run_specs_report([make_spec(trace=True)])
        second = second_report.results[0]
        assert second_report.cache_hits == 1
        assert second.trace is not None
        assert second.trace.to_dicts() == first.trace.to_dicts()

    def test_traced_and_untraced_key_separately(self, tmp_path):
        assert make_spec(trace=False).cache_key() \
            != make_spec(trace=True).cache_key()
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_specs([make_spec(trace=False)])
        report = engine.run_specs_report([make_spec(trace=True)])
        assert report.cache_hits == 0  # the untraced entry must not serve
        assert report.results[0].trace is not None


class TestSchemaBump:
    def test_key_depends_on_schema_version(self, monkeypatch):
        key_now = make_spec().cache_key()
        monkeypatch.setattr(engine_mod, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        assert make_spec().cache_key() != key_now

    def test_old_schema_entries_miss(self, tmp_path, monkeypatch):
        # Populate the cache as the previous schema version would have.
        monkeypatch.setattr(engine_mod, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        old_engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        old_engine.run_specs([make_spec()])
        monkeypatch.undo()
        # A current-version engine must recompute, not deserialize v1.
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        report = engine.run_specs_report([make_spec()])
        assert report.cache_hits == 0
        assert report.results[0] is not None

    def test_backend_removal_bumped_the_schema(self):
        # Dropping SimConfig.backend changed every config fingerprint;
        # the v5 bump keeps v4 entries from ever mixing with new ones.
        assert SCHEMA_VERSION >= 5

    def test_v4_result_dict_with_backend_deserializes(self):
        data = make_run_result_dict()
        data["config"]["backend"] = "batch"
        result = RunResult.from_dict(data)
        assert result.config == SimConfig.for_design("baseline", num_cores=4)
        assert result.stats.total_commits > 0

    def test_stored_payload_stamped_with_version(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_specs([make_spec()])
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        payload = json.loads(entries[0].read_text())
        assert payload["schema_version"] == SCHEMA_VERSION


class TestLegacyResultDicts:
    """v1 JSON (pre-trace, pre-metrics) must still deserialize."""

    def test_run_result_without_trace_slot(self):
        data = make_run_result_dict()
        data.pop("trace", None)
        result = RunResult.from_dict(data)
        assert result.trace is None
        assert result.workload_name == "arrayswap"

    def test_stats_without_metrics_section(self):
        data = make_run_result_dict()
        assert "metrics" in data["stats"]
        data["stats"].pop("metrics")
        result = RunResult.from_dict(data)
        assert result.stats.total_commits > 0

    def test_current_dicts_carry_both_new_sections(self):
        data = make_run_result_dict(trace=True)
        assert data["trace"] is not None
        assert "metrics" in data["stats"]


class TestDesignFingerprintMigration:
    """v2 configs spelled powertm/clear booleans; v3 spells ``design``.

    A cached payload written with the boolean flags must deserialize to
    the same normalized fingerprint as its modern spelling, so RunSpec
    cache keys stay stable for the four legacy modes (no spurious
    cold-cache re-runs beyond the deliberate schema bump).
    """

    LEGACY = [
        (False, False, "baseline"),
        (True, False, "powertm"),
        (False, True, "clear"),
        (True, True, "clear+powertm"),
    ]

    def v2_config_dict(self, powertm, clear, design):
        """A config dict as a v2 build would have written it."""
        data = SimConfig.for_design(design, num_cores=4).to_dict()
        del data["design"]
        # v2 had no per-design knobs either; their defaults must not
        # perturb the fingerprint of a migrated payload.
        for knob in ("lrw_read_lines", "lrw_write_lines",
                     "bigatomics_lines", "bigatomics_commit_cycles"):
            del data[knob]
        data["powertm"] = powertm
        data["clear"] = clear
        return data

    @pytest.mark.parametrize("powertm, clear, design", LEGACY)
    def test_boolean_payload_fingerprint_matches(self, powertm, clear, design):
        migrated = SimConfig.from_dict(self.v2_config_dict(
            powertm, clear, design
        ))
        modern = SimConfig.for_design(design, num_cores=4)
        assert migrated == modern
        assert migrated.fingerprint() == modern.fingerprint()

    @pytest.mark.parametrize("powertm, clear, design", LEGACY)
    def test_cache_key_stable_across_spellings(self, powertm, clear, design):
        migrated_spec = RunSpec(
            workload="arrayswap",
            config=SimConfig.from_dict(self.v2_config_dict(
                powertm, clear, design
            )),
            seed=1, ops_per_thread=4,
        )
        modern_spec = RunSpec(
            workload="arrayswap",
            config=SimConfig.for_design(design, num_cores=4),
            seed=1, ops_per_thread=4,
        )
        assert migrated_spec.cache_key() == modern_spec.cache_key()

    def test_migrated_payload_hits_modern_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_specs([make_spec()])
        migrated = RunSpec(
            workload="arrayswap",
            config=SimConfig.from_dict(self.v2_config_dict(
                False, False, "baseline"
            )),
            seed=1, ops_per_thread=4,
        )
        report = engine.run_specs_report([migrated])
        assert report.cache_hits == 1


def make_run_result_dict(trace=False):
    from repro.sim.runner import _simulate_one
    from repro.obs.trace import EventTrace
    from repro.workloads import make_workload

    result = _simulate_one(
        lambda: make_workload("arrayswap", ops_per_thread=4),
        SimConfig.for_design("baseline", num_cores=4), seed=1,
        trace=EventTrace() if trace else None,
    )
    return result.to_dict()
