"""Integration tests for the online serializability monitor.

The monitor (``oracle="online"``) must stay silent on correct
executions, change no simulated results, and catch the same
planted violations the shadow oracle catches — plus commit-time stale
reads from a broken arbiter, which it flags *at the violating commit*
rather than at end of run. ``oracle="cross-check"`` runs both checkers
and must agree with itself on every run.
"""

import pytest

from repro.common.errors import OracleDivergence, OracleViolation
from repro.htm.arbiter import NO_CONFLICT
from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import ALL_NAMES, make_workload


def monitor_config(design="clear", **overrides):
    overrides.setdefault("oracle", "online")
    overrides.setdefault("num_cores", 4)
    return SimConfig.for_design(design, **overrides)


def drop_all_conflicts(machine):
    """Planted arbiter bug: every conflict resolution is silently lost.

    Overlapping ARs stop aborting each other, so stale reads commit;
    the monitor must flag the first such commit.
    """
    machine.resolve_conflict = lambda *args, **kwargs: NO_CONFLICT


class TestMonitorPasses:
    @pytest.mark.parametrize("workload", ["hashmap", "bst", "labyrinth", "mwobject"])
    @pytest.mark.parametrize("design", ["baseline", "clear"])
    def test_silent_on_correct_runs(self, workload, design):
        machine = Machine(
            monitor_config(design),
            make_workload(workload, ops_per_thread=6),
            seed=2,
        )
        stats = machine.run()  # finalize() runs inside; no raise = pass
        assert stats.total_commits > 0
        assert len(machine.monitor.commits) == stats.total_commits

    def test_monitor_actually_checks_reads(self):
        machine = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=6), seed=2
        )
        machine.run()
        assert machine.monitor.reads_checked > 0

    @pytest.mark.parametrize("design", sorted(DESIGN_REGISTRY))
    def test_silent_across_designs(self, design):
        machine = Machine(
            monitor_config(design),
            make_workload("mwobject", ops_per_thread=6),
            seed=1,
        )
        assert machine.run().total_commits > 0

    def test_monitored_run_matches_plain_run(self):
        plain = Machine(
            SimConfig.for_design("clear", num_cores=4),
            make_workload("hashmap", ops_per_thread=6), seed=5,
        ).run()
        watched = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=6), seed=5
        ).run()
        assert plain.to_dict() == watched.to_dict()

    def test_fallback_heavy_run_checked(self):
        # retry_threshold=1 routes contended regions to the serial
        # fallback constantly, exercising the eager fallback hooks.
        machine = Machine(
            monitor_config(retry_threshold=1),
            make_workload("mwobject", ops_per_thread=8),
            seed=1,
        )
        stats = machine.run()
        assert stats.total_commits > 0


class TestMonitorCatches:
    def test_out_of_band_tampering(self):
        machine = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=5), seed=3
        )
        machine.memory.store(10_000_000, 42)
        with pytest.raises(OracleViolation) as excinfo:
            machine.run()
        details = excinfo.value.details
        assert any(diff["addr"] == 10_000_000 for diff in details["diffs"])

    def test_leaked_cacheline_lock(self):
        machine = Machine(
            monitor_config(), make_workload("mwobject", ops_per_thread=3), seed=1
        )
        machine.memsys.locks.try_lock(99, 123_456)
        with pytest.raises(OracleViolation, match="lock-table leak"):
            machine.run()

    def test_leaked_power_token(self):
        machine = Machine(
            monitor_config(), make_workload("mwobject", ops_per_thread=3), seed=1
        )
        machine.power.try_acquire(99)
        with pytest.raises(OracleViolation, match="power-token leak"):
            machine.run()

    def test_leaked_fallback_reader(self):
        machine = Machine(
            monitor_config(), make_workload("mwobject", ops_per_thread=3), seed=1
        )
        machine.fallback.try_acquire_read(99)
        with pytest.raises(OracleViolation, match="fallback-lock leak"):
            machine.run()

    @pytest.mark.parametrize("workload,seed", [
        ("mwobject", 1), ("mwobject", 2), ("hashmap", 1),
    ])
    def test_stale_read_caught_at_commit(self, workload, seed):
        machine = Machine(
            monitor_config("baseline", num_cores=8),
            make_workload(workload, ops_per_thread=8), seed,
        )
        drop_all_conflicts(machine)
        with pytest.raises(OracleViolation, match="stale read") as excinfo:
            machine.run()
        stale = excinfo.value.details["stale_reads"]
        assert stale and all(
            entry["current_epoch"] != entry["read_epoch"] for entry in stale
        )


class TestCrossCheck:
    def test_silent_on_correct_runs(self):
        machine = Machine(
            monitor_config(oracle="cross-check"),
            make_workload("genome", ops_per_thread=6), seed=1,
        )
        assert machine.run().total_commits > 0

    def test_both_checkers_flag_planted_bug(self):
        machine = Machine(
            monitor_config("baseline", oracle="cross-check", num_cores=8),
            make_workload("mwobject", ops_per_thread=8), seed=1,
        )
        drop_all_conflicts(machine)
        # Both flag -> the shadow verdict propagates with the online
        # verdict attached; a divergence here would be a checker bug.
        with pytest.raises(OracleViolation) as excinfo:
            machine.run()
        assert not isinstance(excinfo.value, OracleDivergence)
        assert "online_verdict" in excinfo.value.details

    def test_divergence_raised_when_one_checker_goes_blind(self):
        machine = Machine(
            monitor_config("baseline", oracle="cross-check", num_cores=8),
            make_workload("mwobject", ops_per_thread=8), seed=1,
        )
        drop_all_conflicts(machine)
        # Planted checker bug: the monitor swallows its verdicts, the
        # shadow oracle still flags the run -> OracleDivergence.
        machine.monitor.deferred = machine.monitor.deferred  # keep attr
        machine.monitor._violation = lambda *args, **kwargs: None
        with pytest.raises(OracleDivergence) as excinfo:
            machine.run()
        assert excinfo.value.details["flagging_checker"] == "shadow"


@pytest.mark.slow
class TestCrossCheckGrid:
    """Differential suite: zero divergences over the full matrix."""

    @pytest.mark.parametrize("workload", sorted(ALL_NAMES))
    @pytest.mark.parametrize("design", sorted(DESIGN_REGISTRY))
    def test_checkers_agree(self, workload, design):
        machine = Machine(
            SimConfig.for_design(design, num_cores=4, oracle="cross-check"),
            make_workload(workload, ops_per_thread=6), seed=2,
        )
        try:
            stats = machine.run()
        except OracleDivergence as exc:  # pragma: no cover - real bug
            pytest.fail("checker divergence on {}/{}: {}".format(
                workload, design, exc
            ))
        assert stats.total_commits > 0
