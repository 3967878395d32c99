"""Fault tolerance of the experiment engine.

Covers the DiskCache corruption quartet, KeyboardInterrupt persistence,
per-cell timeouts with quarantine, worker-crash recovery, and the
partial-matrix sweep report.

The hang/crash tests monkeypatch :func:`repro.sim.engine.execute_spec`
with module-level stand-ins from this file; worker processes see them
because ``ProcessPoolExecutor`` forks on Linux (the tests skip under
any other start method).
"""

import builtins
import json
import multiprocessing
import os
import time

import pytest

from repro.common.errors import ExperimentCellError
from repro.common.retry import RetryPolicy
from repro.sim import engine as engine_module
from repro.sim.config import SimConfig
from repro.sim.engine import (
    SCHEMA_VERSION,
    CellFailure,
    DiskCache,
    ExperimentEngine,
    RunSpec,
)

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched workers need the fork start method",
)

HANG_SEED = 99
CRASH_SEED = 66
ERROR_SEED = 77
CRASH_FLAG_ENV = "REPRO_TEST_CRASH_FLAG"


def fast_retry():
    """Pool-restart backoff short enough for tests."""
    return RetryPolicy(base_seconds=0.01,
                       max_seconds=ExperimentEngine.MAX_BACKOFF_SECONDS)


def tiny_spec(**overrides):
    fields = dict(
        workload="mwobject",
        config=SimConfig.for_design("baseline", num_cores=2),
        seed=1,
        ops_per_thread=3,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def hang_on_sentinel(spec):
    if spec.seed == HANG_SEED:
        time.sleep(120)
    return engine_module.execute_spec.__wrapped__(spec)


def crash_once_on_sentinel(spec):
    if spec.seed == CRASH_SEED:
        flag = os.environ[CRASH_FLAG_ENV]
        if not os.path.exists(flag):
            with open(flag, "w"):
                pass
            os._exit(1)  # kill the worker mid-task: BrokenProcessPool
    return engine_module.execute_spec.__wrapped__(spec)


def crash_always_on_sentinel(spec):
    if spec.seed == CRASH_SEED:
        os._exit(1)
    return engine_module.execute_spec.__wrapped__(spec)


def error_on_sentinel(spec):
    if spec.seed == ERROR_SEED:
        raise ValueError("deterministic boom")
    return engine_module.execute_spec.__wrapped__(spec)


@pytest.fixture
def patched_execute(monkeypatch):
    """Install a sentinel-aware stand-in, keeping the real one reachable."""
    real = engine_module.execute_spec

    def install(stand_in):
        stand_in.__wrapped__ = real
        monkeypatch.setattr(engine_module, "execute_spec", stand_in)

    return install


class TestDiskCacheCorruption:
    def _seeded(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = "ab" * 32
        cache.store(key, {"cycles": 7})
        return cache, key

    def test_truncated_json_reads_as_miss(self, tmp_path):
        cache, key = self._seeded(tmp_path)
        with open(cache._path(key)) as handle:
            content = handle.read()
        with open(cache._path(key), "w") as handle:
            handle.write(content[: len(content) // 2])
        assert cache.load(key) is None
        cache.store(key, {"cycles": 8})  # overwritten on the next store
        assert cache.load(key) == {"cycles": 8}

    def test_wrong_schema_version_reads_as_miss(self, tmp_path):
        cache, key = self._seeded(tmp_path)
        with open(cache._path(key), "w") as handle:
            json.dump(
                {"schema_version": SCHEMA_VERSION + 1, "result": {"cycles": 7}},
                handle,
            )
        assert cache.load(key) is None
        cache.store(key, {"cycles": 8})
        assert cache.load(key) == {"cycles": 8}

    def test_missing_result_reads_as_miss(self, tmp_path):
        cache, key = self._seeded(tmp_path)
        with open(cache._path(key), "w") as handle:
            json.dump({"schema_version": SCHEMA_VERSION}, handle)
        assert cache.load(key) is None
        cache.store(key, {"cycles": 8})
        assert cache.load(key) == {"cycles": 8}

    def test_unreadable_entry_reads_as_miss(self, tmp_path, monkeypatch):
        cache, key = self._seeded(tmp_path)
        target = cache._path(key)
        real_open = builtins.open

        def deny(path, *args, **kwargs):
            if str(path) == target:
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", deny)
        assert cache.load(key) is None
        monkeypatch.undo()
        cache.store(key, {"cycles": 8})
        assert cache.load(key) == {"cycles": 8}

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores file modes")
    def test_chmod_denied_entry_reads_as_miss(self, tmp_path):
        cache, key = self._seeded(tmp_path)
        os.chmod(cache._path(key), 0)
        try:
            assert cache.load(key) is None
        finally:
            os.chmod(cache._path(key), 0o644)


class TestKeyboardInterrupt:
    def test_serial_interrupt_persists_completed_cells(
        self, tmp_path, patched_execute
    ):
        real = engine_module.execute_spec
        calls = []

        def interrupt_second(spec):
            calls.append(spec.seed)
            if len(calls) == 2:
                raise KeyboardInterrupt()
            return real(spec)

        patched_execute(interrupt_second)
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        specs = [tiny_spec(seed=1), tiny_spec(seed=2), tiny_spec(seed=3)]
        with pytest.raises(KeyboardInterrupt):
            engine.run_specs(specs)
        # Cell 1 finished before the interrupt and must be resumable.
        assert engine.cache.load(specs[0].cache_key()) is not None
        assert engine.cache.load(specs[2].cache_key()) is None

    @needs_fork
    def test_parallel_interrupt_persists_harvested_cells(self, tmp_path):
        engine = ExperimentEngine(jobs=2, cache_dir=str(tmp_path))
        interrupted = []

        def interrupting_progress(event):
            interrupted.append(event)
            raise KeyboardInterrupt()

        engine.progress = interrupting_progress
        specs = [tiny_spec(seed=seed) for seed in (1, 2, 3, 4)]
        with pytest.raises(KeyboardInterrupt):
            engine.run_specs(specs)
        # The cell whose completion triggered the interrupt was stored
        # before its progress event fired.
        stored = [
            spec for spec in specs
            if engine.cache.load(spec.cache_key()) is not None
        ]
        assert stored  # at least the harvested cell survived
        assert len(stored) < len(specs)  # ... and the sweep really stopped


@needs_fork
class TestHungCells:
    def test_hung_cell_quarantined_and_matrix_partial(
        self, tmp_path, patched_execute
    ):
        patched_execute(hang_on_sentinel)
        engine = ExperimentEngine(
            jobs=2, cache_dir=str(tmp_path), cell_timeout=1.0,
            max_cell_retries=1, retry_policy=fast_retry(),
        )
        specs = [tiny_spec(seed=1), tiny_spec(seed=HANG_SEED), tiny_spec(seed=2)]
        report = engine.run_specs_report(specs)
        assert not report.ok
        assert [failure.kind for failure in report.failures] == ["timeout"]
        failure = report.failures[0]
        assert failure.spec.seed == HANG_SEED
        assert failure.attempts == 2  # first try + one retry
        # The innocent cells completed and are cached.
        assert report.results[0] is not None
        assert report.results[1] is None
        assert report.results[2] is not None
        assert report.completed == 2
        digest = report.failure_report()
        assert digest["failed"] == 1
        assert digest["failures"][0]["kind"] == "timeout"

    def test_strict_mode_raises_experiment_cell_error(
        self, tmp_path, patched_execute
    ):
        patched_execute(hang_on_sentinel)
        engine = ExperimentEngine(
            jobs=2, cache_dir=None, cell_timeout=1.0,
            max_cell_retries=0, retry_policy=fast_retry(),
        )
        with pytest.raises(ExperimentCellError) as excinfo:
            engine.run_specs([tiny_spec(seed=HANG_SEED)])
        assert isinstance(excinfo.value.failure, CellFailure)
        assert excinfo.value.failure.kind == "timeout"


@needs_fork
class TestWorkerCrashes:
    def test_broken_pool_recovers_and_completes(
        self, tmp_path, patched_execute, monkeypatch
    ):
        flag = str(tmp_path / "crashed.flag")
        monkeypatch.setenv(CRASH_FLAG_ENV, flag)
        patched_execute(crash_once_on_sentinel)
        engine = ExperimentEngine(
            jobs=2, cache_dir=None, max_cell_retries=2,
            retry_policy=fast_retry(),
        )
        specs = [tiny_spec(seed=1), tiny_spec(seed=CRASH_SEED), tiny_spec(seed=2)]
        results = engine.run_specs(specs)  # crash absorbed: no raise
        assert all(result is not None for result in results)
        assert os.path.exists(flag)  # the crash really happened

    def test_persistent_crasher_quarantined(self, patched_execute):
        patched_execute(crash_always_on_sentinel)
        engine = ExperimentEngine(
            jobs=2, cache_dir=None, max_cell_retries=1,
            retry_policy=fast_retry(),
        )
        specs = [tiny_spec(seed=1), tiny_spec(seed=CRASH_SEED)]
        report = engine.run_specs_report(specs)
        assert report.results[0] is not None
        assert report.results[1] is None
        assert report.failures[0].kind == "worker-crash"


class TestDeterministicErrors:
    def test_serial_error_quarantined_with_original_exception(
        self, patched_execute
    ):
        patched_execute(error_on_sentinel)
        engine = ExperimentEngine(jobs=1, cache_dir=None)
        report = engine.run_specs_report(
            [tiny_spec(seed=1), tiny_spec(seed=ERROR_SEED)]
        )
        assert report.results[0] is not None
        assert report.results[1] is None
        failure = report.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == 1  # deterministic: no retry
        assert isinstance(failure.exception, ValueError)

    def test_serial_strict_mode_reraises_original(self, patched_execute):
        patched_execute(error_on_sentinel)
        engine = ExperimentEngine(jobs=1, cache_dir=None)
        with pytest.raises(ValueError, match="deterministic boom"):
            engine.run_specs([tiny_spec(seed=ERROR_SEED)])

    @needs_fork
    def test_parallel_error_quarantined_immediately(self, patched_execute):
        patched_execute(error_on_sentinel)
        engine = ExperimentEngine(jobs=2, cache_dir=None)
        report = engine.run_specs_report(
            [tiny_spec(seed=1), tiny_spec(seed=ERROR_SEED), tiny_spec(seed=2)]
        )
        assert report.completed == 2
        assert report.failures[0].kind == "error"
        assert report.failures[0].attempts == 1


class TestSweepReport:
    def test_clean_sweep_reports_ok(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        specs = [tiny_spec(seed=seed) for seed in (1, 2)]
        report = engine.run_specs_report(specs)
        assert report.ok
        assert report.total == 2
        assert report.completed == 2
        assert all(result is not None for result in report.results)

    def test_cache_hits_counted(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        spec = tiny_spec()
        engine.run_specs_report([spec])
        report = ExperimentEngine(
            jobs=1, cache_dir=str(tmp_path)
        ).run_specs_report([spec])
        assert report.cache_hits == 1

    def test_engine_validates_new_knobs(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=1, cache_dir=None, cell_timeout=0)
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=1, cache_dir=None, max_cell_retries=-1)
