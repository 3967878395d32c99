"""Tests for the benchmark's own helpers (no simulation runs here).

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from perfbench import checks, hostspeed, probes, summary  # noqa: E402


class ScriptedClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- self-time arithmetic ----------------------------------------------------


def _nested(recorder, clock):
    """outer (1s own) -> inner (2s own) -> leaf (3s), inner again (0.5s)."""
    leaf = recorder.timed("leaf", lambda: clock.advance(3.0))

    def inner_body(extra):
        clock.advance(2.0 if extra else 0.5)
        if extra:
            leaf()

    inner = recorder.timed("inner", inner_body)

    def outer_body():
        clock.advance(1.0)
        inner(True)
        inner(False)

    return recorder.timed("outer", outer_body, span="outer")


def test_self_time_is_span_minus_children():
    clock = ScriptedClock()
    recorder = probes.Probes(clock=clock)
    _nested(recorder, clock)()
    timers = recorder.timers
    assert timers["outer"].total == pytest.approx(6.5)
    assert timers["outer"].self_time == pytest.approx(1.0)
    assert timers["inner"].total == pytest.approx(5.5)
    assert timers["inner"].self_time == pytest.approx(2.5)
    assert timers["inner"].count == 2
    assert timers["leaf"].self_time == pytest.approx(3.0)
    # Self times partition the outermost span exactly.
    assert sum(t.self_time for t in timers.values()) == pytest.approx(6.5)


def test_recursive_timer_counts_total_once():
    clock = ScriptedClock()
    recorder = probes.Probes(clock=clock)

    def body(depth):
        clock.advance(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = recorder.timed("rec", body)
    wrapped(2)
    timer = recorder.timers["rec"]
    assert timer.count == 3
    assert timer.total == pytest.approx(3.0)
    assert timer.self_time == pytest.approx(3.0)


def test_exceptions_are_counted_by_type_and_still_timed():
    clock = ScriptedClock()
    recorder = probes.Probes(clock=clock)

    def fail():
        clock.advance(0.25)
        raise KeyError("x")

    wrapped = recorder.timed("fails", fail)
    with pytest.raises(KeyError):
        wrapped()
    timer = recorder.timers["fails"]
    assert timer.raised == {"KeyError": 1}
    assert timer.total == pytest.approx(0.25)
    assert recorder._frames == [pytest.approx(0.25)]


def test_spans_record_parent_and_root_ids():
    clock = ScriptedClock()
    recorder = probes.Probes(clock=clock)
    child = recorder.timed("child", lambda: clock.advance(1.0), span="child")
    recorder.span("cell", child)
    (child_id, child_parent, child_root, name, start, end, _), \
        (cell_id, cell_parent, cell_root, *_rest) = recorder.spans
    assert name == "child" and (start, end) == (0.0, 1.0)
    assert child_parent == cell_id and child_root == cell_id
    assert cell_parent is None and cell_root == cell_id
    trace = recorder.chrome_trace({"workload": "test"})
    assert [event["name"] for event in trace["traceEvents"]] == [
        "child", "cell"]
    assert trace["traceEvents"][0]["args"]["parent"] == cell_id
    assert trace["otherData"]["workload"] == "test"


def test_patch_and_restore_a_class_method():
    class Target:
        def work(self):
            return 7

        @classmethod
        def build(cls):
            return cls()

    recorder = probes.Probes()
    recorder._patch_attr(Target, "work", "target.work")
    recorder._patch_attr(Target, "build", "target.build")
    assert Target.build().work() == 7
    assert recorder.timers["target.work"].count == 1
    assert recorder.timers["target.build"].count == 1
    recorder.uninstall()
    assert Target.work is vars(Target)["work"]
    assert Target.build().work() == 7
    assert recorder.timers["target.work"].count == 1


def test_worker_state_merges_into_parent(tmp_path):
    record = {
        "timers": {"machine.run": {"count": 2, "total": 1.5, "self": 1.0,
                                   "raised": {}}},
        "counters": {"machine.events": 10},
        "spans": [[1, None, 1, "cell", 0.0, 2.0, 99]],
    }
    later = dict(record, spans=[[2, None, 2, "cell", 2.0, 2.5, 99]])
    import json
    with open(tmp_path / "worker-99.jsonl", "w") as handle:
        handle.write(json.dumps(record) + "\n")
        handle.write(json.dumps(later) + "\n")
    recorder = probes.Probes()
    recorder.merge_worker_files(str(tmp_path))
    # Timers and counters are cumulative per worker: the last line wins.
    assert recorder.timers["machine.run"].count == 2
    assert recorder.counters["machine.events"] == 10
    # Spans are incremental: every line contributes.
    assert recorder.durations["cell"] == [2.0, 0.5]


# -- the percentile rule -----------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert summary.tail_percentile(list(range(19))) is None
    assert summary.tail_percentile(list(range(20))) == (50, 9)
    # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
    assert summary.tail_percentile(list(range(1, 101))) == (90, 90)
    # 228 sweep cells: p95 leaves 11 beyond, p99 only 2.
    assert summary.tail_percentile(list(range(228)))[0] == 95
    assert summary.tail_percentile(list(range(10000)))[0] == 99.9


def test_quartiles_match_statistics_and_single_sample():
    assert summary.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, median, q3 = summary.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, median, q3) == (1.25, 2.5, 3.75)
    assert "n=4" in summary.describe([1.0, 2.0, 3.0, 4.0])


# -- each correctness check fires on a planted mismatch ---------------------


def test_same_digest_flags_the_diverging_pass():
    assert checks.same_digest("a" * 64, ["a" * 64, "a" * 64]) == []
    failures = checks.same_digest("a" * 64, ["a" * 64, "b" * 64])
    assert len(failures) == 1 and failures[0].startswith("pass 1")


def test_payloads_equal_ignores_elapsed_only():
    cold = {"fig9": {"x": 1.0}, "elapsed_seconds": 9.0}
    assert checks.payloads_equal(cold, dict(cold, elapsed_seconds=0.2)) == []
    failures = checks.payloads_equal(cold, {"fig9": {"x": 1.5},
                                            "elapsed_seconds": 9.0})
    assert failures == ["figure payload differs in fig9"]


def test_journal_accounts_for_every_cell():
    assert checks.journal_accounts({"replayed": 0, "executed": 228},
                                   228) == []
    # A cell that was neither replayed nor executed.
    assert checks.journal_accounts({"replayed": 0, "executed": 227}, 228)
    # A fresh journal that replayed instead of executing.
    assert checks.journal_accounts({"replayed": 1, "executed": 227}, 228)
    assert checks.journal_accounts(None, 228)


def test_all_cached_fires_on_a_simulated_cell():
    assert checks.all_cached(228, 228) == []
    assert checks.all_cached(227, 228) == ["cache served 227 of 228 cells"]


def test_no_failed_cells_names_the_cell():
    failure = types.SimpleNamespace(
        spec=types.SimpleNamespace(workload="genome"), message="boom")
    assert checks.no_failed_cells([]) == []
    assert checks.no_failed_cells([failure]) == ["cell genome failed: boom"]


def _report(**fields):
    base = dict(workload_name="arrayswap", violations=[], explorer="random",
                complete=True, schedules_explored=12)
    base.update(fields)
    return types.SimpleNamespace(**base)


def test_no_violations_fires_on_a_violation():
    assert checks.no_violations([_report()]) == []
    failures = checks.no_violations(
        [_report(violations=[{"kind": "serializability"}])])
    assert failures and "serializability" in failures[0]


def test_exhaustive_complete_fires_on_truncation():
    assert checks.exhaustive_complete(
        [_report(explorer="exhaustive")]) == []
    # A truncated fuzzing campaign is not an exhaustive failure.
    assert checks.exhaustive_complete([_report(complete=False)]) == []
    assert checks.exhaustive_complete(
        [_report(explorer="exhaustive", complete=False)])


def test_check_log_counts_evaluations_and_failures():
    log = checks.CheckLog()
    log.record("digest", [])
    log.record("digest", ["pass 1 differs"])
    log.record("journal", [])
    assert (log.attempted, log.failed) == (3, 1)
    lines = list(log.lines())
    assert lines[0].startswith("FAIL digest (1/2 failed)")
    assert "pass 1 differs" in lines[1]


# -- host-speed normalization ------------------------------------------------


def test_host_speed_rescales_to_the_nominal_loop_time():
    clock = ScriptedClock()

    def slow_loop():
        clock.advance(2 * hostspeed.NOMINAL_LOOP_S)

    speed = hostspeed.HostSpeed(clock=clock, loop=slow_loop)

    def work(unit):
        unit(clock.advance, 1.0)
        unit(clock.advance, 3.0)

    _, wall, normalized = speed.measure(work, split=True)
    # The loops between the units are not part of the pass's wall time
    # ...
    assert wall == pytest.approx(4.0)
    # ... and a host running the loop at half speed scales it down by
    # half to the power of the simulator's sensitivity.
    assert normalized == pytest.approx(4.0 * 0.5 ** hostspeed.SENSITIVITY)
    # Three blocks: before, between and after the two units.
    assert len(speed.samples) == 3 * hostspeed.BLOCK_LOOPS


def test_each_unit_is_rescaled_by_the_loops_around_it():
    clock = ScriptedClock()
    loop_s = [hostspeed.NOMINAL_LOOP_S]

    speed = hostspeed.HostSpeed(clock=clock,
                                loop=lambda: clock.advance(loop_s[0]))

    def work(unit):
        unit(clock.advance, 1.0)
        # The host halves its speed after the first unit's closing block.
        loop_s[0] *= 2
        unit(clock.advance, 1.0)

    _, wall, normalized = speed.measure(work, split=True)
    assert wall == pytest.approx(2.0)
    # The first unit sits between two nominal blocks; the second between
    # a nominal block and a slow one.
    second = (1 / 1.5) ** hostspeed.SENSITIVITY
    assert normalized == pytest.approx(1.0 + second)


def test_worker_samples_join_the_pass(tmp_path):
    clock = ScriptedClock()
    speed = hostspeed.HostSpeed(
        clock=clock, loop=lambda: clock.advance(hostspeed.NOMINAL_LOOP_S))
    worker_loop = 2 * hostspeed.NOMINAL_LOOP_S
    blocks = 2 * hostspeed.BLOCK_LOOPS
    for pid in range(blocks):
        (tmp_path / "speed-{}.txt".format(pid)).write_text(
            "{!r}\n".format(worker_loop))

    def pool_pass():
        clock.advance(1.0 + blocks * worker_loop / 2)

    _, wall, normalized = speed.measure(pool_pass, worker_dir=str(tmp_path),
                                        jobs=2)
    # Worker loop time is spread over the two workers and removed.
    assert wall == pytest.approx(1.0)
    # As many parent samples at the nominal time as worker samples at
    # twice it.
    assert normalized == pytest.approx((2 / 3) ** hostspeed.SENSITIVITY)
    assert list(tmp_path.iterdir()) == []
