"""Tests of the benchmark harness: tail percentile, failure counting, the
sample metric, hooks, and agreement with BENCHMARK.json."""

import itertools
import json
import os
import statistics
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402

SWEEP_HEADER = "n,trial,samples,stopped,violation_max"


def sweep_csv(*rows):
    return "\n".join([SWEEP_HEADER, *rows]) + "\n"


def test_tail_leaves_ten_values_beyond():
    value, percentile, count = bench.tail(range(1, 101))
    assert (value, percentile, count) == (90, 90.0, 100)
    value, percentile, count = bench.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
    assert (value, count) == (1, 11)
    assert percentile == pytest.approx(100 / 11)


def test_tail_of_few_values_is_the_maximum():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        bench.tail([])


@pytest.mark.parametrize("unit_game, stopped, is_member, failed", [
    (False, True, True, False),
    (False, False, True, True),    # strict run hit its cap
    (False, True, False, True),    # stopped outside the core
    (True, False, False, False),   # unit control hits its cap, as it must
    (True, True, True, True),      # unit control must never stop
])
def test_learn_failure_rules(unit_game, stopped, is_member, failed):
    assert bench.learn_failed(unit_game, stopped, is_member) is failed


def test_sweep_rows_fail_on_cap_or_violation():
    text = sweep_csv("2,0,100,true,-0.1", "2,1,100,false,-0.1",
                     "2,2,100,true,1e-08", "2,3,100,true,1e-09")
    assert bench.count_failed_rows(text, SWEEP_HEADER, 4, bench.sweep_row_ok) == 2


def test_whole_file_mismatch_fails_every_row():
    good = sweep_csv("2,0,100,true,-0.1", "2,1,100,true,-0.2")
    count = lambda text, ref=None: bench.count_failed_rows(  # noqa: E731
        text, SWEEP_HEADER, 2, bench.sweep_row_ok, ref)
    assert count(good) == 0
    assert count(good, bench.sha256(good)) == 0
    assert count(good, bench.sha256(good + "\n")) == 2
    assert count(sweep_csv("2,0,100,true,-0.1")) == 2            # a row is missing
    assert count(good.replace("samples", "draws")) == 2          # header changed
    assert count("") == 2


def test_cw_rows_need_positive_finite_values():
    assert bench.cw_row_ok(["10", "0", "0.09", "0.7"])
    assert not bench.cw_row_ok(["10", "0", "0.0", "0.7"])
    assert not bench.cw_row_ok(["10", "0", "inf", "0.7"])
    assert not bench.cw_row_ok(["10", "0", "0.09", "nan"])
    assert not bench.cw_row_ok(["10", "0", "0.09"])


def test_samples_metric_is_geometric_mean_of_medians():
    records = [bench.Record(1.0, 1, 0, [("a", s)], b"") for s in (10, 1000, 100)]
    records += [bench.Record(1.0, 1, 0, [("b", s)], b"") for s in (1, 1e6)]
    value, medians = bench.samples_p50(records)
    assert medians == {"a": 100, "b": 500000.5}
    assert value == pytest.approx((100 * 500000.5) ** 0.5)
    assert bench.samples_p50([bench.Record(1.0, 1, 0, [], b"")]) == (1.0, {})


def test_metric_names_agree_with_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: entry[:2] for name, entry in bench.LAYER_METRICS.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


def test_hooks_rebind_every_reference_and_report_missing():
    from core_picker import games, learner
    from core_picker.games import Permutation, gen_strictly_convex
    from core_picker.oracle import RewardOracle

    original = games.prefix_coalitions
    tracer = Tracer()
    tracer.install([
        ("games.prefix_coalitions", "core_picker.games", "prefix_coalitions"),
        ("oracle.call", "core_picker.oracle", "RewardOracle"),
        ("gone", "core_picker.games", "no_such_function"),
    ])
    try:
        assert learner.prefix_coalitions is games.prefix_coalitions is not original
        learner.prefix_coalitions(Permutation.identity(3))
        games.prefix_coalitions(Permutation.identity(3))
        oracle = RewardOracle(gen_strictly_convex(3, 0), 0)
        oracle.query(1)
        oracle.query_sum(3, 10)
    finally:
        tracer.remove()
    assert learner.prefix_coalitions is games.prefix_coalitions is original
    assert tracer.stats["games.prefix_coalitions"].calls == 2
    assert tracer.stats["oracle.call"].calls == 2
    assert tracer.missing == ["core_picker.games.no_such_function"]
    assert tracer.missing_keys == {"gone"}


def test_self_time_excludes_hooked_children_and_missing_metrics_are_left_out():
    import core_picker as cp

    workload = bench.WORKLOADS["learn-small"]
    tracer = Tracer()
    tracer.install(bench.HOOKS)
    try:
        records = workload.run(cp, next(workload.units(0)))
    finally:
        tracer.remove()
    assert records[0].failed == 0
    advance = tracer.stats["learner.advance"]
    assert 0 < advance.self_ns < advance.total_ns
    assert tracer.stats["learner.run"].calls == 1
    metrics = bench.layer_metrics(tracer, 0.0, 0.0, 1, 1.0, 1.0)
    assert metrics.keys() == bench.LAYER_METRICS.keys()
    assert metrics["oracle.calls_per_advance"] == 9  # n^2 prefix sums at n = 3
    tracer.missing_keys.add("oracle.call")
    metrics = bench.layer_metrics(tracer, 0.0, 0.0, 1, 1.0, 1.0)
    for name in ("oracle.calls", "oracle.us_per_call", "oracle.calls_per_advance",
                 "learner.advance_self_us"):
        assert name not in metrics


def test_timings_multiply_times_and_divide_rates_by_the_scale():
    units = [[bench.Record(80.0, 1, 0, [], b""), bench.Record(40.0, 1, 0, [], b"")],
             [bench.Record(60.0, 1, 0, [], b"")]]
    unit_s = [0.12, 0.06]
    raw, _ = bench.timings(units, unit_s, [1.0, 1.0])
    assert raw == pytest.approx({"trials_per_s": 3 / 0.18, "run_ms_p50": 60.0,
                                 "run_ms_tail": 80.0})
    scaled, (tail_ms, percentile, count) = bench.timings(units, unit_s, [0.5, 2.0])
    assert scaled == pytest.approx({"trials_per_s": 3 / 0.18, "run_ms_p50": 40.0,
                                    "run_ms_tail": 120.0})
    assert (tail_ms, percentile, count) == (pytest.approx(120.0), 100.0, 3)
    assert set(raw) | {"setup_s", "samples_p50", "peak_rss_mb"} == set(bench.END_TO_END)


def test_work_is_followed_by_the_kernel():
    host = bench.CoreSpeed()
    result, seconds = host.run(lambda: 7)
    assert result == 7 and seconds >= 0
    assert [len(batch) for batch in host.batches] == [bench.REFERENCE_MIN] * 2
    assert host.scales() == [pytest.approx(
        bench.REFERENCE_MS / statistics.median(host.batches[0] + host.batches[1]))]


def test_each_unit_is_scaled_by_the_kernel_times_before_and_after_it():
    host = bench.CoreSpeed()
    ref = bench.REFERENCE_MS
    host.batches = [[ref / 2], [ref / 2, ref / 2, 2 * ref], [2 * ref, 2 * ref, 100.0]]
    assert host.scales() == pytest.approx([2.0, 0.5])


def test_pool_work_is_probed_on_every_core_and_the_probes_stop():
    threads = threading.active_count()
    affinity = os.sched_getaffinity(0)
    host = bench.PoolSpeed()
    _, seconds = host.run(lambda: time.sleep(3 * bench.PROBE_PERIOD_S))
    assert seconds >= 3 * bench.PROBE_PERIOD_S
    assert [len(times) >= 2 for times in host.batches[0]] == [True] * len(affinity)
    host.run(lambda: None)
    assert [len(times) for times in host.batches[1]] == [1] * len(affinity)
    assert threading.active_count() == threads
    assert os.sched_getaffinity(0) == affinity
    host.batches = [[[2.0, 100.0, 3.0], [bench.REFERENCE_MS]]]
    assert host.scales() == pytest.approx([bench.REFERENCE_MS / 4.5])


def test_setup_is_the_median_ratio_to_a_numpy_import_in_alternating_order(monkeypatch):
    calls = []
    setup = iter([0.3, 0.2, 0.4, 0.5, 0.2, 0.2, 0.3])
    reference = iter([0.1, 0.2, 0.2, 0.25, 0.2, 0.1, 0.15])

    def interpreter_s(code, env):
        calls.append(code)
        assert bench.SRC in env["PYTHONPATH"].split(os.pathsep)
        return next(setup if code == bench.SETUP_CODE else reference)

    monkeypatch.setattr(bench, "SETUP_REPEATS", 7)
    monkeypatch.setattr(bench, "interpreter_s", interpreter_s)
    corrected, raw = bench.measure_setup()
    # ratios 3, 1, 2, 2, 1, 2, 2
    assert corrected == pytest.approx(2 * bench.REFERENCE_SETUP_S)
    assert raw == 0.3
    assert calls[:4] == [bench.SETUP_CODE, bench.REFERENCE_SETUP_CODE,
                         bench.REFERENCE_SETUP_CODE, bench.SETUP_CODE]


def test_closed_loop_runs_each_unit_through_the_host():
    class Host:
        def run(self, work):
            return work(), 0.1

    class Workload:
        def run(self, cp, unit):
            return [unit]

    units, unit_s = bench.closed_loop(Workload(), None, iter(range(100)), 0.0, 3, Host())
    assert units == [[0], [1], [2]]
    assert unit_s == [0.1] * 3


def test_learn_units_are_single_trials_in_block_order():
    workload = bench.WORKLOADS["learn-large"]
    units = list(itertools.islice(workload.units(0), 2 * len(workload.block)))
    assert all(len(unit) == 1 for unit in units)
    assert [unit[0][0] for unit in units] == list(workload.block) * 2
