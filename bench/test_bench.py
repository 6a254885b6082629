"""Self-tests of the benchmark's own arithmetic and gate.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Step, evaluate  # noqa: E402


def _tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    return [spans.Span("root", 0.0, 10.0, -1),
            spans.Span("a", 1.0, 4.0, 0),
            spans.Span("g", 2.0, 3.0, 1),
            spans.Span("b", 5.0, 9.0, 0)]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    tree = [spans.Span("root", 0.0, 10.0, -1),
            spans.Span("a", 1.0, 5.0, 0),
            spans.Span("b", 3.0, 7.0, 0),
            spans.Span("c", 9.0, 12.0, 0)]   # clipped to the parent at 10
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_sum_to_the_root_duration():
    assert sum(spans.self_times(_tree())) == 10.0


class _Field:
    def __init__(self, characteristic):
        self.characteristic = characteristic


class _Matrix:
    def __init__(self, nrows, ncols, characteristic, entries):
        self.nrows = nrows
        self.ncols = ncols
        self.field = _Field(characteristic)
        self.entries = entries


def test_rank_buckets_and_distinct_ratio():
    small = _Matrix(3, 3, 0, {(0, 0): 1})
    same = _Matrix(3, 3, 0, {(0, 0): 1})
    big_fp = _Matrix(600, 40, 3, {(0, 0): 1, (1, 1): 2})
    tree = [spans.Span("bench.case", 0.0, 10.0, -1),
            spans.Span("kernel.rank", 1.0, 2.0, 0, small),
            spans.Span("kernel.rank", 2.0, 4.0, 0, same),
            spans.Span("kernel.rank", 4.0, 8.0, 0, big_fp)]
    m = spans.layer_metrics(tree)
    assert m["kernel.rank.calls"] == 3
    assert m["kernel.rank.distinct_ratio"] == pytest.approx(2 / 3)
    assert m["kernel.rank.self_s"] == 7.0
    assert m["kernel.rank.max_s"] == 4.0
    assert m["kernel.rank.nnz"] == 4
    assert m["kernel.rank.q_lt64.calls"] == 2
    assert m["kernel.rank.q_lt64.self_s"] == 3.0
    assert m["kernel.rank.fp_ge512.calls"] == 1
    assert m["bench.self_s"] == 3.0


def test_install_reaches_every_module_that_imported_a_name():
    import twistres.cli
    import twistres.complex
    original = twistres.complex.exactness_report
    recorder = spans.Recorder("test")
    undo = spans.install(recorder)
    try:
        assert twistres.cli.exactness_report is \
            twistres.complex.exactness_report
        assert twistres.cli.exactness_report is not original
    finally:
        spans.restore(undo)
    assert twistres.cli.exactness_report is original
    assert twistres.complex.exactness_report is original


def test_host_speed_scale_is_reference_over_median_loop_time():
    sampler = hostspeed.Sampler()
    sampler.samples = [0.002, 0.0014, 0.0014 * 9]
    assert sampler.scale() == pytest.approx(hostspeed.REFERENCE_LOOP_S
                                            / 0.002)


def test_sampler_samples_while_running():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        hostspeed.time_loop(3 * hostspeed.SAMPLE_ITERATIONS)
        deadline = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert sampler.spent == pytest.approx(sum(sampler.samples))


def _step(observed, expect):
    return Step(lambda: observed, expect)


def test_wrong_checked_count_is_a_failed_case():
    expect = {"hexagon": {"passed": True, "checked": 825},
              "compose": {"passed": True, "checked": 3}}
    attempted, failures = evaluate(_step(
        {"hexagon": {"passed": True, "checked": 625},
         "compose": {"passed": True, "checked": 3}}, expect))
    assert (attempted, len(failures)) == (2, 1)   # fail_ratio 0.5


def test_wrong_dimension_table_is_a_failed_case():
    expect = {"HH": {"dims": {0: 1, 1: 0, 2: 0}}}
    attempted, failures = evaluate(_step({"HH": {"dims": {0: 1, 1: 1, 2: 0}}},
                                         expect))
    assert (attempted, len(failures)) == (1, 1)


def test_raising_step_fails_every_case_it_holds():
    def boom():
        raise RuntimeError("no")
    attempted, failures = evaluate(Step(boom, {"a": 1, "b": 2}))
    assert (attempted, len(failures)) == (2, 2)


def test_corruption_that_passes_is_a_failed_case():
    expect = {"corrupted": {"passed": False, "checked": 825}}
    _, failures = evaluate(_step({"corrupted": {"passed": True,
                                                "checked": 825}}, expect))
    assert len(failures) == 1


def test_preset_counts_are_read_from_the_report():
    detail = ("compose_check(x): pass on 3 labels; "
              "<GridReport anticommute(A): 1 checked, ok>")
    data = {"records": [
        {"task": "preset:weyl-2/verify-resolution", "target": "PW2",
         "status": "pass", "detail": detail, "dims": []}]}
    view = workloads.observe_presets(data)
    assert view["weyl-2"] == [("verify-resolution", "PW2", "pass", [], [3, 1])]
    expect = {"weyl-2": workloads.PRESET_EXPECT["weyl-2"]}
    _, failures = evaluate(_step({"weyl-2": view["weyl-2"]}, expect))
    assert len(failures) == 1   # the gate wants [15] labels, not [3, 1]


def test_span_cost_is_positive_and_small():
    assert 0 < spans.span_cost(calls=2_000, repeats=3) < 1e-3


def _set(digests, correct=True):
    return {"workloads": {"presets": {
        "all_correct": correct, "report_sha256_noseed": digests,
        "metrics": {}, "per_layer": {}}}}


def test_report_digests_flattens_runs():
    import sweep
    runs = [{"context": {"report_sha256_noseed": "a"}},
            {"context": {"report_sha256_noseed": ["a", "b"]}},
            {"context": {}}]
    assert sweep.report_digests(runs) == {"a", "b"}


def test_compare_fails_on_differing_report_digests():
    import sweep
    assert sweep.compare(_set(["a"]), _set(["a"])) == []
    assert sweep.compare(_set(["a"]), _set(["b"])) != []
    assert sweep.compare(_set(["a"]), _set(["a"], correct=False)) != []
