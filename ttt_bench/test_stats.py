"""Deterministic tests of the benchmark's arithmetic on fixed inputs.

Run from the repository root with ``python -m pytest ttt_bench``.  Nothing
here reads a clock.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from probes import LAYER_OF, STEP_END, Recorder, probed_iter  # noqa: E402
from stats import (Span, attribute_steps, epoch_breakdown, median,  # noqa: E402
                   olympic_mean, self_times, signed_overhead_pct, tail_percentile,
                   tracked_throughput)


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100; input order must not matter
    values.reverse()
    assert tail_percentile(values, 90) == 90.0  # ranks 91..100 lie beyond
    assert tail_percentile(values, 50) == 50.0
    with pytest.raises(ValueError, match="need 10"):
        tail_percentile(values, 99)  # one sample beyond
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 90)  # nine beyond
    assert tail_percentile(list(range(20)), 50) == 9.0


def test_olympic_mean_drops_one_min_and_one_max():
    assert olympic_mean([5.0, 1.0, 3.0, 100.0, 3.0]) == pytest.approx(11.0 / 3.0)
    assert olympic_mean([2.0, 2.0, 2.0]) == 2.0  # ties: one of each dropped
    with pytest.raises(ValueError):
        olympic_mean([1.0, 2.0])


def test_olympic_mean_matches_score_runs():
    from repro.core.results import score_runs
    from repro.core.runner import RunResult

    times = [0.31, 0.29, 0.35, 0.28, 0.30, 0.33, 0.27, 0.32, 0.36, 0.30]
    runs = [RunResult("recommendation", seed, {}, True, 0.7, 3, t)
            for seed, t in enumerate(times)]
    assert olympic_mean(times) == pytest.approx(score_runs(runs).time_to_train_s,
                                                rel=1e-12)


def test_signed_overhead_keeps_its_sign():
    assert signed_overhead_pct(11.0, 10.0) == pytest.approx(10.0)
    assert signed_overhead_pct(9.5, 10.0) == pytest.approx(-5.0)
    with pytest.raises(ValueError):
        signed_overhead_pct(1.0, 0.0)


def test_tracked_stats_parsing_excludes_eval_and_sums_epochs():
    from repro.core.mllog import parse_log_lines

    text = "\n".join([
        "launcher chatter that is not a log record",
        ':::MLLOG {"key": "epoch_start", "value": 1, "time_ms": 0.0, "metadata": {}}',
        ':::MLLOG {"key": "tracked_stats", "value": {"epoch_seconds": 2.0, '
        '"samples": 1000}, "time_ms": 2000.0, "metadata": {"epoch_num": 1}}',
        ':::MLLOG {"key": "eval_accuracy", "value": 0.5, "time_ms": 2600.0, "metadata": {}}',
        ':::MLLOG {"key": "tracked_stats", "value": {"epoch_seconds": 3.0, '
        '"samples": 1500}, "time_ms": 5600.0, "metadata": {"epoch_num": 2}}',
        ':::MLLOG {"key": "tracked_stats", "value": {"epoch_seconds": 0.5}, '
        '"time_ms": 6100.0, "metadata": {"epoch_num": 3}}',
    ])
    samples, seconds = tracked_throughput(parse_log_lines(text))
    assert (samples, seconds) == (2500.0, 5.5)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("epoch", 0.0, 10.0),
        Span("framework.step", 1.0, 5.0, parent=0),
        Span("framework.forward", 1.5, 3.0, parent=1),
        Span("inner", 2.0, 2.5, parent=2),
    ]
    assert self_times(spans) == [6.0, 2.5, 1.0, 0.5]


def _epoch_spans():
    # Two steps in one epoch: [0, 4] and [4, 9]; the tail [9, 10] has the
    # final, empty batch fetch and belongs to no step.
    return [
        Span("suite.epoch", 0.0, 10.0),
        Span("framework.data.wait", 0.0, 1.0, parent=0),
        Span("framework.step", 1.0, 3.0, parent=0),
        Span("framework.forward", 1.0, 1.5, parent=2),
        Span("framework.optim", 3.25, 4.0, parent=0),
        Span("framework.data.wait", 4.0, 4.5, parent=0),
        Span("framework.step", 4.5, 8.0, parent=0),
        Span("framework.forward", 4.5, 6.0, parent=6),
        Span("framework.optim", 8.0, 9.0, parent=0),
        Span("framework.data.wait", 9.0, 9.5, parent=0),
    ]


def test_attribute_steps_partitions_each_step():
    result = attribute_steps(_epoch_spans(), 0, STEP_END, LAYER_OF)
    assert result.walls == [4.0, 5.0]
    assert result.layers[0]["framework.data.wait_s"] == 1.0
    assert result.layers[0]["framework.forward_s"] == 0.5
    assert result.layers[0]["framework.backward_s"] == 1.5
    assert result.layers[0]["framework.optim_s"] == 0.75
    assert result.other == [0.25, 0.0]  # gap between step and optimizer
    assert result.max_residual() == 0.0
    assert result.straddling == []


def test_attribute_steps_other_is_signed_and_flags_straddlers():
    spans = _epoch_spans()
    # A batch fetch that starts in step 0 and ends in step 1 belongs to
    # neither: it is reported, and never clipped into a step.
    spans[5] = Span("framework.data.wait", 3.5, 4.5, parent=0)
    result = attribute_steps(spans, 0, STEP_END, LAYER_OF)
    assert result.straddling == ["framework.data.wait"]
    # Overlapping layer spans (double counting) make ``other`` negative.
    spans = _epoch_spans()
    spans.append(Span("datasets.batch", 1.0, 2.0, parent=0))
    result = attribute_steps(spans, 0, STEP_END, LAYER_OF)
    assert result.other[0] == pytest.approx(-0.75)


def test_epoch_breakdown_sums_epochs_and_keeps_each_runs_first_epoch():
    one = _epoch_spans()
    shift = len(one)
    two = [Span(s.name, s.start + 20.0, s.end + 20.0,
                s.parent + shift if s.parent >= 0 else -1, run=1) for s in one]
    again = [Span(s.name, s.start + 40.0, s.end + 45.0 if s.parent < 0 else s.end + 40.0,
                  s.parent + 2 * shift if s.parent >= 0 else -1, run=1) for s in one]
    result = epoch_breakdown(one + two + again, "suite.epoch", STEP_END, LAYER_OF)
    assert result.walls == [4.0, 5.0] * 3
    assert result.layers["framework.optim_s"] == pytest.approx(3 * 1.75)
    assert result.other == pytest.approx(3 * 0.25)
    assert result.first_epoch == {0: 10.0, 1: 10.0}  # run 1's 15 s epoch came later
    assert result.residual == pytest.approx(0.0, abs=1e-12)


def test_recorder_nests_spans_and_writes_a_loadable_trace():
    from repro.telemetry import analyze_trace

    ticks = iter(float(t) for t in range(100))
    rec = Recorder(clock=lambda: next(ticks))
    rec.run = 3
    with rec.span("suite.epoch"):
        for _ in probed_iter(rec, "framework.data.wait", [1, 2]):
            with rec.span("framework.step"):
                pass
    spans = rec.closed_spans()
    assert [s.name for s in spans] == ["suite.epoch", "framework.data.wait",
                                       "framework.step", "framework.data.wait",
                                       "framework.step", "framework.data.wait"]
    assert [s.parent for s in spans] == [-1, 0, 0, 0, 0, 0]
    assert rec.counts["framework.data.wait.items"] == 2
    doc = json.loads(json.dumps(rec.chrome_trace({"workload": "test"})))
    analysis = analyze_trace(doc)
    assert analysis.span_count == len(spans)
    assert all(e["pid"] == 3 for e in doc["traceEvents"])


def test_counting_recorder_keeps_no_spans():
    rec = Recorder(timing=False, clock=lambda: math.nan)
    with rec.span("framework.step"):
        pass
    assert rec.counts["framework.step"] == 1
    assert rec.closed_spans() == []


def test_metric_tables_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.KERNEL_MODES)
