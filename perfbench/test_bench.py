"""Tests of the benchmark's own helpers: statistics, span accounting and the
large-target generator. Run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    random.Random(3).shuffle(values)
    value, pct = stats.tail(values)
    assert value == 20.0
    assert sum(1 for v in values if v > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_at_the_smallest_sample_count():
    value, pct = stats.tail([float(v) for v in range(11)])
    assert value == 0.0
    assert pct == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_tail_with_ties_counts_positions():
    values = [1.0] * 5 + [2.0] * 20
    value, _ = stats.tail(values)
    assert value == 2.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_quartile_spread_of_constant_values_is_zero():
    assert stats.quartile_spread([6.0] * 10) == 0.0


def test_quartile_spread_rejects_zero_median():
    with pytest.raises(ValueError):
        stats.quartile_spread([0.0, 0.0, 0.0, 1.0])


def _span(sid, name, start, end, parent, case):
    return [sid, name, start, end, parent, case, {}]


def test_self_times_subtract_covered_child_intervals():
    spans = [
        _span(0, "cli.repair_one", 0.0, 10.0, None, 0),
        _span(1, "slow.run_session", 1.0, 4.0, 0, 0),
        _span(2, "detector.run_detection", 2.0, 3.0, 1, 0),
        _span(3, "feedback.FeedbackEngine.evaluate", 5.0, 6.0, 0, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert tracer.case_balance(spans, selfs) == 0.0


def test_self_times_merge_overlapping_children():
    spans = [
        _span(0, "cli.cmd_bench", 0.0, 10.0, None, None),
        _span(1, "cli.repair_one", 1.0, 5.0, 0, 1),
        _span(2, "cli.repair_one", 3.0, 7.0, 0, 2),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_case_balance_flags_spans_outside_the_root():
    spans = [
        _span(0, "cli.repair_one", 0.0, 2.0, None, 0),
        _span(1, "kb.prune", 5.0, 6.0, None, 0),
    ]
    assert tracer.case_balance(spans, tracer.self_times(spans)) == pytest.approx(1.0)


@pytest.mark.parametrize("regions,size", gen.LARGE_TARGETS)
def test_large_target_shape(regions, size):
    source, expected = gen.large_target(random.Random(7), regions, size)
    assert source.count("//~UB") == regions
    assert size <= len(source) < size + 400
    assert (len(source) + 3) // 4 <= 16000
    assert len(expected.splitlines()) == sum(
        1 for line in source.splitlines() if line.startswith("    println!(")
    )


@pytest.mark.skipif(shutil.which("rustc") is None, reason="rustc not installed")
def test_large_target_expected_output_matches_rustc(tmp_path):
    source, expected = gen.large_target(random.Random(11), 12, 8000)
    (tmp_path / "main.rs").write_text(source)
    subprocess.run(
        ["rustc", "--edition=2021", "main.rs", "-o", "prog"], cwd=tmp_path, check=True, capture_output=True
    )
    run = subprocess.run([str(tmp_path / "prog")], capture_output=True, text=True, check=True)
    assert run.stdout == expected


def test_fix_loop_rounds_hold_each_template_equally_often():
    templates = [gen.Template(f"c{i:02d}", Path("x"), "k", None) for i in range(12)]
    seq = gen.fixloop_sequence(templates, seed=5, rounds=3)
    assert len(seq) == 36
    for r in range(3):
        assert sorted(t.id for t in seq[12 * r:12 * (r + 1)]) == sorted(t.id for t in templates)
    assert [t.id for t in seq[:12]] != [t.id for t in seq[12:24]]
