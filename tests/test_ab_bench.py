"""The summary arithmetic of tools/ab_bench.py on fixed numbers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def test_summarize_takes_inclusive_quartiles():
    assert ab_bench.summarize([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0, "n": 5,
    }
    assert ab_bench.summarize([10.0, 12.0, 11.0, 13.0]) == {
        "min": 10.0, "q1": 10.75, "median": 11.5, "q3": 12.25, "max": 13.0, "n": 4,
    }


def test_summarize_one_run():
    assert ab_bench.summarize([7.0]) == {
        "min": 7.0, "q1": 7.0, "median": 7.0, "q3": 7.0, "max": 7.0, "n": 1,
    }


def test_verdict_when_higher_is_better():
    v = ab_bench.verdict([100.0, 110.0, 120.0, 130.0, 140.0],
                         [150.0, 160.0, 90.0, 170.0, 180.0], "higher", 0.24)
    assert v["pairs_won_by_change"] == 4
    assert v["pairs"] == 5
    assert v["median_gain"] == 40.0
    assert v["median_gain_frac"] == pytest.approx(1 / 3)
    assert v["parent_iqr"] == 20.0
    assert v["gain_exceeds_parent_iqr"]


def test_verdict_when_lower_is_better_and_ties_count_for_neither():
    v = ab_bench.verdict([10.0, 12.0, 11.0, 11.0], [9.0, 13.0, 8.0, 11.0], "lower", 0.25)
    assert v["pairs_won_by_change"] == 2
    assert v["median_gain"] == 1.0
    assert v["parent_iqr"] == 0.5
    assert v["gain_exceeds_parent_iqr"]
    worse = ab_bench.verdict([10.0, 12.0, 11.0], [10.5, 12.5, 11.5], "lower", 0.25)
    assert worse["pairs_won_by_change"] == 0
    assert worse["median_gain"] == -0.5
    assert not worse["gain_exceeds_parent_iqr"]


def test_verdict_reports_worsening_against_the_bound():
    better = ab_bench.verdict([100.0, 110.0, 120.0, 130.0, 140.0],
                              [150.0, 160.0, 90.0, 170.0, 180.0], "higher", 0.24)
    assert better["median_worsening_frac"] == 0.0
    assert better["bound"] == 0.24
    assert better["within_bound"]
    assert better["parent_iqr_frac"] == pytest.approx(20 / 120)
    assert not better["unresolved"]
    # 5% worse, inside a 10% bound, but the parent's IQR is 20% of its median
    worse = ab_bench.verdict([100.0, 90.0, 110.0, 80.0, 120.0],
                             [95.0, 85.0, 105.0, 75.0, 115.0], "higher", 0.1)
    assert worse["median_worsening_frac"] == pytest.approx(0.05)
    assert worse["within_bound"]
    assert worse["parent_iqr_frac"] == pytest.approx(0.2)
    assert worse["unresolved"]
    assert not ab_bench.verdict([100.0, 90.0, 110.0, 80.0, 120.0],
                                [95.0, 85.0, 105.0, 75.0, 115.0], "higher", 0.24)["unresolved"]


def test_verdict_beyond_the_bound_and_wide_spread_beaten_by_every_run():
    slower = ab_bench.verdict([1.0, 1.0, 1.0, 1.0], [1.5, 1.5, 1.5, 1.5], "lower", 0.25)
    assert slower["median_worsening_frac"] == 0.5
    assert not slower["within_bound"]
    assert slower["parent_iqr_frac"] == 0.0
    assert not slower["unresolved"]
    # parent IQR 47.5 of median 135 exceeds the bound, but every change run
    # beats every parent run
    v = ab_bench.verdict([100.0, 200.0, 150.0, 120.0], [250.0, 300.0, 260.0, 280.0],
                         "higher", 0.24)
    assert v["parent_iqr_frac"] == pytest.approx(47.5 / 135)
    assert not v["unresolved"]
    lost_one = ab_bench.verdict([100.0, 200.0, 150.0, 120.0], [250.0, 300.0, 190.0, 280.0],
                                "higher", 0.24)
    assert lost_one["unresolved"]


def test_report_summarizes_float_metrics_and_judges_end_to_end_ones():
    def run(rate, setup):
        return {"exit": 0, "attempted": 10, "pairs_per_s": rate, "setup_s": setup,
                "pairs_per_s.ged": rate / 2, "wall_s": 30.0, "distance_sums": {}}

    pairs = [
        {"parent": run(100.0, 1.0), "change": run(150.0, 1.0)},
        {"parent": run(110.0, 1.2), "change": run(140.0, 0.9)},
    ]
    end_to_end = [{"name": "pairs_per_s", "better": "higher", "bound": 0.24},
                  {"name": "setup_s", "better": "lower", "bound": 0.25}]
    out = ab_bench.report(pairs, end_to_end)
    assert set(out["summary"]["parent"]) == {"pairs_per_s", "setup_s", "pairs_per_s.ged"}
    assert out["summary"]["change"]["pairs_per_s.ged"]["median"] == 72.5
    assert out["verdict"]["pairs_per_s"]["pairs_won_by_change"] == 2
    assert out["verdict"]["setup_s"]["pairs_won_by_change"] == 1
    assert out["verdict"]["setup_s"]["bound"] == 0.25
    assert out["verdict"]["setup_s"]["median_worsening_frac"] == 0.0
    assert out["verdict"]["pairs_per_s"]["within_bound"]
    assert set(out["verdict"]) == {"pairs_per_s", "setup_s"}


def test_sweep_outputs_keep_accuracy_and_weights_per_label():
    sweeps = [
        {"label": "tune", "accuracy": 0.5, "distance_sum": 1.0, "weights": [0.2, 0.3, 0.1, 0.4]},
        {"label": "geometric", "accuracy": 0.75, "distance_sum": 2.0, "weights": None},
    ]
    assert ab_bench.sweep_outputs(sweeps) == {
        "tune": {"accuracy": 0.5, "weights": [0.2, 0.3, 0.1, 0.4]},
        "geometric": {"accuracy": 0.75, "weights": None},
    }


def test_compare_sides_checks_sums_and_outputs_apart():
    def run(accuracy=0.5, weights=(0.25, 0.25, 0.25, 0.25), total=10.0):
        sweeps = [{"label": "tune", "accuracy": accuracy, "weights": list(weights),
                   "distance_sum": total}]
        return {"distance_sums": {"tune": total}, "outputs": ab_bench.sweep_outputs(sweeps)}

    cases = (
        (run(), (True, True)),
        (run(accuracy=0.6), (True, False)),
        (run(weights=(0.27, 0.25, 0.23, 0.25)), (True, False)),
        (run(total=10.000000000000002), (False, True)),
    )
    for change, expected in cases:
        pair = {"parent": run(), "change": change}
        ab_bench.compare_sides(pair)
        assert (pair["distance_sums_equal"], pair["outputs_equal"]) == expected


def test_odd_pair_count_rejected_before_any_git_call(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(ab_bench, "git", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SystemExit) as info:
        ab_bench.main(["--workload", "exact-ged", "--pairs", "3", "--seconds", "1",
                       "--out", str(tmp_path / "ab.json")])
    assert info.value.code == 2
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (["--workload", "letterknn"], "unknown --workload 'letterknn'"),
    (["--workload", "exact-ged", "--seed", "-1"], "must be >= 0"),
    (["--workload", "exact-ged", "--holdout-seed", "-2"], "must be >= 0"),
])
def test_unknown_workload_and_negative_seeds_rejected_before_any_git_call(
    monkeypatch, tmp_path, capsys, argv, message
):
    calls = []
    monkeypatch.setattr(ab_bench, "git", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SystemExit) as info:
        ab_bench.main([*argv, "--pairs", "2", "--seconds", "1",
                       "--out", str(tmp_path / "ab.json")])
    assert info.value.code == 2
    assert calls == []
    assert message in capsys.readouterr().err
