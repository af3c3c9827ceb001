"""Self-tests of the benchmark: tiny runs of every workload, determinism,
trace invariants, the contract with BENCHMARK.json, and the recorded
``graphmatch synth`` overwrite defect.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import dataclasses
import gzip
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.import_graphmatch()
from graphmatch import cli, datasets  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The named workload on a corpus small enough for a unit test."""
    workload = workloads.WORKLOADS[name]
    corpus = dataclasses.replace(workload.corpus, classes=2, train_per_class=2,
                                 eval_per_class=1, n_lo=3, n_hi=5)
    return dataclasses.replace(workload, corpus=corpus)


def tiny_run(name, seed=3, trace=False):
    return run.run(tiny(name), seed, 0.01, trace, reference=None, setup_runs=1)


def read_spans(name, seed=3):
    path = run.OUT / "results" / f"{name}-seed{seed}.spans.jsonl.gz"
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]


def test_benchmark_json_names_what_the_runs_report():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    result, lines = tiny_run(name)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = "\n".join(lines)
    sweep_metrics = (["tune_s"] if workloads.WORKLOADS[name].tune else
                     [f"pairs_per_s.{label}" for label, _ in workloads.WORKLOADS[name].matchers])
    for metric in [*dict(run.END_TO_END), *sweep_metrics, "pair_fail_frac"]:
        assert f"  {metric} " in printed, metric
    assert "(n=" in printed


def test_same_seed_same_corpus_and_checksums():
    def details(seed):
        tiny_run("exact-ged", seed=seed)
        return json.loads(
            (run.OUT / "results" / f"exact-ged-seed{seed}-trace0.json").read_text())

    first, again, other = details(5), details(5), details(6)
    assert first["corpus_fingerprint"] == again["corpus_fingerprint"]
    sums = [s["distance_sum"] for s in first["sweeps"]]
    assert sums == [s["distance_sum"] for s in again["sweeps"]]
    assert other["corpus_fingerprint"] != first["corpus_fingerprint"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_invariants(name):
    result, lines = tiny_run(name, trace=True)
    assert result["correct"], lines
    assert {m: v["unit"] for m, v in result["metrics"].items()} == dict(tracing.PER_LAYER)
    spans = read_spans(name)
    assert spans
    for record in spans:
        parent = record[tracing.PARENT]
        assert record[tracing.START] <= record[tracing.END]
        if parent >= 0:
            assert spans[parent][tracing.START] <= record[tracing.START]
            assert record[tracing.END] <= spans[parent][tracing.END]
    assert min(tracing.self_times(spans)) >= 0
    assert result["metrics"]["bench.distance_calls"]["value"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tracing.tail_percentile(4050) == 99.5
    assert tracing.tail_percentile(384) == 95.0
    assert tracing.tail_percentile(9) is None


def test_coordinate_twins_are_found(tmp_path):
    workload = tiny("letter-knn")
    workloads.write_corpus(cli, workload, 0, tmp_path)
    train, test = workloads.load_corpus(datasets, workload, tmp_path)
    assert workloads.coordinate_twins(train, test) == []
    assert len(workloads.coordinate_twins(train, train)) == len(train.instances)


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "exact-ged",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.xfail(strict=True, reason="graphmatch synth writes <class>-<i>.gxl for "
                   "every split, so the README's test split overwrites the train files")
def test_readme_two_command_synth_example_keeps_train_and_test_apart(tmp_path):
    out = str(tmp_path / "corpus")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--classes", "5", "--per-class", "10", "--sigma", "0.05",
                         "--seed", "7", "--out", out]) == 0
        assert cli.main(["synth", "--classes", "5", "--per-class", "4", "--sigma", "0.05",
                         "--seed", "7", "--jitter-seed", "8", "--split", "test",
                         "--out", out]) == 0
    train = datasets.load_dataset(Path(out) / "train.cxl", out, "letter")
    test = datasets.load_dataset(Path(out) / "test.cxl", out, "letter")
    assert workloads.coordinate_twins(train, test) == []
