"""graphmatch benchmark: one workload per invocation, untraced or traced.

    python3 perfbench/run.py --workload letter-knn --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload letter-knn --seed 0 --trace 1

Untraced (``--trace 0``): times several fresh-process set-ups, then repeats
passes over the workload's sweeps (one ``knn_classify(k=1)`` per matcher, or
``tune_weights`` plus its confirming ``knn_classify``) for about ``--seconds``
seconds with ``jobs=1``, checks every sweep's output, and reports the
end-to-end metrics.  Traced (``--trace 1``): one untraced pass, one pass with
a span around every public graphmatch function and one pass counting
``label_distance``, reported as per-layer metrics.

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A result file with the environment block and every detail goes
to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ALL_MATCHERS, ROOT, WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 7
NOISE_NOTE = (
    "shared machine with few cores: other tenants add noise to every timing; "
    "compare medians of many runs, never single runs"
)

# End-to-end metrics of the untraced run: (name, unit).
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("pairs_per_s", "pairs/s"))


@dataclass
class Sweep:
    """One timed sweep and what its output checks found."""

    label: str
    seconds: float
    pairs: int  # distance pairs attempted, tune_weights' own included
    failed_pairs: int
    accuracy: float | None = None
    distance_sum: float | None = None
    weights: tuple | None = None
    problems: list = field(default_factory=list)


def recording_class(matcher_spec):
    """A MatcherSpec subclass that sums the distances it returns and, in the
    traced pass, opens one ``bench.pair`` span per distance call."""

    class RecordingMatcher(matcher_spec):
        def start(self, label, tracer=None):
            note = (lambda args, kwargs, result: label)
            object.__setattr__(self, "_state", [0.0, 0, math.inf, tracer, note])
            return self

        def distance(self, g1, g2):
            state = self._state
            tracer = state[3]
            if tracer is None:
                d = matcher_spec.distance(self, g1, g2)
            else:
                d = tracer.call("bench.pair", matcher_spec.distance, (self, g1, g2), {},
                                state[4], tracer.pair_of(g1, g2))
            state[0] += d
            state[1] += 1
            state[2] = min(state[2], d)
            return d

    return RecordingMatcher


class Runner:
    """Runs the sweeps of one workload on a loaded corpus."""

    def __init__(self, bench, workload, train, evaluation, reference):
        self.bench = bench
        self.workload = workload
        self.train = train
        self.evaluation = evaluation
        self.reference = reference or {}
        self.first: dict[str, Sweep] = {}
        self.recording = recording_class(bench.MatcherSpec)
        self.pairs = len(train.instances) * len(evaluation.instances)

    def sweeps(self):
        return [label for label, _ in self.workload.matchers]

    def run(self, label, tracer=None) -> Sweep:
        spec = dict(self.workload.matchers)[label]
        start = time.perf_counter()
        try:
            if self.workload.tune:
                sweep = self._tune(label, start, tracer)
            else:
                sweep = self._knn(label, spec, start, tracer)
        except Exception:  # a crashed sweep fails its pairs; the run goes on
            sweep = Sweep(label, time.perf_counter() - start, self.pairs, self.pairs,
                          problems=[traceback.format_exc()])
        self._check(sweep)
        return sweep

    def _knn(self, label, spec, start, tracer, method=None):
        matcher = self.recording(method or spec).start(label, tracer)
        result = self.bench.knn_classify(self.train, self.evaluation, matcher, 1)
        seconds = time.perf_counter() - start
        total, calls, least = matcher._state[:3]
        sweep = Sweep(label, seconds, self.pairs, len(result.failures),
                      accuracy=result.mean_accuracy, distance_sum=total)
        if calls != self.pairs - len(result.failures):
            sweep.problems.append(f"{calls} distances recorded for {self.pairs} pairs")
        if calls and not (math.isfinite(total) and least >= 0.0):
            sweep.problems.append(f"distance sum {total}, least distance {least}")
        return sweep

    def _tune(self, label, start, tracer):
        bench = self.bench
        calls = [0]
        distance = bench.geometric_graph_distance

        def counted(*args, **kwargs):
            calls[0] += 1
            return distance(*args, **kwargs)

        # The number of weight vectors tried depends on the data, so the
        # distance calls are counted to report work per second.
        with tracing.patched([(bench, "geometric_graph_distance", counted)]):
            weights = bench.tune_weights(self.train, self.evaluation, delta=0.02)
        w = weights.as_tuple()
        # the confirming sweep, exactly as `graphmatch tune` builds it
        method = f"geometric({w[0]!r},{w[1]!r},{w[2]!r},{w[3]!r})"
        sweep = self._knn(label, None, start, tracer, method=method)
        sweep.weights = w
        sweep.pairs += calls[0]
        if calls[0] == 0 or calls[0] % self.pairs:
            sweep.problems.append(
                f"{calls[0]} tune distance calls, not a multiple of {self.pairs} pairs")
        return sweep

    def _check(self, sweep: Sweep) -> None:
        if sweep.problems:
            return
        expected = self.reference.get(sweep.label)
        what = "the seed-commit value"
        if expected is None:
            first = self.first.setdefault(sweep.label, sweep)
            expected, what = asdict(first), "this run's first sweep"
        if sweep.accuracy != expected["accuracy"]:
            sweep.problems.append(
                f"accuracy {sweep.accuracy} differs from {what} {expected['accuracy']}")
        if not workloads.sums_agree(sweep.distance_sum, expected["distance_sum"]):
            sweep.problems.append(
                f"distance sum {sweep.distance_sum!r} differs from {what} "
                f"{expected['distance_sum']!r}")
        if expected.get("weights") is not None and not all(
            workloads.sums_agree(a, b) for a, b in zip(sweep.weights, expected["weights"])
        ):
            sweep.problems.append(
                f"tuned weights {sweep.weights} differ from {what} {expected['weights']}")


# -- set-up -----------------------------------------------------------------------


def workload_json(workload) -> str:
    return json.dumps({"name": workload.name, "corpus": asdict(workload.corpus),
                       "eval_split": workload.eval_split})


def probe_setups(workload, seed: int, work: Path, runs: int):
    """Time ``runs`` fresh-process set-ups; the last one's corpus stays."""
    times, prints = [], set()
    for _ in range(runs):
        shutil.rmtree(work, ignore_errors=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_json(workload),
             str(seed), str(work)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        prints.add(result["fingerprint"])
    return times, prints


# -- environment and output -----------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": workloads.source_digest(),
        "workload_seed": seed,
        "note": NOISE_NOTE,
    }


def report(lines, metrics, units, counts) -> None:
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>16.6g} {units[name]:<8} (n={counts.get(name, 1)})")


# -- the two kinds of run -------------------------------------------------------


def untraced_run(runner, workload, seed, seconds, setup_times, lines):
    passes = []
    started = time.perf_counter()
    while True:
        passes.append([runner.run(label) for label in runner.sweeps()])
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    by_label = {label: [p[i] for p in passes] for i, label in enumerate(runner.sweeps())}
    median_s = {label: statistics.median(s.seconds for s in sweeps)
                for label, sweeps in by_label.items()}
    pairs = {label: sweeps[0].pairs for label, sweeps in by_label.items()}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pairs_per_s": sum(pairs.values()) / sum(median_s.values()),
    }
    counts = {"setup_s": len(setup_times), "pairs_per_s": len(passes)}
    units = dict(END_TO_END)
    detail = {}
    for label, sweeps in by_label.items():
        if workload.tune:
            name, value, unit = "tune_s", median_s[label], "s"
        else:
            name, value, unit = f"pairs_per_s.{label}", pairs[label] / median_s[label], "pairs/s"
        detail[name] = value
        units[name] = unit
        counts[name] = len(sweeps)
    lines.append(f"{workload.name} seed={seed}: {len(passes)} passes in "
                 f"{time.perf_counter() - started:.1f} s, untraced, jobs=1")
    report(lines, {**metrics, **detail}, units, counts)
    return metrics, units, [s for p in passes for s in p], {
        "passes": len(passes), "detail": detail, "setup_s_all": setup_times,
        "sweep_s_median": median_s}


def traced_run(runner, workload, seed, tracer, lines):
    started = time.perf_counter()
    untraced = [runner.run(label) for label in runner.sweeps()]
    untraced_wall = time.perf_counter() - started

    tracer.set_pairs(runner.train, runner.evaluation)
    started = time.perf_counter()
    traced, touches_editdist = [], []
    with tracing.span_pass(tracer):
        for label in runner.sweeps():
            first = len(tracer.spans)
            traced.append(runner.run(label, tracer))
            touches_editdist.append(any(
                r[tracing.NAME].startswith("editdist.") for r in tracer.spans[first:]))
    traced_wall = time.perf_counter() - started

    counted = []
    with tracing.count_pass(tracer):
        for label, hit in zip(runner.sweeps(), touches_editdist):
            if hit:
                counted.append(runner.run(label))

    metrics = tracing.layer_metrics(tracer, runner.pairs)
    metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    for m in ALL_MATCHERS:
        metrics[f"pairs_per_s.{m}"] = 0.0
    metrics["tune_s"] = 0.0
    for sweep in untraced:
        if workload.tune:
            metrics["tune_s"] = sweep.seconds
        else:
            metrics[f"pairs_per_s.{sweep.label}"] = sweep.pairs / sweep.seconds
    units = dict(tracing.PER_LAYER)
    metrics = {name: metrics[name] for name in units}
    tails = tracing.pair_tails(tracer.spans)
    lines.append(f"{workload.name} seed={seed}: traced pass {traced_wall:.1f} s, "
                 f"untraced pass {untraced_wall:.1f} s, {len(tracer.spans)} spans")
    counts = {f"bench.pair_ms_tail.{m}": t["n"] for m, t in tails.items()}
    counts.update({f"bench.pair_ms_p50.{m}": t["n"] for m, t in tails.items()})
    report(lines, metrics, units, counts)
    for m, t in sorted(tails.items()):
        lines.append(f"  tail of {m}: p{t['tail_pct']} of {t['n']} traced pairs")
    return metrics, units, untraced + traced + counted, {
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "span_count": len(tracer.spans), "pair_tails": tails}


def run(workload, seed: int, seconds: float, trace: bool, reference=None,
        setup_runs: int = SETUP_RUNS) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    workloads.import_graphmatch()
    import graphmatch.bench
    import graphmatch.cli
    import graphmatch.datasets

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / f"{workload.name}-seed{seed}-{os.getpid()}"
    lines: list[str] = []
    problems: list[str] = []
    try:
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            with tracing.span_pass(tracer):
                workloads.write_corpus(graphmatch.cli, workload, seed, work)
                train, evaluation = workloads.load_corpus(graphmatch.datasets, workload, work)
            corpus_print = workloads.fingerprint(train, evaluation)
        else:
            setup_times, prints = probe_setups(workload, seed, work, setup_runs)
            train, evaluation = workloads.load_corpus(graphmatch.datasets, workload, work)
            corpus_print = workloads.fingerprint(train, evaluation)
            if prints != {corpus_print}:
                problems.append(f"set-up fingerprints {sorted(prints)} != {corpus_print}")
        expected = (reference or {}).get("fingerprint")
        if expected is not None and expected != corpus_print:
            problems.append(f"corpus fingerprint {corpus_print} != seed-commit {expected}")
        twins = workloads.coordinate_twins(train, evaluation)
        if twins:
            problems.append(f"{len(twins)} evaluation graphs equal train graphs: {twins[:3]}")

        runner = Runner(graphmatch.bench, workload, train, evaluation, (reference or {}).get("sweeps"))
        if trace:
            metrics, units, sweeps, extra = traced_run(runner, workload, seed, tracer, lines)
            tracer.write(OUT / "results" / f"{workload.name}-seed{seed}.spans.jsonl.gz")
        else:
            metrics, units, sweeps, extra = untraced_run(runner, workload, seed, seconds,
                                                         setup_times, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(s.pairs for s in sweeps)
    # a failed corpus check fails every pair; a failed sweep check its own pairs
    failed = attempted if problems else sum(
        s.pairs if s.problems else s.failed_pairs for s in sweeps)
    for sweep in sweeps:
        problems.extend(f"{sweep.label}: {p}" for p in sweep.problems)
    lines.append(f"  {'pair_fail_frac':<44} {failed / attempted:>16.6g} {'ratio':<8} "
                 f"(n={attempted} pairs)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "environment": environment(seed),
        "corpus_fingerprint": corpus_print,
        "problems": problems,
        "sweeps": [asdict(s) for s in sweeps],
        **extra,
        "result": result,
    }
    path = OUT / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    lines.extend(f"  check failed: {p.splitlines()[-1]}" for p in problems)
    lines.append(f"  details: {path.relative_to(ROOT)}")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    references = json.loads(REFERENCE.read_text())["seeds"]
    reference = references.get(str(args.seed), {}).get(args.workload)
    try:
        result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), reference)
    except workloads.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
