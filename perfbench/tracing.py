"""Span tracing for the traced run, and the per-layer metrics derived from it.

The traced run replaces public functions of graphmatch, under the name their
caller looks up (``graphmatch.contraction.ged``, ``graphmatch.bench.k_star_ged``,
``AttributedGraph.without_vertices`` at class level), with wrappers that
record one span per call: name, start_ns, end_ns, parent span, the
(evaluation, train) pair it serves and a small note such as an input size.
Spans stay in memory and are written out when the run ends.  The hottest
function, ``editdist.label_distance``, is only counted, and in a pass of its
own, so that counting does not inflate the self times of the span pass.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import ALL_MATCHERS

_now = time.perf_counter_ns

# span record fields
NAME, START, END, PARENT, PAIR, NOTE = range(6)


def _graph_sizes(args, kwargs, result):
    return args[0].n + args[1].n


def _first_arg_id(args, kwargs, result):
    return id(args[0])


def _lsap_dim(args, kwargs, result):
    return len(args[0])


def _loaded(args, kwargs, result):
    return (len(result.instances), len(result.errors))


def _ged_name(args, kwargs):
    return "editdist.ged_exact" if kwargs.get("beam_width") is None else "editdist.ged_beam"


# (module:attribute, span name, note, pairwise).  Pairwise functions take the
# two graphs of a pair first and tag spans that no pair span encloses.
SPAN_PLAN = (
    ("graphmatch.cli:main", "cli.main", None, False),
    ("graphmatch.cli:synthesize_corpus", "datasets.synthesize_corpus", None, False),
    ("graphmatch.cli:write_gxl", "datasets.write_gxl", None, False),
    ("graphmatch.datasets:load_dataset", "datasets.load_dataset", _loaded, False),
    ("graphmatch.datasets:parse_gxl", "datasets.parse_gxl", None, False),
    ("graphmatch.bench:knn_classify", "bench.knn_classify", None, False),
    ("graphmatch.bench:tune_weights", "bench.tune_weights", None, False),
    ("graphmatch.bench:ged", _ged_name, _graph_sizes, True),
    ("graphmatch.bench:ged_bipartite", "editdist.ged_bipartite", _graph_sizes, True),
    ("graphmatch.bench:hged", "contraction.hged", _graph_sizes, True),
    ("graphmatch.bench:k_star_ged", "contraction.k_star_ged", _graph_sizes, True),
    ("graphmatch.bench:r_centrality_ged", "centrality.r_centrality_ged", _graph_sizes, True),
    ("graphmatch.bench:t_centrality_ged", "centrality.t_centrality_ged", _graph_sizes, True),
    ("graphmatch.bench:geometric_graph_distance", "geometric.graph_distance", None, True),
    ("graphmatch.contraction:ged", _ged_name, _graph_sizes, True),
    ("graphmatch.contraction:k_star_node_contraction",
     "contraction.k_star_node_contraction", _first_arg_id, False),
    ("graphmatch.contraction:is_cut_vertex", "graphs.is_cut_vertex", None, False),
    ("graphmatch.centrality:ged", _ged_name, _graph_sizes, True),
    ("graphmatch.centrality:centrality", "centrality.centrality", None, False),
    ("graphmatch.centrality:r_centrality_node_contraction",
     "centrality.node_contraction", _first_arg_id, False),
    ("graphmatch.centrality:t_centrality_node_contraction",
     "centrality.node_contraction", _first_arg_id, False),
    ("graphmatch.centrality:is_cut_vertex", "graphs.is_cut_vertex", None, False),
    ("graphmatch.editdist:path_from_mapping", "editdist.path_from_mapping", None, False),
    ("graphmatch.editdist:solve_lsap", "geometric.solve_lsap.editdist", _lsap_dim, False),
    ("graphmatch.geometric:solve_lsap", "geometric.solve_lsap.geometric", _lsap_dim, False),
    ("graphmatch.geometric:pad_to_equal", "geometric.pad_to_equal", None, False),
    ("graphmatch.geometric:vertex_distance", "geometric.vertex_distance", None, False),
    ("graphmatch.geometric:edge_features", "geometric.edge_features", None, False),
    ("graphmatch.geometric:graph_alignment", "geometric.graph_alignment", None, False),
    ("graphmatch.geometric:geometric_transform", "geometric.geometric_transform", None, False),
    ("graphmatch.graphs:AttributedGraph.without_vertices", "graphs.without_vertices",
     None, False),
)

COUNT_PLAN = (("graphmatch.editdist:label_distance", "editdist.label_distance"),)

# Every per-layer metric with its unit, in output order.
PER_LAYER = (
    ("cli.synth_s", "s"),
    ("datasets.synthesize_corpus_s", "s"),
    ("datasets.write_gxl_s", "s"),
    ("datasets.load_dataset_s", "s"),
    ("datasets.parse_gxl_s", "s"),
    ("datasets.graphs_loaded", "count"),
    ("datasets.load_errors", "count"),
    ("bench.knn_classify_s", "s"),
    ("bench.knn_self_s", "s"),
    ("bench.distance_calls", "count"),
    *((f"bench.pair_ms_p50.{m}", "ms") for m in ALL_MATCHERS),
    *((f"bench.pair_ms_tail.{m}", "ms") for m in ALL_MATCHERS),
    ("bench.tune_weights_s", "s"),
    ("bench.tune_self_s", "s"),
    ("bench.tune_evaluations", "count"),
    ("editdist.ged_exact_calls", "count"),
    ("editdist.ged_exact_self_s", "s"),
    ("editdist.ged_beam_calls", "count"),
    ("editdist.ged_beam_self_s", "s"),
    ("editdist.ged_bipartite_self_s", "s"),
    ("editdist.path_from_mapping_s", "s"),
    ("editdist.label_distance_calls", "count"),
    ("editdist.input_vertices_mean", "vertices"),
    ("contraction.k_star_node_contraction_calls", "count"),
    ("contraction.k_star_node_contraction_s", "s"),
    ("contraction.hged_self_s", "s"),
    ("contraction.removed_frac", "ratio"),
    ("contraction.repeat_ratio", "ratio"),
    ("centrality.centrality_calls", "count"),
    ("centrality.centrality_s", "s"),
    ("centrality.node_contraction_self_s", "s"),
    ("centrality.removed_frac", "ratio"),
    ("centrality.repeat_ratio", "ratio"),
    ("graphs.without_vertices_calls", "count"),
    ("graphs.is_cut_vertex_calls", "count"),
    ("graphs.is_cut_vertex_s", "s"),
    ("geometric.graph_distance_calls", "count"),
    ("geometric.graph_distance_self_s", "s"),
    ("geometric.pad_to_equal_s", "s"),
    ("geometric.vertex_distance_s", "s"),
    ("geometric.edge_features_s", "s"),
    ("geometric.graph_alignment_s", "s"),
    ("geometric.alignment_candidates", "count"),
    ("geometric.solve_lsap_calls.geometric", "count"),
    ("geometric.solve_lsap_calls.editdist", "count"),
    ("geometric.solve_lsap_s.geometric", "s"),
    ("geometric.solve_lsap_s.editdist", "s"),
    ("geometric.lsap_dim_mean", "dim"),
    ("trace_overhead_frac", "ratio"),
    # untraced throughput of each matcher sweep, measured in the same run
    *((f"pairs_per_s.{m}", "pairs/s") for m in ALL_MATCHERS),
    ("tune_s", "s"),
)

# Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self, pair_names=None):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._pair_names = pair_names or {}  # id(graph) -> source id

    def set_pairs(self, *splits) -> None:
        """Name the graphs of these splits in pair ids."""
        for split in splits:
            for inst in split.instances:
                self._pair_names[id(inst.graph)] = f"{split.name}:{inst.source_id}"

    def pair_of(self, g1, g2):
        a, b = self._pair_names.get(id(g1)), self._pair_names.get(id(g2))
        return None if a is None or b is None else f"{a}|{b}"

    def call(self, name, fn, args, kwargs, note=None, pair=None):
        """Run fn(*args, **kwargs) inside a span."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0 and spans[parent][PAIR] is not None:
            pair = spans[parent][PAIR]
        record = [name, 0, 0, parent, pair, None]
        stack.append(len(spans))
        spans.append(record)
        record[START] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = _now()
            stack.pop()
        if note is not None:
            record[NOTE] = note(args, kwargs, result)
        return result

    def span_wrapper(self, fn, name, note, pairwise):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            pair = self.pair_of(args[0], args[1]) if pairwise else None
            return self.call(span_name, fn, args, kwargs, note, pair)

        return wrapper

    def count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, pair, note in self.spans:
                fh.write(json.dumps([name, start, end, parent, pair, note]) + "\n")


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(replacements):
    """Temporarily set (owner, attr) -> value; restore the originals after."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def span_pass(tracer):
    replacements = []
    for target, name, note, pairwise in SPAN_PLAN:
        owner, attr = _resolve(target)
        fn = owner.__dict__[attr]
        replacements.append((owner, attr, tracer.span_wrapper(fn, name, note, pairwise)))
    with patched(replacements):
        yield


@contextmanager
def count_pass(tracer):
    replacements = []
    for target, name in COUNT_PLAN:
        owner, attr = _resolve(target)
        replacements.append((owner, attr, tracer.count_wrapper(owner.__dict__[attr], name)))
    with patched(replacements):
        yield


# -- per-layer metrics ----------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        if record[PARENT] >= 0:
            own[record[PARENT]] -= record[END] - record[START]
    return own


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def nearest_rank(sorted_values, p: float):
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def pair_tails(spans) -> dict[str, dict]:
    """Per matcher: sample count, p50 and tail of traced pair times (ms)."""
    by_matcher = defaultdict(list)
    for record in spans:
        if record[NAME] == "bench.pair":
            by_matcher[record[NOTE]].append((record[END] - record[START]) / 1e6)
    out = {}
    for matcher, times in by_matcher.items():
        times.sort()
        p = tail_percentile(len(times))
        out[matcher] = {
            "n": len(times),
            "p50_ms": statistics.median(times),
            "tail_pct": p,
            "tail_ms": nearest_rank(times, p) if p is not None else times[-1],
        }
    return out


def layer_metrics(tracer: Tracer, pairs_per_evaluation: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (trace overhead and untraced
    rates are added by the caller)."""
    spans = tracer.spans
    own = self_times(spans)
    calls, total, self_ns = Counter(), Counter(), Counter()
    for i, record in enumerate(spans):
        calls[record[NAME]] += 1
        total[record[NAME]] += record[END] - record[START]
        self_ns[record[NAME]] += own[i]

    def secs(counter, *names):
        return sum(counter[n] for n in names) / 1e9

    def parent_name(record):
        return spans[record[PARENT]][NAME] if record[PARENT] >= 0 else None

    def removed_frac(parents):
        before = sum(r[NOTE] for r in spans if r[NAME] in parents)
        after = sum(r[NOTE] for r in spans
                    if r[NAME].startswith("editdist.ged_") and parent_name(r) in parents)
        return 1.0 - after / before if before else 0.0

    def repeat_ratio(name):
        inputs = {r[NOTE] for r in spans if r[NAME] == name}
        return calls[name] / len(inputs) if inputs else 0.0

    def mean_note(*names):
        notes = [r[NOTE] for r in spans if r[NAME] in names]
        return statistics.fmean(notes) if notes else 0.0

    loaded = [r[NOTE] for r in spans if r[NAME] == "datasets.load_dataset"]
    tune_distance_calls = sum(
        1 for r in spans
        if r[NAME] == "geometric.graph_distance" and parent_name(r) == "bench.tune_weights"
    )
    exact, beam = "editdist.ged_exact", "editdist.ged_beam"
    metrics = {
        "cli.synth_s": secs(total, "cli.main"),
        "datasets.synthesize_corpus_s": secs(total, "datasets.synthesize_corpus"),
        "datasets.write_gxl_s": secs(total, "datasets.write_gxl"),
        "datasets.load_dataset_s": secs(total, "datasets.load_dataset"),
        "datasets.parse_gxl_s": secs(total, "datasets.parse_gxl"),
        "datasets.graphs_loaded": sum(n for n, _ in loaded),
        "datasets.load_errors": sum(e for _, e in loaded),
        "bench.knn_classify_s": secs(total, "bench.knn_classify"),
        "bench.knn_self_s": secs(self_ns, "bench.knn_classify"),
        "bench.distance_calls": calls["bench.pair"] + tune_distance_calls,
        "bench.tune_weights_s": secs(total, "bench.tune_weights"),
        "bench.tune_self_s": secs(self_ns, "bench.tune_weights"),
        "bench.tune_evaluations": tune_distance_calls // pairs_per_evaluation,
        "editdist.ged_exact_calls": calls[exact],
        "editdist.ged_exact_self_s": secs(self_ns, exact),
        "editdist.ged_beam_calls": calls[beam],
        "editdist.ged_beam_self_s": secs(self_ns, beam),
        "editdist.ged_bipartite_self_s": secs(self_ns, "editdist.ged_bipartite"),
        "editdist.path_from_mapping_s": secs(total, "editdist.path_from_mapping"),
        "editdist.label_distance_calls": tracer.counts["editdist.label_distance"],
        "editdist.input_vertices_mean": mean_note(exact, beam) / 2.0,
        "contraction.k_star_node_contraction_calls":
            calls["contraction.k_star_node_contraction"],
        "contraction.k_star_node_contraction_s":
            secs(total, "contraction.k_star_node_contraction"),
        "contraction.hged_self_s": secs(self_ns, "contraction.hged"),
        "contraction.removed_frac":
            removed_frac({"contraction.hged", "contraction.k_star_ged"}),
        "contraction.repeat_ratio": repeat_ratio("contraction.k_star_node_contraction"),
        "centrality.centrality_calls": calls["centrality.centrality"],
        "centrality.centrality_s": secs(total, "centrality.centrality"),
        "centrality.node_contraction_self_s": secs(self_ns, "centrality.node_contraction"),
        "centrality.removed_frac":
            removed_frac({"centrality.r_centrality_ged", "centrality.t_centrality_ged"}),
        "centrality.repeat_ratio": repeat_ratio("centrality.node_contraction"),
        "graphs.without_vertices_calls": calls["graphs.without_vertices"],
        "graphs.is_cut_vertex_calls": calls["graphs.is_cut_vertex"],
        "graphs.is_cut_vertex_s": secs(total, "graphs.is_cut_vertex"),
        "geometric.graph_distance_calls": calls["geometric.graph_distance"],
        "geometric.graph_distance_self_s": secs(self_ns, "geometric.graph_distance"),
        "geometric.pad_to_equal_s": secs(total, "geometric.pad_to_equal"),
        "geometric.vertex_distance_s": secs(total, "geometric.vertex_distance"),
        "geometric.edge_features_s": secs(total, "geometric.edge_features"),
        "geometric.graph_alignment_s": secs(total, "geometric.graph_alignment"),
        "geometric.alignment_candidates": calls["geometric.geometric_transform"],
        "geometric.solve_lsap_calls.geometric": calls["geometric.solve_lsap.geometric"],
        "geometric.solve_lsap_calls.editdist": calls["geometric.solve_lsap.editdist"],
        "geometric.solve_lsap_s.geometric": secs(total, "geometric.solve_lsap.geometric"),
        "geometric.solve_lsap_s.editdist": secs(total, "geometric.solve_lsap.editdist"),
        "geometric.lsap_dim_mean":
            mean_note("geometric.solve_lsap.geometric", "geometric.solve_lsap.editdist"),
    }
    tails = pair_tails(spans)
    for m in ALL_MATCHERS:
        tail = tails.get(m)
        metrics[f"bench.pair_ms_p50.{m}"] = tail["p50_ms"] if tail else 0.0
        metrics[f"bench.pair_ms_tail.{m}"] = tail["tail_ms"] if tail else 0.0
    return metrics
