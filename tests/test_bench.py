"""Matcher specs, kNN classification, timing, and weight search."""

from __future__ import annotations

import math

import pytest

from graphmatch.bench import (
    BenchResult,
    MatcherSpec,
    TimingSummary,
    benchmark,
    knn_classify,
    split_method_list,
    tune_weights,
)
from graphmatch.centrality import r_centrality_ged
from graphmatch.contraction import hged, k_star_ged
from graphmatch.datasets import DatasetSplit, LabeledInstance, synthesize_corpus
from graphmatch.editdist import EditCostParams, ged, ged_bipartite
from graphmatch.geometric import DistanceWeights, geometric_graph_distance
from graphmatch.graphs import AttributedGraph, GeometricGraph, random_graph

VALID_METHODS = (
    "ged",
    "ged-beam(10)",
    "bipartite",
    "hged",
    "hged(5)",
    "kstar-ged(0)",
    "kstar-ged(2,10)",
    "r-ged(0.25,pagerank)",
    "t-ged(3,degree)",
    "geometric(0.35,0.23,0.11,0.31)",
    "geometric(1,1,1,1,align)",
)

INVALID_METHODS = (
    "unknown",
    "ged(1)",
    "ged-beam",
    "ged-beam(0)",
    "ged-beam(x)",
    "kstar-ged",
    "kstar-ged(-1)",
    "kstar-ged(1,0)",
    "r-ged(0.5)",
    "r-ged(1.5,degree)",
    "r-ged(0.5,closeness)",
    "t-ged(-1,degree)",
    "geometric(1,1,1)",
    "geometric(-1,1,1,1)",
    "geometric(1,1,1,1,flip)",
)


def edge_graph(p, q):
    return GeometricGraph([0, 1], [(0, 1)], coords={0: p, 1: q})


def point_instance(x, cls, source_id):
    return LabeledInstance(
        GeometricGraph([0], coords={0: (x, 0.0)}), cls, source_id
    )


def split_of(name, *instances):
    return DatasetSplit(name, tuple(instances))


class TestMatcherSpec:
    def test_valid_forms_parse(self):
        for method in VALID_METHODS:
            MatcherSpec(method)

    def test_invalid_forms_rejected(self):
        for method in INVALID_METHODS:
            with pytest.raises(ValueError):
                MatcherSpec(method)

    @pytest.mark.parametrize("method", ["geometric(nan,1,1,1)", "geometric(1,1,inf,1)"])
    def test_non_finite_geometric_weights_rejected(self, method):
        with pytest.raises(ValueError, match="finite"):
            MatcherSpec(method)

    def test_dispatch_matches_module_functions(self):
        g1 = random_graph(5, 0.5, seed=1)
        g2 = random_graph(5, 0.4, seed=2)
        assert MatcherSpec("ged").distance(g1, g2) == ged(g1, g2).total_cost
        assert (
            MatcherSpec("bipartite").distance(g1, g2)
            == ged_bipartite(g1, g2).total_cost
        )
        assert MatcherSpec("hged").distance(g1, g2) == hged(g1, g2).total_cost
        assert (
            MatcherSpec("kstar-ged(1)").distance(g1, g2)
            == k_star_ged(g1, g2, 1).total_cost
        )
        assert (
            MatcherSpec("r-ged(0.5,degree)").distance(g1, g2)
            == r_centrality_ged(g1, g2, 0.5, "degree").total_cost
        )

    def test_kstar_zero_equals_ged(self):
        g1 = random_graph(5, 0.5, seed=3)
        g2 = random_graph(4, 0.5, seed=4)
        assert MatcherSpec("kstar-ged(0)").distance(g1, g2) == MatcherSpec(
            "ged"
        ).distance(g1, g2)

    def test_approximations_upper_bound_exact(self):
        g1 = random_graph(6, 0.5, seed=5)
        g2 = random_graph(6, 0.4, seed=6)
        exact = MatcherSpec("ged").distance(g1, g2)
        assert MatcherSpec("ged-beam(1)").distance(g1, g2) >= exact - 1e-12
        assert MatcherSpec("bipartite").distance(g1, g2) >= exact - 1e-12

    def test_cost_params_flow_through(self):
        one = AttributedGraph([0])
        empty = AttributedGraph([])
        assert MatcherSpec("ged").distance(one, empty) == 1.0
        costly = MatcherSpec("ged", EditCostParams(x_node=2.5))
        assert costly.distance(one, empty) == 2.5

    def test_geometric_matches_weighted_distance(self):
        g1 = edge_graph((0, 0), (1, 0))
        g2 = edge_graph((0, 1), (2, 1))
        w = DistanceWeights(0.35, 0.23, 0.11, 0.31)
        expect = geometric_graph_distance(g1, g2, w)
        assert MatcherSpec("geometric(0.35,0.23,0.11,0.31)").distance(g1, g2) == expect

    def test_geometric_requires_coordinates(self):
        with pytest.raises(ValueError):
            MatcherSpec("geometric(1,1,1,1)").distance(
                AttributedGraph([0]), AttributedGraph([0])
            )

    def test_method_list_splitting(self):
        text = "ged, kstar-ged(1,10) ,geometric(1,1,1,1,align),bipartite,"
        assert split_method_list(text) == [
            "ged",
            "kstar-ged(1,10)",
            "geometric(1,1,1,1,align)",
            "bipartite",
        ]


class TestKnnClassify:
    def test_argument_validation(self):
        split = split_of("train", point_instance(0, "a", "x"))
        with pytest.raises(ValueError):
            knn_classify(split, split, MatcherSpec("ged"), 0)
        with pytest.raises(ValueError):
            knn_classify(DatasetSplit("train", ()), split, MatcherSpec("ged"), 1)

    def test_identical_corpora_classify_perfectly(self):
        # zero self-distance makes leave-one-in 1-NN exact for any metric
        corpus = synthesize_corpus(classes=3, per_class=3, sigma=0.05, seed=17)
        test = DatasetSplit("test", corpus.instances)
        for method in ("ged", "geometric(1,1,1,1)", "kstar-ged(1)"):
            result = knn_classify(corpus, test, MatcherSpec(method), 1, audit=True)
            assert result.mean_accuracy == 100.0
            assert set(result.per_class_accuracy.values()) == {100.0}

    def test_zero_sigma_corpus_with_fresh_jitter_stream(self):
        train = synthesize_corpus(classes=4, per_class=3, sigma=0.0, seed=5)
        test = synthesize_corpus(
            classes=4, per_class=2, sigma=0.0, seed=5, jitter_seed=9, name="test"
        )
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 1)
        assert result.mean_accuracy == 100.0
        assert result.pair_count == 12 * 8
        assert result.failures == ()

    def test_majority_vote(self):
        train = split_of(
            "train",
            point_instance(1.0, "a", "a1"),
            point_instance(1.0, "b", "b1"),
            point_instance(2.0, "a", "a2"),
        )
        test = split_of("test", point_instance(0.0, "a", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 3)
        assert result.mean_accuracy == 100.0  # votes a:2 b:1

    def test_vote_tie_falls_to_summed_distance(self):
        train = split_of(
            "train",
            point_instance(2.0, "a", "a1"),
            point_instance(1.0, "b", "b1"),
        )
        test = split_of("test", point_instance(0.0, "b", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 2)
        assert result.mean_accuracy == 100.0  # 1 vote each; b is nearer in sum

    def test_full_tie_falls_to_lexicographic_class(self):
        train = split_of(
            "train",
            point_instance(1.0, "b", "b1"),
            point_instance(-1.0, "a", "a1"),
        )
        test = split_of("test", point_instance(0.0, "a", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 2)
        assert result.mean_accuracy == 100.0

    def test_k_beyond_train_size(self):
        train = split_of("train", point_instance(1.0, "a", "a1"))
        test = split_of("test", point_instance(0.0, "a", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 7)
        assert result.mean_accuracy == 100.0

    def test_failed_pairs_recorded_and_skipped(self):
        flat = LabeledInstance(AttributedGraph([0], node_labels={0: "far"}), "b", "flat")
        train = split_of("train", point_instance(1.0, "a", "a1"), flat)
        test = split_of("test", point_instance(0.0, "a", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 1)
        assert result.mean_accuracy == 100.0  # classified from the surviving pair
        assert len(result.failures) == 1
        assert result.pair_count == 1

    def test_all_pairs_failing_counts_as_miss(self):
        train = split_of(
            "train", LabeledInstance(AttributedGraph([0]), "a", "plain")
        )
        test = split_of("test", point_instance(0.0, "a", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 1)
        assert result.mean_accuracy == 0.0
        assert result.pair_count == 0

    def test_parallel_equals_serial(self):
        train = synthesize_corpus(classes=3, per_class=2, sigma=0.02, seed=8)
        test = synthesize_corpus(
            classes=3, per_class=2, sigma=0.02, seed=8, jitter_seed=2, name="test"
        )
        serial = knn_classify(train, test, MatcherSpec("kstar-ged(1)"), 1)
        parallel = knn_classify(train, test, MatcherSpec("kstar-ged(1)"), 1, jobs=2)
        assert serial.mean_accuracy == parallel.mean_accuracy
        assert serial.per_class_accuracy == parallel.per_class_accuracy

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            BenchResult(MatcherSpec("ged"), {}, 101.0, 0.0, 0)
        with pytest.raises(ValueError):
            BenchResult(MatcherSpec("ged"), {"a": -1.0}, 50.0, 0.0, 0)
        with pytest.raises(ValueError):
            BenchResult(MatcherSpec("ged"), {}, 50.0, -0.1, 0)


class TestBenchmark:
    def test_empty_pair_list(self):
        summary = benchmark([], MatcherSpec("ged"))
        assert summary == TimingSummary("ged", 0, 0.0, 0.0, 0.0)

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            benchmark([], MatcherSpec("ged"), repetitions=0)

    def test_summary_statistics(self):
        graphs = [random_graph(4, 0.5, seed=s) for s in range(5)]
        pairs = list(zip(graphs, graphs[1:]))
        summary = benchmark(pairs, MatcherSpec("ged"), repetitions=2)
        assert summary.pair_count == 4
        assert 0.0 < summary.min_ms <= summary.median_ms
        assert summary.min_ms <= summary.mean_ms
        assert len(summary.distances) == 4

    def test_distances_match_direct_evaluation(self):
        graphs = [random_graph(4, 0.5, seed=s) for s in range(4)]
        pairs = list(zip(graphs, graphs[1:]))
        matcher = MatcherSpec("kstar-ged(1)")
        summary = benchmark(pairs, matcher)
        assert summary.distances == tuple(matcher.distance(a, b) for a, b in pairs)


class TestTuneWeights:
    def ladder_corpus(self):
        # one arena per rung: the vertical train edge wins on the vertex term,
        # the horizontal train edge above wins on angle and length; higher w1
        # flips arenas one by one
        train, val = [], []
        for j, h in enumerate((2.690, 2.547, 2.439, 2.345)):
            cx = 100.0 * j
            train.append(
                LabeledInstance(edge_graph((cx, 0.0), (cx, 3.0)), "a", f"a{j}")
            )
            train.append(
                LabeledInstance(edge_graph((cx, h), (cx + 1.0, h)), "b", f"b{j}")
            )
            val.append(
                LabeledInstance(edge_graph((cx, 0.1), (cx + 1.0, 0.1)), "a", f"v{j}")
            )
        return split_of("train", *train), split_of("validation", *val)

    def test_argument_validation(self):
        split = split_of("train", point_instance(0, "a", "x"))
        with pytest.raises(ValueError):
            tune_weights(DatasetSplit("train", ()), split)
        with pytest.raises(ValueError):
            tune_weights(split, split, delta=0.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_non_finite_delta_rejected(self, delta):
        split = split_of("train", point_instance(0, "a", "x"))
        with pytest.raises(ValueError, match="finite"):
            tune_weights(split, split, delta=delta)

    def test_start_at_optimum_returns_start(self):
        corpus = synthesize_corpus(classes=3, per_class=2, sigma=0.0, seed=4)
        validation = synthesize_corpus(
            classes=3, per_class=2, sigma=0.0, seed=4, jitter_seed=1, name="validation"
        )
        start = DistanceWeights(0.4, 0.2, 0.2, 0.2)
        assert tune_weights(corpus, validation, start, delta=0.05) == start

    def test_start_normalized_onto_simplex(self):
        corpus = synthesize_corpus(classes=2, per_class=2, sigma=0.0, seed=4)
        validation = synthesize_corpus(
            classes=2, per_class=2, sigma=0.0, seed=4, jitter_seed=1, name="validation"
        )
        tuned = tune_weights(corpus, validation, DistanceWeights(2.0, 1.0, 0.5, 0.5))
        assert sum(tuned.as_tuple()) == pytest.approx(1.0)
        assert tuned.w1 == pytest.approx(0.5)

    def test_vertex_weight_climbs_when_edges_mislead(self):
        train, val = self.ladder_corpus()
        tuned = tune_weights(train, val, delta=0.1)
        assert tuned.w1 > 0.25
        assert tuned.w1 == max(tuned.as_tuple())
        assert sum(tuned.as_tuple()) == pytest.approx(1.0)

    def test_accuracy_never_below_start(self):
        train, val = self.ladder_corpus()
        start = DistanceWeights(0.25, 0.25, 0.25, 0.25)
        tuned = tune_weights(train, val, start, delta=0.1)

        def accuracy(weights):
            correct = 0
            for inst in val.instances:
                best = min(
                    train.instances,
                    key=lambda o: (
                        geometric_graph_distance(inst.graph, o.graph, weights),
                        o.source_id,
                    ),
                )
                correct += best.class_label == inst.class_label
            return correct / len(val.instances)

        assert accuracy(tuned) >= accuracy(start)
        assert accuracy(tuned) == 1.0

    def test_deterministic(self):
        train, val = self.ladder_corpus()
        assert tune_weights(train, val, delta=0.1) == tune_weights(train, val, delta=0.1)
