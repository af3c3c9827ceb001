"""Matcher specs, kNN classification, timing, and weight search."""

from __future__ import annotations

import math

import pytest

import pickle
import random

from graphmatch import bench, centrality, contraction, editdist, geometric
from graphmatch.bench import (
    BenchResult,
    MatcherSpec,
    TimingSummary,
    _normalized,
    _vote,
    benchmark,
    knn_classify,
    split_method_list,
    tune_weights,
)
from graphmatch.centrality import MEASURES, r_centrality_ged, t_centrality_ged
from graphmatch.contraction import hged, k_star_ged
from graphmatch.datasets import DatasetSplit, LabeledInstance, synthesize_corpus
from graphmatch.editdist import EditCostParams, ged, ged_bipartite
from graphmatch.geometric import (
    DistanceWeights,
    GeometricRows,
    _edge_assignment,
    _has_alignable_edge,
    geometric_graph_distance,
    geometric_rows,
    graph_alignment,
    pad_to_equal,
    vertex_distance,
)
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
    "bipartite(1)",
    "hged(1,2)",
    "kstar-ged",
    "kstar-ged(-1)",
    "kstar-ged(1,0)",
    "r-ged(0.5)",
    "r-ged(x,degree)",
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


class MemoryErrorOnLargeTrain(MatcherSpec):
    """``ged`` that runs out of memory on every pair whose train graph has
    more than one vertex."""

    def distance(self, g1, g2):
        if self.prepare(g2).data.n > 1:
            raise MemoryError
        return super().distance(g1, g2)


class TestMatcherSpec:
    def test_valid_forms_parse(self):
        for method in VALID_METHODS:
            MatcherSpec(method)

    def test_invalid_forms_rejected(self):
        for method in INVALID_METHODS:
            with pytest.raises(ValueError):
                MatcherSpec(method)

    @pytest.mark.parametrize("name", bench.METHODS)
    def test_wrong_argument_count_names_the_form(self, name):
        form, fewest, most = bench._FORMS[name]
        for count in (most + 1, fewest - 1) if fewest > 0 else (most + 1,):
            method = f"{name}({','.join(['1'] * count)})" if count else name
            with pytest.raises(ValueError) as info:
                MatcherSpec(method)
            assert form in str(info.value), method

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

    @pytest.mark.parametrize("k", [1.5, 1.0, "1"])
    def test_non_integer_k_rejected_before_any_graph_is_prepared(self, monkeypatch, k):
        calls, prepare = [], MatcherSpec.prepare

        def counting_prepare(matcher, g):
            calls.append(g)
            return prepare(matcher, g)

        monkeypatch.setattr(MatcherSpec, "prepare", counting_prepare)
        split = split_of("train", point_instance(0, "a", "x"), point_instance(1, "b", "y"))
        with pytest.raises(ValueError, match="k must be an integer"):
            knn_classify(split, split, MatcherSpec("geometric(1,1,1,1)"), k)
        assert calls == []

    def test_identical_corpora_classify_perfectly(self):
        # zero self-distance makes leave-one-in 1-NN exact for any metric
        corpus = synthesize_corpus(classes=3, per_class=3, sigma=0.05, seed=17)
        test = DatasetSplit("test", corpus.instances)
        for method in ("ged", "geometric(1,1,1,1)", "kstar-ged(1)"):
            result = knn_classify(corpus, test, MatcherSpec(method), 1)
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

    def test_every_prediction_is_audited(self, monkeypatch):
        corpus = synthesize_corpus(classes=2, per_class=2, sigma=0.05, seed=17)
        test = DatasetSplit("test", corpus.instances)
        monkeypatch.setattr(bench, "_vote", lambda row, train, k: "no such class")
        with pytest.raises(RuntimeError, match="audit mismatch"):
            knn_classify(corpus, test, MatcherSpec("geometric(1,1,1,1)"), 1)

    def test_equal_distances_rank_by_train_index(self):
        # both train points lie at distance 1; at k = 1 the vote and its audit
        # both take the first by index, not the first class by name
        train = split_of(
            "train",
            point_instance(1.0, "b", "b1"),
            point_instance(-1.0, "a", "a1"),
        )
        test = split_of("test", point_instance(0.0, "b", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 1)
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

    def test_memory_error_fails_its_pair_alone(self):
        train = split_of(
            "train",
            point_instance(1.0, "a", "a1"),
            LabeledInstance(edge_graph((0.0, 0.0), (1.0, 0.0)), "b", "big"),
            point_instance(3.0, "b", "b1"),
        )
        test = split_of(
            "test", point_instance(0.0, "a", "t1"), point_instance(2.9, "b", "t2")
        )
        result = knn_classify(train, test, MemoryErrorOnLargeTrain("ged"), 1)
        assert result.failures == ("t1 vs big: MemoryError", "t2 vs big: MemoryError")
        assert result.pair_count == 4

    def test_all_pairs_failing_counts_as_miss(self):
        train = split_of(
            "train", LabeledInstance(AttributedGraph([0]), "a", "plain")
        )
        test = split_of("test", point_instance(0.0, "a", "t"))
        result = knn_classify(train, test, MatcherSpec("geometric(1,1,1,1)"), 1)
        assert result.mean_accuracy == 0.0
        assert result.pair_count == 0

    def test_unpreparable_graphs_fail_each_pair_with_todays_message(self):
        message = "geometric distance needs graphs with coordinates"
        plain = AttributedGraph([0])
        train = split_of(
            "train",
            point_instance(1.0, "a", "a1"),
            LabeledInstance(plain, "b", "flat"),
            point_instance(3.0, "b", "b1"),
        )
        test = split_of(
            "test",
            point_instance(0.0, "a", "t1"),
            LabeledInstance(plain, "a", "t2"),
            point_instance(2.9, "b", "t3"),
        )
        expected = (
            f"t1 vs flat: {message}",
            *(f"t2 vs {train_id}: {message}" for train_id in ("a1", "flat", "b1")),
            f"t3 vs flat: {message}",
        )
        for method in ("geometric(1,1,1,1)", "geometric(1,1,1,1,align)"):
            result = knn_classify(train, test, MatcherSpec(method), 1)
            assert result.failures == expected
            assert result.pair_count == 4
            assert result.per_class_accuracy == {"a": 50.0, "b": 100.0}

    @pytest.mark.parametrize(
        "module, name, method",
        [
            (contraction, "k_star_node_contraction", "kstar-ged(1)"),
            (contraction, "k_star_node_contraction", "kstar-ged(2,3)"),
            (contraction, "path_contract", "hged"),
            (centrality, "centrality", "r-ged(0.5,betweenness)"),
            (centrality, "centrality", "t-ged(2,pagerank)"),
            (geometric, "geometric_rows", "geometric(1,1,1,1)"),
            (geometric, "geometric_rows", "geometric(1,1,1,1,align)"),
        ],
    )
    def test_each_graph_prepared_once_per_call(self, monkeypatch, module, name, method):
        train = synthesize_corpus(classes=2, per_class=3, sigma=0.05, seed=11)
        test = synthesize_corpus(
            classes=2, per_class=2, sigma=0.05, seed=11, jitter_seed=4, name="test"
        )
        graphs = [inst.graph for inst in (*train.instances, *test.instances)]
        calls = []
        original = getattr(module, name)

        def counted(g, *args):
            calls.append(id(g))
            return original(g, *args)

        monkeypatch.setattr(module, name, counted)
        matcher = MatcherSpec(method)
        first = knn_classify(train, test, matcher, 1)
        assert sorted(calls) == sorted(map(id, graphs))
        # nothing is kept across calls: the second call prepares again
        second = knn_classify(train, test, matcher, 1)
        assert sorted(calls) == sorted(map(id, graphs + graphs))
        assert first.per_class_accuracy == second.per_class_accuracy

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            BenchResult(MatcherSpec("ged"), {}, 101.0, 0.0, 0)
        with pytest.raises(ValueError):
            BenchResult(MatcherSpec("ged"), {"a": -1.0}, 50.0, 0.0, 0)
        with pytest.raises(ValueError):
            BenchResult(MatcherSpec("ged"), {}, 50.0, -0.1, 0)


EDIT_SEARCH_METHODS = {
    "ged": lambda g: g,
    "ged-beam(2)": lambda g: g,
    "hged": lambda g: contraction.path_contract(g)[0],
    "kstar-ged(1)": lambda g: contraction.k_star_node_contraction(g, 1)[0],
    "r-ged(0.5,betweenness)":
        lambda g: centrality.r_centrality_node_contraction(g, 0.5, "betweenness")[0],
    "t-ged(2,pagerank)": lambda g: centrality.t_centrality_node_contraction(g, 2, "pagerank")[0],
}


class TestEditTablesPreparation:
    """The search matchers prepare each graph's ``EditTables`` once per kNN
    call, and each pair step is one ``bench.ged`` call on two of them, as
    perfbench's tracer, which wraps that name, expects."""

    @staticmethod
    def splits():
        train = synthesize_corpus(classes=2, per_class=3, sigma=0.05, seed=13)
        test = synthesize_corpus(
            classes=2, per_class=2, sigma=0.05, seed=13, jitter_seed=5, name="test"
        )
        return train, test

    @pytest.mark.parametrize("method", EDIT_SEARCH_METHODS)
    def test_each_graph_tabled_once_per_call(self, monkeypatch, method):
        train, test = self.splits()
        instances = (*train.instances, *test.instances)
        tabled = []
        original = editdist.EditTables.__init__

        def counted(self, graph, **fields):
            tabled.append(graph)
            original(self, graph, **fields)

        monkeypatch.setattr(editdist.EditTables, "__init__", counted)
        prepared = EDIT_SEARCH_METHODS[method]
        expected = sorted((h.n, h.m) for h in (prepared(inst.graph) for inst in instances))
        matcher = MatcherSpec(method)
        knn_classify(train, test, matcher, 1)
        assert sorted((g.n, g.m) for g in tabled) == expected
        if method.startswith("ged"):
            assert {id(g) for g in tabled} == {id(inst.graph) for inst in instances}
        # nothing is kept across calls: the second call builds them again
        knn_classify(train, test, matcher, 1)
        assert len(tabled) == 2 * len(instances)

    @pytest.mark.parametrize("method", EDIT_SEARCH_METHODS)
    def test_pair_step_is_one_bench_ged_call(self, monkeypatch, method):
        train, test = self.splits()
        calls = []
        real = bench.ged

        def recording(*args, **kwargs):
            calls.append((len(args), kwargs, args[0].n, args[0].m, args[1].n, args[1].m))
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "ged", recording)
        knn_classify(train, test, MatcherSpec(method), 1)
        prepared = EDIT_SEARCH_METHODS[method]
        sizes = [(h.n, h.m) for h in (prepared(inst.graph) for inst in test.instances)]
        train_sizes = [(h.n, h.m) for h in (prepared(inst.graph) for inst in train.instances)]
        width = {"beam_width": 2 if method == "ged-beam(2)" else None}
        assert calls == [(3, width, *a, *b) for a in sizes for b in train_sizes]


def labelled_graph(n, p, seed):
    """A G(n, p) graph with symbol node and edge labels."""
    rng = random.Random(seed)
    g = random_graph(n, p, seed=seed)
    return AttributedGraph(
        g.vertices,
        g.edges,
        {v: rng.choice("CNO") for v in g.vertices},
        {e: rng.choice(("single", "double")) for e in g.edges},
    )


def with_empty_edges(g, count):
    return GeometricGraph(
        g.vertices, g.edges, g.coords, g.node_labels, g.edge_labels, empty_edges=count
    )


def graph_pairs(graphs):
    """Consecutive pairs both ways round, so that either side gets padded."""
    pairs = list(zip(graphs, graphs[1:]))
    return pairs + [(b, a) for a, b in pairs]


def letter_graphs(seed):
    corpus = synthesize_corpus(classes=4, per_class=2, sigma=0.1, seed=seed, n_range=(3, 6))
    return [inst.graph for inst in corpus.instances]


def molecule_graphs(seed):
    corpus = synthesize_corpus(classes=3, per_class=2, sigma=0.1, seed=seed, n_range=(14, 18))
    return [inst.graph for inst in corpus.instances]


def reference_geometric(g1, g2, weights, align):
    """The weighted distance through padded graphs, vertex_distance and
    _edge_assignment, as computed before graphs were prepared."""
    p1, p2 = pad_to_equal(g1, g2)
    if align and _has_alignable_edge(p1) and _has_alignable_edge(p2):
        p2 = graph_alignment(p1, p2, "edm")
    return weights.w1 * vertex_distance(p1, p2) + _edge_assignment(p1, p2, weights).total_cost


def wrapper_distance(method, p, a, b):
    """The distance the public module function of ``method`` returns."""
    name, _, rest = method.partition("(")
    args = rest.rstrip(")").split(",") if rest else []
    if name in ("ged", "ged-beam"):
        return ged(a, b, p, beam_width=int(args[0]) if args else None).total_cost
    if name == "bipartite":
        return ged_bipartite(a, b, p).total_cost
    if name == "hged":
        return hged(a, b, p, beam_width=int(args[0]) if args else None).total_cost
    if name == "kstar-ged":
        w = int(args[1]) if len(args) == 2 else None
        return k_star_ged(a, b, int(args[0]), p, beam_width=w).total_cost
    if name == "r-ged":
        return r_centrality_ged(a, b, float(args[0]), args[1], p).total_cost
    if name == "t-ged":
        return t_centrality_ged(a, b, int(args[0]), args[1], p).total_cost
    weights = DistanceWeights(*map(float, args[:4]))
    return reference_geometric(a, b, weights, align=len(args) == 5)


GEOMETRIC_METHODS = (
    "geometric(1,1,1,1)",
    "geometric(0.35,0.23,0.11,0.31)",
    "geometric(1,1,1,0)",
    "geometric(0,1,1,1,align)",
    "geometric(0.35,0.23,0.11,0.31,align)",
)

# exact searches run on letter-sized graphs only
LETTER_METHODS = (
    "ged",
    "ged-beam(3)",
    "bipartite",
    "hged",
    "hged(2)",
    *(f"kstar-ged({k})" for k in range(4)),
    "kstar-ged(1,2)",
    *(f"r-ged(0.5,{m})" for m in MEASURES),
    *(f"t-ged(2,{m})" for m in MEASURES),
)

MOLECULE_METHODS = (
    "ged-beam(2)",
    "bipartite",
    "hged(2)",
    *(f"kstar-ged({k},2)" for k in range(4)),
)


class TestPreparedMatchers:
    """Prepared graphs give the public functions' distances bit for bit."""

    def check(self, methods, pairs, params=EditCostParams()):
        for method in methods:
            spec = MatcherSpec(method, params)
            for a, b in pairs:
                expected = wrapper_distance(method, params, a, b)
                pa, pb = spec.prepare(a), spec.prepare(b)
                assert spec.distance(pa, pb) == expected, (method, a, b)
                assert spec.distance(a, b) == expected, (method, a, b)
                assert spec.distance(pa, b) == expected, (method, a, b)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_letter_sized_graphs(self, seed):
        graphs = letter_graphs(seed)
        self.check(LETTER_METHODS + GEOMETRIC_METHODS, graph_pairs(graphs))

    def test_labelled_graphs_and_cost_params(self):
        graphs = [labelled_graph(n, 0.35, seed=n) for n in (3, 4, 5, 6, 6)]
        graphs.append(AttributedGraph([]))
        params = EditCostParams(2.0, 1.5, 0.5, 1.0, 0.25)
        self.check(LETTER_METHODS, graph_pairs(graphs), params)

    def test_molecule_sized_graphs(self):
        graphs = molecule_graphs(3)
        self.check(MOLECULE_METHODS + GEOMETRIC_METHODS, graph_pairs(graphs))
        self.check(
            (f"t-ged(12,{m})" for m in MEASURES), graph_pairs(graphs[:3])
        )

    def test_geometric_padding_and_empty_edges(self):
        graphs = letter_graphs(5) + molecule_graphs(5)[:2]
        padded = [with_empty_edges(g, k) for g, k in zip(graphs, (0, 3, 1, 0, 5, 2, 0, 1, 4, 0))]
        point = GeometricGraph([7], coords={7: (0.25, -1.5)})
        edgeless = GeometricGraph([0, 1, 2], coords={0: (0, 0), 1: (2, 1), 2: (-1, 4)})
        empty = GeometricGraph([])
        pairs = graph_pairs(padded + [point, edgeless, empty, padded[0]])
        pairs += [(g, g) for g in padded[:3]]
        self.check(GEOMETRIC_METHODS, pairs)
        for a, b in pairs:
            for method in GEOMETRIC_METHODS:
                weights = DistanceWeights(*map(float, method[10:-1].split(",")[:4]))
                align = method.endswith("align)")
                assert geometric_graph_distance(a, b, weights, align) == reference_geometric(
                    a, b, weights, align
                )

    def test_prepare_is_idempotent_and_spec_bound(self):
        g1, g2 = letter_graphs(7)[:2]
        spec = MatcherSpec("kstar-ged(1)")
        prepared = spec.prepare(g1)
        assert spec.prepare(prepared) is prepared
        assert MatcherSpec("kstar-ged(1)").prepare(prepared) is prepared
        with pytest.raises(ValueError, match="prepared for"):
            MatcherSpec("kstar-ged(2)").distance(prepared, g2)
        with pytest.raises(ValueError, match="prepared for"):
            MatcherSpec("kstar-ged(1)", EditCostParams(x_node=2.0)).prepare(prepared)

    def test_prepared_graphs_pickle(self):
        g1, g2 = molecule_graphs(8)[:2]
        for method in MOLECULE_METHODS + GEOMETRIC_METHODS + ("r-ged(0.5,eigenvector)",):
            spec = MatcherSpec(method)
            pa, pb = spec.prepare(g1), spec.prepare(g2)
            copies = pickle.loads(pickle.dumps((spec, pa, pb)))
            if method.startswith("r-ged"):
                continue  # exact search on 16-vertex graphs: too slow here
            assert copies[0].distance(copies[1], copies[2]) == spec.distance(pa, pb)

    def test_geometric_needs_coordinates_at_prepare(self):
        for method in GEOMETRIC_METHODS[:3]:
            with pytest.raises(ValueError, match="coordinates"):
                MatcherSpec(method).prepare(AttributedGraph([0]))


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
        with pytest.raises(ValueError, match="positive sum"):
            tune_weights(split, split, DistanceWeights(0.0, 0.0, 0.0, 0.0))

    def test_moves_that_zero_every_weight_are_skipped(self):
        # from (1, 0, 0, 0), the -1 move on w1 leaves no weight to normalize
        split = split_of("train", point_instance(0, "a", "x"), point_instance(5, "b", "y"))
        start = DistanceWeights(1.0, 0.0, 0.0, 0.0)
        assert tune_weights(split, split, start, delta=1.0) == start

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


def reference_tune(train, validation, start=DistanceWeights(0.25, 0.25, 0.25, 0.25),
                   delta=0.02, align=False):
    """tune_weights as it was before graphs were prepared: every pair passes
    its two graphs straight to geometric_graph_distance."""

    def accuracy(weights):
        correct = 0
        for inst in validation.instances:
            row = [
                geometric_graph_distance(inst.graph, other.graph, weights, align=align)
                for other in train.instances
            ]
            if _vote(row, train, 1) == inst.class_label:
                correct += 1
        return correct / len(validation.instances)

    current = _normalized(start.as_tuple())
    current_accuracy = accuracy(current)
    while True:
        best_move = None
        for i in range(4):
            for step in (delta, -delta):
                moved = list(current.as_tuple())
                moved[i] += step
                if moved[i] < 0:
                    continue
                try:
                    candidate = _normalized(moved)
                except ValueError:
                    continue
                score = accuracy(candidate)
                if score > current_accuracy and (best_move is None or score > best_move[0]):
                    best_move = (score, candidate)
        if best_move is None:
            return current
        current_accuracy, current = best_move


def tune_corpus(seed):
    """Noisy train and validation splits whose graphs differ in vertex and
    edge counts (so pairs pad either side), some with explicit empty edge
    slots, plus a point graph and an edgeless graph on each side."""
    train = synthesize_corpus(classes=4, per_class=2, sigma=0.5, seed=seed, n_range=(3, 6))
    validation = synthesize_corpus(
        classes=4, per_class=2, sigma=0.5, seed=seed, n_range=(3, 6),
        jitter_seed=seed + 50, name="validation",
    )
    point = GeometricGraph([7], coords={7: (0.25, -1.5)})
    edgeless = GeometricGraph([0, 1, 2], coords={0: (0, 0), 1: (2, 1), 2: (-1, 4)})

    def varied(split, empty_edges, extra):
        labels = split.classes
        instances = [
            LabeledInstance(with_empty_edges(inst.graph, k), inst.class_label, inst.source_id)
            for inst, k in zip(split.instances, empty_edges)
        ]
        instances += [
            LabeledInstance(g, labels[i % len(labels)], f"extra-{i}") for i, g in enumerate(extra)
        ]
        return split_of(split.name, *instances)

    return (
        varied(train, (0, 2, 1, 0, 3, 0, 0, 1), (point, edgeless)),
        varied(validation, (1, 0, 2, 0, 0, 0, 1, 0), (edgeless, point)),
    )


class TestTuneOnPreparedRows:
    """tune_weights prepares each graph once per call and returns what the
    one-graph-pair-at-a-time loop returns."""

    def counters(self, monkeypatch):
        distance_args, prepared = [], []
        distance, rows = bench.geometric_graph_distance, geometric.geometric_rows

        def counted_distance(a, b, *args, **kwargs):
            distance_args.append((a, b))
            return distance(a, b, *args, **kwargs)

        def counted_rows(g):
            prepared.append(id(g))
            return rows(g)

        monkeypatch.setattr(bench, "geometric_graph_distance", counted_distance)
        monkeypatch.setattr(geometric, "geometric_rows", counted_rows)
        return distance_args, prepared

    def test_each_graph_prepared_once_per_call(self, monkeypatch):
        train, validation = tune_corpus(3)
        graphs = [inst.graph for inst in (*train.instances, *validation.instances)]
        distance_args, prepared = self.counters(monkeypatch)
        first = tune_weights(train, validation, delta=0.2)
        pairs = len(train.instances) * len(validation.instances)
        assert distance_args and len(distance_args) % pairs == 0
        assert sorted(prepared) == sorted(map(id, graphs))
        assert all(
            isinstance(a, GeometricRows) and isinstance(b, GeometricRows)
            for a, b in distance_args
        )
        # nothing is kept across calls: the second call prepares again
        assert tune_weights(train, validation, delta=0.2) == first
        assert sorted(prepared) == sorted(map(id, graphs + graphs))

    def test_aligned_tune_prepares_each_graph_once(self, monkeypatch):
        train, validation = tune_corpus(2)
        graphs = [inst.graph for inst in (*train.instances, *validation.instances)]
        distance_args, prepared = self.counters(monkeypatch)
        tune_weights(train, validation, delta=0.2, align=True)
        pairs = len(train.instances) * len(validation.instances)
        assert distance_args and len(distance_args) % pairs == 0
        assert sorted(prepared) == sorted(map(id, graphs))
        assert all(
            isinstance(a, GeometricRows) and isinstance(b, GeometricRows)
            for a, b in distance_args
        )

    # the search moves off the start on all three seeds unaligned, on 3 and 5 aligned
    @pytest.mark.parametrize("align", [False, True])
    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_equals_graph_pair_loop(self, seed, align):
        train, validation = tune_corpus(seed)
        assert tune_weights(train, validation, delta=0.2, align=align) == reference_tune(
            train, validation, delta=0.2, align=align
        )

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_rows_give_the_graph_distance(self, seed):
        train, validation = tune_corpus(seed)
        weights = DistanceWeights(0.35, 0.23, 0.11, 0.31)
        for inst in validation.instances:
            a = inst.graph
            for other in train.instances:
                b = other.graph
                ra, rb = geometric_rows(a), geometric_rows(b)
                for align in (False, True):
                    expected = reference_geometric(a, b, weights, align)
                    for pair in ((a, b), (ra, rb), (ra, b), (a, rb)):
                        assert geometric_graph_distance(*pair, weights, align=align) == expected


class TestTuneOnWeightFreePairs:
    """tune_weights pads, aligns and solves the vertex assignment once per
    pair; each weight vector then costs one edge-only distance call per pair
    through ``bench.geometric_graph_distance``."""

    ZERO_VERTEX_WEIGHTS = (
        DistanceWeights(0.0, 0.23, 0.11, 0.31),
        DistanceWeights(0.0, 1.0, 1.0, 0.0),
        DistanceWeights(0.0, 1.0, 1.0, 1.0),
    )

    @staticmethod
    def counted_vertex_costs(monkeypatch):
        built = []
        costs = geometric._vertex_cost_matrix

        def counted(c1, c2):
            built.append(len(c1))
            return costs(c1, c2)

        monkeypatch.setattr(geometric, "_vertex_cost_matrix", counted)
        return built

    @pytest.mark.parametrize("align", [False, True])
    def test_one_edge_only_call_per_weight_vector_and_pair(self, monkeypatch, align):
        train, validation = tune_corpus(3)
        calls, evaluated = [], []
        distance, accuracy = bench.geometric_graph_distance, bench._weighted_accuracy

        def counted_distance(a, b, weights=DistanceWeights(), align=False):
            calls.append((a, b, weights, align))
            return distance(a, b, weights, align=align)

        def counted_accuracy(*args):
            evaluated.append(args[-1])
            return accuracy(*args)

        monkeypatch.setattr(bench, "geometric_graph_distance", counted_distance)
        monkeypatch.setattr(bench, "_weighted_accuracy", counted_accuracy)
        tune_weights(train, validation, delta=0.2, align=align)
        pairs = len(train.instances) * len(validation.instances)
        assert len(evaluated) > 1
        assert len(calls) == len(evaluated) * pairs
        for k, (a, b, weights, aligned) in enumerate(calls):
            assert isinstance(a, GeometricRows) and isinstance(b, GeometricRows)
            assert a.coords.shape == b.coords.shape and a.edges.shape == b.edges.shape
            assert not aligned
            assert weights == DistanceWeights(0.0, *evaluated[k // pairs].as_tuple()[1:])

    @pytest.mark.parametrize("align", [False, True])
    def test_pair_work_runs_once_per_pair(self, monkeypatch, align):
        train, validation = tune_corpus(2)
        built = self.counted_vertex_costs(monkeypatch)
        aligned = []
        alignment = geometric.graph_alignment
        monkeypatch.setattr(
            geometric, "graph_alignment", lambda *args: aligned.append(1) or alignment(*args)
        )
        tune_weights(train, validation, delta=0.2, align=align)
        pairs = len(train.instances) * len(validation.instances)
        assert len(built) == pairs
        assert (0 < len(aligned) <= pairs) if align else not aligned

    @pytest.mark.parametrize("align", [False, True])
    def test_rescored_pairs_equal_the_full_distance(self, align):
        train, validation = tune_corpus(5)
        rows = [[geometric_rows(i.graph) for i in s.instances] for s in (train, validation)]
        pairs = bench._weight_free_pairs(*rows, align)
        for weights in (DistanceWeights(0.35, 0.23, 0.11, 0.31), DistanceWeights(1, 1, 1, 1)):
            edge_weights = DistanceWeights(0.0, *weights.as_tuple()[1:])
            for inst, row in zip(validation.instances, pairs):
                for other, (r1, r2, vd) in zip(train.instances, row):
                    got = weights.w1 * vd + geometric_graph_distance(r1, r2, edge_weights)
                    assert got == geometric_graph_distance(
                        inst.graph, other.graph, weights, align=align
                    )

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_zero_vertex_weight_builds_no_vertex_costs(self, monkeypatch, seed):
        train, validation = tune_corpus(seed)
        built = self.counted_vertex_costs(monkeypatch)
        for inst in validation.instances:
            for other in train.instances:
                a, b = inst.graph, other.graph
                ra, rb = geometric_rows(a), geometric_rows(b)
                for align in (False, True):
                    for weights in self.ZERO_VERTEX_WEIGHTS:
                        expected = reference_geometric(a, b, weights, align)
                        built.clear()
                        assert geometric_graph_distance(a, b, weights, align=align) == expected
                        assert geometric_graph_distance(ra, rb, weights, align=align) == expected
                        assert not built
