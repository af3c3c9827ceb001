"""Exact, beam and bipartite edit distance against a brute-force oracle."""

from __future__ import annotations

import heapq
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from graphmatch import editdist
from graphmatch.contraction import hged, k_star_ged
from graphmatch.datasets import synthesize_corpus
from graphmatch.editdist import (
    DEFAULT_PARAMS,
    _ExactContext,
    _SearchContext,
    _price,
    EditCostParams,
    EditOp,
    EditPath,
    edit_tables,
    ged,
    ged_bipartite,
    label_distance,
    path_from_mapping,
)
from graphmatch.graphs import AttributedGraph, canonical_edge, random_graph


# -- oracle --------------------------------------------------------------


def _dist(a, b):
    if a is None and b is None:
        return 0.0
    if isinstance(a, tuple) and isinstance(b, tuple):
        return math.dist(a, b)
    if isinstance(a, str) and isinstance(b, str):
        return 0.0 if a == b else 1.0
    return 1.0


def oracle_ged(g1, g2, params=DEFAULT_PARAMS):
    """Minimum edit cost over every injective partial node mapping.

    Prices each mapping from scratch, sharing no code with the search under
    test.  Exponential, fine for the tiny graphs used here.
    """
    v1, v2 = list(g1.vertices), list(g2.vertices)
    best = math.inf
    for k in range(min(len(v1), len(v2)) + 1):
        for kept in itertools.combinations(v1, k):
            for image in itertools.permutations(v2, k):
                m = dict(zip(kept, image))
                cost = sum(
                    params.y_node * _dist(g1.node_label(u), g2.node_label(v))
                    for u, v in m.items()
                )
                cost += params.x_node * (len(v1) - k)
                cost += params.x_node * (len(v2) - k)
                hit = set()
                for a, b in g1.edges:
                    if a in m and b in m and g2.has_edge(m[a], m[b]):
                        f = canonical_edge(m[a], m[b])
                        hit.add(f)
                        cost += params.y_edge * _dist(
                            g1.edge_label(a, b), g2.edge_label(*f)
                        )
                    else:
                        cost += params.x_edge
                cost += params.x_edge * sum(1 for f in g2.edges if f not in hit)
                best = min(best, cost)
    return best


def all_graphs(n):
    """Every unlabeled graph on vertex set 0..n-1, one per edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield AttributedGraph(
            range(n), [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def labeled_graph(rng, n, p):
    """Random graph with coarse grid labels so exact ties do occur."""
    base = random_graph(n, p, seed=rng.randrange(10**9))
    node_labels = {
        v: (rng.randrange(4) / 2.0, rng.randrange(4) / 2.0) for v in base.vertices
    }
    edge_labels = {e: (rng.randrange(4) / 2.0,) for e in base.edges}
    return AttributedGraph(base.vertices, base.edges, node_labels, edge_labels)


def is_same_labeled_graph(g1, g2):
    """Brute-force isomorphism with label equality, for the identity axiom."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    v2 = list(g2.vertices)
    for perm in itertools.permutations(v2):
        m = dict(zip(g1.vertices, perm))
        if any(g1.node_label(u) != g2.node_label(m[u]) for u in g1.vertices):
            continue
        ok = True
        for a, b in g1.edges:
            if not g2.has_edge(m[a], m[b]):
                ok = False
                break
            if g1.edge_label(a, b) != g2.edge_label(m[a], m[b]):
                ok = False
                break
        if ok:
            return True
    return False


# -- unit costs ------------------------------------------------------------


class TestEditCost:
    def test_node_delete_constant(self):
        for kind in ("node_del", "node_ins"):
            assert _price(kind, None, None, DEFAULT_PARAMS) == 1.0
            assert _price(kind, None, None, EditCostParams(x_node=2.5)) == 2.5

    def test_node_substitution_euclidean(self):
        a, b = (0.0, 0.0), (3.0, 4.0)
        assert _price("node_sub", a, b, DEFAULT_PARAMS) == pytest.approx(5.0)
        assert _price("node_sub", a, b, EditCostParams(y_node=0.5)) == pytest.approx(2.5)

    def test_symbolic_substitution(self):
        assert _price("node_sub", "C", "C", DEFAULT_PARAMS) == 0.0
        assert _price("node_sub", "C", "N", DEFAULT_PARAMS) == 1.0
        assert _price("edge_sub", "s", "d", DEFAULT_PARAMS) == 1.0

    def test_empty_labels_substitute_free(self):
        assert _price("node_sub", None, None, DEFAULT_PARAMS) == 0.0

    def test_kind_mismatch_is_maximal(self):
        assert label_distance("C", (1.0,)) == 1.0
        assert label_distance(None, "C") == 1.0

    def test_edge_operations(self):
        p = EditCostParams(x_edge=3.0, y_edge=2.0)
        assert _price("edge_del", None, None, p) == 3.0
        assert _price("edge_ins", None, None, p) == 3.0
        assert _price("edge_sub", (0.0,), (2.0,), p) == 4.0

    def test_path_contraction_cost(self):
        a, b = (0.0, 0.0), (1.0, 0.0)
        assert _price("path_contract", a, b, DEFAULT_PARAMS) == pytest.approx(1.0)
        assert _price("path_contract", a, b, EditCostParams(z_path=0.25)) == pytest.approx(0.25)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _price("edge_flip", None, None, DEFAULT_PARAMS)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            EditCostParams(x_node=-0.1)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            EditCostParams(x_node=float("nan"))
        with pytest.raises(ValueError):
            EditCostParams(x_edge=float("inf"))


# -- path construction -------------------------------------------------------


class TestPathFromMapping:
    def test_total_is_sum_of_op_costs(self):
        rng = random.Random(5)
        for _ in range(20):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 3, 0.5)
            mapping = {0: 1, 2: 0}
            path = path_from_mapping(g1, g2, mapping)
            assert path.total_cost == math.fsum(op.cost for op in path.ops)
            assert path.mapping == mapping

    def test_rejects_non_injective(self):
        g = AttributedGraph(range(2))
        with pytest.raises(ValueError):
            path_from_mapping(g, g, {0: 0, 1: 0})

    @pytest.mark.parametrize("mapping", [{7: 0}, {0: 9}, {0: 0, 7: 1}])
    def test_rejects_vertices_outside_the_graphs(self, mapping):
        # priced as given, {7: 0} would leave g2's vertex 0 neither
        # substituted nor inserted
        k2 = AttributedGraph(range(2), [(0, 1)])
        with pytest.raises(ValueError, match="do not have"):
            path_from_mapping(k2, k2, mapping)

    def test_ops_account_for_every_vertex_and_edge(self):
        g1 = AttributedGraph(range(3), [(0, 1), (1, 2)])
        g2 = AttributedGraph(range(4), [(0, 1), (2, 3)])
        path = path_from_mapping(g1, g2, {0: 0, 1: 1})
        kinds = [op.kind for op in path.ops]
        assert kinds.count("node_sub") == 2
        assert kinds.count("node_del") == 1
        assert kinds.count("node_ins") == 2
        # (0,1) substituted, (1,2) deleted with vertex 2, (2,3) inserted.
        assert kinds.count("edge_sub") == 1
        assert kinds.count("edge_del") == 1
        assert kinds.count("edge_ins") == 1
        assert path.total_cost == pytest.approx(1 + 2 + 1 + 1)

    def test_total_is_a_float_on_an_empty_pair(self):
        e = AttributedGraph([])
        totals = (
            ged(e, e).total_cost,
            ged(e, e, beam_width=2).total_cost,
            hged(e, e).total_cost,
            k_star_ged(e, e, 1).total_cost,
            ged_bipartite(e, e).total_cost,
        )
        assert [type(t) for t in totals] == [float] * 5
        assert totals == (0.0,) * 5

    def test_total_is_the_same_on_every_python_version(self):
        # builtin sum adds these op costs to ...497 up to Python 3.11 and to
        # ...498 from 3.12 on; the correctly rounded sum is ...498
        g1 = AttributedGraph(
            range(3), [(0, 1)], {0: (0.28, 0.76), 1: (0.62, 0.25), 2: (0.91, 0.98)}
        )
        g2 = AttributedGraph(
            range(3), [(1, 2)], {0: (0.81, 0.9), 1: (0.31, 0.73), 2: (0.9, 0.68)}
        )
        paths = (
            ged(g1, g2),
            ged(g1, g2, beam_width=3),
            ged_bipartite(g1, g2),
            path_from_mapping(g1, g2, {0: 1, 1: 2, 2: 0}),
        )
        assert [p.total_cost for p in paths] == [0.6836165560465498] * 4

    def test_empty_mapping_prices_full_rebuild(self):
        g1 = AttributedGraph(range(2), [(0, 1)])
        g2 = AttributedGraph(range(2), [(0, 1)])
        path = path_from_mapping(g1, g2, {})
        assert path.total_cost == pytest.approx(2 + 1 + 2 + 1)


def reference_edit_cost(op, params):
    """The cost model as one dispatch on a built op, kept as the reference."""
    kind = op.kind
    if kind == "node_sub":
        return params.y_node * label_distance(op.source_label, op.target_label)
    if kind in ("node_del", "node_ins"):
        return params.x_node
    if kind == "edge_sub":
        return params.y_edge * label_distance(op.source_label, op.target_label)
    if kind in ("edge_del", "edge_ins"):
        return params.x_edge
    raise ValueError(f"unknown edit op kind {kind!r}")


def reference_path_from_mapping(g1, g2, mapping, params):
    """The two-construction path builder: each op is built once without a
    cost so that the cost model can price it, then again with the cost."""
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("mapping is not injective")
    ops = []

    def add(kind, source=None, target=None, source_label=None, target_label=None):
        cost = reference_edit_cost(
            EditOp(kind, source, target, source_label, target_label), params
        )
        ops.append(EditOp(kind, source, target, source_label, target_label, cost))

    for u in g1.vertices:
        if u in mapping:
            v = mapping[u]
            add("node_sub", u, v, g1.node_label(u), g2.node_label(v))
        else:
            add("node_del", u, source_label=g1.node_label(u))
    used = set(mapping.values())
    for v in g2.vertices:
        if v not in used:
            add("node_ins", target=v, target_label=g2.node_label(v))

    image_edges = set()
    for (a, b) in g1.edges:
        if a in mapping and b in mapping:
            f = canonical_edge(mapping[a], mapping[b])
            if g2.has_edge(*f):
                image_edges.add(f)
                add("edge_sub", (a, b), f, g1.edge_label(a, b), g2.edge_label(*f))
            else:
                add("edge_del", (a, b), source_label=g1.edge_label(a, b))
        else:
            add("edge_del", (a, b), source_label=g1.edge_label(a, b))
    for f in g2.edges:
        if f not in image_edges:
            add("edge_ins", target=f, target_label=g2.edge_label(*f))

    return editdist.EditPath(tuple(ops), math.fsum(op.cost for op in ops))


def random_params(rng):
    """Edit costs drawn per field from zero, a few round values and a draw."""
    return EditCostParams(**{
        name: rng.choice((0.0, 0.5, 1.0, 2.5, rng.uniform(0.0, 3.0)))
        for name in ("x_node", "y_node", "x_edge", "y_edge")
    })


class TestPathFromMappingMatchesReference:
    def test_seeded_partial_mappings(self):
        rng = random.Random(2718)
        makers = (labeled_graph, symbol_graph, random_graph_of)
        kinds = set()
        non_injective = 0
        for _ in range(1500):
            g1 = rng.choice(makers)(rng, rng.randint(0, 6), rng.random())
            g2 = rng.choice(makers)(rng, rng.randint(0, 6), rng.random())
            params = random_params(rng)
            kept = rng.sample(g1.vertices, rng.randint(0, min(g1.n, g2.n)))
            mapping = dict(zip(kept, rng.sample(g2.vertices, len(kept))))
            path = path_from_mapping(g1, g2, mapping, params)
            reference = reference_path_from_mapping(g1, g2, mapping, params)
            assert path.ops == reference.ops
            assert path.total_cost == reference.total_cost
            kinds.update(op.kind for op in path.ops)
            spare = [u for u in g1.vertices if u not in mapping]
            if mapping and spare:
                mapping[rng.choice(spare)] = rng.choice(list(mapping.values()))
                with pytest.raises(ValueError, match="not injective"):
                    path_from_mapping(g1, g2, mapping, params)
                non_injective += 1
        assert len(kinds) == 6
        assert non_injective >= 300


class TestDeferredOps:
    """``path_from_mapping`` prices its walk at once and builds ops on first read."""

    def test_no_op_is_built_until_ops_are_read(self, monkeypatch):
        built = []
        real_init = EditOp.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(EditOp, "__init__", counting)
        rng = random.Random(2719)
        makers = (labeled_graph, symbol_graph, random_graph_of)
        for _ in range(300):
            g1 = rng.choice(makers)(rng, rng.randint(0, 6), rng.random())
            g2 = rng.choice(makers)(rng, rng.randint(0, 6), rng.random())
            params = random_params(rng)
            kept = rng.sample(g1.vertices, rng.randint(0, min(g1.n, g2.n)))
            mapping = dict(zip(kept, rng.sample(g2.vertices, len(kept))))
            built.clear()
            path = path_from_mapping(g1, g2, mapping, params)
            total = path.total_cost
            assert built == []
            ops = path.ops
            assert len(built) == len(ops)
            assert path.ops is ops
            reference = reference_path_from_mapping(g1, g2, mapping, params)
            assert ops == reference.ops
            assert total == reference.total_cost == math.fsum(op.cost for op in ops)
            assert path.mapping == mapping
        built.clear()
        g = labeled_graph(rng, 5, 0.5)
        assert ged(g, g).total_cost == 0.0
        assert ged(g, g, beam_width=2).total_cost == 0.0
        assert built == []

    def test_paths_compare_copy_and_replace_as_eager_ones(self):
        rng = random.Random(2720)
        g1, g2 = labeled_graph(rng, 5, 0.5), symbol_graph(rng, 4, 0.5)
        mapping = {g1.vertices[0]: g2.vertices[1], g1.vertices[2]: g2.vertices[0]}
        reference = reference_path_from_mapping(g1, g2, mapping, DEFAULT_PARAMS)
        eager = EditPath(reference.ops, reference.total_cost)
        fresh = path_from_mapping(g1, g2, mapping)
        assert pickle.loads(pickle.dumps(fresh)) == eager
        assert fresh == eager and eager == fresh
        assert hash(path_from_mapping(g1, g2, mapping)) == hash(eager)
        assert repr(path_from_mapping(g1, g2, mapping)) == repr(eager)
        assert path_from_mapping(g1, g2, mapping).mapping == mapping
        pre = (EditOp("path_contract", (0, 1, 2), (0, 2), None, None, 0.0),)
        moved = replace(path_from_mapping(g1, g2, mapping), preprocessing=pre)
        assert moved == EditPath(reference.ops, reference.total_cost, pre)
        assert moved.preprocessing == pre and fresh.preprocessing == ()
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            fresh.missing


# -- prepared search tables ------------------------------------------------


def table_corpora():
    """Letter-scale and exact-scale corpora at two seeds, each as it is
    (vector node labels, empty edge labels) and with symbol edge labels
    and every third vertex's label emptied."""
    for seed in (0, 1):
        for n_range, p in (((4, 7), 0.4), ((5, 7), 0.35)):
            corpus = synthesize_corpus(3, 2, 0.1, seed, n_range, p)
            graphs = [inst.graph for inst in corpus.instances]
            yield graphs
            yield [
                AttributedGraph(
                    g.vertices,
                    g.edges,
                    {v: None if v % 3 == 0 else label for v, label in g.node_labels.items()},
                    {e: "ab"[k % 2] for k, e in enumerate(g.edges)},
                )
                for g in graphs
            ]


class TestEditTables:
    def test_tables_match_their_definitions(self):
        rng = random.Random(149)
        for _ in range(300):
            base = random_graph(rng.randrange(8), rng.random(), seed=rng.randrange(10**9))
            g = AttributedGraph(
                rng.sample(base.vertices, base.n),
                base.edges,
                edge_labels={e: str(k) for k, e in enumerate(base.edges)},
            )
            t = edit_tables(g)
            assert t.by_degree.vertices == tuple(
                sorted(g.vertices, key=lambda u: (-g.degree(u), u))
            )
            rank = {u: i for i, u in enumerate(t.by_degree.vertices)}
            ends = [sorted((rank[a], rank[b])) for a, b in g.edges]
            assert t.inner == [sum(p >= i for p, _ in ends) for i in range(g.n + 1)]
            assert t.cross == [sum(p < i <= q for p, q in ends) for i in range(g.n + 1)]
            pos = {v: j for j, v in enumerate(g.vertices)}
            assert t.neighbors == [sum(1 << pos[w] for w in g.neighbors(v)) for v in g.vertices]
            assert t.edge_masks == [1 << pos[a] | 1 << pos[b] for a, b in g.edges]
            assert t.incident == [[g.edge_label(v, w) for w in g.neighbors(v)] for v in g.vertices]
            for order in (t.stored, t.by_degree):
                vs = order.vertices
                assert order.earlier_edges == [
                    sum(g.has_edge(vs[i], vs[q]) for q in range(i)) for i in range(g.n)
                ]

    @pytest.mark.parametrize("params", [DEFAULT_PARAMS, EditCostParams(x_edge=0.3, y_node=0.7)])
    @pytest.mark.parametrize("width", [None, 1, 10])
    def test_tables_give_the_graphs_path(self, params, width):
        pairs = 0
        for graphs in table_corpora():
            tables = [edit_tables(g) for g in graphs]
            assert [(t.n, t.m) for t in tables] == [(g.n, g.m) for g in graphs]
            for (a, ta), (b, tb) in itertools.product(zip(graphs, tables), repeat=2):
                expected = ged(a, b, params, beam_width=width)
                path = ged(ta, tb, params, beam_width=width)
                assert path.total_cost == expected.total_cost
                assert path.mapping == expected.mapping
                assert path.ops == expected.ops
                assert ged(a, tb, params, beam_width=width) == expected
                if width is None:  # the bipartite approximation has no width
                    expected = ged_bipartite(a, b, params)
                    assert ged_bipartite(ta, tb, params) == expected
                    assert ged_bipartite(ta, b, params) == expected
                    assert ged_bipartite(a, tb, params) == expected
                pairs += 1
        assert pairs == 8 * 6 * 6

    @pytest.mark.parametrize("width", [None, 1, 10])
    def test_tables_raise_the_graphs_label_error(self, width):
        mixed = AttributedGraph([0, 1, 2], [(0, 1), (1, 2)], {0: (0.0, 1.0), 2: (1.0, 1.0)})
        solid = AttributedGraph([0, 1], [(0, 1)], {0: (1.0, 2.0, 3.0), 1: (0.0, 0.0, 0.0)})
        for a, b in ((mixed, solid), (solid, mixed)):
            with pytest.raises(ValueError) as plain:
                ged(a, b, beam_width=width)
            with pytest.raises(ValueError) as prepared:
                ged(edit_tables(a), edit_tables(b), beam_width=width)
            assert str(prepared.value) == str(plain.value)


# -- exact search --------------------------------------------------------


class TestExactGed:
    def test_identity(self):
        rng = random.Random(1)
        for _ in range(10):
            g = labeled_graph(rng, 4, 0.5)
            path = ged(g, g)
            assert path.total_cost == 0.0
            assert path.ops == path_from_mapping(g, g, path.mapping).ops

    def test_empty_graphs(self):
        e = AttributedGraph([])
        assert ged(e, e).total_cost == 0.0
        assert ged(e, e).ops == ()

    def test_search_cost_is_checked_against_the_path(self, monkeypatch):
        real = editdist.path_from_mapping

        def off_by_one(*args):
            path = real(*args)
            return replace(path, total_cost=path.total_cost + 1.0)

        monkeypatch.setattr(editdist, "path_from_mapping", off_by_one)
        g1 = AttributedGraph(range(3), [(0, 1), (1, 2)])
        g2 = AttributedGraph(range(2), [(0, 1)])
        with pytest.raises(AssertionError):
            ged(g1, g2)
        with pytest.raises(AssertionError):
            ged(g1, g2, beam_width=2)

    def test_single_deletion(self):
        g = AttributedGraph([0], node_labels={0: (0.0, 0.0)})
        assert ged(g, AttributedGraph([])).total_cost == 1.0

    def test_insertion_of_whole_graph(self):
        g = AttributedGraph(range(2), [(0, 1)])
        assert ged(AttributedGraph([]), g).total_cost == pytest.approx(3.0)

    def test_matches_oracle_on_all_small_pairs(self):
        graphs = [g for n in range(3) for g in all_graphs(n)]
        graphs += list(all_graphs(3))
        for g1 in graphs:
            for g2 in graphs:
                expected = oracle_ged(g1, g2)
                assert ged(g1, g2).total_cost == pytest.approx(expected)

    def test_matches_oracle_on_four_vertex_sample(self):
        rng = random.Random(11)
        four = list(all_graphs(4))
        for _ in range(40):
            g1, g2 = rng.choice(four), rng.choice(four)
            assert ged(g1, g2).total_cost == pytest.approx(oracle_ged(g1, g2))

    def test_matches_oracle_with_labels_and_params(self):
        rng = random.Random(23)
        params = EditCostParams(
            x_node=0.7, y_node=1.3, x_edge=0.4, y_edge=0.9
        )
        for _ in range(30):
            g1 = labeled_graph(rng, rng.randrange(4), 0.6)
            g2 = labeled_graph(rng, rng.randrange(4), 0.6)
            expected = oracle_ged(g1, g2, params)
            assert ged(g1, g2, params).total_cost == pytest.approx(expected)

    def test_symmetry(self):
        rng = random.Random(37)
        for _ in range(20):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            assert ged(g1, g2).total_cost == pytest.approx(
                ged(g2, g1).total_cost
            )

    def test_zero_iff_identical_up_to_isomorphism(self):
        rng = random.Random(41)
        for _ in range(60):
            g1 = labeled_graph(rng, 3, 0.5)
            g2 = labeled_graph(rng, 3, 0.5)
            cost = ged(g1, g2).total_cost
            assert cost >= 0.0
            assert (cost == 0.0) == is_same_labeled_graph(g1, g2)

    def test_heuristic_preserves_optimality(self):
        rng = random.Random(53)
        for _ in range(25):
            g1 = labeled_graph(rng, rng.randrange(5), 0.5)
            g2 = labeled_graph(rng, rng.randrange(5), 0.5)
            guided = ged(g1, g2).total_cost
            assert guided == pytest.approx(oracle_ged(g1, g2))

    def test_returned_path_transforms_g1_into_g2(self):
        rng = random.Random(67)
        for _ in range(20):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            path = ged(g1, g2)
            m = path.mapping
            subs = {op.source for op in path.ops if op.kind == "node_sub"}
            dels = {op.source for op in path.ops if op.kind == "node_del"}
            ins = {op.target for op in path.ops if op.kind == "node_ins"}
            assert subs | dels == set(g1.vertices)
            assert set(m.values()) | ins == set(g2.vertices)
            edge_targets = {
                op.target for op in path.ops if op.kind in ("edge_sub", "edge_ins")
            }
            assert edge_targets == set(g2.edges)
            edge_sources = {
                op.source for op in path.ops if op.kind in ("edge_sub", "edge_del")
            }
            assert edge_sources == set(g1.edges)


# -- search tables and bound ------------------------------------------------


def _reference_deltas(g1, g2, params, mapping, i, j):
    """Substitution and deletion deltas asked of the graph objects directly.

    The loop the search tables replace; a mapping holds -1 for a deleted
    vertex.  The tables must give the same floats, bit for bit.
    """
    u, v = g1.vertices[i], g2.vertices[j]
    sub = params.y_node * label_distance(g1.node_label(u), g2.node_label(v))
    dele = params.x_node
    for q in range(i):
        uq = g1.vertices[q]
        e1 = g1.has_edge(u, uq)
        if e1:
            dele += params.x_edge
        if mapping[q] < 0:
            if e1:
                sub += params.x_edge
            continue
        vq = g2.vertices[mapping[q]]
        e2 = g2.has_edge(v, vq)
        if e1 and e2:
            sub += params.y_edge * label_distance(
                g1.edge_label(u, uq), g2.edge_label(v, vq)
            )
        elif e1 or e2:
            sub += params.x_edge
    return sub, dele


def _enumerate_prefixes(ctx, check):
    """Walk every complete mapping; call ``check(g, i, used, free, cut, best)``
    at each prefix, where ``free`` and ``cut`` are the g2 edge counts carried
    the way the exact search carries them and ``best`` is the cheapest total
    among the prefix's completions."""

    def walk(i, used, free, cut, mapping, g):
        if i == ctx.n1:
            best = g + ctx.completion_delta(used)
        else:
            best = walk(i + 1, used, free, cut, mapping + (-1,), g + ctx.delete_cost[i])
            for j in range(ctx.n2):
                if not used >> j & 1:
                    c = g + ctx.substitute_delta(mapping, i, j)
                    out = (ctx.nbr2[j] & ~used).bit_count()
                    nfree = free - out
                    ncut = cut + out - (ctx.nbr2[j] & used).bit_count()
                    best = min(
                        best, walk(i + 1, used | 1 << j, nfree, ncut, mapping + (j,), c)
                    )
        check(g, i, used, free, cut, best)
        return best

    return walk(0, 0, ctx.g2.m, 0, (), 0.0)


BOUND_PARAMS = (
    DEFAULT_PARAMS,
    EditCostParams(x_node=0.7, y_node=1.3, x_edge=0.4, y_edge=0.9),
)


def _count_table(ctx):
    """The node part of the plain count bound: x_node per unmatched vertex
    on the larger side."""
    x = ctx.params.x_node
    return [
        [x * abs((ctx.n2 - k) - (ctx.n1 - i)) for k in range(ctx.n2 + 1)]
        for i in range(ctx.n1 + 1)
    ]


def inner_edge_bound(ctx, i, used, free):
    """The bound before the crossing-edge term: the node part plus x_edge per
    inner edge the free g2 edge count cannot match."""
    return ctx.node_bound[i][used.bit_count()] + ctx.params.x_edge * abs(
        ctx.inner1[i] - free
    )


def symbol_graph(rng, n, p):
    """Random graph with symbol node labels and symbol or empty edge labels."""
    base = random_graph(n, p, seed=rng.randrange(10**9))
    node_labels = {v: rng.choice("ABC") for v in base.vertices}
    edge_labels = {e: rng.choice(("s", "d", None)) for e in base.edges}
    return AttributedGraph(base.vertices, base.edges, node_labels, edge_labels)


def random_graph_of(rng, n, p):
    """Random graph with empty labels."""
    return random_graph(n, p, seed=rng.randrange(10**9))


class TestSearchBound:
    def test_tables_match_graph_queries_exactly(self):
        rng = random.Random(103)
        for params in BOUND_PARAMS:
            for _ in range(20):
                g1 = labeled_graph(rng, rng.randrange(1, 6), 0.5)
                g2 = labeled_graph(rng, rng.randrange(1, 6), 0.5)
                ctx = _SearchContext(edit_tables(g1), edit_tables(g2), params)
                for i in range(g1.n):
                    mapping = tuple(rng.randrange(-1, g2.n) for _ in range(i))
                    for j in range(g2.n):
                        sub, dele = _reference_deltas(g1, g2, params, mapping, i, j)
                        assert ctx.substitute_delta(mapping, i, j) == sub
                        assert ctx.delete_cost[i] == dele

    def test_bound_is_admissible_at_every_prefix(self):
        rng = random.Random(107)
        checked = 0

        def check(g, i, used, free, cut, best):
            nonlocal checked
            checked += 1
            unused = {v for j, v in enumerate(ctx.v_list) if not used >> j & 1}
            assert free == sum(a in unused and b in unused for a, b in ctx.g2.edges)
            assert cut == sum((a in unused) != (b in unused) for a, b in ctx.g2.edges)
            bound = ctx.heuristic(i, used, free, cut)
            assert g + bound <= best + 1e-9
            if i == ctx.n1:  # a leaf's bound is its completion cost
                if ctx.params == DEFAULT_PARAMS:
                    assert bound == ctx.completion_delta(used)
                else:
                    assert bound == pytest.approx(ctx.completion_delta(used), rel=1e-12)

        for params in BOUND_PARAMS:
            for _ in range(80):
                g1 = labeled_graph(rng, rng.randrange(3, 6), 0.5)
                g2 = labeled_graph(rng, rng.randrange(3, 6), 0.5)
                ctx = _ExactContext(edit_tables(g1), edit_tables(g2), params)
                _enumerate_prefixes(ctx, check)
        for _ in range(80):
            g1 = random_graph(rng.randrange(3, 6), 0.5, seed=rng.randrange(10**9))
            g2 = random_graph(rng.randrange(3, 6), 0.5, seed=rng.randrange(10**9))
            ctx = _ExactContext(edit_tables(g1), edit_tables(g2), DEFAULT_PARAMS)
            best = _enumerate_prefixes(ctx, check)
            assert best == pytest.approx(oracle_ged(g1, g2))
        assert checked > 100_000

    def test_crossing_term_never_loosens_the_bound(self):
        rng = random.Random(139)
        checked = tighter = 0

        def check(g, i, used, free, cut, best):
            nonlocal checked, tighter
            bound = ctx.heuristic(i, used, free, cut)
            before = inner_edge_bound(ctx, i, used, free)
            assert bound >= before
            checked += 1
            tighter += bound > before

        for params in BOUND_PARAMS:
            for _ in range(30):
                g1 = labeled_graph(rng, rng.randrange(3, 6), 0.5)
                g2 = labeled_graph(rng, rng.randrange(3, 6), 0.5)
                ctx = _ExactContext(edit_tables(g1), edit_tables(g2), params)
                _enumerate_prefixes(ctx, check)
        assert 0 < tighter < checked

    def test_exact_matches_oracle_up_to_six_vertices(self):
        rng = random.Random(109)
        for params in BOUND_PARAMS:
            for _ in range(8):
                g1 = labeled_graph(rng, rng.randrange(7), 0.5)
                g2 = labeled_graph(rng, rng.randrange(7), 0.5)
                expected = oracle_ged(g1, g2, params)
                assert ged(g1, g2, params).total_cost == pytest.approx(expected)

    def test_root_bound_below_exact_below_bipartite(self):
        rng = random.Random(113)
        for params in BOUND_PARAMS:
            for _ in range(30):
                g1 = labeled_graph(rng, rng.randrange(7), 0.5)
                g2 = labeled_graph(rng, rng.randrange(7), 0.5)
                root = _ExactContext(edit_tables(g1), edit_tables(g2), params).heuristic(
                    0, 0, g2.m, 0
                )
                exact = ged(g1, g2, params).total_cost
                assert root <= exact + 1e-9
                assert exact <= ged_bipartite(g1, g2, params).total_cost + 1e-9

    def test_node_bound_never_below_the_count_bound(self):
        rng = random.Random(127)
        for params in BOUND_PARAMS:
            for _ in range(40):
                g1 = labeled_graph(rng, rng.randrange(7), 0.5)
                g2 = labeled_graph(rng, rng.randrange(7), 0.5)
                ctx = _ExactContext(edit_tables(g1), edit_tables(g2), params)
                assert len(ctx.node_bound) == g1.n + 1
                for i, row in enumerate(ctx.node_bound):
                    assert len(row) == g2.n + 1
                    for k, bound in enumerate(row):
                        assert bound >= params.x_node * abs((g2.n - k) - (g1.n - i))

    def test_root_bound_above_the_count_bound_on_average(self):
        rng = random.Random(131)
        label_aware, count = 0.0, 0.0
        for _ in range(40):
            g1 = labeled_graph(rng, rng.randrange(3, 7), 0.5)
            g2 = labeled_graph(rng, rng.randrange(3, 7), 0.5)
            ctx = _ExactContext(edit_tables(g1), edit_tables(g2), DEFAULT_PARAMS)
            label_aware += ctx.heuristic(0, 0, g2.m, 0)
            ctx.node_bound = _count_table(ctx)
            count += ctx.heuristic(0, 0, g2.m, 0)
        assert label_aware / 40 > count / 40

    def test_exact_totals_equal_those_under_the_count_bound(self, monkeypatch):
        rng = random.Random(137)
        pairs = []
        for make in (labeled_graph, symbol_graph, random_graph_of):
            for _ in range(70):
                g1 = make(rng, rng.randrange(7), 0.5)
                pairs.append((g1, make(rng, rng.randrange(7), 0.5)))
        label_aware = [ged(g1, g2).total_cost for g1, g2 in pairs]

        class CountBoundContext(_ExactContext):
            def __init__(self, g1, g2, params):
                super().__init__(g1, g2, params)
                self.node_bound = _count_table(self)

        monkeypatch.setattr(editdist, "_ExactContext", CountBoundContext)
        count = [ged(g1, g2).total_cost for g1, g2 in pairs]
        assert len(pairs) >= 200
        assert label_aware == pytest.approx(count, rel=1e-12)


# -- the vertex-order search the degree-order search replaced ---------------


class ReferenceSearch:
    """Exact and beam search tables in g1's stored vertex order, with the
    free g2 edges recounted from the used mask at every call: the search as
    it stood before the exact search took g1's vertices by degree."""

    def __init__(self, g1, g2, params):
        self.g1, self.g2, self.params = g1, g2, params
        self.u_list, self.v_list = g1.vertices, g2.vertices
        n1 = self.n1 = g1.n
        n2 = self.n2 = g2.n
        pos1 = {u: i for i, u in enumerate(self.u_list)}
        pos2 = {v: j for j, v in enumerate(self.v_list)}
        self.node_cost = [
            [params.y_node * label_distance(g1.node_label(u), g2.node_label(v))
             for v in self.v_list]
            for u in self.u_list
        ]
        edge_cost = [
            [params.y_edge * label_distance(g1.edge_labels[e], g2.edge_labels[f])
             for f in g2.edges] + [params.x_edge]
            for e in g1.edges
        ]
        edge_cost.append([params.x_edge] * g2.m + [0.0])
        ids1 = [[-1] * n1 for _ in range(n1)]
        for k, (a, b) in enumerate(g1.edges):
            ids1[pos1[a]][pos1[b]] = ids1[pos1[b]][pos1[a]] = k
        self.edge_rows1 = [[edge_cost[a] for a in row] for row in ids1]
        self.edge_ids2 = [[-1] * (n2 + 1) for _ in range(n2)]
        for k, (a, b) in enumerate(g2.edges):
            self.edge_ids2[pos2[a]][pos2[b]] = self.edge_ids2[pos2[b]][pos2[a]] = k
        self.delete_cost = []
        for i in range(n1):
            cost = params.x_node
            for q in range(i):
                if ids1[i][q] >= 0:
                    cost += params.x_edge
            self.delete_cost.append(cost)
        self.edge_masks2 = [1 << pos2[a] | 1 << pos2[b] for a, b in g2.edges]
        first = [min(pos1[a], pos1[b]) for a, b in g1.edges]
        self.inner1 = [sum(f >= i for f in first) for i in range(n1 + 1)]
        x = params.x_node
        cheapest = [min([x, *row]) for row in self.node_cost]
        self.node_bound = []
        for i in range(n1 + 1):
            kept = list(itertools.accumulate(sorted(cheapest[i:]), initial=0.0))
            self.node_bound.append([
                x * abs((n2 - k) - (n1 - i)) + kept[min(n1 - i, n2 - k)]
                for k in range(n2 + 1)
            ])

    def substitute_delta(self, mapping, i, j):
        cost = self.node_cost[i][j]
        ids2 = self.edge_ids2[j]
        for row, jq in zip(self.edge_rows1[i], mapping):
            cost += row[ids2[jq]]
        return cost

    def completion_delta(self, used):
        p = self.params
        cost = p.x_node * (self.n2 - used.bit_count())
        for mask in self.edge_masks2:
            if used & mask != mask:
                cost += p.x_edge
        return cost

    def heuristic(self, i, used):
        free = sum(not used & mask for mask in self.edge_masks2)
        return self.node_bound[i][used.bit_count()] + self.params.x_edge * abs(
            self.inner1[i] - free
        )

    def finish(self, mapping, cost):
        as_dict = {
            self.u_list[i]: self.v_list[j] for i, j in enumerate(mapping) if j >= 0
        }
        path = path_from_mapping(self.g1, self.g2, as_dict, self.params)
        assert abs(path.total_cost - cost) < 1e-9
        return path


def reference_astar(ctx):
    counter = itertools.count()
    heap = [(ctx.heuristic(0, 0), 0, next(counter), 0.0, 0, 0, (), False)]
    while heap:
        f, _, _, cost, i, used, mapping, completed = heapq.heappop(heap)
        if completed:
            return ctx.finish(mapping, cost)
        if i == ctx.n1:
            total = cost + ctx.completion_delta(used)
            heapq.heappush(
                heap, (total, -(i + 1), next(counter), total, i, used, mapping, True)
            )
            continue
        for j in range(ctx.n2):
            if used >> j & 1:
                continue
            c = cost + ctx.substitute_delta(mapping, i, j)
            nused = used | (1 << j)
            h = ctx.heuristic(i + 1, nused)
            heapq.heappush(
                heap,
                (c + h, -(i + 1), next(counter), c, i + 1, nused, mapping + (j,), False),
            )
        c = cost + ctx.delete_cost[i]
        h = ctx.heuristic(i + 1, used)
        heapq.heappush(
            heap,
            (c + h, -(i + 1), next(counter), c, i + 1, used, mapping + (-1,), False),
        )
    raise AssertionError("search exhausted without a complete path")


def reference_degree_astar(ctx):
    """The exact search as A* over the degree-order tables, kept verbatim with
    the bound it ran with (``inner_edge_bound``)."""
    counter = itertools.count()
    nbr2 = ctx.nbr2
    free = ctx.g2.m
    # Entries: (f, -depth, seq, cost, i, used, free, mapping, completed)
    heap = [(inner_edge_bound(ctx, 0, 0, free), 0, next(counter), 0.0, 0, 0, free, (), False)]
    while heap:
        f, _, _, cost, i, used, free, mapping, completed = heapq.heappop(heap)
        if completed:
            return ctx.finish(mapping, cost)
        if i == ctx.n1:
            total = cost + ctx.completion_delta(used)
            heapq.heappush(
                heap,
                (total, -(i + 1), next(counter), total, i, used, free, mapping, True),
            )
            continue
        unused = ~used
        for j in range(ctx.n2):
            if used >> j & 1:
                continue
            c = cost + ctx.substitute_delta(mapping, i, j)
            nused = used | (1 << j)
            nfree = free - (nbr2[j] & unused).bit_count()
            h = inner_edge_bound(ctx, i + 1, nused, nfree)
            heapq.heappush(
                heap,
                (c + h, -(i + 1), next(counter), c, i + 1, nused, nfree,
                 mapping + (j,), False),
            )
        c = cost + ctx.delete_cost[i]
        h = inner_edge_bound(ctx, i + 1, used, free)
        heapq.heappush(
            heap,
            (c + h, -(i + 1), next(counter), c, i + 1, used, free, mapping + (-1,), False),
        )
    raise RuntimeError("search exhausted without a complete path")  # pragma: no cover


def reference_beam(ctx, width):
    counter = itertools.count()
    frontier = [(0.0, next(counter), 0, ())]
    for i in range(ctx.n1):
        heap, kept = [], []
        for cost, _, used, mapping in frontier:
            for j in range(ctx.n2):
                if not used >> j & 1:
                    heapq.heappush(heap, (
                        cost + ctx.substitute_delta(mapping, i, j), next(counter),
                        used | (1 << j), mapping + (j,),
                    ))
            heapq.heappush(
                heap, (cost + ctx.delete_cost[i], next(counter), used, mapping + (-1,))
            )
            kept.append(heapq.heappop(heap))
        while len(kept) < width and heap:
            kept.append(heapq.heappop(heap))
        frontier = kept
    cost, _, mapping = min(
        (cost + ctx.completion_delta(used), seq, mapping)
        for cost, seq, used, mapping in frontier
    )
    return ctx.finish(mapping, cost)


def mixed_graph(rng, n, p):
    """Random graph whose node and edge labels are each a grid vector or empty."""
    base = random_graph(n, p, seed=rng.randrange(10**9))
    node_labels = {
        v: rng.choice((None, (rng.randrange(3) / 2.0, rng.randrange(3) / 2.0)))
        for v in base.vertices
    }
    edge_labels = {e: rng.choice((None, (rng.randrange(3) / 2.0,))) for e in base.edges}
    return AttributedGraph(base.vertices, base.edges, node_labels, edge_labels)


def renamed(rng, g):
    """g with its vertices renamed to random distinct ids, stored shuffled."""
    ids = dict(zip(g.vertices, rng.sample(range(100), g.n)))
    order = [ids[v] for v in g.vertices]
    rng.shuffle(order)
    return AttributedGraph(
        order,
        [(ids[a], ids[b]) for a, b in g.edges],
        {ids[v]: label for v, label in g.node_labels.items()},
        {(ids[a], ids[b]): label for (a, b), label in g.edge_labels.items()},
    )


def differential_pairs(seed, count):
    """Seeded pairs of 0-7 vertices over every label maker, mixed within a
    pair too, with their random costs, zero weights included."""
    rng = random.Random(seed)
    makers = (labeled_graph, symbol_graph, random_graph_of, mixed_graph)
    for _ in range(count):
        g1, g2 = (
            renamed(rng, rng.choice(makers)(rng, rng.randint(0, 7), rng.random()))
            for _ in range(2)
        )
        yield g1, g2, random_params(rng)


class TestDegreeOrderMatchesReference:
    def test_exact_totals_under_default_costs(self):
        tied = 0
        for g1, g2, _ in differential_pairs(149, 150):
            path = ged(g1, g2)
            expected = reference_astar(ReferenceSearch(g1, g2, DEFAULT_PARAMS))
            assert path.total_cost == expected.total_cost
            assert path_from_mapping(g1, g2, path.mapping).total_cost == path.total_cost
            tied += path.mapping != expected.mapping
        # ties between optimal mappings are common on these coarse labels
        assert tied >= 30

    def test_exact_totals_under_random_costs(self):
        # a total is the fsum of its op costs, so an optimum tied between two
        # mappings gets the same float whichever mapping the search returns
        zero_weights = 0
        for g1, g2, params in differential_pairs(151, 150):
            path = ged(g1, g2, params)
            expected = reference_astar(ReferenceSearch(g1, g2, params))
            repriced = path_from_mapping(g1, g2, path.mapping, params)
            assert repriced.total_cost == path.total_cost
            assert path.total_cost == expected.total_cost
            if path.mapping == expected.mapping:
                assert path.ops == expected.ops
            zero_weights += 0.0 in (params.x_node, params.y_node, params.x_edge,
                                    params.y_edge)
        assert zero_weights >= 30

    def test_exact_search_takes_vertices_by_degree(self):
        for g1, g2, params in differential_pairs(151, 100):
            ctx = _ExactContext(edit_tables(g1), edit_tables(g2), params)
            assert sorted(ctx.u_list) == sorted(g1.vertices)
            keys = [(-g1.degree(u), u) for u in ctx.u_list]
            assert keys == sorted(keys)

    def test_beam_keeps_stored_order_and_totals(self):
        for g1, g2, params in differential_pairs(157, 150):
            assert _SearchContext(edit_tables(g1), edit_tables(g2), params).u_list == g1.vertices
            for w in (1, 3, 10):
                path = ged(g1, g2, params, beam_width=w)
                expected = reference_beam(ReferenceSearch(g1, g2, params), w)
                assert path.total_cost == expected.total_cost
                assert path.ops == expected.ops


class TestBranchAndBoundMatchesAStar:
    """The depth-first search against the A* it replaced, on the same tables.

    Both are exact, so their totals agree; an optimum tied between two
    mappings may come back under the other one.
    """

    def test_exact_totals_under_default_costs(self):
        tied = 0
        for g1, g2, _ in differential_pairs(149, 150):
            path = ged(g1, g2)
            expected = reference_degree_astar(
                _ExactContext(edit_tables(g1), edit_tables(g2), DEFAULT_PARAMS)
            )
            assert path.total_cost == expected.total_cost
            if path.mapping == expected.mapping:
                assert path.ops == expected.ops
            else:
                tied += 1
        # the tie branch above is exercised
        assert tied > 0

    def test_exact_totals_under_random_costs(self):
        tied = 0
        for g1, g2, params in differential_pairs(151, 150):
            path = ged(g1, g2, params)
            expected = reference_degree_astar(
                _ExactContext(edit_tables(g1), edit_tables(g2), params)
            )
            assert path.total_cost == expected.total_cost
            if path.mapping == expected.mapping:
                assert path.ops == expected.ops
            else:
                tied += 1
        assert tied > 0

    def test_memory_stays_flat_on_a_ten_vertex_pair(self):
        # A* held every open node here: a tracemalloc peak of about 8 MiB
        g1, g2 = random_graph(10, 0.3, seed=2), random_graph(10, 0.3, seed=102)
        tracemalloc.start()
        try:
            ged(g1, g2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def large_cost_pairs(seed, count):
    """Pairs of 2-6 vertices with coordinate labels in [0, 1000]^2."""
    rng = random.Random(seed)

    def graph():
        base = random_graph(rng.randint(2, 6), 0.5, seed=rng.randrange(10**9))
        labels = {v: (rng.uniform(0, 1000), rng.uniform(0, 1000)) for v in base.vertices}
        return AttributedGraph(base.vertices, base.edges, labels, base.edge_labels)

    for _ in range(count):
        yield graph(), graph()


class TestSearchCostCheck:
    def test_large_costs_pass_the_check(self):
        # the search and the path sum the same ops in different orders, so
        # these totals differ by a few ulps, more than 1e-9 in absolute terms
        params = EditCostParams(x_node=1e6, x_edge=1e6)
        for g1, g2 in large_cost_pairs(5, 300):
            exact = ged(g1, g2, params)
            assert ged(g1, g2, params, beam_width=3).total_cost >= exact.total_cost

    def test_a_disagreement_raises_under_python_O(self):
        code = textwrap.dedent("""
            from dataclasses import replace
            from graphmatch import editdist
            from graphmatch.graphs import random_graph

            real = editdist.path_from_mapping

            def off_by_one(*args):
                path = real(*args)
                return replace(path, total_cost=path.total_cost + 1.0)

            if __debug__:
                raise SystemExit("asserts are on: not run under -O")
            editdist.path_from_mapping = off_by_one
            g1, g2 = random_graph(4, 0.5, seed=1), random_graph(5, 0.5, seed=2)
            for width in (None, 3):
                try:
                    editdist.ged(g1, g2, beam_width=width)
                except AssertionError as e:
                    print("raised:", e)
        """)
        src = Path(editdist.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == 2
        assert all("search cost" in line and "disagree" in line for line in lines)


# -- beam search ---------------------------------------------------------


class TestBeamSearch:
    def test_width_must_be_positive(self):
        g = AttributedGraph(range(2))
        with pytest.raises(ValueError):
            ged(g, g, beam_width=0)

    def test_beam_builds_no_bound_tables(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("beam search built A*'s bound tables")

        monkeypatch.setattr(_ExactContext, "__init__", refuse)
        rng = random.Random(139)
        for _ in range(20):
            g1 = labeled_graph(rng, rng.randrange(7), 0.5)
            g2 = labeled_graph(rng, rng.randrange(7), 0.5)
            for w in (1, 3, 10):
                path = ged(g1, g2, beam_width=w)
                assert path.ops == path_from_mapping(g1, g2, path.mapping).ops
        with pytest.raises(AssertionError, match="bound tables"):
            ged(g1, g2)

    def test_upper_bounds_exact(self):
        rng = random.Random(71)
        for _ in range(30):
            g1 = labeled_graph(rng, 5, 0.5)
            g2 = labeled_graph(rng, 5, 0.5)
            exact = ged(g1, g2).total_cost
            for w in (1, 3, 10):
                approx = ged(g1, g2, beam_width=w).total_cost
                assert approx >= exact - 1e-9

    def test_wide_beam_is_exact(self):
        rng = random.Random(73)
        for _ in range(15):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            assert ged(g1, g2, beam_width=10**6).total_cost == pytest.approx(
                ged(g1, g2).total_cost
            )

    def test_monotone_in_width_on_fixed_corpus(self):
        rng = random.Random(79)
        pairs = [
            (labeled_graph(rng, 5, 0.5), labeled_graph(rng, 5, 0.5))
            for _ in range(100)
        ]
        for g1, g2 in pairs:
            exact = ged(g1, g2).total_cost
            previous = math.inf
            for w in (1, 2, 5, 10, 50):
                cost = ged(g1, g2, beam_width=w).total_cost
                assert cost <= previous + 1e-9
                assert cost >= exact - 1e-9
                previous = cost

    def test_beam_path_is_complete(self):
        rng = random.Random(83)
        g1 = labeled_graph(rng, 6, 0.4)
        g2 = labeled_graph(rng, 4, 0.6)
        path = ged(g1, g2, beam_width=2)
        assert path.ops == path_from_mapping(g1, g2, path.mapping).ops
        assert path.total_cost == pytest.approx(sum(op.cost for op in path.ops))


# -- bipartite approximation ------------------------------------------------


class TestBipartite:
    def test_identity_and_trivial_cases(self):
        g = AttributedGraph(range(3), [(0, 1), (1, 2)])
        assert ged_bipartite(g, g).total_cost == 0.0
        single = AttributedGraph([0])
        empty = AttributedGraph([])
        assert ged_bipartite(single, empty).total_cost == 1.0
        assert ged_bipartite(empty, single).total_cost == 1.0
        assert ged_bipartite(empty, empty).total_cost == 0.0

    def test_upper_bounds_oracle_on_small_pairs(self):
        rng = random.Random(89)
        four = list(all_graphs(4))
        for _ in range(50):
            g1, g2 = rng.choice(four), rng.choice(four)
            upper = ged_bipartite(g1, g2).total_cost
            assert upper >= oracle_ged(g1, g2) - 1e-9

    def test_upper_bound_with_labels(self):
        rng = random.Random(97)
        for _ in range(30):
            g1 = labeled_graph(rng, 4, 0.5)
            g2 = labeled_graph(rng, 4, 0.5)
            upper = ged_bipartite(g1, g2).total_cost
            exact = ged(g1, g2).total_cost
            assert upper >= exact - 1e-9
            # The returned path must price to its stated cost.
            path = ged_bipartite(g1, g2)
            assert path.total_cost == pytest.approx(sum(op.cost for op in path.ops))

    def test_often_exact_on_sparse_pairs(self):
        # Not an invariant, just a sanity floor: the bound should usually be
        # tight on tiny sparse graphs.
        rng = random.Random(101)
        hits = 0
        for _ in range(40):
            g1 = random_graph(3, 0.3, seed=rng.randrange(10**9))
            g2 = random_graph(3, 0.3, seed=rng.randrange(10**9))
            if ged_bipartite(g1, g2).total_cost == pytest.approx(
                ged(g1, g2).total_cost
            ):
                hits += 1
        assert hits >= 30
