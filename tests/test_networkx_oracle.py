"""Exact GED against a second, independent exact solver: networkx's
``graph_edit_distance`` under the same cost model.

Node substitution costs ``y_node * label_distance``, node deletion and
insertion ``x_node``; edges likewise with ``y_edge`` and ``x_edge``.
"""

from __future__ import annotations

import random

import pytest

from graphmatch.datasets import synthesize_corpus
from graphmatch.editdist import DEFAULT_PARAMS, EditCostParams, ged, label_distance
from graphmatch.graphs import AttributedGraph, random_graph

nx = pytest.importorskip("networkx")


def as_networkx(g):
    h = nx.Graph()
    h.add_nodes_from((v, {"label": g.node_labels[v]}) for v in g.vertices)
    h.add_edges_from((u, v, {"label": g.edge_labels[u, v]}) for u, v in g.edges)
    return h


def networkx_ged(g1, g2, p: EditCostParams) -> float:
    return nx.graph_edit_distance(
        as_networkx(g1),
        as_networkx(g2),
        node_subst_cost=lambda a, b: p.y_node * label_distance(a["label"], b["label"]),
        node_del_cost=lambda a: p.x_node,
        node_ins_cost=lambda a: p.x_node,
        edge_subst_cost=lambda a, b: p.y_edge * label_distance(a["label"], b["label"]),
        edge_del_cost=lambda a: p.x_edge,
        edge_ins_cost=lambda a: p.x_edge,
    )


def exact_ged_pairs(count):
    """The first ``count`` (test, train) pairs of the exact-GED benchmark
    corpus at seed 0: 8 classes of plane graphs with 5-7 vertices, p = 0.35,
    the coordinate doubling as the vertex label."""
    train = synthesize_corpus(8, 3, 0.1, 5, (5, 7), 0.35, "train", jitter_seed=5)
    test = synthesize_corpus(8, 2, 0.1, 5, (5, 7), 0.35, "test", jitter_seed=6)
    pairs = [(a.graph, b.graph) for a in test.instances for b in train.instances]
    return pairs[:count]


def symbol_graphs(count, seed):
    """Small graphs with symbol labels on every vertex and edge."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        skeleton = random_graph(rng.randint(3, 6), 0.45, seed=rng.getrandbits(32))
        graphs.append(AttributedGraph(
            skeleton.vertices,
            skeleton.edges,
            {v: rng.choice("CNO") for v in skeleton.vertices},
            {e: rng.choice("sd") for e in skeleton.edges},
        ))
    return graphs


def test_ged_equals_networkx_on_exact_ged_pairs():
    pairs = exact_ged_pairs(40)
    assert {g.n for pair in pairs for g in pair} >= {5, 7}
    for g1, g2 in pairs:
        assert abs(ged(g1, g2).total_cost - networkx_ged(g1, g2, DEFAULT_PARAMS)) <= 1e-9


@pytest.mark.parametrize(
    "params",
    [DEFAULT_PARAMS, EditCostParams(x_node=0.8, y_node=1.5, x_edge=0.6, y_edge=0.7)],
    ids=["default", "unequal"],
)
def test_ged_equals_networkx_on_symbol_labels(params):
    graphs = symbol_graphs(6, seed=3)
    for i, g1 in enumerate(graphs):
        for g2 in graphs[i:]:
            assert abs(ged(g1, g2, params).total_cost - networkx_ged(g1, g2, params)) <= 1e-9


def test_ged_equals_networkx_under_unequal_costs_on_plane_graphs():
    params = EditCostParams(x_node=0.8, y_node=1.5, x_edge=0.6, y_edge=0.7)
    for g1, g2 in exact_ged_pairs(24)[::6]:
        assert abs(ged(g1, g2, params).total_cost - networkx_ged(g1, g2, params)) <= 1e-9
