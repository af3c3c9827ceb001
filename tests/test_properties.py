"""Properties of the edit matchers on random labelled graphs (hypothesis).

Graphs have 0-6 vertices, any edge set, and symbol, 2-D vector or empty
vertex and edge labels, drawn from coarse grids so that ties occur; the
cost constants differ from one another.  Each property is pinned as the
code behaves: a failure is a defect of the matcher, not of the strategy.
The storage-order property runs first the smallest graphs on which the
bipartite matcher once broke a tie by stored vertex order.  Runs are
derandomized, keep no example database and have no deadline, so they
repeat exactly on a loaded machine.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphmatch.bench import MatcherSpec  # noqa: E402
from graphmatch.editdist import (  # noqa: E402
    DEFAULT_PARAMS,
    EditCostParams,
    _ExactContext,
    edit_tables,
    ged,
    ged_bipartite,
)
from graphmatch.graphs import AttributedGraph  # noqa: E402

_settings = settings(derandomize=True, database=None, deadline=None, max_examples=150)

LABELS = {
    "symbol": st.sampled_from("abc"),
    "vector": st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 1.5])] * 2),
    "empty": st.none(),
}


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 6))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, keep in zip(slots, draw(st.lists(st.booleans(), min_size=len(slots),
                                                        max_size=len(slots)))) if keep]
    node_label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    edge_label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    return AttributedGraph(
        range(n),
        edges,
        {v: draw(node_label) for v in range(n)},
        {e: draw(edge_label) for e in edges},
    )


costs = st.builds(
    EditCostParams, *[st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])] * 5
)


@st.composite
def stored_both_ways(draw):
    """(g1, g2, h1, h2): two graphs, then each with its vertices stored in a
    drawn order; edges and labels stay the same."""
    pair = (draw(graphs()), draw(graphs()))
    moved = tuple(
        AttributedGraph(draw(st.permutations(g.vertices)), g.edges, g.node_labels, g.edge_labels)
        for g in pair
    )
    return pair + moved


# a path 2-1-3 beside an isolated vertex 0 against one edge, unlabelled, at unit
# costs: the bipartite assignment ties; while the solver took tied assignments
# in g1's stored order, the induced path cost 5 stored as (0, 1, 2, 3) and 3,
# the exact distance, stored as (0, 2, 1, 3); in id order both cost 5
_PATH_AND_EDGE = (
    AttributedGraph(range(4), [(1, 2), (1, 3)]),
    AttributedGraph(range(2), [(0, 1)]),
    AttributedGraph([0, 2, 1, 3], [(1, 2), (1, 3)]),
    AttributedGraph(range(2), [(0, 1)]),
)


@_settings
@given(graphs(), graphs(), costs)
def test_exact_ged_is_symmetric(g1, g2, p):
    assert ged(g1, g2, p).total_cost == ged(g2, g1, p).total_cost


@_settings
@given(graphs(), graphs(), costs)
def test_root_bound_exact_and_upper_bounds_are_ordered(g1, g2, p):
    root = _ExactContext(edit_tables(g1), edit_tables(g2), p).heuristic(0, 0, g2.m, 0)
    exact = ged(g1, g2, p).total_cost
    assert root <= exact
    assert exact <= ged_bipartite(g1, g2, p).total_cost
    for w in (1, 2, 5, 12):
        assert exact <= ged(g1, g2, p, beam_width=w).total_cost


@_settings
@given(graphs(), graphs(), costs)
def test_beam_never_rises_with_its_width(g1, g2, p):
    beams = [ged(g1, g2, p, beam_width=w).total_cost for w in range(1, 13)]
    assert all(wider <= narrower for narrower, wider in zip(beams, beams[1:]))


@pytest.mark.parametrize(
    "method",
    [
        "ged",
        "hged",
        "kstar-ged(1)",
        "bipartite",
    ],
)
@_settings
@example(_PATH_AND_EDGE, DEFAULT_PARAMS)
@given(stored_both_ways(), costs)
def test_matcher_ignores_vertex_storage_order(method, stored, p):
    g1, g2, h1, h2 = stored
    spec = MatcherSpec(method, p)
    assert spec.distance(g1, g2) == spec.distance(h1, h2)
