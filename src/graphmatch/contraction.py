"""Topology-reducing graph simplification and the distances built on it.

Two reduction families.  Path contraction replaces every chain of
degree-2 vertices by a single edge, producing a homeomorphic graph;
``hged`` is the edit distance between the contracted inputs.  Degree-based
node contraction removes low-degree vertices outright, either guarded so
the number of connected components never changes (``k_node_contraction``
and the degree-1..k cascade ``k_star_node_contraction``) or unguarded
(``k_star_node_deletion``); ``k_star_ged`` matches the cascade-contracted
graphs.

Every node contraction here and in ``centrality`` is a setting of one
engine, ``contract_nodes``: stages flag their victims up front on one live
adjacency, and a sweep visits the flagged vertices in order and removes each
one the guard allows, even if earlier removals changed its degree.  A
degree-k stage flags every vertex currently of degree k in ascending id
order, so a triangle at k=2 loses two vertices, not one.  Each degree up to
the input's maximum is swept exactly once per call; the cascade is not a
fixpoint iteration: contracting can expose new low-degree vertices that only
a later call would pick up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .editdist import (
    DEFAULT_PARAMS,
    EditCostParams,
    EditOp,
    EditPath,
    _price,
    ged,
)
from .graphs import (
    AttributedGraph,
    _separates,
    canonical_edge,
    component_count,
    is_cut_vertex,  # noqa: F401 -- perfbench/tracing.py wraps this name
)

__all__ = [
    "ContractionReport",
    "contract_nodes",
    "path_contract",
    "hged",
    "k_node_contraction",
    "k_star_node_contraction",
    "k_star_node_deletion",
    "k_star_ged",
]


@dataclass(frozen=True)
class ContractionReport:
    """Which vertices a contraction removed and how the topology moved."""

    removed: tuple[int, ...]
    before_n: int
    after_n: int
    components_before: int
    components_after: int

    @classmethod
    def of(cls, g: AttributedGraph, out: AttributedGraph, removed) -> "ContractionReport":
        """The report of contracting ``g`` to ``out`` by removing ``removed``."""
        return cls(
            removed=tuple(removed),
            before_n=g.n,
            after_n=out.n,
            components_before=component_count(g),
            components_after=component_count(out),
        )


# -- path contraction --------------------------------------------------------


def _walk(g: AttributedGraph, deg2: set, start: int, first: int):
    """Follow degree-2 vertices from ``start`` towards ``first``.

    Returns the interior vertices passed, in order, and the stopping vertex:
    either an anchor (degree != 2) or ``start`` again when the run closes
    into a cycle.
    """
    run = []
    prev, cur = start, first
    while cur in deg2 and cur != start:
        run.append(cur)
        onward = [w for w in g.neighbors(cur) if w != prev]
        prev, cur = cur, onward[0]
    return run, cur


def _runs(g: AttributedGraph):
    """Maximal degree-2 runs, each either an open chain or a full cycle.

    A chain is reported with its two anchors included (equal anchors mean
    the run is a cycle hanging off a single vertex); a 2-regular cycle is
    reported as its vertices in cycle order.
    """
    deg2 = {v for v in g.vertices if g.degree(v) == 2}
    seen: set[int] = set()
    out = []
    for v in g.vertices:
        if v not in deg2 or v in seen:
            continue
        n0, n1 = g.neighbors(v)
        fwd, end_f = _walk(g, deg2, v, n1)
        if end_f == v:
            cycle = [v] + fwd
            seen.update(cycle)
            out.append(("cycle", cycle))
            continue
        back, end_b = _walk(g, deg2, v, n0)
        path = [end_b] + back[::-1] + [v] + fwd + [end_f]
        seen.update(path[1:-1])
        out.append(("chain", path))
    return out


def _merged_label(g: AttributedGraph, run) -> object:
    """Common label of the run's edges, or None when they disagree."""
    labels = {g.edge_label(run[i], run[i + 1]) for i in range(len(run) - 1)}
    return labels.pop() if len(labels) == 1 else None


def _kept_interiors(kind: str, path, edges) -> list:
    """Interiors a run keeps by ``path_contract``'s rule, given the edges laid so far."""
    if kind == "cycle":
        return sorted(path)[:3]
    if path[0] == path[-1]:
        return path[1:3]
    if canonical_edge(path[0], path[-1]) in edges:
        return [min(path[1:-1])]
    return []


def _contract_runs(g: AttributedGraph):
    """Path-contraction core: contracted graph, report, merged segments.

    Each run is cut at its ends and kept vertices into pieces laid as one edge
    each; a segment is a piece longer than one edge, anchors included.
    """
    runs = _runs(g)
    interior: set[int] = set()
    for kind, path in runs:
        interior.update(path if kind == "cycle" else path[1:-1])

    survivors: set[int] = set()
    edges: dict[tuple[int, int], object] = {
        e: g.edge_labels[e]
        for e in g.edges
        if e[0] not in interior and e[1] not in interior
    }
    segments: list[tuple[int, ...]] = []
    for kind, path in runs:
        keep = _kept_interiors(kind, path, edges)
        survivors.update(keep)
        if kind == "cycle":  # start and end at the first kept vertex
            i = min(map(path.index, keep))
            path = path[i:] + path[: i + 1]
        cuts = [i for i, v in enumerate(path) if v in keep or i in (0, len(path) - 1)]
        for p, q in zip(cuts, cuts[1:]):
            piece = path[p : q + 1]
            edges[canonical_edge(piece[0], piece[-1])] = _merged_label(g, piece)
            if len(piece) > 2:
                segments.append(tuple(piece))

    keep_order = [v for v in g.vertices if v not in interior or v in survivors]
    contracted = g._rebuild(keep_order, list(edges), edges)
    removed = sorted(interior - survivors)
    return contracted, ContractionReport.of(g, contracted, removed), segments


def path_contract(g: AttributedGraph) -> tuple[AttributedGraph, ContractionReport]:
    """Replace every maximal run of degree-2 vertices by a single edge.

    The result is homeomorphic to the input: smoothing inverts edge
    subdivision, so vertex counts per degree other than 2 are unchanged.
    Each run, in ``_runs`` order, keeps just enough interior vertices for
    the result to stay simple (no self-loop, no parallel edge):

    - a cycle with no anchor keeps its three smallest ids;
    - a cycle hanging off one anchor keeps its first two interiors;
    - a chain whose anchors are already joined, by an original edge or by a
      run laid earlier, keeps its smallest interior;
    - any other chain keeps none.

    A merged edge keeps the label its constituent edges agree on, and drops
    to None when they differ.
    """
    contracted, report, _ = _contract_runs(g)
    return contracted, report


def _contract_op(g: AttributedGraph, segment, params: EditCostParams) -> EditOp:
    source_label, target_label = g.node_label(segment[0]), g.node_label(segment[-1])
    return EditOp(
        kind="path_contract",
        source=segment,
        target=canonical_edge(segment[0], segment[-1]),
        source_label=source_label,
        target_label=target_label,
        cost=_price("path_contract", source_label, target_label, params),
    )


def hged(
    g1: AttributedGraph,
    g2: AttributedGraph,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Edit distance between the path-contracted graphs.

    Homeomorphic inputs with matching anchor labels come out at zero.  The
    contractions themselves are logged as preprocessing operations, each
    costed at z_path times the label distance between its segment's
    endpoints, and are not part of ``total_cost``.
    """
    h1, _, segments1 = _contract_runs(g1)
    h2, _, segments2 = _contract_runs(g2)
    pre = tuple(
        _contract_op(g, seg, params)
        for g, segments in ((g1, segments1), (g2, segments2))
        for seg in segments
    )
    path = ged(h1, h2, params, beam_width=beam_width)
    return replace(path, preprocessing=pre)


# -- degree-based node contraction -------------------------------------------


def contract_nodes(
    g: AttributedGraph, stages, guarded: bool = True
) -> tuple[AttributedGraph, ContractionReport]:
    """The one node-removal engine behind every node contraction.

    Copies ``g``'s adjacency once and runs ``stages`` on it in order: each
    stage maps the adjacency left so far to the vertices it flags, and the
    sweep then visits them in that order, removing each one (with
    ``guarded``, only when that keeps the component count of what is left:
    cut vertices and isolated vertices stay).  Builds the result once,
    returning ``g`` itself when nothing was removed, with its report.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    removed = []
    for stage in stages:
        for v in stage(adj):
            if guarded and (not adj[v] or _separates(adj, v)):
                continue
            for w in adj.pop(v):
                adj[w].discard(v)
            removed.append(v)
    out = g.without_vertices(removed) if removed else g
    return out, ContractionReport.of(g, out, removed)


def _degree_stages(g: AttributedGraph, low: int, k: int) -> list:
    """One stage per degree low..k, each flagging the vertices of that degree
    in ascending id order; degrees above ``g``'s maximum are skipped, since
    removals never raise a degree and no such stage could flag a vertex."""
    if k < 0:
        raise ValueError("k must be >= 0")
    top = max(map(g.degree, g.vertices), default=0)
    return [
        lambda adj, d=d: sorted(v for v in adj if len(adj[v]) == d)
        for d in range(low, min(k, top) + 1)
    ]


def k_node_contraction(g: AttributedGraph, k: int) -> tuple[AttributedGraph, ContractionReport]:
    """Remove the vertices of degree k, keeping the component count.

    Vertices are flagged before the sweep and visited in ascending id
    order; a flagged vertex is removed unless that would split a component
    or erase one (cut vertices and sole survivors stay).
    """
    return contract_nodes(g, _degree_stages(g, k, k))


def k_star_node_contraction(g: AttributedGraph, k: int) -> tuple[AttributedGraph, ContractionReport]:
    """Degree-1 through degree-k contraction sweeps, each on the last result."""
    return contract_nodes(g, _degree_stages(g, 1, k))


def k_star_node_deletion(g: AttributedGraph, k: int) -> tuple[AttributedGraph, ContractionReport]:
    """The degree-1..k cascade without the guard; components may split."""
    return contract_nodes(g, _degree_stages(g, 1, k), guarded=False)


def k_star_ged(
    g1: AttributedGraph,
    g2: AttributedGraph,
    k: int,
    params: EditCostParams = DEFAULT_PARAMS,
    *,
    beam_width: int | None = None,
) -> EditPath:
    """Edit distance after degree-1..k contraction of both graphs.

    The contraction is preprocessing: removed vertices cost nothing and the
    returned path edits the contracted graphs.  k=0 is exactly ``ged``.
    """
    h1, _ = k_star_node_contraction(g1, k)
    h2, _ = k_star_node_contraction(g2, k)
    return ged(h1, h2, params, beam_width=beam_width)
