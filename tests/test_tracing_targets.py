"""The functions perfbench's tracer wraps by name exist in this package.

``perfbench/tracing.py`` replaces each ``SPAN_PLAN`` and ``COUNT_PLAN``
target (``module:attribute``) with a wrapper, reading the original from the
owner's ``__dict__``, and notes pair sizes from the ``.n`` of the first two
arguments of ``bench.ged`` and its siblings.  A renamed or deleted target
passes every other test and breaks only traced benchmark runs.  These tests
load tracing.py from its file and change nothing in it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from graphmatch import bench
from graphmatch.bench import MatcherSpec
from graphmatch.datasets import synthesize_corpus
from graphmatch.editdist import EditTables, edit_tables

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    # tracing.py imports its sibling ``workloads`` by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


tracing = load_tracing()
TARGETS = [t[0] for t in tracing.SPAN_PLAN] + [t[0] for t in tracing.COUNT_PLAN]


@pytest.mark.parametrize("target", TARGETS)
def test_every_traced_target_resolves(target):
    owner, attr = tracing._resolve(target)
    assert callable(owner.__dict__[attr])


def test_edit_tables_keep_the_sizes_the_tracer_notes():
    assert isinstance(EditTables.n, property) and isinstance(EditTables.m, property)
    g = synthesize_corpus(1, 1, 0.0, 4, (6, 6), 0.4).instances[0].graph
    tables = edit_tables(g)
    assert (tables.n, tables.m) == (g.n, g.m)


def test_graph_sizes_note_reads_what_bench_ged_receives(monkeypatch):
    g1, g2 = (inst.graph for inst in synthesize_corpus(2, 1, 0.0, 4, (5, 7), 0.4).instances)
    sizes, ged = [], bench.ged

    def noting(*args, **kwargs):
        sizes.append(tracing._graph_sizes(args, kwargs, None))
        return ged(*args, **kwargs)

    monkeypatch.setattr(bench, "ged", noting)
    methods = (
        "ged", "ged-beam(2)", "hged", "kstar-ged(1)", "r-ged(0.5,degree)", "t-ged(1,pagerank)"
    )
    for method in methods:
        spec = MatcherSpec(method)
        spec.distance(spec.prepare(g1), spec.prepare(g2))
    assert len(sizes) == len(methods)
    assert sizes[:2] == [g1.n + g2.n] * 2
    assert all(0 < s <= g1.n + g2.n for s in sizes)
