"""End-to-end runs of every CLI subcommand against temporary corpora."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from graphmatch import cli, datasets
from graphmatch.bench import MatcherSpec, knn_classify, tune_weights
from graphmatch.centrality import r_centrality_node_contraction, t_centrality_node_contraction
from graphmatch.cli import main
from graphmatch.contraction import k_star_node_contraction
from graphmatch.datasets import load_dataset, parse_gxl, write_gxl
from graphmatch.graphs import AttributedGraph, GeometricGraph


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def synth_corpus(tmp_path, name, split="train", **kwargs):
    out = tmp_path / name
    args = dict(classes=3, per_class=4, sigma=0.0, seed=5)
    args.update(kwargs)
    code = run(
        "synth",
        "--classes", args["classes"],
        "--per-class", args["per_class"],
        "--sigma", args["sigma"],
        "--seed", args["seed"],
        "--split", split,
        "--out", out,
        *(("--jitter-seed", args["jitter_seed"]) if "jitter_seed" in args else ()),
    )
    assert code == 0
    return out, out / f"{split}.cxl"


def molecule_corpus_without_coordinates(tmp_path):
    """Four labelled GXL graphs without x/y and their CXL index."""
    entries = []
    for i in range(4):
        g = AttributedGraph(range(3), [(0, 1), (1, 2)][: 1 + i % 2], {0: "C", 1: "O", 2: "C"})
        (tmp_path / f"m{i}.gxl").write_text(write_gxl(g))
        entries.append(f'<print file="m{i}.gxl" class="{"ab"[i % 2]}"/>')
    index = tmp_path / "train.cxl"
    index.write_text(
        "<GraphCollection><fingerprints>" + "".join(entries) + "</fingerprints></GraphCollection>"
    )
    return index


class TestSynth:
    def test_writes_corpus_and_index(self, tmp_path):
        out, index = synth_corpus(tmp_path, "corpus")
        assert index.exists()
        gxl_files = sorted(out.glob("*.gxl"))
        assert len(gxl_files) == 12
        g = parse_gxl(gxl_files[0].read_bytes(), "letter")
        assert isinstance(g, GeometricGraph)

    def test_deterministic_output(self, tmp_path):
        out1, _ = synth_corpus(tmp_path, "one")
        out2, _ = synth_corpus(tmp_path, "two")
        for f1 in sorted(out1.glob("*.gxl")):
            assert f1.read_text() == (out2 / f1.name).read_text()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_rejected(self, tmp_path, capsys, sigma):
        out = tmp_path / "corpus"
        code = run(
            "synth", "--classes", 2, "--per-class", 2, "--sigma", sigma, "--seed", 1, "--out", out
        )
        assert code == 2
        assert capsys.readouterr().err == "error: sigma must be finite and >= 0\n"
        assert not out.exists()


class TestImportBoundary:
    """``synth``, ``--help`` and usage errors run without the matcher stack."""

    # what cli imports at module level must not load these
    MATCHER_STACK = ("numpy", "scipy", "graphmatch.geometric", "graphmatch.editdist",
                     "graphmatch.bench")

    def test_synth_usage_errors_and_loading_skip_the_matcher_stack(self, tmp_path):
        code = textwrap.dedent("""
            import contextlib, io, json, sys
            from graphmatch import cli
            from graphmatch.datasets import load_dataset

            out = sys.argv[1]
            codes = []
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.main(["synth", "--classes", "2", "--per-class", "3",
                                       "--sigma", "0.05", "--seed", "1", "--out", out]))
                for argv in (["--help"], ["synth", "--help"], ["classify", "--knn", "0"]):
                    try:
                        cli.main(argv)
                    except SystemExit as e:
                        codes.append(e.code)
            split = load_dataset(out + "/train.cxl", out, profile="letter")
            print(json.dumps([codes, len(split.instances), len(split.errors), list(sys.modules)]))
            import graphmatch.bench
            print(json.dumps("scipy.optimize" in sys.modules))
        """)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "corpus")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        first, second = done.stdout.splitlines()
        codes, loaded_graphs, errors, modules = json.loads(first)
        assert codes == [0, 0, 0, 2]
        assert (loaded_graphs, errors) == (6, 0)
        assert not set(self.MATCHER_STACK) & set(modules)
        assert "graphmatch.datasets" in modules
        assert json.loads(second) is True

    def test_synth_calls_the_module_attributes(self, monkeypatch, tmp_path):
        # wrappers set on the cli module must see every call synth makes
        assert cli.__dict__["main"] is main
        assert cli.__dict__["synthesize_corpus"] is datasets.synthesize_corpus
        assert cli.__dict__["write_gxl"] is datasets.write_gxl
        calls = []

        def counted(name):
            original = cli.__dict__[name]

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("synthesize_corpus", "write_gxl"):
            monkeypatch.setattr(cli, name, counted(name))
        synth_corpus(tmp_path, "corpus", classes=2, per_class=3)
        assert calls == ["synthesize_corpus"] + ["write_gxl"] * 6


class TestClassify:
    def test_zero_sigma_corpus_is_perfectly_classified(self, tmp_path):
        data, train_index = synth_corpus(tmp_path, "corpus")
        _, test_index = synth_corpus(
            tmp_path, "corpus", split="test", per_class=2, jitter_seed=9
        )
        out = tmp_path / "acc.csv"
        code = run(
            "classify",
            "--train", train_index,
            "--test", test_index,
            "--data", data,
            "--profile", "letter",
            "--method", "geometric(1,1,1,1)",
            "--knn", 1,
            "--out", out,
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["mean_accuracy"]) == 100.0
        assert rows[0]["method"] == "geometric(1,1,1,1)"
        assert int(rows[0]["pair_count"]) == 12 * 6
        assert float(rows[0]["acc_c00"]) == 100.0

    def test_ged_method_and_cost_flag(self, tmp_path):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=2)
        out = tmp_path / "acc.csv"
        code = run(
            "classify",
            "--train", train_index,
            "--test", train_index,
            "--data", data,
            "--method", "kstar-ged(1)",
            "--cost", "1,1,1,1,0.5",
            "--out", out,
        )
        assert code == 0
        assert float(read_csv(out)[0]["mean_accuracy"]) == 100.0

    def test_corpus_without_coordinates_rejected(self, tmp_path, capsys):
        index = molecule_corpus_without_coordinates(tmp_path)
        out = tmp_path / "acc.csv"
        code = run(
            "classify",
            "--train", index,
            "--test", index,
            "--data", tmp_path,
            "--profile", "molecule",
            "--method", "geometric(1,1,1,1)",
            "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: every pair failed: " in err and "coordinates" in err
        assert not out.exists()

    def test_unknown_method_fails_cleanly(self, tmp_path, capsys):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=1)
        code = run(
            "classify",
            "--train", train_index,
            "--test", train_index,
            "--data", data,
            "--method", "nosuch",
            "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_argument_count_names_the_form(self, tmp_path, capsys):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=1)
        code = run(
            "classify",
            "--train", train_index,
            "--test", train_index,
            "--data", data,
            "--method", "kstar-ged(1,2,3)",
            "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert "(k[,w])" in capsys.readouterr().err

    def test_bad_cost_flag(self, tmp_path):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=1)
        code = run(
            "classify",
            "--train", train_index,
            "--test", train_index,
            "--data", data,
            "--method", "ged",
            "--cost", "1,2",
            "--out", tmp_path / "x.csv",
        )
        assert code == 2

    def test_non_finite_cost_flag(self, tmp_path, capsys):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=1)
        code = run(
            "classify",
            "--train", train_index,
            "--test", train_index,
            "--data", data,
            "--method", "ged",
            "--cost", "nan,1,1,1,1",
            "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_cost_entry_names_flag_and_entry(self, tmp_path, capsys):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=1)
        code = run(
            "classify",
            "--train", train_index,
            "--test", train_index,
            "--data", data,
            "--method", "ged",
            "--cost", "1, x,1,1,1",
            "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --cost: y_node is not a number: 'x'\n"

    def test_non_finite_geometric_weight(self, tmp_path, capsys):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=1)
        code = run(
            "classify",
            "--train", train_index,
            "--test", train_index,
            "--data", data,
            "--method", "geometric(nan,1,1,1)",
            "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_some_failed_pairs_warn_and_keep_the_rest(self, tmp_path, capsys):
        # a graph without coordinates fails every geometric pair it is in
        graphs = [
            GeometricGraph([0, 1], [(0, 1)], coords={0: (0.0, 0.0), 1: (1.0, 0.0)}),
            GeometricGraph([0, 1], [(0, 1)], coords={0: (0.0, 0.0), 1: (0.0, 3.0)}),
            AttributedGraph([0, 1], [(0, 1)]),
        ]
        entries = []
        for i, g in enumerate(graphs):
            (tmp_path / f"g{i}.gxl").write_text(write_gxl(g))
            entries.append(f'<print file="g{i}.gxl" class="{"aab"[i]}"/>')
        index = tmp_path / "train.cxl"
        index.write_text(
            "<GraphCollection><fingerprints>" + "".join(entries)
            + "</fingerprints></GraphCollection>"
        )
        out = tmp_path / "acc.csv"
        code = run(
            "classify",
            "--train", index,
            "--test", index,
            "--data", tmp_path,
            "--profile", "generic",
            "--method", "geometric(1,1,1,1)",
            "--out", out,
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: 5 pairs failed" in err
        assert "first: g0.gxl vs g2.gxl: geometric distance needs graphs with coordinates" in err
        assert int(read_csv(out)[0]["pair_count"]) == 4

    def test_missing_required_flag_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            run("classify", "--train", "x.cxl")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--knn"])
    def test_count_below_one_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "classify",
                "--train", "x.cxl",
                "--test", "x.cxl",
                "--data", ".",
                "--method", "ged",
                "--out", "x.csv",
                flag, 0,
            )
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "classify",
                "--train", "x.cxl",
                "--test", "x.cxl",
                "--data", ".",
                "--method", "ged",
                "--out", "x.csv",
                "--jobs", 2,
            )
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestBench:
    def test_synthetic_pairs_and_csv_contract(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "bench",
            "--pairs", "synth:3x2:0.05:7",
            "--methods", "ged,kstar-ged(1),geometric(1,1,1,1)",
            "--reps", 2,
            "--limit", 4,
            "--out", out,
        )
        assert code == 0
        with open(out, newline="") as fh:
            header = fh.readline().strip()
        assert header == "method,pair_count,mean_ms,median_ms,min_ms"
        rows = read_csv(out)
        assert [r["method"] for r in rows] == ["ged", "kstar-ged(1)", "geometric(1,1,1,1)"]
        assert all(int(r["pair_count"]) == 4 for r in rows)
        assert all(float(r["min_ms"]) <= float(r["mean_ms"]) for r in rows)

    def test_dataset_pairs_and_distance_dump(self, tmp_path):
        data, index = synth_corpus(tmp_path, "corpus", classes=2, per_class=3)
        out = tmp_path / "bench.csv"
        distances = tmp_path / "distances.csv"
        code = run(
            "bench",
            "--pairs", index,
            "--methods", "bipartite",
            "--out", out,
            "--distances-out", distances,
        )
        assert code == 0
        assert int(read_csv(out)[0]["pair_count"]) == 5
        dist_rows = read_csv(distances)
        assert len(dist_rows) == 5
        assert {r["method"] for r in dist_rows} == {"bipartite"}

    @pytest.mark.parametrize("flag, value", [("--limit", -1), ("--limit", 0), ("--reps", 0)])
    def test_count_below_one_rejected(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(
                "bench",
                "--pairs", "synth:1x2:0:1",
                "--methods", "ged",
                "--out", tmp_path / "bench.csv",
                flag, value,
            )
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("methods", [",", " , ", ""])
    def test_empty_method_list_exit_2_without_csv(self, tmp_path, capsys, methods):
        out = tmp_path / "bench.csv"
        code = run("bench", "--pairs", "synth:1x2:0:1", "--methods", methods, "--out", out)
        assert code == 2
        assert f"error: --methods {methods!r} names no method" in capsys.readouterr().err
        assert not out.exists()

    def test_fewer_than_two_graphs_exit_2_without_csv(self, tmp_path, capsys):
        data, index = synth_corpus(tmp_path, "corpus", classes=1, per_class=2)
        (data / "c00-001.gxl").write_text("not gxl")  # one of the two fails to load
        out = tmp_path / "bench.csv"
        for pairs in ("synth:1x1:0.1:0", index):
            code = run("bench", "--pairs", pairs, "--methods", "ged", "--out", out)
            assert code == 2
            err = capsys.readouterr().err
            assert f"error: bench needs two graphs or more, {pairs} gives 1" in err
            assert not out.exists()


class TestContract:
    def write_graph(self, tmp_path, g, name="g.gxl"):
        path = tmp_path / name
        path.write_text(write_gxl(g))
        return path

    def test_kstar_matches_library(self, tmp_path):
        g = AttributedGraph(range(5), [(0, 1), (1, 2), (2, 3), (2, 4)])
        src = self.write_graph(tmp_path, g)
        out = tmp_path / "out.gxl"
        code = run(
            "contract", "--in", src, "--mode", "kstar", "--k", 1, "--out", out
        )
        assert code == 0
        expect, _ = k_star_node_contraction(g, 1)
        result = parse_gxl(out.read_bytes(), "generic")
        assert result.vertices == expect.vertices
        assert result.edges == expect.edges

    def test_path_mode(self, tmp_path):
        g = AttributedGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        src = self.write_graph(tmp_path, g)
        out = tmp_path / "out.gxl"
        assert run("contract", "--in", src, "--mode", "path", "--out", out) == 0
        result = parse_gxl(out.read_bytes(), "generic")
        assert result.vertices == (0, 3)
        assert result.edges == ((0, 3),)

    def test_tcentrality_mode(self, tmp_path):
        g = AttributedGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        src = self.write_graph(tmp_path, g)
        out = tmp_path / "out.gxl"
        code = run(
            "contract",
            "--in", src,
            "--mode", "tcentrality",
            "--t", 2,
            "--measure", "betweenness",
            "--out", out,
        )
        assert code == 0
        assert parse_gxl(out.read_bytes(), "generic").n == 2

    def test_rcentrality_mode_matches_library(self, tmp_path):
        g = AttributedGraph(range(5), [(0, 1), (1, 2), (2, 3), (2, 4)])
        src = self.write_graph(tmp_path, g)
        out = tmp_path / "out.gxl"
        code = run(
            "contract",
            "--in", src,
            "--mode", "rcentrality",
            "--r", 0.5,
            "--measure", "betweenness",
            "--out", out,
        )
        assert code == 0
        expect, _ = r_centrality_node_contraction(g, 0.5, "betweenness")
        result = parse_gxl(out.read_bytes(), "generic")
        assert result.vertices == expect.vertices
        assert result.edges == expect.edges

    @pytest.mark.parametrize("mode, option", [("rcentrality", "--r"), ("tcentrality", "--t")])
    def test_mode_option_checked_before_reading(self, tmp_path, capsys, mode, option):
        code = run(
            "contract", "--in", tmp_path / "absent.gxl", "--mode", mode,
            "--out", tmp_path / "o.gxl",
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: --mode {mode} needs {option}\n"
        assert not (tmp_path / "o.gxl").exists()

    @pytest.mark.parametrize("mode", ["kstar", "rcentrality", "tcentrality", "path"])
    def test_unknown_measure_exits_2_before_reading(self, tmp_path, capsys, mode):
        out = tmp_path / "o.gxl"
        code = run(
            "contract", "--in", tmp_path / "absent.gxl", "--mode", mode,
            "--k", 1, "--r", 0.5, "--t", 1, "--measure", "bogus", "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bogus" in err and "absent" not in err
        assert all(m in err for m in ("degree", "betweenness", "eigenvector", "pagerank"))
        assert not out.exists()

    @pytest.mark.parametrize("measure", ["degree", "betweenness", "eigenvector", "pagerank"])
    @pytest.mark.parametrize(
        "mode, option, value, contraction",
        [
            ("rcentrality", "--r", 0.5, r_centrality_node_contraction),
            ("tcentrality", "--t", 2, t_centrality_node_contraction),
        ],
    )
    def test_each_measure_writes_the_library_contraction(
        self, tmp_path, mode, option, value, contraction, measure
    ):
        g = AttributedGraph(range(7), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (1, 5)])
        src = self.write_graph(tmp_path, g)
        out = tmp_path / "out.gxl"
        code = run(
            "contract", "--in", src, "--mode", mode, option, value,
            "--measure", measure, "--out", out,
        )
        assert code == 0
        expect, _ = contraction(g, value, measure)
        assert out.read_text() == write_gxl(expect)

    def test_missing_mode_parameter(self, tmp_path, capsys):
        src = self.write_graph(tmp_path, AttributedGraph([0, 1], [(0, 1)]))
        code = run("contract", "--in", src, "--mode", "kstar", "--out", tmp_path / "o.gxl")
        assert code == 2
        assert "needs --k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            '<?xml version="1.0" encoding="no-such-codec"?><gxl><graph/></gxl>',
            '<gxl><graph><node id="_0"><attr name="label">'
            "<tup><tup><float>1.0</float></tup></tup></attr></node></graph></gxl>",
            f'<gxl><graph><node id="_0"><attr name="x"><int>{"9" * 400}</int></attr>'
            '<attr name="y"><float>0.0</float></attr></node></graph></gxl>',
            '<gxl><graph><node id="_0"><attr name="label">'
            + "<tup>" * 3000 + "<float>1.0</float>" + "</tup>" * 3000
            + "</attr></node></graph></gxl>",
        ],
        ids=["unknown-encoding", "nested-tup-label", "int-beyond-float", "deep-tup-label"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, doc):
        src = tmp_path / "bad.gxl"
        src.write_text(doc)
        code = run("contract", "--in", src, "--mode", "path", "--out", tmp_path / "o.gxl")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestIsocheck:
    def geometric_file(self, tmp_path, name, coords, edges=((0, 1), (1, 2))):
        g = GeometricGraph(range(len(coords)), edges, coords=dict(enumerate(coords)))
        path = tmp_path / name
        path.write_text(write_gxl(g))
        return path

    def rotated(self, coords, angle, shift, scale=1.0):
        c, s = math.cos(angle), math.sin(angle)
        return [
            (scale * (c * x - s * y) + shift[0], scale * (s * x + c * y) + shift[1])
            for x, y in coords
        ]

    def test_transformed_copy_is_isomorphic(self, tmp_path):
        coords = [(0.0, 0.0), (1.0, 0.2), (1.4, 1.0)]
        g1 = self.geometric_file(tmp_path, "a.gxl", coords)
        g2 = self.geometric_file(
            tmp_path, "b.gxl", self.rotated(coords, 0.7, (3.0, -1.0), 2.0)
        )
        code = run("isocheck", "--g1", g1, "--g2", g2, "--profile", "generic")
        assert code == 0

    def test_jittered_copy_within_tolerance(self, tmp_path, capsys):
        coords = [(0.0, 0.0), (1.0, 0.2), (1.4, 1.0)]
        offsets = [(0.012, -0.008), (-0.006, 0.004), (0.009, 0.011)]
        moved = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(coords, offsets)]
        g1 = self.geometric_file(tmp_path, "a.gxl", coords)
        g2 = self.geometric_file(tmp_path, "b.gxl", moved)
        assert run("isocheck", "--g1", g1, "--g2", g2, "--tolerance", 0.1) == 1
        assert "t_tolerant" in capsys.readouterr().out

    def test_distinct_graphs_report_distance(self, tmp_path, capsys):
        g1 = self.geometric_file(tmp_path, "a.gxl", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        g2 = self.geometric_file(tmp_path, "b.gxl", [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0)])
        assert run("isocheck", "--g1", g1, "--g2", g2) == 3
        out = capsys.readouterr().out
        assert out.startswith("distance")

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_invalid_tolerance_is_an_error(self, tmp_path, capsys, tolerance):
        coords = [(0.0, 0.0), (1.0, 0.2), (1.4, 1.0)]
        moved = [(x + 0.01, y) for x, y in coords[:2]] + coords[2:]
        g1 = self.geometric_file(tmp_path, "a.gxl", coords)
        g2 = self.geometric_file(tmp_path, "b.gxl", moved)
        assert run("isocheck", "--g1", g1, "--g2", g2, "--tolerance", tolerance) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance must be finite and >= 0")

    def test_attributed_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "plain.gxl"
        path.write_text(write_gxl(AttributedGraph([0, 1], [(0, 1)])))
        code = run("isocheck", "--g1", path, "--g2", path, "--profile", "generic")
        assert code == 2
        assert "coordinates" in capsys.readouterr().err


class TestTune:
    def test_writes_normalized_weights_and_accuracy(self, tmp_path):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=3, per_class=3)
        _, val_index = synth_corpus(
            tmp_path, "corpus", split="validation", classes=3, per_class=2, jitter_seed=3
        )
        out = tmp_path / "weights.json"
        code = run(
            "tune",
            "--train", train_index,
            "--validation", val_index,
            "--data", data,
            "--delta", 0.1,
            "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"w1", "w2", "w3", "w4", "accuracy"}
        assert sum(payload[k] for k in ("w1", "w2", "w3", "w4")) == pytest.approx(1.0)
        assert payload["accuracy"] == 100.0

    def test_align_flag_matches_library(self, tmp_path):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=3, per_class=2, sigma=0.3)
        # the validation split goes to its own directory, so that its files
        # keep the train graphs; its index names them relative to --data
        _, val_dir_index = synth_corpus(
            tmp_path, "corpus/val", split="validation", classes=3, per_class=2, sigma=0.3,
            jitter_seed=10,
        )
        val_index = data / "validation.cxl"
        val_index.write_text(val_dir_index.read_text().replace('file="', 'file="val/'))
        out = tmp_path / "weights.json"
        code = run(
            "tune",
            "--train", train_index,
            "--validation", val_index,
            "--data", data,
            "--delta", 0.2,
            "--align",
            "--out", out,
        )
        assert code == 0
        train = load_dataset(train_index, data, "letter", name="train")
        validation = load_dataset(val_index, data, "letter", name="validation")
        assert len(validation.instances) == 6 and not validation.errors
        weights = tune_weights(train, validation, delta=0.2, align=True)
        w1, w2, w3, w4 = weights.as_tuple()
        assert (w1, w2, w3, w4) != (0.25, 0.25, 0.25, 0.25)  # the search moved
        method = f"geometric({w1!r},{w2!r},{w3!r},{w4!r},align)"
        accuracy = knn_classify(train, validation, MatcherSpec(method), 1).mean_accuracy
        assert json.loads(out.read_text()) == {
            "w1": w1, "w2": w2, "w3": w3, "w4": w4, "accuracy": accuracy
        }

    def test_start_flag(self, tmp_path):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=2)
        out = tmp_path / "weights.json"
        code = run(
            "tune",
            "--train", train_index,
            "--validation", train_index,
            "--data", data,
            "--start", "0.4,0.2,0.2,0.2",
            "--out", out,
        )
        assert code == 0
        assert json.loads(out.read_text())["w1"] == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "start, message",
        [
            ("0.4,0.2,w,0.2", "error: --start: w3 is not a number: 'w'"),
            ("0.4,0.2", "error: --start needs 4 values: w1,w2,w3,w4"),
        ],
    )
    def test_bad_start_flag(self, tmp_path, capsys, start, message):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=2)
        out = tmp_path / "weights.json"
        code = run(
            "tune",
            "--train", train_index,
            "--validation", train_index,
            "--data", data,
            "--start", start,
            "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_molecule_corpus_without_coordinates_rejected(self, tmp_path, capsys):
        entries = []
        for i in range(4):
            g = AttributedGraph(range(3), [(0, 1), (1, 2)][: 1 + i % 2], {0: "C", 1: "O", 2: "C"})
            (tmp_path / f"m{i}.gxl").write_text(write_gxl(g))
            entries.append(f'<print file="m{i}.gxl" class="{"ab"[i % 2]}"/>')
        index = tmp_path / "train.cxl"
        index.write_text(
            "<GraphCollection><fingerprints>" + "".join(entries) + "</fingerprints></GraphCollection>"
        )
        out = tmp_path / "weights.json"
        code = run(
            "tune",
            "--train", index,
            "--validation", index,
            "--data", tmp_path,
            "--profile", "molecule",
            "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "coordinates" in err
        assert not out.exists()

    def test_non_finite_delta_rejected(self, tmp_path, capsys):
        data, train_index = synth_corpus(tmp_path, "corpus", classes=2, per_class=2)
        out = tmp_path / "weights.json"
        code = run(
            "tune",
            "--train", train_index,
            "--validation", train_index,
            "--data", data,
            "--delta", "inf",
            "--out", out,
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
