"""End-to-end runs of every CLI subcommand against temporary corpora."""

from __future__ import annotations

import csv
import json
import math

import pytest

from graphmatch.bench import MatcherSpec, knn_classify, tune_weights
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
            "--audit",
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

    def test_missing_required_flag_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            run("classify", "--train", "x.cxl")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--knn", "--jobs"])
    def test_count_below_one_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "classify",
                "--train", "x.cxl",
                "--test", "x.cxl",
                "--data", ".",
                "--method", "ged",
                "--out", "x.csv",
                flag, -3 if flag == "--jobs" else 0,
            )
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be >= 1" in capsys.readouterr().err


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

    def test_missing_mode_parameter(self, tmp_path, capsys):
        src = self.write_graph(tmp_path, AttributedGraph([0, 1], [(0, 1)]))
        code = run("contract", "--in", src, "--mode", "kstar", "--out", tmp_path / "o.gxl")
        assert code == 2
        assert "needs --k" in capsys.readouterr().err


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
        assert run("isocheck", "--g1", g1, "--g2", g2) == 2
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
