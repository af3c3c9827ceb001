"""GXL/CXL parsing, serialization round-trips, and corpus synthesis."""

from __future__ import annotations

import random

import pytest

from graphmatch.datasets import (
    DanglingEdgeError,
    DatasetSplit,
    GxlParseError,
    LabeledInstance,
    MissingCoordinateError,
    PROFILES,
    load_dataset,
    parse_gxl,
    synthesize_corpus,
    write_cxl,
    write_gxl,
)
from graphmatch.graphs import AttributedGraph, GeometricGraph, random_graph

LETTER_SAMPLE = """
<gxl>
  <graph id="sample" edgeids="false" edgemode="undirected">
    <node id="_0"><attr name="x"><float>0.0</float></attr>
                  <attr name="y"><float>0.0</float></attr></node>
    <node id="_1"><attr name="x"><float>1.0</float></attr>
                  <attr name="y"><float>1.0</float></attr></node>
    <edge from="_0" to="_1"/>
  </graph>
</gxl>
"""

HUGE_INT = "<int>" + "9" * 400 + "</int>"  # parses as an int, too large for a float
# nested deeper than Python's default recursion limit
DEEP_TUP = "<tup>" * 3000 + "<float>1.0</float>" + "</tup>" * 3000


def with_label(value):
    return LETTER_SAMPLE.replace("</node>", f'<attr name="label">{value}</attr></node>', 1)


# Documents that must fail under every profile, each as a GxlParseError.
MALFORMED = {
    "bad-encoding.gxl": '<?xml version="1.0" encoding="no-such-codec"?>' + LETTER_SAMPLE,
    "huge-x.gxl": LETTER_SAMPLE.replace("<float>1.0</float>", HUGE_INT, 1),
    # every profile decodes every node attr, and no attr may nest a tup
    "nested-tup.gxl": with_label("<tup><tup><float>1.0</float></tup></tup>"),
    "deep-tup.gxl": with_label(DEEP_TUP),
    "date-value.gxl": with_label("<date>2020-01-01</date>"),
    "nameless-attr.gxl": LETTER_SAMPLE.replace('name="x"', "", 1),
    "idless-node.gxl": LETTER_SAMPLE.replace(' id="_1"', "", 1),
    "fromless-edge.gxl": LETTER_SAMPLE.replace(' from="_0"', "", 1),
    "toless-edge.gxl": LETTER_SAMPLE.replace(' to="_1"', "", 1),
}

# Documents whose labels are malformed: they fail under the generic profile,
# which reads labels.
MALFORMED_LABELS = {
    "huge-label.gxl": with_label(HUGE_INT),
}


def molecule_doc(symbol_attr="symbol", with_coords=False, carbon="C"):
    coords = (
        '<attr name="x"><float>0.5</float></attr><attr name="y"><float>1.5</float></attr>'
        if with_coords
        else ""
    )
    return f"""
    <gxl><graph id="m">
      <node id="_0"><attr name="{symbol_attr}"><string>{carbon}</string></attr>{coords}</node>
      <node id="_1"><attr name="{symbol_attr}"><string>O</string></attr>{coords}</node>
      <edge from="_0" to="_1"/>
    </graph></gxl>
    """


class TestParseGxl:
    def test_letter_minimal(self):
        g = parse_gxl(LETTER_SAMPLE, "letter")
        assert isinstance(g, GeometricGraph)
        assert g.vertices == (0, 1)
        assert g.edges == ((0, 1),)
        assert g.coords[0] == (0.0, 0.0) and g.coords[1] == (1.0, 1.0)
        assert g.node_label(0) == (0.0, 0.0)  # coordinate doubles as label

    def test_letter_accepts_bytes(self):
        g = parse_gxl(LETTER_SAMPLE.encode(), "letter")
        assert g.n == 2

    def test_letter_missing_coordinate(self):
        doc = LETTER_SAMPLE.replace('<attr name="y"><float>1.0</float></attr>', "", 1)
        with pytest.raises(MissingCoordinateError):
            parse_gxl(doc, "letter")

    def test_dangling_edge(self):
        doc = LETTER_SAMPLE.replace('to="_1"', 'to="_9"')
        with pytest.raises(DanglingEdgeError):
            parse_gxl(doc, "letter")

    def test_malformed_document(self):
        with pytest.raises(GxlParseError):
            parse_gxl("<gxl><graph>", "letter")

    def test_graph_element_count_checked(self):
        with pytest.raises(GxlParseError):
            parse_gxl("<gxl></gxl>", "letter")
        with pytest.raises(GxlParseError):
            parse_gxl("<gxl><graph/><graph/></gxl>", "letter")

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            parse_gxl(LETTER_SAMPLE, "letters")

    def test_molecule_symbolic_labels(self):
        g = parse_gxl(molecule_doc(), "molecule")
        assert not isinstance(g, GeometricGraph)
        assert g.node_label(0) == "C" and g.node_label(1) == "O"

    def test_molecule_chem_attribute_accepted(self):
        g = parse_gxl(molecule_doc(symbol_attr="chem"), "molecule")
        assert g.node_label(0) == "C"

    def test_molecule_symbols_lose_their_padding(self):
        # AIDS-style files pad chemical symbols to a fixed width
        for carbon in ("C  ", " C", "\tC\n"):
            assert parse_gxl(molecule_doc(carbon=carbon), "molecule").node_label(0) == "C"

    def test_molecule_attribute_map_override(self):
        doc = molecule_doc(symbol_attr="atom")
        assert parse_gxl(doc, "molecule").node_label(0) is None

    def test_molecule_with_total_coordinates_is_geometric(self):
        g = parse_gxl(molecule_doc(with_coords=True), "molecule")
        assert isinstance(g, GeometricGraph)
        assert g.coords[0] == (0.5, 1.5)
        assert g.node_label(0) == "C"

    def test_scientific_notation(self):
        doc = LETTER_SAMPLE.replace("<float>1.0</float>", "<float>1.5e-3</float>", 1)
        g = parse_gxl(doc, "letter")
        assert g.coords[1] == (1.5e-3, 1.0)

    def test_malformed_values_raise_parse_error(self):
        for profile, docs in (
            ("letter", MALFORMED),
            ("molecule", MALFORMED),
            ("generic", {**MALFORMED, **MALFORMED_LABELS}),
        ):
            for doc in docs.values():
                with pytest.raises(GxlParseError):
                    parse_gxl(doc.encode(), profile)

    def test_bad_float_literal(self):
        doc = LETTER_SAMPLE.replace("<float>1.0</float>", "<float>one</float>", 1)
        with pytest.raises(GxlParseError):
            parse_gxl(doc, "letter")

    def test_non_numeric_node_ids_numbered_by_order(self):
        doc = LETTER_SAMPLE.replace("_0", "left").replace("_1", "right")
        g = parse_gxl(doc, "letter")
        assert g.vertices == (0, 1)
        assert g.coords[1] == (1.0, 1.0)

    def test_numeric_node_ids_kept(self):
        doc = LETTER_SAMPLE.replace("_0", "_7").replace("_1", "3")
        g = parse_gxl(doc, "letter")
        assert g.vertices == (7, 3)
        assert g.has_edge(3, 7)

    def test_colliding_numeric_ids_fall_back_to_order(self):
        doc = LETTER_SAMPLE.replace('id="_0"', 'id="_1"', 1)
        # ids "_1" and "_1" collide outright: duplicate document ids
        with pytest.raises(GxlParseError):
            parse_gxl(doc, "letter")
        doc = LETTER_SAMPLE.replace('id="_0"', 'id="1"', 1).replace('from="_0"', 'from="1"')
        g = parse_gxl(doc, "letter")  # "1" vs "_1" resolve to the same int
        assert g.vertices == (0, 1)

    def test_untyped_attr_reads_as_text(self):
        doc = """
        <gxl><graph>
          <node id="_0"><attr name="label">plain text</attr></node>
        </graph></gxl>
        """
        assert parse_gxl(doc, "generic").node_label(0) == "plain text"

    def test_bool_values_read_as_numbers(self):
        for text, want in (("true", (1.0,)), (" True ", (1.0,)), ("false", (0.0,))):
            doc = with_label(f"<bool>{text}</bool>")
            assert parse_gxl(doc, "generic").node_label(0) == want
            assert parse_gxl(doc, "letter").node_label(0) == (0.0, 0.0)

    def test_generic_scalar_label_becomes_vector(self):
        doc = """
        <gxl><graph>
          <node id="_0"><attr name="label"><float>2.5</float></attr></node>
        </graph></gxl>
        """
        assert parse_gxl(doc, "generic").node_label(0) == (2.5,)

    def test_self_loop_rejected(self):
        doc = LETTER_SAMPLE.replace('to="_1"', 'to="_0"')
        with pytest.raises(GxlParseError):
            parse_gxl(doc, "letter")


class TestRoundTrip:
    def assert_identical(self, g, h):
        assert type(g) is type(h)
        assert g.vertices == h.vertices
        assert g.edges == h.edges
        assert g.node_labels == h.node_labels
        assert g.edge_labels == h.edge_labels
        if isinstance(g, GeometricGraph):
            assert g.coords == h.coords

    def test_attributed_graph(self):
        g = AttributedGraph(
            [4, 2, 9],
            [(4, 2), (2, 9)],
            node_labels={4: "a", 2: "b"},
            edge_labels={(2, 4): "x"},
        )
        self.assert_identical(g, parse_gxl(write_gxl(g), "generic"))

    def test_vector_labels(self):
        g = AttributedGraph(
            [0, 1],
            [(0, 1)],
            node_labels={0: (1.0, -2.5), 1: (0.001, 1e9)},
            edge_labels={(0, 1): (3.125,)},
        )
        self.assert_identical(g, parse_gxl(write_gxl(g), "generic"))

    def test_geometric_graph_with_exact_coordinates(self):
        rng = random.Random(11)
        skeleton = random_graph(6, 0.5, seed=23)
        g = GeometricGraph(
            skeleton.vertices,
            skeleton.edges,
            coords={v: (rng.random(), rng.random()) for v in skeleton.vertices},
        )
        self.assert_identical(g, parse_gxl(write_gxl(g), "generic"))

    def test_random_graphs(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(rng.randint(1, 9), rng.uniform(0.1, 0.9), seed=rng.getrandbits(16))
            self.assert_identical(g, parse_gxl(write_gxl(g), "generic"))

    def test_string_labels_keep_their_whitespace(self):
        g = AttributedGraph(
            [0, 1, 2],
            [(0, 1), (1, 2)],
            node_labels={0: " C ", 1: "  ", 2: ""},
            edge_labels={(0, 1): " x", (1, 2): "y\t"},
        )
        self.assert_identical(g, parse_gxl(write_gxl(g), "generic"))

    def test_negative_vertex_ids(self):
        g = GeometricGraph(
            [-1, 5, 2], [(-1, 5), (5, 2)], coords={-1: (0.0, 1.0), 5: (2.0, 3.0), 2: (4.0, 5.0)}
        )
        self.assert_identical(g, parse_gxl(write_gxl(g), "generic"))

    def test_letter_parse_then_write_round_trips_generically(self):
        g = parse_gxl(LETTER_SAMPLE, "letter")
        self.assert_identical(g, parse_gxl(write_gxl(g), "generic"))


class TestSplitTypes:
    def test_class_label_nonempty(self):
        with pytest.raises(ValueError):
            LabeledInstance(AttributedGraph([0]), "", "f.gxl")

    def test_split_name_checked(self):
        with pytest.raises(ValueError):
            DatasetSplit("holdout", ())

    def test_source_ids_unique(self):
        inst = LabeledInstance(AttributedGraph([0]), "a", "f.gxl")
        with pytest.raises(ValueError):
            DatasetSplit("train", (inst, inst))

    def test_classes_sorted(self):
        split = DatasetSplit(
            "train",
            (
                LabeledInstance(AttributedGraph([0]), "b", "1.gxl"),
                LabeledInstance(AttributedGraph([0]), "a", "2.gxl"),
                LabeledInstance(AttributedGraph([0]), "b", "3.gxl"),
            ),
        )
        assert split.classes == ("a", "b")


class TestLoadDataset:
    def write_corpus(self, tmp_path, entries, index_name="train.cxl"):
        index = tmp_path / index_name
        index.write_text(write_cxl([(f, c) for f, c, _ in entries]))
        for file, _, text in entries:
            if text is not None:
                (tmp_path / file).write_text(text)
        return index

    def test_empty_index(self, tmp_path):
        index = self.write_corpus(tmp_path, [])
        split = load_dataset(index, tmp_path, "letter")
        assert split.instances == () and split.errors == ()

    def test_loads_instances_with_classes(self, tmp_path):
        index = self.write_corpus(
            tmp_path,
            [("a.gxl", "A", LETTER_SAMPLE), ("b.gxl", "B", LETTER_SAMPLE)],
        )
        split = load_dataset(index, tmp_path, "letter")
        assert split.name == "train"
        assert [i.class_label for i in split.instances] == ["A", "B"]
        assert [i.source_id for i in split.instances] == ["a.gxl", "b.gxl"]
        assert all(isinstance(i.graph, GeometricGraph) for i in split.instances)

    def test_per_file_failures_recorded_and_skipped(self, tmp_path):
        for profile in PROFILES:
            bad = {"broken.gxl": "<gxl><graph>", "missing.gxl": None, **MALFORMED}
            if profile == "generic":
                bad.update(MALFORMED_LABELS)
            index = self.write_corpus(
                tmp_path,
                [("good.gxl", "A", LETTER_SAMPLE)] + [(f, "A", doc) for f, doc in bad.items()],
                index_name=f"{profile}.cxl",
            )
            split = load_dataset(index, tmp_path, profile)
            assert [i.source_id for i in split.instances] == ["good.gxl"]
            assert len(split.errors) == len(bad)
            for file in bad:
                assert any(file in e for e in split.errors)

    def test_print_entries_without_file_or_class_recorded(self, tmp_path):
        (tmp_path / "a.gxl").write_text(LETTER_SAMPLE)
        index = tmp_path / "train.cxl"
        index.write_text(
            '<GraphCollection><fingerprints><print file="a.gxl" class="A"/>'
            '<print file="a.gxl"/><print class="A"/></fingerprints></GraphCollection>'
        )
        split = load_dataset(index, tmp_path, "letter")
        assert [i.source_id for i in split.instances] == ["a.gxl"]
        assert split.errors == ("print entry without file/class attributes",) * 2

    def test_duplicate_index_entries_skipped(self, tmp_path):
        index = self.write_corpus(
            tmp_path,
            [("a.gxl", "A", LETTER_SAMPLE), ("a.gxl", "B", None)],
        )
        split = load_dataset(index, tmp_path, "letter")
        assert len(split.instances) == 1
        assert any("duplicate" in e for e in split.errors)

    def test_unreadable_index_is_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.cxl", tmp_path, "letter")
        bad = tmp_path / "bad.cxl"
        bad.write_text("<GraphCollection")
        with pytest.raises(GxlParseError):
            load_dataset(bad, tmp_path, "letter")
        bad.write_text('<?xml version="1.0" encoding="no-such-codec"?>' + write_cxl([]))
        with pytest.raises(GxlParseError):
            load_dataset(bad, tmp_path, "letter")

    def test_split_name_inference_and_override(self, tmp_path):
        for index_name, expected in (
            ("train.cxl", "train"),
            ("validation.cxl", "validation"),
            ("valid.cxl", "validation"),
            ("test.cxl", "test"),
            ("index.cxl", "test"),
        ):
            index = self.write_corpus(tmp_path, [], index_name=index_name)
            assert load_dataset(index, tmp_path, "letter").name == expected
        index = self.write_corpus(tmp_path, [], index_name="everything.cxl")
        assert load_dataset(index, tmp_path, "letter", name="train").name == "train"


class TestSynthesizeCorpus:
    def test_instance_count(self):
        split = synthesize_corpus(classes=5, per_class=4, sigma=0.05, seed=1)
        assert len(split.instances) == 20
        assert len(split.classes) == 5

    def test_zero_sigma_copies_identical(self):
        split = synthesize_corpus(classes=3, per_class=4, sigma=0.0, seed=9)
        by_class = {}
        for inst in split.instances:
            by_class.setdefault(inst.class_label, []).append(inst.graph)
        for graphs in by_class.values():
            first = graphs[0]
            for g in graphs[1:]:
                assert g.vertices == first.vertices
                assert g.edges == first.edges
                assert g.coords == first.coords

    def test_reproducible(self):
        a = synthesize_corpus(classes=4, per_class=3, sigma=0.1, seed=42)
        b = synthesize_corpus(classes=4, per_class=3, sigma=0.1, seed=42)
        for x, y in zip(a.instances, b.instances):
            assert x.source_id == y.source_id
            assert x.graph.coords == y.graph.coords

    def test_jitter_seed_changes_noise_but_not_prototypes(self):
        a = synthesize_corpus(classes=3, per_class=2, sigma=0.02, seed=7, jitter_seed=1)
        b = synthesize_corpus(classes=3, per_class=2, sigma=0.02, seed=7, jitter_seed=2)
        coords_differ = False
        for x, y in zip(a.instances, b.instances):
            assert x.graph.vertices == y.graph.vertices  # shared skeleton
            assert x.graph.edges == y.graph.edges
            coords_differ |= x.graph.coords != y.graph.coords
            for (x1, y1), (x2, y2) in zip(
                x.graph.coords.values(), y.graph.coords.values()
            ):
                # both sit within sigma of one shared prototype coordinate
                assert abs(x1 - x2) <= 0.04 + 1e-12 and abs(y1 - y2) <= 0.04 + 1e-12
        assert coords_differ

    def test_labels_mirror_coordinates(self):
        split = synthesize_corpus(classes=2, per_class=2, sigma=0.1, seed=3)
        for inst in split.instances:
            for v in inst.graph.vertices:
                assert inst.graph.node_label(v) == inst.graph.coords[v]

    def test_argument_validation(self):
        for kwargs in (
            dict(classes=0, per_class=1),
            dict(classes=1, per_class=0),
            dict(classes=1, per_class=1, sigma=-0.1),
            dict(classes=1, per_class=1, n_range=(0, 4)),
            dict(classes=1, per_class=1, n_range=(5, 4)),
        ):
            with pytest.raises(ValueError):
                synthesize_corpus(sigma=kwargs.pop("sigma", 0.0), seed=0, **kwargs)
