import os
import re
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from psp import data as data_module
from psp.autodiff import seeded_rng
from psp.data import (
    Checkpoint,
    _line_ranges,
    _RawDraws,
    _read_lines,
    _read_table,
    export_weight_matrix,
    generate_sbm,
    load_checkpoint,
    load_node_dataset,
    load_tu_dataset,
    mask_training_labels,
    sample_k_shot,
    save_checkpoint,
    save_node_dataset,
    write_table,
)
from psp.encoders import PARAM_NAMES, init_encoder_params
from psp.errors import DataError, FormatError, ParameterError, PspError
from psp.graph import PromptedGraph, build_csr, class_count

from oracles import choice_sbm_edges, intra_class_edge_fraction


# ---------------------------------------------------------------------------
# node TSV triple


def write_node_fixture(directory, edges="0\t1\n", features="1.0\t2.0\n3.0\t4.0\n",
                       labels="0\n1\n"):
    directory.mkdir(exist_ok=True)
    (directory / "edges.tsv").write_text(edges)
    (directory / "features.tsv").write_text(features)
    (directory / "labels.tsv").write_text(labels)


def test_load_node_dataset_minimal(tmp_path):
    write_node_fixture(tmp_path / "d")
    g = load_node_dataset(tmp_path / "d")
    assert g.n_nodes == 2 and g.n_classes == 2
    np.testing.assert_array_equal(g.adjacency.toarray(), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(g.features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_node_dataset_missing_labels(tmp_path):
    write_node_fixture(tmp_path / "d")
    (tmp_path / "d" / "labels.tsv").unlink()
    with pytest.raises(DataError, match="labels.tsv"):
        load_node_dataset(tmp_path / "d")


def test_load_node_dataset_ragged_features(tmp_path):
    write_node_fixture(tmp_path / "d", features="1.0\t2.0\n3.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_node_dataset(tmp_path / "d")


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_load_node_dataset_rejects_non_finite_features(tmp_path, bad):
    write_node_fixture(tmp_path / "d", features=f"1.0\t2.0\n\n3.0\t{bad}\n")
    with pytest.raises(DataError, match="features.tsv line 3: non-finite"):
        load_node_dataset(tmp_path / "d")


def test_load_node_dataset_bad_edge(tmp_path):
    write_node_fixture(tmp_path / "d", edges="0\t9\n")
    with pytest.raises(DataError, match="line 1"):
        load_node_dataset(tmp_path / "d")


def test_load_node_dataset_label_count_mismatch(tmp_path):
    write_node_fixture(tmp_path / "d", labels="0\n")
    with pytest.raises(DataError, match="labels.tsv"):
        load_node_dataset(tmp_path / "d")


def test_node_dataset_roundtrip(tmp_path):
    g = generate_sbm(40, 2, 0.7, 4.0, 8, 0.5, seed=3)
    save_node_dataset(tmp_path / "d", g)
    back = load_node_dataset(tmp_path / "d")
    assert back.n_nodes == g.n_nodes and back.n_classes == g.n_classes
    np.testing.assert_array_equal(back.features, g.features)
    np.testing.assert_array_equal(back.labels, g.labels)
    np.testing.assert_array_equal(back.adjacency.toarray(), g.adjacency.toarray())


# ---------------------------------------------------------------------------
# TU layout


def write_tu_fixture(directory, name="TOY", attributes=True, labels=(1, -1, 1),
                     node_labels=None):
    """Triangle (nodes 1-3), path (nodes 4-6), singleton (node 7)."""
    directory.mkdir(exist_ok=True)
    edges = ["1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1",
             "4, 5", "5, 4", "5, 6", "6, 5"]
    (directory / f"{name}_A.txt").write_text("\n".join(edges) + "\n")
    (directory / f"{name}_graph_indicator.txt").write_text(
        "\n".join(["1"] * 3 + ["2"] * 3 + ["3"]) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text("\n".join(str(v) for v in labels) + "\n")
    if attributes:
        rows = [f"{float(i)}, {float(i % 2)}" for i in range(7)]
        (directory / f"{name}_node_attributes.txt").write_text("\n".join(rows) + "\n")
    if node_labels is not None:
        (directory / f"{name}_node_labels.txt").write_text(
            "\n".join(str(v) for v in node_labels) + "\n")


def test_load_tu_dataset_blocks_and_membership(tmp_path):
    write_tu_fixture(tmp_path / "tu")
    g = load_tu_dataset(tmp_path / "tu", "TOY")
    assert g.n_nodes == 7 and g.n_graphs == 3
    np.testing.assert_array_equal(g.graph_of, [0, 0, 0, 1, 1, 1, 2])
    dense = g.adjacency.toarray()
    assert dense[:3, 3:].sum() == 0  # block-diagonal
    assert dense[:3, :3].sum() == 6  # triangle
    assert dense[6].sum() == 0  # singleton


def test_load_tu_dataset_label_remap(tmp_path):
    write_tu_fixture(tmp_path / "tu", labels=(1, -1, 1))
    g = load_tu_dataset(tmp_path / "tu", "TOY")
    np.testing.assert_array_equal(g.graph_labels, [1, 0, 1])
    assert class_count(g.graph_labels) == 2


def test_load_tu_dataset_degree_fallback(tmp_path):
    write_tu_fixture(tmp_path / "tu", attributes=False)
    g = load_tu_dataset(tmp_path / "tu", "TOY")
    assert g.features.shape[1] == 64
    np.testing.assert_array_equal(g.features[0], np.eye(64)[2])  # triangle degree 2
    np.testing.assert_array_equal(g.features[6], np.eye(64)[0])  # singleton degree 0


def test_load_tu_dataset_node_labels(tmp_path):
    write_tu_fixture(tmp_path / "tu", node_labels=(5, 5, 7, 5, 7, 7, 5))
    g = load_tu_dataset(tmp_path / "tu", "TOY")
    np.testing.assert_array_equal(g.labels, [0, 0, 1, 0, 1, 1, 0])
    assert g.n_classes == 2


def test_load_tu_dataset_rejects_cross_graph_edges(tmp_path):
    write_tu_fixture(tmp_path / "tu")
    with open(tmp_path / "tu" / "TOY_A.txt", "a") as fh:
        fh.write("3, 4\n")
    with pytest.raises(DataError, match="crosses graph boundaries"):
        load_tu_dataset(tmp_path / "tu", "TOY")


def test_load_tu_dataset_rejects_non_finite_attributes(tmp_path):
    write_tu_fixture(tmp_path / "tu")
    attr = tmp_path / "tu" / "TOY_node_attributes.txt"
    lines = attr.read_text().splitlines()
    lines[4] = "4.0, nan"
    attr.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="TOY_node_attributes.txt line 5: non-finite"):
        load_tu_dataset(tmp_path / "tu", "TOY")


@pytest.mark.parametrize("layout,name,text,message", [
    ("node", "edges.tsv", "0\t1\n\n0\t9\n", "edges.tsv line 3: endpoint out of range"),
    ("node", "features.tsv", "1.0\t2.0\n\n3.0\tnan\n", "features.tsv line 3: non-finite value"),
    ("node", "edges.tsv", "0\t1\n0\t99999999999999999999\n",
     "edges.tsv line 2: integer out of int64 range"),
    ("node", "labels.tsv", "0\n\n1\t1\n", "labels.tsv line 3: expected 1 columns, got 2"),
    ("tu", "TOY_A.txt", "1, 2\n2, 1\n\n3, 4\n", "TOY_A.txt line 4: edge crosses graph"),
    ("tu", "TOY_A.txt", "1, 2\n\n\n2, 0\n", "TOY_A.txt line 4: endpoint out of range"),
    ("tu", "TOY_graph_indicator.txt", "1\n1\n1\n2,\n2\n2\n3\n",
     "TOY_graph_indicator.txt line 4: non-integer value"),
    ("tu", "TOY_node_attributes.txt", "\n" + ",\n" * 7, "TOY_node_attributes.txt line 2: no columns"),
])
def test_table_errors_name_the_file_and_line(tmp_path, layout, name, text, message):
    d = tmp_path / "d"
    (write_node_fixture if layout == "node" else write_tu_fixture)(d)
    (d / name).write_text(text)
    with pytest.raises(DataError, match=message):
        load_node_dataset(d) if layout == "node" else load_tu_dataset(d, "TOY")


def test_bytes_that_are_not_utf8_are_reported_on_their_line(tmp_path):
    write_node_fixture(tmp_path / "d")
    (tmp_path / "d" / "labels.tsv").write_bytes(b"0\n\xff\n")
    with pytest.raises(DataError, match="labels.tsv line 2: non-integer value"):
        load_node_dataset(tmp_path / "d")


# digits, signs, '.', 'e', nan, inf and separators; the 20-digit run overflows int64
TABLE_TOKENS = [*"0123456789", "9" * 20, "-", "+", ".", "e", "nan", "inf", "\t", ",", " ", "\n"]
table_text = st.lists(st.sampled_from(TABLE_TOKENS), max_size=30).map("".join)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from(["edges.tsv", "features.tsv", "labels.tsv"]), table_text))
def test_fuzzed_node_dataset_loads_or_raises_psp_error(replaced):
    with tempfile.TemporaryDirectory() as tmp:
        write_node_fixture(Path(tmp))
        for name, text in replaced.items():
            (Path(tmp) / name).write_text(text)
        with suppress(PspError):  # malformed input may be refused, only with a PspError
            load_node_dataset(tmp)


TU_FILES = ["TOY_A.txt", "TOY_graph_indicator.txt", "TOY_graph_labels.txt",
            "TOY_node_attributes.txt", "TOY_node_labels.txt"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.booleans(), st.dictionaries(st.sampled_from(TU_FILES), table_text))
def test_fuzzed_tu_dataset_loads_or_raises_psp_error(attributes, replaced):
    with tempfile.TemporaryDirectory() as tmp:
        write_tu_fixture(Path(tmp), attributes=attributes, node_labels=(5, 5, 7, 5, 7, 7, 5))
        for name, text in replaced.items():
            (Path(tmp) / name).write_text(text)
        with suppress(PspError):
            load_tu_dataset(tmp, "TOY")


# ---------------------------------------------------------------------------
# table reader: numpy's tokenizer with the line loop behind it

# every (kind, sep, width) the loaders pass to _read_table
TABLE_USES = [(float, "\t", None), (int, None, 1), (int, "\t", 2), (int, ",", 2), (float, ",", None)]
PLAIN_CELLS = [b"0", b"7", b"-3", b"+12", b"0005", b"1.5", b"-0.0", b".5", b"1e3", b"2.", b" 4 "]
BAD_CELLS = [b"", b"nan", b"inf", b"-Infinity", b"1e999", b"9" * 20, b"1_000", "\uff17".encode(),
             b"0x1", b"1d5", b"1.0e"]
SEPARATORS = [b"\t", b" ", b",", b", ", b" ,", b"\t\t", b"  ", b",,", b" \t"]
# line breaks and spaces that str.splitlines, str.split or the parsers see differently
ODD = [b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x85", "\x85".encode(), b"\xa0",
       "\xa0".encode(), "\u3000".encode(), b"\x00", b"_", b" ", b"\n", b"\n\n", b" \n", b"\t",
       b",", b", ", b"#", b"\x7f", "\uff10".encode()]


@st.composite
def table_bytes(draw):
    """A table of plain cells half the time; otherwise of any cells, with up to
    two odd byte runs inserted anywhere."""
    clean = draw(st.booleans())
    sep = draw(st.sampled_from(SEPARATORS))
    width = draw(st.integers(1, 3))
    cell = st.sampled_from(PLAIN_CELLS if clean else PLAIN_CELLS * 3 + BAD_CELLS)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=5))
    text = b"\n".join(sep.join(row) for row in rows) + draw(st.sampled_from([b"", b"\n"]))
    if not clean:
        for pos, odd in draw(st.lists(st.tuples(st.integers(0, len(text)), st.sampled_from(ODD)),
                                      max_size=2)):
            text = text[:pos] + odd + text[pos:]
    return text


def table_outcome(read, path, use):
    try:
        table, linenos = read(path, *use)
    except DataError as e:
        return str(e)
    return table.dtype, table.shape, table.tobytes(), list(linenos)


@contextmanager
def small_tasks(nbytes, cpus=1):
    """`_RANGE_BYTES` patched to `nbytes`, so tables split into many ranges and
    chunks, and `cpus` allowed CPUs: with one, fork_map runs them all in this
    process; with two, over two forked workers."""
    with mock.patch.object(data_module, "_RANGE_BYTES", nbytes), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        yield


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=table_bytes(), range_bytes=st.sampled_from([1, 3, 8]))
def test_read_table_matches_the_line_loop(tmp_path, text, range_bytes):
    path = tmp_path / "t.txt"  # rewritten by every example
    path.write_bytes(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for use in TABLE_USES:
            expected = table_outcome(_read_lines, path, use)
            assert table_outcome(_read_table, path, use) == expected, use
            with small_tasks(range_bytes):  # ranges of a line or two
                assert table_outcome(_read_table, path, use) == expected, use
    assert not caught  # numpy's warnings stay inside _read_table


def formatted(rows):
    return "".join("\t".join(map(str, row)) + "\n" for row in rows).encode()


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=st.one_of(
    arrays(np.float64, array_shapes(min_dims=2, min_side=0, max_side=5),
           elements=st.floats(allow_nan=False, allow_infinity=False)),
    arrays(np.int64, array_shapes(min_dims=2, min_side=0, max_side=5))),
    chunk_bytes=st.sampled_from([1, 60, 200]), as_list=st.booleans())
def test_write_table_gives_the_same_bytes_in_any_number_of_chunks(tmp_path, table, chunk_bytes,
                                                                  as_list):
    rows = table.tolist() if as_list else table
    write_table(tmp_path / "one.tsv", rows)
    with small_tasks(chunk_bytes):
        write_table(tmp_path / "many.tsv", rows)
    expected = formatted(table.tolist())
    assert (tmp_path / "one.tsv").read_bytes() == expected
    assert (tmp_path / "many.tsv").read_bytes() == expected


@pytest.mark.parametrize("range_bytes", [100, 104, 105, 60, 30, 1])
def test_line_ranges_are_even_and_end_on_lines(tmp_path, range_bytes):
    path = tmp_path / "t.txt"
    path.write_bytes(b"abcd\n" * 21)  # 105 bytes
    with small_tasks(range_bytes):
        ranges = _line_ranges(path)
    count = -(-105 // range_bytes)
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]] and ranges[-1][1] == 105
    assert all(hi % 5 == 0 for _, hi in ranges)  # every range ends with its line's newline
    assert len(ranges) == min(count, 21)  # no range is a sliver left over after full ones
    assert all(abs((hi - lo) - 105 / len(ranges)) < 5 for lo, hi in ranges)


def test_a_long_line_past_several_cuts_stays_in_one_range(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a\n" + b"b" * 40 + b"\n" + b"c\n" * 4)
    with small_tasks(10):
        assert _line_ranges(path) == [(0, 43), (43, 51)]  # the cuts inside "bb..." are spent


def test_write_chunks_are_even(tmp_path, monkeypatch):
    chunks = []

    def record(fn, items):
        chunks.extend(len(rows) for rows in items)
        return map(fn, items)

    monkeypatch.setattr(data_module, "fork_map", record)
    with small_tasks(25 * 3 * 10):  # at most 10 rows of 3 values a chunk
        write_table(tmp_path / "t.tsv", np.zeros((21, 3)))
    assert chunks == [7, 7, 7]  # not 10, 10 and a 1-row sliver


def test_forked_ranges_and_chunks_match_one_task(tmp_path):
    g = generate_sbm(300, 3, 0.7, 4.0, 8, 0.5, seed=4)
    one, many = tmp_path / "one.tsv", tmp_path / "many.tsv"
    write_table(one, g.features)
    with small_tasks(4096, cpus=2):  # a dozen ranges and chunks, over two workers
        write_table(many, g.features)
        forked, linenos = _read_table(many, float, "\t")
        assert one.read_bytes() == many.read_bytes()
        lines = many.read_bytes().split(b"\n")
        lines[249] = lines[249].replace(b"\t", b"\tnan\t", 1)  # in a late range
        many.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match="many.tsv line 250: expected 8 columns, got 9"):
            _read_table(many, float, "\t")
    np.testing.assert_array_equal(forked, g.features)
    assert list(linenos) == list(range(1, 301))


def test_clean_tables_never_reach_the_line_loop(tmp_path, monkeypatch):
    g = generate_sbm(40, 2, 0.7, 4.0, 8, 0.5, seed=3)
    save_node_dataset(tmp_path / "d", g)
    write_tu_fixture(tmp_path / "tu")

    def refuse(path, *_):
        raise AssertionError(f"{path.name} went through the line loop")

    monkeypatch.setattr(data_module, "_read_lines", refuse)
    back = load_node_dataset(tmp_path / "d")
    np.testing.assert_array_equal(back.features, g.features)
    assert load_tu_dataset(tmp_path / "tu", "TOY").features.shape == (7, 2)


def test_reading_features_holds_less_than_twice_the_file(tmp_path):
    g = generate_sbm(2000, 4, 0.7, 4.0, 64, 0.5, seed=5)
    save_node_dataset(tmp_path / "d", g)
    path = tmp_path / "d" / "features.tsv"
    for ranges in (1, 8):  # one range in this process; 8 over two workers
        tracemalloc.start()
        try:
            with small_tasks(-(-path.stat().st_size // ranges), cpus=2):
                table, _ = _read_table(path, float, "\t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(table, g.features)
        assert peak < 2 * path.stat().st_size, ranges


# ---------------------------------------------------------------------------
# split sampling


def test_sample_k_shot_counts():
    labels = np.repeat([0, 1], 5)
    split = sample_k_shot(labels, k=1, seed=0, val_k=0)
    assert split.train.indices.size == 2
    assert set(split.train.classes.tolist()) == {0, 1}


def test_sample_k_shot_deterministic_and_disjoint():
    labels = np.repeat([0, 1, 2], 10)
    a = sample_k_shot(labels, k=3, seed=4, val_k=3)
    b = sample_k_shot(labels, k=3, seed=4, val_k=3)
    for part in ("train", "val", "test"):
        assert np.array_equal(getattr(a, part).indices, getattr(b, part).indices)
    groups = [set(a.train.indices), set(a.val.indices), set(a.test.indices)]
    assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
    assert groups[0] | groups[1] | groups[2] == set(range(30))


# one fixed labels array and seed: the split's and the mask's random draws
PINNED_LABELS = np.array([2, 0, 1, 0, 2, 1, 1, 0, 2, 0, 1, 2, 0, 2, 1, 0])


def test_sample_k_shot_pins_its_draws():
    split = sample_k_shot(PINNED_LABELS, k=3, seed=7, val_k=1)
    np.testing.assert_array_equal(split.train.indices, [2, 3, 4, 5, 6, 7, 11, 13, 15])
    np.testing.assert_array_equal(split.val.indices, [8, 9, 10])
    np.testing.assert_array_equal(split.test.indices, [0, 1, 12, 14])
    for part in (split.train, split.val, split.test):
        np.testing.assert_array_equal(part.classes, PINNED_LABELS[part.indices])


def test_mask_training_labels_pins_its_draws():
    split = sample_k_shot(PINNED_LABELS, k=3, seed=7, val_k=1)
    masked = mask_training_labels(split, 0.5, seed=7)
    np.testing.assert_array_equal(masked.train.indices, [2, 3, 6, 11, 13, 15])
    np.testing.assert_array_equal(masked.train.classes, PINNED_LABELS[masked.train.indices])
    assert masked.val is split.val and masked.test is split.test


def test_sample_k_shot_insufficient_class():
    labels = np.array([0, 0, 1])
    with pytest.raises(DataError, match="class 1"):
        sample_k_shot(labels, k=2, seed=0)


def test_sample_k_shot_refuses_a_negative_label():
    # a negative label used to fall outside every class and so out of all three parts
    with pytest.raises(DataError, match="non-negative"):
        sample_k_shot([-1, -1, 0, 0], k=1, seed=0)


def test_sample_k_shot_refuses_empty_labels():
    with pytest.raises(DataError, match="empty label array"):
        sample_k_shot([], k=1, seed=0)


@pytest.mark.parametrize("k,val_k", [(0, 0), (-1, 0), (1, -1)])
def test_sample_k_shot_rejects_bad_counts(k, val_k):
    with pytest.raises(ParameterError, match=f"got k={k}, val_k={val_k}"):
        sample_k_shot(np.repeat([0, 1, 2], 20), k=k, seed=0, val_k=val_k)


def test_mask_training_labels_noop_and_half():
    labels = np.repeat([0, 1], 20)
    split = sample_k_shot(labels, k=10, seed=1, val_k=2)
    assert mask_training_labels(split, 0.0, seed=1) is split
    masked = mask_training_labels(split, 0.5, seed=1)
    assert np.bincount(masked.train.classes).tolist() == [5, 5]
    np.testing.assert_array_equal(masked.train.classes, labels[masked.train.indices])
    assert masked.val is split.val and masked.test is split.test


def test_mask_training_labels_never_empties_class():
    labels = np.repeat([0, 1], 10)
    split = sample_k_shot(labels, k=4, seed=2)
    masked = mask_training_labels(split, 1.0, seed=2)
    assert set(masked.train.classes.tolist()) == {0, 1}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=28), st.integers(0, 2 ** 31))
def test_sample_k_shot_property_disjoint_exhaustive(extra_labels, seed):
    # four guaranteed members per class plus arbitrary extras
    labels = np.array([0, 1, 2] * 4 + extra_labels)
    split = sample_k_shot(labels, k=2, seed=seed, val_k=2)
    train, val, test = (set(part.indices.tolist()) for part in (split.train, split.val, split.test))
    assert not (train & val or train & test or val & test)
    assert train | val | test == set(range(labels.size))
    assert all((labels[list(train)] == c).sum() == 2 for c in range(3))
    for part in (split.train, split.val, split.test):
        assert np.all(np.diff(part.indices) > 0)
        np.testing.assert_array_equal(part.classes, labels[part.indices])


# ---------------------------------------------------------------------------
# synthetic benchmark


def test_sbm_pure_homophily_has_no_cross_edges():
    g = generate_sbm(90, 3, 1.0, 6.0, 8, 0.5, seed=0)
    assert intra_class_edge_fraction(g) == 1.0


def test_sbm_intra_fraction_tracks_target():
    g = generate_sbm(600, 3, 0.5, 8.0, 8, 0.5, seed=1)
    assert abs(intra_class_edge_fraction(g) - 0.5) < 0.05


def test_sbm_intra_fraction_within_three_sigma():
    for h in (0.2, 0.8):
        g = generate_sbm(300, 3, h, 10.0, 8, 0.5, seed=2)
        n_edges = g.adjacency.nnz // 2
        sigma = np.sqrt(h * (1 - h) / n_edges)
        assert abs(intra_class_edge_fraction(g) - h) <= 3 * sigma + 0.01


@settings(max_examples=250, derandomize=True, deadline=None)
@given(n=st.integers(1, 60), n_classes=st.integers(1, 6),
       homophily=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       avg_deg=st.integers(0, 48).map(lambda k: k / 4), seed=st.integers(0, 2 ** 64 - 1))
@example(n=4, n_classes=3, homophily=0.5, avg_deg=3.0, seed=1)  # two classes of one member
@example(n=6, n_classes=6, homophily=0.0, avg_deg=5.0, seed=2)  # only inter-class pairs
@example(n=30, n_classes=2, homophily=0.0, avg_deg=8.0, seed=3)  # the class pair is (0, 1) or (1, 0)
@example(n=9, n_classes=3, homophily=0.5, avg_deg=0.0, seed=4)  # no edges
@example(n=3, n_classes=3, homophily=0.5, avg_deg=2.0, seed=5)  # refused: no intra pair exists
def test_sbm_draws_the_edges_and_features_of_the_choice_loop(n, n_classes, homophily, avg_deg, seed):
    feat_dim, noise = 6, 0.5
    has_edges = round(n * avg_deg / 2.0) > 0
    if (n < n_classes or avg_deg > n - 1
            or has_edges and homophily > 0 and n == n_classes
            or has_edges and homophily < 1 and n_classes == 1):
        with pytest.raises(ParameterError):
            generate_sbm(n, n_classes, homophily, avg_deg, feat_dim, noise, seed)
        return
    g = generate_sbm(n, n_classes, homophily, avg_deg, feat_dim, noise, seed)
    edges, rng = choice_sbm_edges(n, n_classes, homophily, avg_deg, seed)
    want = build_csr(n, edges)
    np.testing.assert_array_equal(g.adjacency.indptr, want.indptr)
    np.testing.assert_array_equal(g.adjacency.indices, want.indices)
    # drawn after the edges, so equal only if both loops left the generator in one state
    features = np.eye(n_classes, feat_dim)[g.labels] + noise * rng.standard_normal((n, feat_dim))
    assert g.features.tobytes() == features.tobytes()


def test_sbm_zero_noise_duplicates_class_rows():
    g = generate_sbm(30, 3, 0.8, 4.0, 8, 0.0, seed=3)
    for cls in range(3):
        rows = g.features[g.labels == cls]
        assert np.all(rows == rows[0])


def test_sbm_parameter_errors():
    with pytest.raises(ParameterError):
        generate_sbm(2, 3, 0.5, 2.0, 8, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_sbm(30, 3, 1.5, 2.0, 8, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_sbm(30, 3, 0.5, 2.0, 2, 0.5, seed=0)


@pytest.mark.parametrize("avg_deg", [float("nan"), float("inf"), -4.0])
def test_sbm_rejects_bad_average_degree(avg_deg):
    with pytest.raises(ParameterError, match="avg_deg must be a non-negative finite number"):
        generate_sbm(30, 3, 0.5, avg_deg, 8, 0.5, seed=0)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.5])
def test_sbm_rejects_bad_noise(noise):
    generate_sbm(30, 3, 0.5, 2.0, 8, 0.0, seed=0)
    with pytest.raises(ParameterError, match="noise must be a non-negative finite number"):
        generate_sbm(30, 3, 0.5, 2.0, 8, noise, seed=0)


def test_sbm_refuses_noise_whose_features_overflow():
    with pytest.raises(ParameterError, match="noise must keep the features finite, got 1e"):
        generate_sbm(30, 3, 0.5, 2.0, 8, 1e308, seed=0)


@pytest.mark.parametrize("avg_deg", [29.5, 1e9, 1e308])
def test_sbm_rejects_average_degree_above_n_minus_one(avg_deg):
    generate_sbm(30, 3, 0.5, 29.0, 8, 0.5, seed=0)
    with pytest.raises(ParameterError, match="avg_deg must be at most n - 1 = 29"):
        generate_sbm(30, 3, 0.5, avg_deg, 8, 0.5, seed=0)


def test_sbm_zero_average_degree_is_edgeless():
    assert generate_sbm(30, 3, 0.5, 0.0, 8, 0.5, seed=0).adjacency.nnz == 0


def test_sbm_refuses_edges_its_classes_cannot_hold():
    # the singleton-class refusal is tested through the CLI, under a timeout
    with pytest.raises(ParameterError, match="only one class"):
        generate_sbm(30, 1, 0.8, 2.0, 8, 0.5, seed=0)
    # no edge drawn, or none of the impossible kind: nothing to refuse
    assert generate_sbm(3, 3, 0.0, 2.0, 8, 0.5, seed=0).adjacency.nnz > 0
    assert intra_class_edge_fraction(generate_sbm(30, 1, 1.0, 2.0, 8, 0.5, seed=0)) == 1.0
    assert generate_sbm(3, 3, 0.8, 0.0, 8, 0.5, seed=0).adjacency.nnz == 0
    assert generate_sbm(30, 1, 0.8, 0.0, 8, 0.5, seed=0).adjacency.nnz == 0


def test_sbm_seed_determinism():
    a = generate_sbm(60, 3, 0.6, 5.0, 8, 0.5, seed=7)
    b = generate_sbm(60, 3, 0.6, 5.0, 8, 0.5, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.adjacency.indices, b.adjacency.indices)


@pytest.mark.parametrize("full_half_word", [False, True])
def test_raw_draws_match_scalar_generator_calls(full_half_word):
    rng = np.random.default_rng(2024)
    if full_half_word:
        rng.integers(3)  # keeps the high half of its word for the next 32-bit draw
    assert rng.bit_generator.state["has_uint32"] == full_half_word
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = before = rng.bit_generator.state
    draws = _RawDraws(rng)
    # the large bounds reject a third to a half of their draws
    bounds = [1, 2, 3, 16667, 2 ** 31 + 1, 3_000_000_000, 2 ** 32 - 1]
    for _ in range(300):  # ~2,000 words: past the first chunks' ends
        assert draws.double() == twin.random()
        for k in bounds:
            assert draws.below(k) == twin.integers(k)
    assert rng.bit_generator.state == before  # the draws read a copy
    draws.hand_back()
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.standard_normal(4).tobytes() == twin.standard_normal(4).tobytes()


def test_sbm_makes_no_scalar_generator_calls(monkeypatch):
    calls = []

    class CountingGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            calls.append("random")
            return super().random(*args, **kwargs)

        def integers(self, *args, **kwargs):
            calls.append("integers")
            return super().integers(*args, **kwargs)

    monkeypatch.setattr(data_module, "seeded_rng",
                        lambda seed, salt: CountingGenerator(seeded_rng(seed, salt).bit_generator))
    g = generate_sbm(3000, 3, 0.8, 2.5, 16, 0.5, seed=11)
    assert g.adjacency.nnz > 0
    assert calls == []


# ---------------------------------------------------------------------------
# checkpoints


def make_checkpoint(with_prompt=False):
    params = init_encoder_params(6, 4, seed=11)
    prompt = None
    if with_prompt:
        rng = np.random.default_rng(12)
        prompt = PromptedGraph(task="node", proto_features=rng.standard_normal((2, 6)),
                               weight_rows=rng.standard_normal((5, 2)),
                               trainable_row_mask=np.array([True, False, True, True, False]))
    return Checkpoint(tau=0.5, seed=11, params=params, prompt=prompt)


@pytest.mark.parametrize("with_prompt", [False, True])
def test_checkpoint_roundtrip_bitwise(tmp_path, with_prompt):
    ckpt = make_checkpoint(with_prompt)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.params.hidden_dim == 4 and back.seed == 11 and back.tau == 0.5
    assert tuple(back.params) == PARAM_NAMES
    for name in PARAM_NAMES:
        assert np.array_equal(back.params[name], ckpt.params[name])
    if with_prompt:
        assert back.prompt.task == "node"
        assert np.array_equal(back.prompt.weight_rows, ckpt.prompt.weight_rows)
        assert np.array_equal(back.prompt.proto_features, ckpt.prompt.proto_features)
        assert np.array_equal(back.prompt.trainable_row_mask, ckpt.prompt.trainable_row_mask)
    else:
        assert back.prompt is None


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_names_versions(tmp_path):
    import struct

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="9"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_header_width_the_blocks_do_not_have(tmp_path):
    import struct

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = bytearray(path.read_bytes())
    assert struct.unpack_from("<I", blob, 12) == (4,)
    struct.pack_into("<I", blob, 12, 7)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="hidden_dim 7, but its encoder blocks are 4 columns"):
        load_checkpoint(path)


@pytest.mark.parametrize("block,rows,want", [("mlp_b1", 2, 1), ("gnn_b2", 2, 1), ("mlp_w2", 5, 4),
                                             ("gnn_w2", 3, 4), ("gnn_w1", 7, 6)])
def test_checkpoint_rejects_encoder_blocks_of_the_wrong_shape(tmp_path, block, rows, want):
    """W1 is F x h with one F for both views, W2 is h x h, each bias 1 x h."""
    ckpt = make_checkpoint()
    ckpt.params[block] = np.ones((rows, 4))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(FormatError, match=f"block {block} is {rows}x4, expected {want}x4"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    """Every proper prefix of a bundle, with a prompt and without, is refused
    as truncated (a loop, not ~2k parametrized cases)."""
    path = tmp_path / "model.ckpt"
    for with_prompt in (False, True):
        save_checkpoint(path, make_checkpoint(with_prompt))
        blob = path.read_bytes()
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError, match="checkpoint truncated"):
                load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint(with_prompt=True))
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="7 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_rejects_mask_length_mismatch(tmp_path):
    ckpt = make_checkpoint(with_prompt=True)
    ckpt.prompt.trainable_row_mask = ckpt.prompt.trainable_row_mask[:4]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(FormatError, match="4 entries for 5 weight rows"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["mlp_weight", "gnn_bias", "proto_features", "weights"])
def test_checkpoint_rejects_non_finite_blocks(tmp_path, block, value):
    ckpt = make_checkpoint(with_prompt=True)
    target = {"mlp_weight": ckpt.params["mlp_w1"],
              "gnn_bias": ckpt.params["gnn_b2"],
              "proto_features": ckpt.prompt.proto_features,
              "weights": ckpt.prompt.weight_rows}[block]
    target.flat[-1] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(FormatError, match=f"block {target.shape[0]}x{target.shape[1]} "
                                          "holds a non-finite value"):
        load_checkpoint(path)


def _prompted_bundle(tmp_path) -> tuple[Path, bytearray, dict]:
    """A saved bundle with a prompt, its bytes and the offset of each 0/1 field
    and of the header's tau."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    has_prompt_at = len(path.read_bytes()) - 1
    save_checkpoint(path, make_checkpoint(with_prompt=True))
    blob = bytearray(path.read_bytes())
    return path, blob, {"has-prompt": has_prompt_at, "task": has_prompt_at + 1,
                        "trainable-mask": len(blob) - 2, "tau": 24}


@pytest.mark.parametrize("field,value", [
    ("has-prompt", 2), ("has-prompt", 255), ("task", 9), ("trainable-mask", 7),
    ("tau", np.nan), ("tau", np.inf), ("tau", 0.0), ("tau", -0.5), ("tau", 5e-324),
    ("hidden_dim", 0)])
def test_checkpoint_refuses_a_corrupt_flag_or_tau_naming_the_field(tmp_path, field, value):
    import struct

    path, blob, at = _prompted_bundle(tmp_path)
    if field == "hidden_dim":  # a bundle whose header and encoder blocks agree on the width
        ckpt = make_checkpoint(with_prompt=True)
        for name, a in ckpt.params.items():
            ckpt.params[name] = a[:, :value]
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 12) == (value,)
        want = f"checkpoint header gives hidden_dim {value}, expected at least 1"
    elif field == "tau":
        assert struct.unpack_from("<d", blob, at["tau"]) == (0.5,)
        struct.pack_into("<d", blob, at["tau"], value)
        want = "checkpoint header: tau must be a positive finite number"
    else:
        assert blob[at[field]] in (0, 1)
        blob[at[field]] = value
        want = f"checkpoint {field} byte is {value}, expected 0 or 1"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=re.escape(want)):
        load_checkpoint(path)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_a_bundle_with_one_byte_flipped_loads_or_raises_a_psp_error(tmp_path, where, flip):
    path, blob, _ = _prompted_bundle(tmp_path)
    blob[int(where * len(blob))] ^= flip
    path.write_bytes(bytes(blob))
    with suppress(PspError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# weight export


def test_export_weight_matrix_layout(tmp_path):
    w = np.array([[0.125, -3.5], [2.0, 1e-9]])
    path = tmp_path / "w.tsv"
    export_weight_matrix(w, [1, 0], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "node\tlabel\tw_0\tw_1"
    table = np.loadtxt(path, delimiter="\t", skiprows=1)
    np.testing.assert_allclose(table[:, 2:], w, atol=1e-12)
    np.testing.assert_array_equal(table[:, 1], [1, 0])


def test_export_weight_matrix_sentinel_labels(tmp_path):
    path = tmp_path / "w.tsv"
    export_weight_matrix(np.zeros((2, 2)), None, path)
    labels = np.loadtxt(path, delimiter="\t", skiprows=1)[:, 1]
    np.testing.assert_array_equal(labels, [-1, -1])


@pytest.mark.parametrize("labels", [[0, 1, 2], [0]])
def test_export_weight_matrix_rejects_label_count_mismatch(tmp_path, labels):
    with pytest.raises(DataError, match=f"{len(labels)} labels for 2 weight rows"):
        export_weight_matrix(np.zeros((2, 2)), labels, tmp_path / "w.tsv")


def test_export_weight_matrix_full_precision_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    w = rng.standard_normal((4, 3))
    path = tmp_path / "w.tsv"
    export_weight_matrix(w, None, path)
    values = np.loadtxt(path, delimiter="\t", skiprows=1)[:, 2:]
    assert np.array_equal(values, w)  # repr round-trips exactly
