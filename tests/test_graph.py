import re

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from psp.data import generate_sbm, load_tu_dataset
from psp.errors import ContractError, DataError, DimensionError
from psp.graph import (
    GraphData,
    build_csr,
    check_csr,
    class_count,
    gcn_normalize,
    mean_readout,
    self_looped,
)

import oracles
from graph_batches import write_ring_chord_batch
from oracles import (
    Tensor,
    add,
    dense_gcn_normalize,
    dense_prompted_normalize,
    grad_check,
    mul,
    prompted_apply,
    set_loop_build_csr,
    total_sum,
)


def operator_matrix(a, w: np.ndarray, h=None) -> np.ndarray:
    """`prompted_apply` over base adjacency a and weights w times an (N+C)-row
    matrix h, by default I (the operator itself), split into its row blocks on
    the way in and stacked on the way out."""
    h = np.eye(sum(w.shape)) if h is None else h
    base, proto = prompted_apply(self_looped(a), Tensor(w), Tensor(h[:len(w)]), Tensor(h[len(w):]))
    return np.vstack([base.data, proto.data])


FIXTURE_GRAPHS = {
    "single_node": (1, []),
    "path2": (2, [(0, 1)]),
    "path5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "cycle6": (6, [(i, (i + 1) % 6) for i in range(6)]),
    "star7": (7, [(0, i) for i in range(1, 7)]),
    "complete4": (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "with_isolated": (4, [(0, 1), (1, 2)]),
    "random10": (10, [(int(a), int(b)) for a, b in
                      np.random.default_rng(3).integers(0, 10, size=(18, 2)) if a != b]),
}


# ---------------------------------------------------------------------------
# build_csr


def test_build_csr_symmetrizes():
    a = build_csr(2, [(0, 1)])
    np.testing.assert_array_equal(a.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def test_build_csr_dedups():
    a = build_csr(3, [(0, 1), (0, 1), (1, 0)])
    assert a.nnz == 2


def test_build_csr_drops_self_loops():
    a = build_csr(2, [(0, 0), (0, 1)])
    assert a.toarray()[0, 0] == 0.0


def test_build_csr_range_check():
    with pytest.raises(DataError, match=r"\(0, 5\)"):
        build_csr(3, [(0, 5)])


def test_build_csr_sorted_columns():
    a = build_csr(4, [(3, 0), (1, 0), (2, 0)])
    row0 = a.indices[a.indptr[0]:a.indptr[1]]
    assert list(row0) == sorted(row0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30))
def test_build_csr_properties(edges):
    a = build_csr(8, edges)
    dense = a.toarray()
    np.testing.assert_array_equal(dense, dense.T)          # symmetric
    assert np.all(np.diag(dense) == 0)                      # no self-loops
    assert set(np.unique(dense)) <= {0.0, 1.0}              # unit, deduplicated
    undirected = {(min(s, d), max(s, d)) for s, d in edges if s != d}
    assert a.nnz == 2 * len(undirected)


def _assert_matches_set_loop(n, edges):
    a = build_csr(n, edges)
    offsets, cols = set_loop_build_csr(n, edges)
    np.testing.assert_array_equal(a.indptr, offsets)
    np.testing.assert_array_equal(a.indices, cols)
    np.testing.assert_array_equal(a.data, np.ones(cols.size))


@pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
def test_build_csr_matches_set_loop_on_fixtures(name):
    _assert_matches_set_loop(*FIXTURE_GRAPHS[name])


def test_build_csr_matches_set_loop_on_random_lists():
    rng = np.random.default_rng(21)
    for n in (1, 2, 7, 40):
        edges = [tuple(e) for e in rng.integers(0, n, size=(3 * n, 2))]
        edges += [(d, s) for s, d in edges[:n]] + edges[:n] + [(i, i) for i in range(0, n, 3)]
        _assert_matches_set_loop(n, edges)


def test_build_csr_range_check_reports_first_bad_edge():
    for edges in ([(0, 1), (-1, 0), (0, 9)], [(0, 1), (0, 9), (-1, 0)]):
        with pytest.raises(DataError) as vectorized:
            build_csr(3, edges)
        with pytest.raises(DataError) as oracle:
            set_loop_build_csr(3, edges)
        assert str(vectorized.value) == str(oracle.value)


# ---------------------------------------------------------------------------
# gcn_normalize


def test_gcn_normalize_two_node_path():
    out = gcn_normalize(build_csr(2, [(0, 1)]))
    np.testing.assert_allclose(out.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_gcn_normalize_isolated_node():
    out = gcn_normalize(build_csr(1, []))
    np.testing.assert_allclose(out.toarray(), [[1.0]], atol=1e-15)


def test_gcn_normalize_rejects_non_square():
    rect = check_csr(([1.0, 1.0], [0, 1], [0, 1, 2]), shape=(2, 3))
    with pytest.raises(DimensionError):
        gcn_normalize(rect)


@pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
def test_gcn_normalize_matches_dense_oracle(name):
    n, edges = FIXTURE_GRAPHS[name]
    a = build_csr(n, edges)
    got = gcn_normalize(a).toarray()
    np.testing.assert_allclose(got, dense_gcn_normalize(a.toarray()), atol=1e-12)
    np.testing.assert_allclose(got, got.T, atol=1e-12)


def _signed_weights(n: int, seed: int) -> sparse.csr_array:
    """A symmetric matrix with negative entries, some rows summing below zero."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    return sparse.csr_array(m + m.T)


def _tu_batch(tmp) -> sparse.csr_array:
    write_ring_chord_batch(tmp, "RING", seed=0)
    return load_tu_dataset(tmp, "RING").adjacency


PARITY_GRAPHS = {
    "sbm3000": lambda tmp: generate_sbm(3000, 3, 0.8, 2.5, 64, 0.5, seed=11).adjacency,
    "sbm300": lambda tmp: generate_sbm(300, 3, 0.8, 2.5, 64, 0.5, seed=11).adjacency,
    "tu-batch": _tu_batch,
    "isolated": lambda tmp: build_csr(6, [(0, 1), (1, 2)]),
    "edgeless": lambda tmp: build_csr(5, []),
    "signed": lambda tmp: _signed_weights(12, seed=4),
}


@pytest.mark.parametrize("name", sorted(PARITY_GRAPHS))
def test_gcn_normalize_matches_the_diagonal_products_bit_for_bit(name, tmp_path):
    a = PARITY_GRAPHS[name](tmp_path)
    got, want = gcn_normalize(a), oracles.gcn_normalize(a)
    assert got.shape == want.shape and got.has_canonical_format
    for field in ("indptr", "indices"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    np.testing.assert_array_equal(got.data.view(np.int64), want.data.view(np.int64))


def test_gcn_normalize_regular_graph_rows_sum_to_one():
    out = gcn_normalize(build_csr(6, [(i, (i + 1) % 6) for i in range(6)]))
    np.testing.assert_allclose(out.toarray().sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# prompted-graph operator (the `prompted_apply` oracle)


def test_prompted_operator_rejects_non_square_base():
    rect = check_csr(([1.0, 1.0], [0, 1], [0, 1, 2]), shape=(2, 3))
    with pytest.raises(DimensionError, match="square"):
        self_looped(rect)


def test_normalize_prompted_zero_weights_reduces_to_gcn():
    n, edges = FIXTURE_GRAPHS["path5"]
    a = build_csr(n, edges)
    dense = operator_matrix(a, np.zeros((n, 2)))
    np.testing.assert_allclose(dense[:n, :n], gcn_normalize(a).toarray(), atol=1e-12)
    # isolated prototypes aggregate only themselves
    np.testing.assert_allclose(dense[n:, n:], np.eye(2), atol=1e-15)
    np.testing.assert_array_equal(dense[n:, :n], 0.0)


def test_normalize_prompted_apply_matches_dense_oracle():
    rng = np.random.default_rng(12)
    n, edges = FIXTURE_GRAPHS["random10"]
    a = build_csr(n, edges)
    w = rng.standard_normal((n, 3))
    h = rng.standard_normal((n + 3, 4))
    oracle = dense_prompted_normalize(a.toarray(), w)
    np.testing.assert_allclose(operator_matrix(a, w, h), oracle @ h, atol=1e-12)
    np.testing.assert_allclose(operator_matrix(a, w), oracle, atol=1e-12)


def test_normalize_prompted_finite_for_extreme_weights():
    a = build_csr(3, [(0, 1), (1, 2)])
    for factor in (0.0, 1e-30, 1e6, -1e6):
        assert np.isfinite(operator_matrix(a, np.full((3, 1), factor))).all()


def test_prototype_column_scaling_near_invariant():
    # recompute both normalizations on a 3-node toy via the dense oracle;
    # the prototype's L1-normalized incoming weights drift only through the
    # self-loop term (measured 0.031 here between the two scales)
    a = build_csr(3, [(0, 1), (1, 2)])
    w = np.array([[0.6], [0.3], [0.9]])
    rows = {}
    for alpha in (1.0, 5.0):
        got = operator_matrix(a, w * alpha)
        oracle = dense_prompted_normalize(a.toarray(), w * alpha)
        np.testing.assert_allclose(got, oracle, atol=1e-12)
        incoming = got[3, :3]
        rows[alpha] = incoming / np.abs(incoming).sum()
    assert np.abs(rows[1.0] - rows[5.0]).max() < 0.05


def test_gradient_through_normalization_into_weights():
    rng = np.random.default_rng(4)
    a = build_csr(4, [(0, 1), (1, 2), (2, 3)])
    h_base, h_proto = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((2, 3)))
    probe_base, probe_proto = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((2, 3)))

    def f(w):
        base, proto = prompted_apply(self_looped(a), w, h_base, h_proto)
        return add(total_sum(mul(base, probe_base)), total_sum(mul(proto, probe_proto)))

    assert grad_check(f, Tensor(rng.standard_normal((4, 2))), h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# mean readout


def test_mean_readout_singleton():
    z = np.array([[1.0, 2.0]])
    np.testing.assert_array_equal(mean_readout(z, [0]), [[1.0, 2.0]])


def test_mean_readout_arithmetic_mean():
    z = np.array([[1.0, 1.0], [3.0, 3.0]])
    np.testing.assert_array_equal(mean_readout(z, [0, 0]), [[2.0, 2.0]])


def test_mean_readout_permutation_invariant():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((6, 3))
    membership = np.array([0, 1, 0, 1, 0, 1])
    base = mean_readout(z, membership)
    perm = rng.permutation(6)
    permuted = mean_readout(z[perm], membership[perm])
    np.testing.assert_allclose(base, permuted, atol=1e-12)


def test_mean_readout_empty_group():
    with pytest.raises(DataError):
        mean_readout(np.array([[1.0], [2.0]]), [0, 2])


def test_mean_readout_refuses_a_negative_membership_id():
    with pytest.raises(DataError, match="non-negative"):
        mean_readout(np.array([[1.0], [2.0]]), [0, -1])


def test_mean_readout_matches_a_loop_over_the_nodes_bitwise():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((40, 3))
    membership = rng.permutation(np.arange(40) % 7)
    want = np.zeros((7, 3))
    for row, gid in zip(z, membership):
        want[gid] += row
    want /= np.bincount(membership)[:, None]
    assert np.array_equal(mean_readout(z, membership), want)


def test_mean_readout_membership_size_check():
    with pytest.raises(ContractError):
        mean_readout(np.array([[1.0], [2.0]]), [0])


# ---------------------------------------------------------------------------
# GraphData validation


def _tiny_graph(**overrides):
    base = dict(features=np.zeros((2, 3)), adjacency=build_csr(2, [(0, 1)]),
                labels=np.array([0, 1]))
    base.update(overrides)
    return GraphData(**base)


def test_graphdata_accepts_valid():
    g = _tiny_graph()
    assert g.n_nodes == 2 and g.n_graphs == 0


def test_graphdata_holds_its_own_float64_copy_of_the_features():
    x = np.arange(6).reshape(2, 3)
    g = _tiny_graph(features=x)
    x[0, 0] = 99
    assert type(g.features) is np.ndarray and g.features.dtype == np.float64
    np.testing.assert_array_equal(g.features, np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("shape", [(2,), (2, 3, 1)], ids=["1-D", "3-D"])
def test_graphdata_refuses_features_that_are_not_2d(shape):
    with pytest.raises(DataError, match=re.escape(f"features must be a 2-D nodes x features array, "
                                                   f"got shape {shape}")):
        _tiny_graph(features=np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_graphdata_refuses_non_finite_features_naming_the_row(value):
    """Accepted, a NaN row would become a NaN anchor that prediction scores as class 0."""
    x = np.zeros((2, 3))
    x[1, 2] = value
    with pytest.raises(DataError, match="^features row 1 holds a non-finite value$"):
        _tiny_graph(features=x)


@pytest.mark.parametrize("features", [Tensor(np.zeros((2, 3))), [["0.5", "x", "1"], ["1", "2", "3"]]],
                         ids=["tensor", "text"])
def test_graphdata_refuses_non_numeric_features(features):
    with pytest.raises(DataError, match=f"^features must be numeric, got {type(features).__name__}$"):
        _tiny_graph(features=features)


def test_graphdata_counts_come_from_the_arrays():
    g = _tiny_graph(labels=np.array([0, 2]), graph_of=np.array([0, 1]),
                    graph_labels=np.array([1, 0]))
    assert (g.n_nodes, g.n_classes, g.n_graphs, class_count(g.graph_labels)) == (2, 3, 2, 2)
    assert g.task_labels("graph") is g.graph_labels and g.task_labels("node") is g.labels
    bare = _tiny_graph(labels=None)
    assert (bare.n_classes, bare.n_graphs, class_count(bare.graph_labels)) == (0, 0, 0)


def test_graphdata_rejects_asymmetric():
    asym = sparse.csr_array(([1.0], [1], [0, 1, 1]), shape=(2, 2))
    with pytest.raises(DataError, match="symmetric"):
        _tiny_graph(adjacency=asym)


@pytest.mark.parametrize("indices", [[1, 5], [1, 0], [0, 0]],
                         ids=["col_out_of_range", "not_increasing_in_row", "repeated_col_in_row"])
def test_graphdata_checks_a_csr_array_it_is_given(indices):
    """A csr_array built by hand, which scipy's constructor lets through, is refused."""
    adjacency = sparse.csr_array(([1.0, 1.0], indices, [0, 2, 2]), shape=(2, 2))
    with pytest.raises(DataError, match="CSR|strictly increasing"):
        _tiny_graph(adjacency=adjacency)


def test_graphdata_holds_a_float64_canonical_csr_array():
    g = _tiny_graph(adjacency=sparse.csr_array(np.array([[0, 1], [1, 0]])))
    assert isinstance(g.adjacency, sparse.csr_array) and g.adjacency.dtype == np.float64
    assert g.adjacency.has_canonical_format
    np.testing.assert_array_equal(g.adjacency.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def test_graphdata_rejects_out_of_range_labels():
    with pytest.raises(DataError):
        _tiny_graph(labels=np.array([0, -1]))


@pytest.mark.parametrize("graph_labels", [[0, 1, 1], [0], [0, -2]],
                         ids=["too-many", "too-few", "negative"])
def test_graphdata_rejects_bad_graph_labels(graph_labels):
    with pytest.raises(DataError, match="graph_labels must hold one non-negative class per graph"):
        _tiny_graph(graph_of=np.array([0, 1]), graph_labels=np.array(graph_labels))


def test_graphdata_rejects_gappy_graph_of():
    with pytest.raises(DataError, match="surjective"):
        _tiny_graph(graph_of=np.array([0, 2]))


def test_graphdata_rejects_a_far_graph_id_before_counting_graphs():
    with pytest.raises(DataError, match="surjective"):  # not a MemoryError from 10**11 counters
        _tiny_graph(graph_of=np.array([0, 10 ** 11]))
