import tracemalloc

import numpy as np
import pytest

import gel.graphs
from gel.errors import NumericError, ParseError, ValidationError
from gel.graphs import (
    Graph,
    adjacency_matrix,
    complete_bipartite,
    cycle,
    degree_vector,
    erdos_renyi,
    extreme_spectrum,
    from_edge_list,
    graph_checks,
    laplacian_spectrum,
    normalized_adjacency,
    normalized_laplacian,
    path,
    require_connected,
    spectral_decomposition,
)


def test_edges_are_canonicalized():
    g = Graph(3, ((2, 0), (1, 0)))
    assert np.array_equal(g.edges, [[0, 1], [0, 2]])


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        Graph(3, ((1, 1),))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValidationError):
        Graph(3, ((0, 3),))


@pytest.mark.parametrize(
    "edges",
    [((0, 1.5),), ((0, 1), (2, 0.5)), ((0, float("nan")),), ((0, "1"),), ((0, None),)],
)
def test_non_whole_node_id_rejected_naming_the_edge(edges):
    with pytest.raises(ValidationError, match="not a whole number") as info:
        Graph(3, edges)
    assert repr(edges[-1]) in str(info.value)


def test_whole_node_ids_of_any_numeric_type_accepted():
    g = Graph(3, ((np.int64(2), 1.0), (np.int32(0), 1), [2.0, 0]))
    assert np.array_equal(g.edges, [[0, 1], [0, 2], [1, 2]])
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 1), (2, 2), (0, 5)), "self-loop at node 2"),
        (((0, 1), (0, 5), (2, 2)), r"edge \(0, 5\) references a node outside 0\.\.2"),
        (((0, 1), (1, 1), (0,)), "self-loop at node 1"),
        (((0, 1), (0,), (1, 1)), r"edge \(0,\) is not a pair of nodes"),
        (((0, 0.5), (1, 1)), "not a whole number"),
        (((0, 2**70), (1, 1)), "references a node outside"),
    ],
)
def test_first_bad_pair_in_input_order_is_reported(edges, message):
    with pytest.raises(ValidationError, match=message):
        Graph(3, edges)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: complete_bipartite(True, 2),
         "complete_bipartite's a must be a positive integer, got True"),
        (lambda: cycle(5.0), "cycle's n must be an integer >= 3, got 5.0"),
        (lambda: path(1), "path's n must be an integer >= 2, got 1"),
        (lambda: Graph(True, ()), "node count must be a positive integer, got True"),
    ],
    ids=["bipartite-bool", "cycle-float", "path-too-short", "graph-bool"],
)
def test_generators_check_their_counts(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


def test_node_count_beyond_int64_keys_rejected():
    with pytest.raises(ValidationError, match="node count must be at most"):
        Graph(2**40, ((0, 1),))


@pytest.mark.parametrize(
    "g, n_edges",
    [(cycle(5), 5), (path(4), 3), (complete_bipartite(2, 3), 6)],
)
def test_generator_edge_counts(g, n_edges):
    assert len(g.edges) == n_edges


def test_complete_bipartite_degrees():
    g = complete_bipartite(2, 3)
    assert degree_vector(g).tolist() == [3, 3, 2, 2, 2]


def test_erdos_renyi_deterministic_and_connected():
    g1 = erdos_renyi(12, 0.3, 7)
    g2 = erdos_renyi(12, 0.3, 7)
    assert np.array_equal(g1.edges, g2.edges)
    assert graph_checks(g1).connected


def test_erdos_renyi_differs_across_seeds():
    assert not np.array_equal(erdos_renyi(12, 0.3, 7).edges, erdos_renyi(12, 0.3, 8).edges)


def test_graph_holds_only_its_edge_array():
    complete_bipartite(2, 2)  # warm up imports and caches outside the trace
    tracemalloc.start()
    try:
        g = complete_bipartite(300, 300)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edges.nbytes == 90_000 * 2 * 8
    assert held < 3_000_000
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable


def test_graph_equality_and_hash_read_the_edge_array():
    g = Graph(4, ((3, 2), (0, 1)))
    assert g == Graph(4, np.array([[0, 1], [2, 3], [1, 0]]))
    assert hash(g) == hash(Graph(4, [(0, 1), (2, 3)]))
    assert g != Graph(5, ((0, 1), (2, 3))) and g != Graph(4, ((0, 1),))
    assert g.__eq__(((0, 1), (2, 3))) is NotImplemented


# --- edge-list parsing ------------------------------------------------------

def test_from_edge_list_basic():
    g = from_edge_list("# a triangle\n0 1\n1 2\n0 2\n")
    assert g.n == 3 and len(g.edges) == 3


def test_from_edge_list_header_fixes_n():
    g = from_edge_list("n 5\n0 1\n")
    assert g.n == 5


def test_from_edge_list_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        from_edge_list("0 1\n1 2\nnot an edge\n")


def test_from_edge_list_rejects_empty():
    with pytest.raises(ParseError):
        from_edge_list("# nothing here\n")


def test_from_edge_list_header_alone_gives_an_edgeless_graph():
    g = from_edge_list("# no edges yet\nn 4\n")
    assert g.n == 4 and g.num_edges == 0


def test_from_edge_list_header_after_edges_rejected():
    with pytest.raises(ParseError):
        from_edge_list("0 1\nn 4\n")


# --- matrices and spectra ---------------------------------------------------

def test_normalized_adjacency_k22():
    g = complete_bipartite(2, 2)
    bar_a = normalized_adjacency(g)
    assert np.allclose(bar_a, adjacency_matrix(g) / 2.0)


def test_isolated_node_rejected():
    g = Graph(3, ((0, 1),))
    with pytest.raises(ValidationError, match="node 2"):
        normalized_adjacency(g)


@pytest.mark.parametrize(
    "g",
    [cycle(5), path(6), complete_bipartite(3, 4), erdos_renyi(9, 0.4, 3)],
)
def test_spectrum_shape_and_range(g):
    lam = laplacian_spectrum(g).eigenvalues
    assert lam.shape == (g.n,)
    assert lam[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(lam >= -1e-10) and np.all(lam <= 2.0 + 1e-10)


@pytest.mark.parametrize(
    "g", [cycle(5), complete_bipartite(3, 4), erdos_renyi(10, 0.35, 5)]
)
def test_kernel_eigenvector_is_degree_profile(g):
    pair = laplacian_spectrum(g)
    d = degree_vector(g)
    expected = np.sqrt(d) / np.sqrt(d.sum())
    assert np.abs(pair.eigenvectors[:, 0] - expected).max() < 1e-10


@pytest.mark.parametrize(
    "g, bip", [(cycle(4), True), (cycle(5), False), (complete_bipartite(2, 5), True)]
)
def test_bipartite_iff_lambda_max_two(g, bip):
    checks = graph_checks(g)
    lam_max = laplacian_spectrum(g).eigenvalues[-1]
    assert checks.bipartite == bip
    assert (abs(lam_max - 2.0) < 1e-9) == bip


def test_spectral_decomposition_properties():
    # random symmetric matrices: orthonormal basis, exact reconstruction,
    # deterministic sign convention
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        m = m + m.T
        pair = spectral_decomposition(m)
        v = pair.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10
        recon = (v * pair.eigenvalues) @ v.T
        assert np.abs(recon - m).max() < 1e-9
        for k in range(n):
            col = v[:, k]
            assert col[np.argmax(np.abs(col))] > 0


def test_spectral_decomposition_rejects_asymmetric():
    with pytest.raises(ValidationError):
        spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_decomposition_rejects_nonfinite():
    with pytest.raises(ValidationError):
        spectral_decomposition(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_require_connected_names_context():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValidationError, match="regime"):
        require_connected(g, "regime test")


def test_normalized_laplacian_is_identity_minus_adjacency():
    g = erdos_renyi(8, 0.5, 9)
    assert np.allclose(
        normalized_laplacian(g), np.eye(g.n) - normalized_adjacency(g)
    )


def test_graphs_from_permuted_or_duplicated_edges_hash_equal():
    base = Graph(4, ((0, 1), (1, 2), (2, 3)))
    permuted = Graph(4, ((3, 2), (0, 1), (2, 1)))
    duplicated = Graph(4, ((0, 1), (1, 0), (1, 2), (2, 3), (3, 2)))
    for other in (permuted, duplicated):
        assert other == base
        assert hash(other) == hash(base)
    assert Graph(4, ((0, 1), (1, 2))) != base


def test_equal_distinct_graph_hits_operator_cache():
    first = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    normalized_adjacency(first)
    hits = normalized_adjacency.cache_info().hits
    second = Graph(5, ((4, 0), (3, 4), (2, 3), (1, 2), (0, 1)))
    assert second is not first
    assert normalized_adjacency(second) is normalized_adjacency(first)
    assert normalized_adjacency.cache_info().hits >= hits + 2


# --- the certified ends of the spectrum -------------------------------------

def _fresh_ends(g):
    """``extreme_spectrum(g)`` with both spectrum caches emptied first, and
    the number of full decompositions it ran."""
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    ends = extreme_spectrum(g)
    return ends, laplacian_spectrum.cache_info().misses


def _projector(vectors):
    return vectors @ vectors.T


def test_complete_bipartite_ends_are_exact_without_iteration_breaking_down():
    # A_hat has rank 2 on K_{300,300}: the Krylov space is invariant at once
    ends, full = _fresh_ends(complete_bipartite(300, 300))
    assert ends.certified and full == 0
    assert ends.lambda_max == 2.0 and ends.top.eigenvalues.tolist() == [2.0]
    assert ends.bottom.eigenvalues.tolist() == [0.0]
    assert abs(ends.below_top - 1.0) <= 1e-12 and abs(ends.lambda_2 - 1.0) <= 1e-12
    for pair in (ends.top, ends.bottom):
        assert np.all(np.isfinite(pair.eigenvectors))
    sign = np.sign(ends.top.eigenvectors[:, 0])
    assert np.all(sign[:300] == sign[0]) and np.all(sign[300:] == -sign[0])


@pytest.mark.parametrize(
    "g, top, multiplicity",
    [
        (Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)]), 7 / 6, 6),
        # the Petersen graph: outer 5-cycle, inner pentagram, spokes
        (Graph(10, [(i, (i + 1) % 5) for i in range(5)]
               + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
               + [(i, i + 5) for i in range(5)]), 5 / 3, 4),
    ],
)
def test_multiple_lambda_max_gives_its_whole_eigenspace(g, top, multiplicity):
    ends, full = _fresh_ends(g)
    # one start vector sees a single copy, so the certificate must fail
    assert not ends.certified and full == 1
    assert ends.top.eigenvectors.shape == (g.n, multiplicity)
    assert np.abs(ends.top.eigenvalues - top).max() <= 1e-12
    phi0 = np.sqrt(degree_vector(g) / degree_vector(g).sum())
    lap = normalized_laplacian(g)
    expected = _projector(np.linalg.eigh(lap)[1][:, -multiplicity:])
    assert np.abs(_projector(ends.top.eigenvectors) - expected).max() <= 1e-10
    assert np.abs(np.abs(ends.bottom.eigenvectors[:, 0]) - phi0).max() <= 1e-12


def test_odd_cycle_top_gap_takes_the_full_decomposition():
    # lambda_max of an odd cycle is double, and its gaps are O(1/n^2)
    g = cycle(1001)
    ends, full = _fresh_ends(g)
    assert not ends.certified and full == 1
    lam = np.linalg.eigvalsh(normalized_laplacian(g))
    assert abs(ends.lambda_max - lam[-1]) <= 1e-12
    assert ends.top.eigenvectors.shape[1] == 2
    assert abs(ends.below_top - lam[-3]) <= 1e-12 and abs(ends.lambda_2 - lam[1]) <= 1e-12


def test_disconnected_graph_ends_come_from_the_full_decomposition():
    # K_2 plus a triangle: spectrum {0, 2} and {0, 1.5, 1.5}
    g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    ends, full = _fresh_ends(g)
    assert not ends.certified and full == 1
    assert abs(ends.lambda_max - 2.0) <= 1e-12
    assert ends.bottom.eigenvectors.shape == (5, 2)
    assert abs(ends.lambda_2 - 1.5) <= 1e-12 and abs(ends.below_top - 1.5) <= 1e-12
    assert ends.interior.tolist() == [ends.lambda_2, ends.below_top]


def test_ends_without_an_interior():
    ends, _ = _fresh_ends(path(2))
    assert ends.certified
    assert (ends.lambda_2, ends.below_top) == (2.0, 0.0)
    assert ends.interior.size == 0


def test_extreme_spectrum_rejects_an_isolated_node():
    with pytest.raises(ValidationError, match="node 0"):
        extreme_spectrum(Graph(1, []))


# --- sizes beyond the machine -----------------------------------------------

def test_dense_operator_beyond_physical_memory_is_refused_before_allocating():
    g = path(10**6)  # the 8 TB adjacency is refused; the edge array is 16 MB
    with pytest.raises(NumericError, match="1000000 x 1000000"):
        normalized_adjacency(g)
    with pytest.raises(NumericError, match="1000000 x 1000000"):
        extreme_spectrum(g)


def test_each_dense_spectrum_site_guards_its_own_peak(monkeypatch):
    # room for the certificate's one dense n x n array, not for the 5 of a
    # full decomposition
    g = erdos_renyi(150, 0.1, 5)
    monkeypatch.setattr(gel.graphs, "_physical_memory", lambda: 3 * 8 * g.n**2)
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    assert extreme_spectrum(g).certified
    with pytest.raises(NumericError, match="the full decomposition's 5 dense 150 x 150"):
        laplacian_spectrum(g)


def test_erdos_renyi_beyond_physical_memory_is_refused_before_allocating():
    with pytest.raises(NumericError, match="candidate pairs"):
        erdos_renyi(3_000_000, 1e-6, 1)


@pytest.mark.parametrize(
    "build, args", [(cycle, (10**6,)), (path, (10**6,)), (complete_bipartite, (1000, 1000))],
    ids=["cycle", "path", "complete_bipartite"],
)
def test_edge_array_generators_are_refused_before_allocating(monkeypatch, build, args):
    monkeypatch.setattr(gel.graphs, "_physical_memory", lambda: 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match=f"edges of {build.__name__}"):
            build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _traced(call):
    """``call()``'s result, and the bytes it left held and at its peak."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_certificate_holds_one_dense_array():
    g = erdos_renyi(1200, 0.01, 3)
    extreme_spectrum(cycle(10))  # warm up imports outside the trace
    extreme_spectrum.cache_clear()
    # both ends: lambda_2's certificate runs once the top's array is freed
    ends, _, peak = _traced(lambda: (ends := extreme_spectrum(g), ends.lambda_2)[0])
    assert ends.certified
    assert peak <= 1.25 * 8 * g.n**2


def test_erdos_renyi_holds_no_candidate_pairs():
    erdos_renyi(20, 0.5, 1)
    _, _, peak = _traced(lambda: erdos_renyi(2000, 0.004, 7))
    assert peak < 8_000_000  # all n (n - 1) / 2 draws would be 16 MB


def test_dense_caches_hold_a_few_entries():
    n = 300
    graphs = [erdos_renyi(n, 0.05, seed) for seed in range(20)]
    laplacian_spectrum(cycle(5))
    for cached in (normalized_adjacency, normalized_laplacian, laplacian_spectrum):
        cached.cache_clear()

    def every_dense_result():
        for g in graphs:
            normalized_adjacency(g), normalized_laplacian(g), laplacian_spectrum(g)

    _, held, _ = _traced(every_dense_result)
    assert held <= 16 * 8 * n * n  # a few of each; 60 if every one stayed


def test_per_graph_caches_hold_a_few_graphs():
    # each cached result pins its Graph key, edge array included
    extreme_spectrum(complete_bipartite(3, 4))  # warm up imports outside the trace
    sizes = range(300, 316)

    def spectra_of_dropped_graphs():
        for b in sizes:
            extreme_spectrum(complete_bipartite(300, b))

    _, held, _ = _traced(spectra_of_dropped_graphs)
    edge_bytes = 16 * 300 * sizes[-1]
    assert held <= 12 * edge_bytes  # about 8 with 4 entries a cache; 32 if every graph stayed


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_erdos_renyi_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ValidationError, match="seed"):
        erdos_renyi(20, 0.5, seed)
