"""Property tests of the graph core against a pure-Python reference, and of
the trajectory columns against their edge form.

The reference walks the edges one at a time: a set of ``(min, max)`` pairs
for canonicalization and a breadth-first 2-colouring for connectivity and
bipartiteness.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gel.graphs
from gel.dynamics import ModelSpec, run_trajectory, trajectory_states
from gel.energy import WeightSet
from gel.errors import GelError
from gel.graphs import (
    Graph,
    _adjacency_product,
    adjacency_matrix,
    complete_bipartite,
    cycle,
    degree_vector,
    erdos_renyi,
    extreme_spectrum,
    graph_checks,
    laplacian_spectrum,
    normalized_adjacency,
    normalized_laplacian,
    path,
)
from gel.spectral import asymptotic_profile, classify_regime
from gel.verify import _horizon, default_suite

# --- the reference ----------------------------------------------------------

def oracle_edges(pairs):
    canon = set()
    for u, v in pairs:
        canon.add((min(u, v), max(u, v)))
    return tuple(sorted(canon))


def pair_array(pairs):
    """Pairs as an int64 ``(m, 2)`` array, in the order given."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def oracle_checks(n, edges):
    """(connected, bipartite) by breadth-first 2-colouring."""
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    color = [-1] * n
    bipartite, components = True, 0
    for start in range(n):
        if color[start] != -1:
            continue
        components += 1
        color[start] = 0
        queue = [start]
        while queue:
            node = queue.pop()
            for nb in neighbors[node]:
                if color[nb] == -1:
                    color[nb] = 1 - color[node]
                    queue.append(nb)
                elif color[nb] == color[node]:
                    bipartite = False
    return components == 1, bipartite


def oracle_adjacency(n, edges):
    a = [[0.0] * n for _ in range(n)]
    for u, v in edges:
        a[u][v] = a[v][u] = 1.0
    return a


def oracle_erdos_renyi(n, p, seed):
    """The same draws as ``erdos_renyi``, canonicalized and checked by the
    reference."""
    iu, ju = np.triu_indices(n, k=1)
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        mask = rng.random(iu.size) < p
        edges = oracle_edges(zip(iu[mask].tolist(), ju[mask].tolist()))
        if oracle_checks(n, edges)[0]:
            return edges
    raise AssertionError("no connected draw")


# --- strategies -------------------------------------------------------------

@st.composite
def edge_lists(draw):
    """A node count up to 30 and an edge list with duplicates, reversed
    pairs and, often, several components."""
    n = draw(st.integers(1, 30))
    if n == 1:
        return n, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=60))
    if pairs:
        repeats = draw(st.lists(st.sampled_from(pairs), max_size=10))
        pairs += [(v, u) for u, v in repeats] + repeats[: len(repeats) // 2]
    return n, draw(st.permutations(pairs))


@st.composite
def connected_edge_lists(draw, max_nodes=30):
    """A random spanning tree on 2..max_nodes nodes, relabelled, plus extra
    edges."""
    n = draw(st.integers(2, max_nodes))
    labels = draw(st.permutations(range(n)))
    pairs = [(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    node = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=20))
    return n, pairs


# --- properties -------------------------------------------------------------

@settings(deadline=None)
@given(edge_lists())
def test_graph_core_matches_the_reference(case):
    n, pairs = case
    g = Graph(n, pairs)
    edges = oracle_edges(pairs)
    assert np.array_equal(g.edges, pair_array(edges))
    assert g == Graph(n, edges) and hash(g) == hash(Graph(n, edges))
    a = oracle_adjacency(n, edges)
    assert adjacency_matrix(g).tolist() == a
    assert degree_vector(g).tolist() == [sum(row) for row in a]
    assert tuple(graph_checks(g)) == oracle_checks(n, edges)


@settings(deadline=None)
@given(connected_edge_lists())
def test_lambda_max_two_iff_bipartite(case):
    g = Graph(*case)
    assert graph_checks(g).connected
    lam_max = laplacian_spectrum(g).eigenvalues[-1]
    assert (lam_max >= 2.0 - 1e-9) == graph_checks(g).bipartite


@settings(deadline=None)
@given(connected_edge_lists())
def test_extreme_spectrum_matches_the_full_decomposition(case):
    g = Graph(*case)
    ends = extreme_spectrum(g)
    lam, vectors = np.linalg.eigh(normalized_laplacian(g))
    top = lam >= lam[-1] - 1e-9
    bottom = lam <= lam[0] + 1e-9
    assert abs(ends.lambda_max - lam[-1]) <= 1e-12
    assert abs(ends.below_top - lam[~top][-1]) <= 1e-12
    assert abs(ends.lambda_2 - lam[~bottom][0]) <= 1e-12
    for pair, block in ((ends.top, vectors[:, top]), (ends.bottom, vectors[:, bottom])):
        assert pair.eigenvectors.shape == block.shape
        projector = pair.eigenvectors @ pair.eigenvectors.T
        assert np.abs(projector - block @ block.T).max() <= 1e-10


@settings(deadline=None)
@given(connected_edge_lists())
def test_the_spectrum_lies_in_zero_two(case):
    g = Graph(*case)
    ends = extreme_spectrum(g)
    for values in (laplacian_spectrum(g).eigenvalues, ends.bottom.eigenvalues,
                   ends.top.eigenvalues, [ends.lambda_2, ends.below_top]):
        assert -1e-12 <= min(values) and max(values) <= 2.0 + 1e-12
    # the n eigenvalues sum to the trace n, and the bottom one is 0
    assert ends.lambda_max >= g.n / (g.n - 1) - 1e-12


@settings(deadline=None)
@given(connected_edge_lists(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_the_profile_does_not_depend_on_reading_lambda_2_first(case, d, seed):
    g = Graph(*case)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(d, d))
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=w + w.T), tau=0.5)
    F0 = rng.normal(size=(g.n, d))

    def profile(read_lambda_2_first):
        extreme_spectrum.cache_clear()
        if read_lambda_2_first:
            extreme_spectrum(g).lambda_2
        try:
            return asymptotic_profile(g, spec, F0)
        except GelError as err:
            return type(err)

    lazy, eager = profile(False), profile(True)
    if isinstance(eager, type):
        assert lazy is eager
        return
    assert (lazy.label, lazy.growth) == (eager.label, eager.growth)
    assert np.array_equal(lazy.direction, eager.direction)
    assert abs(lazy.contraction - eager.contraction) <= 1e-14 * eager.contraction


#: The least gap, per step, between the two growth exponents that
#: ``classify_regime`` weighs, below which a draw counts as a Boundary draw.
REGIME_MARGIN = 0.1


@settings(deadline=None)
@given(connected_edge_lists(12), st.integers(1, 3), st.data())
def test_the_regime_is_the_frequency_a_long_run_reaches(case, d, data):
    g = Graph(*case)
    w = data.draw(hnp.arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    W, tau = w + w.T, 0.5
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=W), tau=tau)
    report = classify_regime(g, spec)
    # Discarded, and nothing else: a step too large for HFD, and draws within
    # REGIME_MARGIN of the Boundary, where the high-frequency exponent
    # rho_minus (0 without negative spectrum) ties the low-frequency mu_top
    # and the run would need unboundedly many steps to tell them apart.
    assume(report.regime != "StepSizeViolated")
    rho = report.rho_minus if report.mu_bottom < 0.0 else 0.0
    assume(abs(rho - report.mu_top) >= REGIME_MARGIN)
    assert report.regime in ("HFD", "LFD")
    F0 = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(g.n, d))
    profile = asymptotic_profile(g, spec, F0)
    traj = run_trajectory(spec, g, F0, _horizon(profile.contraction, 1e-9))
    target = report.lambda_max if report.regime == "HFD" else 0.0
    assert abs(traj.rayleigh[-1] - target) <= 1e-6


def edge_form_columns(g, spec, x, F0):
    """Rayleigh quotient, Dirichlet energy and energy column of the state x,
    summed over the edges of ``g``."""
    y = x / np.sqrt(degree_vector(g))[:, None]
    head, tail = y[g.edges[:, 1]], y[g.edges[:, 0]]
    dirichlet = float(np.sum((head - tail) ** 2))
    if spec.variant == "heat":
        energy = dirichlet
    elif spec.variant == "label_propagation":
        energy = dirichlet + spec.mu * float(np.sum((x - F0) ** 2))
    else:
        w = spec.weights
        energy = (
            float(np.sum((x @ w.Omega) * x))
            - 2.0 * float(np.sum((head @ w.W) * tail))
            + 2.0 * float(np.sum(x * (F0 @ w.Wtilde)))
        )
    return dirichlet / float(np.sum(x * x)), dirichlet, energy


@st.composite
def column_specs(draw, d):
    variant = draw(st.sampled_from(["gradient_flow", "heat", "label_propagation"]))
    tau = draw(st.floats(0.1, 1.0))
    if variant == "heat":
        return ModelSpec(variant, tau=tau)
    if variant == "label_propagation":
        return ModelSpec(variant, tau=tau, mu=draw(st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, omega = rng.normal(size=(2, d, d))
    weights = WeightSet(
        W=(w + w.T) / 2,
        Omega=(omega + omega.T) / 4 if draw(st.booleans()) else None,
        Wtilde=rng.normal(size=(d, d)) if draw(st.booleans()) else None,
    )
    return ModelSpec(variant, weights=weights, tau=tau / 2)


@settings(deadline=None)
@given(connected_edge_lists(), st.integers(1, 3), st.data())
def test_trajectory_columns_match_their_edge_form(case, d, data):
    g = Graph(*case)
    spec = data.draw(column_specs(d))
    steps = data.draw(st.integers(1, 30))
    F0 = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(g.n, d))
    traj = run_trajectory(spec, g, F0, steps)
    assert traj.dirichlet.min() >= 0.0
    for k, state in enumerate(trajectory_states(spec, g, F0, steps)):
        want = edge_form_columns(g, spec, state.direction, F0)
        got = (traj.rayleigh[k], traj.dirichlet[k], traj.energy[k])
        for name, a, b in zip(("rayleigh", "dirichlet", "energy"), got, want):
            assert abs(a - b) <= max(1e-12 * abs(b), 1e-15), (k, name, a, b)


@settings(deadline=None)
@given(connected_edge_lists(80), st.sampled_from([None, 1, 2, 3]), st.integers(0, 2**32 - 1))
def test_adjacency_product_matches_the_dense_operator(case, width, seed):
    # small or dense graphs fall on the dense side of the rule
    # 2 m d < n^2 / 8, sparse ones on more than about 20 nodes on the edge side
    g = Graph(*case)
    shape = (g.n,) if width is None else (g.n, width)
    F = np.random.default_rng(seed).normal(size=shape)
    want = normalized_adjacency(g) @ F
    got = _adjacency_product(g, F)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, float(np.abs(want).max()))


def _reads_dense_operator(monkeypatch, g, width) -> bool:
    """Whether the A_hat product of ``g`` at this width reads the dense matrix."""
    calls = []

    def recorded(graph):
        calls.append(graph)
        return normalized_adjacency(graph)

    monkeypatch.setattr(gel.graphs, "normalized_adjacency", recorded)
    shape = (g.n,) if width == 1 else (g.n, width)
    _adjacency_product(g, np.ones(shape))
    monkeypatch.undo()
    return bool(calls)


def test_adjacency_product_rule_picks_the_pinned_side(monkeypatch):
    for g in (erdos_renyi(2000, 0.004, 7), erdos_renyi(1000, 0.008, 7)):
        assert not _reads_dense_operator(monkeypatch, g, 8), g
    # dense at d = 1 means dense at every width
    for g in [complete_bipartite(300, 300)] + [w.graph for w in default_suite()]:
        assert _reads_dense_operator(monkeypatch, g, 1), g


@pytest.mark.parametrize(
    "n, p, seed",
    [(1000, 0.008, 1), (1000, 0.008, 7), (1000, 0.008, 31), (2000, 0.004, 7), (2000, 0.004, 32)],
)
def test_erdos_renyi_matches_the_reference(n, p, seed):
    g = erdos_renyi(n, p, seed)
    assert np.array_equal(g.edges, pair_array(oracle_erdos_renyi(n, p, seed)))
    assert tuple(graph_checks(g)) == (True, False)


def test_erdos_renyi_draws_across_chunks_and_retries_as_the_reference():
    n, p, seed = 700, 0.009, 1
    assert n * (n - 1) // 2 > 3 * gel.graphs._PAIR_CHUNK
    iu, ju = np.triu_indices(n, k=1)
    first = np.random.default_rng(seed).random(iu.size) < p
    assert not graph_checks(Graph(n, np.stack((iu[first], ju[first]), axis=1))).connected
    g = erdos_renyi(n, p, seed)
    assert np.array_equal(g.edges, pair_array(oracle_erdos_renyi(n, p, seed)))
    assert graph_checks(g).connected


_B = gel.graphs._BLOCK


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, _B - 1, _B, _B + 1, 2 * _B + 3]), st.integers(0, 2**32 - 1),
       st.booleans())
def test_blocked_cholesky_decides_definiteness(n, seed, definite):
    # eigenvalues at least 0.01 from 0, far beyond the certificate's shift
    # delta = 2 (n + 2) eps trace(M) < 1e-10 at these sizes
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = rng.uniform(0.01, 2.0, n)
    if not definite:
        values[rng.integers(n)] = -0.01
    m = (q * values) @ q.T
    m = (m + m.T) / 2
    columns = [m[first:, first:first + _B].copy() for first in range(0, n, _B)]
    held = list(columns)  # the routine drops its own references as it goes
    assert gel.graphs._factor_block_columns(columns) == definite
    if definite:
        a = np.zeros((n, n))
        for first, column in zip(range(0, n, _B), held):
            a[first:, first:first + _B] = column
        assert np.abs(np.tril(a) - np.linalg.cholesky(m)).max() <= 1e-10


def dense_certificate_matrix(g, weights, cv, v, shift):
    """The certificate's M as the dense n x n array it was formed in before
    the block columns: the edges scattered, the rank-k term added in row
    blocks, then the shift."""
    m = gel.graphs._scatter(g, weights)
    for first in range(0, g.n, _B):
        m[first:first + _B] += cv[first:first + _B] @ v.T
    m.flat[:: g.n + 1] += shift
    return m


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "g", [cycle(7), path(2 * _B + 3), erdos_renyi(3 * _B, 0.05, 2), complete_bipartite(100, 157)],
    ids=["cycle7", "path2B+3", "er3B", "k100_157"],
)
def test_block_columns_hold_the_lower_triangle_of_the_dense_matrix(g, p, side):
    rng = np.random.default_rng(g.n + p)
    v = rng.standard_normal((g.n, p))
    cv, weights, shift = 4.0 * v, side * gel.graphs._edge_weights(g), side * 0.37
    dense = dense_certificate_matrix(g, weights, cv, v, shift)
    columns = gel.graphs._lower_block_columns(g, weights, cv, v, shift)
    firsts = range(0, g.n, _B)
    assert len(columns) == len(firsts)
    for first, column in zip(firsts, columns):
        width = min(_B, g.n - first)
        expected = dense[first:, first:first + width]
        assert column.shape == expected.shape  # the diagonal block in full
        if p == 1:  # each entry of the rank-1 term is one product, one rounding
            assert np.array_equal(column, expected)
        else:
            # BLAS kernels of the two product shapes may round a two-term sum
            # differently (with or without a fused multiply-add): a few units
            # in the last place of the terms' magnitudes
            scale = np.abs(expected) + np.abs(cv[first:]) @ np.abs(v[first:first + width]).T
            assert np.all(np.abs(column - expected) <= 4 * np.finfo(float).eps * scale)


def _read_ends(g):
    """``extreme_spectrum(g)``'s certified flag, lambda_max, below_top,
    lambda_2 and top vectors, from emptied caches."""
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    ends = extreme_spectrum(g)
    return (ends.certified, ends.lambda_max, ends.below_top, ends.lambda_2,
            ends.top.eigenvectors.copy())


def _with_dense_certificate(monkeypatch):
    """Make the certificate form the dense M and factor all of it with one
    ``np.linalg.cholesky``: a single block column as wide as M."""
    def factored(columns):
        try:
            np.linalg.cholesky(columns[0])
        except np.linalg.LinAlgError:
            return False
        return True

    monkeypatch.setattr(gel.graphs, "_lower_block_columns",
                        lambda *args: [dense_certificate_matrix(*args)])
    monkeypatch.setattr(gel.graphs, "_factor_block_columns", factored)


def _assert_same_ends(monkeypatch, g):
    blocked = _read_ends(g)
    with monkeypatch.context() as patched:
        _with_dense_certificate(patched)
        dense = _read_ends(g)
    assert blocked[:4] == dense[:4]
    assert np.array_equal(blocked[4], dense[4])
    return blocked[0]


def test_the_block_certificate_decides_as_the_dense_one_on_the_witness_graphs(monkeypatch):
    graphs = sorted({w.graph for w in default_suite()}, key=lambda g: (g.n, g.edges.tobytes()))
    certified = [_assert_same_ends(monkeypatch, g) for g in graphs]
    assert sum(certified) > len(graphs) // 2


@pytest.mark.parametrize(
    "g",
    [build(n) for build in (cycle, path) for n in (3, 4, _B - 1, _B, _B + 1, 2 * _B + 3, 3 * _B)]
    + [complete_bipartite(a, b) for a, b in ((1, 1), (2, 3), (_B // 2, _B // 2 + 1),
                                             (_B, _B), (_B, 2 * _B))]
    + [erdos_renyi(n, p, s) for n, p, s in ((400, 0.02, 7), (700, 0.009, 1), (1200, 0.01, 3))],
    ids=repr,
)
def test_the_block_certificate_decides_as_the_dense_one(monkeypatch, g):
    _assert_same_ends(monkeypatch, g)


@pytest.mark.parametrize(
    "g, pairs, checks",
    [
        (
            complete_bipartite(300, 300),
            [(i, 300 + j) for i in range(300) for j in range(300)],
            (True, True),
        ),
        (cycle(20001), [(i, (i + 1) % 20001) for i in range(20001)], (True, False)),
        (cycle(20000), [(i, (i + 1) % 20000) for i in range(20000)], (True, True)),
        (path(7), [(i, i + 1) for i in range(6)], (True, True)),
    ],
)
def test_generators_match_the_reference(g, pairs, checks):
    edges = oracle_edges(pairs)
    assert np.array_equal(g.edges, pair_array(edges))
    assert tuple(graph_checks(g)) == oracle_checks(g.n, edges) == checks


def _python(code, cwd=None):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("GEL_SEED", None)
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_graph_core_does_not_import_numpy_ma(tmp_path):
    # np.unique's first call imports numpy.ma, tens of ms of start-up
    code = (
        "import sys\n"
        "from gel.graphs import Graph, complete_bipartite, cycle, graph_checks\n"
        "for g in (complete_bipartite(30, 30), cycle(9), Graph(4, ((2, 3), (1, 0), (0, 1)))):\n"
        "    graph_checks(g)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _python(code) == "False"
    # nor does a whole `gel run` whose steps take the edge-sum A_hat product
    # (2 m d < n^2 / 8), which stays on numpy alone
    (tmp_path / "run.cfg").write_text(
        "graph = cycle(64)\nvariant = gradient_flow\n"
        "W = [[-1.0, 0.0], [0.0, 0.3]]\ntau = 0.5\nsteps = 30\n"
        "init = random_normal(7)\ncsv = run.csv\nsvg = run.svg\nreport = run.txt\n"
    )
    code = (
        "import sys\n"
        "from gel.cli import main\n"
        "code = main(['run', 'run.cfg'])\n"
        "print(code, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    assert _python(code, cwd=tmp_path) == "0 False False"
    assert "regime = HFD" in (tmp_path / "run.txt").read_text()
