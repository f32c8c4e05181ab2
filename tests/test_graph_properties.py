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

import gel.dynamics
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


def trace_form_miss(g, dirichlet, states):
    """The largest miss of a Dirichlet column from the trace form
    ``|x|^2 - tr(x^T A_hat x)`` of its states, over ``max(1, |x|^2)``.
    A_hat is the reference's dense one, its degrees counted off the edges."""
    a = np.array(oracle_adjacency(g.n, g.edges.tolist()))
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    a_hat = inv_sqrt[:, None] * a * inv_sqrt
    miss = 0.0
    for value, state in zip(dirichlet, states, strict=True):
        x = state.direction
        sq = float(np.sum(x * x))
        miss = max(miss, abs(value - (sq - float(np.sum(x * (a_hat @ x))))) / max(1.0, sq))
    return miss


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
    states = list(trajectory_states(spec, g, F0, steps))
    for k, state in enumerate(states):
        want = edge_form_columns(g, spec, state.direction, F0)
        got = (traj.rayleigh[k], traj.dirichlet[k], traj.energy[k])
        for name, a, b in zip(("rayleigh", "dirichlet", "energy"), got, want):
            assert abs(a - b) <= max(1e-12 * abs(b), 1e-15), (k, name, a, b)
    assert trace_form_miss(g, traj.dirichlet, states) <= 1e-9


def test_degrees_off_the_edges_miss_the_trace_form(monkeypatch):
    # the product form deflates the states of phi0 = sqrt(deg) / |sqrt(deg)|
    g = erdos_renyi(40, 0.3, 3)
    wrong = degree_vector(g) + np.arange(g.n) % 2
    monkeypatch.setattr(gel.dynamics, "degree_vector", lambda graph: wrong)
    spec, F0 = ModelSpec("heat"), np.random.default_rng(6).normal(size=(g.n, 1))
    traj = run_trajectory(spec, g, F0, 3)
    assert trace_form_miss(g, traj.dirichlet, trajectory_states(spec, g, F0, 3)) > 1e-6


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


def wheel(n: int) -> Graph:
    """The hub 0 joined to every node of the cycle 1 .. n-1."""
    rim = np.arange(1, n)
    return Graph(n, np.concatenate((
        np.stack((np.zeros_like(rim), rim), axis=1),
        np.stack((rim, np.roll(rim, -1)), axis=1),
    )))


def ascending_fold(g: Graph, F: np.ndarray) -> np.ndarray:
    """``A_hat F`` summed row by row, left to right over the neighbours in
    ascending order, then scaled: the order the slot form pins."""
    inv_sqrt = 1.0 / np.sqrt(degree_vector(g))
    scaled = F * (inv_sqrt if F.ndim == 1 else inv_sqrt[:, None])
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        neighbours[u].append(v)
        neighbours[v].append(u)
    out = np.empty_like(F)
    for i, row in enumerate(neighbours):
        total = scaled[min(row)]
        for j in sorted(row)[1:]:
            total = total + scaled[j]
        out[i] = inv_sqrt[i] * total
    return out


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        st.integers(2, 300).map(path),
        st.integers(3, 300).map(cycle),
        st.integers(4, 120).map(wheel),
        st.tuples(st.integers(10, 200), st.integers(0, 99)).map(
            lambda a: erdos_renyi(a[0], 6.0 / a[0], a[1])),
    ),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_slot_product_sums_each_row_in_ascending_order(g, width, seed):
    shape = (g.n,) if width == 1 else (g.n, width)
    F = np.random.default_rng(seed).normal(size=shape)
    got = gel.graphs._slot_product(g).at(width)(F)
    want = normalized_adjacency(g) @ F
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, float(np.abs(want).max()))
    assert np.array_equal(got, ascending_fold(g, F))


def _picked_form(g: Graph, width: int) -> str:
    """Which form ``_product_for`` picks for ``g`` at this width."""
    product = gel.graphs._product_for(g, width)
    # the dense form is the matrix's bound __matmul__; the slot form binds
    # the width to its cached form's method with functools.partial
    owner = getattr(getattr(product, "func", product), "__self__", product)
    if isinstance(owner, np.ndarray):
        return "dense"
    forms = {"slot": gel.graphs._slot_product, "edge": gel.graphs._edge_product}
    (form,) = [name for name, build in forms.items() if owner is build(g)]
    return form


def test_adjacency_product_rule_picks_the_pinned_side():
    for g in (erdos_renyi(2000, 0.004, 7), erdos_renyi(1000, 0.008, 7)):
        assert (_picked_form(g, 8), _picked_form(g, 1)) == ("slot", "edge"), g
    # a hub of degree n - 1 takes n Python steps in the slot form
    assert _picked_form(wheel(3000), 8) == "edge"
    # dense at d = 1 means dense at every width
    for g in [complete_bipartite(300, 300)] + [w.graph for w in default_suite()]:
        assert _picked_form(g, 1) == "dense", g


@pytest.mark.parametrize("g, width, form", [
    (erdos_renyi(400, 0.02, 7), 8, "slot"),
    (erdos_renyi(1000, 0.02, 7), 16, "slot"),
    (erdos_renyi(1000, 0.02, 7), 32, "dense"),
    (erdos_renyi(2000, 1 / 16, 7), 12, "dense"),
    (complete_bipartite(300, 300), 65, "dense"),
], ids=["er400-d8", "er1000-d16", "er1000-d32", "er2000-d12", "k300-d65"])
def test_the_slot_form_goes_before_the_dense_one_below_half_the_matrix(g, width, form):
    # both conditions hold; the slot form's 2 m d gathered floats decide
    assert 128 * int(degree_vector(g).max()) < g.n * width
    assert 16 * g.num_edges * width >= g.n * g.n
    assert (4 * g.num_edges * width < g.n * g.n) == (form == "slot")
    assert _picked_form(g, width) == form


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
    # eigenvalues at least 0.01 from 0, far beyond the certificate's margin
    # delta < 1e-10 at these sizes
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = rng.uniform(0.01, 2.0, n)
    if not definite:
        values[rng.integers(n)] = -0.01
    m = (q * values) @ q.T
    m = (m + m.T) / 2

    def add_rows(first, out):
        out += m[first:first + _B, first:]
        return True

    # the routine keeps no factor row it has finished with: each block row
    # of the factor is read off as its panel is solved
    factor, substitute = [], gel.graphs._substitute

    def solved(low, x):
        substitute(low, x)
        factor.append(np.hstack((low.T, x)))

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(gel.graphs, "_substitute", solved)
        assert gel.graphs._factor_block_rows(add_rows, n) == definite
    if definite:
        a = np.zeros((n, n))
        for first, row in zip(range(0, n, _B), factor, strict=True):
            a[first:first + _B, first:] = row
        assert np.abs(np.triu(a) - np.linalg.cholesky(m).T).max() <= 1e-10


def _certificate_matrix(g, v, side, s):
    """The certificate's ``M = s I + side A_hat + c V V^T``, dense."""
    c = gel.graphs._LIFT
    return s * np.eye(g.n) + side * normalized_adjacency(g) + c * v @ v.T


def dense_schur_complement(g, v, held, side, s):
    """``M_RR - M_RI M_II^-1 M_IR`` for the certificate's M, R the nodes
    not in ``held``, by a dense solve; and an entrywise bound on the
    rounding of either way of forming it, ``(|I| + k + 4) eps`` times the
    scale ``|M_RR| + |M_RI| |M_II^-1| |M_IR|``: the dense one sums |I|
    terms in each entry, as V fills M_RI, and the certificate at most one
    for each path ``a - i - b`` through ``held`` and each of V's k
    columns."""
    m = _certificate_matrix(g, v, side, s)
    inside = np.zeros(g.n, dtype=bool)
    inside[held] = True
    rest = np.flatnonzero(~inside)
    m_rr, m_ri, m_ii = m[np.ix_(rest, rest)], m[np.ix_(rest, held)], m[np.ix_(held, held)]
    inverse = np.linalg.solve(m_ii, np.eye(held.size))
    scale = np.abs(m_rr) + np.abs(m_ri) @ np.abs(inverse) @ np.abs(m_ri).T
    bound = (held.size + v.shape[1] + 4) * np.finfo(float).eps * scale
    return m_rr - m_ri @ np.linalg.solve(m_ii, m_ri.T), bound


def _greedy_independent_set(g):
    """A maximal independent set by the reference's walk: each node in
    order joins unless a neighbour already has."""
    neighbors = [set() for _ in range(g.n)]
    for u, v in g.edges.tolist():
        neighbors[u].add(v)
        neighbors[v].add(u)
    chosen = []
    for node in range(g.n):
        if not neighbors[node] & set(chosen):
            chosen.append(node)
    return np.array(chosen, dtype=np.int64)


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "g", [cycle(7), path(2 * _B + 3), erdos_renyi(3 * _B, 0.05, 2), complete_bipartite(100, 157)],
    ids=["cycle7", "path2B+3", "er3B", "k100_157"],
)
def test_block_columns_hold_the_lower_triangle_of_the_dense_matrix(g, p, side):
    # the block rows of T's upper triangle are, transposed, the block
    # columns of its lower triangle: T is the dense Schur complement
    rng = np.random.default_rng(g.n + p)
    v = rng.standard_normal((g.n, p)) / np.sqrt(g.n)
    s = 1.5
    held = _greedy_independent_set(g)
    dense, bound = dense_schur_complement(g, v, held, side, s)
    _, add_rows = gel.graphs._schur_block_rows(g, v, held, side, s)
    r = g.n - held.size
    trace = 0.0
    for first in range(0, r, _B):
        width = min(_B, r - first)
        row = np.zeros((width, r - first))
        trace += add_rows(first, row)
        column, expected = row.T, dense[first:, first:first + width]
        assert column.shape == expected.shape
        lower = np.tril(np.ones_like(column, dtype=bool))  # the part the factorization reads
        error = np.abs(column - expected)[lower]
        assert np.all(error <= bound[first:, first:first + width][lower])
    assert abs(trace - np.trace(dense)) <= np.trace(bound)


def _read_ends(g):
    """``extreme_spectrum(g)``'s certified flag, lambda_max, below_top,
    lambda_2 and top vectors, from emptied caches."""
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    ends = extreme_spectrum(g)
    return (ends.certified, ends.lambda_max, ends.below_top, ends.lambda_2,
            ends.top.eigenvectors.copy())


def _with_dense_certificate(monkeypatch):
    """Make the certificate eliminate no node and factor the whole dense M
    with one ``np.linalg.cholesky``: a single block row as wide as M."""
    def dense(g, v, held, side, s):
        m = _certificate_matrix(g, v, side, s)

        def add_rows(first, out):
            out += m
            return float(np.trace(m))

        return v.shape[1] + gel.graphs._LIFT * float(np.vdot(v, v)), add_rows

    def factored(add_rows, order):
        m = np.zeros((order, order))
        if not add_rows(0, m):
            return False
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return True

    monkeypatch.setattr(gel.graphs, "_independent_set",
                        lambda g, v, s: np.empty(0, dtype=np.int64))
    monkeypatch.setattr(gel.graphs, "_schur_block_rows", dense)
    monkeypatch.setattr(gel.graphs, "_factor_block_rows", factored)


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


# --- the independent set the certificate eliminates --------------------------

def _eligible(g, v, s):
    """The oracle of the set's rule: s > 0 and, from the dense A_hat,
    ``s^2 >= sum_a w_ai^2 + c |V_i|^2``, and ``d_i^2 <= n``."""
    squares = (normalized_adjacency(g) ** 2).sum(axis=0) + gel.graphs._LIFT * (v * v).sum(axis=1)
    return (s > 0) & (squares <= s * s) & (degree_vector(g) ** 2 <= g.n)


@settings(deadline=None)
@given(connected_edge_lists(), st.floats(-0.5, 2.0), st.integers(0, 2**32 - 1))
def test_the_independent_set_is_maximal_among_the_eligible_nodes(case, s, seed):
    g = Graph(*case)
    v = np.random.default_rng(seed).standard_normal((g.n, 1)) / np.sqrt(2 * g.n)
    held = gel.graphs._independent_set(g, v, s)
    chosen = np.zeros(g.n, dtype=bool)
    chosen[held] = True
    eligible = _eligible(g, v, s)
    assert np.array_equal(held, np.sort(held)) and np.all(eligible[held])
    a = adjacency_matrix(g) > 0
    assert not (a & chosen[:, None] & chosen[None, :]).any()  # independent
    assert np.all(chosen | ~eligible | (a & chosen[None, :]).any(axis=1))  # maximal
    # the same graph, however its edges were given, gives the same set
    shuffled = Graph(g.n, np.random.default_rng(seed).permutation(g.edges[:, ::-1]))
    assert np.array_equal(gel.graphs._independent_set(shuffled, v, s), held)


def test_the_independent_set_takes_no_python_loop_over_nodes():
    g = path(100_000)
    v = np.zeros((g.n, 1))
    code, lines = gel.graphs._independent_set.__code__, [0]

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None

        def count(frame, event, arg):
            lines[0] += event == "line"
            return count

        return count

    sys.settrace(tracer)
    try:
        held = gel.graphs._independent_set(g, v, 1.0)
    finally:
        sys.settrace(None)
    assert held.size >= g.n // 3  # a maximal independent set of a path
    assert lines[0] < 1000


def _recorded_sets(monkeypatch):
    """The ``(eligible by the oracle, set)`` of each independent set the
    certificate draws from here on, with both spectrum caches emptied."""
    drawn, independent_set = [], gel.graphs._independent_set

    def recorded(g, v, s):
        held = independent_set(g, v, s)
        drawn.append((_eligible(g, v, s), held))
        return held

    monkeypatch.setattr(gel.graphs, "_independent_set", recorded)
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    return drawn


@pytest.mark.parametrize("a, b", [(300, 300), (3, 60)])
def test_the_independent_set_is_empty_at_the_top_of_complete_bipartite(monkeypatch, a, b):
    g = complete_bipartite(a, b)
    drawn = _recorded_sets(monkeypatch)
    assert extreme_spectrum(g).certified
    # the top's pivot s is within rounding of 0: no node keeps growth bounded,
    # not even the degree-3 nodes of K_{3,60}, whose fill alone would allow them
    ((eligible, held),) = drawn
    assert not eligible.any() and held.size == 0
    assert (degree_vector(g) ** 2 <= g.n).any() == (a == 3)


def test_the_independent_set_holds_a_third_of_erdos_renyi_at_either_end(monkeypatch):
    g = erdos_renyi(2000, 0.004, 7)
    drawn = _recorded_sets(monkeypatch)
    ends = extreme_spectrum(g)
    assert ends.certified and ends.lambda_2 > 0
    assert len(drawn) == 2  # the top end, then lambda_2's
    for eligible, held in drawn:
        assert eligible.all()  # s is about 0.65, each sum_a w_ai^2 at most 0.24
        assert 0.25 * g.n < held.size < 0.35 * g.n


# --- soundness of the certificate -------------------------------------------

@pytest.mark.parametrize("eliminate", [True, False], ids=["eliminating", "not-eliminating"])
@pytest.mark.parametrize("side", [1, -1], ids=["top", "bottom"])
@pytest.mark.parametrize(
    "g", [erdos_renyi(400, 0.02, 7), erdos_renyi(1200, 0.01, 3), complete_bipartite(_B, 2 * _B)],
    ids=["er400", "er1200", "kB_2B"],
)
def test_the_certificate_fails_past_the_next_eigenvalue(monkeypatch, g, side, eliminate):
    lam, vectors = np.linalg.eigh(normalized_laplacian(g))
    # the end's simple eigenvalue, and the next one inward
    v, following = (vectors[:, -1:], lam[-2]) if side > 0 else (vectors[:, :1], lam[1])
    sizes, independent_set = [], gel.graphs._independent_set

    def drawn(g, v, s):
        held = independent_set(g, v, s) if eliminate else np.empty(0, dtype=np.int64)
        sizes.append(held.size)
        return held

    monkeypatch.setattr(gel.graphs, "_independent_set", drawn)
    # 1e-6 short of the next eigenvalue, at most k = 1 eigenvalue lies beyond
    sigma = following + side * 1e-6
    past = gel.graphs._proved_past(g, v, sigma, side)
    # proved a rounding margin past sigma
    assert past is not None and 0 < side * (past - sigma) < 1e-6
    # 1e-6 past it, the next eigenvalue lies beyond too: the count must fail
    assert gel.graphs._proved_past(g, v, following - side * 1e-6, side) is None
    # K_{a,b} eliminates nothing at either end, an Erdos-Renyi graph a third
    assert all((size > 0) == (eliminate and g.n != 3 * _B) for size in sizes)


def _ldl_trace(b):
    """``trace(|L| |D| |L^T|)`` of the ``L D L^T`` factorization of ``b``
    without pivoting, by elimination one row at a time."""
    b, total = b.copy(), 0.0
    for j in range(b.shape[0]):
        pivot, column = b[j, j], b[j + 1:, j] / b[j, j]
        total += abs(pivot) * (1.0 + float(column @ column))
        b[j + 1:, j + 1:] -= np.outer(column, b[j, j + 1:])
    return total


@settings(deadline=None)
@given(connected_edge_lists(max_nodes=40), st.sampled_from([1, -1]))
def test_the_margin_covers_the_backward_error_of_the_factorization(case, side):
    g = Graph(*case)
    lam, vectors = np.linalg.eigh(normalized_laplacian(g))
    # a simple end, and sigma halfway to the next eigenvalue
    end, following = (-1, -2) if side > 0 else (0, 1)
    assume(abs(lam[end] - lam[following]) > 1e-6)
    v, sigma = vectors[:, [end]], (lam[end] + lam[following]) / 2
    past = gel.graphs._proved_past(g, v, sigma, side)
    assert past is not None
    delta = side * (past - sigma) / 2
    assert delta > 0
    # the bordered matrix at the factored point, in the order I, border, R
    s = side * (sigma + side * delta - 1.0)
    held = gel.graphs._independent_set(g, v, side * (sigma - 1.0))
    inside = np.zeros(g.n, dtype=bool)
    inside[held] = True
    order = np.concatenate((held, [g.n], np.flatnonzero(~inside)))
    c = gel.graphs._LIFT
    b = np.zeros((g.n + 1, g.n + 1))
    b[:g.n, :g.n] = s * np.eye(g.n) + side * normalized_adjacency(g)
    b[:g.n, g.n] = b[g.n, :g.n] = np.sqrt(c) * v[:, 0]
    b[g.n, g.n] = -1.0
    # Higham's Thm 9.3 bounds the backward error by gamma_N |L| |D| |L^T|
    u = np.finfo(float).eps / 2
    gamma = (g.n + 1) * u / (1 - (g.n + 1) * u)
    assert gamma * _ldl_trace(b[np.ix_(order, order)]) <= delta


@settings(deadline=None)
@given(connected_edge_lists(max_nodes=40))
def test_a_certified_end_holds_against_the_dense_spectrum(case):
    g = Graph(*case)
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    ends = extreme_spectrum(g)
    assume(ends.certified)
    lam = np.linalg.eigvalsh(normalized_laplacian(g))
    rho = gel.graphs.SPECTRAL_TOL  # every certified pair's residual bound is below it
    top, bottom = ends.top.eigenvalues, ends.bottom.eigenvalues
    # the clusters are complete: every other eigenvalue lies at or inside the next ones
    assert np.abs(lam[-top.size:] - top).max() <= rho
    assert np.abs(lam[:bottom.size] - bottom).max() <= rho
    assert abs(lam[-top.size - 1] - ends.below_top) <= rho
    assert abs(lam[bottom.size] - ends.lambda_2) <= rho


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


@pytest.mark.parametrize("argv", [["suite"], ["replay", "22_rate_certified_er9.txt"]])
def test_suite_and_replay_do_not_import_numpy_random(argv):
    # they draw no random numbers; numpy.random also loads OpenSSL through
    # secrets and hashlib, 4 MB of a suite's peak RSS
    witnesses = os.path.join(os.path.dirname(os.path.abspath(gel.graphs.__file__)), "suite")
    code = (
        "import sys\n"
        "from gel.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    assert _python(code, cwd=witnesses) == "0 False"
