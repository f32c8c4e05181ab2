"""Undirected graphs, their normalized operators, and their spectra.

A :class:`Graph` is its node count and its edge array: it canonicalizes
its edges once, in bulk, into ``Graph.edges``, a read-only, sorted int64
``(m, 2)`` array of ``(lo, hi)`` pairs with ``lo < hi``.  Equality and the
hash read that array; the generators emit such arrays, and everything else
here that needs the edges reads it with numpy rather than walking the edges
in Python.  Edge-list files and the graph blocks of witnesses are read by
one line parser.  ``graph_checks`` counts connected components by label
propagation, on the graph and on its bipartite double cover.

The public operators are dense numpy arrays, scattered from the edge array,
for what needs the whole matrix: the full decomposition and the Kronecker
assemblies of ``verify``.  What only multiplies by A_hat (each dynamics step
and the energies) calls ``_adjacency_product``, which sums over a cached
row-sorted (CSR) neighbour index on a sparse graph and multiplies by the
dense matrix, built only then, on a dense one.  ``laplacian_spectrum`` is the
full, checked ``numpy.linalg.eigh`` of the normalized Laplacian.
``extreme_spectrum`` gives only its two ends, the eigenpairs at 0 and at
lambda_max and the next eigenvalue inward from each, from a Lanczos
iteration on the same edge sum.  Residual bounds and a dense Cholesky
factorization, in place in one n x n array, certify that no eigenvalue was
missed at the top; lambda_2 is certified the same way, in a new array, only
when something reads it, and 0 needs no certificate on a connected graph.
A failed certificate falls back to the full decomposition.  A
dense site, or a generated edge set, that would not fit in the machine's
physical memory is refused with a ``NumericError`` before it is allocated.

Operators and spectra are cached per graph, so ``Graph`` is immutable and
hashable (the hash is computed once, so a cache lookup costs O(1), not
O(m)); cached arrays are returned read-only, and each cache of n x n
results keeps only the last few graphs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError, ParseError, ValidationError

__all__ = [
    "Graph",
    "SpectralPair",
    "SpectrumEnds",
    "GraphChecks",
    "from_edge_list",
    "complete_bipartite",
    "cycle",
    "path",
    "erdos_renyi",
    "adjacency_matrix",
    "degree_vector",
    "normalized_adjacency",
    "normalized_laplacian",
    "spectral_decomposition",
    "laplacian_spectrum",
    "extreme_spectrum",
    "graph_checks",
]

#: Entrywise tolerance beyond which a matrix is considered genuinely asymmetric.
SYMMETRY_TOL = 1e-12

#: Orthonormality / reconstruction tolerance for eigendecompositions.
SPECTRAL_TOL = 1e-10

#: Eigenvalues closer than this are treated as tied (degenerate).
TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n : int
        Number of nodes (positive).
    edges : iterable of (int, int), or an (m, 2) integer array
        Undirected edges.  Node ids must be whole numbers (``1.0`` is node
        1).  Pairs are canonicalized to ``u < v``, duplicates collapse, and
        self-loops are rejected.  ``edges`` becomes the read-only int64
        ``(m, 2)`` array of the ``(u, v)`` pairs in sorted order; equality
        and the hash read ``(n, edges)``.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        n = check_count(self.n, "node count", 1)
        if n > _MAX_NODES:  # the sort key lo * n + hi must fit in int64
            raise ValidationError(f"node count must be at most {_MAX_NODES}, got {n}")
        arr = _canonical_edges(n, _pair_rows(n, self.edges))
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", arr)
        object.__setattr__(self, "_hash", hash((n, arr.tobytes())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def __repr__(self) -> str:  # keep reprs short; edge lists can be long
        return f"Graph(n={self.n}, m={self.num_edges})"


#: Largest node count whose edge keys ``lo * n + hi`` fit in int64.
_MAX_NODES = math.isqrt(int(np.iinfo(np.int64).max))


def _pair_rows(n: int, edges) -> np.ndarray:
    """The edges as an int64 ``(m, 2)`` array in input order.

    Raises a validation error for the first pair, in input order, that is
    not a pair of whole-number node ids, is a self-loop, or leaves
    ``0 .. n-1``.
    """
    if not isinstance(edges, (np.ndarray, tuple, list)):
        edges = tuple(edges)
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    try:
        rows = np.asarray(edges)
    except ValueError:  # ragged: some entry is not a pair
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != 2 or rows.dtype.kind not in "biuf":
        return _rows_one_by_one(n, edges)
    if rows.dtype.kind == "f":
        fractional = ~np.all(np.isfinite(rows) & (np.floor(rows) == rows), axis=1)
    else:
        fractional = np.zeros(rows.shape[0], dtype=bool)
    u, v = rows[:, 0], rows[:, 1]
    loop = u == v
    outside = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    bad = fractional | loop | outside
    if bad.any():
        i = int(np.argmax(bad))
        if fractional[i]:
            pair = tuple(rows[i].tolist()) if isinstance(edges, np.ndarray) else edges[i]
            raise ValidationError(f"edge {pair!r} has a node id that is not a whole number")
        a, b = (int(x) for x in rows[i].tolist())
        if loop[i]:
            raise ValidationError(f"self-loop at node {a} is not allowed")
        raise ValidationError(f"edge ({a}, {b}) references a node outside 0..{n - 1}")
    return rows.astype(np.int64, copy=False)


def _rows_one_by_one(n: int, edges) -> np.ndarray:
    """``_pair_rows`` for input numpy cannot read as one numeric ``(m, 2)``
    array (a malformed pair, a node id that is not a number, or an int
    beyond int64): reads and checks the pairs one at a time, so the first
    bad one raises."""
    rows = []
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValidationError(f"edge {pair!r} is not a pair of nodes") from None
        u, v = _node_id(u), _node_id(v)
        if u is None or v is None:
            raise ValidationError(f"edge {pair!r} has a node id that is not a whole number")
        if u == v:
            raise ValidationError(f"self-loop at node {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
        rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _node_id(x) -> int | None:
    """``x`` as an int if it is a whole number, else None."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)) and math.isfinite(x) and float(x).is_integer():
        return int(x)
    return None


def _canonical_edges(n: int, rows: np.ndarray) -> np.ndarray:
    """Validated pairs as sorted, duplicate-free ``(lo, hi)`` rows with
    ``lo < hi``.  Input whose keys already strictly increase, as every
    generator's do, is not sorted."""
    lo = np.minimum(rows[:, 0], rows[:, 1])
    hi = np.maximum(rows[:, 0], rows[:, 1])
    key = lo * n + hi
    if not (key[1:] > key[:-1]).all():
        # not np.unique: its first call imports numpy.ma, tens of ms of start-up
        key = np.sort(key)
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        lo, hi = np.divmod(key, n)
    return np.stack((lo, hi), axis=1)


@dataclass(frozen=True)
class SpectralPair:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.  Signs are fixed so
    the largest-magnitude entry of each eigenvector is positive (ties broken
    by lowest index), which makes decompositions reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectrumEnds:
    """Both ends of a normalized Laplacian's spectrum.

    ``bottom`` holds the eigenvalues within ``TIE_TOL`` of the smallest one
    (just 0, with eigenvector ``sqrt(deg) / |sqrt(deg)|``, on a connected
    graph) and an orthonormal basis of their eigenvectors; ``top`` the same
    at lambda_max.  ``lambda_2`` is the smallest eigenvalue above the bottom
    cluster and ``below_top`` the largest below the top cluster; when no
    eigenvalue lies between the clusters, lambda_2 belongs to the top one and
    below_top to the bottom one.  ``certified`` is False when the ends were
    read off ``laplacian_spectrum``; a lambda_2 whose own certificate fails
    is read off it too, and leaves ``certified`` as it was.

    ``lambda_2`` is found on its first read, by ``find_lambda_2``, and kept,
    so ``extreme_spectrum`` certifies it only when something reads it (the
    profile of a flow whose bottom modes may dominate, not lambda_max or
    the HFD rates).
    """

    bottom: SpectralPair
    top: SpectralPair
    below_top: float
    certified: bool
    find_lambda_2: Callable[[], float] = field(repr=False)

    @cached_property
    def lambda_2(self) -> float:
        return self.find_lambda_2()

    @property
    def lambda_max(self) -> float:
        return float(self.top.eigenvalues[-1])

    @property
    def interior(self) -> np.ndarray:
        """The ends of the interval holding every eigenvalue between the two
        clusters, or no values when there is none."""
        if self.lambda_2 > self.below_top:
            return np.empty(0)
        return np.array([self.lambda_2, self.below_top])


class GraphChecks(NamedTuple):
    connected: bool
    bipartite: bool


# ---------------------------------------------------------------------------
# construction from text
# ---------------------------------------------------------------------------

def from_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a :class:`Graph`.

    Format: one ``u v`` pair per line, ``#`` starts a comment, blank lines are
    skipped, and an optional ``n <count>`` header line, before all edges,
    fixes the node count (otherwise it is ``max index + 1``).  A header with
    no edges gives an edgeless graph; a document with neither is a parse
    error.  Errors carry 1-based line numbers.
    """
    return _parse_edge_lines(enumerate(text.splitlines(), start=1))


def _parse_edge_lines(numbered_lines) -> Graph:
    """The graph of an edge-list body given as ``(line number, text)`` pairs
    (the format of :func:`from_edge_list`); errors name those line numbers."""
    n_declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_node = -1
    for lineno, raw in numbered_lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if edges:
                raise ParseError(f"line {lineno}: header 'n' must precede all edges")
            if n_declared is not None:
                raise ParseError(f"line {lineno}: duplicate 'n' header")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: header must be 'n <count>'")
            try:
                n_declared = int(tokens[1])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: node count {tokens[1]!r} is not an integer"
                ) from None
            if n_declared < 1:
                raise ValidationError(f"line {lineno}: node count must be positive")
            continue
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected 'u v', got {len(tokens)} token(s) in {line!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise ValidationError(f"line {lineno}: negative node id in {line!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop {u} {v} is not allowed")
        if n_declared is not None and (u >= n_declared or v >= n_declared):
            raise ValidationError(
                f"line {lineno}: node id exceeds declared count n={n_declared}"
            )
        edges.append((u, v))
        max_node = max(max_node, u, v)
    if n_declared is None and not edges:
        raise ParseError("edge list is empty: no 'n' header and no 'u v' lines found")
    return Graph(n=max_node + 1 if n_declared is None else n_declared, edges=edges)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}: part A = 0..a-1, part B = a..a+b-1."""
    a = check_count(a, "complete_bipartite's a", 1)
    b = check_count(b, "complete_bipartite's b", 1)
    _require_edges(a * b, f"complete_bipartite({a}, {b})")
    lo = np.repeat(np.arange(a), b)
    hi = np.tile(np.arange(a, a + b), a)
    return Graph(n=a + b, edges=np.stack((lo, hi), axis=1))


def cycle(n: int) -> Graph:
    """Cycle graph C_n (requires n >= 3)."""
    n = check_count(n, "cycle's n", 3)
    _require_edges(n, f"cycle({n})")
    # the path's edges with (0, n-1) second, which keeps the rows sorted
    lo = np.concatenate(([0], np.arange(n - 1)))
    hi = np.concatenate(([1, n - 1], np.arange(2, n)))
    return Graph(n=n, edges=np.stack((lo, hi), axis=1))


def path(n: int) -> Graph:
    """Path graph P_n (requires n >= 2)."""
    n = check_count(n, "path's n", 2)
    _require_edges(n - 1, f"path({n})")
    lo = np.arange(n - 1)
    return Graph(n=n, edges=np.stack((lo, lo + 1), axis=1))


#: Candidate pairs ``erdos_renyi`` draws at a time: 512 KB of draws.  Median
#: ms over 10 seeds by chunk size, on a 2-vCPU Xeon (numpy 2.4.6), against
#: 25 ms for one draw of every pair at n = 2000:
#:
#: ======================  =====  =====  =====  =====  =====
#: chunk                   2^12   2^14   2^16   2^18   2^20
#: ======================  =====  =====  =====  =====  =====
#: ER n=2000, p=0.004      13.8   11.6   11.4   12.1   11.8
#: ER n=6000, p=0.0015     126    105    100    103    98
#: ======================  =====  =====  =====  =====  =====
_PAIR_CHUNK = 1 << 16


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Connected Erdos-Renyi graph G(n, p).

    Samples each of the n(n-1)/2 possible edges independently with
    probability ``p``: the pairs ``(i, j)``, ``i < j``, in row-major order
    take the draws of ``numpy.random.default_rng(seed).random`` in turn, and
    a draw below ``p`` keeps its pair.  The draws are taken ``_PAIR_CHUNK``
    at a time, which gives the same stream as one draw of every pair, so
    memory is O(n + m) beyond the chunk.  If the draw is disconnected the
    seed is incremented and the draw repeated, up to 100 attempts.
    """
    n = check_count(n, "erdos_renyi's n", 2)
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"edge probability must be in (0, 1], got {p!r}")
    seed = check_count(seed, "erdos_renyi seed")
    pairs = n * (n - 1) // 2
    # 25 bytes a pair is what one draw of every pair held; the chunked draw
    # holds O(n + m), but its time still grows with the n^2 / 2 pairs
    _require_memory(25 * pairs, f"the {pairs} candidate pairs of erdos_renyi({n}, ...)")
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2  # flat position of pair (i, i + 1)
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        hits = np.concatenate([
            np.flatnonzero(rng.random(min(_PAIR_CHUNK, pairs - first)) < p) + first
            for first in range(0, pairs, _PAIR_CHUNK)
        ])
        i = np.searchsorted(starts, hits, side="right") - 1
        g = Graph(n=n, edges=np.stack((i, hits - starts[i] + i + 1), axis=1))
        if graph_checks(g).connected:
            return g
    raise ValidationError(
        f"could not generate a connected graph in 100 attempts "
        f"(n={n}, p={p}, base seed {seed})"
    )


def check_count(value, what: str, least: int = 0) -> int:
    """``value`` as an int if it is an integer (not a bool) of at least
    ``least``, as node, step and seed counts must be; anything else is a
    ``ValidationError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}"
        )
        raise ValidationError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare with
        return math.inf


#: Bytes per edge at the peak of building a generated graph: the generator's
#: index arrays and ``Graph``'s canonical copy (tracemalloc at m = 10^6:
#: cycle 72, path 64, K_{1000,1000} 72).
_EDGE_BYTES = 72


def _require_edges(m: int, what: str) -> None:
    """``_require_memory`` for a generator that builds ``m`` edges."""
    _require_memory(_EDGE_BYTES * m, f"the {m} edges of {what}")


def _require_dense(n: int, arrays: int, what: str) -> None:
    """``_require_memory`` for ``arrays`` dense n x n float arrays at once."""
    matrices = "matrix" if arrays == 1 else "matrices"
    _require_memory(arrays * 8 * n * n, f"{what}'s {arrays} dense {n} x {n} {matrices}")


def _require_memory(nbytes: int, what: str) -> None:
    """Raise a ``NumericError`` naming ``what`` when it needs more bytes than
    the machine's physical memory, before anything is allocated."""
    if nbytes > _physical_memory():
        raise NumericError(
            f"{what} needs {nbytes / 2**30:.3g} GiB, more than the "
            f"{_physical_memory() / 2**30:.3g} GiB of physical memory"
        )


# ---------------------------------------------------------------------------
# dense operators
# ---------------------------------------------------------------------------

def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix of ``g`` (a new array on every call)."""
    return _scatter(g, 1.0)


def _scatter(g: Graph, weights) -> np.ndarray:
    """A new symmetric n x n matrix with ``weights`` (one per edge, or one
    for all) at both ``(u, v)`` and ``(v, u)`` of each edge, zero elsewhere."""
    _require_memory(8 * g.n * g.n, f"a dense {g.n} x {g.n} matrix")
    out = np.zeros((g.n, g.n))
    u, v = g.edges[:, 0], g.edges[:, 1]
    out[u, v] = weights
    out[v, u] = weights
    return out


#: Entries kept by each per-graph cache in this module: a session that loops
#: over many graphs holds at most this many results of each, and each entry
#: pins its ``Graph`` key with the key's edge array.  Run on emptied caches,
#: the suite's 45 checks, on 32 graphs of at most 12 nodes, miss 148 times in
#: all against 126 with 512 entries, each miss a result for a graph of at
#: most 12 nodes.
_CACHE_ENTRIES = 4


@lru_cache(maxsize=_CACHE_ENTRIES)
def degree_vector(g: Graph) -> np.ndarray:
    d = np.bincount(g.edges.ravel(), minlength=g.n).astype(float)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=_CACHE_ENTRIES)
def normalized_adjacency(g: Graph) -> np.ndarray:
    """Degree-normalized adjacency D^{-1/2} A D^{-1/2} (read-only).

    Raises a validation error naming the first isolated node, since the
    normalization divides by sqrt(degree).
    """
    bar_a = _scatter(g, _edge_weights(g))
    bar_a.setflags(write=False)
    return bar_a


def _edge_weights(g: Graph) -> np.ndarray:
    """The entry ``1 / sqrt(deg_u deg_v)`` of D^{-1/2} A D^{-1/2} for each edge;
    an isolated node is a validation error."""
    inv_sqrt = _inv_sqrt_degree(g)
    return inv_sqrt[g.edges[:, 0]] * inv_sqrt[g.edges[:, 1]]


def _inv_sqrt_degree(g: Graph) -> np.ndarray:
    """``1 / sqrt(deg)``; an isolated node is a validation error naming the
    smallest one, since the normalized operators divide by it.  More nodes
    than edge ends, ``n > 2 m``, leave one isolated: it is then found among
    the sorted ends, in O(m log m), before any O(n) array is built."""
    if g.n > 2 * g.num_edges:
        ends = np.sort(g.edges, axis=None)
        ends = ends[np.diff(ends, prepend=-1) != 0]
        # the distinct ends are 0, 1, ... up to the first missing node
        isolated = np.append(np.flatnonzero(ends != np.arange(ends.size)), ends.size)
    else:
        isolated = np.flatnonzero(degree_vector(g) == 0)
    if isolated.size:
        raise ValidationError(
            f"node {int(isolated[0])} is isolated (degree 0); "
            "normalized operators require minimum degree 1"
        )
    return 1.0 / np.sqrt(degree_vector(g))


def _adjacency_product(g: Graph, F: np.ndarray) -> np.ndarray:
    """``A_hat F`` for a 1-D or ``(n, d)`` array F.

    It reads one of two forms, by a fixed rule on what the product reads:
    the edge form (``_edge_product``) when ``2 m d < n^2 / 8``, with d the
    width of F (1 for a 1-D F), and the dense ``normalized_adjacency(g) @ F``
    otherwise.  The rule's d matters: the edge form gathers one row of d
    floats per directed edge, in O(m d), against one BLAS pass over the n^2
    matrix, in O(n^2 d).  The dense matrix is built only when the rule
    first picks it.

    Median milliseconds over 40 calls, dense / edge, on a 2-vCPU Xeon
    (numpy 2.4.6 with OpenBLAS, 2 threads); * marks the rule's pick:

    ==================  ================  ================
    graph (2m / n^2)    d = 1             d = 8
    ==================  ================  ================
    ER n=2000 (1/250)   0.89 / 0.09 *     2.6 / 0.54 *
    ER n=1000 (1/127)   0.21 / 0.04 *     0.78 / 0.24 *
    ER n=2000 (1/31)    0.75 / 0.30 *     2.7 * / 3.9
    ER n=2000 (1/16)    0.75 / 0.54 *     2.7 * / 7.2
    ER n=4000 (1/16)    3.3 / 1.9 *       15 * / 43
    K_{300,300} (1/2)   0.13 * / 0.35     0.22 * / 5.3
    ER n=200 (1/15)     0.009 / 0.016 *   0.022 * / 0.065
    ==================  ================  ================

    The one loss, n = 200 at d = 1, is 7 microseconds a call.  The two
    forms sum in different orders, so they agree to roundoff, not bit for
    bit.  An isolated node is a validation error.
    """
    width = 1 if F.ndim == 1 else F.shape[1]
    if 16 * g.num_edges * width < g.n * g.n:
        return _edge_product(g)(F)
    return normalized_adjacency(g) @ F


@lru_cache(maxsize=_CACHE_ENTRIES)
def _edge_product(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``F -> A_hat F`` as a sum over the edges, for a 1-D or
    ``(n, d)`` array F: the rows of ``F / sqrt(deg)`` are gathered along a
    row-sorted (CSR) neighbour index, each edge once in each direction, each
    row's run is summed with ``np.add.reduceat`` and the sums are scaled by
    ``1 / sqrt(deg)``.  O(m d) time and O(m) memory, never n^2.  An isolated
    node is a validation error."""
    inv_sqrt = _inv_sqrt_degree(g)
    u, v = g.edges[:, 0], g.edges[:, 1]
    # each edge in both directions, grouped by row; as g.edges is sorted, the
    # stable sort leaves every row's neighbours ascending
    order = np.argsort(np.concatenate((v, u)), kind="stable")
    cols = np.concatenate((u, v))[order]
    starts = np.concatenate(([0], np.cumsum(degree_vector(g).astype(np.int64))[:-1]))

    def product(F: np.ndarray) -> np.ndarray:
        scale = inv_sqrt if F.ndim == 1 else inv_sqrt[:, None]
        # every row is nonempty (no isolated node), as reduceat needs
        return scale * np.add.reduceat(np.take(F * scale, cols, axis=0), starts, axis=0)

    return product


@lru_cache(maxsize=_CACHE_ENTRIES)
def normalized_laplacian(g: Graph) -> np.ndarray:
    """Normalized Laplacian I - D^{-1/2} A D^{-1/2} (read-only)."""
    lap = _laplacian(g)
    lap.setflags(write=False)
    return lap


def _laplacian(g: Graph) -> np.ndarray:
    """A new array holding the normalized Laplacian, exactly symmetric, the
    same bits as ``I - normalized_adjacency(g)``."""
    lap = _scatter(g, -_edge_weights(g))
    lap.flat[:: g.n + 1] = 1.0
    return lap


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def square_matrix(value, name: str, d=None, symmetric=False) -> np.ndarray:
    """Validate a nonempty, finite, square float matrix (``d x d`` if given);
    ``symmetric`` rejects asymmetry above SYMMETRY_TOL * max(1, max |M|),
    measured on the halves ``M / 2`` so that it cannot overflow, and
    returns ``(M + M^T) / 2``.  The result never shares memory with
    ``value``, so callers may freeze it without freezing the caller's array."""
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"{name} must be a nonempty square matrix, got {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ValidationError(f"{name} must be {d}x{d}, got {m.shape[0]}x{m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    if not symmetric:
        return m.copy()
    scale = max(1.0, float(np.abs(m).max()))
    half = 0.5 * m  # halving first: M - M^T overflows for entries above ~9e307
    asym = float(np.abs(half - half.T).max())
    if asym > 0.5 * SYMMETRY_TOL * scale:
        raise ValidationError(
            f"{name} must be symmetric within {SYMMETRY_TOL:g} "
            f"(max |M - M^T| / 2 = {asym:.3e}); use make_weights('symmetrize', ...) "
            "to symmetrize intentionally"
        )
    return half + half.T


def spectral_decomposition(matrix: np.ndarray) -> SpectralPair:
    """Eigendecomposition of a symmetric matrix with deterministic signs.

    The input is checked and symmetrized by :func:`square_matrix`.  The
    returned eigenvector signs follow the largest-magnitude-entry-positive
    convention, ties broken by lowest index.
    """
    return _checked_eigh(square_matrix(matrix, "matrix", symmetric=True))


#: Rows (or columns) per block of the dense passes over n x n arrays: the
#: blocked Cholesky of ``_cholesky_in_place`` and the checks of
#: ``_checked_eigh`` hold O(n * _BLOCK) temporaries beside their n x n
#: arrays.  128 is the smallest block whose factorization keeps up with
#: LAPACK's own.  Median ms of 21 factorizations of a random SPD matrix, the
#: range over two runs, on a 2-vCPU Xeon (numpy 2.4.6 with OpenBLAS, 2
#: threads):
#:
#: ======  ===================  =======  =======  =======  =======
#: n       np.linalg.cholesky   128      160      192      256
#: ======  ===================  =======  =======  =======  =======
#: 600     8                    8        8-9      9-10     9-10
#: 1000    23-25                26       23-45    24-34    24-26
#: 2000    126-139              125-153  124-126  111-121  121-132
#: ======  ===================  =======  =======  =======  =======
_BLOCK = 128


def _checked_eigh(sym: np.ndarray) -> SpectralPair:
    """``numpy.linalg.eigh`` of the exactly symmetric ``sym``, signs fixed,
    after an orthonormality check of the eigenvectors and a reconstruction
    check against ``sym``.  Both checks run in row blocks of ``_BLOCK``, so
    beside ``sym`` and the eigenvectors they hold O(n * _BLOCK)."""
    n = sym.shape[0]
    values, vectors = np.linalg.eigh(sym)
    _fix_eigenvector_signs(vectors)

    worst = 0.0
    for first in range(0, n, _BLOCK):
        ident = vectors[:, first:first + _BLOCK].T @ vectors  # rows of V^T V
        diag = np.arange(ident.shape[0])
        ident[diag, first + diag] -= 1.0
        worst = max(worst, float(np.abs(ident).max()))
    if worst > SPECTRAL_TOL:
        raise NumericError("eigenvector matrix failed the orthonormality check")
    if not np.all(np.isfinite(values)):
        raise NumericError("an eigenvalue exceeds the floating range")
    # |V diag(values) V^T - sym| vs |sym| = |values|, over max |sym| to stay finite
    scale = max(float(sym.max()), -float(sym.min())) or 1.0
    squares = 0.0
    for first in range(0, n, _BLOCK):
        residual = (vectors[first:first + _BLOCK] * values) @ vectors.T
        residual -= sym[first:first + _BLOCK]
        residual /= scale
        squares += float(np.vdot(residual, residual))
    norm = float(np.linalg.norm(values / scale))
    if math.sqrt(squares) > SPECTRAL_TOL * norm:
        raise NumericError("eigendecomposition failed the reconstruction check")

    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralPair(eigenvalues=values, eigenvectors=vectors)


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose largest-magnitude entry (lowest
    index on ties) is negative; returns ``vectors``."""
    for first in range(0, vectors.shape[1], _BLOCK):
        block = vectors[:, first:first + _BLOCK]
        pivots = np.argmax(np.abs(block), axis=0)  # argmax takes the lowest index on ties
        block *= np.where(block[pivots, np.arange(block.shape[1])] < 0, -1.0, 1.0)
    return vectors


#: n x n arrays alive at once at the peak of each dense spectrum site, as the
#: process's resident set counts them: the certificate's one matrix, factored
#: in place; and the full decomposition's Laplacian beside ``eigh``'s copy of
#: it, LAPACK's workspace and the eigenvectors (5.1 * 8 n^2 above the start
#: on cycle(2000), of which ``eigh`` alone takes 4.1; tracemalloc, which does
#: not see LAPACK's buffers, counts 2.5 on cycle(800)).
_CERTIFICATE_ARRAYS = 1
_DECOMPOSITION_ARRAYS = 5


@lru_cache(maxsize=_CACHE_ENTRIES)
def laplacian_spectrum(g: Graph) -> SpectralPair:
    """Cached spectral decomposition of the normalized Laplacian of ``g``."""
    _require_dense(g.n, _DECOMPOSITION_ARRAYS, "the full decomposition")
    # exactly symmetric, so square_matrix's symmetrizing copies would return
    # the same bits
    return _checked_eigh(_laplacian(g))


#: Lanczos steps before the iteration gives up and the full decomposition
#: runs: 400 steps that do not converge on cycle(1001) cost about as much
#: as its full decomposition.
_LANCZOS_STEPS = 400

#: Residual norm at which a Ritz pair counts as converged.
_RESIDUAL_TOL = 1e-12


@lru_cache(maxsize=_CACHE_ENTRIES)
def extreme_spectrum(g: Graph) -> SpectrumEnds:
    """Both ends of the normalized Laplacian's spectrum, certified, without
    a full decomposition (see :class:`SpectrumEnds`).

    On a connected graph the kernel vector ``phi0 = sqrt(deg) / |sqrt(deg)|``
    is known, and on a connected bipartite one so is lambda_max = 2, whose
    vector is phi0 with its sign flipped on one colour class.  A Lanczos
    iteration with full reorthogonalization on the complement of these finds
    the rest of both ends from a fixed start vector.  It stops once their
    residual estimates fall below ``_RESIDUAL_TOL`` or the Krylov space is
    invariant.  The top end is then certified in two steps, and so is the
    bottom end when ``lambda_2`` is first read:

    - The pairs of the end's cluster and of the next eigenvalue inward have
      residuals R.  As many eigenvalues lie within ``rho = sqrt(2) |R|_F``
      of their values (Kahan's theorem; Parlett, *The Symmetric Eigenvalue
      Problem*, 11.5).
    - A dense Cholesky factorization of ``sigma I - L + c V V^T`` (top end;
      ``L - sigma I + c V V^T`` at the bottom), with V the cluster's vectors
      and sigma just past the next eigenvalue, proves by Weyl's interlacing
      that at most ``rank V`` eigenvalues lie beyond sigma.  sigma is shifted
      by a bound on the factorization's rounding error, which holds for the
      blocked factorization run here (Higham 2002, Thm 10.3).  Each end
      forms and factors its matrix in place in its own n x n array, freed
      on return: the certificate holds that array and O(n * _BLOCK) beside
      it, and the bottom end's runs after the top end's array is freed.

    Together the two steps show that each cluster is complete and that no
    eigenvalue lies between it and the next one.  The bottom cluster is 0
    alone, exactly, as the graph is connected, unless a Ritz value lies
    within ``TIE_TOL`` of 0; then the bottom end is certified at once.  A
    disconnected graph, an iteration that does not converge in
    ``_LANCZOS_STEPS`` steps or a failed top certificate gives the ends of
    ``laplacian_spectrum`` instead; a failed lambda_2 certificate gives its
    lambda_2.  A multiple lambda_max on a non-bipartite graph always fails:
    a single start vector sees one copy.
    """
    checks = graph_checks(g)
    if checks.connected:
        # before the Lanczos, which is wasted if the certificate cannot run
        _require_dense(g.n, _CERTIFICATE_ARRAYS, "the certificate")
        ends = _certified_ends(g, checks.bipartite)
        if ends is not None:
            return ends
    return _ends_of(laplacian_spectrum(g))


def _ends_of(pair: SpectralPair) -> SpectrumEnds:
    """The ends of a full decomposition, with the clusters of ``SpectrumEnds``."""
    lam, vectors = pair.eigenvalues, pair.eigenvectors
    low = lam <= lam[0] + TIE_TOL
    high = lam >= lam[-1] - TIE_TOL
    return SpectrumEnds(
        bottom=_frozen_pair(lam[low], vectors[:, low]),
        top=_frozen_pair(lam[high], vectors[:, high]),
        below_top=float(lam[~high][-1]),
        certified=False,
        find_lambda_2=lambda: float(lam[~low][0]),
    )


def _frozen_pair(values: np.ndarray, vectors: np.ndarray) -> SpectralPair:
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralPair(eigenvalues=values, eigenvectors=vectors)


def _certified_ends(g: Graph, bipartite: bool) -> SpectrumEnds | None:
    n = g.n
    # the edge form whatever the density: a dense A_hat built here would stay
    # cached through the n x n Cholesky factorizations below, one more n^2
    # array at the run's memory peak
    product = _edge_product(g)

    def lap(x: np.ndarray) -> np.ndarray:
        return x - product(x)

    sqrt_deg = np.sqrt(degree_vector(g))
    phi0 = sqrt_deg / np.linalg.norm(sqrt_deg)
    known_values, known = [0.0], [phi0]
    if bipartite:
        # nodes whose cover label is 0 share node 0's colour class
        known_values.append(2.0)
        known.append(np.where(_cover_labels(g)[:n] == 0, phi0, -phi0))
    found = _lanczos(lap, np.array(known_values), np.array(known))
    if found is None:
        return None
    top = _certified_end(g, lap, *found[1], side=1)
    if top is None:
        return None
    values, vectors = found[0]
    if values.size == 2:
        # 0 is a simple eigenvalue of a connected graph, so phi0 alone is the
        # bottom cluster, exactly; lambda_2 is certified on its first read,
        # in a new n x n array once the top's is freed
        def lambda_2() -> float:
            bottom = _certified_end(g, lap, values, vectors, side=-1)
            return bottom[1] if bottom is not None else _ends_of(laplacian_spectrum(g)).lambda_2

        bottom_pair = _frozen_pair(values[:1], vectors[:, :1].copy())
        return SpectrumEnds(bottom_pair, top[0], top[1], True, lambda_2)
    # a Ritz value within TIE_TOL of 0 joins the kernel's cluster, which only
    # the certificate can bound
    bottom = _certified_end(g, lap, values, vectors, side=-1)
    if bottom is None:
        return None
    return SpectrumEnds(bottom[0], top[0], top[1], True, lambda: bottom[1])


def _lanczos(lap, known_values: np.ndarray, known: np.ndarray):
    """Lanczos on L restricted to the complement of the rows of ``known``
    (exact eigenvectors with eigenvalues ``known_values``), with full
    reorthogonalization.

    Returns, for the bottom and then the top end, the ascending values and
    the ``(n, p)`` vectors of the end's cluster plus the next eigenvalue
    inward, merged from the known pairs and the Ritz pairs; or None when
    those Ritz pairs have not converged within ``_LANCZOS_STEPS`` steps.
    """
    n = known.shape[1]
    steps = min(n - known.shape[0], _LANCZOS_STEPS)
    basis = np.empty((steps, n))
    diag, off = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(0).standard_normal(n)
    check = 10
    for j in range(steps + 1):
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            q -= (basis[:j] @ q) @ basis[:j]
            q -= (known @ q) @ known
        beta = float(np.linalg.norm(q))
        if j > 0:
            off[j - 1] = beta
        # a beta this small means the Krylov space is (numerically) invariant
        last = j == steps or beta <= _RESIDUAL_TOL
        if last or j == check:
            check += max(10, j // 5)  # each check is a dense j x j eigh
            ends = _converged_ends(known_values, diag[:j], off[: j - 1], beta)
            if ends is not None:
                values, ritz, picks = ends
                vectors = np.concatenate((known, ritz.T @ basis[:j]))
                return [(values[idx], vectors[idx].T) for idx in picks]
            if last:
                return None
        q /= beta
        basis[j] = q
        q = lap(q)
        diag[j] = float(basis[j] @ q)
    return None


def _converged_ends(known_values, diag, off, beta):
    """The merged known and Ritz values, the Ritz vectors of the tridiagonal
    matrix, and the indices of the two ends (each cluster plus the next value
    inward, ascending), if every pair in the ends has a residual estimate
    ``|beta s_last|`` within ``_RESIDUAL_TOL``; else None."""
    tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    theta, ritz = np.linalg.eigh(tri)
    values = np.concatenate((known_values, theta))
    estimates = np.abs(beta * ritz[-1]) if theta.size else theta
    residuals = np.concatenate((np.zeros(known_values.size), estimates))
    order = np.argsort(values, kind="stable")
    low = int(np.count_nonzero(values <= values[order[0]] + TIE_TOL))
    high = int(np.count_nonzero(values >= values[order[-1]] - TIE_TOL))
    if low == values.size:  # one cluster: nothing is known beyond it yet
        return None
    picks = (order[: low + 1], order[values.size - high - 1:])
    if any(float(residuals[idx].max()) > _RESIDUAL_TOL for idx in picks):
        return None
    return values, ritz, picks


def _certified_end(g: Graph, lap, values, vectors, side: int):
    """Certify one end from its ascending ``values`` and their ``vectors``:
    at the top (``side = 1``) the first is the next eigenvalue below the
    cluster, at the bottom (``side = -1``) the last is the next one above.
    Returns the cluster's pairs, signs fixed, and that next value; or None
    when the residuals, the cluster's shape or the inertia count do not
    certify them.  It holds one n x n array, freed on return.

    The inertia count factors ``M = side (sigma I - L) + c V V^T``, V the
    cluster's vectors: if M is positive definite, subtracting the rank-k
    term ``c V V^T`` leaves at most k eigenvalues of ``side (sigma I - L)``
    at or below 0 (Weyl), so at most k eigenvalues of L lie beyond sigma.
    M is formed in that array and factored there by ``_cholesky_in_place``.
    The factorization runs at sigma moved inward by ``delta = 2 (n + 2) eps
    trace(M)``, above the bound ``gamma_{n+1} trace(M)`` on its rounding
    error, so that its success in floating point proves the count at sigma:
    a Cholesky factorization that runs to completion gives
    ``R^T R = M + dM`` with ``|dM| <= gamma_{n+1} |R^T| |R|`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, Thm 10.3, which
    covers Demmel's 1989 bound), whatever the order of its inner products.
    That holds for the blocked factorization too, since its triangular
    solves are substitutions and its products conventional multiplication.
    sigma sits ``2 (delta + rho)`` past the edge value, whose own eigenvalue
    (within rho of it) therefore stays on the near side.
    """
    n, p = vectors.shape
    residual = np.column_stack([lap(x) for x in vectors.T]) - vectors * values
    gram = vectors.T @ vectors - np.eye(p)
    rho = math.sqrt(2.0) * float(np.linalg.norm(residual)) + 4.0 * float(np.linalg.norm(gram))
    edge, cluster = (values[0], values[1:]) if side > 0 else (values[-1], values[:-1])
    v = vectors[:, 1:] if side > 0 else vectors[:, :-1]
    c = 4.0  # above |sigma - lambda| for every lambda in [0, 2]
    delta = 2.0 * (n + 2) * np.finfo(float).eps * (n * abs(edge - 1.0) + c * v.shape[1])
    gap = side * float((cluster.min() if side > 0 else cluster.max()) - edge)
    if (rho > SPECTRAL_TOL
            or float(cluster.max() - cluster.min()) > TIE_TOL - 2.0 * rho
            or gap <= max(TIE_TOL, 2.0 * delta + rho) + 2.0 * rho):
        return None
    m = _scatter(g, side * _edge_weights(g))
    cv = c * v
    for first in range(0, n, _BLOCK):
        m[first:first + _BLOCK] += cv[first:first + _BLOCK] @ v.T
    m.flat[:: n + 1] += side * (edge + side * (2.0 * rho + delta) - 1.0)
    if not _cholesky_in_place(m):
        return None
    return _frozen_pair(cluster, _fix_eigenvector_signs(v.copy())), float(edge)


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Whether the lower triangle of the symmetric ``a`` is positive definite
    to floating point, by a right-looking blocked Cholesky factorization
    that overwrites that triangle with the factor.

    Each ``_BLOCK``-wide diagonal block is factored by ``np.linalg.cholesky``,
    which fails exactly when the factorization meets a pivot that is not
    positive.  The panel below it is solved against the block's factor by
    ``np.linalg.solve`` on the index-reversed, so upper triangular, factor:
    its LU meets only zeros below each pivot, swaps no rows and computes
    only zero multipliers, which leaves a back substitution.  The trailing
    matrix is updated one column block at a time.  Beside ``a`` it holds
    O(n * _BLOCK).
    """
    n = a.shape[0]
    for first in range(0, n, _BLOCK):
        end = min(first + _BLOCK, n)
        try:
            low = np.linalg.cholesky(a[first:end, first:end])
        except np.linalg.LinAlgError:
            return False
        a[first:end, first:end] = low
        if end == n:
            break
        # L21 = A21 L11^-T, that is L11 L21^T = A21^T, solved with rows reversed
        panel = a[end:, first:end]
        panel[...] = np.linalg.solve(low[::-1, ::-1], panel.T[::-1])[::-1].T
        for col in range(end, n, _BLOCK):
            a[col:, col:col + _BLOCK] -= panel[col - end:] @ panel[col - end:col - end + _BLOCK].T
    return True


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_ENTRIES)
def graph_checks(g: Graph) -> GraphChecks:
    """Connectivity and bipartiteness from connected-component counts.

    ``g`` is connected iff it has one component.  Its bipartite double cover
    (nodes ``u`` and ``u + n``, edges ``(u, v + n)`` and ``(u + n, v)``) splits
    a component in two iff that component is bipartite, so ``g`` is
    bipartite iff the cover has twice as many components.
    """
    components = _count_components(_component_labels(g.n, g.edges[:, 0], g.edges[:, 1]))
    cover = _count_components(_cover_labels(g))
    return GraphChecks(connected=(components == 1), bipartite=(cover == 2 * components))


@lru_cache(maxsize=_CACHE_ENTRIES)
def _cover_labels(g: Graph) -> np.ndarray:
    """Component labels of the bipartite double cover of ``g`` (read-only);
    cached, as ``graph_checks`` and ``extreme_spectrum``'s colour classes
    both read them."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    label = _component_labels(
        2 * g.n, np.concatenate((u, u + g.n)), np.concatenate((v + g.n, v))
    )
    label.setflags(write=False)
    return label


def _count_components(label: np.ndarray) -> int:
    return int(np.count_nonzero(label == np.arange(label.size)))


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, in the graph on
    ``0 .. n-1`` with edges ``(u, v)``.

    Min-label hooking and pointer jumping, in the style of Shiloach and
    Vishkin (1982): every label is a node of its own component and no larger
    than it, each round hooks the larger of two adjacent roots onto the
    smaller and then jumps every label to its root.  A round is O(n + m)
    numpy work; rounds grow like log n.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return label
        lu, lv = lu[split], lv[split]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped


def require_connected(g: Graph, context: str) -> None:
    """Raise a validation error if ``g`` is disconnected."""
    if not graph_checks(g).connected:
        raise ValidationError(f"{context} requires a connected graph")
