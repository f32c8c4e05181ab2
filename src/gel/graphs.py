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
assemblies of ``verify``.  What only multiplies by A_hat (the dynamics and
the energies) calls ``_adjacency_product``.  It sums over a cached
neighbour index in jagged-diagonal slots, one contiguous add per slot,
whenever the width of what it multiplies is large against the maximum
degree and the gathered rows stay below half the dense matrix; otherwise
it multiplies by the dense matrix, built only then, on a dense graph, and
sums in row-sorted (CSR) runs on a sparse one.  A dynamics run takes the
form that rule picks for its width once, from ``_product_for``.
``laplacian_spectrum`` is the full, checked ``numpy.linalg.eigh`` of the
normalized Laplacian.
``extreme_spectrum`` gives only its two ends, the eigenpairs at 0 and at
lambda_max and the next eigenvalue inward from each, from a thick-restart
Lanczos iteration on the same edge sum, which starts from splitmix64's
scramble of the node ids (``_scramble``), not from random numbers, holds
O(n * _RESTART) and checks each Ritz pair by its explicit residual.
Residual bounds and an inertia count certify that no eigenvalue was missed
at the top; lambda_2 is certified the same way, only when something reads
it, and 0 needs no certificate on a connected graph.  The count at a point sigma factors
``[[S, sqrt(c) V], [sqrt(c) V^T, -I]]``, with ``S = +-(sigma I - L)`` and V
the end's cluster vectors, as ``L D L^T`` without pivoting: first the nodes
of an independent set, whose pivots are exact scalars as A_hat vanishes
between them, then the k border rows, whose pivots are negative, then the
dense Schur complement on the other nodes, by a blocked Cholesky
factorization in block rows whose triangular solves are substitutions and
whose updates are conventional matrix products.  Those are the conditions
of the backward-error bound ``|dB| <= gamma |L| |D| |L^T|`` for
elimination without pivoting (Higham 2002, Thm 9.3), so a run to the end
shows ``B + eta I`` has as many positive eigenvalues as there are nodes,
with ``eta = gamma trace(|L| |D| |L^T|)``; by Haynsworth's inertia
additivity and Weyl's theorem, at most k eigenvalues of L then lie beyond
the point moved by eta.  The margin eta is bounded before anything is
formed, the factorization runs past sigma by that bound, and eta is checked
against it from the factors; a failed check fails the certificate.  A
failed certificate falls back to the full decomposition.  A
dense site, or a generated edge set, that would not fit in the machine's
physical memory is refused with a ``NumericError`` before it is allocated.

Operators and spectra are cached per graph, so ``Graph`` is immutable and
hashable (the hash is computed once, so a cache lookup costs O(1), not
O(m)); cached arrays are returned read-only, and each cache of n x n
results keeps only the last few graphs.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
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

_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)

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
    is read off it too, and leaves ``certified`` as it was.  Certified ends
    are the Ritz pairs of ``extreme_spectrum``'s restarted Lanczos
    iteration, and its certificate, not the iteration, proves them.

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
    seed is incremented and the draw repeated, up to 100 attempts, so two
    consecutive seeds can give one graph: ``erdos_renyi(12000, 10 / 12000,
    4)`` draws a disconnected graph first and returns seed 5's.
    """
    n = check_count(n, "erdos_renyi's n", 2)
    if not 0.0 < scalar(p, "edge probability") <= 1.0:
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


def scalar(value, name: str) -> float:
    """``value`` as a float if it is a finite real number (not a bool), as
    step sizes and coupling strengths must be; anything else is a
    ``ValidationError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    result = float(value)
    if not math.isfinite(result):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return result


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

    It reads one of three forms, by a fixed rule on what the product reads,
    with d the width of F (1 for a 1-D F):

    - the slot form (``_slot_product``) when ``128 max_degree < n d`` and
      ``4 m d < n^2``: one contiguous add of up to n d floats per
      neighbour slot, so max_degree Python steps in all;
    - else the dense ``normalized_adjacency(g) @ F`` when
      ``2 m d >= n^2 / 8``: one BLAS pass over the n^2 matrix, in
      O(n^2 d), against one gathered row of d floats per directed edge in
      the other two, in O(m d);
    - else the edge form (``_edge_product``): one ``np.add.reduceat`` over
      the CSR runs, a short strided sum per row and column.

    Each form is built only when the rule first picks it.

    Median milliseconds over 40 calls, dense / edge / slot, on a 2-vCPU
    Xeon (numpy 2.4.6 with OpenBLAS, 2 threads); * marks the rule's pick:

    =================  ====  ======================  =====================
    graph (2m / n^2)   max   d = 1                   d = 8
                       deg
    =================  ====  ======================  =====================
    ER n=2000 (1/250)  23    0.62 / 0.05 * / 0.04    2.0 / 0.36 / 0.17 *
    ER n=1000 (1/127)  18    0.16 / 0.02 * / 0.05    0.60 / 0.24 / 0.11 *
    ER n=2000 (1/31)   96    0.65 / 0.37 * / 0.47    2.4 / 3.8 / 1.4 *
    ER n=2000 (1/16)   161   0.65 / 0.47 * / 0.55    2.4 * / 7.0 / 2.6
    ER n=4000 (1/16)   308   2.8 / 1.8 * / 2.0       13 * / 37 / 21
    K_{300,300} (1/2)  300   0.11 * / 0.32 / 0.54    0.21 * / 4.5 / 1.8
    ER n=200 (1/16)    23    0.007 / 0.009 * / 0.03  0.014 * / 0.04 / 0.05
    cycle n=4000       2     3.1 / 0.10 / 0.02 *     14 / 0.41 / 0.14 *
    wheel n=3000       2999  1.4 / 0.05 * / 3.7      5.9 / 0.38 * / 2.6
    =================  ====  ======================  =====================

    The slot form overtakes the edge form near ``n d / max_degree`` of 80
    to 100; its Python step per slot makes it lose by 7 to 70 times on a
    hub.  Where the dense condition holds too, the slot form is still the
    faster while its gathered rows, 2 m d floats, are at most half the
    matrix's n^2, so the rule tests it first there and keeps the n x n
    matrix out of such runs.  Slot against dense, medians of 25 to 30
    calls: ER n=1000 (p = 0.02) 0.19 / 0.48 ms at d = 8 and 0.35 / 0.57
    at d = 16; ER n=3000 (1/40) 2.1 / 4.5 at d = 8 and 3.6 / 6.5 at
    d = 16; ER n=3000 (p = 0.01) 4.0 / 12 and ER n=4000 (p = 0.01)
    10 / 21 at d = 32.  Past that half the gathered rows grow towards the
    matrix and beyond it, without bound in d, and on the denser graphs the
    dense form wins: 3.8 / 3.0 on ER n=2000 (1/16) at d = 12
    (2 m d / n^2 = 0.75), 5.2 / 3.2 there at d = 16, 17 / 6.3 on ER
    n=2000 (1/31) at d = 64 and 17 / 0.44 on K_{300,300} at d = 64.  The
    losses of the rule: ER n=200 at d = 1, by 2 microseconds a call, and
    sparse graphs just past the half, where the slot form still wins:
    2.8 / 10 on ER n=2000 (p = 0.004) at d = 128 (0.51), 12 / 21 on ER
    n=3000 (p = 0.01) and 23 / 33 on ER n=4000 (p = 0.01) at d = 64
    (0.64).  Every form sums each row in its own order (the slot form
    left to right in ascending neighbour order, ``reduceat`` the first term
    plus a pairwise sum of the rest), so they agree to roundoff, not bit
    for bit.  An isolated node is a validation error.
    """
    return _product_for(g, 1 if F.ndim == 1 else F.shape[1])(F)


def _product_for(g: Graph, width: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``F -> A_hat F`` that ``_adjacency_product``'s rule picks for
    an F of ``width`` columns, so that a loop over arrays of one width can
    pick it once: the slot form when ``128 max_degree < n width`` and
    ``4 m width < n^2``, the product with the dense matrix when
    ``2 m width >= n^2 / 8``, else the edge form.  Each is built on the
    first call that picks it."""
    if 128 * degree_vector(g).max() < g.n * width and 4 * g.num_edges * width < g.n * g.n:
        return _slot_product(g).at(width)
    if 16 * g.num_edges * width >= g.n * g.n:
        return normalized_adjacency(g).__matmul__
    return _edge_product(g)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _edge_product(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``F -> A_hat F`` as a sum over the edges, for a 1-D or
    ``(n, d)`` array F: the rows of ``F / sqrt(deg)`` are gathered along a
    row-sorted (CSR) neighbour index, each edge once in each direction, each
    row's run is summed with ``np.add.reduceat`` and the sums are scaled by
    ``1 / sqrt(deg)``.  O(m d) time and O(m) memory, never n^2.  An isolated
    node is a validation error."""
    inv_sqrt = _inv_sqrt_degree(g)
    cols, starts = _neighbours(g)

    def product(F: np.ndarray) -> np.ndarray:
        scale = inv_sqrt if F.ndim == 1 else inv_sqrt[:, None]
        # every row is nonempty (no isolated node), as reduceat needs
        return scale * np.add.reduceat(np.take(F * scale, cols, axis=0), starts, axis=0)

    return product


class _SlotForm:
    """``_edge_product``'s map in jagged-diagonal form (Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., 3.4), for a 1-D or
    ``(n, d)`` array F.  The rows are ordered by descending degree; slot j
    holds the j-th neighbour, in ascending order, of every row of degree
    above j, and those rows are a prefix of that order.  One gather of the
    rows of ``F / sqrt(deg)`` in slot order, one contiguous in-place add per
    slot onto slot 0's prefix, one scale by ``1 / sqrt(deg)`` and one gather
    back to node order: each row is summed left to right in ascending
    neighbour order.  The index holds 2 m int32 entries (int64 past 2^31
    nodes).  A Python step per slot costs O(max_degree), so this pays only
    when that is small against n d (see ``_product_for``).  An isolated
    node is a validation error.

    Both scales multiply F's entries, in row-major order, by a flat vector
    of n d entries, a third of the time of scaling an ``(n, d)`` array by an
    ``(n, 1)`` column at d = 8.  Those vectors depend on the width: ``at``
    builds them for one, and the map it returns holds them, so a run pays
    for them once and this form, which ``_slot_product`` caches per graph,
    holds only what every width shares."""

    def __init__(self, g: Graph) -> None:
        inv_sqrt = _inv_sqrt_degree(g)
        cols, starts = _neighbours(g)
        deg = degree_vector(g).astype(np.int64)
        order = np.argsort(-deg, kind="stable")
        # lengths[j]: the rows of degree above j
        lengths = g.n - np.cumsum(np.bincount(deg))[:-1]
        first = starts[order]
        self.index = np.concatenate(
            [cols[first[:length] + j] for j, length in enumerate(lengths.tolist())]
        ).astype(np.int32 if g.n <= 2**31 else np.int64)
        ends = np.cumsum(lengths)
        self.slots = list(zip((ends - lengths).tolist(), ends.tolist()))[1:]
        self.rank = np.empty(g.n, dtype=np.intp)
        self.rank[order] = np.arange(g.n)
        self.scale, self.sorted_scale = inv_sqrt, inv_sqrt[order]
        self.n = g.n

    def at(self, width: int) -> Callable[[np.ndarray], np.ndarray]:
        """The map for an F of ``width`` columns (1 for a 1-D F)."""
        return partial(self._product, np.repeat(self.scale, width),
                       np.repeat(self.sorted_scale, width))

    def _product(self, scale: np.ndarray, sorted_scale: np.ndarray, F: np.ndarray) -> np.ndarray:
        rows = (F.ravel() * scale).reshape(F.shape).take(self.index, axis=0)
        total = rows[:self.n]  # slot 0: every row, as none is isolated
        for start, stop in self.slots:
            total[:stop - start] += rows[start:stop]
        # slot 0's rows are a contiguous prefix, so this reshape is a view
        flat = total.reshape(-1)
        flat *= sorted_scale
        return total.take(self.rank, axis=0)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _slot_product(g: Graph) -> _SlotForm:
    """The slot form of ``g``'s ``A_hat`` product (see ``_SlotForm``)."""
    return _SlotForm(g)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _neighbours(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The row-sorted (CSR) neighbour index of ``g``: ``cols`` lists each
    edge once in each direction, grouped by row in node order and ascending
    within a row, and ``starts`` holds where each row's run begins."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    # as g.edges is sorted, the stable sort leaves every row's neighbours
    # ascending
    order = np.argsort(np.concatenate((v, u)), kind="stable")
    cols = np.concatenate((u, v))[order]
    starts = np.concatenate(([0], np.cumsum(degree_vector(g).astype(np.int64))[:-1]))
    cols.setflags(write=False)
    starts.setflags(write=False)
    return cols, starts


def _row_slots(starts: np.ndarray, deg: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The positions in ``_neighbours``' ``cols`` of the rows of ``nodes``
    (``starts`` from it, ``deg`` the int degrees), one row after another."""
    count = deg[nodes]
    return np.repeat(starts[nodes] - np.cumsum(count) + count, count) + np.arange(count.sum())


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
    m = _floats(value, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"{name} must be a nonempty square matrix, got {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ValidationError(f"{name} must be {d}x{d}, got {m.shape[0]}x{m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    if not symmetric:
        return m
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


def vector(value, name: str, d=None) -> np.ndarray:
    """Validate a nonempty, finite float vector (of length ``d`` if given),
    flattened to 1-D.  Like ``square_matrix``'s, the result never shares
    memory with ``value``."""
    v = _floats(value, name).reshape(-1)
    if d is not None and v.size != d:
        raise ValidationError(f"{name} must have length d={d}, got {v.size}")
    if v.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def _floats(value, name: str) -> np.ndarray:
    """A new float array holding ``value``; what numpy cannot read as one,
    such as a ragged list or text, is a ``ValidationError`` naming
    ``name``."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None


def spectral_decomposition(matrix: np.ndarray) -> SpectralPair:
    """Eigendecomposition of a symmetric matrix with deterministic signs.

    The input is checked and symmetrized by :func:`square_matrix`.  The
    returned eigenvector signs follow the largest-magnitude-entry-positive
    convention, ties broken by lowest index.
    """
    return _checked_eigh(square_matrix(matrix, "matrix", symmetric=True))


#: Rows (or columns) per block of the blocked passes: the certificate's
#: block rows (``_schur_block_rows``), whose factorization
#: (``_factor_block_rows``) holds O(n * _BLOCK) temporaries beside its
#: array, and the checks of ``_checked_eigh``, which hold as much beside
#: their n x n arrays.  The blocks tried run within the noise of each
#: other, and each beats LAPACK's own factorization of the full matrix; 128
#: stays.  Median ms of 21 (11 at n = 2000) factorizations of a random SPD
#: matrix's block rows, with ``_SUB`` = 32, the range over two runs, on a
#: 2-vCPU Xeon (numpy 2.4.6 with OpenBLAS 0.3.31, 2 threads), measured with
#: the right-looking factorization that came before the left-looking one:
#:
#: ======  ===================  =======  =======  =======  =======  =======
#: n       np.linalg.cholesky   64       96       128      192      256
#: ======  ===================  =======  =======  =======  =======  =======
#: 600     6-7                  5        5-6      5        5-6      5
#: 1000    17-22                13-17    13-17    12-18    12-19    12-19
#: 2000    98-126               82-106   81-89    75-132   71-131   76-121
#: ======  ===================  =======  =======  =======  =======  =======
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
    # subnormal entries carry no relative precision: allow each of the n^2
    # residual entries n + 1 units of the smallest subnormal, which adds less
    # than SPECTRAL_TOL * norm unless max |sym| < n (n + 1) 5e-314
    floor = n * (n + 1) * _SMALLEST_SUBNORMAL / scale
    if math.sqrt(squares) > SPECTRAL_TOL * norm + floor:
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


#: n x n arrays alive at once at the peak of the full decomposition, as the
#: process's resident set counts them: the Laplacian beside ``eigh``'s copy
#: of it, LAPACK's workspace and the eigenvectors (5.1 * 8 n^2 above the
#: start on cycle(2000), of which ``eigh`` alone takes 4.1; tracemalloc,
#: which does not see LAPACK's buffers, counts 2.5 on cycle(800)).
_DECOMPOSITION_ARRAYS = 5


@lru_cache(maxsize=_CACHE_ENTRIES)
def laplacian_spectrum(g: Graph) -> SpectralPair:
    """Cached spectral decomposition of the normalized Laplacian of ``g``."""
    _require_dense(g.n, _DECOMPOSITION_ARRAYS, "the full decomposition")
    # exactly symmetric, so square_matrix's symmetrizing copies would return
    # the same bits
    return _checked_eigh(_laplacian(g))


#: Operator products ``L v`` before the iteration gives up and the full
#: decomposition runs.  The products an iteration needed (its Ritz pairs
#: are checked at each restart: after 60, 100, 140, ... products) and the
#: ms it took, the range of medians of 3 or 5 calls after a warm-up, on a
#: 2-vCPU Xeon (numpy 2.4.6 with OpenBLAS 0.3.31, 2 threads); the cycles,
#: whose double lambda_max fails the certificate anyway, spend the budget:
#:
#: ==================================  ========  ========  ===============
#: graph (mean degree)                 products  ms        unrestarted ms
#: ==================================  ========  ========  ===============
#: erdos_renyi(400, 0.02, 7) (8)       140       8-12      17-22
#: erdos_renyi(1000, 0.008, 7) (8)     180       15-27     36-47
#: erdos_renyi(1200, 0.01, 3) (12)     180       17-30     54-71
#: erdos_renyi(2000, 0.004, 3 or 11)  220       30-50     116-155
#: erdos_renyi(2000, 0.004, 7) (8)     260       38-60     136-202
#: erdos_renyi(6000, 0.0015, 1) (9)    340       190-250
#: erdos_renyi(8000, 10 / n, 1)        340       184-188
#: erdos_renyi(12000, 10 / n, 1)       380       283-286
#: cycle(1001), falls back             400       28-45     150-235
#: cycle(4000), falls back             400       100-140   345-455
#: ==================================  ========  ========  ===============
#:
#: Seeds 1 to 4 of the two largest sizes take 300 to 380 products, so they
#: leave 20 products of margin, half a restart; those two rows were timed
#: apart from the others, on the same machine.  On them the scrambled start
#: vector costs 40 products more than a normal one from numpy's
#: ``default_rng(0)`` (300 and 340, in 157-159 and 249 ms): 14 to 18% more
#: time.  On the rows above it takes as many products.  At n = 12 000,
#: seeds 1 to 4 draw three graphs (seed 1's first draw is disconnected and
#: gives seed 2's), each of which takes 380 products.  erdos_renyi(20000,
#: 10 / n, 1) takes 420, past the budget: it falls back to the full
#: decomposition, whose 14.9 GiB is refused on a machine of 7.8 GiB.
#: A budget of 1600 converges on cycle(1001) after 900 products, to fail the
#: certificate, and spends 420-540 ms on cycle(4000), more than the
#: unrestarted 400 steps.
_LANCZOS_STEPS = 400

#: Rows of the Lanczos basis, each held beside its image ``L v``, and the
#: Ritz pairs nearest each end that a restart keeps: the iteration holds
#: 2 _RESTART n floats.  Products and median ms of the iteration (5 calls,
#: same machine as above); 60 / 10 needs about the fewest products and is
#: within the noise of the fastest:
#:
#: ================  =====================  =============
#: _RESTART / _KEEP  ER n=2000, 3 seeds     ER n=6000
#: ================  =====================  =============
#: 40 / 10           220-240, 30-39 ms      360, 247 ms
#: 60 / 5            260, 48-50 ms          360, 255 ms
#: 60 / 10           220-260, 40-48 ms      340, 242 ms
#: 60 / 20           220-240, 49-55 ms      320, 282 ms
#: 80 / 10           260, 57-59 ms          320, 231 ms
#: 100 / 10          260, 45-59 ms          340, 279 ms
#: ================  =====================  =============
_RESTART = 60
_KEEP = 10

#: Residual norm at which a Ritz pair counts as converged.
_RESIDUAL_TOL = 1e-12


@lru_cache(maxsize=_CACHE_ENTRIES)
def extreme_spectrum(g: Graph) -> SpectrumEnds:
    """Both ends of the normalized Laplacian's spectrum, certified, without
    a full decomposition (see :class:`SpectrumEnds`).

    On a connected graph the kernel vector ``phi0 = sqrt(deg) / |sqrt(deg)|``
    is known, and on a connected bipartite one so is lambda_max = 2, whose
    vector is phi0 with its sign flipped on one colour class.  A
    thick-restart Lanczos iteration (``_lanczos``) with full
    reorthogonalization on the complement of these finds the rest of both
    ends from a fixed start vector, in a basis of at most ``_RESTART`` rows:
    node i's entry is the top 53 bits of splitmix64's finalizer of i
    (``_scramble``) mapped to [-1, 1), so that nothing imports
    ``numpy.random`` to draw it.
    It stops once the explicit residuals ``|L y - theta y|`` of their Ritz
    pairs fall below ``_RESIDUAL_TOL`` or the Krylov space is invariant.
    The iteration proves nothing: the top end is then certified in two
    steps, and so is the bottom end when ``lambda_2`` is first read:

    - The pairs of the end's cluster and of the next eigenvalue inward have
      residuals R.  As many eigenvalues lie within ``rho = sqrt(2) |R|_F``
      of their values (Kahan's theorem; Parlett, *The Symmetric Eigenvalue
      Problem*, 11.5).
    - One factorization counts the eigenvalues beyond a point sigma just
      past the next eigenvalue: it proves that at most ``rank V`` lie
      there, V the cluster's vectors (``_certified_end``).  It eliminates an
      independent set of nodes exactly and factors the Schur complement
      left on the other nodes, about 0.7 n of them on a sparse graph, by
      a left-looking blocked Cholesky factorization that forms each
      ``_BLOCK``-high block row only when it factors it and drops each
      column block of the factor once no later row reads it: the
      certificate holds at most ``r^2 / 4 + _BLOCK r`` floats for its r
      rows, an eighth of the dense matrix's 8 n^2 on a sparse graph, and
      O(n * _BLOCK) beside them, and the bottom end's runs after the top
      end's is freed.

    Together the two steps show that each cluster is complete and that no
    eigenvalue lies between it and the next one.  The bottom cluster is 0
    alone, exactly, as the graph is connected, unless a Ritz value lies
    within ``TIE_TOL`` of 0; then the bottom end is certified at once.  A
    disconnected graph, an iteration that does not converge within
    ``_LANCZOS_STEPS`` operator products or a failed top certificate gives
    the ends of ``laplacian_spectrum`` instead; a failed lambda_2
    certificate gives its lambda_2.  A multiple lambda_max on a
    non-bipartite graph always fails: a single start vector sees one copy.
    """
    checks = graph_checks(g)
    if checks.connected:
        # before the iteration, which is wasted if the certificate cannot run:
        # its factorization holds most when no node is eliminated, as at the
        # top end of K_{a,b}, and the Schur complement has all n rows
        _require_memory(
            8 * (g.n * g.n // 4 + _BLOCK * g.n),
            f"the certificate's factorization of a {g.n} x {g.n} matrix",
        )
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
    # cached through the Cholesky factorizations below, one more n^2 array
    # at the run's memory peak
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
        # in new block rows once the top's are freed
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
    """Thick-restart Lanczos (Wu & Simon 2000) on L restricted to the
    complement of the rows of ``known`` (exact eigenvectors with eigenvalues
    ``known_values``), with full reorthogonalization.

    The basis holds at most ``_RESTART`` orthonormal rows v beside their
    images ``L v``.  Each new row is the last image orthogonalized twice
    against the basis and ``known``; the first pass's coefficients are the
    new column of the projected matrix ``V L V^T``.  Once the basis is full,
    its Ritz pairs are checked; if they do not give both ends yet, the
    ``_KEEP`` Ritz pairs nearest each end, with their images, become the
    basis, and the iteration goes on from the last direction, which is
    orthogonal to them.

    Returns, for the bottom and then the top end, the ascending values and
    the ``(n, p)`` vectors of the end's cluster plus the next eigenvalue
    inward, merged from the known pairs and the Ritz pairs, once each Ritz
    pair among them has an explicit residual ``|L y - theta y|`` within
    ``_RESIDUAL_TOL``; or None when they have not within ``_LANCZOS_STEPS``
    products ``L v``.
    """
    count, n = known.shape
    size = min(n - count, _RESTART)
    # the known rows first: one pass orthogonalizes against them and the basis
    stack, images = np.empty((count + size, n)), np.empty((size, n))
    stack[:count] = known
    basis = stack[count:]
    projected = np.empty((size, size))
    q = (_scramble(n) >> np.uint64(11)) * 2.0**-52 - 1.0
    q -= (known @ q) @ known
    rows = products = 0
    while True:
        # the second Gram-Schmidt pass keeps the basis orthonormal
        q -= (stack[:count + rows] @ q) @ stack[:count + rows]
        beta = float(np.linalg.norm(q))
        # a beta this small means the Krylov space is (numerically) invariant
        invariant = beta <= _RESIDUAL_TOL
        if invariant or rows == size or products == _LANCZOS_STEPS:
            theta, ritz = np.linalg.eigh(projected[:rows, :rows])
            values = np.concatenate((known_values, theta))
            order = np.argsort(values, kind="stable")
            low = int(np.count_nonzero(values <= values[order[0]] + TIE_TOL))
            high = int(np.count_nonzero(values >= values[order[-1]] - TIE_TOL))
            if low < values.size:  # one cluster: nothing is known beyond it yet
                picks = (order[: low + 1], order[values.size - high - 1:])
                wanted = [i for i in np.concatenate(picks).tolist() if i >= count]
                pairs = ritz[:, [i - count for i in wanted]].T
                found = pairs @ basis[:rows]
                residual = pairs @ images[:rows] - values[wanted, None] * found
                if np.linalg.norm(residual, axis=1).max(initial=0.0) <= _RESIDUAL_TOL:
                    vectors = {**dict(enumerate(known)), **dict(zip(wanted, found))}
                    return [(values[idx], np.column_stack([vectors[i] for i in idx.tolist()]))
                            for idx in picks]
            # (a full basis narrower than _RESTART spans the whole complement,
            # so only rounding leaves it not invariant)
            if invariant or products == _LANCZOS_STEPS or rows < _RESTART:
                return None
            # the kept Ritz vectors lie in the span of the old basis, which q
            # is orthogonal to, so q goes on as the next row
            kept = np.concatenate((ritz[:, :_KEEP], ritz[:, -_KEEP:]), axis=1).T
            rows = kept.shape[0]
            basis[:rows], images[:rows] = kept @ basis, kept @ images
            projected[:rows, :rows] = np.diag(np.concatenate((theta[:_KEEP], theta[-_KEEP:])))
        q /= beta
        basis[rows] = q
        image = images[rows] = lap(q)
        products += 1
        rows += 1
        # the first pass: its coefficients against the basis are the new
        # column of V L V^T
        coefficients = stack[:count + rows] @ image
        projected[:rows, rows - 1] = projected[rows - 1, :rows] = coefficients[count:]
        q = image - coefficients @ stack[:count + rows]


#: The weight c of the rank-k term ``c V V^T`` by which the certificate
#: lifts an end's cluster out of its count: above |sigma - lambda| for every
#: lambda in [0, 2].
_LIFT = 4.0


def _certified_end(g: Graph, lap, values, vectors, side: int):
    """Certify one end from its ascending ``values`` and their ``vectors``:
    at the top (``side = 1``) the first is the next eigenvalue below the
    cluster, at the bottom (``side = -1``) the last is the next one above.
    Returns the cluster's pairs, signs fixed, and that next value; or None
    when the residuals, the cluster's shape or the inertia count do not
    certify them.

    Each value lies within ``rho`` of an eigenvalue of its own (see
    ``extreme_spectrum``).  ``_proved_past`` then counts, by one
    factorization, at most k (the cluster's size) eigenvalues at or beyond
    a point just past ``sigma = edge + side 2 rho``; the cluster's own k
    eigenvalues, within rho of it, lie beyond that point, so there are no
    others.  The count:

    - Which matrix, in which order.  With ``s = side (sigma' - 1)`` at the
      factored point sigma', ``S = side (sigma' I - L) = s I + side A_hat``
      and V the cluster's vectors, it factors the bordered
      ``B = [[S, sqrt(c) V], [sqrt(c) V^T, -I_k]]`` as ``L D L^T`` without
      pivoting, in the order: the nodes of an independent set I
      (``_independent_set``), then the k border rows, then the rest R.
      A_hat vanishes on I x I, so I's pivots are s, each eliminated
      exactly; I holds only nodes whose column squares
      ``sum_a w_ai^2 + c |V_i|^2`` are at most s^2, which bounds the growth
      of what they leave.  The border's pivots are those of
      ``-E = -(I_k + (c / s) V_I^T V_I)``, negative.  What remains is the
      Schur complement ``T = P + U U^T`` on R, P the sparse
      ``s I + side A_RR - (1 / s) A_RI A_IR`` and ``U U^T = W E^-1 W^T``
      the border's rank-k term (``_schur_block_rows``), factored by a
      blocked Cholesky factorization in block rows
      (``_factor_block_rows``).
    - Why success proves the count.  By Haynsworth's inertia additivity B
      has as many positive eigenvalues as S has rows exactly when its
      Schur complement ``M = S + c V V^T`` on S is positive definite, and
      then removing the rank-k term leaves at most k eigenvalues of S at
      or below 0 (Weyl): at most k eigenvalues of L lie at or beyond
      sigma'.  The factorization shows it for ``B + dB``: its pivots are
      |I| + |R| positive ones and k negative ones, and by Sylvester's law
      of inertia so are the eigenvalues of ``L D L^T = B + dB``.
    - Which backward-error theorem.  Elimination without pivoting that runs
      to completion gives ``|dB| <= gamma |L| |D| |L^T|`` (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2002, Thm 9.3),
      whatever the order in which each entry's inner product is summed, so
      long as each is summed as one: substitution computes each entry of a
      factor from its row's inner product, and conventional (not
      Strassen-like) matrix products sum those inner products in pieces.
      The scalar pivots, the border's product and T's formation add a few
      roundings to each product, so gamma is taken as ``(n + k + 8) eps``,
      twice ``gamma_{n + k + 8}``.  As ``|L| |D| |L^T|`` is positive
      semidefinite, ``|dB|_2 <= eta = gamma trace(|L| |D| |L^T|)``, so
      ``B + eta I`` has as many positive eigenvalues as ``B + dB``; with
      eta < 1 its border's Schur complement is ``M + eta I`` plus a rank-k
      term, and the count holds at ``sigma' + side eta``.
    - How the margin is bounded and checked.  Before anything is formed,
      the growth bound on I gives
      ``trace(|L| |D| |L^T|) <= (n + 3 |I|) s + k + 2 c |V|_F^2``;
      delta is gamma times twice that, and the factorization runs at
      ``sigma' = sigma + side delta``.  Once I and the border are
      eliminated, eta is checked against delta from the factors as T's
      block rows are formed: I's and the border's columns are summed, and
      T's factor R adds ``|R|_F^2 = trace(R^T R) <= trace(T) / (1 -
      gamma)``, whatever it computes.  A failed check fails the
      certificate; a passed one proves the count at ``sigma + side 2
      delta``.
    """
    n, p = vectors.shape
    residual = np.column_stack([lap(x) for x in vectors.T]) - vectors * values
    gram = vectors.T @ vectors - np.eye(p)
    rho = math.sqrt(2.0) * float(np.linalg.norm(residual)) + 4.0 * float(np.linalg.norm(gram))
    edge, cluster = (values[0], values[1:]) if side > 0 else (values[-1], values[:-1])
    v = vectors[:, 1:] if side > 0 else vectors[:, :-1]
    inner = float(cluster.min() if side > 0 else cluster.max())
    if (rho > SPECTRAL_TOL
            or float(cluster.max() - cluster.min()) > TIE_TOL - 2.0 * rho
            or side * (inner - edge) <= TIE_TOL + 2.0 * rho):
        return None
    past = _proved_past(g, v, float(edge) + side * 2.0 * rho, side)
    if past is None or side * (inner - rho - past) <= 0.0:
        return None
    return _frozen_pair(cluster, _fix_eigenvector_signs(v.copy())), float(edge)


def _proved_past(g: Graph, v: np.ndarray, sigma: float, side: int) -> float | None:
    """``_certified_end``'s count: a point ``sigma + side 2 delta`` with at
    most ``k = v.shape[1]`` eigenvalues of the normalized Laplacian at or
    beyond it (at or above it for ``side = 1``, at or below it for
    ``side = -1``), delta the rounding margin; or None when the
    factorization fails or its backward error exceeds the margin.

    The block rows of the Schur complement T are formed one at a time, as
    the factorization reaches them, and none is kept.  The margin check
    reads trace(T), so it is made on the rows formed so far before each
    block row is factored, on all of them before the last.  A partial trace
    past the margin fails the certificate as the whole trace would: the
    diagonal of a positive definite T is positive, so its trace is at
    least any partial one, and a T that is not fails its factorization."""
    n, k = v.shape
    s = side * (sigma - 1.0)
    # eligible at sigma, so also at sigma', where s is larger
    held = _independent_set(g, v, s)
    gamma = (n + k + 8) * float(np.finfo(float).eps)
    grown = n + 3 * held.size
    # twice gamma times the trace bound at s + delta, solved for delta; it
    # stays far below 1 at any n whose rows fit in memory
    delta = (2.0 * gamma * (grown * abs(s) + k + 2.0 * _LIFT * float(np.vdot(v, v)))
             / (1.0 - 2.0 * gamma * grown))
    eliminated, add_rows = _schur_block_rows(g, v, held, side, s + delta)
    trace = 0.0

    def within_margin(first: int, out: np.ndarray) -> bool:
        nonlocal trace
        trace += add_rows(first, out)
        return not gamma * (eliminated + trace / (1.0 - gamma)) > delta

    if not _factor_block_rows(within_margin, n - held.size):
        return None
    return sigma + side * 2.0 * delta


def _scramble(n: int) -> np.ndarray:
    """splitmix64's finalizer (Steele, Lea & Flood 2014) of the node ids
    ``0..n-1``: a fixed, well-mixed uint64 key per node."""
    z = np.arange(n, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _independent_set(g: Graph, v: np.ndarray, s: float) -> np.ndarray:
    """A maximal independent set of ``g`` among its eligible nodes, as
    ascending node ids: no two of its nodes are adjacent, and every other
    eligible node has a neighbour in it.

    A node is eligible when the pivot s of ``_proved_past``'s bordered
    matrix bounds the growth of what eliminating it leaves, s > 0 and
    ``s^2 >= sum_a w_ai^2 + c |V_i|^2`` (the squares of the node's column
    off its diagonal), and when what it fills is worth the dense row it
    saves: ``d_i^2 <= n``, as its ``d_i (d_i - 1) / 2`` two-hop terms are
    scattered one by one.  Each round, every eligible node left whose key
    beats that of each neighbour left joins the set, and it and its
    neighbours leave.  The key is the degree, lower first, then a fixed
    scramble of the node id (splitmix64's finalizer), so that the rounds
    do not follow the node order along a path or a cycle.  Each round is
    O(m) numpy work over the edges still between nodes left; the result
    depends on the graph, V and s alone.
    """
    deg = degree_vector(g)
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    left = (deg * deg <= g.n) & (s > 0.0)
    if left.any():
        # sum_a w_ai^2 = (1 / d_i) sum_a 1 / d_a
        squares = (np.bincount(lo, 1.0 / deg[hi], g.n) + np.bincount(hi, 1.0 / deg[lo], g.n)) / deg
        left &= squares + _LIFT * np.einsum("ij,ij->i", v, v) <= s * s
    chosen = np.zeros(g.n, dtype=bool)
    if not left.any():
        return np.flatnonzero(chosen)
    between = left[lo] & left[hi]
    lo, hi = lo[between], hi[between]
    scramble = _scramble(g.n)
    first = (deg[lo] < deg[hi]) | ((deg[lo] == deg[hi]) & (scramble[lo] < scramble[hi]))
    winner, loser = np.where(first, lo, hi), np.where(first, hi, lo)
    while left.any():
        beaten = np.zeros(g.n, dtype=bool)
        beaten[loser] = True
        joined = left & ~beaten
        chosen |= joined
        left &= ~joined
        # a node that joined beat every neighbour left
        left[loser[joined[winner]]] = False
        between = left[winner] & left[loser]
        winner, loser = winner[between], loser[between]
    return np.flatnonzero(chosen)


def _schur_block_rows(g: Graph, v: np.ndarray, held: np.ndarray, side: int,
                      s: float) -> tuple[float, Callable[[int, np.ndarray], float]]:
    """The Schur complement T on R, the nodes not in ``held``, of
    ``_proved_past``'s bordered matrix at ``s``, once the nodes of ``held``
    (independent) and then the border are eliminated, as a function that
    adds its block rows to an array; with the eliminated pivots' part of
    ``trace(|L| |D| |L^T|)``.

    T's rows follow R in node order.  ``add_rows(first, out)`` adds rows
    ``first..first + B`` of columns ``first..|R|`` to the ``(B, |R| -
    first)`` array ``out``, ``B <= _BLOCK``, and returns their part of
    ``trace(T)``.  Each row is the border's rank-k term ``U U^T``, with s
    less the two-hop diagonal ``(1 / s) sum_i w_ai^2`` on the diagonal,
    ``side w_ab`` at each edge of R and ``-(1 / s) w_ai w_ib`` at
    ``(a, b)`` for each path ``a - i - b`` through ``held``.  Those two
    enter the upper triangle only, the part ``_factor_block_rows`` reads;
    the rank-k term fills the diagonal block in full.  U is ``W G^-T``,
    with ``G G^T = E`` by Cholesky and U^T found by substitution.  The
    rank-k term is added ``_BLOCK`` columns at a time and the two-hop terms
    in pieces of at most ``n B / 8`` paths, so beside ``out`` it holds
    O(n B), and no row once added.
    """
    n, k = v.shape
    c = _LIFT
    inv_sqrt = _inv_sqrt_degree(g)
    inside = np.zeros(n, dtype=bool)
    inside[held] = True
    rest = np.flatnonzero(~inside)
    r = rest.size
    pos = np.cumsum(~inside) - 1  # a node of R's row in T
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    link_w = side * inv_sqrt[lo] * inv_sqrt[hi]
    if held.size:  # the edges of R
        link = ~inside[lo] & ~inside[hi]
        lo, hi, link_w = lo[link], hi[link], link_w[link]
    link_row, link_col = pos[lo], pos[hi]  # the rows ascend, as g.edges is sorted
    cols, starts = _neighbours(g)
    deg = degree_vector(g).astype(np.int64)
    e, ut, eliminated = np.eye(k), math.sqrt(c) * v[rest].T, 0.0
    hop_row = hop_mid = hop_w = np.empty(0, dtype=np.int64)
    hop_diag = np.zeros(r)
    if held.size:  # else s may be 0
        # the edges i - a from I, ordered by a: every a is in R
        slot = _row_slots(starts, deg, held)
        near = pos[cols[slot]]
        order = np.argsort(near, kind="stable")
        hop_row, hop_mid = near[order], np.repeat(held, deg[held])[order]
        hop_w = inv_sqrt[hop_mid] * inv_sqrt[cols[slot[order]]]
        hop_diag = np.bincount(hop_row, hop_w * hop_w, r) / s
        # I's pivots s, and their columns of L: B's over s
        vi = v[held]
        column = float(np.vdot(hop_w, hop_w)) + c * float(np.vdot(vi, vi))
        eliminated = held.size * s + column / s
        e += (c / s) * (vi.T @ vi)
        # W = sqrt(c) (V_R - (side / s) A_RI V_I)
        through = np.stack([np.bincount(hop_row, hop_w * x, r) for x in v[hop_mid].T])
        ut -= (math.sqrt(c) * side / s) * through
    low = np.linalg.cholesky(e)  # E = I_k plus a positive semidefinite term
    _substitute(low, ut)  # G U^T = W^T
    eliminated += float(np.vdot(low, low)) + float(np.vdot(ut, ut))

    budget = max(n * _BLOCK // 8, 1)

    def add_rows(first: int, out: np.ndarray) -> float:
        end, width = first + out.shape[0], out.shape[1]
        near = ut[:, first:end].T
        for piece in range(0, width, _BLOCK):
            # a slice of the rank-k term at a time, not a second block row
            out[:, piece:piece + _BLOCK] += near @ ut[:, first + piece:first + piece + _BLOCK]
        diag = np.arange(end - first)
        out[diag, diag] += s - hop_diag[first:end]
        flat = out.reshape(-1)  # a view: out is C-contiguous
        links = slice(*np.searchsorted(link_row, (first, end)))
        np.add.at(flat, (link_row[links] - first) * width + link_col[links] - first, link_w[links])
        piece, stop = np.searchsorted(hop_row, (first, end)).tolist()
        while piece < stop:
            # the paths a - i - b from these rows' edges a - i, a piece at a time
            reach = np.cumsum(deg[hop_mid[piece:stop]])
            taken = slice(piece, piece + max(int(np.searchsorted(reach, budget, side="right")), 1))
            mids = hop_mid[taken]
            slot = _row_slots(starts, deg, mids)
            a, far = np.repeat(hop_row[taken], deg[mids]), pos[cols[slot]]
            upper = far > a
            path_w = (np.repeat(hop_w[taken] * inv_sqrt[mids], deg[mids])[upper]
                      * inv_sqrt[cols[slot[upper]]])
            np.add.at(flat, (a[upper] - first) * width + far[upper] - first, path_w / -s)
            piece = taken.stop
        return float(np.vdot(near, near)) + float(np.sum(s - hop_diag[first:end]))

    return eliminated, add_rows


#: Rows solved one at a time, by substitution, after one matrix product has
#: subtracted what the rows above them contribute (``_substitute``).  Below
#: about 32 the products grow narrow, above it the row-by-row part grows.
#: Median ms of 11 (5 at n = 4200) factorizations of a random SPD matrix's
#: ``_BLOCK``-high block rows, the range over two runs, same machine as
#: ``_BLOCK``'s table (128 solves every row of a block row one by one):
#:
#: ======  =======  =======  =======  =======  =======
#: n       8        16       32       64       128
#: ======  =======  =======  =======  =======  =======
#: 600     7        7        5-7      5-7      6-7
#: 1400    29-33    25-31    25-33    26-33    28-33
#: 4200    403-495  398-532  407-531  515-530  585-617
#: ======  =======  =======  =======  =======  =======
_SUB = 32


def _substitute(low: np.ndarray, x: np.ndarray) -> None:
    """Overwrite ``x`` with ``low^-1 x``, ``low`` lower triangular, by
    forward substitution, ``_SUB`` rows at a time: one product subtracts
    from the group's rows what the solved rows above contribute, and each
    row is then solved from the ones before it in its group.  Beside ``x``
    it holds ``_SUB`` of its rows."""
    width = low.shape[0]
    for first in range(0, width, _SUB):
        end = min(first + _SUB, width)
        if first:
            x[first:end] -= low[first:end, :first] @ x[:first]
        for i in range(first, end):
            if i > first:
                x[i] -= low[i, first:i] @ x[first:i]
            x[i] /= low[i, i]


def _factor_block_rows(add_rows: Callable[[int, np.ndarray], bool], order: int) -> bool:
    """Whether the symmetric matrix T of order ``order`` is positive
    definite to floating point, by a left-looking blocked Cholesky
    factorization ``T = R^T R`` (Golub & Van Loan, *Matrix Computations*,
    4.2) that forms each block row of T only when it factors it.
    ``add_rows(first, out)`` adds T's rows ``first..first + B`` of columns
    ``first..order``, ``B = min(_BLOCK, order - first)``, to ``out``, a
    C-contiguous ``(B, order - first)`` array of which the upper triangle
    is read, and returns whether to go on.

    Matrix products first set the block row to what the factor's rows
    above contribute, ``-R_<k,k^T R_<k,k:``, one product for each block row
    above and each quarter of the columns, and T's rows are added to it.
    Its diagonal block is then factored by ``np.linalg.cholesky`` of its
    transpose, which reads its upper triangle and fails exactly when the
    factorization meets a pivot that is not positive, and the panel right
    of it is solved against the block's factor by ``_substitute``.

    The factor's rows above block row k, of columns ``k B..order``, lie in
    one array of ``order^2 // 4`` floats.  Once the block row is factored
    no later row reads column block k, so every row above moves left over
    it, as many rows at a time as land before the first of them is read,
    and the block row's panel joins them.  So the routine holds at most
    ``order^2 / 4 + _BLOCK order`` floats, ``2 order^2 + 8 _BLOCK order``
    bytes, and O(order * _BLOCK) beside them.
    """
    held = np.empty(0)  # nothing lies above the first block row
    for first in range(0, order, _BLOCK):
        height, width = min(_BLOCK, order - first), order - first
        factor = held[:first * width].reshape(first, width)
        row = np.empty((height, width))
        # one product for each block row above, as the right-looking form takes
        # them, so that the BLAS packs no more of the operands; a quarter of the
        # columns at a time, so that each product's result is a small part of
        # the block row
        step = max(2 * _BLOCK, -(-width // 4))
        for piece in range(0, width, step):
            cols = slice(piece, piece + step)
            top = factor[:_BLOCK]  # empty while nothing is above: the product is zero
            np.matmul(top[:, :height].T, top[:, cols], out=row[:, cols])
            for above in range(_BLOCK, first, _BLOCK):
                rows = factor[above:above + _BLOCK]
                row[:, cols] += rows[:, :height].T @ rows[:, cols]
        np.negative(row, out=row)
        if not add_rows(first, row):
            return False
        try:
            low = np.linalg.cholesky(row[:, :height].T)
        except np.linalg.LinAlgError:
            return False
        panel = row[:, height:]
        _substitute(low, panel)  # R12 = R11^-T T12; R11 is read no more
        rest, moved = width - height, 0
        if not first:
            # allocated now, so not beside the first row's temporaries
            held = np.empty(order * order // 4)
        while rest and moved < first:
            # each row lands no later than it starts, and a group lands
            # before the first of its rows starts
            end = min(max((moved * width + height) // rest, moved + 1), first)
            held[moved * rest:end * rest].reshape(end - moved, rest)[...] = factor[moved:end, height:]
            moved = end
        held[first * rest:(first + height) * rest].reshape(height, rest)[...] = panel
        del row, panel  # before the next block row is formed
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
