"""Undirected graphs, their normalized operators, and dense spectra.

Everything here is dense and aimed at desk-scale instances (n up to a couple
of thousand nodes): adjacency matrices are materialized as numpy arrays and
all eigendecompositions go through ``numpy.linalg.eigh``.

Operators and spectra are cached per graph, so ``Graph`` is immutable and
hashable (the hash is computed once, so a cache lookup costs O(1), not
O(m)); cached arrays are returned read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ParseError, ValidationError

__all__ = [
    "Graph",
    "SpectralPair",
    "GraphChecks",
    "from_edge_list",
    "complete_bipartite",
    "cycle",
    "path",
    "erdos_renyi",
    "adjacency_matrix",
    "degree_vector",
    "edge_array",
    "normalized_adjacency",
    "normalized_laplacian",
    "spectral_decomposition",
    "laplacian_spectrum",
    "graph_checks",
]

#: Entrywise tolerance beyond which a matrix is considered genuinely asymmetric.
SYMMETRY_TOL = 1e-12

#: Orthonormality / reconstruction tolerance for eigendecompositions.
SPECTRAL_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n : int
        Number of nodes (positive).
    edges : iterable of (int, int)
        Undirected edges.  Pairs are canonicalized to ``u < v``, duplicates
        collapse, and self-loops are rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValidationError(f"node count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValidationError(f"node count must be positive, got {self.n}")
        canon = set()
        for pair in self.edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise ValidationError(f"edge {pair!r} is not a pair of nodes") from None
            u, v = int(u), int(v)
            if u == v:
                raise ValidationError(f"self-loop at node {u} is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(
                    f"edge ({u}, {v}) references a node outside 0..{self.n - 1}"
                )
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        object.__setattr__(self, "_hash", hash((self.n, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:  # keep reprs short; edge lists can be long
        return f"Graph(n={self.n}, m={self.num_edges})"


@dataclass(frozen=True)
class SpectralPair:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.  Signs are fixed so
    the largest-magnitude entry of each eigenvector is positive (ties broken
    by lowest index), which makes decompositions reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class GraphChecks(NamedTuple):
    connected: bool
    bipartite: bool


# ---------------------------------------------------------------------------
# construction from text
# ---------------------------------------------------------------------------

def from_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a :class:`Graph`.

    Format: one ``u v`` pair per line, ``#`` starts a comment, blank lines are
    skipped, and an optional ``n <count>`` header line fixes the node count
    (otherwise it is ``max index + 1``).  Errors carry 1-based line numbers.
    """
    n_declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_node = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    if not edges:
        raise ParseError("edge list is empty: no 'u v' lines found")
    n = n_declared if n_declared is not None else max_node + 1
    return Graph(n=n, edges=tuple(edges))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}: part A = 0..a-1, part B = a..a+b-1."""
    _require_positive(a, "a")
    _require_positive(b, "b")
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(n=a + b, edges=edges)


def cycle(n: int) -> Graph:
    """Cycle graph C_n (requires n >= 3)."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValidationError(f"cycle needs n >= 3, got {n!r}")
    return Graph(n=int(n), edges=tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    """Path graph P_n (requires n >= 2)."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"path needs n >= 2, got {n!r}")
    return Graph(n=int(n), edges=tuple((i, i + 1) for i in range(n - 1)))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Connected Erdos-Renyi graph G(n, p).

    Samples each of the n(n-1)/2 possible edges independently with
    probability ``p``.  If the draw is disconnected the seed is incremented
    and the draw repeated, up to 100 attempts.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"erdos_renyi needs n >= 2, got {n!r}")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"edge probability must be in (0, 1], got {p!r}")
    for attempt in range(100):
        rng = np.random.default_rng(int(seed) + attempt)
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < p
        edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
        g = Graph(n=int(n), edges=edges)
        if graph_checks(g).connected:
            return g
    raise ValidationError(
        f"could not generate a connected graph in 100 attempts "
        f"(n={n}, p={p}, base seed {seed})"
    )


def _require_positive(value: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


# ---------------------------------------------------------------------------
# dense operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix of ``g`` (read-only)."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    a.setflags(write=False)
    return a


@lru_cache(maxsize=512)
def degree_vector(g: Graph) -> np.ndarray:
    d = adjacency_matrix(g).sum(axis=1)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=512)
def edge_array(g: Graph) -> np.ndarray:
    """Edges as an (m, 2) int array, rows sorted, u < v (read-only)."""
    arr = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=512)
def normalized_adjacency(g: Graph) -> np.ndarray:
    """Degree-normalized adjacency D^{-1/2} A D^{-1/2} (read-only).

    Raises a validation error naming the first isolated node, since the
    normalization divides by sqrt(degree).
    """
    d = degree_vector(g)
    isolated = np.flatnonzero(d == 0)
    if isolated.size:
        raise ValidationError(
            f"node {int(isolated[0])} is isolated (degree 0); "
            "normalized operators require minimum degree 1"
        )
    inv_sqrt = 1.0 / np.sqrt(d)
    bar_a = adjacency_matrix(g) * np.outer(inv_sqrt, inv_sqrt)
    bar_a.setflags(write=False)
    return bar_a


@lru_cache(maxsize=512)
def normalized_laplacian(g: Graph) -> np.ndarray:
    """Normalized Laplacian I - D^{-1/2} A D^{-1/2} (read-only)."""
    lap = np.eye(g.n) - normalized_adjacency(g)
    lap.setflags(write=False)
    return lap


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def square_matrix(value, name: str, d=None, symmetric=False) -> np.ndarray:
    """Validate a nonempty, finite, square float matrix (``d x d`` if given);
    ``symmetric`` rejects asymmetry above SYMMETRY_TOL * max(1, max |M|) and
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
    asym = float(np.abs(m - m.T).max())
    if asym > SYMMETRY_TOL * scale:
        raise ValidationError(
            f"{name} must be symmetric within {SYMMETRY_TOL:g} "
            f"(max |M - M^T| = {asym:.3e}); use make_weights('symmetrize', ...) "
            "to symmetrize intentionally"
        )
    return 0.5 * m + 0.5 * m.T  # halving first cannot overflow


def spectral_decomposition(matrix: np.ndarray) -> SpectralPair:
    """Eigendecomposition of a symmetric matrix with deterministic signs.

    The input is checked and symmetrized by :func:`square_matrix`.  The
    returned eigenvector signs follow the largest-magnitude-entry-positive
    convention, ties broken by lowest index.
    """
    sym = square_matrix(matrix, "matrix", symmetric=True)
    values, vectors = np.linalg.eigh(sym)
    vectors = _fix_eigenvector_signs(vectors)

    ident = vectors.T @ vectors - np.eye(sym.shape[0])
    if float(np.abs(ident).max()) > SPECTRAL_TOL:
        raise NumericError("eigenvector matrix failed the orthonormality check")
    if not np.all(np.isfinite(values)):
        raise NumericError("an eigenvalue exceeds the floating range")
    # |V diag(values) V^T - sym| vs |sym| = |values|, over max |sym| to stay finite
    scale = float(np.abs(sym).max()) or 1.0
    residual = (vectors * values) @ vectors.T
    residual -= sym
    residual /= scale
    norm = float(np.linalg.norm(values / scale))
    if float(np.linalg.norm(residual)) > SPECTRAL_TOL * norm:
        raise NumericError("eigendecomposition failed the reconstruction check")

    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralPair(eigenvalues=values, eigenvectors=vectors)


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    fixed = np.array(vectors)
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        pivot = int(np.argmax(np.abs(col)))  # argmax takes the lowest index on ties
        if col[pivot] < 0:
            fixed[:, k] = -col
    return fixed


@lru_cache(maxsize=512)
def laplacian_spectrum(g: Graph) -> SpectralPair:
    """Cached spectral decomposition of the normalized Laplacian of ``g``."""
    return spectral_decomposition(normalized_laplacian(g))


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def graph_checks(g: Graph) -> GraphChecks:
    """Connectivity and bipartiteness via breadth-first 2-coloring."""
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)

    color = np.full(g.n, -1, dtype=np.int64)
    bipartite = True
    components = 0
    for start in range(g.n):
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
    return GraphChecks(connected=(components == 1), bipartite=bipartite)


def require_connected(g: Graph, context: str) -> None:
    """Raise a validation error if ``g`` is disconnected."""
    if not graph_checks(g).connected:
        raise ValidationError(f"{context} requires a connected graph")
