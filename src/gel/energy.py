"""Energies on graph features and their gradients.

Features live in R^{n x d}: one row per node, one column per channel.  The
Dirichlet energy measures smoothness in the degree-normalized metric; the
parametric energy adds channel-mixing weights, a residual term, and a source
coupling to reference features, and the flow field returned by
:func:`energy_gradient` is minus one half of its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericError, ValidationError
from .graphs import (
    Graph,
    _adjacency_product,
    degree_vector,
    scalar,
    spectral_decomposition,
    square_matrix,
    vector,
)

__all__ = [
    "WeightSet",
    "EnergyBreakdown",
    "dirichlet_energy",
    "rayleigh_quotient",
    "parametric_energy",
    "lp_energy",
    "energy_gradient",
    "energy_decomposition",
    "make_weights",
]

#: Eigenvalues of W with magnitude below this go to neither factor of the
#: attraction/repulsion split.
KERNEL_TOL = 1e-12


@dataclass(frozen=True)
class WeightSet:
    """The parametric energy's three weights.

    ``W`` (required) fixes the channel count d.  ``Omega`` (residual term)
    and ``Wtilde`` (source coupling) default to zeros.  ``W`` and ``Omega``
    must be symmetric within 1e-12 and are stored exactly symmetric by
    averaging with their transposes; ``Wtilde`` may be arbitrary.  GRAFF's
    diagonal ``omega_diag`` and scalar ``beta`` are ``ModelSpec`` fields.
    """

    W: np.ndarray
    Omega: np.ndarray = None  # type: ignore[assignment]
    Wtilde: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        w = square_matrix(self.W, "W", symmetric=True)
        d = w.shape[0]
        omega = (
            np.zeros((d, d))
            if self.Omega is None
            else square_matrix(self.Omega, "Omega", d, symmetric=True)
        )
        wtilde = (
            np.zeros((d, d))
            if self.Wtilde is None
            else square_matrix(self.Wtilde, "Wtilde", d)
        )
        for arr in (w, omega, wtilde):
            arr.setflags(write=False)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "Omega", omega)
        object.__setattr__(self, "Wtilde", wtilde)

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @cached_property
    def has_source(self) -> bool:
        return bool(np.any(self.Wtilde != 0.0))

    @cached_property
    def has_residual(self) -> bool:
        return bool(np.any(self.Omega != 0.0))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Parametric energy split into its sign-definite parts.

    ``total = graph_independent + attraction - repulsion`` with
    ``attraction >= 0`` and ``repulsion >= 0``.
    """

    total: float
    graph_independent: float
    attraction: float
    repulsion: float


def as_features(g: Graph, F, name: str = "F") -> np.ndarray:
    """Validate features against ``g``: one row per node, float, finite."""
    arr = np.asarray(F, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] != g.n:
        raise ValidationError(
            f"{name} must be an (n, d) array with n={g.n} rows, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _frobenius_norm(x: np.ndarray) -> float:
    """|x|_F of a finite x.  Only when the plain sum of squares overflows is
    x rescaled by max |x| first, so every other value is numpy's own."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if np.isfinite(norm):
        return norm
    peak = float(np.abs(x).max())
    norm = peak * float(np.linalg.norm(x / peak))
    if not np.isfinite(norm):
        raise NumericError("the features' norm exceeds the floating range")
    return norm


def _edge_rows(g: Graph):
    """The map from features F to the rows of ``F / sqrt(deg)`` at the head
    and at the tail of each edge (one row per edge); looks up the degrees
    and edges of ``g`` once, so a loop can reuse it."""
    sqrt_deg = np.sqrt(degree_vector(g))[:, None]
    head, tail = np.ascontiguousarray(g.edges[:, 1]), np.ascontiguousarray(g.edges[:, 0])

    def rows(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scaled = F / sqrt_deg
        return np.take(scaled, head, axis=0), np.take(scaled, tail, axis=0)

    return rows


def dirichlet_energy(g: Graph, F) -> float:
    """Graph Dirichlet energy of ``F`` in the degree-normalized metric.

    Half the sum over ordered adjacent pairs of
    ``|f_j / sqrt(d_j) - f_i / sqrt(d_i)|^2``; zero exactly on multiples of
    the square-root-degree profile.  The edge-difference form is used.  It
    is cross-checked against the Laplacian trace form
    ``|F|^2 - trace(F^T A_hat F)`` within ``1e-9 max(1, |F|^2, |value|)``,
    as the trace form's rounding grows with ``|F|^2``; a disagreement is a
    NumericError, and a trace form that overflows is not compared.  An
    energy beyond the floating range is a NumericError too.
    """
    feats = as_features(g, F)
    head, tail = _edge_rows(g)(feats)
    # overflow is reported as the NumericError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = head - tail
        value = float(np.sum(diffs * diffs))
        sq = float(np.sum(feats * feats))
        trace_form = sq - float(np.sum(feats * _adjacency_product(g, feats)))
    if not np.isfinite(value):
        raise NumericError("the Dirichlet energy exceeds the floating range")
    if np.isfinite(trace_form) and abs(value - trace_form) > 1e-9 * max(1.0, sq, abs(value)):
        raise NumericError(
            f"the Dirichlet energy disagrees with its trace form: {value!r} vs {trace_form!r}"
        )
    return value


def rayleigh_quotient(g: Graph, F) -> float:
    """Dirichlet energy per unit squared norm; lies in [0, lambda_max].  Only
    when |F|^2 is not a positive normal float is F rescaled by max |F| first."""
    feats = as_features(g, F)
    with np.errstate(over="ignore"):
        sq = float(np.sum(feats * feats))
    if not np.finfo(float).tiny <= sq < np.inf:
        peak = float(np.abs(feats).max())
        if peak == 0.0:
            raise ValidationError("rayleigh_quotient is undefined for zero features")
        feats = feats / peak
        sq = float(np.sum(feats * feats))
    return dirichlet_energy(g, feats) / sq


def parametric_energy(g: Graph, F, weights: WeightSet, F0=None) -> float:
    """Parametric energy: residual + pairwise mixing + source coupling.

    ``trace(F^T F Omega) - trace(F^T A_bar F W) + 2 trace(F^T F0 Wtilde)``,
    oriented so that central finite differences of this scalar equal minus
    twice :func:`energy_gradient`.
    """
    feats = as_features(g, F)
    _check_channels(weights.d, feats)
    source = _require_source(g, F0, weights.d) if weights.has_source else None
    mixing = float(np.sum((_adjacency_product(g, feats) @ weights.W) * feats))
    return _parametric_value(feats, mixing, weights, source)


def _parametric_value(F: np.ndarray, mixing: float, weights: WeightSet, F0) -> float:
    """The parametric energy of validated ``F`` given its pairwise mixing term
    ``mixing = trace(F^T A_bar F W)``; ``F0`` is the validated reference, or
    None when ``weights`` has no source.  An all-zero Omega adds nothing and
    is skipped, as a run's plan skips a zero factor."""
    value = -mixing
    if weights.has_residual:
        value += float(np.sum((F @ weights.Omega) * F))
    if F0 is not None:
        value += 2.0 * float(np.sum(F * (F0 @ weights.Wtilde)))
    return value


def lp_energy(g: Graph, Y, Y0, mu: float) -> float:
    """Label-propagation energy: Dirichlet term plus soft clamping to Y0."""
    if scalar(mu, "mu") < 0:
        raise ValidationError(f"clamping strength mu must be nonnegative, got {mu!r}")
    y = as_features(g, Y)
    y0 = as_features(g, Y0, name="Y0")
    if y.shape != y0.shape:
        raise ValidationError(f"Y and Y0 must agree in shape, got {y.shape} vs {y0.shape}")
    return dirichlet_energy(g, y) + float(mu) * float(np.sum((y - y0) ** 2))


def energy_gradient(g: Graph, F, weights: WeightSet, F0=None) -> np.ndarray:
    """Minus one half the parametric-energy gradient: -F Omega + A_bar F W - F0 Wtilde.

    This is the flow field of the gradient-flow dynamics; finite differences
    of :func:`parametric_energy` recover minus twice this array.
    """
    feats = as_features(g, F)
    _check_channels(weights.d, feats)
    grad = -feats @ weights.Omega + _adjacency_product(g, feats) @ weights.W
    if weights.has_source:
        grad = grad - _require_source(g, F0, weights.d) @ weights.Wtilde
    return grad


def energy_decomposition(g: Graph, F, weights: WeightSet) -> EnergyBreakdown:
    """Split the source-free parametric energy into attraction and repulsion.

    W is eigen-split into positive and negative parts (|eigenvalue| < 1e-12
    goes to neither); the attraction term sums squared positive-part edge
    gradients, repulsion the negative-part ones, and the graph-independent
    term is ``sum_i <f_i, (Omega - W) f_i>``.  The recomposed total must match
    :func:`parametric_energy` to 1e-9 relative.
    """
    feats = as_features(g, F)
    _check_channels(weights.d, feats)
    if weights.has_source:
        raise ValidationError(
            "energy_decomposition is defined for source-free weights (Wtilde = 0)"
        )
    pair = spectral_decomposition(weights.W)
    head, tail = _edge_rows(g)(feats)
    diffs = head - tail

    def half_sum(mask: np.ndarray) -> float:
        if not np.any(mask):
            return 0.0
        theta = np.sqrt(np.abs(pair.eigenvalues[mask]))[:, None] * pair.eigenvectors[:, mask].T
        return float(np.sum((diffs @ theta.T) ** 2))

    attraction = half_sum(pair.eigenvalues > KERNEL_TOL)
    repulsion = half_sum(pair.eigenvalues < -KERNEL_TOL)
    graph_independent = float(
        np.einsum("ia,ab,ib->", feats, weights.Omega - weights.W, feats)
    )
    total = graph_independent + attraction - repulsion

    reference = parametric_energy(g, feats, weights)
    if abs(total - reference) > 1e-9 * max(1.0, abs(reference)):
        raise NumericError(
            f"energy decomposition is inconsistent with the parametric energy: "
            f"{total!r} vs {reference!r}"
        )
    return EnergyBreakdown(
        total=total,
        graph_independent=graph_independent,
        attraction=attraction,
        repulsion=repulsion,
    )


def make_weights(mode: str, *, W0=None, diag=None, q=None, r=None) -> np.ndarray:
    """Construct a symmetric weight matrix W.

    Modes
    -----
    ``symmetrize``
        ``(W0 + W0^T) / 2`` for an arbitrary square ``W0``.
    ``diagonal``
        ``diag(diag)`` from a vector of channel weights.
    ``diag_dom``
        ``diag(w) + W0`` with ``w_a = q_a * sum_b |W0_ab| + r_a`` for a
        symmetric zero-diagonal ``W0``; with q >= 1, r >= 0 the result is
        diagonally dominant, hence positive semidefinite (Gershgorin).
    """
    if mode == "symmetrize":
        if W0 is None:
            raise ConfigurationError("make_weights('symmetrize') needs W0")
        m = square_matrix(W0, "W0")
        return 0.5 * m + 0.5 * m.T  # halving first cannot overflow
    if mode == "diagonal":
        if diag is None:
            raise ConfigurationError("make_weights('diagonal') needs diag")
        return np.diag(vector(diag, "diag"))
    if mode == "diag_dom":
        if W0 is None or q is None or r is None:
            raise ConfigurationError("make_weights('diag_dom') needs W0, q and r")
        m = square_matrix(W0, "W0", symmetric=True)
        if float(np.abs(np.diag(m)).max()) > KERNEL_TOL:
            raise ValidationError("diag_dom needs W0 with zero diagonal")
        d = m.shape[0]
        qv, rv = vector(q, "q", d), vector(r, "r", d)
        w = qv * np.abs(m).sum(axis=1) + rv
        return np.diag(w) + m
    raise ConfigurationError(
        f"unknown weight constructor mode {mode!r}; "
        "expected symmetrize, diagonal or diag_dom"
    )


def _check_channels(d: int | None, feats: np.ndarray, owner: str = "weights") -> None:
    if d is not None and d != feats.shape[1]:
        raise ValidationError(
            f"{owner} have d={d} channels but features have {feats.shape[1]}"
        )


def _require_source(g: Graph, F0, d: int) -> np.ndarray:
    if F0 is None:
        raise ConfigurationError("the source term needs reference features F0")
    source = as_features(g, F0, name="F0")
    if source.shape[1] != d:
        raise ValidationError(f"F0 must have d={d} channels, got {source.shape[1]}")
    return source
