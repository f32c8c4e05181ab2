"""Spectral prediction for the linear message-passing flows.

A homogeneous linear step ``F <- r F + tau sum_k P_k F M_k`` (the rows of
``dynamics``' update table without a source or an activation) has graph
operators that are functions of the normalized Laplacian: I -> 1,
A_hat -> 1 - lambda, L -> lambda.  It therefore splits into independent
graph frequencies lambda_l, and at each one the step is a single d x d
matrix ``S(lambda_l) = r I + tau sum_k p_k(lambda_l) M_k`` acting on the
row of F's Laplacian coefficients.  With symmetric channel factors every
S(lambda_l) is symmetric, and one batched ``eigh`` of the (n, d, d) stack
gives modes (l, j) that the step multiplies by ``s_lj`` each time.  This
covers gradient_flow (any symmetric Omega, also one not commuting with W),
no_residual, graff, heat, label_propagation, cgnn, pde_gcn_d, harmonic and
laplacian_omega_eq_w; source-coupled, nonlinear and grand_linear specs
(GRAND steps with its own random-walk operator) and a non-symmetric
OmegaTilde have no such form.

The modes with the largest ``|s|`` dominate: at lambda = 0 the dynamics
smooths (Rayleigh quotient -> 0), at lambda_max it sharpens (quotient ->
lambda_max).  For the residual-free flow ``F + tau A_hat F W`` this is the
contest of the most negative weight eigenvalue at the top frequency
against the most positive one at frequency zero, which ``classify_regime``
decides from the spectra of L and W alone and certifies with rates.
This module computes exact closed-form states, classifies the regime,
certifies convergence rates, and predicts terminal directions.

The closed form needs every mode and reads the full ``laplacian_spectrum``.
The regime, the rates and the terminal profile need only the two ends of
the spectrum and read ``extreme_spectrum``: the eigenpairs at 0 and at
lambda_max and the next eigenvalue inward from each.  The profile may do
so because ``|S(lambda)|_2`` is convex in lambda (S is affine in lambda
and symmetric), so over the eigenvalues between the two ends it peaks at
lambda_2 or at the one below lambda_max.  It first bounds them by ``|S|``
at 0 and below lambda_max, and reads lambda_2, whose certificate then
runs, only when that bound reaches the dominant ``|s|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import FeatureState, ModelSpec, _reference
from .energy import _frobenius_norm
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    HypothesisError,
    NumericError,
    RegimeError,
    ValidationError,
)
from .graphs import (
    TIE_TOL,
    Graph,
    check_count,
    degree_vector,
    extreme_spectrum,
    graph_checks,
    laplacian_spectrum,
    require_connected,
    spectral_decomposition,
    square_matrix,
)

__all__ = [
    "RegimeReport",
    "ProfilePrediction",
    "closed_form_features",
    "classify_regime",
    "asymptotic_profile",
    "TIE_TOL",
    "BOUNDARY_TOL",
]

#: Half-width of the band around rho_minus = mu_top flagged as Boundary.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the regime classification for one (graph, W, tau) triple.

    ``regime`` is one of ``"HFD"``, ``"LFD"``, ``"Boundary"``,
    ``"StepSizeViolated"``.  ``rho_minus = |mu_bottom| * (lambda_max - 1)`` is
    the high-frequency growth candidate, ``step_bound = 2/(tau*(2-lambda_max))``
    the stability threshold on ``|mu_bottom|`` (infinite on bipartite graphs).
    The certified rates are set in the HFD regime only, None otherwise:
    ``delta_hfd`` bounds the per-step exponent of every subdominant mode,
    ``epsilon_hfd`` is the spectral margin by which ``rho_minus`` leads them,
    and the contraction ``rate_ratio = (1 + tau*delta_hfd) / (1 + tau*rho_minus)``
    is below 1.
    """

    regime: str
    rho_minus: float
    mu_top: float
    mu_bottom: float
    lambda_max: float
    tau: float
    step_bound: float
    delta_hfd: float | None = None
    epsilon_hfd: float | None = None
    rate_ratio: float | None = None


@dataclass(frozen=True)
class ProfilePrediction:
    """Predicted terminal behavior: unit direction (up to global sign),
    per-step norm growth factor, for flows with a genuine fixed point the
    raw terminal matrix, and the per-step factor by which the rest shrinks
    against the dominant modes (None for grand_linear)."""

    direction: np.ndarray
    growth: float
    label: str
    terminal: np.ndarray | None = None
    contraction: float | None = None


# ---------------------------------------------------------------------------
# the mode-wise engine and the closed form
# ---------------------------------------------------------------------------

class _Modes(NamedTuple):
    """One homogeneous linear step, mode by mode, at the Laplacian
    eigenvalues ``lam`` with eigenvectors the columns of ``basis``:
    ``factors[l]`` and the columns of ``vectors[l]`` are the eigenpairs of
    S(lam[l]), and ``coeff[l, j]`` is the component of F0 on mode (l, j)."""

    lam: np.ndarray  # (k,)
    basis: np.ndarray  # (n, k)
    factors: np.ndarray  # (k, d)
    vectors: np.ndarray  # (k, d, d)
    coeff: np.ndarray  # (k, d)

    def synthesize(self, amplitudes: np.ndarray) -> np.ndarray:
        """The n x d features with the given amplitude on each mode."""
        rows = np.einsum("lj,lkj->lk", amplitudes, self.vectors)
        return self.basis @ rows


def _step_matrices(spec: ModelSpec, d: int, lam: np.ndarray) -> np.ndarray:
    """``S(lambda) = r I + tau sum_k p_k(lambda) M_k`` from the spec's update
    terms at each lambda in ``lam``, as a (len(lam), d, d) stack."""
    if not spec.is_homogeneous:
        raise ConfigurationError(
            f"variant {spec.variant!r} is not homogeneous linear here (it has "
            "a source or an activation); it has no mode-wise form"
        )
    per_op = {"I": np.ones_like(lam), "A": 1.0 - lam, "L": lam}
    update = spec._update
    stack = np.tile(float(update.residual) * np.eye(d), (lam.size, 1, 1))
    for op, factor in update.terms:
        if not isinstance(op, str):
            raise ConfigurationError(
                f"variant {spec.variant!r} steps with its own operator, not "
                "a function of the normalized Laplacian; it has no mode-wise form"
            )
        try:
            m = square_matrix(factor * np.eye(d) if np.ndim(factor) == 0 else factor,
                              "channel factor", symmetric=True)
        except ValidationError:
            raise ConfigurationError(
                f"variant {spec.variant!r} has a non-symmetric channel factor; "
                "the mode-wise form needs symmetric ones"
            ) from None
        stack += spec.tau * per_op[op][:, None, None] * m
    return stack


def _modes(spec: ModelSpec, feats: np.ndarray, lam: np.ndarray, basis: np.ndarray) -> _Modes:
    """Diagonalize S at the eigenvalues ``lam`` (eigenvectors ``basis``) and
    expand the checked F0 over the modes."""
    factors, vectors = np.linalg.eigh(_step_matrices(spec, feats.shape[1], lam))
    coeff = np.einsum("lk,lkj->lj", basis.T @ feats, vectors)
    return _Modes(lam, basis, factors, vectors, coeff)


def closed_form_features(g: Graph, spec: ModelSpec, m: int, F0) -> FeatureState:
    """Exact state of a homogeneous linear spec after m steps, overflow-safe.

    Expands F0 over the modes of S(lambda), scales mode (l, j) by
    ``s_lj^m`` in sign/log-magnitude arithmetic, pulls the largest log out
    into ``log_scale``, and maps back.  With m = 0 this reproduces F0
    exactly.  Source-coupled, nonlinear and grand_linear specs, and a
    non-symmetric channel factor, raise ``ConfigurationError``.
    """
    m = check_count(m, "step count m")
    feats, norm0 = _reference(spec, g, F0)
    lap = laplacian_spectrum(g)
    modes = _modes(spec, feats, lap.eigenvalues, lap.eigenvectors)
    if m == 0:
        return FeatureState(direction=feats / norm0, log_scale=float(np.log(norm0)))

    coeff, factors = modes.coeff, modes.factors
    alive = (coeff != 0.0) & (factors != 0.0)
    if not np.any(alive):
        raise NumericError("every mode is annihilated: the state collapses to zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.where(
            alive, np.log(np.abs(coeff)) + m * np.log(np.abs(factors)), -np.inf
        )
    signs = np.where(
        alive, np.sign(coeff) * np.where(factors < 0.0, (-1.0) ** m, 1.0), 0.0
    )
    peak = float(np.max(log_mag))
    state = modes.synthesize(signs * np.exp(log_mag - peak))
    norm = float(np.linalg.norm(state))
    return FeatureState(direction=state / norm, log_scale=peak + float(np.log(norm)))


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def classify_regime(g: Graph, W, tau: float) -> RegimeReport:
    """Decide the asymptotic frequency regime of the residual-free flow.

    With a genuinely negative bottom weight eigenvalue the high-frequency
    candidate ``rho_minus = |mu_bottom|*(lambda_max-1)`` competes against
    ``mu_top``: the larger wins (HFD needs ``|mu_bottom|`` below the stability
    bound, else StepSizeViolated), a tie within 1e-9 is Boundary.  Without
    negative spectrum there is no repulsion: any positive ``mu_top`` gives
    LFD, and W ~ 0 is Boundary (the flow is the identity).
    """
    require_connected(g, "regime classification")
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0:
        raise ConfigurationError(f"step size tau must be positive, got {tau!r}")
    ends = extreme_spectrum(g)
    lambda_max = ends.lambda_max
    wvals = spectral_decomposition(square_matrix(W, "W", symmetric=True)).eigenvalues
    mu_bottom = float(wvals[0])
    mu_top = float(wvals[-1])
    rho_minus = abs(mu_bottom) * (lambda_max - 1.0)
    if lambda_max >= 2.0 - 1e-12:
        step_bound = np.inf
    else:
        step_bound = 2.0 / (tau * (2.0 - lambda_max))

    if mu_bottom < 0.0:
        if abs(rho_minus - mu_top) <= BOUNDARY_TOL:
            regime = "Boundary"
        elif rho_minus > mu_top:
            regime = "HFD" if abs(mu_bottom) < step_bound else "StepSizeViolated"
        else:
            regime = "LFD"
    else:
        # no repulsive spectrum: the dynamics can only smooth
        regime = "LFD" if mu_top > 1e-12 else "Boundary"

    delta = epsilon = ratio = None
    if regime == "HFD":
        delta, epsilon, ratio = _hfd_rates(lambda_max, ends.below_top, wvals, tau, rho_minus)
    return RegimeReport(
        regime=regime,
        rho_minus=rho_minus,
        mu_top=mu_top,
        mu_bottom=mu_bottom,
        lambda_max=lambda_max,
        tau=tau,
        step_bound=float(step_bound),
        delta_hfd=delta,
        epsilon_hfd=epsilon,
        rate_ratio=ratio,
    )


def _positive_gap(values: np.ndarray) -> float | None:
    """Smallest entry above the tie tolerance, or None if there is none."""
    positive = values[values > TIE_TOL]
    return float(positive.min()) if positive.size else None


def _hfd_rates(
    lambda_max: float, below_top: float, wvals: np.ndarray, tau: float, rho_minus: float
) -> tuple[float, float, float]:
    """The rates ``delta``, ``epsilon`` and ``ratio`` of :class:`RegimeReport`
    from the top frequency gap ``lambda_max - below_top``, the smallest
    positive eigenvalue of ``lambda_max I - L``."""
    mu_bottom = float(wvals[0])
    mu_top = float(wvals[-1])
    gap_freq = lambda_max - below_top
    gap_w = _positive_gap(abs(mu_bottom) + wvals)  # spectrum of |mu_bottom|*I + W

    delta_terms = [mu_top, abs(mu_bottom) - 2.0 / tau, rho_minus - abs(mu_bottom) * gap_freq]
    eps_terms = [rho_minus - mu_top, abs(mu_bottom) * gap_freq]
    if gap_w is not None:
        delta_terms.append(rho_minus - (lambda_max - 1.0) * gap_w)
        eps_terms.append(gap_w * (lambda_max - 1.0))
    delta = max(delta_terms)
    epsilon = min(eps_terms)
    ratio = (1.0 + tau * delta) / (1.0 + tau * rho_minus)
    return delta, epsilon, ratio


# ---------------------------------------------------------------------------
# asymptotic profiles
# ---------------------------------------------------------------------------

def asymptotic_profile(g: Graph, spec: ModelSpec, F0) -> ProfilePrediction:
    """Predict the terminal direction (up to sign) and per-step growth.

    Covers every homogeneous linear spec the mode-wise engine covers (see
    the module docstring), plus grand_linear, whose limit is the mean of
    F0 weighted by ``deg + 1``.  The dominant modes are those with the
    largest ``|s|``, within ``TIE_TOL * max(1, |s|)``; their projection of
    F0 is the terminal direction, ``|s|`` the growth, and ``contraction``
    the largest other ``|s|`` over it.  The modes are those of
    ``extreme_spectrum``, and ``|s|`` between its two ends is bounded by
    its values at 0 and at ``below_top``, or, when that bound ties the
    dominant ``|s|``, read at lambda_2 and ``below_top`` (see the module
    docstring); when that still ties, the full ``laplacian_spectrum`` gives
    every mode.
    Tie rules, in order:

    - ``|s|`` vanishes everywhere: ``DegenerateInputError``.
    - dominant factors of both signs alternate without a limit:
      ``HypothesisError`` on a bipartite graph (where lambda = 2 mirrors
      lambda = 0), ``DegenerateInputError`` otherwise.
    - the label is ``LFD`` when every dominant mode sits at lambda = 0,
      ``HFD`` when every one sits at lambda_max; dominant modes that span
      the spectrum are a regime boundary (``RegimeError``) unless their
      factor is +1 (label ``fixed-point``).
    - a dominant factor of +1 (heat, harmonic) also fills in ``terminal``.
    - F0 without a component on the dominant modes: ``DegenerateInputError``.
    """
    require_connected(g, "asymptotic prediction")
    feats, norm0 = _reference(spec, g, F0)
    if spec.variant == "grand_linear":
        return _grand_profile(g, feats, norm0)
    ends = extreme_spectrum(g)
    modes = _modes(
        spec,
        feats,
        np.concatenate((ends.bottom.eigenvalues, ends.top.eigenvalues)),
        np.hstack((ends.bottom.eigenvectors, ends.top.eigenvectors)),
    )
    mags = np.abs(modes.factors)

    def inner_mags(lam: np.ndarray) -> np.ndarray:
        return np.abs(np.linalg.eigvalsh(_step_matrices(spec, feats.shape[1], lam)))

    # every eigenvalue between the clusters lies in [bottom, below_top], where
    # the convex |s| is at most the larger of its values at the two ends: the
    # bottom modes' |s| and |s| at below_top; only a bound that reaches the
    # tie reads lambda_2
    inner = inner_mags(np.array([ends.below_top]))
    bound = max(float(mags[: ends.bottom.eigenvalues.size].max()), float(inner.max()))
    if bound >= _tie(max(float(mags.max()), float(inner.max()))):
        inner = inner_mags(ends.interior)
    top = max(float(mags.max()), float(inner.max(initial=0.0)))
    if top <= 1e-12:
        raise DegenerateInputError("the update vanishes; every mode is annihilated")
    tie = _tie(top)
    if inner.size and float(inner.max()) >= tie:
        # an eigenvalue between the ends may be dominant: read every mode
        lap = laplacian_spectrum(g)
        modes = _modes(spec, feats, lap.eigenvalues, lap.eigenvectors)
        mags, inner = np.abs(modes.factors), inner[:0]
    dominant = mags >= tie
    dominant_factors = modes.factors[dominant]
    if dominant_factors.min() < 0.0 < dominant_factors.max():
        if graph_checks(g).bipartite:
            raise HypothesisError(
                "the dominant factors tie across both signs on this bipartite "
                "graph; the direction alternates and has no single limit"
            )
        raise DegenerateInputError(
            "the dominant factors tie across both signs; the direction "
            "alternates and has no single limit"
        )
    lam = modes.lam
    dominant_lam = lam[dominant.any(axis=1)]
    fixed = bool(np.all(np.abs(dominant_factors - 1.0) <= TIE_TOL))
    if np.all(dominant_lam <= lam[0] + TIE_TOL):
        label = "LFD"
    elif np.all(dominant_lam >= lam[-1] - TIE_TOL):
        label = "HFD"
    elif fixed:
        label = "fixed-point"
    else:
        raise RegimeError(
            "the dominant factor is shared by low and high frequencies "
            "(regime boundary); no prediction"
        )
    block = modes.synthesize(np.where(dominant, modes.coeff, 0.0))
    direction = _checked_direction(block, norm0, "the dominant modes")
    rest = np.concatenate((mags[~dominant], inner.ravel()))
    return ProfilePrediction(
        direction=direction,
        growth=top,
        label=label,
        terminal=block if fixed else None,
        contraction=float(rest.max()) / top if rest.size else 0.0,
    )


def _tie(top: float) -> float:
    """The least ``|s|`` that ties the largest, ``top``."""
    return top - TIE_TOL * max(top, 1.0)


def _checked_direction(block: np.ndarray, norm0: float, what: str) -> np.ndarray:
    norm = _frobenius_norm(block)
    if norm < 1e-10 * norm0:
        raise DegenerateInputError(
            f"initial features have (numerically) no component on {what}; "
            "the prediction is undefined for this measure-zero input"
        )
    return block / norm


def _grand_profile(g: Graph, feats: np.ndarray, norm0: float) -> ProfilePrediction:
    # D~^-1 A~ (A~ = A + I) is a random walk whose stationary law is
    # proportional to deg + 1, so the step conserves that weighted mean
    weights = degree_vector(g) + 1.0
    means = (weights @ feats) / float(weights.sum())
    terminal = np.ones((g.n, 1)) @ means[None, :]
    direction = _checked_direction(terminal, norm0, "the constant profile")
    return ProfilePrediction(
        direction=direction, growth=1.0, label="mean-limit", terminal=terminal
    )
