"""Spectral regime prediction for the discrete gradient flow.

The residual-free flow ``F <- F + tau * A_bar F W`` diagonalizes over the
product of the Laplacian eigenbasis (frequencies lambda) and the weight
eigenbasis (channels mu): each mode is multiplied by ``1 + tau*mu*(1-lambda)``
per step.  The interplay of the most negative weight eigenvalue with the top
graph frequency against the most positive weight eigenvalue with frequency
zero decides whether the dynamics sharpens (dominant high frequency, Rayleigh
quotient -> lambda_max) or smooths (dominant low frequency, quotient -> 0).
This module computes exact closed-form states, classifies the regime,
certifies convergence rates, and predicts terminal directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FeatureState, ModelSpec
from .energy import as_features
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    HypothesisError,
    NumericError,
    RegimeError,
)
from .graphs import (
    Graph,
    graph_checks,
    laplacian_spectrum,
    require_connected,
    spectral_decomposition,
)

__all__ = [
    "RegimeReport",
    "HfdRates",
    "ProfilePrediction",
    "closed_form_features",
    "classify_regime",
    "convergence_rates",
    "asymptotic_profile",
    "TIE_TOL",
    "BOUNDARY_TOL",
]

#: Eigenvalues closer than this are treated as tied (degenerate).
TIE_TOL = 1e-9

#: Half-width of the band around rho_minus = mu_top flagged as Boundary.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the regime classification for one (graph, W, tau) triple.

    ``regime`` is one of ``"HFD"``, ``"LFD"``, ``"Boundary"``,
    ``"StepSizeViolated"``.  ``rho_minus = |mu_bottom| * (lambda_max - 1)`` is
    the high-frequency growth candidate, ``step_bound = 2/(tau*(2-lambda_max))``
    the stability threshold on ``|mu_bottom|`` (infinite on bipartite graphs),
    and the rate fields are populated only in the HFD regime.
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
class HfdRates:
    """Certified high-frequency convergence rates.

    ``delta`` bounds the per-step exponent of every subdominant mode,
    ``epsilon = rho_minus - delta`` style margins are reported via the
    contraction ``ratio = (1 + tau*delta) / (1 + tau*rho_minus) < 1``.
    """

    delta: float
    epsilon: float
    ratio: float


@dataclass(frozen=True)
class ProfilePrediction:
    """Predicted terminal behavior: unit direction (up to global sign),
    per-step norm growth factor, and — for flows with a genuine fixed point —
    the raw terminal matrix."""

    direction: np.ndarray
    growth: float
    label: str
    terminal: np.ndarray | None = None


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def closed_form_features(g: Graph, W, tau: float, m: int, F0) -> FeatureState:
    """Exact state of the residual-free flow after m steps, overflow-safe.

    Expands F0 over the frequency x channel eigenbasis, scales mode (l, r) by
    ``(1 + tau*mu_r*(1-lambda_l))^m`` in sign/log-magnitude arithmetic, pulls
    the largest log out into ``log_scale``, and maps back.  With m = 0 this
    reproduces F0 exactly.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ConfigurationError(f"step count m must be a nonnegative integer, got {m!r}")
    feats = as_features(g, F0)
    norm0 = float(np.linalg.norm(feats))
    if norm0 == 0.0:
        raise DegenerateInputError("initial features must be nonzero")
    tau = float(tau)

    lap = laplacian_spectrum(g)
    wpair = spectral_decomposition(np.asarray(W, dtype=float))
    if wpair.eigenvalues.shape[0] != feats.shape[1]:
        raise ConfigurationError(
            f"W must be {feats.shape[1]}x{feats.shape[1]} for these features"
        )
    coeff = lap.eigenvectors.T @ feats @ wpair.eigenvectors
    factors = 1.0 + tau * np.outer(1.0 - lap.eigenvalues, wpair.eigenvalues)

    if m == 0:
        return FeatureState(direction=feats / norm0, log_scale=float(np.log(norm0)))

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
    scaled = signs * np.exp(log_mag - peak)
    state = lap.eigenvectors @ scaled @ wpair.eigenvectors.T
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
    lam = laplacian_spectrum(g).eigenvalues
    lambda_max = float(lam[-1])
    wvals = spectral_decomposition(np.asarray(W, dtype=float)).eigenvalues
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
        rates = _hfd_rates(lam, wvals, tau, rho_minus)
        delta, epsilon, ratio = rates.delta, rates.epsilon, rates.ratio
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


def _hfd_rates(lam: np.ndarray, wvals: np.ndarray, tau: float, rho_minus: float) -> HfdRates:
    lambda_max = float(lam[-1])
    mu_bottom = float(wvals[0])
    mu_top = float(wvals[-1])
    gap_freq = _positive_gap(lambda_max - lam)  # spectrum of lambda_max*I - Laplacian
    gap_w = _positive_gap(abs(mu_bottom) + wvals)  # spectrum of |mu_bottom|*I + W

    delta_terms = [mu_top, abs(mu_bottom) - 2.0 / tau]
    eps_terms = [rho_minus - mu_top]
    if gap_freq is not None:
        delta_terms.append(rho_minus - abs(mu_bottom) * gap_freq)
        eps_terms.append(abs(mu_bottom) * gap_freq)
    if gap_w is not None:
        delta_terms.append(rho_minus - (lambda_max - 1.0) * gap_w)
        eps_terms.append(gap_w * (lambda_max - 1.0))
    delta = max(delta_terms)
    epsilon = min(eps_terms)
    ratio = (1.0 + tau * delta) / (1.0 + tau * rho_minus)
    return HfdRates(delta=delta, epsilon=epsilon, ratio=ratio)


def convergence_rates(g: Graph, W, tau: float) -> HfdRates:
    """Certified subdominant/dominant rate pair; defined only in the HFD regime."""
    report = classify_regime(g, W, tau)
    if report.regime != "HFD":
        raise RegimeError(
            f"convergence rates are defined in the HFD regime only; "
            f"classification here is {report.regime}"
        )
    return HfdRates(
        delta=report.delta_hfd, epsilon=report.epsilon_hfd, ratio=report.rate_ratio
    )


# ---------------------------------------------------------------------------
# asymptotic profiles
# ---------------------------------------------------------------------------

def asymptotic_profile(g: Graph, spec: ModelSpec, F0) -> ProfilePrediction:
    """Predict the terminal direction (up to sign) and per-step growth.

    Supported variants: the residual-free gradient flow (dominant-eigenspace
    block projection in either regime), the discarding update (kernel profile
    paired with the largest-|mu| channel; needs a non-bipartite graph), the
    random-walk diffusion (per-channel means), and the harmonic-metric flow
    (degree-profile limit plus the kernel-channel component of F0).
    """
    require_connected(g, "asymptotic prediction")
    feats = as_features(g, F0)
    norm0 = float(np.linalg.norm(feats))
    if norm0 == 0.0:
        raise DegenerateInputError("initial features must be nonzero")
    if spec.variant not in _PROFILES:
        raise ConfigurationError(f"no asymptotic prediction for variant {spec.variant!r}")
    return _PROFILES[spec.variant](g, spec, feats, norm0)


def _block_projection(
    feats: np.ndarray,
    freq_vectors: np.ndarray,
    chan_vectors: np.ndarray,
) -> np.ndarray:
    """Project features onto span(freq block) x span(channel block)."""
    pf = freq_vectors @ (freq_vectors.T @ feats)
    return pf @ chan_vectors @ chan_vectors.T


def _checked_direction(block: np.ndarray, norm0: float, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(block))
    if norm < 1e-10 * norm0:
        raise DegenerateInputError(
            f"initial features have (numerically) no component on {what}; "
            "the prediction is undefined for this measure-zero input"
        )
    return block / norm


def _gradient_flow_profile(
    g: Graph, spec: ModelSpec, feats: np.ndarray, norm0: float
) -> ProfilePrediction:
    w = spec.weights
    if w is None or np.any(w.Omega != 0.0) or w.has_source:
        raise ConfigurationError(
            "the spectral prediction covers the residual-free, source-free flow "
            "(Omega = 0, Wtilde = 0)"
        )
    report = classify_regime(g, w.W, spec.tau)
    if report.regime == "Boundary":
        raise RegimeError(
            "the growth candidates tie at the regime boundary; no prediction"
        )
    if report.regime == "StepSizeViolated":
        raise RegimeError(
            "the step size violates the stability bound; the high-frequency "
            "expansion does not apply"
        )
    lap = laplacian_spectrum(g)
    wpair = spectral_decomposition(w.W)
    if report.regime == "HFD":
        freq_sel = lap.eigenvalues >= report.lambda_max - TIE_TOL
        chan_sel = wpair.eigenvalues <= report.mu_bottom + TIE_TOL
        growth = 1.0 + spec.tau * report.rho_minus
        what = "the top-frequency / bottom-channel block"
    else:
        freq_sel = lap.eigenvalues <= lap.eigenvalues[0] + TIE_TOL
        chan_sel = wpair.eigenvalues >= report.mu_top - TIE_TOL
        growth = 1.0 + spec.tau * report.mu_top
        what = "the frequency-zero / top-channel block"
    block = _block_projection(
        feats, lap.eigenvectors[:, freq_sel], wpair.eigenvectors[:, chan_sel]
    )
    direction = _checked_direction(block, norm0, what)
    return ProfilePrediction(direction=direction, growth=growth, label=report.regime)


def _no_residual_profile(
    g: Graph, spec: ModelSpec, feats: np.ndarray, norm0: float
) -> ProfilePrediction:
    if graph_checks(g).bipartite:
        raise HypothesisError(
            "the discarding update is low-frequency dominant on non-bipartite "
            "graphs only; this graph is bipartite"
        )
    wpair = spectral_decomposition(spec.weights.W)
    amax = float(np.abs(wpair.eigenvalues).max())
    if amax <= 1e-12:
        raise DegenerateInputError("W vanishes; the update is identically zero")
    sel = np.abs(np.abs(wpair.eigenvalues) - amax) <= TIE_TOL
    if np.any(wpair.eigenvalues[sel] > 0) and np.any(wpair.eigenvalues[sel] < 0):
        raise DegenerateInputError(
            "largest-|mu| channels tie across both signs; the direction "
            "alternates and has no single limit"
        )
    lap = laplacian_spectrum(g)
    freq_sel = lap.eigenvalues <= lap.eigenvalues[0] + TIE_TOL
    block = _block_projection(
        feats, lap.eigenvectors[:, freq_sel], wpair.eigenvectors[:, sel]
    )
    direction = _checked_direction(
        block, norm0, "the kernel-profile / largest-|mu| block"
    )
    return ProfilePrediction(
        direction=direction, growth=spec.tau * amax, label="LFD"
    )


def _grand_profile(
    g: Graph, spec: ModelSpec, feats: np.ndarray, norm0: float
) -> ProfilePrediction:
    means = feats.mean(axis=0)
    terminal = np.ones((g.n, 1)) @ means[None, :]
    direction = _checked_direction(terminal.copy(), norm0, "the constant profile")
    return ProfilePrediction(
        direction=direction, growth=1.0, label="mean-limit", terminal=terminal
    )


def _harmonic_profile(
    g: Graph, spec: ModelSpec, feats: np.ndarray, norm0: float
) -> ProfilePrediction:
    w = spec.weights.W
    metric = w @ w  # W is symmetric, so this is the Gram matrix of the metric
    mpair = spectral_decomposition(metric)
    kernel = mpair.eigenvalues <= 1e-12
    lap = laplacian_spectrum(g)
    phi0 = lap.eigenvectors[:, 0]
    coeff = phi0 @ feats @ mpair.eigenvectors  # frequency-zero channel coefficients
    phi_inf = mpair.eigenvectors[:, ~kernel] @ coeff[~kernel]
    terminal = np.outer(phi0, phi_inf)
    if np.any(kernel):
        p_ker = mpair.eigenvectors[:, kernel] @ mpair.eigenvectors[:, kernel].T
        terminal = terminal + feats @ p_ker
    direction = _checked_direction(terminal.copy(), norm0, "the preserved modes")
    return ProfilePrediction(
        direction=direction, growth=1.0, label="harmonic-limit", terminal=terminal
    )


#: The variants with a terminal prediction; ``cli`` reports one for these keys.
_PROFILES = {
    "gradient_flow": _gradient_flow_profile,
    "no_residual": _no_residual_profile,
    "grand_linear": _grand_profile,
    "harmonic": _harmonic_profile,
}
