"""Explicit-Euler dynamics for the message-passing model family.

Every variant is one update, ``F_next = r F + tau sigma(sum_k P_k F M_k + F0 S)``,
with graph operators P_k in {I, A = A_hat, L = I - A, Lrw} (Lrw: the
random-walk Laplacian of the self-loop-augmented graph, for GRAND), channel
factors M_k (d x d, or scalars; every sign lives here, never on an n x n
operator), a source S on the reference features F0 that is off when zero
(for cgnn: when source_free is set), r = 0 only for no_residual, and sigma
the identity except for the nonlinear variants.  The last column is the
energy of the unit direction F that ``Trajectory.energy`` (CSV column
``parametric_energy_direction``) reports:

variant                  terms (P_k, M_k)           S        r  energy column
gradient_flow            (I, -Omega), (A, W)        -Wtilde  1  parametric(W, Omega, Wtilde)
gradient_flow_nonlinear  as gradient_flow, sigma    -Wtilde  1  parametric(W, Omega, Wtilde)
no_residual              (I, 0), (A, W)             -        0  parametric(W)
graff                    (I, -diag(omega)), (A, W)  -beta I  1  parametric(W, diag(omega), beta I)
graff_nonlinear          as graff, sigma            -beta I  1  parametric(W, diag(omega), beta I)
heat                     (L, -1)                    -        1  dirichlet(F)
label_propagation        (L, -1), (I, -mu)          mu       1  lp(F, F0, mu)
cgnn                     (L, -1), (I, OmegaTilde)   1        1  dirichlet(F)
grand_linear             (Lrw, -1)                  -        1  dirichlet(F)
pde_gcn_d                (L, -KtK)                  -        1  dirichlet(F)
harmonic                 (L, -W W)                  -        1  dirichlet(F W)
laplacian_omega_eq_w     (L, -W)                    -        1  sum_e <dF_e W, dF_e>
diag_nonlinear           (L, -diag(omega)), sigma   -        1  dirichlet(F)

dirichlet(F W) and the last form are sums over the per-edge differences dF_e
of the degree-normalized features; both equal their trace forms
(parametric(W W, W W) and parametric(W, Omega=W)) but stay accurate, and
nonnegative for PSD W, once a run has converged.

``step_model`` applies a single step.  ``trajectory_states`` iterates it with
overflow-safe bookkeeping and yields each state as it is reached, keeping
none; ``run_trajectory`` records the CSV columns of each, so a run's memory is
O(n d + steps), not O(steps n d).

Cost model: each step does one dense operator product, ``AF = A_hat F``,
which its A and L terms share (I -> F, A -> AF, L -> F - AF); grand_linear
does its own ``Lrw F`` instead.  The CSV columns of each recorded state
need no dense product: they come from one gather of the degree-normalized
rows at both ends of every edge, in O(m d).  The Dirichlet energy is the sum
of the squared per-edge differences, the Rayleigh quotient that value over
|F|^2, the parametric energy's mixing term ``trace(F^T A_hat F W)`` twice the
per-edge sum of ``<head_e W, tail_e>``, the LP energy the Dirichlet value plus
``mu |F - F0|^2``.  In debug runs (asserts on) each state's Dirichlet value
is cross-checked against the trace form ``|F|^2 - trace(F^T A_hat F)``, its
second part summed over the same edges, also in O(m d).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .energy import (
    WeightSet,
    _check_channels,
    _check_trace_form,
    _edge_rows,
    _parametric_value,
    _require_source,
    as_features,
    dirichlet_energy,  # noqa: F401  (perfbench traces gel.dynamics.dirichlet_energy)
)
from .errors import ConfigurationError, NumericError, ValidationError
from .graphs import (
    Graph,
    adjacency_matrix,
    degree_vector,
    normalized_adjacency,
    spectral_decomposition,
    square_matrix,
)

__all__ = [
    "ModelSpec",
    "FeatureState",
    "Trajectory",
    "VARIANTS",
    "LINEAR_VARIANTS",
    "NONLINEAR_VARIANTS",
    "ACTIVATIONS",
    "normalize_variant",
    "step_model",
    "run_trajectory",
    "trajectory_states",
    "spectral_filter_step",
    "random_walk_laplacian",
]


class _State(NamedTuple):
    """A recorded unit direction ``x`` and what its diagnostics share: the
    rows of ``x / sqrt(deg)`` at the ``head`` and ``tail`` of each edge,
    their differences ``diffs``, ``dirichlet`` the sum of squares of those
    and ``ref`` the run's reference features F0."""

    x: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    diffs: np.ndarray
    dirichlet: float
    ref: np.ndarray


class _Update(NamedTuple):
    """One row of the module docstring's table.  A term's operator is "I",
    "A" (A_hat) or "L" (I - A_hat), the last two read off one product
    ``A_hat F``, or a ``Graph -> matrix`` function (GRAND's Lrw) that
    multiplies F itself; ``reads_af`` says whether a term needs that product
    and is set by ``ModelSpec``.  ``energy`` defaults to the Dirichlet energy."""

    terms: tuple[tuple[str | Callable[[Graph], np.ndarray], np.ndarray | float], ...]
    source: np.ndarray | float | None = None
    residual: bool = True
    energy: Callable[[_State], float] = lambda s: s.dirichlet
    activation: Callable[[np.ndarray], np.ndarray] | None = None
    reads_af: bool = False


def _parametric(w: WeightSet):
    has_source = w.has_source

    def energy(s: _State) -> float:
        # trace(x^T A_hat x W) = 2 sum_e <head_e W, tail_e> for symmetric W
        mixing = 2.0 * float(np.sum((s.head @ w.W) * s.tail))
        return _parametric_value(s.x, mixing, w, s.ref if has_source else None)

    return energy


def _flow(w: WeightSet, residual: bool = True) -> _Update:
    """The gradient flow of the parametric energy with weights ``w``."""
    return _Update(
        terms=(("I", -w.Omega), ("A", w.W)),
        source=-w.Wtilde if w.has_source else None,
        residual=residual,
        energy=_parametric(w),
    )


def _graff_weights(spec: ModelSpec) -> WeightSet:
    """GRAFF's diagonal residual and scalar source as parametric weights."""
    w = spec.weights
    return WeightSet(W=w.W, Omega=np.diag(w.omega_diag), Wtilde=w.beta * np.eye(w.d))


# The builders below validate what they read and store canonical copies on
# the spec; they run once, inside ModelSpec.__post_init__.

def _label_propagation(spec: ModelSpec) -> _Update:
    mu = float(spec.mu)
    if not np.isfinite(mu) or mu < 0:
        raise ValidationError(f"label propagation needs mu >= 0, got {spec.mu!r}")
    object.__setattr__(spec, "mu", mu)
    return _Update(
        terms=(("L", -1.0), ("I", -mu)),
        source=mu if mu > 0.0 else None,
        energy=lambda s: s.dirichlet + mu * float(np.sum((s.x - s.ref) ** 2)),
    )


def _cgnn(spec: ModelSpec) -> _Update:
    ot = square_matrix(spec.OmegaTilde, "OmegaTilde")
    ot.setflags(write=False)
    object.__setattr__(spec, "OmegaTilde", ot)
    return _Update(
        terms=(("L", -1.0), ("I", ot)),
        source=None if spec.source_free else 1.0,
    )


def _pde_gcn_d(spec: ModelSpec) -> _Update:
    ktk = square_matrix(spec.KtK, "KtK", symmetric=True)
    if float(np.linalg.eigvalsh(ktk).min()) < -1e-10:
        raise ValidationError("KtK must be positive semidefinite")
    ktk.setflags(write=False)
    object.__setattr__(spec, "KtK", ktk)
    return _Update(terms=(("L", -ktk),))


def _diag_nonlinear(spec: ModelSpec) -> _Update:
    omega = spec.weights.omega_diag
    if np.any(omega > 1e-12):
        raise ValidationError(
            "diag_nonlinear requires nonpositive channel weights omega_diag"
        )
    return _Update(terms=(("L", np.diag(-omega)),))


class _Entry(NamedTuple):
    required: str | None  # the ModelSpec field the variant cannot do without
    build: Callable[[ModelSpec], _Update]
    nonlinear: bool = False


_TABLE: dict[str, _Entry] = {
    "gradient_flow": _Entry("weights", lambda s: _flow(s.weights)),
    "gradient_flow_nonlinear": _Entry("weights", lambda s: _flow(s.weights), True),
    "no_residual": _Entry("weights", lambda s: _flow(WeightSet(W=s.weights.W), False)),
    "graff": _Entry("weights", lambda s: _flow(_graff_weights(s))),
    "graff_nonlinear": _Entry("weights", lambda s: _flow(_graff_weights(s)), True),
    "heat": _Entry(None, lambda s: _Update((("L", -1.0),))),
    "label_propagation": _Entry(None, _label_propagation),
    "cgnn": _Entry("OmegaTilde", _cgnn),
    "grand_linear": _Entry(None, lambda s: _Update(((random_walk_laplacian, -1.0),))),
    "pde_gcn_d": _Entry("KtK", _pde_gcn_d),
    "harmonic": _Entry(
        "weights",
        lambda s: _Update(
            (("L", -(s.weights.W @ s.weights.W)),),
            energy=lambda st: float(np.sum((st.diffs @ s.weights.W) ** 2)),
        ),
    ),
    "laplacian_omega_eq_w": _Entry(
        "weights",
        lambda s: _Update(
            (("L", -s.weights.W),),
            energy=lambda st: float(np.sum((st.diffs @ s.weights.W) * st.diffs)),
        ),
    ),
    "diag_nonlinear": _Entry("weights", _diag_nonlinear, True),
}

VARIANTS = frozenset(_TABLE)
NONLINEAR_VARIANTS = frozenset(v for v, entry in _TABLE.items() if entry.nonlinear)
LINEAR_VARIANTS = VARIANTS - NONLINEAR_VARIANTS


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _tanh_relu(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.maximum(x, 0.0))


#: Named entrywise activations; every entry satisfies x * sigma(x) >= 0.
ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda x: x,
    "relu": _relu,
    "tanh": np.tanh,
    "tanh_relu": _tanh_relu,
}


def normalize_variant(name: str) -> str:
    """Accept CamelCase, ACRONYM or snake_case variant names; return the
    canonical tag (e.g. ``GradientFlow``, ``GRAFF``, ``PDE-GCN_D`` all work)."""
    if not isinstance(name, str):
        raise ConfigurationError(f"variant must be a string, got {name!r}")
    text = name.strip().replace("-", "_")
    # underscore at lower->Upper boundaries and before the last capital of an
    # acronym run followed by a word (GRANDLinear -> GRAND_Linear)
    snake = re.sub(
        r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "_", text
    ).lower()
    snake = re.sub(r"__+", "_", snake)
    aliases = {
        "pde_gcnd": "pde_gcn_d",
        "pdegcnd": "pde_gcn_d",
        "grand": "grand_linear",
    }
    snake = aliases.get(snake, snake)
    if snake not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}"
        )
    return snake


def resolve_sigma(sigma) -> Callable[[np.ndarray], np.ndarray]:
    if callable(sigma):
        return sigma
    if isinstance(sigma, str) and sigma in ACTIVATIONS:
        return ACTIVATIONS[sigma]
    raise ConfigurationError(
        f"unknown activation {sigma!r}; expected a callable or one of "
        f"{sorted(ACTIVATIONS)}"
    )


def _check_admissible_sigma(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Sample the activation, require x * sigma(x) >= 0 everywhere, return it."""
    xs = np.linspace(-5.0, 5.0, 1000)
    ys = np.asarray(fn(xs), dtype=float)
    if ys.shape != xs.shape or not np.all(np.isfinite(ys)):
        raise ValidationError("activation must map finite reals to finite reals")
    if float(np.min(xs * ys)) < -1e-12:
        raise ValidationError(
            "activation is inadmissible: x * sigma(x) < 0 at a sampled point"
        )
    return fn


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one dynamics: variant tag plus its parameters.

    ``weights`` feeds the weight-based variants (W, Omega, Wtilde, omega_diag,
    beta); ``mu`` is the label-propagation clamping strength; ``KtK`` the
    constant positive-semidefinite channel metric of the diffusion-with-metric
    variant; ``OmegaTilde`` the channel mixer of the residual-diffusion
    variant, whose constant source is dropped when ``source_free`` is set.
    """

    variant: str
    weights: WeightSet | None = None
    tau: float = 0.5
    sigma: str | Callable[[np.ndarray], np.ndarray] = "identity"
    mu: float = 0.0
    KtK: np.ndarray | None = None
    OmegaTilde: np.ndarray | None = None
    source_free: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        tau = float(self.tau)
        if not np.isfinite(tau) or tau <= 0:
            raise ValidationError(f"step size tau must be positive, got {self.tau!r}")
        object.__setattr__(self, "tau", tau)

        entry = _TABLE[self.variant]
        if entry.required is not None and getattr(self, entry.required) is None:
            raise ConfigurationError(f"variant {self.variant!r} needs {entry.required}")
        if entry.required == "weights" and not isinstance(self.weights, WeightSet):
            raise ConfigurationError("weights must be a WeightSet")
        activation = None
        if entry.nonlinear:
            activation = _check_admissible_sigma(resolve_sigma(self.sigma))
        elif not (self.sigma == "identity" or self.sigma is None):
            raise ConfigurationError(
                f"variant {self.variant!r} is linear; an activation is only "
                "accepted by the *_nonlinear and diag_nonlinear variants"
            )
        update = entry.build(self)
        update = update._replace(
            activation=activation,
            reads_af=any(op in ("A", "L") for op, _ in update.terms),
        )
        object.__setattr__(self, "_update", update)

    @property
    def channels(self) -> int | None:
        if self.weights is not None:
            return self.weights.d
        if self.OmegaTilde is not None:
            return self.OmegaTilde.shape[0]
        if self.KtK is not None:
            return self.KtK.shape[0]
        return None

    @property
    def has_active_source(self) -> bool:
        """True when the update couples to the reference features F0."""
        return self._update.source is not None

    @property
    def is_homogeneous(self) -> bool:
        """True when one step commutes with rescaling the state."""
        return self._update.activation is None and not self.has_active_source


@dataclass(frozen=True)
class FeatureState:
    """Features as a unit-Frobenius direction times exp(log_scale)."""

    direction: np.ndarray
    log_scale: float

    def features(self) -> np.ndarray:
        """Materialize the raw feature matrix (may overflow for huge scales)."""
        return self.direction * float(np.exp(self.log_scale))


@dataclass(frozen=True)
class Trajectory:
    """Per-step diagnostics of one run, plus the final overflow-safe state.

    Arrays have one entry per recorded step, including the initial state at
    index 0.  The states themselves are not kept; ``trajectory_states``
    yields them one at a time.
    """

    steps: np.ndarray
    times: np.ndarray
    rayleigh: np.ndarray
    dirichlet: np.ndarray
    energy: np.ndarray
    log_scale: np.ndarray
    final: FeatureState


@lru_cache(maxsize=512)
def random_walk_laplacian(g: Graph) -> np.ndarray:
    """Random-walk Laplacian I - D^{-1} A of the self-loop-augmented graph."""
    a = adjacency_matrix(g) + np.eye(g.n)
    d = degree_vector(g) + 1.0
    lap = np.eye(g.n) - a / d[:, None]
    lap.setflags(write=False)
    return lap


# overflow is reported as the NumericError below, not as a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def step_model(spec: ModelSpec, g: Graph, F, F0=None) -> np.ndarray:
    """One explicit-Euler step of the chosen variant.

    Sums the variant's ``P_k F M_k`` terms and its source ``F0 S``, applies
    sigma (the identity for the linear family), and returns
    ``F + tau * sigma(Z)``, or ``tau * Z`` for the discarding variant.  The
    A and L terms share one product ``A_hat F``.
    """
    feats = as_features(g, F)
    _check_channels(spec.channels, feats, "model parameters")
    update = spec._update
    af = normalized_adjacency(g) @ feats if update.reads_af else None
    z = 0
    for op, m in update.terms:
        if op == "I":
            product = feats
        elif op == "A":
            product = af
        elif op == "L":
            product = feats - af
        else:
            product = op(g) @ feats
        # np.dot multiplies by a scalar factor and matrix-multiplies by a d x d one
        z = z + np.dot(product, m)
    if update.source is not None:
        z = z + np.dot(_require_source(g, F0, feats.shape[1]), update.source)
    if update.activation is not None:
        z = update.activation(z)
    out = feats + spec.tau * z if update.residual else spec.tau * z
    if not np.all(np.isfinite(out)):
        raise NumericError(
            "step produced non-finite values (overflow); use run_trajectory, "
            "which keeps homogeneous linear dynamics renormalized"
        )
    return out


def trajectory_states(spec: ModelSpec, g: Graph, F0, steps: int) -> Iterator[FeatureState]:
    """Check the inputs, then iterate ``step_model`` ``steps`` times, yielding
    each state (the initial one first) as it is reached and keeping none.

    Homogeneous linear runs are renormalized to unit Frobenius norm after
    every step, the removed log-factor accumulating in ``log_scale``;
    source-coupled and nonlinear runs iterate the raw state, whose norm gives
    ``log_scale``.  Overflow or collapse raises a numeric error naming the step.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValidationError(f"steps must be a nonnegative integer, got {steps!r}")
    feats = as_features(g, F0)
    _check_channels(spec.channels, feats, "model parameters")
    norm = float(np.linalg.norm(feats))
    if norm == 0.0:
        raise ValidationError("initial features must be nonzero")
    return _states(spec, g, feats, norm, int(steps))


def _states(spec, g, reference, norm, steps) -> Iterator[FeatureState]:
    renormalize = spec.is_homogeneous
    direction, log_scale = reference / norm, float(np.log(norm))
    yield FeatureState(direction, log_scale)
    state = direction if renormalize else reference
    for k in range(1, steps + 1):
        try:
            state = step_model(spec, g, state, F0=reference)
        except NumericError:  # the step overflowed; step_model checks that
            norm = np.inf
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                norm = float(np.linalg.norm(state))
        if not np.isfinite(norm) or norm == 0.0:
            what = "collapsed to zero" if norm == 0.0 else "overflowed"
            raise NumericError(f"state {what} at step {k}; reduce tau or the steps")
        direction = state / norm
        log_scale = (log_scale if renormalize else 0.0) + float(np.log(norm))
        if renormalize:
            state = direction
        yield FeatureState(direction, log_scale)


def run_trajectory(spec: ModelSpec, g: Graph, F0, steps: int) -> Trajectory:
    """The CSV columns of every state ``trajectory_states`` yields, and the
    last state.  The columns of a state are edge sums in O(m d); the step's
    ``A_hat`` product is the only dense one.
    """
    states = trajectory_states(spec, g, F0, steps)
    reference = as_features(g, F0)  # source / clamping reference, in raw units
    count = int(steps) + 1
    rayleigh, dirichlet, energy, log_scale = (np.empty(count) for _ in range(4))
    energy_of = spec._update.energy
    edge_rows = _edge_rows(g)
    for k, state in enumerate(states):
        x = state.direction
        head, tail = edge_rows(x)
        diffs = head - tail
        value = float(np.sum(diffs * diffs))
        sq = float(np.sum(x * x))
        if __debug__:
            # trace form |x|^2 - trace(x^T A_hat x), with the A_hat part summed
            # over the edges: it holds only if the degrees match the edge list
            _check_trace_form(value, sq - 2.0 * float(np.sum(head * tail)))
        rayleigh[k] = value / sq
        dirichlet[k] = value
        energy[k] = energy_of(_State(x, head, tail, diffs, value, reference))
        log_scale[k] = state.log_scale
    return Trajectory(
        steps=np.arange(count),
        times=np.arange(count) * spec.tau,
        rayleigh=rayleigh,
        dirichlet=dirichlet,
        energy=energy,
        log_scale=log_scale,
        final=state,
    )


def spectral_filter_step(g: Graph, W, tau: float, F) -> np.ndarray:
    """The gradient-flow step applied channel-wise in the eigenbasis of W.

    Diagonalizing W decouples the update into d independent scalar filters
    ``z_r <- z_r + tau * mu_r * A_bar z_r``; mapping back must agree with
    ``step_model`` for the residual-free gradient flow to machine precision.
    """
    feats = as_features(g, F)
    pair = spectral_decomposition(square_matrix(W, "W", feats.shape[1]))
    z = feats @ pair.eigenvectors
    z = z + float(tau) * (normalized_adjacency(g) @ z) * pair.eigenvalues[None, :]
    return z @ pair.eigenvectors.T
