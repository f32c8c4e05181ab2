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

A run checks its inputs once, on entry (``_reference``: F0's rows, finite
values, channels, a nonzero norm), and builds a plan (``_Plan``) of what
its steps share.  Its loop calls ``step_model`` once a step with that plan,
which skips the input checks and the scan of the result for non-finite
values; what guards each step is the state's norm, which the loop takes
anyway to renormalize or to record ``log_scale``: a state whose norm is
not finite or is zero raises a ``NumericError`` naming the step.  Called
without a plan, ``step_model`` checks F and F0 and scans its result.

Cost model: a run folds its terms once (``_fold``), with ``L = I - A``,
into one channel factor M_I of F and one M_A of ``AF = A_hat F``, so a step
is ``F M_I + AF M_A``: one operator product and at most two channel
products, a factor that is exactly zero skipped and a factor of exactly 1
added without a multiply.  label_propagation, for one, steps as
``z = F (-1 - mu); z += AF; z += F0 mu; z *= tau; z += F``, five passes over
n d floats where the term by term sum took seven.  grand_linear does its own
``Lrw F = F - (A F + F) / (deg + 1)`` instead, with
``A F = sqrt(deg) A_hat (sqrt(deg) F)`` and its degree factors formed once a
run.  The product's form is picked once a run, for the run's width, by
``graphs._product_for``, the one rule that ``graphs._adjacency_product``
also applies: an O(m d) sum over the edges on a sparse graph
(``2 m d < n^2 / 8``), in jagged-diagonal slots when n d is large against
the maximum degree, and one dense O(n^2 d) product otherwise, so a sparse
run never builds an n x n matrix.  On ``erdos_renyi(1000, 0.008, 7)`` at
d = 8 (the ``run_er1000_lp`` benchmark's graph and width), on a 2-vCPU Xeon
with numpy 2.4.6 and OpenBLAS, the slot product takes about 70
microseconds (its gather about 40, its adds about 29), the rest of the
label-propagation step about 15, the loop's norm and direction about 10 and
the record below about 25: about 0.13 ms a step (minimum of repeats),
against about 0.18 ms before the fold, the flat scales and the passes
below.

The CSV columns of a state x between the first and the last are read off
the product ``A x`` that the next step forms, in O(n d) (``_product_state``):
the Dirichlet energy is ``D = <x', x - A x>`` with x deflated of the kernel
vector ``phi0 = sqrt(deg) / |sqrt(deg)|``, ``x' = x - phi0 (phi0^T x)``
(equal to ``<x', L x'>`` as ``A phi0 = phi0``), the Rayleigh quotient
``D / |x|^2``, the parametric energy's mixing term ``trace(x^T A_hat x W)``
the dot ``<A x, x W>``, the LP energy ``D + mu |x - F0|^2``.  x' is the one
array the record makes: a BLAS rank-one product into it and ``x -`` it in
place.  D is the difference of the dots ``<x', x>`` and ``<x', A x>``,
``|x|^2`` is ``|x'|^2 + |phi0^T x|^2``, and a raw run's ``A x`` is the
step's product of the raw state, whose dots the record divides by that
state's norm.  A zero Omega adds no term to the parametric energy.  The
first and the last state, and every state of a run that falls back, take the edge
form instead (``_edge_state``): one gather of the degree-normalized rows at
both ends of every edge, in O(m d), D the sum of the squared per-edge
differences and the mixing term twice the per-edge sum of
``<head_e W, tail_e>``.  A run falls back on a disconnected graph, on an
update that forms no ``A x`` (grand_linear) and on an energy read off the
per-edge differences (harmonic, laplacian_omega_eq_w); a state falls back
when its deflated value is not above ``_DEFLATED_FLOOR |x'|^2``, so no
Dirichlet entry is ever negative.  The loop asserts nothing, so a run
computes the same with and without ``python -O``.  A property in
``tests/test_graph_properties.py`` checks each state's D against the trace
form ``|x|^2 - trace(x^T A_hat x)`` within 1e-9, with A_hat built from the
edges alone, so degrees that disagree with the edges fail it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .energy import (
    WeightSet,
    _check_channels,
    _edge_rows,
    _frobenius_norm,
    _parametric_value,
    _require_source,
    as_features,
    dirichlet_energy,  # noqa: F401  (perfbench traces gel.dynamics.dirichlet_energy)
)
from .errors import ConfigurationError, DegenerateInputError, NumericError, ValidationError
from .graphs import (
    Graph,
    _adjacency_product,
    _floats,
    _product_for,
    _require_memory,
    check_count,
    degree_vector,
    graph_checks,
    scalar,
    spectral_decomposition,
    square_matrix,
    vector,
)

__all__ = [
    "ModelSpec",
    "FeatureState",
    "Trajectory",
    "VARIANTS",
    "ACTIVATIONS",
    "normalize_variant",
    "step_model",
    "run_trajectory",
    "trajectory_states",
    "spectral_filter_step",
]


_Map = Callable[[np.ndarray], np.ndarray]


class _State(NamedTuple):
    """A recorded unit direction ``x`` and what its diagnostics share: its
    Dirichlet value ``dirichlet``, ``sq = |x|^2``, the run's reference
    features ``ref`` (F0), and either the product form or the edge form.
    The product form holds ``ax = A_hat (scale x)``, the product the step
    from x formed, with ``scale`` the norm of the raw state that step read
    (1 on a renormalized run).  The edge form holds the rows of
    ``x / sqrt(deg)`` at the ``head`` and ``tail`` of each edge and their
    differences ``diffs``."""

    x: np.ndarray
    dirichlet: float
    sq: float
    ref: np.ndarray
    ax: np.ndarray | None = None
    scale: float = 1.0
    head: np.ndarray | None = None
    tail: np.ndarray | None = None
    diffs: np.ndarray | None = None


#: A state's columns are read off ``A x`` only when its deflated Dirichlet
#: value ``D = <x', x - A x>`` exceeds this fraction of ``|x'|^2``.  The
#: rounding of ``A x``, about eps |x| per entry, puts an error of about
#: ``eps |x| |x'|`` on D, a relative one of ``eps |x| / (q |x'|)`` with
#: ``q = D / |x'|^2``; the edge form's differences carry the same rounding,
#: squared, for ``2 eps |x| / (sqrt(q) |x'|)``.  ``q > 1e-3`` bounds the
#: first by ``eps / q = 2.2e-13`` when ``|x'|`` is near ``|x|``, under a
#: fourth of the 1e-12 the columns are tested to, and by
#: ``1 / (2 sqrt(q)) < 16`` times the edge form's otherwise.  States at the
#: rounding floor next to the kernel, where D is noise of either sign, and
#: smooth states of graphs with a tiny lambda_2 fall below it.
_DEFLATED_FLOOR = 1e-3


class _Update(NamedTuple):
    """One row of the module docstring's table.  A term's operator is "I",
    "A" (A_hat) or "L" (I - A_hat), which a run folds into one factor of F
    and one of ``A_hat F`` (``_fold``), or a function
    ``(g, product) -> (F -> P F)`` (GRAND's Lrw) that a run calls once,
    handing it the run's ``F -> A_hat F``, and that forms its own product.
    ``energy`` defaults to the Dirichlet energy; ``edge_energy`` marks one
    that reads the per-edge differences."""

    terms: tuple[tuple[str | Callable[[Graph, _Map], _Map], np.ndarray | float], ...]
    source: np.ndarray | float | None = None
    residual: bool = True
    energy: Callable[[_State], float] = lambda s: s.dirichlet
    activation: Callable[[np.ndarray], np.ndarray] | None = None
    edge_energy: bool = False


def _mixing(s: _State, W: np.ndarray) -> float:
    """``trace(x^T A_hat x W)`` for symmetric W: ``<A x, x W>`` on the
    product form, twice the per-edge sum of ``<head_e W, tail_e>`` on the
    edge form."""
    if s.ax is not None:
        return float(s.ax.ravel() @ (s.x @ W).ravel()) / s.scale
    return 2.0 * float(np.sum((s.head @ W) * s.tail))


def _parametric(w: WeightSet):
    has_source = w.has_source

    def energy(s: _State) -> float:
        return _parametric_value(s.x, _mixing(s, w.W), w, s.ref if has_source else None)

    return energy


def _squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    r = (a - b).ravel()
    return float(r @ r)


def _flow(w: WeightSet, residual: bool = True) -> _Update:
    """The gradient flow of the parametric energy with weights ``w``."""
    return _Update(
        terms=(("I", -w.Omega), ("A", w.W)),
        source=-w.Wtilde if w.has_source else None,
        residual=residual,
        energy=_parametric(w),
    )


# The builders below validate what they read and store canonical copies on
# the spec; they run once, inside ModelSpec.__post_init__.  A channel-sized
# parameter must match W's channel count when W is given.

def _w_channels(spec: ModelSpec) -> int | None:
    return None if spec.weights is None else spec.weights.d


def _graff(spec: ModelSpec) -> _Update:
    """GRAFF's diagonal residual and scalar source as parametric weights."""
    d = spec.weights.d
    omega = np.zeros(d) if spec.omega_diag is None else vector(spec.omega_diag, "omega_diag", d)
    omega.setflags(write=False)
    object.__setattr__(spec, "omega_diag", omega)
    return _flow(WeightSet(spec.weights.W, np.diag(omega), spec.beta * np.eye(d)))


def _label_propagation(spec: ModelSpec) -> _Update:
    mu = spec.mu
    if mu < 0:
        raise ValidationError(f"label propagation needs mu >= 0, got {mu!r}")
    return _Update(
        terms=(("L", -1.0), ("I", -mu)),
        source=mu if mu > 0.0 else None,
        energy=lambda s: s.dirichlet + mu * _squared_distance(s.x, s.ref),
    )


def _cgnn(spec: ModelSpec) -> _Update:
    if not isinstance(spec.source_free, bool):
        raise ConfigurationError(f"source_free must be True or False, got {spec.source_free!r}")
    ot = square_matrix(spec.OmegaTilde, "OmegaTilde", _w_channels(spec))
    ot.setflags(write=False)
    object.__setattr__(spec, "OmegaTilde", ot)
    return _Update(
        terms=(("L", -1.0), ("I", ot)),
        source=None if spec.source_free else 1.0,
    )


def _pde_gcn_d(spec: ModelSpec) -> _Update:
    ktk = square_matrix(spec.KtK, "KtK", _w_channels(spec), symmetric=True)
    if float(np.linalg.eigvalsh(ktk).min()) < -1e-10:
        raise ValidationError("KtK must be positive semidefinite")
    ktk.setflags(write=False)
    object.__setattr__(spec, "KtK", ktk)
    return _Update(terms=(("L", -ktk),))


def _diag_nonlinear(spec: ModelSpec) -> _Update:
    omega = vector(spec.omega_diag, "omega_diag", _w_channels(spec))
    if np.any(omega > 1e-12):
        raise ValidationError(
            "diag_nonlinear requires nonpositive channel weights omega_diag"
        )
    omega.setflags(write=False)
    object.__setattr__(spec, "omega_diag", omega)
    return _Update(terms=(("L", np.diag(-omega)),))


def _harmonic(spec: ModelSpec) -> _Update:
    W = spec.weights.W
    # overflow is reported as the NumericError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        ww = W @ W
    if not np.all(np.isfinite(ww)):
        raise NumericError("harmonic's channel factor W W exceeds the floating range")
    return _Update(
        (("L", -ww),),
        energy=lambda st: float(np.sum((st.diffs @ W) ** 2)),
        edge_energy=True,
    )


class _Entry(NamedTuple):
    required: str | None  # the ModelSpec field the variant cannot do without
    build: Callable[[ModelSpec], _Update]
    nonlinear: bool = False
    reads: tuple[str, ...] = ()  # the optional parameters (see _given) it reads


_FLOW, _GRAFF = ("Omega", "Wtilde"), ("omega_diag", "beta")
_TABLE: dict[str, _Entry] = {
    "gradient_flow": _Entry("weights", lambda s: _flow(s.weights), reads=_FLOW),
    "gradient_flow_nonlinear": _Entry("weights", lambda s: _flow(s.weights), True, _FLOW),
    "no_residual": _Entry("weights", lambda s: _flow(WeightSet(W=s.weights.W), False)),
    "graff": _Entry("weights", _graff, reads=_GRAFF),
    "graff_nonlinear": _Entry("weights", _graff, True, _GRAFF),
    "heat": _Entry(None, lambda s: _Update((("L", -1.0),))),
    "label_propagation": _Entry(None, _label_propagation, reads=("mu",)),
    "cgnn": _Entry("OmegaTilde", _cgnn, reads=("source_free",)),
    "grand_linear": _Entry(None, lambda s: _Update(((_random_walk_laplacian, -1.0),))),
    "pde_gcn_d": _Entry("KtK", _pde_gcn_d),
    "harmonic": _Entry("weights", _harmonic),
    "laplacian_omega_eq_w": _Entry(
        "weights",
        lambda s: _Update(
            (("L", -s.weights.W),),
            energy=lambda st: float(np.sum((st.diffs @ s.weights.W) * st.diffs)),
            edge_energy=True,
        ),
    ),
    "diag_nonlinear": _Entry("omega_diag", _diag_nonlinear, True),
}

VARIANTS = frozenset(_TABLE)


#: Named entrywise activations; every entry satisfies x * sigma(x) >= 0.
ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
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


def _given(spec: ModelSpec) -> list[str]:
    """The optional parameters ``spec`` sets, before any builder has checked
    them: a nonzero Omega or Wtilde on its weights, a nonzero omega_diag
    (read as an array of floats), beta or mu (floats by then), a KtK, an
    OmegaTilde, a set source_free.  W is not one: every variant takes it,
    as it fixes the channel count."""
    weights = () if spec.weights is None else ("Omega", "Wtilde")
    omega = spec.omega_diag is not None and np.any(_floats(spec.omega_diag, "omega_diag"))
    return (
        [name for name in weights if np.any(getattr(spec.weights, name))]
        + [name for name in ("KtK", "OmegaTilde") if getattr(spec, name) is not None]
        + (["omega_diag"] if omega else [])
        + [name for name in ("beta", "mu", "source_free") if getattr(spec, name)]
    )


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one dynamics: variant tag plus its parameters.

    ``weights`` holds the parametric energy's W, Omega and Wtilde; W fixes
    the channel count, which every other channel-sized parameter must match.
    ``omega_diag`` (a vector) and ``beta`` (a scalar) are GRAFF's diagonal
    residual and source coupling, and ``omega_diag`` the channel weights of
    diag_nonlinear; ``mu`` is the label-propagation clamping strength;
    ``KtK`` the constant positive-semidefinite channel metric of the
    diffusion-with-metric variant; ``OmegaTilde`` the channel mixer of the
    residual-diffusion variant, whose constant source is dropped when
    ``source_free`` (a bool) is True.  The scalars ``tau``, ``mu`` and
    ``beta`` are checked by ``graphs.scalar`` and stored as floats on entry;
    every other parameter is checked, and stored in canonical form, by the
    builder of the variant that reads it.
    ``sigma`` names an entry of ``ACTIVATIONS`` (``identity``, ``relu`` or
    ``tanh``); only the nonlinear variants take one other than ``identity``.
    A parameter the variant does not read (see ``_given``) is refused.
    """

    variant: str
    weights: WeightSet | None = None
    tau: float = 0.5
    sigma: str = "identity"
    mu: float = 0.0
    KtK: np.ndarray | None = None
    OmegaTilde: np.ndarray | None = None
    source_free: bool = False
    omega_diag: np.ndarray | None = None
    beta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        for name in ("tau", "mu", "beta"):
            object.__setattr__(self, name, scalar(getattr(self, name), name))
        if self.tau <= 0:
            raise ValidationError(f"step size tau must be positive, got {self.tau!r}")

        entry = _TABLE[self.variant]
        if entry.required is not None and getattr(self, entry.required) is None:
            raise ConfigurationError(f"variant {self.variant!r} needs {entry.required}")
        if self.weights is not None and not isinstance(self.weights, WeightSet):
            raise ConfigurationError("weights must be a WeightSet")
        unread = [name for name in _given(self) if name not in entry.reads + (entry.required,)]
        if unread:
            raise ConfigurationError(
                f"variant {self.variant!r} does not read {', '.join(unread)}"
            )
        if not (isinstance(self.sigma, str) and self.sigma in ACTIVATIONS):
            raise ConfigurationError(
                f"unknown activation {self.sigma!r}; expected one of {sorted(ACTIVATIONS)}"
            )
        if not entry.nonlinear and self.sigma != "identity":
            raise ConfigurationError(
                f"variant {self.variant!r} is linear; an activation is only "
                "accepted by the *_nonlinear and diag_nonlinear variants"
            )
        activation = ACTIVATIONS[self.sigma] if entry.nonlinear else None
        object.__setattr__(self, "_update", entry.build(self)._replace(activation=activation))

    @property
    def channels(self) -> int | None:
        """W's channel count, else that of the parameter the variant requires
        (KtK, OmegaTilde or omega_diag), else None."""
        if self.weights is not None:
            return self.weights.d
        required = _TABLE[self.variant].required
        return None if required is None else len(getattr(self, required))

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


def _random_walk_laplacian(g: Graph, product: _Map) -> _Map:
    """The map ``F -> Lrw F`` for the random-walk Laplacian
    ``I - (D + I)^-1 (A + I)`` of the self-loop-augmented graph, with
    ``A F = sqrt(deg) A_hat (sqrt(deg) F)`` and ``product`` the map
    ``F -> A_hat F``; the degree factors are formed once, here."""
    deg = degree_vector(g)[:, None]
    sqrt_deg = np.sqrt(deg)
    shifted = deg + 1.0
    return lambda F: F - (sqrt_deg * product(sqrt_deg * F) + F) / shifted


class _Plan(NamedTuple):
    """What every step of one run shares, built once from checked inputs:
    the spec's update and step size, the update's terms folded into the
    factor ``identity`` of F and the factor ``adjacency`` of ``A_hat F``
    (None for a factor that is exactly zero, see ``_fold``), GRAND's own
    operator resolved for the run's graph with its factor (``own``, None for
    every other variant), and the source ``F0 S`` (None when off).  The
    product ``F -> A_hat F`` is picked once, for the run's width, by
    ``graphs._adjacency_product``'s rule; a list in ``products`` receives
    each step's ``A_hat F``, so ``run_trajectory`` reads F's columns off it."""

    update: _Update
    tau: float
    product: _Map
    identity: np.ndarray | float | None
    adjacency: np.ndarray | float | None
    own: tuple[_Map, float] | None
    source: np.ndarray | None
    products: list | None


#: Where each operator's factor goes in the fold: I on F, A on A_hat F, and
#: L = I - A_hat on both, with the sign of A_hat.
_FOLD = {"I": ((0, 1.0),), "A": ((1, 1.0),), "L": ((0, 1.0), (1, -1.0))}


def _fold(terms, d: int) -> list:
    """The factors of F and of ``A_hat F`` that the I, A and L ``terms`` sum
    to, a float standing for that multiple of the d x d identity.  A factor
    that is exactly zero is None, so its product is never formed, unless
    both are: then F's is 0.0, and a step still returns an array."""
    folded = [None, None]
    for op, m in terms:
        for at, sign in _FOLD[op]:
            a, b = folded[at], sign * m
            if a is not None and not (isinstance(a, float) and isinstance(b, float)):
                a, b = (x * np.eye(d) if isinstance(x, float) else x for x in (a, b))
            folded[at] = b if a is None else a + b
    kept = [None if m is None or not np.any(m) else m for m in folded]
    if kept[0] is None and kept[1] is None:
        kept[0] = 0.0
    return kept


def _run_plan(spec: ModelSpec, g: Graph, d: int, F0, products: list | None = None) -> _Plan:
    """The plan of a run of ``spec`` on ``g`` with d-channel features; F0 is
    checked here when the update reads it, and a source ``F0 S`` beyond the
    floating range is a ``NumericError``."""
    update = spec._update
    product = _product_for(g, d)
    identity = adjacency = own = None
    if isinstance(update.terms[0][0], str):
        identity, adjacency = _fold(update.terms, d)
    else:
        # GRAND's one term: its own operator
        ((op, m),) = update.terms
        own = (op(g, product), m)
    source = None
    if update.source is not None:
        F0 = _require_source(g, F0, d)
        # overflow is reported as the NumericError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            source = np.dot(F0, update.source)
        if not np.all(np.isfinite(source)):
            raise NumericError("the source term F0 S exceeds the floating range; reduce F0 or S")
    return _Plan(update, spec.tau, product, identity, adjacency, own, source, products)


def _times(x: np.ndarray, m: np.ndarray | float) -> np.ndarray:
    """x times the channel factor m, a scalar or a d x d matrix, into a new array."""
    return x * m if isinstance(m, float) else np.dot(x, m)


def _advance(plan: _Plan, F: np.ndarray) -> np.ndarray:
    """The arithmetic of one step of ``plan`` from the checked features F:
    ``F M_I + (A_hat F) M_A``, or GRAND's ``(Lrw F) m``, plus the source,
    through sigma, times tau, plus F for the residual.  A factor of exactly
    1 on ``A_hat F`` is added without a multiply."""
    update = plan.update
    if plan.own is not None:
        walk, m = plan.own
        z = _times(walk(F), m)
    else:
        af = None
        if plan.adjacency is not None:
            af = plan.product(F)
            if plan.products is not None:
                plan.products.append(af)
        if plan.identity is None:
            z = _times(af, plan.adjacency)
        else:
            z = _times(F, plan.identity)
            m = plan.adjacency
            if m is not None:
                z += af if isinstance(m, float) and m == 1.0 else _times(af, m)
    if plan.source is not None:
        z += plan.source
    if update.activation is not None:
        z = update.activation(z)
    z *= plan.tau
    if update.residual:
        z += F
    return z


def step_model(spec: ModelSpec, g: Graph, F, F0=None, *, _plan=None) -> np.ndarray:
    """One explicit-Euler step of the chosen variant.

    Sums the variant's ``P_k F M_k`` terms and its source ``F0 S``, applies
    sigma (the identity for the linear family), and returns
    ``F + tau * sigma(Z)``, or ``tau * Z`` for the discarding variant.  The
    I, A and L terms are folded into ``F M_I + (A_hat F) M_A`` (see
    ``_fold``), with one product ``A_hat F``, an edge sum on a sparse graph
    (see ``graphs._adjacency_product``).  F and F0 are checked, and
    a non-finite result is a ``NumericError``.  A run's loop passes its
    ``_plan`` instead: the run checked its inputs on entry, the plan holds
    F0, and the loop guards each step with the state's norm.
    """
    if _plan is not None:
        return _advance(_plan, F)
    feats = as_features(g, F)
    _check_channels(spec.channels, feats, "model parameters")
    # overflow is reported as the NumericError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = _advance(_run_plan(spec, g, feats.shape[1], F0), feats)
    if not np.all(np.isfinite(out)):
        remedy = (
            "use run_trajectory, which keeps homogeneous linear dynamics renormalized"
            if spec.is_homogeneous
            else "reduce tau"
        )
        raise NumericError(f"step produced non-finite values (overflow); {remedy}")
    return out


def trajectory_states(spec: ModelSpec, g: Graph, F0, steps: int) -> Iterator[FeatureState]:
    """Check the inputs, then iterate ``step_model`` ``steps`` times, yielding
    each state (the initial one first) as it is reached and keeping none.

    Homogeneous linear runs are renormalized to unit Frobenius norm after
    every step, the removed log-factor accumulating in ``log_scale``;
    source-coupled and nonlinear runs iterate the raw state, whose norm gives
    ``log_scale``.  Overflow or collapse raises a numeric error naming the step.
    """
    steps = check_count(steps, "steps")
    return _states(spec, g, *_reference(spec, g, F0), steps)


def _reference(spec: ModelSpec, g: Graph, F0) -> tuple[np.ndarray, float]:
    """A run's initial features, checked (one row per node, finite, the
    spec's channel count, nonzero), and their norm."""
    feats = as_features(g, F0)
    _check_channels(spec.channels, feats, "model parameters")
    norm = _frobenius_norm(feats)
    if norm == 0.0:
        raise DegenerateInputError("initial features must be nonzero")
    return feats, norm


def _states(spec, g, reference, norm, steps, products=None) -> Iterator[FeatureState]:
    """The states of a run from its checked ``reference`` features and their
    norm.  A list passed as ``products`` receives, at each step that forms
    one, the pair of ``A_hat F`` and the norm of the F the step read over
    its direction: the raw state's norm, or 1 on a renormalized run.  The
    record divides the dots it reads off ``A_hat F`` by it, not the array.

    The run's plan is built once; each step is then guarded by the norm of
    its result alone, which is finite and nonzero exactly when the result is
    a finite, nonzero state.  It is taken as ``numpy.linalg.norm`` takes it,
    the square root of one dot of ``x.ravel(order="K")`` with itself, so it
    has the same bits."""
    renormalize = spec.is_homogeneous
    plan = _run_plan(spec, g, reference.shape[1], reference, products)
    direction, log_scale = reference / norm, float(np.log(norm))
    yield FeatureState(direction, log_scale)
    state = direction if renormalize else reference
    for k in range(1, steps + 1):
        # overflow is reported as the NumericError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            state = step_model(spec, g, state, F0=reference, _plan=plan)
            flat = state.ravel(order="K")
            size = math.sqrt(flat.dot(flat))
        if not math.isfinite(size) or size == 0.0:
            what = "collapsed to zero" if size == 0.0 else "overflowed"
            raise NumericError(f"state {what} at step {k}; reduce tau or the steps")
        if products:
            products[-1] = (products[-1], 1.0 if renormalize else norm)
        norm = size
        direction = state / norm
        log_scale = (log_scale if renormalize else 0.0) + float(np.log(norm))
        if renormalize:
            state = direction
        yield FeatureState(direction, log_scale)


def _edge_state(x: np.ndarray, edge_rows, ref: np.ndarray) -> _State:
    """The edge form of x's diagnostics, in O(m d)."""
    head, tail = edge_rows(x)
    diffs = head - tail
    value = float(np.sum(diffs * diffs))
    sq = float(np.sum(x * x))
    return _State(x, value, sq, ref, head=head, tail=tail, diffs=diffs)


def _product_state(
    x: np.ndarray, ax: np.ndarray, scale: float, phi0: np.ndarray, ref: np.ndarray
) -> _State | None:
    """The product form of x's diagnostics given ``ax = A_hat (scale x)``
    and the kernel vector as an (n, 1) column ``phi0``, in O(n d), or None
    when the deflated value is not above ``_DEFLATED_FLOOR |x'|^2``.  It
    makes one array, ``x' = x - phi0 (phi0^T x)``: the rank-one product, one
    BLAS call, then ``x -`` it in place.  D is
    ``<x', x> - <x', ax> / scale`` and ``|x|^2 = |x'|^2 + |phi0^T x|^2``, a
    sum of two positive terms, so three dots over n d floats read the
    state's columns."""
    coeff = np.dot(phi0.T, x)
    deflated = np.dot(phi0, coeff)
    np.subtract(x, deflated, out=deflated)
    flat = deflated.ravel()
    value = float(flat @ x.ravel()) - float(flat @ ax.ravel()) / scale
    deflated_sq = float(flat @ flat)
    if not value > _DEFLATED_FLOOR * deflated_sq:
        return None
    sq = deflated_sq + float(coeff.ravel() @ coeff.ravel())
    return _State(x, value, sq, ref, ax=ax, scale=scale)


def run_trajectory(spec: ModelSpec, g: Graph, F0, steps: int) -> Trajectory:
    """The CSV columns of every state ``trajectory_states`` yields, and the
    last state.  State k is recorded once step k + 1 has run, from the
    product ``A_hat x`` that step formed, in O(n d); the first and the last
    state, and the fallbacks the module docstring lists, take the O(m d)
    edge form.
    """
    steps = check_count(steps, "steps")
    reference, norm = _reference(spec, g, F0)
    count = steps + 1
    _require_memory(4 * 8 * count, f"the CSV columns of {count} states")
    rayleigh, dirichlet, energy, log_scale = (np.empty(count) for _ in range(4))
    update = spec._update
    edge_rows = _edge_rows(g)
    products = phi0 = None
    if not update.edge_energy and graph_checks(g).connected:
        products = []
        sqrt_deg = np.sqrt(degree_vector(g))[:, None]
        phi0 = sqrt_deg / np.linalg.norm(sqrt_deg)

    def record(k: int, state: FeatureState, product: tuple | None) -> None:
        x = state.direction
        s = _product_state(x, *product, phi0, reference) if k and product else None
        if s is None:
            s = _edge_state(x, edge_rows, reference)
        rayleigh[k] = s.dirichlet / s.sq
        dirichlet[k] = s.dirichlet
        energy[k] = update.energy(s)
        log_scale[k] = state.log_scale

    previous = None
    for k, state in enumerate(_states(spec, g, reference, norm, steps, products)):
        if previous is not None:
            # step k has read state k - 1 and left its product
            record(k - 1, previous, products.pop() if products else None)
        previous = state
    record(steps, previous, None)
    return Trajectory(
        steps=np.arange(count),
        times=np.arange(count) * spec.tau,
        rayleigh=rayleigh,
        dirichlet=dirichlet,
        energy=energy,
        log_scale=log_scale,
        final=previous,
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
    z = z + scalar(tau, "tau") * _adjacency_product(g, z) * pair.eigenvalues[None, :]
    return z @ pair.eigenvectors.T
