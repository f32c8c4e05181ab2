"""Independent oracles and the self-verification check battery.

Each check recomputes a claim along a second, dumber route — explicit
Kronecker assemblies, central finite differences, long trajectories — and
compares against the closed-form implementation.  Checks are described by
:class:`Witness` objects (graph + matrices + scalars + tags), so a failing
check serializes to a self-contained text document that ``gel replay`` can
re-run verbatim.  A witness names its model's fields as a config does.  The
diagonal weights are ``omega_diag``, a config's ``omega``.

The checks that run a model once and compare the run with a prediction are
rows of ``PREDICTIONS``: the variant, each compared quantity (of the final
state, or the worst over every state) at its tolerance, the frequency the
final Rayleigh quotient must reach, and a default step count or horizon
rule.  One runner serves them all; a new prediction is one row.  It streams
``trajectory_states``, so it records no CSV columns and holds O(n d) at any
step count.  ``rate_certification`` and ``monotonicity`` keep their own.

The default battery that ``gel suite`` runs is data: one witness file per
check under ``gel/suite``, each read and run as ``gel replay`` reads and runs
it.  ``tests/suite_witnesses.py`` builds those files from their seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import energy as energy_mod
from .config import _read_text
from .dynamics import ModelSpec, spectral_filter_step, step_model, trajectory_states
from .energy import WeightSet, as_features, parametric_energy
from .energy import dirichlet_energy  # noqa: F401  (perfbench traces gel.verify.dirichlet_energy)
from .errors import HypothesisError, NumericError, ParseError, RegimeError, ValidationError
from .graphs import (
    Graph,
    _parse_edge_lines,
    check_count,
    degree_vector,
    extreme_spectrum,
    graph_checks,
    laplacian_spectrum,
    normalized_adjacency,
    spectral_decomposition,
    square_matrix,
)
from .spectral import asymptotic_profile, classify_regime, closed_form_features

__all__ = [
    "CheckReport",
    "Witness",
    "ASSEMBLY_LIMIT",
    "hessian_assembly",
    "kronecker_oracle_energy",
    "curl_asymmetry",
    "run_check",
    "default_suite",
    "serialize_witness",
    "parse_witness",
]

#: Largest n*d for which the dense (n*d x n*d) oracle assemblies are built.
ASSEMBLY_LIMIT = 4096

#: Most steps a witness may ask for: 25 times the 40 000 of the longest run a
#: test or shipped witness makes; a larger count would run until killed.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check: passed iff max_error <= tolerance.

    Composite checks (several bounds with different tolerances) report the
    worst sub-error in units of its own tolerance and set ``tolerance = 1``.
    ``witness`` carries the serialized failing instance, or None on success.
    """

    name: str
    passed: bool
    max_error: float
    tolerance: float
    witness: str | None = None


@dataclass
class Witness:
    """Self-contained description of one check instance.

    A check reads the witness's fields through the accessors below, which
    note each matrix, scalar and tag they are asked for; ``run_check``
    refuses a witness that gives a field its check never read.
    """

    check: str
    label: str
    graph: Graph | None = None
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    tags: dict[str, str] = field(default_factory=dict)
    #: the (kind, name) of every field the accessors were asked for
    read: set[tuple[str, str]] = field(
        default_factory=set, init=False, repr=False, compare=False)

    def matrix(self, name: str, required: bool = True) -> np.ndarray | None:
        """The matrix ``name``; when it is not given, None if not ``required``."""
        self.read.add(("matrix", name))
        if name in self.matrices:
            return self.matrices[name]
        if required:
            raise ValidationError(f"check {self.check!r} needs matrix {name!r}")
        return None

    def scalar(self, name: str, default: float | None = None) -> float:
        self.read.add(("scalar", name))
        if name in self.scalars:
            return self.scalars[name]
        if default is None:
            raise ValidationError(f"check {self.check!r} needs scalar {name!r}")
        return default

    def steps(self, default: int | None = None) -> int:
        """The ``steps`` scalar, or ``default``: a whole number from 1 to MAX_STEPS."""
        value = self.scalar("steps", default)
        whole = float(value).is_integer()
        if not whole or value > MAX_STEPS:
            bound = f"at most {MAX_STEPS}" if whole else "a whole number"
            raise ValidationError(f"check {self.check!r}: scalar 'steps' must be {bound}, got {value!r}")
        return check_count(int(value), "steps", 1)

    def tag(self, name: str, default: str | None = None) -> str:
        self.read.add(("tag", name))
        if name in self.tags:
            return self.tags[name]
        if default is None:
            raise ValidationError(f"check {self.check!r} needs tag {name!r}")
        return default

    def unread(self) -> list[tuple[str, str]]:
        """The (kind, name) of each given field not read since ``read`` was
        last emptied, matrices, scalars and tags each by name."""
        given = [("matrix", name) for name in sorted(self.matrices)]
        given += [("scalar", name) for name in sorted(self.scalars)]
        given += [("tag", name) for name in sorted(self.tags)]
        return [item for item in given if item not in self.read]


def _weights(w: Witness) -> WeightSet:
    """The witness's W, Omega and Wtilde; the last two default to zeros."""
    return WeightSet(w.matrix("W"), w.matrix("Omega", required=False),
                     w.matrix("Wtilde", required=False))


def _spec(w: Witness, variant: str, **given) -> ModelSpec:
    """The ``variant`` model of the witness's fields, named as in a config
    (the weights, KtK, OmegaTilde, omega_diag and tau); ``given`` fields win."""
    fields = {name: w.matrix(name, required=False) for name in ("KtK", "OmegaTilde", "omega_diag")}
    if w.matrix("W", required=False) is not None:
        fields["weights"] = _weights(w)
    if "tau" not in given:
        fields["tau"] = w.scalar("tau")
    return ModelSpec(variant=variant, **{**fields, **given})


def _report(
    name: str, max_error: float, tolerance: float, witness: Witness
) -> CheckReport:
    passed = bool(max_error <= tolerance)
    return CheckReport(
        name=name,
        passed=passed,
        max_error=float(max_error),
        tolerance=float(tolerance),
        witness=None if passed else serialize_witness(witness),
    )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _check_assembly_size(n: int, d: int) -> None:
    if n * d > ASSEMBLY_LIMIT:
        raise NumericError(
            f"resource limit: n*d = {n * d} exceeds {ASSEMBLY_LIMIT}; "
            "the dense oracle assembly would be too large"
        )


def hessian_assembly(g: Graph, weights: WeightSet) -> np.ndarray:
    """Dense (n*d x n*d) quadratic-form matrix Omega x I - W x A_bar.

    Uses the column-stacking vec convention, so
    ``vec(F)^T H vec(F)`` equals the source-free parametric energy.
    """
    _check_assembly_size(g.n, weights.d)
    eye = np.eye(g.n)
    return np.kron(weights.Omega, eye) - np.kron(weights.W, normalized_adjacency(g))


def kronecker_oracle_energy(g: Graph, F, weights: WeightSet, F0=None) -> float:
    """Parametric energy recomputed from explicit Kronecker matrices."""
    feats = as_features(g, F)
    vec = feats.flatten(order="F")
    value = float(vec @ hessian_assembly(g, weights) @ vec)
    if weights.has_source:
        source = as_features(g, F0, name="F0").flatten(order="F")
        coupling = np.kron(weights.Wtilde.T, np.eye(g.n))
        value += 2.0 * float(vec @ coupling @ source)
    return value


def _fd_step(h: float) -> float:
    """``h`` if it is a finite-difference step in [1e-7, 1e-3]; any other
    value, nan and inf included, is a ValidationError."""
    if not 1e-7 <= h <= 1e-3:
        raise ValidationError(f"finite-difference step h must be in [1e-7, 1e-3], got {h!r}")
    return h


def _run_gradient_fd(w: Witness) -> CheckReport:
    """Central finite differences of the energy against -2x the flow field."""
    h = _fd_step(w.scalar("h", 1e-5))
    g = w.graph
    feats = as_features(g, w.matrix("F"))
    weights = _weights(w)
    F0 = w.matrix("F0", required=False)
    # module lookup keeps the check honest against a patched/buggy gradient
    analytic = -2.0 * energy_mod.energy_gradient(g, feats, weights, F0=F0)
    fd = np.empty_like(feats)
    for i in range(feats.shape[0]):
        for a in range(feats.shape[1]):
            plus = feats.copy()
            minus = feats.copy()
            plus[i, a] += h
            minus[i, a] -= h
            fd[i, a] = (
                parametric_energy(g, plus, weights, F0=F0)
                - parametric_energy(g, minus, weights, F0=F0)
            ) / (2.0 * h)
    denom = max(1.0, float(np.abs(analytic).max()))
    max_error = float(np.abs(fd - analytic).max()) / denom
    return _report(w.label, max_error, 1e-5, w)


def curl_asymmetry(g: Graph, W, Omega, h: float = 1e-5) -> float:
    """Asymmetry defect of the finite-difference Jacobian of F -> -F Omega + A_bar F W.

    A gradient field has a symmetric Jacobian; the defect max|J - J^T| is ~0
    for symmetric weights and order-one once W or Omega is asymmetric.  The
    raw matrices are used directly (no symmetrization), which is the point.
    """
    h = _fd_step(h)
    wmat = square_matrix(W, "W")
    d = wmat.shape[0]
    omat = square_matrix(Omega, "Omega", d)
    _check_assembly_size(g.n, d)
    bar_a = normalized_adjacency(g)

    def fieldmap(F: np.ndarray) -> np.ndarray:
        return -F @ omat + bar_a @ F @ wmat

    n = g.n
    jac = np.empty((n * d, n * d))
    for k in range(n * d):
        basis = np.zeros((n, d))
        basis[k % n, k // n] = h  # column-major ordering matches vec()
        diff = fieldmap(basis) - fieldmap(-basis)
        jac[:, k] = diff.flatten(order="F") / (2.0 * h)
    return float(np.abs(jac - jac.T).max())


def _run_monotonicity(w: Witness) -> CheckReport:
    """Energy descent of the nonlinear flow, along both routes.

    (a) with a step below 1e-3 the energy must be nonincreasing within
    1e-9 relative slack (continuous-descent proxy); (b) at the coarse step
    the exact inequality ``E(next) - E <= c * |next - F|^2`` must hold with
    ``c`` the most positive eigenvalue of the assembled quadratic form
    (c = 0 when none), within 1e-9.
    """
    g = w.graph
    weights = _weights(w)
    feats = as_features(g, w.matrix("F0"))
    sigma = w.tag("sigma", "relu")
    steps = w.steps(50)
    tau_proxy = w.scalar("tau_proxy", 1e-3)
    tau_discrete = w.scalar("tau_discrete", 0.3)
    if tau_proxy > 1e-3:
        raise ValidationError(f"the descent proxy needs tau <= 1e-3, got {tau_proxy!r}")

    def worst(tau: float, excess) -> float:
        """The largest ``excess(E, E_next, F, F_next)`` over the steps of
        the run at ``tau``, holding one state and its successor."""
        spec = _spec(w, "gradient_flow_nonlinear", tau=tau, sigma=sigma)
        state, value, largest = feats, parametric_energy(g, feats, weights), -np.inf
        for _ in range(steps):
            following = step_model(spec, g, state)
            next_value = parametric_energy(g, following, weights)
            largest = np.maximum(largest, excess(value, next_value, state, following))
            state, value = following, next_value
        return float(largest)

    rel_violation = worst(tau_proxy, lambda e, e_next, f, f_next: (e_next - e) / max(1.0, abs(e)))

    assembly = hessian_assembly(g, weights)
    top = float(np.linalg.eigvalsh(assembly)[-1])
    c = max(top, 0.0)
    discrete_violation = worst(
        tau_discrete,
        lambda e, e_next, f, f_next: e_next - e - c * float(np.sum((f_next - f) ** 2)),
    )

    max_error = max(rel_violation, discrete_violation)
    return _report(w.label, max_error, 1e-9, w)


def _run_filter_equivalence(w: Witness) -> CheckReport:
    """Spectral-filter step against the matrix step, entrywise to 1e-12."""
    g = w.graph
    feats = w.matrix("F")
    spec = _spec(w, "gradient_flow")
    direct = step_model(spec, g, feats)
    filtered = spectral_filter_step(g, w.matrix("W"), spec.tau, feats)
    return _report(w.label, float(np.abs(direct - filtered).max()), 1e-12, w)


# ---------------------------------------------------------------------------
# witness-driven check runners
# ---------------------------------------------------------------------------

def _run_kronecker_energy(w: Witness) -> CheckReport:
    g = w.graph
    weights = _weights(w)
    feats = w.matrix("F")
    F0 = w.matrix("F0", required=False)
    fast = parametric_energy(g, feats, weights, F0=F0)
    oracle = kronecker_oracle_energy(g, feats, weights, F0=F0)
    max_error = abs(fast - oracle) / max(1.0, abs(oracle))
    return _report(w.label, max_error, 1e-10, w)


def _run_curl_symmetric(w: Witness) -> CheckReport:
    defect = curl_asymmetry(w.graph, w.matrix("W"), w.matrix("Omega"),
                            h=w.scalar("h", 1e-5))
    return _report(w.label, defect, 1e-8, w)


def _run_curl_asymmetry(w: Witness) -> CheckReport:
    defect = curl_asymmetry(w.graph, w.matrix("W"), w.matrix("Omega"),
                            h=w.scalar("h", 1e-5))
    # detection check: the defect must *exceed* the threshold
    return _report(w.label, np.maximum(0.0, 1e-6 - defect), 0.0, w)


def _direction_mismatch(direction: np.ndarray, predicted: np.ndarray) -> float:
    """Entrywise distance to the prediction, up to a global sign flip."""
    return float(min(np.abs(direction - predicted).max(), np.abs(direction + predicted).max()))


_HORIZON_CAP = 20000  # the steps of a horizon rule whose ratio never contracts


def _horizon(ratio: float, target: float) -> int:
    if ratio <= 0.0:
        return 1
    if ratio >= 1.0:
        return _HORIZON_CAP
    return min(_HORIZON_CAP, max(1, math.ceil(math.log(target) / math.log(ratio))))


def _contracted(w: Witness, spec: ModelSpec, profile) -> int:
    """Steps until the profile's contraction has shrunk the rest by 1e-9."""
    return _horizon(profile.contraction, 1e-9)


def _cgnn_horizon(w: Witness, spec: ModelSpec, profile) -> int:
    """Steps until lambda_2's factor over the top factor reaches 1e-8; the
    top eigenvalue of OmegaTilde's symmetric part bounds its spectrum."""
    lam_2 = extreme_spectrum(w.graph).lambda_2
    mixer = spec.OmegaTilde
    tilde_top = float(np.linalg.eigvalsh(0.5 * (mixer + mixer.T))[-1])
    ratio = (1.0 + spec.tau * (tilde_top - lam_2)) / (1.0 + spec.tau * tilde_top)
    return _horizon(max(ratio, 0.0), 1e-8)


def _dirichlet_change(sign: float, g: Graph, spec: ModelSpec, F0):
    """The raw Dirichlet energy ``exp(2 log_scale) D`` times ``sign``: its
    change from the state before, over ``max(1, |the value before|)``.  D is
    summed over the edges, whose rows are looked up once a run."""
    rows, before, change = energy_mod._edge_rows(g), None, -np.inf
    while True:
        state = yield change
        head, tail = rows(state.direction)
        diffs = head - tail
        raw = np.exp(2.0 * state.log_scale) * float(np.sum(diffs * diffs))
        change = -np.inf if before is None else sign * (raw - before) / max(1.0, abs(before))
        before = raw


def _conservation(g: Graph, spec: ModelSpec, F0):
    """The drift of the raw frequency-zero coefficients
    ``exp(log_scale) phi0^T F psi`` from their start, over the state's norm
    ``max(1, exp(log_scale))``: their roundoff grows with that norm, the law
    does not."""
    phi0 = extreme_spectrum(g).bottom.eigenvectors[:, 0]
    psi = spectral_decomposition(spec.weights.W).eigenvectors
    first, drift = None, -np.inf
    while True:
        state = yield drift
        coeff = phi0 @ state.direction @ psi
        if first is None:
            first = math.exp(state.log_scale) * coeff
        # both terms over max(1, exp(log_scale)), with no exp that can overflow
        shrink = math.exp(-max(state.log_scale, 0.0))
        drift = np.abs(math.exp(min(state.log_scale, 0.0)) * coeff - shrink * first).max()


def _commutation(g: Graph, spec: ModelSpec, F0):
    """The distance from the direction to the unit direction of the same run
    iterated without renormalization, from the first step on."""
    raw, distance = as_features(g, F0), -np.inf
    yield distance  # started; both runs begin at the first state sent
    while True:
        state = yield distance
        raw = step_model(spec, g, raw)
        distance = float(np.abs(raw / float(np.linalg.norm(raw)) - state.direction).max())


#: The quantities of every state: a generator made once a run, which yields
#: -inf when started and then, sent each state in turn, that state's error.
_ALONG = {
    "descent": partial(_dirichlet_change, 1.0),
    "ascent": partial(_dirichlet_change, -1.0),
    "conservation": _conservation,
    "commutation": _commutation,
}

#: The quantities of the final state ``e.final``, against the closed form
#: ``e.exact``, the Rayleigh quotient's ``e.target`` or the ``e.profile``.
_AT_END = {
    "direction": lambda e: np.abs(e.final.direction - e.exact.direction).max(),
    "log_scale": lambda e: abs(e.final.log_scale - e.exact.log_scale),
    "rayleigh": lambda e: abs(energy_mod.rayleigh_quotient(e.g, e.final.direction) - e.target),
    "sign_free": lambda e: _direction_mismatch(e.final.direction, e.profile.direction),
    "growth": lambda e: abs(e.final.log_scale - e.previous.log_scale - math.log(e.profile.growth)),
    "terminal": lambda e: np.abs(e.final.features() - e.profile.terminal).max(),
}


@dataclass(frozen=True)
class _Prediction:
    """A check that runs ``variant`` and compares the run with a prediction.

    ``tolerances`` maps each compared quantity (of ``_AT_END`` or
    ``_ALONG``) to its tolerance.  ``frequency`` is "LFD" (0), "HFD"
    (lambda_max), or "expected": the witness's ``expected`` tag, which
    ``classify_regime`` must confirm.  ``steps`` is the default step count
    (None: the witness must give one) or a horizon rule; ``sigma`` the
    default ``sigma`` tag (None: none is read); ``max_tau`` the step size
    bound on a graph and the message refusing a larger step.
    """

    variant: str
    tolerances: dict[str, float]
    frequency: str | None = None
    steps: int | Callable[[Witness, ModelSpec, object], int] | None = 2000
    source_free: bool = False
    sigma: str | None = None
    max_tau: tuple[Callable[[Graph], float], str] | None = None


PREDICTIONS = {
    "closed_form_vs_trajectory": _Prediction(
        "gradient_flow", {"direction": 1e-10, "log_scale": 1e-8}, steps=None),
    "regime_realization": _Prediction(
        "gradient_flow", {"rayleigh": 1e-6, "sign_free": 1e-5, "growth": 1e-6},
        "expected", _contracted),
    "no_residual_lfd": _Prediction(
        "no_residual", {"rayleigh": 1e-6, "sign_free": 1e-5}, "LFD", _contracted),
    "omega_eq_w_hfd": _Prediction("laplacian_omega_eq_w", {"rayleigh": 1e-6}, "HFD"),
    "harmonic_limit": _Prediction("harmonic", {"terminal": 1e-6}),
    "grand_mean": _Prediction("grand_linear", {"terminal": 1e-8}),
    "cgnn_decay": _Prediction(
        "cgnn", {"rayleigh": 1e-6}, "LFD", _cgnn_horizon, source_free=True),
    "heat_monotone": _Prediction("heat", {"descent": 1e-9}, steps=200, max_tau=(
        lambda g: 1.0 / extreme_spectrum(g).lambda_max,
        "heat smoothing needs tau <= 1/lambda_max = {:.6g}")),
    "pde_gcn_monotone": _Prediction("pde_gcn_d", {"descent": 1e-9}, steps=100, max_tau=(
        lambda g: 1e-3, "the diffusion-with-metric proxy needs tau <= 1e-3")),
    "diag_sharpening": _Prediction("diag_nonlinear", {"ascent": 1e-9}, steps=200, sigma="relu"),
    "conservation": _Prediction("laplacian_omega_eq_w", {"conservation": 1e-9}, steps=500),
    "scale_commutation": _Prediction("gradient_flow", {"commutation": 1e-9}, steps=30),
}


def _run_prediction(w: Witness) -> CheckReport:
    """Run the witness's model and compare it with its row of PREDICTIONS.

    The run streams ``trajectory_states``, hands each state to the row's
    ``_ALONG`` quantities and keeps the final state and the one before it.
    One quantity reports its own error and tolerance; several report the
    worst error in units of its tolerance, against 1.
    """
    row = PREDICTIONS[w.check]
    g, F0, tolerances = w.graph, w.matrix("F0"), row.tolerances
    given = {} if row.sigma is None else {"sigma": w.tag("sigma", row.sigma)}
    spec = _spec(w, row.variant, source_free=row.source_free, **given)
    bound = row.max_tau[0](g) if row.max_tau else np.inf
    if spec.tau > bound:
        raise ValidationError(row.max_tau[1].format(bound))
    frequency = row.frequency
    if frequency == "expected":
        frequency = w.tag("expected")
        if classify_regime(g, spec).regime != frequency:
            return _report(w.label, np.inf, 1.0, w)
    profile = None
    if tolerances.keys() & {"sign_free", "growth", "terminal"}:
        profile = asymptotic_profile(g, spec, F0)
        if "terminal" in tolerances and profile.terminal is None:
            raise HypothesisError(f"the {profile.label} profile has no terminal state")
    steps = row.steps(w, spec, profile) if callable(row.steps) else w.steps(row.steps)
    along = {q: _ALONG[q](g, spec, F0) for q in tolerances if q in _ALONG}
    errors = {quantity: next(measure) for quantity, measure in along.items()}
    previous = final = None
    for state in trajectory_states(spec, g, F0, steps):
        for quantity, measure in along.items():
            errors[quantity] = np.maximum(errors[quantity], measure.send(state))
        previous, final = final, state
    closed = tolerances.keys() & {"direction", "log_scale"}
    exact = closed_form_features(g, spec, steps, F0) if closed else None
    target = extreme_spectrum(g).lambda_max if frequency == "HFD" else 0.0
    ending = SimpleNamespace(g=g, previous=previous, final=final, exact=exact,
                             profile=profile, target=target)
    errors = {q: float(errors[q] if q in along else _AT_END[q](ending)) for q in tolerances}
    if len(errors) == 1:
        ((quantity, error),) = errors.items()
        return _report(w.label, error, tolerances[quantity], w)
    return _report(w.label, max(errors[q] / tolerances[q] for q in errors), 1.0, w)


def _run_rate_certification(w: Witness) -> CheckReport:
    g = w.graph
    F0 = w.matrix("F0")
    spec = _spec(w, "gradient_flow")
    report = classify_regime(g, spec)
    if report.regime != "HFD":
        raise RegimeError("convergence rates are defined in the HFD regime only; "
                          f"classification here is {report.regime}")
    profile = asymptotic_profile(g, spec, F0)
    # Certify over the window where the quotient is numerically well posed.
    # Each step injects ~1e-16 of fresh roundoff into the direction, so once
    # the relative residual falls below ~1e-5 the measured contraction picks
    # up noise/residual >~ the 1e-9 tolerance and stops testing the theorem.
    steps = _horizon(profile.contraction, 1e-5)
    worst = 0.0
    prev = None
    for state in trajectory_states(spec, g, F0, steps):
        overlap = float(np.sum(profile.direction * state.direction))
        residual = float(np.linalg.norm(state.direction - profile.direction * overlap))
        dominant = abs(overlap)
        if prev is not None and prev > 1e-12 and residual > 1e-13:
            worst = max(worst, (residual / dominant) / prev)
        prev = (residual / dominant) if dominant > 0 else None
    max_error = worst - report.rate_ratio
    return _report(w.label, max_error, 1e-9, w)


def _run_decomposition(w: Witness) -> CheckReport:
    g = w.graph
    weights = _weights(w)
    feats = w.matrix("F")
    breakdown = energy_mod.energy_decomposition(g, feats, weights)
    total = parametric_energy(g, feats, weights)
    recomposed = breakdown.graph_independent + breakdown.attraction - breakdown.repulsion
    err = abs(breakdown.total - recomposed) + abs(breakdown.total - total)
    neg = max(0.0, -breakdown.attraction) + max(0.0, -breakdown.repulsion)
    max_error = err / max(1.0, abs(total)) + neg
    return _report(w.label, max_error, 1e-9, w)


def _run_special_cases(w: Witness) -> CheckReport:
    g = w.graph
    F = w.matrix("F")
    eye = np.eye(F.shape[1])
    heat = step_model(_spec(w, "heat"), g, F)
    as_flow = step_model(_spec(w, "gradient_flow", weights=WeightSet(W=eye, Omega=eye)), g, F)
    lp = step_model(_spec(w, "label_propagation"), g, F)
    max_error = max(float(np.abs(heat - as_flow).max()), float(np.abs(heat - lp).max()))
    return _report(w.label, max_error, 1e-12, w)


def _run_spectral_sanity(w: Witness) -> CheckReport:
    g = w.graph
    pair = laplacian_spectrum(g)
    lam = pair.eigenvalues
    errs = [
        max(0.0, float(-lam[0])) / 1e-12 if lam[0] < 0 else 0.0,
        max(0.0, float(lam[-1]) - 2.0) / 1e-12,
        abs(float(lam[0])) / 1e-10,
    ]
    sqrt_deg = np.sqrt(degree_vector(g))
    kernel = sqrt_deg / float(np.linalg.norm(sqrt_deg))
    errs.append(float(np.abs(pair.eigenvectors[:, 0] - kernel).max()) / 1e-10)
    checks = graph_checks(g)
    is_two = abs(float(lam[-1]) - 2.0) <= 1e-9
    errs.append(0.0 if is_two == checks.bipartite else np.inf)
    if checks.connected:
        errs.append(0.0 if float(lam[1]) > 1e-10 else np.inf)
    return _report(w.label, max(errs), 1.0, w)


CHECK_RUNNERS = {
    "kronecker_energy": _run_kronecker_energy,
    "gradient_fd": _run_gradient_fd,
    "curl_symmetric": _run_curl_symmetric,
    "curl_asymmetry": _run_curl_asymmetry,
    "filter_equivalence": _run_filter_equivalence,
    "monotonicity": _run_monotonicity,
    **dict.fromkeys(PREDICTIONS, _run_prediction),
    "rate_certification": _run_rate_certification,
    "decomposition": _run_decomposition,
    "special_cases": _run_special_cases,
    "spectral_sanity": _run_spectral_sanity,
}


def run_check(witness: Witness) -> CheckReport:
    """Execute the check a witness describes and report the outcome."""
    if witness.check not in CHECK_RUNNERS:
        raise ValidationError(f"unknown check kind {witness.check!r}")
    if witness.graph is None:
        raise ValidationError(f"check {witness.check!r} needs a graph block")
    witness.read.clear()
    report = CHECK_RUNNERS[witness.check](witness)
    # a field the check never read would pass unseen and ride along in the
    # serialized witness of a failure
    unread = witness.unread()
    if unread:
        kind, name = unread[0]
        raise ValidationError(f"check {witness.check!r} reads no {kind} {name!r}; "
                              "remove it from the witness")
    return report


# ---------------------------------------------------------------------------
# witness (de)serialization
# ---------------------------------------------------------------------------

_WITNESS_HEADER = "gel-witness 1"


def _fmt(x: float) -> str:
    """17 significant digits, which read back as the same double."""
    return f"{float(x):.17g}"


def serialize_witness(w: Witness) -> str:
    """Render a witness as a self-contained replayable text document."""
    lines = [_WITNESS_HEADER, f"check {w.check}", f"label {w.label}"]
    if w.graph is not None:
        lines.append("graph")
        lines.append(f"n {w.graph.n}")
        for u, v in w.graph.edges.tolist():
            lines.append(f"{u} {v}")
        lines.append("end")
    for name in sorted(w.matrices):
        mat = np.atleast_2d(np.asarray(w.matrices[name], dtype=float))
        lines.append(f"matrix {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(_fmt(x) for x in row))
        lines.append("end")
    for name in sorted(w.scalars):
        lines.append(f"scalar {name} {_fmt(w.scalars[name])}")
    for name in sorted(w.tags):
        lines.append(f"tag {name} {w.tags[name]}")
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> Witness:
    """Parse a witness document; raises parse errors with line numbers."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _WITNESS_HEADER:
        raise ParseError(f"line 1: expected header {_WITNESS_HEADER!r}")
    check = label = None
    graph = None
    matrices: dict[str, np.ndarray] = {}
    scalars: dict[str, float] = {}
    tags: dict[str, str] = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        lineno = i + 1
        i += 1
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "check" and len(tokens) == 2:
            check = tokens[1]
        elif kind == "label":
            label = line.split(None, 1)[1] if len(tokens) > 1 else ""
        elif kind == "graph":
            start = i
            while i < len(lines) and lines[i].strip() != "end":
                i += 1
            if i == len(lines):
                raise ParseError(f"line {lineno}: graph block missing 'end'")
            graph = _parse_edge_lines(enumerate(lines[start:i], start=start + 1))
            i += 1
        elif kind == "matrix":
            if len(tokens) != 4:
                raise ParseError(f"line {lineno}: bad matrix header {line!r}")
            try:
                name, rows, cols = tokens[1], int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: matrix size in {line!r} is not an integer"
                ) from None
            data = []
            for _ in range(rows):
                if i >= len(lines):
                    raise ParseError(f"line {lineno}: matrix {name!r} is truncated")
                entries = lines[i].split()
                if len(entries) != cols:
                    raise ParseError(
                        f"line {i + 1}: expected {cols} entries, got {len(entries)}"
                    )
                try:
                    data.append([float(x) for x in entries])
                except ValueError:
                    raise ParseError(f"line {i + 1}: non-numeric matrix entry") from None
                i += 1
            if i >= len(lines) or lines[i].strip() != "end":
                raise ParseError(f"line {i + 1}: matrix {name!r} missing 'end'")
            i += 1
            matrices[name] = np.array(data)
        elif kind == "scalar":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: bad scalar line {line!r}")
            try:
                scalars[tokens[1]] = float(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric scalar") from None
        elif kind == "tag":
            if len(tokens) < 3:
                raise ParseError(f"line {lineno}: bad tag line {line!r}")
            tags[tokens[1]] = " ".join(tokens[2:])
        else:
            raise ParseError(f"line {lineno}: unrecognized directive {line!r}")
    if check is None:
        raise ParseError("witness has no 'check' line")
    return Witness(
        check=check,
        label=label or check,
        graph=graph,
        matrices=matrices,
        scalars=scalars,
        tags=tags,
    )


# ---------------------------------------------------------------------------
# default battery
# ---------------------------------------------------------------------------

#: The default battery: one witness file per check, named ``NN_<label>.txt``
#: so that sorted names give the run order.
_SUITE_DIR = os.path.join(os.path.dirname(__file__), "suite")


def default_suite() -> list[Witness]:
    """The default verification battery: the witness files shipped in
    ``gel/suite``, in name order, each read as ``gel replay`` reads it."""
    return [parse_witness(_read_text(os.path.join(_SUITE_DIR, name), "witness"))
            for name in sorted(os.listdir(_SUITE_DIR)) if name.endswith(".txt")]
