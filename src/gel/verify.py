"""Independent oracles and the self-verification check battery.

Each check recomputes a claim along a second, dumber route — explicit
Kronecker assemblies, central finite differences, long trajectories — and
compares against the closed-form implementation.  Checks are described by
:class:`Witness` objects (graph + matrices + scalars + tags), so a failing
check serializes to a self-contained text document that ``gel replay`` can
re-run verbatim.  A witness names its model's fields as a config does.  The
diagonal weights are ``omega_diag``, a config's ``omega``.

The checks that run a model and compare the run with a prediction are rows
of ``PREDICTIONS``: the variant, each compared quantity at its tolerance,
the frequency the final Rayleigh quotient must reach, and a default step
count or horizon rule.  One runner serves them all; a new prediction is one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from . import energy as energy_mod
from .dynamics import (
    ModelSpec,
    run_trajectory,
    spectral_filter_step,
    step_model,
    trajectory_states,
)
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
    """Self-contained description of one check instance."""

    check: str
    label: str
    graph: Graph | None = None
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    tags: dict[str, str] = field(default_factory=dict)

    def matrix(self, name: str) -> np.ndarray:
        if name not in self.matrices:
            raise ValidationError(f"check {self.check!r} needs matrix {name!r}")
        return self.matrices[name]

    def scalar(self, name: str, default: float | None = None) -> float:
        if name in self.scalars:
            return self.scalars[name]
        if default is None:
            raise ValidationError(f"check {self.check!r} needs scalar {name!r}")
        return default

    def count(self, name: str, default: int | None = None) -> int:
        value = self.scalar(name, default)
        if not (math.isfinite(value) and float(value).is_integer()):
            raise ValidationError(
                f"check {self.check!r}: scalar {name!r} must be a whole number, got {value!r}"
            )
        return int(value)

    def tag(self, name: str, default: str | None = None) -> str:
        if name in self.tags:
            return self.tags[name]
        if default is None:
            raise ValidationError(f"check {self.check!r} needs tag {name!r}")
        return default


def _weights(w: Witness) -> WeightSet:
    """The witness's W, Omega, Wtilde and omega_diag; W defaults to zeros
    of omega_diag's width, the others to zeros."""
    diag = w.matrices.get("omega_diag")
    wmat = w.matrix("W") if diag is None or "W" in w.matrices else np.zeros((diag.size,) * 2)
    return WeightSet(W=wmat, Omega=w.matrices.get("Omega"),
                     Wtilde=w.matrices.get("Wtilde"), omega_diag=diag)


def _spec(w: Witness, variant: str, **given) -> ModelSpec:
    """The ``variant`` model of the witness's fields, named as in a config
    (the weights, KtK, OmegaTilde and tau); ``given`` fields win."""
    fields = {"KtK": w.matrices.get("KtK"), "OmegaTilde": w.matrices.get("OmegaTilde")}
    if "W" in w.matrices or "omega_diag" in w.matrices:
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


def _run_gradient_fd(w: Witness) -> CheckReport:
    """Central finite differences of the energy against -2x the flow field."""
    h = w.scalar("h", 1e-5)
    if not 1e-7 <= h <= 1e-3:
        raise ValidationError(f"finite-difference step h must be in [1e-7, 1e-3], got {h!r}")
    g = w.graph
    feats = as_features(g, w.matrix("F"))
    weights = _weights(w)
    F0 = w.matrices.get("F0")
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
    wmat = np.asarray(W, dtype=float)
    omat = np.asarray(Omega, dtype=float)
    d = wmat.shape[0]
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
    steps = check_count(w.count("steps", 50), "steps", 1)
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
    F0 = w.matrices.get("F0")
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
    return _report(w.label, max(0.0, 1e-6 - defect), 0.0, w)


def _direction_mismatch(direction: np.ndarray, predicted: np.ndarray) -> float:
    """Entrywise distance to the prediction, up to a global sign flip."""
    return float(min(np.abs(direction - predicted).max(), np.abs(direction + predicted).max()))


def _horizon(ratio: float, target: float, cap: int = 20000) -> int:
    if ratio <= 0.0:
        return 1
    if ratio >= 1.0:
        return cap
    return min(cap, max(1, math.ceil(math.log(target) / math.log(ratio))))


def _contracted(w: Witness, spec: ModelSpec, profile) -> int:
    """Steps until the profile's contraction has shrunk the rest by 1e-9."""
    return _horizon(profile.contraction, 1e-9)


def _cgnn_horizon(w: Witness, spec: ModelSpec, profile) -> int:
    """Steps until lambda_2's factor over the top factor reaches 1e-8; the
    top eigenvalue of OmegaTilde's symmetric part bounds its spectrum."""
    lam = laplacian_spectrum(w.graph).eigenvalues
    mixer = spec.OmegaTilde
    tilde_top = float(np.linalg.eigvalsh(0.5 * (mixer + mixer.T))[-1])
    ratio = (1.0 + spec.tau * (tilde_top - float(lam[1]))) / (1.0 + spec.tau * tilde_top)
    return _horizon(max(ratio, 0.0), 1e-8)


@dataclass(frozen=True)
class _Prediction:
    """A check that runs ``variant`` and compares the run with a prediction.

    ``tolerances`` maps each compared quantity to its tolerance:
    ``direction`` and ``log_scale`` of the final state against
    ``closed_form_features``; ``rayleigh``, the final Rayleigh quotient,
    against ``frequency``; ``sign_free``, the final direction up to sign,
    ``growth``, the last step's log-growth, and ``terminal``, the final
    features, against ``asymptotic_profile``.  ``frequency`` is "LFD" (0),
    "HFD" (lambda_max), or "expected": the witness's ``expected`` tag,
    which ``classify_regime`` must confirm.  ``steps`` is the default step
    count (None: the witness must give one) or a horizon rule.
    """

    variant: str
    tolerances: dict[str, float]
    frequency: str | None = None
    steps: int | Callable[[Witness, ModelSpec, object], int] | None = 2000
    source_free: bool = False


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
}


def _run_prediction(w: Witness) -> CheckReport:
    """Run the witness's model and compare it with its row of PREDICTIONS.

    One quantity reports its own error and tolerance; several report the
    worst error in units of its tolerance, against 1.
    """
    row = PREDICTIONS[w.check]
    g, F0, tolerances = w.graph, w.matrix("F0"), row.tolerances
    spec = _spec(w, row.variant, source_free=row.source_free)
    frequency = row.frequency
    if frequency == "expected":
        frequency = w.tag("expected")
        if classify_regime(g, spec.weights.W, spec.tau).regime != frequency:
            return _report(w.label, np.inf, 1.0, w)
    profile = None
    if tolerances.keys() & {"sign_free", "growth", "terminal"}:
        profile = asymptotic_profile(g, spec, F0)
        if "terminal" in tolerances and profile.terminal is None:
            raise HypothesisError(f"the {profile.label} profile has no terminal state")
    steps = row.steps(w, spec, profile) if callable(row.steps) else w.count("steps", row.steps)
    traj = run_trajectory(spec, g, F0, steps)
    closed = tolerances.keys() & {"direction", "log_scale"}
    exact = closed_form_features(g, spec, steps, F0) if closed else None
    target = extreme_spectrum(g).lambda_max if frequency == "HFD" else 0.0
    measure = {
        "direction": lambda: np.abs(traj.final.direction - exact.direction).max(),
        "log_scale": lambda: abs(traj.final.log_scale - exact.log_scale),
        "rayleigh": lambda: abs(traj.rayleigh[-1] - target),
        "sign_free": lambda: _direction_mismatch(traj.final.direction, profile.direction),
        "growth": lambda: abs(traj.log_scale[-1] - traj.log_scale[-2] - math.log(profile.growth)),
        "terminal": lambda: np.abs(traj.final.features() - profile.terminal).max(),
    }
    errors = {quantity: float(measure[quantity]()) for quantity in tolerances}
    if len(errors) == 1:
        ((quantity, error),) = errors.items()
        return _report(w.label, error, tolerances[quantity], w)
    return _report(w.label, max(errors[q] / tolerances[q] for q in errors), 1.0, w)


def _run_rate_certification(w: Witness) -> CheckReport:
    g = w.graph
    F0 = w.matrix("F0")
    spec = _spec(w, "gradient_flow")
    report = classify_regime(g, spec.weights.W, spec.tau)
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


def _run_conservation(w: Witness) -> CheckReport:
    """The raw frequency-zero coefficients ``exp(log_scale) phi0^T F psi``
    stay at their start, within 1e-9 of the state's norm
    ``max(1, exp(log_scale))``: their roundoff grows with that norm, the law
    does not."""
    g = w.graph
    steps = w.count("steps", 500)
    F0 = w.matrix("F0")
    spec = _spec(w, "laplacian_omega_eq_w")
    phi0 = laplacian_spectrum(g).eigenvectors[:, 0]
    psi = spectral_decomposition(spec.weights.W).eigenvectors
    first, drift = None, 0.0
    for state in trajectory_states(spec, g, F0, steps):
        coeff = phi0 @ state.direction @ psi
        if first is None:
            first = math.exp(state.log_scale) * coeff
        # both terms over max(1, exp(log_scale)), with no exp that can overflow
        shrink = math.exp(-max(state.log_scale, 0.0))
        moved = math.exp(min(state.log_scale, 0.0)) * coeff - shrink * first
        drift = np.maximum(drift, np.abs(moved).max())
    return _report(w.label, float(drift), 1e-9, w)


def _dirichlet_monotone(
    w: Witness, spec: ModelSpec, steps: int, sign: float = 1.0
) -> CheckReport:
    """The raw Dirichlet energy times ``sign`` is nonincreasing along the
    run, within 1e-9: smoothing for ``sign = 1``, sharpening for -1."""
    traj = run_trajectory(spec, w.graph, w.matrix("F0"), steps)
    raw_dirichlet = np.exp(2.0 * traj.log_scale) * traj.dirichlet
    housing = np.maximum(1.0, np.abs(raw_dirichlet[:-1]))
    violation = float(np.max(sign * np.diff(raw_dirichlet) / housing))
    return _report(w.label, violation, 1e-9, w)


def _run_heat_monotone(w: Witness) -> CheckReport:
    tau = w.scalar("tau")
    lambda_max = float(laplacian_spectrum(w.graph).eigenvalues[-1])
    if tau > 1.0 / lambda_max:
        raise ValidationError(
            f"heat smoothing needs tau <= 1/lambda_max = {1.0 / lambda_max:.6g}"
        )
    return _dirichlet_monotone(w, _spec(w, "heat"), w.count("steps", 200))


def _run_pde_gcn_monotone(w: Witness) -> CheckReport:
    if w.scalar("tau") > 1e-3:
        raise ValidationError("the diffusion-with-metric proxy needs tau <= 1e-3")
    return _dirichlet_monotone(w, _spec(w, "pde_gcn_d"), w.count("steps", 100))


def _run_diag_sharpening(w: Witness) -> CheckReport:
    spec = _spec(w, "diag_nonlinear", sigma=w.tag("sigma", "relu"))
    return _dirichlet_monotone(w, spec, w.count("steps", 200), sign=-1.0)


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


def _run_scale_commutation(w: Witness) -> CheckReport:
    g = w.graph
    steps = w.count("steps", 30)
    F0 = w.matrix("F0")
    spec = _spec(w, "gradient_flow")
    raw = as_features(g, F0)
    worst = 0.0
    for state in islice(trajectory_states(spec, g, F0, steps), 1, None):
        raw = step_model(spec, g, raw)
        raw_dir = raw / float(np.linalg.norm(raw))
        worst = max(worst, float(np.abs(raw_dir - state.direction).max()))
    return _report(w.label, worst, 1e-9, w)


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
    "conservation": _run_conservation,
    "heat_monotone": _run_heat_monotone,
    "pde_gcn_monotone": _run_pde_gcn_monotone,
    "diag_sharpening": _run_diag_sharpening,
    "decomposition": _run_decomposition,
    "special_cases": _run_special_cases,
    "scale_commutation": _run_scale_commutation,
    "spectral_sanity": _run_spectral_sanity,
}


def run_check(witness: Witness) -> CheckReport:
    """Execute the check a witness describes and report the outcome."""
    if witness.check not in CHECK_RUNNERS:
        raise ValidationError(f"unknown check kind {witness.check!r}")
    if witness.graph is None:
        raise ValidationError(f"check {witness.check!r} needs a graph block")
    return CHECK_RUNNERS[witness.check](witness)


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

def _random_symmetric(rng: np.random.Generator, spectrum) -> np.ndarray:
    """Symmetric matrix with the given eigenvalues and a Haar-random basis."""
    vals = np.asarray(spectrum, dtype=float)
    q, _ = np.linalg.qr(rng.normal(size=(vals.size, vals.size)))
    return q @ np.diag(vals) @ q.T


def default_suite() -> list[Witness]:
    """The full seeded verification battery (about forty checks)."""
    from .graphs import complete_bipartite, cycle, erdos_renyi, path

    suite: list[Witness] = []

    def add(check: str, label: str, g, **kw) -> None:
        suite.append(
            Witness(
                check=check,
                label=label,
                graph=g,
                matrices={k: np.asarray(v, dtype=float)
                          for k, v in kw.get("matrices", {}).items()},
                scalars={k: float(v) for k, v in kw.get("scalars", {}).items()},
                tags=dict(kw.get("tags", {})),
            )
        )

    # --- energy oracles -----------------------------------------------------
    for idx, (gname, g, d) in enumerate(
        [
            ("k2", path(2), 1),
            ("cycle5", cycle(5), 2),
            ("k34", complete_bipartite(3, 4), 3),
            ("er8", erdos_renyi(8, 0.45, 11), 2),
            ("er10", erdos_renyi(10, 0.4, 23), 4),
        ]
    ):
        rng = np.random.default_rng(100 + idx)
        mats = {
            "F": rng.normal(size=(g.n, d)),
            "W": _random_symmetric(rng, rng.uniform(-1, 1, size=d)),
            "Omega": _random_symmetric(rng, rng.uniform(-0.5, 0.5, size=d)),
        }
        if idx % 2 == 1:  # exercise the (possibly asymmetric) source coupling
            mats["Wtilde"] = rng.normal(size=(d, d))
            mats["F0"] = rng.normal(size=(g.n, d))
        add("kronecker_energy", f"kronecker_energy_{gname}", g, matrices=mats)

    for idx, (gname, g, d) in enumerate(
        [
            ("k2", path(2), 1),
            ("cycle4", cycle(4), 2),
            ("er7", erdos_renyi(7, 0.5, 5), 3),
            ("k23", complete_bipartite(2, 3), 2),
            ("er9", erdos_renyi(9, 0.4, 17), 2),
        ]
    ):
        rng = np.random.default_rng(200 + idx)
        mats = {
            "F": rng.normal(size=(g.n, d)),
            "W": _random_symmetric(rng, rng.uniform(-1, 1, size=d)),
            "Omega": _random_symmetric(rng, rng.uniform(-0.5, 0.5, size=d)),
        }
        if idx % 2 == 0:
            mats["Wtilde"] = rng.normal(size=(d, d))
            mats["F0"] = rng.normal(size=(g.n, d))
        add("gradient_fd", f"gradient_fd_{gname}", g,
            matrices=mats, scalars={"h": 1e-5})

    rng = np.random.default_rng(300)
    g = erdos_renyi(6, 0.5, 31)
    sym_w = _random_symmetric(rng, rng.uniform(-1, 1, size=3))
    sym_o = _random_symmetric(rng, rng.uniform(-0.5, 0.5, size=3))
    add("curl_symmetric", "curl_symmetric", g,
        matrices={"W": sym_w, "Omega": sym_o}, scalars={"h": 1e-5})
    asym = sym_w + 0.3 * np.triu(rng.normal(size=(3, 3)), k=1)
    add("curl_asymmetry", "curl_detects_asymmetry", g,
        matrices={"W": asym, "Omega": sym_o}, scalars={"h": 1e-5})

    # --- filters and closed form -------------------------------------------
    for idx, (gname, g, d, tau) in enumerate(
        [
            ("cycle6", cycle(6), 2, 0.5),
            ("er8", erdos_renyi(8, 0.5, 41), 3, 0.25),
            ("k33", complete_bipartite(3, 3), 2, 1.0),
        ]
    ):
        rng = np.random.default_rng(400 + idx)
        add("filter_equivalence", f"filter_equivalence_{gname}", g,
            matrices={"F": rng.normal(size=(g.n, d)),
                      "W": _random_symmetric(rng, rng.uniform(-1, 1, size=d))},
            scalars={"tau": tau})

    for idx, (gname, g, d, tau, steps) in enumerate(
        [
            ("k2", path(2), 1, 0.5, 50),
            ("er9", erdos_renyi(9, 0.45, 53), 3, 0.5, 80),
            ("cycle7", cycle(7), 2, 0.25, 100),
        ]
    ):
        rng = np.random.default_rng(500 + idx)
        add("closed_form_vs_trajectory", f"closed_form_vs_trajectory_{gname}", g,
            matrices={"F0": rng.normal(size=(g.n, d)),
                      "W": _random_symmetric(rng, rng.uniform(-1.2, 1.2, size=d))},
            scalars={"tau": tau, "steps": steps})

    # --- nonlinear energy descent ------------------------------------------
    for idx, sigma in enumerate(["relu", "tanh", "identity"]):
        rng = np.random.default_rng(600 + idx)
        g = erdos_renyi(7, 0.5, 61 + idx)
        d = 2
        add("monotonicity", f"monotonicity_{sigma}", g,
            matrices={"F0": rng.normal(size=(g.n, d)),
                      "W": _random_symmetric(rng, rng.uniform(-1, 1, size=d)),
                      "Omega": _random_symmetric(rng, rng.uniform(-0.5, 0.5, size=d))},
            scalars={"steps": 50, "tau_proxy": 1e-3, "tau_discrete": 0.3},
            tags={"sigma": sigma})

    # --- regime realization -------------------------------------------------
    rng = np.random.default_rng(700)
    g = erdos_renyi(9, 0.5, 71)
    lam_max = float(laplacian_spectrum(g).eigenvalues[-1])
    w_hfd = _random_symmetric(rng, [-1.4, 0.2 * 1.4 * (lam_max - 1.0), 0.0])
    add("regime_realization", "hfd_realized_er9", g,
        matrices={"W": w_hfd, "F0": rng.normal(size=(g.n, 3))},
        scalars={"tau": 0.5}, tags={"expected": "HFD"})
    add("rate_certification", "rate_certified_er9", g,
        matrices={"W": w_hfd, "F0": rng.normal(size=(g.n, 3))},
        scalars={"tau": 0.5})

    g2 = complete_bipartite(5, 5)
    add("regime_realization", "hfd_realized_k55", g2,
        matrices={"W": np.array([[-1.0]]),
                  "F0": np.random.default_rng(702).normal(size=(g2.n, 1))},
        scalars={"tau": 0.5}, tags={"expected": "HFD"})

    rng = np.random.default_rng(710)
    g3 = erdos_renyi(8, 0.5, 73)
    w_lfd = _random_symmetric(rng, [1.0, -0.2, 0.1])
    add("regime_realization", "lfd_realized_er8", g3,
        matrices={"W": w_lfd, "F0": rng.normal(size=(g3.n, 3))},
        scalars={"tau": 0.5}, tags={"expected": "LFD"})
    add("regime_realization", "lfd_realized_k2", path(2),
        matrices={"W": np.array([[1.0]]),
                  "F0": np.array([[1.0], [0.0]])},
        scalars={"tau": 0.5}, tags={"expected": "LFD"})

    for idx, (gname, g4) in enumerate(
        [("cycle5", cycle(5)), ("er8", erdos_renyi(8, 0.5, 83))]
    ):
        rng = np.random.default_rng(720 + idx)
        d = 2
        add("no_residual_lfd", f"no_residual_lfd_{gname}", g4,
            matrices={"W": _random_symmetric(rng, rng.uniform(-1, 1, size=d)),
                      "F0": rng.normal(size=(g4.n, d))},
            scalars={"tau": 0.5})

    # --- comparison dynamics ------------------------------------------------
    rng = np.random.default_rng(800)
    add("heat_monotone", "heat_dirichlet_monotone", erdos_renyi(8, 0.4, 91),
        matrices={"F0": rng.normal(size=(8, 2))},
        scalars={"tau": 0.3, "steps": 200})

    rng = np.random.default_rng(810)
    k = rng.normal(size=(3, 3))
    add("pde_gcn_monotone", "pde_gcn_dirichlet_monotone", erdos_renyi(8, 0.45, 93),
        matrices={"F0": rng.normal(size=(8, 3)), "KtK": k.T @ k},
        scalars={"tau": 1e-3, "steps": 100})

    rng = np.random.default_rng(820)
    add("cgnn_decay", "cgnn_never_hfd", erdos_renyi(9, 0.4, 95),
        matrices={"F0": rng.normal(size=(9, 2)),
                  "OmegaTilde": _random_symmetric(rng, rng.uniform(-1, 1, size=2))},
        scalars={"tau": 0.05})

    rng = np.random.default_rng(830)
    add("grand_mean", "grand_mean_limit_cycle6", cycle(6),
        matrices={"F0": rng.normal(size=(6, 2))},
        scalars={"tau": 0.1, "steps": 1500})

    rng = np.random.default_rng(840)
    add("diag_sharpening", "diag_nonlinear_sharpening", erdos_renyi(7, 0.5, 97),
        matrices={"F0": rng.normal(size=(7, 2)),
                  "omega_diag": np.array([[-0.8, -0.3]])},
        scalars={"tau": 0.01, "steps": 100}, tags={"sigma": "relu"})

    # --- special flows ------------------------------------------------------
    rng = np.random.default_rng(900)
    add("conservation", "omega_eq_w_conservation", complete_bipartite(2, 3),
        matrices={"W": np.diag([-1.0, 0.3]),
                  "F0": rng.normal(size=(5, 2))},
        scalars={"tau": 0.01, "steps": 500})
    add("omega_eq_w_hfd", "omega_eq_w_negative_gives_hfd", complete_bipartite(2, 3),
        matrices={"W": np.diag([-1.0, 0.3]),
                  "F0": np.random.default_rng(901).normal(size=(5, 2))},
        scalars={"tau": 0.05, "steps": 1200})

    rng = np.random.default_rng(910)
    add("harmonic_limit", "harmonic_limit_full_rank", path(4),
        matrices={"W": np.array([[1.2, 0.3], [0.3, 0.8]]),
                  "F0": rng.normal(size=(4, 2))},
        scalars={"tau": 0.2, "steps": 2500})
    add("harmonic_limit", "harmonic_limit_singular", path(4),
        matrices={"W": _random_symmetric(np.random.default_rng(911), [0.9, 0.0]),
                  "F0": np.random.default_rng(912).normal(size=(4, 2))},
        scalars={"tau": 0.2, "steps": 2500})

    rng = np.random.default_rng(920)
    add("special_cases", "heat_equals_identity_weights", erdos_renyi(7, 0.5, 99),
        matrices={"F": rng.normal(size=(7, 2))}, scalars={"tau": 0.3})

    rng = np.random.default_rng(930)
    add("scale_commutation", "renormalization_commutes", erdos_renyi(8, 0.5, 101),
        matrices={"W": _random_symmetric(rng, rng.uniform(-1.2, 1.2, size=2)),
                  "F0": rng.normal(size=(8, 2))},
        scalars={"tau": 0.5, "steps": 30})

    rng = np.random.default_rng(940)
    add("decomposition", "attraction_repulsion_split", erdos_renyi(8, 0.45, 103),
        matrices={"F": rng.normal(size=(8, 3)),
                  "W": _random_symmetric(rng, [0.9, -0.6, 0.0]),
                  "Omega": _random_symmetric(rng, rng.uniform(-0.5, 0.5, size=3))})

    for gname, g5 in [
        ("er10", erdos_renyi(10, 0.4, 105)),
        ("cycle6", cycle(6)),
        ("cycle5", cycle(5)),
        ("k34", complete_bipartite(3, 4)),
        ("path6", path(6)),
    ]:
        add("spectral_sanity", f"spectral_sanity_{gname}", g5)

    return suite
