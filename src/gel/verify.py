"""Independent oracles and the self-verification check battery.

Each check recomputes a claim along a second, dumber route — explicit
Kronecker assemblies, central finite differences, long trajectories — and
compares against the closed-form implementation.  Checks are described by
:class:`Witness` objects (graph + matrices + scalars + tags), so a failing
check serializes to a self-contained text document that ``gel replay`` can
re-run verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import energy as energy_mod
from .dynamics import (
    ModelSpec,
    run_trajectory,
    spectral_filter_step,
    step_model,
    trajectory_states,
)
from .energy import WeightSet, as_features, dirichlet_energy, parametric_energy
from .errors import NumericError, ParseError, ValidationError
from .graphs import (
    Graph,
    degree_vector,
    graph_checks,
    laplacian_spectrum,
    normalized_adjacency,
    normalized_laplacian,
    spectral_decomposition,
)
from .spectral import (
    TIE_TOL,
    asymptotic_profile,
    classify_regime,
    closed_form_features,
    convergence_rates,
)

__all__ = [
    "CheckReport",
    "Witness",
    "ASSEMBLY_LIMIT",
    "hessian_assembly",
    "kronecker_oracle_energy",
    "gradient_fd_check",
    "curl_asymmetry",
    "monotonicity_check",
    "filter_equivalence_check",
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
        return int(round(self.scalar(name, default)))


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


def gradient_fd_check(
    g: Graph, F, weights: WeightSet, F0=None, h: float = 1e-5
) -> CheckReport:
    """Central finite differences of the energy against -2x the flow field."""
    w = Witness(
        check="gradient_fd",
        label="gradient_fd",
        graph=g,
        matrices={"F": np.asarray(F, dtype=float), "W": weights.W,
                  "Omega": weights.Omega, "Wtilde": weights.Wtilde},
        scalars={"h": float(h)},
    )
    if F0 is not None:
        w.matrices["F0"] = np.asarray(F0, dtype=float)
    return _run_gradient_fd(w)


def _run_gradient_fd(w: Witness) -> CheckReport:
    h = w.scalar("h", 1e-5)
    if not 1e-7 <= h <= 1e-3:
        raise ValidationError(f"finite-difference step h must be in [1e-7, 1e-3], got {h!r}")
    g = w.graph
    feats = as_features(g, w.matrix("F"))
    weights = WeightSet(W=w.matrix("W"), Omega=w.matrices.get("Omega"),
                        Wtilde=w.matrices.get("Wtilde"))
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


def monotonicity_check(
    g: Graph,
    weights: WeightSet,
    F0,
    sigma: str = "relu",
    steps: int = 50,
    tau_proxy: float = 1e-3,
    tau_discrete: float = 0.3,
) -> CheckReport:
    """Energy descent of the nonlinear flow, along both routes.

    (a) with a step below 1e-3 the energy must be nonincreasing within
    1e-9 relative slack (continuous-descent proxy); (b) at the coarse step
    the exact inequality ``E(next) - E <= c * |next - F|^2`` must hold with
    ``c`` the most positive eigenvalue of the assembled quadratic form
    (c = 0 when none), within 1e-9.
    """
    w = Witness(
        check="monotonicity",
        label="monotonicity",
        graph=g,
        matrices={"F0": np.asarray(F0, dtype=float), "W": weights.W,
                  "Omega": weights.Omega},
        scalars={"steps": float(steps), "tau_proxy": float(tau_proxy),
                 "tau_discrete": float(tau_discrete)},
        tags={"sigma": sigma},
    )
    return _run_monotonicity(w)


def _run_monotonicity(w: Witness) -> CheckReport:
    g = w.graph
    weights = WeightSet(W=w.matrix("W"), Omega=w.matrices.get("Omega"))
    feats = as_features(g, w.matrix("F0"))
    sigma = w.tags.get("sigma", "relu")
    steps = w.count("steps", 50)
    tau_proxy = w.scalar("tau_proxy", 1e-3)
    tau_discrete = w.scalar("tau_discrete", 0.3)
    if tau_proxy > 1e-3:
        raise ValidationError(
            f"the descent proxy needs tau <= 1e-3, got {tau_proxy!r}"
        )

    def energies(tau: float) -> tuple[np.ndarray, list[np.ndarray]]:
        spec = ModelSpec(
            variant="gradient_flow_nonlinear", weights=weights, tau=tau, sigma=sigma
        )
        states = [feats]
        for _ in range(steps):
            states.append(step_model(spec, g, states[-1]))
        values = np.array([parametric_energy(g, s, weights) for s in states])
        return values, states

    proxy_vals, _ = energies(tau_proxy)
    rel_violation = float(
        np.max(np.diff(proxy_vals) / np.maximum(1.0, np.abs(proxy_vals[:-1])))
    )

    assembly = hessian_assembly(g, weights)
    top = float(np.linalg.eigvalsh(assembly)[-1])
    c = max(top, 0.0)
    disc_vals, disc_states = energies(tau_discrete)
    slack = [
        disc_vals[k + 1] - disc_vals[k]
        - c * float(np.sum((disc_states[k + 1] - disc_states[k]) ** 2))
        for k in range(steps)
    ]
    discrete_violation = float(np.max(slack))

    max_error = max(rel_violation, discrete_violation)
    return _report(w.label, max_error, 1e-9, w)


def filter_equivalence_check(g: Graph, W, tau: float, F) -> CheckReport:
    """Spectral-filter step against the matrix step, entrywise to 1e-12."""
    w = Witness(
        check="filter_equivalence",
        label="filter_equivalence",
        graph=g,
        matrices={"F": np.asarray(F, dtype=float), "W": np.asarray(W, dtype=float)},
        scalars={"tau": float(tau)},
    )
    return _run_filter_equivalence(w)


def _run_filter_equivalence(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    feats = w.matrix("F")
    spec = ModelSpec(variant="gradient_flow", weights=WeightSet(W=wmat), tau=tau)
    direct = step_model(spec, g, feats)
    filtered = spectral_filter_step(g, wmat, tau, feats)
    return _report(w.label, float(np.abs(direct - filtered).max()), 1e-12, w)


# ---------------------------------------------------------------------------
# witness-driven check runners
# ---------------------------------------------------------------------------

def _run_kronecker_energy(w: Witness) -> CheckReport:
    g = w.graph
    weights = WeightSet(W=w.matrix("W"), Omega=w.matrices.get("Omega"),
                        Wtilde=w.matrices.get("Wtilde"))
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


def _run_closed_form_vs_trajectory(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    steps = w.count("steps")
    F0 = w.matrix("F0")
    spec = ModelSpec(variant="gradient_flow", weights=WeightSet(W=wmat), tau=tau)
    traj = run_trajectory(spec, g, F0, steps)
    exact = closed_form_features(g, wmat, tau, steps, F0)
    dir_err = float(np.abs(traj.final.direction - exact.direction).max())
    log_err = abs(traj.final.log_scale - exact.log_scale)
    max_error = max(dir_err / 1e-10, log_err / 1e-8)
    return _report(w.label, max_error, 1.0, w)


def _direction_mismatch(direction: np.ndarray, predicted: np.ndarray) -> float:
    """Entrywise distance to the prediction, up to a global sign flip."""
    return float(
        min(
            np.abs(direction - predicted).max(),
            np.abs(direction + predicted).max(),
        )
    )


def _grid_rate_ratio(g: Graph, W, tau: float) -> float:
    """Subdominant-to-dominant per-step factor ratio of the mode grid."""
    lam = laplacian_spectrum(g).eigenvalues
    mu = spectral_decomposition(np.asarray(W, dtype=float)).eigenvalues
    mags = np.abs(1.0 + tau * np.outer(1.0 - lam, mu)).ravel()
    top = float(mags.max())
    sub = mags[mags < top - TIE_TOL * max(top, 1.0)]
    if not sub.size:
        return 0.0
    return float(sub.max()) / top


def _horizon(ratio: float, target: float, cap: int = 20000) -> int:
    if ratio <= 0.0:
        return 1
    if ratio >= 1.0:
        return cap
    return min(cap, max(1, math.ceil(math.log(target) / math.log(ratio))))


def _run_regime_realization(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    F0 = w.matrix("F0")
    expected = w.tags["expected"]
    report = classify_regime(g, wmat, tau)
    if report.regime != expected:
        return _report(w.label, np.inf, 1.0, w)
    spec = ModelSpec(variant="gradient_flow", weights=WeightSet(W=wmat), tau=tau)
    profile = asymptotic_profile(g, spec, F0)
    steps = _horizon(_grid_rate_ratio(g, wmat, tau), 1e-9)
    traj = run_trajectory(spec, g, F0, steps)
    target_rq = report.lambda_max if expected == "HFD" else 0.0
    rq_err = abs(traj.rayleigh[-1] - target_rq)
    dir_err = _direction_mismatch(traj.final.direction, profile.direction)
    growth_err = abs(
        (traj.log_scale[-1] - traj.log_scale[-2]) - math.log(profile.growth)
    )
    max_error = max(rq_err / 1e-6, dir_err / 1e-5, growth_err / 1e-6)
    return _report(w.label, max_error, 1.0, w)


def _run_no_residual_lfd(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    F0 = w.matrix("F0")
    spec = ModelSpec(variant="no_residual", weights=WeightSet(W=wmat), tau=tau)
    profile = asymptotic_profile(g, spec, F0)
    lam = laplacian_spectrum(g).eigenvalues
    mu = spectral_decomposition(np.asarray(wmat, dtype=float)).eigenvalues
    amax = float(np.abs(mu).max())
    ratios = np.abs(np.outer(1.0 - lam, mu)).ravel() / amax
    sub = ratios[ratios < 1.0 - 1e-9]
    steps = _horizon(float(sub.max()) if sub.size else 0.0, 1e-9)
    traj = run_trajectory(spec, g, F0, steps)
    rq_err = traj.rayleigh[-1]
    dir_err = _direction_mismatch(traj.final.direction, profile.direction)
    max_error = max(rq_err / 1e-6, dir_err / 1e-5)
    return _report(w.label, max_error, 1.0, w)


def _run_rate_certification(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    F0 = w.matrix("F0")
    rates = convergence_rates(g, wmat, tau)
    spec = ModelSpec(variant="gradient_flow", weights=WeightSet(W=wmat), tau=tau)
    profile = asymptotic_profile(g, spec, F0)
    # Certify over the window where the quotient is numerically well posed.
    # Each step injects ~1e-16 of fresh roundoff into the direction, so once
    # the relative residual falls below ~1e-5 the measured contraction picks
    # up noise/residual >~ the 1e-9 tolerance and stops testing the theorem.
    steps = _horizon(_grid_rate_ratio(g, wmat, tau), 1e-5)
    worst = 0.0
    prev = None
    for state in trajectory_states(spec, g, F0, steps):
        direction = state.direction
        block = profile.direction * float(np.sum(profile.direction * direction))
        residual = float(np.linalg.norm(direction - block))
        dominant = float(np.abs(np.sum(profile.direction * direction)))
        if prev is not None and prev > 1e-12 and residual > 1e-13:
            worst = max(worst, (residual / dominant) / prev)
        prev = (residual / dominant) if dominant > 0 else None
    max_error = worst - rates.ratio
    return _report(w.label, max_error, 1e-9, w)


def _run_conservation(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    steps = w.count("steps", 500)
    F0 = w.matrix("F0")
    spec = ModelSpec(
        variant="laplacian_omega_eq_w", weights=WeightSet(W=wmat), tau=tau
    )
    phi0 = laplacian_spectrum(g).eigenvectors[:, 0]
    psi = spectral_decomposition(np.asarray(wmat, dtype=float)).eigenvectors
    coeffs = np.array(
        [
            math.exp(state.log_scale) * (phi0 @ state.direction @ psi)
            for state in trajectory_states(spec, g, F0, steps)
        ]
    )
    drift = float(np.abs(coeffs - coeffs[0]).max())
    return _report(w.label, drift, 1e-9, w)


def _run_omega_eq_w_hfd(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    steps = w.count("steps", 2000)
    F0 = w.matrix("F0")
    spec = ModelSpec(
        variant="laplacian_omega_eq_w", weights=WeightSet(W=wmat), tau=tau
    )
    traj = run_trajectory(spec, g, F0, steps)
    lambda_max = float(laplacian_spectrum(g).eigenvalues[-1])
    return _report(w.label, abs(traj.rayleigh[-1] - lambda_max), 1e-6, w)


def _run_harmonic_limit(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    steps = w.count("steps", 2000)
    F0 = w.matrix("F0")
    spec = ModelSpec(variant="harmonic", weights=WeightSet(W=wmat), tau=tau)
    profile = asymptotic_profile(g, spec, F0)
    traj = run_trajectory(spec, g, F0, steps)
    terminal = traj.final.features()
    return _report(
        w.label, float(np.abs(terminal - profile.terminal).max()), 1e-6, w
    )


def _run_grand_mean(w: Witness) -> CheckReport:
    g = w.graph
    tau = w.scalar("tau")
    steps = w.count("steps", 2000)
    F0 = w.matrix("F0")
    spec = ModelSpec(variant="grand_linear", tau=tau)
    traj = run_trajectory(spec, g, F0, steps)
    terminal = traj.final.features()
    means = as_features(g, F0).mean(axis=0)
    return _report(
        w.label, float(np.abs(terminal - means[None, :]).max()), 1e-8, w
    )


def _run_cgnn_decay(w: Witness) -> CheckReport:
    g = w.graph
    omega_tilde = w.matrix("OmegaTilde")
    tau = w.scalar("tau")
    F0 = w.matrix("F0")
    spec = ModelSpec(
        variant="cgnn", OmegaTilde=omega_tilde, tau=tau, source_free=True
    )
    lam = laplacian_spectrum(g).eigenvalues
    tilde_top = float(np.linalg.eigvalsh(0.5 * (omega_tilde + omega_tilde.T))[-1])
    ratio = (1.0 + tau * (tilde_top - float(lam[1]))) / (1.0 + tau * tilde_top)
    steps = _horizon(max(ratio, 0.0), 1e-8)
    traj = run_trajectory(spec, g, F0, steps)
    return _report(w.label, float(traj.rayleigh[-1]), 1e-6, w)


def _run_heat_monotone(w: Witness) -> CheckReport:
    g = w.graph
    tau = w.scalar("tau")
    steps = w.count("steps", 200)
    F0 = w.matrix("F0")
    lambda_max = float(laplacian_spectrum(g).eigenvalues[-1])
    if tau > 1.0 / lambda_max:
        raise ValidationError(
            f"heat smoothing needs tau <= 1/lambda_max = {1.0 / lambda_max:.6g}"
        )
    spec = ModelSpec(variant="heat", tau=tau)
    traj = run_trajectory(spec, g, F0, steps)
    raw_dirichlet = np.exp(2.0 * traj.log_scale) * traj.dirichlet
    housing = np.maximum(1.0, np.abs(raw_dirichlet[:-1]))
    violation = float(np.max(np.diff(raw_dirichlet) / housing))
    return _report(w.label, violation, 1e-9, w)


def _run_pde_gcn_monotone(w: Witness) -> CheckReport:
    g = w.graph
    ktk = w.matrix("KtK")
    tau = w.scalar("tau")
    steps = w.count("steps", 100)
    F0 = w.matrix("F0")
    if tau > 1e-3:
        raise ValidationError("the diffusion-with-metric proxy needs tau <= 1e-3")
    spec = ModelSpec(variant="pde_gcn_d", KtK=ktk, tau=tau)
    traj = run_trajectory(spec, g, F0, steps)
    raw_dirichlet = np.exp(2.0 * traj.log_scale) * traj.dirichlet
    housing = np.maximum(1.0, np.abs(raw_dirichlet[:-1]))
    violation = float(np.max(np.diff(raw_dirichlet) / housing))
    return _report(w.label, violation, 1e-9, w)


def _run_diag_sharpening(w: Witness) -> CheckReport:
    g = w.graph
    omega_diag = w.matrix("omega_diag").ravel()
    tau = w.scalar("tau")
    steps = w.count("steps", 200)
    F0 = w.matrix("F0")
    sigma = w.tags.get("sigma", "relu")
    weights = WeightSet(W=np.zeros((omega_diag.size, omega_diag.size)),
                        omega_diag=omega_diag)
    spec = ModelSpec(variant="diag_nonlinear", weights=weights, tau=tau, sigma=sigma)
    state = as_features(g, F0)
    values = [dirichlet_energy(g, state)]
    for _ in range(steps):
        state = step_model(spec, g, state)
        values.append(dirichlet_energy(g, state))
    arr = np.array(values)
    violation = float(np.max(-np.diff(arr) / np.maximum(1.0, np.abs(arr[:-1]))))
    return _report(w.label, violation, 1e-9, w)


def _run_decomposition(w: Witness) -> CheckReport:
    g = w.graph
    weights = WeightSet(W=w.matrix("W"), Omega=w.matrices.get("Omega"))
    feats = w.matrix("F")
    breakdown = energy_mod.energy_decomposition(g, feats, weights)
    total = parametric_energy(g, feats, weights)
    recomposed = (
        breakdown.graph_independent + breakdown.attraction - breakdown.repulsion
    )
    err = abs(breakdown.total - recomposed) + abs(breakdown.total - total)
    neg = max(0.0, -breakdown.attraction) + max(0.0, -breakdown.repulsion)
    max_error = err / max(1.0, abs(total)) + neg
    return _report(w.label, max_error, 1e-9, w)


def _run_special_cases(w: Witness) -> CheckReport:
    g = w.graph
    F = w.matrix("F")
    tau = w.scalar("tau")
    d = F.shape[1]
    eye = np.eye(d)
    heat = step_model(ModelSpec(variant="heat", tau=tau), g, F)
    as_flow = step_model(
        ModelSpec(
            variant="gradient_flow", weights=WeightSet(W=eye, Omega=eye), tau=tau
        ),
        g,
        F,
    )
    lp = step_model(ModelSpec(variant="label_propagation", tau=tau, mu=0.0), g, F)
    max_error = max(
        float(np.abs(heat - as_flow).max()), float(np.abs(heat - lp).max())
    )
    return _report(w.label, max_error, 1e-12, w)


def _run_scale_commutation(w: Witness) -> CheckReport:
    g = w.graph
    wmat = w.matrix("W")
    tau = w.scalar("tau")
    steps = w.count("steps", 30)
    F0 = w.matrix("F0")
    spec = ModelSpec(variant="gradient_flow", weights=WeightSet(W=wmat), tau=tau)
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
    "closed_form_vs_trajectory": _run_closed_form_vs_trajectory,
    "regime_realization": _run_regime_realization,
    "no_residual_lfd": _run_no_residual_lfd,
    "rate_certification": _run_rate_certification,
    "conservation": _run_conservation,
    "omega_eq_w_hfd": _run_omega_eq_w_hfd,
    "harmonic_limit": _run_harmonic_limit,
    "grand_mean": _run_grand_mean,
    "cgnn_decay": _run_cgnn_decay,
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
        for u, v in w.graph.edges:
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
            n = None
            edges = []
            while i < len(lines):
                row = lines[i].strip()
                rowno = i + 1
                i += 1
                if row == "end":
                    break
                parts = row.split()
                if parts and parts[0] == "n" and len(parts) == 2:
                    try:
                        n = int(parts[1])
                    except ValueError:
                        raise ParseError(
                            f"line {rowno}: node count {parts[1]!r} is not an integer"
                        ) from None
                elif len(parts) == 2:
                    try:
                        edges.append((int(parts[0]), int(parts[1])))
                    except ValueError:
                        raise ParseError(
                            f"line {rowno}: bad edge line {row!r}"
                        ) from None
                else:
                    raise ParseError(f"line {rowno}: bad graph line {row!r}")
            else:
                raise ParseError(f"line {lineno}: graph block missing 'end'")
            if n is None:
                n = max((max(u, v) for u, v in edges), default=-1) + 1
            graph = Graph(n=n, edges=tuple(edges))
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
    # small tau keeps total growth ~1e4: the conserved coefficients are read
    # back through exp(log_scale), which amplifies roundoff by that factor
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
