import tracemalloc

import numpy as np
import pytest

from gel.dynamics import (
    ModelSpec,
    normalize_variant,
    run_trajectory,
    spectral_filter_step,
    step_model,
    trajectory_states,
)
from gel.energy import WeightSet, dirichlet_energy, lp_energy, parametric_energy
from gel.errors import ConfigurationError, NumericError, ValidationError
from gel.graphs import (
    adjacency_matrix,
    complete_bipartite,
    cycle,
    erdos_renyi,
    normalized_adjacency,
    normalized_laplacian,
    path,
)


def gf(wmat, **kw):
    return ModelSpec("gradient_flow", weights=WeightSet(W=wmat), **kw)


# --- variant names and spec validation --------------------------------------

@pytest.mark.parametrize(
    "raw, canonical",
    [
        ("GradientFlow", "gradient_flow"),
        ("gradient_flow", "gradient_flow"),
        ("NoResidual", "no_residual"),
        ("Heat", "heat"),
        ("GRAFF", "graff"),
        ("CGNN", "cgnn"),
        ("GRANDLinear", "grand_linear"),
        ("PDEGCND", "pde_gcn_d"),
        ("LabelPropagation", "label_propagation"),
    ],
)
def test_variant_aliases(raw, canonical):
    assert normalize_variant(raw) == canonical


def test_unknown_variant_rejected():
    with pytest.raises(ConfigurationError):
        normalize_variant("spectral_banana")


def test_weight_variant_needs_weights():
    with pytest.raises(ConfigurationError):
        ModelSpec("gradient_flow")


def test_linear_variant_rejects_activation():
    with pytest.raises(ConfigurationError):
        gf(np.eye(2), sigma="relu")


def test_nonpositive_tau_rejected():
    with pytest.raises(ValidationError):
        gf(np.eye(1), tau=0.0)


def test_diag_nonlinear_rejects_positive_channel_weight():
    ws = WeightSet(W=np.zeros((2, 2)), omega_diag=np.array([-1.0, 0.5]))
    with pytest.raises(ValidationError):
        ModelSpec("diag_nonlinear", weights=ws, sigma="relu")


def test_cgnn_needs_omega_tilde():
    with pytest.raises(ConfigurationError):
        ModelSpec("cgnn")


def test_pde_needs_psd_ktk():
    with pytest.raises(ValidationError):
        ModelSpec("pde_gcn_d", KtK=np.array([[-1.0]]))


@pytest.mark.parametrize(
    "variant, param, value",
    [
        ("pde_gcn_d", "KtK", np.array([[np.nan]])),
        ("pde_gcn_d", "KtK", np.zeros((0, 0))),
        ("cgnn", "OmegaTilde", np.zeros((0, 0))),
    ],
    ids=["ktk-nan", "ktk-empty", "omega-tilde-empty"],
)
def test_matrix_parameters_reject_nonfinite_and_empty(variant, param, value):
    with pytest.raises(ValidationError):
        ModelSpec(variant, **{param: value})


# --- single-step oracles ----------------------------------------------------

def test_heat_step_oracle():
    # K_2, f = (1, 0), tau = 0.5: Delta f = (1, -1), so f - 0.5*Delta f = (.5, .5)
    out = step_model(ModelSpec("heat", tau=0.5), path(2), np.array([1.0, 0.0]))
    assert np.allclose(out.ravel(), [0.5, 0.5])


def test_gradient_flow_step_oracle():
    # K_2, W = [[-1]], Omega = 0, tau = 0.5, f = (1, 0):
    # f + 0.5 * A_bar f W = (1, 0) - 0.5*(0, 1) = (1, -0.5)
    out = step_model(gf(np.array([[-1.0]]), tau=0.5), path(2), np.array([1.0, 0.0]))
    assert np.allclose(out.ravel(), [1.0, -0.5])


def test_no_residual_replaces_state():
    g = path(2)
    out = step_model(
        ModelSpec("no_residual", weights=WeightSet(W=np.array([[2.0]])), tau=0.5),
        g,
        np.array([1.0, 0.0]),
    )
    # tau * A_bar f W = 0.5 * (0, 1) * 2 = (0, 1): the identity term is gone
    assert np.allclose(out.ravel(), [0.0, 1.0])


def test_special_case_equivalences():
    # heat == gradient flow with W = I, Omega = I == label propagation mu = 0
    rng = np.random.default_rng(8)
    g = erdos_renyi(7, 0.5, 13)
    F = rng.normal(size=(g.n, 2))
    heat = step_model(ModelSpec("heat", tau=0.3), g, F)
    flow = step_model(
        ModelSpec(
            "gradient_flow",
            weights=WeightSet(W=np.eye(2), Omega=np.eye(2)),
            tau=0.3,
        ),
        g,
        F,
    )
    lp = step_model(ModelSpec("label_propagation", tau=0.3, mu=0.0), g, F, F0=F)
    assert np.abs(heat - flow).max() < 1e-12
    assert np.abs(heat - lp).max() < 1e-12


def test_graff_step_matches_formula():
    rng = np.random.default_rng(14)
    g = cycle(5)
    w = rng.normal(size=(2, 2))
    ws = WeightSet(W=w + w.T, omega_diag=np.array([0.3, -0.2]), beta=0.7)
    F = rng.normal(size=(5, 2))
    F0 = rng.normal(size=(5, 2))
    out = step_model(ModelSpec("graff", weights=ws, tau=0.1), g, F, F0=F0)
    expected = F + 0.1 * (
        -F @ np.diag(ws.omega_diag) + normalized_adjacency(g) @ F @ ws.W - 0.7 * F0
    )
    assert np.abs(out - expected).max() < 1e-12


def test_harmonic_step_matches_formula():
    rng = np.random.default_rng(15)
    g = path(4)
    w = rng.normal(size=(2, 2))
    ws = WeightSet(W=w + w.T)
    F = rng.normal(size=(4, 2))
    out = step_model(ModelSpec("harmonic", weights=ws, tau=0.2), g, F)
    expected = F - 0.2 * normalized_laplacian(g) @ F @ (ws.W @ ws.W)
    assert np.abs(out - expected).max() < 1e-12


_VARIANT_CASES = [
    ("gradient_flow", True),
    ("gradient_flow", False),
    ("gradient_flow_nonlinear", True),
    ("no_residual", False),
    ("graff", True),
    ("graff", False),
    ("graff_nonlinear", True),
    ("heat", False),
    ("label_propagation", True),
    ("label_propagation", False),
    ("cgnn", True),
    ("cgnn", False),
    ("grand_linear", False),
    ("pde_gcn_d", False),
    ("harmonic", False),
    ("laplacian_omega_eq_w", False),
    ("diag_nonlinear", False),
]


def _variant_oracles(g, source, rng):
    """Per variant: (spec, dense one-step formula F, F0 -> F', energy of a
    unit direction x with reference ref), written out independently of the
    package's update table."""
    n, tau = g.n, 0.2
    A = normalized_adjacency(g)
    L = normalized_laplacian(g)
    adj = adjacency_matrix(g)
    R = np.eye(n) - (adj + np.eye(n)) / (adj.sum(axis=1) + 1.0)[:, None]

    def sym():
        m = rng.normal(size=(2, 2))
        return m + m.T

    W, Om = sym(), sym()
    Wt = rng.normal(size=(2, 2)) if source else np.zeros((2, 2))
    omega = np.array([0.4, -0.3])
    beta = 0.6 if source else 0.0
    mu = 0.7 if source else 0.0
    OT = rng.normal(size=(2, 2))
    k = rng.normal(size=(2, 2))
    KtK = k.T @ k
    neg = -np.abs(omega)

    gf_ws = WeightSet(W=W, Omega=Om, Wtilde=Wt)
    graff_ws = WeightSet(W=W, omega_diag=omega, beta=beta)
    graff_eff = WeightSet(W=W, Omega=np.diag(omega), Wtilde=beta * np.eye(2))

    def gf_z(F, F0):
        return -F @ Om + A @ F @ W - F0 @ Wt

    def graff_z(F, F0):
        return -F @ np.diag(omega) + A @ F @ W - beta * F0

    def dirichlet(x, ref):
        return dirichlet_energy(g, x)

    return {
        "gradient_flow": (
            ModelSpec("gradient_flow", weights=gf_ws, tau=tau),
            lambda F, F0: F + tau * gf_z(F, F0),
            lambda x, ref: parametric_energy(g, x, gf_ws, F0=ref),
        ),
        "gradient_flow_nonlinear": (
            ModelSpec("gradient_flow_nonlinear", weights=gf_ws, tau=tau, sigma="tanh"),
            lambda F, F0: F + tau * np.tanh(gf_z(F, F0)),
            lambda x, ref: parametric_energy(g, x, gf_ws, F0=ref),
        ),
        "no_residual": (
            ModelSpec("no_residual", weights=WeightSet(W=W), tau=tau),
            lambda F, F0: tau * A @ F @ W,
            lambda x, ref: parametric_energy(g, x, WeightSet(W=W)),
        ),
        "graff": (
            ModelSpec("graff", weights=graff_ws, tau=tau),
            lambda F, F0: F + tau * graff_z(F, F0),
            lambda x, ref: parametric_energy(g, x, graff_eff, F0=ref),
        ),
        "graff_nonlinear": (
            ModelSpec("graff_nonlinear", weights=graff_ws, tau=tau, sigma="relu"),
            lambda F, F0: F + tau * np.maximum(graff_z(F, F0), 0.0),
            lambda x, ref: parametric_energy(g, x, graff_eff, F0=ref),
        ),
        "heat": (
            ModelSpec("heat", tau=tau),
            lambda F, F0: F - tau * L @ F,
            dirichlet,
        ),
        "label_propagation": (
            ModelSpec("label_propagation", tau=tau, mu=mu),
            lambda F, F0: F + tau * (-L @ F - mu * (F - F0)),
            lambda x, ref: lp_energy(g, x, ref, mu),
        ),
        "cgnn": (
            ModelSpec("cgnn", OmegaTilde=OT, tau=tau, source_free=not source),
            lambda F, F0: F + tau * (-L @ F + F @ OT + (F0 if source else 0.0)),
            dirichlet,
        ),
        "grand_linear": (
            ModelSpec("grand_linear", tau=tau),
            lambda F, F0: F - tau * R @ F,
            dirichlet,
        ),
        "pde_gcn_d": (
            ModelSpec("pde_gcn_d", KtK=KtK, tau=tau),
            lambda F, F0: F - tau * L @ F @ KtK,
            dirichlet,
        ),
        "harmonic": (
            ModelSpec("harmonic", weights=WeightSet(W=W), tau=tau),
            lambda F, F0: F - tau * L @ F @ W @ W,
            lambda x, ref: parametric_energy(g, x, WeightSet(W=W @ W, Omega=W @ W)),
        ),
        "laplacian_omega_eq_w": (
            ModelSpec("laplacian_omega_eq_w", weights=WeightSet(W=W), tau=tau),
            lambda F, F0: F - tau * L @ F @ W,
            lambda x, ref: parametric_energy(g, x, WeightSet(W=W, Omega=W)),
        ),
        "diag_nonlinear": (
            ModelSpec(
                "diag_nonlinear",
                weights=WeightSet(W=W, omega_diag=neg),
                tau=tau,
                sigma="relu",
            ),
            lambda F, F0: F + tau * np.maximum(-(L @ F) @ np.diag(neg), 0.0),
            dirichlet,
        ),
    }


@pytest.mark.parametrize(
    "variant, source",
    _VARIANT_CASES,
    ids=[f"{v}-{'source' if s else 'plain'}" for v, s in _VARIANT_CASES],
)
def test_every_variant_matches_its_formula(variant, source):
    rng = np.random.default_rng(31)
    g = erdos_renyi(7, 0.5, 13)
    spec, step, energy = _variant_oracles(g, source, rng)[variant]
    F = rng.normal(size=(g.n, 2))
    F0 = rng.normal(size=(g.n, 2))

    expected = step(F, F0)
    out = step_model(spec, g, F, F0=F0)
    assert np.abs(out - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    traj = run_trajectory(spec, g, F0, 6)
    L = normalized_laplacian(g)
    for k, state in enumerate(trajectory_states(spec, g, F0, 6)):
        x = state.direction
        want = energy(x, F0)
        assert abs(traj.energy[k] - want) <= 1e-12 * abs(want), (k, traj.energy[k], want)
        trace = float(np.trace(x.T @ L @ x))
        assert abs(traj.dirichlet[k] - trace) <= 1e-12 * abs(trace), (k, "dirichlet")
        quotient = trace / float(np.sum(x * x))
        assert abs(traj.rayleigh[k] - quotient) <= 1e-12 * abs(quotient), (k, "rayleigh")

    # iterating the public step_model (renormalizing like the loop) must land
    # on the trajectory's final state
    state, log_scale = F0, 0.0
    for _ in range(6):
        state = step_model(spec, g, state, F0=F0)
        if spec.is_homogeneous:
            norm = float(np.linalg.norm(state))
            state, log_scale = state / norm, log_scale + np.log(norm)
    norm = float(np.linalg.norm(state))
    log_scale += np.log(norm)
    assert np.abs(traj.final.direction - state / norm).max() <= 1e-9
    assert abs(traj.final.log_scale - log_scale) <= 1e-9 * max(1.0, abs(log_scale))


def test_step_rejects_channel_mismatch():
    with pytest.raises(ValidationError):
        step_model(gf(np.eye(2)), path(2), np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("label_propagation", mu=1.0),
        ModelSpec("cgnn", OmegaTilde=np.eye(2)),
        ModelSpec("gradient_flow", weights=WeightSet(W=np.eye(2), Wtilde=np.eye(2))),
    ],
    ids=["label_propagation", "cgnn", "gradient_flow-Wtilde"],
)
def test_step_rejects_reference_with_wrong_channel_count(spec):
    with pytest.raises(ValidationError, match="F0"):
        step_model(spec, path(3), np.ones((3, 2)), F0=np.ones((3, 3)))


# --- trajectories -----------------------------------------------------------

def test_trajectory_shapes_and_time_axis():
    g = cycle(5)
    traj = run_trajectory(gf(np.array([[-1.0]]), tau=0.25), g, np.ones(5), 10)
    assert traj.steps.tolist() == list(range(11))
    assert np.allclose(traj.times, 0.25 * np.arange(11))
    for column in (traj.rayleigh, traj.dirichlet, traj.energy, traj.log_scale):
        assert column.shape == (11,)
    assert traj.final.direction.shape == (5, 1)


def test_trajectory_states_are_unit_and_end_at_final():
    g = erdos_renyi(8, 0.4, 21)
    F = np.random.default_rng(4).normal(size=(g.n, 2))
    for spec in (gf(np.array([[1.2, 0.3], [0.3, -0.8]])), ModelSpec("label_propagation", mu=0.5)):
        states = list(trajectory_states(spec, g, F, 7))
        assert len(states) == 8
        for state in states:
            assert abs(np.linalg.norm(state.direction) - 1.0) < 1e-12
        traj = run_trajectory(spec, g, F, 7)
        assert np.array_equal(states[-1].direction, traj.final.direction)
        assert states[-1].log_scale == traj.final.log_scale
        assert [s.log_scale for s in states] == traj.log_scale.tolist()


def test_trajectory_states_with_zero_steps_yield_the_initial_state():
    F = np.arange(1.0, 6.0)
    (state,) = trajectory_states(ModelSpec("heat"), cycle(5), F, 0)
    norm = float(np.linalg.norm(F))
    assert np.array_equal(state.direction, (F / norm)[:, None])
    assert state.log_scale == np.log(norm)


def test_trajectory_memory_does_not_grow_with_steps():
    F0 = np.random.default_rng(2).normal(size=(200, 8))
    spec = ModelSpec("heat", tau=0.1)
    tracemalloc.start()
    try:
        run_trajectory(spec, cycle(200), F0, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # keeping every state would take 5001 * 200 * 8 floats = 64 MB
    assert peak < 8e6


def test_trajectory_renormalized_matches_raw_iteration():
    rng = np.random.default_rng(5)
    g = erdos_renyi(8, 0.4, 21)
    spec = gf(np.array([[1.2, 0.3], [0.3, -0.8]]), tau=0.5)
    F = rng.normal(size=(g.n, 2))
    traj = run_trajectory(spec, g, F, 12)
    raw = F.copy()
    for _ in range(12):
        raw = step_model(spec, g, raw)
    recon = traj.final.direction * np.exp(traj.final.log_scale)
    assert np.abs(recon - raw).max() < 1e-9 * max(1.0, np.abs(raw).max())


def test_trajectory_energy_column_is_parametric_energy_of_direction():
    rng = np.random.default_rng(6)
    g = cycle(6)
    ws = WeightSet(W=np.array([[0.5]]), Omega=np.array([[0.2]]))
    spec = ModelSpec("gradient_flow", weights=ws, tau=0.3)
    F = rng.normal(size=(g.n, 1))
    traj = run_trajectory(spec, g, F, 5)
    for k, state in enumerate(trajectory_states(spec, g, F, 5)):
        expected = parametric_energy(g, state.direction, ws)
        assert traj.energy[k] == pytest.approx(expected, abs=1e-12)


def test_omega_eq_w_energy_column_is_nonnegative_for_psd_w():
    # the trace form parametric(W, Omega=W) read below zero here once the run
    # converged; the edge form keeps every row >= 0 and next to the Dirichlet value
    spec = ModelSpec(
        "laplacian_omega_eq_w", weights=WeightSet(W=np.diag([1.0, 0.5])), tau=0.5
    )
    F0 = np.random.default_rng(0).standard_normal((6, 2))
    traj = run_trajectory(spec, path(6), F0, 3000)
    assert traj.energy.min() >= 0.0
    assert traj.energy[-1] <= traj.dirichlet[-1]
    assert traj.energy[-1] >= 0.5 * traj.dirichlet[-1]


def test_label_propagation_converges_to_clamped_solution():
    # fixed point of Y' = Y - tau*(Delta Y + mu (Y - Y0)) solves
    # (Delta + mu I) Y = mu Y0
    rng = np.random.default_rng(9)
    g = erdos_renyi(8, 0.5, 3)
    y0 = rng.normal(size=(g.n, 1))
    spec = ModelSpec("label_propagation", tau=0.3, mu=1.0)
    traj = run_trajectory(spec, g, y0, 400)
    solved = np.linalg.solve(normalized_laplacian(g) + np.eye(g.n), y0)
    final = traj.final.direction * np.exp(traj.final.log_scale)
    assert np.abs(final - solved).max() < 1e-8


def test_grand_linear_conserves_means_on_regular_graph():
    rng = np.random.default_rng(10)
    g = cycle(6)
    F = rng.normal(size=(6, 2))
    # slowest mode of the self-loop walk on C6 contracts by 1 - tau/3 per step
    traj = run_trajectory(ModelSpec("grand_linear", tau=0.1), g, F, 900)
    final = traj.final.direction * np.exp(traj.final.log_scale)
    assert np.abs(final.mean(axis=0) - F.mean(axis=0)).max() < 1e-10
    # and the state itself flattens onto those means
    assert np.abs(final - F.mean(axis=0)).max() < 1e-8


def test_nonlinear_flow_decreases_energy():
    rng = np.random.default_rng(12)
    g = erdos_renyi(7, 0.5, 19)
    w = rng.normal(size=(2, 2))
    ws = WeightSet(W=w + w.T, Omega=np.eye(2))
    spec = ModelSpec("gradient_flow_nonlinear", weights=ws, tau=1e-3, sigma="relu")
    F = rng.normal(size=(g.n, 2))
    values = [parametric_energy(g, F, ws)]
    for _ in range(50):
        F = step_model(spec, g, F)
        values.append(parametric_energy(g, F, ws))
    diffs = np.diff(values)
    assert diffs.max() <= 1e-9 * max(1.0, float(np.abs(values[0])))


def test_overflow_names_step_and_suggests_remedy():
    g = cycle(5)
    ws = WeightSet(W=np.array([[-9.0]]), Wtilde=np.array([[1.0]]))
    spec = ModelSpec("gradient_flow", weights=ws, tau=5.0)
    with pytest.raises(NumericError, match="step"):
        run_trajectory(spec, g, np.ones(5), 4000)


def test_renormalized_overflow_names_step_without_self_reference():
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=[[1e300]]), tau=1e10)
    with pytest.raises(NumericError, match="step 1") as info:
        run_trajectory(spec, cycle(5), np.ones(5), 3)
    assert "use run_trajectory" not in str(info.value)


def test_collapse_names_step():
    spec = ModelSpec("no_residual", weights=WeightSet(W=[[0.0]]))
    with pytest.raises(NumericError, match="collapsed to zero at step 1"):
        run_trajectory(spec, cycle(5), np.ones(5), 3)


def test_zero_init_rejected():
    with pytest.raises(ValidationError):
        run_trajectory(ModelSpec("heat"), cycle(4), np.zeros(4), 3)


# --- spectral filter --------------------------------------------------------

def test_spectral_filter_matches_dense_step():
    rng = np.random.default_rng(18)
    for _ in range(5):
        g = erdos_renyi(int(rng.integers(4, 10)), 0.5, int(rng.integers(100)))
        d = int(rng.integers(1, 4))
        w = rng.normal(size=(d, d))
        wmat = w + w.T
        F = rng.normal(size=(g.n, d))
        filtered = spectral_filter_step(g, wmat, 0.5, F)
        dense = F + 0.5 * normalized_adjacency(g) @ F @ wmat
        assert np.abs(filtered - dense).max() < 1e-12
