import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gel.graphs
from gel.dynamics import ModelSpec, run_trajectory
from gel.energy import WeightSet
from gel.errors import (
    ConfigurationError,
    DegenerateInputError,
    GelError,
    HypothesisError,
    RegimeError,
    ValidationError,
)
from gel.graphs import (
    Graph,
    complete_bipartite,
    cycle,
    erdos_renyi,
    extreme_spectrum,
    laplacian_spectrum,
    path,
)
from gel.spectral import asymptotic_profile, classify_regime, closed_form_features
from gel.verify import Witness, run_check


def sym(rng, spectrum):
    vals = np.asarray(spectrum, dtype=float)
    q, _ = np.linalg.qr(rng.normal(size=(vals.size, vals.size)))
    return (q * vals) @ q.T


# --- closed form ------------------------------------------------------------

def test_closed_form_k2_oracle():
    # K_2, W = [[-1]], tau = 0.5, f0 = (1, 0); modes (lam, factor):
    # lam=0 -> 0.5 per step, lam=2 -> 1.5 per step.  After m=2:
    # F = 0.25 * c0 * phi0 + 2.25 * c1 * phi1 with c0 = c1 = 1/sqrt(2)
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=[[-1.0]]), tau=0.5)
    state = closed_form_features(path(2), spec, 2, np.array([1.0, 0.0]))
    feats = state.direction * np.exp(state.log_scale)
    phi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    phi1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
    expected = (0.25 / np.sqrt(2.0)) * phi0 + (2.25 / np.sqrt(2.0)) * phi1
    assert np.abs(feats.ravel() - expected).max() < 1e-12


def test_closed_form_zero_steps_is_identity():
    rng = np.random.default_rng(1)
    g = cycle(5)
    F0 = rng.normal(size=(5, 2))
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=sym(rng, [1.0, -0.5])), tau=0.5)
    state = closed_form_features(g, spec, 0, F0)
    feats = state.direction * np.exp(state.log_scale)
    assert np.abs(feats - F0).max() < 1e-12


def test_closed_form_log_scale_overflow_safe():
    # 50 steps of growth 1.5 on K_2 from the pure high-frequency mode:
    # log_scale carries 50*ln(1.5) + ln|c|, direction stays unit
    g = path(2)
    F0 = np.array([1.0, -1.0])
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=[[-1.0]]), tau=0.5)
    state = closed_form_features(g, spec, 50, F0)
    expected = 50.0 * np.log(1.5) + np.log(np.sqrt(2.0))
    assert state.log_scale == pytest.approx(expected, abs=1e-9)
    assert np.linalg.norm(state.direction) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
def test_closed_form_matches_trajectory(tau):
    rng = np.random.default_rng(int(tau * 8))
    g = erdos_renyi(9, 0.4, 29)
    wmat = sym(rng, rng.uniform(-1.2, 1.2, size=3))
    F0 = rng.normal(size=(g.n, 3))
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=wmat), tau=tau)
    traj = run_trajectory(spec, g, F0, 40)
    exact = closed_form_features(g, spec, 40, F0)
    assert np.abs(traj.final.direction - exact.direction).max() < 1e-10
    assert abs(traj.final.log_scale - exact.log_scale) < 1e-8


def homogeneous_specs(rng, d):
    """One spec of every homogeneous linear variant the closed form covers,
    with random symmetric channel factors; gradient_flow twice, with Omega = 0
    and with an Omega that does not commute with W."""
    w = sym(rng, rng.uniform(-1.2, 1.2, size=d))
    omega = sym(rng, rng.uniform(-0.5, 0.5, size=d))
    k = rng.normal(size=(d, d))
    return {
        "gradient_flow": ModelSpec("gradient_flow", weights=WeightSet(W=w), tau=0.5),
        "gradient_flow_omega": ModelSpec(
            "gradient_flow", weights=WeightSet(W=w, Omega=omega), tau=0.5
        ),
        "no_residual": ModelSpec("no_residual", weights=WeightSet(W=w), tau=0.5),
        "graff": ModelSpec(
            "graff",
            weights=WeightSet(W=w, omega_diag=rng.uniform(-0.5, 0.5, size=d)),
            tau=0.5,
        ),
        "heat": ModelSpec("heat", tau=0.5),
        "label_propagation": ModelSpec("label_propagation", tau=0.5, mu=0.0),
        "cgnn": ModelSpec("cgnn", OmegaTilde=omega, tau=0.5, source_free=True),
        "pde_gcn_d": ModelSpec("pde_gcn_d", KtK=k.T @ k, tau=0.2),
        "harmonic": ModelSpec("harmonic", weights=WeightSet(W=w), tau=0.2),
        "laplacian_omega_eq_w": ModelSpec(
            "laplacian_omega_eq_w", weights=WeightSet(W=w), tau=0.5
        ),
    }


def assert_closed_form_matches(g, spec, F0, steps):
    traj = run_trajectory(spec, g, F0, steps)
    exact = closed_form_features(g, spec, steps, F0)
    assert np.abs(traj.final.direction - exact.direction).max() < 1e-10
    assert abs(traj.final.log_scale - exact.log_scale) < 1e-8


@pytest.mark.parametrize("name", sorted(homogeneous_specs(np.random.default_rng(0), 3)))
def test_closed_form_matches_every_linear_variant(name):
    rng = np.random.default_rng(11)
    specs = homogeneous_specs(rng, 3)
    w, omega = specs["gradient_flow_omega"].weights.W, specs["gradient_flow_omega"].weights.Omega
    assert np.abs(w @ omega - omega @ w).max() > 0.05  # a genuinely non-commuting pair
    g = erdos_renyi(12, 0.4, 5)
    assert_closed_form_matches(g, specs[name], rng.normal(size=(g.n, 3)), 120)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 9),
    d=st.integers(1, 3),
    steps=st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_equals_iteration_property(n, d, steps, seed):
    rng = np.random.default_rng(seed)
    # a random spanning tree plus random chords: connected, any shape
    edges = [(i, int(rng.integers(i))) for i in range(1, n)]
    edges += [(int(u), int(v)) for u, v in rng.integers(n, size=(n, 2)) if u != v]
    g = Graph(n, tuple(edges))
    F0 = rng.normal(size=(n, d))
    for spec in homogeneous_specs(rng, d).values():
        assert_closed_form_matches(g, spec, F0, steps)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("gradient_flow", weights=WeightSet(W=[[-1.0]], Wtilde=[[0.3]])),
        ModelSpec("label_propagation", mu=0.1),
        ModelSpec("graff", weights=WeightSet(W=[[-1.0]], beta=0.2)),
        ModelSpec("cgnn", OmegaTilde=[[0.2]]),
        ModelSpec("gradient_flow_nonlinear", weights=WeightSet(W=[[-1.0]]), sigma="relu"),
        ModelSpec("grand_linear"),
        ModelSpec("cgnn", OmegaTilde=[[0.2, 0.5], [0.0, 0.1]], source_free=True),
    ],
    ids=["source", "lp-source", "graff-beta", "cgnn-source", "nonlinear", "grand",
         "asymmetric-omega-tilde"],
)
def test_closed_form_refuses_specs_without_mode_form(spec):
    F0 = np.random.default_rng(2).normal(size=(5, spec.channels or 1))
    with pytest.raises(ConfigurationError):
        closed_form_features(cycle(5), spec, 3, F0)


def test_huge_antisymmetric_channel_factor_is_refused_without_overflow():
    spec = ModelSpec("cgnn", OmegaTilde=[[0.0, 1e308], [-1e308, 0.0]], source_free=True)
    F0 = np.random.default_rng(2).normal(size=(5, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigurationError, match="non-symmetric channel factor"):
            closed_form_features(cycle(5), spec, 3, F0)


def test_huge_symmetric_channel_factor_gives_a_finite_state_or_a_gel_error():
    spec = ModelSpec("cgnn", OmegaTilde=[[1e308, 0.0], [0.0, 0.0]], source_free=True)
    F0 = np.random.default_rng(2).normal(size=(5, 2))
    for predict in (lambda: closed_form_features(cycle(5), spec, 3, F0).direction,
                    lambda: asymptotic_profile(cycle(5), spec, F0).direction):
        try:
            state = predict()
        except GelError:
            continue
        assert np.all(np.isfinite(state))


# --- regime classification --------------------------------------------------

def test_hfd_on_k2_with_negative_weight():
    rep = classify_regime(path(2), np.array([[-1.0]]), 0.5)
    assert rep.regime == "HFD"
    assert rep.rho_minus == pytest.approx(1.0, abs=1e-9)
    assert np.isinf(rep.step_bound)  # bipartite: no step-size ceiling


def test_lfd_on_k2_with_positive_weight():
    rep = classify_regime(path(2), np.array([[1.0]]), 0.5)
    assert rep.regime == "LFD"
    assert rep.rate_ratio is None


def test_boundary_when_growths_tie():
    # K_2 (lambda_max = 2), W = diag(1, -1): rho_minus = 1 = mu_top exactly
    rep = classify_regime(path(2), np.diag([1.0, -1.0]), 0.5)
    assert rep.regime == "Boundary"


def test_nonnegative_spectrum_without_positive_top_is_boundary():
    rep = classify_regime(path(2), np.zeros((2, 2)), 0.5)
    assert rep.regime == "Boundary"


def test_step_size_violation_on_non_bipartite():
    # C5: lambda_max ~ 1.809, bound = 2/(tau*(2-lambda_max)) ~ 20.9 at tau=0.5
    rep = classify_regime(cycle(5), np.array([[-25.0]]), 0.5)
    assert rep.regime == "StepSizeViolated"
    assert abs(rep.mu_bottom) > rep.step_bound


@pytest.mark.parametrize("W, message", [
    ([[np.nan]], "W contains non-finite entries"),
    ([[0.0, 1.0], [0.0, 0.0]], "W must be symmetric"),
])
def test_classify_names_W_in_its_errors(W, message):
    with pytest.raises(ValidationError, match=message):
        classify_regime(path(2), W, 0.5)


def test_classify_requires_connected():
    with pytest.raises(ValidationError):
        classify_regime(Graph(4, ((0, 1), (2, 3))), np.array([[-1.0]]), 0.5)


# --- rates ------------------------------------------------------------------

def test_rates_frozen_k2():
    # K_2, W = [[-1]], tau = 0.5: delta = -1, epsilon = 2, ratio = 1/3
    rep = classify_regime(path(2), np.array([[-1.0]]), 0.5)
    assert rep.delta_hfd == pytest.approx(-1.0, abs=1e-9)
    assert rep.epsilon_hfd == pytest.approx(2.0, abs=1e-9)
    assert rep.rate_ratio == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_rates_refuse_non_hfd():
    rep = classify_regime(path(2), np.array([[1.0]]), 0.5)
    assert rep.regime == "LFD"
    assert (rep.delta_hfd, rep.epsilon_hfd, rep.rate_ratio) == (None, None, None)
    witness = Witness("rate_certification", "rates_lfd_k2", path(2),
                      matrices={"W": np.eye(1), "F0": np.array([[1.0], [0.5]])},
                      scalars={"tau": 0.5})
    with pytest.raises(RegimeError, match="HFD regime only"):
        run_check(witness)


def test_rate_ratio_bounds_every_subdominant_mode():
    rng = np.random.default_rng(77)
    hits = 0
    for trial in range(40):
        g = erdos_renyi(int(rng.integers(5, 12)), 0.45, int(rng.integers(1000)))
        lam = laplacian_spectrum(g).eigenvalues
        d = int(rng.integers(1, 5))
        wmat = sym(rng, rng.uniform(-1.5, 1.0, size=d))
        tau = float(rng.choice([0.25, 0.5]))
        rep = classify_regime(g, wmat, tau)
        if rep.regime != "HFD":
            continue
        hits += 1
        mu = np.linalg.eigvalsh(wmat)
        factors = np.abs(1.0 + tau * np.outer(1.0 - lam, mu)).ravel()
        top = 1.0 + tau * rep.rho_minus
        sub = factors[factors < top - 1e-9]
        if sub.size:
            assert sub.max() <= (1.0 + tau * rep.delta_hfd) + 1e-9
    assert hits >= 8  # the sweep must actually exercise HFD instances


# --- asymptotic profiles ----------------------------------------------------

def test_hfd_profile_is_top_frequency_block():
    g = complete_bipartite(2, 3)
    rng = np.random.default_rng(3)
    F0 = rng.normal(size=(g.n, 1))
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=[[-1.0]]), tau=0.5)
    prof = asymptotic_profile(g, spec, F0)
    pair = laplacian_spectrum(g)
    phi_top = pair.eigenvectors[:, -1]
    coeff = float(phi_top @ F0[:, 0])
    expected = np.sign(coeff) * phi_top[:, None]
    assert prof.growth == pytest.approx(1.5, abs=1e-12)
    assert np.abs(prof.direction - expected).max() < 1e-12


def test_lfd_profile_is_degree_profile_times_top_channel():
    g = cycle(5)
    rng = np.random.default_rng(4)
    F0 = rng.normal(size=(g.n, 2))
    wmat = np.diag([1.0, 0.25])
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=wmat), tau=0.5)
    prof = asymptotic_profile(g, spec, F0)
    phi0 = laplacian_spectrum(g).eigenvectors[:, 0]
    # top channel eigenvalue 1 lives on channel 0
    assert prof.growth == pytest.approx(1.5, abs=1e-12)
    assert np.abs(np.abs(prof.direction[:, 0]) - phi0).max() < 1e-12
    assert np.abs(prof.direction[:, 1]).max() < 1e-12


def test_profile_rejects_orthogonal_init():
    # init proportional to phi_0 has no high-frequency component at all
    g = path(2)
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=[[-1.0]]), tau=0.5)
    with pytest.raises(DegenerateInputError):
        asymptotic_profile(g, spec, np.array([1.0, 1.0]))


def test_a_failed_lambda_2_certificate_reads_the_full_decomposition(monkeypatch):
    g = erdos_renyi(300, 0.03, 1)
    F0 = np.random.default_rng(2).normal(size=(g.n, 2))
    spec = ModelSpec("heat", tau=0.5)  # LFD: the profile reads lambda_2
    extreme_spectrum.cache_clear()
    certified = asymptotic_profile(g, spec, F0)

    certified_end = gel.graphs._certified_end

    def top_only(*args, side):
        return None if side < 0 else certified_end(*args, side=side)

    monkeypatch.setattr(gel.graphs, "_certified_end", top_only)
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    profile = asymptotic_profile(g, spec, F0)
    ends = extreme_spectrum(g)
    assert ends.certified  # the top end still is
    assert ends.lambda_2 == float(laplacian_spectrum(g).eigenvalues[1])
    assert (profile.label, profile.growth) == (certified.label, certified.growth)
    assert np.array_equal(profile.direction, certified.direction)
    assert profile.contraction == pytest.approx(certified.contraction, rel=1e-12)
    extreme_spectrum.cache_clear()  # later tests get ends certified in full


def test_profile_refuses_boundary_regime():
    g = path(2)
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=np.diag([1.0, -1.0])), tau=0.5)
    with pytest.raises(RegimeError):
        asymptotic_profile(g, spec, np.ones((2, 2)))


def test_no_residual_profile_requires_non_bipartite():
    g = complete_bipartite(3, 3)
    spec = ModelSpec("no_residual", weights=WeightSet(W=[[1.0]]), tau=0.5)
    with pytest.raises(HypothesisError):
        asymptotic_profile(g, spec, np.random.default_rng(0).normal(size=(6, 1)))


def test_no_residual_profile_rejects_mixed_sign_tie():
    g = cycle(5)
    spec = ModelSpec(
        "no_residual", weights=WeightSet(W=np.diag([2.0, -2.0])), tau=0.5
    )
    with pytest.raises(DegenerateInputError):
        asymptotic_profile(g, spec, np.ones((5, 2)))


def test_no_residual_profile_kernel_direction():
    g = cycle(5)
    rng = np.random.default_rng(6)
    F0 = rng.normal(size=(5, 2))
    spec = ModelSpec(
        "no_residual", weights=WeightSet(W=np.diag([2.0, -1.0])), tau=0.5
    )
    prof = asymptotic_profile(g, spec, F0)
    # dominant channel is the mu=2 one; frequency part collapses to phi_0
    assert np.abs(prof.direction[:, 1]).max() < 1e-12
    phi0 = laplacian_spectrum(g).eigenvectors[:, 0]
    col = prof.direction[:, 0]
    assert np.abs(np.abs(col) - phi0).max() < 1e-12
    assert prof.growth == pytest.approx(0.5 * 2.0, abs=1e-12)


def test_grand_profile_means():
    g = cycle(6)
    rng = np.random.default_rng(7)
    F0 = rng.normal(size=(6, 2))
    prof = asymptotic_profile(g, ModelSpec("grand_linear", tau=0.1), F0)
    assert prof.terminal is not None
    assert np.abs(prof.terminal - F0.mean(axis=0)[None, :]).max() < 1e-12
    assert prof.growth == pytest.approx(1.0)


def test_grand_profile_is_degree_weighted_mean_on_irregular_graph():
    # D~^-1 A~ conserves the mean weighted by deg + 1, not the plain mean
    g = path(5)
    F0 = np.random.default_rng(9).normal(size=(5, 2))
    spec = ModelSpec("grand_linear", tau=0.3)
    prof = asymptotic_profile(g, spec, F0)
    final = run_trajectory(spec, g, F0, 3000).final.features()
    assert np.abs(final - prof.terminal).max() < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("heat", tau=0.5),
        ModelSpec("pde_gcn_d", KtK=[[1.0, 0.2], [0.2, 0.5]], tau=0.5),
        ModelSpec("harmonic", weights=WeightSet(W=[[1.2, 0.3], [0.3, 0.8]]), tau=0.2),
    ],
    ids=["heat", "pde_gcn_d", "harmonic"],
)
def test_unit_dominant_factor_fills_in_terminal(spec):
    g = erdos_renyi(8, 0.5, 73)
    F0 = np.random.default_rng(10).normal(size=(g.n, 2))
    prof = asymptotic_profile(g, spec, F0)
    assert prof.label == "LFD" and prof.growth == pytest.approx(1.0, abs=1e-12)
    final = run_trajectory(spec, g, F0, 2000).final.features()
    assert np.abs(final - prof.terminal).max() < 1e-8


def test_profile_covers_nonzero_omega():
    # W = diag(-1, 0.3), Omega = diag(0, -2): the lambda = 0 mode of channel 1
    # grows 2.15x per step against 1.40x at the top frequency, so the flow
    # smooths although W alone says HFD
    g = cycle(5)
    spec = ModelSpec(
        "gradient_flow",
        weights=WeightSet(W=np.diag([-1.0, 0.3]), Omega=np.diag([0.0, -2.0])),
        tau=0.5,
    )
    F0 = np.random.default_rng(12).normal(size=(5, 2))
    prof = asymptotic_profile(g, spec, F0)
    assert prof.label == "LFD"
    assert prof.growth == pytest.approx(2.15, abs=1e-12)
    # the rest shrinks by prof.contraction per step against the dominant mode
    steps = int(np.ceil(np.log(1e-13) / np.log(prof.contraction)))
    traj = run_trajectory(spec, g, F0, steps)
    s = float(np.sign(np.sum(traj.final.direction * prof.direction)))
    assert np.abs(traj.final.direction - s * prof.direction).max() < 1e-10


def test_harmonic_profile_singular_w_keeps_kernel_component():
    g = path(4)
    rng = np.random.default_rng(8)
    F0 = rng.normal(size=(4, 2))
    wmat = np.diag([0.9, 0.0])  # channel 1 sits in ker W
    spec = ModelSpec("harmonic", weights=WeightSet(W=wmat), tau=0.2)
    prof = asymptotic_profile(g, spec, F0)
    traj = run_trajectory(spec, g, F0, 3000)
    final = traj.final.direction * np.exp(traj.final.log_scale)
    assert np.abs(final - prof.terminal).max() < 1e-6
    # the kernel channel never moves
    assert np.abs(prof.terminal[:, 1] - F0[:, 1]).max() < 1e-12


def test_profile_and_closed_form_of_a_huge_but_finite_start():
    # |F0|^2 overflows although |F0| does not
    huge = np.array([[1e300, 0.0], [0.0, 2.0], [1.0, 1.0], [0.0, 0.0], [3.0, 0.0]])
    small = huge / 1e300
    g = cycle(5)
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=np.diag([-1.0, 0.5])), tau=0.3)
    profile = asymptotic_profile(g, spec, huge)
    np.testing.assert_allclose(profile.direction, asymptotic_profile(g, spec, small).direction,
                               atol=1e-12)
    assert abs(np.linalg.norm(profile.direction) - 1.0) <= 1e-12
    start = closed_form_features(g, spec, 0, huge)
    np.testing.assert_allclose(start.direction, small / np.linalg.norm(small), atol=1e-15)
    assert start.log_scale == pytest.approx(np.log(np.linalg.norm(small)) + np.log(1e300))
