import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gel.dynamics
import gel.energy
import gel.graphs
from gel.dynamics import (
    ACTIVATIONS,
    ModelSpec,
    normalize_variant,
    run_trajectory,
    spectral_filter_step,
    step_model,
    trajectory_states,
)
from gel.energy import WeightSet, dirichlet_energy, lp_energy, parametric_energy
from gel.errors import ConfigurationError, DegenerateInputError, NumericError, ValidationError
from gel.graphs import (
    Graph,
    adjacency_matrix,
    complete_bipartite,
    cycle,
    degree_vector,
    erdos_renyi,
    normalized_adjacency,
    normalized_laplacian,
    path,
)
from gel.spectral import asymptotic_profile, closed_form_features


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


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_every_named_activation_keeps_the_sign_of_its_argument(name):
    xs = np.linspace(-5.0, 5.0, 1001)
    assert np.all(xs * ACTIVATIONS[name](xs) >= 0.0)


@pytest.mark.parametrize("variant, sigma", [
    ("gradient_flow_nonlinear", np.tanh),
    ("gradient_flow_nonlinear", "softplus"),
    ("gradient_flow_nonlinear", None),
    ("gradient_flow", None),
    ("gradient_flow", 1),
])
def test_an_activation_is_named_in_activations(variant, sigma):
    with pytest.raises(ConfigurationError, match="unknown activation"):
        ModelSpec(variant, weights=WeightSet(W=[[-1.0]]), sigma=sigma)


def test_nonpositive_tau_rejected():
    with pytest.raises(ValidationError):
        gf(np.eye(1), tau=0.0)


def test_diag_nonlinear_rejects_positive_channel_weight():
    with pytest.raises(ValidationError):
        ModelSpec("diag_nonlinear", omega_diag=np.array([-1.0, 0.5]), sigma="relu")


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


@pytest.mark.parametrize(
    "variant, given, unread",
    [
        ("graff", {"weights": WeightSet(W=[[-1.0]], Omega=[[0.5]])}, "Omega"),
        ("gradient_flow", {"weights": WeightSet(W=[[-1.0]]), "beta": 0.2}, "beta"),
        ("heat", {"mu": 0.3}, "mu"),
        ("label_propagation", {"KtK": [[1.0]]}, "KtK"),
        ("pde_gcn_d", {"KtK": [[1.0]], "source_free": True}, "source_free"),
        ("no_residual", {"weights": WeightSet(W=[[1.0]], Wtilde=[[1.0]])}, "Wtilde"),
    ],
    ids=["graff-Omega", "gradient_flow-beta", "heat-mu", "lp-KtK", "pde-source_free",
         "no_residual-Wtilde"],
)
def test_spec_refuses_a_parameter_its_variant_never_reads(variant, given, unread):
    # graff's residual is diag(omega), not Omega, and gradient_flow has no
    # beta: a run would ignore either and write the same CSV as without it
    with pytest.raises(ConfigurationError, match=f"{variant}' does not read {unread}$"):
        ModelSpec(variant, **given)


def test_every_variant_takes_W_for_its_channel_count():
    for variant in ("heat", "grand_linear", "label_propagation"):
        assert ModelSpec(variant, weights=WeightSet(W=np.eye(2))).channels == 2


def test_weight_set_holds_exactly_the_energys_three_weights():
    assert [f.name for f in dataclasses.fields(WeightSet)] == ["W", "Omega", "Wtilde"]


def test_diag_nonlinear_needs_no_weights():
    spec = ModelSpec("diag_nonlinear", omega_diag=[-1, -0.5], sigma="relu")
    assert spec.weights is None and spec.channels == 2
    assert spec.omega_diag.tolist() == [-1.0, -0.5] and not spec.omega_diag.flags.writeable
    F = np.random.default_rng(3).normal(size=(5, 2))
    L = normalized_laplacian(cycle(5))
    expected = F + 0.5 * np.maximum(L @ F @ np.diag([1.0, 0.5]), 0.0)
    assert np.abs(step_model(spec, cycle(5), F) - expected).max() < 1e-12


def test_graff_stores_its_diagonal_and_source_on_the_spec():
    spec = ModelSpec("graff", weights=WeightSet(W=np.eye(2)), omega_diag=[[0.3, -0.2]], beta=1)
    assert spec.omega_diag.tolist() == [0.3, -0.2] and not spec.omega_diag.flags.writeable
    assert spec.beta == 1.0 and type(spec.beta) is float
    assert ModelSpec("graff", weights=WeightSet(W=np.eye(3))).omega_diag.tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "variant, given, message",
    [
        ("pde_gcn_d", {"KtK": np.eye(2)}, "KtK must be 3x3, got 2x2"),
        ("cgnn", {"OmegaTilde": np.eye(2)}, "OmegaTilde must be 3x3, got 2x2"),
        ("diag_nonlinear", {"omega_diag": [-1.0, -0.5], "sigma": "relu"},
         "omega_diag must have length d=3, got 2"),
        ("graff", {"omega_diag": [0.1, 0.2]}, "omega_diag must have length d=3, got 2"),
    ],
    ids=["KtK", "OmegaTilde", "diag_nonlinear-omega", "graff-omega"],
)
def test_channel_sized_parameters_must_match_W(variant, given, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ModelSpec(variant, weights=WeightSet(W=np.eye(3)), **given)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_graff_beta_must_be_finite(value):
    with pytest.raises(ValidationError, match="beta must be finite"):
        ModelSpec("graff", weights=WeightSet(W=np.eye(2)), beta=value)


@pytest.mark.parametrize(
    "given, message",
    [
        ({"variant": "heat", "tau": "x"}, "tau must be a real number, got 'x'"),
        ({"variant": "label_propagation", "mu": "x"}, "mu must be a real number, got 'x'"),
        ({"variant": "graff", "weights": WeightSet(W=np.eye(1)), "beta": [1, 2]},
         r"beta must be a real number, got \[1, 2\]"),
        ({"variant": "heat", "omega_diag": [[0, 0], [0]]},
         "omega_diag must be a rectangular array of numbers"),
        ({"variant": "heat", "tau": True}, "tau must be a real number, got True"),
        ({"variant": "heat", "mu": [[1], [1, 2]]}, "mu must be a real number"),
    ],
    ids=["tau-text", "mu-text", "beta-list", "omega-ragged", "tau-bool", "mu-ragged"],
)
def test_spec_scalars_and_vectors_that_are_not_numbers_are_validation_errors(given, message):
    # each of these escaped as a raw ValueError or TypeError, or (tau=True)
    # was taken as 1.0
    with pytest.raises(ValidationError, match=f"^{message}"):
        ModelSpec(**given)


def test_spec_stores_its_scalars_as_floats():
    spec = ModelSpec("label_propagation", tau=np.float32(0.25), mu=1)
    assert (spec.tau, spec.mu, spec.beta) == (0.25, 1.0, 0.0)
    assert all(type(v) is float for v in (spec.tau, spec.mu, spec.beta))
    # a zero or empty parameter the variant never reads is still ignored
    assert ModelSpec("heat", omega_diag=[], beta=0, mu=0.0).beta == 0.0


@pytest.mark.parametrize("value", ["false", "true", 0, 1, np.True_, None])
def test_source_free_must_be_a_bool(value):
    # "false" is truthy: read by truthiness it silently dropped the source
    with pytest.raises(ConfigurationError, match="source_free must be True or False"):
        ModelSpec("cgnn", OmegaTilde=np.eye(2), source_free=value)
    assert not ModelSpec("cgnn", OmegaTilde=np.eye(2), source_free=False).is_homogeneous
    assert ModelSpec("cgnn", OmegaTilde=np.eye(2), source_free=True).is_homogeneous


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


@pytest.mark.parametrize("spec, kept", [
    (gf(np.diag([-1.0, 0.5])), ["A"]),  # Omega = 0
    (ModelSpec("label_propagation", mu=0.0), ["I", "A"]),  # L = I - A: -1 on F, 1 on A F
    (gf(np.zeros((2, 2))), ["I"]),  # every factor is zero: F's stays
    (ModelSpec("cgnn", OmegaTilde=np.eye(2), source_free=True), ["A"]),  # -I + I on F
], ids=["gradient_flow", "label_propagation", "all_zero", "cgnn_folds_to_zero"])
def test_a_run_leaves_out_the_terms_whose_factor_is_zero(spec, kept):
    g = cycle(7)
    plan = gel.dynamics._run_plan(spec, g, 2, None)
    factors = {"I": plan.identity, "A": plan.adjacency}
    assert [op for op, m in factors.items() if m is not None] == kept
    # a factor left out does no work: A_hat F is formed only for a kept A
    F = np.random.default_rng(5).standard_normal((g.n, 2))
    af = normalized_adjacency(g) @ F
    formed = []
    plan = plan._replace(product=lambda x: formed.append(x) or af)
    out = gel.dynamics._advance(plan, F)
    assert len(formed) == ("A" in kept)
    # the step has the bits of the kept factors' sum ...
    z = sum(np.dot({"I": F, "A": af}[op], m) for op, m in factors.items() if m is not None)
    assert np.array_equal(out, F + spec.tau * z)
    # ... and is the sum over every term, zero ones included, to roundoff
    z = sum(np.dot({"I": F, "A": af, "L": F - af}[op], m) for op, m in spec._update.terms)
    assert np.abs(out - (F + spec.tau * z)).max() <= 1e-15 * np.abs(F).max()


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
    ws, omega = WeightSet(W=w + w.T), np.array([0.3, -0.2])
    F = rng.normal(size=(5, 2))
    F0 = rng.normal(size=(5, 2))
    spec = ModelSpec("graff", weights=ws, tau=0.1, omega_diag=omega, beta=0.7)
    out = step_model(spec, g, F, F0=F0)
    expected = F + 0.1 * (
        -F @ np.diag(omega) + normalized_adjacency(g) @ F @ ws.W - 0.7 * F0
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
    graff_ws = {"weights": WeightSet(W=W), "omega_diag": omega, "beta": beta}
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
            ModelSpec("graff", **graff_ws, tau=tau),
            lambda F, F0: F + tau * graff_z(F, F0),
            lambda x, ref: parametric_energy(g, x, graff_eff, F0=ref),
        ),
        "graff_nonlinear": (
            ModelSpec("graff_nonlinear", **graff_ws, tau=tau, sigma="relu"),
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
                weights=WeightSet(W=W),
                omega_diag=neg,
                tau=tau,
                sigma="relu",
            ),
            lambda F, F0: F + tau * np.maximum(-(L @ F) @ np.diag(neg), 0.0),
            dirichlet,
        ),
    }


#: A graph the A_hat product keeps dense at d = 2, and one it sends to the
#: edge sum (m = 370: 2 m d < n^2 / 8).
_PARITY_GRAPHS = {"": (7, 0.5, 13), "-sparse": (120, 0.05, 13)}


@pytest.mark.parametrize(
    "variant, source, graph",
    [(v, s, g) for g in _PARITY_GRAPHS.values() for v, s in _VARIANT_CASES],
    ids=[f"{v}-{'source' if s else 'plain'}{suffix}"
         for suffix in _PARITY_GRAPHS for v, s in _VARIANT_CASES],
)
def test_every_variant_matches_its_formula(variant, source, graph):
    rng = np.random.default_rng(31)
    g = erdos_renyi(*graph)
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


@st.composite
def _planned_cases(draw):
    """A variant, a spec with every parameter its row reads drawn (zero
    factors and runs without a source included), a graph of at most 12
    nodes with no isolated node, and F, F0 of 1 to 3 channels."""
    variant = draw(st.sampled_from(sorted(gel.dynamics.VARIANTS)))
    entry = gel.dynamics._TABLE[variant]
    d = draw(st.integers(1, 3))
    source = draw(st.booleans())
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)

    def matrix(zero_too=False):
        m = draw(st.lists(entries, min_size=d * d, max_size=d * d))
        m = np.array(m).reshape(d, d)
        return np.zeros((d, d)) if zero_too and draw(st.booleans()) else m

    def sym(zero_too=False):
        m = matrix(zero_too)
        return m + m.T

    def vec(sign=1.0):
        return sign * np.abs(np.array(draw(st.lists(entries, min_size=d, max_size=d))))

    params = {"tau": draw(st.floats(0.01, 2.0))}
    if entry.nonlinear:
        params["sigma"] = draw(st.sampled_from(sorted(ACTIVATIONS)))
    names = set(entry.reads) | {entry.required}
    if "weights" in names:
        params["weights"] = WeightSet(
            W=sym(),
            Omega=sym(zero_too=True) if "Omega" in names else None,
            Wtilde=matrix() if source and "Wtilde" in names else None,
        )
    if "omega_diag" in names:
        params["omega_diag"] = vec(-1.0) if variant == "diag_nonlinear" else vec() - 1.0
    if "beta" in names and source:
        params["beta"] = draw(st.floats(0.1, 2.0))
    if "mu" in names:
        params["mu"] = draw(st.floats(0.1, 2.0)) if source else 0.0
    if "KtK" in names:
        k = matrix()
        params["KtK"] = k.T @ k
    if "OmegaTilde" in names:
        params["OmegaTilde"] = np.eye(d) if draw(st.booleans()) else matrix()
    if "source_free" in names:
        params["source_free"] = not source
    spec = ModelSpec(variant, **params)

    n = draw(st.integers(2, 12))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    g = Graph(n, [(i, i + 1) for i in range(n - 1)] + [(u, v) for u, v in extra if u != v])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return spec, g, rng.normal(size=(n, d)), rng.normal(size=(n, d))


def _dense_operator(g, op):
    """The dense n x n matrix of a term's operator: I, A_hat, L, or GRAND's
    random-walk Laplacian of the self-loop-augmented graph."""
    if op == "I":
        return np.eye(g.n)
    if op == "A":
        return normalized_adjacency(g)
    if op == "L":
        return normalized_laplacian(g)
    adj = adjacency_matrix(g) + np.eye(g.n)
    return np.eye(g.n) - adj / adj.sum(axis=1)[:, None]


@settings(deadline=None, max_examples=200)
@given(_planned_cases())
def test_the_planned_step_is_its_rows_formula_term_by_term(case):
    # r F + tau sigma(sum_k P_k F M_k + F0 S), each term formed on its own
    # with a dense operator, against the run's folded factors and sparse
    # product; roundoff bound: (n + d + 8) eps times the same sum in
    # absolute values, as every sum here has at most n + d + 4 terms and
    # sigma (tanh, relu) is 1-Lipschitz
    spec, g, F, F0 = case
    update, d = spec._update, F.shape[1]

    def factor(m):
        return m * np.eye(d) if np.ndim(m) == 0 else np.asarray(m)

    parts = [(_dense_operator(g, op), factor(m)) for op, m in update.terms]
    z = sum(P @ F @ M for P, M in parts)
    size = sum(np.abs(P) @ np.abs(F) @ np.abs(M) for P, M in parts)
    if update.source is not None:
        z = z + F0 @ factor(update.source)
        size = size + np.abs(F0) @ np.abs(factor(update.source))
    sigma = ACTIVATIONS[spec.sigma]
    want = float(update.residual) * F + spec.tau * sigma(z)
    size = float(update.residual) * np.abs(F) + spec.tau * size
    got = step_model(spec, g, F, F0=F0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= (g.n + d + 8) * eps * size), spec


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


@pytest.mark.parametrize("run", [
    lambda spec, F0: run_trajectory(spec, path(2), F0, True),
    lambda spec, F0: trajectory_states(spec, path(2), F0, True),
    lambda spec, F0: closed_form_features(path(2), spec, True, F0),
], ids=["run_trajectory", "trajectory_states", "closed_form_features"])
def test_step_counts_reject_bools(run):
    with pytest.raises(ValidationError, match="integer"):
        run(ModelSpec("heat"), np.array([1.0, 0.0]))


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


def test_sparse_runs_build_no_dense_operator():
    # dirichlet_energy also forms A_hat F for its trace-form cross-check
    g = cycle(5000)  # one 5000 x 5000 matrix is 200 MB
    F0 = np.random.default_rng(3).normal(size=(g.n, 2))
    spec = gf(np.array([[-1.0, 0.2], [0.2, 0.5]]), tau=0.5)
    for run in (lambda: run_trajectory(spec, g, F0, 20), lambda: dirichlet_energy(g, F0)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def test_wide_runs_take_the_slot_form_over_the_dense_operator():
    # both rules hold here (2 m d >= n^2 / 8 and 128 max_degree < n d), and
    # the slot form's gathered rows are under half the matrix (4 m d < n^2);
    # the slot form is the faster, so no n x n matrix is built
    g = erdos_renyi(400, 0.02, 7)
    F0 = np.random.default_rng(3).normal(size=(g.n, 8))
    spec = gf(np.diag(np.linspace(-1.0, 0.5, 8)), tau=0.5)
    before = normalized_adjacency.cache_info()
    run_trajectory(spec, g, F0, 20)
    dirichlet_energy(g, F0)
    after = normalized_adjacency.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_trajectory_beyond_physical_memory_is_refused_before_allocating():
    F0 = np.ones((5, 1))
    with pytest.raises(NumericError, match="CSV columns of 100000000000000000001 states"):
        run_trajectory(ModelSpec("heat", tau=0.1), cycle(5), F0, 10**20)


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


# --- columns off the step's product -----------------------------------------

@pytest.mark.parametrize(
    "spec",
    [gf(np.array([[-1.0, 0.2], [0.2, 0.5]])), ModelSpec("label_propagation", mu=0.3)],
    ids=["renormalized", "raw"],
)
def test_run_trajectory_steps_through_the_public_step_model(monkeypatch, spec):
    # an outside tracer that rebinds dynamics.step_model sees every step, and
    # forwarding the keyword arguments changes no column
    g = erdos_renyi(120, 0.05, 13)
    F0 = np.random.default_rng(8).normal(size=(g.n, 2))
    plain = run_trajectory(spec, g, F0, 25)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return step_model(*args, **kwargs)

    monkeypatch.setattr(gel.dynamics, "step_model", counted)
    wrapped = run_trajectory(spec, g, F0, 25)
    assert len(calls) == 25 and all(graph is g for graph in calls)
    for name in ("rayleigh", "dirichlet", "energy", "log_scale"):
        assert np.array_equal(getattr(wrapped, name), getattr(plain, name)), name
    assert np.array_equal(wrapped.final.direction, plain.final.direction)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("heat"),
        ModelSpec("label_propagation", mu=0.2),
        gf(np.array([[-1.0, 0.2], [0.2, 0.5]])),
    ],
    ids=["heat", "label_propagation", "gradient_flow"],
)
def test_sparse_random_graph_reads_every_inner_state_off_the_product(product_forms, spec):
    g = erdos_renyi(120, 0.05, 13)
    run_trajectory(spec, g, np.random.default_rng(5).normal(size=(g.n, 2)), 40)
    # the first and the last state always take the edge form
    assert product_forms == [True] * 39


def test_heat_at_the_rounding_floor_falls_back_and_stays_nonnegative(product_forms):
    # K_{30,30}'s heat step halves the inner modes: after ~50 steps the state
    # is phi0 plus rounding, where the deflated value is noise of either sign
    g = complete_bipartite(30, 30)
    traj = run_trajectory(ModelSpec("heat"), g, np.random.default_rng(1).normal(size=(g.n, 1)), 200)
    assert product_forms[:40] == [True] * 40
    assert not all(product_forms[40:])
    assert traj.dirichlet.min() >= 0.0 and traj.rayleigh.min() >= 0.0


def test_smooth_states_of_a_long_path_fall_back(product_forms):
    # the ramp's deflated quotient is about 6 / n^2, far below the floor
    g = path(400)
    traj = run_trajectory(ModelSpec("heat"), g, np.linspace(-1.0, 1.0, g.n), 30)
    assert product_forms == [False] * 29
    assert traj.dirichlet.min() > 0.0


@pytest.mark.parametrize(
    "spec, g",
    [
        (ModelSpec("grand_linear"), erdos_renyi(30, 0.3, 2)),
        (ModelSpec("harmonic", weights=WeightSet(W=np.eye(2))), erdos_renyi(30, 0.3, 2)),
        (ModelSpec("heat"), Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])),
    ],
    ids=["no-product", "edge-energy", "disconnected"],
)
def test_fallback_runs_never_offer_the_product_form(product_forms, spec, g):
    run_trajectory(spec, g, np.random.default_rng(4).normal(size=(g.n, 2)), 10)
    assert product_forms == []


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


def test_a_run_that_overflows_fails_at_the_same_step_with_folded_factors():
    # W = 3e158 and tau = 1e150 are finite apart; folding tau into W would
    # overflow at plan time, before step 1
    spec = ModelSpec("gradient_flow", tau=1e150,
                     weights=WeightSet(W=[[3e158]], Omega=[[0.0]], Wtilde=[[1.0]]))
    with pytest.raises(NumericError, match="^state overflowed at step 2"):
        run_trajectory(spec, cycle(5), np.full(5, 1e-155), 3)


@pytest.mark.parametrize("spec", [
    ModelSpec("gradient_flow", weights=WeightSet(W=[[-0.5]], Omega=[[0.0]], Wtilde=[[1e300]])),
    ModelSpec("graff", weights=WeightSet(W=[[-0.5]]), beta=1e300),
], ids=["gradient_flow", "graff"])
def test_a_source_beyond_the_floating_range_is_a_numeric_error(spec):
    # formed once, when the run is planned, with no RuntimeWarning
    with pytest.raises(NumericError, match="source term F0 S exceeds the floating range"):
        run_trajectory(spec, cycle(7), 1e10 * np.ones(7), 3)


def test_harmonic_channel_factor_beyond_the_floating_range_is_a_numeric_error():
    with pytest.raises(NumericError, match="harmonic's channel factor W W"):
        ModelSpec("harmonic", weights=WeightSet(W=[[1e200]]))


@pytest.mark.parametrize(
    "spec, advice",
    [
        (ModelSpec("label_propagation", mu=0.5, tau=1e10), "reduce tau"),
        (ModelSpec("gradient_flow", weights=WeightSet(W=[[1e300]]), tau=1e10), "use run_trajectory"),
    ],
)
def test_step_overflow_advice_fits_the_spec(spec, advice):
    with pytest.raises(NumericError, match="overflow") as info:
        step_model(spec, cycle(5), np.full(5, 1e300), F0=np.ones(5))
    assert advice in str(info.value)
    assert ("run_trajectory" in str(info.value)) == spec.is_homogeneous


def test_collapse_names_step():
    spec = ModelSpec("no_residual", weights=WeightSet(W=[[0.0]]))
    with pytest.raises(NumericError, match="collapsed to zero at step 1"):
        run_trajectory(spec, cycle(5), np.ones(5), 3)


def test_zero_init_rejected():
    with pytest.raises(ValidationError):
        run_trajectory(ModelSpec("heat"), cycle(4), np.zeros(4), 3)


@pytest.mark.parametrize("run", [
    lambda spec, g, F0: run_trajectory(spec, g, F0, 3),
    lambda spec, g, F0: trajectory_states(spec, g, F0, 3),
    lambda spec, g, F0: closed_form_features(g, spec, 3, F0),
    lambda spec, g, F0: asymptotic_profile(g, spec, F0),
], ids=["run_trajectory", "trajectory_states", "closed_form_features", "asymptotic_profile"])
def test_zero_initial_features_are_degenerate_on_every_path(run):
    with pytest.raises(DegenerateInputError, match="initial features must be nonzero"):
        run(ModelSpec("heat"), cycle(4), np.zeros(4))


# --- a run checks its inputs once ------------------------------------------

@pytest.mark.parametrize(
    "variant, source, graph",
    [(v, s, g) for g in _PARITY_GRAPHS.values() for v, s in _VARIANT_CASES],
    ids=[f"{v}-{'source' if s else 'plain'}{suffix}"
         for suffix in _PARITY_GRAPHS for v, s in _VARIANT_CASES],
)
def test_trajectory_states_are_the_public_steps_bit_for_bit(variant, source, graph):
    # one update implementation: the run's planned steps and its norm guard
    # give the same bits as checked step_model calls and numpy's norm
    rng = np.random.default_rng(37)
    g = erdos_renyi(*graph)
    spec = _variant_oracles(g, source, rng)[variant][0]
    F0 = rng.normal(size=(g.n, 2))
    states = trajectory_states(spec, g, F0, 12)
    norm = float(np.linalg.norm(F0))
    state, log_scale = F0, float(np.log(norm))
    first = next(states)
    assert np.array_equal(first.direction, F0 / norm) and first.log_scale == log_scale
    if spec.is_homogeneous:
        state = F0 / norm
    for k, got in enumerate(states, start=1):
        state = step_model(spec, g, state, F0=F0)
        norm = float(np.linalg.norm(state))
        direction = state / norm
        log_scale = (log_scale if spec.is_homogeneous else 0.0) + float(np.log(norm))
        assert np.array_equal(got.direction, direction), k
        assert got.log_scale == log_scale, k
        if spec.is_homogeneous:
            state = direction
    assert k == 12


@pytest.mark.parametrize(
    "spec, F, F0, error, message",
    [
        (ModelSpec("heat"), [1.0, np.nan, 0.0, 0.0, 0.0], None, ValidationError,
         "F contains non-finite entries"),
        (ModelSpec("heat"), np.ones((4, 1)), None, ValidationError, "n=5 rows"),
        (ModelSpec("label_propagation", mu=0.5), np.ones(5), None, ConfigurationError,
         "the source term needs reference features F0"),
        (ModelSpec("cgnn", OmegaTilde=np.eye(1)), np.ones(5), [np.inf] * 5, ValidationError,
         "F0 contains non-finite entries"),
    ],
    ids=["nonfinite-F", "row-count", "no-F0", "nonfinite-F0"],
)
def test_step_model_called_directly_checks_its_inputs(spec, F, F0, error, message):
    # with the channel and overflow tests above: a run's plan skips these
    # checks, a direct call keeps every one
    with pytest.raises(error, match=message):
        step_model(spec, cycle(5), F, F0=F0)


def _count_calls(monkeypatch, counts, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "spec",
    [ModelSpec("heat"), ModelSpec("label_propagation", mu=0.3), ModelSpec("grand_linear"),
     ModelSpec("gradient_flow_nonlinear", weights=WeightSet(W=-np.eye(2)), sigma="tanh")],
    ids=["renormalized", "source", "grand_linear", "nonlinear"],
)
@pytest.mark.parametrize(
    "g", [erdos_renyi(120, 0.05, 13), complete_bipartite(6, 6)], ids=["edge-sum", "dense"]
)
@pytest.mark.parametrize(
    "run",
    [run_trajectory, lambda *args: list(trajectory_states(*args))],
    ids=["run_trajectory", "trajectory_states"],
)
def test_a_run_checks_its_inputs_once_not_every_step(monkeypatch, run, spec, g):
    counts = collections.Counter()
    for module, name in [
        (gel.dynamics, "as_features"), (gel.energy, "as_features"),
        (gel.dynamics, "_product_for"), (gel.graphs, "_product_for"),
        (gel.dynamics, "step_model"),
    ]:
        _count_calls(monkeypatch, counts, module, name)
    caches = (gel.graphs._edge_product, gel.graphs.normalized_adjacency, degree_vector)
    F0 = np.random.default_rng(7).normal(size=(g.n, 2))

    def calls(steps: int) -> tuple:
        counts.clear()
        before = [c.cache_info() for c in caches]
        run(spec, g, F0, steps)
        lookups = [a.hits + a.misses - b.hits - b.misses
                   for a, b in zip((c.cache_info() for c in caches), before)]
        return counts.pop("step_model"), dict(counts), lookups

    calls(10)  # builds what the graph's caches hold, so both runs below only look up
    short, long = calls(50), calls(200)
    assert (short[0], long[0]) == (50, 200)
    assert short[1:] == long[1:]
    assert long[1]["_product_for"] >= 1 and long[1]["as_features"] <= 3


#: Two channels, the second zero at the start: the source feeds it 1e-200
#: of the first, and W grows it by 1e300 a step, to about 1e100 after step
#: 2 and past the floating range in step 3.
_LEAK = {"W": np.diag([0.0, 1e300]), "Wtilde": [[0.0, -1e-200], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "spec, bad",
    [
        (ModelSpec("gradient_flow", weights=WeightSet(**_LEAK), tau=1.0), np.isinf),
        (ModelSpec("gradient_flow_nonlinear", sigma="relu", tau=1.0,
                   weights=WeightSet(**_LEAK, Omega=np.diag([0.0, 1e300]))), np.isnan),
    ],
    ids=["source-inf", "nonlinear-nan"],
)
@pytest.mark.parametrize(
    "run",
    [run_trajectory, lambda *args: list(trajectory_states(*args))],
    ids=["run_trajectory", "trajectory_states"],
)
def test_a_raw_run_that_leaves_the_floating_range_names_the_step(monkeypatch, run, spec, bad):
    # the nonlinear run's third step reads inf - inf, the source run's only
    # inf; the guard is the norm, and no RuntimeWarning escapes (pytest
    # turns them into errors)
    seen = []

    def recorded(*args, **kwargs):
        seen.append(step_model(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(gel.dynamics, "step_model", recorded)
    F0 = np.column_stack((np.arange(1.0, 6.0), np.zeros(5)))
    with pytest.raises(NumericError, match="^state overflowed at step 3; reduce tau"):
        run(spec, path(5), F0, 10)
    assert len(seen) == 3 and np.all(np.isfinite(seen[1])) and np.any(bad(seen[2]))


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


@pytest.mark.parametrize("tau, message", [("x", "real number"), (True, "real number"),
                                          (np.nan, "finite")])
def test_spectral_filter_checks_its_step_size_as_a_scalar(tau, message):
    with pytest.raises(ValidationError, match=f"tau must be .*{message}"):
        spectral_filter_step(cycle(5), np.eye(1), tau, np.ones((5, 1)))


# --- a start near the top of the floating range -------------------------------

_HUGE_START = np.array([[1e300, 0.0], [0.0, 2.0], [1.0, 1.0], [0.0, 0.0], [3.0, 0.0]])


def test_a_huge_but_finite_start_runs_like_its_rescaled_copy():
    # |F0|^2 overflows although |F0| does not
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=np.diag([-1.0, 0.5])), tau=0.3)
    big = run_trajectory(spec, cycle(5), _HUGE_START, 20)
    small = run_trajectory(spec, cycle(5), _HUGE_START / 1e300, 20)
    np.testing.assert_allclose(big.final.direction, small.final.direction, atol=1e-12)
    np.testing.assert_allclose(big.log_scale - small.log_scale, np.log(1e300), rtol=1e-12)
    np.testing.assert_allclose(big.rayleigh, small.rayleigh, rtol=1e-12)


def test_a_start_whose_norm_exceeds_the_floating_range_is_a_numeric_error():
    spec = ModelSpec("heat", tau=0.3)
    with pytest.raises(NumericError, match="floating range"):
        run_trajectory(spec, cycle(5), np.full((5, 2), 1e308), 3)
