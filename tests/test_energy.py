import warnings

import numpy as np
import pytest

from gel.energy import (
    WeightSet,
    dirichlet_energy,
    energy_decomposition,
    energy_gradient,
    lp_energy,
    make_weights,
    parametric_energy,
    rayleigh_quotient,
)
from gel.dynamics import ModelSpec
from gel.errors import NumericError, ValidationError
from gel.graphs import (
    complete_bipartite,
    cycle,
    degree_vector,
    erdos_renyi,
    laplacian_spectrum,
    normalized_laplacian,
    path,
    spectral_decomposition,
)
from gel.verify import kronecker_oracle_energy


def rand_weights(rng, d, source=False):
    w = rng.normal(size=(d, d))
    o = rng.normal(size=(d, d))
    wt = rng.normal(size=(d, d)) if source else None
    return WeightSet(W=w + w.T, Omega=o + o.T, Wtilde=wt)


# --- Dirichlet energy / Rayleigh quotient -----------------------------------

def test_dirichlet_oracle_two_nodes():
    # K_2, f = (1, 0): single edge contributes (1/1 - 0/1)^2, half-sum twice
    assert dirichlet_energy(path(2), np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_dirichlet_zero_on_degree_profile():
    g = complete_bipartite(2, 3)
    f = np.sqrt([3.0, 3.0, 2.0, 2.0, 2.0])
    assert dirichlet_energy(g, f) == pytest.approx(0.0, abs=1e-12)


def test_dirichlet_equals_trace_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = erdos_renyi(int(rng.integers(4, 11)), 0.5, int(rng.integers(100)))
        F = rng.normal(size=(g.n, 3))
        trace_form = float(np.trace(F.T @ normalized_laplacian(g) @ F))
        assert dirichlet_energy(g, F) == pytest.approx(trace_form, abs=1e-10)


def test_rayleigh_extremes():
    g = cycle(5)
    pair = laplacian_spectrum(g)
    lo = rayleigh_quotient(g, pair.eigenvectors[:, 0])
    hi = rayleigh_quotient(g, pair.eigenvectors[:, -1])
    assert lo == pytest.approx(0.0, abs=1e-10)
    assert hi == pytest.approx(pair.eigenvalues[-1], abs=1e-10)


def test_rayleigh_range_and_scale_invariance():
    rng = np.random.default_rng(11)
    g = erdos_renyi(9, 0.4, 2)
    for _ in range(10):
        F = rng.normal(size=(g.n, 2))
        rq = rayleigh_quotient(g, F)
        assert -1e-10 <= rq <= 2.0 + 1e-10
        assert rayleigh_quotient(g, 17.0 * F) == pytest.approx(rq, abs=1e-12)


def test_dirichlet_energy_next_to_the_kernel_passes_its_cross_check():
    # |F|^2 is about 5e22, so the trace form's rounding dwarfs D
    g = erdos_renyi(50, 0.2, 3)
    F = 1e10 * np.sqrt(degree_vector(g)) + 1e-3 * np.random.default_rng(0).standard_normal(g.n)
    assert dirichlet_energy(g, F) == pytest.approx(3.779612961807288e-05, rel=1e-12)


@pytest.mark.parametrize("scale, noise", [(1e-160, 1e-170), (1e10, 1e-3), (1e160, 1e150)])
def test_rayleigh_quotient_is_scale_free_at_extreme_scales(scale, noise):
    # |F|^2 underflows or overflows at both ends; D overflows for rough F
    g = erdos_renyi(50, 0.2, 3)
    rough = np.random.default_rng(0).standard_normal(g.n)
    smooth = scale * np.sqrt(degree_vector(g)) + noise * rough
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dirichlet_energy(g, smooth)
        for F in (smooth, scale * rough):
            unit = rayleigh_quotient(g, F / np.abs(F).max())
            assert abs(rayleigh_quotient(g, F) - unit) <= 1e-9


def test_dirichlet_energy_beyond_the_floating_range_is_a_numeric_error():
    # the edge differences are finite but their squares are not
    g = erdos_renyi(50, 0.2, 3)
    F = 1e160 * np.random.default_rng(0).standard_normal(g.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="exceeds the floating range") as raised:
            dirichlet_energy(g, F)
        assert raised.value.exit_code == 4
        assert rayleigh_quotient(g, F) == pytest.approx(0.8932827815903294, rel=1e-12)


def test_rayleigh_rejects_zero():
    with pytest.raises(ValidationError):
        rayleigh_quotient(cycle(4), np.zeros(4))


# --- weight sets ------------------------------------------------------------

def test_weightset_symmetrizes_tiny_asymmetry():
    ws = WeightSet(W=np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]]))
    assert np.abs(ws.W - ws.W.T).max() == 0.0


def test_weightset_rejects_gross_asymmetry():
    with pytest.raises(ValidationError, match="make_weights"):
        WeightSet(W=np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_weightset_rejects_huge_asymmetry_without_overflow():
    # W - W^T overflows to inf here (an error under pytest's warning filter)
    with pytest.raises(ValidationError, match=r"= 1\.000e\+308"):
        WeightSet(W=[[0.0, 1e308], [-1e308, 0.0]])


def test_weightset_wtilde_may_be_asymmetric():
    ws = WeightSet(W=np.eye(2), Wtilde=np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert ws.has_source


def test_weightset_shape_mismatch():
    with pytest.raises(ValidationError):
        WeightSet(W=np.eye(2), Omega=np.eye(3))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda m: WeightSet(W=m), "W"),
        (lambda m: WeightSet(W=np.eye(2), Omega=m), "Omega"),
        (lambda m: WeightSet(W=np.eye(2), Wtilde=m), "Wtilde"),
        (lambda m: ModelSpec("cgnn", OmegaTilde=m), "OmegaTilde"),
        (lambda m: ModelSpec("pde_gcn_d", KtK=m), "KtK"),
    ],
    ids=["W", "Omega", "Wtilde", "OmegaTilde", "KtK"],
)
def test_matrix_parameters_leave_the_callers_array_alone(build, field):
    arr = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = build(arr)
    stored = getattr(spec, field)
    assert arr.flags.writeable
    arr[0, 0] = -7.0
    assert stored[0, 0] == 2.0


def test_weightset_rejects_empty_w():
    with pytest.raises(ValidationError):
        WeightSet(W=np.zeros((0, 0)))


# --- parametric energy ------------------------------------------------------

@pytest.mark.parametrize("source", [False, True])
def test_parametric_energy_matches_kronecker_oracle(source):
    rng = np.random.default_rng(21 if source else 20)
    for _ in range(8):
        g = erdos_renyi(int(rng.integers(3, 9)), 0.5, int(rng.integers(100)))
        d = int(rng.integers(1, 4))
        ws = rand_weights(rng, d, source=source)
        F = rng.normal(size=(g.n, d))
        F0 = rng.normal(size=(g.n, d)) if source else None
        ours = parametric_energy(g, F, ws, F0=F0)
        oracle = kronecker_oracle_energy(g, F, ws, F0=F0)
        assert ours == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def test_energy_gradient_is_discrete_flow_field():
    # the explicit-Euler update F + tau*(-F Omega + A_bar F W - F0 Wtilde)
    # must equal F - 2*tau*grad with grad = -dE/dF / ... orientation check
    rng = np.random.default_rng(33)
    g = cycle(6)
    ws = rand_weights(rng, 2, source=True)
    F = rng.normal(size=(g.n, 2))
    F0 = rng.normal(size=(g.n, 2))
    grad = energy_gradient(g, F, ws, F0=F0)
    h = 1e-6
    # directional derivative along a random direction
    V = rng.normal(size=F.shape)
    fd = (
        parametric_energy(g, F + h * V, ws, F0=F0)
        - parametric_energy(g, F - h * V, ws, F0=F0)
    ) / (2 * h)
    assert fd == pytest.approx(-2.0 * float(np.sum(grad * V)), rel=1e-5, abs=1e-5)


def test_source_term_sign():
    # E gains 2*trace(F^T F0 Wtilde); with everything 1x1 this is 2*f*f0*wt
    g = path(2)
    ws = WeightSet(W=np.zeros((1, 1)), Wtilde=np.array([[3.0]]))
    F = np.array([1.0, 0.0])
    F0 = np.array([2.0, 0.0])
    assert parametric_energy(g, F, ws, F0=F0) == pytest.approx(12.0)


# --- decomposition ----------------------------------------------------------

def test_decomposition_closes_and_terms_nonnegative():
    rng = np.random.default_rng(40)
    for _ in range(10):
        g = erdos_renyi(int(rng.integers(4, 10)), 0.45, int(rng.integers(100)))
        d = int(rng.integers(1, 4))
        ws = rand_weights(rng, d)
        F = rng.normal(size=(g.n, d))
        br = energy_decomposition(g, F, ws)
        assert br.attraction >= -1e-12
        assert br.repulsion >= -1e-12
        total = br.graph_independent + br.attraction - br.repulsion
        assert br.total == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert br.total == pytest.approx(
            parametric_energy(g, F, ws), rel=1e-9, abs=1e-9
        )


def test_decomposition_pure_attraction_for_psd_w():
    g = cycle(5)
    ws = WeightSet(W=np.diag([2.0, 0.5]), Omega=np.zeros((2, 2)))
    F = np.random.default_rng(1).normal(size=(5, 2))
    br = energy_decomposition(g, F, ws)
    assert br.repulsion == pytest.approx(0.0, abs=1e-12)
    assert br.attraction > 0


# --- label-propagation energy ----------------------------------------------

def test_lp_energy_oracle():
    g = path(2)
    y = np.array([1.0, 0.0])
    y0 = np.array([0.0, 0.0])
    # dirichlet part 1.0 plus mu * |y - y0|^2 = 1 + 2*1
    assert lp_energy(g, y, y0, mu=2.0) == pytest.approx(3.0)


def test_lp_energy_rejects_negative_mu():
    with pytest.raises(ValidationError):
        lp_energy(path(2), np.ones(2), np.ones(2), mu=-0.1)


@pytest.mark.parametrize("mu", [np.nan, np.inf])
def test_lp_energy_rejects_non_finite_mu(mu):
    with pytest.raises(ValidationError, match="finite"):
        lp_energy(path(2), np.ones(2), np.ones(2), mu=mu)


@pytest.mark.parametrize("mu", ["x", True, None])
def test_lp_energy_refuses_a_mu_that_is_not_a_real_number(mu):
    with pytest.raises(ValidationError, match="mu must be a real number"):
        lp_energy(path(2), np.ones(2), np.ones(2), mu=mu)


# --- weight factories -------------------------------------------------------

def test_make_weights_symmetrize():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    w = make_weights("symmetrize", W0=m)
    assert np.allclose(w, 0.5 * (m + m.T))


def test_symmetrizing_huge_finite_entries_stays_finite():
    big = np.array([[1e308, 1.7e308], [1.7e308, -1e308]])
    assert np.array_equal(WeightSet(W=big).W, big)
    assert np.array_equal(WeightSet(W=[[1e308]]).W, [[1e308]])
    assert np.array_equal(make_weights("symmetrize", W0=big), big)
    assert spectral_decomposition([[1e308]]).eigenvalues.tolist() == [1e308]
    with pytest.raises(NumericError, match="floating range"):
        spectral_decomposition(np.full((2, 2), 1e308))  # eigenvalue 2e308


def test_make_weights_diagonal():
    w = make_weights("diagonal", diag=[1.0, -2.0])
    assert np.allclose(w, np.diag([1.0, -2.0]))


def test_make_weights_diag_dom_is_psd():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.normal(size=(3, 3))
        off = 0.5 * (m + m.T)
        np.fill_diagonal(off, 0.0)
        w = make_weights("diag_dom", W0=off, q=np.ones(3), r=np.ones(3))
        assert np.linalg.eigvalsh(w).min() >= -1e-10


@pytest.mark.parametrize("q, r", [([np.nan, 1.0], [0.0, 0.0]), ([1.0, 1.0], [0.0, -np.inf])])
def test_make_weights_diag_dom_rejects_non_finite_q_and_r(q, r):
    off = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        make_weights("diag_dom", W0=off, q=q, r=r)


@pytest.mark.parametrize(
    "mode, given, message",
    [
        ("diag_dom", {"q": [1.0], "r": [0.0, 0.0]}, "q must have length d=2, got 1"),
        ("diag_dom", {"q": [1.0, 1.0], "r": [0.0, 0.0, 0.0]}, "r must have length d=2, got 3"),
        ("diagonal", {"diag": [1.0, np.inf]}, "diag contains non-finite entries"),
    ],
    ids=["q-length", "r-length", "diag-nonfinite"],
)
def test_make_weights_checks_its_vectors_by_name(mode, given, message):
    off = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make_weights(mode, W0=off, **given)
