import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gel.verify as verify
from gel.energy import WeightSet
from gel.errors import GelError, NumericError, ParseError, ValidationError
from gel.graphs import Graph, complete_bipartite, cycle, erdos_renyi, path


# --- oracles ----------------------------------------------------------------

def test_hessian_assembly_shape_and_symmetry():
    g = cycle(4)
    ws = WeightSet(W=np.array([[1.0, 0.2], [0.2, -0.5]]), Omega=np.eye(2))
    h = verify.hessian_assembly(g, ws)
    assert h.shape == (8, 8)
    assert np.abs(h - h.T).max() < 1e-12


def test_assembly_size_guard():
    g = cycle(70)
    ws = WeightSet(W=np.eye(60))
    with pytest.raises(NumericError, match="resource limit"):
        verify.hessian_assembly(g, ws)


def _fd_witness(g, h=1e-5, **matrices):
    return verify.Witness("gradient_fd", "gradient_fd", g, matrices=matrices, scalars={"h": h})


def test_gradient_fd_check_passes():
    rng = np.random.default_rng(0)
    g = erdos_renyi(6, 0.5, 7)
    w = rng.normal(size=(2, 2))
    rep = verify.run_check(_fd_witness(g, F=rng.normal(size=(6, 2)), W=w + w.T, Omega=np.eye(2)))
    assert rep.passed and rep.max_error <= 1e-5


def test_gradient_fd_check_detects_corrupted_gradient(monkeypatch):
    # mutation test from the outside: flip the sign of the implemented
    # gradient and the finite-difference check must fail with a witness
    import gel.energy as energy

    true_gradient = energy.energy_gradient
    monkeypatch.setattr(
        energy, "energy_gradient", lambda *a, **kw: -true_gradient(*a, **kw)
    )
    rng = np.random.default_rng(1)
    rep = verify.run_check(_fd_witness(cycle(5), F=rng.normal(size=(5, 2)), W=np.eye(2)))
    assert not rep.passed
    assert rep.witness is not None
    replay = verify.parse_witness(rep.witness)
    assert replay.check == "gradient_fd"
    monkeypatch.undo()
    # the recorded witness must replay green against the honest gradient
    assert verify.run_check(replay).passed


def test_fd_step_size_validated():
    rng = np.random.default_rng(2)
    with pytest.raises(ValidationError, match="step h"):
        verify.run_check(_fd_witness(path(2), h=1.0, F=rng.normal(size=(2, 1)), W=np.eye(1)))


def test_curl_asymmetry_separates_gradient_from_nongradient():
    g = cycle(4)
    sym_defect = verify.curl_asymmetry(g, np.eye(2), np.eye(2))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    asym_defect = verify.curl_asymmetry(g, np.eye(2) + skew, np.eye(2))
    assert sym_defect <= 1e-8
    assert asym_defect > 1e-6


def test_monotonicity_check_both_routes():
    rng = np.random.default_rng(3)
    g = erdos_renyi(7, 0.5, 11)
    w = rng.normal(size=(3, 3))
    rep = verify.run_check(verify.Witness(
        "monotonicity", "monotonicity", g,
        matrices={"F0": rng.normal(size=(7, 3)), "W": w + w.T, "Omega": np.eye(3)},
        scalars={"steps": 60}, tags={"sigma": "tanh"}))
    assert rep.passed


def test_monotonicity_needs_a_step():
    w = verify.Witness("monotonicity", "monotonicity", path(3),
                       matrices={"F0": np.ones((3, 1)), "W": np.eye(1)}, scalars={"steps": 0})
    with pytest.raises(ValidationError, match="steps must be a positive integer"):
        verify.run_check(w)


def _runner_peak(check: str, steps: int) -> int:
    rng = np.random.default_rng(4)
    w = verify.Witness(
        check, check, cycle(64),
        matrices={"F0": rng.normal(size=(64, 2)), "W": np.diag([0.5, 0.3])},
        scalars={"steps": steps, "tau": 0.01}, tags={"sigma": "tanh"})
    tracemalloc.start()
    try:
        verify.run_check(w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", ["monotonicity", "conservation"])
def test_runner_memory_does_not_grow_with_steps(check):
    _runner_peak(check, 1)  # fills the graph's caches: both peaks below are the run's own
    short = _runner_peak(check, 500)
    # keeping every state of the run would take 8001 * 64 * 2 floats = 8 MB
    assert _runner_peak(check, 8000) < 1.5 * short


def _growing_conservation(steps: int) -> verify.Witness:
    """A conservation run whose norm grows about e^0.02 a step."""
    rng = np.random.default_rng(4)
    return verify.Witness(
        "conservation", "growing", cycle(64),
        matrices={"F0": rng.normal(size=(64, 2)), "W": np.diag([-1.0, 0.3])},
        scalars={"steps": steps, "tau": 0.01})


@pytest.mark.parametrize("steps", [8000, 40000])
def test_conservation_holds_however_far_the_norm_grows(steps):
    # log_scale reaches 159 at 8000 steps, where the absolute drift of the raw
    # coefficients is 3.6e52, and 792 at 40000, where exp(log_scale) overflows
    rep = verify.run_check(_growing_conservation(steps))
    assert rep.passed and rep.max_error <= 1e-14


def test_conservation_catches_a_small_frequency_zero_drift(monkeypatch):
    states = verify.trajectory_states
    phi0 = np.full(64, 1.0 / 8.0)  # sqrt(deg) / |sqrt(deg)| on a cycle

    def drifting(spec, g, F0, steps):
        for k, state in enumerate(states(spec, g, F0, steps)):
            if k == steps:  # move the last state's phi0 component by 1e-6 |F|
                state = dataclasses.replace(
                    state, direction=state.direction + 1e-6 * np.outer(phi0, [1.0, 0.0]))
            yield state

    monkeypatch.setattr(verify, "trajectory_states", drifting)
    rep = verify.run_check(_growing_conservation(8000))
    assert not rep.passed and rep.max_error == pytest.approx(1e-6, rel=1e-6)


# --- witness serialization --------------------------------------------------

def _sample_witness():
    rng = np.random.default_rng(5)
    return verify.Witness(
        check="kronecker_energy",
        label="roundtrip_sample",
        graph=complete_bipartite(2, 3),
        matrices={
            "F": rng.normal(size=(5, 2)),
            "W": np.array([[1.0, -0.25], [-0.25, 0.5]]),
            "Omega": np.eye(2),
        },
        scalars={"tau": 0.5, "steps": 40.0},
        tags={"expected": "HFD"},
    )


def test_witness_roundtrip_exact():
    w = _sample_witness()
    text = verify.serialize_witness(w)
    back = verify.parse_witness(text)
    assert back.check == w.check and back.label == w.label
    assert back.graph == w.graph
    assert set(back.matrices) == set(w.matrices)
    for k in w.matrices:
        assert np.array_equal(back.matrices[k], w.matrices[k])
    assert back.scalars == w.scalars
    assert back.tags == w.tags


def test_witness_roundtrip_is_runnable():
    rep = verify.run_check(verify.parse_witness(
        verify.serialize_witness(_sample_witness())
    ))
    assert rep.passed


def test_parse_witness_rejects_bad_header():
    with pytest.raises(ParseError, match="header"):
        verify.parse_witness("nonsense 9\ncheck x\n")


def test_parse_witness_reports_line_numbers():
    text = verify.serialize_witness(_sample_witness())
    broken = text.replace("matrix W 2 2", "matrix W 2 3", 1)
    with pytest.raises(ParseError, match="line"):
        verify.parse_witness(broken)


def test_parse_witness_reports_the_line_of_a_bad_graph_edge():
    text = verify.serialize_witness(_sample_witness())
    lines = text.splitlines()
    bad = lines.index("n 5") + 2  # the first edge line, 1-based
    lines[bad - 1] = "0 x"
    with pytest.raises(ParseError, match=f"line {bad}: non-integer node id"):
        verify.parse_witness("\n".join(lines) + "\n")


def test_parse_witness_rejects_an_empty_graph_block():
    with pytest.raises(ParseError, match="empty"):
        verify.parse_witness("gel-witness 1\ncheck x\ngraph\nend\n")


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True)
_words = st.lists(_names, min_size=1, max_size=3).map(" ".join)


@st.composite
def witnesses(draw):
    """A witness with a random small graph (possibly edgeless, possibly
    absent), random matrices, scalars and tags."""
    graph = None
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        node = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=12))
        graph = Graph(n, pairs)
    value = st.floats(allow_nan=False)
    matrix = hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=3), elements=value)
    return verify.Witness(
        check=draw(_names),
        label=draw(_words),
        graph=graph,
        matrices=draw(st.dictionaries(_names, matrix, max_size=3)),
        scalars=draw(st.dictionaries(_names, value, max_size=3)),
        tags=draw(st.dictionaries(_names, _words, max_size=3)),
    )


@settings(deadline=None)
@given(witnesses())
def test_witness_roundtrip_property(w):
    back = verify.parse_witness(verify.serialize_witness(w))
    assert (back.check, back.label) == (w.check, w.label)
    assert back.graph == w.graph
    if w.graph is not None:
        assert hash(back.graph) == hash(w.graph)
    assert back.matrices.keys() == w.matrices.keys()
    for k in w.matrices:
        assert np.array_equal(back.matrices[k], w.matrices[k])
    assert back.scalars == w.scalars
    assert back.tags == w.tags


def test_parse_witness_rejects_unknown_directive():
    text = verify.serialize_witness(_sample_witness()) + "wibble 3\n"
    with pytest.raises(ParseError):
        verify.parse_witness(text)


# --- check reports ----------------------------------------------------------

def test_failed_report_carries_witness():
    rep = verify.CheckReport(
        name="x", passed=False, max_error=1.0, tolerance=0.1, witness="doc"
    )
    assert rep.witness == "doc"


def test_run_check_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        verify.run_check(verify.Witness(check="nope", label="nope"))


# --- the battery ------------------------------------------------------------

def test_default_suite_composition():
    suite = verify.default_suite()
    assert len(suite) == 45
    labels = [w.label for w in suite]
    assert len(set(labels)) == len(labels)
    for w in suite:
        assert w.check in verify.CHECK_RUNNERS


@pytest.mark.parametrize(
    "kind",
    [
        "kronecker_energy",
        "closed_form_vs_trajectory",
        "regime_realization",
        "no_residual_lfd",
        "conservation",
        "harmonic_limit",
        "special_cases",
        "spectral_sanity",
    ],
)
def test_representative_suite_instances_pass(kind):
    suite = [w for w in verify.default_suite() if w.check == kind]
    assert suite
    rep = verify.run_check(suite[0])
    assert rep.passed, f"{rep.name}: {rep.max_error} > {rep.tolerance}"


def test_full_suite_green():
    for w in verify.default_suite():
        rep = verify.run_check(w)
        assert rep.passed, f"{rep.name}: {rep.max_error} > {rep.tolerance}"


#: The step count of every check that runs a trajectory.  Pinned so that a
#: change in how a horizon is derived cannot change what a check tests.
SUITE_STEPS = {
    "closed_form_vs_trajectory_k2": 50,
    "closed_form_vs_trajectory_er9": 80,
    "closed_form_vs_trajectory_cycle7": 100,
    "hfd_realized_er9": 282,
    "rate_certified_er9": 157,
    "hfd_realized_k55": 52,
    "lfd_realized_er8": 70,
    "lfd_realized_k2": 19,
    "no_residual_lfd_cycle5": 98,
    "no_residual_lfd_er8": 47,
    "heat_dirichlet_monotone": 200,
    "pde_gcn_dirichlet_monotone": 100,
    "cgnn_never_hfd": 1106,
    "grand_mean_limit_cycle6": 1500,
    "diag_nonlinear_sharpening": 100,
    "omega_eq_w_conservation": 500,
    "omega_eq_w_negative_gives_hfd": 1200,
    "harmonic_limit_full_rank": 2500,
    "harmonic_limit_singular": 2500,
    "renormalization_commutes": 30,
}


#: The tolerance every check reports: its own, or 1 for a check that reports
#: the worst of several errors in units of their tolerances.
SUITE_TOLERANCES = {
    **{f"kronecker_energy_{g}": 1e-10 for g in ("k2", "cycle5", "k34", "er8", "er10")},
    **{f"gradient_fd_{g}": 1e-5 for g in ("k2", "cycle4", "er7", "k23", "er9")},
    "curl_symmetric": 1e-8,
    "curl_detects_asymmetry": 0.0,
    **{f"filter_equivalence_{g}": 1e-12 for g in ("cycle6", "er8", "k33")},
    **{f"closed_form_vs_trajectory_{g}": 1.0 for g in ("k2", "er9", "cycle7")},
    **{f"monotonicity_{s}": 1e-9 for s in ("relu", "tanh", "identity")},
    "hfd_realized_er9": 1.0,
    "rate_certified_er9": 1e-9,
    "hfd_realized_k55": 1.0,
    "lfd_realized_er8": 1.0,
    "lfd_realized_k2": 1.0,
    "no_residual_lfd_cycle5": 1.0,
    "no_residual_lfd_er8": 1.0,
    "heat_dirichlet_monotone": 1e-9,
    "pde_gcn_dirichlet_monotone": 1e-9,
    "cgnn_never_hfd": 1e-6,
    "grand_mean_limit_cycle6": 1e-8,
    "diag_nonlinear_sharpening": 1e-9,
    "omega_eq_w_conservation": 1e-9,
    "omega_eq_w_negative_gives_hfd": 1e-6,
    "harmonic_limit_full_rank": 1e-6,
    "harmonic_limit_singular": 1e-6,
    "heat_equals_identity_weights": 1e-12,
    "renormalization_commutes": 1e-9,
    "attraction_repulsion_split": 1e-9,
    **{f"spectral_sanity_{g}": 1.0 for g in ("er10", "cycle6", "cycle5", "k34", "path6")},
}


def test_suite_step_counts_are_pinned(monkeypatch):
    seen = {}
    label = None

    def recording(run):
        def wrapped(spec, g, F0, steps):
            seen.setdefault(label, []).append(int(steps))
            return run(spec, g, F0, steps)
        return wrapped

    monkeypatch.setattr(verify, "run_trajectory", recording(verify.run_trajectory))
    monkeypatch.setattr(verify, "trajectory_states", recording(verify.trajectory_states))
    for w in verify.default_suite():
        label = w.label
        assert verify.run_check(w).passed, label
    assert seen == {name: [steps] for name, steps in SUITE_STEPS.items()}


def test_suite_tolerances_are_pinned():
    reports = [verify.run_check(w) for w in verify.default_suite()]
    assert {r.name: r.tolerance for r in reports} == SUITE_TOLERANCES


def test_every_prediction_kind_runs_through_the_one_runner():
    for kind in verify.PREDICTIONS:
        assert verify.CHECK_RUNNERS[kind] is verify._run_prediction


def test_regime_realization_needs_the_certificate_to_agree_with_its_tag():
    w = next(w for w in verify.default_suite() if w.label == "hfd_realized_k55")
    w.tags["expected"] = "LFD"
    rep = verify.run_check(w)
    assert not rep.passed and rep.max_error == np.inf


def test_the_rayleigh_target_comes_from_the_row_not_the_profile(monkeypatch):
    w = next(w for w in verify.default_suite() if w.check == "no_residual_lfd")
    honest = verify.run_check(w)
    profile = verify.asymptotic_profile
    monkeypatch.setattr(verify, "asymptotic_profile",
                        lambda *a: dataclasses.replace(profile(*a), label="HFD"))
    assert verify.run_check(w) == honest


def test_omega_eq_w_hfd_fails_a_run_that_smooths():
    w = next(w for w in verify.default_suite() if w.check == "omega_eq_w_hfd")
    w.matrices["W"] = np.diag([1.0, 0.3])
    rep = verify.run_check(w)
    assert not rep.passed and abs(rep.max_error - 2.0) < 1e-6


def _damaged(w: verify.Witness):
    """Every copy of ``w`` with one matrix, scalar or tag dropped."""
    for kind in ("matrices", "scalars", "tags"):
        for name in getattr(w, kind):
            copy = verify.Witness(w.check, w.label, w.graph, dict(w.matrices),
                                  dict(w.scalars), dict(w.tags))
            del getattr(copy, kind)[name]
            yield f"{w.label} without {name}", copy


def test_a_damaged_suite_witness_fails_only_as_a_gel_error():
    escaped = []
    for w in verify.default_suite():
        for what, damaged in _damaged(w):
            try:
                assert isinstance(verify.run_check(damaged), verify.CheckReport)
            except GelError:
                pass
            except Exception as exc:  # noqa: BLE001 - the property under test
                escaped.append(f"{what}: {type(exc).__name__}: {exc}")
    assert escaped == []


def test_a_missing_tag_is_a_validation_error():
    w = verify.Witness(check="regime_realization", label="x")
    assert w.tag("sigma", "relu") == "relu"
    with pytest.raises(ValidationError, match="needs tag 'expected'"):
        w.tag("expected")


def test_grand_mean_check_on_irregular_graph():
    # path(5) is not regular: the limit is the mean weighted by deg + 1
    w = verify.Witness(
        check="grand_mean", label="grand_mean_path5", graph=path(5),
        matrices={"F0": np.random.default_rng(9).normal(size=(5, 2))},
        scalars={"tau": 0.3, "steps": 3000},
    )
    assert verify.run_check(w).passed
