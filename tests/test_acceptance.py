"""Acceptance battery: every published claim of the package, end to end.

Each test covers one criterion at its stated tolerance on seeded desk-scale
instances and prints exactly one summary line (visible with ``pytest -rA``);
the test names double as the pass/fail report under ``pytest -v``.
Instances are generated here but measured by the same check runners the
``gel suite`` command uses, so there is a single implementation of every
measurement.
"""

import functools
import time

import numpy as np

import gel.verify as verify
from gel.cli import main
from gel.dynamics import ModelSpec
from gel.energy import WeightSet
from gel.graphs import (
    complete_bipartite,
    cycle,
    erdos_renyi,
    graph_checks,
    laplacian_spectrum,
    path,
)
from gel.spectral import classify_regime


def _sym(rng, spectrum):
    vals = np.asarray(spectrum, dtype=float)
    q, _ = np.linalg.qr(rng.normal(size=(vals.size, vals.size)))
    return (q * vals) @ q.T


def _flow(w, tau):
    """The gradient-flow spec with weights W = w alone."""
    return ModelSpec("gradient_flow", weights=WeightSet(W=w), tau=tau)


def _witness(check, label, g, matrices, scalars=None, tags=None):
    return verify.Witness(
        check=check,
        label=label,
        graph=g,
        matrices={k: np.asarray(v, dtype=float) for k, v in matrices.items()},
        scalars={k: float(v) for k, v in (scalars or {}).items()},
        tags=dict(tags or {}),
    )


def _run(num, title, witnesses, budget=None):
    t0 = time.perf_counter()
    reports = [verify.run_check(w) for w in witnesses]
    elapsed = time.perf_counter() - t0
    # detection checks carry tolerance 0 (any excess is a failure); signed
    # margins can sit far below zero, which is just a comfortable pass
    worst = max(
        0.0,
        max(
            r.max_error / r.tolerance if r.tolerance > 0 else r.max_error
            for r in reports
        ),
    )
    ok = all(r.passed for r in reports) and (budget is None or elapsed <= budget)
    stamp = f", {elapsed:.1f}s" + (f" of {budget:.0f}s" if budget else "")
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {title}: "
        f"{len(reports)} instances, worst normalized error {worst:.2e}{stamp}"
    )
    bad = [r.name for r in reports if not r.passed]
    assert not bad, f"failing instances: {bad}"
    if budget is not None:
        assert elapsed <= budget, f"runtime {elapsed:.1f}s over the {budget:.0f}s budget"
    return reports


# --- shared instance pools --------------------------------------------------

def _non_bipartite_er(n, p, seed):
    """Connected non-bipartite draw with a clean gap under lambda_max.

    The gap bound keeps the convergence horizons of the realization checks
    comfortably inside their internal step cap.
    """
    bump = 0
    while True:
        g = erdos_renyi(n, p, seed + 1000 * bump)
        lam = laplacian_spectrum(g).eigenvalues
        if not graph_checks(g).bipartite and lam[-1] - lam[-2] >= 0.05:
            return g
        bump += 1


def _hfd_spectrum(rng, g, d, tau):
    """Channel spectrum guaranteed high-frequency dominant on g at step tau."""
    lam_max = float(laplacian_spectrum(g).eigenvalues[-1])
    bottom = float(rng.uniform(0.9, 1.5))
    rho = bottom * (lam_max - 1.0)
    top = float(rng.uniform(0.05, 0.75)) * rho
    inner = rng.uniform(-0.6 * bottom, 0.85 * top, size=max(d - 2, 0))
    spectrum = np.concatenate([[-bottom], inner, [top]])[:d]
    w = _sym(rng, spectrum)
    assert classify_regime(g, _flow(w, tau)).regime == "HFD"
    return w


@functools.lru_cache(maxsize=1)
def hfd_pool():
    """20 seeded instances classified HFD, shared by criteria 2 and 4."""
    rng = np.random.default_rng(2024)
    pool = []
    for i in range(20):
        if i % 5 == 4:
            g = complete_bipartite(int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        else:
            g = _non_bipartite_er(int(rng.integers(6, 15)), 0.45, 300 + i)
        d = int(rng.integers(1, 5))
        tau = 0.5
        w = _hfd_spectrum(rng, g, d, tau)
        F0 = rng.normal(size=(g.n, d))
        pool.append((f"hfd_{i:02d}", g, w, tau, F0))
    return pool


# --- criteria ---------------------------------------------------------------

def test_01_closed_form_equals_trajectory():
    rng = np.random.default_rng(101)
    witnesses = []
    for i in range(50):
        n = int(rng.integers(4, 31))
        g = erdos_renyi(n, float(rng.choice([0.25, 0.4, 0.6])), 500 + i)
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 101))
        tau = float(rng.choice([0.25, 0.5, 1.0]))
        witnesses.append(
            _witness(
                "closed_form_vs_trajectory",
                f"accept1_{i:02d}",
                g,
                {"W": _sym(rng, rng.uniform(-1.2, 1.2, size=d)),
                 "F0": rng.normal(size=(g.n, d))},
                {"tau": tau, "steps": m},
            )
        )
    _run(1, "closed form vs trajectory", witnesses, budget=10.0)


def test_02_hfd_realization():
    witnesses = [
        _witness(
            "regime_realization", label, g, {"W": w, "F0": F0},
            {"tau": tau}, {"expected": "HFD"},
        )
        for label, g, w, tau, F0 in hfd_pool()
    ]
    _run(2, "high-frequency dominance", witnesses, budget=20.0)


def test_03_lfd_realization():
    rng = np.random.default_rng(103)
    witnesses = []
    for i in range(20):
        g = erdos_renyi(int(rng.integers(5, 13)), 0.45, 700 + i)
        d = int(rng.integers(1, 5))
        top = float(rng.uniform(0.3, 1.0))
        if d == 1:
            spectrum = np.array([top])
        else:
            lam_max = float(laplacian_spectrum(g).eigenvalues[-1])
            # keep every |mu|(lam_max - 1) safely below mu_top
            ceiling = 0.7 * top / max(lam_max - 1.0, 0.1)
            rest = rng.uniform(-min(ceiling, 0.8 * top), 0.8 * top, size=d - 1)
            spectrum = np.concatenate([rest, [top]])
        w = _sym(rng, spectrum)
        assert classify_regime(g, _flow(w, 0.5)).regime == "LFD"
        witnesses.append(
            _witness(
                "regime_realization", f"accept3_{i:02d}", g,
                {"W": w, "F0": rng.normal(size=(g.n, d))},
                {"tau": 0.5}, {"expected": "LFD"},
            )
        )
    _run(3, "low-frequency dominance", witnesses, budget=20.0)


def test_04_rate_certification_on_hfd_pool():
    witnesses = [
        _witness("rate_certification", label.replace("hfd", "rate"), g,
                 {"W": w, "F0": F0}, {"tau": tau})
        for label, g, w, tau, F0 in hfd_pool()
    ]
    _run(4, "subdominant contraction rate", witnesses)


def test_05_no_residual_forces_low_frequency():
    rng = np.random.default_rng(105)
    witnesses = []
    flows = 0
    for i in range(20):
        g = _non_bipartite_er(int(rng.integers(5, 12)), 0.5, 900 + i)
        d = int(rng.integers(1, 5))
        if i < 10:
            w = _sym(rng, rng.uniform(-1.2, 1.2, size=d))
            if float(np.abs(np.linalg.eigvalsh(w)).max()) < 0.2:
                w = w + 0.5 * np.eye(d)
        else:
            # spectra where the high-frequency candidate dominates: the
            # discarding update must still smooth, the gradient flow must not
            w = _hfd_spectrum(rng, g, d, 0.5)
        F0 = rng.normal(size=(g.n, d))
        witnesses.append(
            _witness("no_residual_lfd", f"accept5_nr_{i:02d}", g,
                     {"W": w, "F0": F0}, {"tau": 0.5})
        )
        if classify_regime(g, _flow(w, 0.5)).regime == "HFD":
            flows += 1
            witnesses.append(
                _witness("regime_realization", f"accept5_gf_{i:02d}", g,
                         {"W": w, "F0": F0}, {"tau": 0.5}, {"expected": "HFD"})
            )
    assert flows >= 10  # the sharpening counterpart is actually exercised
    _run(5, "residual removal forces smoothing", witnesses)


def test_06_gradient_identity_and_curl():
    rng = np.random.default_rng(106)
    witnesses = []
    for i in range(100):
        g = erdos_renyi(int(rng.integers(3, 11)), 0.5, 1100 + i)
        d = int(rng.integers(1, 5))
        mats = {
            "F": rng.normal(size=(g.n, d)),
            "W": _sym(rng, rng.uniform(-1, 1, size=d)),
            "Omega": _sym(rng, rng.uniform(-0.5, 0.5, size=d)),
        }
        if i % 3 == 0:
            mats["Wtilde"] = rng.normal(size=(d, d))
            mats["F0"] = rng.normal(size=(g.n, d))
        witnesses.append(
            _witness("gradient_fd", f"accept6_fd_{i:03d}", g, mats, {"h": 1e-5})
        )
    for i in range(5):
        g = erdos_renyi(int(rng.integers(3, 8)), 0.5, 1300 + i)
        d = int(rng.integers(2, 4))
        wsym = _sym(rng, rng.uniform(-1, 1, size=d))
        osym = _sym(rng, rng.uniform(-0.5, 0.5, size=d))
        witnesses.append(
            _witness("curl_symmetric", f"accept6_curl_sym_{i}", g,
                     {"W": wsym, "Omega": osym})
        )
        skew = rng.normal(size=(d, d))
        witnesses.append(
            _witness("curl_asymmetry", f"accept6_curl_asym_{i}", g,
                     {"W": wsym + 0.5 * (skew - skew.T), "Omega": osym})
        )
    _run(6, "energy gradient identity and curl", witnesses)


def test_07_nonlinear_monotonicity():
    rng = np.random.default_rng(107)
    witnesses = []
    for i in range(20):
        sigma = "relu" if i % 2 == 0 else "tanh"
        if i < 18:
            g = erdos_renyi(int(rng.integers(6, 20)), 0.4, 1500 + i)
            d = int(rng.integers(2, 6))
        else:
            # stress the assembly bound n*d = 1024 from both factor shapes
            g = erdos_renyi(128, 0.05, 1600 + i) if i == 18 else cycle(256)
            d = 8 if i == 18 else 4
        w = _sym(rng, rng.uniform(-1, 1, size=d))
        omega = _sym(rng, rng.uniform(0.0, 0.8, size=d))
        witnesses.append(
            _witness(
                "monotonicity", f"accept7_{sigma}_{i:02d}", g,
                {"F0": rng.normal(size=(g.n, d)), "W": w, "Omega": omega},
                {"steps": 200, "tau_proxy": 1e-3, "tau_discrete": 0.3},
                {"sigma": sigma},
            )
        )
    _run(7, "nonlinear energy descent", witnesses, budget=30.0)


def test_08_comparison_models():
    rng = np.random.default_rng(108)
    witnesses = []
    for i, g in enumerate([cycle(7), path(6), _non_bipartite_er(9, 0.5, 1700)]):
        d = 2 + i % 2
        k = rng.normal(size=(d, d))
        witnesses.append(
            _witness("pde_gcn_monotone", f"accept8_pde_{i}", g,
                     {"KtK": k.T @ k, "F0": rng.normal(size=(g.n, d))},
                     {"tau": 1e-3, "steps": 150})
        )
    for i, g in enumerate([cycle(6), complete_bipartite(3, 4), _non_bipartite_er(8, 0.5, 1800)]):
        d = 2
        witnesses.append(
            _witness("cgnn_decay", f"accept8_cgnn_{i}", g,
                     {"OmegaTilde": rng.normal(size=(d, d)) * 0.3,
                      "F0": rng.normal(size=(g.n, d))},
                     {"tau": 0.05})
        )
    # on any connected graph the flow tends to the mean weighted by deg + 1,
    # the stationary law of the self-loop-augmented random walk; these
    # graphs are connected (and regular, where that mean is the plain one)
    for i, (g, steps) in enumerate(
        [(cycle(6), 2500), (cycle(9), 6000), (complete_bipartite(4, 4), 800)]
    ):
        witnesses.append(
            _witness("grand_mean", f"accept8_grand_{i}", g,
                     {"F0": rng.normal(size=(g.n, 3))},
                     {"tau": 0.1, "steps": steps})
        )
    _run(8, "diffusion-family comparisons", witnesses)


def test_09_harmonic_limit():
    rng = np.random.default_rng(109)
    witnesses = []
    for i, g in enumerate([path(4), cycle(5), _non_bipartite_er(7, 0.5, 1900)]):
        full = _sym(rng, rng.uniform(0.7, 1.2, size=2))
        witnesses.append(
            _witness("harmonic_limit", f"accept9_full_{i}", g,
                     {"W": full, "F0": rng.normal(size=(g.n, 2))},
                     {"tau": 0.2, "steps": 3000})
        )
        witnesses.append(
            _witness("harmonic_limit", f"accept9_singular_{i}", g,
                     {"W": np.diag([float(rng.uniform(0.7, 1.1)), 0.0]),
                      "F0": rng.normal(size=(g.n, 2))},
                     {"tau": 0.2, "steps": 3000})
        )
    _run(9, "harmonic-metric terminal states", witnesses)


def test_10_omega_equals_w_conservation_and_sharpening():
    rng = np.random.default_rng(110)
    witnesses = []
    for i, g in enumerate([complete_bipartite(2, 3), cycle(5), _non_bipartite_er(8, 0.45, 2000)]):
        witnesses.append(
            _witness("conservation", f"accept10_cons_{i}", g,
                     {"W": _sym(rng, rng.uniform(-1.0, 0.8, size=2)),
                      "F0": rng.normal(size=(g.n, 2))},
                     {"tau": 0.01, "steps": 500})
        )
    witnesses.append(
        _witness("omega_eq_w_hfd", "accept10_hfd", _non_bipartite_er(9, 0.5, 2100),
                 {"W": np.diag([-1.1, 0.2]),
                  "F0": rng.normal(size=(9, 2))},
                 {"tau": 0.05, "steps": 2500})
    )
    _run(10, "frequency-zero conservation", witnesses)


def test_11_bipartite_demo(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GEL_SEED", raising=False)
    t0 = time.perf_counter()
    code = main(["bipartite", "5", "5"])
    elapsed = time.perf_counter() - t0
    report = (tmp_path / "gel_bipartite.txt").read_text()
    capsys.readouterr()
    ok = code == 0 and report.count("[PASS]") == 3 and elapsed < 5.0
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 11 bipartite sharpening demo: "
        f"exit {code}, 3 assertions, {elapsed:.1f}s of 5s"
    )
    assert code == 0
    assert report.count("[PASS]") == 3
    assert elapsed < 5.0


def test_12_diagonal_sharpening():
    rng = np.random.default_rng(112)
    witnesses = []
    for i in range(10):
        g = erdos_renyi(int(rng.integers(5, 12)), 0.5, 2200 + i)
        d = int(rng.integers(2, 5))
        omega = -rng.uniform(0.0, 1.5, size=d)
        if i % 4 == 0:
            omega[rng.integers(0, d)] = 0.0
        witnesses.append(
            _witness("diag_sharpening", f"accept12_{i:02d}", g,
                     {"omega_diag": omega, "F0": rng.normal(size=(g.n, d))},
                     {"tau": 1e-3, "steps": 200},
                     {"sigma": "relu" if i % 2 == 0 else "tanh"})
        )
    _run(12, "diagonal sharpening is monotone", witnesses)
