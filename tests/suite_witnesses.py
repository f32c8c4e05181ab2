"""The generator of the default check battery that ``gel suite`` replays.

``gel suite`` reads its witnesses from ``src/gel/suite/``, one
``gel-witness`` file per check, named ``NN_<label>.txt`` with ``NN`` the
check's position.  This script builds those witnesses from seeds, graph
generators and Haar-random bases, and writes them::

    python tests/suite_witnesses.py

To add a check, add its witness to ``build_suite`` below, run the script and
commit both.  ``test_verify`` compares the script's output with the shipped
files byte for byte, so the seeds stay documented and the files honest.
The bases come from LAPACK's QR, so a LAPACK that rounds differently can
fail that comparison; the shipped files themselves run the same everywhere.
"""

from __future__ import annotations

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE_DIR = os.path.join(ROOT, "src", "gel", "suite")

if __name__ == "__main__":  # run as a script: use the gel package beside this file
    sys.path.insert(0, os.path.join(ROOT, "src"))

from gel.graphs import complete_bipartite, cycle, erdos_renyi, laplacian_spectrum, path  # noqa: E402
from gel.verify import Witness, serialize_witness  # noqa: E402


def _random_symmetric(rng: np.random.Generator, spectrum) -> np.ndarray:
    """Symmetric matrix with the given eigenvalues and a Haar-random basis."""
    vals = np.asarray(spectrum, dtype=float)
    q, _ = np.linalg.qr(rng.normal(size=(vals.size, vals.size)))
    return q @ np.diag(vals) @ q.T


def build_suite() -> list[Witness]:
    """The default battery, built from its seeds and generators."""
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


def suite_files() -> dict[str, str]:
    """Each witness file of the battery: its name and its text."""
    return {f"{k:02d}_{w.label}.txt": serialize_witness(w)
            for k, w in enumerate(build_suite())}


def main() -> None:
    """Replace the witness files in the package with freshly built ones."""
    os.makedirs(SUITE_DIR, exist_ok=True)
    for name in os.listdir(SUITE_DIR):
        if name.endswith(".txt"):
            os.remove(os.path.join(SUITE_DIR, name))
    files = suite_files()
    for name, text in files.items():
        with open(os.path.join(SUITE_DIR, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(f"wrote {len(files)} witnesses to {SUITE_DIR}")


if __name__ == "__main__":
    main()
