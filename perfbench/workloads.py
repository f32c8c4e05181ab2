"""The benchmark's workloads: the inputs each one writes, the ``gel`` command
line it runs, and the output gate that decides whether a run was correct.

Every workload is built from a seed, so the same seed always gives the same
inputs.  The gates compare the verb's output with arithmetic done here in
plain numpy (closed-form mode sums and dense solves), not with ``gel``'s own
solvers; ``gel`` is only used to read back the inputs it was given.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Suite tolerances reused by the gates: direction-valued columns, log-scale.
DIRECTION_TOL = 1e-10
LOG_SCALE_TOL = 1e-8

#: Diagonal of W for the high-frequency-dominant run: mu_0 = -1, mu_top = 0.3,
#: so |mu_0| (lambda_max - 1) > mu_top whenever lambda_max > 1.3.
HFD_WEIGHTS = (-1.0, -0.5, -0.2, 0.0, 0.05, 0.1, 0.2, 0.3)

#: Smallest number of checks ``gel suite`` runs at the commit that defined
#: this benchmark; later commits may add checks but not drop below it.
SUITE_MIN_CHECKS = 45


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``argv`` is the ``gel`` command line, run with the child's own directory
    as working directory after ``files`` (name -> text) are written there.
    ``ready`` names the ``gel`` function whose boundary ends set-up:
    ``(module, function, "return" | "call")``.  ``ops`` is the work unit
    count behind ``ops_per_s`` (trajectory steps, or ``None`` when the gate
    reads it from the output).  ``gate(child_dir, stdout, reference)``
    returns a list of failures; ``reference(child_dir)`` is computed once
    per benchmark run and passed to every gate call.
    """

    name: str
    why: str
    argv: tuple[str, ...]
    files: dict[str, str]
    ready: tuple[str, str, str]
    ops: int | None
    gate: Callable[[str, str, object], list[str]]
    reference: Callable[[str], object] = lambda _child_dir: None


# ---------------------------------------------------------------------------
# helpers shared by the gates
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def final_csv_row(csv_text: str) -> dict[str, float]:
    """The last data row of a ``gel run`` CSV, keyed by column name."""
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    values = [float(v) for v in lines[-1].split(",")]
    return dict(zip(header, values))


def dense_normalized_laplacian(n: int, edges) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} built from the edge list alone."""
    a = np.zeros((n, n))
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(n) - a * np.outer(inv_sqrt, inv_sqrt)


def _compare(row: dict[str, float], expected: dict[str, tuple[float, float]]) -> list[str]:
    failures = []
    for column, (want, tol) in expected.items():
        got = row[column]
        if not abs(got - want) <= tol:
            failures.append(
                f"{column} = {got!r}, expected {want!r} within {tol:g}"
            )
    return failures


def _load_inputs(child_dir: str):
    """Graph and initial features exactly as ``gel`` reads them from the config."""
    from gel import load_config

    cfg = load_config(os.path.join(child_dir, "run.cfg"))
    return cfg.graph, cfg.initial_features(), cfg


def _config(graph: str, variant: str, steps: int, seed: int, extra: list[str]) -> str:
    return "\n".join(
        [
            f"graph = {graph}",
            f"variant = {variant}",
            *extra,
            f"steps = {steps}",
            f"init = random_normal({seed})",
            "csv = run.csv",
            "svg = run.svg",
            "report = run.txt",
            "",
        ]
    )


# ---------------------------------------------------------------------------
# run_er2000_hfd: gradient flow, high-frequency dominant
# ---------------------------------------------------------------------------

def hfd_reference(child_dir: str) -> dict[str, float]:
    """Final Rayleigh quotient and log-scale of the residual-free flow after
    ``steps`` steps, from the exact mode sum in log-magnitude arithmetic."""
    g, F0, cfg = _load_inputs(child_dir)
    lam, U = np.linalg.eigh(dense_normalized_laplacian(g.n, g.edges))
    mu, V = np.linalg.eigh(np.asarray(cfg.spec.weights.W, dtype=float))
    coeff = U.T @ F0 @ V
    factors = 1.0 + cfg.spec.tau * np.outer(1.0 - lam, mu)
    alive = (coeff != 0.0) & (factors != 0.0)
    with np.errstate(divide="ignore"):
        log_mag = np.where(
            alive, np.log(np.abs(coeff)) + cfg.steps * np.log(np.abs(factors)), -np.inf
        )
    peak = float(log_mag.max())
    sq = np.exp(2.0 * (log_mag - peak))
    total = float(sq.sum())
    rq = float((lam[:, None] * sq).sum() / total)
    return {"rayleigh_quotient": rq, "log_scale": peak + 0.5 * float(np.log(total))}


def hfd_gate(child_dir: str, stdout: str, ref: dict[str, float]) -> list[str]:
    failures = []
    if "  regime = HFD\n" not in _read(os.path.join(child_dir, "run.txt")):
        failures.append("report does not say regime = HFD")
    row = final_csv_row(_read(os.path.join(child_dir, "run.csv")))
    failures += _compare(
        row,
        {
            "rayleigh_quotient": (ref["rayleigh_quotient"], DIRECTION_TOL),
            "dirichlet_direction": (ref["rayleigh_quotient"], DIRECTION_TOL),
            "log_scale": (ref["log_scale"], LOG_SCALE_TOL),
        },
    )
    return failures


def run_er2000_hfd(seed: int, n: int = 2000, p: float = 0.004, steps: int = 150) -> Workload:
    w = "[" + ",".join(
        "[" + ",".join(repr(v if i == j else 0.0) for j in range(len(HFD_WEIGHTS))) + "]"
        for i, v in enumerate(HFD_WEIGHTS)
    ) + "]"
    cfg = _config(f"erdos_renyi({n}, {p}, {seed})", "gradient_flow", steps, seed,
                  [f"W = {w}", "tau = 0.5"])
    return Workload(
        name="run_er2000_hfd",
        why="large graph: the n^3 spectrum and the dense n^2 d step both weigh",
        argv=("run", "run.cfg"),
        files={"run.cfg": cfg},
        ready=("cli", "load_config", "call"),
        ops=steps,
        gate=hfd_gate,
        reference=hfd_reference,
    )


# ---------------------------------------------------------------------------
# run_er1000_lp: label propagation, long per-step loop
# ---------------------------------------------------------------------------

def lp_reference(child_dir: str) -> dict[str, float]:
    """Fixed point of ``(L + mu I) F = mu F0`` by a dense solve, and the final
    CSV columns it implies."""
    g, F0, cfg = _load_inputs(child_dir)
    mu = cfg.spec.mu
    lap = dense_normalized_laplacian(g.n, g.edges)
    fixed = np.linalg.solve(lap + mu * np.eye(g.n), mu * F0)
    norm = float(np.linalg.norm(fixed))
    direction = fixed / norm
    rq = float(np.sum(direction * (lap @ direction)))
    return {
        "rayleigh_quotient": rq,
        "parametric_energy_direction": rq + mu * float(np.sum((direction - F0) ** 2)),
        "log_scale": float(np.log(norm)),
    }


def lp_gate(child_dir: str, stdout: str, ref: dict[str, float]) -> list[str]:
    row = final_csv_row(_read(os.path.join(child_dir, "run.csv")))
    energy = ref["parametric_energy_direction"]
    return _compare(
        row,
        {
            "rayleigh_quotient": (ref["rayleigh_quotient"], DIRECTION_TOL),
            "dirichlet_direction": (ref["rayleigh_quotient"], DIRECTION_TOL),
            "parametric_energy_direction": (energy, DIRECTION_TOL * max(1.0, abs(energy))),
            "log_scale": (ref["log_scale"], LOG_SCALE_TOL),
        },
    )


def run_er1000_lp(seed: int, n: int = 1000, p: float = 0.008, steps: int = 1000) -> Workload:
    cfg = _config(f"erdos_renyi({n}, {p}, {seed})", "label_propagation", steps, seed,
                  ["mu = 0.1", "d = 8", "tau = 0.5"])
    return Workload(
        name="run_er1000_lp",
        why="long source-coupled loop: per-step diagnostics dominate, the spectrum is ~4%",
        argv=("run", "run.cfg"),
        files={"run.cfg": cfg},
        ready=("cli", "load_config", "call"),
        ops=steps,
        gate=lp_gate,
        reference=lp_reference,
    )


# ---------------------------------------------------------------------------
# bipartite_k300: dense edge set
# ---------------------------------------------------------------------------

def bipartite_gate(child_dir: str, stdout: str, ref: object) -> list[str]:
    report = _read(os.path.join(child_dir, "gel_bipartite.txt"))
    passed = len(re.findall(r"^assertion \d+ \[PASS\]", report, re.M))
    failed = len(re.findall(r"^assertion \d+ \[FAIL\]", report, re.M))
    if passed != 3 or failed:
        return [f"expected 3 [PASS] assertions, got {passed} passed and {failed} failed"]
    return []


def bipartite_k300(seed: int, a: int = 300, steps: int = 80) -> Workload:
    return Workload(
        name="bipartite_k300",
        why="dense K_{a,a} (m = n^2/4): edge-count costs such as hashing the graph dominate",
        argv=("bipartite", str(a), str(a), "--seed", str(seed), "--steps", str(steps)),
        files={},
        ready=("cli", "preset_bipartite_demo", "call"),
        ops=2 * steps,
        gate=bipartite_gate,
    )


# ---------------------------------------------------------------------------
# suite: the verification battery
# ---------------------------------------------------------------------------

_SUITE_TOTAL = re.compile(r"^(\d+) checks: (\d+) passed, (\d+) failed$", re.M)


def suite_checks(stdout: str) -> int | None:
    """Number of checks ``gel suite`` reports as run, or None if unparseable."""
    found = _SUITE_TOTAL.findall(stdout)
    return int(found[-1][0]) if found else None


def suite_gate(child_dir: str, stdout: str, ref: object) -> list[str]:
    found = _SUITE_TOTAL.findall(stdout)
    if not found:
        return ["suite printed no summary line"]
    total, passed, failed = (int(x) for x in found[-1])
    lines = len(re.findall(r"^\[PASS\] ", stdout, re.M))
    if failed or passed != total or lines != total or total < SUITE_MIN_CHECKS:
        return [f"suite summary {total}/{passed}/{failed} with {lines} [PASS] lines"]
    return []


def suite(seed: int) -> Workload:
    # The battery's seeds are the program's own; ``seed`` changes nothing.
    return Workload(
        name="suite",
        why="thousands of tiny calls: per-call Python overhead dominates, BLAS does little",
        argv=("suite", "--witness-dir", "."),
        files={},
        ready=("verify", "default_suite", "return"),
        ops=None,
        gate=suite_gate,
    )


WORKLOADS = {
    "run_er2000_hfd": run_er2000_hfd,
    "run_er1000_lp": run_er1000_lp,
    "bipartite_k300": bipartite_k300,
    "suite": suite,
}
