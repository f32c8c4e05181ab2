"""Command-line entry point: configured runs, the bipartite demo, the
verification battery, and witness replay.

Exit codes: 0 success, 1 failed checks/assertions, 2 parse errors,
3 validation/configuration errors, 4 numeric errors, 5 I/O errors.
Identical config + seed produces byte-identical CSV and report output;
the environment variable ``GEL_SEED`` overrides the configured seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import plotting, verify
from .config import ExperimentConfig, load_config
from .dynamics import ModelSpec, Trajectory, run_trajectory
from .energy import WeightSet
from .errors import (
    ConfigurationError,
    GelError,
    GelIOError,
    ValidationError,
)
from .graphs import Graph, complete_bipartite, laplacian_spectrum
from .spectral import _PROFILES, RegimeReport, asymptotic_profile, classify_regime
from .verify import _fmt

CSV_HEADER = (
    "step,time,rayleigh_quotient,dirichlet_direction,"
    "parametric_energy_direction,log_scale"
)


def trajectory_csv(traj: Trajectory) -> str:
    """Render per-step diagnostics as CSV (17 significant digits)."""
    rows = [CSV_HEADER]
    for k in range(traj.steps.size):
        rows.append(
            f"{int(traj.steps[k])},{_fmt(traj.times[k])},"
            f"{_fmt(traj.rayleigh[k])},{_fmt(traj.dirichlet[k])},"
            f"{_fmt(traj.energy[k])},{_fmt(traj.log_scale[k])}"
        )
    return "\n".join(rows) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GelIOError(f"cannot write {path!r}: {exc}") from None


def _regime_lines(report: RegimeReport) -> list[str]:
    out = [
        "regime classification:",
        f"  regime = {report.regime}",
        f"  rho_minus = {_fmt(report.rho_minus)}",
        f"  mu_top = {_fmt(report.mu_top)}",
        f"  mu_bottom = {_fmt(report.mu_bottom)}",
        f"  lambda_max = {_fmt(report.lambda_max)}",
        f"  step bound on |mu_bottom| = {_fmt(report.step_bound)}",
    ]
    if report.regime == "HFD":
        out += [
            f"  delta_hfd = {_fmt(report.delta_hfd)}",
            f"  epsilon_hfd = {_fmt(report.epsilon_hfd)}",
            f"  rate_ratio = {_fmt(report.rate_ratio)}",
        ]
    return out


def _profile_lines(
    g: Graph, cfg_spec: ModelSpec, F0: np.ndarray, traj: Trajectory
) -> list[str]:
    """Terminal-prediction agreement metrics, or the reason none apply."""
    if cfg_spec.variant not in _PROFILES:
        return []
    try:
        profile = asymptotic_profile(g, cfg_spec, F0)
    except GelError as exc:
        # e.g. bipartite graph for the discarding update, or a boundary /
        # step-size-violated weight spectrum: report the obstruction in
        # place of a terminal-state claim.
        return ["terminal prediction unavailable:", f"  {exc}"]
    out = [
        f"terminal prediction ({profile.label}):",
        f"  predicted per-step growth = {_fmt(profile.growth)}",
    ]
    if traj.steps.size >= 2:
        measured = float(np.exp(traj.log_scale[-1] - traj.log_scale[-2]))
        out.append(f"  measured last-step growth = {_fmt(measured)}")
    final_dir = traj.final.direction
    s = float(np.sign(np.sum(final_dir * profile.direction))) or 1.0
    dev = float(np.abs(final_dir - s * profile.direction).max())
    out.append(f"  direction deviation (sign-aligned, max abs) = {_fmt(dev)}")
    if profile.terminal is not None:
        raw = traj.final.features()
        term_dev = float(np.abs(raw - profile.terminal).max())
        out.append(f"  terminal-state deviation (max abs) = {_fmt(term_dev)}")
    return out


def run_experiment(cfg: ExperimentConfig, seed_override: int | None = None) -> int:
    """Run one configured experiment and write CSV, SVG, and report."""
    F0 = cfg.initial_features(seed_override)
    traj = run_trajectory(cfg.spec, cfg.graph, F0, cfg.steps)
    lam_max = float(laplacian_spectrum(cfg.graph).eigenvalues[-1])

    _write_text(cfg.csv_path, trajectory_csv(traj))
    svg = plotting.line_plot(
        [plotting.Series(cfg.spec.variant, traj.rayleigh)],
        title=f"{cfg.graph_label}  {cfg.spec.variant}  tau={cfg.spec.tau:g}",
        ylabel="rayleigh quotient",
        reference=lam_max,
        reference_label="lambda_max",
    )
    _write_text(cfg.svg_path, svg)

    lines = [
        "gel experiment report",
        "=====================",
        f"graph = {cfg.graph_label}  (n = {cfg.graph.n}, edges = {len(cfg.graph.edges)})",
        f"variant = {cfg.spec.variant}",
        f"tau = {_fmt(cfg.spec.tau)}",
        f"steps = {cfg.steps}",
        f"d = {cfg.d}",
        f"init = {cfg.init_kind}({cfg.init_arg})"
        + ("" if seed_override is None else f"  [seed overridden: {seed_override}]"),
        f"lambda_max = {_fmt(lam_max)}",
        "",
        "final state:",
        f"  rayleigh_quotient = {_fmt(traj.rayleigh[-1])}",
        f"  dirichlet(direction) = {_fmt(traj.dirichlet[-1])}",
        f"  log_scale = {_fmt(traj.log_scale[-1])}",
        "",
    ]
    if cfg.spec.variant in ("gradient_flow", "gradient_flow_nonlinear"):
        try:
            lines += _regime_lines(classify_regime(cfg.graph, cfg.spec.weights.W, cfg.spec.tau))
        except GelError as exc:
            lines += ["regime classification unavailable:", f"  {exc}"]
        lines.append("")
    profile = _profile_lines(cfg.graph, cfg.spec, F0, traj)
    if profile:
        lines += profile
        lines.append("")
    _write_text(cfg.report_path, "\n".join(lines))
    print(f"wrote {cfg.csv_path}, {cfg.svg_path}, {cfg.report_path}")
    return 0


def _sign_separation(direction: np.ndarray, a: int) -> tuple[bool, str]:
    """Check that a 1-channel direction is sign-constant per part, opposite
    across parts, of the order-(first a nodes | rest) bipartition."""
    v = direction[:, 0]
    if float(np.abs(v).min()) == 0.0:
        return False, "terminal direction has a zero entry"
    left, right = np.sign(v[:a]), np.sign(v[a:])
    if not (np.all(left == left[0]) and np.all(right == right[0])):
        return False, "sign not constant within a part"
    if left[0] == right[0]:
        return False, "parts carry the same sign"
    return True, "parts sign-separated"


def preset_bipartite_demo(
    a: int,
    b: int,
    tau: float = 0.5,
    steps: int = 80,
    seed: int = 1,
    w_entry: float = -1.0,
    svg_path: str = "gel_bipartite.svg",
    report_path: str = "gel_bipartite.txt",
) -> int:
    """Sharpening vs smoothing on K_{a,b}: one-channel gradient flow with
    W = [[w_entry]] against plain diffusion, from the same random init.

    With the default ``w_entry = -1`` the gradient flow is high-frequency
    dominant and its terminal direction separates the two parts by sign,
    while diffusion collapses toward the degree profile.  A weight choice
    outside that regime is flagged in the report and the three assertions
    are skipped (exit 0); an assertion failure exits 1 naming the clause.
    """
    if a < 2 or b < 2:
        raise ValidationError(f"both parts need >= 2 nodes, got ({a}, {b})")
    g = complete_bipartite(a, b)
    F0 = np.random.default_rng(seed).standard_normal((g.n, 1))
    lam_max = float(laplacian_spectrum(g).eigenvalues[-1])

    spec_gf = ModelSpec("gradient_flow", weights=WeightSet(W=[[w_entry]]), tau=tau)
    spec_heat = ModelSpec("heat", tau=tau)
    regime = classify_regime(g, spec_gf.weights.W, tau)
    traj_gf = run_trajectory(spec_gf, g, F0, steps)
    traj_heat = run_trajectory(spec_heat, g, F0, steps)

    svg = plotting.line_plot(
        [
            plotting.Series("gradient flow", traj_gf.rayleigh),
            plotting.Series("heat", traj_heat.rayleigh),
        ],
        title=f"complete_bipartite({a},{b})  tau={tau:g}  W=[[{w_entry:g}]]",
        ylabel="rayleigh quotient",
        reference=lam_max,
        reference_label="lambda_max",
    )
    _write_text(svg_path, svg)

    lines = [
        "bipartite demo report",
        "=====================",
        f"graph = complete_bipartite({a},{b})  (n = {g.n})",
        f"tau = {_fmt(tau)}, steps = {steps}, seed = {seed}, W = [[{_fmt(w_entry)}]]",
        "",
    ]
    lines += _regime_lines(regime)
    lines.append("")

    failures: list[str] = []
    if regime.regime != "HFD":
        lines += [
            f"note: weight spectrum is not high-frequency dominant "
            f"(regime {regime.regime}); the separation assertions do not "
            "apply and were skipped",
            "",
        ]
    else:
        checks = []
        dev_gf = abs(float(traj_gf.rayleigh[-1]) - lam_max)
        checks.append(
            (
                "gradient-flow rayleigh quotient reaches lambda_max within 1e-6",
                dev_gf <= 1e-6,
                f"deviation = {_fmt(dev_gf)}",
            )
        )
        rq_heat = float(traj_heat.rayleigh[-1])
        checks.append(
            (
                "heat rayleigh quotient reaches 0 within 1e-6",
                abs(rq_heat) <= 1e-6,
                f"value = {_fmt(rq_heat)}",
            )
        )
        ok, detail = _sign_separation(traj_gf.final.direction, a)
        checks.append(
            ("terminal direction sign-separates the two parts", ok, detail)
        )
        for idx, (clause, ok, detail) in enumerate(checks, start=1):
            status = "PASS" if ok else "FAIL"
            lines.append(f"assertion {idx} [{status}] {clause}  ({detail})")
            if not ok:
                failures.append(f"assertion {idx}: {clause} ({detail})")
        lines.append("")

    _write_text(report_path, "\n".join(lines))
    print(f"wrote {svg_path}, {report_path}")
    for failure in failures:
        print(f"gel: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _check_line(rep: verify.CheckReport) -> str:
    status = "PASS" if rep.passed else "FAIL"
    return (
        f"[{status}] {rep.name}  max_error={rep.max_error:.3e}  "
        f"tolerance={rep.tolerance:.1e}"
    )


def run_suite(witness_dir: str = ".") -> int:
    """Run every check in the battery; write a witness file per failure."""
    failed = 0
    total = 0
    for witness in verify.default_suite():
        rep = verify.run_check(witness)
        total += 1
        print(_check_line(rep))
        if not rep.passed:
            failed += 1
            path = os.path.join(witness_dir, f"witness_{rep.name}.txt")
            _write_text(path, rep.witness)
            print(f"  witness written to {path}")
    print(f"{total} checks: {total - failed} passed, {failed} failed")
    return 1 if failed else 0


def replay_witness(path: str) -> int:
    """Re-run the check instance a witness file describes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GelIOError(f"cannot read witness {path!r}: {exc}") from None
    rep = verify.run_check(verify.parse_witness(text))
    print(_check_line(rep))
    return 0 if rep.passed else 1


def _env_seed() -> int | None:
    raw = os.environ.get("GEL_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"GEL_SEED must be an integer, got {raw!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    return run_experiment(load_config(args.config), seed_override=_env_seed())


def _cmd_bipartite(args: argparse.Namespace) -> int:
    seed = _env_seed()
    return preset_bipartite_demo(
        args.a,
        args.b,
        tau=args.tau,
        steps=args.steps,
        seed=args.seed if seed is None else seed,
        w_entry=args.w,
        svg_path=args.svg,
        report_path=args.report,
    )


def _cmd_suite(args: argparse.Namespace) -> int:
    return run_suite(witness_dir=args.witness_dir)


def _cmd_replay(args: argparse.Namespace) -> int:
    return replay_witness(args.witness)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gel",
        description=(
            "Graph-convolution energy laboratory: run configured feature "
            "flows, reproduce the bipartite sharpening demo, and verify the "
            "spectral predictions."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_bip = sub.add_parser(
        "bipartite", help="gradient flow vs heat on a complete bipartite graph"
    )
    p_bip.add_argument("a", type=int, help="size of the first part (>= 2)")
    p_bip.add_argument("b", type=int, help="size of the second part (>= 2)")
    p_bip.add_argument("--tau", type=float, default=0.5, help="step size")
    p_bip.add_argument("--steps", type=int, default=80, help="number of steps")
    p_bip.add_argument("--seed", type=int, default=1, help="init seed")
    p_bip.add_argument(
        "--w",
        type=float,
        default=-1.0,
        help="single channel weight (choose >= 0 to leave the sharpening regime)",
    )
    p_bip.add_argument("--svg", default="gel_bipartite.svg", help="SVG output path")
    p_bip.add_argument(
        "--report", default="gel_bipartite.txt", help="report output path"
    )
    p_bip.set_defaults(func=_cmd_bipartite)

    p_suite = sub.add_parser("suite", help="run the verification battery")
    p_suite.add_argument(
        "--witness-dir",
        default=".",
        help="directory for witness files of failing checks",
    )
    p_suite.set_defaults(func=_cmd_suite)

    p_replay = sub.add_parser("replay", help="re-run a recorded witness file")
    p_replay.add_argument("witness", help="path to a witness file")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GelError as exc:
        print(f"gel: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"gel: i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
