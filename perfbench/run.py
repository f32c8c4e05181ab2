"""Benchmark of gel's command-line verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation runs one ``gel`` verb in a
fresh child interpreter, one at a time (a closed loop with one client), with
BLAS limited to the cores this process may use.  Children are started while
the next one is expected to finish within ``--seconds``; the first is always
run.  After the timed loop every child's output goes through the workload's
gate, and the last line printed is the JSON result.

``--trace 0`` times the verb from outside and reports the end-to-end
metrics.  ``--trace 1`` alternates plain and traced children and reports the
per-layer metrics of the traced ones (medians over them) plus the tracing
overhead.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
#: A child still running this long after the timed loop began is killed
#: (and counted as failed), so that a run with its gate ends within 180 s.
CHILD_TIMEOUT_S = 160.0

#: End-to-end metrics (untraced children): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced children): name -> (unit, better).
PER_LAYER = {
    "gel.import_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "graphs.build_s": ("s", "lower"),
    "graphs.operator_s": ("s", "lower"),
    "graphs.operator_calls": ("count", "lower"),
    "graphs.cache_hit_ratio": ("ratio", "higher"),
    "graphs.spectrum_s": ("s", "lower"),
    "graphs.spectrum_calls": ("count", "lower"),
    "graphs.checks_s": ("s", "lower"),
    "energy.dirichlet_s": ("s", "lower"),
    "energy.dirichlet_calls": ("count", "lower"),
    "energy.parametric_s": ("s", "lower"),
    "energy.parametric_calls": ("count", "lower"),
    "energy.calls_per_step": ("count", "lower"),
    "dynamics.step_s": ("s", "lower"),
    "dynamics.steps": ("count", "higher"),
    "dynamics.step_ms_p50": ("ms", "lower"),
    "dynamics.step_ms_tail": ("ms", "lower"),
    "dynamics.trajectory_s": ("s", "lower"),
    "dynamics.overhead_ratio": ("ratio", "lower"),
    "dynamics.step_flops": ("flop", "lower"),
    "dynamics.step_bytes": ("B", "lower"),
    "dynamics.step_flops_per_byte": ("flop/B", "higher"),
    "dynamics.step_gflops": ("Gflop/s", "higher"),
    "spectral.classify_s": ("s", "lower"),
    "spectral.profile_s": ("s", "lower"),
    "spectral.closed_form_s": ("s", "lower"),
    "verify.check_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "verify.check_ms_p50": ("ms", "lower"),
    "verify.check_ms_tail": ("ms", "lower"),
    "verify.worst_margin": ("ratio", "lower"),
    "cli.csv_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "plotting.svg_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in spans.LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Files a child writes for the benchmark itself, not as the verb's output.
_BOOKKEEPING = {"child.json", "spans.tsv", "stdout.txt", "stderr.txt"}


@dataclass
class Child:
    """Outcome of one child process."""

    directory: str
    traced: bool
    rc: int
    spawn: float
    exit: float
    maxrss_kb: int
    info: dict | None
    stdout: str
    failures: list[str] = field(default_factory=list)

    @property
    def timed(self) -> bool:
        return self.info is not None and self.info.get("ready") is not None

    @property
    def setup_s(self) -> float:
        return self.info["ready"] - self.spawn

    @property
    def wall_s(self) -> float:
        return self.info["end"] - self.spawn

    def output_bytes(self, inputs) -> int:
        names = set(os.listdir(self.directory)) - _BOOKKEEPING - set(inputs)
        size = sum(os.path.getsize(os.path.join(self.directory, n)) for n in names)
        return size + len(self.stdout.encode())


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GEL_SEED", "PYTHONOPTIMIZE", "PYTHONPATH")}
    env.update({var: BLAS_THREADS for var in _THREAD_VARS})
    return env


def run_child(workload: workloads.Workload, directory: str, traced: bool,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one verb in a fresh interpreter and wait for it to end."""
    os.makedirs(directory)
    for name, text in workload.files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    info_path = os.path.join(directory, "child.json")
    cmd = [sys.executable, CHILD, ROOT, info_path, "1" if traced else "0",
           *workload.ready, "--", *workload.argv]
    with open(os.path.join(directory, "stdout.txt"), "w") as out, \
            open(os.path.join(directory, "stderr.txt"), "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=directory, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: do not leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exit_time = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    info = None
    if os.path.exists(info_path):
        with open(info_path) as fh:
            info = json.load(fh)
    with open(os.path.join(directory, "stdout.txt")) as fh:
        stdout = fh.read()
    return Child(directory, traced, proc.returncode, spawn, exit_time,
                 usage.ru_maxrss, info, stdout)


def warm_up() -> None:
    """Import gel once, untimed, so byte-code compilation and a cold page
    cache do not land on the first timed child."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import gel.cli"
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=False,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def measure(workload: workloads.Workload, seconds: float, trace: bool,
            work_dir: str) -> list[Child]:
    """Run children one at a time until the next would end past the
    deadline; with ``trace``, plain and traced children alternate."""
    kinds = (False, True) if trace else (False,)
    durations: dict[bool, list[float]] = {kind: [] for kind in kinds}
    children: list[Child] = []
    start = time.monotonic()
    deadline = start + seconds
    while True:
        traced = kinds[len(children) % len(kinds)]
        if len(children) >= len(kinds):
            expected = spans.median(durations[traced])
            if time.monotonic() + expected > deadline:
                break
        timeout = max(1.0, start + CHILD_TIMEOUT_S - time.monotonic())
        child = run_child(workload, os.path.join(work_dir, f"c{len(children):03d}"), traced,
                          timeout)
        durations[traced].append(child.exit - child.spawn)
        children.append(child)
    return children


def gate(workload: workloads.Workload, children: list[Child]) -> None:
    """Record each child's failures: a non-zero exit, a missing timing
    record, or output that differs from the workload's reference."""
    try:
        reference = workload.reference(children[0].directory)
    except Exception:  # the reference needs the inputs gel wrote; report, count as failed
        traceback.print_exc()
        for child in children:
            child.failures.append("reference could not be computed")
        return
    for child in children:
        if child.rc != 0:
            child.failures.append(f"exit code {child.rc}")
            continue
        if not child.timed:
            child.failures.append("no set-up marker or timing record")
            continue
        try:
            child.failures += workload.gate(child.directory, child.stdout, reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            child.failures.append(f"output unreadable: {exc!r}")


def ops(workload: workloads.Workload, child: Child) -> int:
    if workload.ops is not None:
        return workload.ops
    return workloads.suite_checks(child.stdout) or 0


def end_to_end(workload: workloads.Workload, plain: list[Child]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for c in plain:
        if c.failures:
            continue
        samples["setup_s"].append(c.setup_s)
        samples["wall_s"].append(c.wall_s)
        samples["ops_per_s"].append(ops(workload, c) / (c.wall_s - c.setup_s))
        samples["peak_rss_mb"].append(c.maxrss_kb / 1024.0)
    return samples


def per_layer(workload: workloads.Workload, children: list[Child]) -> dict[str, float]:
    traced = [c for c in children if c.traced and not c.failures]
    plain = [c for c in children if not c.traced and not c.failures]
    rows = []
    for c in traced:
        with open(os.path.join(c.directory, "spans.tsv")) as fh:
            span_list = spans.read_spans(fh.read())
        row = spans.layer_metrics(span_list, c.info)
        row["cli.output_bytes"] = c.output_bytes(workload.files)
        rows.append(row)
    out = {name: spans.median([r[name] for r in rows]) for name in PER_LAYER
           if name != "trace.overhead_frac"}
    base = spans.median([c.wall_s for c in plain])
    out["trace.overhead_frac"] = (
        (spans.median([c.wall_s for c in traced]) - base) / base if base else 0.0
    )
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        return None
    return None


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gel")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, timeout=30)
    return result.stdout.strip() or None


def environment(seed: int, children: list[Child]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    debug = {c.info["debug"] for c in children if c.info is not None}
    return {
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "asserts": sorted(debug),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _summary_line(name: str, unit: str, values: list[float]) -> str:
    t = spans.tail(values)
    tail = f"{t:.6g}" if t is not None else "n/a (n<11)"
    return (f"  {name:<22} median {spans.median(values):<12.6g} tail {tail:<12} "
            f"max {max(values):<12.6g} n={len(values)}  [{unit}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gel", "__init__.py")):
        print(f"perfbench: no gel sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a gel checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work_dir = os.path.join(WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        warm_up()
        children = measure(workload, args.seconds, bool(args.trace), work_dir)
        gate(workload, children)
        result = report(workload, args, children)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(workload: workloads.Workload, args, children: list[Child]) -> dict:
    """Print the human-readable record and return the JSON result."""
    print("env " + json.dumps(environment(args.seed, children)))
    print(f"workload {workload.name}: {workload.why}")
    for k, c in enumerate(children):
        times = (f"setup {c.setup_s:.4f} s  wall {c.wall_s:.4f} s" if c.timed
                 else "no timing record")
        status = "ok" if not c.failures else "FAILED: " + "; ".join(c.failures)
        print(f"  child {k:3d} {'traced' if c.traced else 'plain ':6} rc={c.rc} {times}  "
              f"rss {c.maxrss_kb / 1024:.1f} MB  {status}")
        if c.failures:
            with open(os.path.join(c.directory, "stderr.txt")) as fh:
                sys.stdout.write("".join("    | " + ln for ln in fh.readlines()[-15:]))
    failed = sum(1 for c in children if c.failures)
    plain = [c for c in children if not c.traced]
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in per_layer(workload, children).items()}
        for name, m in metrics.items():
            print(f"  {name:<30} {m['value']:<14.6g} [{m['unit']}]")
    else:
        samples = end_to_end(workload, plain)
        metrics = {}
        for name, unit in END_TO_END.items():
            if samples[name]:
                print(_summary_line(name, unit, samples[name]))
                metrics[name] = {"value": spans.median(samples[name]), "unit": unit}
    print(f"  fail_frac {failed}/{len(children)}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
