"""Tests of the benchmark itself: tracing, gates and tiny runs of every
workload.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from conftest import BENCH, ROOT


#: Sizes small enough for a smoke run; the LP run still converges and the
#: bipartite run still reaches its three assertions.
TINY = {
    "run_er2000_hfd": dict(n=60, p=0.1, steps=20),
    "run_er1000_lp": dict(n=60, p=0.1, steps=600),
    "bipartite_k300": dict(a=6, steps=80),
    "suite": {},
}


def tiny(name: str, seed: int = 5) -> workloads.Workload:
    return workloads.WORKLOADS[name](seed, **TINY[name])


@pytest.fixture(scope="module")
def hfd_children(tmp_path_factory):
    """One plain and one traced child of the tiny gradient-flow workload."""
    base = tmp_path_factory.mktemp("hfd")
    w = tiny("run_er2000_hfd")
    plain = run.run_child(w, str(base / "plain"), traced=False)
    traced = run.run_child(w, str(base / "traced"), traced=True)
    return w, plain, traced


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

_PATCH_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import gel, gel.cli
from spans import Tracer
tracer = Tracer()
tracer.install()
names = {{
    "gel.dynamics.dirichlet_energy": gel.dynamics.dirichlet_energy,
    "gel.energy.dirichlet_energy": gel.energy.dirichlet_energy,
    "gel.verify.dirichlet_energy": gel.verify.dirichlet_energy,
    "gel.dirichlet_energy": gel.dirichlet_energy,
    "gel.spectral.laplacian_spectrum": gel.spectral.laplacian_spectrum,
    "gel.config.erdos_renyi": gel.config.erdos_renyi,
    "gel.cli.load_config": gel.cli.load_config,
    "gel.cli.run_experiment": gel.cli.run_experiment,
    "gel.graphs.Graph.__post_init__": gel.graphs.Graph.__post_init__,
}}
originals = {{id(f) for f in tracer.originals.values()}}
left = sorted(
    f"{{mod}}.{{attr}}"
    for mod, m in sys.modules.items() if mod == "gel" or mod.startswith("gel.")
    for attr, v in vars(m).items() if id(v) in originals
)
g = gel.cycle(6)
gel.rayleigh_quotient(g, [[1.0], [0.0], [0.0], [0.0], [0.0], [0.0]])
spans = list(zip(tracer.names, tracer.parents))
print(json.dumps({{
    "spans": {{k: getattr(v, "__perfbench_span__", None) for k, v in names.items()}},
    "left": left,
    "recorded": spans,
    "cache_info": gel.graphs.normalized_adjacency.cache_info().misses,
}}))
"""


def test_cross_module_names_are_wrapped_after_patching():
    code = _PATCH_PROBE.format(src=os.path.join(ROOT, "src"), bench=BENCH)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    probe = json.loads(out.stdout)
    assert probe["spans"] == {
        "gel.dynamics.dirichlet_energy": "energy.dirichlet_energy",
        "gel.energy.dirichlet_energy": "energy.dirichlet_energy",
        "gel.verify.dirichlet_energy": "energy.dirichlet_energy",
        "gel.dirichlet_energy": "energy.dirichlet_energy",
        "gel.spectral.laplacian_spectrum": "graphs.laplacian_spectrum",
        "gel.config.erdos_renyi": "graphs.erdos_renyi",
        "gel.cli.load_config": "config.load_config",
        "gel.cli.run_experiment": "cli.run_experiment",
        "gel.graphs.Graph.__post_init__": "graphs.Graph.__post_init__",
    }
    assert probe["left"] == []
    names = [name for name, _ in probe["recorded"]]
    assert "energy.rayleigh_quotient" in names and "energy.dirichlet_energy" in names
    parent = dict(probe["recorded"])
    rq = names.index("energy.rayleigh_quotient")
    assert parent["energy.dirichlet_energy"] == rq  # nested call has its caller as parent
    assert probe["cache_info"] >= 1  # cache_info still reachable through the wrapper


def test_traced_and_plain_runs_write_identical_outputs(hfd_children):
    _, plain, traced = hfd_children
    assert plain.rc == 0 and traced.rc == 0
    for name in ("run.csv", "run.txt", "run.svg"):
        assert _read(os.path.join(plain.directory, name)) == _read(
            os.path.join(traced.directory, name)
        ), name
    assert os.path.exists(os.path.join(traced.directory, "spans.tsv"))
    assert not os.path.exists(os.path.join(plain.directory, "spans.tsv"))


def test_self_times_subtract_children_and_clip_to_window():
    span_list = [
        ("cli.run_experiment", 0.0, 10.0, -1),
        ("dynamics.run_trajectory", 1.0, 7.0, 0),
        ("dynamics.step_model", 2.0, 3.0, 1),
        ("energy.dirichlet_energy", 4.0, 6.0, 1),
    ]
    assert spans.self_times(span_list) == [4.0, 3.0, 1.0, 2.0]
    clipped = spans.self_times(span_list, (5.0, 10.0))
    assert clipped == [3.0, 1.0, 0.0, 1.0]
    assert sum(clipped) == 5.0


def test_tail_needs_ten_samples_beyond_it():
    assert spans.tail(range(10)) is None
    assert spans.tail(range(11)) == 0
    assert spans.tail(range(100)) == 89


def test_traced_child_gives_every_per_layer_metric(hfd_children):
    w, plain, traced = hfd_children
    metrics = run.per_layer(w, [plain, traced])
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["dynamics.steps"] == TINY["run_er2000_hfd"]["steps"]
    assert metrics["trace.coverage_frac"] >= 0.9
    assert metrics["graphs.spectrum_calls"] >= 1
    assert 0.0 < metrics["graphs.cache_hit_ratio"] <= 1.0
    assert metrics["cli.output_bytes"] > 0


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _perturb_last_row(directory: str, column: str, delta: float) -> None:
    path = os.path.join(directory, "run.csv")
    lines = _read(path).decode().splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    k = header.index(column)
    row[k] = repr(float(row[k]) + delta)
    lines[-1] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "column, delta",
    [("rayleigh_quotient", 1e-8), ("log_scale", 1e-6), ("dirichlet_direction", -1e-8)],
)
def test_gate_rejects_a_perturbed_final_row(hfd_children, tmp_path, column, delta):
    w, plain, _ = hfd_children
    copy = str(tmp_path / "copy")
    shutil.copytree(plain.directory, copy)
    ref = w.reference(copy)
    assert w.gate(copy, plain.stdout, ref) == []
    _perturb_last_row(copy, column, delta)
    failures = w.gate(copy, plain.stdout, ref)
    assert len(failures) == 1 and failures[0].startswith(column)


def test_gate_rejects_a_perturbed_fixed_point(tmp_path):
    w = tiny("run_er1000_lp")
    child = run.run_child(w, str(tmp_path / "c"), traced=False)
    ref = w.reference(child.directory)
    assert w.gate(child.directory, child.stdout, ref) == []
    _perturb_last_row(child.directory, "parametric_energy_direction", 1e-6)
    assert len(w.gate(child.directory, child.stdout, ref)) == 1


def test_gate_marks_nonzero_exit_failed(tmp_path):
    w = tiny("bipartite_k300")
    bad = run.run_child(w, str(tmp_path / "bad"), traced=False)
    bad.rc = 3
    good = run.run_child(w, str(tmp_path / "good"), traced=False)
    run.gate(w, [good, bad])
    assert good.failures == []
    assert bad.failures == ["exit code 3"]


def test_gate_marks_missing_output_failed(hfd_children, tmp_path):
    w, plain, _ = hfd_children
    copy = run.Child(**{**vars(plain), "directory": str(tmp_path / "copy"), "failures": []})
    shutil.copytree(plain.directory, copy.directory)
    os.remove(os.path.join(copy.directory, "run.csv"))
    run.gate(w, [copy])
    assert len(copy.failures) == 1 and copy.failures[0].startswith("output unreadable")


def test_suite_gate_reads_the_summary():
    ok = "[PASS] a  x\n" * 45 + "45 checks: 45 passed, 0 failed\n"
    assert workloads.suite_gate("", ok, None) == []
    bad = "[PASS] a  x\n" * 44 + "[FAIL] b  y\n45 checks: 44 passed, 1 failed\n"
    assert workloads.suite_gate("", bad, None) != []
    assert workloads.suite_gate("", "", None) != []


# ---------------------------------------------------------------------------
# smoke runs and the benchmark contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload_completes(name, tmp_path, capsys):
    w = tiny(name)
    children = run.measure(w, 0.0, trace=False, work_dir=str(tmp_path))
    run.gate(w, children)
    args = type("Args", (), {"seed": 5, "trace": 0})()
    result = run.report(w, args, children)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
