import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gel.cli
import gel.energy
import gel.graphs
import gel.spectral
import gel.verify as verify
from gel.cli import CSV_HEADER, main, preset_bipartite_demo, trajectory_csv
from gel.config import parse_config
from gel.dynamics import ModelSpec, run_trajectory
from gel.energy import WeightSet
from gel.graphs import _ends_of, complete_bipartite, extreme_spectrum, laplacian_spectrum

HFD_CFG = """\
graph = complete_bipartite(5,5)
variant = gradient_flow
W = [[-1.0]]
tau = 0.5
steps = 60
init = random_normal(7)
csv = run.csv
svg = run.svg
report = run.txt
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GEL_SEED", raising=False)
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


# --- run --------------------------------------------------------------------

def test_run_hfd_contract(workdir):
    cfg = write(workdir / "run.cfg", HFD_CFG)
    assert main(["run", cfg]) == 0

    rows = (workdir / "run.csv").read_text().splitlines()
    assert rows[0] == CSV_HEADER
    assert len(rows) == 62  # header + steps 0..60
    final_rq = float(rows[-1].split(",")[2])
    assert abs(final_rq - 2.0) <= 1e-6

    report = (workdir / "run.txt").read_text()
    assert "regime = HFD" in report

    svg = (workdir / "run.svg").read_text()
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 800 500"' in svg
    assert "polyline" in svg and "lambda_max" in svg


def test_run_is_byte_deterministic(workdir):
    cfg = write(workdir / "run.cfg", HFD_CFG)
    assert main(["run", cfg]) == 0
    first = [(workdir / f"run.{ext}").read_bytes() for ext in ("csv", "svg", "txt")]
    assert main(["run", cfg]) == 0
    second = [(workdir / f"run.{ext}").read_bytes() for ext in ("csv", "svg", "txt")]
    assert first == second


def _gel(args, cwd, optimize):
    """Run ``python [-O] -m gel.cli <args>`` in a fresh interpreter, with
    RuntimeWarning an error as in this process (pytest's filter stops here)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("GEL_SEED", None)
    cmd = [sys.executable, *(["-O"] if optimize else []), "-W", "error::RuntimeWarning",
           "-m", "gel.cli", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_suite_passes_with_asserts_off(tmp_path):
    done = _gel(["suite"], tmp_path, optimize=True)
    assert done.returncode == 0, done.stderr
    summary = re.search(r"^(\d+) checks: (\d+) passed, 0 failed$", done.stdout, re.M)
    assert summary and summary[1] == summary[2], done.stdout


def test_suite_stdout_is_identical_with_asserts_off(tmp_path):
    # gel asserts nothing, so python -O may change no printed number
    outs = [_gel(["suite"], tmp_path, optimize) for optimize in (False, True)]
    assert all(done.returncode == 0 for done in outs), [done.stderr for done in outs]
    assert outs[0].stdout == outs[1].stdout


@pytest.mark.parametrize(
    "config",
    [
        HFD_CFG.replace("W = [[-1.0]]", "W = [[-1.0]]\nWtilde = [[0.3]]"),
        HFD_CFG.replace("variant = gradient_flow", "variant = label_propagation")
        .replace("W = [[-1.0]]", "mu = 0.1\nd = 2"),
    ],
    ids=["gradient_flow-source", "label_propagation"],
)
def test_run_csv_is_identical_with_asserts_off(tmp_path, config):
    # gel asserts nothing, so python -O may change nothing in the outputs
    csvs = []
    for optimize in (False, True):
        (tmp_path / "run.cfg").write_text(config)
        done = _gel(["run", "run.cfg"], tmp_path, optimize)
        assert done.returncode == 0, done.stderr
        csvs.append((tmp_path / "run.csv").read_bytes())
    assert csvs[0] == csvs[1]


#: Heat on K_{5,5}: its inner modes halve each step, so the first ~50 states
#: are read off the step's product and the states at the rounding floor
#: next to the kernel fall back to the edge form.
BOTH_FORMS_CFG = HFD_CFG.replace("variant = gradient_flow", "variant = heat").replace(
    "W = [[-1.0]]", "d = 2"
)


def test_run_csv_with_both_column_forms_is_identical_with_asserts_off(tmp_path, product_forms):
    cfg = parse_config(BOTH_FORMS_CFG)
    run_trajectory(cfg.spec, cfg.graph, cfg.initial_features(), cfg.steps)
    assert any(product_forms) and not all(product_forms)
    csvs = []
    for optimize in (False, True):
        (tmp_path / "run.cfg").write_text(BOTH_FORMS_CFG)
        done = _gel(["run", "run.cfg"], tmp_path, optimize)
        assert done.returncode == 0, done.stderr
        csvs.append((tmp_path / "run.csv").read_bytes())
    assert csvs[0] == csvs[1]


DIAG_CFG = """\
graph = cycle(7)
variant = diag_nonlinear
omega = [-1.0, -0.5]
sigma = relu
tau = 0.3
steps = 20
init = random_normal(3)
csv = run.csv
svg = run.svg
report = run.txt
"""


def test_diag_nonlinear_run_needs_no_W(workdir):
    # omega alone fixes d; a zero W beside it changes no byte of the outputs
    outputs = []
    for text in (DIAG_CFG, DIAG_CFG + "W = [[0, 0], [0, 0]]\n"):
        assert main(["run", write(workdir / "run.cfg", text)]) == 0
        outputs.append([(workdir / f"run.{ext}").read_bytes() for ext in ("csv", "svg", "txt")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "variant, given, message",
    [
        ("pde_gcn_d", "KtK = [[1, 0], [0, 1]]", "KtK must be 3x3, got 2x2"),
        ("cgnn", "OmegaTilde = [[1, 0], [0, 1]]", "OmegaTilde must be 3x3, got 2x2"),
        ("diag_nonlinear", "omega = [-1, -0.5]\nsigma = relu",
         "omega_diag must have length d=3, got 2"),
    ],
    ids=["KtK", "OmegaTilde", "omega"],
)
def test_run_with_a_W_of_another_size_exits_3(workdir, capsys, variant, given, message):
    # W fixes the channel count; a mismatch was a raw "shapes not aligned" traceback
    text = HFD_CFG.replace("variant = gradient_flow", f"variant = {variant}\n{given}")
    text = text.replace("W = [[-1.0]]", "W = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    assert main(["run", write(workdir / "run.cfg", text)]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_run_rejects_fewer_than_one_step_before_writing(workdir, capsys, steps):
    cfg = write(workdir / "run.cfg", HFD_CFG.replace("steps = 60", f"steps = {steps}"))
    assert main(["run", cfg]) == 3
    assert "steps must be a positive integer" in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == ["run.cfg"]


def test_run_gel_seed_override(workdir, monkeypatch):
    cfg = write(workdir / "run.cfg", HFD_CFG)
    main(["run", cfg])
    base = (workdir / "run.csv").read_text()
    monkeypatch.setenv("GEL_SEED", "99")
    assert main(["run", cfg]) == 0
    assert (workdir / "run.csv").read_text() != base
    assert "seed overridden: 99" in (workdir / "run.txt").read_text()


def test_bad_gel_seed_is_config_error(workdir, monkeypatch, capsys):
    cfg = write(workdir / "run.cfg", HFD_CFG)
    monkeypatch.setenv("GEL_SEED", "many")
    assert main(["run", cfg]) == 3
    assert "GEL_SEED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("init = random_normal(7)", "init = random_normal(-1)"),
        ("graph = complete_bipartite(5,5)", "graph = erdos_renyi(20, 0.5, -1)"),
    ],
)
def test_negative_config_seed_is_a_validation_error(workdir, capsys, old, new):
    cfg = write(workdir / "run.cfg", HFD_CFG.replace(old, new))
    assert main(["run", cfg]) == 3
    assert "must be a non-negative integer, got -1" in capsys.readouterr().err


def test_negative_gel_seed_is_a_validation_error(workdir, monkeypatch, capsys):
    cfg = write(workdir / "run.cfg", HFD_CFG)
    monkeypatch.setenv("GEL_SEED", "-3")
    assert main(["run", cfg]) == 3
    assert "got -3" in capsys.readouterr().err


def test_run_with_steps_beyond_physical_memory_exits_4(workdir, capsys):
    cfg = write(workdir / "run.cfg", HFD_CFG.replace("steps = 60", "steps = 99999999999999999999"))
    assert main(["run", cfg]) == 4
    assert "physical memory" in capsys.readouterr().err


def test_run_beyond_the_certificates_memory_exits_4_before_factoring(workdir, monkeypatch, capsys):
    # half an n x n matrix: not even the certificate's lower triangle, with
    # its diagonal, fits
    n = 200
    cfg = write(workdir / "run.cfg", HFD_CFG.replace("complete_bipartite(5,5)", f"cycle({n})")
                .replace("steps = 60", "steps = 5"))
    factored = []
    monkeypatch.setattr(gel.graphs, "_physical_memory", lambda: 8 * n * n // 2)
    monkeypatch.setattr(np.linalg, "cholesky", lambda *args: factored.append(args))
    extreme_spectrum.cache_clear()
    assert main(["run", cfg]) == 4
    assert "the certificate's lower triangle of a 200 x 200 matrix" in capsys.readouterr().err
    assert factored == []


def test_stray_memory_error_exits_4(workdir, monkeypatch, capsys):
    def exhausted(witness_dir):
        raise MemoryError("Unable to allocate 8 TiB")

    monkeypatch.setattr(gel.cli, "run_suite", exhausted)
    assert main(["suite"]) == 4
    assert "out of memory" in capsys.readouterr().err


# --- the run path reads the certified ends ---------------------------------

ER_HFD_CFG = """\
graph = erdos_renyi(400, 0.02, 7)
variant = gradient_flow
W = [[-1,0,0,0,0,0,0,0],[0,-0.5,0,0,0,0,0,0],[0,0,-0.2,0,0,0,0,0],[0,0,0,0,0,0,0,0],\
[0,0,0,0,0.05,0,0,0],[0,0,0,0,0,0.1,0,0],[0,0,0,0,0,0,0.2,0],[0,0,0,0,0,0,0,0.3]]
tau = 0.5
steps = 150
init = random_normal(7)
csv = run.csv
svg = run.svg
report = run.txt
"""

_REPORT_NUMBER = re.compile(r"^ *(.+?) = (-?[0-9.e+-]+|inf)$", re.M)


def _report_numbers(path):
    return [(key, float(value)) for key, value in _REPORT_NUMBER.findall(path.read_text())]


def _with_full_spectrum_ends(monkeypatch):
    """Make the run path read its ends off the full decomposition."""
    for module in (gel.cli, gel.spectral):
        monkeypatch.setattr(module, "extreme_spectrum", lambda g: _ends_of(laplacian_spectrum(g)))


def _assert_same_numbers(first, second, scale):
    assert [key for key, _ in first] == [key for key, _ in second]
    for (key, got), (_, want) in zip(first, second):
        assert got == want or abs(got - want) <= 1e-12 * scale(want), (key, got, want)


def test_run_reads_lambda_max_and_rates_without_a_full_decomposition(workdir, monkeypatch):
    cfg = write(workdir / "run.cfg", ER_HFD_CFG)
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    assert main(["run", cfg]) == 0
    assert laplacian_spectrum.cache_info().misses == 0
    certified, csv = _report_numbers(workdir / "run.txt"), (workdir / "run.csv").read_bytes()
    assert "regime = HFD" in (workdir / "run.txt").read_text()
    keys = {key for key, _ in certified}
    assert {"lambda_max", "rho_minus", "delta_hfd", "epsilon_hfd", "rate_ratio",
            "predicted per-step growth", "direction deviation (sign-aligned, max abs)"} <= keys

    _with_full_spectrum_ends(monkeypatch)
    assert main(["run", cfg]) == 0
    assert (workdir / "run.csv").read_bytes() == csv
    _assert_same_numbers(certified, _report_numbers(workdir / "run.txt"), abs)


def _counted_factorizations(monkeypatch) -> list[int]:
    """The order of each certificate's dense Cholesky factorization run from
    here on, with both spectrum caches emptied."""
    factored = []
    factor = gel.graphs._factor_block_rows

    def counted(rows):
        factored.append(rows[0].shape[1])  # the first block row has all the columns
        return factor(rows)

    monkeypatch.setattr(gel.graphs, "_factor_block_rows", counted)
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    return factored


def test_an_hfd_run_certifies_only_the_top_end(workdir, monkeypatch):
    factored = _counted_factorizations(monkeypatch)
    assert main(["run", write(workdir / "run.cfg", ER_HFD_CFG)]) == 0
    assert "regime = HFD" in (workdir / "run.txt").read_text()
    # lambda_max, the rates and the HFD profile never read lambda_2; the
    # eliminated independent set leaves under 3/4 of the 400 rows to factor
    assert len(factored) == 1 and factored[0] < 0.75 * 400


def test_an_lfd_profile_still_certifies_lambda_2(monkeypatch):
    g = gel.graphs.erdos_renyi(400, 0.02, 7)
    F0 = np.random.default_rng(7).normal(size=(g.n, 2))
    factored = _counted_factorizations(monkeypatch)
    # |s| = 1 at lambda = 0 reaches the tie, so the interior is read at lambda_2
    assert gel.spectral.asymptotic_profile(g, ModelSpec("heat", tau=0.5), F0).label == "LFD"
    assert len(factored) == 2 and max(factored) < 0.75 * 400


def test_the_top_of_complete_bipartite_factors_every_row(monkeypatch):
    factored = _counted_factorizations(monkeypatch)
    # the top's pivot is within rounding of 0, so no node is eliminated
    assert extreme_spectrum(gel.graphs.complete_bipartite(30, 40)).certified
    assert factored == [70]


def test_bipartite_demo_reads_the_exact_top_without_a_full_decomposition(workdir, monkeypatch):
    extreme_spectrum.cache_clear()
    laplacian_spectrum.cache_clear()
    assert preset_bipartite_demo(30, 40, seed=3) == 0
    assert laplacian_spectrum.cache_info().misses == 0
    certified = _report_numbers(workdir / "gel_bipartite.txt")
    assert ("lambda_max", 2.0) in certified

    _with_full_spectrum_ends(monkeypatch)
    assert preset_bipartite_demo(30, 40, seed=3) == 0
    # eigh's lambda_max misses 2 by roundoff, so delta_hfd = 0 here is a few
    # 1e-15 there: compare on the scale of the rates, not relatively
    _assert_same_numbers(
        certified, _report_numbers(workdir / "gel_bipartite.txt"), lambda x: max(abs(x), 1.0)
    )


def test_run_bipartite_no_residual_notes_hypothesis(workdir):
    cfg = write(
        workdir / "nr.cfg",
        HFD_CFG.replace("variant = gradient_flow", "variant = no_residual")
        .replace("W = [[-1.0]]", "W = [[1.0]]"),
    )
    assert main(["run", cfg]) == 0
    report = (workdir / "run.txt").read_text()
    assert "terminal prediction unavailable" in report
    assert "bipartite" in report
    assert "regime =" not in report


def test_run_non_bipartite_no_residual_collapses(workdir):
    cfg = write(
        workdir / "c5.cfg",
        "graph = cycle(5)\nvariant = no_residual\nW = [[2.0,0.0],[0.0,-1.0]]\n"
        "tau = 0.5\nsteps = 300\ninit = random_normal(3)\n"
        "csv = c.csv\nsvg = c.svg\nreport = c.txt\n",
    )
    assert main(["run", cfg]) == 0
    rows = (workdir / "c.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[2]) <= 1e-6


def test_run_flow_with_omega_reports_no_w_only_regime(workdir):
    # W alone says HFD, but the lambda = 0 mode of channel 1 grows 2.15x per
    # step through Omega, against 1.40x for the top-frequency mode
    cfg = write(
        workdir / "om.cfg",
        "graph = cycle(5)\nvariant = gradient_flow\nW = [[-1.0,0.0],[0.0,0.3]]\n"
        "Omega = [[0.0,0.0],[0.0,-2.0]]\ntau = 0.5\nsteps = 60\n"
        "init = random_normal(7)\ncsv = o.csv\nsvg = o.svg\nreport = o.txt\n",
    )
    assert main(["run", cfg]) == 0
    report = (workdir / "o.txt").read_text()
    assert "regime =" not in report
    assert "regime classification unavailable" in report and "Omega = 0" in report
    assert "terminal prediction (LFD):" in report
    assert float((workdir / "o.csv").read_text().splitlines()[-1].split(",")[2]) < 0.02


@pytest.mark.parametrize(
    "params",
    ["variant = heat\nd = 2", "variant = pde_gcn_d\nKtK = [[1.0,0.2],[0.2,0.5]]"],
    ids=["heat", "pde_gcn_d"],
)
def test_run_reports_terminal_prediction_for_diffusions(workdir, params):
    cfg = write(
        workdir / "diff.cfg",
        f"graph = erdos_renyi(8, 0.5, 73)\n{params}\ntau = 0.5\nsteps = 400\n"
        "init = random_normal(7)\ncsv = d.csv\nsvg = d.svg\nreport = d.txt\n",
    )
    assert main(["run", cfg]) == 0
    report = (workdir / "d.txt").read_text()
    assert "terminal prediction (LFD):" in report
    deviation = re.search(r"terminal-state deviation \(max abs\) = (\S+)", report)
    assert deviation and float(deviation[1]) < 1e-8


# --- exit codes -------------------------------------------------------------

def test_exit_2_on_parse_error(workdir, capsys):
    cfg = write(workdir / "bad.cfg", HFD_CFG.replace("[[-1.0]]", "[[-1.0]"))
    assert main(["run", cfg]) == 2
    assert "'W'" in capsys.readouterr().err


def test_exit_3_on_missing_field(workdir):
    cfg = write(workdir / "bad.cfg", "graph = cycle(4)\n")
    assert main(["run", cfg]) == 3


def test_exit_4_on_overflow(workdir):
    cfg = write(
        workdir / "ov.cfg",
        "graph = cycle(5)\nvariant = gradient_flow\nW = [[-9.0]]\n"
        "Wtilde = [[1.0]]\ntau = 5.0\nsteps = 500\ninit = one_hot(0)\n"
        "csv = o.csv\nsvg = o.svg\nreport = o.txt\n",
    )
    assert main(["run", cfg]) == 4


def test_exit_3_on_nonfinite_ktk(workdir, capsys):
    cfg = write(
        workdir / "nan.cfg",
        "graph = cycle(5)\nvariant = pde_gcn_d\nKtK = [[NaN]]\nsteps = 5\n"
        "init = one_hot(0)\ncsv = n.csv\nsvg = n.svg\nreport = n.txt\n",
    )
    assert main(["run", cfg]) == 3
    assert "KtK" in capsys.readouterr().err


def test_exit_5_on_missing_config(workdir):
    assert main(["run", "does_not_exist.cfg"]) == 5


def test_exit_5_on_unwritable_output(workdir):
    cfg = write(
        workdir / "run.cfg",
        HFD_CFG.replace("csv = run.csv", "csv = no_such_dir/run.csv"),
    )
    assert main(["run", cfg]) == 5


def test_exit_3_on_an_activation_that_is_not_named(workdir, capsys):
    cfg = write(workdir / "run.cfg", HFD_CFG.replace("gradient_flow", "gradient_flow_nonlinear")
                + "sigma = softplus\n")
    assert main(["run", cfg]) == 3
    assert "unknown activation 'softplus'" in capsys.readouterr().err


EDGE_LIST_CFG = HFD_CFG.replace("complete_bipartite(5,5)", "g.txt")


@pytest.mark.parametrize(
    "edges, code, message",
    [
        ("0 1\n1 2 3\n", 2, "line 2: expected 'u v'"),
        ("0 1\n1 x\n", 2, "line 2: non-integer node id"),
        ("0 1\n2 2\n", 3, "line 2: self-loop 2 2"),
        ("n 3\n0 1\n1 5\n", 3, "line 3: node id exceeds declared count n=3"),
        ("0 1\n-1 2\n", 3, "line 2: negative node id"),
    ],
    ids=["malformed", "non-integer", "self-loop", "out-of-range", "negative"],
)
def test_edge_list_errors_map_to_their_exit_codes(workdir, capsys, edges, code, message):
    (workdir / "g.txt").write_text(edges)
    assert main(["run", write(workdir / "run.cfg", EDGE_LIST_CFG)]) == code
    assert message in capsys.readouterr().err


def test_an_isolated_node_exits_3_before_the_features_are_drawn(workdir, capsys):
    (workdir / "g.txt").write_text("n 20000000\n0 1\n")
    cfg = write(workdir / "run.cfg", EDGE_LIST_CFG)
    tracemalloc.start()
    try:
        code = main(["run", cfg])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "node 2 is isolated" in capsys.readouterr().err
    # the (n, 1) initial features alone would take 160 MB
    assert peak < 16e6


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"run.cfg": HFD_CFG.encode() + b"# caf\xe9\n"}, ["run", "run.cfg"]),
        (
            {
                "run.cfg": HFD_CFG.replace("complete_bipartite(5,5)", "g.txt").encode(),
                "g.txt": b"0 1\n1 2  # caf\xe9\n",
            },
            ["run", "run.cfg"],
        ),
        ({"w.txt": b"gel-witness 1\ncheck heat_monotone\n# caf\xe9\n"}, ["replay", "w.txt"]),
    ],
    ids=["config", "edge-list", "witness"],
)
def test_exit_2_on_a_file_that_is_not_utf8(workdir, capsys, files, argv):
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    assert main(argv) == 2
    latin = next(name for name, data in files.items() if b"\xe9" in data)
    assert f"{latin!r} is not UTF-8 text" in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == sorted(files)


# --- bipartite preset -------------------------------------------------------

def test_bipartite_demo_passes(workdir):
    assert main(["bipartite", "5", "5"]) == 0
    report = (workdir / "gel_bipartite.txt").read_text()
    assert report.count("[PASS]") == 3
    svg = (workdir / "gel_bipartite.svg").read_text()
    assert svg.count("<polyline") == 2


def test_bipartite_demo_unequal_parts(workdir):
    assert main(["bipartite", "2", "3"]) == 0
    assert (workdir / "gel_bipartite.txt").read_text().count("[PASS]") == 3


def test_bipartite_non_hfd_weight_skips_assertions(workdir):
    assert main(["bipartite", "5", "5", "--w", "1.0"]) == 0
    report = (workdir / "gel_bipartite.txt").read_text()
    assert "skipped" in report
    assert "[PASS]" not in report and "[FAIL]" not in report


def test_bipartite_rejects_tiny_parts(workdir):
    assert main(["bipartite", "1", "5"]) == 3


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_bipartite_rejects_fewer_than_one_step_before_writing(workdir, capsys, steps):
    assert main(["bipartite", "3", "3", "--steps", steps]) == 3
    assert "--steps must be a positive integer" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


def test_bipartite_labels_the_double_cover_once(workdir, monkeypatch):
    # graph_checks and extreme_spectrum's colour classes share one labelling
    g = complete_bipartite(6, 11)
    for cached in (gel.graphs.graph_checks, gel.graphs.extreme_spectrum, gel.graphs._cover_labels):
        cached.cache_clear()
    sizes = []
    component_labels = gel.graphs._component_labels

    def recorded(n, u, v):
        sizes.append(n)
        return component_labels(n, u, v)

    monkeypatch.setattr(gel.graphs, "_component_labels", recorded)
    assert main(["bipartite", "6", "11"]) == 0
    assert sizes.count(2 * g.n) == 1


def test_bipartite_negative_seed_is_a_validation_error(workdir, capsys):
    assert main(["bipartite", "3", "3", "--seed", "-2"]) == 3
    assert "seed must be a non-negative integer, got -2" in capsys.readouterr().err


def test_bipartite_seed_changes_curves(workdir):
    main(["bipartite", "5", "5", "--svg", "a.svg", "--report", "a.txt"])
    main(["bipartite", "5", "5", "--seed", "2", "--svg", "b.svg", "--report", "b.txt"])
    assert (workdir / "a.svg").read_text() != (workdir / "b.svg").read_text()


# --- suite and replay -------------------------------------------------------

def test_suite_prints_one_line_per_check(workdir, monkeypatch, capsys):
    picked = [w for w in verify.default_suite() if w.check == "kronecker_energy"][:2]
    monkeypatch.setattr(verify, "default_suite", lambda: picked)
    assert main(["suite"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(1 for line in out if line.startswith("[PASS]")) == 2
    assert out[-1] == "2 checks: 2 passed, 0 failed"


def test_suite_failure_writes_witness(workdir, monkeypatch, capsys):
    fd_witnesses = [w for w in verify.default_suite() if w.check == "gradient_fd"][:1]
    monkeypatch.setattr(verify, "default_suite", lambda: fd_witnesses)
    true_grad = gel.energy.energy_gradient
    monkeypatch.setattr(
        gel.energy, "energy_gradient", lambda *a, **kw: -true_grad(*a, **kw)
    )
    assert main(["suite"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    witness_files = list(workdir.glob("witness_*.txt"))
    assert len(witness_files) == 1
    monkeypatch.undo()
    # replaying the recorded witness against the honest code passes
    assert main(["replay", str(witness_files[0])]) == 0


def test_replay_missing_file(workdir):
    assert main(["replay", "nope.txt"]) == 5


def test_replay_of_a_witness_without_its_expected_tag_exits_3(workdir, capsys):
    w = next(w for w in verify.default_suite() if w.check == "regime_realization")
    del w.tags["expected"]
    path = write(workdir / "w.txt", verify.serialize_witness(w))
    assert main(["replay", path]) == 3
    err = capsys.readouterr().err
    assert "needs tag 'expected'" in err and "Traceback" not in err


def test_replay_corrupt_file(workdir):
    bad = write(workdir / "bad.txt", "not a witness\n")
    assert main(["replay", bad]) == 2


_GRAPH_BLOCK = "graph\nn 3\n0 1\n1 2\nend\n"


@pytest.mark.parametrize(
    "body, code, needle",
    [
        (_GRAPH_BLOCK + "matrix F0 x 1\n1\nend\n", 2, "line 8"),
        ("graph\nn abc\n0 1\nend\n", 2, "line 4"),
        ("matrix F0 3 1\n1\n0\n0\nend\nscalar tau 0.1\n", 3, "graph"),
    ],
    ids=["matrix-size", "node-count", "no-graph"],
)
def test_replay_malformed_witness_exit_codes(workdir, capsys, body, code, needle):
    path = write(workdir / "w.txt", "gel-witness 1\ncheck heat_monotone\n" + body)
    assert main(["replay", path]) == code
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["inf", "nan", "2.5"])
def test_replay_rejects_a_step_count_that_is_not_a_whole_number(workdir, capsys, steps):
    body = _GRAPH_BLOCK + f"matrix F0 3 1\n1\n0\n0\nend\nscalar tau 0.1\nscalar steps {steps}\n"
    path = write(workdir / "w.txt", "gel-witness 1\ncheck heat_monotone\n" + body)
    assert main(["replay", path]) == 3
    err = capsys.readouterr().err
    assert "'steps'" in err and "whole number" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["heat_monotone", "pde_gcn_monotone", "diag_sharpening"])
def test_replay_of_a_dirichlet_run_without_steps_exits_3(workdir, capsys, kind):
    w = next(w for w in verify.default_suite() if w.check == kind)
    w.scalars["steps"] = 0
    path = write(workdir / "w.txt", verify.serialize_witness(w))
    assert main(["replay", path]) == 3
    err = capsys.readouterr().err
    assert "steps must be a positive integer" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name",
    ["33_omega_eq_w_conservation", "38_renormalization_commutes",
     "15_closed_form_vs_trajectory_k2"],
)
def test_replay_of_a_shipped_run_with_no_steps_exits_3(workdir, capsys, name):
    # a run of no steps compares the start with itself: it must not pass
    with open(os.path.join(verify._SUITE_DIR, name + ".txt")) as f:
        text = re.sub(r"^scalar steps \d+$", "scalar steps 0", f.read(), flags=re.M)
    assert "scalar steps 0\n" in text
    path = write(workdir / "w.txt", text)
    assert main(["replay", path]) == 3
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "steps must be a positive integer" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "kind",
    [kind for kind, row in verify.PREDICTIONS.items() if not callable(row.steps)]
    + ["monotonicity"],
)
def test_replay_of_a_step_count_past_the_cap_exits_3_before_running(workdir, capsys, kind):
    w = next(w for w in verify.default_suite() if w.check == kind)
    w.scalars["steps"] = 1e300
    path = write(workdir / "w.txt", verify.serialize_witness(w))
    assert main(["replay", path]) == 3
    err = capsys.readouterr().err
    assert f"at most {verify.MAX_STEPS}" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["21_hfd_realized_er9", "22_rate_certified_er9"])
@pytest.mark.parametrize("scale", [-1.0, 0.5])
def test_replay_of_a_classified_check_with_an_omega_exits_3(workdir, capsys, name, scale):
    # the classification reads W alone: it cannot stand for a model with Omega
    with open(os.path.join(verify._SUITE_DIR, name + ".txt")) as f:
        w = verify.parse_witness(f.read())
    w.matrices["Omega"] = scale * np.eye(w.matrix("W").shape[0])
    path = write(workdir / "w.txt", verify.serialize_witness(w))
    assert main(["replay", path]) == 3
    err = capsys.readouterr().err
    assert "needs Omega = 0" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["scalar steps 1e300", "scalar foo 1", "scalar mu 0.3"])
def test_replay_of_a_field_its_check_never_reads_exits_3(workdir, capsys, field):
    # a horizon rule sets the steps, and the model reads no mu: the field
    # would pass unseen
    with open(os.path.join(verify._SUITE_DIR, "21_hfd_realized_er9.txt")) as f:
        path = write(workdir / "w.txt", f.read() + field + "\n")
    assert main(["replay", path]) == 3
    captured = capsys.readouterr()
    name = field.split()[1]
    assert "[PASS]" not in captured.out and "Traceback" not in captured.err
    assert f"'regime_realization' reads no scalar '{name}'" in captured.err


def _nan_entry(matrix):
    matrix = matrix.copy()
    matrix[0, -1] = np.nan
    return matrix


@pytest.mark.parametrize("kind", ["curl_symmetric", "curl_asymmetry"])
@pytest.mark.parametrize(
    "name, broken",
    [
        ("h", lambda h: 0.0),
        ("h", lambda h: np.inf),
        ("h", lambda h: np.nan),
        ("W", _nan_entry),
        ("Omega", _nan_entry),
        ("Omega", lambda omega: omega[:, :-1]),
    ],
    ids=["h-zero", "h-inf", "h-nan", "W-nan", "Omega-nan", "Omega-not-square"],
)
def test_replay_of_a_curl_check_with_a_bad_input_exits_3(workdir, capsys, kind, name, broken):
    w = next(w for w in verify.default_suite() if w.check == kind)
    fields = w.scalars if name == "h" else w.matrices
    fields[name] = broken(fields[name])
    path = write(workdir / "w.txt", verify.serialize_witness(w))
    assert main(["replay", path]) == 3
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out and "Traceback" not in captured.err


def test_suite_and_replay_print_the_same_line_for_every_shipped_witness(workdir, capsys):
    assert main(["suite"]) == 0
    suite_lines = capsys.readouterr().out.splitlines()[:-1]
    names = sorted(os.listdir(verify._SUITE_DIR))
    assert len(names) == len(suite_lines) == 45
    for name, line in zip(names, suite_lines):
        assert main(["replay", os.path.join(verify._SUITE_DIR, name)]) == 0
        assert capsys.readouterr().out == line + "\n", name


# --- csv formatting ---------------------------------------------------------

def test_trajectory_csv_roundtrips_floats():
    rng = np.random.default_rng(5)
    g = complete_bipartite(2, 3)
    spec = ModelSpec("gradient_flow", weights=WeightSet(W=[[-0.8]]), tau=0.25)
    traj = run_trajectory(spec, g, rng.normal(size=(5, 1)), 7)
    rows = trajectory_csv(traj).splitlines()
    assert rows[0] == CSV_HEADER
    for k, row in enumerate(rows[1:]):
        cells = row.split(",")
        assert int(cells[0]) == k
        # 17 significant digits reproduce the doubles exactly; the golden
        # comparison contract only demands 1e-12
        assert abs(float(cells[2]) - traj.rayleigh[k]) <= 1e-12
        assert abs(float(cells[5]) - traj.log_scale[k]) <= 1e-12
