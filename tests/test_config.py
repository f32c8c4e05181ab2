import numpy as np
import pytest

from gel.config import parse_config
from gel.errors import ConfigurationError, GelIOError, ParseError, ValidationError

BASE = """\
graph = complete_bipartite(2,3)
variant = gradient_flow
W = [[-1.0]]
tau = 0.5
steps = 12
init = random_normal(7)
csv = out.csv
svg = out.svg
report = out.txt
"""


def test_minimal_config_parses():
    cfg = parse_config(BASE)
    assert cfg.graph.n == 5
    assert cfg.spec.variant == "gradient_flow"
    assert cfg.spec.tau == 0.5
    assert cfg.d == 1
    assert cfg.steps == 12
    assert cfg.init_kind == "random_normal" and cfg.init_arg == "7"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n" + BASE)
    assert cfg.steps == 12


def test_missing_required_keys_listed():
    with pytest.raises(ConfigurationError, match="variant"):
        parse_config("graph = cycle(4)\n")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("wobble = 3\n" + BASE)


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_config(BASE + "tau = 0.25\n")


def test_line_without_equals_rejected():
    with pytest.raises(ParseError, match="key = value"):
        parse_config("just some text\n")


def test_bad_matrix_literal_names_key():
    with pytest.raises(ParseError, match="'W'"):
        parse_config(BASE.replace("W = [[-1.0]]", "W = [[-1.0],"))


def test_flat_matrix_rejected_for_w():
    with pytest.raises(ParseError, match="nested"):
        parse_config(BASE.replace("W = [[-1.0]]", "W = [-1.0]"))


def test_omega_is_flat_vector():
    text = BASE.replace("variant = gradient_flow", "variant = graff")
    cfg = parse_config(text + "omega = [0.5]\nbeta = 0.1\n")
    assert cfg.spec.omega_diag.tolist() == [0.5]
    assert cfg.spec.beta == 0.1


def test_omega_alone_fixes_the_channel_count():
    text = BASE.replace("variant = gradient_flow", "variant = diag_nonlinear\nsigma = relu")
    cfg = parse_config(text.replace("W = [[-1.0]]", "omega = [-1, -0.5]"))
    assert cfg.spec.weights is None and cfg.d == 2
    assert cfg.spec.omega_diag.tolist() == [-1.0, -0.5]


@pytest.mark.parametrize(
    "variant, extra, unread",
    [("graff", "Omega = [[0.5]]\n", "Omega"), ("gradient_flow", "beta = 0.1\n", "beta")],
)
def test_key_the_variant_never_reads_rejected(variant, extra, unread):
    text = BASE.replace("variant = gradient_flow", f"variant = {variant}") + extra
    with pytest.raises(ConfigurationError, match=f"does not read {unread}"):
        parse_config(text)


def test_matrix_file_loading(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    np.savetxt("w.txt", np.array([[1.0, -0.5], [-0.5, 1.0]]))
    cfg = parse_config(BASE.replace("W = [[-1.0]]", "W_file = w.txt"))
    assert cfg.d == 2
    assert cfg.spec.weights.W[0, 1] == -0.5


def test_matrix_inline_and_file_conflict(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    np.savetxt("w.txt", np.eye(1))
    with pytest.raises(ParseError, match="not both"):
        parse_config(BASE + "W_file = w.txt\n")


def test_missing_matrix_file_is_io_error():
    with pytest.raises(GelIOError):
        parse_config(BASE.replace("W = [[-1.0]]", "W_file = nowhere.txt"))


def test_graph_from_edge_list_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.txt").write_text("0 1\n1 2\n0 2\n")
    cfg = parse_config(BASE.replace("graph = complete_bipartite(2,3)", "graph = tri.txt"))
    assert cfg.graph.n == 3
    assert cfg.graph_label == "tri.txt"


def test_malformed_generator_is_parse_error():
    with pytest.raises(ParseError, match="generator"):
        parse_config(BASE.replace("complete_bipartite(2,3)", "cycle(4"))


def test_unknown_generator_rejected():
    with pytest.raises(ParseError, match="torus"):
        parse_config(BASE.replace("complete_bipartite(2,3)", "torus(4)"))


def test_generator_arity_checked():
    with pytest.raises(ParseError, match="argument"):
        parse_config(BASE.replace("complete_bipartite(2,3)", "cycle(4,5)"))


def test_d_conflict_with_w_rejected():
    with pytest.raises(ConfigurationError, match="conflicts"):
        parse_config(BASE + "d = 3\n")


def test_d_required_without_sized_parameters():
    text = "graph = cycle(4)\nvariant = heat\nsteps = 5\ninit = one_hot(0)\n" \
           "csv = a\nsvg = b\nreport = c\n"
    with pytest.raises(ConfigurationError, match="'d'"):
        parse_config(text)
    cfg = parse_config(text + "d = 2\n")
    assert cfg.d == 2


def test_init_forms():
    assert parse_config(BASE.replace("random_normal(7)", "one_hot(3)")).init_kind == "one_hot"
    cfg = parse_config(BASE.replace("random_normal(7)", "file(feats.txt)"))
    assert cfg.init_kind == "file" and cfg.init_arg == "feats.txt"
    with pytest.raises(ParseError, match="init"):
        parse_config(BASE.replace("random_normal(7)", "gaussian(7)"))
    with pytest.raises(ParseError, match="integer"):
        parse_config(BASE.replace("random_normal(7)", "random_normal(x)"))


def test_initial_features_deterministic_and_overridable():
    cfg = parse_config(BASE)
    a = cfg.initial_features()
    b = cfg.initial_features()
    c = cfg.initial_features(seed_override=8)
    assert np.array_equal(a, b)
    assert a.shape == (5, 1)
    assert not np.array_equal(a, c)


def test_one_hot_out_of_range():
    cfg = parse_config(BASE.replace("random_normal(7)", "one_hot(9)"))
    with pytest.raises(ValidationError, match="range"):
        cfg.initial_features()


def test_init_file_shape_checked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    np.savetxt("f.txt", np.ones((4, 1)))
    cfg = parse_config(BASE.replace("random_normal(7)", "file(f.txt)"))
    with pytest.raises(ValidationError, match="shape"):
        cfg.initial_features()


def test_source_free_flag():
    text = (
        "graph = cycle(4)\nvariant = cgnn\nOmegaTilde = [[0.1]]\nsteps = 5\n"
        "init = one_hot(0)\ncsv = a\nsvg = b\nreport = c\nsource_free = true\n"
    )
    assert parse_config(text).spec.source_free is True
    with pytest.raises(ParseError, match="source_free"):
        parse_config(text.replace("= true", "= yes"))
