"""Flat ``key = value`` experiment configuration.

One key per line, ``#`` comments, no sections and no nesting.  Matrices are
inline JSON-style nested lists (row-major), or ``<name>_file = path`` pointing
at a whitespace-separated text matrix.  Graphs come from a small set of
generator specs or from an edge-list file.

Example::

    graph = complete_bipartite(5,5)
    variant = gradient_flow
    W = [[-1.0]]
    tau = 0.5
    steps = 60
    init = random_normal(7)
    csv = out/run.csv
    svg = out/run.svg
    report = out/run.txt
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec
from .energy import WeightSet
from .errors import ConfigurationError, GelIOError, ParseError, ValidationError
from .graphs import (
    Graph,
    _inv_sqrt_degree,
    check_count,
    complete_bipartite,
    cycle,
    erdos_renyi,
    from_edge_list,
    path,
)

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_CALL_RE = re.compile(r"^([a-z_]+)\((.*)\)$")

_MATRIX_KEYS = ("W", "Omega", "Wtilde", "KtK", "OmegaTilde")
_SCALAR_KEYS = {"tau", "mu", "beta"}
_INT_KEYS = {"steps", "d"}
_PLAIN_KEYS = {"graph", "variant", "sigma", "init", "csv", "svg", "report",
               "source_free", "omega", "omega_file"}
_KNOWN_KEYS = (
    _PLAIN_KEYS
    | _SCALAR_KEYS
    | _INT_KEYS
    | set(_MATRIX_KEYS)
    | {k + "_file" for k in _MATRIX_KEYS}
)

_REQUIRED_KEYS = ("graph", "variant", "steps", "init", "csv", "svg", "report")

#: The graph generators a config may call, with the type of each argument.
_GENERATORS = {
    "complete_bipartite": (complete_bipartite, (int, int)),
    "cycle": (cycle, (int,)),
    "path": (path, (int,)),
    "erdos_renyi": (erdos_renyi, (int, float, int)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully parsed experiment: graph, dynamics, init recipe, output paths."""

    graph: Graph
    graph_label: str
    spec: ModelSpec
    d: int
    steps: int
    init_kind: str
    init_arg: str
    csv_path: str
    svg_path: str
    report_path: str

    def initial_features(self, seed_override: int | None = None) -> np.ndarray:
        """Materialize the (n, d) initial feature matrix.

        ``seed_override`` replaces the configured seed of a random init (used
        for the GEL_SEED environment override); it is ignored for the
        deterministic init kinds.
        """
        n, d = self.graph.n, self.d
        if self.init_kind == "random_normal":
            seed = int(self.init_arg) if seed_override is None else seed_override
            seed = check_count(seed, "the random_normal seed")
            return np.random.default_rng(seed).standard_normal((n, d))
        if self.init_kind == "one_hot":
            node = int(self.init_arg)
            if not 0 <= node < n:
                raise ValidationError(
                    f"init one_hot({node}): node index out of range for n={n}"
                )
            feats = np.zeros((n, d))
            feats[node, :] = 1.0
            return feats
        feats = _load_text_matrix(self.init_arg, "init")
        if feats.ndim == 1:
            feats = feats[:, None]
        if feats.shape != (n, d):
            raise ValidationError(
                f"init file {self.init_arg!r} has shape {feats.shape}, "
                f"expected ({n}, {d})"
            )
        return feats


def _read_text(path: str, what: str) -> str:
    """The text of the UTF-8 file at ``path``; a file that cannot be read is
    a ``GelIOError`` and one that is not UTF-8 a ``ParseError``, each naming
    ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GelIOError(f"cannot read {what} {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path!r} is not UTF-8 text: {exc}") from None


def _load_text_matrix(path: str, key: str) -> np.ndarray:
    try:
        return np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as exc:
        raise GelIOError(f"key {key!r}: cannot read {path!r}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"key {key!r}: bad matrix file {path!r}: {exc}") from None


def _parse_inline_matrix(key: str, text: str, lineno: int) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {lineno}: key {key!r}: bad matrix literal ({exc})")
    arr = np.asarray(data, dtype=object)
    try:
        arr = arr.astype(float)
    except (TypeError, ValueError):
        raise ParseError(f"line {lineno}: key {key!r}: matrix entries must be numbers")
    if key == "omega":
        if arr.ndim != 1:
            raise ParseError(
                f"line {lineno}: key 'omega' wants a flat list like [-1, -0.5]"
            )
    elif arr.ndim != 2:
        raise ParseError(
            f"line {lineno}: key {key!r} wants nested rows like [[a,b],[c,d]]"
        )
    return arr


def _parse_graph_value(value: str, lineno: int) -> tuple[Graph, str]:
    call = _CALL_RE.match(value)
    if call is None:
        if "(" in value or ")" in value:
            raise ParseError(
                f"line {lineno}: malformed graph generator spec {value!r}"
            )
        # anything that is not a generator call is an edge-list file path
        graph = from_edge_list(_read_text(value, "edge list"))
        # refuse an isolated node before the run draws its (n, d) features
        _inv_sqrt_degree(graph)
        return graph, value
    name, argtext = call.groups()
    if name not in _GENERATORS:
        raise ParseError(f"line {lineno}: unknown graph generator {name!r}")
    build, kinds = _GENERATORS[name]
    args = [a.strip() for a in argtext.split(",")] if argtext.strip() else []
    try:
        values = [kind(a) for kind, a in zip(kinds, args, strict=True)]
    except ValueError:  # an argument too many or too few, or of the wrong type
        wanted = ", ".join(kind.__name__ for kind in kinds)
        raise ParseError(
            f"line {lineno}: graph generator {name!r} takes {len(kinds)} "
            f"argument(s) ({wanted}), got {argtext.strip()!r}"
        ) from None
    return build(*values), value


def _parse_init_value(value: str, lineno: int) -> tuple[str, str]:
    call = _CALL_RE.match(value)
    if call is None:
        raise ParseError(
            f"line {lineno}: init must be random_normal(seed), one_hot(node) "
            f"or file(path), got {value!r}"
        )
    kind, arg = call.group(1), call.group(2).strip()
    if kind in ("random_normal", "one_hot"):
        try:
            int(arg)
        except ValueError:
            raise ParseError(
                f"line {lineno}: init {kind}(...) wants one integer, got {arg!r}"
            )
        return kind, arg
    if kind == "file":
        if not arg:
            raise ParseError(f"line {lineno}: init file(...) wants a path")
        return kind, arg
    raise ParseError(f"line {lineno}: unknown init kind {kind!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the text of a configuration file into an :class:`ExperimentConfig`.

    Syntax problems raise :class:`ParseError` with the offending line number
    and key; missing or inconsistent fields raise
    :class:`ConfigurationError` / :class:`ValidationError`.
    """
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ParseError(f"line {lineno}: bad key name {key!r}")
        if key not in _KNOWN_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ParseError(
                f"line {lineno}: duplicate key {key!r} (first on line {lines[key]})"
            )
        if not value:
            raise ParseError(f"line {lineno}: key {key!r} has an empty value")
        raw[key] = value
        lines[key] = lineno

    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigurationError(f"missing required key(s): {', '.join(missing)}")

    graph, graph_label = _parse_graph_value(raw["graph"], lines["graph"])
    init_kind, init_arg = _parse_init_value(raw["init"], lines["init"])

    def scalar(key: str, default: float) -> float:
        if key not in raw:
            return default
        try:
            v = float(raw[key])
        except ValueError:
            raise ParseError(f"line {lines[key]}: key {key!r}: not a number")
        return v

    def integer(key: str, default: int | None) -> int | None:
        if key not in raw:
            return default
        try:
            return int(raw[key])
        except ValueError:
            raise ParseError(f"line {lines[key]}: key {key!r}: not an integer")

    def matrix(key: str) -> np.ndarray | None:
        file_key = key + "_file"
        if key in raw and file_key in raw:
            raise ParseError(
                f"line {lines[file_key]}: give {key!r} inline or via {file_key!r}, "
                "not both"
            )
        if key in raw:
            return _parse_inline_matrix(key, raw[key], lines[key])
        if file_key in raw:
            arr = _load_text_matrix(raw[file_key], file_key)
            if key == "omega":
                return arr.reshape(-1)
            return arr if arr.ndim == 2 else arr.reshape(1, -1)
        return None

    source_free = False
    if "source_free" in raw:
        if raw["source_free"] not in ("true", "false"):
            raise ParseError(
                f"line {lines['source_free']}: source_free must be true or false"
            )
        source_free = raw["source_free"] == "true"

    mats = {k: matrix(k) for k in _MATRIX_KEYS}

    weights = None
    if any(mats[k] is not None for k in ("W", "Omega", "Wtilde")):
        if mats["W"] is None:
            raise ConfigurationError(
                "weight keys given but 'W' is missing (W fixes the channel count)"
            )
        weights = WeightSet(W=mats["W"], Omega=mats["Omega"], Wtilde=mats["Wtilde"])

    spec = ModelSpec(
        variant=raw["variant"],
        weights=weights,
        tau=scalar("tau", 0.5),
        sigma=raw.get("sigma", "identity"),
        mu=scalar("mu", 0.0),
        KtK=mats["KtK"],
        OmegaTilde=mats["OmegaTilde"],
        source_free=source_free,
        omega_diag=matrix("omega"),
        beta=scalar("beta", 0.0),
    )

    d_given = integer("d", None)
    d_spec = spec.channels
    if d_spec is not None:
        if d_given is not None and d_given != d_spec:
            raise ConfigurationError(
                f"d = {d_given} conflicts with the {d_spec}-channel model parameters"
            )
        d = d_spec
    elif d_given is not None:
        d = d_given
    else:
        raise ConfigurationError(
            f"variant {spec.variant!r} has no channel-sized parameters; "
            "set 'd' explicitly"
        )
    d = check_count(d, "d", 1)

    # the plot and the report read at least two states
    steps = check_count(integer("steps", None), "steps", 1)

    return ExperimentConfig(
        graph=graph,
        graph_label=graph_label,
        spec=spec,
        d=d,
        steps=steps,
        init_kind=init_kind,
        init_arg=init_arg,
        csv_path=raw["csv"],
        svg_path=raw["svg"],
        report_path=raw["report"],
    )


def load_config(config_path: str) -> ExperimentConfig:
    """Read and parse a configuration file."""
    return parse_config(_read_text(config_path, "config"))
