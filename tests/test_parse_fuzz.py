"""Fuzzed witness, config and edge-list text fails only as a ``GelError``.

Each example takes a valid document and applies up to three edits: delete,
insert or replace a character, or drop, repeat or swap lines.  Inserted
characters are never digits, so no edit can turn a small size into a large
one and make the parser allocate for it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gel.config import parse_config
from gel.errors import GelError
from gel.graphs import from_edge_list
from gel.verify import default_suite, parse_witness, serialize_witness

_WITNESSES = [serialize_witness(w) for w in default_suite()[::4]]

_CONFIGS = [
    """\
graph = complete_bipartite(2,3)
variant = gradient_flow
W = [[-1.0, 0.2], [0.2, 0.5]]
Omega = [[0.1, 0.0], [0.0, 0.1]]
tau = 0.5
steps = 12
init = random_normal(7)
csv = out.csv
svg = out.svg
report = out.txt
""",
    """\
# comment
graph = erdos_renyi(8, 0.5, 3)
variant = GRAFF
W = [[1.0]]
omega = [-0.5]
beta = 0.25
d = 1
steps = 4
init = one_hot(2)
csv = a.csv
svg = a.svg
report = a.txt
""",
    """\
graph = cycle(5)
variant = cgnn
OmegaTilde = [[0.3, 1.0], [-1.0, 0.2]]
source_free = true
tau = 0.05
steps = 3
init = random_normal(1)
csv = c.csv
svg = c.svg
report = c.txt
""",
]

_EDGE_LISTS = [
    "n 6\n0 1\n1 2  # a comment\n\n2 3\n3 4\n4 5\n5 0\n",
    "# a triangle and a tail\n0 1\n0 2\n1 2\n2 3\n",
]

_CHARACTERS = st.sampled_from(list("abeinfxEW_ =[](),.-+#\t\n"))


@st.composite
def _edit(draw, text: str) -> str:
    lines = text.split("\n")
    kind = draw(st.sampled_from(["delete", "insert", "replace", "drop", "repeat", "swap"]))
    if kind in ("delete", "insert", "replace"):
        at = draw(st.integers(0, max(0, len(text) - 1)))
        char = draw(_CHARACTERS)
        keep = at if kind == "insert" else at + 1
        return text[:at] + ("" if kind == "delete" else char) + text[keep:]
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[at]
    elif kind == "repeat":
        lines.insert(at, lines[at])
    else:
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    return "\n".join(lines)


@st.composite
def _mutated(draw, texts: list[str]) -> str:
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        text = draw(_edit(text))
    return text


@settings(deadline=None, max_examples=300)
@given(_mutated(_WITNESSES))
def test_fuzzed_witness_text_raises_only_gel_errors(text):
    try:
        parse_witness(text)
    except GelError:
        pass


@settings(deadline=None, max_examples=300)
@given(_mutated(_CONFIGS))
def test_fuzzed_config_text_raises_only_gel_errors(text):
    try:
        parse_config(text)
    except GelError:
        pass


@settings(deadline=None, max_examples=300)
@given(_mutated(_EDGE_LISTS))
def test_fuzzed_edge_list_text_raises_only_gel_errors(text):
    try:
        from_edge_list(text)
    except GelError:
        pass
