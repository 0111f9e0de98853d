"""No input document ends in a traceback: mutations of the shipped run
documents (those of scripts/run_examples.py, loaded from the script, and
the README's example with an inflow) run through the CLI in process and
return 0, 1, 2 or 3, and a configuration error names the section or key it
rejects."""

import contextlib
import copy
import importlib.util
import io
import json
import math
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_hjb.cli import main

REPO = Path(__file__).resolve().parents[1]


def _example_documents():
    spec = importlib.util.spec_from_file_location(
        "run_examples", REPO / "scripts" / "run_examples.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.DOCUMENTS.values())


def _readme_document():
    (block,) = re.findall(r"```json\n(.*?)```", (REPO / "README.md").read_text(),
                          flags=re.S)
    return json.loads(block)


DOCUMENTS = [*_example_documents(), _readme_document()]

# what a leaf becomes: each JSON kind, zero, a negative, the float limit,
# the non-finite values Python's json reads, or a moderate number, which
# mostly gives a run that solves
REPLACEMENTS = st.one_of(
    st.sampled_from([None, 0, -1, 1e308, math.nan, math.inf, "x", [1.0],
                     {"a": 1.0}, True]),
    st.floats(-10.0, 10.0))

# a configuration error names what it rejects
NAMED = re.compile(r"\b(model|utility|pde|checks)\b")


def _leaves(node, path=()):
    """The key paths of the values of node that are not objects or lists."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, (*path, key))
    else:
        yield path


@st.composite
def mutated_runs(draw):
    """(document, command line options) with the run's size capped and one
    or two leaves replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    doc["pde"]["n_cells"] = draw(st.integers(8, 64))
    doc["pde"]["n_steps"] = draw(st.integers(1, 16))
    paths = list(_leaves(doc))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for k in parents:
            node = node[k]
        node[key] = copy.deepcopy(draw(REPLACEMENTS))
    command = draw(st.sampled_from(["solve", "alpha-curve", "verify"]))
    options = ([command, "--n-points", str(draw(st.integers(1, 64)))]
               if command == "alpha-curve" else [command])
    return doc, options


@given(run=mutated_runs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_document_exits_with_a_code(tmp_path_factory, run):
    doc, options = run
    out = tmp_path_factory.mktemp("fuzz")
    cfg = out / "run.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([*options, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert NAMED.search(err.getvalue()), err.getvalue()
