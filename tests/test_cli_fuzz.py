"""Problem-file fuzzing: every mutated problem ends in a report or a clean exit.

Each example takes one of four well-formed problems (the fixture, a
stationarity problem, a subgroup problem and a periodic kernel), replaces or deletes one or two
of its fields, and runs one command on it in process. Whatever the input,
no exception may escape, the exit code is 0, 1 or 2, a report is strict
JSON, and every input-error line names the field or flag it is about.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ergot import InstanceSpec, generate_instance
from ergot.cli import main

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "c3x2.json").read_text())
_STAT = generate_instance(InstanceSpec(n=6, kind="kernel", class_sizes=(3, 3), seed=1))
BASES = [
    FIXTURE,
    {"version": 1, "space": 6, "kernel": _STAT.kernel.q.tolist(), "cost": _STAT.cost.c.tolist(),
     "restriction": "stationarity",
     "marginals": {"mu": _STAT.mu.w.tolist(), "nu": _STAT.nu.w.tolist()}},
    {"version": 1, "space": 6, "action": {"g": "(0 1 2)(3 4 5)"}, "metric": FIXTURE["metric"],
     "restriction": {"subgroup": [["(0 1 2)(3 4 5)", ""], ["", [1, 2, 0, 4, 5, 3]]]},
     "marginals": {"mu": [1 / 6] * 6, "nu": {"weights": [0.25, 0.75]}}},
    # (0 1 2)(3 4) as a kernel: periodic classes, not a projection
    {"version": 1, "space": 5, "restriction": "stationarity",
     "kernel": [[float(j == g) for j in range(5)] for g in (1, 2, 0, 4, 3)],
     "metric": [[float(abs(i - j)) for j in range(5)] for i in range(5)],
     "marginals": {"mu": [0.2] * 5, "nu": {"weights": [0.25, 0.75]}}},
]
TOP_KEYS = ("version", "space", "action", "kernel", "metric", "cost", "marginals", "p",
            "restriction", "tol")
COMMANDS = ("solve", "metric", "check", "decompose", "verify")
NAMED = re.compile(r" at (\$|file|space|action(\.\w+)?|kernel|metric|cost|marginals"
                   r"(\.(mu|nu)(\.weights)?)?|p|tol|restriction(\.subgroup(\[\d+\]){0,2})?)$")
ERROR_TYPE = re.compile(r"^error: \w+Error: ")

scalars = st.one_of(
    st.integers(),
    st.sampled_from([0, 1, 6, -1, 2 ** 63, 10 ** 30, -10 ** 30, 10 ** 400]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["(0 1)", "(0 1 2)(3 4 5)", "invariance", "stationarity", "none"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=7) | st.dictionaries(
        st.sampled_from(["g", "h", "mu", "nu", "weights", "subgroup"]), inner, max_size=3),
    max_leaves=16)


def _mutate(data, doc):
    """Replace or delete one field of doc at any depth; absent top-level fields may be added."""
    parent, key = doc, data.draw(st.sampled_from(TOP_KEYS))
    child = doc.get(key)
    while isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
        parent = child
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                        else range(len(parent))))
        child = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        parent.pop(key, None)
    else:
        parent[key] = data.draw(values)


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_problem_files_end_cleanly(problem_path, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(BASES))))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, doc)
    problem_path.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(COMMANDS))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(problem_path)])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 1:
        assert out.getvalue() == ""
        assert lines and all(NAMED.search(line) for line in lines), err.getvalue()
    elif code == 2 and not out.getvalue():
        # a raised mathematical failure, named by its type
        assert len(lines) == 1 and ERROR_TYPE.match(lines[0]), err.getvalue()
    else:
        _strict_json(out.getvalue())
