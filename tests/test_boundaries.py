"""Fuzz every input boundary with mutations of the packaged files.

Each example takes one document a command reads (the packaged scenario,
profiles file, case-base header, a case-base case line, the reference
grid, or a kb-trace query), picks a key path in it, and either replaces
the value there with another JSON value or deletes the key.  Whatever
the mutation, the command exits 0, 1 or 2: exit 3 is an unexpected
exception, which bad input must never cause, and an episode log written
from a mutated file holds no non-finite number.  A value of another JSON
kind, or a non-finite number, at a field the loader reads exits 1.  The
exceptions are null at the four query fields where null means "not
given", and the reference grid's unread ``description``, ``profiles`` and
``scenarios``.  Integers and floats are one kind here: every number
field takes both, and every integer field rejects a float by itself.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rulebend.cli as cli
from rulebend.cli import EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, _packaged, main

DELETE = "<delete the key>"
VALUES = ("x", True, None, math.nan, math.inf, -math.inf, {}, [], 7, DELETE)

KB_HEADER, KB_CASE = _packaged("seed_kb.jsonl").read_text(encoding="utf-8").splitlines()[:2]
QUERY = {
    "epsilon_m": 1, "missed_doses": 0.0, "follow_ups": 1,
    "reminder_state": "acknowledged", "last_instruction": "acknowledge",
    "instruction_pending": False, "acknowledged_without_taking": True,
    "snoozes_granted": 1, "snooze_remaining": 0, "step": 10,
    "behaviour": "follow_up", "obeys": "acknowledge",
    "autonomy_utility": -0.1, "wellbeing_utility": -0.35,
}


def _read(name):
    return json.loads(_packaged(name).read_text(encoding="utf-8"))


#: name -> (document, file text of a mutated document, command line for
#: its file and an output directory, top-level keys whose value no loader
#: reads, top-level keys where null means absent)
TARGETS = {
    "scenario": (_read("scenarios/case1.json"), json.dumps,
                 lambda path, out: ["run", path, "--profile", "A", "--out", out], (), ()),
    "profiles": (_read("profiles.json"), json.dumps,
                 lambda path, out: ["run", "case1", "--profile", "A", "--profiles", path,
                                    "--out", out], (), ()),
    "kb-header": (json.loads(KB_HEADER), lambda doc: f"{json.dumps(doc)}\n{KB_CASE}\n",
                  lambda path, out: ["validate", "--kb", path], (), ()),
    "kb-case": (json.loads(KB_CASE), lambda doc: f"{KB_HEADER}\n{json.dumps(doc)}\n",
                lambda path, out: ["run", "case1", "--profile", "A", "--kb", path,
                                   "--out", out], (), ()),
    "grid": (_read("expected_matrix.json"), json.dumps,
             lambda path, out: ["matrix", "--expected", path, "--out", out],
             ("description", "profiles", "scenarios"), ()),
    "query": (QUERY, json.dumps, lambda path, out: ["kb-trace", path], (),
              ("last_instruction", "obeys", "autonomy_utility", "wellbeing_utility")),
}


def key_paths(doc, prefix=()):
    """Every key path into ``doc``, through objects and arrays."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


def json_kind(value):
    if value is None:
        return "null"
    for kind, name in ((bool, "boolean"), ((int, float), "number"), (str, "string"),
                       (dict, "object"), (list, "array")):
        if isinstance(value, kind):
            return name
    raise TypeError(value)


def _reject_non_finite(token):
    raise AssertionError(f"the episode log holds {token}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_input_exits_0_1_or_2(workdir, target, data):
    document, render, command, unread, nullable = TARGETS[target]
    path = data.draw(st.sampled_from(sorted(key_paths(document), key=repr)), label="path")
    value = data.draw(st.sampled_from(VALUES), label="value")

    mutated = json.loads(json.dumps(document))
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    original = parent[path[-1]]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    file = Path(workdir) / f"{target}.json"
    file.write_text(render(mutated), encoding="utf-8")
    log = Path(workdir) / "out" / "episode.jsonl"
    log.unlink(missing_ok=True)

    # The matrix command is here for its grid loader: the simulated grid
    # stands in as the packaged one, which the real run reproduces.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_run_matrix", lambda kb, profiles, mode: cli._load_expected(None))
        code = main(command(str(file), str(Path(workdir) / "out")))

    assert code in (EXIT_OK, EXIT_INVALID, EXIT_MISMATCH)
    if log.exists():
        for line in log.read_text(encoding="utf-8").splitlines():
            json.loads(line, parse_constant=_reject_non_finite)
    if value is DELETE or path[0] in unread or (value is None and path[0] in nullable):
        return
    non_finite = isinstance(value, float) and not math.isfinite(value)
    if non_finite or json_kind(value) != json_kind(original):
        assert code == EXIT_INVALID, (path, value)
