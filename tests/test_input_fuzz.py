"""Bounded fuzz test of the input boundary: mutated demo scenarios and
perfbench scenarios.

Each example takes one demo scenario or the first seed-1 scenario of a
perfbench workload (perfbench/workloads.py, imported as it is), changes
one to three places in its JSON tree and runs `orbipar verify` and
`orbipar run` on it in-process through cli.main.  A change replaces a
value by one of a fixed menu, deletes a key or list item, or keeps the
document's types: an integer moved by one, a string replaced by a name
the document defines or a string in the same role, a defined name renamed
with its references to another string of the document, or an object
replaced by one in the same role from any source.  Type-keeping changes
leave a document that loads more often, so the commands run on it.  Neither command may raise, both must exit with a documented code, and
verify and run must agree on whether the file loads.  The integer
replacements are small or beyond every resource cap, so each run stays
short.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from orbipar.cli import demo_scenario, main

DEMOS = ["kummer(2,5,1)", "kummer(3,7)", "artin-schreier(2)", "sign-twist",
         "z6-two-points", "tower-2-4", "multipoint-mixed"]


def _perfbench_scenarios():
    """The first seed-1 document of each perfbench workload, by workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: workloads.generate(name, workloads.DEFAULT_SEED)[0]
            for name in workloads.WORKLOADS}


PERFBENCH = _perfbench_scenarios()
SOURCES = {name: demo_scenario(name) for name in DEMOS} | PERFBENCH

VALUES = [-1, 0, 1, 2, 3, 4, 10 ** 6, 2.5, True, None, "", "p", "E",
          [], [0], [0, 1], {}, {"kind": "cyclic", "n": 2}]


def _places(node, path=()):
    """Every (path, value) below node, the root excluded, in document order."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _places(value, path + (key,))


# the maps whose keys are names the document chooses
NAMED = {"extensions", "embeddings", "scenes", "data"}


def _role(path):
    """What a value at path stands for: its path with list indices and
    defined names left out, as ("data", None, "points", None, "ext")."""
    return tuple(None if isinstance(key, int) or (i == 1 and path[0] in NAMED) else key
                 for i, key in enumerate(path))


def _objects_by_role():
    """Every object of every source, by role."""
    pool = {}
    for doc in SOURCES.values():
        for path, value in _places(doc):
            if isinstance(value, dict):
                pool.setdefault(_role(path), []).append(value)
    return pool


OBJECTS = _objects_by_role()

# the places each action can change, by their path and the value found there
TARGETS = {"nearby": lambda path, value: type(value) is int,
           "relabel": lambda path, value: isinstance(value, str),
           # a defined name: a key of a named map, which an earlier change
           # may have replaced by a list
           "rename": lambda path, value: (len(path) == 2 and path[0] in NAMED
                                          and isinstance(path[1], str)),
           "splice": lambda path, value: isinstance(value, dict)}


def _names(doc):
    """The names the document defines."""
    return {p[1] for p, _ in _places(doc) if TARGETS["rename"](p, None)}


def _rewrite(node, old, new):
    """Every string old below node replaced by new, in place."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if value == old and isinstance(value, str):
            node[key] = new
        elif isinstance(value, (dict, list)):
            _rewrite(value, old, new)


def _mutate(doc, where, action, value, pick):
    """One change at the place `where` chooses; `pick` chooses the integer
    step, the string, the key or the object a type-keeping change puts in."""
    places = [(path, old) for path, old in _places(doc)
              if action not in TARGETS or TARGETS[action](path, old)]
    if not places:
        return
    path, old = places[where % len(places)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    elif action == "replace":
        parent[path[-1]] = json.loads(json.dumps(value))
    elif action == "nearby":
        parent[path[-1]] = old + (-1, 1)[pick % 2]
    elif action == "relabel":
        # a string found in the same role, or a name the document defines
        labels = sorted(_names(doc) | {v for p, v in _places(doc)
                                       if isinstance(v, str) and _role(p) == _role(path)})
        parent[path[-1]] = labels[pick % len(labels)]
    elif action == "rename":
        # a defined name renamed to a string of the document, references included
        fresh = sorted({v for _, v in _places(doc) if isinstance(v, str)} - set(parent))
        if fresh:
            new = fresh[pick % len(fresh)]
            parent[new] = parent.pop(path[-1])
            _rewrite(doc, path[-1], new)
    else:
        objects = OBJECTS.get(_role(path), [old])    # an earlier change may move a role
        parent[path[-1]] = json.loads(json.dumps(objects[pick % len(objects)]))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


ACTIONS = ["replace", "delete", *TARGETS]

mutations = st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(ACTIONS),
                               st.sampled_from(VALUES), st.integers(0, 10 ** 6)),
                     min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=st.sampled_from(DEMOS + sorted(PERFBENCH)), changes=mutations)
def test_mutated_demo_scenarios_exit_cleanly(source, changes):
    doc = json.loads(json.dumps(SOURCES[source]))
    for where, action, value, pick in changes:
        _mutate(doc, where, action, value, pick)
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "scenario.json"
        f.write_text(json.dumps(doc))
        verify_code, verify_text = _cli(["verify", str(f)])
        run_code, run_text = _cli(["run", str(f), "--json-out", str(Path(tmp) / "r.json")])
    assert verify_code in (0, 2)
    assert run_code in (0, 1, 2, 3)
    assert "Traceback" not in verify_text + run_text
    # run loads the file as verify does: a file verify rejects is a bad scenario
    assert (verify_code == 2) == ("error: bad scenario" in run_text)
