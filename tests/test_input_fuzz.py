"""Bounded fuzz test of the input boundary: mutated demo scenarios and
perfbench scenarios.

Each example takes one demo scenario or the first seed-1 scenario of a
perfbench workload (perfbench/workloads.py, imported as it is), changes
one to three places in its JSON tree (a value replaced by one of a fixed
menu, or a key or list item deleted) and runs `orbipar verify` and
`orbipar run` on it in-process through cli.main.  Neither may raise, both
must exit with a documented code, and verify and run must agree on whether
the file loads.  The integer replacements are small or beyond every
resource cap, so each run stays short.
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

VALUES = [-1, 0, 1, 2, 3, 4, 10 ** 6, 2.5, True, None, "", "p", "E",
          [], [0], [0, 1], {}, {"kind": "cyclic", "n": 2}]


def _places(node, path=()):
    """Every (path, value) below node, the root excluded, in document order."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _places(value, path + (key,))


def _mutate(doc, where, action, value):
    places = list(_places(doc))
    path = places[where % len(places)][0]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(value))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


mutations = st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(["replace", "delete"]),
                               st.sampled_from(VALUES)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=st.sampled_from(DEMOS + sorted(PERFBENCH)), changes=mutations)
def test_mutated_demo_scenarios_exit_cleanly(source, changes):
    doc = json.loads(json.dumps(PERFBENCH[source])) if source in PERFBENCH \
        else demo_scenario(source)
    for where, action, value in changes:
        _mutate(doc, where, action, value)
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
