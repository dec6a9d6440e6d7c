"""Command-line entry points.

    orbipar run <file> [--json-out <file>] [--seed <u64>] [--precision <N>]
    orbipar demo <name> [-o <file>]
    orbipar verify <file>

Exit codes for run: 0 all commands pass, 1 any failure, 2 structural error,
3 inconclusive-only.  The machine-readable report (--json-out) is canonical
and carries no timing, so equal (scenario, seed) pairs are byte-identical;
wall-clock timing appears only in the human-readable stdout.
"""

import argparse
import json
import sys
import time

from .errors import OrbiparError, ScenarioError
from .scenario import (SCENARIO_SCHEMA, canonical_report, exit_code, load_scenario,
                       run_scenario)


def _demo_params(name, prefix, usage, counts):
    """The integer parameters of a demo name `prefix(a,b,...)`; their number
    must be in `counts`."""
    try:
        parts = [int(x) for x in name[len(prefix):-1].split(",")]
    except ValueError:
        parts = None
    if parts is None or len(parts) not in counts:
        raise ScenarioError(f"bad demo parameters in {name!r}; expected {usage}")
    return parts


def demo_scenario(name: str) -> dict:
    """Built-in demo corpora; names as documented (kummer(n,p,k) etc.)."""
    if name.startswith("kummer(") and name.endswith(")"):
        n, p, k = (_demo_params(name, "kummer(", "kummer(n,p[,k]) with integers",
                                (2, 3)) + [1])[:3]
        return {
            "schema": SCENARIO_SCHEMA,
            "field": {"p": p, "k_deg": k},
            "precision": 32,
            "seed": 1,
            "extensions": {"E": {"kind": "kummer", "n": n}},
            "commands": [{"op": "verify_extension", "ext": "E"}],
        }
    if name.startswith("artin-schreier(") and name.endswith(")"):
        p, = _demo_params(name, "artin-schreier(", "artin-schreier(p) with an integer", (1,))
        return {
            "schema": SCENARIO_SCHEMA,
            "field": {"p": p},
            "precision": 32,
            "seed": 1,
            "extensions": {"E": {"kind": "artin_schreier"}},
            "commands": [{"op": "verify_extension", "ext": "E"}],
        }
    if name == "sign-twist":
        return {
            "schema": SCENARIO_SCHEMA,
            "field": {"p": 5},
            "precision": 16,
            "seed": 11,
            "extensions": {"K2": {"kind": "kummer", "n": 2}},
            "scenes": {"cover": {"group": {"kind": "cyclic", "n": 2},
                                 "points": [{"label": "p", "ext": "K2",
                                             "totally_ramified": True}]}},
            "data": {"sign": {"kind": "sign_twist", "label": "p"}},
            "commands": [
                {"op": "validate_parabolic", "datum": "sign"},
                {"op": "is_induced", "datum": "sign",
                 "expect": {"induced": False, "profile": [1]}},
                {"op": "trivialize", "datum": "sign",
                 "expect": {"found": False, "proven": True, "stage": "residue"}},
                {"op": "roundtrip", "datum": "sign", "scene": "cover"},
            ],
        }
    if name == "z6-two-points":
        return {
            "schema": SCENARIO_SCHEMA,
            "field": {"p": 7},
            "precision": 12,
            "seed": 606,
            "extensions": {"K3": {"kind": "kummer", "n": 3}},
            "scenes": {"cover": {"group": {"kind": "cyclic", "n": 6},
                                 "points": [{"label": "p", "ext": "K3",
                                             "iso": [0, 2, 4],
                                             "transversal": [0, 1]}]}},
            "data": {"d": {"kind": "random", "rank": 1, "seed": 9,
                           "points": [{"label": "p", "ext": "K3",
                                       "character_exponent": 1}]}},
            "commands": [
                {"op": "assemble", "datum": "d", "scene": "cover"},
                {"op": "connector_independence", "datum": "d", "scene": "cover",
                 "seeds2": [3]},
                {"op": "roundtrip", "datum": "d", "scene": "cover"},
                {"op": "random_roundtrips", "scene": "cover", "count": 5,
                 "rank": 2, "character_exponents": [0, 1, 2], "seed": 607},
            ],
        }
    if name == "tower-2-4":
        return {
            "schema": SCENARIO_SCHEMA,
            "field": {"p": 5},
            "precision": 16,
            "seed": 24,
            "extensions": {"K2": {"kind": "kummer", "n": 2},
                           "K4": {"kind": "kummer", "n": 4}},
            "embeddings": {"tower": {"kind": "kummer_tower", "n": 2, "m": 4},
                           "idK4": {"kind": "identity", "ext": "K4"}},
            "data": {"sign": {"kind": "sign_twist", "label": "p"},
                     "triv": {"kind": "trivial", "rank": 1,
                              "points": [{"label": "p", "ext": "K2"}]}},
            "commands": [
                {"op": "pullback_refine", "datum": "sign",
                 "refinement": {"p": "tower"}, "store_as": "sign4"},
                {"op": "equiv", "datum1": "sign", "datum2": "sign4",
                 "refinement1": {"p": "tower"}, "refinement2": {"p": "idK4"},
                 "expect": {"status": "isomorphic", "proven": True}},
                {"op": "equiv", "datum1": "sign", "datum2": "triv",
                 "refinement1": {"p": "tower"}, "refinement2": {"p": "tower"},
                 "expect": {"status": "distinct", "proven": True}},
                {"op": "tower_compat", "datum": "sign", "embedding": "tower"},
                {"op": "dual_involution", "datum": "sign"},
                {"op": "dual_pairing", "datum": "sign"},
            ],
        }
    if name == "multipoint-mixed":
        return {
            "schema": SCENARIO_SCHEMA,
            "field": {"p": 3},
            "precision": 12,
            "seed": 36,
            "extensions": {"K2": {"kind": "kummer", "n": 2},
                           "AS3": {"kind": "artin_schreier"}},
            "scenes": {"cover": {"group": {"kind": "cyclic", "n": 6},
                                 "points": [
                                     {"label": "A", "ext": "K2",
                                      "iso": [0, 3], "transversal": [0, 1, 2]},
                                     {"label": "B", "ext": "AS3",
                                      "iso": [0, 2, 4], "transversal": [0, 1]}]}},
            "data": {"d": {"kind": "random", "rank": 1, "seed": 5,
                           "points": [{"label": "A", "ext": "K2",
                                       "character_exponent": 1},
                                      {"label": "B", "ext": "AS3"}]}},
            "commands": [
                {"op": "validate_parabolic", "datum": "d"},
                {"op": "multipoint_roundtrip", "datum": "d", "scene": "cover"},
            ],
        }
    raise ScenarioError(
        f"unknown demo {name!r}; available: kummer(n,p[,k]), artin-schreier(p), "
        "sign-twist, z6-two-points, tower-2-4, multipoint-mixed")


def _cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    if isinstance(doc, dict):
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.precision is not None:
            doc["precision"] = args.precision
    try:
        sc = load_scenario(doc)
    except OrbiparError as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    report = run_scenario(sc)
    elapsed = time.perf_counter() - t0
    for entry in report["results"]:
        msg = entry["detail"].get("message") or entry["detail"].get("detail") or ""
        print(f"[{entry['index']}] {entry['op']}: {entry['status'].upper()}"
              + (f" - {msg}" if msg else ""))
    s = report["summary"]
    print(f"summary: {s['pass']} pass, {s['fail']} fail, "
          f"{s['inconclusive']} inconclusive, {s['error']} error "
          f"({elapsed:.2f}s)")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_report(report))
    return exit_code(report)


def _cmd_demo(args) -> int:
    try:
        doc = demo_scenario(args.name)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
        load_scenario(doc)
    except (OSError, json.JSONDecodeError, OrbiparError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print("scenario is well-formed; all references resolve")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="orbipar",
                                     description="exact engine for semilinear "
                                     "cocycles and parabolic data over local fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--json-out", help="write the canonical machine-readable report")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--precision", type=int, help="override the working precision")
    p_run.set_defaults(func=_cmd_run)

    p_demo = sub.add_parser("demo", help="emit a built-in demo scenario")
    p_demo.add_argument("name")
    p_demo.add_argument("-o", "--output")
    p_demo.set_defaults(func=_cmd_demo)

    p_verify = sub.add_parser("verify", help="validation-only pass over a scenario")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
