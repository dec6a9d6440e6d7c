"""Seeded generators for the benchmark's scenario workloads.

Each workload turns a seed into a list of plain ``orbipar-scenario/1``
documents (dicts of str, int, bool and lists).  Nothing else reaches the
program: the benchmark hands each document to ``load_scenario`` as it is.

Every scenario of a workload has the same shape (field, precision, ranks,
scenes and command list); the seed draws only the data seeds, the character
exponents and the connector choices.  Scenario latencies are therefore
unimodal, so their median and tail stay put from seed to seed.

Every command is expected to end with status ``pass``.  Where a command's
outcome is known from the way its datum was built, the document carries an
``expect`` clause, so a wrong answer turns into ``fail``.
"""

import random

SCHEMA = "orbipar-scenario/1"
EXPECTED_STATUS = "pass"

# name -> one-line reason, stated size, and scenarios generated per seed
WORKLOADS = {
    "tame-roundtrip": {
        "why": "T∘S/S∘T round trips on Kummer actions s -> zeta*s: diagonal substitution "
               "and prime-field kernels dominate, the solver is small",
        "size": "GF(7), N=16, Kummer Z/3; per scenario ranks 1 and 2 on the two-component "
                "Z/6 scene and rank 3 on the totally ramified Z/3 scene, 16 commands",
        "scenarios": 24,
    },
    "wild-extfield": {
        "why": "wild Artin-Schreier data over GF(9): dense substitution s/(1+cs), "
               "log-table kernels and solver-heavy invariants and trivialize",
        "size": "GF(3^2), N=24, Artin-Schreier Z/3; rank 2 on the totally ramified scene, "
                "rank 1 on the mixed Kummer-Z/2 + Artin-Schreier Z/6 scene, 8 commands",
        "scenarios": 24,
    },
    "calculus": {
        "why": "dual/tensor calculus: dense solves in find_parabolic_isomorphism and "
               "field ops dominate, kernels see short vectors",
        "size": "GF(13), N=8, Kummer Z/4 and tower Z/2->Z/4; rank 2 for dual, V(x)V*, "
                "pairing and End invariants, rank 1 for pushforward, adjunction, "
                "refinement and equivalence, 11 commands",
        "scenarios": 24,
    },
}

DEFAULT_SEED = 1


def _rng(workload, seed):
    return random.Random(f"orbipar-bench/{workload}/{seed}")


def _seed(rng):
    return rng.getrandbits(62)


def _random_datum(rng, rank, points):
    return {"kind": "random", "rank": rank, "seed": _seed(rng), "points": points}


def _tame(rng):
    exps = [rng.randrange(3) for _ in range(3)]
    ranks = (1, 2, 3)
    scene_of = ("z6", "z6", "z3")
    data = {f"d{r}": _random_datum(rng, r, [{"label": "p", "ext": "K3",
                                              "character_exponent": e}])
            for r, e in zip(ranks, exps)}
    commands = [{"op": "verify_extension", "ext": "K3"}]
    for r, e, scene in zip(ranks, exps, scene_of):
        d = f"d{r}"
        # Z/6 connectors: component 0 goes to 1 under the odd elements 1, 3, 5
        seeds2 = [rng.choice((3, 5))] if scene == "z6" else []
        commands += [
            {"op": "verify_cocycle", "datum": d},
            {"op": "assemble", "datum": d, "scene": scene},
            {"op": "connector_independence", "datum": d, "scene": scene, "seeds2": seeds2},
            {"op": "roundtrip", "datum": d, "scene": scene},
            # a character chi^e gives residue profile -e mod 3 and is induced iff e = 0
            {"op": "is_induced", "datum": d,
             "expect": {"induced": e == 0, "profile": [(-e) % 3] * r}},
        ]
    return {
        "schema": SCHEMA,
        "field": {"p": 7},
        "precision": 16,
        "seed": _seed(rng),
        "extensions": {"K3": {"kind": "kummer", "n": 3}},
        "scenes": {
            "z6": {"group": {"kind": "cyclic", "n": 6},
                   "points": [{"label": "p", "ext": "K3", "iso": [0, 2, 4],
                               "transversal": [0, 1]}]},
            "z3": {"group": {"kind": "cyclic", "n": 3},
                   "points": [{"label": "p", "ext": "K3", "totally_ramified": True}]},
        },
        "data": data,
        "commands": commands,
    }


def _wild(rng):
    rank = 2
    return {
        "schema": SCHEMA,
        "field": {"p": 3, "k_deg": 2},
        "precision": 24,
        "seed": _seed(rng),
        "extensions": {"AS": {"kind": "artin_schreier"},
                       "K2": {"kind": "kummer", "n": 2}},
        "scenes": {
            "tr": {"group": {"kind": "cyclic", "n": 3},
                   "points": [{"label": "p", "ext": "AS", "totally_ramified": True}]},
            "mixed": {"group": {"kind": "cyclic", "n": 6},
                      "points": [{"label": "A", "ext": "K2", "iso": [0, 3],
                                  "transversal": [0, 1, 2]},
                                 {"label": "B", "ext": "AS", "iso": [0, 2, 4],
                                  "transversal": [0, 1]}]},
        },
        "data": {
            # GF(9) has no primitive cube root of unity, so the wild datum is a
            # pure coboundary: trivial, induced, with full-rank invariants
            "d": _random_datum(rng, rank, [{"label": "p", "ext": "AS"}]),
            "m": _random_datum(rng, 1, [{"label": "A", "ext": "K2",
                                         "character_exponent": rng.randrange(2)},
                                        {"label": "B", "ext": "AS"}]),
        },
        "commands": [
            {"op": "verify_extension", "ext": "AS"},
            {"op": "verify_cocycle", "datum": "d"},
            {"op": "invariants", "datum": "d", "expect": {"rank": rank}},
            {"op": "is_induced", "datum": "d",
             "expect": {"induced": True, "profile": [0] * rank}},
            {"op": "trivialize", "datum": "d", "expect": {"found": True, "proven": True}},
            {"op": "roundtrip", "datum": "d", "scene": "tr"},
            {"op": "multipoint_roundtrip", "datum": "m", "scene": "mixed"},
            {"op": "weights", "datum": "d",
             "expect": {"error": "weights undefined: wild inertia"}},
        ],
    }


def _calculus(rng):
    ev, eu, ew = rng.randrange(4), rng.randrange(4), rng.randrange(2)
    return {
        "schema": SCHEMA,
        "field": {"p": 13},
        "precision": 8,
        "seed": _seed(rng),
        "extensions": {"K4": {"kind": "kummer", "n": 4},
                       "K2": {"kind": "kummer", "n": 2}},
        "embeddings": {"tower": {"kind": "kummer_tower", "n": 2, "m": 4},
                       "idK4": {"kind": "identity", "ext": "K4"}},
        "scenes": {"tr": {"group": {"kind": "cyclic", "n": 4},
                          "points": [{"label": "p", "ext": "K4",
                                      "totally_ramified": True}]}},
        "data": {
            "v": _random_datum(rng, 2, [{"label": "p", "ext": "K4", "character_exponent": ev}]),
            "u": _random_datum(rng, 1, [{"label": "p", "ext": "K4", "character_exponent": eu}]),
            "w": _random_datum(rng, 1, [{"label": "p", "ext": "K2", "character_exponent": ew}]),
        },
        "commands": [
            {"op": "dual", "datum": "v", "store_as": "v_dual"},
            {"op": "tensor", "datum1": "v", "datum2": "v_dual", "store_as": "end_v"},
            {"op": "dual_involution", "datum": "v"},
            {"op": "dual_pairing", "datum": "v"},
            # End(V) of a twisted coboundary is trivial: rank^2 invariant sections
            {"op": "invariants", "datum": "end_v", "expect": {"rank": 4}},
            {"op": "pushforward", "datum": "u", "scene": "tr"},
            # the character chi^e gives the single weight e/4, with multiplicity rank
            {"op": "weights", "datum": "v", "expect": {"weights": [[ev, 4, 2]]}},
            {"op": "weights", "datum": "u", "expect": {"weights": [[eu, 4, 1]]}},
            {"op": "pullback_refine", "datum": "w", "refinement": {"p": "tower"},
             "store_as": "w4"},
            {"op": "equiv", "datum1": "w", "datum2": "w4",
             "refinement1": {"p": "tower"}, "refinement2": {"p": "idK4"},
             "expect": {"status": "isomorphic", "proven": True}},
            {"op": "adjunction", "datum": "u"},
        ],
    }


_MAKERS = {"tame-roundtrip": _tame, "wild-extfield": _wild, "calculus": _calculus}


def generate(workload, seed):
    """The workload's scenario documents for ``seed``; same seed, same documents."""
    rng = _rng(workload, seed)
    make = _MAKERS[workload]
    return [make(rng) for _ in range(WORKLOADS[workload]["scenarios"])]
