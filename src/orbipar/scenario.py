"""Scenario files: versioned JSON in, deterministic reports out.

Coefficient arrays are little-endian in the exponent (index i is the
coefficient of s^i); Laurent blocks carry an explicit val_floor; field
elements are integer encodings (base-p digit vectors).  Commands run in
order and may reference results stored by earlier commands; reports are
canonical JSON (sorted keys, no whitespace, no wall-clock data), so fixed
(scenario, seed) pairs reproduce byte-identical reports.
"""

import difflib
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .equivariant import (Cocycle, independence_intertwiner, invariants, is_induced,
                          make_connectors, trivialize, verify_cocycle)
from .errors import AssemblyError, OrbiparError, ScenarioError
from .fields import make_field
from .groups import group_from_config
from .linalg import Matrix
from .local_galois import (identity_embedding, kummer_tower, make_artin_schreier,
                           make_embedding, make_explicit, make_kummer,
                           trivial_extension, verify_extension)
from .memo import run_scope
from .parabolic import (CoverScene, ParabolicDatum, ParabolicPoint, ScenePoint,
                        functor_T, point_module, random_datum,
                        roundtrip_check, multipoint_map, sign_twist_datum,
                        totally_ramified_scene, trivial_datum, validate_parabolic)
from .prng import SplitMix64
from .pvect import (RefinementMap, ScenePullback, adjunction_check, dual,
                    dual_pairing_check, equiv_check, extract_weights,
                    pullback_refine, pullback_T_compat, pushforward_local, tensor)
from .series import Laurent, Series

SCENARIO_SCHEMA = "orbipar-scenario/1"
REPORT_SCHEMA = "orbipar-report/1"

# Resource caps, checked before any work starts.  With field order at most
# 2^16, a packed kernel product fits its 64-bit slots when short * inner <=
# 2^32 (its slots hold (p-1)^2 * k * short * inner, short <= the precision,
# and (p-1)^2 * k < 2^32 for every such GF(p^k)).  The caps give short *
# inner <= 2^10 * 2^12 for products of data and of their Hom spaces (ranks
# up to MAX_RANK^2; tensor results are data), and 2^10 * 2^6 * l for a
# pushforward with l components (its rank is l*r*e at precision N/e), so up
# to 2^16 components.  A packed prime-field elimination keeps 64-bit slots
# up to 2^32 pivots, against at most 2^22 unknowns in one Hom block at the
# caps.  Past the bound the kernels raise StructuralError.
MAX_PRECISION = 1024
MAX_RANK = 64
MAX_ROUNDTRIPS = 1000     # random_roundtrips count
# Group orders (cyclic, dihedral, product and table groups, Kummer degrees,
# tower n and m) are checked before a group's order x order table is built,
# whose cost grows as order^2: cyclic n = 2000 took 0.44 s to build.
MAX_GROUP_ORDER = 256


# ---------------------------------------------------------------------------
# serialization helpers


def series_to_json(s: Series):
    return list(s.coeffs)

def laurent_to_json(x: Laurent):
    return {"val_floor": x.val_floor, "coeffs": list(x.coeffs)}

def matrix_to_json(m: Matrix):
    if m.kind is Laurent:
        return [[laurent_to_json(e) for e in row] for row in m.entries]
    return [[series_to_json(e) for e in row] for row in m.entries]

def coeffs_from_json(field, prec, data, where):
    """data, which must be a list of at most prec JSON integers in
    0..|k|-1; anything else (a longer list, a bool, a float, a string, null)
    is a ScenarioError naming `where`."""
    if not isinstance(data, list):
        raise ScenarioError(f"{where}: coefficients must be a list, got {data!r}")
    if len(data) > prec:
        raise ScenarioError(f"{where}: {len(data)} coefficients exceed the precision {prec}")
    for x in data:
        if not (_is_int(x) and 0 <= x < field.order):
            raise ScenarioError(f"{where}: coefficient {x!r} is not an integer in "
                                f"0..{field.order - 1}")
    return data

def series_from_json(field, prec, data, where="series"):
    return Series.from_coeffs(field, coeffs_from_json(field, prec, data, where), prec)

def laurent_from_json(field, prec, data, where="Laurent value"):
    if isinstance(data, dict):
        return Laurent.exact(field, _int(data["val_floor"], f"{where}: val_floor"),
                             coeffs_from_json(field, prec, data["coeffs"], where), prec)
    return Laurent.exact(field, 0, coeffs_from_json(field, prec, data, where), prec)

def matrix_from_json(field, prec, data, laurent=False, where="matrix"):
    entry = laurent_from_json if laurent else series_from_json
    return Matrix([[entry(field, prec, e, f"{where} entry ({i}, {j})")
                    for j, e in enumerate(row)] for i, row in enumerate(data)])


# ---------------------------------------------------------------------------
# scenario loading


@dataclass
class Scenario:
    field: object
    seed: int
    budgets: dict
    extensions: dict
    embeddings: dict
    scenes: dict
    data: dict
    commands: list


def _resolve(table, cfg, key):
    """table[cfg[key]]; a missing or unknown name is a ScenarioError."""
    name = cfg.get(key)
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ScenarioError(f"{key} {name!r} does not resolve") from None


def load_scenario(doc: dict) -> Scenario:
    """Build a Scenario; any malformed input ends in ScenarioError."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"a scenario is a JSON object, not {type(doc).__name__}")
    at = ["the document"]
    try:
        return _load(doc, at)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario at {at[0]}: {type(exc).__name__}: {exc}") \
            from exc


def _load(doc, at):
    """load_scenario's work; at[0] names the object being read."""
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(f"unsupported schema {doc.get('schema')!r}; "
                            f"expected {SCENARIO_SCHEMA!r}")
    if "seed" not in doc:
        raise ScenarioError("scenario files must carry an explicit seed")
    at[0] = "field"
    fcfg = doc.get("field", {})
    field = make_field(_int(fcfg.get("p", 5), "field p"),
                       _int(fcfg.get("k_deg", 1), "field k_deg"),
                       tuple(fcfg["modulus"]) if "modulus" in fcfg else None)
    at[0] = "the document"
    prec = _int(doc.get("precision", 16), "precision")
    if not 1 <= prec <= MAX_PRECISION:
        raise ScenarioError(f"precision must be in 1..{MAX_PRECISION}, got {prec}")
    seed = _int(doc["seed"], "seed")
    budgets = {"residue_cap": 10 ** 6, "random_tries": 300}
    budgets.update(_object(doc.get("budgets", {}), "budgets"))
    for key, value in budgets.items():
        _int(value, f"budget {key}")

    exts = {}
    at[0] = "extensions"
    for name, cfg in doc.get("extensions", {}).items():
        at[0] = f"extension {name!r}"
        kind = cfg.get("kind")
        if prec < 2:
            raise ScenarioError(f"extension {name!r}: precision {prec} < 2 cannot hold s")
        if kind == "kummer":
            where = f"extension {name!r}"
            exts[name] = make_kummer(field, _group_order(_int(cfg["n"], f"{where}: n"), where),
                                     prec)
        elif kind == "artin_schreier":
            exts[name] = make_artin_schreier(field, prec)
        elif kind == "trivial":
            exts[name] = trivial_extension(field, prec)
        elif kind == "explicit":
            group = _group(cfg["group"], f"extension {name!r}")
            action = [series_from_json(field, prec, c, f"{at[0]}: action {g}")
                      for g, c in enumerate(cfg["action"])]
            t = series_from_json(field, prec, cfg["t"], f"{at[0]}: t")
            exts[name] = make_explicit(field, prec, group, action, t)
        else:
            raise ScenarioError(f"extension {name!r}: unknown kind {kind!r}")

    embs = {}
    at[0] = "embeddings"
    for name, cfg in doc.get("embeddings", {}).items():
        at[0] = f"embedding {name!r}"
        kind = cfg.get("kind")
        if kind == "kummer_tower":
            where = f"embedding {name!r}"
            embs[name] = kummer_tower(field, _group_order(_int(cfg["n"], f"{where}: n"), where),
                                      _group_order(_int(cfg["m"], f"{where}: m"), where), prec)
        elif kind == "identity":
            embs[name] = identity_embedding(_resolve(exts, cfg, "ext"))
        elif kind == "explicit":
            embs[name] = make_embedding(
                _resolve(exts, cfg, "small"), _resolve(exts, cfg, "big"),
                series_from_json(field, prec, cfg["s_image"], f"{at[0]}: s_image"),
                tuple(cfg["quotient"]))
        else:
            raise ScenarioError(f"embedding {name!r}: unknown kind {kind!r}")

    scenes = {}
    at[0] = "scenes"
    for name, cfg in doc.get("scenes", {}).items():
        at[0] = f"scene {name!r}"
        group = _group(cfg["group"], at[0])
        pts = []
        for i, p in enumerate(cfg["points"]):
            at[0] = f"scene {name!r} point {i}"
            ext = _resolve(exts, p, "ext")
            if p.get("totally_ramified"):
                iso = tuple(range(ext.group.order))
                transversal = (0,)
            else:
                iso = tuple(p["iso"])
                transversal = tuple(p["transversal"])
            pts.append(ScenePoint(label=p["label"], ext=ext, iso=iso,
                                  transversal=transversal))
        scenes[name] = CoverScene(group=group, points=tuple(pts))

    data = {}
    master = SplitMix64(seed)
    at[0] = "data"
    for name in sorted(doc.get("data", {})):
        at[0] = f"datum {name!r}"
        cfg = doc["data"][name]
        kind = cfg.get("kind")
        if kind in ("trivial", "random", "explicit"):
            rank = _int(cfg["rank"], f"datum {name!r}: rank")
            _check_rank(rank, f"datum {name!r}")
            if not cfg["points"]:
                raise ScenarioError(f"datum {name!r} has no points")
        if kind == "trivial":
            data[name] = trivial_datum(rank,
                                       [(p["label"], _resolve(exts, p, "ext"))
                                        for p in cfg["points"]])
        elif kind == "sign_twist":
            data[name] = sign_twist_datum(field, prec, label=cfg.get("label", "p"))
        elif kind == "random":
            rng = SplitMix64(_int(cfg.get("seed", master.next_u64()), f"datum {name!r}: seed"))
            pts = []
            for p in cfg["points"]:
                dd = random_datum(_resolve(exts, p, "ext"), rank, rng,
                                  label=p["label"],
                                  character_exponent=_int(p.get("character_exponent", 0),
                                                          f"datum {name!r}: character_exponent"))
                pts.append(dd.points[0])
            data[name] = ParabolicDatum(rank=rank, points=tuple(pts))
        elif kind == "explicit":
            pts = []
            for p in cfg["points"]:
                ext = _resolve(exts, p, "ext")
                where = f"datum {name!r} point {p['label']!r}"
                mats = tuple(matrix_from_json(field, prec, m, where=f"{where} cocycle {g}")
                             for g, m in enumerate(p["cocycle"]))
                psi = Cocycle(ext, rank, mats)
                mu = matrix_from_json(field, prec, p["mu"], laurent=True, where=f"{where} mu")
                pts.append(ParabolicPoint(label=p["label"], ext=ext, psi=psi, mu=mu))
            data[name] = ParabolicDatum(rank=rank, points=tuple(pts))
        else:
            raise ScenarioError(f"datum {name!r}: unknown kind {kind!r}")

    at[0] = "commands"

    sc = Scenario(field=field, seed=seed, budgets=budgets, extensions=exts, embeddings=embs,
                  scenes=scenes, data=data, commands=list(doc.get("commands", [])))
    _check_references(sc)
    return sc


# command keys naming scenario objects, by the Scenario table they name
_REFERENCE_KEYS = {"ext": "extensions", "datum": "data", "datum1": "data",
                   "datum2": "data", "scene": "scenes", "embedding": "embeddings"}
# refinement keys, by the datum key whose points they embed
_REFINEMENT_KEYS = {"refinement": "datum", "refinement1": "datum1",
                    "refinement2": "datum2"}
# command keys that name no scenario object, by type
_INT_KEYS = ("count", "rank", "seed", "source_rank")
_INT_LIST_KEYS = ("seeds1", "seeds2", "character_exponents")


def _check_rank(rank, where):
    if not 1 <= rank <= MAX_RANK:
        raise ScenarioError(f"{where}: rank must be in 1..{MAX_RANK}, got {rank}")


def _group_order(order, where):
    if not 1 <= order <= MAX_GROUP_ORDER:
        raise ScenarioError(f"{where}: group order must be in 1..{MAX_GROUP_ORDER}, "
                            f"got {order}")
    return order


def _declared_order(cfg, where):
    """The order a group description declares, each factor of a product and
    the product itself checked against MAX_GROUP_ORDER; a table must be a
    list of rows of JSON integers that name its elements."""
    kind = _object(cfg, f"{where}: group").get("kind")
    if kind == "cyclic":
        order = _int(cfg["n"], f"{where}: n")
    elif kind == "dihedral":
        order = 2 * _int(cfg["n"], f"{where}: n")
    elif kind == "product":
        order = _declared_order(cfg["left"], where) * _declared_order(cfg["right"], where)
    elif kind == "table":
        rows = cfg["table"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ScenarioError(f"{where}: a group table must be a list of rows")
        order = _group_order(len(rows), where)
        for row in rows:
            for x in row:
                if not 0 <= _int(x, f"{where}: group table entry") < order:
                    raise ScenarioError(f"{where}: group table entry {x} is not in "
                                        f"0..{order - 1}")
    else:
        raise ScenarioError(f"{where}: unknown group kind {kind!r}")
    return _group_order(order, where)


def _group(cfg, where):
    """group_from_config(cfg), its order checked before any table is built."""
    _declared_order(cfg, where)
    return group_from_config(cfg)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int(x, what):
    """x, which the document must give as a JSON integer: a bool, a float or
    a string is a ScenarioError, not a number that int() makes of it."""
    if not _is_int(x):
        raise ScenarioError(f"{what} must be an integer, got {x!r}")
    return x


def _object(x, what):
    if not isinstance(x, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {x!r}")
    return x


def _check_references(sc: Scenario):
    """Every command names a known op, every name it refers to resolves,
    counting the data that earlier commands store, and every other key it
    reads has the right type; runs before any command does."""
    # names per table: data and scenes map to their point labels, and stored
    # data keep the labels of the datum they derive from; then each datum's
    # rank and its extensions per point label, where known (see _stores)
    known = {"extensions": dict.fromkeys(sc.extensions),
             "embeddings": dict.fromkeys(sc.embeddings),
             "data": {name: [p.label for p in d.points] for name, d in sc.data.items()},
             "scenes": {name: [p.label for p in s.points] for name, s in sc.scenes.items()},
             "ranks": {name: d.rank for name, d in sc.data.items()},
             "point_exts": {name: {p.label: p.ext for p in d.points}
                            for name, d in sc.data.items()}}
    for i, cmd in enumerate(sc.commands):
        if not isinstance(cmd, dict):
            raise ScenarioError(f"command {i} is not a JSON object")
        op = cmd.get("op")
        if not (isinstance(op, str) and op in OPS):
            close = difflib.get_close_matches(str(op), list(OPS), n=3)
            hint = f"; did you mean {', '.join(close)}?" if close else ""
            raise ScenarioError(f"command {i}: unknown command op {op!r}{hint} "
                                f"(known: {', '.join(OPS)})")
        entry = OPS[op]
        where = f"command {i} ({op})"
        for key in entry.keys:
            if key not in cmd:
                raise ScenarioError(f"{where}: missing {key!r}")
        _object(cmd.get("expect", {}), f"{where}: expect")
        refs = [(key, cmd[key], known[table])
                for key, table in _REFERENCE_KEYS.items() if key in cmd]
        for key in _REFINEMENT_KEYS:
            if key in cmd:
                refs += [(key, name, known["embeddings"])
                         for name in _object(cmd[key], f"{where}: {key}").values()]
        for key, name, names in refs:
            if name not in names:
                raise ScenarioError(f"{where}: {key} {name!r} does not resolve")
        for key, datum in _REFINEMENT_KEYS.items():
            if key in cmd and datum in cmd:
                missing = [lb for lb in known["data"][cmd[datum]] if lb not in cmd[key]]
                if missing:
                    raise ScenarioError(f"{where}: {key} has no embedding for point "
                                        f"{missing[0]!r} of {datum} {cmd[datum]!r}")
        for key in _INT_KEYS:
            if key in cmd:
                _int(cmd[key], f"{where}: {key}")
        for key in _INT_LIST_KEYS:
            if key in cmd and not (isinstance(cmd[key], list) and all(map(_is_int, cmd[key]))):
                raise ScenarioError(f"{where}: {key} must be a list of integers, "
                                    f"got {cmd[key]!r}")
        if cmd.get("character_exponents") == []:
            raise ScenarioError(f"{where}: character_exponents is empty")
        _check_rank(cmd.get("rank", 1), where)
        if "count" in cmd and not 1 <= cmd["count"] <= MAX_ROUNDTRIPS:
            raise ScenarioError(f"{where}: count must be in 1..{MAX_ROUNDTRIPS}, "
                                f"got {cmd['count']}")
        for key, table in (("datum", "data"), ("scene", "scenes")):
            if "point" in cmd and key in cmd and cmd["point"] not in known[table][cmd[key]]:
                raise ScenarioError(f"{where}: {key} {cmd[key]!r} has no point "
                                    f"{cmd['point']!r}")
        if entry.places:
            _check_scene_points(sc, cmd, entry.places, known, where)
        for check in (entry.check, entry.stores):
            if check:
                check(sc, cmd, known, where)


def _check_scene_points(sc, cmd, places, known, where):
    """Every datum point the command places on its scene (all of them, or
    the command's point) is a scene point over the same extension, as
    functor_T requires."""
    labels = known["data"][cmd["datum"]]
    exts = known["point_exts"][cmd["datum"]]
    scene = sc.scenes[cmd["scene"]]
    for label in labels if places == "all" else [cmd.get("point", labels[0])]:
        sp = next((p for p in scene.points if p.label == label), None)
        if sp is None:
            raise ScenarioError(f"{where}: scene {cmd['scene']!r} has no point {label!r} "
                                f"of datum {cmd['datum']!r}")
        if label in exts and exts[label] != sp.ext:
            raise ScenarioError(f"{where}: scene {cmd['scene']!r} and datum "
                                f"{cmd['datum']!r} disagree on the extension at {label!r}")


def _check_connectors(sc, cmd, known, where):
    """Build the connectors of seeds1/seeds2 on the command's scene point, as
    running it will."""
    labels = known["data"][cmd["datum"]]
    label = cmd.get("point", labels[0])
    scene = sc.scenes[cmd["scene"]]
    perms = scene.point(label).perms(scene.group)
    for key in ("seeds1", "seeds2"):
        if key == "seeds1" and not cmd.get(key):
            continue    # the default seeds
        try:
            make_connectors(scene.group, perms, cmd[key])
        except AssemblyError as exc:
            raise ScenarioError(f"{where}: {key} {cmd[key]}: {exc}") from exc


def _check_scene_has_points(sc, cmd, known, where):
    """A command without "point" draws its data at the scene's first point."""
    if "point" not in cmd and not known["scenes"][cmd["scene"]]:
        raise ScenarioError(f"{where}: scene {cmd['scene']!r} has no points to draw "
                            "data at")


def _check_source_rank(sc, cmd, known, where):
    """adjunction tensors its datum with a trivial one of rank source_rank."""
    rank, source_rank = known["ranks"][cmd["datum"]], cmd.get("source_rank", 1)
    if not 1 <= source_rank <= MAX_RANK // rank:
        raise ScenarioError(f"{where}: source_rank must be in 1..{MAX_RANK // rank} "
                            f"for datum {cmd['datum']!r} of rank {rank}, got {source_rank}")


def _stores(*sources, keeps_exts=True):
    """The load check of an op that stores a datum built from the data its
    `sources` keys name: that datum's rank, the product of theirs, lies in
    1..MAX_RANK, and under store_as it keeps the first source's point labels
    and, if `keeps_exts`, its extensions (a pullback's are its refinement's)."""
    def check(sc, cmd, known, where):
        rank = math.prod(known["ranks"][cmd[key]] for key in sources)
        _check_rank(rank, where)
        if "store_as" in cmd:
            stored, source = cmd["store_as"], cmd[sources[0]]
            known["data"][stored] = known["data"][source]
            known["point_exts"][stored] = known["point_exts"][source] if keeps_exts else {}
            known["ranks"][stored] = rank
    return check


# ---------------------------------------------------------------------------
# command execution


def _refinement_from(sc, cmd, key):
    cfg = cmd[key]
    return RefinementMap(embeddings={label: _resolve(sc.embeddings, cfg, label) for label in cfg})


def _command_point(sc, cmd):
    """The point of the command's datum that "point" names, by default the first."""
    d = _resolve(sc.data, cmd, "datum")
    return d.point(cmd.get("point", d.points[0].label))


class Outcome(NamedTuple):
    """What an op's runner returns."""
    result: dict
    certificates: dict = None
    status: str = None      # None: a result with "ok" passes or fails by it, others pass
    datum: object = None    # what a storing op stores under store_as


class Op(NamedTuple):
    """One command op, an entry of OPS."""
    keys: tuple              # the keys a command must carry
    run: Callable            # (sc, cmd, rng) -> Outcome
    places: str = None       # datum points placed on its scene: "all" or the command's "point"
    check: Callable = None   # its own load check, (sc, cmd, known, where) -> None
    stores: Callable = None  # an op that stores its datum under store_as: its _stores check


def _run_verify_extension(sc, cmd, rng):
    rep = verify_extension(_resolve(sc.extensions, cmd, "ext"))
    return Outcome({"ok": rep.ok, "message": rep.message})

def _run_verify_cocycle(sc, cmd, rng):
    results = {}
    ok = True
    for pt in _resolve(sc.data, cmd, "datum").points:
        rep = verify_cocycle(pt.psi)
        results[pt.label] = {"ok": rep.ok, "message": rep.message,
                             "failing_pair": rep.detail}
        ok = ok and rep.ok
    return Outcome({"ok": ok, "points": results})

def _run_validate_parabolic(sc, cmd, rng):
    rep = validate_parabolic(_resolve(sc.data, cmd, "datum"))
    return Outcome({"ok": rep.ok, "message": rep.message})

def _run_invariants(sc, cmd, rng):
    res = invariants(_command_point(sc, cmd).psi)
    certs = {"generators": [[series_to_json(s) for s in g] for g in res.generators],
             "natural": matrix_to_json(res.natural)}
    return Outcome({"rank": len(res.generators), "base_prec": res.base_prec,
                    "fixed_dim": res.fixed_dim}, certs)

def _run_is_induced(sc, cmd, rng):
    rep = is_induced(_command_point(sc, cmd).psi)
    return Outcome({"induced": rep.induced, "profile": list(rep.profile)})

def _run_trivialize(sc, cmd, rng):
    res = trivialize(_command_point(sc, cmd).psi, budget=sc.budgets["residue_cap"],
                     rng=rng.fork())
    certs = {"b": matrix_to_json(res.b)} if res.b is not None else None
    status = "pass" if res.found else ("fail" if res.found is False else "inconclusive")
    return Outcome({"found": res.found, "stage": res.stage, "proven": res.proven,
                    "detail": res.detail}, certs, status)

def _run_assemble(sc, cmd, rng):
    b = functor_T(_resolve(sc.data, cmd, "datum"), _resolve(sc.scenes, cmd, "scene"))
    return Outcome({"ok": True, "components": {pt.label: pt.module.spec.size
                                               for pt in b.points}})

def _run_connector_independence(sc, cmd, rng):
    dpt = _command_point(sc, cmd)
    scene = _resolve(sc.scenes, cmd, "scene")
    sp = scene.point(dpt.label)
    perms = sp.perms(scene.group)
    seeds1 = cmd.get("seeds1") or sp.default_seeds(scene.group)
    conn1 = make_connectors(scene.group, perms, list(seeds1))
    conn2 = make_connectors(scene.group, perms, list(cmd["seeds2"]))
    m1 = point_module(dpt, sp, scene.group, connectors=conn1)
    m2 = point_module(dpt, sp, scene.group, connectors=conn2)
    tau = independence_intertwiner(m1, m2)
    return Outcome({"ok": True, "components": len(tau.blocks)},
                   {"tau": [matrix_to_json(b_) for b_ in tau.blocks]})

def _run_roundtrip(sc, cmd, rng):
    rep = roundtrip_check(_resolve(sc.data, cmd, "datum"), _resolve(sc.scenes, cmd, "scene"))
    certs = ({"sigmas": {lb: matrix_to_json(m) for lb, m in rep.sigmas.items()}}
             if rep.sigmas else None)
    return Outcome({"ok": rep.ok, "message": rep.message, "per_point": rep.per_point}, certs)

def _run_multipoint_roundtrip(sc, cmd, rng):
    rep = multipoint_map(_resolve(sc.data, cmd, "datum"), _resolve(sc.scenes, cmd, "scene"))
    return Outcome({"ok": rep.ok, "per_point": rep.per_point})

def _run_random_roundtrips(sc, cmd, rng):
    scene = _resolve(sc.scenes, cmd, "scene")
    count, max_rank = cmd.get("count", 20), cmd.get("rank", 2)
    exps = cmd.get("character_exponents", [0])
    label = cmd.get("point", scene.points[0].label)
    sp = scene.point(label)
    sub = SplitMix64(cmd.get("seed", sc.seed))
    failures = []
    for i in range(count):
        rank = 1 + sub.randrange(max_rank)
        exp = exps[sub.randrange(len(exps))]
        d = random_datum(sp.ext, rank, sub, label=label, character_exponent=exp)
        rep = roundtrip_check(d, CoverScene(group=scene.group, points=(sp,)))
        if not rep.ok:
            failures.append({"index": i, "rank": rank, "message": rep.message})
    return Outcome({"ok": not failures, "count": count, "failures": failures})

def _run_pullback_refine(sc, cmd, rng):
    out = pullback_refine(_resolve(sc.data, cmd, "datum"),
                          _refinement_from(sc, cmd, "refinement"))
    return Outcome({"ok": True, "rank": out.rank,
                    "group_orders": {p.label: p.ext.group.order for p in out.points}},
                   datum=out)

def _run_equiv(sc, cmd, rng):
    res = equiv_check(_resolve(sc.data, cmd, "datum1"), _resolve(sc.data, cmd, "datum2"),
                      _refinement_from(sc, cmd, "refinement1"),
                      _refinement_from(sc, cmd, "refinement2"), rng=rng.fork(),
                      residue_cap=sc.budgets["residue_cap"],
                      random_tries=sc.budgets["random_tries"])
    certs = ({"g": matrix_to_json(res.g),
              "sigmas": {lb: matrix_to_json(m) for lb, m in res.sigmas.items()}}
             if res.g is not None else None)
    status = {"isomorphic": "pass", "distinct": "fail",
              "inconclusive": "inconclusive"}[res.status]
    return Outcome({"status": res.status, "proven": res.proven, "detail": res.detail},
                   certs, status)

def _run_tensor(sc, cmd, rng):
    out = tensor(_resolve(sc.data, cmd, "datum1"), _resolve(sc.data, cmd, "datum2"))
    return Outcome({"ok": True, "rank": out.rank}, datum=out)

def _run_dual(sc, cmd, rng):
    out = dual(_resolve(sc.data, cmd, "datum"))
    return Outcome({"ok": True, "rank": out.rank}, datum=out)

def _run_dual_involution(sc, cmd, rng):
    d = _resolve(sc.data, cmd, "datum")
    dd = dual(dual(d))
    same = all(
        all(dd.point(p.label).psi.mats[g].agrees_with(p.psi.mats[g])
            for g in range(p.ext.group.order))
        and dd.point(p.label).mu.first_mismatch(p.mu) is None
        for p in d.points)
    return Outcome({"ok": same})

def _run_dual_pairing(sc, cmd, rng):
    rep = dual_pairing_check(_resolve(sc.data, cmd, "datum"), rng=rng.fork())
    return Outcome({"ok": rep.ok, "message": rep.message, "iso_status": rep.iso.status})

def _run_pushforward(sc, cmd, rng):
    b = functor_T(_resolve(sc.data, cmd, "datum"), _resolve(sc.scenes, cmd, "scene"))
    pushed = pushforward_local(b, label=cmd.get("point"))
    inv = pushed.invariants()
    certs = {"rep": {str(g): matrix_to_json(pushed.formal_rep[g])
                     for g in range(pushed.group.order)}}
    return Outcome({"rank_out": pushed.rank_out, "invariants_rank": len(inv)}, certs)

def _run_adjunction(sc, cmd, rng):
    rep = adjunction_check(cmd.get("source_rank", 1), _command_point(sc, cmd))
    return Outcome({"ok": rep.ok, "lhs_rank": rep.lhs_rank, "rhs_rank": rep.rhs_rank,
                    "projection_ok": rep.projection_ok})

def _run_weights(sc, cmd, rng):
    d = _resolve(sc.data, cmd, "datum")
    try:
        res = extract_weights(d, label=cmd.get("point"))
    except OrbiparError as exc:
        return Outcome({"error": str(exc)}, status="error")
    return Outcome({"weights": [[a, n, mult] for a, n, mult in res.pairs],
                    "generator": res.generator})

def _run_tower_compat(sc, cmd, rng):
    d = _resolve(sc.data, cmd, "datum")
    emb = _resolve(sc.embeddings, cmd, "embedding")
    label = d.points[0].label
    spb = ScenePullback(embeddings={label: emb},
                        scene_small=totally_ramified_scene(emb.small, label=label),
                        scene_big=totally_ramified_scene(emb.big, label=label),
                        group_quotient=emb.quotient)
    rep = pullback_T_compat(d, spb, RefinementMap(embeddings={label: emb}))
    return Outcome({"ok": rep.ok, "message": rep.message})


# every command op, in the order the unknown-op message lists them
OPS = {
    "verify_extension": Op(("ext",), _run_verify_extension),
    "verify_cocycle": Op(("datum",), _run_verify_cocycle),
    "validate_parabolic": Op(("datum",), _run_validate_parabolic),
    "invariants": Op(("datum",), _run_invariants),
    "is_induced": Op(("datum",), _run_is_induced),
    "trivialize": Op(("datum",), _run_trivialize),
    "assemble": Op(("datum", "scene"), _run_assemble, places="all"),
    "connector_independence": Op(("datum", "scene", "seeds2"), _run_connector_independence,
                                 places="point", check=_check_connectors),
    "roundtrip": Op(("datum", "scene"), _run_roundtrip, places="all"),
    "multipoint_roundtrip": Op(("datum", "scene"), _run_multipoint_roundtrip, places="all"),
    "random_roundtrips": Op(("scene",), _run_random_roundtrips,
                            check=_check_scene_has_points),
    "pullback_refine": Op(("datum", "refinement"), _run_pullback_refine,
                          stores=_stores("datum", keeps_exts=False)),
    "equiv": Op(("datum1", "datum2", "refinement1", "refinement2"), _run_equiv),
    "tensor": Op(("datum1", "datum2"), _run_tensor, stores=_stores("datum1", "datum2")),
    "dual": Op(("datum",), _run_dual, stores=_stores("datum")),
    "dual_involution": Op(("datum",), _run_dual_involution),
    "dual_pairing": Op(("datum",), _run_dual_pairing),
    "pushforward": Op(("datum", "scene"), _run_pushforward, places="all"),
    "adjunction": Op(("datum",), _run_adjunction, check=_check_source_rank),
    "weights": Op(("datum",), _run_weights),
    "tower_compat": Op(("datum", "embedding"), _run_tower_compat),
}


def run_command(sc: Scenario, cmd: dict, rng: SplitMix64):
    """Returns (status, detail, certificates).  An `expect` clause decides
    pass or fail; without one, the runner's outcome does (see Outcome)."""
    entry = OPS[cmd["op"]]
    result, certs, status, datum = entry.run(sc, cmd, rng)
    if entry.stores and "store_as" in cmd:
        sc.data[cmd["store_as"]] = datum
    expect = cmd.get("expect", {})
    for key, want in expect.items():
        got = result.get(key)
        if got != want:
            return "fail", {**result, "mismatch": f"expected {key}={want!r}, got {got!r}"}, certs
    if expect:
        return "pass", result, certs
    return status or ("pass" if result.get("ok", True) else "fail"), result, certs


def run_scenario(sc: Scenario) -> dict:
    """Run every command in order; one memo (see memo.py) lives for the run,
    so each fixed space and each assembled point module is computed once."""
    rng = SplitMix64(sc.seed)
    results = []
    counts = {"pass": 0, "fail": 0, "inconclusive": 0, "error": 0}
    with run_scope():
        for i, cmd in enumerate(sc.commands):
            try:
                status, detail, certs = run_command(sc, cmd, rng)
            except OrbiparError as exc:
                status, detail, certs = "error", {"error": str(exc)}, None
            entry = {"index": i, "op": cmd.get("op"), "status": status, "detail": detail}
            if certs:
                entry["certificates"] = certs
            results.append(entry)
            counts[status] += 1
    return {"schema": REPORT_SCHEMA, "seed": sc.seed,
            "results": results, "summary": counts}


def canonical_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def exit_code(report: dict) -> int:
    c = report["summary"]
    if c["error"]:
        return 2
    if c["fail"]:
        return 1
    if c["inconclusive"]:
        return 3
    return 0
