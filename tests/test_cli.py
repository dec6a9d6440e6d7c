import json
import re
from pathlib import Path

import pytest

from orbipar.cli import demo_scenario, main
from orbipar.errors import ScenarioError
from orbipar.scenario import (MAX_GROUP_ORDER, MAX_PRECISION, MAX_RANK, MAX_ROUNDTRIPS, OPS,
                              load_scenario, matrix_from_json)


def run_cli(tmp_path, doc, *args):
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["run", str(f), "--json-out", str(out)] + list(args))
    return code, json.loads(out.read_text()) if out.exists() else None, out


DEMOS = ["kummer(2,5,1)", "kummer(3,7)", "artin-schreier(2)", "sign-twist",
         "z6-two-points", "tower-2-4", "multipoint-mixed"]


@pytest.mark.parametrize("name", DEMOS)
def test_demos_run_clean(tmp_path, name):
    code, report, _ = run_cli(tmp_path, demo_scenario(name))
    assert code == 0, report
    assert report["summary"]["fail"] == 0 and report["summary"]["error"] == 0


def test_sign_twist_demo_contains_findings(tmp_path):
    code, report, _ = run_cli(tmp_path, demo_scenario("sign-twist"))
    assert code == 0
    by_op = {r["op"]: r for r in report["results"]}
    assert by_op["is_induced"]["detail"]["induced"] is False
    assert by_op["is_induced"]["detail"]["profile"] == [1]
    assert by_op["roundtrip"]["detail"]["ok"] is True


def test_empty_command_list_exits_zero(tmp_path):
    doc = {"schema": "orbipar-scenario/1", "field": {"p": 5}, "precision": 8,
           "seed": 1, "commands": []}
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 0 and report["results"] == []


def test_broken_cocycle_scenario_exits_one(tmp_path):
    """A deliberately broken cocycle: the failure names the pair (sigma, sigma)."""
    doc = {
        "schema": "orbipar-scenario/1",
        "field": {"p": 5}, "precision": 8, "seed": 2,
        "extensions": {"K2": {"kind": "kummer", "n": 2}},
        "data": {"bad": {"kind": "explicit", "rank": 1,
                         "points": [{"label": "p", "ext": "K2",
                                     "cocycle": [[[[1]]], [[[2]]]],
                                     "mu": [[{"val_floor": 0, "coeffs": [1]}]]}]}},
        "commands": [{"op": "verify_cocycle", "datum": "bad"}],
    }
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 1
    detail = report["results"][0]["detail"]
    assert detail["points"]["p"]["failing_pair"] == [1, 1]


def test_unknown_command_is_structural_error(tmp_path, capsys):
    """An unknown op is rejected at load: run writes no report, and verify
    rejects the file too."""
    doc = {"schema": "orbipar-scenario/1", "field": {"p": 5}, "precision": 8,
           "seed": 3, "commands": [{"op": "roundtip"}]}
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "bad scenario" in err and "unknown command op 'roundtip'" in err
    assert "did you mean roundtrip" in err
    assert main(["verify", str(tmp_path / "scenario.json")]) == 2


def test_readme_lists_the_ops_of_the_table():
    """README lists the table's ops, in its order, and names the ops that place
    a datum on a scene by where they place it."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text().split())
    listed = re.search(r"Commands include (.*?)\.", text).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(OPS)
    every, at_point = re.search(r"places a datum on a scene \((.*?) at every datum point,"
                                r" (.*?) at its point\)", text).groups()
    for names, places in ((every, "all"), (at_point, "point")):
        assert re.findall(r"`(\w+)`", names) == [op for op, e in OPS.items()
                                                  if e.places == places]


def test_missing_seed_rejected(tmp_path):
    doc = {"schema": "orbipar-scenario/1", "field": {"p": 5}, "commands": []}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f)]) == 2
    assert main(["verify", str(f)]) == 2


def test_verify_subcommand(tmp_path):
    f = tmp_path / "s.json"
    f.write_text(json.dumps(demo_scenario("sign-twist")))
    assert main(["verify", str(f)]) == 0


def test_unknown_demo(tmp_path):
    assert main(["demo", "nonsense", "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("name", ["kummer(a,b)", "kummer()", "artin-schreier(x)", "kummer(3)",
                                  "kummer(3,7,2,9)", "artin-schreier()", "artin-schreier(2,3)"])
def test_bad_demo_parameters_are_scenario_errors(tmp_path, capsys, name):
    with pytest.raises(ScenarioError, match="bad demo parameters"):
        demo_scenario(name)
    assert main(["demo", name, "-o", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "bad demo parameters" in err
    assert not (tmp_path / "x.json").exists()


def test_reports_byte_identical_across_runs(tmp_path):
    doc = demo_scenario("z6-two-points")
    _, _, out1 = run_cli(tmp_path, doc)
    text1 = out1.read_text()
    _, _, out2 = run_cli(tmp_path, doc)
    assert text1 == out2.read_text()


def test_seed_override_changes_report(tmp_path):
    doc = demo_scenario("z6-two-points")
    code1, rep1, _ = run_cli(tmp_path, doc)
    code2, rep2, _ = run_cli(tmp_path, doc, "--seed", "999")
    assert rep1["seed"] != rep2["seed"]


def extension_to_json(ext):
    """Scenario-format form of an extension: group table, per-element action
    images, base uniformizer coefficients."""
    return {"kind": "explicit",
            "group": {"kind": "table", "table": [list(r) for r in ext.group.table]},
            "action": [list(a.coeffs) for a in ext.action],
            "t": list(ext.base_uniformizer.coeffs)}


def test_explicit_extension_serialization_round_trip(tmp_path):
    """An extension serialized to the scenario format loads back and verifies."""
    from orbipar.fields import make_field
    from orbipar.local_galois import make_artin_schreier

    ext = make_artin_schreier(make_field(3), 8)
    doc = {"schema": "orbipar-scenario/1", "field": {"p": 3}, "precision": 8,
           "seed": 4,
           "extensions": {"E": extension_to_json(ext)},
           "commands": [{"op": "verify_extension", "ext": "E"}]}
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 0
    sc = load_scenario(doc)
    assert sc.extensions["E"].base_uniformizer.coeffs == ext.base_uniformizer.coeffs


def test_certificates_reverify(tmp_path):
    """Certificates in a passing report re-verify when fed back through the
    corresponding validation op."""
    doc = {
        "schema": "orbipar-scenario/1",
        "field": {"p": 5}, "precision": 8, "seed": 77,
        "extensions": {"K2": {"kind": "kummer", "n": 2}},
        "data": {"d": {"kind": "random", "rank": 2, "seed": 13,
                       "points": [{"label": "p", "ext": "K2"}]}},
        "commands": [{"op": "trivialize", "datum": "d"}],
    }
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 0
    cert = report["results"][0]["certificates"]["b"]
    sc = load_scenario(doc)
    ext = sc.extensions["K2"]
    b = matrix_from_json(sc.field, 8, cert)
    d = sc.data["d"]
    b_inv = b.inverse()
    for g in range(2):
        rhs = b * b_inv.substitute(ext.act(g))
        assert rhs.agrees_with(d.points[0].psi.mats[g])


BASE = {"schema": "orbipar-scenario/1", "field": {"p": 5}, "precision": 8, "seed": 1,
        "extensions": {"K2": {"kind": "kummer", "n": 2}},
        "scenes": {"cover": {"group": {"kind": "cyclic", "n": 2},
                             "points": [{"label": "p", "ext": "K2",
                                         "totally_ramified": True}]}},
        "data": {"d": {"kind": "random", "rank": 1,
                       "points": [{"label": "p", "ext": "K2"}]}},
        "commands": [{"op": "verify_cocycle", "datum": "d"},
                     {"op": "roundtrip", "datum": "d", "scene": "cover"}]}


def _broken(edit):
    doc = json.loads(json.dumps(BASE))
    return edit(doc) or doc


def _with_identity_embedding(cmd):
    """An edit adding the embedding "id" of K2 and then the command."""
    def edit(d):
        d["embeddings"] = {"id": {"kind": "identity", "ext": "K2"}}
        d["commands"].append(cmd)
    return edit


def _tensor_square(rank, store_as="big2"):
    """An edit adding a trivial datum of the given rank and its tensor square,
    stored under store_as unless that is None."""
    def edit(d):
        d["data"]["big"] = {"kind": "trivial", "rank": rank,
                            "points": [{"label": "p", "ext": "K2"}]}
        cmd = {"op": "tensor", "datum1": "big", "datum2": "big"}
        d["commands"].append(cmd if store_as is None else {**cmd, "store_as": store_as})
    return edit


def _scene_group(group):
    """An edit adding a scene "big" over the given group."""
    def edit(d):
        d["scenes"]["big"] = {"group": group, "points": []}
    return edit


def _tower(n, m):
    """An edit adding the Kummer tower embedding Z/n -> Z/m over GF(521),
    which has the roots of unity of every order dividing 520."""
    def edit(d):
        d["field"] = {"p": 521}
        d["embeddings"] = {"tower": {"kind": "kummer_tower", "n": n, "m": m}}
    return edit


def _label_q_on_cover(*commands, sign_twist=False):
    """An edit relabelling datum "d" (or adding a sign_twist datum "sign") to
    "q", which scene "cover" lacks, and running only the given commands."""
    def edit(d):
        if sign_twist:
            d["data"]["sign"] = {"kind": "sign_twist", "label": "q"}
        else:
            d["data"]["d"]["points"][0]["label"] = "q"
        d["commands"] = list(commands)
    return edit


def _datum_on_k4(d):
    """Datum "d" over Kummer Z/4, while scene "cover" is over K2."""
    d["extensions"]["K4"] = {"kind": "kummer", "n": 4}
    d["data"]["d"]["points"][0]["ext"] = "K4"


def _datum_without_points(d):
    """Datum "d" with no points, and a command that defaults to its first point."""
    d["data"]["d"]["points"] = []
    d["commands"].append({"op": "invariants", "datum": "d"})


def _random_roundtrips_on_empty_scene(d):
    """A scene with no points, and random_roundtrips on it without "point"."""
    _scene_group({"kind": "cyclic", "n": 2})(d)
    d["commands"].append({"op": "random_roundtrips", "scene": "big"})


def _explicit_datum(val_floor):
    """An edit adding the explicit rank-1 datum "e" on K2: the trivial
    cocycle, and mu = s^val_floor."""
    def edit(d):
        d["data"]["e"] = {"kind": "explicit", "rank": 1, "points": [
            {"label": "p", "ext": "K2", "cocycle": [[[[1]]], [[[1]]]],
             "mu": [[{"val_floor": val_floor, "coeffs": [1]}]]}]}
    return edit


# GF(7): an explicit extension E (Kummer Z/2 by hand: s -> -s, t = s^2), the
# identity embedding of E given explicitly, and an explicit rank-1 datum on E
# (the trivial cocycle, mu = 1); each command reads one of them
EXPLICIT_GF7 = {"schema": "orbipar-scenario/1", "field": {"p": 7}, "precision": 8, "seed": 1,
                "extensions": {"E": {"kind": "explicit", "group": {"kind": "cyclic", "n": 2},
                                     "action": [[0, 1], [0, 6]], "t": [0, 0, 1]}},
                "embeddings": {"id": {"kind": "explicit", "small": "E", "big": "E",
                                      "s_image": [0, 1], "quotient": [0, 1]}},
                "scenes": {"cover": {"group": {"kind": "cyclic", "n": 2},
                                     "points": [{"label": "p", "ext": "E",
                                                 "totally_ramified": True}]}},
                "data": {"e": {"kind": "explicit", "rank": 1, "points": [
                    {"label": "p", "ext": "E", "cocycle": [[[[1]]], [[[1]]]],
                     "mu": [[{"val_floor": 0, "coeffs": [1]}]]}]}},
                "commands": [{"op": "verify_extension", "ext": "E"},
                             {"op": "roundtrip", "datum": "e", "scene": "cover"},
                             {"op": "tower_compat", "datum": "e", "embedding": "id"}]}
# where a coefficient array sits in EXPLICIT_GF7, by name
COEFF_PLACES = {
    "cocycle": lambda d: d["data"]["e"]["points"][0]["cocycle"][1][0][0],
    "mu": lambda d: d["data"]["e"]["points"][0]["mu"][0][0]["coeffs"],
    "action": lambda d: d["extensions"]["E"]["action"][1],
    "t": lambda d: d["extensions"]["E"]["t"],
    "s-image": lambda d: d["embeddings"]["id"]["s_image"]}


def _explicit_coeff(place, value):
    """An edit that returns EXPLICIT_GF7 with the last coefficient of the
    array at `place` set to value."""
    def edit(_):
        doc = json.loads(json.dumps(EXPLICIT_GF7))
        COEFF_PLACES[place](doc)[-1] = value
        return doc
    return edit


def _explicit_long(place):
    """An edit that returns EXPLICIT_GF7 (precision 8) with the array at
    `place` padded with zeros to 11 coefficients: cut to the precision, it
    would read as the valid document."""
    def edit(_):
        doc = json.loads(json.dumps(EXPLICIT_GF7))
        coeffs = COEFF_PLACES[place](doc)
        coeffs.extend([0] * (11 - len(coeffs)))
        return doc
    return edit


def _mu_entry(value):
    """An edit that returns EXPLICIT_GF7 with mu's entry replaced by value."""
    def edit(_):
        doc = json.loads(json.dumps(EXPLICIT_GF7))
        doc["data"]["e"]["points"][0]["mu"][0][0] = value
        return doc
    return edit


BAD_COEFFS = {f"{place}-coeff-{name}": _explicit_coeff(place, value)
              for place in COEFF_PLACES
              for name, value in (("99", 99), ("7", 7), ("negative", -1), ("float", 1.5),
                                  ("string", "a"), ("null", None), ("bool", True))}
BAD_COEFFS.update({f"{place}-coeffs-too-long": _explicit_long(place) for place in COEFF_PLACES})


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


BAD_INPUTS = {
    "missing-ext": lambda d: d["data"]["d"]["points"][0].update(ext="K9"),
    "unknown-datum": lambda d: d["commands"][0].update(datum="nope"),
    "unknown-scene": lambda d: d["commands"][1].update(scene="nowhere"),
    "precision-abc": lambda d: d.update(precision="abc"),
    "precision-bool": lambda d: d.update(precision=True),
    "precision-float": lambda d: d.update(precision=2.5),
    "seed-float": lambda d: d.update(seed=1.0),
    "field-p-bool": lambda d: d.update(field={"p": 5, "k_deg": True}),
    "datum-rank-float": lambda d: d["data"]["d"].update(rank=1.5),
    "kummer-n-float": lambda d: d["extensions"]["K2"].update(n=2.0),
    "tower-n-bool": _tower(True, 4),
    "top-level-list": lambda d: [d],
    "missing-seeds2": lambda d: d["commands"].append(
        {"op": "connector_independence", "datum": "d", "scene": "cover"}),
    "count-abc": lambda d: d["commands"].append(
        {"op": "random_roundtrips", "scene": "cover", "count": "abc"}),
    "unknown-point": lambda d: d["commands"].append(
        {"op": "invariants", "datum": "d", "point": "q"}),
    "empty-character-exponents": lambda d: d["commands"].append(
        {"op": "random_roundtrips", "scene": "cover", "character_exponents": []}),
    "rank-zero": lambda d: d["commands"].append(
        {"op": "random_roundtrips", "scene": "cover", "rank": 0}),
    "seed-out-of-range": lambda d: d["commands"].append(
        {"op": "connector_independence", "datum": "d", "scene": "cover", "seeds2": [7]}),
    "residue-cap-abc": lambda d: d.update(budgets={"residue_cap": "abc"}),
    "random-tries-x": lambda d: d.update(budgets={"random_tries": "x"}),
    "random-tries-bool": lambda d: d.update(budgets={"random_tries": True}),
    "budgets-list": lambda d: d.update(budgets=[1]),
    "expect-list": lambda d: d["commands"][0].update(expect=[1]),
    "roundtrip-without-scene": lambda d: d["commands"].append({"op": "roundtrip", "datum": "d"}),
    "invariants-without-datum": lambda d: d["commands"].append({"op": "invariants"}),
    "equiv-without-refinement1": _with_identity_embedding(
        {"op": "equiv", "datum1": "d", "datum2": "d", "refinement2": {"p": "id"}}),
    "pullback-without-refinement": lambda d: d["commands"].append(
        {"op": "pullback_refine", "datum": "d"}),
    "tower-compat-without-embedding": lambda d: d["commands"].append(
        {"op": "tower_compat", "datum": "d"}),
    "refinement-misses-point": _with_identity_embedding(
        {"op": "pullback_refine", "datum": "d", "refinement": {"q": "id"}}),
    "precision-above-cap": lambda d: d.update(precision=MAX_PRECISION + 1),
    "precision-zero": lambda d: d.update(precision=0),
    "precision-one-with-extension": lambda d: d.update(precision=1),
    "datum-rank-above-cap": lambda d: d["data"]["d"].update(rank=MAX_RANK + 1),
    "command-rank-above-cap": lambda d: d["commands"].append(
        {"op": "random_roundtrips", "scene": "cover", "rank": MAX_RANK + 1}),
    "tensor-rank-above-cap": _tensor_square(9),
    "unstored-tensor-rank-above-cap": _tensor_square(9, store_as=None),
    "adjunction-source-rank-zero": lambda d: d["commands"].append(
        {"op": "adjunction", "datum": "d", "source_rank": 0}),
    "adjunction-source-rank-above-cap": lambda d: d["commands"].append(
        {"op": "adjunction", "datum": "d", "source_rank": MAX_RANK + 1}),
    "unknown-op": lambda d: d["commands"][1].update(op="roundtip"),
    "missing-op": lambda d: d["commands"][1].__delitem__("op"),
    "count-zero": lambda d: d["commands"].append(
        {"op": "random_roundtrips", "scene": "cover", "count": 0}),
    "count-negative": lambda d: d["commands"].append(
        {"op": "random_roundtrips", "scene": "cover", "count": -3}),
    "count-above-cap": lambda d: d["commands"].append(
        {"op": "random_roundtrips", "scene": "cover", "count": MAX_ROUNDTRIPS + 1}),
    "cyclic-above-cap": _scene_group({"kind": "cyclic", "n": MAX_GROUP_ORDER + 1}),
    "cyclic-zero": _scene_group({"kind": "cyclic", "n": 0}),
    "dihedral-above-cap": _scene_group({"kind": "dihedral", "n": MAX_GROUP_ORDER // 2 + 1}),
    "product-above-cap": _scene_group({"kind": "product",
                                       "left": {"kind": "cyclic", "n": MAX_GROUP_ORDER // 2},
                                       "right": {"kind": "cyclic", "n": 3}}),
    "product-factor-above-cap": _scene_group(
        {"kind": "product", "left": {"kind": "cyclic", "n": 1},
         "right": {"kind": "cyclic", "n": MAX_GROUP_ORDER + 1}}),
    "table-above-cap": _scene_group({"kind": "table",
                                     "table": _cyclic_table(MAX_GROUP_ORDER + 1)}),
    "group-kind-unknown": _scene_group({"kind": "free", "n": 2}),
    "group-not-object": _scene_group([2]),
    "explicit-ext-group-above-cap": lambda d: d["extensions"].update(
        E={"kind": "explicit", "group": {"kind": "cyclic", "n": MAX_GROUP_ORDER + 1},
           "action": [], "t": []}),
    "kummer-above-cap": lambda d: d.update(
        field={"p": 521}, extensions={**d["extensions"], "K": {"kind": "kummer", "n": 260}}),
    "tower-n-above-cap": _tower(260, 520),
    "tower-m-above-cap": _tower(130, 520),
    "datum-label-not-in-scene": lambda d: d["data"]["d"]["points"][0].update(label="q"),
    "sign-twist-label-not-in-scene": _label_q_on_cover(
        {"op": "assemble", "datum": "sign", "scene": "cover"}, sign_twist=True),
    "multipoint-label-not-in-scene": _label_q_on_cover(
        {"op": "multipoint_roundtrip", "datum": "d", "scene": "cover"}),
    "connector-label-not-in-scene": _label_q_on_cover(
        {"op": "connector_independence", "datum": "d", "scene": "cover", "seeds2": []}),
    "pushforward-label-not-in-scene": _label_q_on_cover(
        {"op": "pushforward", "datum": "d", "scene": "cover"}),
    "stored-label-not-in-scene": _label_q_on_cover(
        {"op": "dual", "datum": "d", "store_as": "dd"},
        {"op": "roundtrip", "datum": "dd", "scene": "cover"}),
    "datum-ext-not-scene-ext": _datum_on_k4,
    "datum-without-points": _datum_without_points,
    "random-roundtrips-on-empty-scene": _random_roundtrips_on_empty_scene,
    "scene-point-not-object": lambda d: d["scenes"]["cover"]["points"].__setitem__(0, "p"),
    "scene-group-without-n": _scene_group({"kind": "cyclic"}),
    "cyclic-n-string": _scene_group({"kind": "cyclic", "n": "2"}),
    "cyclic-n-float": _scene_group({"kind": "cyclic", "n": 2.0}),
    "cyclic-n-bool": _scene_group({"kind": "cyclic", "n": True}),
    "dihedral-n-string": _scene_group({"kind": "dihedral", "n": "2"}),
    "table-entry-bool": _scene_group({"kind": "table", "table": [[0, True], [True, 0]]}),
    "table-entry-float": _scene_group({"kind": "table", "table": [[0, 1.0], [1.0, 0]]}),
    "table-rows-string": _scene_group({"kind": "table", "table": ["01", "10"]}),
    "table-string": _scene_group({"kind": "table", "table": "0110"}),
    "table-entry-out-of-range": _scene_group(
        {"kind": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 7]]}),
    "table-entry-negative": _scene_group(
        {"kind": "table", "table": [[0, 1, 2], [1, -1, 0], [2, 0, 1]]}),
    "val-floor-string": _explicit_datum("1"),
    "val-floor-float": _explicit_datum(1.0),
    "random-seed-string": lambda d: d["data"]["d"].update(seed="13"),
    "character-exponent-float": lambda d: d["data"]["d"]["points"][0].update(
        character_exponent=1.7),
    "datum-duplicate-label": lambda d: d["data"]["d"]["points"].append(
        {"label": "p", "ext": "K2"}),
    "scene-duplicate-label": lambda d: d["scenes"]["cover"]["points"].append(
        {"label": "p", "ext": "K2", "totally_ramified": True}),
    "mu-entry-int": _mu_entry(5),
    "mu-entry-array-coeff-99": _mu_entry([99]),
    **BAD_COEFFS,
}
GROUP_CAP_CASES = sorted(k for k in BAD_INPUTS if "cap" in k and any(
    w in k for w in ("cyclic", "dihedral", "product", "table", "group", "kummer", "tower")))


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("sub", ["run", "verify"])
def test_bad_input_is_scenario_error(tmp_path, capsys, case, sub):
    f = tmp_path / "s.json"
    f.write_text(json.dumps(_broken(BAD_INPUTS[case])))
    assert main([sub, str(f)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip()


@pytest.mark.parametrize("case", GROUP_CAP_CASES)
def test_group_order_cap_rejects_before_building(case):
    assert MAX_GROUP_ORDER < 260 <= 520
    with pytest.raises(ScenarioError, match=f"group order must be in 1..{MAX_GROUP_ORDER}"):
        load_scenario(_broken(BAD_INPUTS[case]))


@pytest.mark.parametrize("case, message", [
    ("table-entry-bool", "group table entry must be an integer, got True"),
    ("table-entry-float", "group table entry must be an integer, got 1.0"),
    ("table-rows-string", "a group table must be a list of rows"),
    ("table-string", "a group table must be a list of rows"),
    ("table-entry-out-of-range", r"group table entry 7 is not in 0\.\.2"),
    ("table-entry-negative", r"group table entry -1 is not in 0\.\.2")])
def test_table_group_reads_rows_of_integers(case, message):
    with pytest.raises(ScenarioError, match=message):
        load_scenario(_broken(BAD_INPUTS[case]))


@pytest.mark.parametrize("case, place", [("scene-point-not-object", "scene 'cover' point 0"),
                                         ("scene-group-without-n", "scene 'big'")])
@pytest.mark.parametrize("sub", ["run", "verify"])
def test_malformed_input_names_its_place(tmp_path, capsys, case, place, sub):
    f = tmp_path / "s.json"
    f.write_text(json.dumps(_broken(BAD_INPUTS[case])))
    assert main([sub, str(f)]) == 2
    assert f"malformed scenario at {place}: " in capsys.readouterr().err


def test_base_of_bad_inputs_is_good(tmp_path):
    f = tmp_path / "s.json"
    f.write_text(json.dumps(BASE))
    assert main(["verify", str(f)]) == 0
    for edit in (_tensor_square(8), _tensor_square(8, store_as=None),
                 lambda d: d["commands"].append(
                     {"op": "adjunction", "datum": "d", "source_rank": MAX_RANK})):
        f.write_text(json.dumps(_broken(edit)))
        assert main(["verify", str(f)]) == 0
    for group in ({"kind": "cyclic", "n": MAX_GROUP_ORDER},
                  {"kind": "dihedral", "n": MAX_GROUP_ORDER // 2},
                  {"kind": "product", "left": {"kind": "cyclic", "n": 2},
                   "right": {"kind": "cyclic", "n": MAX_GROUP_ORDER // 2}}):
        f.write_text(json.dumps(_broken(_scene_group(group))))
        assert main(["verify", str(f)]) == 0
    f.write_text(json.dumps(_broken(_explicit_datum(1))))
    assert main(["verify", str(f)]) == 0


def test_explicit_coefficients_are_checked_at_load(tmp_path):
    """The good GF(7) document runs clean, and a bad coefficient, or an
    array longer than the precision, is named by its place, whichever array
    holds it."""
    code, report, _ = run_cli(tmp_path, EXPLICIT_GF7)
    assert code == 0 and report["summary"]["pass"] == 3
    for case, message in (
            ("cocycle-coeff-99", r"datum 'e' point 'p' cocycle 1 entry \(0, 0\): "
                                 r"coefficient 99 is not an integer in 0\.\.6"),
            ("mu-coeff-float", r"datum 'e' point 'p' mu entry \(0, 0\): coefficient 1\.5 "),
            ("action-coeff-negative", r"extension 'E': action 1: coefficient -1 "),
            ("t-coeff-bool", r"extension 'E': t: coefficient True "),
            ("s-image-coeff-null", r"embedding 'id': s_image: coefficient None "),
            ("mu-entry-int", r"datum 'e' point 'p' mu entry \(0, 0\): coefficients must "
                             r"be a list, got 5"),
            ("cocycle-coeffs-too-long", r"datum 'e' point 'p' cocycle 1 entry \(0, 0\): "
                                        r"11 coefficients exceed the precision 8"),
            ("mu-coeffs-too-long", r"datum 'e' point 'p' mu entry \(0, 0\): 11 coefficients "),
            ("action-coeffs-too-long", r"extension 'E': action 1: 11 coefficients "),
            ("t-coeffs-too-long", r"extension 'E': t: 11 coefficients "),
            ("s-image-coeffs-too-long", r"embedding 'id': s_image: 11 coefficients ")):
        with pytest.raises(ScenarioError, match=message):
            load_scenario(_broken(BAD_INPUTS[case]))


def test_precision_flag_above_cap_is_scenario_error(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps(BASE))
    assert main(["run", str(f), "--precision", str(MAX_PRECISION + 1)]) == 2
    assert f"precision must be in 1..{MAX_PRECISION}" in capsys.readouterr().err


def test_good_refinement_and_budgets_pass(tmp_path):
    """The well-formed versions of the refinement and budget cases run clean."""
    doc = _broken(_with_identity_embedding(
        {"op": "equiv", "datum1": "d", "datum2": "d", "refinement1": {"p": "id"},
         "refinement2": {"p": "id"}, "expect": {"status": "isomorphic"}}))
    doc["budgets"] = {"residue_cap": 100, "random_tries": 5}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert main(["verify", str(f)]) == 0
    assert main(["run", str(f)]) == 0


def test_empty_seeds2_on_one_component_is_good(tmp_path):
    f = tmp_path / "s.json"
    f.write_text(json.dumps(_broken(lambda d: d["commands"].append(
        {"op": "connector_independence", "datum": "d", "scene": "cover", "seeds2": []}))))
    assert main(["verify", str(f)]) == 0
    assert main(["run", str(f)]) == 0


@pytest.mark.parametrize("seeds2", [[7], [2], [3, 5]],
                         ids=["out-of-range", "maps-0-to-0", "too-long"])
@pytest.mark.parametrize("sub", ["run", "verify"])
def test_bad_connector_seeds_are_scenario_errors(tmp_path, capsys, sub, seeds2):
    """Out of range, mapping component 0 to 0, too long: rejected before any
    command runs, so `verify` agrees with `run`."""
    doc = demo_scenario("z6-two-points")
    doc["commands"][1]["seeds2"] = seeds2
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert main([sub, str(f)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "seeds2" in err and "does not map component" in err


def test_scene_point_checks_pass_good_data(tmp_path):
    """Stored data keep their labels and extensions, so a scene check passes
    on them, and a command that names its point may use a multi-point datum
    whose other points the scene lacks."""
    def edit(d):
        d["commands"] += [{"op": "dual", "datum": "d", "store_as": "dd"},
                          {"op": "assemble", "datum": "dd", "scene": "cover"}]
    f = tmp_path / "s.json"
    f.write_text(json.dumps(_broken(edit)))
    assert main(["verify", str(f)]) == 0
    assert main(["run", str(f)]) == 0
    doc = demo_scenario("multipoint-mixed")
    doc["scenes"]["onlyB"] = {"group": {"kind": "cyclic", "n": 6},
                              "points": [doc["scenes"]["cover"]["points"][1]]}
    doc["commands"] = [{"op": "connector_independence", "datum": "d", "scene": "onlyB",
                        "point": "B", "seeds2": [3]}]
    f.write_text(json.dumps(doc))
    assert main(["verify", str(f)]) == 0
    assert main(["run", str(f)]) == 0


def test_verify_counts_stored_data(tmp_path):
    """A command may name data an earlier command stores (tower-2-4's sign4)."""
    f = tmp_path / "s.json"
    doc = demo_scenario("tower-2-4")
    f.write_text(json.dumps(doc))
    assert main(["verify", str(f)]) == 0
    doc["commands"] = doc["commands"][1:]
    f.write_text(json.dumps(doc))
    assert main(["verify", str(f)]) == 2
