"""The per-run memo: work counts, scope, and a differential test against
the unmemoized path.

Inside run_scenario each cocycle's fixed space, InvariantsResult,
InducedReport and verify_cocycle report, each assembled point module and glued point, the
checks of each datum point and glued point, and each dual point, tensor
point and pushforward are computed once; outside a run every call computes
afresh.  The memo only caches: a unary law takes the same proof, on the
generators or by the exhaustive scan, with the memo on and off.  The counters below wrap the functions that do the work, on
every orbipar module that binds them.
"""

import re
from contextlib import nullcontext
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orbipar import equivariant, linalg, memo, parabolic, pvect, scenario
from orbipar.equivariant import invariants, is_induced, trivialize
from orbipar.parabolic import functor_T, roundtrip_check
from orbipar.prng import SplitMix64


def live_keys():
    """The number of live key objects per table in the open scope."""
    return {table: len(entries) for table, entries in (memo._tables.get() or {}).items()
            if entries}


COUNTED = {"null_space": (linalg, equivariant, pvect),
           "assemble_product": (equivariant, parabolic, pvect),
           "_invariants": (equivariant,)}


@pytest.fixture
def counts(monkeypatch):
    """Call counts of null_space, assemble_product and _invariants."""
    seen = dict.fromkeys(COUNTED, 0)
    for name, modules in COUNTED.items():
        original = getattr(modules[0], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return seen


def _doc(field, extensions, scenes, data, commands, seed=5):
    return {"schema": "orbipar-scenario/1", "field": field, "precision": 8, "seed": seed,
            "extensions": extensions, "scenes": scenes, "data": data, "commands": commands}


def _datum(rank, ext, seed, exponent=0):
    return {"kind": "random", "rank": rank, "seed": seed,
            "points": [{"label": "p", "ext": ext, "character_exponent": exponent}]}


def _two_component(ext, n):
    """The Z/2n scene whose component-0 stabilizer is the even elements."""
    return {"group": {"kind": "cyclic", "n": 2 * n},
            "points": [{"label": "p", "ext": ext, "iso": list(range(0, 2 * n, 2)),
                        "transversal": [0, 1]}]}


def _per_datum(d, scene, seeds2, trivialize_expect=None):
    return [{"op": "verify_cocycle", "datum": d},
            {"op": "invariants", "datum": d},
            {"op": "is_induced", "datum": d},
            {"op": "trivialize", "datum": d, "expect": trivialize_expect or {}},
            {"op": "assemble", "datum": d, "scene": scene},
            {"op": "connector_independence", "datum": d, "scene": scene, "seeds2": seeds2},
            {"op": "roundtrip", "datum": d, "scene": scene}]


# tame: GF(7), Kummer Z/3, a rank-2 datum on the two-component Z/6 scene
# (seeds2 differs from the default seeds) and a rank-1 one on the totally
# ramified Z/3 scene (seeds2 = the default, empty)
TAME = _doc({"p": 7}, {"K3": {"kind": "kummer", "n": 3}},
            {"z6": _two_component("K3", 3),
             "z3": {"group": {"kind": "cyclic", "n": 3},
                    "points": [{"label": "p", "ext": "K3", "totally_ramified": True}]}},
            {"a": _datum(2, "K3", 11, exponent=1), "b": _datum(1, "K3", 12)},
            _per_datum("a", "z6", [3], {"found": False, "stage": "residue"})
            + _per_datum("b", "z3", []))
# wild: GF(9), Artin-Schreier Z/3, rank 2, totally ramified
WILD = _doc({"p": 3, "k_deg": 2}, {"AS": {"kind": "artin_schreier"}},
            {"tr": {"group": {"kind": "cyclic", "n": 3},
                    "points": [{"label": "p", "ext": "AS", "totally_ramified": True}]}},
            {"d": _datum(2, "AS", 13)}, _per_datum("d", "tr", []))

# Per run of the scenario.  Unmemoized, each datum's fixed space is solved
# by invariants, is_induced and S, and by trivialize where it reaches stage
# 3 (wild's d does; tame's a stops at the residue obstruction, b at
# averaging); the module of T is assembled by assemble, twice by
# connector_independence, and twice by the round trip (T(d) and
# T(S(T(d)))).  Memoized, one solve per datum, and connector_independence
# and T(d) reuse assemble's module, except for a seeds2 that differs from
# the default seeds.
WORK = {"tame": (TAME, {"null_space": 2, "_invariants": 2, "assemble_product": 5},
                 {"null_space": 6, "_invariants": 6, "assemble_product": 10}),
        "wild": (WILD, {"null_space": 1, "_invariants": 1, "assemble_product": 2},
                 {"null_space": 4, "_invariants": 3, "assemble_product": 5})}


def _unmemoized_report(sc):
    with mock.patch.object(scenario, "run_scope", nullcontext):
        return scenario.run_scenario(sc)


@pytest.mark.parametrize("case", sorted(WORK))
def test_run_counts(counts, case):
    doc, memoized, fresh = WORK[case]
    sc = scenario.load_scenario(doc)
    report = scenario.run_scenario(sc)
    assert report["summary"]["error"] == 0 and report["summary"]["fail"] == 0
    assert counts == memoized
    # the same loaded scenario again: no entry survives the first run
    counts.update(dict.fromkeys(counts, 0))
    assert scenario.run_scenario(sc) == report
    assert counts == memoized
    counts.update(dict.fromkeys(counts, 0))
    assert _unmemoized_report(scenario.load_scenario(doc)) == report
    assert counts == fresh


# calculus: GF(13), a rank-2 Kummer Z/4 datum paired with its dual, and a
# rank-1 Kummer Z/2 datum against its pullback along the Z/2 -> Z/4 tower
CALCULUS = dict(
    _doc({"p": 13}, {"K4": {"kind": "kummer", "n": 4}, "K2": {"kind": "kummer", "n": 2}}, {},
         {"v": _datum(2, "K4", 21, exponent=1), "w": _datum(1, "K2", 22, exponent=1)},
         [{"op": "dual_pairing", "datum": "v"},
          {"op": "pullback_refine", "datum": "w", "refinement": {"p": "tower"},
           "store_as": "w4"},
          {"op": "equiv", "datum1": "w", "datum2": "w4", "refinement1": {"p": "tower"},
           "refinement2": {"p": "idK4"}, "expect": {"status": "isomorphic", "proven": True}}]),
    embeddings={"tower": {"kind": "kummer_tower", "n": 2, "m": 4},
                "idK4": {"kind": "identity", "ext": "K4"}})


# calculus constructions: a rank-2 Kummer Z/4 datum v over GF(13) with its
# dual, tensor, double dual and pairing, and a rank-1 one u pushed forward
# along the totally ramified scene and checked for adjunction
CONSTRUCTIONS = _doc(
    {"p": 13}, {"K4": {"kind": "kummer", "n": 4}},
    {"tr": {"group": {"kind": "cyclic", "n": 4},
            "points": [{"label": "p", "ext": "K4", "totally_ramified": True}]}},
    {"v": _datum(2, "K4", 21, exponent=1), "u": _datum(1, "K4", 23, exponent=3)},
    [{"op": "dual", "datum": "v", "store_as": "v_dual"},
     {"op": "tensor", "datum1": "v", "datum2": "v_dual", "store_as": "end_v"},
     {"op": "dual_involution", "datum": "v"},
     {"op": "dual_pairing", "datum": "v"},
     {"op": "pushforward", "datum": "u", "scene": "tr"},
     {"op": "adjunction", "datum": "u"}])
BUILDERS = ("_dual_point", "_tensor_point", "_pushforward")
NEW_TABLES = ("dual_point", "tensor_point", "pushforward")


@pytest.fixture
def builds(monkeypatch):
    """Call counts of pvect's dual point, tensor point and pushforward builds."""
    seen = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:
        original = getattr(pvect, name)

        def counted(*args, _name=name, _original=original):
            seen[_name] += 1
            return _original(*args)

        monkeypatch.setattr(pvect, name, counted)
    return seen


def test_calculus_run_builds_each_construction_once(builds):
    """Unmemoized, v's dual point is built by dual, twice by dual_involution
    (v* and v**) and by dual_pairing; v (x) v* by tensor and dual_pairing,
    and adjunction builds trivial (x) u; u's glued point is pushed forward by
    pushforward and adjunction, which also pushes trivial (x) u forward.  In
    a run each of the two dual points, two tensor pairs and two glued points
    is built once."""
    report = scenario.run_scenario(scenario.load_scenario(CONSTRUCTIONS))
    assert report["summary"] == {"pass": 6, "fail": 0, "inconclusive": 0, "error": 0}
    assert builds == {"_dual_point": 2, "_tensor_point": 2, "_pushforward": 2}
    builds.update(dict.fromkeys(builds, 0))
    assert _unmemoized_report(scenario.load_scenario(CONSTRUCTIONS)) == report
    assert builds == {"_dual_point": 4, "_tensor_point": 3, "_pushforward": 3}


def test_calculus_constructions_equal_in_and_out_of_a_run():
    sc = scenario.load_scenario(CONSTRUCTIONS)
    v, u, scene = sc.data["v"], sc.data["u"], sc.scenes["tr"]

    def results():
        v_dual = pvect.dual(v)
        return (v_dual, pvect.dual(v_dual), pvect.tensor(v, v_dual), pvect.tensor(v, v),
                pvect.pushforward_local(functor_T(u, scene)))

    fresh = results()
    with memo.run_scope():
        first = results()
        again = results()
        # a second operand equal in value shares the tensor entry
        twin = pvect.tensor(v, parabolic.ParabolicDatum(v.rank, tuple(
            replace(pt) for pt in first[0].points)))
        assert all(x.points[0] is y.points[0] for x, y in zip(first[:4], again[:4]))
        assert twin.points[0] is first[2].points[0] and first[4] is again[4]
    assert first == fresh and again == fresh and twin == fresh[2]


def test_transient_constructions_leave_no_live_entries(monkeypatch):
    """adjunction's trivial (x) u and its pushforward die with the command,
    and so do their entries; v's dual points, v (x) v* and u's pushforward
    keep theirs for the rest of the run."""
    live = []
    original = scenario.run_command

    def recording(sc, cmd, rng):
        out = original(sc, cmd, rng)
        live.append({t: n for t, n in live_keys().items() if t in NEW_TABLES})
        return out

    monkeypatch.setattr(scenario, "run_command", recording)
    report = scenario.run_scenario(scenario.load_scenario(CONSTRUCTIONS))
    assert report["summary"]["pass"] == 6
    pairs = {"dual_point": 2, "tensor_point": 1}
    assert live == [{"dual_point": 1}, {"dual_point": 1, "tensor_point": 1}, pairs, pairs,
                    {**pairs, "pushforward": 1}, {**pairs, "pushforward": 1}]
    assert live_keys() == {}


# the unary laws' scans, each called with xs a range (the exhaustive scan)
# or the group's generators
SCANS = {"_mu_scan": parabolic, "_tau_scan": parabolic, "_sigma_scan": parabolic,
         "_intertwining_scan": equivariant, "_unfixed_scan": equivariant}


@pytest.fixture
def scans(monkeypatch):
    """Per unary scan, how often it ran on the generators and exhaustively."""
    seen = {name: {"generators": 0, "exhaustive": 0} for name in SCANS}
    for name, module in SCANS.items():
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            seen[_name]["exhaustive" if isinstance(args[-1], range) else "generators"] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return seen


def test_isomorphism_searches_check_sigma_on_the_generators(scans):
    """In a run, every sigma check of the isomorphism searches is proven on
    the generators of I and none scans all of it."""
    report = scenario.run_scenario(scenario.load_scenario(CALCULUS))
    assert report["summary"]["error"] == 0 and report["summary"]["fail"] == 0
    assert scans["_sigma_scan"] == {"generators": 2, "exhaustive": 0}


def test_isomorphism_searches_outside_a_run_check_sigma_on_the_generators(scans):
    """Outside a run the sigma checks are proven on the generators too:
    their premise, verify_cocycle on both data (for dual_pairing, V (x) V*
    and its trivial reference), is computed rather than read from a memo."""
    report = _unmemoized_report(scenario.load_scenario(CALCULUS))
    assert report["summary"]["error"] == 0 and report["summary"]["fail"] == 0
    assert scans["_sigma_scan"] == {"generators": 2, "exhaustive": 0}


def test_library_calls_outside_a_run_memoize_nothing(counts):
    sc = scenario.load_scenario(TAME)
    d, scene = sc.data["a"], sc.scenes["z6"]
    psi = d.points[0].psi
    assert invariants(psi) == invariants(psi)
    is_induced(psi)
    trivialize(psi)
    assert functor_T(d, scene) == functor_T(d, scene)
    assert counts == {"null_space": 3, "_invariants": 3, "assemble_product": 2}
    assert live_keys() == {}


def test_memo_hits_share_one_object():
    sc = scenario.load_scenario(TAME)
    d, scene = sc.data["a"], sc.scenes["z6"]
    psi = d.points[0].psi
    with memo.run_scope():
        assert invariants(psi) is invariants(psi)
        assert functor_T(d, scene).points[0].module is functor_T(d, scene).points[0].module
        assert live_keys() == {"fixed_space": 1, "invariants": 1, "verify_cocycle": 1,
                               "point_module": 1, "glued_point": 1, "glued_check": 1}
    assert live_keys() == {}
    # shared results are immutable
    res = invariants(psi)
    with pytest.raises(AttributeError):
        res.generators.append(())
    with pytest.raises(FrozenInstanceError):
        res.fixed_dim = 0
    space = equivariant.fixed_space(psi)
    assert isinstance(space, tuple) and all(isinstance(v, tuple) for v in space)


def test_readme_lists_every_memo_table():
    """The tables README describes are the ones the code memoizes into."""
    root = Path(__file__).resolve().parent.parent
    used = {name for path in (root / "src" / "orbipar").glob("*.py")
            for name in re.findall(r'memoized\(\s*"(\w+)"', path.read_text())}
    listed = set(re.findall(r"^- `(\w+)` \(per ", (root / "README.md").read_text(), re.M))
    assert used and listed == used


def test_random_roundtrips_leave_no_live_entries(monkeypatch):
    """The data random_roundtrips draws die with the command, and so do their
    entries; the scenario's own datum keeps its entries for the rest of the run."""
    doc = dict(TAME, commands=[
        {"op": "roundtrip", "datum": "a", "scene": "z6"},
        {"op": "random_roundtrips", "scene": "z6", "count": 4, "rank": 2,
         "character_exponents": [0, 1]},
        {"op": "is_induced", "datum": "a"}])
    live = []
    original = scenario.run_command

    def recording(sc, cmd, rng):
        out = original(sc, cmd, rng)
        live.append(live_keys())
        return out

    monkeypatch.setattr(scenario, "run_command", recording)
    report = scenario.run_scenario(scenario.load_scenario(doc))
    assert report["summary"]["pass"] == 3
    datum_a = {"fixed_space": 1, "invariants": 1, "is_induced": 1, "point_module": 1,
               "glued_point": 1, "glued_check": 1, "point_check": 1, "verify_cocycle": 1}
    assert live == [datum_a, datum_a, datum_a]


def test_failures_are_not_memoized(monkeypatch):
    """A build that raises records nothing and runs again at the next call."""
    sc = scenario.load_scenario(TAME)
    psi = sc.data["a"].points[0].psi
    calls = []

    def failing(c):
        calls.append(c)
        raise equivariant.RankDeficiencyError("no generators", found=0, expected=2)

    monkeypatch.setattr(equivariant, "_invariants", failing)
    with memo.run_scope():
        for _ in range(2):
            with pytest.raises(equivariant.RankDeficiencyError):
                invariants(psi)
        assert live_keys() == {}
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# differential: memo on (inside a scope) against memo off

# (field, extension config, group order, character exponents)
EXTENSIONS = [({"p": 7}, {"kind": "kummer", "n": 3}, 3, (0, 1, 2)),
              ({"p": 13}, {"kind": "kummer", "n": 4}, 4, (0, 1, 3)),
              ({"p": 2}, {"kind": "artin_schreier"}, 2, (0,)),
              ({"p": 3}, {"kind": "artin_schreier"}, 3, (0,)),
              ({"p": 3, "k_deg": 2}, {"kind": "artin_schreier"}, 3, (0,))]


def _differential_doc(spec, rank, exponent, seed, two_components):
    field, ext, n, _ = spec
    scene = (_two_component("E", n) if two_components else
             {"group": {"kind": "cyclic", "n": n},
              "points": [{"label": "p", "ext": "E", "totally_ramified": True}]})
    seeds2 = [2 * n - 1] if two_components else []
    return _doc(field, {"E": ext}, {"s": scene}, {"d": _datum(rank, "E", seed, exponent)},
                _per_datum("d", "s", seeds2) + [
                    {"op": "multipoint_roundtrip", "datum": "d", "scene": "s"}], seed=seed)


def _library_results(d, scene):
    psi = d.points[0].psi
    return (invariants(psi), is_induced(psi), trivialize(psi, rng=SplitMix64(7)),
            functor_T(d, scene), roundtrip_check(d, scene))


def _scanned(scans, run):
    """run()'s result and, per unary scan, the exhaustive scans it made and
    whether it scanned the generators.  The generator scans are not
    counted: the memo makes fewer of the checks that run them."""
    for counts in scans.values():
        counts.update(generators=0, exhaustive=0)
    result = run()
    return result, {name: (c["exhaustive"], c["generators"] > 0) for name, c in scans.items()}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(spec=st.sampled_from(EXTENSIONS), rank=st.integers(1, 3), pick=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1), two_components=st.booleans())
def test_memo_on_equals_memo_off(scans, spec, rank, pick, seed, two_components):
    exponent = spec[3][pick % len(spec[3])]
    doc = _differential_doc(spec, rank, exponent, seed, two_components)
    sc = scenario.load_scenario(doc)
    d, scene = sc.data["d"], sc.scenes["s"]
    fresh = _library_results(d, scene)
    with memo.run_scope():
        first = _library_results(d, scene)
        again = _library_results(d, scene)
    assert first == fresh and again == fresh
    on, paths_on = _scanned(scans, lambda: scenario.canonical_report(
        scenario.run_scenario(sc)))
    off, paths_off = _scanned(scans, lambda: scenario.canonical_report(
        _unmemoized_report(scenario.load_scenario(doc))))
    assert on == off
    # the memo only caches: each unary law takes the same proof on and off
    assert paths_on == paths_off
