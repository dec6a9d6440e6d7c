"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact (coefficientwise equality in the
finite field); runtime bounds are asserted with the wall clock.
"""

import time

from orbipar.cli import demo_scenario
from orbipar.equivariant import (Cocycle, assemble_product, coboundary,
                                 first_nonintertwining_exhaustive, independence_intertwiner,
                                 is_induced, make_connectors, verify_action_exhaustive)
from orbipar.errors import DomainError
from orbipar.fields import make_field, required_degree_for_root
from orbipar.groups import cyclic, dihedral, direct_product
from orbipar.linalg import Matrix
from orbipar.local_galois import (kummer_tower, make_artin_schreier, make_kummer,
                                  norm, verify_extension)
from orbipar.parabolic import (CoverScene, ParabolicDatum, ParabolicPoint,
                               ScenePoint, build_spec_from_scene, functor_S,
                               functor_T, random_datum, random_unimodular, roundtrip_check,
                               sign_twist_datum, totally_ramified_scene,
                               trivial_datum)
from orbipar.prng import SplitMix64
from orbipar.pvect import (RefinementMap, ScenePullback, adjunction_check, dual,
                           dual_pairing_check, equiv_check, extract_weights,
                           pullback_T_compat, pushforward_local)
from orbipar.scenario import canonical_report, load_scenario, run_scenario
from orbipar.series import Laurent, Series

from cocycle_twist import twist


def _report(num, ok, text):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_extension_laws():
    """Kummer(n in {2,3,4}; p in {5,7,13}) and AS(p in {2,3,5}) at N = 32:
    verify_extension exact, AS closed form matches the Norm product."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in (5, 7, 13):
        for n in (2, 3, 4):
            k = required_degree_for_root(p, n)
            field = make_field(p, k)
            t1 = time.perf_counter()
            ext = make_kummer(field, n, 32)
            rep = verify_extension(ext)
            assert rep.ok, f"Kummer({n})/GF({p}^{k}): {rep.message}"
            worst = max(worst, time.perf_counter() - t1)
    for p in (2, 3, 5):
        field = make_field(p)
        t1 = time.perf_counter()
        ext = make_artin_schreier(field, 32)
        rep = verify_extension(ext)
        assert rep.ok, f"AS({p}): {rep.message}"
        sp = Series.monomial(field, 1, p, 32)
        closed = sp * (Series.one(field, 32)
                       - Series.monomial(field, 1, p - 1, 32)).inverse()
        assert ext.base_uniformizer.coeffs == closed.coeffs, f"AS({p}) closed form"
        prod = norm(ext, Series.s(field, 32))
        assert prod.coeffs == closed.coeffs, f"AS({p}) Norm product"
        worst = max(worst, time.perf_counter() - t1)
    _report(1, worst < 1.0,
            f"9 Kummer + 3 Artin-Schreier extensions verified exactly at N=32 "
            f"(worst case {worst:.2f}s < 1s, total {time.perf_counter()-t0:.2f}s)")


def _z6_scene(prec=16):
    F7 = make_field(7)
    k3 = make_kummer(F7, 3, prec)
    return k3, ScenePoint("p", k3, (0, 2, 4), (0, 1)), cyclic(6)


def _d4_scene(prec=16):
    F13 = make_field(13)
    k4 = make_kummer(F13, 4, prec)
    return k4, ScenePoint("p", k4, (0, 1, 2, 3), (0, 4)), dihedral(4)


def test_criterion_2_constructbundle_law():
    """Phi(hg) = Phi(h)Phi(g) for ALL pairs: |G| = 6 (36 pairs) and |G| = 8,
    rank up to 3, N = 16, exact equality."""
    t0 = time.perf_counter()
    rng = SplitMix64(2024)
    k3, sp6, g6 = _z6_scene()
    b = random_unimodular(k3.field, 2, 16, rng)
    zeta = k3.field.root_of_unity(3)
    chi = tuple(k3.field.pow(zeta, u) for u in range(3))
    mod6 = assemble_product(build_spec_from_scene(
        sp6, g6, coboundary(k3, b, character=chi)))
    rep6 = verify_action_exhaustive(mod6)
    assert rep6.ok, rep6.message

    k4, sp8, d4 = _d4_scene()
    b8 = random_unimodular(k4.field, 3, 16, rng)
    mod8 = assemble_product(build_spec_from_scene(sp8, d4, coboundary(k4, b8)))
    rep8 = verify_action_exhaustive(mod8)
    assert rep8.ok, rep8.message
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 5.0,
            f"group law exhaustive on |G|=6 (36 pairs, rank 2) and |G|=8 "
            f"(64 pairs, rank 3) at N=16 ({elapsed:.2f}s < 5s)")


def test_criterion_3_connector_independence():
    """>= 5 scenes, two distinct connector choices each, verified intertwiner."""
    t0 = time.perf_counter()
    rng = SplitMix64(333)
    scenes = []
    k3, sp6, g6 = _z6_scene()
    scenes.append((sp6, g6, [1], [3], k3, 1))
    k4, sp8, d4 = _d4_scene()
    scenes.append((sp8, d4, [4], [5], k4, 2))
    F5 = make_field(5)
    k2 = make_kummer(F5, 2, 16)
    g22 = direct_product(cyclic(2), cyclic(2))
    scenes.append((ScenePoint("p", k2, (0, 1), (0, 2)), g22, [2], [3], k2, 2))
    F2 = make_field(2)
    as2 = make_artin_schreier(F2, 16)
    scenes.append((ScenePoint("p", as2, (0, 2), (0, 1)), cyclic(4), [1], [3], as2, 2))
    F3 = make_field(3)
    as3 = make_artin_schreier(F3, 16)
    scenes.append((ScenePoint("p", as3, (0, 2, 4), (0, 1)), cyclic(6), [1], [5], as3, 1))
    k2_3 = make_kummer(F3, 2, 16)
    scenes.append((ScenePoint("p", k2_3, (0, 3), (0, 1, 2)), cyclic(6),
                   [1, 1], [4, 1], k2_3, 1))
    count = 0
    for sp, group, seeds1, seeds2, ext, rank in scenes:
        psi = coboundary(ext, random_unimodular(ext.field, rank, 16, rng))
        perms = sp.perms(group)
        m1 = assemble_product(build_spec_from_scene(
            sp, group, psi, connectors=make_connectors(group, perms, seeds1)))
        m2 = assemble_product(build_spec_from_scene(
            sp, group, psi, connectors=make_connectors(group, perms, seeds2)))
        tau = independence_intertwiner(m1, m2)   # raises unless verified
        assert first_nonintertwining_exhaustive(m1, m2, tau.blocks).ok
        count += 1
    elapsed = time.perf_counter() - t0
    _report(3, count >= 5 and elapsed < 5.0,
            f"{count} scenes with two connector choices, intertwiners verified "
            f"exhaustively ({elapsed:.2f}s < 5s)")


def test_criterion_4_roundtrip_suite():
    """20 seeded random data per scene family (Kummer 2/3, AS 2/3), rank <= 2,
    N = 16: both round trips close with explicit isomorphisms, 100% pass."""
    t0 = time.perf_counter()
    n = 16
    families = []
    F5 = make_field(5)
    k2 = make_kummer(F5, 2, n)
    families.append(("kummer2", k2,
                     CoverScene(group=direct_product(cyclic(2), cyclic(2)),
                                points=(ScenePoint("p", k2, (0, 1), (0, 2)),)),
                     [0, 1]))
    F7 = make_field(7)
    k3 = make_kummer(F7, 3, n)
    families.append(("kummer3", k3,
                     CoverScene(group=cyclic(6),
                                points=(ScenePoint("p", k3, (0, 2, 4), (0, 1)),)),
                     [0, 1, 2]))
    F2 = make_field(2)
    as2 = make_artin_schreier(F2, n)
    families.append(("as2", as2,
                     CoverScene(group=cyclic(4),
                                points=(ScenePoint("p", as2, (0, 2), (0, 1)),)),
                     [0]))
    F3 = make_field(3)
    as3 = make_artin_schreier(F3, n)
    families.append(("as3", as3,
                     CoverScene(group=cyclic(6),
                                points=(ScenePoint("p", as3, (0, 2, 4), (0, 1)),)),
                     [0]))
    total = 0
    for name, ext, scene, exps in families:
        rng = SplitMix64(0xC4 + total)
        for i in range(20):
            rank = 1 + rng.randrange(2)
            exp = exps[rng.randrange(len(exps))]
            d = random_datum(ext, rank, rng, character_exponent=exp)
            rep = roundtrip_check(d, scene)
            assert rep.ok, f"{name}[{i}]: {rep.message}"
            total += 1
    elapsed = time.perf_counter() - t0
    _report(4, total == 80 and elapsed < 30.0,
            f"80/80 random round trips closed with explicit isomorphisms "
            f"({elapsed:.2f}s < 30s)")


def test_criterion_5_sign_twist_referee_case():
    """A_sigma = -1 over Kummer 2/GF(5): is_induced false with profile [1],
    round trip still closes, S recovers mu = s exactly."""
    F5 = make_field(5)
    d = sign_twist_datum(F5, 16)
    scene = totally_ramified_scene(d.points[0].ext)
    b = functor_T(d, scene)
    ind = is_induced(b.points[0].module)
    assert ind.induced is False and ind.profile == (1,), \
        f"induced={ind.induced}, profile={ind.profile}"
    rep = roundtrip_check(d, scene)
    assert rep.ok, rep.message
    sres = functor_S(b)
    out = sres.datum.points[0]
    assert out.psi.mats[1].entries[0][0].coeffs[0] == 4
    mu = out.mu.entries[0][0]
    lo, hi = mu.window
    assert mu.coeff(1) == 1 and all(mu.coeff(k) == 0 for k in range(lo, hi) if k != 1)
    _report(5, True, "is_induced = false with divisor profile [1]; round trip "
            "closes; S o T recovers (A = -1, mu = s) exactly")


def test_criterion_6_section4_calculus():
    t0 = time.perf_counter()
    F5 = make_field(5)
    F7 = make_field(7)
    F3 = make_field(3)
    n = 16
    k2 = make_kummer(F5, 2, n)
    rng = SplitMix64(0x6)

    # (a) dual involution on the full corpus, literal equality
    corpus = [trivial_datum(1, [("p", k2)]),
              trivial_datum(2, [("p", k2)]),
              sign_twist_datum(F5, n),
              random_datum(make_kummer(F7, 3, n), 2, rng, character_exponent=1),
              random_datum(make_artin_schreier(F3, n), 2, rng),
              random_datum(make_artin_schreier(make_field(2), n), 1, rng)]
    for d in corpus:
        dd = dual(dual(d))
        for pt in d.points:
            pt2 = dd.point(pt.label)
            for g in range(pt.ext.group.order):
                assert pt2.psi.mats[g].agrees_with(pt.psi.mats[g]), "(a) dual**"
            assert pt2.mu.first_mismatch(pt.mu) is None, "(a) dual** mu"

    # (b) dual pairing trivial on the induced corpus
    induced_corpus = [trivial_datum(1, [("p", k2)]),
                      random_datum(k2, 2, rng),
                      random_datum(make_artin_schreier(F3, n), 2, rng)]
    for d in induced_corpus:
        rep = dual_pairing_check(d, rng=rng.fork())
        assert rep.ok, f"(b) pairing: {rep.message}"

    # (c) i* separates sign twist from trivial after Kummer 2 in 4 pullback
    emb = kummer_tower(F5, 2, 4, n)
    ref = RefinementMap(embeddings={"p": emb})
    sep = equiv_check(sign_twist_datum(F5, n), trivial_datum(1, [("p", k2)]),
                      ref, ref, rng=rng.fork())
    assert sep.status == "distinct" and sep.proven, f"(c) {sep.detail}"

    # (d) T' o i* = i~* o T on the tower demo, explicit isomorphism
    spb = ScenePullback(embeddings={"p": emb},
                        scene_small=totally_ramified_scene(emb.small),
                        scene_big=totally_ramified_scene(emb.big),
                        group_quotient=emb.quotient)
    for d in (sign_twist_datum(F5, n),
              random_datum(k2, 2, rng, character_exponent=1)):
        rep = pullback_T_compat(d, spb, ref)
        assert rep.ok, f"(d) {rep.message}"

    # (e) adjunction dimensions by brute force on rank-1 cases
    for pt in (trivial_datum(1, [("p", k2)]).points[0],
               sign_twist_datum(F5, n).points[0],
               random_datum(make_artin_schreier(make_field(2), n), 1, rng).points[0]):
        rep = adjunction_check(1, pt)
        assert rep.ok and rep.lhs_rank == rep.rhs_rank, f"(e) {rep.message}"
        assert rep.projection_ok, "(e) projection formula"

    # (f) pushforward of the trivial Kummer-2 line: diag(1, -1), rank-1 invariants
    b = functor_T(trivial_datum(1, [("p", k2)]), totally_ramified_scene(k2))
    pushed = pushforward_local(b)
    assert pushed.rank_out == 2
    rep_mat = pushed.formal_rep[1]
    assert rep_mat.entries[0][0].coeffs[0] == 1
    assert rep_mat.entries[1][1].coeffs[0] == 4
    assert rep_mat.entries[0][1].is_zero() and rep_mat.entries[1][0].is_zero()
    assert len(pushed.invariants()) == 1
    elapsed = time.perf_counter() - t0
    _report(6, elapsed < 30.0,
            f"dual involution, dual pairing, i* separation, T-compatibility, "
            f"adjunction, pushforward all exact ({elapsed:.2f}s < 30s)")


def test_criterion_7_weight_extraction():
    t0 = time.perf_counter()
    F13 = make_field(13)
    ext = make_kummer(F13, 4, 12)
    zeta = F13.root_of_unity(4)
    rng = SplitMix64(0x7)
    for exps in ([0, 1, 3], [2, 2, 3], [0, 0, 0]):
        diag = tuple(
            Matrix([[Series.constant(F13, F13.pow(zeta, exps[i] * g), 12)
                     if i == j else Series.zero(F13, 12) for j in range(3)]
                    for i in range(3)])
            for g in range(4))
        psi = Cocycle(ext, 3, diag)
        # conjugate by a random matrix congruent to the identity mod s
        b = Matrix([[Series(F13, 12, (1 if i == j else 0,) +
                            tuple(rng.randrange(13) for _ in range(11)))
                     for j in range(3)] for i in range(3)])
        twisted = twist(psi, b)
        mu_diag = Matrix([[Laurent.exact(F13, (4 - exps[i]) % 4 if i == j else 0,
                                         [1] if i == j else [], 12)
                           for j in range(3)] for i in range(3)])
        d = ParabolicDatum(rank=3, points=(
            ParabolicPoint("p", ext, twisted,
                           b.inverse().to_laurent() * mu_diag),))
        res = extract_weights(d)
        from fractions import Fraction
        assert res.weights == sorted(Fraction(a, 4) for a in exps), \
            f"weights {res.weights} != {sorted(exps)}/4"
    wild_failed = False
    try:
        extract_weights(trivial_datum(1, [("p", make_artin_schreier(make_field(2), 12))]))
    except DomainError as exc:
        wild_failed = "wild inertia" in str(exc)
    assert wild_failed, "AS datum must error with 'wild inertia'"
    elapsed = time.perf_counter() - t0
    _report(7, elapsed < 1.0,
            f"weights recover the planted multiset under unipotent conjugation; "
            f"wild inertia errors as specified ({elapsed:.2f}s < 1s)")


def test_criterion_8_determinism():
    """Two runs of the full demo suite with the same seeds produce
    byte-identical machine-readable reports."""
    names = ["kummer(2,5,1)", "artin-schreier(2)", "sign-twist", "z6-two-points",
             "tower-2-4", "multipoint-mixed"]
    first = {}
    for round_ in range(2):
        for name in names:
            sc = load_scenario(demo_scenario(name))
            text = canonical_report(run_scenario(sc))
            if round_ == 0:
                first[name] = text
            else:
                assert text == first[name], f"report for {name} differs between runs"
    _report(8, True, f"{len(names)} demo reports byte-identical across two runs")
