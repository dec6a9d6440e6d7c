import pytest

from orbipar import linalg, parabolic
from orbipar.equivariant import is_induced
from orbipar.errors import ConfigurationError
from orbipar.fields import make_field
from orbipar.groups import cyclic, dihedral, direct_product
from orbipar.linalg import Matrix
from orbipar.local_galois import make_artin_schreier, make_kummer
from orbipar.parabolic import (CoverScene, GluedBundle, ParabolicDatum, ParabolicPoint,
                               ScenePoint, functor_S, functor_T, glued_point,
                               multipoint_map, random_datum,
                               roundtrip_check, sign_twist_datum, totally_ramified_scene,
                               trivial_datum, validate_parabolic,
                               validate_parabolic_morphism, verify_glued)
from orbipar.prng import SplitMix64
from orbipar.series import Laurent, Series

F5 = make_field(5)
F7 = make_field(7)
N = 16


# -- validation --


def test_trivial_datum_validates():
    ext = make_kummer(F5, 2, N)
    assert validate_parabolic(trivial_datum(2, [("p", ext)])).ok


def test_sign_twist_validates():
    assert validate_parabolic(sign_twist_datum(F5, N)).ok


def test_sign_twist_with_wrong_mu_fails():
    d = sign_twist_datum(F5, N)
    pt = d.points[0]
    bad_mu = Matrix.identity(F5, 1, N).to_laurent()
    bad = ParabolicDatum(rank=1, points=(
        ParabolicPoint(pt.label, pt.ext, pt.psi, bad_mu),))
    rep = validate_parabolic(bad)
    assert not rep.ok and "condition (b)" in rep.message


def test_singular_mu_is_not_invertible():
    ext = make_kummer(F5, 2, N)
    one = Laurent.exact(F5, 0, [1], N)
    pt = trivial_datum(2, [("p", ext)]).points[0]
    bad = ParabolicDatum(rank=2, points=(
        ParabolicPoint("p", ext, pt.psi, Matrix([[one, one], [one, one]])),))
    rep = validate_parabolic(bad)
    assert not rep.ok and rep.message == "mu at p is not invertible"


def test_programming_error_in_inverse_propagates(monkeypatch):
    """Only orbipar errors read as "not invertible"; anything else is a bug.
    mu = diag(1, t), t = s^2 the base uniformizer, inverts, but its lowest
    coefficients diag(1, 0) are singular, so is_invertible reaches the
    Smith form for mu and for tau."""
    ext = make_kummer(F5, 2, N)
    triv = trivial_datum(2, [("p", ext)]).points[0]
    mu = Matrix([[Laurent.exact(F5, 0, [1], N), Laurent.zero(F5, N)],
                 [Laurent.zero(F5, N), Laurent.exact(F5, 2, [1], N)]])
    d = ParabolicDatum(rank=2, points=(ParabolicPoint("p", ext, triv.psi, mu),))
    assert validate_parabolic(d).ok
    b = functor_T(d, totally_ramified_scene(ext))
    assert verify_glued(b).ok

    def broken_smith(m):
        raise TypeError("broken Smith form")

    monkeypatch.setattr(linalg, "smith", broken_smith)
    with pytest.raises(TypeError):
        validate_parabolic(d)
    with pytest.raises(TypeError):
        verify_glued(b)


# -- functor T --


def test_functor_t_trivial_is_trivial():
    ext = make_kummer(F5, 2, N)
    d = trivial_datum(1, [("p", ext)])
    b = functor_T(d, totally_ramified_scene(ext))
    pt = b.points[0]
    ident = Matrix.identity(F5, 1, N)
    for g in range(2):
        j, m, w = pt.module.phi[g][0]
        assert m.agrees_with(ident) and w == g
    assert pt.taus[0].first_mismatch(ident.to_laurent()) is None


def test_functor_t_totally_ramified_formal_is_psi():
    d = sign_twist_datum(F5, N)
    ext = d.points[0].ext
    b = functor_T(d, totally_ramified_scene(ext))
    pt = b.points[0]
    for g in range(2):
        j, m, w = pt.module.phi[g][0]
        assert m.agrees_with(d.points[0].psi.mats[g])
    assert pt.taus[0].first_mismatch(d.points[0].mu) is None
    assert verify_glued(b).ok


def test_functor_t_scene_extension_mismatch():
    d = sign_twist_datum(F5, N)
    other = make_kummer(F5, 4, N)
    with pytest.raises(ConfigurationError):
        functor_T(d, totally_ramified_scene(other))


# -- functor S --


def test_functor_s_trivial():
    ext = make_kummer(F5, 2, N)
    d = trivial_datum(2, [("p", ext)])
    b = functor_T(d, totally_ramified_scene(ext))
    res = functor_S(b)
    assert res.induced["p"]
    ident = Matrix.identity(F5, 2, N)
    for g in range(2):
        assert res.datum.points[0].psi.mats[g].agrees_with(ident)


def test_functor_s_sign_twist_recovers_exactly():
    """The referee case: invariants generated by s, identification pushes the
    discrepancy into mu, recovering (-1, s) on the nose."""
    d = sign_twist_datum(F5, N)
    b = functor_T(d, totally_ramified_scene(d.points[0].ext))
    res = functor_S(b)
    assert not res.induced["p"]
    out = res.datum.points[0]
    assert out.psi.mats[1].entries[0][0].coeffs[0] == 4
    mu = out.mu.entries[0][0]
    assert mu.coeff(1) == 1 and all(mu.coeff(k) == 0
                                    for k in range(mu.window[0], mu.window[1])
                                    if k != 1)


# -- round trips --


def test_roundtrip_trivial():
    ext = make_kummer(F5, 2, N)
    d = trivial_datum(1, [("p", ext)])
    rep = roundtrip_check(d, totally_ramified_scene(ext))
    assert rep.ok
    # both isomorphisms are identities
    assert rep.sigmas["p"].agrees_with(Matrix.identity(F5, 1, N))


def test_roundtrip_sign_twist():
    d = sign_twist_datum(F5, N)
    rep = roundtrip_check(d, totally_ramified_scene(d.points[0].ext))
    assert rep.ok


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_roundtrip_random_families(seed):
    rng = SplitMix64(seed)
    cases = []
    k2 = make_kummer(F5, 2, N)
    cases.append((k2, CoverScene(group=direct_product(cyclic(2), cyclic(2)),
                                 points=(ScenePoint("p", k2, (0, 1), (0, 2)),)), 1))
    k3 = make_kummer(F7, 3, N)
    cases.append((k3, CoverScene(group=cyclic(6),
                                 points=(ScenePoint("p", k3, (0, 2, 4), (0, 1)),)), 2))
    as2 = make_artin_schreier(make_field(2), N)
    cases.append((as2, CoverScene(group=cyclic(4),
                                  points=(ScenePoint("p", as2, (0, 2), (0, 1)),)), 0))
    for ext, scene, exp in cases:
        d = random_datum(ext, 1 + rng.randrange(2), rng, character_exponent=exp)
        rep = roundtrip_check(d, scene)
        assert rep.ok, rep.message


def test_roundtrip_dihedral_scene():
    """Nonabelian G: conjugation genuinely inverts the inertia action."""
    F13 = make_field(13)
    k4 = make_kummer(F13, 4, 12)
    scene = CoverScene(group=dihedral(4),
                       points=(ScenePoint("p", k4, (0, 1, 2, 3), (0, 4)),))
    rng = SplitMix64(44)
    d = random_datum(k4, 2, rng, character_exponent=1)
    rep = roundtrip_check(d, scene)
    assert rep.ok, rep.message


def test_is_induced_on_t_images_of_induced_corpus():
    rng = SplitMix64(9)
    for ext in (make_kummer(F5, 2, N), make_artin_schreier(make_field(3), 15)):
        d = random_datum(ext, 2, rng)
        b = functor_T(d, totally_ramified_scene(ext))
        assert is_induced(b.points[0].module).induced


def test_connector_independence_at_glued_level():
    """Two connector choices give glued bundles isomorphic through the
    intertwiner, including the gluing square tau2_j = rho_j o tau1_j."""
    from orbipar.equivariant import independence_intertwiner, make_connectors

    k3 = make_kummer(F7, 3, 12)
    g6 = cyclic(6)
    sp = ScenePoint("p", k3, (0, 2, 4), (0, 1))
    scene = CoverScene(group=g6, points=(sp,))
    rng = SplitMix64(55)
    d = random_datum(k3, 2, rng, character_exponent=1)
    perms = sp.perms(g6)
    conn1 = make_connectors(g6, perms, [1])
    conn2 = make_connectors(g6, perms, [3])
    p1 = glued_point(d.points[0], sp, g6, conn1)
    p2 = glued_point(d.points[0], sp, g6, conn2)
    assert verify_glued(GluedBundle(rank=2, scene=scene, points=(p1,))).ok
    assert verify_glued(GluedBundle(rank=2, scene=scene, points=(p2,))).ok
    rho = independence_intertwiner(p1.module, p2.module)
    for j, blk in enumerate(rho.blocks):
        lhs = p2.taus[j]
        rhs = blk.to_laurent() * p1.taus[j]
        assert lhs.first_mismatch(rhs) is None


# -- multipoint --


def test_multipoint_empty_support():
    d = ParabolicDatum(rank=2, points=())
    scene = CoverScene(group=cyclic(6), points=())
    rep = multipoint_map(d, scene)
    assert rep.ok and rep.per_point == {}


def test_multipoint_mixed_kummer_artin_schreier():
    F3 = make_field(3)
    k2 = make_kummer(F3, 2, 12)
    as3 = make_artin_schreier(F3, 12)
    g6 = cyclic(6)
    scene = CoverScene(group=g6, points=(
        ScenePoint("A", k2, (0, 3), (0, 1, 2)),
        ScenePoint("B", as3, (0, 2, 4), (0, 1))))
    rng = SplitMix64(66)
    dA = random_datum(k2, 1, rng, label="A", character_exponent=1)
    dB = random_datum(as3, 1, rng, label="B")
    d = ParabolicDatum(rank=1, points=(dA.points[0], dB.points[0]))
    rep = multipoint_map(d, scene)
    assert rep.ok, rep.per_point


def test_multipoint_trivial_point_is_absorbing():
    F3 = make_field(3)
    k2 = make_kummer(F3, 2, 12)
    as3 = make_artin_schreier(F3, 12)
    scene = CoverScene(group=cyclic(6), points=(
        ScenePoint("A", k2, (0, 3), (0, 1, 2)),
        ScenePoint("B", as3, (0, 2, 4), (0, 1))))
    rng = SplitMix64(67)
    dB = random_datum(as3, 1, rng, label="B")
    triv = trivial_datum(1, [("A", k2)])
    d = ParabolicDatum(rank=1, points=(triv.points[0], dB.points[0]))
    rep = multipoint_map(d, scene)
    assert rep.ok
    assert rep.per_point["A"]["induced"] is True


def _two_point_datum():
    F3 = make_field(3)
    k2 = make_kummer(F3, 2, 12)
    as3 = make_artin_schreier(F3, 12)
    scene = CoverScene(group=cyclic(6), points=(
        ScenePoint("A", k2, (0, 3), (0, 1, 2)),
        ScenePoint("B", as3, (0, 2, 4), (0, 1))))
    dB = random_datum(as3, 1, SplitMix64(67), label="B")
    triv = trivial_datum(1, [("A", k2)])
    return ParabolicDatum(rank=1, points=(triv.points[0], dB.points[0])), scene


def _failing_at_a(monkeypatch, exc):
    """roundtrip_check that raises exc at the one-point datum on A."""
    original = parabolic.roundtrip_check

    def check(d, scene):
        if d.points[0].label == "A":
            raise exc
        return original(d, scene)

    monkeypatch.setattr(parabolic, "roundtrip_check", check)


def test_multipoint_reports_an_orbipar_error_at_its_point(monkeypatch):
    d, scene = _two_point_datum()
    clean = multipoint_map(d, scene)
    _failing_at_a(monkeypatch, ConfigurationError("planted at A"))
    rep = multipoint_map(d, scene)
    assert not rep.ok
    assert rep.per_point["A"] == "error: planted at A"
    assert rep.per_point["B"] == clean.per_point["B"]
    assert set(rep.sigmas) == set(rep.rhos) == {"B"}
    assert rep.sigmas["B"].agrees_with(clean.sigmas["B"])


def test_multipoint_programming_error_propagates(monkeypatch):
    """Only orbipar errors are reported per point; anything else is a bug."""
    d, scene = _two_point_datum()
    _failing_at_a(monkeypatch, TypeError("broken round trip"))
    with pytest.raises(TypeError):
        multipoint_map(d, scene)


# -- morphism validation --


def test_morphism_identity_passes():
    d = sign_twist_datum(F5, N)
    ident_sigma = {"p": Matrix.identity(F5, 1, N)}
    ident_g = Matrix.identity(F5, 1, N // 2)
    assert validate_parabolic_morphism(d, d, ident_g, ident_sigma).ok


def test_morphism_scalar_passes():
    ext = make_kummer(F5, 2, N)
    d = trivial_datum(2, [("p", ext)])
    c = Matrix.identity(F5, 2, N).scale(3)
    g = Matrix.identity(F5, 2, N // 2).scale(3)
    assert validate_parabolic_morphism(d, d, g, {"p": c}).ok


def test_morphism_sign_to_trivial_mu_square():
    """sigma = s is equivariant, but the mu square needs g = 4t; with g = Id
    it fails, with g = 4t it passes (a morphism, not an isomorphism)."""
    d = sign_twist_datum(F5, N)
    triv = trivial_datum(1, [("p", d.points[0].ext)])
    sigma = {"p": Matrix([[Series.s(F5, N)]])}
    g_id = Matrix.identity(F5, 1, N // 2)
    rep = validate_parabolic_morphism(d, triv, g_id, sigma)
    assert not rep.ok and "mu square" in rep.message
    g_t = Matrix([[Series.monomial(F5, 4, 1, N // 2)]])
    assert validate_parabolic_morphism(d, triv, g_t, sigma).ok
