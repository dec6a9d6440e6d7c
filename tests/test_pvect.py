import pytest
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from orbipar.equivariant import Cocycle, verify_cocycle
from orbipar.errors import ConfigurationError, DomainError
from orbipar.fields import make_field
from orbipar.groups import cyclic, direct_product
from orbipar.linalg import Matrix, kernel_by_blocks, solve_linear
from orbipar.local_galois import (identity_embedding, kummer_tower, make_artin_schreier,
                                  make_kummer)
from orbipar.parabolic import (CoverScene, ParabolicDatum, ParabolicPoint, ScenePoint,
                               functor_T, random_datum, random_unimodular, sign_twist_datum,
                               totally_ramified_scene, trivial_datum, validate_parabolic,
                               validate_parabolic_morphism)
from orbipar import linalg, pvect
from orbipar.prng import SplitMix64
from orbipar.pvect import (RefinementMap, ScenePullback, adjunction_check,
                           decompose_laurent, decompose_series, dual,
                           dual_pairing_check, equiv_check, extract_weights,
                           find_parabolic_isomorphism, glued_pullback,
                           pullback_T_compat, pullback_refine, pushforward_local,
                           tensor)
from orbipar.series import Laurent, Series

from cocycle_twist import twist

F5 = make_field(5)
F7 = make_field(7)
N = 16


# -- refinement pullback --


def test_identity_refinement_is_identity():
    d = sign_twist_datum(F5, N)
    emb = identity_embedding(d.points[0].ext)
    out = pullback_refine(d, RefinementMap(embeddings={"p": emb}))
    assert out.points[0].psi.mats[1].agrees_with(d.points[0].psi.mats[1])
    assert out.points[0].mu.first_mismatch(d.points[0].mu) is None


def test_tower_pullback_of_sign_twist():
    """Kummer 2 in 4: A' assigns -1 to the odd lifts and the substitution-only
    action (identity matrix) to the even ones; re-verified as a cocycle."""
    d = sign_twist_datum(F5, N)
    emb = kummer_tower(F5, 2, 4, N)
    out = pullback_refine(d, RefinementMap(embeddings={"p": emb}))
    assert out.points[0].ext.group.order == 4
    assert out.points[0].psi.mats[1].entries[0][0].coeffs[0] == 4
    assert out.points[0].psi.mats[2].entries[0][0].coeffs[0] == 1
    assert out.points[0].psi.mats[3].entries[0][0].coeffs[0] == 4
    assert verify_cocycle(out.points[0].psi).ok


def test_refinement_with_new_trivial_point():
    d = sign_twist_datum(F5, N)
    emb = identity_embedding(d.points[0].ext)
    k4 = make_kummer(F5, 4, N)
    out = pullback_refine(d, RefinementMap(embeddings={"p": emb},
                                           new_points=(("q", k4),)))
    assert len(out.points) == 2
    q = out.point("q")
    assert all(q.psi.mats[g].agrees_with(Matrix.identity(F5, 1, N)) for g in range(4))


def test_missing_embedding_is_configuration_error():
    d = sign_twist_datum(F5, N)
    with pytest.raises(ConfigurationError):
        pullback_refine(d, RefinementMap(embeddings={}))
    wrong = kummer_tower(F5, 4, 4, N)   # starts at Kummer 4, not Kummer 2
    with pytest.raises(ConfigurationError):
        pullback_refine(d, RefinementMap(embeddings={"p": wrong}))


def test_pullback_restriction_recovers_original():
    """A' entries restricted along s_image equal the A entries (pequiv clause)."""
    rng = SplitMix64(12)
    d = random_datum(make_kummer(F5, 2, N), 2, rng, character_exponent=1)
    emb = kummer_tower(F5, 2, 4, N)
    out = pullback_refine(d, RefinementMap(embeddings={"p": emb}))
    for g_big in range(4):
        g_small = emb.quotient[g_big]
        expect = d.points[0].psi.mats[g_small].map(emb.expand)
        assert out.points[0].psi.mats[g_big].agrees_with(expect)


# -- equivalence --


def test_equiv_reflexive():
    d = sign_twist_datum(F5, N)
    emb = identity_embedding(d.points[0].ext)
    ref = RefinementMap(embeddings={"p": emb})
    res = equiv_check(d, d, ref, ref, rng=SplitMix64(1))
    assert res.status == "isomorphic"


def test_equiv_with_own_pullback():
    d = sign_twist_datum(F5, N)
    emb = kummer_tower(F5, 2, 4, N)
    d4 = pullback_refine(d, RefinementMap(embeddings={"p": emb}))
    res = equiv_check(d, d4, RefinementMap(embeddings={"p": emb}),
                      RefinementMap(embeddings={"p": identity_embedding(emb.big)}),
                      rng=SplitMix64(2))
    assert res.status == "isomorphic" and res.proven


def test_equiv_separates_sign_twist_from_trivial():
    d = sign_twist_datum(F5, N)
    triv = trivial_datum(1, [("p", d.points[0].ext)])
    emb = kummer_tower(F5, 2, 4, N)
    ref = RefinementMap(embeddings={"p": emb})
    res = equiv_check(d, triv, ref, ref, rng=SplitMix64(3))
    assert res.status == "distinct" and res.proven


def test_iso_search_separates_distinct_characters():
    ext = make_kummer(F5, 4, N)
    rng = SplitMix64(4)
    d1 = random_datum(ext, 1, rng, character_exponent=1)
    d2 = random_datum(ext, 1, rng, character_exponent=2)
    res = find_parabolic_isomorphism(d1, d2, rng=SplitMix64(5))
    assert res.status == "distinct" and res.proven


# (field p, Kummer order n or None for Artin-Schreier, precision)
ISO_EXTENSIONS = [(5, 2, 6), (5, 4, 6), (7, 3, 6), (2, None, 6), (3, None, 6)]


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(ISO_EXTENSIONS), rank=st.integers(1, 2),
       character=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_iso_search_properties(spec, rank, character, seed):
    """A datum is isomorphic to itself with certificates that re-validate; for
    Kummer, data with different characters are distinct, with proof."""
    p, n, prec = spec
    field = make_field(p)
    ext = make_artin_schreier(field, prec) if n is None else make_kummer(field, n, prec)
    rng = SplitMix64(seed)
    exponent = 0 if n is None else character % n
    d = random_datum(ext, rank, rng, character_exponent=exponent)
    res = find_parabolic_isomorphism(d, d, rng=rng.fork())
    assert res.status == "isomorphic" and res.proven
    assert validate_parabolic_morphism(d, d, res.g, res.sigmas).ok
    if n is not None:
        other = random_datum(ext, rank, rng, character_exponent=(exponent + 1) % n)
        res = find_parabolic_isomorphism(d, other, rng=rng.fork())
        assert res.status == "distinct" and res.proven


def test_iso_search_on_short_gluing_windows():
    """The dual of a gluing diag(s, 1) has windows one shorter than the
    precision; the search still finds and re-verifies the identity class."""
    ext = make_kummer(F5, 2, 8)
    one, zero = Series.one(F5, 8), Series.zero(F5, 8)
    psi = Cocycle(ext, 2, (Matrix.identity(F5, 2, 8),
                           Matrix([[one.scale(4), zero], [zero, one]])))
    mu = Matrix([[Laurent.exact(F5, 1, [1], 8), Laurent.zero(F5, 8)],
                 [Laurent.zero(F5, 8), Laurent.exact(F5, 0, [1], 8)]])
    dd = dual(ParabolicDatum(rank=2, points=(ParabolicPoint("p", ext, psi, mu),)))
    assert min(len(e.coeffs) for row in dd.points[0].mu.entries for e in row) < 8
    res = find_parabolic_isomorphism(dd, dd, rng=SplitMix64(6))
    assert res.status == "isomorphic" and res.proven
    assert validate_parabolic_morphism(dd, dd, res.g, res.sigmas).ok


def _twisted(d, rng):
    """d in another basis at each point: A_g -> B^-1 A_g psi(g)(B) and
    mu -> B^-1 mu, for a random unimodular B; isomorphic to d."""
    pts = []
    for pt in d.points:
        b = random_unimodular(pt.ext.field, d.rank, pt.ext.prec, rng)
        pts.append(ParabolicPoint(pt.label, pt.ext, twist(pt.psi, b),
                                  b.inverse().to_laurent() * pt.mu))
    return ParabolicDatum(rank=d.rank, points=tuple(pts))


# (field p, Kummer order n or None for Artin-Schreier, per point), rank
BLOCK_SEARCH_CASES = [((5, (4,)), 1), ((5, (2,)), 2), ((7, (3, 3)), 2), ((2, (None,)), 2),
                      ((2, (None, None)), 1), ((3, (None,)), 2), ((3, (None, None)), 1)]


@pytest.mark.parametrize("spec, rank", BLOCK_SEARCH_CASES)
def test_iso_search_by_blocks_matches_one_joint_solve(monkeypatch, spec, rank):
    """The search with its system solved block by block returns what it
    returns with one joint solve_linear, on V (x) V* against the trivial
    datum and on d against a twist of d."""
    p, kinds = spec
    field = make_field(p)
    rng = SplitMix64(p * 100 + rank)
    pts = []
    for i, n in enumerate(kinds):
        ext = make_artin_schreier(field, 6) if n is None else make_kummer(field, n, 6)
        pts += random_datum(ext, rank, rng, label=f"p{i}",
                            character_exponent=0 if n is None else 1).points
    d = ParabolicDatum(rank=rank, points=tuple(pts))
    pair = tensor(d, dual(d))
    other = _twisted(d, rng)
    assert validate_parabolic(other).ok
    searches = [(pair, trivial_datum(pair.rank, [(q.label, q.ext) for q in pair.points])),
                (d, other)]
    solves, blocks = [], []

    def counted(field, rows, *rest):
        solves.append(len(rows))
        return solve_linear(field, rows, *rest)

    def split(field, rows, n):
        start = len(solves)
        kernel = kernel_by_blocks(field, rows, n)
        blocks.append(len(solves) - start)
        return kernel

    monkeypatch.setattr(linalg, "solve_linear", counted)
    monkeypatch.setattr(pvect, "kernel_by_blocks", split)
    by_blocks = [find_parabolic_isomorphism(d1, d2, rng=SplitMix64(7)) for d1, d2 in searches]
    # solves per system: at rank 2 the pairing splits into a block per row of
    # the reference; the twist is one block, one solve_linear of its rows
    assert blocks[0] >= (4 if rank == 2 else 1) and blocks[1] == 1
    monkeypatch.setattr(pvect, "kernel_by_blocks",
                        lambda field, rows, n: solve_linear(field, rows).kernel)
    joint = [find_parabolic_isomorphism(d1, d2, rng=SplitMix64(7)) for d1, d2 in searches]
    for a, b in zip(by_blocks, joint):
        assert a.status == b.status == "isomorphic"
        assert a.g == b.g and a.sigmas == b.sigmas


# -- tensor --


def test_tensor_with_trivial_is_identity():
    d = sign_twist_datum(F5, N)
    triv = trivial_datum(1, [("p", d.points[0].ext)])
    out = tensor(triv, d)
    assert out.rank == 1
    assert out.points[0].psi.mats[1].agrees_with(d.points[0].psi.mats[1])
    assert out.points[0].mu.first_mismatch(d.points[0].mu) is None


def test_tensor_sign_with_sign():
    d = sign_twist_datum(F5, N)
    out = tensor(d, d)
    assert out.points[0].psi.mats[1].entries[0][0].coeffs[0] == 1
    mu = out.points[0].mu.entries[0][0]
    assert mu.coeff(2) == 1 and mu.valuation() == 2
    from orbipar.equivariant import trivialize
    assert trivialize(out.points[0].psi).found


def test_tensor_rank_multiplies_and_validates():
    rng = SplitMix64(6)
    ext = make_kummer(F7, 3, N)
    d1 = random_datum(ext, 2, rng, character_exponent=1)
    d2 = random_datum(ext, 1, rng, character_exponent=2)
    out = tensor(d1, d2)
    assert out.rank == 2
    assert validate_parabolic(out).ok


# -- dual --


def test_dual_trivial_is_trivial():
    ext = make_kummer(F5, 2, N)
    d = trivial_datum(2, [("p", ext)])
    out = dual(d)
    for g in range(2):
        assert out.points[0].psi.mats[g].agrees_with(Matrix.identity(F5, 2, N))


def test_dual_sign_twist():
    d = sign_twist_datum(F5, N)
    out = dual(d)
    assert out.points[0].psi.mats[1].entries[0][0].coeffs[0] == 4
    # the functorial dual gluing is the inverse transpose: s^{-1}
    assert out.points[0].mu.entries[0][0].coeff(-1) == 1


def test_dual_involution_exact_on_corpus():
    rng = SplitMix64(7)
    corpus = [sign_twist_datum(F5, N),
              trivial_datum(2, [("p", make_kummer(F5, 2, N))]),
              random_datum(make_kummer(F7, 3, N), 2, rng, character_exponent=1),
              random_datum(make_artin_schreier(make_field(3), 15), 2, rng)]
    for d in corpus:
        dd = dual(dual(d))
        for pt in d.points:
            pt2 = dd.point(pt.label)
            for g in range(pt.ext.group.order):
                assert pt2.psi.mats[g].agrees_with(pt.psi.mats[g])
            assert pt2.mu.first_mismatch(pt.mu) is None


def test_dual_pairing_on_induced_corpus():
    rng = SplitMix64(8)
    corpus = [trivial_datum(1, [("p", make_kummer(F5, 2, N))]),
              random_datum(make_kummer(F5, 2, N), 2, rng),
              random_datum(make_artin_schreier(make_field(3), 15), 2, rng)]
    for d in corpus:
        rep = dual_pairing_check(d, rng=rng.fork())
        assert rep.ok, rep.message


def test_dual_pairing_sign_twist():
    rep = dual_pairing_check(sign_twist_datum(F5, N), rng=SplitMix64(9))
    assert rep.ok


# -- graded decomposition and pushforward --


def test_decompose_series_round_trip():
    ext = make_kummer(F5, 2, 12)
    rng = SplitMix64(10)
    for _ in range(10):
        f = Series(F5, 12, tuple(rng.randrange(5) for _ in range(12)))
        parts = decompose_series(ext, f)
        acc = Series.zero(F5, 12)
        for j, h in enumerate(parts):
            tp = Series.one(F5, 12)
            val = Series.zero(F5, 12)
            for m in range(h.prec):
                val = val + tp.scale(h.coeffs[m])
                tp = tp * ext.base_uniformizer
            acc = acc + val * Series.monomial(F5, 1, j, 12)
        assert acc.coeffs == f.coeffs


def test_decompose_laurent_negative_floor():
    ext = make_kummer(F5, 2, 12)
    x = Laurent.exact(F5, -3, [1, 0, 2], 8)
    parts = decompose_laurent(ext, x)
    # recompose: sum_j s^j h_j(t) as Laurent values
    t_l = Laurent.from_series(ext.base_uniformizer)
    acc = None
    for j, h in enumerate(parts):
        val = None
        for m_idx, c in enumerate(h.coeffs):
            if c:
                term = t_l.pow(h.val_floor + m_idx).scale(c)
                val = term if val is None else val + term
        if val is not None:
            term = val * Laurent.exact(F5, j, [1], 12)
            acc = term if acc is None else acc + term
    assert acc is not None
    assert acc.first_mismatch(x) is None


def _greedy_decompose(ext, f):
    """decompose_series by greedy elimination: subtract c * s^j * t^m at the
    valuation j + e*m of what remains until nothing does.  The reference
    for the decomposition matrix."""
    prec = f.prec
    e = ext.ram_index
    out_prec = max(prec // e, 1)
    lead = ext.base_uniformizer.coeffs[e] if e < ext.prec else 1
    field = ext.field
    ctx = field.ctx
    t = ext.base_uniformizer.truncate(prec)
    parts = [dict() for _ in range(e)]
    remaining = f
    tpows = [Series.one(field, prec)]
    while True:
        v = remaining.valuation()
        if v is None:
            break
        m, j = divmod(v, e)
        while len(tpows) <= m:
            tpows.append(tpows[-1] * t)
        c = ctx.mul(remaining.coeffs[v], ctx.inv(field.pow(lead, m)))
        parts[j][m] = c
        remaining = remaining - (tpows[m] * Series.monomial(field, 1, j, prec)).scale(c)
    return [Series(field, out_prec, tuple(parts[j].get(m, 0) for m in range(out_prec)))
            for j in range(e)]


# (field, Kummer order n, None for Artin-Schreier or 1 for the trivial
# extension, precision)
DECOMPOSE_EXTENSIONS = [((5,), 2, 12), ((13,), 4, 8), ((3,), None, 9), ((3, 2), None, 24),
                        ((7,), 1, 6)]


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(DECOMPOSE_EXTENSIONS), data=st.data())
def test_decomposition_matrix_matches_greedy_loop(spec, data):
    """decompose_series at the extension precision and a shorter one, and
    decompose_laurent on floors down to -2e, against the greedy loop."""
    pk, n, prec = spec
    field = make_field(*pk)
    ext = make_artin_schreier(field, prec) if n is None else make_kummer(field, n, prec)
    coeff = st.integers(0, field.order - 1)
    for length in (prec, data.draw(st.integers(1, prec))):
        f = Series(field, length, tuple(data.draw(st.lists(coeff, min_size=length,
                                                           max_size=length))))
        assert decompose_series(ext, f) == _greedy_decompose(ext, f)
    x = Laurent(field, data.draw(st.integers(-2 * ext.ram_index, 3)),
                tuple(data.draw(st.lists(coeff, min_size=1, max_size=prec))))
    with mock.patch.object(pvect, "decompose_series", _greedy_decompose):
        expected = decompose_laurent(ext, x)
    got = decompose_laurent(ext, x)
    assert [(h.val_floor, h.coeffs) for h in got] == [(h.val_floor, h.coeffs) for h in expected]


def test_pushforward_trivial_kummer2_line():
    """The classical f_* O = O + L seen locally: diag(1, -1), invariants rank 1."""
    ext = make_kummer(F5, 2, N)
    d = trivial_datum(1, [("p", ext)])
    b = functor_T(d, totally_ramified_scene(ext))
    pushed = pushforward_local(b)
    assert pushed.rank_out == 2
    rep = pushed.formal_rep[1]
    assert rep.entries[0][0].coeffs[0] == 1 and rep.entries[1][1].coeffs[0] == 4
    assert rep.entries[0][1].is_zero() and rep.entries[1][0].is_zero()
    assert len(pushed.invariants()) == 1


def test_pushforward_trivial_extension_is_identity():
    from orbipar.local_galois import trivial_extension
    ext = trivial_extension(F5, N)
    d = trivial_datum(2, [("p", ext)])
    b = functor_T(d, totally_ramified_scene(ext))
    pushed = pushforward_local(b)
    assert pushed.rank_out == 2
    assert pushed.base_prec == N


def test_pushforward_artin_schreier_rank_law():
    F2 = make_field(2)
    ext = make_artin_schreier(F2, 12)
    rng = SplitMix64(11)
    d = random_datum(ext, 2, rng)
    b = functor_T(d, totally_ramified_scene(ext))
    pushed = pushforward_local(b)       # verify() runs inside: exact rep law
    assert pushed.rank_out == 4
    assert len(pushed.invariants()) == 2


def test_pushforward_multicomponent_scene():
    ext = make_kummer(F7, 3, 12)
    scene = CoverScene(group=cyclic(6),
                       points=(ScenePoint("p", ext, (0, 2, 4), (0, 1)),))
    rng = SplitMix64(13)
    d = random_datum(ext, 1, rng, character_exponent=1)
    b = functor_T(d, scene)
    pushed = pushforward_local(b)
    assert pushed.rank_out == 2 * 1 * 3  # l * r * e


# -- adjunction --


def test_adjunction_trivial_rank1():
    ext = make_kummer(F5, 2, N)
    pt = trivial_datum(1, [("p", ext)]).points[0]
    rep = adjunction_check(1, pt)
    assert rep.ok and rep.lhs_rank == 1 and rep.rhs_rank == 1
    assert rep.projection_ok


def test_adjunction_sign_twist():
    pt = sign_twist_datum(F5, N).points[0]
    rep = adjunction_check(1, pt)
    assert rep.ok and rep.lhs_rank == rep.rhs_rank == 1


def test_adjunction_wild_rank1():
    F3 = make_field(3)
    ext = make_artin_schreier(F3, 15)
    rng = SplitMix64(14)
    pt = random_datum(ext, 1, rng).points[0]
    rep = adjunction_check(2, pt)
    assert rep.ok and rep.lhs_rank == rep.rhs_rank == 2
    assert rep.projection_ok


# -- weights --


def test_weights_trivial_all_zero():
    ext = make_kummer(F5, 4, N)
    res = extract_weights(trivial_datum(3, [("p", ext)]))
    assert res.weights == [Fraction(0)] * 3


def test_weights_diag_example():
    ext = make_kummer(F5, 2, N)
    a = Matrix([[Series.constant(F5, 1, N), Series.zero(F5, N)],
                [Series.zero(F5, N), Series.constant(F5, 4, N)]])
    psi = Cocycle(ext, 2, (Matrix.identity(F5, 2, N), a))
    mu = Matrix([[Laurent.from_series(Series.one(F5, N)), Laurent.zero(F5, N)],
                 [Laurent.zero(F5, N), Laurent.exact(F5, 1, [1], N)]])
    d = ParabolicDatum(rank=2, points=(ParabolicPoint("p", ext, psi, mu),))
    assert validate_parabolic(d).ok
    res = extract_weights(d)
    assert res.weights == [Fraction(0), Fraction(1, 2)]
    assert res.pairs == [(0, 2, 1), (1, 2, 1)]


def test_weights_wild_errors():
    F2 = make_field(2)
    ext = make_artin_schreier(F2, N)
    with pytest.raises(DomainError) as exc:
        extract_weights(trivial_datum(1, [("p", ext)]))
    assert "wild inertia" in str(exc.value)


def test_weights_invariant_under_unipotent_coboundary():
    """Twisting by B = I mod s leaves the residue matrix, hence the weights,
    unchanged; twisting by any unimodular B leaves the eigenvalue multiset."""
    F13 = make_field(13)
    ext = make_kummer(F13, 4, 12)
    zeta = F13.root_of_unity(4)
    exps = [0, 1, 3]
    diag = []
    for g in range(4):
        diag.append(Matrix([[Series.constant(F13, F13.pow(zeta, exps[i] * g), 12)
                             if i == j else Series.zero(F13, 12)
                             for j in range(3)] for i in range(3)]))
    psi = Cocycle(ext, 3, tuple(diag))
    rng = SplitMix64(15)
    # B = I + s * (random)
    b = Matrix([[Series(F13, 12, (1 if i == j else 0,) +
                        tuple(rng.randrange(13) for _ in range(11)))
                 for j in range(3)] for i in range(3)])
    twisted = twist(psi, b)
    mu_diag = Matrix([[Laurent.exact(F13, (4 - exps[i]) % 4 if i == j else 0,
                                     [1] if i == j else [], 12)
                       for j in range(3)] for i in range(3)])
    mu = b.inverse().to_laurent() * mu_diag
    d = ParabolicDatum(rank=3, points=(
        ParabolicPoint("p", ext, twisted, mu),))
    assert validate_parabolic(d).ok
    res = extract_weights(d)
    assert res.weights == sorted(Fraction(a, 4) for a in exps)


# -- pullback compatibility with T --


def _tower_pullback_setup(l2=False):
    emb = kummer_tower(F5, 2, 4, N)
    if not l2:
        scene_small = totally_ramified_scene(emb.small)
        scene_big = totally_ramified_scene(emb.big)
        spb = ScenePullback(embeddings={"p": emb}, scene_small=scene_small,
                            scene_big=scene_big, group_quotient=emb.quotient)
        return emb, spb
    g_small = direct_product(cyclic(2), cyclic(2))
    g_big = direct_product(cyclic(4), cyclic(2))
    scene_small = CoverScene(group=g_small, points=(
        ScenePoint("p", emb.small, (0, 1), (0, 2)),))
    scene_big = CoverScene(group=g_big, points=(
        ScenePoint("p", emb.big, (0, 1, 2, 3), (0, 4)),))
    # quotient Z/4 x Z/2 -> Z/2 x Z/2: (a, b) -> (a mod 2, b)
    gq = tuple((a % 4) % 2 + 2 * (x // 4) for x, (a,) in
               (((v), (v % 4,)) for v in range(8)))
    gq = tuple((v % 4) % 2 + 2 * (v // 4) for v in range(8))
    spb = ScenePullback(embeddings={"p": emb}, scene_small=scene_small,
                        scene_big=scene_big, group_quotient=gq)
    return emb, spb


def test_pullback_t_compat_totally_ramified():
    emb, spb = _tower_pullback_setup()
    ref = RefinementMap(embeddings={"p": emb})
    for d in (sign_twist_datum(F5, N),
              random_datum(emb.small, 2, SplitMix64(16), character_exponent=1)):
        rep = pullback_T_compat(d, spb, ref)
        assert rep.ok, rep.message


def test_pullback_t_compat_two_components():
    emb, spb = _tower_pullback_setup(l2=True)
    ref = RefinementMap(embeddings={"p": emb})
    d = random_datum(emb.small, 1, SplitMix64(17), character_exponent=1)
    rep = pullback_T_compat(d, spb, ref)
    assert rep.ok, rep.message


def test_glued_pullback_validates():
    emb, spb = _tower_pullback_setup()
    d = sign_twist_datum(F5, N)
    b = functor_T(d, spb.scene_small)
    out = glued_pullback(b, spb)
    assert out.points[0].module.spec.ext.group.order == 4
