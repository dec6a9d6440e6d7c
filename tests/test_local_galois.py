import pytest

from orbipar.errors import ConfigurationError
from orbipar.fields import make_field
from orbipar.groups import cyclic
from orbipar.local_galois import (LocalExtension, evaluate_in_base,
                                  identity_embedding, kummer_tower, make_artin_schreier,
                                  make_embedding, make_kummer, norm, trivial_extension,
                                  verify_extension)
from orbipar.prng import SplitMix64
from orbipar.pvect import decompose_series
from orbipar.series import Series

F5 = make_field(5)
F2 = make_field(2)
F3 = make_field(3)
N = 16


def test_kummer_trivial():
    e = make_kummer(F5, 1, N)
    assert e.group.order == 1
    assert e.base_uniformizer.coeffs == Series.s(F5, N).coeffs
    assert e.ram_index == 1


def test_kummer_2_gf5():
    e = make_kummer(F5, 2, N)
    assert e.action[1].coeffs[1] == 4                # sigma(s) = 4s
    t = e.base_uniformizer
    assert t.coeffs[2] == 4 and t.valuation() == 2   # t = 4 s^2 = -s^2
    # invariance oracle: t(-s) == t(s) coefficientwise
    assert t.compose(e.action[1]).coeffs == t.coeffs
    assert verify_extension(e).ok


def test_kummer_4_gf5_canonical_root():
    e = make_kummer(F5, 4, N)
    assert e.action[1].coeffs[1] == 2                # canonical zeta_4 = 2
    t = e.base_uniformizer
    assert t.valuation() == 4
    # oracle: product over the orbit
    prod = Series.one(F5, N)
    for g in range(4):
        prod = prod * e.action[g]
    assert prod.coeffs == t.coeffs
    for g in range(4):
        assert t.compose(e.action[g]).coeffs == t.coeffs
    assert verify_extension(e).ok


def test_kummer_needs_root_of_unity():
    with pytest.raises(ConfigurationError):
        make_kummer(F5, 3, N)
    with pytest.raises(ConfigurationError):
        make_kummer(F5, 5, N)  # p | n


@pytest.mark.parametrize("field,p", [(F2, 2), (F3, 3), (make_field(5), 5)])
def test_artin_schreier_closed_form(field, p):
    e = make_artin_schreier(field, N)
    # oracle: t = s^p / (1 - s^{p-1}) computed independently
    sp = Series.monomial(field, 1, p, N)
    denom = Series.one(field, N) - Series.monomial(field, 1, p - 1, N)
    closed = sp * denom.inverse()
    assert e.base_uniformizer.coeffs == closed.coeffs
    assert verify_extension(e).ok
    assert e.ram_index == p


def test_artin_schreier_sigma_values():
    e = make_artin_schreier(F2, 8)
    assert e.action[1].coeffs == (0, 1, 1, 1, 1, 1, 1, 1)   # s/(1+s)
    # sigma applied p times is the identity substitution
    comp = e.action[1].compose(e.action[1])
    assert comp.coeffs == Series.s(F2, 8).coeffs


def test_artin_schreier_gf3_t():
    e = make_artin_schreier(F3, 9)
    # t = s^3/(1 - s^2) = s^3 (1 + s^2 + s^4 + ...)
    assert e.base_uniformizer.coeffs == (0, 0, 0, 1, 0, 1, 0, 1, 0)


def test_verify_extension_detects_bad_t():
    e = make_kummer(F5, 2, N)
    bad = LocalExtension(field=F5, prec=N, group=e.group, action=e.action,
                         base_uniformizer=Series.s(F5, N), ram_index=2)
    rep = verify_extension(bad)
    assert not rep.ok and "not invariant" in rep.message


def test_verify_extension_detects_bad_action_table():
    e = make_kummer(F5, 4, N)
    # corrupt act(2) so act(1) o act(1) != act(2)
    action = list(e.action)
    action[2] = e.action[3]
    bad = LocalExtension(field=F5, prec=N, group=e.group, action=tuple(action),
                         base_uniformizer=e.base_uniformizer, ram_index=4)
    rep = verify_extension(bad)
    assert not rep.ok and rep.detail is not None


def test_norm_invariance():
    for e in (make_kummer(F5, 4, N), make_artin_schreier(F3, N)):
        nm = norm(e, Series.s(e.field, N))
        assert nm.coeffs == e.base_uniformizer.coeffs
        assert nm.valuation() == e.group.order
        for g in range(e.group.order):
            assert nm.compose(e.action[g]).coeffs == nm.coeffs


def _power_sum(e, h):
    """sum_m h_m t^m with Series arithmetic, one power of t at a time."""
    acc = Series.zero(e.field, e.prec)
    tpow = Series.one(e.field, e.prec)
    for c in h.coeffs:
        if c:
            acc = acc + tpow.scale(c)
        tpow = tpow * e.base_uniformizer
    return acc


def test_rewrite_round_trip_property():
    """evaluate_in_base is the power sum of h in t, also for an h longer
    than N/e; and decompose_series inverts it:
    an invariant h(t) comes back as piece 0, and the pieces s^j h_j(t) with
    j > 0 vanish."""
    rng = SplitMix64(3)
    for e in (make_kummer(F5, 2, N), make_artin_schreier(F3, 15),
              make_kummer(make_field(7), 3, N), make_artin_schreier(make_field(3, 2), 12),
              trivial_extension(F5, N)):
        m = e.prec // e.ram_index
        for _ in range(10):
            h = Series(e.field, m, tuple(rng.randrange(e.field.order)
                                         for _ in range(m)))
            assert evaluate_in_base(e, h) == _power_sum(e, h)
            pieces = decompose_series(e, evaluate_in_base(e, h))
            assert pieces[0].coeffs == h.coeffs
            assert all(p.valuation() is None for p in pieces[1:])
            long = Series(e.field, m + 3, h.coeffs + tuple(rng.randrange(e.field.order)
                                                           for _ in range(3)))
            assert evaluate_in_base(e, long) == _power_sum(e, long)


def test_identity_embedding_and_trivial_into():
    e = make_kummer(F5, 2, N)
    emb = identity_embedding(e)
    f = Series.from_coeffs(F5, [1, 2, 3], N)
    assert emb.expand(f).coeffs == f.coeffs


def test_kummer_tower_2_in_4():
    emb = kummer_tower(F5, 2, 4, N)
    # sigma'(s')^2 = (zeta_4 s')^2 = -s'^2 matches sigma(s) = -s through s -> s'^2
    assert emb.s_image.coeffs[2] == 1
    assert emb.quotient == (0, 1, 0, 1)


def test_kummer_tower_odd_in_even():
    F7 = make_field(7)
    emb = kummer_tower(F7, 3, 6, N)
    assert emb.s_image.valuation() == 2
    # the norm correction scalar is -1 for odd n inside even m
    assert emb.s_image.coeffs[2] == F7.ctx.neg(1)


def test_embedding_valuation_error():
    small = make_kummer(F5, 2, N)
    big = make_kummer(F5, 4, N)
    with pytest.raises(ConfigurationError) as exc:
        make_embedding(small, big, Series.s(F5, N), (0, 1, 0, 1))
    assert "valuation" in str(exc.value)


def test_embedding_intertwining_error():
    small = make_kummer(F5, 2, N)
    big = make_kummer(F5, 4, N)
    # wrong quotient (swap the two lifts of sigma)
    with pytest.raises(ConfigurationError):
        make_embedding(small, big, Series.monomial(F5, 1, 2, N), (0, 0, 1, 1))


def test_explicit_extension_roundtrip():
    from orbipar.local_galois import make_explicit
    e = make_kummer(F5, 2, 8)
    e2 = make_explicit(F5, 8, cyclic(2), [list(a.coeffs) for a in e.action],
                       list(e.base_uniformizer.coeffs))
    assert e2.base_uniformizer.coeffs == e.base_uniformizer.coeffs
