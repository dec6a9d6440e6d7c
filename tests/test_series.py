import pytest
from hypothesis import given, settings, strategies as st

from orbipar.errors import DomainError, NotInvertibleError, StructuralError
from orbipar.fields import make_field
from orbipar.prng import SplitMix64
from orbipar.series import Laurent, Series

from series_reversion import reversion

F5 = make_field(5)
F2 = make_field(2)


def geometric_inverse(field, a, prec):
    """Independent oracle: coefficient recurrence for 1/a, a[0] a unit."""
    inv0 = field.inv(a.coeffs[0])
    out = [inv0] + [0] * (prec - 1)
    for n in range(1, prec):
        acc = 0
        for i in range(1, n + 1):
            if i < prec:
                acc = field.add(acc, field.mul(a.coeffs[i], out[n - i]))
        out[n] = field.mul(field.neg(acc), inv0)
    return Series(field, prec, tuple(out))


def test_mul_identity():
    f = Series.from_coeffs(F5, [3, 1, 4], 6)
    one = Series.one(F5, 6)
    assert (one * f).coeffs == f.coeffs


def test_mul_geometric_inverse_oracle():
    # oracle computes the inverse of 1+s over GF(5) at N=4, then multiply back
    a = Series.from_coeffs(F5, [1, 1], 4)
    inv = geometric_inverse(F5, a, 4)
    assert inv.coeffs == (1, 4, 1, 4)
    assert (a * inv).coeffs == (1, 0, 0, 0)
    assert (a * a.inverse()).coeffs == (1, 0, 0, 0)


def test_mul_truncation_to_zero():
    s2 = Series.monomial(F5, 1, 2, 4)
    s3 = Series.monomial(F5, 1, 3, 4)
    assert (s2 * s3).is_zero()


def test_mul_mismatch_errors():
    with pytest.raises(StructuralError):
        Series.one(F5, 4) * Series.one(F5, 5)
    with pytest.raises(StructuralError):
        Series.one(F5, 4) * Series.one(F2, 4)


def test_inverse_examples():
    assert Series.one(F5, 3).inverse().coeffs == (1, 0, 0)
    a = Series.from_coeffs(F2, [1, 1], 5)
    assert a.inverse().coeffs == (1, 1, 1, 1, 1)
    with pytest.raises(NotInvertibleError) as exc:
        Series.s(F5, 4).inverse()
    assert exc.value.valuation == 1


def test_inverse_two_sided_random():
    rng = SplitMix64(42)
    for _ in range(100):
        coeffs = [1 + rng.randrange(4)] + [rng.randrange(5) for _ in range(7)]
        a = Series.from_coeffs(F5, coeffs, 8)
        assert (a * a.inverse()).coeffs == (1,) + (0,) * 7
        assert (a.inverse() * a).coeffs == (1,) + (0,) * 7


def test_compose_examples():
    f = Series.from_coeffs(F5, [2, 3, 1], 4)
    s = Series.s(F5, 4)
    assert f.compose(s).coeffs == f.coeffs
    g = Series.monomial(F5, 4, 1, 4)
    assert s.compose(g).coeffs == (0, 4, 0, 0)
    # order-2 automorphism s/(1+s) in char 2, verified by direct expansion
    h = Series.s(F2, 5) * (Series.one(F2, 5) + Series.s(F2, 5)).inverse()
    assert h.coeffs == (0, 1, 1, 1, 1)
    assert h.compose(h).coeffs == (0, 1, 0, 0, 0)


def test_compose_requires_zero_constant():
    with pytest.raises(DomainError):
        Series.s(F5, 4).compose(Series.one(F5, 4))


def test_compose_associative_random():
    rng = SplitMix64(7)
    for _ in range(20):
        f = Series.from_coeffs(F5, [rng.randrange(5) for _ in range(8)], 8)
        g = Series.from_coeffs(F5, [0] + [rng.randrange(5) for _ in range(7)], 8)
        h = Series.from_coeffs(F5, [0, 1 + rng.randrange(4)] +
                               [rng.randrange(5) for _ in range(6)], 8)
        assert f.compose(g).compose(h).coeffs == f.compose(g.compose(h)).coeffs


def test_reversion_examples():
    s = Series.s(F5, 6)
    assert reversion(s).coeffs == s.coeffs
    zs = Series.monomial(F5, 2, 1, 6)
    assert reversion(zs).coeffs == Series.monomial(F5, 3, 1, 6).coeffs  # 3 = 2^{-1}
    g = Series.s(F5, 8) * (Series.one(F5, 8) + Series.s(F5, 8)).inverse()
    h = reversion(g)
    # oracle: compose back and compare with identity
    assert g.compose(h).coeffs == Series.s(F5, 8).coeffs
    assert h.compose(g).coeffs == Series.s(F5, 8).coeffs
    # s/(1+s) reverts to s/(1-s) = s(1+s+s^2+...)
    assert h.coeffs == (0, 1, 1, 1, 1, 1, 1, 1)


def test_reversion_requires_unit_linear():
    with pytest.raises(DomainError):
        reversion(Series.monomial(F5, 1, 2, 5))


def test_ring_laws_random_triples():
    rng = SplitMix64(11)
    for _ in range(50):
        a, b, c = (Series.from_coeffs(F5, [rng.randrange(5) for _ in range(6)], 6)
                   for _ in range(3))
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=6, max_size=6),
       st.lists(st.integers(0, 4), min_size=6, max_size=6))
def test_mul_commutative_hypothesis(ca, cb):
    a = Series.from_coeffs(F5, ca, 6)
    b = Series.from_coeffs(F5, cb, 6)
    assert (a * b).coeffs == (b * a).coeffs


# -- Laurent windows --


def test_laurent_window_arithmetic():
    x = Laurent.exact(F5, -1, [1, 2], 4)       # s^{-1} + 2 on [-1, 3)
    y = Laurent.exact(F5, 1, [3], 4)           # 3s on [1, 5)
    z = x + y
    assert z.window == (-1, 3)
    assert z.coeff(-1) == 1 and z.coeff(0) == 2 and z.coeff(1) == 3
    p = x * y
    assert p.window == (0, 4)
    assert p.coeff(0) == 3 and p.coeff(1) == 6 % 5


def test_laurent_inverse_and_precision_loss():
    x = Laurent.exact(F5, 0, [0, 1, 1], 6)     # s + s^2, floor below valuation
    inv = x.inverse()
    assert inv.val_floor == -1
    assert len(inv.coeffs) == 5                # one coefficient lost to the shift
    prod = x * inv
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, prod.window[1]))


def test_laurent_substitute_negative_powers():
    act = Series.monomial(F5, 4, 1, 6)         # s -> 4s
    x = Laurent.exact(F5, -2, [1], 6)          # s^{-2}
    y = x.substitute(act)
    # (4s)^{-2} = 4^{-2} s^{-2} = 4 s^{-2} (4^2 = 16 = 1, inverse of 1... compute: 4^{-1}=4, 4^{-2}=16=1)
    assert y.coeff(-2) == 1
    z = Laurent.exact(F5, 1, [1], 6).substitute(act)
    assert z.coeff(1) == 4


def test_laurent_zero_inverse_raises():
    with pytest.raises(NotInvertibleError):
        Laurent.zero(F5, 4).inverse()


def test_laurent_comparison_common_window():
    a = Laurent.exact(F5, 0, [1, 2, 3], 3)
    b = Laurent.exact(F5, 1, [2, 3], 3)
    assert a.first_mismatch(b) == 0            # a has 1 at s^0, b implicitly 0
    c = Laurent.exact(F5, -2, [0, 0, 1, 2, 3], 5)
    assert a.first_mismatch(c) is None


def test_laurent_to_series_round_trip():
    s = Series.from_coeffs(F5, [1, 2, 0, 3], 4)
    assert Laurent.from_series(s).to_series(4).coeffs == s.coeffs
    pole = Laurent.exact(F5, -1, [1], 4)
    with pytest.raises(DomainError):
        pole.to_series(3)
