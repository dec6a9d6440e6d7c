import pytest
from hypothesis import given, settings, strategies as st

from orbipar.errors import ConfigurationError, NotInvertibleError
from orbipar.fields import (FieldSpec, _digit_neg, find_modulus, is_prime, make_field,
                            required_degree_for_root)


def test_prime_check():
    assert is_prime(2) and is_prime(13) and is_prime(97)
    assert not is_prime(1) and not is_prime(9) and not is_prime(91)


def test_rejects_composite_characteristic():
    with pytest.raises(ConfigurationError):
        make_field(6)


def test_rejects_reducible_modulus():
    # x^2 + 1 = (x+2)(x+3) over GF(5)
    with pytest.raises(ConfigurationError):
        FieldSpec(p=5, k_deg=2, modulus=(1, 0, 1))


def test_find_modulus_deterministic():
    assert find_modulus(5, 2) == (2, 0, 1)       # x^2 + 2, smallest encoding
    assert find_modulus(2, 2) == (1, 1, 1)       # x^2 + x + 1
    assert find_modulus(7, 2) == find_modulus(7, 2)


def test_canonical_generators():
    assert make_field(5).generator == 2
    assert make_field(7).generator == 3
    assert make_field(13).generator == 2


def test_roots_of_unity():
    F5 = make_field(5)
    assert F5.root_of_unity(2) == 4
    assert F5.root_of_unity(4) == 2
    with pytest.raises(ConfigurationError) as exc:
        F5.root_of_unity(3)
    assert "k_deg = 2" in str(exc.value)
    F25 = make_field(5, 2)
    z3 = F25.root_of_unity(3)
    assert F25.pow(z3, 3) == 1 and z3 != 1


def test_required_degree():
    assert required_degree_for_root(5, 3) == 2
    assert required_degree_for_root(7, 4) == 2
    assert required_degree_for_root(5, 5) is None  # p | n


def test_zero_inverse_raises():
    with pytest.raises(NotInvertibleError):
        make_field(5).inv(0)


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (13, 1), (5, 2), (7, 2), (2, 4), (3, 3)])
def test_field_axioms_exhaustive_small(p, k):
    F = make_field(p, k)
    q = F.order
    elems = range(q) if q <= 32 else [0, 1, 2, 3, q - 1, q // 2, 7 % q, 11 % q]
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in list(elems)[:8]:
        for b in list(elems)[:8]:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_distributivity_gf49(a, b, c):
    F = make_field(7, 2)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_generator_order_is_full():
    for p, k in [(5, 1), (7, 1), (5, 2), (3, 2)]:
        F = make_field(p, k)
        assert F.element_order(F.generator) == F.order - 1


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (11, 3)])
def test_neg_table_is_digit_negation(p, k):
    ctx = make_field(p, k).ctx
    assert ctx.neg_table == [_digit_neg(a, p, k) for a in range(p ** k)]
    assert all(ctx.add(a, ctx.neg(a)) == 0 for a in range(p ** k))
