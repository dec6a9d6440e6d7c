"""The series kernels against schoolbook references written with field ops."""

import pytest
from hypothesis import given, settings, strategies as st

from orbipar import kernels
from orbipar.fields import make_field
from orbipar.prng import SplitMix64

FIELDS = [(2, 1), (5, 1), (13, 1), (5, 2), (7, 2), (3, 3)]


def _schoolbook_mul(F, a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < n:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return out


def _horner_compose(F, f, g, n):
    res = [0] * n
    for c in reversed(f):
        res = _schoolbook_mul(F, res, g, n)
        res[0] = F.add(res[0], c)
    return res


@pytest.mark.parametrize("p,k", FIELDS)
def test_kernels_match_references(p, k):
    F = make_field(p, k)
    ctx = F.ctx
    q = F.order
    rng = SplitMix64(p * 1000 + k)
    for _ in range(25):
        n = 1 + rng.randrange(48)
        a = [rng.randrange(q) for _ in range(n)]
        b = [rng.randrange(q) for _ in range(1 + rng.randrange(n))]
        expect = _schoolbook_mul(F, a, b, n)
        assert kernels.vec_mul(ctx, a, b, n) == expect
        assert kernels.vec_mul(ctx, tuple(a), tuple(b), n) == expect
        a[0] = 1 + rng.randrange(q - 1)
        inv = kernels.vec_inverse(ctx, a, n)
        assert kernels.vec_mul(ctx, a, inv, n) == [1] + [0] * (n - 1)
        assert kernels.vec_inverse(ctx, tuple(a), n) == inv
        f = a[:1 + rng.randrange(12)]
        g = [0] + [rng.randrange(q) for _ in range(n - 1)]
        expect = _horner_compose(F, f, g, n)
        assert kernels.vec_compose(ctx, f, g, n) == expect
        assert kernels.vec_compose(ctx, tuple(f), tuple(g), n) == expect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=20),
       st.lists(st.integers(0, 4), min_size=1, max_size=20))
def test_pure_mul_matches_schoolbook(a, b):
    F = make_field(5)
    n = max(len(a), len(b))
    assert kernels.vec_mul(F.ctx, a, b, n) == _schoolbook_mul(F, a, b, n)
