"""The series kernels against schoolbook references written with field ops."""

import pytest
from hypothesis import given, settings, strategies as st

from orbipar import kernels
from orbipar.errors import StructuralError
from orbipar.fields import MAX_FIELD_ORDER, is_prime, make_field
from orbipar.linalg import Matrix
from orbipar.prng import SplitMix64
from orbipar.scenario import MAX_PRECISION, MAX_RANK
from orbipar.series import Series

FIELDS = [(2, 1), (5, 1), (13, 1), (5, 2), (7, 2), (3, 3)]


def _schoolbook_mul(F, a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < n:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return out


def _schoolbook_mat_mul(F, a, b, n):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = [0] * n
            for t, x in enumerate(row):
                acc = [F.add(u, v) for u, v in zip(acc, _schoolbook_mul(F, x, b[t][j], n))]
            out_row.append(acc)
        out.append(out_row)
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


# GF(9) under x^2 + x + 2 (a middle term in the fold), GF(11^3) (no add
# table), GF(251^2) (the largest (p-1)^2 * k) and GF(13^4) (three fold steps)
PACKED_FIELDS = [pytest.param(p, k, None, id=f"{p}-{k}")
                 for p, k in FIELDS + [(65521, 1), (2, 4), (11, 3), (251, 2), (13, 4)]]
PACKED_FIELDS.append(pytest.param(3, 2, (2, 1, 1), id="3-2-x2+x+2"))


@pytest.mark.parametrize("p,k,modulus", PACKED_FIELDS)
def test_packed_products_match_schoolbook(p, k, modulus):
    """vec_mul on both sides of PACK_MIN (over GF(p^k) packed at every
    length), and mat_mul (packed at every shape but 1 x 1, inner dimension 1
    included), with ragged and empty vectors,
    n above la + lb and the largest slot sums; GF(65521) needs 64-bit slots
    from length 2."""
    F = make_field(p, k, modulus)
    ctx = F.ctx
    rng = SplitMix64(p * 7 + k)

    def vec(top):
        return [rng.randrange(F.order) for _ in range(rng.randrange(top + 1))]

    for _ in range(30):
        n = rng.randrange(2 * kernels.PACK_MIN + 8)
        a, b = vec(n + 2), vec(n + 2)
        if rng.randrange(4) == 0:
            n = len(a) + len(b) + 1 + rng.randrange(3)
        expect = _schoolbook_mul(F, a, b, n)
        assert kernels.vec_mul(ctx, a, b, n) == expect
        assert kernels.vec_mul(ctx, tuple(a), tuple(b), n) == expect
    for _ in range(12):
        n = rng.randrange(2 * kernels.PACK_MIN + 4)
        r, m, c = 1 + rng.randrange(3), 1 + rng.randrange(4), 1 + rng.randrange(3)
        a = [[vec(n + 2) for _ in range(m)] for _ in range(r)]
        b = [[vec(n + 2) for _ in range(c)] for _ in range(m)]
        expect = _schoolbook_mat_mul(F, a, b, n)
        assert kernels.mat_mul(ctx, a, b, n) == expect
        as_tuples = [[tuple(x) for x in row] for row in a]
        assert kernels.mat_mul(ctx, as_tuples, [[tuple(x) for x in row] for row in b], n) == expect
    # every digit p - 1 and an inner dimension of 40: the largest slot sums,
    # which spill over a slot sized without the inner dimension
    top = [F.order - 1] * 16
    a, b = [[top] * 40], [[top] for _ in range(40)]
    assert kernels.mat_mul(ctx, a, b, 16) == _schoolbook_mat_mul(F, a, b, 16)


def test_slot_width_follows_the_bound():
    assert kernels._slot(7, 1, 16, 4) == (2, "H")
    assert kernels._slot(257, 1, 8, 1)[0] == 4
    assert kernels._slot(65521, 1, 2, 1)[0] == 8
    # GF(p^k): each slot sums k times as many digit products
    assert kernels._slot(3, 2, 24, 2) == (2, "H")       # GF(9), r=2, N=24
    assert kernels._slot(3, 1, 1024, 8) == (2, "H")     # 4 * 2^13 = 2^15
    assert kernels._slot(3, 2, 1024, 8)[0] == 4         # 4 * 2 * 2^13 = 2^16
    assert kernels._slot(251, 2, 1, 1)[0] == 4          # 250^2 * 2 >= 2^16
    with pytest.raises(StructuralError):
        kernels._slot(65521, 1, 1 << 20, 1 << 20)
    with pytest.raises(StructuralError):
        kernels._slot(251, 2, 1 << 24, 1 << 24)
    # the largest p with p^k <= MAX_FIELD_ORDER fits at the scenario caps
    for k in range(1, 5):
        p = max(p for p in range(2, MAX_FIELD_ORDER + 1)
                if is_prime(p) and p ** k <= MAX_FIELD_ORDER)
        assert kernels._slot(p, k, MAX_PRECISION, MAX_RANK ** 2)[0] <= 8


def test_series_matrix_product_keeps_its_errors():
    F5, F7 = make_field(5), make_field(7)
    a = Matrix.identity(F5, 2, 4)
    with pytest.raises(StructuralError, match="field mismatch"):
        a * Matrix.identity(F7, 2, 4)
    with pytest.raises(StructuralError, match="precision mismatch"):
        a * Matrix.identity(F5, 2, 6)
    mixed = Matrix([[Series.one(F5, 4), Series.zero(F5, 6)]])
    with pytest.raises(StructuralError, match="precision mismatch"):
        mixed * Matrix.identity(F5, 2, 4)
