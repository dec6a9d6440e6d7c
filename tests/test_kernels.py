"""The series kernels against schoolbook references written with field ops."""

from array import array
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from orbipar import kernels
from orbipar.errors import StructuralError
from orbipar.fields import MAX_FIELD_ORDER, is_prime, make_field
from orbipar.linalg import Matrix
from orbipar.local_galois import _decomposition_columns, make_artin_schreier, make_kummer
from orbipar.prng import SplitMix64
from orbipar.pvect import decompose_series
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
    """vec_mul (one packed product at every length, n = 0 and empty
    operands included) and mat_mul (packed at every shape but 1 x 1, inner
    dimension 1 included), with ragged and empty vectors, n above la + lb
    and the largest slot sums; GF(65521) needs 64-bit slots from length 2."""
    F = make_field(p, k, modulus)
    ctx = F.ctx
    rng = SplitMix64(p * 7 + k)

    def vec(top):
        return [rng.randrange(F.order) for _ in range(rng.randrange(top + 1))]

    for _ in range(30):
        n = rng.randrange(25)
        a, b = vec(n + 2), vec(n + 2)
        if rng.randrange(4) == 0:
            n = len(a) + len(b) + 1 + rng.randrange(3)
        expect = _schoolbook_mul(F, a, b, n)
        assert kernels.vec_mul(ctx, a, b, n) == expect
        assert kernels.vec_mul(ctx, tuple(a), tuple(b), n) == expect
    a = vec(8)
    assert kernels.vec_mul(ctx, a, [], 5) == kernels.vec_mul(ctx, [], a, 5) == [0] * 5
    assert kernels.vec_mul(ctx, a, a, 0) == kernels.vec_mul(ctx, [], [], 0) == []
    for _ in range(12):
        n = rng.randrange(20)
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


def test_slot_holds_the_largest_entry():
    """With nothing summed (short or inner 0) the slot still holds p - 1,
    the largest entry packed into it."""
    for p in (2, 3, 251, 65521):
        for short, inner in ((0, 0), (0, 5), (5, 0)):
            nbytes, tc = kernels._slot(p, 1, short, inner)
            assert p - 1 < 1 << 8 * nbytes
            assert array(tc, [p - 1]).itemsize == nbytes
    assert kernels._slot(2, 1, 0, 0) == (1, "B")
    assert kernels._slot(251, 1, 0, 0) == (1, "B")
    assert kernels._slot(65521, 1, 0, 0) == (2, "H")


# the fields whose digit groups fold in bytes: p^(2k-1) <= 256
BYTE_FOLD_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3)]


def test_byte_fold_covers_exactly_the_small_fields():
    for p, k in BYTE_FOLD_FIELDS:
        assert kernels._byte_fold(make_field(p, k).ctx) is not None
    for p, k in ((7, 2), (3, 4), (5, 3), (13, 4)):
        assert kernels._byte_fold(make_field(p, k).ctx) is None


@pytest.mark.parametrize("p,k", BYTE_FOLD_FIELDS,
                         ids=[f"GF({p}^{k})" for p, k in BYTE_FOLD_FIELDS])
def test_byte_fold_matches_list_fold(p, k):
    """_unpack_digits on 8-bit slots folds in bytes; the list fold of the
    same slots is the reference, on random slots and on all-255 slots, for
    one group and for a full-precision vector, with groups above n in c."""
    ctx = make_field(p, k).ctx
    width = 2 * k - 1
    rng = SplitMix64(p * 10 + k)
    for n in (1, MAX_PRECISION):
        cases = [[rng.randrange(256) for _ in range(width * n)] for _ in range(8)]
        cases += [[255] * (width * n), [p - 1] * (width * n), [0] * (width * n)]
        for slots in cases:
            raw = bytes(slots)
            c = int.from_bytes(raw + bytes(rng.randrange(256) for _ in range(width)), "little")
            got = kernels._unpack_digits(ctx, c, 1, "B", n)
            assert got == kernels._fold_list(ctx, array("B", raw))
            assert len(got) == n and all(0 <= e < ctx.q for e in got)


@pytest.mark.parametrize("p,k", BYTE_FOLD_FIELDS,
                         ids=[f"GF({p}^{k})" for p, k in BYTE_FOLD_FIELDS])
def test_byte_fold_of_16_bit_slots_matches_list_fold(p, k):
    """_unpack_digits on 16-bit slots reduces each slot to a byte and folds
    in bytes; the list fold of the same slots is the reference, on random
    slots, on all-65535 slots and on slots whose high and low bytes are p - 1
    or 255, for one group and for a full-precision vector, with groups above
    n in c."""
    ctx = make_field(p, k).ctx
    width = 2 * k - 1
    rng = SplitMix64(p * 100 + k)
    for n in (1, MAX_PRECISION):
        cases = [[rng.randrange(1 << 16) for _ in range(width * n)] for _ in range(8)]
        cases += [[x] * (width * n) for x in (0xFFFF, 0xFF00, 0x00FF, (p - 1) * 257, 0)]
        for slots in cases:
            raw = array("H", slots).tobytes()
            c = int.from_bytes(raw + bytes(rng.randrange(256) for _ in range(2 * width)),
                               "little")
            got = kernels._unpack_digits(ctx, c, 2, "H", n)
            assert got == kernels._fold_list(ctx, array("H", slots))
            assert len(got) == n and all(0 <= e < ctx.q for e in got)


def _log_table_tri(ctx, cols, a, n):
    """vec_tri's former GF(p^k) loop, through the exp/log and add tables:
    out[k] = sum over m of a[m] * cols[k][m].  The reference for the packed
    sum."""
    exp, log, add, tab = ctx.exp, ctx.log, ctx.add, ctx.add_table
    la = [log[x] for x in a]
    out = [0] * n
    for k in range(n):
        acc = 0
        for lx, y in zip(la, cols[k]):
            if lx >= 0 and y:
                z = exp[lx + log[y]]
                acc = tab[acc][z] if tab else add(acc, z)
        out[k] = acc
    return out


def _row_tri(ctx, cols, a, n):
    """vec_tri's former GF(p) path: the rows of the map, each cut after its
    last nonzero entry, and out[k] the dot product of a with row k.  The
    reference for the packed sum over GF(p)."""
    rows = []
    for row in zip(*cols):
        end = len(row)
        while end and not row[end - 1]:
            end -= 1
        rows.append(row[:end])
    return [sum(map(mul, a, rows[k])) % ctx.p for k in range(n)]


def _power_columns(F, prec, rng):
    """The columns g^m, m < prec, of psi for a random dense g of valuation 1."""
    g = [0, 1 + rng.randrange(F.order - 1)] + [rng.randrange(F.order) for _ in range(prec - 2)]
    cols = [[1] + [0] * (prec - 1)]
    for _ in range(prec - 1):
        cols.append(_schoolbook_mul(F, cols[-1], g, prec))
    return cols


# (p, n, prec) of the decomposition tables: Kummer Z/4 over GF(13) at N=8
# (`calculus`) and Z/3 over GF(7) at N=16 (`tame-roundtrip`)
GFP_DECOMPOSITIONS = [(13, 4, 8), (7, 3, 16)]


@pytest.mark.parametrize("p,prec", [(7, 16), (65521, 16)])
def test_vec_tri_gfp_matches_row_loop_on_power_tables(p, prec):
    """vec_tri over GF(p), one packed sum of the packed columns, against the
    row loop, on dense power tables and on a table whose every entry is p -
    1 (the largest slot sum: prec products of (p - 1)^2, which GF(65521)
    holds only in 64-bit slots), for every window length."""
    F = make_field(p)
    ctx = F.ctx
    rng = SplitMix64(p + prec)
    tables = [_power_columns(F, prec, rng) for _ in range(3)] + [[[p - 1] * prec] * prec]
    for cols in tables:
        table = kernels.tri_table(ctx, cols)
        for n in range(1, prec + 1):
            for a in ([rng.randrange(p) for _ in range(n)], [p - 1] * n):
                assert kernels.vec_tri(ctx, table, a, n) == _row_tri(ctx, cols, a, n)


@pytest.mark.parametrize("p,order,prec", GFP_DECOMPOSITIONS,
                         ids=[f"Z{n}-GF({p})-N{prec}" for p, n, prec in GFP_DECOMPOSITIONS])
def test_decompose_series_gfp_matches_row_loop(p, order, prec):
    """decompose_series over GF(p), a packed sum over the decomposition
    matrix's packed columns, against the row loop on its columns."""
    field = make_field(p)
    ext = make_kummer(field, order, prec)
    rng = SplitMix64(p * prec)
    cols = _decomposition_columns(ext, prec)
    e, out_prec = ext.ram_index, max(prec // ext.ram_index, 1)
    for f in [[p - 1] * prec] + [[rng.randrange(p) for _ in range(prec)] for _ in range(20)]:
        flat = _row_tri(field.ctx, cols, f, e * out_prec)
        got = decompose_series(ext, Series(field, prec, tuple(f)))
        assert [c for h in got for c in h.coeffs] == flat


@pytest.mark.parametrize("prec", [5, 24])
def test_decompose_series_gf9_matches_log_table_loop(prec):
    """decompose_series over GF(9), a packed sum over the decomposition
    matrix's packed columns, against the log-table loop on its rows, at the
    extension precision and shorter."""
    field = make_field(3, 2)
    ext = make_artin_schreier(field, 24)
    rng = SplitMix64(prec)
    cols = _decomposition_columns(ext, prec)
    rows = list(zip(*cols))
    e, out_prec = ext.ram_index, max(prec // ext.ram_index, 1)
    for _ in range(20):
        f = Series(field, prec, tuple(rng.randrange(9) for _ in range(prec)))
        flat = _log_table_tri(field.ctx, rows, f.coeffs, e * out_prec)
        assert [c for h in decompose_series(ext, f) for c in h.coeffs] == flat


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
