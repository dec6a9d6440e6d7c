import pytest
from hypothesis import given, settings, strategies as st

from orbipar import linalg
from orbipar.errors import NotInvertibleError, StructuralError
from orbipar.fields import ADD_TABLE_MAX_ORDER, make_field
from orbipar.kernels import _byte_rows, _slot, mat_mul
from orbipar.linalg import (LinearSolution, Matrix, echelonize, kernel_by_blocks, kron,
                            laurent_inverse, null_space, residue_det, residue_search, smith,
                            solve_linear)
from orbipar.scenario import MAX_PRECISION, MAX_RANK
from orbipar.prng import SplitMix64
from orbipar.series import Laurent, Series

F5 = make_field(5)


def test_solve_identity():
    sol = solve_linear(F5, [[1, 0], [0, 1]], [0, 0])
    assert sol.consistent and sol.particular == [0, 0] and sol.kernel == []


def test_solve_zero_matrix():
    sol = solve_linear(F5, [[0, 0], [0, 0]], [0, 0])
    assert sol.consistent and len(sol.kernel) == 2


def test_solve_spec_example():
    sol = solve_linear(F5, [[1, 2], [2, 4]], [3, 6])
    assert sol.consistent
    assert sol.particular == [3, 0]
    assert sol.kernel == [[3, 1]]
    # substitution check: M (x0 + v) = rhs exactly
    for vec in [sol.particular, [F5.add(a, b) for a, b in zip(sol.particular,
                                                              sol.kernel[0])]]:
        got = [F5.add(F5.mul(1, vec[0]), F5.mul(2, vec[1])),
               F5.add(F5.mul(2, vec[0]), F5.mul(4, vec[1]))]
        assert got == [3, 1]  # 6 = 1 mod 5


def test_solve_inconsistent():
    sol = solve_linear(F5, [[1, 1], [2, 2]], [1, 3])
    assert not sol.consistent and sol.rank == 1


def test_solve_random_substitution_property():
    rng = SplitMix64(5)
    for _ in range(30):
        m, n = 1 + rng.randrange(4), 1 + rng.randrange(4)
        rows = [[rng.randrange(5) for _ in range(n)] for _ in range(m)]
        x = [rng.randrange(5) for _ in range(n)]
        rhs = [0] * m
        for i in range(m):
            for j in range(n):
                rhs[i] = F5.add(rhs[i], F5.mul(rows[i][j], x[j]))
        sol = solve_linear(F5, rows, rhs)
        assert sol.consistent
        for extra in [[0] * n] + sol.kernel:
            vec = [F5.add(a, b) for a, b in zip(sol.particular, extra)]
            for i in range(m):
                acc = 0
                for j in range(n):
                    acc = F5.add(acc, F5.mul(rows[i][j], vec[j]))
                assert acc == rhs[i]


def _random_series_matrix(rng, n, prec, unimodular=False):
    while True:
        m = Matrix([[Series(F5, prec, tuple(rng.randrange(5) for _ in range(prec)))
                     for _ in range(n)] for _ in range(n)])
        if not unimodular or residue_det(F5, m.residue()) != 0:
            return m


def test_matrix_inverse_round_trip():
    rng = SplitMix64(8)
    for _ in range(20):
        m = _random_series_matrix(rng, 3, 6, unimodular=True)
        ident = Matrix.identity(F5, 3, 6)
        assert (m * m.inverse()).agrees_with(ident)
        assert (m.inverse() * m).agrees_with(ident)


def test_matrix_inverse_requires_unit_det():
    s = Series.s(F5, 4)
    m = Matrix([[s]])
    with pytest.raises(NotInvertibleError):
        m.inverse()


def test_smith_reconstruction_and_divisors():
    rng = SplitMix64(13)
    for _ in range(20):
        n = 2 + rng.randrange(2)
        base = _random_series_matrix(rng, n, 8, unimodular=True)
        # plant known elementary divisors
        divs = sorted(rng.randrange(3) for _ in range(n))
        diag = Matrix([[Series.monomial(F5, 1 if i == j else 0,
                                        divs[i] if i == j else 0, 8)
                        for j in range(n)] for i in range(n)])
        other = _random_series_matrix(rng, n, 8, unimodular=True)
        m = base * diag * other
        sf = smith(m)
        assert sf.divisors == divs
        assert (sf.U * sf.D * sf.W).agrees_with(m)
        assert sf.U.is_residue_invertible() and sf.W.is_residue_invertible()


def test_smith_rank_deficient_reports_none():
    z = Matrix.zero(F5, 2, 2, 4)
    sf = smith(z)
    assert sf.divisors == [None, None]


def test_laurent_inverse():
    rng = SplitMix64(21)
    m = _random_series_matrix(rng, 2, 8, unimodular=True).to_laurent()
    shifted = Matrix([[m.entries[0][0].shift(-1), m.entries[0][1]],
                      [m.entries[1][0], m.entries[1][1].shift(2)]])
    inv = laurent_inverse(shifted)
    prod = shifted * inv
    ident = Matrix.identity(F5, 2, 4).to_laurent()
    assert prod.first_mismatch(ident) is None


def _constant_matrix(field, rows, prec):
    """The matrix of constant series with the given residues."""
    return Matrix([[Series.constant(field, c, prec) for c in r] for r in rows])


def test_kron_convention_row_major():
    a = _constant_matrix(F5, [[1, 2], [3, 4]], 4)
    b = _constant_matrix(F5, [[0, 1], [1, 0]], 4)
    k = kron(a, b)
    # entry ((i1,i2),(j1,j2)) = a[i1][j1] * b[i2][j2]; row index i1*2+i2
    assert k.entries[0][1].coeffs[0] == 1      # a[0][0]*b[0][1]
    assert k.entries[1][0].coeffs[0] == 1      # a[0][0]*b[1][0]
    # check the full 4x4 against the definition
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    expect = F5.mul(a.entries[i1][j1].coeffs[0],
                                    b.entries[i2][j2].coeffs[0])
                    assert k.entries[i1 * 2 + i2][j1 * 2 + j2].coeffs[0] == expect


def test_series_product_is_a_checked_matrix():
    """A product built without re-checking its entries is the Matrix the
    public constructor builds from them."""
    rng = SplitMix64(31)
    for rows, inner, cols in ((1, 1, 1), (2, 3, 2), (3, 2, 4)):
        a = Matrix([[Series(F5, 6, tuple(rng.randrange(5) for _ in range(6)))
                     for _ in range(inner)] for _ in range(rows)])
        b = Matrix([[Series(F5, 6, tuple(rng.randrange(5) for _ in range(6)))
                     for _ in range(cols)] for _ in range(inner)])
        prod = a * b
        rebuilt = Matrix(prod.entries)
        assert prod == rebuilt and hash(prod) == hash(rebuilt)
        assert (prod.kind, prod.field, prod.rows, prod.cols) == \
            (rebuilt.kind, rebuilt.field, rebuilt.rows, rebuilt.cols) == (Series, F5, rows, cols)
        assert type(prod.entries) is tuple and all(type(r) is tuple for r in prod.entries)


def _random_matrix(field, rows, cols, prec, rng):
    q = field.order
    return Matrix([[Series(field, prec, tuple(rng.randrange(q) for _ in range(prec)))
                    for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("pk", [(7, 1), (3, 2)])
def test_identity_factor_returns_the_other_factor(pk):
    """I * M and M * I equal kernels.mat_mul's product, and are M itself."""
    field = make_field(*pk)
    rng = SplitMix64(field.order)
    for prec in (1, 5, 16):
        for r in range(1, 5):
            ident = Matrix.identity(field, r, prec)
            for c in range(1, 5):
                for left in (True, False):
                    shape = (r, c) if left else (c, r)
                    m = _random_matrix(field, *shape, prec, rng)
                    a, b = (ident, m) if left else (m, ident)
                    want = mat_mul(field.ctx, [[e.coeffs for e in row] for row in a.entries],
                                   [[e.coeffs for e in row] for row in b.entries], prec)
                    got = a * b
                    assert got is m
                    assert [[list(e.coeffs) for e in row] for row in got.entries] == want


def test_identity_factor_keeps_the_product_errors():
    """An identity factor is recognised only after the field and precision
    checks, so a mismatch raises as it does without one."""
    f7, f9 = make_field(7), make_field(3, 2)
    rng = SplitMix64(5)
    ident = Matrix.identity(f7, 2, 8)
    for m, message in ((_random_matrix(f7, 2, 2, 4, rng), "precision mismatch"),
                       (Matrix.identity(f7, 2, 4), "precision mismatch"),
                       (Matrix([[Series.one(f7, 8), Series.zero(f7, 4)]] * 2),
                        "precision mismatch"),
                       (_random_matrix(f9, 2, 2, 8, rng), "field mismatch"),
                       (Matrix.identity(f9, 2, 8), "field mismatch")):
        for a, b in ((ident, m), (m, ident)):
            with pytest.raises(StructuralError, match=message):
                a * b


def test_is_one():
    f7 = make_field(7)
    for r in (1, 2, 4):
        for prec in (1, 3, 8):
            assert Matrix.identity(f7, r, prec).is_one()
    ident = Matrix.identity(f7, 3, 4)
    rows = [list(row) for row in ident.entries]
    assert not Matrix(rows[:2]).is_one()                       # 2 x 3
    assert not Matrix([row[:2] for row in rows]).is_one()      # 3 x 2
    assert not ident.to_laurent().is_one()
    assert not Matrix.zero(f7, 3, 3, 4).is_one()
    for i in range(3):
        for j in range(3):
            for k in range(4):
                for c in (1, 2):
                    off = [list(row) for row in rows]
                    coeffs = list(off[i][j].coeffs)
                    if coeffs[k] == c:
                        continue
                    coeffs[k] = c
                    off[i][j] = Series(f7, 4, tuple(coeffs))
                    assert not Matrix(off).is_one(), (i, j, k, c)


def test_is_one_is_invisible_to_equality_and_hash():
    f9 = make_field(3, 2)
    rng = SplitMix64(9)
    for m in (Matrix.identity(f9, 2, 6), _random_matrix(f9, 2, 2, 6, rng)):
        twin = Matrix(m.entries)
        before = hash(m)
        m.is_one()
        assert m == twin and twin == m and hash(m) == hash(twin) == before
        assert m._one is not None and twin._one is None


def test_first_mismatch_rejects_different_precisions():
    """A Series entry is not equal to a longer one that extends it."""
    f7 = make_field(7)
    short = Matrix([[Series(f7, 4, (1, 2, 0, 0))]])
    long = Matrix([[Series(f7, 8, (1, 2, 0, 0, 5, 5, 5, 5))]])
    assert short != long
    for a, b in ((short, long), (long, short)):
        with pytest.raises(StructuralError, match="precision mismatch in comparison"):
            a.first_mismatch(b)
        with pytest.raises(StructuralError, match="precision mismatch in comparison"):
            a.agrees_with(b)
    assert short.first_mismatch(Matrix([[Series(f7, 4, (1, 3, 0, 0))]])) == (0, 0, 1)


def test_mixed_kind_multiplication_promotes():
    s_mat = Matrix.identity(F5, 2, 4)
    l_mat = Matrix.identity(F5, 2, 4).to_laurent()
    assert (s_mat * l_mat).kind is Laurent


def test_null_space_without_rows_is_the_identity_basis():
    assert null_space(F5, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (2, 2)]), st.integers(1, 5), st.integers(1, 6),
       st.data())
def test_null_space_is_reduced_echelon_kernel(pk, m, n, data):
    F = make_field(*pk)
    rows = [data.draw(st.lists(st.integers(0, F.order - 1), min_size=n, max_size=n))
            for _ in range(m)]
    basis = null_space(F, rows, n)
    assert len(basis) == n - solve_linear(F, rows).rank
    leads = [next(i for i, c in enumerate(v) if c) for v in basis]
    assert leads == sorted(set(leads))
    for v, lead in zip(basis, leads):
        assert v[lead] == 1
        assert all(w[lead] == 0 for w in basis if w is not v)
    for v in basis:
        for row in rows:
            acc = 0
            for a, x in zip(row, v):
                acc = F.add(acc, F.mul(a, x))
            assert acc == 0


@st.composite
def block_systems(draw):
    """(field, rows, n): 1-4 blocks of rows, each on its own columns, plus
    zero rows and unknowns in no row, with the rows and the columns shuffled.
    GF(13) eliminates on packed rows, GF(3^2) on byte rows, GF(3^3) on lists;
    GF(257), whose entries do not fit a byte, finds its blocks another way."""
    F = make_field(*draw(st.sampled_from([(13, 1), (3, 2), (3, 3), (257, 1)])))
    values = draw(st.lists(st.integers(1, F.order - 1), min_size=1, max_size=3))
    entry = st.sampled_from([0] + values)
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    n = sum(sizes) + draw(st.integers(0, 2))
    columns = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(draw(st.integers(0, 2)))]
    start = 0
    for size in sizes:
        cols = columns[start:start + size]
        start += size
        for _ in range(draw(st.integers(1, 5))):
            row = [0] * n
            for c in cols:
                row[c] = draw(entry)
            rows.append(row)
    return F, draw(st.permutations(rows)), n


@st.composite
def repeated_block_systems(draw):
    """(field, rows, n): copies of one drawn block on columns of their own,
    their columns and rows interleaved, each copy's in its own order kept.
    A copy is the block itself, the block with one entry changed, its rows
    in another order, or its entries read row by row in another shape (an
    h x w block as w rows of h); plus unknowns in no row."""
    F = make_field(*draw(st.sampled_from([(13, 1), (3, 2)])))
    entry = st.integers(0, F.order - 1)
    h, w = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    block = [[draw(entry) for _ in range(w)] for _ in range(h)]
    copies = [block]
    for kind in draw(st.lists(st.sampled_from(["same", "entry", "rows", "shape"]),
                              min_size=1, max_size=4)):
        if kind == "same":
            copies.append(block)
        elif kind == "entry":
            i, j = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            copy = [list(row) for row in block]
            copy[i][j] = draw(entry.filter(lambda x: x != block[i][j]))
            copies.append(copy)
        elif kind == "rows":
            copies.append(draw(st.permutations(block)))
        else:
            flat = [x for row in block for x in row]
            copies.append([flat[i * h:(i + 1) * h] for i in range(w)])
    n = sum(len(c[0]) for c in copies) + draw(st.integers(0, 2))
    columns = draw(st.permutations(range(n)))
    placed, start = [], 0
    for c in copies:
        cols = sorted(columns[start:start + len(c[0])])
        start += len(c[0])
        placed.append([])
        for row in c:
            full = [0] * n
            for col, x in zip(cols, row):
                full[col] = x
            placed[-1].append(full)
    rows = []
    for k in draw(st.permutations([k for k, c in enumerate(placed) for _ in c])):
        rows.append(placed[k].pop(0))
    return F, rows, n


@settings(max_examples=300, deadline=None)
@given(st.one_of(block_systems(), repeated_block_systems()))
def test_kernel_by_blocks_is_the_joint_kernel(system):
    F, rows, n = system
    assert kernel_by_blocks(F, rows, n) == solve_linear(F, rows).kernel


def test_kernel_by_blocks_solves_each_distinct_block_once(monkeypatch):
    """A 2 x 3 block at columns {0, 2, 4} and again at {1, 5, 7}, rows
    interleaved; the same six entries as a 3 x 2 block at {3, 6}; and the
    block with one entry changed at {8, 9, 10}: three distinct systems."""
    F13 = make_field(13)
    block = [[1, 2, 3], [4, 5, 6]]
    rows = [[1, 0, 2, 0, 3, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 2, 0, 3, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0], [4, 0, 5, 0, 6, 0, 0, 0, 0, 0, 0],
            [0, 4, 0, 0, 0, 5, 0, 6, 0, 0, 0], [0, 0, 0, 3, 0, 0, 4, 0, 0, 0, 0],
            [0, 0, 0, 5, 0, 0, 6, 0, 0, 0, 0], [0] * 8 + block[0],
            [0] * 8 + [4, 5, 7]]
    solves = []

    def counted(field, system, *rest):
        solves.append([list(row) for row in system])
        return solve_linear(field, system, *rest)

    monkeypatch.setattr(linalg, "solve_linear", counted)
    kernel = kernel_by_blocks(F13, rows, 11)
    monkeypatch.undo()
    assert kernel == solve_linear(F13, rows).kernel
    assert solves == [block, [[1, 2], [3, 4], [5, 6]], [[1, 2, 3], [4, 5, 7]]]


def test_kernel_by_blocks_lists_by_free_column():
    """Two interleaved blocks, {0, 2, 4} and {1, 3}, and unknown 5 in no row:
    the kernel is listed by free column (3, 4, 5), not block by block."""
    rows = [[1, 0, 2, 0, 0, 0], [0, 1, 0, 4, 0, 0], [0, 0, 1, 0, 3, 0], [0] * 6]
    assert kernel_by_blocks(F5, rows, 6) == solve_linear(F5, rows).kernel == [
        [0, 1, 0, 1, 0, 0], [1, 0, 2, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    assert kernel_by_blocks(F5, [], 2) == [[1, 0], [0, 1]]


# flattened 2 x 2 matrices over GF(5)
E11, E12, E21, E22 = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]


def test_residue_search_returns_first_invertible_in_counting_order():
    # code = c1 + 5*c2 + 25*c3: codes 1..5 are c1*v1 and v2, all singular
    # here; code 6, v1 + v2, is the first invertible one
    assert residue_search(F5, [E11, E22], 2, 10 ** 6) == ([1, 1], True)
    assert residue_search(F5, [E12, E21, E11], 2, 10 ** 6) == ([1, 1, 0], True)
    # E11 + E22 is already invertible at code 1
    assert residue_search(F5, [[1, 0, 0, 1], E12], 2, 10 ** 6) == ([1, 0], True)


def test_residue_search_exhaustive_and_cap():
    assert residue_search(F5, [], 2, 10 ** 6) == (None, True)
    # first-row matrices are never invertible
    assert residue_search(F5, [E11, E12], 2, 10 ** 6) == (None, True)
    assert residue_search(F5, [E11, E22], 2, 24) == (None, False)
    assert residue_search(F5, [E11, E22], 2, 25) == ([1, 1], True)


# -- the row kernels against the elimination they replaced --

def _ref_solve_linear(field, rows, rhs):
    """Textbook Gauss-Jordan on lists through ctx.sub/ctx.mul, every entry
    reduced at every step, with solve_linear's pivot order."""
    ctx = field.ctx
    m, n = len(rows), len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, m) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv_p = ctx.inv(aug[r][col])
        aug[r] = [ctx.mul(inv_p, v) for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [ctx.sub(v, ctx.mul(f, w)) for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    if any(aug[i][n] for i in range(r, m)):
        return LinearSolution(False, None, [], r, pivot_cols)
    particular = [0] * n
    for row_i, col in enumerate(pivot_cols):
        particular[col] = aug[row_i][n]
    kernel = []
    for f in (c for c in range(n) if c not in pivot_cols):
        vec = [0] * n
        vec[f] = 1
        for row_i, col in enumerate(pivot_cols):
            vec[col] = ctx.neg(aug[row_i][f])
        kernel.append(vec)
    return LinearSolution(True, particular, kernel, r, pivot_cols)


def _ref_echelonize(field, vectors):
    ctx = field.ctx
    ech = {}
    for v in vectors:
        v = list(v)
        while True:
            lead = next((i for i, c in enumerate(v) if c), None)
            if lead is None or lead not in ech:
                break
            f = v[lead]
            v = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(v, ech[lead])]
        if lead is not None:
            inv = ctx.inv(v[lead])
            ech[lead] = [ctx.mul(inv, c) for c in v]
    for lead in sorted(ech, reverse=True):
        for other, w in ech.items():
            if other != lead and w[lead]:
                f = w[lead]
                ech[other] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(w, ech[lead])]
    return [ech[lead] for lead in sorted(ech)]


# GF(11^3) is above ADD_TABLE_MAX_ORDER, so its ctx.add adds digit by digit;
# GF(3^2), GF(2^3), GF(2^4), GF(5^2) and GF(7^2) eliminate on byte rows,
# GF(3^3) and GF(11^3) on lists
ROW_KERNEL_FIELDS = [(2, 1), (13, 1), (3, 2), (2, 3), (2, 4), (5, 2), (7, 2), (3, 3), (11, 3)]


def test_byte_rows_exactly_where_two_digit_sums_fit_a_byte():
    fields = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2), (13, 1)]
    assert [pk for pk in fields if _byte_rows(make_field(*pk).ctx)] == [
        (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (7, 2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ROW_KERNEL_FIELDS), st.integers(1, 6), st.integers(1, 6), st.data())
def test_row_kernels_match_reference_elimination(pk, m, n, data):
    assert 11 ** 3 > ADD_TABLE_MAX_ORDER
    F = make_field(*pk)
    # entries from a few values, so that dependent rows are common
    values = data.draw(st.lists(st.integers(0, F.order - 1), min_size=1, max_size=3))
    entry = st.sampled_from([0] + values)
    rows = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    rhs = data.draw(st.lists(entry, min_size=m, max_size=m))
    assert solve_linear(F, rows, rhs) == _ref_solve_linear(F, rows, rhs)
    assert echelonize(F, rows) == _ref_echelonize(F, rows)
    assert null_space(F, rows, n) == _ref_echelonize(F, _ref_solve_linear(F, rows, [0] * m).kernel)


# -- packed prime-field elimination against the reference --

@st.composite
def prime_systems(draw):
    """(p, rows, rhs): m x n over GF(p), m and n in 1..9, each row a
    combination of `rank` random rows (so zero rows and rank deficiency are
    common), rhs zero, in the column space, or arbitrary (often inconsistent)."""
    p = draw(st.sampled_from([2, 3, 13, 65521]))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rank = draw(st.integers(0, min(m, n)))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    vectors = st.lists(entry, min_size=rank, max_size=rank)
    basis = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(rank)]
    coeffs = [draw(vectors) for _ in range(m)]
    rows = [[sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(n)] for cs in coeffs]
    kind = draw(st.sampled_from(["zero", "consistent", "arbitrary"]))
    if kind == "zero":
        rhs = [0] * m
    elif kind == "consistent":
        x = draw(st.lists(entry, min_size=n, max_size=n))
        rhs = [sum(a * b for a, b in zip(row, x)) % p for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return p, rows, rhs


@settings(max_examples=300, deadline=None)
@given(prime_systems())
def test_packed_elimination_matches_reference(system):
    p, rows, rhs = system
    F = make_field(p)
    assert solve_linear(F, rows, rhs) == _ref_solve_linear(F, rows, rhs)


def test_packed_elimination_matches_reference_on_large_systems():
    """Dense systems long enough for many updates to pile up in each slot."""
    rng = SplitMix64(88)
    for p, m, n in ((2, 70, 60), (13, 60, 80), (65521, 40, 30)):
        F = make_field(p)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        rows += [list(r) for r in rows[:5]]         # rank deficient
        rhs = [rng.randrange(p) for _ in range(len(rows))]
        for b in (rhs, [0] * len(rows)):
            assert solve_linear(F, rows, b) == _ref_solve_linear(F, rows, b)
        assert echelonize(F, rows) == _ref_echelonize(F, rows)


def test_packed_elimination_fills_a_slot_to_its_bound():
    """A slot takes its entry plus one update per pivot, (p - 1)^2 *
    (pivots + 1) at most.  Over GF(2) with 255 pivots that is 256, one past
    an 8-bit slot: rows e_i + e_254 (i < 254) and e_254 pivot in turn, and
    the all-ones row past them gains 1 in column 254 from every pivot, 1 +
    255 in all, whose carry would flip its rhs.  The all-ones row is the sum
    of the others, so its rhs decides consistency."""
    F2 = make_field(2)
    n = 255
    rows = [[1 if j in (i, n - 1) else 0 for j in range(n)] for i in range(n)] + [[1] * n]
    rhs = [1] * (n - 1) + [0]
    sol = solve_linear(F2, rows, rhs + [0])
    assert sol.consistent and sol.rank == n and sol.particular == rhs
    assert not solve_linear(F2, rows, rhs + [1]).consistent


def test_byte_row_elimination_matches_reference_on_large_systems():
    """Dense GF(p^k) systems the size of the wild invariants solve (48 x 48
    over GF(3^2)) and of the wild trivialize echelonize (36 x 96 over
    GF(3^2)), and larger, on byte rows: every update reduces its row, so
    nothing piles up, however many pivots.  GF(3^3) has no byte rows; its
    system runs on lists."""
    rng = SplitMix64(89)
    for pk, m, n in (((3, 2), 48, 48), ((3, 2), 36, 96), ((7, 2), 40, 60), ((2, 4), 70, 50),
                     ((3, 3), 40, 50)):
        F = make_field(*pk)
        assert bool(_byte_rows(F.ctx)) == (pk != (3, 3))
        rows = [[rng.randrange(F.order) for _ in range(n)] for _ in range(m - 5)]
        rows += [list(r) for r in rows[:5]]         # rank deficient
        rhs = [rng.randrange(F.order) for _ in range(len(rows))]
        for b in (rhs, [0] * len(rows)):
            assert solve_linear(F, rows, b) == _ref_solve_linear(F, rows, b)
        assert null_space(F, rows, n) == _ref_echelonize(
            F, _ref_solve_linear(F, rows, [0] * m).kernel)
        assert echelonize(F, rows) == _ref_echelonize(F, rows)


def test_packed_rows_slots_at_the_caps():
    """The slots of a packed elimination hold (p - 1)^2 * (pivots + 1).  At
    p = 65521 the largest system the caps allow per block (the Hom space of
    rank-MAX_RANK data at MAX_PRECISION: MAX_RANK^2 * MAX_PRECISION
    unknowns) takes 64-bit slots, as does any system with up to 2^32
    pivots; far past that the packing refuses rather than truncates."""
    pivots = MAX_RANK ** 2 * MAX_PRECISION
    assert _slot(65521, 1, 1, pivots + 1) == (8, "Q")
    assert _slot(65521, 1, 1, 2 ** 32 + 1) == (8, "Q")
    assert _slot(13, 1, 1, 160 + 1) == (2, "H")
    with pytest.raises(StructuralError):
        _slot(65521, 1, 1, 2 ** 33 + 1)
