"""The packed Laurent matrix product, fixed_rows and kron against the
entry-by-entry computations they replaced, kept here as references."""

import pytest
from hypothesis import given, settings, strategies as st

from orbipar.equivariant import fixed_rows, vec_to_coords
from orbipar.errors import StructuralError
from orbipar.fields import make_field
from orbipar.linalg import Matrix, kron
from orbipar.local_galois import Substitution, make_artin_schreier, make_kummer
from orbipar.parabolic import random_datum
from orbipar.prng import SplitMix64
from orbipar.series import Laurent, Series

PRODUCT_FIELDS = [(2, 1), (13, 1), (65521, 1), (3, 2), (2, 4)]


def _entrywise_product(a, b):
    """a * b as a chain of Laurent products and sums, entry by entry."""
    if a.kind is Series:
        a = a.to_laurent()
    if b.kind is Series:
        b = b.to_laurent()
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = None
            for t in range(a.cols):
                term = a.entries[i][t] * b.entries[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return Matrix(out)


def _entrywise_kron(a, b):
    return Matrix([[a.entries[i1][j1] * b.entries[i2][j2]
                    for j1 in range(a.cols) for j2 in range(b.cols)]
                   for i1 in range(a.rows) for i2 in range(b.rows)])


def _entrywise_fixed_rows(field, rank, prec, actions):
    ctx = field.ctx
    dim = rank * prec
    rows = []
    for a, power in actions:
        cols = []
        for idx in range(dim):
            m, comp = divmod(idx, rank)
            col = vec_to_coords(tuple(a.entries[row][comp] * power(m)
                                      for row in range(rank)), rank, prec)
            col[idx] = ctx.sub(col[idx], 1)
            cols.append(col)
        rows.extend(zip(*cols))
    return rows


def _assert_checked(m):
    """m is the Matrix the public constructor builds from its entries."""
    rebuilt = Matrix(m.entries)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert (m.kind, m.field, m.rows, m.cols) == \
        (rebuilt.kind, rebuilt.field, rebuilt.rows, rebuilt.cols)
    assert type(m.entries) is tuple and all(type(r) is tuple for r in m.entries)


@st.composite
def operand(draw, field, rows, cols):
    """A rows x cols Laurent matrix (floors in -4..4, lengths 1..12 per
    entry, below a per-matrix cap so that short products, where vec_mul
    runs its direct loop in the 1 x 1 case and slots are narrow otherwise,
    are common) or, one time in four, a Series matrix of one precision."""
    coeff = st.integers(0, field.order - 1)
    top = draw(st.integers(1, 12))
    if draw(st.integers(0, 3)) == 0:
        return Matrix([[Series(field, top, tuple(draw(st.lists(coeff, min_size=top,
                                                               max_size=top))))
                        for _ in range(cols)] for _ in range(rows)])
    return Matrix([[Laurent(field, draw(st.integers(-4, 4)),
                            tuple(draw(st.lists(coeff, min_size=1, max_size=top))))
                    for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(PRODUCT_FIELDS), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_laurent_product_matches_entrywise(pk, rows, inner, cols, data):
    F = make_field(*pk)
    a = data.draw(operand(F, rows, inner))
    b = data.draw(operand(F, inner, cols))
    if a.kind is Series and b.kind is Series:
        b = b.to_laurent()
    prod = a * b
    assert prod.kind is Laurent
    assert prod == _entrywise_product(a, b)
    _assert_checked(prod)


def test_laurent_product_windows_on_a_known_case():
    """Term windows [-3, 1) and [2, 11): the sum is known on [-3, 1), with the
    second term zero below its floor."""
    F = make_field(13)
    a = Matrix([[Laurent(F, -2, (1, 2, 3, 4, 5, 6, 7, 8)), Laurent(F, 1, (1,) * 9)]])
    b = Matrix([[Laurent(F, -1, (1, 1, 1, 1))], [Laurent(F, 1, (2, 0, 0, 0, 0, 0, 0, 0, 0, 0))]])
    prod = a * b
    assert prod.entries[0][0] == Laurent(F, -3, (1, 3, 6, 10))
    assert prod == _entrywise_product(a, b)


@pytest.mark.parametrize("rows,inner,cols", [(1, 1, 1), (2, 2, 2), (1, 3, 2)])
def test_laurent_product_errors(rows, inner, cols):
    F, G = make_field(13), make_field(3, 2)

    def matrix(field, r, c, empty=False):
        return Matrix([[Laurent(field, i - j, () if empty and (i, j) == (r - 1, 0) else (1,) * 9)
                        for j in range(c)] for i in range(r)])

    a, b = matrix(F, rows, inner), matrix(F, inner, cols)
    for x, y in ((matrix(F, rows, inner, empty=True), b), (a, matrix(F, inner, cols, empty=True))):
        with pytest.raises(StructuralError, match="empty validity window in Laurent product"):
            x * y
    with pytest.raises(StructuralError, match="field mismatch"):
        a * matrix(G, inner, cols)
    with pytest.raises(StructuralError, match="field mismatch"):
        Matrix([[Series.one(G, 9)] * inner] * rows) * b


def _data():
    """(extension, datum) pairs of rank-2 Kummer and Artin-Schreier data."""
    return [(ext, random_datum(ext, 2, SplitMix64(seed), character_exponent=chi))
            for ext, seed, chi in ((make_kummer(make_field(13), 4, 8), 11, 1),
                                   (make_kummer(make_field(7), 3, 16), 12, 1),
                                   (make_artin_schreier(make_field(3, 2), 24), 13, 0),
                                   (make_artin_schreier(make_field(5), 10), 14, 0))]


def _random_matrix(field, rank, prec, rng):
    return Matrix([[Series(field, prec, tuple(rng.randrange(field.order) for _ in range(prec)))
                    for _ in range(rank)] for _ in range(rank)])


def _fixed_rows_cases():
    """(field, rank, prec, actions): the Hom actions kron(A_g, A_g) of the
    data above; random rank-2 actions with Artin-Schreier powers over GF(2^2)
    and GF(3^3) (digit groups, the latter without byte rows) and with Kummer
    powers over GF(65521); actions of Hom rank 16 at N=8 (the size of
    dual_pairing's search); and over GF(65521) dense powers and an action
    whose every coefficient is q - 1, whose slots sum prec products of (p -
    1)^2 each."""
    for ext, d in _data():
        c = d.points[0].psi
        yield ext.field, 2, ext.prec, [(c.mats[g], ext.psi(g).power)
                                       for g in range(ext.group.order)]
        yield ext.field, 4, ext.prec, [(kron(c.mats[g], c.mats[g]), ext.psi(g).power)
                                       for g in ext.group.generators()]
    rng = SplitMix64(31)
    for ext in (make_artin_schreier(make_field(2, 2), 12),
                make_artin_schreier(make_field(3, 3), 12),
                make_kummer(make_field(65521), 4, 8)):
        yield ext.field, 2, ext.prec, [(_random_matrix(ext.field, 2, ext.prec, rng),
                                        ext.psi(g).power) for g in range(ext.group.order)]
    ext = make_kummer(make_field(13), 4, 8)
    yield ext.field, 16, 8, [(_random_matrix(ext.field, 16, 8, rng), ext.psi(g).power)
                             for g in ext.group.generators()]
    F = make_field(65521)
    image = Series(F, 8, (0, 1) + tuple(rng.randrange(F.order) for _ in range(6)))
    dense = Substitution(image).power
    yield F, 3, 8, [(_random_matrix(F, 3, 8, rng), dense)]
    top = Matrix([[Series(F, 8, (F.order - 1,) * 8)] * 3] * 3)

    def tops(m):
        return Series(F, 8, (0,) * m + (F.order - 1,) * (8 - m))

    yield F, 3, 8, [(top, tops), (top, dense)]


def test_fixed_rows_match_entrywise():
    for field, rank, prec, actions in _fixed_rows_cases():
        assert fixed_rows(field, rank, prec, actions) == \
            _entrywise_fixed_rows(field, rank, prec, actions)


def test_fixed_rows_precision_mismatch_raises():
    ext, d = _data()[0]
    short = d.points[0].psi.mats[1].to_series(ext.prec - 1)
    with pytest.raises(StructuralError, match="precision mismatch"):
        fixed_rows(ext.field, 2, ext.prec, [(short, ext.psi(1).power)])


def test_kron_matches_entrywise():
    for ext, d in _data():
        pt = d.points[0]
        a, b = pt.psi.mats[1], pt.psi.mats[-1]
        for x, y in ((a, b), (pt.mu, pt.mu), (pt.mu, a), (a, pt.mu.transpose())):
            k = kron(x, y)
            assert k == _entrywise_kron(x.to_laurent() if y.kind is Laurent else x,
                                        y.to_laurent() if x.kind is Laurent else y)
            _assert_checked(k)
    with pytest.raises(StructuralError, match="precision mismatch"):
        kron(a, b.to_series(ext.prec - 1))


def test_mapped_matrices_are_checked_matrices():
    """The maps that skip Matrix.__init__ (the entrywise Matrix methods and
    psi(g) applied to a matrix) build the Matrix it would."""
    ext, d = _data()[1]
    pt = d.points[0]
    ser, lau = pt.psi.mats[1], pt.mu
    act = ext.act(1)
    psi = ext.psi(1)
    results = [ser.scale(3), lau.scale(3), -ser, -lau, ser.substitute(act),
               lau.substitute(act), ser.to_laurent(), ser.to_series(ext.prec - 2),
               ser.to_laurent().to_series(4), lau.shift(-2), ser.shift(2), psi(ser), psi(lau)]
    for m, kind in zip(results, [Series, Laurent, Series, Laurent, Series, Laurent, Laurent,
                                 Series, Series, Laurent, Series, Series, Laurent]):
        assert m.kind is kind and m.field == ext.field
        _assert_checked(m)
