"""Matrices over truncated series rings, plus exact solving over the field.

Three layers:

* solve_linear -- Gauss-Jordan over the coefficient field k with the fixed
  deterministic pivot order (leftmost column, then lowest row index), run
  by kernels.gauss_jordan in the row form that suits the field; returns a
  particular solution and a kernel basis.  On top of it: echelonize (the
  reduced echelon basis of a span, ordered by leading coordinate, from the
  same elimination), null_space (that basis for the solutions of rows * x
  = 0, read off one solve with the columns reversed), kernel_by_blocks
  (solve_linear's kernel, from one solve per distinct block of unknowns
  that share no row with the rest), combination (sum of scaled vectors) and
  residue_search (the first combination of flattened r x r matrices over k
  that is invertible).  reduce_against, extend_echelon and residue_det
  update list rows with the kernels' row_axpy and row_scale.
* Matrix -- rectangular matrices with uniform Series or Laurent entries;
  inversion over k[[s]] requires a unit determinant (residue-invertible)
  and is exact at precision; it runs in the kernels' mat_inverse, on the
  entries' coefficient rows.  Series-matrix products run in the kernels'
  mat_mul, except that an identity factor (Matrix.is_one, cached per
  matrix) returns the other factor itself once the field and precision
  checks pass.  Laurent-matrix products (a Series operand promoted) run in
  laurent_mat_mul: each output entry is the shifted sum of its terms'
  packed products, read on the window the chain of Laurent sums gives
  (lowest term floor up to the lowest term window end).  They take no
  identity shortcut: that window rule also takes the floors and lengths of
  the zero entries, so I * M can have other windows than M.  Results of
  products and of the entrywise maps whose kind and field are fixed
  (scale, negation, shift, substitute, to_laurent, to_series) are built
  without re-checking their entries.
* smith -- Smith normal form over the truncated DVR k[[s]]: M = U*D*W with
  U, W unimodular, D diagonal with entries of increasing valuation, by the
  kernels' smith_rows on coefficient rows.  One
  decomposition of a cocycle's natural map serves both its is_induced
  divisors and the S functor's unimodular U (equivariant.is_induced).
  A Laurent matrix is invertible exactly when no divisor of its series
  part is None.  is_invertible first tests the k-matrix of the entries'
  lowest coefficients on their common window: when its determinant is
  nonzero every divisor is that valuation; otherwise smith decides.
"""

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .errors import DomainError, NotInvertibleError, StructuralError
from .kernels import (gauss_jordan, laurent_mat_mul, mat_inverse, mat_mul, row_axpy, row_neg,
                      row_scale, smith_rows)
from .series import Laurent, Series


@dataclass
class LinearSolution:
    consistent: bool
    particular: list          # None iff not consistent
    kernel: list              # list of basis vectors
    rank: int
    pivot_cols: list


def solve_linear(field, rows, rhs=None):
    """Solve M x = rhs over the field; rhs defaults to zero.

    Returns a LinearSolution with one particular solution plus a kernel
    basis, via exact elimination with deterministic pivots.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if rhs is None:
        rhs = [0] * m
    if len(rhs) != m:
        raise StructuralError("rhs length mismatch")
    ctx = field.ctx
    pivot_cols, reduced, rest = gauss_jordan(ctx, (list(r) + [b] for r, b in zip(rows, rhs)),
                                             m, n)
    r = len(pivot_cols)
    if any(rest):
        return LinearSolution(False, None, [], r, pivot_cols)
    particular = [0] * n
    for row, col in zip(reduced, pivot_cols):
        particular[col] = row[n]
    pivots = set(pivot_cols)
    free_cols = [c for c in range(n) if c not in pivots]
    kernel = []
    for f in free_cols:
        vec = [0] * n
        vec[f] = 1
        for col, x in zip(pivot_cols, row_neg(ctx, [row[f] for row in reduced])):
            vec[col] = x
        kernel.append(vec)
    return LinearSolution(True, particular, kernel, r, pivot_cols)


def reduce_against(field, ech, v):
    """Clear v's leading coordinates against ech (lead -> normalized row);
    returns (reduced v, its leading coordinate or None if it vanished)."""
    ctx = field.ctx
    v = list(v)
    while True:
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is None or lead not in ech:
            return v, lead
        v = row_axpy(ctx, v, v[lead], ech[lead])


def extend_echelon(field, ech, v):
    """Reduce v against ech and add it, normalized, under its leading
    coordinate; returns that coordinate, or None if v was in the span."""
    ctx = field.ctx
    v, lead = reduce_against(field, ech, v)
    if lead is not None:
        ech[lead] = row_scale(ctx, ctx.inv(v[lead]), v)
    return lead


def echelonize(field, vectors):
    """Reduced echelon basis of the span, ordered by leading coordinate: the
    reduced pivot rows of Gauss-Jordan on the vectors, each given a zero rhs
    that is dropped again.  A pivot row is zero left of its pivot column and
    at every other pivot column, so that column is its leading coordinate."""
    m = len(vectors)
    n = len(vectors[0]) if m else 0
    reduced = gauss_jordan(field.ctx, (list(v) + [0] for v in vectors), m, n)[1]
    return [row[:n] for row in reduced]


def null_space(field, rows, n):
    """Reduced echelon basis of {x in k^n : rows * x = 0}, ordered by leading
    coordinate; no rows gives the identity basis.

    One solve with the columns reversed, and no echelonize pass.  Gauss-
    Jordan on the reversed columns picks its pivots from the right, so the
    row of a pivot column c holds, besides its 1, only free columns left of
    c.  The kernel vector of a free column f is therefore 1 at f, 0 at every
    other free column and nonzero only at pivot columns right of f: f is its
    leading coordinate and the other vectors vanish there.  That is the
    reduced echelon basis, which is unique, so it equals
    echelonize(solve_linear(rows).kernel) entry for entry.
    """
    if not rows:
        return [[1 if t == i else 0 for t in range(n)] for i in range(n)]
    kernel = solve_linear(field, [r[::-1] for r in rows]).kernel
    return [v[::-1] for v in reversed(kernel)]


_NONZERO = bytes([0]) + bytes([1]) * 255


def kernel_by_blocks(field, rows, n):
    """solve_linear(field, rows).kernel, from one solve per distinct block
    of the system.

    The blocks are the connected components of the unknowns that share a
    nonzero row.  Columns in different blocks have disjoint row supports, so
    whether column c is a pivot (it is not a combination of the columns left
    of it) depends only on the earlier columns of c's own block, and c's
    reduced pivot row touches only that block.  The reduced echelon form is
    unique, so the kernel vector of a free column, 1 there, 0 at the other
    free columns, is its block's kernel vector embedded in the full
    coordinates; unknowns in no row are free, with unit vectors.  The
    vectors are listed by free column, ascending, as solve_linear lists them.

    A block's solution depends only on its restricted system: its rows in
    row order, each read on the block's columns in column order.  So blocks
    whose restricted systems are equal (the isomorphism search against a
    trivial reference repeats one system per row of g) share one solve,
    embedded into each block's own columns.
    """
    # blocks as [column mask, row indices]; a mask has one byte per column,
    # 1 where the row's entry is nonzero (entries below 256 convert as bytes)
    small = field.order <= 256
    blocks = []
    for i, row in enumerate(rows):
        mask = int.from_bytes(bytes(row).translate(_NONZERO) if small else bytes(map(bool, row)),
                              "little")
        if not mask:
            continue
        hit = [b for b in blocks if b[0] & mask]
        if not hit:
            blocks.append([mask, [i]])
            continue
        first = hit[0]
        first[0] |= mask
        first[1].append(i)
        for b in hit[1:]:
            first[0] |= b[0]
            first[1].extend(b[1])
            blocks.remove(b)
    used = 0
    by_free = {}
    solved = {}                 # restricted system -> its solution
    for mask, block_rows in blocks:
        used |= mask
        cols = list(compress(range(n), mask.to_bytes(n, "little")))
        if len(cols) == 1:      # a pivot column: its rows are nonzero there
            continue
        take = itemgetter(*cols)
        system = tuple(take(rows[i]) for i in block_rows)
        sol = solved.get(system)
        if sol is None:
            sol = solved[system] = solve_linear(field, system)
        pivots = set(sol.pivot_cols)
        free = (c for t, c in enumerate(cols) if t not in pivots)
        for f, vec in zip(free, sol.kernel):
            full = by_free[f] = [0] * n
            for c, x in zip(cols, vec):
                full[c] = x
    unused = int.from_bytes(bytes([1]) * n, "little") & ~used
    for f in compress(range(n), unused.to_bytes(n, "little")):
        by_free[f] = [1 if t == f else 0 for t in range(n)]
    return [by_free[f] for f in sorted(by_free)]


def combination(field, coeffs, vectors, n):
    """sum_i coeffs[i] * vectors[i] in k^n."""
    ctx = field.ctx
    out = [0] * n
    for cf, vec in zip(coeffs, vectors):
        if cf:
            for t, x in enumerate(vec):
                if x:
                    out[t] = ctx.add(out[t], ctx.mul(cf, x))
    return out


def is_invertible_combination(field, coeffs, vectors, r):
    """Whether the combination, read as a row-major r x r matrix, is invertible."""
    flat = combination(field, coeffs, vectors, r * r)
    return residue_det(field, [flat[i * r:(i + 1) * r] for i in range(r)]) != 0


def residue_search(field, vectors, r, cap):
    """First invertible combination of the flattened r x r matrices `vectors`.

    Tries coefficient vectors in base-q counting order (code 1 .. q^d - 1,
    little-endian digits).  Returns (coeffs or None, exhaustive); a space
    with q^d > cap is not searched and reports exhaustive=False.
    """
    q, d = field.order, len(vectors)
    if d and q ** d > cap:
        return None, False
    for code in range(1, q ** d):
        coeffs = [(code // q ** t) % q for t in range(d)]
        if is_invertible_combination(field, coeffs, vectors, r):
            return coeffs, True
    return None, True


def residue_det(field, rows):
    """Determinant of a square matrix over k, by elimination."""
    ctx = field.ctx
    n = len(rows)
    a = [list(r) for r in rows]
    det = 1
    for col in range(n):
        sel = None
        for i in range(col, n):
            if a[i][col]:
                sel = i
                break
        if sel is None:
            return 0
        if sel != col:
            a[col], a[sel] = a[sel], a[col]
            det = ctx.neg(det)
        det = ctx.mul(det, a[col][col])
        inv_p = ctx.inv(a[col][col])
        for i in range(col + 1, n):
            if a[i][col]:
                a[i] = row_axpy(ctx, a[i], ctx.mul(a[i][col], inv_p), a[col])
    return det


class Matrix:
    """Rectangular matrix with uniform Series or Laurent entries."""

    _one = None     # is_one's answer, once asked; not an entry, so == and hash ignore it

    def __init__(self, entries):
        rows = [tuple(r) for r in entries]
        if not rows or not rows[0]:
            raise StructuralError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise StructuralError("ragged matrix")
        first = rows[0][0]
        self.kind = Laurent if isinstance(first, Laurent) else Series
        for r in rows:
            for e in r:
                if not isinstance(e, self.kind):
                    raise StructuralError("mixed entry kinds")
                if e.field != first.field:
                    raise StructuralError("mixed fields in matrix")
        self.entries = tuple(rows)
        self.rows = len(rows)
        self.cols = ncols
        self.field = first.field

    @classmethod
    def _checked(cls, rows, kind, field):
        """The matrix of rows (non-empty tuples of equal length) whose entries
        are already known to be of one kind over field: no re-check."""
        self = cls.__new__(cls)
        self.kind, self.field = kind, field
        self.entries, self.rows, self.cols = rows, len(rows), len(rows[0])
        return self

    # -- constructors --

    @classmethod
    def identity(cls, field, n, prec):
        return cls([[Series.monomial(field, 1 if i == j else 0, 0, prec)
                     for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, rows, cols, prec):
        z = Series.zero(field, prec)
        return cls([[z] * cols for _ in range(rows)])

    def is_one(self):
        """Whether this is an identity matrix: square, with Series entries
        (1, 0, ...) on the diagonal and zero elsewhere, at any precision.
        Computed on first use and cached."""
        one = self._one
        if one is None:
            n, rows = self.rows, self.entries
            # c_0 = 1 on the diagonal, and those n coefficients are the only nonzero ones
            one = self._one = (
                self.kind is Series and n == self.cols
                and all(rows[i][i].coeffs[:1] == (1,) for i in range(n))
                and sum(len(e.coeffs) - e.coeffs.count(0) for row in rows for e in row) == n)
        return one

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def map(self, fn):
        return Matrix([[fn(e) for e in row] for row in self.entries])

    def _map_checked(self, fn, kind):
        """map for an fn that takes every entry to an entry of this field of
        the given kind: no re-check."""
        return Matrix._checked(tuple(tuple(map(fn, row)) for row in self.entries),
                               kind, self.field)

    def __add__(self, other):
        self._shape_check(other)
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._shape_check(other)
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return self._map_checked(lambda e: -e, self.kind)

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise StructuralError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise StructuralError("inner dimension mismatch")
            if self.kind is Series and other.kind is Series:
                return _series_product(self, other)
            return _laurent_product(self.to_laurent(), other.to_laurent())
        raise StructuralError("can only multiply by Matrix")

    def scale(self, c):
        return self._map_checked(lambda e: e.scale(c), self.kind)

    def shift(self, m):
        """Multiply every entry by s^m."""
        return self._map_checked(lambda e: e.shift(m), self.kind)

    def transpose(self):
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def substitute(self, act: Series):
        """Apply the ring map s -> act(s) to every entry."""
        if self.kind is Series:
            return self._map_checked(lambda e: e.compose(act), Series)
        return self._map_checked(lambda e: e.substitute(act), Laurent)

    def to_laurent(self):
        if self.kind is Laurent:
            return self
        return self._map_checked(Laurent.from_series, Laurent)

    def to_series(self, prec):
        if self.kind is Series:
            return self._map_checked(lambda e: e.truncate(prec), Series)
        return self._map_checked(lambda e: e.to_series(prec), Series)

    def residue(self):
        """Constant-term matrix over k (Laurent entries must have no pole on window)."""
        if self.kind is Series:
            return [[e.coeffs[0] for e in row] for row in self.entries]
        out = []
        for row in self.entries:
            r = []
            for e in row:
                for k in range(e.val_floor, 0):
                    if e.coeff(k):
                        raise DomainError("residue of a Laurent value with a pole")
                r.append(e.coeff(0))
            out.append(r)
        return out

    def is_residue_invertible(self):
        if self.rows != self.cols:
            return False
        return residue_det(self.field, self.residue()) != 0

    def inverse(self):
        """Inverse over k[[s]] (Series entries, unit determinant): kernels.mat_inverse,
        Gauss-Jordan on the entries' coefficient rows.  Raises StructuralError
        unless the matrix is square with one precision, and NotInvertibleError
        when its residue matrix is singular."""
        if self.kind is Laurent:
            return laurent_inverse(self)
        if self.rows != self.cols:
            raise StructuralError("inverse of a non-square matrix")
        prec = _common_prec(self)
        rows = mat_inverse(self.field.ctx, _coeff_rows(self), prec)
        if rows is None:
            raise NotInvertibleError(
                "matrix is not invertible over the series ring (non-unit determinant)",
                valuation=None)
        return _series_matrix(self.field, prec, rows)

    def first_mismatch(self, other):
        """(i, j, exponent) of the lowest-index difference, or None if equal.

        Series matrices compare exactly, and entries of different precisions
        raise, as different shapes do; Laurent matrices compare on common
        validity windows.
        """
        if self.rows != other.rows or self.cols != other.cols:
            raise StructuralError("shape mismatch in comparison")
        a, b = self, other
        if a.kind is not b.kind:
            a, b = a.to_laurent(), b.to_laurent()
        for i in range(a.rows):
            for j in range(a.cols):
                x, y = a.entries[i][j], b.entries[i][j]
                if a.kind is Series:
                    if x.prec != y.prec:
                        raise StructuralError("precision mismatch in comparison")
                    if x.coeffs != y.coeffs:
                        for k, (c1, c2) in enumerate(zip(x.coeffs, y.coeffs)):
                            if c1 != c2:
                                return (i, j, k)
                else:
                    k = x.first_mismatch(y)
                    if k is not None:
                        return (i, j, k)
        return None

    def agrees_with(self, other):
        return self.first_mismatch(other) is None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field.describe()})"


def _common_prec(m):
    """The one precision of m's Series entries; StructuralError if they differ."""
    precs = {e.prec for row in m.entries for e in row}
    if len(precs) != 1:
        raise StructuralError("precision mismatch")
    return precs.pop()


def _coeff_rows(m):
    """m's entries as rows of coefficient vectors, the kernels' matrix form."""
    return [[e.coeffs for e in row] for row in m.entries]


def _series_matrix(field, prec, rows):
    """The Series matrix over field at prec of the kernels' rows of
    coefficient lists: no re-check."""
    return Matrix._checked(tuple([tuple([Series(field, prec, tuple(c)) for c in row])
                                  for row in rows]), Series, field)


def _series_product(a, b):
    """a * b for Series matrices, through the kernels' matrix product; the
    operands must share their field and one precision, as Series products do.
    Once they pass those checks, an identity factor returns the other factor
    itself."""
    if a.field != b.field:
        raise StructuralError("field mismatch")
    prec = _common_prec(a)
    if _common_prec(b) != prec:
        raise StructuralError("precision mismatch")
    if a.is_one():
        return b
    if b.is_one():
        return a
    return _series_matrix(a.field, prec, mat_mul(a.field.ctx, _coeff_rows(a), _coeff_rows(b),
                                                 prec))


def _laurent_product(a, b):
    """a * b for Laurent matrices, through the kernels' Laurent matrix
    product: each entry on the window its chain of Laurent sums gives."""
    field = a.field
    if b.field is not field and b.field != field:
        raise StructuralError("field mismatch")
    rows = laurent_mat_mul(field.ctx,
                           [[(e.val_floor, e.coeffs) for e in row] for row in a.entries],
                           [[(e.val_floor, e.coeffs) for e in row] for row in b.entries])
    return Matrix._checked(tuple([tuple([Laurent(field, f, tuple(c)) for f, c in row])
                                  for row in rows]), Laurent, field)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major index convention (i1, i2) -> i1*r2 + i2.

    One outer product: the column of a's entries times the row of b's."""
    outer = (Matrix._checked(tuple((e,) for row in a.entries for e in row), a.kind, a.field)
             * Matrix._checked((tuple(e for row in b.entries for e in row),), b.kind, b.field))
    return Matrix._checked(
        tuple(tuple(outer.entries[i1 * a.cols + j1][i2 * b.cols + j2]
                    for j1 in range(a.cols) for j2 in range(b.cols))
              for i1 in range(a.rows) for i2 in range(b.rows)), outer.kind, outer.field)


@dataclass
class SmithForm:
    U: Matrix
    D: Matrix
    W: Matrix
    divisors: list        # valuations, None meaning >= trust
    trust: int            # valuations below this bound are exact


def smith(m: Matrix) -> SmithForm:
    """Smith normal form over truncated k[[s]]: m = U * D * W, by
    kernels.smith_rows on the entries' coefficient rows.

    Pivots are chosen by minimal valuation, then lowest row, then lowest
    column; U and W stay unimodular (their updates are elementary).  Every
    division by a pivot of valuation v > 0 costs v coefficients of trust,
    tracked conservatively in the result.  Raises StructuralError unless
    the entries are Series of one precision.
    """
    if m.kind is Laurent:
        raise StructuralError("smith expects Series entries; shift Laurent matrices first")
    prec = _common_prec(m)
    u, d, w, divisors, trust = smith_rows(m.field.ctx, _coeff_rows(m), prec)
    return SmithForm(U=_series_matrix(m.field, prec, u), D=_series_matrix(m.field, prec, d),
                     W=_series_matrix(m.field, prec, w), divisors=divisors, trust=trust)


def series_part(m: Matrix):
    """(series matrix, shift, prec) of a Laurent matrix: m = s^shift * (series
    matrix), whose entries carry the prec coefficients of the common window."""
    shift = min(e.val_floor for row in m.entries for e in row)
    p = min(e.val_floor + len(e.coeffs) for row in m.entries for e in row) - shift
    if p <= 0:
        raise StructuralError("no common validity window")
    return Matrix([[e.shift(-shift).to_series(p) for e in row] for row in m.entries]), shift, p


def is_invertible(m: Matrix) -> bool:
    """Whether laurent_inverse(m) succeeds, without building the inverse.

    laurent_inverse raises exactly when m is not square, when its entries
    share no validity window, or when a Smith divisor of its series part is
    None; U and W are unimodular, so the divisors decide alone.

    Most matrices are decided by their lowest coefficients, read straight
    from the Laurent entries on their common window [lo, hi).  Let v be the
    least valuation there (no entry nonzero on it: every divisor is None)
    and L the k-matrix of the entries' coefficients v.  If det L != 0, every
    divisor is v - lo: smith's first pivot on the series part has that
    valuation, as some entry of L is nonzero and none has lower valuation.
    Eliminating below it subtracts f * (pivot row) with f's constant term
    l_it / l_tt, and the pivot row's entries have valuation >= v - lo, so
    the rest keeps that valuation and its coefficients there are the Schur
    complement of l_tt in L (rows and columns permuted), again invertible;
    by induction every pivot has valuation v - lo < hi - lo and no divisor
    is None.  Otherwise smith decides.
    """
    if m.rows != m.cols:
        return False
    lm = m.to_laurent()
    lo = min(e.val_floor for row in lm.entries for e in row)
    hi = min(e.val_floor + len(e.coeffs) for row in lm.entries for e in row)
    if hi <= lo:                # no common validity window
        return False
    # an entry's first nonzero coefficient at or past hi leaves it zero on the window
    vals = [v for row in lm.entries for e in row if (v := e.valuation()) is not None and v < hi]
    if not vals:
        return False
    v = min(vals)
    if residue_det(m.field, [[e.coeff(v) for e in row] for row in lm.entries]):
        return True
    return None not in smith(series_part(lm)[0]).divisors


def laurent_inverse(m: Matrix) -> Matrix:
    """Inverse of an invertible Laurent matrix via Smith on its series part;
    is_invertible tests the same conditions without building it."""
    if m.kind is Series:
        m = m.to_laurent()
    if m.rows != m.cols:
        raise StructuralError("inverse of a non-square matrix")
    ser, shift, p = series_part(m)
    sf = smith(ser)
    if any(dv is None for dv in sf.divisors):
        raise NotInvertibleError("Laurent matrix is singular to stored precision",
                                 valuation=None)
    d_inv_entries = []
    for i in range(m.rows):
        row = []
        for j in range(m.rows):
            if i == j:
                row.append(Laurent.from_series(sf.D.entries[i][i]).inverse())
            else:
                row.append(Laurent.zero(m.field, p))
        d_inv_entries.append(row)
    d_inv = Matrix(d_inv_entries)
    out = sf.W.inverse().to_laurent() * d_inv * sf.U.inverse().to_laurent()
    return out.shift(-shift)
