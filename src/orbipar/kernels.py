"""Series kernels: the one implementation of the hot loops.

Truncated convolution, Series and Laurent matrix products, series
inversion and composition over a FieldCtx; vec_scale and vec_tri, the two
ways a cached substitution operator applies itself, vec_tri also applying
an extension's cached decomposition matrix (restriction of scalars);
fixed_point_rows, the equations of a semilinear action's fixed space;
gauss_jordan, exact elimination over the field; and row_axpy, row_scale
and row_neg on list rows.  Coefficient vectors are lists or tuples of
element encodings; results are lists.  The products and vec_tri have one
packed path for every field (below); vec_inverse, vec_scale and the list
rows take a direct `% p` path over GF(p) and the ctx's exp/log tables over
GF(p^k), with sums looked up in ctx.add_table where the field has one and
negation in ctx.neg_table.

Products are packed (Kronecker substitution): a coefficient vector becomes
one Python int of fixed-width little-endian slots, so one bigint product is
the whole convolution and a sum of such products is a whole matrix entry.
Every product packs, whatever its field and size; a 1 x 1 matrix product
is one vec_mul.
A Laurent matrix entry is a shifted window sum: each term's product is
shifted up by the distance of its floor above the lowest floor, so one
bigint sum lines up every term's coefficients by exponent.
Over GF(p) coefficient i fills slot i.  Over GF(p^k), k >= 2, an element is
its k base-p digits (the coefficients of its polynomial in x), and
coefficient i fills the group of 2k - 1 slots from slot (2k - 1) * i, digit
j in slot j of the group, the top k - 1 slots zero (ctx.digit_blocks).  The
product is then the bivariate (s, x) product: slot j of group i holds the
coefficient of s^i x^j, for j up to 2k - 2, so groups never overlap.
Unpacking folds the digits of degree >= k down with the modulus, x^k =
-(m_0 + ... + m_{k-1} x^(k-1)), in exact integers, then reduces each digit
`% p` and encodes (_fold_list).  With 8- or 16-bit slots and p^(2k-1) <=
256 (GF(4), GF(8), GF(16), GF(9), GF(25) and GF(27)) it folds in bytes
instead (_byte_fold): translates reduce every slot mod p to one byte (a
16-bit slot through its two bytes, summed as one bigint), masked bigint
shifts and adds turn each group's digits d_j into one byte key sum d_j p^j, and one
translate through a table of the field's p^(2k-1) keys encodes the keys.
The table is built once per field, and only for these fields: GF(13^4)
would need 13^7 entries.
vec_tri is one packed sum too.  Its table (tri_table) holds each column of
the linear map (for psi, a power act^m) packed once, and applying it to a
is the sum of a[m] * column m, unpacked once: over GF(p) a[m] is the int
itself, over GF(p^k) the int of a[m]'s digit block.

Each slot holds the exact unreduced sum of at most k * short * inner digit
products below p, with short the shorter operand length (for a matrix
product the smaller of the two operands' longest entries) and inner the
number of products summed (k = 1 over GF(p)); the slot is the narrowest of
8, 16, 32 or 64 bits that holds (p - 1)^2 * k * short * inner, so no carry
crosses slots, and p - 1, the largest entry packed.  vec_tri's table sums
one element times each column, so its bound takes short = the number of
columns and inner = 1: 8 bits for GF(9) at N = 24.  A bound above 64 bits
raises StructuralError; nothing is truncated.  (p - 1)^2 * k is below 2^17
for every field with k >= 2 and q <= 2^16, so within the scenario caps no
slot overflows.

gauss_jordan keeps its rows in one of three forms, chosen by the field.
Over GF(p) a row packs the same way, entry j in slot j, but reduces lazily:
a row update adds (p - e) times a pivot row whose entries are below p, so a
slot grows by at most (p - 1)^2 per pivot and is reduced only when it is
read (`% p`) or its row becomes the pivot row.  With at most min(m, n)
pivots the slot is _slot(p, 1, 1, min(m, n) + 1): 16 bits for the 60 x 40
GF(13) blocks that the isomorphism search's 256 x 160 joint system splits
into (linalg.kernel_by_blocks), as for that system whole, 64 bits for any
p < 2^16 up to 2^32 pivots, and StructuralError past that.
Packed as digit groups, GF(p^k) rows would need every entry read to fold
its digits with the modulus.  Where an element's k digits fit one byte
with room for the sum of two of them (_byte_rows: GF(4), GF(8), GF(16),
GF(9), GF(25) and GF(49)), a row is instead one byte per entry, and a row
update is a translate of the pivot row, one bigint addition and a
reducing translate; entries are read as plain bytes.  Other GF(p^k) rows
stay lists, updated by row_axpy and row_scale.
"""

from array import array
from functools import lru_cache
from operator import mul as _mul

from .errors import StructuralError

# (bytes, array typecode) of the slot widths, narrowest first
_SLOTS = tuple((array(tc).itemsize, tc) for tc in "BHIQ")
# the narrowest slot for each bit length of a slot's bound, 0 to 64
_SLOT_FOR_BITS = tuple(next(slot for slot in _SLOTS if bits <= 8 * slot[0])
                       for bits in range(8 * _SLOTS[-1][0] + 1))


# Benchmarks record which kernel implementation produced their timings.
def backend_name() -> str:
    return "pure"


def available_backends():
    return ("pure",)


def _slot(p, k, short, inner):
    """(bytes, typecode) of the narrowest slot holding (p-1)^2 * k * short *
    inner, and at least p - 1, the largest entry a slot is packed with."""
    bits = ((p - 1) ** 2 * k * short * inner or p - 1).bit_length()
    if bits < len(_SLOT_FOR_BITS):
        return _SLOT_FOR_BITS[bits]
    raise StructuralError(f"packed product needs {bits}-bit slots; "
                          f"at most {8 * _SLOTS[-1][0]} are supported")


def _pack(tc, x, n):
    """The first n coefficients of x as one int, one slot per coefficient."""
    return int.from_bytes(array(tc, x[:n]).tobytes(), "little")


def _slots(c, nbytes, tc, n):
    """The first n slots of c, unreduced."""
    out = array(tc)
    out.frombytes((c & ((1 << (8 * nbytes * n)) - 1)).to_bytes(nbytes * n, "little"))
    return out


def _unpack(c, nbytes, tc, n, p):
    """The first n slots of c, each reduced mod p."""
    return [x % p for x in _slots(c, nbytes, tc, n)]


def _pack_digits(blocks, x, n):
    """The first n coefficients of x over GF(p^k) as one int, one group of
    2k - 1 slots per coefficient; blocks is ctx.digit_blocks(tc)."""
    return int.from_bytes(b"".join(map(blocks.__getitem__, x[:n])), "little")


def _unpack_digits(ctx, c, nbytes, tc, n):
    """The first n slot groups of c, each folded with the modulus, its
    digits reduced mod p, and encoded: in bytes where _byte_fold has tables
    for 8- or 16-bit slots, else as lists (_fold_list).  A 16-bit slot lo +
    256 hi is first reduced to one byte: lo mod p plus 256 hi mod p, each
    by translate, summed as one bigint (below 2p, so no byte carries), and
    reduced by one more translate."""
    width = 2 * ctx.k - 1
    size = nbytes * width * n
    raw = (c & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    tables = _byte_fold(ctx) if nbytes <= 2 else None
    if tables is None:
        slots = array(tc)
        slots.frombytes(raw)
        return _fold_list(ctx, slots)
    red, red_hi, fold = tables
    p, size = ctx.p, width * n
    if nbytes == 2:     # one byte per slot
        raw = (int.from_bytes(raw[::2].translate(red), "little")
               + int.from_bytes(raw[1::2].translate(red_hi), "little")).to_bytes(size, "little")
    # each group's reduced digits d_0..d_{2k-2} as the key sum d_j p^j < 256,
    # in the group's first byte
    digits = int.from_bytes(raw.translate(red), "little")
    mask = int.from_bytes(b"\xff".ljust(width, b"\0") * n, "little")
    key = digits >> 8 * (width - 1) & mask
    for j in range(width - 2, -1, -1):
        key = key * p + (digits >> 8 * j & mask)
    return list(key.to_bytes(size, "little")[::width].translate(fold))


def _fold_list(ctx, slots):
    """The encodings of the slot groups in slots (an array, 2k - 1 unreduced
    digits per group), each folded with the modulus and reduced mod p."""
    p, k, m = ctx.p, ctx.k, ctx.modulus
    width = 2 * k - 1
    digits = [slots[j::width] for j in range(width)]
    for j in range(width - 1, k - 1, -1):    # x^j = -x^(j-k) * (m_0 + ... + m_{k-1} x^(k-1))
        top = digits[j]
        for i in range(k):
            if m[i]:
                d, mi = j - k + i, m[i]
                digits[d] = [u - mi * v for u, v in zip(digits[d], top)]
    out = [u % p for u in digits[k - 1]]
    for j in range(k - 2, -1, -1):
        out = [e * p + u % p for e, u in zip(out, digits[j])]
    return out


@lru_cache(maxsize=None)
def _byte_fold(ctx):
    """(red, red_hi, fold) translate tables for slot groups of 8- and 16-bit
    slots, or None unless p^(2k-1) <= 256: red reduces a byte mod p, red_hi
    maps a high byte h to 256 h mod p, and fold maps a group's key sum d_j
    p^j of reduced digits to the encoding _fold_list gives it."""
    p, width = ctx.p, 2 * ctx.k - 1
    keys = p ** width
    if keys > 256:
        return None
    groups = array("B", [key // p ** j % p for key in range(keys) for j in range(width)])
    return (bytes(x % p for x in range(256)), bytes(256 * x % p for x in range(256)),
            bytes(_fold_list(ctx, groups)).ljust(256, b"\0"))


@lru_cache(maxsize=None)
def _block_ints(ctx, tc):
    """Per element, its digit block (ctx.digit_blocks(tc)) as an int."""
    return [int.from_bytes(b, "little") for b in ctx.digit_blocks(tc)]


def vec_mul(ctx, a, b, n):
    """Truncated product: first n coefficients of a*b, one packed product."""
    pack, unpack, _ = _packers(ctx, min(len(a), len(b), n), 1)
    return unpack(pack(a, n) * pack(b, n), n)


@lru_cache(maxsize=None)
def _packers(ctx, short, inner):
    """(pack, unpack, bits) for packed products summing at most inner
    products whose shorter operand has at most short coefficients: pack(x,
    n) is the first n coefficients of x as one int, unpack(c, n) the first n
    coefficients of c, and bits the width of one coefficient's slot (its
    group of 2k - 1 slots over GF(p^k)).  Cached: building the closures
    costs about as much as a short product."""
    p = ctx.p
    nbytes, tc = _slot(p, ctx.k, short, inner)
    if ctx.k == 1:
        return (lambda x, n: _pack(tc, x, n),
                lambda c, n: _unpack(c, nbytes, tc, n, p), 8 * nbytes)
    blocks = ctx.digit_blocks(tc)
    return (lambda x, n: _pack_digits(blocks, x, n),
            lambda c, n: _unpack_digits(ctx, c, nbytes, tc, n), 8 * nbytes * (2 * ctx.k - 1))


def mat_mul(ctx, a, b, n):
    """Truncated matrix product over k[[s]]/(s^n): out[i][j] is the first n
    coefficients of sum_t a[i][t] * b[t][j].

    a and b are non-empty rows of coefficient vectors with len(a[0]) ==
    len(b); the result is rows of lists.  A 1 x 1 product uses each operand
    once, so it is one vec_mul.  Any larger product packs every operand
    once, and each output entry is one sum of bigint products.
    """
    inner = len(b)
    if inner == len(a) == len(b[0]) == 1:
        return [[vec_mul(ctx, a[0][0], b[0][0], n)]]
    short = min(max(len(x) for row in a for x in row),
                max(len(x) for row in b for x in row), n)
    pack, unpack, _ = _packers(ctx, short, inner)
    pa = [[pack(x, n) for x in row] for row in a]
    cols = list(zip(*([pack(x, n) for x in row] for row in b)))
    return [[unpack(sum(map(_mul, row, col)), n) for col in cols] for row in pa]


def laurent_mat_mul(ctx, a, b):
    """Matrix product of Laurent values: a and b are non-empty rows of
    (val_floor, coeffs) pairs with len(a[0]) == len(b); out[i][j] is the
    (val_floor, coeffs) pair of sum_t a[i][t] * b[t][j].

    Term t starts at f_t = a[i][t].val_floor + b[t][j].val_floor and is
    known for min(len a[i][t], len b[t][j]) coefficients, so the sum is
    known on [lo, hi): lo = min f_t, hi = min over t of f_t plus that
    length, the window a chain of Laurent additions gives.  Every operand
    is packed once at full length, term t's bigint product is shifted up
    by f_t - lo slots (slot groups over GF(p^k)), and the first hi - lo
    slots of the sum are read: below its operands' shorter length a full
    product agrees with the truncated one, and its further coefficients
    land at slot hi - lo or above.  A 1 x 1 product uses each operand once,
    so it is one vec_mul.  Raises StructuralError for an empty coeffs.
    """
    inner = len(b)
    if inner == len(a) == len(b[0]) == 1:
        (fa, x), (fb, y) = a[0][0], b[0][0]
        n = min(len(x), len(y))
        if not n:
            raise StructuralError("empty validity window in Laurent product")
        return [[(fa + fb, vec_mul(ctx, x, y, n))]]
    cols = list(zip(*b))
    len_a = [len(x) for row in a for _, x in row]
    len_b = [len(x) for col in cols for _, x in col]
    if not (min(len_a) and min(len_b)):
        raise StructuralError("empty validity window in Laurent product")
    short = min(max(len_a), max(len_b))
    pack, unpack, bits = _packers(ctx, short, inner)
    pa = [[(f, len(x), pack(x, len(x))) for f, x in row] for row in a]
    pb = [[(f, len(x), pack(x, len(x))) for f, x in col] for col in cols]
    out = []
    for row in pa:
        out_row = []
        for col in pb:
            terms = [(fa + fb, la if la < lb else lb, x * y)
                     for (fa, la, x), (fb, lb, y) in zip(row, col)]
            lo = min(terms)[0]
            hi = min([f + n for f, n, _ in terms])
            out_row.append((lo, unpack(sum([c << bits * (f - lo) for f, _, c in terms]),
                                       hi - lo)))
        out.append(out_row)
    return out


def fixed_point_rows(ctx, a, powers):
    """The rows of the k-linear map x -> a * psi(x) - x on x in R^rank, R =
    k[[s]]/(s^prec), in the coordinates m*rank + comp of s^m e_comp.

    a is rank rows of rank coefficient vectors and powers[m] the coefficient
    vector of psi(s^m), each of length prec = len(powers).  The image of s^m
    e_comp is column comp of a times powers[m].  Column comp of a is packed
    once as one vector in the coordinates k*rank + row, and each power with
    stride rank, so slot k*rank + row of their bigint product is coefficient
    k of a[row][comp] * powers[m]: its first rank*prec slots are equation
    column m*rank + comp, less 1 on the diagonal.  A slot sums at most prec
    products of two coefficients (a digit group over GF(p^k)), the bound of
    _packers(ctx, prec, 1).
    """
    rank, prec = len(a), len(powers)
    dim = rank * prec
    pack, unpack, _ = _packers(ctx, prec, 1)
    cols_a = [pack([a[row][comp][k] for k in range(prec) for row in range(rank)], dim)
              for comp in range(rank)]
    sub = ctx.sub
    cols = []
    for power in powers:
        spread = [0] * dim
        spread[::rank] = power
        packed = pack(spread, dim)
        for col_a in cols_a:
            col = unpack(col_a * packed, dim)
            idx = len(cols)
            col[idx] = sub(col[idx], 1)
            cols.append(col)
    return list(zip(*cols))


def vec_inverse(ctx, a, n):
    """First n coefficients of 1/a; a[0] must be a unit (caller-checked)."""
    c0inv = ctx.inv(a[0])
    if ctx.k == 1:
        p = ctx.p
        la = len(a)
        out = [0] * n
        out[0] = c0inv
        for k in range(1, n):
            acc = 0
            hi = min(k + 1, la)
            for i in range(1, hi):
                acc += a[i] * out[k - i]
            out[k] = (-acc * c0inv) % p
        return out
    exp, log, add, tab, neg = ctx.exp, ctx.log, ctx.add, ctx.add_table, ctx.neg_table
    la = len(a)
    out = [0] * n
    out[0] = c0inv
    lci = log[c0inv]
    for k in range(1, n):
        acc = 0
        hi = min(k + 1, la)
        for i in range(1, hi):
            ai = a[i]
            bj = out[k - i]
            if ai and bj:
                z = exp[log[ai] + log[bj]]
                acc = tab[acc][z] if tab else add(acc, z)
        out[k] = exp[log[neg[acc]] + lci] if acc else 0
    return out


def vec_compose(ctx, f, g, n):
    """First n coefficients of f(g); g[0] must be 0 (caller-checked).

    Horner from the top coefficient: each step is one truncated product,
    with g packed once for all of them.
    """
    if not f:
        return [0] * n
    res = [0] * n
    res[0] = f[-1]
    pack, unpack, _ = _packers(ctx, min(len(g), n), 1)
    packed_g = pack(g, n)
    for idx in range(len(f) - 2, -1, -1):
        res = unpack(pack(res, n) * packed_g, n)
        res[0] = ctx.add(res[0], f[idx])
    return res


def vec_scale(ctx, a, w):
    """Coefficientwise product a[i] * w[i], as long as the shorter input."""
    if ctx.k == 1:
        p = ctx.p
        return [x * y % p for x, y in zip(a, w)]
    exp, log = ctx.exp, ctx.log
    return [exp[log[x] + log[y]] if x and y else 0 for x, y in zip(a, w)]


def vec_tri(ctx, table, a, n):
    """The first n coefficients of sum over m of a[m] * columns[m], table
    being tri_table(ctx, columns).

    With columns[m] the coefficients of g^m this is a(g), in O(n^2) instead
    of Horner's O(n^3); with columns those of an extension's decomposition
    matrix it is restriction of scalars (LocalExtension.decomposition).
    One packed sum of a[m] times packed column m, unpacked once: over GF(p)
    a[m] is its own int, over GF(p^k) the int of its digit block.
    """
    nbytes, tc, packed = table
    if ctx.k == 1:
        return _unpack(sum(map(_mul, a, packed)), nbytes, tc, n, ctx.p)
    elem = _block_ints(ctx, tc)
    return _unpack_digits(ctx, sum(map(_mul, map(elem.__getitem__, a), packed)), nbytes, tc, n)


def tri_table(ctx, columns):
    """vec_tri's table of the k-linear map whose column m, the coefficients
    that a[m] = 1 contributes, is columns[m]: (nbytes, tc, packed), each
    column packed once (as digit groups over GF(p^k)), in slots that hold
    the sum over all the columns."""
    nbytes, tc = _slot(ctx.p, ctx.k, len(columns), 1)
    if ctx.k == 1:
        return nbytes, tc, [_pack(tc, x, len(x)) for x in columns]
    blocks = ctx.digit_blocks(tc)
    return nbytes, tc, [_pack_digits(blocks, x, len(x)) for x in columns]


@lru_cache(maxsize=None)
def _byte_rows(ctx):
    """Tables for elimination rows over GF(p^k) held as bytes, or None.

    An entry's code is its k base-p digits in fields of b bits, b the width
    of 2(p - 1), digit j in bits j*b and up.  Adding two rows as
    little-endian ints then sums each pair of digits within its own field,
    with no carry, provided k * b <= 8; otherwise (and over GF(p)) this is
    None.  Returns (enc, dec, red, neg_mul, inv_mul): translate tables from
    encodings to codes and back, one that reduces every field of a byte
    mod p, and, under each nonzero code c, the tables that multiply codes
    by -c and by 1/c.
    """
    p, k, q = ctx.p, ctx.k, ctx.q
    b = (2 * p - 2).bit_length()
    if k == 1 or k * b > 8:
        return None
    mask = (1 << b) - 1

    def code(e):
        return sum(e // p ** j % p << (j * b) for j in range(k))

    codes = [code(e) for e in range(q)]
    dec = bytearray(256)
    for e, c in enumerate(codes):
        dec[c] = e
    red = bytes(sum((x >> (j * b) & mask) % p << (j * b) for j in range(k))
                for x in range(256))

    def times(f):
        table = bytearray(256)
        for e, c in enumerate(codes):
            table[c] = codes[ctx.mul(f, e)]
        return bytes(table)

    neg_mul, inv_mul = [None] * 256, [None] * 256
    for f in range(1, q):
        neg_mul[codes[f]] = times(ctx.neg(f))
        inv_mul[codes[f]] = times(ctx.inv(f))
    return bytes(codes) + bytes(256 - q), bytes(dec), red, tuple(neg_mul), tuple(inv_mul)


def gauss_jordan(ctx, aug, m, n):
    """Gauss-Jordan on the m augmented rows (n entries, then the rhs), with
    the fixed pivot order (leftmost column, then lowest row index), in the
    field's row form: packed over GF(p), bytes where _byte_rows has tables,
    lists otherwise.  Returns (pivot columns, the reduced pivot rows as
    lists, the rhs entries of the rows past them)."""
    if ctx.k == 1:
        return _eliminate_packed(ctx, aug, m, n)
    tables = _byte_rows(ctx)
    if tables:
        return _eliminate_bytes(tables, aug, m, n)
    return _eliminate(ctx, aug, m, n)


def _eliminate(ctx, aug, m, n):
    """gauss_jordan over GF(p^k) on rows that are lists."""
    aug = list(aug)
    pivot_cols = []
    r = 0
    for col in range(n):
        if r == m:
            break
        sel = next((i for i in range(r, m) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        aug[r] = row_scale(ctx, ctx.inv(aug[r][col]), aug[r])
        for i in range(m):
            if i != r and aug[i][col]:
                aug[i] = row_axpy(ctx, aug[i], aug[i][col], aug[r])
        pivot_cols.append(col)
        r += 1
    return pivot_cols, aug[:r], [row[n] for row in aug[r:]]


def _eliminate_packed(ctx, aug, m, n):
    """gauss_jordan over GF(p) on packed rows, entry j in slot j and the rhs
    in slot n: a row update is v + (p - e)*w, unreduced, and a row is
    reduced only when it becomes the pivot row w, so each row takes at most
    min(m, n) updates of at most (p - 1)^2 per slot on top of its entries.
    The pivot is searched row by row from row r, so a column without one
    costs no reads of rows 0..r-1, and the rest of a column is read only
    once its pivot is found."""
    p = ctx.p
    width = n + 1
    nbytes, tc = _slot(p, 1, 1, min(m, n) + 1)
    rows = [_pack(tc, r, width) for r in aug]
    mask = (1 << (8 * nbytes)) - 1
    pivot_cols = []
    r = 0
    for col in range(n):
        if r == m:
            break
        shift = 8 * nbytes * col
        for sel in range(r, m):
            e = (rows[sel] >> shift & mask) % p
            if e:
                break
        else:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        f = ctx.inv(e)
        w = rows[r] = _pack(tc, [x * f % p for x in _slots(rows[r], nbytes, tc, width)], width)
        # rows r+1..sel are zero in col (row sel now holds the old row r)
        for i in (*range(r), *range(sel + 1, m)):
            e = (rows[i] >> shift & mask) % p
            if e:
                rows[i] += (p - e) * w
        pivot_cols.append(col)
        r += 1
    shift = 8 * nbytes * n
    return (pivot_cols, [_unpack(v, nbytes, tc, width, p) for v in rows[:r]],
            [(v >> shift & mask) % p for v in rows[r:]])


def _eliminate_bytes(tables, aug, m, n):
    """gauss_jordan over GF(p^k) on rows of byte codes (_byte_rows): a row
    update v - c*w adds the translate of w by -c to v as little-endian ints
    and reduces the sum with one more translate; entries are read as plain
    bytes, nonzero exactly where the element is."""
    enc, dec, red, neg_mul, inv_mul = tables
    rows = [bytes(r).translate(enc) for r in aug]
    width = n + 1
    pivot_cols = []
    r = 0
    for col in range(n):
        if r == m:
            break
        sel = next((i for i in range(r, m) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        w = rows[r] = rows[r].translate(inv_mul[rows[r][col]])
        for i in range(m):
            c = rows[i][col]
            if c and i != r:
                total = (int.from_bytes(rows[i], "little")
                         + int.from_bytes(w.translate(neg_mul[c]), "little"))
                rows[i] = total.to_bytes(width, "little").translate(red)
        pivot_cols.append(col)
        r += 1
    return pivot_cols, [list(v.translate(dec)) for v in rows[:r]], [dec[v[n]] for v in rows[r:]]


def row_axpy(ctx, v, f, w):
    """The row v - f*w for a nonzero f, coefficientwise; as long as the
    shorter of v and w."""
    if ctx.k == 1:
        p = ctx.p
        return [(x - f * y) % p for x, y in zip(v, w)]
    exp, log, tab = ctx.exp, ctx.log, ctx.add_table
    lnf = log[ctx.neg_table[f]]
    if tab is None:
        add = ctx.add
        return [add(x, exp[lnf + log[y]]) if y else x for x, y in zip(v, w)]
    return [tab[x][exp[lnf + log[y]]] if y else x for x, y in zip(v, w)]


def row_scale(ctx, f, v):
    """The row f*v for a nonzero f, coefficientwise."""
    if ctx.k == 1:
        p = ctx.p
        return [f * x % p for x in v]
    exp, log = ctx.exp, ctx.log
    lf = log[f]
    return [exp[lf + log[x]] if x else 0 for x in v]


def row_neg(ctx, v):
    """The row -v, coefficientwise."""
    if ctx.k == 1:
        p = ctx.p
        return [-x % p for x in v]
    return list(map(ctx.neg_table.__getitem__, v))
