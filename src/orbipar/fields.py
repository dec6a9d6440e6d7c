"""Finite fields GF(p^k) as polynomial quotients over the prime field.

Elements are integers in [0, q), q = p^k, encoding the coefficient vector of
the polynomial representative in base p: the element a_0 + a_1*x + ... +
a_{k-1}*x^{k-1} is stored as a_0 + a_1*p + ... + a_{k-1}*p^{k-1}.  The
modulus is a stored monic irreducible of degree k, so FieldSpec equality is
structural and all derived choices (canonical multiplicative generator,
canonical roots of unity) are reproducible.

Multiplication runs on exp/log tables built once per FieldSpec; addition is
digitwise base p (table-backed for small q).  The table context (FieldCtx)
is also the object handed to the series kernels.  Their products and psi
over GF(p^k) use no exp/log lookups: they pack each element as its base-p
digits (FieldCtx.digit_blocks) and fold the digits once with the modulus.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import ConfigurationError, DomainError, NotInvertibleError

MAX_FIELD_ORDER = 1 << 16
ADD_TABLE_MAX_ORDER = 1 << 10


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- polynomial helpers over F_p (coefficient lists, low degree first) --


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over F_p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        top = a.pop()
        if top:
            for i in range(dm):
                a[len(a) - dm + i] = (a[len(a) - dm + i] - top * m[i]) % p
    return a


def _poly_mul_mod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _poly_divides(d, f, p):
    """True iff monic d divides f over F_p."""
    f = list(f)
    dd = len(d) - 1
    while len(f) - 1 >= dd:
        top = f[-1]
        if top:
            shift = len(f) - 1 - dd
            for i in range(dd + 1):
                f[shift + i] = (f[shift + i] - top * d[i]) % p
        f.pop()
    return all(c == 0 for c in f)


def is_irreducible(modulus, p: int) -> bool:
    """Exhaustive root/factor test for monic polynomials of degree <= 4."""
    deg = len(modulus) - 1
    if deg < 1 or deg > 4:
        raise ConfigurationError("irreducibility check supports degree 1..4 only")
    if modulus[-1] != 1:
        return False
    if deg == 1:
        return True
    for r in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if deg < 4:
        return True
    # degree 4 with no roots: exclude products of two irreducible quadratics
    for b in range(p):
        for c in range(p):
            if _poly_divides([c, b, 1], modulus, p):
                return False
    return True


def find_modulus(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k over F_p, by ascending encoding."""
    if k == 1:
        return (0, 1)
    for code in range(p ** k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ConfigurationError(f"no irreducible of degree {k} over GF({p})")


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k_deg) with a fixed monic irreducible modulus (degree k_deg)."""

    p: int
    k_deg: int
    modulus: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ConfigurationError(f"characteristic {self.p} is not prime")
        if self.k_deg < 1 or self.k_deg > 4:
            raise ConfigurationError("k_deg must be in 1..4")
        if len(self.modulus) != self.k_deg + 1 or self.modulus[-1] != 1:
            raise ConfigurationError("modulus must be monic of degree k_deg")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ConfigurationError("modulus coefficients must be reduced mod p")
        if self.p ** self.k_deg > MAX_FIELD_ORDER:
            raise ConfigurationError(f"field order above {MAX_FIELD_ORDER} not supported")
        if not is_irreducible(list(self.modulus), self.p):
            raise ConfigurationError("modulus is reducible over the prime field")

    @property
    def order(self) -> int:
        return self.p ** self.k_deg

    # -- element arithmetic (integers in [0, order)) --

    def add(self, a: int, b: int) -> int:
        return self.ctx.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.ctx.sub(a, b)

    def neg(self, a: int) -> int:
        return self.ctx.neg(a)

    def mul(self, a: int, b: int) -> int:
        return self.ctx.mul(a, b)

    def inv(self, a: int) -> int:
        return self.ctx.inv(a)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise NotInvertibleError("0 has no negative powers", valuation=None)
            return 0 if e else 1
        q1 = self.order - 1
        return self.ctx.exp[(self.ctx.log[a] * e) % q1]

    @property
    def ctx(self) -> "FieldCtx":
        return _ctx_for(self)

    @property
    def generator(self) -> int:
        """Canonical generator: minimal encoding generating the unit group."""
        return self.ctx.generator

    def element_order(self, a: int) -> int:
        if a == 0:
            raise DomainError("0 has no multiplicative order")
        q1 = self.order - 1
        la = self.ctx.log[a]
        return q1 // gcd(la, q1)

    def root_of_unity(self, n: int) -> int:
        """Canonical primitive n-th root: generator^((q-1)/n).  Requires n | q-1."""
        q1 = self.order - 1
        if n <= 0 or q1 % n != 0:
            k_needed = required_degree_for_root(self.p, n)
            hint = f"; need k_deg = {k_needed}" if k_needed else ""
            raise ConfigurationError(
                f"no primitive {n}-th root of unity in GF({self.p}^{self.k_deg})"
                f" ({n} does not divide {q1}){hint}"
            )
        return self.ctx.exp[q1 // n]

    def describe(self) -> str:
        return f"GF({self.p}^{self.k_deg})" if self.k_deg > 1 else f"GF({self.p})"


def required_degree_for_root(p: int, n: int):
    """Smallest k <= 8 with n | p^k - 1, or None."""
    if n % p == 0:
        return None
    for k in range(1, 9):
        if (p ** k - 1) % n == 0:
            return k
    return None


def make_field(p: int, k_deg: int = 1, modulus=None) -> FieldSpec:
    if modulus is None:
        modulus = find_modulus(p, k_deg)
    return FieldSpec(p=p, k_deg=k_deg, modulus=tuple(modulus))


class FieldCtx:
    """Arithmetic tables for one FieldSpec; also the kernel field context.

    exp has length 2(q-1) (doubled, so exp[log a + log b] needs no reduction);
    log[0] is a -1 sentinel.  For k >= 2, add_table[a][b] is a + b when
    q <= ADD_TABLE_MAX_ORDER (else None, and add goes digit by digit),
    neg_table[a] is -a (None over GF(p)), and modulus holds m_0, ...,
    m_{k-1}, 1.  digit_blocks(tc) gives the packed
    form of each element for the kernels' GF(p^k) products and psi.
    """

    def __init__(self, spec: FieldSpec):
        p, k = spec.p, spec.k_deg
        q = p ** k
        self.p, self.k, self.q = p, k, q
        self.modulus = spec.modulus
        self._digit_blocks = {}
        m = list(spec.modulus)

        # exp/log via the canonical generator (minimal full-order encoding)
        gen = None
        for cand in range(2, q):
            if _encoding_order(cand, m, p, k, q) == q - 1:
                gen = cand
                break
        if gen is None:
            if q == 2:
                gen = 1
            else:  # unreachable for a true field
                raise ConfigurationError("no multiplicative generator found")
        self.generator = gen

        exp = [0] * (2 * (q - 1))
        log = [-1] * q
        acc = 1
        gpoly = _decode(gen, p, k)
        for i in range(q - 1):
            exp[i] = acc
            exp[i + q - 1] = acc
            log[acc] = i
            acc = _encode(_poly_mul_mod(_decode(acc, p, k), gpoly, m, p), p)
        if acc != 1:
            raise ConfigurationError("generator order mismatch; modulus not a field?")
        self.exp = exp
        self.log = log

        self.neg_table = None if k == 1 else [_digit_neg(a, p, k) for a in range(q)]
        if k == 1:
            self.add_table = None
        elif q <= ADD_TABLE_MAX_ORDER:
            self.add_table = [
                [_digit_add(a, b, p, k) for b in range(q)] for a in range(q)
            ]
        else:
            self.add_table = None

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.add_table is not None:
            return self.add_table[a][b]
        return _digit_add(a, b, self.p, self.k)

    def digit_blocks(self, tc):
        """Per element, the bytes of array(tc, its k base-p digits, low first,
        then k - 1 zeros): one coefficient's group of 2k - 1 slots in a packed
        series.  Built for each slot typecode on first use."""
        blocks = self._digit_blocks.get(tc)
        if blocks is None:
            pad = [0] * (self.k - 1)
            blocks = [array(tc, _decode(e, self.p, self.k) + pad).tobytes()
                      for e in range(self.q)]
            self._digit_blocks[tc] = blocks
        return blocks

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise NotInvertibleError("0 is not invertible in the field", valuation=None)
        return self.exp[self.q - 1 - self.log[a]]


def _decode(e, p, k):
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _encode(coeffs, p):
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


def _digit_add(a, b, p, k):
    out = 0
    mult = 1
    for _ in range(k):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _digit_neg(a, p, k):
    out = 0
    mult = 1
    for _ in range(k):
        out += ((p - a % p) % p) * mult
        a //= p
        mult *= p
    return out


def _encoding_order(e, m, p, k, q):
    acc = e
    poly = _decode(e, p, k)
    n = 1
    while acc != 1:
        acc = _encode(_poly_mul_mod(_decode(acc, p, k), poly, m, p), p)
        n += 1
        if n > q:
            return 0  # not a unit of finite order: modulus was reducible
    return n


@lru_cache(maxsize=None)
def _ctx_cached(p, k_deg, modulus):
    return FieldCtx(FieldSpec(p=p, k_deg=k_deg, modulus=modulus))


def _ctx_for(spec: FieldSpec) -> FieldCtx:
    return _ctx_cached(spec.p, spec.k_deg, spec.modulus)
