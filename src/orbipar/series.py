"""Truncated formal power series and Laurent values over a finite field.

Series: coefficients c_0..c_{prec-1} of s^0..s^{prec-1}; every ring
operation stays at the same precision (no loss).

Laurent: an explicit validity window [val_floor, val_floor + len(coeffs)):
coefficients below val_floor are known zero, coefficients at or above the
window end are unknown.  val_floor is a window bound, not necessarily the
valuation.  Products intersect windows conservatively; inversion shifts the
window by the actual valuation and shortens it accordingly (the one place
precision is lost).  Equality is decided on the common validity window.
"""

from dataclasses import dataclass

from . import kernels
from .errors import DomainError, NotInvertibleError, StructuralError


@dataclass(frozen=True)
class Series:
    field: object
    prec: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.prec:
            raise StructuralError("coefficient count must equal prec")

    # -- constructors --

    @classmethod
    def from_coeffs(cls, field, coeffs, prec):
        c = list(coeffs)[:prec]
        c += [0] * (prec - len(c))
        q = field.order
        if any(not (0 <= x < q) for x in c):
            raise StructuralError("coefficient out of field range")
        return cls(field, prec, tuple(c))

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, (0,) * prec)

    @classmethod
    def one(cls, field, prec):
        return cls.from_coeffs(field, [1], prec)

    @classmethod
    def monomial(cls, field, c, k, prec):
        coeffs = [0] * prec
        if 0 <= k < prec:
            coeffs[k] = c
        return cls(field, prec, tuple(coeffs))

    @classmethod
    def constant(cls, field, c, prec):
        return cls.monomial(field, c, 0, prec)

    @classmethod
    def s(cls, field, prec):
        return cls.monomial(field, 1, 1, prec)

    # -- basic queries --

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def valuation(self):
        """Index of the first nonzero stored coefficient; None if zero to precision."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __getitem__(self, k):
        return self.coeffs[k]

    def _check_compat(self, other):
        if self.field != other.field:
            raise StructuralError("field mismatch")
        if self.prec != other.prec:
            raise StructuralError("precision mismatch")

    # -- ring operations (no precision loss) --

    def __add__(self, other):
        self._check_compat(other)
        add = self.field.ctx.add
        return Series(self.field, self.prec,
                      tuple(add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check_compat(other)
        ctx = self.field.ctx
        return Series(self.field, self.prec,
                      tuple(ctx.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        neg = self.field.ctx.neg
        return Series(self.field, self.prec, tuple(neg(a) for a in self.coeffs))

    def __mul__(self, other):
        self._check_compat(other)
        out = kernels.vec_mul(self.field.ctx, self.coeffs, other.coeffs, self.prec)
        return Series(self.field, self.prec, tuple(out))

    def scale(self, c):
        mul = self.field.ctx.mul
        return Series(self.field, self.prec, tuple(mul(c, a) for a in self.coeffs))

    def inverse(self):
        if self.coeffs[0] == 0:
            raise NotInvertibleError(
                "series is not invertible (nonzero valuation)", valuation=self.valuation())
        out = kernels.vec_inverse(self.field.ctx, self.coeffs, self.prec)
        return Series(self.field, self.prec, tuple(out))

    def compose(self, g):
        """self(g(s)); requires g(0) = 0, in which case no precision is lost."""
        self._check_compat(g)
        if g.coeffs[0] != 0:
            raise DomainError("composition requires zero constant term")
        out = kernels.vec_compose(self.field.ctx, self.coeffs, g.coeffs, self.prec)
        return Series(self.field, self.prec, tuple(out))

    def shift(self, m):
        """Multiply by s^m (m >= 0), truncating at precision."""
        if m < 0:
            raise DomainError("use Laurent values for negative shifts")
        coeffs = (0,) * min(m, self.prec) + self.coeffs[: max(self.prec - m, 0)]
        return Series(self.field, self.prec, coeffs)

    def truncate(self, prec):
        if prec > self.prec:
            raise StructuralError("cannot extend precision")
        return Series(self.field, prec, self.coeffs[:prec])

    def __repr__(self):
        terms = [f"{c}*s^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"Series({body} + O(s^{self.prec}))"


@dataclass(frozen=True)
class Laurent:
    field: object
    val_floor: int
    coeffs: tuple

    @property
    def prec(self):
        """Own window length."""
        return len(self.coeffs)

    @property
    def window(self):
        return (self.val_floor, self.val_floor + len(self.coeffs))

    @classmethod
    def from_series(cls, s: Series):
        return cls(s.field, 0, s.coeffs)

    @classmethod
    def exact(cls, field, val_floor, coeffs, prec):
        """An exactly-known value: pad with true zeros up to the window length."""
        c = list(coeffs)
        if len(c) > prec:
            raise StructuralError("more coefficients than the window length")
        c += [0] * (prec - len(c))
        return cls(field, val_floor, tuple(c))

    @classmethod
    def zero(cls, field, prec, val_floor=0):
        return cls(field, val_floor, (0,) * prec)

    def coeff(self, k):
        """Coefficient of s^k; zero below the window, error at/above its end."""
        if k < self.val_floor:
            return 0
        if k >= self.val_floor + len(self.coeffs):
            raise StructuralError(f"coefficient s^{k} beyond validity window {self.window}")
        return self.coeffs[k - self.val_floor]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return self.val_floor + i
        return None

    def _check_field(self, other):
        if self.field != other.field:
            raise StructuralError("field mismatch")

    def __add__(self, other):
        self._check_field(other)
        lo = min(self.val_floor, other.val_floor)
        hi = min(self.val_floor + len(self.coeffs), other.val_floor + len(other.coeffs))
        if hi <= lo:
            raise StructuralError("empty validity window in Laurent addition")
        add = self.field.ctx.add
        return Laurent(self.field, lo,
                       tuple(add(self.coeff(k), other.coeff(k)) for k in range(lo, hi)))

    def __neg__(self):
        neg = self.field.ctx.neg
        return Laurent(self.field, self.val_floor, tuple(neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_field(other)
        n = min(len(self.coeffs), len(other.coeffs))
        if n == 0:
            raise StructuralError("empty validity window in Laurent product")
        out = kernels.vec_mul(self.field.ctx, self.coeffs, other.coeffs, n)
        return Laurent(self.field, self.val_floor + other.val_floor, tuple(out))

    def scale(self, c):
        mul = self.field.ctx.mul
        return Laurent(self.field, self.val_floor, tuple(mul(c, a) for a in self.coeffs))

    def shift(self, m):
        """Multiply by s^m (any sign); exact."""
        return Laurent(self.field, self.val_floor + m, self.coeffs)

    def inverse(self):
        v = self.valuation()
        if v is None:
            raise NotInvertibleError("Laurent value is zero to stored precision", valuation=None)
        drop = v - self.val_floor
        unit = self.coeffs[drop:]
        out = kernels.vec_inverse(self.field.ctx, unit, len(unit))
        return Laurent(self.field, -v, tuple(out))

    def pow(self, e):
        if e == 0:
            return Laurent(self.field, 0, (1,) + (0,) * (len(self.coeffs) - 1))
        base = self if e > 0 else self.inverse()
        out = None
        k = abs(e)
        acc = base
        while k:
            if k & 1:
                out = acc if out is None else out * acc
            k >>= 1
            if k:
                acc = acc * acc
        return out

    def substitute(self, act: Series):
        """Apply the ring map s -> act(s) (valuation-1 unit substitution)."""
        if act.coeffs[0] != 0 or act.coeffs[1] == 0:
            raise DomainError("substitution image must have valuation exactly 1")
        v = self.val_floor
        unit_part = Series(self.field, len(self.coeffs), self.coeffs)
        mapped = unit_part.compose(act.truncate(len(self.coeffs))) if len(self.coeffs) < act.prec \
            else unit_part.compose(act)
        mapped_l = Laurent(self.field, 0, mapped.coeffs)
        if v == 0:
            return mapped_l
        act_l = Laurent.from_series(act)
        return act_l.pow(v) * mapped_l

    def first_mismatch(self, other):
        """Lowest exponent where the two values differ on the common window; None if equal."""
        self._check_field(other)
        lo = min(self.val_floor, other.val_floor)
        hi = min(self.val_floor + len(self.coeffs), other.val_floor + len(other.coeffs))
        if hi <= lo:
            raise StructuralError("no common validity window to compare")
        for k in range(lo, hi):
            if self.coeff(k) != other.coeff(k):
                return k
        return None

    def agrees_with(self, other):
        return self.first_mismatch(other) is None

    def to_series(self, prec):
        """Convert back to a Series; the negative part must vanish on the window."""
        for k in range(self.val_floor, 0):
            if self.coeff(k) != 0:
                raise DomainError("Laurent value has a genuine pole; not a series")
        end = self.val_floor + len(self.coeffs)
        if end < prec:
            raise StructuralError(f"window ends at {end}, cannot deliver precision {prec}")
        return Series(self.field, prec, tuple(self.coeff(k) for k in range(prec)))

    def __repr__(self):
        terms = [f"{c}*s^{self.val_floor + i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        lo, hi = self.window
        return f"Laurent({body} on [{lo},{hi}))"
