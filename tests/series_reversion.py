"""Compositional inverse of a series, a helper the tests share: the
reversion h of f with f(h) = h(f) = s, by Newton iteration on
Series.compose, for building conjugated actions and as an oracle."""

from orbipar.errors import DomainError
from orbipar.series import Series


def derivative(f: Series) -> Series:
    """f' to f's precision: coefficient k of f times k, moved to s^(k-1)."""
    ctx = f.field.ctx
    out = [0] * f.prec
    for k in range(1, f.prec):
        acc = 0
        for _ in range(k % f.field.p):
            acc = ctx.add(acc, f.coeffs[k])
        out[k - 1] = acc
    return Series(f.field, f.prec, tuple(out))


def reversion(f: Series) -> Series:
    """h with f(h) = h(f) = s to f's precision.

    Newton iteration h <- h - (f(h) - s) / f'(h); the error valuation
    doubles each step.
    """
    if f.coeffs[0] != 0:
        raise DomainError("reversion requires zero constant term")
    if f.coeffs[1] == 0:
        raise DomainError("reversion requires an invertible linear coefficient")
    field, n = f.field, f.prec
    s = Series.s(field, n)
    if n == 1:
        return Series.zero(field, 1)
    h = Series.monomial(field, field.ctx.inv(f.coeffs[1]), 1, n)
    fprime = derivative(f)
    for _ in range(n.bit_length() + 2):
        err = f.compose(h) - s
        if err.is_zero():
            return h
        h = h - err * fprime.compose(h).inverse()
    if not (f.compose(h) - s).is_zero():
        raise DomainError("reversion did not converge (non-unit linear part?)")
    return h
