"""Series kernels: the one implementation of the hot loops.

Truncated convolution, series inversion and composition over a FieldCtx,
plus vec_scale and vec_tri, the two ways a cached substitution operator
applies itself.  Coefficient vectors are lists or tuples of element
encodings; results are lists.  Prime fields take a direct `% p` path,
extension fields the ctx's exp/log tables.
"""

from operator import mul as _mul


# Benchmarks record which kernel implementation produced their timings.
def backend_name() -> str:
    return "pure"


def available_backends():
    return ("pure",)


def vec_mul(ctx, a, b, n):
    """Truncated product: first n coefficients of a*b."""
    if ctx.k == 1:
        p = ctx.p
        la, lb = len(a), len(b)
        out = [0] * n
        for k in range(n):
            acc = 0
            lo = k - lb + 1
            if lo < 0:
                lo = 0
            hi = k + 1
            if hi > la:
                hi = la
            for i in range(lo, hi):
                acc += a[i] * b[k - i]
            out[k] = acc % p
        return out
    exp, log, add = ctx.exp, ctx.log, ctx.add
    la, lb = len(a), len(b)
    out = [0] * n
    for k in range(n):
        acc = 0
        lo = max(0, k - lb + 1)
        hi = min(k + 1, la)
        for i in range(lo, hi):
            ai = a[i]
            bj = b[k - i]
            if ai and bj:
                acc = add(acc, exp[log[ai] + log[bj]])
        out[k] = acc
    return out


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
    exp, log, add, neg = ctx.exp, ctx.log, ctx.add, ctx.neg
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
                acc = add(acc, exp[log[ai] + log[bj]])
        out[k] = exp[log[neg(acc)] + lci] if acc else 0
    return out


def vec_compose(ctx, f, g, n):
    """First n coefficients of f(g); g[0] must be 0 (caller-checked).

    Horner from the top coefficient: each step is one truncated product.
    """
    if not f:
        return [0] * n
    res = [0] * n
    res[0] = f[-1]
    for idx in range(len(f) - 2, -1, -1):
        res = vec_mul(ctx, res, g, n)
        res[0] = ctx.add(res[0], f[idx])
    return res


def vec_scale(ctx, a, w):
    """Coefficientwise product a[i] * w[i], as long as the shorter input."""
    if ctx.k == 1:
        p = ctx.p
        return [x * y % p for x, y in zip(a, w)]
    exp, log = ctx.exp, ctx.log
    return [exp[log[x] + log[y]] if x and y else 0 for x, y in zip(a, w)]


def vec_tri(ctx, cols, a, n):
    """Lower-triangular product: out[k] = sum over m <= k of a[m] * cols[k][m], k < n.

    With cols[k][m] the coefficient of s^k in g^m this is the first n
    coefficients of a(g), in O(n^2) instead of Horner's O(n^3).
    """
    if ctx.k == 1:
        p = ctx.p
        return [sum(map(_mul, a, cols[k])) % p for k in range(n)]
    exp, log, add = ctx.exp, ctx.log, ctx.add
    la = [log[x] for x in a]
    out = [0] * n
    for k in range(n):
        acc = 0
        for lx, y in zip(la, cols[k]):
            if lx >= 0 and y:
                acc = add(acc, exp[lx + log[y]])
        out[k] = acc
    return out
