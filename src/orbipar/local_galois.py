"""Finite Galois extensions of k((t)) as substitution actions on k[[s]]/(s^N).

An extension is a finite group acting on the truncated ring by substitution
automorphisms: element g carries the image act(g) of the uniformizer s (a
valuation-1 unit series), and the ring automorphism is

    psi(g): f  |->  f(act(g)(s))      (= f.compose(act(g))).

For psi to be a group homomorphism the images must satisfy

    act(h g) = act(g).compose(act(h))

which is what verify_extension checks, along with invariance of the base
uniformizer t(s) and valuation(t) = ramification index.  All extensions here
are totally ramified (e = group order); the coefficient field is fixed
pointwise.

ext.psi(g) is that automorphism as an operator on Series, Laurent values and
matrices.  It is built on first use and cached on the extension, one per
group element.  A monomial image c*s (Kummer, and the identity) acts
diagonally, f_i -> c^i f_i, in O(N).  Any other image (Artin-Schreier
s/(1+cs), explicit actions) acts through the table of its powers act(g)^m,
m < N, which costs about one Horner composition to build.  Each power is
packed once (as digit groups over GF(p^k)), and psi of f is one packed
sum, sum_m f_m * act(g)^m, unpacked once (kernels.vec_tri), over GF(p) as
over GF(p^k).
A Laurent value with val_floor v != 0 takes its factor act(g)^v from the
cache: table row v for v > 0, cached powers of s/act(g) for v < 0.  Results
equal Series.compose and Laurent.substitute coefficient for coefficient,
windows included.
The identity image s (psi(e), which every connector block theta = (I, e)
applies) returns its argument itself, after the same field, precision and
window checks: a Series, a Series matrix, or a Laurent value with val_floor
0.  A Laurent value with val_floor v != 0 keeps the general path, because
even psi(e) moves its window: to [0, n) for v > 0, and to a length of at
most prec-1 for v < 0.
Series.compose stays the general composition (verify_extension, norm,
reversion, embeddings) and the reference the operator is tested against.

ext.decomposition(prec) is restriction of scalars as a matrix: the map
f -> (h_j) with f = sum_j s^j h_j(t), the inverse of evaluate_in_base summed
over the graded pieces.  It too is built on first use and cached on the
extension, one per precision.
"""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import kernels
from .errors import ConfigurationError, DomainError, StructuralError
from .groups import FiniteGroup, Report, cyclic, law_by_generators
from .linalg import Matrix
from .series import Laurent, Series


class Substitution:
    """psi(g): f -> f(image), for one valuation-1 image of s."""

    def __init__(self, image: Series):
        if image.coeffs[0] != 0:
            raise DomainError("composition requires zero constant term")
        self.image = image
        self.field = image.field
        self.prec = image.prec
        self.ctx = image.field.ctx
        c = image.coeffs[1] if image.prec > 1 else 0
        # scalars[i] = c^i when the image is the monomial c*s, else None
        self.scalars = ([self.field.pow(c, i) for i in range(image.prec)]
                        if not any(image.coeffs[2:]) else None)
        self.identity = self.scalars is not None and c == 1
        self._powers = self._cols = None    # built on first use by _table
        self._inverse_powers = None   # [None, u, u^2, ...], u = s/image at length prec-1

    def __call__(self, x):
        if isinstance(x, Series):
            return self.series(x)
        if isinstance(x, Laurent):
            return self.laurent(x)
        if isinstance(x, Matrix):      # series and laurent keep the kind and check the field
            if x.kind is Laurent:
                return x._map_checked(self.laurent, Laurent)
            if self.identity and x.field == self.field and all(
                    e.prec == self.prec for row in x.entries for e in row):
                return x        # a mismatch raises in series, as for any image
            return x._map_checked(self.series, Series)
        raise StructuralError("psi applies to a Series, a Laurent value or a Matrix")

    def _map(self, coeffs, n):
        """First n coefficients of f(image), f given by its first n coefficients."""
        if self.identity:
            return list(coeffs)
        if self.scalars is not None:
            return kernels.vec_scale(self.ctx, coeffs, self.scalars)
        return kernels.vec_tri(self.ctx, self._table()[1], coeffs, n)

    def _table(self):
        """image^m for m < prec, built once by repeated multiplication, and
        vec_tri's table of the map f -> f(image), whose column m is
        image^m (kernels.tri_table)."""
        if self._powers is None:
            n = self.prec
            img = list(self.image.coeffs)
            rows = [[1] + [0] * (n - 1)]
            for _ in range(n - 1):
                rows.append(kernels.vec_mul(self.ctx, rows[-1], img, n))
            self._powers = [Series(self.field, n, tuple(r)) for r in rows]
            self._cols = kernels.tri_table(self.ctx, rows)
        return self._powers, self._cols

    def power(self, m):
        """image^m (zero once m reaches the precision)."""
        if m >= self.prec:
            return Series.zero(self.field, self.prec)
        if self.scalars is not None:
            return Series.monomial(self.field, self.scalars[m], m, self.prec)
        return self._table()[0][m]

    def series(self, x: Series) -> Series:
        if x.field != self.field:
            raise StructuralError("field mismatch")
        if x.prec != self.prec:
            raise StructuralError("precision mismatch")
        if self.identity:
            return x
        return Series(self.field, self.prec, tuple(self._map(x.coeffs, self.prec)))

    def laurent(self, x: Laurent) -> Laurent:
        """As Laurent.substitute: the window [v, v+n) maps to [0, n) for v >= 0
        and to [v, v + min(n, prec-1)) for v < 0."""
        if self.prec < 2 or self.image.coeffs[1] == 0:
            raise DomainError("substitution image must have valuation exactly 1")
        if x.field != self.field:
            raise StructuralError("field mismatch")
        n = len(x.coeffs)
        if n > self.prec:
            raise StructuralError("precision mismatch")
        v = x.val_floor
        if v == 0:
            return x if self.identity else Laurent(self.field, 0, tuple(self._map(x.coeffs, n)))
        mapped = self._map(x.coeffs, n)
        if v > 0:
            factor = self.power(v).coeffs
        else:
            factor = self._inverse_power(-v)
            n = min(n, self.prec - 1)
        return Laurent(self.field, 0 if v > 0 else v,
                       tuple(kernels.vec_mul(self.ctx, factor, mapped, n)))

    def _inverse_power(self, k):
        """(s/image)^k at length prec-1, as Laurent.pow computes the factor."""
        pows = self._inverse_powers
        if pows is None:
            m = self.prec - 1
            pows = self._inverse_powers = [
                None, kernels.vec_inverse(self.ctx, self.image.coeffs[1:], m)]
        while len(pows) <= k:
            pows.append(kernels.vec_mul(self.ctx, pows[-1], pows[1], self.prec - 1))
        return pows[k]


@dataclass(frozen=True)
class LocalExtension:
    field: object
    prec: int
    group: FiniteGroup
    action: tuple                 # element index -> Series image of s
    base_uniformizer: Series      # t(s), invariant, valuation = ram_index
    ram_index: int
    _psi: dict = dc_field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)
    _decomposition: dict = dc_field(default_factory=dict, init=False, compare=False,
                                    hash=False, repr=False)

    def act(self, g: int) -> Series:
        return self.action[g]

    def psi(self, g: int) -> Substitution:
        """The cached substitution operator of element g."""
        op = self._psi.get(g)
        if op is None:
            op = self._psi[g] = Substitution(self.action[g])
        return op

    def decomposition(self, prec: int) -> tuple:
        """The matrix of restriction of scalars at precision prec, built on
        first use and cached on the extension, one per precision.

        Row j*M + m, M = max(prec // e, 1), gives coefficient m of h_j in f =
        sum_j s^j h_j(t), j < e, as a dot product with f's prec coefficients.
        The basis s^j t^m of k[[s]]/(s^prec) is triangular by valuation j +
        e*m, its lead coefficient lead^m a unit (lead that of s^e in t), so
        h is k-linear in f.  Column v is the greedy elimination of s^v
        against that basis, which touches only basis elements of valuation
        v or more, so row j*M + m stops at coefficient j + e*m.  The matrix
        is held as vec_tri's table (kernels.tri_table): its columns packed,
        applied as one packed sum.
        """
        table = self._decomposition.get(prec)
        if table is None:
            table = self._decomposition[prec] = kernels.tri_table(
                self.field.ctx, _decomposition_columns(self, prec))
        return table

    def describe(self):
        return f"extension of degree {self.group.order} over {self.field.describe()}"


def _decomposition_columns(ext, prec):
    """Column v of the decomposition matrix at precision prec, for v < prec:
    coefficient m of h_j in s^v = sum_j s^j h_j(t) at index j*M + m."""
    e, field = ext.ram_index, ext.field
    ctx = field.ctx
    out_prec = max(prec // e, 1)
    t = ext.base_uniformizer.truncate(prec).coeffs
    lead = ext.base_uniformizer.coeffs[e] if e < ext.prec else 1
    tpows = [[1] + [0] * (prec - 1)]
    while len(tpows) * e < prec:
        tpows.append(kernels.vec_mul(ctx, tpows[-1], t, prec))
    # basis[w] = s^j t^m, w = j + e*m, and its scale 1/lead^m
    basis, scales = [], []
    for w in range(prec):
        m, j = divmod(w, e)
        basis.append([0] * j + tpows[m][:prec - j])
        scales.append(ctx.inv(field.pow(lead, m)))
    cols = []
    for v in range(prec):
        col = [0] * (e * out_prec)
        x = [0] * prec
        x[v] = 1
        for w in range(v, prec):
            if x[w]:
                m, j = divmod(w, e)
                c = ctx.mul(x[w], scales[w])
                if m < out_prec:
                    col[j * out_prec + m] = c
                x = kernels.row_axpy(ctx, x, c, basis[w])
        cols.append(col)
    return cols


def trivial_extension(field, prec) -> LocalExtension:
    s = Series.s(field, prec)
    return LocalExtension(field=field, prec=prec, group=cyclic(1),
                          action=(s,), base_uniformizer=s, ram_index=1)


# equal extensions are one object, so they share their cached psi tables
@lru_cache(maxsize=None)
def make_kummer(field, n: int, prec: int) -> LocalExtension:
    """Cyclic order-n extension, generator acting by s -> zeta*s.

    Requires gcd(n, p) = 1 and a primitive n-th root of unity in the field;
    t = Norm(s) = zeta^(n(n-1)/2) * s^n.
    """
    if n < 1:
        raise ConfigurationError("Kummer degree must be >= 1")
    if n % field.p == 0:
        raise ConfigurationError(f"Kummer degree {n} not coprime to characteristic {field.p}")
    if n == 1:
        return trivial_extension(field, prec)
    zeta = field.root_of_unity(n)
    s = Series.s(field, prec)
    action = tuple(s.scale(field.pow(zeta, j)) for j in range(n))
    t = action[0]
    for j in range(1, n):
        t = t * action[j]
    return LocalExtension(field=field, prec=prec, group=cyclic(n),
                          action=action, base_uniformizer=t, ram_index=n)


@lru_cache(maxsize=None)
def make_artin_schreier(field, prec: int) -> LocalExtension:
    """Cyclic order-p extension, sigma^c acting by s -> s/(1+cs).

    t = Norm(s) = s^p / (1 - s^{p-1}).
    """
    p = field.p
    s = Series.s(field, prec)
    one = Series.one(field, prec)
    action = []
    for c in range(p):
        cs = Series.monomial(field, c % p, 1, prec)
        action.append(s * (one + cs).inverse())
    t = action[0]
    for c in range(1, p):
        t = t * action[c]
    return LocalExtension(field=field, prec=prec, group=cyclic(p),
                          action=tuple(action), base_uniformizer=t, ram_index=p)


def make_explicit(field, prec, group: FiniteGroup, action_images,
                  base_uniformizer) -> LocalExtension:
    """Extension from raw substitution tables; verified at construction."""
    action = tuple(Series.from_coeffs(field, c, prec) if not isinstance(c, Series) else c
                   for c in action_images)
    t = base_uniformizer if isinstance(base_uniformizer, Series) \
        else Series.from_coeffs(field, base_uniformizer, prec)
    ext = LocalExtension(field=field, prec=prec, group=group, action=action,
                         base_uniformizer=t, ram_index=group.order)
    rep = verify_extension(ext)
    if not rep.ok:
        raise ConfigurationError(f"explicit extension invalid: {rep.message}")
    return ext


def verify_extension(ext: LocalExtension) -> Report:
    """Check the homomorphism law for all pairs, t-invariance, and val(t) = e.

    The law act(hg) = act(g).compose(act(h)) is proven on the generators h
    alone (groups.law_by_generators): composition of valuation-1 series is
    associative in k[[s]]/(s^N), so the law at (h1, h2 g), (h1, h2) and
    (h2, g) gives it at (h1 h2, g), exactly.  A failure re-runs the
    exhaustive scan of verify_extension_exhaustive and returns its report.
    """
    return law_by_generators(ext.group, lambda hs: _extension_report(ext, hs))


def verify_extension_exhaustive(ext: LocalExtension) -> Report:
    """verify_extension by a scan of all |G|^2 ordered pairs: the reference."""
    return _extension_report(ext, range(ext.group.order))


def _extension_report(ext: LocalExtension, hs) -> Report:
    """The images, the law at (h, g) for h in hs and every g, t-invariance
    and val(t) = e."""
    g_ = ext.group
    for g in range(g_.order):
        img = ext.action[g]
        if img.coeffs[0] != 0 or img.coeffs[1] == 0:
            return Report(False, f"act({g}) is not a valuation-1 substitution", (g,))
    for h in hs:
        for g in range(g_.order):
            expect = ext.action[g_.mul(h, g)]
            got = ext.action[g].compose(ext.action[h])
            if expect.coeffs != got.coeffs:
                idx = next(i for i, (a, b) in enumerate(zip(expect.coeffs, got.coeffs))
                           if a != b)
                return Report(False, f"action law fails at pair ({h},{g}), coefficient {idx}",
                              (h, g))
    t = ext.base_uniformizer
    for g in range(g_.order):
        moved = t.compose(ext.action[g])
        if moved.coeffs != t.coeffs:
            idx = next(i for i, (a, b) in enumerate(zip(t.coeffs, moved.coeffs)) if a != b)
            return Report(False, f"base uniformizer not invariant under {g}, coefficient {idx}",
                          (g,))
    if t.valuation() != ext.ram_index:
        return Report(False,
                      f"valuation(t) = {t.valuation()} != ramification index {ext.ram_index}")
    return Report(True, "ok")


def norm(ext: LocalExtension, f: Series) -> Series:
    """Product of all Galois conjugates of f."""
    out = None
    for g in range(ext.group.order):
        conj = f.compose(ext.action[g])
        out = conj if out is None else out * conj
    return out


def evaluate_in_base(ext: LocalExtension, h: Series) -> Series:
    """h(t(s)) as a series in s at the extension precision."""
    return Series(ext.field, ext.prec, tuple(kernels.vec_compose(
        ext.field.ctx, h.coeffs, ext.base_uniformizer.coeffs, ext.prec)))


@dataclass(frozen=True)
class ExtensionEmbedding:
    """P(x) inside P'(x): the small uniformizer expressed in the big one.

    s_image has valuation e_big/e_small; quotient is the surjection
    Gal(big) ->> Gal(small); the embedding of rings is f -> f(s_image).
    """

    small: LocalExtension
    big: LocalExtension
    s_image: Series
    quotient: tuple      # big element -> small element

    def expand(self, f: Series) -> Series:
        """Re-expand a small-ring series in the big ring (exact to big precision)."""
        d = self.s_image.valuation()
        out_prec = min(self.big.prec, f.prec * d)
        padded = Series(self.big.field, out_prec,
                        (f.coeffs + (0,) * out_prec)[:out_prec])
        return padded.compose(self.s_image.truncate(out_prec))

    def expand_laurent(self, x: Laurent) -> Laurent:
        d = self.s_image.valuation()
        p_in = len(x.coeffs)
        out_prec = min(self.big.prec, p_in * d)
        unit = Series(self.big.field, out_prec,
                      (x.coeffs + (0,) * out_prec)[:out_prec])
        mapped = Laurent(self.big.field, 0,
                         unit.compose(self.s_image.truncate(out_prec)).coeffs)
        if x.val_floor == 0:
            return mapped
        return Laurent.from_series(self.s_image).pow(x.val_floor) * mapped


def make_embedding(small: LocalExtension, big: LocalExtension, s_image: Series,
                   quotient) -> ExtensionEmbedding:
    """Validated embedding: valuation, quotient surjectivity/homomorphism,
    intertwining of the actions, and t-compatibility."""
    if small.field != big.field:
        raise ConfigurationError("embedding requires a common coefficient field")
    quotient = tuple(quotient)
    eb, es = big.ram_index, small.ram_index
    if eb % es != 0:
        raise ConfigurationError("ramification indices are incompatible")
    d = eb // es
    if s_image.valuation() != d:
        raise ConfigurationError(
            f"s_image has valuation {s_image.valuation()}, expected e_big/e_small = {d}")
    if len(quotient) != big.group.order or set(quotient) != set(range(small.group.order)):
        raise ConfigurationError("group quotient is not surjective onto the small group")
    for a in range(big.group.order):
        for b in range(big.group.order):
            if quotient[big.group.mul(a, b)] != small.group.mul(quotient[a], quotient[b]):
                raise ConfigurationError(f"group quotient not a homomorphism at ({a},{b})")
    emb = ExtensionEmbedding(small=small, big=big, s_image=s_image, quotient=quotient)
    for g in range(big.group.order):
        lhs = emb.expand(small.action[quotient[g]])
        rhs = s_image.compose(big.action[g]).truncate(lhs.prec)
        if lhs.coeffs != rhs.coeffs:
            raise ConfigurationError(
                f"embedding does not intertwine the actions at element {g}")
    t_push = emb.expand(small.base_uniformizer)
    if t_push.coeffs != big.base_uniformizer.truncate(t_push.prec).coeffs:
        raise ConfigurationError("base uniformizers incompatible through the embedding")
    return emb


def kummer_tower(field, n: int, m: int, prec: int) -> ExtensionEmbedding:
    """Built-in Kummer(n) inside Kummer(m) for n | m: s_small -> c * s_big^(m/n).

    The scalar c corrects the Norm normalization: c = 1 when n and m have the
    same parity of evenness, and c = -1 for odd n inside even m.
    """
    if m % n != 0:
        raise ConfigurationError("kummer_tower requires n | m")
    small = make_kummer(field, n, prec)
    big = make_kummer(field, m, prec)
    d = m // n
    c = 1 if (n % 2 == 0) == (m % 2 == 0) else field.ctx.neg(1)
    s_image = Series.monomial(field, c, d, prec)
    quotient = tuple(j % n for j in range(m))
    return make_embedding(small, big, s_image, quotient)


def identity_embedding(ext: LocalExtension) -> ExtensionEmbedding:
    return make_embedding(ext, ext, Series.s(ext.field, ext.prec),
                          tuple(range(ext.group.order)))
