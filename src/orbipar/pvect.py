"""The calculus on parabolic data: refinement pullback, equivalence testing,
tensor, dual, local pushforward, adjunction checks and tame weight extraction.

Conventions carried over: cocycle law A_{hg} = A_h psi(h)(A_g); the dual
cocycle is A*_g = psi(g)(A_{g^{-1}})^tr (equal to (A_g^tr)^{-1} by the law)
and the dual gluing is mu* = (mu^tr)^{-1}, which is what makes the dual a
valid datum, the double dual literally the identity, and the pairing
V (x) V* trivial on induced data.  The local parts sigma_x of an isomorphism
V1 -> V2 are invariant sections of Hom = V2 (x) V1*, whose cocycle is
kron(A2_g, A1*_g); the isomorphism search takes validated data and solves
for them with the fixed-space equations of `equivariant.fixed_rows`.  Its
joint system is solved with one solve per distinct independent block of
unknowns (linalg.kernel_by_blocks), which gives the joint solve's kernel
basis exactly, so the certificates drawn from it do not change.  The
pairing check V (x) V* ~= trivial usually needs no search: the
trivializations B_x of V (x) V* give sigma_x = B_x^{-1} and
g = B_x^{-1} mu_x directly (iso_from_trivializations); only a failed
construction falls back to the search.

Inside a scenario run (see memo.py) each dual point is built once per
datum point, each tensor point once per pair of points (keyed on the first
point, the second compared by value), and each local pushforward once per
glued point, group and rank.  No stored value references its key, so an
entry dies with its point.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from . import kernels
from .equivariant import (Cocycle, assemble_product, coords_to_matrix, coords_to_vec,
                          entry_starts, fixed_rows, invariants, module_generators,
                          trivialize)
from .errors import ConfigurationError, DomainError, StructuralError
from .groups import Report, law_by_generators
from .linalg import (Matrix, combination, kernel_by_blocks, kron, laurent_inverse, null_space,
                     residue_det, residue_search, series_part, solve_linear)
from .memo import memoized
from .parabolic import (CoverScene, GluedBundle, GluedPoint, ParabolicDatum,
                        ParabolicPoint, build_spec_from_scene, functor_T,
                        totally_ramified_scene, trivial_datum, validate_parabolic,
                        validate_parabolic_morphism, verify_glued)
from .prng import SplitMix64
from .series import Laurent, Series


# ---------------------------------------------------------------------------
# refinement pullback


@dataclass(frozen=True)
class RefinementMap:
    """Per-point embeddings P(x) in P'(x); new_points get the trivial action."""

    embeddings: dict        # label -> ExtensionEmbedding
    new_points: tuple = ()  # (label, big extension) pairs outside the old support


def pullback_refine(d: ParabolicDatum, ref: RefinementMap) -> ParabolicDatum:
    """Re-expand the cocycle through the quotient and the gluing through the
    ring embedding; the result is validated."""
    pts = []
    for dpt in d.points:
        emb = ref.embeddings.get(dpt.label)
        if emb is None:
            raise ConfigurationError(f"no embedding supplied for point {dpt.label!r}")
        if emb.small != dpt.ext:
            raise ConfigurationError(f"embedding at {dpt.label} starts at a "
                                     "different extension")
        big = emb.big
        mats = []
        for g in range(big.group.order):
            src = dpt.psi.mats[emb.quotient[g]]
            mats.append(src.map(emb.expand))
        psi = Cocycle(big, d.rank, tuple(mats))
        mu = dpt.mu.map(emb.expand_laurent)
        pts.append(ParabolicPoint(label=dpt.label, ext=big, psi=psi, mu=mu))
    for label, ext in ref.new_points:
        mu = Matrix.identity(ext.field, d.rank, ext.prec).to_laurent()
        pts.append(ParabolicPoint(label=label, ext=ext,
                                  psi=Cocycle.trivial(ext, d.rank), mu=mu))
    out = ParabolicDatum(rank=d.rank, points=tuple(pts))
    rep = validate_parabolic(out)
    if not rep.ok:
        raise ConfigurationError(f"refined datum failed validation: {rep.message}")
    return out


# ---------------------------------------------------------------------------
# parabolic isomorphism search


@dataclass
class IsoResult:
    status: str            # "isomorphic" | "distinct" | "inconclusive"
    g: Matrix = None
    sigmas: dict = None
    proven: bool = False
    detail: str = ""


def dual_matrix(c: Cocycle, g):
    """A*_g = psi(g)(A_{g^{-1}})^tr, the dual cocycle at g."""
    ext = c.ext
    return ext.psi(g)(c.mats[ext.group.inv(g)].transpose())


def find_parabolic_isomorphism(d1: ParabolicDatum, d2: ParabolicDatum,
                               rng=None, residue_cap=10 ** 6,
                               random_tries=300) -> IsoResult:
    """Search (g, {sigma_x}) making the validated data d1 ~= d2.

    Each sigma_x is an invariant section of Hom = V2 (x) V1*, a fixed point
    of the Hom cocycle kron(A2_g, A1*_g); with the mu square, which is also
    k-linear in (g, sigma), its equations form one system whose candidate
    space is solved exactly and then searched for a jointly invertible
    element.  The degree-0 Hom equations give the residue intertwiners, and
    an exhaustive search among them that finds no invertible one certifies
    non-isomorphism.

    The system is solved block by block (linalg.kernel_by_blocks): unknowns
    that share no equation with the rest are solved on their own.  Against a
    trivial d2 (the reference of dual_pairing_check, which searches only
    when it cannot build the isomorphism from its trivializations) A2_g = I
    and s2 = I, so the Hom equations and the mu square tie row a of g only
    to row a of each sigma_x, with coefficients that do not depend on a: r
    blocks, each the same system on its own columns, which kernel_by_blocks
    solves once and embeds r times.  Columns of different blocks have
    disjoint row supports, so the pivot columns, and the reduced echelon
    form, which is unique, are those of the one joint Gauss-Jordan; the
    kernel basis, which the candidates below combine, is therefore the same
    vector for vector, listed by free column as before.
    """
    rng = rng or SplitMix64(0x150)
    labels = [p.label for p in d1.points]
    if {p.label for p in d2.points} != set(labels) or d1.rank != d2.rank:
        return IsoResult("distinct", proven=True,
                         detail="different supports or ranks")
    r = d1.rank
    rr = r * r
    field = d1.points[0].ext.field
    ctx = field.ctx
    for p in list(d1.points) + list(d2.points):
        if p.ext.field != field:
            raise StructuralError("isomorphism search needs one coefficient field")

    # Hom equations in coordinates m*rr + i*r + j for E_ij s^m, one block of
    # rr*prec rows per generator; psi fixes constants, so the first rr rows
    # of a block, read on the first rr coordinates, are the residue equations
    hom_rows = {}
    for dpt in d1.points:
        ext = dpt.ext
        a2 = d2.point(dpt.label).psi
        actions = [(kron(a2.mats[g], dual_matrix(dpt.psi, g)), ext.psi(g).power)
                   for g in ext.group.generators()]
        rows = hom_rows[dpt.label] = fixed_rows(field, rr, ext.prec, actions)
        basis = null_space(field, [row[:rr] for k, row in enumerate(rows)
                                   if k % (rr * ext.prec) < rr], rr)
        combo, exhaustive = residue_search(field, basis, r, residue_cap)
        if exhaustive and combo is None:
            return IsoResult("distinct", proven=True,
                             detail=f"no invertible residue intertwiner at point "
                             f"{dpt.label!r} (exhaustive over {field.order}^{len(basis)} "
                             "residues)")

    # joint linear system: g over the base, then sigma_x over each extension
    # from its offset, each entry by entry (equivariant.entry_starts)
    base_prec = min(max(p.ext.prec // p.ext.ram_index, 1) for p in d1.points)
    offsets = {}
    total = rr * base_prec
    for p in d1.points:
        offsets[p.label] = total
        total += rr * p.ext.prec
    gs = entry_starts(r, base_prec)
    sigma_starts = {p.label: entry_starts(r, p.ext.prec, offsets[p.label]) for p in d1.points}
    rows = []
    for dpt in d1.points:
        ext = dpt.ext
        per = ext.prec
        ss = sigma_starts[dpt.label]
        place = [x + m for m in range(per) for row in ss for x in row]
        for hom in hom_rows[dpt.label]:
            row = [0] * total
            for col, x in zip(place, hom):
                row[col] = x
            rows.append(row)
        # mu square with mu_i = s^sh_i * s_i: s2 g s^delta = sigma s1 (delta =
        # sh2 - sh1, moved to the side where it is positive); entry (a, b),
        # coefficient k is row qs[a][b] + k
        s1, sh1, p1 = series_part(dpt.mu)
        s2, sh2, p2 = series_part(d2.point(dpt.label).mu)
        delta = sh2 - sh1
        qprec = min(p1, p2)
        qs = entry_starts(r, qprec)
        square = [[0] * total for _ in range(rr * qprec)]
        t = ext.base_uniformizer.truncate(qprec)
        tpow = [Series.one(field, qprec)]
        for _ in range(base_prec - 1):
            tpow.append(tpow[-1] * t)
        for a in range(r):
            for i in range(r):
                for m in range(base_prec):
                    prod = (s2.entries[a][i].truncate(qprec) * tpow[m]).shift(max(delta, 0))
                    for j in range(r):
                        for k, x in enumerate(prod.coeffs):
                            square[qs[a][j] + k][gs[i][j] + m] = x
        lag = max(-delta, 0)
        neg_s1 = [[kernels.row_neg(ctx, x.coeffs) for x in row] for row in s1.entries]
        for i in range(r):
            for j in range(r):
                for b in range(r):
                    c = neg_s1[j][b]
                    for m in range(per):
                        for k in range(m + lag, qprec):
                            square[qs[i][b] + k][ss[i][j] + m] = c[k - m - lag]
        rows.extend(square)

    basis = kernel_by_blocks(field, rows, total)
    if not basis:
        return IsoResult("inconclusive", proven=False,
                         detail="candidate space is zero at this precision")

    # the constant terms of g and of each sigma_x in the coordinates
    residues = [gs, *sigma_starts.values()]
    candidates = list(basis)
    tried = 0
    while tried < random_tries:
        if tried < len(candidates):
            coords = candidates[tried]
        else:
            coords = combination(field, [rng.randrange(field.order) for _ in basis],
                                 basis, total)
        tried += 1
        if not all(residue_det(field, [[coords[s] for s in row] for row in starts])
                   for starts in residues):
            continue
        gm = coords_to_matrix(field, coords, r, base_prec)
        sigmas = {p.label: coords_to_matrix(field, coords, r, p.ext.prec, offsets[p.label])
                  for p in d1.points}
        rep = validate_parabolic_morphism(d1, d2, gm, sigmas)
        if rep.ok:
            return IsoResult("isomorphic", g=gm, sigmas=sigmas, proven=True,
                             detail="explicit isomorphism found and re-verified")
    return IsoResult("inconclusive", proven=False,
                     detail=f"no jointly invertible candidate within "
                     f"{random_tries} tries (space dimension {len(basis)})")


def equiv_check(d1: ParabolicDatum, d2: ParabolicDatum,
                ref1: RefinementMap, ref2: RefinementMap,
                rng=None, residue_cap=10 ** 6, random_tries=300) -> IsoResult:
    """Equivalence via a user-supplied common refinement: pull both data back
    and search an isomorphism (equivalence iff isomorphism after pullback)."""
    e1 = pullback_refine(d1, ref1)
    e2 = pullback_refine(d2, ref2)
    return find_parabolic_isomorphism(e1, e2, rng=rng, residue_cap=residue_cap,
                                      random_tries=random_tries)


# ---------------------------------------------------------------------------
# tensor and dual


def tensor(d1: ParabolicDatum, d2: ParabolicDatum) -> ParabolicDatum:
    """Pointwise Kronecker product (row-major index (i1, i2) -> i1*r2 + i2);
    the output is validated.  Each tensor point is built once per run for a
    first point and a second point equal in value (memo table tensor_point)."""
    if {p.label for p in d1.points} != {p.label for p in d2.points}:
        raise StructuralError("tensor requires matching supports")
    pts = []
    for p1 in d1.points:
        p2 = d2.point(p1.label)
        if p1.ext != p2.ext:
            raise StructuralError(f"extension mismatch at {p1.label}")
        pts.append(memoized("tensor_point", p1, p2, lambda: _tensor_point(p1, p2)))
    out = ParabolicDatum(rank=d1.rank * d2.rank, points=tuple(pts))
    rep = validate_parabolic(out)
    if not rep.ok:
        raise ConfigurationError(f"tensor datum failed validation: {rep.message}")
    return out


def _tensor_point(p1: ParabolicPoint, p2: ParabolicPoint) -> ParabolicPoint:
    ext = p1.ext
    mats = tuple(kron(p1.psi.mats[g], p2.psi.mats[g]) for g in range(ext.group.order))
    psi = Cocycle(ext, p1.psi.rank * p2.psi.rank, mats)
    return ParabolicPoint(label=p1.label, ext=ext, psi=psi, mu=kron(p1.mu, p2.mu))


def dual(d: ParabolicDatum) -> ParabolicDatum:
    """A*_g = psi(g)(A_{g^{-1}})^tr, mu* = (mu^tr)^{-1}; output validated.
    Each dual point is built once per run (memo table dual_point)."""
    pts = tuple(memoized("dual_point", dpt, None, lambda: _dual_point(dpt))
                for dpt in d.points)
    out = ParabolicDatum(rank=d.rank, points=pts)
    rep = validate_parabolic(out)
    if not rep.ok:
        raise ConfigurationError(f"dual datum failed validation: {rep.message}")
    return out


def _dual_point(dpt: ParabolicPoint) -> ParabolicPoint:
    ext = dpt.ext
    psi = Cocycle(ext, dpt.psi.rank, tuple(dual_matrix(dpt.psi, g)
                                           for g in range(ext.group.order)))
    return ParabolicPoint(label=dpt.label, ext=ext, psi=psi,
                          mu=laurent_inverse(dpt.mu.transpose()))


@dataclass
class PairingReport:
    ok: bool
    trivialized: dict      # label -> TrivializeResult
    iso: IsoResult
    message: str


def iso_from_trivializations(d: ParabolicDatum, trivialized: dict) -> IsoResult:
    """An isomorphism from d to the trivial datum on its points, built with
    no solve from trivializations of its cocycles (label ->
    TrivializeResult): sigma_x = B_x^{-1}, and g = B_x^{-1} mu_x read over
    the base (dual_pairing_check gives the proof).

    g is taken from graded piece 0 of decompose_laurent at the search's
    base precision.  The result is "inconclusive", with the reason, when a
    point did not trivialize, when a piece j >= 1 is nonzero, when piece 0
    has a pole or too short a window, when two points give different g, or
    when g has a singular residue (validate_parabolic_morphism does not
    check invertibility); otherwise validate_parabolic_morphism decides.
    """
    if not all(t.found for t in trivialized.values()):
        return IsoResult("inconclusive", detail="a point did not trivialize")
    base_prec = min(max(p.ext.prec // p.ext.ram_index, 1) for p in d.points)
    g = None
    sigmas = {}
    for pt in d.points:
        sigma = sigmas[pt.label] = trivialized[pt.label].b.inverse()
        local = sigma.to_laurent() * pt.mu
        rows = []
        for row in local.entries:
            out = []
            for x in row:
                pieces = decompose_laurent(pt.ext, x)
                if any(not h.is_zero() for h in pieces[1:]):
                    return IsoResult("inconclusive",
                                     detail=f"B^-1 mu is not over the base at {pt.label!r}")
                h = pieces[0]
                if (h.valuation() or 0) < 0 or h.window[1] < base_prec:
                    return IsoResult("inconclusive", detail=f"B^-1 mu at {pt.label!r} is "
                                     f"not a base series to precision {base_prec}")
                out.append(Series(pt.ext.field, base_prec,
                                  tuple(h.coeff(k) for k in range(base_prec))))
            rows.append(out)
        if g is None:
            g = Matrix(rows)
        elif Matrix(rows) != g:
            return IsoResult("inconclusive", detail=f"B^-1 mu at {pt.label!r} differs "
                             "from the first point's")
    if not g.is_residue_invertible():
        return IsoResult("inconclusive", detail="g = B^-1 mu has a singular residue")
    reference = trivial_datum(d.rank, [(p.label, p.ext) for p in d.points])
    rep = validate_parabolic_morphism(d, reference, g, sigmas)
    if not rep.ok:
        return IsoResult("inconclusive", detail=f"built isomorphism fails: {rep.message}")
    return IsoResult("isomorphic", g=g, sigmas=sigmas, proven=True,
                     detail="isomorphism built from the trivializations and re-verified")


def dual_pairing_check(d: ParabolicDatum, rng=None) -> PairingReport:
    """V (x) V* against the trivial datum of rank n^2, with certificates.

    Every point x of V (x) V* is trivialized: B_x, invertible, with
    A_a psi(a)(B_x) = B_x.  iso_from_trivializations then builds
    sigma_x = B_x^{-1} and g = B_x^{-1} mu_x, which is an isomorphism:

    * sigma law: psi(a)(B_x^{-1}) = B_x^{-1} A_a, i.e. sigma A_a =
      psi(a)(sigma), the law against the trivial cocycle;
    * mu square: against mu' = I it reads g = B_x^{-1} mu_x, and mu_x is a
      Laurent fixed point (condition (b)), so psi(a)(B_x^{-1} mu_x) =
      B_x^{-1} A_a psi(a)(mu_x) = B_x^{-1} mu_x lies over k((t));
    * invertibility: sigma_x is, as B_x is; g is iff its residue is.

    Nothing proves g integral, or the same at every point, and over a wild
    extension a truncated fixed point may carry any coefficient at s^(N-1),
    which psi fixes mod s^N and no base g reproduces.  So when the
    construction fails, find_parabolic_isomorphism searches, on the rng
    stream it would have had without the construction.
    """
    rng = rng or SplitMix64(0xD0A1)
    pair = tensor(d, dual(d))
    triv_results = {}
    for pt in pair.points:
        triv_results[pt.label] = trivialize(pt.psi, rng=rng.fork())
    search_rng = rng.fork()
    iso = iso_from_trivializations(pair, triv_results)
    if iso.status != "isomorphic":
        reference = trivial_datum(pair.rank, [(p.label, p.ext) for p in pair.points])
        iso = find_parabolic_isomorphism(pair, reference, rng=search_rng)
    ok = iso.status == "isomorphic" and all(t.found for t in triv_results.values())
    msg = ("pairing is trivial with explicit certificates" if ok
           else f"pairing check: trivialize "
           f"{[t.stage for t in triv_results.values()]}, iso {iso.status}")
    return PairingReport(ok=ok, trivialized=triv_results, iso=iso, message=msg)


# ---------------------------------------------------------------------------
# local pushforward (restriction of scalars along t(s))


def decompose_series(ext, f: Series):
    """Graded pieces: f = sum_j s^j * h_j(t), j < e; each h_j has floor(N/e)
    trustworthy base coefficients, N = f.prec.

    Restriction of scalars is k-linear: the pieces are one product of f's
    coefficients with the extension's cached decomposition matrix at
    precision N (LocalExtension.decomposition), applied by kernels.vec_tri.
    """
    e = ext.ram_index
    out_prec = max(f.prec // e, 1)
    flat = kernels.vec_tri(ext.field.ctx, ext.decomposition(f.prec), f.coeffs, e * out_prec)
    return [Series(ext.field, out_prec, tuple(flat[j * out_prec:(j + 1) * out_prec]))
            for j in range(e)]


def decompose_laurent(ext, x: Laurent):
    """Graded pieces of a Laurent value: x = sum_j s^j h_j(t), h_j Laurent in t.

    Factor x = t^{m0} * y with m0 = floor(val_floor / e); y is then series-like
    and decomposes gradedly; each piece picks up a t-shift by m0.
    """
    e = ext.ram_index
    field = ext.field
    lo = x.val_floor
    m0 = lo // e  # floor division handles negative floors
    if m0 != 0:
        t_l = Laurent.from_series(ext.base_uniformizer)
        y = x * t_l.pow(-m0)
    else:
        y = x
    v = y.valuation()
    if v is None:
        zero = Laurent.zero(field, max(len(y.coeffs) // e, 1), val_floor=m0)
        return [zero for _ in range(e)]
    if v < 0:
        raise StructuralError("laurent decomposition produced a genuine pole")
    # stored coefficients below the valuation are known zeros; drop them
    end = y.val_floor + len(y.coeffs)
    prec_s = min(ext.prec, end)
    f = Series(field, prec_s, tuple(y.coeff(k) for k in range(prec_s)))
    pieces = decompose_series(ext, f)
    return [Laurent(field, m0, p.coeffs) for p in pieces]


@dataclass(frozen=True)
class PushedBundle:
    """Restriction of scalars along t(s): everything becomes base-linear.

    Basis of each pushed component: v_a s^m, column index a*e + m (a < r,
    m < e); components are stacked in order, so the total rank is l*r*e.
    formal_rep and generic_rep are honest representations of G over the
    truncated base ring; tau intertwines them (formal o tau = tau o generic).
    """

    group: object
    field: object
    base_prec: int
    rank_out: int
    formal_rep: tuple       # g -> Matrix (Series entries, series in t)
    generic_rep: tuple
    tau: Matrix             # Laurent entries, values in t

    def verify(self) -> Report:
        """The Report of the representation laws rep(hg) = rep(h) rep(g),
        proven on the generators h (groups.law_by_generators; products of
        base matrices are associative), then of the tau law F_g tau = tau G_g
        (F the formal, G the generic representation).

        The tau law is proven on the generators when every entry of tau has
        the same floor f and length n; otherwise, or on a failure, the scan
        over every g decides.  Its premise is both representation laws, which
        hold once the tau law is reached, and that shape.  The window
        argument, with P the base precision and T the Laurent polynomial
        matrix of tau's stored coefficients:

        * F_g and G_g are Series matrices at precision P: floor 0, length P.
          Each term of an entry of F_g tau or tau G_g starts at f and is
          known for m = min(P, n) coefficients, so both sides are compared
          on [f, f + m) in every entry and at every g.  On that window the
          stored coefficients are those of the products of the polynomial
          matrices F_g T and T G_g.  So the check at g says that
          F_g T - T G_g vanishes below t^(f + m) in every entry.
        * The representation laws say F_hg - F_h F_g and G_hg - G_h G_g
          vanish below t^P.  So, modulo t^(f + m), T having no entry below
          t^f and m <= P: F_hg T = F_h F_g T (the law for F) = F_h T G_g (the
          check at g, F_h having no pole) = T G_h G_g (the check at h) =
          T G_hg (the law for G).  The check at h and at g gives it at hg.
        * Every element is a positive word in the generators, so the check
          on the generators gives it at every g.
        * A check that raises for want of a window raises at every g alike.
        """
        return self._verify(partial(law_by_generators, self.group))

    def verify_exhaustive(self) -> Report:
        """verify with every law scanned over all of G: the reference."""
        return self._verify(lambda law, premise=None: law(range(self.group.order)))

    def _verify(self, prove):
        mul = self.group.mul
        for name, rep in (("formal", self.formal_rep), ("generic", self.generic_rep)):
            report = prove(lambda hs: next(
                (Report(False, f"{name} representation law fails at ({h},{g})", (h, g))
                 for h in hs for g in range(self.group.order)
                 if not rep[mul(h, g)].agrees_with(rep[h] * rep[g])), Report(True, "ok")))
            if not report.ok:
                return report
        return prove(self._tau_scan, lambda: len(
            {(e.val_floor, len(e.coeffs)) for row in self.tau.entries for e in row}) == 1)

    def _tau_scan(self, gs):
        """The tau law at g for g in gs."""
        for g in gs:
            lhs = self.formal_rep[g].to_laurent() * self.tau
            rhs = self.tau * self.generic_rep[g].to_laurent()
            if lhs.first_mismatch(rhs) is not None:
                return Report(False, f"pushed gluing not equivariant at {g}", g)
        return Report(True, "ok")

    def invariants(self):
        """Fixed module of the formal representation over the base ring."""
        field, rank, prec = self.field, self.rank_out, self.base_prec
        actions = [(self.formal_rep[g], lambda m: Series.monomial(field, 1, m, prec))
                   for g in self.group.generators()]
        candidates = null_space(field, fixed_rows(field, rank, prec, actions), rank * prec)

        def times_t(coords):
            # the base ring's uniformizer shifts base degree by one
            return [0] * rank + coords[:-rank]

        return [coords_to_vec(field, v, rank, prec)
                for v in module_generators(field, candidates, rank, prec, times_t)]


def pushforward_local(b: GluedBundle, label=None) -> PushedBundle:
    """Restriction of scalars of one glued point along t(s).

    Output rank is l*r*e; the group acts base-linearly on the result, the
    generic trivial twist becomes an honest representation, and the gluing
    pushes entrywise through the graded decomposition.  The result is
    verified, and built once per run for a glued point, group and rank
    (memo table pushforward).
    """
    gpt = b.points[0] if label is None else b.point(label)
    group = b.scene.group
    return memoized("pushforward", gpt, (group, b.rank),
                    lambda: _pushforward(gpt, group, b.rank))


def _pushforward(gpt: GluedPoint, group, r) -> PushedBundle:
    spec = gpt.module.spec
    ext = spec.ext
    e = ext.ram_index
    l = spec.size
    field = ext.field
    base_prec = max(ext.prec // e, 1)
    d_out = l * r * e

    powers = cache(lambda w: [ext.psi(w).power(m) for m in range(e)])

    def push_block(mat, w):
        """(r*e) x (r*e) base matrix of (mat, psi_w) under restriction of scalars."""
        out = [[None] * (r * e) for _ in range(r * e)]
        for a in range(r):
            for m in range(e):
                col_series = [mat.entries[bb][a] * powers(w)[m] for bb in range(r)]
                for bb in range(r):
                    for j, piece in enumerate(decompose_series(ext, col_series[bb])):
                        out[bb * e + j][a * e + m] = piece
        return out

    ident_small = Matrix.identity(field, r, ext.prec)
    generic_block = cache(lambda w: push_block(ident_small, w))
    zero_base = Series.zero(field, base_prec)
    formal = []
    generic = []
    for g in range(group.order):
        big_f = [[zero_base] * d_out for _ in range(d_out)]
        big_g = [[zero_base] * d_out for _ in range(d_out)]
        for i in range(l):
            j, m_blk, w = gpt.module.phi[g][i]
            fb = push_block(m_blk, w)
            gb = generic_block(w)
            for rr in range(r * e):
                for cc in range(r * e):
                    big_f[j * r * e + rr][i * r * e + cc] = fb[rr][cc]
                    big_g[j * r * e + rr][i * r * e + cc] = gb[rr][cc]
        formal.append(Matrix(big_f))
        generic.append(Matrix(big_g))

    zero_l = Laurent.zero(field, base_prec)
    big_tau = [[zero_l] * d_out for _ in range(d_out)]
    for i in range(l):
        tau = gpt.taus[i]
        for a in range(r):
            for m in range(e):
                for bb in range(r):
                    entry = tau.entries[bb][a].shift(m)
                    pieces = decompose_laurent(ext, entry)
                    for j in range(e):
                        big_tau[(i * r + bb) * e + j][(i * r + a) * e + m] = pieces[j]
    pushed = PushedBundle(group=group, field=field, base_prec=base_prec,
                          rank_out=d_out, formal_rep=tuple(formal),
                          generic_rep=tuple(generic), tau=Matrix(big_tau))
    rep = pushed.verify()
    if not rep.ok:
        raise ConfigurationError(f"pushforward failed verification: {rep.message}")
    return pushed


# ---------------------------------------------------------------------------
# adjunction and projection formula


@dataclass
class AdjunctionReport:
    ok: bool
    lhs_rank: int
    rhs_rank: int
    projection_ok: bool
    message: str


def adjunction_check(source_rank: int, w_point) -> AdjunctionReport:
    """Local adjunction Hom_G(f^*V, W) = Hom(V, (f_*W)^G) by brute force,
    plus the projection formula f_*(f^*V (x) W) = V (x) f_*W via the explicit
    Kronecker shuffle.

    w_point: a ParabolicPoint (the W side, over the covering extension);
    V is the trivial bundle of the given rank on the base, and the scene is
    the totally ramified one at w_point.
    """
    ext = w_point.ext
    # columns are independent, so Hom_G(f^* k[[t]]^source_rank, W) has
    # source_rank times the rank of the fixed module {v : A_g psi(g)(v) = v}
    lhs_rank = source_rank * len(invariants(w_point.psi).generators)
    scene = totally_ramified_scene(ext, label=w_point.label)
    b = functor_T(ParabolicDatum(rank=w_point.psi.rank, points=(w_point,)), scene)
    pushed = pushforward_local(b)
    pushed_inv = pushed.invariants()
    rhs_rank = source_rank * len(pushed_inv)
    ok = lhs_rank == rhs_rank

    # projection formula f_*(f^*V (x) W) = V (x) f_*W, dual route: push the
    # tensor bundle through the full pipeline and compare with the Kronecker
    # product of the identity with the pushed W-representation.  With V the
    # trivial rank-n bundle the flat index nesting (a, i, m) makes the two
    # sides literally equal matrices.
    n = source_rank
    v_triv = trivial_datum(n, [(w_point.label, ext)])
    w_datum = ParabolicDatum(rank=w_point.psi.rank, points=(w_point,))
    big = tensor(v_triv, w_datum)
    pushed_tensor = pushforward_local(functor_T(big, scene))
    ident_base = Matrix.identity(ext.field, n, pushed.base_prec)
    proj_ok = True
    for g in range(pushed.group.order):
        lhs = pushed_tensor.formal_rep[g]
        rhs = kron(ident_base, pushed.formal_rep[g])
        if not lhs.agrees_with(rhs):
            proj_ok = False
    msg = (f"Hom ranks agree ({lhs_rank})" if ok
           else f"Hom ranks differ: {lhs_rank} vs {rhs_rank}")
    if not proj_ok:
        msg += "; projection formula shuffle failed"
    return AdjunctionReport(ok=ok and proj_ok, lhs_rank=lhs_rank, rhs_rank=rhs_rank,
                            projection_ok=proj_ok, message=msg)


# ---------------------------------------------------------------------------
# tame weights


@dataclass
class WeightsResult:
    weights: list           # Fractions a/n, sorted ascending, with multiplicity
    pairs: list             # (a, n, multiplicity)
    generator: int


def extract_weights(d: ParabolicDatum, label=None) -> WeightsResult:
    """Residue eigenvalues of the canonical tame generator as weights a/n.

    Errors on wild inertia (the whole point: weights do not determine wild
    local monodromy); reports a Jordan diagnostic if the residue matrix is
    not semisimple (cannot happen for honest tame reductions).
    """
    pt = d.points[0] if label is None else d.point(label)
    ext = pt.ext
    n = ext.group.order
    field = ext.field
    if n % field.p == 0:
        raise DomainError("weights undefined: wild inertia")
    gen = None
    for g in range(1, n):
        if ext.group.element_order(g) == n:
            gen = g
            break
    if gen is None:
        if n == 1:
            gen = 0
        else:
            raise DomainError("weights undefined: inertia is not cyclic")
    res = pt.psi.mats[gen].residue()
    r = pt.psi.rank
    ctx = field.ctx
    if n == 1:
        return WeightsResult(weights=[Fraction(0)] * r, pairs=[(0, 1, r)], generator=0)
    zeta = field.root_of_unity(n)
    pairs = []
    total = 0
    for a in range(n):
        ev = field.pow(zeta, a)
        rows = [[ctx.sub(res[i][j], ev if i == j else 0) for j in range(r)]
                for i in range(r)]
        sol = solve_linear(field, rows)
        dim = len(sol.kernel)
        if dim:
            pairs.append((a, n, dim))
            total += dim
    if total != r:
        raise DomainError(
            f"non-semisimple residue matrix: eigenspace dimensions sum to {total}, "
            f"rank is {r} (Jordan-type diagnostic)")
    weights = []
    for a, nn, dim in pairs:
        weights.extend([Fraction(a, nn)] * dim)
    return WeightsResult(weights=weights, pairs=pairs, generator=gen)


# ---------------------------------------------------------------------------
# pullback compatibility with the functor T (refined scenes)


@dataclass(frozen=True)
class ScenePullback:
    """A refined scene over a quotient of groups, aligned pointwise.

    group_quotient maps G' onto G; per point the embedding's group quotient,
    the isotropy identifications and the transversals must all commute with
    it, which validate() checks.
    """

    embeddings: dict          # label -> ExtensionEmbedding
    scene_small: CoverScene
    scene_big: CoverScene
    group_quotient: tuple     # G' element -> G element

    def validate(self):
        gq = self.group_quotient
        g_small, g_big = self.scene_small.group, self.scene_big.group
        if len(gq) != g_big.order or set(gq) != set(range(g_small.order)):
            raise ConfigurationError("group quotient is not onto")
        for a in range(g_big.order):
            for bb in range(g_big.order):
                if gq[g_big.mul(a, bb)] != g_small.mul(gq[a], gq[bb]):
                    raise ConfigurationError("group quotient not a homomorphism")
        for sp_big in self.scene_big.points:
            sp_small = self.scene_small.point(sp_big.label)
            emb = self.embeddings[sp_big.label]
            if emb.small != sp_small.ext or emb.big != sp_big.ext:
                raise ConfigurationError(f"embedding mismatch at {sp_big.label}")
            if len(sp_big.transversal) != len(sp_small.transversal):
                raise ConfigurationError("fiber sizes differ")
            for i, t in enumerate(sp_big.transversal):
                if gq[t] != sp_small.transversal[i]:
                    raise ConfigurationError("transversals not aligned")
            for u in range(emb.big.group.order):
                if gq[sp_big.iso[u]] != sp_small.iso[emb.quotient[u]]:
                    raise ConfigurationError("isotropy identifications not aligned")


def glued_pullback(b: GluedBundle, spb: ScenePullback) -> GluedBundle:
    """Pull a glued bundle back along the refined scene: blocks re-expand
    through the embedding, ring parts lift through the quotient."""
    spb.validate()
    pts = []
    for gpt in b.points:
        sp_big = spb.scene_big.point(gpt.label)
        emb = spb.embeddings[gpt.label]
        psi_small = gpt.module.spec.components[0].cocycle
        mats = tuple(psi_small.mats[emb.quotient[u]].map(emb.expand)
                     for u in range(emb.big.group.order))
        psi_big = Cocycle(emb.big, b.rank, mats)
        spec_big = build_spec_from_scene(sp_big, spb.scene_big.group, psi_big)
        module = assemble_product(spec_big)
        taus = tuple(gpt.taus[i].map(emb.expand_laurent)
                     for i in range(len(gpt.taus)))
        pts.append(GluedPoint(label=gpt.label, scene_point=sp_big, module=module,
                              taus=taus))
    out = GluedBundle(rank=b.rank, scene=spb.scene_big, points=tuple(pts))
    rep = verify_glued(out)
    if not rep.ok:
        raise ConfigurationError(f"glued pullback failed verification: {rep.message}")
    return out


def pullback_T_compat(d: ParabolicDatum, spb: ScenePullback,
                      ref: RefinementMap) -> Report:
    """T'(i* d) versus i~*(T(d)): with aligned scenes the two glued bundles
    coincide blockwise; verified entry by entry (the explicit isomorphism is
    the identity)."""
    lhs = functor_T(pullback_refine(d, ref), spb.scene_big)
    rhs = glued_pullback(functor_T(d, spb.scene_small), spb)
    for lpt in lhs.points:
        rpt = rhs.point(lpt.label)
        group = spb.scene_big.group
        for g in range(group.order):
            for i in range(len(lpt.scene_point.transversal)):
                j1, m1, w1 = lpt.module.phi[g][i]
                j2, m2, w2 = rpt.module.phi[g][i]
                if j1 != j2 or w1 != w2 or not m1.agrees_with(m2):
                    return Report(False, f"formal blocks differ at {lpt.label}, "
                                  f"element {g}, component {i}")
        for i, (t1, t2) in enumerate(zip(lpt.taus, rpt.taus)):
            if t1.first_mismatch(t2) is not None:
                return Report(False, f"gluing differs at {lpt.label}, component {i}")
    return Report(True, "T' o i* and i~* o T agree blockwise "
                  "(identity isomorphism verified)")
