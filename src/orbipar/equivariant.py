"""Semilinear actions as matrix cocycles and product G-modules.

Conventions (fixed throughout):

* A semilinear map on R^r is a pair (M, w): x -> M * psi(w)(x), with M an
  r x r matrix over R = k[[s]]/(s^N) and w an element of the inertia group
  I acting by substitution.  Composition: (M1,w1) o (M2,w2) =
  (M1 * psi(w1)(M2), w1 w2).
* A cocycle assigns to every g in I an invertible matrix A_g with A_e = I
  and A_{hg} = A_h * psi(h)(A_g); then g -> (A_g, g) is a group action.
* A product G-module stores, for every g in G and every source component i,
  the block (target j, matrix, w in I) of the permutation-semilinear map
  Phi(g).  Every ring isomorphism between component rings is psi(w) for a
  known w once the components are identified with k[[s]], so composition and
  equality checks stay exact.
* A connector block theta_ij is (identity, w_ij): psi is a ring map, so
  (I, w) o (M, u) = (psi(w)(M), w u) and (M, u) o (I, w) = (M, u w).

Inside a scenario run (see memo.py) each cocycle's fixed space, its
InvariantsResult and its verify_cocycle report are computed once:
invariants, invariants_product, is_induced, the S functor and stage 3 of
trivialize share one solve.  So is each module's verify_action report.
Outside a run every call computes afresh; the memo only caches.  The
generator proofs of the unary laws take verify_cocycle or verify_action
as their premise, in a run or not: inside one the premise is usually a
memo hit, outside one it is computed.
"""

from dataclasses import dataclass
from itertools import islice

from .errors import AssemblyError, DomainError, RankDeficiencyError, StructuralError
from .groups import Report, law_by_generators
from .kernels import fixed_point_rows
from .linalg import (Matrix, combination, echelonize, extend_echelon, is_invertible_combination,
                     null_space, reduce_against, residue_search, smith, solve_linear)
from .memo import memoized
from .series import Series


# ---------------------------------------------------------------------------
# cocycles


@dataclass(frozen=True)
class Cocycle:
    ext: object
    rank: int
    mats: tuple     # group element -> Matrix over the extension ring

    def __post_init__(self):
        if len(self.mats) != self.ext.group.order:
            raise StructuralError("cocycle needs one matrix per group element")
        for m in self.mats:
            if m.rows != self.rank or m.cols != self.rank:
                raise StructuralError("cocycle matrix of wrong shape")
            if m.kind is not Series:
                raise StructuralError("cocycle matrix must have Series entries")

    def apply(self, g, vec):
        """Phi(g) on a coordinate vector (tuple of Series)."""
        image = self.mats[g] * self.ext.psi(g)(Matrix([[v] for v in vec]))
        return tuple(row[0] for row in image.entries)

    @classmethod
    def trivial(cls, ext, rank):
        ident = Matrix.identity(ext.field, rank, ext.prec)
        return cls(ext, rank, tuple(ident for _ in range(ext.group.order)))


def verify_cocycle(c: Cocycle) -> Report:
    """A_e = identity and A_{hg} = A_h * psi(h)(A_g) for all ordered pairs.

    Proven on the generators h alone (groups.law_by_generators): the law at
    (h1, h2 g), (h1, h2) and (h2, g) gives it at (h1 h2, g), because psi(h1)
    is a ring map of k[[s]]/(s^N) and psi(h1) o psi(h2) = psi(h1 h2); all of
    it holds exactly, coefficient for coefficient.  The last identity is
    verify_extension's law: Kummer and Artin-Schreier actions satisfy it by
    construction, and make_explicit checks it.  A failure re-runs the
    exhaustive scan of verify_cocycle_exhaustive and returns its report,
    whose detail is the failing pair.  Memoized per cocycle in a run.
    """
    return memoized("verify_cocycle", c, None, lambda: law_by_generators(
        c.ext.group, lambda hs: _cocycle_report(c, hs)))


def verify_cocycle_exhaustive(c: Cocycle) -> Report:
    """verify_cocycle by a scan of all |G|^2 ordered pairs: the reference."""
    return _cocycle_report(c, range(c.ext.group.order))


def _cocycle_report(c: Cocycle, hs) -> Report:
    """A_e = identity, then the law at (h, g) for h in hs and every g."""
    ext = c.ext
    if not c.mats[0].is_one():
        return Report(False, "A_e is not the identity", (0,))
    for h in hs:
        psi_h = ext.psi(h)
        for g in range(ext.group.order):
            lhs = c.mats[ext.group.mul(h, g)]
            rhs = c.mats[h] * psi_h(c.mats[g])
            mism = lhs.first_mismatch(rhs)
            if mism is not None:
                return Report(False, f"cocycle law fails at pair ({h},{g}), entry "
                              f"{mism[:2]}, coefficient {mism[2]}", (h, g))
    return Report(True, "ok")


def coboundary(ext, b: Matrix, character=None) -> Cocycle:
    """The cocycle A_g = B * chi(g) * psi(g)(B^{-1}) (trivializable when chi = 1)."""
    rank = b.rows
    b_inv = b.inverse()
    mats = []
    for g in range(ext.group.order):
        m = b * ext.psi(g)(b_inv)
        if character is not None and character[g] != 1:
            m = m.scale(character[g])
        mats.append(m)
    return Cocycle(ext, rank, tuple(mats))


# ---------------------------------------------------------------------------
# product G-module specifications


@dataclass(frozen=True)
class ComponentSpec:
    """One component: the identification of its stabilizer with I, and its cocycle.

    iso[u] is the G-element identified with the I-element u; the isotropy
    action on the component is Phi_i(iso[u]) = (cocycle.mats[u], u).
    """

    iso: tuple
    cocycle: Cocycle


@dataclass(frozen=True)
class ProductGModuleSpec:
    """Assembly data; a connector block theta_ij is (identity, w_ij), stored as w_ij."""

    group: object                # FiniteGroup G
    ext: object                  # shared LocalExtension (inertia I = ext.group)
    components: tuple            # ComponentSpec per component
    perms: tuple                 # perms[g][i] = index action of g
    connectors: tuple            # connectors[i][j] = g_ij in G mapping i -> j
    thetas: tuple                # thetas[i][j] = w_ij in I

    @property
    def size(self):
        return len(self.components)

    @property
    def rank(self):
        return self.components[0].cocycle.rank

    def iso_inverse(self, i, g):
        """I-element u with components[i].iso[u] == g, or None."""
        try:
            return self.components[i].iso.index(g)
        except ValueError:
            return None


def verify_spec(spec: ProductGModuleSpec):
    """Conditions (A), (B), (C) of the assembly lemma; raises AssemblyError.

    With theta_ij = (identity, w_ij), (B) reads w_ii = e and w_ik = w_jk w_ij,
    and (C) at a = iso_i[u], g_ij a g_ij^{-1} = iso_j[u2] reads
    A^(j)_{u2} = psi(w_ij)(A^(i)_u) and u2 w_ij = w_ij u."""
    g_, i_ = spec.group, spec.ext.group
    l = spec.size
    for i in range(l):
        comp = spec.components[i]
        if comp.iso[0] != 0:
            raise AssemblyError(f"component {i}: identity must map to identity",
                                condition="iso", indices=(i,))
        for u in range(i_.order):
            for v in range(i_.order):
                if comp.iso[i_.mul(u, v)] != g_.mul(comp.iso[u], comp.iso[v]):
                    raise AssemblyError(
                        f"component {i}: isotropy identification is not a homomorphism",
                        condition="iso", indices=(i, u, v))
        if len(set(comp.iso)) != i_.order:
            raise AssemblyError(f"component {i}: isotropy identification not injective",
                                condition="iso", indices=(i,))
    # index action must be a homomorphism to permutations
    for a in range(g_.order):
        for b in range(g_.order):
            ab = g_.mul(a, b)
            for i in range(l):
                if spec.perms[ab][i] != spec.perms[a][spec.perms[b][i]]:
                    raise AssemblyError("index action is not a group action",
                                        condition="index", indices=(a, b, i))
    # (A)
    for i in range(l):
        if spec.connectors[i][i] != 0:
            raise AssemblyError(f"g_{i}{i} must be the identity",
                                condition="A", indices=(i, i))
        for j in range(l):
            if spec.perms[spec.connectors[i][j]][i] != j:
                raise AssemblyError(f"connector g_{i}{j} does not map {i} to {j}",
                                    condition="A", indices=(i, j))
            for k in range(l):
                if spec.connectors[i][k] != g_.mul(spec.connectors[j][k],
                                                   spec.connectors[i][j]):
                    raise AssemblyError(
                        f"condition (A) fails: g_{i}{k} != g_{j}{k} g_{i}{j}",
                        condition="A", indices=(i, j, k))
    # (B)
    for i in range(l):
        if spec.thetas[i][i] != 0:
            raise AssemblyError(f"theta_{i}{i} must be the identity",
                                condition="B", indices=(i, i))
        for j in range(l):
            for k in range(l):
                if spec.thetas[i][k] != i_.mul(spec.thetas[j][k], spec.thetas[i][j]):
                    raise AssemblyError(
                        f"condition (B) fails: theta_{i}{k} != theta_{j}{k} theta_{i}{j}",
                        condition="B", indices=(i, j, k))
    # (C)
    for i in range(l):
        for j in range(l):
            g_ij = spec.connectors[i][j]
            w_ij = spec.thetas[i][j]
            for u in range(i_.order):
                a = spec.components[i].iso[u]
                conj = g_.conj(g_ij, a)
                u2 = spec.iso_inverse(j, conj)
                if u2 is None:
                    raise AssemblyError(
                        f"condition (C) fails: conjugate of component-{i} isotropy "
                        f"element {a} by g_{i}{j} lands outside component-{j} isotropy",
                        condition="C", indices=(i, j, u))
                if (i_.mul(u2, w_ij) != i_.mul(w_ij, u)
                        or not spec.components[j].cocycle.mats[u2].agrees_with(
                            spec.ext.psi(w_ij)(spec.components[i].cocycle.mats[u]))):
                    raise AssemblyError(
                        f"condition (C) fails between components ({i},{j}) at "
                        f"isotropy element {u}",
                        condition="C", indices=(i, j, u))


@dataclass(frozen=True)
class ProductGModule:
    spec: ProductGModuleSpec
    phi: tuple    # phi[g][i] = (target j, Matrix, w in I)

    def __post_init__(self):
        if any(m.kind is not Series for blocks in self.phi for _, m, _ in blocks):
            raise StructuralError("module block matrices must have Series entries")

    @property
    def size(self):
        return self.spec.size


def assemble_product(spec: ProductGModuleSpec) -> ProductGModule:
    """Glue the component actions into Phi; verifies (A)-(C), the group law
    on the result, and the restriction law Phi|_{G_i} = Phi_i.  g = g_ij iso_i[u]
    acts on component i by theta_ij o Phi_i(iso_i[u]) = (j, psi(w_ij)(A_u), w_ij u)."""
    verify_spec(spec)
    g_ = spec.group
    phi = []
    for g in range(g_.order):
        blocks = []
        for i in range(spec.size):
            j = spec.perms[g][i]
            g_ij = spec.connectors[i][j]
            gi = g_.mul(g_.inv(g_ij), g)
            u = spec.iso_inverse(i, gi)
            if u is None:
                raise AssemblyError(
                    f"element {g} does not factor as g_{i}{j} * (isotropy) "
                    f"on component {i}", condition="factor", indices=(g, i))
            w_ij = spec.thetas[i][j]
            blocks.append((j, spec.ext.psi(w_ij)(spec.components[i].cocycle.mats[u]),
                           spec.ext.group.mul(w_ij, u)))
        phi.append(tuple(blocks))
    module = ProductGModule(spec=spec, phi=tuple(phi))
    rep = verify_action(module)
    if not rep.ok:
        raise AssemblyError(f"assembled action violates the group law: {rep.message}",
                            condition="law")
    # restriction law: Phi restricted to G_i on component i is Phi_i exactly
    for i in range(spec.size):
        for u in range(spec.ext.group.order):
            a = spec.components[i].iso[u]
            j, m, w = module.phi[a][i]
            if j != i or w != u or not m.agrees_with(spec.components[i].cocycle.mats[u]):
                raise AssemblyError(
                    f"restriction law fails on component {i} at isotropy element {u}",
                    condition="restriction", indices=(i, u))
    return module


def verify_action(m: ProductGModule) -> Report:
    """Phi(hg) = Phi(h) o Phi(g) for all ordered pairs.

    Proven on the generators h alone (groups.law_by_generators): blocks
    compose associatively, since psi(w1) o psi(w2) = psi(w1 w2) on the
    inertia group (verify_extension's law, as in verify_cocycle), so the
    law at (h1, h2 g), (h1, h2) and (h2, g) gives it at (h1 h2, g),
    exactly.  A failure re-runs the exhaustive scan of
    verify_action_exhaustive and returns its report.  Memoized per module
    in a run, so the check assemble_product makes serves the premises of
    the unary laws.
    """
    return memoized("verify_action", m, None, lambda: law_by_generators(
        m.spec.group, lambda hs: _action_report(m, hs)))


def verify_action_exhaustive(m: ProductGModule) -> Report:
    """verify_action by a scan of all |G|^2 ordered pairs: the reference."""
    return _action_report(m, range(m.spec.group.order))


def _action_report(m: ProductGModule, hs) -> Report:
    """The law at (h, g) for h in hs and every g, blockwise."""
    spec = m.spec
    g_ = spec.group
    for h in hs:
        for g in range(g_.order):
            hg = g_.mul(h, g)
            for i in range(spec.size):
                j, mg, wg = m.phi[g][i]
                k, mh, wh = m.phi[h][j]
                k2, mhg, whg = m.phi[hg][i]
                w = spec.ext.group.mul(wh, wg)
                if k2 != k or whg != w:
                    return Report(False, f"block bookkeeping differs at pair ({h},{g}), "
                                  f"component {i}", (h, g))
                comp = mh * spec.ext.psi(wh)(mg)
                if not comp.agrees_with(mhg):
                    return Report(False, f"matrix part differs at pair ({h},{g}), "
                                  f"component {i}", (h, g))
    return Report(True, "ok")


def make_connectors(group, perms, seeds):
    """Full connector family from seed choices g_{i,i+1}.

    seeds[i] must map component i to i+1; g_ij for i < j is the product of
    the seeds along the chain, g_ji = g_ij^{-1}, g_ii = e.  Condition (A)
    holds by construction and is re-verified.
    """
    l = len(seeds) + 1
    for i, s in enumerate(seeds):
        if not (0 <= s < group.order and i < len(perms[s]) and perms[s][i] == i + 1):
            raise AssemblyError(f"seed {i} does not map component {i} to {i+1}",
                                condition="seed", indices=(i,))
    reach = {perms[g][0] for g in range(group.order)}
    if reach != set(range(l)):
        raise AssemblyError("index action is not transitive", condition="seed")
    conn = [[0] * l for _ in range(l)]
    for i in range(l):
        for j in range(l):
            if i < j:
                acc = 0
                for t in range(i, j):
                    acc = group.mul(seeds[t], acc)
                conn[i][j] = acc
            elif i > j:
                acc = 0
                for t in range(j, i):
                    acc = group.mul(seeds[t], acc)
                conn[i][j] = group.inv(acc)
    conn = tuple(tuple(r) for r in conn)
    for i in range(l):
        for j in range(l):
            if perms[conn[i][j]][i] != j:
                raise AssemblyError("constructed connector has wrong image",
                                    condition="A", indices=(i, j))
            for k in range(l):
                if conn[i][k] != group.mul(conn[j][k], conn[i][j]):
                    raise AssemblyError("condition (A) fails for constructed connectors",
                                        condition="A", indices=(i, j, k))
    return conn


@dataclass(frozen=True)
class EquivariantMorphism:
    blocks: tuple    # per-component Matrix (R-linear)


def independence_intertwiner(mod1: ProductGModule, mod2: ProductGModule) -> EquivariantMorphism:
    """The connector-independence intertwiner tau with Phi2(g) = tau Phi1(g) tau^{-1}.

    Requires the two modules to share components at index 0 (Phi^1_1 = Phi^2_1)
    and differ only in connectors/thetas; tau_j = theta^2_{1j} o Psi(f_j^{-1})
    o (theta^1_{1j})^{-1} with f_j = (g^1_{1j})^{-1} g^2_{1j} in G_1.  With thetas
    (I, w1), (I, w2) and f_j^{-1} = iso_0[u] that is psi(w2)(A_u), if w2 u w1^{-1} = e.
    """
    s1, s2 = mod1.spec, mod2.spec
    if s1.components[0] != s2.components[0]:
        raise DomainError("intertwiner requires Phi^1_1 = Phi^2_1 (shared component 0)")
    if s1.size != s2.size:
        raise StructuralError("component count mismatch")
    ext, g_, i_ = s1.ext, s1.group, s1.ext.group
    psi = s1.components[0]
    l = s1.size
    blocks = []
    for j in range(l):
        f_j = g_.mul(g_.inv(s1.connectors[0][j]), s2.connectors[0][j])
        u = s1.iso_inverse(0, g_.inv(f_j))
        if u is None:
            raise DomainError(f"connector difference f_{j} is not in the isotropy group")
        w2 = s2.thetas[0][j]
        if i_.mul(w2, u) != s1.thetas[0][j]:  # w2 u w1^{-1} != e
            raise AssemblyError("intertwiner block is not R-linear "
                                "(ring parts of the two theta families disagree)",
                                condition="tau", indices=(j,))
        blocks.append(ext.psi(w2)(psi.cocycle.mats[u]))
    rep = first_nonintertwining(mod1, mod2, blocks)
    if not rep.ok:
        msg = ("modules have incompatible index actions" if rep.detail[2]
               else f"intertwiner fails equivariance at {rep.message}")
        raise AssemblyError(msg, condition="tau", indices=rep.detail[:2])
    return EquivariantMorphism(blocks=tuple(blocks))


def first_nonintertwining(mod1: ProductGModule, mod2: ProductGModule, blocks) -> Report:
    """Whether Phi2(g) o tau = tau o Phi1(g) blockwise for every g, tau
    being the R-linear blocks: a Report whose failing detail is the first
    (g, i, index_mismatch) at which it fails.

    index_mismatch is True when the two modules send component i to
    different targets or ring parts under g, False when only the matrix
    parts disagree.  The law at h and at g gives it at hg once both actions
    are verified: the ring parts multiply, and Phi2(hg) tau =
    Phi2(h) Phi2(g) tau = Phi2(h) tau Phi1(g) = tau Phi1(h) Phi1(g) =
    tau Phi1(hg), an identity of Series matrices mod s^N, so no validity
    window enters.  So it is proven on the generators
    (groups.law_by_generators) when the modules share G and the extension,
    tau's blocks are Series matrices and verify_action passes on both
    modules; otherwise, or on a failure, the exhaustive scan of
    first_nonintertwining_exhaustive decides.
    """
    s1, s2 = mod1.spec, mod2.spec
    return law_by_generators(
        s1.group, lambda gs: _intertwining_scan(mod1, mod2, blocks, gs),
        premise=lambda: (s1.group == s2.group and s1.ext == s2.ext
                         and all(b.kind is Series for b in blocks)
                         and verify_action(mod1).ok and verify_action(mod2).ok))


def first_nonintertwining_exhaustive(mod1: ProductGModule, mod2: ProductGModule, blocks):
    """first_nonintertwining by a scan of every g in G: the reference."""
    return _intertwining_scan(mod1, mod2, blocks, range(mod1.spec.group.order))


def _intertwining_scan(mod1, mod2, blocks, gs):
    """The intertwining law at g for g in gs, then every component i."""
    ext = mod1.spec.ext
    for g in gs:
        for i in range(mod1.size):
            j1, ma, wa = mod1.phi[g][i]
            j2, mb, wb = mod2.phi[g][i]
            index_mismatch = j1 != j2 or wa != wb
            if index_mismatch or not (mb * ext.psi(wb)(blocks[i])).agrees_with(blocks[j1] * ma):
                return Report(False, f"element {g}, component {i}", (g, i, index_mismatch))
    return Report(True, "ok")


# ---------------------------------------------------------------------------
# invariants, induced-ness, trivialization


@dataclass(frozen=True)
class InvariantsResult:
    generators: tuple     # module generators, each a tuple of Series (length rank)
    natural: Matrix       # columns = generators: the map V (x) R -> E
    base_prec: int        # trustworthy base-ring coefficients, floor(N/e)
    fixed_dim: int        # k-dimension of the truncated fixed space


def vec_to_coords(vec, rank, prec):
    """k-coordinates of a vector of Series: coefficient m of entry comp sits
    at m*rank + comp."""
    out = [0] * (rank * prec)
    for comp, s in enumerate(vec):
        for m, c in enumerate(s.coeffs):
            out[m * rank + comp] = c
    return out


def coords_to_vec(field, coords, rank, prec):
    """Inverse of vec_to_coords."""
    return tuple(Series(field, prec,
                        tuple(coords[m * rank + comp] for m in range(prec)))
                 for comp in range(rank))


def entry_starts(rank, prec, offset=0):
    """Where each entry of a rank x rank matrix starts in coordinates that
    hold coefficient m of entry (i, j) at offset + (i*rank + j)*prec + m:
    row i lists the positions of its entries' constant terms."""
    return [[offset + (i * rank + j) * prec for j in range(rank)] for i in range(rank)]


def coords_to_matrix(field, coords, rank, prec, offset=0):
    """The rank x rank Series matrix in the coordinates of entry_starts."""
    return Matrix([[Series(field, prec, tuple(coords[s:s + prec])) for s in row]
                   for row in entry_starts(rank, prec, offset)])


def fixed_rows(field, rank, prec, actions):
    """The k-linear equations A * psi(x) - x = 0 on x in R^rank, R = k[[s]]/(s^prec),
    for every action; their null space is the fixed space.

    Both x and the equations use coordinates m*rank + comp, one block of
    rank*prec rows per action.  `actions` lists (A, power) pairs, power(m)
    being psi(s^m): the image of s^m e_comp is column comp of A times
    power(m), one packed product per equation column
    (kernels.fixed_point_rows).  Every entry of A and every power must have
    precision prec.
    """
    rows = []
    for a, power in actions:
        powers = [power(m) for m in range(prec)]
        if any(x.field != field for x in [a] + powers):
            raise StructuralError("field mismatch")
        if any(x.prec != prec for x in [e for row in a.entries for e in row] + powers):
            raise StructuralError("precision mismatch")
        rows.extend(fixed_point_rows(field.ctx, [[e.coeffs for e in row] for row in a.entries],
                                     [x.coeffs for x in powers]))
    return rows


def module_generators(field, candidates, rank, prec, times_t):
    """Valuation-greedy module generators among fixed-space candidates.

    Yields, in order, each candidate whose leading term the span of the
    earlier generators and their t-multiples does not reach, reduced and
    normalized; `times_t` multiplies coordinates by the base uniformizer.
    Ties break by lowest degree, then lowest component.
    """
    ctx = field.ctx
    span = {}
    # candidates within half a window of the truncation boundary carry too
    # few checked coefficients to certify a module generator
    cutoff = prec - prec // 2
    for cand in candidates:
        red, lead = reduce_against(field, span, cand)
        if lead is None or lead // rank >= cutoff:
            continue
        inv = ctx.inv(red[lead])
        red = [ctx.mul(inv, x) for x in red]
        yield red
        vec = red
        while any(vec) and extend_echelon(field, span, vec) is not None:
            vec = times_t(vec)


def fixed_space(c: Cocycle) -> tuple:
    """Reduced echelon basis, over k, of {x in R^rank : Phi(g) x = x for all g},
    in the coordinates of vec_to_coords; one tuple per basis vector.

    Fixed by the group generators alone; memoized per cocycle in a run.
    """
    def solve():
        ext = c.ext
        actions = [(c.mats[g], ext.psi(g).power) for g in ext.group.generators()]
        rows = fixed_rows(ext.field, c.rank, ext.prec, actions)
        return tuple(map(tuple, null_space(ext.field, rows, c.rank * ext.prec)))

    return memoized("fixed_space", c, None, solve)


def invariants(c: Cocycle) -> InvariantsResult:
    """Fixed module of the semilinear action, as a base-ring module.

    Takes the fixed space over k, then extracts a rank-r generating set with
    module_generators; memoized per cocycle in a run.
    """
    return memoized("invariants", c, None, lambda: _invariants(c))


def _invariants(c: Cocycle) -> InvariantsResult:
    ext = c.ext
    field = ext.field
    rank, prec = c.rank, ext.prec
    candidates = fixed_space(c)
    t = ext.base_uniformizer

    def times_t(coords):
        vec = coords_to_vec(field, coords, rank, prec)
        return vec_to_coords(tuple(x * t for x in vec), rank, prec)

    selected = tuple(coords_to_vec(field, v, rank, prec)
                     for v in islice(module_generators(field, candidates, rank, prec, times_t),
                                     rank))
    if len(selected) < rank:
        raise RankDeficiencyError(
            f"invariants: found {len(selected)} generators, expected {rank}",
            found=len(selected), expected=rank)

    # safety: every generator is fixed by every group element.  Proven on the
    # group's generators when c is a cocycle: Phi(hk) = Phi(h) o Phi(k)
    # exactly mod s^N, so vectors fixed by Phi(h) and Phi(k) are fixed by
    # Phi(hk); otherwise, or on a failure, every element is scanned
    rep = law_by_generators(ext.group, lambda gs: _unfixed_scan(c, selected, gs),
                            premise=lambda: verify_cocycle(c).ok)
    if not rep.ok:
        raise RankDeficiencyError(rep.message, found=len(selected), expected=rank)

    natural = Matrix([[selected[j][i] for j in range(rank)] for i in range(rank)])
    return InvariantsResult(generators=selected, natural=natural,
                            base_prec=max(prec // ext.ram_index, 1),
                            fixed_dim=len(candidates))


def _unfixed_scan(c: Cocycle, vectors, gs):
    """Whether Phi(g) fixes every vector for g in gs: a Report whose failing
    detail is the first g that moves one of them."""
    for g in gs:
        for vec in vectors:
            img = c.apply(g, vec)
            if any(a.coeffs != b.coeffs for a, b in zip(img, vec)):
                return Report(False, f"extracted generator is not fixed by element {g}", g)
    return Report(True, "ok")


def invariants_product(m: ProductGModule) -> InvariantsResult:
    """Invariants of the glued module.

    A G-invariant section of the product is determined by its component-0
    part, which must be fixed by the component-0 isotropy action; the other
    components are theta-transports.  So this reduces to the component-0
    cocycle.
    """
    return invariants(m.spec.components[0].cocycle)


@dataclass
class InducedReport:
    induced: bool
    profile: list    # elementary divisor valuations of the natural map
    trust: int


def is_induced(m) -> InducedReport:
    """Whether the natural map V (x) R -> E is an isomorphism (unit determinant)."""
    inv = invariants_product(m) if isinstance(m, ProductGModule) else invariants(m)
    nt = inv.natural
    if nt.is_residue_invertible():
        return InducedReport(True, [0] * nt.rows, trust=nt.entries[0][0].prec)
    sf = smith(nt, transforms=False)
    profile = [d for d in sf.divisors]
    return InducedReport(False, profile, trust=sf.trust)


@dataclass
class TrivializeResult:
    found: bool           # True: B returned; False: proven impossible; None: inconclusive
    b: object             # Matrix or None
    stage: str
    detail: str
    proven: bool = False
    obstruction: object = None


def _verify_coboundary(c: Cocycle, b: Matrix) -> bool:
    """True iff B is invertible and A_g = B * psi(g)(B^{-1}) for every g.

    psi(g) is a ring map, so for an invertible B that relation is the fixed
    point law L(g): A_g * psi(g)(B) = B, which needs no inverse.  Under the
    cocycle law the generators suffice (groups.law_by_generators, with
    verify_cocycle as its premise): L(h) and L(g) give L(hg), since
    A_hg * psi(hg)(B) = A_h * psi(h)(A_g * psi(g)(B)) = A_h * psi(h)(B) = B.
    Every comparison is exact, coefficient for coefficient, mod s^N.
    """
    columns = [tuple(row[j] for row in b.entries) for j in range(b.cols)]
    return b.is_residue_invertible() and law_by_generators(
        c.ext.group, lambda gs: _unfixed_scan(c, columns, gs),
        premise=lambda: verify_cocycle(c).ok).ok


def trivialize(c: Cocycle, budget=None, rng=None) -> TrivializeResult:
    """Search B with A_g = B * psi(g)(B^{-1}) for all g.

    Stage 1 (averaging): B = sum_g A_g psi(g)(C) is always a fixed point of
    the twisted action; seeded candidates C are tried until one lands on a
    unit.  Stage 2 (residue): since the coefficient field is fixed
    pointwise, any solution forces A_g = I mod s; a nonidentity residue is a
    proven level-0 obstruction (equivalent to the exhaustive search over
    GL_r(k), whose candidate map is constant).  Stage 3 (linear fix + residue
    image): the fixed space {B : A_g psi(g)(B) = B} is solved exactly over k;
    a solution exists iff its residue image contains an invertible matrix,
    searched exhaustively when |k|^dim fits the budget.
    """
    from .prng import SplitMix64

    ext = c.ext
    field = ext.field
    rank, prec = c.rank, ext.prec
    cap = 10 ** 6 if budget is None else budget
    rng = rng or SplitMix64(0x0B5E55ED)

    # stage 1: averaging
    candidates = [Matrix.identity(field, rank, prec)]
    for _ in range(7):
        candidates.append(Matrix([[Series(field, prec,
                                          tuple(rng.randrange(field.order)
                                                for _ in range(prec)))
                                   for _ in range(rank)] for _ in range(rank)]))
    for cand in candidates:
        acc = None
        for g in range(ext.group.order):
            term = c.mats[g] * ext.psi(g)(cand)
            acc = term if acc is None else acc + term
        if acc.is_residue_invertible():
            if _verify_coboundary(c, acc):
                return TrivializeResult(True, acc, "averaging", "averaged fixed point",
                                        proven=True)

    # stage 2: residue obstruction
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for g in range(ext.group.order):
        if c.mats[g].residue() != ident:
            return TrivializeResult(
                False, None, "residue",
                f"residue cocycle is not the identity at element {g}; since the "
                "coefficient field is fixed pointwise, every candidate residue "
                "B * B^{-1} is the identity (exhaustive over GL_r(k))",
                proven=True, obstruction=g)

    # stage 3: linear fixed space and residue image.  B is fixed iff each of
    # its columns is, so the vector fixed space is placed in every column and
    # re-echelonized in B's coordinates (entry_starts); residues lists the
    # coordinates of B's constant terms, entry by entry
    dim = rank * rank * prec
    starts = entry_starts(rank, prec)
    residues = [s for row in starts for s in row]

    def in_column(v, j):
        out = [0] * dim
        for idx, x in enumerate(v):
            m, i = divmod(idx, rank)
            out[starts[i][j] + m] = x
        return out

    columns = fixed_space(c)
    kernel = echelonize(field, [in_column(v, j) for j in range(rank) for v in columns])
    if not kernel:
        return TrivializeResult(False, None, "fixed-space",
                                "the twisted fixed space is zero", proven=True)
    # residue image basis
    res_basis = echelonize(field, [[v[s] for s in residues] for v in kernel])
    d = len(res_basis)
    q = field.order
    found_combo, exhaustive = residue_search(field, res_basis, rank, cap)
    if exhaustive and found_combo is None:
        return TrivializeResult(
            False, None, "residue-image",
            f"exhaustive search over the {q}^{d} residue combinations found no "
            "invertible residue; no trivialization exists at this precision",
            proven=True)
    if not exhaustive:
        for trial in range(200):
            combo = [rng.randrange(q) for _ in range(d)]
            if is_invertible_combination(field, combo, res_basis, rank):
                found_combo = combo
                break
        if found_combo is None:
            return TrivializeResult(
                None, None, "budget",
                f"residue image dimension {d} exceeds the exhaustive budget and "
                "randomized search found no invertible residue", proven=False)

    # lift the residue choice to a full fixed-space element: solve for a
    # kernel combination whose residue equals the target
    target = combination(field, found_combo, res_basis, rank * rank)
    rows2 = [[v[s] for v in kernel] for s in residues]
    sol2 = solve_linear(field, rows2, target)
    if not sol2.consistent:
        return TrivializeResult(None, None, "lift",
                                "residue target not reachable (internal)", proven=False)
    coords = combination(field, sol2.particular, kernel, dim)
    b = coords_to_matrix(field, coords, rank, prec)
    if not _verify_coboundary(c, b):
        return TrivializeResult(None, None, "verify",
                                "lifted candidate failed re-verification", proven=False)
    detail = "exhaustive residue-image search" if exhaustive else "randomized residue choice"
    return TrivializeResult(True, b, "fixed-space", detail, proven=True)
