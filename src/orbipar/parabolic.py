"""Parabolic data, cover scenes, glued bundles, and the two functors.

A parabolic datum is (rank, per point: extension, cocycle Psi, gluing mu)
with mu an invertible Laurent matrix satisfying A_g * psi(g)(mu) = mu (the
matrix form of the equivariance of mu between the trivially-twisted and the
twisted generic actions).

A cover scene fixes the group G, and per branch point the extension, the
identification of the component-0 stabilizer with the inertia group, and a
transversal; components are the cosets, the index action is the coset
action, and every ring-level transport is psi(w) for w determined by the
transversal.  The generic part of a glued bundle is normalized to the
trivial twist (rank alone), so the generic comparison map in round trips is
the identity.

Inside a scenario run (see memo.py) the product module that T assembles at
a datum point is built once per scene point, group and connector family:
functor_T and the connector_independence command share it through
point_module, and T's glued point (module and taus) through glued_point.
The checks of validate_parabolic and verify_glued run once per datum point
and per glued point.  The memo is keyed on the ParabolicPoint (or the
GluedPoint), which the stored values do not reference, so an entry dies
with its datum.  The memo only caches: the premise of the mu, tau and sigma
laws' generator proofs is the memoized verify_cocycle itself, or
verify_action, which reads the Report an assembled module carries, so each
check takes the same proof in a run or outside one.
"""

from dataclasses import dataclass

from .equivariant import (Cocycle, ComponentSpec, ProductGModule, ProductGModuleSpec,
                          assemble_product, first_nonintertwining, is_induced,
                          make_connectors, verify_action, verify_cocycle)
from .errors import ConfigurationError, DomainError, OrbiparError, StructuralError
from .groups import Report, law_by_generators
from .linalg import Matrix, is_invertible
from .memo import memoized
from .series import Laurent, Series


# ---------------------------------------------------------------------------
# parabolic data


@dataclass(frozen=True)
class ParabolicPoint:
    label: str
    ext: object
    psi: Cocycle
    mu: Matrix       # Laurent entries

    def __post_init__(self):
        if self.psi.ext != self.ext:
            raise StructuralError("cocycle attached to a different extension")
        if self.mu.rows != self.psi.rank or self.mu.cols != self.psi.rank:
            raise StructuralError("mu has the wrong shape")


@dataclass(frozen=True)
class ParabolicDatum:
    rank: int
    points: tuple

    def __post_init__(self):
        _check_distinct_labels(self.points, "datum")

    def point(self, label):
        for pt in self.points:
            if pt.label == label:
                return pt
        raise StructuralError(f"no point labeled {label!r}")


def _check_distinct_labels(points, owner):
    """Points are looked up, and results keyed, by label, so no two may share one."""
    labels = [pt.label for pt in points]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise StructuralError(f"{owner} has two points labeled {label!r}")


def trivial_datum(rank, labeled_exts):
    """The trivial parabolic bundle: pure substitution action, identity gluing."""
    pts = []
    for label, ext in labeled_exts:
        mu = Matrix.identity(ext.field, rank, ext.prec).to_laurent()
        pts.append(ParabolicPoint(label=label, ext=ext,
                                  psi=Cocycle.trivial(ext, rank), mu=mu))
    return ParabolicDatum(rank=rank, points=tuple(pts))


def sign_twist_datum(field, prec, label="p"):
    """The referee example: rank 1 over Kummer(2), A_sigma = -1, mu = s."""
    from .local_galois import make_kummer

    ext = make_kummer(field, 2, prec)
    neg = Matrix([[Series.constant(field, field.ctx.neg(1), prec)]])
    psi = Cocycle(ext, 1, (Matrix.identity(field, 1, prec), neg))
    mu = Matrix([[Laurent.exact(field, 1, [1], prec)]])
    return ParabolicDatum(rank=1, points=(ParabolicPoint(label, ext, psi, mu),))


def check_mu_equivariance(ext, psi: Cocycle, mu: Matrix) -> Report:
    """Condition (b): A_g * psi(g)(mu) = mu on the common validity window.

    A failing Report's detail is (g, (i, j, exponent)), the first
    violation.  Proven on the generators (groups.law_by_generators) when
    verify_cocycle passes on psi; otherwise, or on a failure, the
    exhaustive scan of check_mu_equivariance_exhaustive decides.  The
    window argument, with x = mu and E_g = A_g psi(g)(x) - x:

    * Every A_g is a Series matrix at precision N: floor 0, length N.  The
      window psi(g) gives an entry depends on that entry's floor and length
      alone, not on g, and ends no later than the entry's own window.
    * So the window the check compares in entry (a, b) is the same for
      every g.  It ends at c_b, the least end over t of the windows of
      psi(g)(x_tb), since each term A_at psi(g)(x_tb) keeps that window;
      c_b is at most the end of x_ab's window.  Every window is honest: its
      coefficients are those of the true value for any lift of A, x and the
      action images.  So, lifts fixed, the check at g says that E_g
      vanishes below s^c_b in column b.
    * E_hk = A_h psi(h)(E_k) + E_h + (A_hk - A_h psi(h)(A_k)) psi(hk)(x)
      + A_h psi(h)(A_k) (psi(hk)(x) - psi(h)(psi(k)(x))).  The first two
      terms vanish below c_b when E_h and E_k do: A_h has no pole and psi
      keeps valuations.  The third is O(s^(N + f)) in column b, f its least
      floor in x, by the cocycle law mod s^N, and c_b <= N + f.  The last
      is O(s^e) in entry (t, b) by the extension's law mod s^N, e being the
      end of psi's window on x_tb (that window stops where the law mod s^N
      stops determining the value), and c_b <= e.
    * A check that raises for want of a window raises at every g alike.
    """
    return law_by_generators(ext.group, lambda gs: _mu_scan(ext, psi, mu, gs),
                             premise=lambda: verify_cocycle(psi).ok)


def check_mu_equivariance_exhaustive(ext, psi: Cocycle, mu: Matrix) -> Report:
    """check_mu_equivariance by a scan of every g in G: the reference."""
    return _mu_scan(ext, psi, mu, range(ext.group.order))


def _mu_scan(ext, psi, mu, gs):
    """Condition (b) at g for g in gs."""
    for g in gs:
        lhs = psi.mats[g].to_laurent() * ext.psi(g)(mu)
        mism = lhs.first_mismatch(mu)
        if mism is not None:
            return Report(False, f"element {g}, entry {mism[:2]}, exponent {mism[2]}",
                          (g, mism))
    return Report(True, "ok")


def validate_parabolic(d: ParabolicDatum) -> Report:
    """Conditions (a) and (b) and the invertibility of mu, point by point;
    the report of the first point that fails.  Each point's checks run once
    per run (memo table point_check)."""
    for pt in d.points:
        rep = memoized("point_check", pt, None, lambda: _check_point(pt))
        if not rep.ok:
            return rep
    return Report(True, "ok")


def _check_point(pt: ParabolicPoint) -> Report:
    """The report of the first check that fails at one datum point, or ok."""
    rep = verify_cocycle(pt.psi)
    if not rep.ok:
        return Report(False, f"condition (a) fails at {pt.label}: {rep.message}", rep)
    rep = check_mu_equivariance(pt.ext, pt.psi, pt.mu)
    if not rep.ok:
        return Report(False, f"condition (b) fails at {pt.label}, {rep.message}", rep.detail)
    if not is_invertible(pt.mu):
        return Report(False, f"mu at {pt.label} is not invertible")
    return Report(True, "ok")


# ---------------------------------------------------------------------------
# cover scenes


@dataclass(frozen=True)
class ScenePoint:
    label: str
    ext: object
    iso: tuple            # I-element -> G-element (component-0 stabilizer)
    transversal: tuple    # l coset representatives, transversal[0] = e

    def validate(self, group):
        i_ = self.ext.group
        if self.iso[0] != 0 or len(set(self.iso)) != i_.order:
            raise ConfigurationError(f"{self.label}: bad isotropy identification")
        for u in range(i_.order):
            for v in range(i_.order):
                if self.iso[i_.mul(u, v)] != group.mul(self.iso[u], self.iso[v]):
                    raise ConfigurationError(
                        f"{self.label}: isotropy identification is not a homomorphism")
        l = len(self.transversal)
        if self.transversal[0] != 0:
            raise ConfigurationError(f"{self.label}: transversal must start at identity")
        if l * i_.order != group.order:
            raise ConfigurationError(
                f"{self.label}: |G| = {group.order} != fiber {l} x inertia {i_.order}")
        stab = set(self.iso)
        seen = set()
        for t in self.transversal:
            coset = frozenset(group.mul(t, h) for h in stab)
            if coset in seen:
                raise ConfigurationError(f"{self.label}: transversal repeats a coset")
            seen.add(coset)

    def size(self):
        return len(self.transversal)

    def stabilizer(self):
        return set(self.iso)

    def component_of(self, group, g):
        """Index j with g in transversal[j] * G_0."""
        stab = self.stabilizer()
        for j, t in enumerate(self.transversal):
            if group.mul(group.inv(t), g) in stab:
                return j
        return None

    def perms(self, group):
        l = self.size()
        out = []
        for g in range(group.order):
            row = []
            for i in range(l):
                j = self.component_of(group, group.mul(g, self.transversal[i]))
                if j is None:
                    raise ConfigurationError(f"{self.label}: coset action broke down")
                row.append(j)
            out.append(tuple(row))
        return tuple(out)

    def q0(self, group, g):
        """I-element u with iso[u] = g (g must lie in the stabilizer)."""
        try:
            return self.iso.index(g)
        except ValueError:
            raise DomainError(f"{self.label}: element {g} not in the component-0 stabilizer")

    def ring_part(self, group, i, j, g):
        """w in I with the (j <- i) block of phi(g) equal to psi(w)."""
        t_i, t_j = self.transversal[i], self.transversal[j]
        return self.q0(group, group.mul(group.mul(group.inv(t_j), g), t_i))

    def component_iso(self, group, i):
        t = self.transversal[i]
        return tuple(group.conj(t, a) for a in self.iso)

    def default_seeds(self, group):
        return [group.mul(self.transversal[i + 1], group.inv(self.transversal[i]))
                for i in range(self.size() - 1)]


@dataclass(frozen=True)
class CoverScene:
    group: object
    points: tuple

    def __post_init__(self):
        _check_distinct_labels(self.points, "scene")
        for pt in self.points:
            pt.validate(self.group)

    def point(self, label):
        for pt in self.points:
            if pt.label == label:
                return pt
        raise StructuralError(f"scene has no point labeled {label!r}")


def totally_ramified_scene(ext, label="p"):
    """The l = 1 scene: G = I acting on a single component."""
    sp = ScenePoint(label=label, ext=ext,
                    iso=tuple(range(ext.group.order)), transversal=(0,))
    return CoverScene(group=ext.group, points=(sp,))


# ---------------------------------------------------------------------------
# glued bundles


@dataclass(frozen=True)
class GluedPoint:
    label: str
    scene_point: ScenePoint
    module: ProductGModule
    taus: tuple        # per component, Laurent Matrix


@dataclass(frozen=True)
class GluedBundle:
    rank: int
    scene: CoverScene
    points: tuple

    def point(self, label):
        for pt in self.points:
            if pt.label == label:
                return pt
        raise StructuralError(f"no glued point labeled {label!r}")


def verify_glued(b: GluedBundle) -> Report:
    """tau-equivariance Phi0(g) o tau = tau o phi0(g) blockwise, plus
    invertibility; the report of the first point that fails.  Each glued
    point is checked once per run and group (memo table glued_check)."""
    group = b.scene.group
    for pt in b.points:
        rep = memoized("glued_check", pt, group, lambda: _check_glued_point(pt, group))
        if not rep.ok:
            return rep
    return Report(True, "ok")


def _check_glued_point(pt: GluedPoint, group) -> Report:
    """The report of the first check that fails at one glued point, or ok."""
    for i, tau in enumerate(pt.taus):
        if not is_invertible(tau):
            return Report(False, f"tau_{i} at {pt.label} is not invertible")
    return check_tau_equivariance(pt, group)


def check_tau_equivariance(pt: GluedPoint, group) -> Report:
    """The ring parts of the formal and generic actions agree at every
    (g, i), and m * psi(w)(tau_i) = tau_j for each block (j, m, w) of
    Phi(g) on component i; the Report of the first failure, or ok.

    The ring parts are integers and are compared at every (g, i).  The tau
    law is proven on the generators (groups.law_by_generators) when
    verify_action passes on the module (it returns the Report that
    assemble_product proved and stored) and every tau_i has the same
    floor and length in each entry, as glued_point builds them (each is
    psi(w)(mu)); otherwise, or on a failure, the exhaustive scan of
    check_tau_equivariance_exhaustive decides.  The window argument is
    check_mu_equivariance's, with x = tau_i, the blocks m (Series at
    precision N) in place of A_g, and Phi(hg) = Phi(h) o Phi(g) in place of
    the cocycle law: with E_(g,i) = m psi(w)(tau_i) - tau_j, the law at
    (h, j) and (g, i) gives it at (hg, i).  As the taus share their window
    shapes, the window compared in entry (a, b) is the same for every g and
    every i.
    """
    def premise():
        shapes = {tuple((e.val_floor, len(e.coeffs)) for row in tau.to_laurent().entries
                        for e in row) for tau in pt.taus}
        return len(shapes) == 1 and verify_action(pt.module).ok

    return law_by_generators(group, lambda gs: _tau_scan(pt, group, gs), premise=premise)


def check_tau_equivariance_exhaustive(pt: GluedPoint, group) -> Report:
    """check_tau_equivariance by a scan of every g in G: the reference."""
    return _tau_scan(pt, group, range(group.order))


def _tau_scan(pt, group, gs):
    """The ring parts at every (g, i) and the tau law for g in gs, in the
    order g, then i."""
    spec = pt.module.spec
    ext = spec.ext
    sp = pt.scene_point
    for g in range(group.order):
        for i in range(spec.size):
            j, m, w = pt.module.phi[g][i]
            w_phi = sp.ring_part(group, i, j, g)
            if w != w_phi:
                return Report(False, f"ring parts of the formal and generic actions "
                              f"disagree at {pt.label}, element {g}, component {i}")
            if g not in gs:
                continue
            lhs = m.to_laurent() * ext.psi(w)(pt.taus[i])
            rhs = pt.taus[j]
            mism = lhs.first_mismatch(rhs)
            if mism is not None:
                return Report(False, f"tau-equivariance fails at {pt.label}, element {g}, "
                              f"component {i}, entry {mism[:2]}, exponent {mism[2]}",
                              (g, i, mism))
    return Report(True, "ok")


def _thetas_from_connectors(scene_point, group, connectors):
    """The connector blocks theta_ij = (identity, w_ij) as their ring parts w_ij."""
    l = scene_point.size()
    return tuple(tuple(scene_point.ring_part(group, i, j, connectors[i][j]) for j in range(l))
                 for i in range(l))


def build_spec_from_scene(scene_point: ScenePoint, group, psi: Cocycle,
                          connectors=None) -> ProductGModuleSpec:
    """The functor-T product specification at one point.

    Component 0 carries Psi; component i carries the conjugated cocycle
    theta_{0i} o Psi(g_{0i}^{-1} a g_{0i}) o theta_{0i}^{-1} = (psi(w_0i)(A_{u_inner}),
    w_0i u_inner w_0i^{-1}), whose ring part collapses to the inertia element of a, as
    asserted.
    """
    ext = scene_point.ext
    i_ = ext.group
    perms = scene_point.perms(group)
    connectors = _resolve_connectors(scene_point, group, connectors)
    thetas = _thetas_from_connectors(scene_point, group, connectors)
    comps = [ComponentSpec(iso=scene_point.iso, cocycle=psi)]
    for i in range(1, scene_point.size()):
        iso_i = scene_point.component_iso(group, i)
        g_0i, w_0i = connectors[0][i], thetas[0][i]
        mats = []
        for u in range(i_.order):
            a = iso_i[u]
            inner = group.mul(group.mul(group.inv(g_0i), a), g_0i)
            u_inner = scene_point.q0(group, inner)
            if i_.mul(w_0i, u_inner) != i_.mul(u, w_0i):  # w_0i u_inner w_0i^{-1} != u
                raise ConfigurationError(
                    "conjugated component action has unexpected ring part "
                    f"(component {i}, isotropy element {u})")
            mats.append(ext.psi(w_0i)(psi.mats[u_inner]))
        comps.append(ComponentSpec(iso=iso_i, cocycle=Cocycle(ext, psi.rank, tuple(mats))))
    return ProductGModuleSpec(group=group, ext=ext, components=tuple(comps),
                              perms=perms, connectors=connectors, thetas=thetas)


def _resolve_connectors(scene_point, group, connectors):
    """The connector family as a tuple of tuples; None means the one the
    scene transversal seeds give."""
    if connectors is None:
        connectors = make_connectors(group, scene_point.perms(group),
                                     scene_point.default_seeds(group))
    return tuple(map(tuple, connectors))


def point_module(dpt: ParabolicPoint, scene_point: ScenePoint, group,
                 connectors=None) -> ProductGModule:
    """The assembled product module of T at one datum point; connectors
    default to the scene transversal seeds.  Memoized in a run per datum
    point, scene point, group and resolved connector family."""
    connectors = _resolve_connectors(scene_point, group, connectors)
    return memoized("point_module", dpt, (scene_point, group, connectors),
                    lambda: assemble_product(build_spec_from_scene(
                        scene_point, group, dpt.psi, connectors=connectors)))


def glued_point(dpt: ParabolicPoint, scene_point: ScenePoint, group,
                connectors=None) -> GluedPoint:
    """T at one datum point: its module and mu transported to every
    component.  Memoized in a run like point_module."""
    connectors = _resolve_connectors(scene_point, group, connectors)

    def build():
        module = point_module(dpt, scene_point, group, connectors)
        taus = tuple(dpt.ext.psi(module.spec.thetas[0][i])(dpt.mu)
                     for i in range(scene_point.size()))
        return GluedPoint(label=dpt.label, scene_point=scene_point, module=module, taus=taus)

    return memoized("glued_point", dpt, (scene_point, group, connectors), build)


def functor_T(d: ParabolicDatum, scene: CoverScene) -> GluedBundle:
    """Parabolic datum -> glued bundle: assemble the formal parts and transport mu.

    Each point takes the connector family of the scene transversal seeds.  In
    a run each glued point is built and checked once.
    """
    pts = []
    for dpt in d.points:
        sp = scene.point(dpt.label)
        if sp.ext != dpt.ext:
            raise ConfigurationError(
                f"scene and datum disagree on the extension at {dpt.label}")
        pts.append(glued_point(dpt, sp, scene.group))
    b = GluedBundle(rank=d.rank, scene=scene, points=tuple(pts))
    rep = verify_glued(b)
    if not rep.ok:
        raise ConfigurationError(f"functor_T produced an invalid glued bundle: "
                                 f"{rep.message}")
    return b


@dataclass
class SResult:
    datum: ParabolicDatum
    sigmas: dict              # label -> Matrix (iota^{-1})
    induced: dict             # label -> bool


def functor_S(b: GluedBundle) -> SResult:
    """Glued bundle -> parabolic datum via invariants of the formal parts.

    The identification iota of V (x) R with component 0 is is_induced's:
    the natural map when unimodular, else the unimodular U-factor of its
    Smith decomposition; the leftover discrepancy lands in mu =
    iota^{-1} tau_0.
    """
    pts = []
    sigmas = {}
    induced = {}
    for gpt in b.points:
        spec = gpt.module.spec
        ext = spec.ext
        rep = is_induced(gpt.module)
        induced[gpt.label] = rep.induced
        iota_inv = rep.iota.inverse()
        a0 = spec.components[0].cocycle
        mats = tuple(iota_inv * a0.mats[g] * ext.psi(g)(rep.iota)
                     for g in range(ext.group.order))
        psi = Cocycle(ext, b.rank, mats)
        mu = iota_inv.to_laurent() * gpt.taus[0]
        pts.append(ParabolicPoint(label=gpt.label, ext=ext, psi=psi, mu=mu))
        sigmas[gpt.label] = iota_inv
    datum = ParabolicDatum(rank=b.rank, points=tuple(pts))
    rep = validate_parabolic(datum)
    if not rep.ok:
        raise ConfigurationError(f"functor_S produced an invalid datum: {rep.message}")
    return SResult(datum=datum, sigmas=sigmas, induced=induced)


# ---------------------------------------------------------------------------
# morphisms and round trips


def base_to_point(ext, g_matrix: Matrix) -> Matrix:
    """Re-expand a matrix over the base ring (series in t) at the point (series in s)."""
    from .local_galois import evaluate_in_base

    return g_matrix.map(lambda e: evaluate_in_base(ext, e))


def validate_parabolic_morphism(src: ParabolicDatum, dst: ParabolicDatum,
                                g_matrix: Matrix, sigmas: dict) -> Report:
    """A morphism (g, {sigma_x}): I-equivariance of each sigma and the mu square
    mu' o (g (x) Id) = sigma^0 o mu."""
    if {p.label for p in src.points} != {p.label for p in dst.points}:
        raise StructuralError("morphism endpoints have different supports")
    for spt in src.points:
        dpt = dst.point(spt.label)
        if spt.ext != dpt.ext:
            raise StructuralError(f"extensions differ at {spt.label}")
        sigma = sigmas[spt.label]
        rep = check_sigma_equivariance(spt, dpt, sigma)
        if not rep.ok:
            return rep
        g_local = base_to_point(spt.ext, g_matrix).to_laurent()
        lhs = dpt.mu * g_local
        rhs = sigma.to_laurent() * spt.mu
        mism = lhs.first_mismatch(rhs)
        if mism is not None:
            return Report(False, f"mu square fails at {spt.label}, entry {mism[:2]}, "
                          f"exponent {mism[2]}", mism)
    return Report(True, "ok")


def check_sigma_equivariance(spt: ParabolicPoint, dpt: ParabolicPoint, sigma: Matrix):
    """sigma * A1_a = A2_a * psi(a)(sigma) for every a in I, A1 and A2 the
    cocycles at spt and dpt; the Report of the first failure, or ok.

    The law at a and at b gives it at ab, by both cocycle laws:
    sigma A1_ab = sigma A1_a psi(a)(A1_b) = A2_a psi(a)(sigma A1_b) =
    A2_a psi(a)(A2_b) psi(ab)(sigma) = A2_ab psi(ab)(sigma), an identity of
    Series matrices mod s^N, so no validity window enters.  So it is proven
    on the generators (groups.law_by_generators) when sigma is a Series
    matrix and verify_cocycle passes on both cocycles; otherwise, or on a
    failure, the exhaustive scan of check_sigma_equivariance_exhaustive
    decides.
    """
    return law_by_generators(
        spt.ext.group, lambda xs: _sigma_scan(spt, dpt, sigma, xs),
        premise=lambda: (sigma.kind is Series and verify_cocycle(spt.psi).ok
                         and verify_cocycle(dpt.psi).ok))


def check_sigma_equivariance_exhaustive(spt: ParabolicPoint, dpt: ParabolicPoint,
                                        sigma: Matrix) -> Report:
    """check_sigma_equivariance by a scan of every a in I: the reference."""
    return _sigma_scan(spt, dpt, sigma, range(spt.ext.group.order))


def _sigma_scan(spt, dpt, sigma, xs):
    """The sigma law at a for a in xs."""
    ext = spt.ext
    for a in xs:
        lhs = sigma * spt.psi.mats[a]
        rhs = dpt.psi.mats[a] * ext.psi(a)(sigma)
        if not lhs.agrees_with(rhs):
            return Report(False, f"sigma at {spt.label} is not equivariant at element {a}", a)
    return Report(True, "ok")


@dataclass
class RoundtripReport:
    ok: bool
    message: str
    per_point: dict          # label -> dict of step results
    sigmas: dict = None      # label -> Matrix (S o T isomorphism)
    rhos: dict = None        # label -> list of Matrix (T o S isomorphism blocks)


def roundtrip_check(d: ParabolicDatum, scene: CoverScene) -> RoundtripReport:
    """Both round trips with explicit verified isomorphisms.

    S(T(d)) ~ d via (identity on V, sigma = iota^{-1}); T(S(T(d))) ~ T(d) via
    rho_i = theta~_{0i} o iota^{-1} o theta_{0i}^{-1} blockwise, with the
    generic comparison map normalized to the identity so the gluing square
    reads tau~_i = rho_i o tau_i.  Both glued bundles sit on one scene, so
    their connector blocks agree, theta~_{0i} = theta_{0i} = (identity, w_0i),
    and (I, w) o (M, u) = (psi(w)(M), w u) makes rho_i the R-linear block
    psi(w_0i)(iota^{-1}).  first_nonintertwining and the gluing square
    verify every rho_i.
    """
    per_point = {}
    val = validate_parabolic(d)
    if not val.ok:
        return RoundtripReport(False, f"input datum invalid: {val.message}", {})
    b = functor_T(d, scene)
    sres = functor_S(b)
    d2 = sres.datum

    sigmas = sres.sigmas
    g_ident = None
    for dpt in d.points:
        base_prec = max(dpt.ext.prec // dpt.ext.ram_index, 1)
        g_ident = Matrix.identity(dpt.ext.field, d.rank, base_prec)
        break
    st_rep = validate_parabolic_morphism(d, d2, g_ident, sigmas)
    per_point["S.T"] = st_rep.message
    if not st_rep.ok:
        return RoundtripReport(False, f"S o T isomorphism failed: {st_rep.message}",
                               per_point, sigmas=sigmas)

    b2 = functor_T(d2, scene)
    rhos = {}
    for gpt in b.points:
        label = gpt.label
        gpt2 = b2.point(label)
        spec, spec2 = gpt.module.spec, gpt2.module.spec
        if spec2.thetas[0] != spec.thetas[0]:
            return RoundtripReport(False, f"transport blocks disagree at {label}", per_point)
        blocks = [spec.ext.psi(w)(sigmas[label]) for w in spec.thetas[0]]
        # rho equivariance: rho_j o Phi(g) = Phi~(g) o rho_i blockwise
        rep = first_nonintertwining(gpt.module, gpt2.module, blocks)
        if not rep.ok:
            msg = ("incompatible index bookkeeping" if rep.detail[2]
                   else f"rho equivariance fails at {label}, {rep.message}")
            return RoundtripReport(False, msg, per_point)
        # gluing square: tau~_i = rho_i o tau_i (generic comparison = identity)
        for i, rho in enumerate(blocks):
            mism = gpt2.taus[i].first_mismatch(rho.to_laurent() * gpt.taus[i])
            if mism is not None:
                return RoundtripReport(
                    False, f"gluing square fails at {label}, component {i}, "
                    f"entry {mism[:2]}, exponent {mism[2]}", per_point)
        rhos[label] = blocks
        per_point[label] = {"S.T": "pass", "T.S": "pass",
                            "induced": sres.induced[label]}
    return RoundtripReport(True, "both round trips close with explicit isomorphisms",
                           per_point, sigmas=sigmas, rhos=rhos)


def multipoint_map(d: ParabolicDatum, scene: CoverScene) -> RoundtripReport:
    """Pointwise functors with per-point aggregation: an orbipar error at one
    point is reported for that point; any other exception propagates."""
    per_point = {}
    ok = True
    sigmas = {}
    rhos = {}
    for dpt in d.points:
        sub_d = ParabolicDatum(rank=d.rank, points=(dpt,))
        sub_scene = CoverScene(group=scene.group, points=(scene.point(dpt.label),))
        try:
            rep = roundtrip_check(sub_d, sub_scene)
            per_point[dpt.label] = rep.per_point.get(dpt.label, rep.message)
            if rep.sigmas:
                sigmas.update(rep.sigmas)
            if rep.rhos:
                rhos.update(rep.rhos)
            ok = ok and rep.ok
        except OrbiparError as exc:
            per_point[dpt.label] = f"error: {exc}"
            ok = False
    return RoundtripReport(ok, "pointwise round trips " + ("pass" if ok else "fail"),
                           per_point, sigmas=sigmas, rhos=rhos)


# ---------------------------------------------------------------------------
# seeded random data


def random_unimodular(field, rank, prec, rng):
    from .linalg import residue_det

    while True:
        m = Matrix([[Series(field, prec, tuple(rng.randrange(field.order)
                                               for _ in range(prec)))
                     for _ in range(rank)] for _ in range(rank)])
        if residue_det(field, m.residue()) != 0:
            return m


def random_base_unimodular(ext, rank, rng):
    """Unimodular matrix with entries that are series in t (re-expanded in s)."""
    from .linalg import residue_det
    from .local_galois import evaluate_in_base

    field = ext.field
    base_prec = max(ext.prec // ext.ram_index, 1)
    while True:
        coeffs = [[[rng.randrange(field.order) for _ in range(base_prec)]
                   for _ in range(rank)] for _ in range(rank)]
        if residue_det(field, [[coeffs[i][j][0] for j in range(rank)]
                               for i in range(rank)]) != 0:
            break
    return Matrix([[evaluate_in_base(ext, Series(field, base_prec,
                                                 tuple(coeffs[i][j])))
                    for j in range(rank)] for i in range(rank)])


def random_datum(ext, rank, rng, label="p", character_exponent=0):
    """Coboundary-times-character cocycle with a compatible random mu.

    A_g = B chi(g) psi(g)(B^{-1}); mu = B * s^d I * W(t) with d killing the
    character and W a random unimodular base matrix, so condition (b) holds
    by construction.
    """
    from .equivariant import coboundary

    field = ext.field
    n = ext.group.order
    b = random_unimodular(field, rank, ext.prec, rng)
    character = None
    d_shift = 0
    if character_exponent % n != 0:
        zeta = field.root_of_unity(n)
        a = character_exponent % n
        character = tuple(field.pow(zeta, (a * g) % n) for g in range(n))
        d_shift = (n - a) % n
    coc = coboundary(ext, b, character=character)
    w = random_base_unimodular(ext, rank, rng)
    mu = (b * w).to_laurent().shift(d_shift)
    return ParabolicDatum(rank=rank,
                          points=(ParabolicPoint(label=label, ext=ext, psi=coc, mu=mu),))
