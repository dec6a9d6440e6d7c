"""Differential tests of the fast checks against their references.

Every group-law check here returns a groups.Report, and a fast report
must equal its reference's whole: ok, message and detail.
verify_cocycle, verify_action, verify_extension and PushedBundle.verify
prove their group laws on the generators and fall back to the exhaustive
scan on a failure; their reports must equal those of
verify_cocycle_exhaustive, verify_action_exhaustive,
verify_extension_exhaustive and PushedBundle.verify_exhaustive, on valid
inputs and on inputs corrupted at one generator value or at one other
value (for the pushed bundle: at a non-generator, or at one tau
coefficient, with tau's entries of one window shape or of several).  A
module that assemble_product returns carries the Report of its assembly
lemma instead, which verify_action returns: it must equal the exhaustive
scan's on plain and character-twisted cocycles under both connector
families, assembling from a cocycle must scan and compare no glued block,
and isotropy that moves its component must fail the restriction law.  The
unary laws (check_mu_equivariance, check_tau_equivariance,
first_nonintertwining, check_sigma_equivariance) are proven on the
generators only under their premise, the memoized verify_cocycle or
verify_action; their reports must equal those of the
*_exhaustive scans on valid data, on data corrupted at one coefficient,
on cocycles and modules corrupted off the generators (where the premise
must force the exhaustive answer), and on a mu with negative floors and
unequal entry windows.  trivialize's coboundary check, the fixed point law
A_g psi(g)(B) = B proven on the generators under verify_cocycle, must
agree with the inverse form it replaced, A_g = B psi(g)(B^{-1}) over
every g.  The fast checks run outside a run, where the premise is
computed, and inside a scenario run whose memo holds their premises, as
in `orbipar run`.  is_invertible must be False exactly where
Matrix.inverse raises, and agree with the Smith form of the series part.
"""

from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from orbipar import equivariant, linalg, parabolic
from orbipar.equivariant import (Cocycle, ComponentSpec, ProductGModule, ProductGModuleSpec,
                                 assemble_product, coboundary, first_nonintertwining,
                                 first_nonintertwining_exhaustive, independence_intertwiner,
                                 make_connectors, verify_action, verify_action_exhaustive,
                                 verify_cocycle, verify_cocycle_exhaustive, verify_spec)
from orbipar.errors import AssemblyError, OrbiparError, RankDeficiencyError, StructuralError
from orbipar.fields import make_field
from orbipar.groups import Report, cyclic, dihedral, direct_product
from orbipar.linalg import Matrix, is_invertible, series_part, smith
from orbipar.local_galois import (LocalExtension, make_artin_schreier, make_kummer,
                                  trivial_extension, verify_extension,
                                  verify_extension_exhaustive)
from orbipar.memo import run_scope
from orbipar.parabolic import (GluedPoint, ParabolicDatum, ParabolicPoint, ScenePoint,
                               build_spec_from_scene, check_mu_equivariance,
                               check_mu_equivariance_exhaustive, check_sigma_equivariance,
                               check_sigma_equivariance_exhaustive, check_tau_equivariance,
                               check_tau_equivariance_exhaustive, functor_T, glued_point,
                               random_datum, random_unimodular, totally_ramified_scene)
from orbipar.prng import SplitMix64
from orbipar.pvect import pushforward_local
from orbipar.series import Laurent, Series

from cocycle_twist import twist

N = 8

EXTENSIONS = [lambda: make_kummer(make_field(7), 3, N),
              lambda: make_kummer(make_field(13), 4, N),
              lambda: make_kummer(make_field(13), 6, N),
              lambda: make_artin_schreier(make_field(2), N),
              lambda: make_artin_schreier(make_field(3), N),
              lambda: make_artin_schreier(make_field(3, 2), N),
              lambda: trivial_extension(make_field(5), N)]


def _scenes():
    """(scene point, group) pairs: cyclic, dihedral and non-cyclic abelian G."""
    k3 = make_kummer(make_field(7), 3, N)
    k4 = make_kummer(make_field(13), 4, N)
    k2 = make_kummer(make_field(5), 2, N)
    return [(ScenePoint("p", k3, (0, 2, 4), (0, 1)), cyclic(6)),
            (ScenePoint("p", k4, (0, 1, 2, 3), (0, 4)), dihedral(4)),
            (ScenePoint("p", k2, (0, 1), (0, 2)), direct_product(cyclic(2), cyclic(2))),
            (ScenePoint("p", k3, (0, 1, 2), (0,)), cyclic(3))]


SCENES = _scenes()
# per scene, the seeds of a second connector family (the first is the scene's)
SEEDS2 = [[3], [5], [3], []]


def _bump(m, i, j, k):
    """m with coefficient k of entry (i, j) changed."""
    rows = [list(r) for r in m.entries]
    e = rows[i][j]
    coeffs = list(e.coeffs)
    coeffs[k] = (coeffs[k] + 1) % e.field.order
    rows[i][j] = Series(e.field, e.prec, tuple(coeffs))
    return Matrix(rows)


def _target(group, where, pick):
    """The element to corrupt: a generator, or an element that is not one."""
    gens = group.generators()
    pool = gens if where == "generator" else [x for x in range(group.order) if x not in gens]
    return pool[pick % len(pool)] if pool else None


corruption = st.sampled_from(["none", "generator", "other"])


@settings(max_examples=40, deadline=None)
@given(ext_i=st.integers(0, len(EXTENSIONS) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), twisted=st.booleans(), where=corruption,
       pick=st.integers(0, 7), i=st.integers(0, 1), j=st.integers(0, 1),
       k=st.integers(0, N - 1))
def test_verify_cocycle_equals_exhaustive(ext_i, rank, seed, twisted, where, pick, i, j, k):
    ext = EXTENSIONS[ext_i]()
    field, n = ext.field, ext.group.order
    character = None
    if twisted and n > 1 and (field.order - 1) % n == 0:
        zeta = field.root_of_unity(n)
        character = tuple(field.pow(zeta, g) for g in range(n))
    c = coboundary(ext, random_unimodular(field, rank, N, SplitMix64(seed)),
                   character=character)
    x = _target(ext.group, where, pick) if where != "none" else None
    if x is not None:
        mats = list(c.mats)
        mats[x] = _bump(mats[x], i % rank, j % rank, k)
        c = Cocycle(ext, rank, tuple(mats))
    fast, ref = verify_cocycle(c), verify_cocycle_exhaustive(c)
    assert fast == ref
    assert ref.ok or x is not None


def _character(ext):
    """g -> zeta^g for a primitive |I|-th root of unity zeta in k (every
    inertia group of SCENES is cyclic of order dividing |k*|)."""
    zeta = ext.field.root_of_unity(ext.group.order)
    return tuple(ext.field.pow(zeta, g) for g in range(ext.group.order))


def _assembled(scene_i, rank, seed, twisted, family):
    """assemble_product on a coboundary, twisted by a character or not,
    under the scene's connector family or the SEEDS2 one."""
    sp, group = SCENES[scene_i]
    ext = sp.ext
    psi = coboundary(ext, random_unimodular(ext.field, rank, N, SplitMix64(seed)),
                     character=_character(ext) if twisted else None)
    connectors = (make_connectors(group, sp.perms(group), SEEDS2[scene_i])
                  if family == "seeds2" else None)
    return assemble_product(build_spec_from_scene(sp, group, psi, connectors=connectors))


def test_seeds2_families_have_ring_parts():
    """The SEEDS2 connector families of the multi-component scenes give
    some theta a ring part other than e; the scenes' own families do not."""
    for scene_i in range(3):
        sp, group = SCENES[scene_i]
        psi = Cocycle.trivial(sp.ext, 1)
        spec = build_spec_from_scene(sp, group, psi)
        spec2 = build_spec_from_scene(sp, group, psi, connectors=make_connectors(
            group, sp.perms(group), SEEDS2[scene_i]))
        assert not any(map(any, spec.thetas)) and any(map(any, spec2.thetas))


@settings(max_examples=40, deadline=None)
@given(scene_i=st.integers(0, len(SCENES) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), twisted=st.booleans(),
       family=st.sampled_from(["scene", "seeds2"]), where=corruption,
       part=st.sampled_from(["m", "w"]), pick=st.integers(0, 7), comp=st.integers(0, 1),
       i=st.integers(0, 1), j=st.integers(0, 1), k=st.integers(0, N - 1))
def test_verify_action_equals_exhaustive(scene_i, rank, seed, twisted, family, where, part,
                                         pick, comp, i, j, k):
    """On every module assemble_product returns, the Report of its assembly
    lemma equals the exhaustive scan's; on a module corrupted by hand, the
    generator proof does."""
    sp, group = SCENES[scene_i]
    ext = sp.ext
    module = _assembled(scene_i, rank, seed, twisted, family)
    assert module.law == Report(True, "ok")
    x = _target(group, where, pick) if where != "none" else None
    if x is not None:
        phi = [list(blocks) for blocks in module.phi]
        comp %= module.size
        tgt, m, w = phi[x][comp]
        if part == "m":
            phi[x][comp] = (tgt, _bump(m, i % rank, j % rank, k), w)
        else:
            phi[x][comp] = (tgt, m, ext.group.mul(w, 1 % ext.group.order))
        module = ProductGModule(spec=module.spec, phi=tuple(map(tuple, phi)))
    fast, ref = verify_action(module), verify_action_exhaustive(module)
    assert fast == ref
    assert ref.ok or x is not None


def _count_calls(monkeypatch, *targets):
    """The names of the (owner, name) targets, in the order they are called."""
    calls = []
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("in_run", [False, True], ids=["outside-a-run", "in-a-run"])
def test_assembly_from_a_cocycle_scans_and_compares_no_block(monkeypatch, in_run):
    """Assembling from a valid cocycle, plain or twisted by a character,
    under either connector family, proves the action law by the assembly
    lemma and the restriction law by an integer check: neither the scan
    _action_report nor Matrix.agrees_with runs, in a run or out of one, and
    verify_action returns the module's Report."""
    calls = _count_calls(monkeypatch, (equivariant, "_action_report"),
                         (linalg.Matrix, "agrees_with"))
    modules = []
    with run_scope() if in_run else nullcontext():
        for scene_i in range(len(SCENES)):
            for twisted in (False, True):
                for family in ("scene", "seeds2"):
                    module = _assembled(scene_i, 2, 7 + scene_i, twisted, family)
                    assert verify_action(module) is module.law
                    modules.append(module)
    assert calls == []
    monkeypatch.undo()
    assert all(verify_action_exhaustive(m) == Report(True, "ok") for m in modules)


def test_isotropy_that_moves_its_component_fails_the_restriction_law():
    """G = Z/2 swaps two components and iso_0 = iso_1 = the identity map of
    Z/2, so iso_1[1] moves component 1 (and, as (C) forces, iso_0[1]
    moves component 0).  (A)-(C) hold, every g factors and the glued
    blocks form a group action, but Phi restricted to G_i is not Phi_i:
    the restriction law fails, first on component 0."""
    ext = make_kummer(make_field(5), 2, N)
    psi = coboundary(ext, random_unimodular(ext.field, 2, N, SplitMix64(5)))
    comp = ComponentSpec(iso=(0, 1), cocycle=psi)
    spec = ProductGModuleSpec(group=cyclic(2), ext=ext, components=(comp, comp),
                              perms=((0, 1), (1, 0)), connectors=((0, 1), (1, 0)),
                              thetas=((0, 0), (0, 0)))
    verify_spec(spec)
    with pytest.raises(AssemblyError) as exc:
        assemble_product(spec)
    assert (exc.value.condition, exc.value.indices) == ("restriction", (0, 1))
    assert str(exc.value) == "restriction law fails on component 0 at isotropy element 1"


def test_non_cocycle_is_scanned_and_violates_the_group_law(monkeypatch):
    """Component 0's cocycle changed at 2, which is not a generator of I =
    Z/3: build_spec_from_scene conjugates it to component 1, so (A)-(C)
    hold, but the lemma's premise fails, and the scan finds the glued
    blocks no group action."""
    sp, group = SCENES[0]
    bad = _bump_cocycle(coboundary(sp.ext, random_unimodular(sp.ext.field, 2, N,
                                                             SplitMix64(9))), 2, 0, 1, 3)
    assert not verify_cocycle(bad).ok
    spec = build_spec_from_scene(sp, group, bad)
    verify_spec(spec)
    calls = _count_calls(monkeypatch, (equivariant, "_action_report"))
    with pytest.raises(AssemblyError) as exc:
        assemble_product(spec)
    assert exc.value.condition == "law" and calls
    assert str(exc.value).startswith("assembled action violates the group law: ")


def test_zero_cocycle_is_scanned_and_assembles(monkeypatch):
    """A_g = 0 for every g satisfies A_hg = A_h psi(h)(A_g) but not A_e = I,
    so the lemma's premise fails; the scan then finds the zero blocks a
    group action, and the module carries the scan's passing Report."""
    sp, group = SCENES[0]
    zero = Matrix([[Series.zero(sp.ext.field, N)]])
    c = Cocycle(sp.ext, 1, (zero,) * sp.ext.group.order)
    assert not verify_cocycle(c).ok
    calls = _count_calls(monkeypatch, (equivariant, "_action_report"))
    module = assemble_product(build_spec_from_scene(sp, group, c))
    assert calls and verify_action(module) is module.law
    assert module.law == verify_action_exhaustive(module) == Report(True, "ok")


@settings(max_examples=30, deadline=None)
@given(ext_i=st.integers(0, len(EXTENSIONS) - 1), where=corruption, pick=st.integers(0, 7),
       k=st.integers(2, N - 1))
def test_verify_extension_equals_exhaustive(ext_i, where, pick, k):
    ext = EXTENSIONS[ext_i]()
    x = _target(ext.group, where, pick) if where != "none" else None
    if x is not None:
        action = list(ext.action)
        coeffs = list(action[x].coeffs)
        coeffs[k] = (coeffs[k] + 1) % ext.field.order
        action[x] = Series(ext.field, N, tuple(coeffs))
        ext = LocalExtension(field=ext.field, prec=N, group=ext.group, action=tuple(action),
                             base_uniformizer=ext.base_uniformizer, ram_index=ext.ram_index)
    ref = verify_extension_exhaustive(ext)
    assert verify_extension(ext) == ref
    assert ref.ok or x is not None


def test_failure_off_the_generators_reports_the_exhaustive_pair():
    """Z/6 has the single generator 1; a cocycle corrupted at 3 first fails
    at (1, 2), where A_3 = A_1 psi(1)(A_2) is compared, and the report is
    the exhaustive scan's."""
    ext = make_kummer(make_field(13), 6, N)
    assert ext.group.generators() == [1]
    c = coboundary(ext, random_unimodular(ext.field, 2, N, SplitMix64(3)))
    mats = list(c.mats)
    mats[3] = _bump(mats[3], 1, 0, 2)
    bad = Cocycle(ext, 2, tuple(mats))
    rep = verify_cocycle(bad)
    assert rep == verify_cocycle_exhaustive(bad)
    assert not rep.ok and rep.detail == (1, 2) and "entry (1, 0)" in rep.message


def _bump_laurent(m, i, j, k):
    """m (Laurent entries) with coefficient k of entry (i, j)'s window changed."""
    rows = [list(r) for r in m.entries]
    e = rows[i][j]
    coeffs = list(e.coeffs)
    k %= len(coeffs)
    coeffs[k] = (coeffs[k] + 1) % e.field.order
    rows[i][j] = Laurent(e.field, e.val_floor, tuple(coeffs))
    return Matrix(rows)


def _bump_cocycle(c, x, i, j, k):
    mats = list(c.mats)
    mats[x] = _bump(mats[x], i % c.rank, j % c.rank, k)
    return Cocycle(c.ext, c.rank, tuple(mats))


def _bump_phi(module, x, comp, i, j, k):
    """module with the matrix part of Phi(x) on component comp changed: a
    hand-built module whose action is no longer a group action."""
    phi = [list(blocks) for blocks in module.phi]
    tgt, m, w = phi[x][comp % module.size]
    phi[x][comp % module.size] = (tgt, _bump(m, i % m.rows, j % m.rows, k), w)
    return ProductGModule(spec=module.spec, phi=tuple(map(tuple, phi)))


def _dual_of_diag_gluing(ext, seed):
    """The dual of the rank-2 gluing A_g = diag(zeta^-g, 1), mu = diag(s, 1),
    written down exactly: A*_g = diag(zeta^g, 1), mu* = diag(s^-1, 1), then
    twisted by a random unimodular B.  B^-1 mu* has a negative floor, and
    its columns have different windows."""
    field, n = ext.field, ext.group.order
    zeta = field.root_of_unity(n)
    zero, one = Series.zero(field, N), Series.one(field, N)
    mats = tuple(Matrix([[Series.constant(field, field.pow(zeta, g), N), zero],
                         [zero, one]]) for g in range(n))
    b = random_unimodular(field, 2, N, SplitMix64(seed))
    mu = Matrix([[Laurent.exact(field, -1, [1], N), Laurent.zero(field, N)],
                 [Laurent.zero(field, N), Laurent.exact(field, 0, [1], N)]])
    return ParabolicPoint("p", ext, twist(Cocycle(ext, 2, mats), b),
                          b.inverse().to_laurent() * mu)


def _datum_point(ext, rank, seed, shape):
    if shape == "dual-diag" and (ext.field.order - 1) % ext.group.order == 0:
        return _dual_of_diag_gluing(ext, seed)
    return random_datum(ext, rank, SplitMix64(seed)).points[0]


def test_dual_of_diag_gluing_has_negative_floors_and_unequal_windows():
    pt = _dual_of_diag_gluing(make_kummer(make_field(13), 4, N), 5)
    windows = {e.window for row in pt.mu.entries for e in row}
    assert min(lo for lo, _ in windows) < 0 and len(windows) > 1
    assert verify_cocycle_exhaustive(pt.psi).ok
    assert check_mu_equivariance_exhaustive(pt.ext, pt.psi, pt.mu).ok


unary_corruption = st.sampled_from(["none", "value", "generator", "other"])


def _in_run(call, *premises):
    """call() inside a scenario run whose memo holds the premise checks
    (verify_cocycle or verify_action calls), as the fast paths need."""
    with run_scope():
        for check in premises:
            check()
        return call()


@settings(max_examples=40, deadline=None)
@given(ext_i=st.integers(0, len(EXTENSIONS) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(["random", "dual-diag"]),
       where=unary_corruption, pick=st.integers(0, 7), i=st.integers(0, 1),
       j=st.integers(0, 1), k=st.integers(0, N - 1))
def test_mu_equivariance_equals_exhaustive(ext_i, rank, seed, shape, where, pick, i, j, k):
    pt = _datum_point(EXTENSIONS[ext_i](), rank, seed, shape)
    ext, psi, mu = pt.ext, pt.psi, pt.mu
    if where == "value":
        mu = _bump_laurent(mu, i % mu.rows, j % mu.rows, k)
    elif where != "none":
        x = _target(ext.group, where, pick)
        if x is not None:
            psi = _bump_cocycle(psi, x, i, j, k)
    ref = check_mu_equivariance_exhaustive(ext, psi, mu)
    assert check_mu_equivariance(ext, psi, mu) == ref
    assert _in_run(lambda: check_mu_equivariance(ext, psi, mu), lambda: verify_cocycle(psi)) == ref
    assert ref.ok or where != "none"


def _glued(scene_i, rank, seed, shape):
    sp, group = SCENES[scene_i]
    return glued_point(_datum_point(sp.ext, rank, seed, shape), sp, group), group


@settings(max_examples=30, deadline=None)
@given(scene_i=st.integers(0, len(SCENES) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(["random", "dual-diag"]),
       where=unary_corruption, pick=st.integers(0, 7), comp=st.integers(0, 1),
       i=st.integers(0, 1), j=st.integers(0, 1), k=st.integers(0, N - 1))
def test_tau_equivariance_equals_exhaustive(scene_i, rank, seed, shape, where, pick, comp,
                                            i, j, k):
    pt, group = _glued(scene_i, rank, seed, shape)
    if where == "value":
        taus = list(pt.taus)
        tau = taus[comp % len(taus)]
        taus[comp % len(taus)] = _bump_laurent(tau, i % tau.rows, j % tau.rows, k)
        pt = GluedPoint(pt.label, pt.scene_point, pt.module, tuple(taus))
    elif where != "none":
        x = _target(group, where, pick)
        if x is not None:
            pt = GluedPoint(pt.label, pt.scene_point,
                            _bump_phi(pt.module, x, comp, i, j, k), pt.taus)
    ref = check_tau_equivariance_exhaustive(pt, group)
    assert check_tau_equivariance(pt, group) == ref
    assert _in_run(lambda: check_tau_equivariance(pt, group),
                   lambda: verify_action(pt.module)) == ref
    assert ref.ok or where != "none"


def _intertwined(scene_i, rank, seed):
    """Two modules of one datum under two connector families, and the
    blocks of the independence intertwiner between them."""
    sp, group = SCENES[scene_i]
    psi = coboundary(sp.ext, random_unimodular(sp.ext.field, rank, N, SplitMix64(seed)))
    m1 = assemble_product(build_spec_from_scene(sp, group, psi))
    m2 = assemble_product(build_spec_from_scene(
        sp, group, psi, connectors=make_connectors(group, sp.perms(group), SEEDS2[scene_i])))
    return m1, m2, list(independence_intertwiner(m1, m2).blocks)


@settings(max_examples=30, deadline=None)
@given(scene_i=st.integers(0, len(SCENES) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), where=unary_corruption, pick=st.integers(0, 7),
       comp=st.integers(0, 1), i=st.integers(0, 1), j=st.integers(0, 1),
       k=st.integers(0, N - 1))
def test_intertwining_equals_exhaustive(scene_i, rank, seed, where, pick, comp, i, j, k):
    m1, m2, blocks = _intertwined(scene_i, rank, seed)
    group = m1.spec.group
    if where == "value":
        comp %= len(blocks)
        blocks[comp] = _bump(blocks[comp], i % rank, j % rank, k)
    elif where != "none":
        x = _target(group, where, pick)
        if x is not None:
            m2 = _bump_phi(m2, x, comp, i, j, k)
    ref = first_nonintertwining_exhaustive(m1, m2, blocks)
    assert first_nonintertwining(m1, m2, blocks) == ref
    assert _in_run(lambda: first_nonintertwining(m1, m2, blocks),
                   lambda: verify_action(m1), lambda: verify_action(m2)) == ref
    assert ref.ok or where != "none"


@settings(max_examples=40, deadline=None)
@given(ext_i=st.integers(0, len(EXTENSIONS) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), where=unary_corruption, pick=st.integers(0, 7),
       i=st.integers(0, 1), j=st.integers(0, 1), k=st.integers(0, N - 1))
def test_sigma_equivariance_equals_exhaustive(ext_i, rank, seed, where, pick, i, j, k):
    """sigma = B^{-1} is a morphism from a datum to its twist by B."""
    ext = EXTENSIONS[ext_i]()
    rng = SplitMix64(seed)
    src = random_datum(ext, rank, rng).points[0]
    b = random_unimodular(ext.field, rank, N, rng)
    sigma = b.inverse()
    psi2 = twist(src.psi, b)
    if where == "value":
        sigma = _bump(sigma, i % rank, j % rank, k)
    elif where != "none":
        x = _target(ext.group, where, pick)
        if x is not None:
            psi2 = _bump_cocycle(psi2, x, i, j, k)
    dst = ParabolicPoint("p", ext, psi2, sigma.to_laurent() * src.mu)
    ref = check_sigma_equivariance_exhaustive(src, dst, sigma)
    assert check_sigma_equivariance(src, dst, sigma) == ref
    assert _in_run(lambda: check_sigma_equivariance(src, dst, sigma),
                   lambda: verify_cocycle(src.psi), lambda: verify_cocycle(dst.psi)) == ref
    assert ref.ok or where != "none"


def _outcome(call):
    try:
        return call()
    except OrbiparError as exc:
        return type(exc), str(exc)


def _exhaustive_invariants(c):
    """The outcome of invariants(c) with every group law scanned over all of
    G (law_by_generators replaced by the exhaustive scan): the reference."""
    with mock.patch.object(equivariant, "law_by_generators",
                           lambda group, check, premise=None: check(range(group.order))):
        return _outcome(lambda: equivariant.invariants(c))


@settings(max_examples=30, deadline=None)
@given(ext_i=st.integers(0, len(EXTENSIONS) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), where=corruption, pick=st.integers(0, 7),
       i=st.integers(0, 1), j=st.integers(0, 1), k=st.integers(0, N - 1))
def test_invariants_fixedness_check_equals_exhaustive(ext_i, rank, seed, where, pick, i, j, k):
    """invariants, its generators' fixedness proven on the group's
    generators under the premise verify_cocycle, outside a run and in a run
    that has checked the cocycle, against invariants with every element
    scanned: the same result, or the same error."""
    ext = EXTENSIONS[ext_i]()
    c = coboundary(ext, random_unimodular(ext.field, rank, N, SplitMix64(seed)))
    x = _target(ext.group, where, pick) if where != "none" else None
    if x is not None:
        c = _bump_cocycle(c, x, i, j, k)
    ref = _exhaustive_invariants(c)
    assert _outcome(lambda: equivariant.invariants(c)) == ref
    assert _outcome(lambda: _in_run(lambda: equivariant.invariants(c),
                                    lambda: verify_cocycle(c))) == ref
    assert isinstance(ref, equivariant.InvariantsResult) or x is not None


def test_invariants_premise_forces_the_exhaustive_answer_off_the_generators():
    """A coboundary corrupted at 2, not a generator of Z/3: the fixed space,
    solved on the generators, passes the generator scan, but its premise
    verify_cocycle fails, so invariants raises the exhaustive scan's error
    at element 2, in a run or not."""
    ext = make_kummer(make_field(7), 3, N)
    assert ext.group.generators() == [1]
    c = _bump_cocycle(coboundary(ext, random_unimodular(ext.field, 1, N, SplitMix64(3))),
                      2, 0, 0, 1)
    ref = _exhaustive_invariants(c)
    assert ref == (RankDeficiencyError, "extracted generator is not fixed by element 2")
    assert _outcome(lambda: equivariant.invariants(c)) == ref
    assert _outcome(lambda: _in_run(lambda: equivariant.invariants(c),
                                    lambda: verify_cocycle(c))) == ref


def _verify_coboundary_by_inverse(c, b):
    """The former coboundary check, the reference: invert B, then test
    A_g = B * psi(g)(B^{-1}) for every g; a B that does not invert is no
    trivialization."""
    try:
        b_inv = b.inverse()
    except OrbiparError:
        return False
    return all((b * c.ext.psi(g)(b_inv)).agrees_with(c.mats[g])
               for g in range(c.ext.group.order))


def _times_in_column(m, j, t):
    """m with column j multiplied by the series t."""
    return Matrix([[e * t if col == j else e for col, e in enumerate(row)]
                   for row in m.entries])


@settings(max_examples=40, deadline=None)
@given(ext_i=st.integers(0, len(EXTENSIONS) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1),
       case=st.sampled_from(["coboundary", "corrupted", "singular", "other-b", "twisted"]),
       where=st.sampled_from(["generator", "other"]), pick=st.integers(0, 7),
       i=st.integers(0, 1), j=st.integers(0, 1), k=st.integers(0, N - 1))
def test_verify_coboundary_equals_inverse_form(ext_i, rank, seed, case, where, pick, i, j, k):
    """_verify_coboundary, the fixed point law A_g psi(g)(B) = B proven on
    the generators under verify_cocycle, outside a run and in one, against
    the inverse form over every g: on a coboundary and its B, on the
    coboundary corrupted at a generator or off them, with its B times the
    base uniformizer t in one column (fixed, with a singular residue), with
    another B, and on a cocycle twisted by a character."""
    ext = EXTENSIONS[ext_i]()
    field, n = ext.field, ext.group.order
    b = random_unimodular(field, rank, N, SplitMix64(seed))
    character = None
    if case == "twisted" and n > 1 and (field.order - 1) % n == 0:
        zeta = field.root_of_unity(n)
        character = tuple(field.pow(zeta, g) for g in range(n))
    c = coboundary(ext, b, character=character)
    if case == "corrupted":
        x = _target(ext.group, where, pick)
        c = _bump_cocycle(c, 0 if x is None else x, i, j, k)
    elif case == "singular":
        # still fixed, since t is: only the residue test rejects it
        b = _times_in_column(b, i % rank, ext.base_uniformizer)
    elif case == "other-b":
        b = random_unimodular(field, rank, N, SplitMix64(seed + 1))
    ref = _verify_coboundary_by_inverse(c, b)
    assert equivariant._verify_coboundary(c, b) is ref
    assert _in_run(lambda: equivariant._verify_coboundary(c, b),
                   lambda: verify_cocycle(c)) is ref
    assert ref or case != "coboundary"


def test_coboundary_premise_forces_the_exhaustive_answer_off_the_generators(monkeypatch):
    """A coboundary of B corrupted at 2, not a generator of Z/3: B is still
    fixed by A_1, but the premise verify_cocycle fails, so the check scans
    every element and rejects B, as the inverse form does; and it inverts
    nothing."""
    ext = make_kummer(make_field(7), 3, N)
    assert ext.group.generators() == [1]
    b = random_unimodular(ext.field, 2, N, SplitMix64(3))
    good = coboundary(ext, b)
    bad = _bump_cocycle(good, 2, 0, 1, 4)
    columns = [tuple(row[j] for row in b.entries) for j in range(2)]
    assert equivariant._unfixed_scan(bad, columns, [1]).ok
    assert not _verify_coboundary_by_inverse(bad, b)
    monkeypatch.setattr(linalg.Matrix, "inverse", None)
    assert equivariant._verify_coboundary(good, b) is True
    assert equivariant._verify_coboundary(bad, b) is False


def test_premise_forces_the_exhaustive_answer_off_the_generators():
    """Modules corrupted at 3, which is not a generator of Z/6: the tau and
    intertwining laws still hold on the generators, but their premise
    verify_action fails, so the fast checks return the exhaustive scans'
    failures, in a run or not."""
    pt, group = _glued(0, 2, 11, "random")
    assert group.generators() == [1]
    bad = GluedPoint(pt.label, pt.scene_point, _bump_phi(pt.module, 3, 0, 0, 0, 0), pt.taus)
    assert parabolic._tau_scan(bad, group, group.generators()).ok
    ref = check_tau_equivariance_exhaustive(bad, group)
    assert not ref.ok and ref.detail[0] == 3
    assert check_tau_equivariance(bad, group) == ref
    assert _in_run(lambda: check_tau_equivariance(bad, group),
                   lambda: verify_action(bad.module)) == ref

    m1, m2, blocks = _intertwined(0, 2, 11)
    m2 = _bump_phi(m2, 3, 0, 0, 0, 0)
    assert equivariant._intertwining_scan(m1, m2, blocks, group.generators()).ok
    ref = first_nonintertwining_exhaustive(m1, m2, blocks)
    assert not ref.ok and ref.detail[0] == 3
    assert first_nonintertwining(m1, m2, blocks) == ref
    assert _in_run(lambda: first_nonintertwining(m1, m2, blocks),
                   lambda: verify_action(m1), lambda: verify_action(m2)) == ref


def test_unequal_tau_windows_force_the_exhaustive_answer():
    """tau_1 cut 3 coefficients short and tau_0 changed above tau_1's window:
    every check at the generator 1 compares below tau_1's window end and
    passes, but 2 maps component 0 to itself and sees the change.  The taus
    no longer share their window shapes, so the exhaustive scan decides."""
    pt, group = _glued(0, 2, 11, "random")
    tau0, tau1 = pt.taus
    short = Matrix([[Laurent(e.field, e.val_floor, e.coeffs[:-3]) for e in row]
                    for row in tau1.entries])
    bad = GluedPoint(pt.label, pt.scene_point, pt.module,
                     (_bump_laurent(tau0, 0, 0, N - 1), short))
    assert parabolic._tau_scan(bad, group, group.generators()).ok
    ref = check_tau_equivariance_exhaustive(bad, group)
    assert not ref.ok and ref.detail[0] == 2
    assert _in_run(lambda: check_tau_equivariance(bad, group),
                   lambda: verify_action(bad.module)) == ref


@pytest.fixture
def products(monkeypatch):
    """products(check, kind): how many matrix products of that kind (Laurent
    unless Series is given) a passing check() makes."""

    def count(check, kind=Laurent):
        name = "_laurent_product" if kind is Laurent else "_series_product"
        original = getattr(linalg, name)
        calls = []

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(linalg, name, counting)
        assert check().ok
        monkeypatch.setattr(linalg, name, original)
        return len(calls)

    return count


def test_tau_check_makes_one_product_per_generator_and_component(products):
    """On the Z/6 rank-2 GF(7) N=16 point (|S| = 1, l = 2), the tau check of
    a valid glued point makes |S| l = 2 Laurent products, not |G| l = 12,
    in a run or not: outside a run its premise verify_action is computed,
    on Series blocks, and makes no Laurent product."""
    k3 = make_kummer(make_field(7), 3, 16)
    sp, group = ScenePoint("p", k3, (0, 2, 4), (0, 1)), cyclic(6)
    dpt = random_datum(k3, 2, SplitMix64(12345), character_exponent=1).points[0]
    with run_scope():
        pt = glued_point(dpt, sp, group)       # assemble_product verifies the action
        assert products(lambda: check_tau_equivariance(pt, group)) == 2
        assert products(lambda: check_tau_equivariance_exhaustive(pt, group)) == 12
    assert products(lambda: check_tau_equivariance(pt, group)) == 2


def _tau_windows(pushed):
    return {(e.val_floor, len(e.coeffs)) for row in pushed.tau.entries for e in row}


def _pushed(shape):
    """The pushforward of a Kummer Z/4 bundle over GF(13) at N = 8: a random
    rank-1 datum, whose pushed tau has one window shape, or the rank-2
    dual-of-diag gluing, whose pushed tau has several."""
    k4 = make_kummer(make_field(13), 4, N)
    dpt = (random_datum(k4, 1, SplitMix64(31), character_exponent=1).points[0]
           if shape == "uniform" else _dual_of_diag_gluing(k4, 5))
    datum = ParabolicDatum(rank=dpt.psi.rank, points=(dpt,))
    return pushforward_local(functor_T(datum, totally_ramified_scene(k4)))


def test_pushed_verify_equals_exhaustive():
    """PushedBundle.verify, which proves the representation laws on the
    generators and then the tau law on them where tau has one window shape,
    gives verify_exhaustive's Report: for a uniform tau valid, with
    formal_rep corrupted at 2 (not a generator of Z/4), and with one tau
    coefficient flipped; for a tau with unequal windows, valid and with one
    coefficient flipped."""
    uniform, unequal = _pushed("uniform"), _pushed("unequal")
    assert uniform.group.generators() == [1]
    assert len(_tau_windows(uniform)) == 1 and len(_tau_windows(unequal)) > 1
    formal = list(uniform.formal_rep)
    formal[2] = _bump(formal[2], 0, 1, 0)
    cases = [uniform, replace(uniform, formal_rep=tuple(formal)),
             replace(uniform, tau=_bump_laurent(uniform.tau, 0, 0, 0)),
             unequal, replace(unequal, tau=_bump_laurent(unequal.tau, 0, 0, 0))]
    refs = [case.verify_exhaustive() for case in cases]
    assert [case.verify() for case in cases] == refs
    assert refs[0].ok and refs[3].ok
    assert refs[1].message.startswith("formal representation law fails")
    assert refs[2].message.startswith("pushed gluing not equivariant")
    assert refs[4].message.startswith("pushed gluing not equivariant")


def test_pushed_tau_check_makes_two_products_per_generator(products):
    """The tau law of a valid pushed bundle over Z/4 (one generator) makes 2
    Laurent products, F_1 tau and tau G_1, where tau has one window shape,
    and 2 |G| = 8 where it has several or in the exhaustive reference; the
    representation laws multiply Series matrices only."""
    uniform, unequal = _pushed("uniform"), _pushed("unequal")
    assert products(uniform.verify) == 2
    assert products(uniform.verify_exhaustive) == 8
    assert products(unequal.verify) == 8


@st.composite
def laurent_matrices(draw):
    """Square Laurent matrices over GF(2), GF(3), GF(5), GF(7) and GF(9),
    some singular (a repeated or zero row, sparse low-precision entries),
    some with no common validity window (an empty entry below every other
    floor), and some whose invertibility the lowest coefficients decide
    either way: a unit triangular matrix times s^k (leading zeros below a
    common floor), and a diagonal of units times distinct powers of s."""
    field = make_field(*draw(st.sampled_from([(2,), (3,), (5,), (7,), (3, 2)])))
    r = draw(st.integers(1, 3))
    zero_bias = draw(st.floats(0, 0.9))

    def coeffs(length):
        return tuple(0 if draw(st.floats(0, 1)) < zero_bias
                     else draw(st.integers(0, field.order - 1)) for _ in range(length))

    def unit():
        return draw(st.integers(1, field.order - 1))

    def entry():
        return Laurent(field, draw(st.integers(-2, 2)), coeffs(draw(st.integers(1, N))))

    rows = [[entry() for _ in range(r)] for _ in range(r)]
    shape = draw(st.sampled_from(["random", "repeat", "zero", "no-window", "unit-times-s^k",
                                  "diagonal-powers"]))
    if shape == "repeat" and r > 1:
        rows[1] = list(rows[0])
    elif shape == "zero":
        rows[0] = [Laurent(field, 0, (0,) * N) for _ in range(r)]
    elif shape == "no-window":
        rows[0][0] = Laurent(field, -3, ())
    elif shape == "unit-times-s^k":
        floor, k = draw(st.integers(-2, 2)), draw(st.integers(0, 3))
        rows = [[Laurent(field, floor, (0,) * k + (
                    (unit(),) + coeffs(N - k - 1) if i == j else
                    coeffs(N - k) if i < j else (0,) * (N - k)))
                 for j in range(r)] for i in range(r)]
    elif shape == "diagonal-powers":
        powers = draw(st.permutations(range(r)))
        rows = [[Laurent(field, powers[i], (unit(),) + coeffs(N - 1)) if i == j
                 else Laurent.zero(field, N) for j in range(r)] for i in range(r)]
    return Matrix(rows)


def _invertible_by_smith(m):
    """The reference for is_invertible: square, with a common validity
    window, and no divisor of its series part None."""
    if m.rows != m.cols:
        return False
    try:
        ser = series_part(m.to_laurent())[0]
    except StructuralError:
        return False
    return None not in smith(ser).divisors


def _smith_calls(call):
    """(call(), how many times it ran smith)."""
    calls = []
    original = linalg.smith

    def counting(m):
        calls.append(m)
        return original(m)

    with mock.patch.object(linalg, "smith", counting):
        return call(), len(calls)


@settings(max_examples=150, deadline=None)
@given(laurent_matrices())
def test_is_invertible_iff_inverse_succeeds(m):
    try:
        m.inverse()
        inverts = True
    except OrbiparError:
        inverts = False
    assert is_invertible(m) == inverts


@settings(max_examples=300, deadline=None)
@given(laurent_matrices())
def test_is_invertible_equals_smith(m):
    """The lowest-coefficient test decides as the Smith form of the series
    part does, and runs smith only where the lowest coefficients are
    singular."""
    got, runs = _smith_calls(lambda: is_invertible(m))
    assert got == _invertible_by_smith(m)
    assert runs <= 1
    if m.rows == 1:     # a nonzero entry's lowest coefficient is a unit
        assert runs == 0


def _lm(field, rows):
    """A Laurent matrix from rows of (val_floor, coeffs), each exact to N."""
    return Matrix([[Laurent.exact(field, f, c, N) for f, c in row] for row in rows])


F7, F9 = make_field(7), make_field(3, 2)
ZERO = (0, [])


@pytest.mark.parametrize("case, m, invertible, smith_runs", [
    # lowest coefficients invertible: decided without smith
    ("unit times s^2", _lm(F7, [[(2, [3, 1]), (2, [5])], [(2, [0, 4]), (2, [1, 6])]]),
     True, 0),
    ("unit times s^-1, leading zeros", _lm(F7, [[(-3, [0, 0, 2]), (-3, [0, 0, 0, 1])],
                                                 [(-3, [0, 0, 1]), (-3, [0, 0, 4])]]),
     True, 0),
    ("GF(9) unit", _lm(F9, [[(0, [4, 1]), (0, [7])], [(0, [2]), (0, [5, 8])]]), True, 0),
    # lowest coefficients singular: smith decides
    ("diag(1, s)", _lm(F7, [[(0, [1]), ZERO], [ZERO, (1, [1])]]), True, 1),
    ("mixed floors", _lm(F7, [[(-1, [1]), (0, [1])], [ZERO, (1, [1])]]), True, 1),
    ("GF(9) diag(s, s^3)", _lm(F9, [[(1, [5]), ZERO], [ZERO, (3, [7])]]), True, 1),
    ("repeated row", _lm(F7, [[(0, [1, 2]), (1, [3])], [(0, [1, 2]), (1, [3])]]), False, 1),
    ("zero row", _lm(F7, [[(0, [1, 2]), (1, [3])], [ZERO, ZERO]]), False, 1),
    ("GF(9) repeated row", _lm(F9, [[(0, [4, 1]), (0, [7])], [(0, [4, 1]), (0, [7])]]),
     False, 1),
    # nothing to decide
    ("zero matrix", _lm(F7, [[ZERO, ZERO], [ZERO, ZERO]]), False, 0),
    ("nonzero only past the common window",
     Matrix([[Laurent.exact(F7, 0, [0] * 5 + [1], N), Laurent(F7, 0, (0, 0))],
             [Laurent.exact(F7, 0, [], N), Laurent.exact(F7, 0, [], N)]]), False, 0),
])
def test_is_invertible_branches(case, m, invertible, smith_runs):
    """Each branch of is_invertible on explicit matrices, against the
    Smith reference and Matrix.inverse."""
    assert _smith_calls(lambda: is_invertible(m)) == (invertible, smith_runs), case
    assert _invertible_by_smith(m) == invertible
    try:
        m.inverse()
        inverts = True
    except OrbiparError:
        inverts = False
    assert inverts == invertible


def _stage_one_and_two(c):
    """trivialize(c) stopped where stage 3 starts (its fixed_space call), as
    a Report: ok iff stages 1 and 2 decided nothing."""
    class Stage3(Exception):
        pass

    def stop(_):
        raise Stage3

    with mock.patch.object(equivariant, "fixed_space", stop):
        try:
            res = equivariant.trivialize(c)
        except Stage3:
            return Report(True, "stage 3 reached")
    return Report(False, f"decided at stage {res.stage}")


def _averaging_reference(c, rng):
    """trivialize's stage 1 without the residue test: average every
    candidate, in trivialize's order and from its rng draws, and return the
    first average with a unit residue that the coboundary check accepts."""
    ext, rank, prec = c.ext, c.rank, c.ext.prec
    field = ext.field
    cands = [Matrix.identity(field, rank, prec)] + [
        Matrix([[Series(field, prec, tuple(rng.randrange(field.order) for _ in range(prec)))
                 for _ in range(rank)] for _ in range(rank)]) for _ in range(7)]
    for cand in cands:
        acc = c.mats[0] * ext.psi(0)(cand)
        for g in range(1, ext.group.order):
            acc = acc + c.mats[g] * ext.psi(g)(cand)
        if acc.is_residue_invertible() and equivariant._verify_coboundary(c, acc):
            return acc
    return None


def test_wild_trivialize_averages_nothing(products):
    """On the wild Artin-Schreier cocycle (GF(9), N=24, rank 2) every
    res(A_g) is I and p = |I|, so every average has residue 0: stage 1
    makes no Series matrix product, and stage 3 finds B."""
    c = random_datum(make_artin_schreier(make_field(3, 2), 24), 2, SplitMix64(5)).points[0].psi
    assert products(lambda: _stage_one_and_two(c), Series) == 0
    assert _averaging_reference(c, SplitMix64(0x0B5E55ED)) is None
    res = equivariant.trivialize(c)
    assert (res.found, res.stage) == (True, "fixed-space")


@pytest.mark.parametrize("ext", [make_kummer(make_field(7), 3, 16),
                                 make_kummer(make_field(13), 4, N)],
                         ids=["Z/3 GF(7)", "Z/4 GF(13)"])
def test_kummer_trivialize_averages_as_before(ext):
    """On Kummer coboundaries p does not divide |I|, so sum_g res(A_g) = |I| I
    is invertible: stage 1 still finds B, the same B as averaging every
    candidate and testing its residue afterwards."""
    rng = SplitMix64(29)
    for seed in range(3):
        c = coboundary(ext, random_unimodular(ext.field, 2, ext.prec, rng))
        res = equivariant.trivialize(c, rng=SplitMix64(seed))
        assert (res.found, res.stage) == (True, "averaging")
        assert res.b == _averaging_reference(c, SplitMix64(seed))
