"""Differential tests of ring-part assembly against explicit identity blocks.

A connector block theta_ij is (identity, w_ij) and the spec stores w_ij
alone.  The reference here composes the blocks the general way, with an
explicit identity matrix for every theta: (m1, w1) o (m2, w2) =
(m1 * psi(w1)(m2), w1 w2) and (m, w)^{-1} = (psi(w^{-1})(m^{-1}), w^{-1}).
Phi blocks, conjugated component cocycles, intertwiner blocks, round-trip
transports and the first failure of conditions (B) and (C) must come out
equal, over cyclic and dihedral scenes with Kummer and Artin-Schreier
extensions.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from orbipar import linalg
from orbipar.equivariant import (Cocycle, ComponentSpec, ProductGModuleSpec, assemble_product,
                                 coboundary, independence_intertwiner, make_connectors,
                                 verify_spec)
from orbipar.errors import AssemblyError
from orbipar.fields import make_field
from orbipar.groups import cyclic, dihedral
from orbipar.linalg import Matrix
from orbipar.local_galois import make_artin_schreier, make_kummer
from orbipar.parabolic import (CoverScene, ScenePoint, build_spec_from_scene, functor_S,
                               functor_T, random_datum, random_unimodular, roundtrip_check)
from orbipar.prng import SplitMix64
from orbipar.series import Series

N = 8


def _scenes():
    """(scene point, group) pairs over Kummer and Artin-Schreier inertia,
    with two or three components, cyclic and dihedral G."""
    k3 = make_kummer(make_field(7), 3, N)
    k2 = make_kummer(make_field(5), 2, N)
    k4 = make_kummer(make_field(13), 4, N)
    as3 = make_artin_schreier(make_field(3), N)
    as9 = make_artin_schreier(make_field(3, 2), N)
    as2 = make_artin_schreier(make_field(2), N)
    return [(ScenePoint("p", k3, (0, 2, 4), (0, 1)), cyclic(6)),
            (ScenePoint("p", k3, (0, 1, 2), (0, 3)), dihedral(3)),
            (ScenePoint("p", k2, (0, 3), (0, 1, 2)), cyclic(6)),
            (ScenePoint("p", k2, (0, 3), (0, 1, 2)), dihedral(3)),
            (ScenePoint("p", k4, (0, 1, 2, 3), (0, 4)), dihedral(4)),
            (ScenePoint("p", as3, (0, 2, 4), (0, 1)), cyclic(6)),
            (ScenePoint("p", as3, (0, 1, 2), (0, 3)), dihedral(3)),
            (ScenePoint("p", as9, (0, 2, 4), (0, 1)), cyclic(6)),
            (ScenePoint("p", as2, (0, 3), (0, 1, 2)), dihedral(3)),
            (ScenePoint("p", as2, (0, 2), (0, 1)), cyclic(4))]


SCENES = _scenes()


def _compose(ext, m1, w1, m2, w2):
    return m1 * ext.psi(w1)(m2), ext.group.mul(w1, w2)


def _inverse(ext, m, w):
    w_inv = ext.group.inv(w)
    return ext.psi(w_inv)(m.inverse()), w_inv


def _theta(spec, i, j):
    """The connector block theta_ij with its identity matrix written out."""
    ext = spec.ext
    return Matrix.identity(ext.field, spec.rank, ext.prec), spec.thetas[i][j]


def _reference_phi(spec):
    g_ = spec.group
    phi = []
    for g in range(g_.order):
        blocks = []
        for i in range(spec.size):
            j = spec.perms[g][i]
            u = spec.iso_inverse(i, g_.mul(g_.inv(spec.connectors[i][j]), g))
            m, w = _compose(spec.ext, *_theta(spec, i, j),
                            spec.components[i].cocycle.mats[u], u)
            blocks.append((j, m, w))
        phi.append(tuple(blocks))
    return tuple(phi)


def _reference_component(spec, sp, i):
    """theta_0i o Psi(g_0i^{-1} a g_0i) o theta_0i^{-1} for every isotropy element."""
    ext, group = spec.ext, spec.group
    psi = spec.components[0].cocycle
    g_0i = spec.connectors[0][i]
    mats = []
    for a in sp.component_iso(group, i):
        u_inner = sp.q0(group, group.mul(group.mul(group.inv(g_0i), a), g_0i))
        m, w = _compose(ext, *_theta(spec, 0, i), psi.mats[u_inner], u_inner)
        m, w = _compose(ext, m, w, *_inverse(ext, *_theta(spec, 0, i)))
        mats.append(m)
    return tuple(mats)


def _reference_intertwiner(s1, s2):
    ext, g_ = s1.ext, s1.group
    blocks = []
    for j in range(s1.size):
        f_j = g_.mul(g_.inv(s1.connectors[0][j]), s2.connectors[0][j])
        u = s1.iso_inverse(0, g_.inv(f_j))
        m, w = _compose(ext, s1.components[0].cocycle.mats[u], u,
                        *_inverse(ext, *_theta(s1, 0, j)))
        m, w = _compose(ext, *_theta(s2, 0, j), m, w)
        assert w == 0
        blocks.append(m)
    return tuple(blocks)


def _reference_bc(spec):
    """The first failure of (B) or (C) as (condition, indices), composing the
    identity blocks explicitly; None if both hold."""
    ext, g_ = spec.ext, spec.group
    ident = Matrix.identity(ext.field, spec.rank, ext.prec)
    l = spec.size
    for i in range(l):
        m_ii, w_ii = _theta(spec, i, i)
        if w_ii != 0 or not m_ii.agrees_with(ident):
            return "B", (i, i)
        for j in range(l):
            for k in range(l):
                m, w = _compose(ext, *_theta(spec, j, k), *_theta(spec, i, j))
                m_ik, w_ik = _theta(spec, i, k)
                if w != w_ik or not m.agrees_with(m_ik):
                    return "B", (i, j, k)
    for i in range(l):
        for j in range(l):
            for u in range(ext.group.order):
                u2 = spec.iso_inverse(j, g_.conj(spec.connectors[i][j],
                                                 spec.components[i].iso[u]))
                lhs = _compose(ext, spec.components[j].cocycle.mats[u2], u2, *_theta(spec, i, j))
                rhs = _compose(ext, *_theta(spec, i, j), spec.components[i].cocycle.mats[u], u)
                if lhs[1] != rhs[1] or not lhs[0].agrees_with(rhs[0]):
                    return "C", (i, j, u)
    return None


def _cocycle(ext, rank, seed, twisted):
    field, n = ext.field, ext.group.order
    character = None
    if twisted and (field.order - 1) % n == 0:
        zeta = field.root_of_unity(n)
        character = tuple(field.pow(zeta, g) for g in range(n))
    return coboundary(ext, random_unimodular(field, rank, N, SplitMix64(seed)),
                      character=character)


def _seeds(sp, group, pick):
    """A seed family: seeds[i] carries component i to i + 1, chosen by pick."""
    perms = sp.perms(group)
    seeds = []
    for i in range(sp.size() - 1):
        pool = [g for g in range(group.order) if perms[g][i] == i + 1]
        seeds.append(pool[(pick >> (4 * i)) % len(pool)])
    return seeds


def _bump(m, k):
    """m with coefficient k of entry (0, 0) changed."""
    rows = [list(r) for r in m.entries]
    e = rows[0][0]
    coeffs = list(e.coeffs)
    coeffs[k] = (coeffs[k] + 1) % e.field.order
    rows[0][0] = Series(e.field, e.prec, tuple(coeffs))
    return Matrix(rows)


scene_index = st.integers(0, len(SCENES) - 1)


@settings(max_examples=25, deadline=None)
@given(scene_i=scene_index, rank=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1),
       twisted=st.booleans(), pick1=st.integers(0, 255), pick2=st.integers(0, 255))
def test_ring_part_assembly_equals_identity_blocks(scene_i, rank, seed, twisted, pick1, pick2):
    sp, group = SCENES[scene_i]
    psi = _cocycle(sp.ext, rank, seed, twisted)
    perms = sp.perms(group)
    specs = [build_spec_from_scene(sp, group, psi,
                                   connectors=make_connectors(group, perms, _seeds(sp, group, p)))
             for p in (pick1, pick2)]
    mods = [assemble_product(spec) for spec in specs]
    for spec, mod in zip(specs, mods):
        for i in range(1, spec.size):
            assert spec.components[i].cocycle.mats == _reference_component(spec, sp, i)
        assert mod.phi == _reference_phi(spec)
        assert _reference_bc(spec) is None
    tau = independence_intertwiner(*mods)
    assert tau.blocks == _reference_intertwiner(*specs)


@settings(max_examples=25, deadline=None)
@given(scene_i=scene_index, rank=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1),
       part=st.sampled_from(["theta", "cocycle"]), i=st.integers(0, 2), j=st.integers(0, 2),
       shift=st.integers(1, 3), u=st.integers(0, 3), k=st.integers(0, N - 1))
def test_corrupted_spec_fails_where_identity_blocks_fail(scene_i, rank, seed, part, i, j,
                                                         shift, u, k):
    """One theta ring part or one component cocycle value changed: verify_spec
    raises at the condition and indices the identity-block reference finds."""
    sp, group = SCENES[scene_i]
    spec = build_spec_from_scene(sp, group, _cocycle(sp.ext, rank, seed, True))
    i_ = sp.ext.group
    i, j, u = i % spec.size, j % spec.size, u % i_.order
    thetas, comps = [list(r) for r in spec.thetas], list(spec.components)
    if part == "theta":
        thetas[i][j] = i_.mul(thetas[i][j], shift % i_.order)
    else:
        mats = list(comps[i].cocycle.mats)
        mats[u] = _bump(mats[u], k)
        comps[i] = ComponentSpec(iso=comps[i].iso,
                                 cocycle=Cocycle(sp.ext, rank, tuple(mats)))
    bad = ProductGModuleSpec(group=group, ext=sp.ext, components=tuple(comps),
                             perms=spec.perms, connectors=spec.connectors,
                             thetas=tuple(map(tuple, thetas)))
    expected = _reference_bc(bad)
    if expected is None:
        verify_spec(bad)
        return
    with pytest.raises(AssemblyError) as exc:
        verify_spec(bad)
    assert (exc.value.condition, exc.value.indices) == expected


def test_condition_b_violation_names_the_triple():
    """Three components of Z/6 over Kummer Z/2: w_10 changed, so
    w_00 = e != w_10 w_01 and (B) first fails at (0, 1, 0)."""
    sp, group = SCENES[2]
    spec = build_spec_from_scene(sp, group, _cocycle(sp.ext, 2, 7, True))
    i_ = sp.ext.group
    thetas = [list(r) for r in spec.thetas]
    thetas[1][0] = i_.mul(thetas[1][0], 1)
    bad = ProductGModuleSpec(group=group, ext=sp.ext, components=spec.components,
                             perms=spec.perms, connectors=spec.connectors,
                             thetas=tuple(map(tuple, thetas)))
    with pytest.raises(AssemblyError) as exc:
        assemble_product(bad)
    assert exc.value.condition == "B"
    assert exc.value.indices == (0, 1, 0)
    assert str(exc.value) == "condition (B) fails: theta_00 != theta_10 theta_01"


def test_assembly_multiplies_and_inverts_no_connector_block(monkeypatch):
    """On the Z/6 rank-2 GF(7) N=16 datum, building the spec and assembling
    it call Matrix.inverse nowhere and Matrix.__mul__ only inside the
    assembly lemma's premise, the cocycle law of component 0
    (_cocycle_report: one product per generator of I and element of I),
    never on a connector block."""
    k3 = make_kummer(make_field(7), 3, 16)
    sp, group = ScenePoint("p", k3, (0, 2, 4), (0, 1)), cyclic(6)
    psi = random_datum(k3, 2, SplitMix64(12345), character_exponent=1).points[0].psi
    callers = []
    for name in ("__mul__", "inverse"):
        orig = getattr(Matrix, name)

        def counted(self, *args, _orig=orig, _name=name):
            callers.append((_name, sys._getframe(1).f_code.co_name))
            return _orig(self, *args)

        monkeypatch.setattr(linalg.Matrix, name, counted)
    module = assemble_product(build_spec_from_scene(sp, group, psi))
    assert module.size == 2
    assert not [c for c in callers if c != ("__mul__", "_cocycle_report")]
    assert len(callers) == len(k3.group.generators()) * k3.group.order


@pytest.mark.parametrize("scene_i, exponent, seeds", [(0, 1, [3]), (5, 0, [5]), (1, 1, [4]),
                                                      (2, 1, [4, 1])],
                         ids=["z6-kummer", "z6-artin-schreier", "d3-kummer", "z6-three-comps"])
def test_roundtrip_rhos_equal_identity_blocks(monkeypatch, scene_i, exponent, seeds):
    """Each round-trip transport rho_i is the block the general composition
    gives, theta~_0i o (iota^{-1}, e) o theta_0i^{-1} with identity matrices
    written out, and it is R-linear.  The scene's transversal seeds give
    every theta_0i the ring part e, so the connectors here come from other
    seeds, whose ring parts are not all e.  Building the rhos inverts
    nothing: the round trip inverts only iota, once, in functor_S."""
    sp, group = SCENES[scene_i]
    monkeypatch.setattr(ScenePoint, "default_seeds", lambda self, g: seeds)
    scene = CoverScene(group=group, points=(sp,))
    d = random_datum(sp.ext, 2, SplitMix64(2024 + scene_i), character_exponent=exponent)
    callers = []
    orig = Matrix.inverse

    def counted(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return orig(self)

    monkeypatch.setattr(linalg.Matrix, "inverse", counted)
    rep = roundtrip_check(d, scene)
    assert rep.ok, rep.message
    assert callers == ["functor_S"]
    b = functor_T(d, scene)
    sres = functor_S(b)
    spec, spec2 = b.points[0].module.spec, functor_T(sres.datum, scene).points[0].module.spec
    assert any(spec.thetas[0])
    ext = sp.ext
    rhos = rep.rhos["p"]
    assert len(rhos) == spec.size
    for i, rho in enumerate(rhos):
        m, w = _compose(ext, sres.sigmas["p"], 0, *_inverse(ext, *_theta(spec, 0, i)))
        m, w = _compose(ext, *_theta(spec2, 0, i), m, w)
        assert w == 0
        assert rho == m
