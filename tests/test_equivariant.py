import pytest

from orbipar.equivariant import (Cocycle, ComponentSpec, ProductGModuleSpec,
                                 assemble_product, coboundary, first_nonintertwining,
                                 independence_intertwiner, invariants, is_induced,
                                 make_connectors, trivialize, verify_action,
                                 verify_cocycle)
from orbipar.errors import AssemblyError, RankDeficiencyError
from orbipar.fields import make_field
from orbipar.groups import cyclic, dihedral
from orbipar.linalg import Matrix
from orbipar.local_galois import make_artin_schreier, make_kummer, trivial_extension
from orbipar.parabolic import ScenePoint, build_spec_from_scene, random_unimodular
from orbipar.prng import SplitMix64
from orbipar.series import Series

from cocycle_twist import twist

F5 = make_field(5)
F7 = make_field(7)
F2 = make_field(2)
N = 8


def const_cocycle(ext, value):
    return Cocycle(ext, 1, tuple(
        Matrix([[Series.constant(ext.field, v, ext.prec)]])
        for v in value))


def sign_cocycle(prec=N):
    ext = make_kummer(F5, 2, prec)
    return Cocycle(ext, 1, (Matrix.identity(F5, 1, prec),
                            Matrix([[Series.constant(F5, 4, prec)]])))


# -- verify_cocycle --


def test_trivial_cocycle_passes():
    ext = make_kummer(F5, 2, N)
    assert verify_cocycle(Cocycle.trivial(ext, 2)).ok


def test_sign_twist_passes():
    assert verify_cocycle(sign_cocycle()).ok


def test_bad_constant_fails_at_sigma_sigma():
    ext = make_kummer(F5, 2, N)
    bad = const_cocycle(ext, [1, 2])
    rep = verify_cocycle(bad)
    assert not rep.ok
    assert rep.detail == (1, 1)


def test_bad_identity_detected():
    ext = make_kummer(F5, 2, N)
    bad = const_cocycle(ext, [2, 1])
    rep = verify_cocycle(bad)
    assert not rep.ok and "identity" in rep.message


# -- assembly --


def test_single_component_assembly_is_phi1():
    ext = make_kummer(F5, 2, N)
    c = sign_cocycle()
    sp = ScenePoint(label="p", ext=ext, iso=(0, 1), transversal=(0,))
    spec = build_spec_from_scene(sp, ext.group, c)
    mod = assemble_product(spec)
    for g in range(2):
        j, m, w = mod.phi[g][0]
        assert j == 0 and w == g
        assert m.agrees_with(c.mats[g])


def test_z2_swap_module():
    """Two components, trivial isotropy, rank 1: Phi(sigma) swaps, squares to Id."""
    g2 = cyclic(2)
    ext = trivial_extension(F5, N)
    sp = ScenePoint(label="p", ext=ext, iso=(0,), transversal=(0, 1))
    spec = build_spec_from_scene(sp, g2, Cocycle.trivial(ext, 1))
    mod = assemble_product(spec)
    assert [b[0] for b in mod.phi[1]] == [1, 0]
    assert verify_action(mod).ok  # includes Phi(sigma)^2 = Phi(0) = Id


def test_z6_two_components_exhaustive():
    ext = make_kummer(F7, 3, 12)
    g6 = cyclic(6)
    sp = ScenePoint(label="p", ext=ext, iso=(0, 2, 4), transversal=(0, 1))
    rng = SplitMix64(61)
    b = random_unimodular(F7, 1, 12, rng)
    zeta = F7.root_of_unity(3)
    chi = tuple(F7.pow(zeta, u) for u in range(3))
    c = coboundary(ext, b, character=chi)
    spec = build_spec_from_scene(sp, g6, c)
    mod = assemble_product(spec)          # verifies all 36 pairs internally
    assert verify_action(mod).ok
    # Phi(3) swaps the components (3 is odd)
    assert [blk[0] for blk in mod.phi[3]] == [1, 0]


def test_condition_c_violation_detected():
    ext = make_kummer(F7, 3, 12)
    g6 = cyclic(6)
    sp = ScenePoint(label="p", ext=ext, iso=(0, 2, 4), transversal=(0, 1))
    c = const_cocycle(ext, [1, 1, 1])
    spec = build_spec_from_scene(sp, g6, c)
    # corrupt the component-1 cocycle: breaks condition (C)
    bad_c = const_cocycle(ext, [1, 2, 4])
    comps = (spec.components[0],
             ComponentSpec(iso=spec.components[1].iso, cocycle=bad_c))
    bad = ProductGModuleSpec(group=g6, ext=ext, components=comps, perms=spec.perms,
                             connectors=spec.connectors, thetas=spec.thetas)
    with pytest.raises(AssemblyError) as exc:
        assemble_product(bad)
    assert exc.value.condition in ("C", "iso")


# -- connectors --


def test_connectors_single_component():
    g = cyclic(2)
    conn = make_connectors(g, ((0,), (0,)), [])
    assert conn == ((0,),)


def test_connectors_z2():
    g = cyclic(2)
    perms = ((0, 1), (1, 0))
    conn = make_connectors(g, perms, [1])
    assert conn[0][1] == 1 and conn[1][0] == 1 and conn[0][0] == 0


def test_connectors_z6_three_components():
    g6 = cyclic(6)
    # coset action of Z/6 on Z/6 / {0,3}: component i = {i, i+3}
    perms = tuple(tuple((g + i) % 3 for i in range(3)) for g in range(6))
    conn = make_connectors(g6, perms, [1, 1])
    assert conn[0][2] == 2
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert conn[i][k] == g6.mul(conn[j][k], conn[i][j])


def test_connectors_bad_seed_rejected():
    g = cyclic(2)
    perms = ((0, 1), (1, 0))
    with pytest.raises(AssemblyError):
        make_connectors(g, perms, [0])   # identity does not move component 0


# -- independence intertwiner --


def test_intertwiner_identity_when_same_connectors():
    ext = make_kummer(F7, 3, 12)
    g6 = cyclic(6)
    sp = ScenePoint(label="p", ext=ext, iso=(0, 2, 4), transversal=(0, 1))
    c = Cocycle.trivial(ext, 1)
    spec = build_spec_from_scene(sp, g6, c)
    mod = assemble_product(spec)
    tau = independence_intertwiner(mod, mod)
    ident = Matrix.identity(F7, 1, 12)
    assert all(b.agrees_with(ident) for b in tau.blocks)


def test_intertwiner_nonabelian_dihedral():
    F13 = make_field(13)
    ext = make_kummer(F13, 4, 12)
    d4 = dihedral(4)
    sp = ScenePoint(label="p", ext=ext, iso=(0, 1, 2, 3), transversal=(0, 4))
    rng = SplitMix64(17)
    b = random_unimodular(F13, 2, 12, rng)
    c = coboundary(ext, b)
    perms = sp.perms(d4)
    m1 = assemble_product(build_spec_from_scene(
        sp, d4, c, connectors=make_connectors(d4, perms, [4])))
    m2 = assemble_product(build_spec_from_scene(
        sp, d4, c, connectors=make_connectors(d4, perms, [5])))
    tau = independence_intertwiner(m1, m2)
    assert len(tau.blocks) == 2


def test_first_nonintertwining_reports_first_failure():
    """Identity blocks intertwine a module with itself; a scaled block first
    fails at element 1, component 0; another transversal first changes the
    ring part there."""
    ext = make_kummer(F7, 3, 12)
    g6 = cyclic(6)
    c = Cocycle.trivial(ext, 1)
    mods = [assemble_product(build_spec_from_scene(
        ScenePoint(label="p", ext=ext, iso=(0, 2, 4), transversal=(0, t)), g6, c))
        for t in (1, 3)]
    ident = Matrix.identity(F7, 1, 12)
    assert first_nonintertwining(mods[0], mods[0], [ident, ident]).ok
    assert first_nonintertwining(mods[0], mods[0], [ident, ident.scale(2)]).detail == (1, 0, False)
    assert first_nonintertwining(mods[0], mods[1], [ident, ident]).detail == (1, 0, True)


# -- invariants / induced --


def test_invariants_trivial_cocycle():
    ext = make_kummer(F5, 2, N)
    res = invariants(Cocycle.trivial(ext, 2))
    assert res.natural.agrees_with(Matrix.identity(F5, 2, N))
    assert res.base_prec == 4


def test_invariants_sign_twist():
    res = invariants(sign_cocycle())
    gen = res.generators[0][0]
    assert gen.valuation() == 1 and gen.coeffs[1] == 1
    rep = is_induced(sign_cocycle())
    assert not rep.induced and rep.profile == [1]


def test_invariants_artin_schreier_trivial():
    ext = make_artin_schreier(F2, 12)
    res = invariants(Cocycle.trivial(ext, 1))
    # invariants are the base ring: generator 1, natural map identity
    assert res.generators[0][0].coeffs[0] == 1
    rep = is_induced(Cocycle.trivial(ext, 1))
    assert rep.induced


def test_invariants_fixed_under_all_elements():
    ext = make_kummer(F7, 3, 12)
    rng = SplitMix64(5)
    b = random_unimodular(F7, 2, 12, rng)
    c = coboundary(ext, b)
    res = invariants(c)
    for g in range(3):
        for vec in res.generators:
            img = c.apply(g, vec)
            assert all(x.coeffs == y.coeffs for x, y in zip(img, vec))


def test_invariants_rank_deficiency_reported():
    # precision too small to see rank-2 invariants of a twisted module
    ext = make_kummer(F5, 4, 2)
    c = const_cocycle(ext, [1, 2, 4, 3])      # character of order 4
    with pytest.raises(RankDeficiencyError):
        invariants(c)


# -- trivialize --


def test_trivialize_identity_cocycle():
    ext = make_kummer(F5, 2, N)
    res = trivialize(Cocycle.trivial(ext, 1))
    assert res.found and res.proven


def test_trivialize_identity_wild():
    ext = make_artin_schreier(F3 := make_field(3), 9)
    res = trivialize(Cocycle.trivial(ext, 2))
    assert res.found


def test_trivialize_sign_twist_certified():
    res = trivialize(sign_cocycle())
    assert res.found is False and res.proven
    assert res.stage == "residue"


def test_trivialize_recovers_coboundaries():
    rng = SplitMix64(23)
    for ext in (make_kummer(F5, 2, N), make_kummer(F7, 3, N),
                make_artin_schreier(F2, N)):
        for _ in range(5):
            b = random_unimodular(ext.field, 2, N, rng)
            c = coboundary(ext, b)
            res = trivialize(c, rng=rng.fork())
            assert res.found, (ext.describe(), res.detail)
            # re-verify the certificate independently
            b2 = res.b
            b2_inv = b2.inverse()
            for g in range(ext.group.order):
                rhs = b2 * b2_inv.substitute(ext.act(g))
                assert rhs.agrees_with(c.mats[g])


def test_trivialize_zero_residue_image_is_proven_impossible():
    """A_c = 1 + c*s is the coboundary of the non-unit s: its fixed space has
    no residue, so no trivialization exists, and that is a proof, not a
    budget overrun."""
    F3 = make_field(3)
    ext = make_artin_schreier(F3, N)
    c = Cocycle(ext, 1, tuple(Matrix([[Series.from_coeffs(F3, [1, g], N)]])
                              for g in range(3)))
    assert verify_cocycle(c).ok
    res = trivialize(c)
    assert (res.found, res.stage, res.proven) == (False, "residue-image", True)


def test_twist_changes_basis_not_class():
    ext = make_kummer(F5, 2, N)
    rng = SplitMix64(31)
    b = random_unimodular(F5, 1, N, rng)
    c = twist(sign_cocycle(), b)
    assert verify_cocycle(c).ok
    res = trivialize(c)
    assert res.found is False and res.proven
