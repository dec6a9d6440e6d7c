"""Differential tests of the fast checks against their references.

verify_cocycle, verify_action and verify_extension prove their group laws
on the generators and fall back to the exhaustive scan on a failure; their
reports must equal those of verify_cocycle_exhaustive,
verify_action_exhaustive and verify_extension_exhaustive, on valid inputs
and on inputs corrupted at one generator value or at one other value.
is_invertible must be False exactly where Matrix.inverse raises, and the
divisor-only Smith form must give the divisors of the full one.
"""

from hypothesis import given, settings, strategies as st

from orbipar.equivariant import (Cocycle, ProductGModule, assemble_product, coboundary,
                                 verify_action, verify_action_exhaustive, verify_cocycle,
                                 verify_cocycle_exhaustive)
from orbipar.errors import OrbiparError
from orbipar.fields import make_field
from orbipar.groups import cyclic, dihedral, direct_product
from orbipar.linalg import Matrix, is_invertible, residue_det, series_part, smith
from orbipar.local_galois import (LocalExtension, make_artin_schreier, make_kummer,
                                  trivial_extension, verify_extension,
                                  verify_extension_exhaustive)
from orbipar.parabolic import ScenePoint, build_spec_from_scene
from orbipar.prng import SplitMix64
from orbipar.series import Laurent, Series

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


def _unimodular(field, rank, rng):
    while True:
        m = Matrix([[Series(field, N, tuple(rng.randrange(field.order) for _ in range(N)))
                     for _ in range(rank)] for _ in range(rank)])
        if residue_det(field, m.residue()) != 0:
            return m


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
    c = coboundary(ext, _unimodular(field, rank, SplitMix64(seed)), character=character)
    x = _target(ext.group, where, pick) if where != "none" else None
    if x is not None:
        mats = list(c.mats)
        mats[x] = _bump(mats[x], i % rank, j % rank, k)
        c = Cocycle(ext, rank, tuple(mats))
    fast, ref = verify_cocycle(c), verify_cocycle_exhaustive(c)
    assert fast == ref
    assert ref.ok or x is not None


@settings(max_examples=30, deadline=None)
@given(scene_i=st.integers(0, len(SCENES) - 1), rank=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), where=corruption, part=st.sampled_from(["m", "w"]),
       pick=st.integers(0, 7), comp=st.integers(0, 1), i=st.integers(0, 1),
       j=st.integers(0, 1), k=st.integers(0, N - 1))
def test_verify_action_equals_exhaustive(scene_i, rank, seed, where, part, pick, comp, i, j, k):
    sp, group = SCENES[scene_i]
    ext = sp.ext
    psi = coboundary(ext, _unimodular(ext.field, rank, SplitMix64(seed)))
    module = assemble_product(build_spec_from_scene(sp, group, psi))
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
    c = coboundary(ext, _unimodular(ext.field, 2, SplitMix64(3)))
    mats = list(c.mats)
    mats[3] = _bump(mats[3], 1, 0, 2)
    bad = Cocycle(ext, 2, tuple(mats))
    rep = verify_cocycle(bad)
    assert rep == verify_cocycle_exhaustive(bad)
    assert not rep.ok and rep.failing_pair == (1, 2) and rep.entry == (1, 0)


@st.composite
def laurent_matrices(draw):
    """Square Laurent matrices, some singular (a repeated or zero row, sparse
    low-precision entries) and some with no common validity window (an
    empty entry below every other floor)."""
    field = make_field(draw(st.sampled_from([2, 3, 5, 7])))
    r = draw(st.integers(1, 3))
    zero_bias = draw(st.floats(0, 0.9))

    def entry():
        length = draw(st.integers(1, N))
        coeffs = tuple(0 if draw(st.floats(0, 1)) < zero_bias
                       else draw(st.integers(0, field.order - 1)) for _ in range(length))
        return Laurent(field, draw(st.integers(-2, 2)), coeffs)

    rows = [[entry() for _ in range(r)] for _ in range(r)]
    shape = draw(st.sampled_from(["random", "repeat", "zero", "no-window"]))
    if shape == "repeat" and r > 1:
        rows[1] = list(rows[0])
    elif shape == "zero":
        rows[0] = [Laurent(field, 0, (0,) * N) for _ in range(r)]
    elif shape == "no-window":
        rows[0][0] = Laurent(field, -3, ())
    return Matrix(rows)


@settings(max_examples=150, deadline=None)
@given(laurent_matrices())
def test_is_invertible_iff_inverse_succeeds(m):
    try:
        m.inverse()
        inverts = True
    except OrbiparError:
        inverts = False
    assert is_invertible(m) == inverts
    if inverts:
        ser = series_part(m)[0]
        full, divisors_only = smith(ser), smith(ser, transforms=False)
        assert (full.divisors, full.trust) == (divisors_only.divisors, divisors_only.trust)
