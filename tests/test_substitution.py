"""The cached substitution operator ext.psi(g) against Horner composition.

The oracle is Series.compose for series and the Laurent substitution rule
written out below (the windowed rule Laurent.substitute implements): a value
s^v * U(s) maps to act^v * U(act), with act^v computed by Laurent.pow.  The
operator must reproduce it exactly: the same val_floor, the same window
length and the same coefficients.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from orbipar.errors import StructuralError
from orbipar.fields import make_field
from orbipar.groups import cyclic
from orbipar.linalg import Matrix
from orbipar.local_galois import (Substitution, kummer_tower, make_artin_schreier,
                                  make_explicit, make_kummer)
from orbipar.prng import SplitMix64
from orbipar.series import Laurent, Series

from series_reversion import reversion


def horner_substitute(x: Laurent, act: Series) -> Laurent:
    n = len(x.coeffs)
    unit = Series(x.field, n, x.coeffs)
    mapped = unit.compose(act.truncate(n) if n < act.prec else act)
    mapped_l = Laurent(x.field, 0, mapped.coeffs)
    if x.val_floor == 0:
        return mapped_l
    return Laurent.from_series(act).pow(x.val_floor) * mapped_l


def series_pow(x: Series, e: int) -> Series:
    """x^e by repeated squaring: the oracle for Substitution.power."""
    out, base = Series.one(x.field, x.prec), x
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def conjugated_kummer(field, n, prec):
    """Kummer(n) conjugated by s -> s + s^2: every image is a dense series."""
    base = make_kummer(field, n, prec)
    phi = Series.from_coeffs(field, [0, 1, 1], prec)
    phi_inv = reversion(phi)
    action = [phi.compose(a).compose(phi_inv) for a in base.action]
    t = base.base_uniformizer.compose(phi_inv)
    return make_explicit(field, prec, cyclic(n), action, t)


EXTENSIONS = {
    "kummer-gf7": lambda: make_kummer(make_field(7), 3, 16),
    "kummer-gf13": lambda: make_kummer(make_field(13), 4, 12),
    "as-p2": lambda: make_artin_schreier(make_field(2), 16),
    "as-p3": lambda: make_artin_schreier(make_field(3), 12),
    "as-gf9": lambda: make_artin_schreier(make_field(3, 2), 12),
    "explicit": lambda: conjugated_kummer(make_field(7), 3, 10),
    "tower-small": lambda: kummer_tower(make_field(5), 2, 4, 12).small,
    "tower-big": lambda: kummer_tower(make_field(5), 2, 4, 12).big,
}


@lru_cache(maxsize=None)
def extension(name):
    return EXTENSIONS[name]()


@st.composite
def element_and_coeffs(draw, name, window=False):
    """A group element and a coefficient vector: full length, or any window
    length up to the precision."""
    ext = extension(name)
    g = draw(st.integers(0, ext.group.order - 1))
    n = draw(st.integers(1, ext.prec)) if window else ext.prec
    coeffs = draw(st.lists(st.integers(0, ext.field.order - 1), min_size=n, max_size=n))
    return ext, g, coeffs


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_fixtures_cover_diagonal_and_table_paths(name):
    ext = extension(name)
    monomial = all(not any(a.coeffs[2:]) for a in ext.action)
    assert monomial == (name.startswith("kummer") or name.startswith("tower"))


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_psi_series_matches_compose(name, data):
    ext, g, coeffs = data.draw(element_and_coeffs(name))
    f = Series(ext.field, ext.prec, tuple(coeffs))
    assert ext.psi(g)(f).coeffs == f.compose(ext.act(g)).coeffs


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), v=st.integers(-3, 3))
def test_psi_laurent_matches_horner_window(name, data, v):
    ext, g, coeffs = data.draw(element_and_coeffs(name, window=True))
    x = Laurent(ext.field, v, tuple(coeffs))
    got = ext.psi(g)(x)
    want = horner_substitute(x, ext.act(g))
    assert (got.val_floor, got.coeffs) == (want.val_floor, want.coeffs)


@pytest.mark.parametrize("name", ["as-gf9", "kummer-gf7", "explicit"])
def test_psi_matrix_and_powers(name):
    ext = extension(name)
    field, prec = ext.field, ext.prec
    m = Matrix([[Series.from_coeffs(field, [(i + 2 * j + k) % field.order for k in range(prec)], prec)
                 for j in range(2)] for i in range(2)])
    ml = m.to_laurent().map(lambda e: e.shift(-1))
    for g in range(ext.group.order):
        assert ext.psi(g)(m) == m.substitute(ext.act(g))
        assert ext.psi(g)(ml) == ml.substitute(ext.act(g))
        for k in range(prec + 2):
            assert ext.psi(g).power(k) == series_pow(ext.act(g), k)


def test_psi_is_cached_and_invisible():
    ext = make_artin_schreier(make_field(3), 8)
    twin = make_artin_schreier(make_field(3), 8)
    op = ext.psi(1)
    assert ext.psi(1) is op
    assert ext == twin and hash(ext) == hash(twin)
    assert "_psi" not in repr(ext)


def test_psi_rejects_mismatched_precision():
    ext = make_kummer(make_field(7), 3, 8)
    with pytest.raises(StructuralError):
        ext.psi(1)(Series.one(ext.field, 6))
    with pytest.raises(StructuralError):
        ext.psi(1)(Laurent.zero(ext.field, 9))


# (p, k, prec, slot bytes of the packed powers): over GF(4), GF(9) and GF(27)
# the powers take 8-bit slots, which fold in bytes; over GF(49) they take
# 16-bit slots, and p^(2k-1) = 343 > 256 rules the byte fold out anyway
PACKED_PSI = [(2, 2, 20, 1), (3, 2, 24, 1), (3, 3, 16, 1), (7, 2, 12, 2)]


@pytest.mark.parametrize("p,k,prec,nbytes", PACKED_PSI,
                         ids=[f"GF({p}^{k})" for p, k, _, _ in PACKED_PSI])
def test_packed_psi_matches_compose_and_substitute(p, k, prec, nbytes):
    """Artin-Schreier psi over GF(p^k), one packed sum per application,
    against Series.compose and Laurent.substitute: every element but the
    identity, full series, and Laurent windows of every length with floors
    from -3 to 3."""
    field = make_field(p, k)
    ext = make_artin_schreier(field, prec)
    rng = SplitMix64(p * 100 + k)
    q = field.order
    for g in range(1, ext.group.order):
        op, act = ext.psi(g), ext.act(g)
        assert op._table()[1][0] == nbytes
        for _ in range(6):
            f = Series(field, prec, tuple(rng.randrange(q) for _ in range(prec)))
            assert op(f).coeffs == f.compose(act).coeffs
        for n in range(1, prec + 1):
            x = Laurent(field, rng.randrange(7) - 3, tuple(rng.randrange(q) for _ in range(n)))
            got, want = op(x), x.substitute(act)
            assert (got.val_floor, got.coeffs) == (want.val_floor, want.coeffs)
        top = Series(field, prec, (q - 1,) * prec)      # every digit p - 1
        assert op(top).coeffs == top.compose(act).coeffs


def general_identity(ext):
    """psi(e) with its shortcut off: the table path of _map, as for any
    non-monomial image."""
    op = Substitution(ext.act(0))
    op.identity, op.scalars = False, None
    return op


@pytest.mark.parametrize("name", ["kummer-gf7", "as-p2", "as-gf9"])
def test_psi_identity_returns_its_argument(name):
    """psi(e) equals the general path on Series, Series and Laurent
    matrices and Laurent values with floors -3..3 at every window length,
    and returns the argument itself for a Series, a Series matrix and a
    Laurent value with val_floor 0."""
    ext = extension(name)
    field, prec = ext.field, ext.prec
    psi_e, ref = ext.psi(0), general_identity(ext)
    assert psi_e.identity
    rng = SplitMix64(prec)
    coeffs = tuple(rng.randrange(field.order) for _ in range(prec))
    f = Series(field, prec, coeffs)
    assert psi_e(f) is f and f == ref(f)
    m = Matrix([[Series(field, prec, coeffs[i:] + coeffs[:i]) for i in range(j, j + 2)]
                for j in range(2)])
    assert psi_e(m) is m and m == ref(m)
    for v in range(-3, 4):
        for n in range(1, prec + 1):
            x = Laurent(field, v, coeffs[:n])
            got, want = psi_e(x), ref(x)
            assert (got.val_floor, got.coeffs) == (want.val_floor, want.coeffs)
            assert (got is x) == (v == 0)
    ml = Matrix([[Laurent(field, v, coeffs[:prec - abs(v)]) for v in (-2, 0)],
                 [Laurent(field, v, coeffs[:prec - 1]) for v in (0, 3)]])
    got, want = psi_e(ml), ref(ml)
    assert [[(e.val_floor, e.coeffs) for e in row] for row in got.entries] == \
        [[(e.val_floor, e.coeffs) for e in row] for row in want.entries]
    assert got.entries[0][1] is ml.entries[0][1] and got.entries[1][0] is ml.entries[1][0]


def test_psi_identity_keeps_its_errors():
    """psi(e) checks the field, the precision and the window before it
    returns its argument, and raises as the general path does."""
    ext = extension("as-gf9")
    other = make_field(7)
    psi_e, ref = ext.psi(0), general_identity(ext)
    prec = ext.prec
    bad = [(Series.one(ext.field, prec - 2), "precision mismatch"),
           (Series.one(ext.field, prec + 1), "precision mismatch"),
           (Series.one(other, prec), "field mismatch"),
           (Matrix.identity(ext.field, 2, prec - 1), "precision mismatch"),
           (Matrix([[Series.one(ext.field, prec), Series.zero(ext.field, prec - 1)]]),
            "precision mismatch"),
           (Matrix.identity(other, 2, prec), "field mismatch"),
           (Laurent.zero(ext.field, prec + 1), "precision mismatch"),
           (Laurent(other, 0, (1,)), "field mismatch")]
    for x, message in bad:
        for op in (psi_e, ref):
            with pytest.raises(StructuralError, match=message):
                op(x)
