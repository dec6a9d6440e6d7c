"""Layer timings: series kernels, matrix products, elimination, functors, round trips.

Usage: python benchmarks/bench_kernels.py [repeats [out.json]]

Each case is timed in `runs` runs of a fixed number of calls; a case reports
the median and the minimum over the runs of the time per call, at nominal
machine speed: each run is timed by perfbench's calibrated timer (Meter in
perfbench/run.py), which divides out the machine's current slowdown.  With
out.json the results are also written there as JSON, together with the
machine and the Python version.

Cases, layer by layer:

* field ops: FieldCtx.mul, FieldCtx.inv and FieldCtx.add over GF(13) and
  GF(9), per operation, over a fixed list of operands;
* kernels: truncated product, series inversion and series composition at
  several precisions over a prime field and an extension field, and the
  product over GF(9) at N=24, the `wild-extfield` size, whose 8-bit slots
  fold in bytes;
* matrix products: Matrix.__mul__ (kernels.mat_mul) against the entrywise
  sum of Series products, outputs asserted equal, over GF(7), GF(13) and
  GF(9), plus two short shapes: 4x4 GF(13) at N=1 and the GF(9) outer
  product 4x1 * 1x4 at N=3;
* Laurent matrix products: Matrix.__mul__ (kernels.laurent_mat_mul)
  against the entrywise chain of Laurent products and sums, outputs
  asserted equal, at 1x1 GF(9) N=24, 2x2 GF(7) N=16, 4x4 GF(13) N=8 and
  the GF(9) outer product 4x1 * 1x4 at N=3, with floors and lengths
  varying per entry;
* Matrix.inverse (Gauss-Jordan over k[[s]]) of a random unimodular rank-2
  matrix over GF(7) at N=16 and over GF(9) at N=24, the product with the
  matrix asserted to be the identity;
* fixed_rows (kernels.fixed_point_rows) on three shapes: the Hom actions
  kron(A_g, A*_g) of a rank-2 GF(13), N=8 Kummer Z/4 datum (rank 4, 32 x 32
  per action: an isomorphism search between rank-2 data); the Hom actions
  of the search dual_pairing_check falls back to, on V (x) V* of that
  datum against the trivial datum (the `calculus` size: rank 16, 128 x 128
  per action); and the cocycle of a rank-2 Artin-Schreier datum over GF(9) at
  N=24 (the `wild-extfield` invariants size: rank 2, 48 x 48 per action);
* decompose_series, restriction of scalars through the extension's cached
  decomposition matrix, on Kummer Z/4 over GF(13) at N=8 (`calculus`) and
  Artin-Schreier over GF(9) at N=24;
* psi(g) apply: one application of the cached substitution operator against
  the Horner vec_compose it replaces (outputs asserted equal), plus the
  one-off cost of building its table of powers where it has one;
* identity shortcuts: psi(e) on a rank-2 GF(9) N=24 Series matrix, which
  returns the matrix itself, against the entrywise copy it skips, and
  I * M at GF(7), r=2, N=16, which returns M, against kernels.mat_mul;
* solve_linear on three systems the program really builds: the joint
  system of find_parabolic_isomorphism on V (x) V* against the trivial
  datum, the search dual_pairing_check falls back to (the `calculus` size,
  256 x 160 over GF(13), solved whole as the reference),
  the fixed-space system of invariants on a rank-2 Kummer Z/3 datum (the
  `tame-roundtrip` rank*N size, 32 x 32 over GF(7)) and on a rank-2
  Artin-Schreier datum (the `wild-extfield` rank*N size, 48 x 48 over
  GF(9)); prime fields take the packed rows, GF(9) the byte rows; plus
  kernel_by_blocks, which the search itself runs on that joint system
  (four equal 60 x 40 blocks, one solve shared by all four; its kernel
  asserted equal to solve_linear's) and on the `calculus` equiv system
  (16 x 10 over GF(13), a rank-1 Kummer Z/2 datum against its pullback to
  Z/4, compared on Z/4: two distinct blocks, so nothing is shared and the
  row shows what finding and keying blocks costs), null_space (one solve
  on the reversed columns) on the calculus joint system, and echelonize
  on the largest system trivialize's stage 3 builds for the wild datum
  below (36 x 96 over GF(9));
* evaluate_in_base, h(t) at N/e coefficients re-expanded in s, on each
  workload's extension: Kummer Z/3 over GF(7) at N=16, Artin-Schreier over
  GF(9) at N=24 and Kummer Z/4 over GF(13) at N=8;
* module ops: invariants on a rank-2 Artin-Schreier datum (GF(9), N=24, the
  `wild-extfield` datum) and on a rank-3 Kummer Z/3 datum (GF(7), N=16, the
  `tame-roundtrip` rank-3 datum), trivialize on the same wild datum (stage
  3 decides it) and on the cocycle of V (x) V* for a rank-2 GF(13), N=8
  Kummer Z/4 datum (the `calculus` dual_pairing size, rank 4; stage 1's
  average decides it), and
  assemble_product on a rank-2 datum over the two-component Z/6 scene
  (GF(7), N=16); each call runs outside a scenario run, so the run memo is
  off and every call does its work afresh;
* law checks: verify_cocycle and verify_action, which prove their group
  laws on the generators, against verify_cocycle_exhaustive and
  verify_action_exhaustive, which scan every pair (reports asserted equal),
  on that Z/6 datum's cocycle and module (verify_action on a copy of the
  module without the Report its assembly proved, which it would otherwise
  return); is_invertible against
  laurent_inverse on its mu, and against the Smith form of the series
  part on each of its branches: that mu, whose lowest coefficients
  decide, and mu * diag(1, t), t = s^3, whose lowest coefficients are
  singular, so that Smith decides; and the unary laws check_mu_equivariance,
  check_tau_equivariance, first_nonintertwining and
  check_sigma_equivariance against their *_exhaustive scans, on its mu, its
  glued point, the intertwiner between two connector families and the
  S o T sigma, inside a scenario run that holds their premises;
* assembly and pushforward: build_spec_from_scene and
  independence_intertwiner (two connector families) on that Z/6 datum,
  pushforward_local on a rank-1 GF(13), N=8 Kummer Z/4 datum over the
  totally ramified Z/4 scene (the `calculus` size), and its
  PushedBundle.verify, which proves the representation laws on the
  generators, against verify_exhaustive, which scans every pair (results
  asserted equal);
* functor layer: functor_T and functor_S on that Z/6 datum, and
  dual_pairing_check on rank-2 GF(13), N=8 Kummer Z/4 data; on V (x) V*
  of one such datum, the isomorphism it builds from its trivializations
  (iso_from_trivializations) against the find_parabolic_isomorphism
  search it would otherwise run, each timed on its own;
* end to end: Z/6 round trips.
"""

import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from orbipar import kernels
from orbipar.fields import make_field
from orbipar.groups import Report
from orbipar.prng import SplitMix64
from run import Meter


def timed(results, name, fn, calls, runs, items=1):
    """Time `runs` runs of `calls` calls of fn, each call handling `items`
    items, at nominal speed; record and return the median and minimum
    seconds per item."""
    def run():
        for _ in range(calls):
            fn()

    per_call = []
    with Meter() as meter:
        for _ in range(runs):
            meter.time(run)
            per_call.append(meter.last_s / (calls * items))
    med, low = statistics.median(per_call), min(per_call)
    results[name] = {"median_us": round(med * 1e6, 3), "min_us": round(low * 1e6, 3),
                     "calls": calls, "runs": runs}
    return med, low


def bench_field_ops(results, repeats, runs):
    """FieldCtx.mul, inv and add per operation, over repeats operand pairs."""
    print(f"{'field op':<16}{'field':<10}{'median':>12}{'min':>12}")
    for field in (make_field(13), make_field(3, 2)):
        ctx, q, fname = field.ctx, field.order, field.describe()
        rng = SplitMix64(q)
        pairs = [(1 + rng.randrange(q - 1), 1 + rng.randrange(q - 1)) for _ in range(repeats)]
        cases = [("mul", lambda: [ctx.mul(a, b) for a, b in pairs]),
                 ("inv", lambda: [ctx.inv(a) for a, _ in pairs]),
                 ("add", lambda: [ctx.add(a, b) for a, b in pairs])]
        for op, fn in cases:
            med, low = timed(results, f"FieldCtx.{op} {fname}", fn, 1, runs, items=len(pairs))
            print(f"{'FieldCtx.' + op:<16}{fname:<10}{med * 1e9:>10.1f}ns{low * 1e9:>10.1f}ns")


def bench_kernels(results, repeats, runs):
    sizes = (8, 16, 32, 64)
    fields = [("GF(5)", make_field(5), sizes), ("GF(49)", make_field(7, 2), sizes)]
    wild = [("GF(9)", make_field(3, 2), (24,))]
    print(f"{'kernel':<14}{'field':<8}{'N':>4}{'median':>12}{'min':>12}")
    for fn_name in ("vec_mul", "vec_inverse", "vec_compose"):
        fn = getattr(kernels, fn_name)
        for fname, field, ns in fields + (wild if fn_name == "vec_mul" else []):
            ctx, q = field.ctx, field.order
            for n in ns:
                rng = SplitMix64(n * 31 + len(fn_name))
                a = [rng.randrange(q) for _ in range(n)]
                a[0] = 1 + rng.randrange(q - 1)
                g = [0] + [rng.randrange(q) for _ in range(n - 1)]
                args = {"vec_mul": (ctx, a, g, n), "vec_inverse": (ctx, a, n),
                        "vec_compose": (ctx, a, g, n)}[fn_name]
                calls = max(repeats // (n if fn_name != "vec_compose" else n * 4), 1)
                med, low = timed(results, f"{fn_name} {fname} N={n}",
                                 lambda: fn(*args), calls, runs)
                print(f"{fn_name:<14}{fname:<8}{n:>4}{med * 1e6:>10.1f}us{low * 1e6:>10.1f}us")


def _entrywise_product(a, b):
    """The product as a sum of entry products (Series or Laurent), entry by
    entry."""
    from orbipar.linalg import Matrix

    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = a.entries[i][0] * b.entries[0][j]
            for t in range(1, a.cols):
                acc = acc + a.entries[i][t] * b.entries[t][j]
            row.append(acc)
        rows.append(row)
    return Matrix(rows)


# (p, k), shape, N: shape r is r x r times r x r, shape (4, 1, 4) is the
# outer product 4x1 * 1x4
MAT_MUL_CASES = (((7, 1), 2, 16), ((7, 1), 3, 16), ((13, 1), 4, 8), ((3, 2), 2, 24),
                 ((13, 1), 4, 1), ((3, 2), (4, 1, 4), 3))
LAURENT_MUL_CASES = (((3, 2), 1, 24), ((7, 1), 2, 16), ((13, 1), 4, 8), ((3, 2), (4, 1, 4), 3))


def _shape(shape):
    """(rows, inner, cols, label) of a case's shape."""
    if isinstance(shape, int):
        return shape, shape, shape, f"r={shape}"
    rows, inner, cols = shape
    return rows, inner, cols, f"{rows}x{inner}*{inner}x{cols}"


def bench_mat_mul(results, repeats, runs):
    from orbipar.linalg import Matrix
    from orbipar.series import Series

    print(f"{'matrix product':<16}{'r':>3}{'N':>4}{'entrywise':>12}{'mat_mul':>12}{'gain':>8}")
    for (p, k), shape, n in MAT_MUL_CASES:
        rows, inner, cols, label = _shape(shape)
        field = make_field(p, k)
        q, fname = field.order, field.describe()
        rng = SplitMix64(q * 100 + rows)

        def random_matrix(h, w):
            return Matrix([[Series(field, n, tuple(rng.randrange(q) for _ in range(n)))
                            for _ in range(w)] for _ in range(h)])

        a, b = random_matrix(rows, inner), random_matrix(inner, cols)
        assert a * b == _entrywise_product(a, b), "mat_mul disagrees with the entrywise product"
        calls = max(repeats // (n * rows * cols), 1)
        old = timed(results, f"entrywise product {fname} {label} N={n}",
                    lambda: _entrywise_product(a, b), calls, runs)[0]
        new = timed(results, f"Matrix.__mul__ {fname} {label} N={n}", lambda: a * b,
                    calls, runs)[0]
        print(f"{fname:<16}{label.removeprefix('r='):>3}{n:>4}{old * 1e6:>10.1f}us"
              f"{new * 1e6:>10.1f}us{old / new:>7.1f}x")


def bench_laurent_mul(results, repeats, runs):
    from orbipar.linalg import Matrix
    from orbipar.series import Laurent

    print(f"{'Laurent product':<16}{'r':>3}{'N':>4}{'entrywise':>12}{'Matrix*':>12}{'gain':>8}")
    for (p, k), shape, n in LAURENT_MUL_CASES:
        rows, inner, cols, label = _shape(shape)
        field = make_field(p, k)
        q, fname = field.order, field.describe()
        rng = SplitMix64(q * 1000 + rows)

        def random_matrix(h, w):
            return Matrix([[Laurent(field, rng.randrange(5) - 2,
                                    tuple(rng.randrange(q) for _ in range(n - rng.randrange(3))))
                            for _ in range(w)] for _ in range(h)])

        a, b = random_matrix(rows, inner), random_matrix(inner, cols)
        assert a * b == _entrywise_product(a, b), \
            "the Laurent matrix product disagrees with the entrywise product"
        calls = max(repeats // (n * rows * cols), 1)
        old = timed(results, f"entrywise Laurent product {fname} {label} N={n}",
                    lambda: _entrywise_product(a, b), calls, runs)[0]
        new = timed(results, f"Laurent Matrix.__mul__ {fname} {label} N={n}", lambda: a * b,
                    calls, runs)[0]
        print(f"{fname:<16}{label.removeprefix('r='):>3}{n:>4}{old * 1e6:>10.1f}us"
              f"{new * 1e6:>10.1f}us{old / new:>7.1f}x")


def bench_matrix_inverse(results, repeats, runs):
    """Matrix.inverse of a random unimodular rank-2 matrix over a prime field
    and an extension field."""
    from orbipar.linalg import Matrix
    from orbipar.parabolic import random_unimodular

    for (p, k), n in (((7, 1), 16), ((3, 2), 24)):
        field = make_field(p, k)
        a = random_unimodular(field, 2, n, SplitMix64(p * 10 + n))
        assert a * a.inverse() == Matrix.identity(field, 2, n), "Matrix.inverse is not an inverse"
        case = f"{field.describe()} r=2 N={n}"
        med, low = timed(results, f"Matrix.inverse {case}", a.inverse,
                         max(repeats // (n * 10), 1), runs)
        print(f"Matrix.inverse, {case}: {med * 1e6:.1f} us median, {low * 1e6:.1f} us min")


def bench_fixed_rows(results, runs):
    """fixed_rows on the Hom actions of the isomorphism searches and on a
    wild cocycle."""
    from orbipar.equivariant import fixed_rows
    from orbipar.linalg import kron
    from orbipar.local_galois import make_artin_schreier, make_kummer
    from orbipar.parabolic import random_datum, trivial_datum
    from orbipar.pvect import dual, dual_matrix, tensor

    ext = make_kummer(make_field(13), 4, 8)
    d = random_datum(ext, 2, SplitMix64(2718), character_exponent=1)
    c = d.points[0].psi
    pair = tensor(d, dual(d)).points[0].psi
    ident = trivial_datum(4, [("p", ext)]).points[0].psi
    wild = make_artin_schreier(make_field(3, 2), 24)
    cases = [("rank-2 Hom actions", "rank 4 GF(13) N=8", ext,
              [(kron(c.mats[g], dual_matrix(c, g)), g) for g in ext.group.generators()]),
             ("calculus dual_pairing Hom actions", "rank 16 GF(13) N=8", ext,
              [(kron(ident.mats[g], dual_matrix(pair, g)), g) for g in ext.group.generators()]),
             ("wild cocycle", "rank 2 GF(3^2) N=24", wild,
              [(random_datum(wild, 2, SplitMix64(2719)).points[0].psi.mats[g], g)
               for g in wild.group.generators()])]
    for label, shape, ext, mats in cases:
        actions = [(a, ext.psi(g).power) for a, g in mats]
        rank = actions[0][0].rows
        med, low = timed(results, f"fixed_rows {label} {shape}",
                         lambda: fixed_rows(ext.field, rank, ext.prec, actions), 10, runs)
        size = rank * ext.prec
        print(f"fixed_rows, {label} ({shape}, {size}x{size}): {med * 1e6:.0f} us median, "
              f"{low * 1e6:.0f} us min")


def bench_decompose(results, repeats, runs):
    """decompose_series of a full-precision series on the calculus and wild
    extensions; the decomposition matrix is built before timing."""
    from orbipar.local_galois import make_artin_schreier, make_kummer
    from orbipar.pvect import decompose_series
    from orbipar.series import Series

    cases = [("Kummer Z/4", make_kummer(make_field(13), 4, 8)),
             ("Artin-Schreier", make_artin_schreier(make_field(3, 2), 24))]
    for label, ext in cases:
        field = ext.field
        rng = SplitMix64(ext.prec + 1)
        f = Series(field, ext.prec, tuple(rng.randrange(field.order) for _ in range(ext.prec)))
        decompose_series(ext, f)
        case = f"{label} {field.describe()} N={ext.prec}"
        med, low = timed(results, f"decompose_series {case}", lambda: decompose_series(ext, f),
                         max(repeats // 100, 1), runs)
        print(f"decompose_series, {case}: {med * 1e6:.1f} us median, {low * 1e6:.1f} us min")


def bench_psi(results, repeats, runs):
    """psi(g) application vs Horner vec_compose on the same series, per call."""
    from orbipar.local_galois import Substitution, make_artin_schreier, make_kummer
    from orbipar.series import Series

    cases = [("Kummer s->zeta*s", make_kummer(make_field(7), 3, 16), 1),
             ("AS s/(1+s)", make_artin_schreier(make_field(3, 2), 24), 1),
             ("AS s/(1+s)", make_artin_schreier(make_field(5), 64), 1)]
    print(f"{'psi(g) apply':<18}{'field':<8}{'N':>4}{'horner':>12}{'psi':>12}"
          f"{'speedup':>9}{'table build':>14}")
    for label, ext, g in cases:
        field, n = ext.field, ext.prec
        fname = f"GF({field.order})"
        rng = SplitMix64(n)
        f = Series(field, n, tuple(rng.randrange(field.order) for _ in range(n)))
        act = ext.act(g).coeffs
        calls = max(repeats // (n * 4), 1)
        op = ext.psi(g)
        build = "-"
        if op.scalars is None:      # applied through its table of powers
            t_build = timed(results, f"psi table build {label} {fname} N={n}",
                            lambda: Substitution(op.image)._table(),
                            max(repeats // (n * n), 1), runs)[0]
            build = f"{t_build * 1e6:.1f}us"
        horner = kernels.vec_compose(field.ctx, f.coeffs, act, n)
        assert list(op(f).coeffs) == horner, "psi(g) disagrees with Horner composition"
        t_horner = timed(results, f"Horner compose {label} {fname} N={n}",
                         lambda: kernels.vec_compose(field.ctx, f.coeffs, act, n),
                         calls, runs)[0]
        t_psi = timed(results, f"psi apply {label} {fname} N={n}", lambda: op(f),
                      calls, runs)[0]
        print(f"{label:<18}{fname:<8}{n:>4}{t_horner * 1e6:>10.1f}us{t_psi * 1e6:>10.1f}us"
              f"{t_horner / t_psi:>8.1f}x{build:>14}")


def bench_identity(results, repeats, runs):
    """The identity shortcuts against the work they skip: psi(e) on a rank-2
    Series matrix over GF(9) at N=24, against the entrywise map that copies
    each entry's coefficients (what psi(e) does without its shortcut), and
    I * M at GF(7), r=2, N=16, against kernels.mat_mul on the same
    coefficient rows (outputs asserted equal)."""
    from orbipar.linalg import Matrix
    from orbipar.local_galois import make_artin_schreier
    from orbipar.series import Series

    def random_matrix(field, r, n, rng):
        return Matrix([[Series(field, n, tuple(rng.randrange(field.order) for _ in range(n)))
                        for _ in range(r)] for _ in range(r)])

    ext = make_artin_schreier(make_field(3, 2), 24)
    field, n, op = ext.field, ext.prec, ext.psi(0)
    m = random_matrix(field, 2, n, SplitMix64(24))

    def copy_map():
        return m._map_checked(lambda e: Series(field, n, tuple(op._map(e.coeffs, n))), Series)

    assert op(m) == copy_map() == m, "psi(e) is not the identity"
    calls = max(repeats // (n * 4), 1)
    old = timed(results, f"psi(e) entrywise copy rank-2 matrix GF(3^2) N={n}", copy_map,
                calls, runs)[0]
    new = timed(results, f"psi(e) apply rank-2 matrix GF(3^2) N={n}", lambda: op(m),
                calls, runs)[0]
    print(f"psi(e) on a rank-2 Series matrix, GF(3^2) N={n}: {new * 1e6:.2f} us median "
          f"(entrywise copy {old * 1e6:.1f} us)")
    field, n = make_field(7), 16
    ident, m = Matrix.identity(field, 2, n), random_matrix(field, 2, n, SplitMix64(16))
    rows_i = [[e.coeffs for e in row] for row in ident.entries]
    rows_m = [[e.coeffs for e in row] for row in m.entries]
    assert [[list(e.coeffs) for e in row] for row in (ident * m).entries] == \
        kernels.mat_mul(field.ctx, rows_i, rows_m, n), "I * M disagrees with mat_mul"
    calls = max(repeats // (n * 4), 1)
    old = timed(results, f"mat_mul I * M GF(7) r=2 N={n}",
                lambda: kernels.mat_mul(field.ctx, rows_i, rows_m, n), calls, runs)[0]
    new = timed(results, f"I * M GF(7) r=2 N={n}", lambda: ident * m, calls, runs)[0]
    print(f"I * M, GF(7) r=2 N={n}: {new * 1e6:.2f} us median (mat_mul {old * 1e6:.1f} us)")


def _largest_system(call, name="solve_linear", bound_in=("linalg", "pvect")):
    """(field, rows) of the largest system that call() hands to `name`, as
    the orbipar modules `bound_in` bind it."""
    modules = [importlib.import_module(f"orbipar.{m}") for m in bound_in]
    original = getattr(modules[0], name)
    seen = []

    def record(field, rows, *rest):
        seen.append((field, rows))
        return original(field, rows, *rest)

    for module in modules:
        setattr(module, name, record)
    try:
        call()
    finally:
        for module in modules:
            setattr(module, name, original)
    return max(seen, key=lambda fr: len(fr[1]) * len(fr[1][0]))


def bench_solve(results, runs):
    from orbipar.equivariant import invariants, trivialize
    from orbipar.linalg import echelonize, kernel_by_blocks, null_space, solve_linear
    from orbipar.local_galois import (identity_embedding, kummer_tower, make_artin_schreier,
                                      make_kummer)
    from orbipar.parabolic import random_datum, trivial_datum
    from orbipar.pvect import (RefinementMap, dual, equiv_check, find_parabolic_isomorphism,
                               pullback_refine, tensor)

    calc = random_datum(make_kummer(make_field(13), 4, 8), 2, SplitMix64(2718),
                        character_exponent=1)
    tame = random_datum(make_kummer(make_field(7), 3, 16), 2, SplitMix64(12345),
                        character_exponent=1)
    wild = random_datum(make_artin_schreier(make_field(3, 2), 24), 2, SplitMix64(5))
    pair = tensor(calc, dual(calc))
    reference = trivial_datum(pair.rank, [(p.label, p.ext) for p in pair.points])
    joint = _largest_system(
        lambda: find_parabolic_isomorphism(pair, reference, rng=SplitMix64(1)),
        "kernel_by_blocks", ("pvect",))
    systems = [("calculus joint system", joint),
               ("tame invariants system", _largest_system(
                    lambda: invariants(tame.points[0].psi))),
               ("wild invariants system", _largest_system(
                    lambda: invariants(wild.points[0].psi)))]
    for label, (field, rows) in systems:
        size = f"{len(rows)}x{len(rows[0])} {field.describe()}"
        med, low = timed(results, f"solve_linear {label} {size}",
                         lambda: solve_linear(field, rows), 1, runs)
        print(f"solve_linear, {label} ({size}): {med * 1000:.1f} ms median, "
              f"{low * 1000:.1f} ms min")
    field, rows = joint
    size = f"{len(rows)}x{len(rows[0])} {field.describe()}"
    n = len(rows[0])
    assert kernel_by_blocks(field, rows, n) == solve_linear(field, rows).kernel, \
        "kernel_by_blocks disagrees with solve_linear"
    med, low = timed(results, f"kernel_by_blocks calculus joint system {size}",
                     lambda: kernel_by_blocks(field, rows, n), 1, runs)
    print(f"kernel_by_blocks, calculus joint system ({size}): {med * 1000:.1f} ms median, "
          f"{low * 1000:.1f} ms min")
    med, low = timed(results, f"null_space calculus joint system {size}",
                     lambda: null_space(field, rows, n), 1, runs)
    print(f"null_space, calculus joint system ({size}): {med * 1000:.1f} ms median, "
          f"{low * 1000:.1f} ms min")
    tower = kummer_tower(make_field(13), 2, 4, 8)
    small = random_datum(tower.small, 1, SplitMix64(1), character_exponent=1)
    refine = RefinementMap({"p": tower})
    refined = pullback_refine(small, refine)
    field, rows = _largest_system(
        lambda: equiv_check(small, refined, refine,
                            RefinementMap({"p": identity_embedding(tower.big)})),
        "kernel_by_blocks", ("pvect",))
    size = f"{len(rows)}x{len(rows[0])} {field.describe()}"
    n = len(rows[0])
    assert kernel_by_blocks(field, rows, n) == solve_linear(field, rows).kernel, \
        "kernel_by_blocks disagrees with solve_linear"
    med, low = timed(results, f"kernel_by_blocks calculus equiv system {size}",
                     lambda: kernel_by_blocks(field, rows, n), 50, runs)
    print(f"kernel_by_blocks, calculus equiv system ({size}): {med * 1e6:.0f} us median, "
          f"{low * 1e6:.0f} us min")
    field, rows = _largest_system(lambda: trivialize(wild.points[0].psi), "echelonize",
                                  ("equivariant",))
    size = f"{len(rows)}x{len(rows[0])} {field.describe()}"
    med, low = timed(results, f"echelonize wild trivialize system {size}",
                     lambda: echelonize(field, rows), 10, runs)
    print(f"echelonize, wild trivialize system ({size}): {med * 1e6:.0f} us median, "
          f"{low * 1e6:.0f} us min")


def bench_evaluate_in_base(results, repeats, runs):
    """evaluate_in_base of an h(t) with N/e coefficients on each workload's
    extension."""
    from orbipar.local_galois import evaluate_in_base, make_artin_schreier, make_kummer
    from orbipar.series import Series

    cases = [("tame Kummer Z/3", make_kummer(make_field(7), 3, 16)),
             ("wild Artin-Schreier", make_artin_schreier(make_field(3, 2), 24)),
             ("calculus Kummer Z/4", make_kummer(make_field(13), 4, 8))]
    for label, ext in cases:
        field, m = ext.field, ext.prec // ext.ram_index
        rng = SplitMix64(ext.prec)
        h = Series(field, m, tuple(rng.randrange(field.order) for _ in range(m)))
        case = f"{label} {field.describe()} N={ext.prec}"
        med, low = timed(results, f"evaluate_in_base {case}", lambda: evaluate_in_base(ext, h),
                         max(repeats // 100, 1), runs)
        print(f"evaluate_in_base, {case}: {med * 1e6:.1f} us median, {low * 1e6:.1f} us min")


def _z6_scene(ext):
    """The Z/6 scene over a Kummer Z/3 extension: two components, stabilizer
    the even elements."""
    from orbipar.groups import cyclic
    from orbipar.parabolic import CoverScene, ScenePoint

    return CoverScene(group=cyclic(6), points=(ScenePoint("p", ext, (0, 2, 4), (0, 1)),))


def bench_module_ops(results, runs):
    """invariants, trivialize, assemble_product, functor_T and functor_S, one
    call per run, each outside a scenario run (no memo).  trivialize runs on
    the wild cocycle, which stage 3 decides, and on the cocycle of V (x) V*
    for a rank-2 Kummer Z/4 datum, which stage 1's average decides."""
    from orbipar.equivariant import assemble_product, invariants, trivialize
    from orbipar.local_galois import make_artin_schreier, make_kummer
    from orbipar.parabolic import build_spec_from_scene, functor_S, functor_T, random_datum
    from orbipar.pvect import dual, tensor

    wild = random_datum(make_artin_schreier(make_field(3, 2), 24), 2,
                        SplitMix64(5)).points[0].psi
    v = random_datum(make_kummer(make_field(13), 4, 8), 2, SplitMix64(2718),
                     character_exponent=1)
    pairing = tensor(v, dual(v)).points[0].psi
    assert trivialize(pairing).stage == "averaging"
    k3 = make_kummer(make_field(7), 3, 16)
    tame3 = random_datum(k3, 3, SplitMix64(12345), character_exponent=1).points[0].psi
    scene = _z6_scene(k3)
    d = random_datum(k3, 2, SplitMix64(12345), character_exponent=1)
    sp = scene.points[0]
    spec = build_spec_from_scene(sp, scene.group, d.points[0].psi)
    glued = functor_T(d, scene)
    cases = [("invariants", "wild rank 2 GF(3^2) N=24", lambda: invariants(wild)),
             ("invariants", "tame rank 3 GF(7) N=16", lambda: invariants(tame3)),
             ("trivialize", "wild rank 2 GF(3^2) N=24", lambda: trivialize(wild)),
             ("trivialize", "calculus dual-pairing rank 4 GF(13) N=8",
              lambda: trivialize(pairing)),
             ("assemble_product", "Z/6 rank 2 GF(7) N=16", lambda: assemble_product(spec)),
             ("functor_T", "Z/6 rank 2 GF(7) N=16", lambda: functor_T(d, scene)),
             ("functor_S", "Z/6 rank 2 GF(7) N=16", lambda: functor_S(glued))]
    for op, label, fn in cases:
        med, low = timed(results, f"{op} {label}", fn, 1, runs)
        print(f"{op}, {label}: {med * 1000:.1f} ms median, {low * 1000:.1f} ms min")


def bench_law_checks(results, repeats, runs):
    """The generator proofs of the group laws against the exhaustive scans,
    and the invertibility test against the inverse and the Smith form, on the
    rank-2 Z/6 datum of bench_module_ops.  The unary laws (mu, tau,
    intertwiner, sigma) run inside a scenario run whose memo already holds
    their premises (verify_cocycle, verify_action), as in `orbipar run`."""
    from orbipar.equivariant import (ProductGModule, assemble_product, first_nonintertwining,
                                     first_nonintertwining_exhaustive, independence_intertwiner,
                                     make_connectors, verify_action, verify_action_exhaustive,
                                     verify_cocycle, verify_cocycle_exhaustive)
    from orbipar.linalg import Matrix, is_invertible, laurent_inverse, series_part, smith
    from orbipar.local_galois import make_kummer
    from orbipar.memo import run_scope
    from orbipar.parabolic import (build_spec_from_scene, check_mu_equivariance,
                                   check_mu_equivariance_exhaustive, check_sigma_equivariance,
                                   check_sigma_equivariance_exhaustive, check_tau_equivariance,
                                   check_tau_equivariance_exhaustive, functor_S, functor_T,
                                   random_datum)
    from orbipar.series import Laurent

    k3 = make_kummer(make_field(7), 3, 16)
    scene = _z6_scene(k3)
    sp, group = scene.points[0], scene.group
    d = random_datum(k3, 2, SplitMix64(12345), character_exponent=1)
    pt = d.points[0]
    module = assemble_product(build_spec_from_scene(sp, group, pt.psi))
    m2 = assemble_product(build_spec_from_scene(
        sp, group, pt.psi, connectors=make_connectors(group, sp.perms(group), [3])))
    blocks = independence_intertwiner(module, m2).blocks
    glued = functor_T(d, scene)
    sres = functor_S(glued)
    gpt, dst, sigma = glued.points[0], sres.datum.points[0], sres.sigmas["p"]
    # the module without its assembly Report, so verify_action proves the law
    bare = ProductGModule(spec=module.spec, phi=module.phi)
    assert verify_cocycle(pt.psi) == verify_cocycle_exhaustive(pt.psi)
    assert verify_action(module) == verify_action(bare) == verify_action_exhaustive(module)
    # mu * diag(1, t), t = s^3: invertible, its lowest coefficients singular
    f7 = k3.field
    mu_t = pt.mu * Matrix([[Laurent.exact(f7, 0, [1], 16), Laurent.zero(f7, 16)],
                           [Laurent.zero(f7, 16), Laurent.exact(f7, 3, [1], 16)]])

    def by_smith(m):
        """is_invertible's reference: the Smith form of the series part."""
        return None not in smith(series_part(m)[0]).divisors

    assert is_invertible(pt.mu) and is_invertible(mu_t) and by_smith(mu_t)
    # (reference, fast path, case, reference call, fast call)
    cases = [("verify_cocycle_exhaustive", "verify_cocycle", "Z/3 cocycle rank 2 GF(7) N=16",
              lambda: verify_cocycle_exhaustive(pt.psi), lambda: verify_cocycle(pt.psi)),
             ("verify_action_exhaustive", "verify_action", "Z/6 module rank 2 GF(7) N=16",
              lambda: verify_action_exhaustive(module), lambda: verify_action(bare)),
             ("laurent_inverse", "is_invertible", "tame mu rank 2 GF(7) N=16",
              lambda: laurent_inverse(pt.mu), lambda: is_invertible(pt.mu)),
             ("smith", "is_invertible", "mu rank 2 GF(7) N=16 lowest coeffs",
              lambda: by_smith(pt.mu), lambda: is_invertible(pt.mu)),
             ("smith", "is_invertible", "mu*diag(1,t) rank 2 GF(7) N=16 Smith",
              lambda: by_smith(mu_t), lambda: is_invertible(mu_t))]
    # (law, case, reference call, fast call)
    unary = [("check_mu_equivariance", "Z/3 mu rank 2 GF(7) N=16",
              lambda: check_mu_equivariance_exhaustive(pt.ext, pt.psi, pt.mu),
              lambda: check_mu_equivariance(pt.ext, pt.psi, pt.mu)),
             ("check_tau_equivariance", "Z/6 taus rank 2 GF(7) N=16",
              lambda: check_tau_equivariance_exhaustive(gpt, group),
              lambda: check_tau_equivariance(gpt, group)),
             ("first_nonintertwining", "Z/6 intertwiner rank 2 GF(7) N=16",
              lambda: first_nonintertwining_exhaustive(module, m2, blocks),
              lambda: first_nonintertwining(module, m2, blocks)),
             ("check_sigma_equivariance", "Z/3 S.T sigma rank 2 GF(7) N=16",
              lambda: check_sigma_equivariance_exhaustive(pt, dst, sigma),
              lambda: check_sigma_equivariance(pt, dst, sigma))]
    print(f"{'law check':<26}{'case':<36}{'reference':>12}{'fast':>12}{'gain':>8}")
    calls = max(repeats // 300, 1)

    def compare(cases):
        for ref_name, fast_name, label, ref, fast in cases:
            old = timed(results, f"{ref_name} {label}", ref, calls, runs)[0]
            new = timed(results, f"{fast_name} {label}", fast, calls, runs)[0]
            print(f"{fast_name:<26}{label:<36}{old * 1e6:>10.0f}us{new * 1e6:>10.0f}us"
                  f"{old / new:>7.1f}x")

    compare(cases)      # outside a run: no memo
    with run_scope():
        # the premises, as a scenario run holds them (the cocycle laws
        # memoized, the action laws carried by the assembled modules), so
        # that the fast calls below time the generator proofs alone
        assert all(verify_cocycle(c).ok for c in (pt.psi, dst.psi))
        assert all(verify_action(m).ok for m in (module, m2, gpt.module))
        for _, _, ref, fast in unary:
            assert fast() == ref() == Report(True, "ok")
        compare([(f"{name}_exhaustive", name, label, ref, fast)
                 for name, label, ref, fast in unary])


def bench_assembly(results, repeats, runs):
    """build_spec_from_scene and independence_intertwiner on the rank-2 Z/6
    datum of bench_module_ops; pushforward_local and PushedBundle.verify
    against verify_exhaustive on a rank-1 Kummer Z/4 datum."""
    from orbipar.equivariant import assemble_product, independence_intertwiner, make_connectors
    from orbipar.groups import cyclic
    from orbipar.local_galois import make_kummer
    from orbipar.parabolic import (CoverScene, ScenePoint, build_spec_from_scene, functor_T,
                                   random_datum)
    from orbipar.pvect import pushforward_local

    k3 = make_kummer(make_field(7), 3, 16)
    scene = _z6_scene(k3)
    sp, group = scene.points[0], scene.group
    psi = random_datum(k3, 2, SplitMix64(12345), character_exponent=1).points[0].psi
    m1 = assemble_product(build_spec_from_scene(sp, group, psi))
    m2 = assemble_product(build_spec_from_scene(
        sp, group, psi, connectors=make_connectors(group, sp.perms(group), [3])))
    k4 = make_kummer(make_field(13), 4, 8)
    scene4 = CoverScene(group=cyclic(4), points=(ScenePoint("p", k4, (0, 1, 2, 3), (0,)),))
    glued = functor_T(random_datum(k4, 1, SplitMix64(31), character_exponent=1), scene4)
    pushed = pushforward_local(glued)
    assert pushed.verify() == pushed.verify_exhaustive() == Report(True, "ok")
    z6, z4 = "Z/6 rank 2 GF(7) N=16", "Z/4 rank 1 GF(13) N=8"
    cases = [("build_spec_from_scene", z6, lambda: build_spec_from_scene(sp, group, psi)),
             ("independence_intertwiner", z6, lambda: independence_intertwiner(m1, m2)),
             ("pushforward_local", z4, lambda: pushforward_local(glued)),
             ("PushedBundle.verify_exhaustive", z4, pushed.verify_exhaustive),
             ("PushedBundle.verify", z4, pushed.verify)]
    calls = max(repeats // 300, 1)
    for op, label, fn in cases:
        med, low = timed(results, f"{op} {label}", fn, calls, runs)
        print(f"{op}, {label}: {med * 1e6:.0f} us median, {low * 1e6:.0f} us min")


def bench_dual_pairing(results, pairings, runs):
    """dual_pairing_check on rank-2 GF(13), N=8 Kummer Z/4 data, per call;
    and, on V (x) V* of the first datum against the trivial datum, the
    isomorphism dual_pairing_check builds from its trivializations
    (iso_from_trivializations) against the search it falls back to
    (find_parabolic_isomorphism), both asserted isomorphic."""
    from orbipar.equivariant import trivialize
    from orbipar.local_galois import make_kummer
    from orbipar.parabolic import random_datum, trivial_datum
    from orbipar.pvect import (dual, dual_pairing_check, find_parabolic_isomorphism,
                               iso_from_trivializations, tensor)

    ext = make_kummer(make_field(13), 4, 8)
    rng = SplitMix64(2718)
    data = [random_datum(ext, 2, rng, character_exponent=1) for _ in range(pairings)]
    pair = tensor(data[0], dual(data[0]))
    reference = trivial_datum(pair.rank, [(p.label, p.ext) for p in pair.points])
    assert find_parabolic_isomorphism(pair, reference, rng=SplitMix64(3)).status == "isomorphic"
    med, low = timed(results, "find_parabolic_isomorphism dual_pairing rank 4 GF(13) N=8",
                     lambda: find_parabolic_isomorphism(pair, reference, rng=SplitMix64(3)),
                     1, runs)
    print(f"find_parabolic_isomorphism, dual_pairing V(x)V* (rank 4, GF(13), N=8): "
          f"{med * 1000:.1f} ms median, {low * 1000:.1f} ms min")
    trivs = {p.label: trivialize(p.psi) for p in pair.points}
    assert iso_from_trivializations(pair, trivs).status == "isomorphic"
    med, low = timed(results, "iso_from_trivializations dual_pairing rank 4 GF(13) N=8",
                     lambda: iso_from_trivializations(pair, trivs), 1, runs)
    print(f"iso_from_trivializations, dual_pairing V(x)V* (rank 4, GF(13), N=8): "
          f"{med * 1000:.1f} ms median, {low * 1000:.1f} ms min")

    def check_all():
        for d in data:
            assert dual_pairing_check(d, rng=rng.fork()).ok

    return timed(results, "dual_pairing_check rank 2 GF(13) N=8 Kummer Z/4 (per datum)",
                 check_all, 1, runs, items=pairings)[0]


def bench_roundtrips(results, count, runs):
    from orbipar.local_galois import make_kummer
    from orbipar.parabolic import random_datum, roundtrip_check

    ext = make_kummer(make_field(7), 3, 16)
    scene = _z6_scene(ext)
    rng = SplitMix64(12345)
    data = [random_datum(ext, 2, rng, character_exponent=1) for _ in range(count)]

    def check_all():
        for d in data:
            assert roundtrip_check(d, scene).ok

    return timed(results, "Z/6 round trip rank 2 GF(7) N=16 (per datum)", check_all, 1, runs,
                 items=count)[0]


def main(repeats=3000, roundtrips=10, pairings=5, runs=5, out=None):
    results = {}
    bench_field_ops(results, repeats, runs)
    print()
    bench_kernels(results, repeats, runs)
    print()
    bench_mat_mul(results, repeats, runs)
    print()
    bench_laurent_mul(results, repeats, runs)
    bench_matrix_inverse(results, repeats, runs)
    bench_fixed_rows(results, runs)
    bench_decompose(results, repeats, runs)
    print()
    bench_psi(results, repeats, runs)
    bench_identity(results, repeats, runs)
    print()
    bench_solve(results, runs)
    print()
    bench_evaluate_in_base(results, repeats, runs)
    print()
    bench_module_ops(results, runs)
    print()
    bench_law_checks(results, repeats, runs)
    print()
    bench_assembly(results, repeats, runs)
    t = bench_dual_pairing(results, pairings, runs)
    print(f"functor layer: dual_pairing_check (rank 2, GF(13), N=8, Kummer Z/4): "
          f"{t * 1000:.0f} ms each over {pairings}")
    t = bench_roundtrips(results, roundtrips, runs)
    print(f"end-to-end: {roundtrips} Z/6 round trips (rank 2, N=16): "
          f"{t * 1000:.0f} ms each")
    if out is not None:
        doc = {"machine": {"platform": platform.platform(), "arch": platform.machine(),
                           "cpus": os.cpu_count()},
               "python": platform.python_version(), "runs": runs,
               "unit": "microseconds per call", "cases": results}
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return results


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:2]), out=sys.argv[2] if len(sys.argv) > 2 else None)
