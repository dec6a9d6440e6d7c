"""Time the series kernels, the substitution operator and a round-trip workload.

Usage: python benchmarks/bench_kernels.py [repeats]

Times the three hot kernels (truncated product, series inversion, series
composition) at several precisions over a prime field and an extension
field.  A second table compares one application of the cached substitution
operator ext.psi(g) with the Horner vec_compose it replaces (outputs asserted
equal), and gives the one-off cost of building its table.  A functor-layer
line times dual_pairing_check, which runs find_parabolic_isomorphism on
V (x) V*; last comes an end-to-end workload of Z/6 round trips.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbipar import kernels
from orbipar.fields import make_field
from orbipar.prng import SplitMix64


def bench_kernel(ctx, fn_name, n, repeats):
    rng = SplitMix64(n * 31 + len(fn_name))
    q = ctx.q
    a = [rng.randrange(q) for _ in range(n)]
    a[0] = 1 + rng.randrange(q - 1)
    g = [0] + [rng.randrange(q) for _ in range(n - 1)]
    fn = getattr(kernels, fn_name)
    args = {"vec_mul": (ctx, a, g, n), "vec_inverse": (ctx, a, n),
            "vec_compose": (ctx, a, g, n)}[fn_name]
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return time.perf_counter() - t0


def bench_psi(repeats):
    """psi(g) application vs Horner vec_compose on the same series, per call."""
    from orbipar.local_galois import make_artin_schreier, make_kummer
    from orbipar.series import Series

    cases = [("Kummer s->zeta*s", make_kummer(make_field(7), 3, 16), 1),
             ("AS s/(1+s)", make_artin_schreier(make_field(3, 2), 24), 1),
             ("AS s/(1+s)", make_artin_schreier(make_field(5), 64), 1)]
    print(f"{'psi(g) apply':<18}{'field':<8}{'N':>4}{'horner':>12}{'psi':>12}"
          f"{'speedup':>9}{'table build':>14}")
    for label, ext, g in cases:
        field, n = ext.field, ext.prec
        rng = SplitMix64(n)
        f = Series(field, n, tuple(rng.randrange(field.order) for _ in range(n)))
        act = ext.act(g).coeffs
        reps = max(repeats // (n * 4), 1)
        t0 = time.perf_counter()
        ext.psi(g)(f)
        build = time.perf_counter() - t0
        op = ext.psi(g)
        t0 = time.perf_counter()
        for _ in range(reps):
            horner = kernels.vec_compose(field.ctx, f.coeffs, act, n)
        t_horner = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        for _ in range(reps):
            fast = op(f)
        t_psi = (time.perf_counter() - t0) / reps
        assert list(fast.coeffs) == horner, "psi(g) disagrees with Horner composition"
        fname = f"GF({field.order})"
        print(f"{label:<18}{fname:<8}{n:>4}{t_horner * 1e6:>10.1f}us{t_psi * 1e6:>10.1f}us"
              f"{t_horner / t_psi:>8.1f}x{build * 1e6:>12.1f}us")


def bench_roundtrips(repeats):
    from orbipar.groups import cyclic
    from orbipar.local_galois import make_kummer
    from orbipar.parabolic import CoverScene, ScenePoint, random_datum, roundtrip_check

    field = make_field(7)
    ext = make_kummer(field, 3, 16)
    scene = CoverScene(group=cyclic(6),
                       points=(ScenePoint("p", ext, (0, 2, 4), (0, 1)),))
    rng = SplitMix64(12345)
    data = [random_datum(ext, 2, rng, character_exponent=1) for _ in range(repeats)]
    t0 = time.perf_counter()
    for d in data:
        assert roundtrip_check(d, scene).ok
    return time.perf_counter() - t0


def bench_dual_pairing(repeats):
    """dual_pairing_check on rank-2 GF(13), N=8 Kummer Z/4 data, per call."""
    from orbipar.local_galois import make_kummer
    from orbipar.parabolic import random_datum
    from orbipar.pvect import dual_pairing_check

    ext = make_kummer(make_field(13), 4, 8)
    rng = SplitMix64(2718)
    data = [random_datum(ext, 2, rng, character_exponent=1) for _ in range(repeats)]
    t0 = time.perf_counter()
    for d in data:
        assert dual_pairing_check(d, rng=rng.fork()).ok
    return (time.perf_counter() - t0) / repeats


def main(repeats=3000, roundtrips=10, pairings=5):
    fields = [("GF(5)", make_field(5)), ("GF(49)", make_field(7, 2))]
    print(f"{'kernel':<14}{'field':<8}{'N':>4}{'per call':>12}")
    for fn_name in ("vec_mul", "vec_inverse", "vec_compose"):
        for fname, field in fields:
            for n in (8, 16, 32, 64):
                reps = max(repeats // (n if fn_name != "vec_compose" else n * 4), 1)
                t = bench_kernel(field.ctx, fn_name, n, reps)
                print(f"{fn_name:<14}{fname:<8}{n:>4}{t / reps * 1e6:>10.1f}us")
    print()
    bench_psi(repeats)
    print()
    t = bench_dual_pairing(pairings)
    print(f"functor layer: dual_pairing_check (rank 2, GF(13), N=8, Kummer Z/4): "
          f"{t * 1000:.0f} ms each over {pairings}")
    t = bench_roundtrips(roundtrips)
    print(f"end-to-end: {roundtrips} Z/6 round trips (rank 2, N=16): "
          f"{t:.2f}s ({t / roundtrips * 1000:.0f} ms each)")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:2]))
