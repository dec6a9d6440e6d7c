"""Smoke test: benchmarks/bench_kernels.py runs end to end at minimal sizes."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.main(repeats=1, roundtrips=1, pairings=1)
    out = capsys.readouterr().out
    for fn_name in ("vec_mul", "vec_inverse", "vec_compose"):
        assert fn_name in out
    assert "psi(g) apply" in out
    assert "functor layer: dual_pairing_check (rank 2, GF(13), N=8, Kummer Z/4)" in out
    assert "end-to-end: 1 Z/6 round trips" in out
