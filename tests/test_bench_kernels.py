"""Smoke test: benchmarks/bench_kernels.py runs end to end at minimal sizes."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out_file = tmp_path / "bench.json"
    bench.main(repeats=1, roundtrips=1, pairings=1, runs=1, out=out_file)
    out = capsys.readouterr().out
    for fn_name in ("vec_mul", "vec_inverse", "vec_compose"):
        assert fn_name in out
    assert "psi(g) apply" in out
    assert "psi(e) on a rank-2 Series matrix, GF(3^2) N=24: " in out
    assert "I * M, GF(7) r=2 N=16: " in out
    assert "vec_mul       GF(9)     24" in out
    assert "matrix product" in out
    assert "GF(3^2)           2  24" in out
    assert "Laurent product" in out and "GF(3^2)           1  24" in out
    assert "GF(7)             2  16" in out and "GF(13)            4   8" in out
    assert "GF(13)            4   1" in out and "GF(3^2)         4x1*1x4   3" in out
    for line in ("fixed_rows, rank-2 Hom actions (rank 4 GF(13) N=8, 32x32)",
                 "fixed_rows, calculus dual_pairing Hom actions (rank 16 GF(13) N=8, 128x128)",
                 "fixed_rows, wild cocycle (rank 2 GF(3^2) N=24, 48x48)",
                 "decompose_series, Kummer Z/4 GF(13) N=8",
                 "decompose_series, Artin-Schreier GF(3^2) N=24"):
        assert line in out
    assert "solve_linear, calculus joint system (256x160 GF(13))" in out
    assert "solve_linear, wild invariants system (48x48 GF(3^2))" in out
    assert "solve_linear, tame invariants system (32x32 GF(7))" in out
    assert "null_space, calculus joint system (256x160 GF(13))" in out
    assert "kernel_by_blocks, calculus joint system (256x160 GF(13))" in out
    assert "kernel_by_blocks, calculus equiv system (16x10 GF(13))" in out
    for fname in ("GF(13)", "GF(3^2)"):
        for op in ("mul", "inv", "add"):
            assert f"FieldCtx.{op:<7}{fname}" in out
    assert "Matrix.inverse, GF(7) r=2 N=16" in out
    assert "Matrix.inverse, GF(3^2) r=2 N=24" in out
    assert "echelonize, wild trivialize system (36x96 GF(3^2))" in out
    for line in ("evaluate_in_base, tame Kummer Z/3 GF(7) N=16",
                 "evaluate_in_base, wild Artin-Schreier GF(3^2) N=24",
                 "evaluate_in_base, calculus Kummer Z/4 GF(13) N=8"):
        assert line in out
    for line in ("invariants, wild rank 2 GF(3^2) N=24", "invariants, tame rank 3 GF(7) N=16",
                 "trivialize, wild rank 2 GF(3^2) N=24", "assemble_product, Z/6 rank 2 GF(7) N=16",
                 "trivialize, calculus dual-pairing rank 4 GF(13) N=8",
                 "functor_T, Z/6 rank 2 GF(7) N=16", "functor_S, Z/6 rank 2 GF(7) N=16"):
        assert line in out
    for line in ("build_spec_from_scene, Z/6 rank 2 GF(7) N=16",
                 "independence_intertwiner, Z/6 rank 2 GF(7) N=16",
                 "pushforward_local, Z/4 rank 1 GF(13) N=8",
                 "PushedBundle.verify_exhaustive, Z/4 rank 1 GF(13) N=8",
                 "PushedBundle.verify, Z/4 rank 1 GF(13) N=8"):
        assert line in out
    for label in ("mu rank 2 GF(7) N=16 lowest coeffs", "mu*diag(1,t) rank 2 GF(7) N=16 Smith"):
        assert f"is_invertible             {label}" in out
    for law in ("check_mu_equivariance", "check_tau_equivariance", "first_nonintertwining",
                "check_sigma_equivariance"):
        assert law in out
    assert "find_parabolic_isomorphism, dual_pairing V(x)V* (rank 4, GF(13), N=8)" in out
    assert "iso_from_trivializations, dual_pairing V(x)V* (rank 4, GF(13), N=8)" in out
    assert "functor layer: dual_pairing_check (rank 2, GF(13), N=8, Kummer Z/4)" in out
    assert "end-to-end: 1 Z/6 round trips" in out
    doc = json.loads(out_file.read_text())
    assert doc["python"] and doc["machine"]["cpus"]
    assert all({"median_us", "min_us"} <= set(case) for case in doc["cases"].values())
    for case in ("vec_mul GF(9) N=24",
                 "psi apply AS s/(1+s) GF(9) N=24",
                 "psi(e) apply rank-2 matrix GF(3^2) N=24",
                 "psi(e) entrywise copy rank-2 matrix GF(3^2) N=24",
                 "I * M GF(7) r=2 N=16", "mat_mul I * M GF(7) r=2 N=16",
                 "Matrix.__mul__ GF(3^2) r=2 N=24",
                 "entrywise product GF(3^2) r=2 N=24", "psi table build AS s/(1+s) GF(9) N=24",
                 "solve_linear tame invariants system 32x32 GF(7)",
                 "null_space calculus joint system 256x160 GF(13)",
                 "solve_linear calculus joint system 256x160 GF(13)",
                 "kernel_by_blocks calculus joint system 256x160 GF(13)",
                 "kernel_by_blocks calculus equiv system 16x10 GF(13)",
                 "FieldCtx.mul GF(13)", "FieldCtx.inv GF(13)", "FieldCtx.add GF(13)",
                 "FieldCtx.mul GF(3^2)", "FieldCtx.inv GF(3^2)", "FieldCtx.add GF(3^2)",
                 "Matrix.inverse GF(7) r=2 N=16", "Matrix.inverse GF(3^2) r=2 N=24",
                 "Laurent Matrix.__mul__ GF(3^2) r=1 N=24",
                 "entrywise Laurent product GF(3^2) r=1 N=24",
                 "Laurent Matrix.__mul__ GF(7) r=2 N=16",
                 "entrywise Laurent product GF(7) r=2 N=16",
                 "Laurent Matrix.__mul__ GF(13) r=4 N=8",
                 "entrywise Laurent product GF(13) r=4 N=8",
                 "fixed_rows rank-2 Hom actions rank 4 GF(13) N=8",
                 "fixed_rows calculus dual_pairing Hom actions rank 16 GF(13) N=8",
                 "fixed_rows wild cocycle rank 2 GF(3^2) N=24",
                 "decompose_series Kummer Z/4 GF(13) N=8",
                 "decompose_series Artin-Schreier GF(3^2) N=24",
                 "invariants wild rank 2 GF(3^2) N=24", "invariants tame rank 3 GF(7) N=16",
                 "trivialize wild rank 2 GF(3^2) N=24", "assemble_product Z/6 rank 2 GF(7) N=16",
                 "functor_T Z/6 rank 2 GF(7) N=16", "functor_S Z/6 rank 2 GF(7) N=16",
                 "check_tau_equivariance Z/6 taus rank 2 GF(7) N=16",
                 "check_tau_equivariance_exhaustive Z/6 taus rank 2 GF(7) N=16",
                 "find_parabolic_isomorphism dual_pairing rank 4 GF(13) N=8",
                 "iso_from_trivializations dual_pairing rank 4 GF(13) N=8",
                 "Matrix.__mul__ GF(13) r=4 N=1", "entrywise product GF(13) r=4 N=1",
                 "Matrix.__mul__ GF(3^2) 4x1*1x4 N=3",
                 "entrywise product GF(3^2) 4x1*1x4 N=3",
                 "Laurent Matrix.__mul__ GF(3^2) 4x1*1x4 N=3",
                 "entrywise Laurent product GF(3^2) 4x1*1x4 N=3",
                 "echelonize wild trivialize system 36x96 GF(3^2)",
                 "evaluate_in_base tame Kummer Z/3 GF(7) N=16",
                 "evaluate_in_base wild Artin-Schreier GF(3^2) N=24",
                 "evaluate_in_base calculus Kummer Z/4 GF(13) N=8",
                 "trivialize calculus dual-pairing rank 4 GF(13) N=8",
                 "smith mu rank 2 GF(7) N=16 lowest coeffs",
                 "is_invertible mu rank 2 GF(7) N=16 lowest coeffs",
                 "smith mu*diag(1,t) rank 2 GF(7) N=16 Smith",
                 "is_invertible mu*diag(1,t) rank 2 GF(7) N=16 Smith"):
        assert case in doc["cases"]
