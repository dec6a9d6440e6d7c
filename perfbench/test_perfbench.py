"""Tests of the benchmark itself: python3 -m pytest perfbench -q (about a minute)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402

scenario, _ = run.import_program()


def _report(doc):
    return scenario.canonical_report(scenario.run_scenario(scenario.load_scenario(doc)))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_emits_plain_documents_from_the_seed(workload):
    docs = generate(workload, 5)
    assert len(docs) == WORKLOADS[workload]["scenarios"]
    assert json.loads(json.dumps(docs)) == docs
    assert generate(workload, 5) == docs
    assert generate(workload, 6) != docs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_and_digests(workload):
    doc = generate(workload, 3)[0]
    untraced = _report(doc)
    counts, digests = [], []
    for _ in range(2):
        with Tracer() as tracer:
            text = _report(doc)
        counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"})
        digests.append(run.digest(text))
    assert counts[0] == counts[1]
    assert all(v > 0 for k, v in counts[0].items() if not k.endswith(".calls"))
    assert digests == [run.digest(untraced)] * 2


def test_tracer_patches_names_bound_at_import_and_restores_them():
    import orbipar
    from orbipar import equivariant, linalg, parabolic, pvect

    originals = (linalg.solve_linear, parabolic.functor_T, linalg.Matrix.__mul__)
    with Tracer():
        for mod in (linalg, equivariant, pvect):
            assert mod.solve_linear is not originals[0]
            assert mod.solve_linear.__wrapped__ is originals[0]
        assert scenario.functor_T is parabolic.functor_T is orbipar.functor_T
        assert scenario.functor_T.__wrapped__ is originals[1]
        assert linalg.Matrix.__mul__.__wrapped__ is originals[2]
    assert equivariant.solve_linear is pvect.solve_linear is originals[0]
    assert scenario.functor_T is originals[1]
    assert linalg.Matrix.__mul__ is originals[2]


def test_golden_digest_mismatch_fails_every_command():
    golden = run.load_golden("wild-extfield", DEFAULT_SEED)
    assert golden is not None
    sc = scenario.load_scenario(generate("wild-extfield", DEFAULT_SEED)[0])

    good = run.Checker(golden)
    run.run_one(scenario, sc, 0, good)
    assert (good.failed, good.attempted) == (0, len(sc.commands))

    corrupted = run.Checker(["0" * 64] + golden[1:])
    run.run_one(scenario, sc, 0, corrupted)
    assert corrupted.failed == corrupted.attempted == len(sc.commands)


def test_unexpected_status_counts_as_failure():
    doc = generate("tame-roundtrip", DEFAULT_SEED)[0]
    doc["commands"][5]["expect"]["induced"] = not doc["commands"][5]["expect"]["induced"]
    checker = run.Checker()
    run.run_one(scenario, scenario.load_scenario(doc), 0, checker)
    assert checker.failed == 1


def test_tail_leaves_ten_samples_above():
    value, pct = run.tail([float(x) for x in range(30, 0, -1)])
    assert value == 20.0
    assert pct == pytest.approx(100 * 20 / 30)


def test_meter_leaves_calibration_passes_out_of_the_time():
    with run.Meter() as meter:
        meter.time(lambda: sum(i * i for i in range(2_000_000)))
    assert len(meter.slowdowns) >= 3      # before, after, and timer samples between
    assert 0 < meter.wall_s
    assert meter.last_s == pytest.approx(meter.wall_s / (sum(meter.slowdowns) / len(meter.slowdowns)))
