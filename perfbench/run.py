"""Scenario benchmark for orbipar: the path ``orbipar run`` takes, under load.

    python3 perfbench/run.py --workload tame-roundtrip --seed 1 --seconds 30 --trace 0

Run it from the repository root.  One process and one thread form a closed
loop: a single client runs the workload's generated ``orbipar-scenario/1``
documents one after another through ``load_scenario``, ``run_scenario`` and
``canonical_report``, on whichever kernel backend the program selects.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median of seven fresh processes, each importing orbipar, generating the
documents and loading every scenario), then ``--seconds`` of scenarios,
cycling through the documents.  These times are at nominal machine speed
(see ``Meter``).  ``--trace 1`` runs the first few scenarios untraced, then
again under ``tracer.Tracer``, and reports each traced function's calls and
self time, the work counts, and the tracing overhead, all in wall time; the
spans go to ``perfbench/out/``.

Every report is checked: each command must end with status ``pass`` (the
documents carry ``expect`` clauses), each scenario must reproduce its own
report digest every time it runs, and for the seed in ``golden.json`` the
digests must equal the recorded ones.  ``--record-golden`` rewrites that
file from the current program.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import COUNTS, Tracer
from workloads import DEFAULT_SEED, EXPECTED_STATUS, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

SETUP_PROBES = 6          # fresh processes timed besides this one
TRACE_SCENARIOS = 4       # scenarios in each of the untraced and traced passes
TAIL_BEYOND = 10          # samples a tail percentile must leave above it
MIN_SCENARIOS = 2 * TAIL_BEYOND + 2   # so that the tail sample lies above the median
CALIBRATION_S = 0.0005    # what one calibration pass takes at nominal speed
SAMPLE_S = 0.05           # calibration period while a Meter is entered


def calibration_pass():
    """A fixed loop of Python integer arithmetic and list indexing.

    Its duration defines nominal speed, so it must never change.
    """
    acc = 0
    xs = list(range(64))
    for _ in range(50):
        for i in range(64):
            acc = (acc * 31 + xs[i] * xs[(i * 7) % 64]) % 1000003
    return acc


class Meter:
    """Times calls at nominal machine speed.

    On a shared 2-vCPU Xeon virtual machine the speed of pure-Python code
    was seen to alternate between two levels about 1.7x apart, on a scale
    of seconds, which made 30-second runs differ by up to a quarter.  While
    a Meter is entered, a timer signal runs one calibration pass every
    SAMPLE_S; ``time`` also runs one just before and just after the call.
    A pass's slowdown is its duration over CALIBRATION_S.  The call's wall
    time, less the passes inside it, divided by the mean slowdown of those
    passes, is its time at nominal speed.
    """

    def __init__(self):
        self.slowdowns = []
        self.calibration_s = 0.0  # wall time spent in calibration passes
        self.last_s = 0.0         # nominal time of the latest call
        self.wall_s = 0.0         # wall time of all timed calls
        self._busy = False

    def _sample(self, *_):
        if self._busy:            # a signal that lands inside a pass
            return
        self._busy = True
        t0 = perf_counter()
        calibration_pass()
        spent = perf_counter() - t0
        self.slowdowns.append(spent / CALIBRATION_S)
        self.calibration_s += spent
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        self._sample()
        first = len(self.slowdowns) - 1
        spent = self.calibration_s
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            wall = perf_counter() - t0 - (self.calibration_s - spent)
            self._sample()
            self.wall_s += wall
            self.last_s = wall / statistics.fmean(self.slowdowns[first:])


def import_program():
    """Import orbipar from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import orbipar
    from orbipar import kernels, scenario

    if SRC.resolve() not in Path(orbipar.__file__).resolve().parents:
        raise ImportError(f"orbipar was imported from {orbipar.__file__}, not from {SRC}")
    return scenario, kernels


def setup(workload, seed):
    """Import, generate and load every scenario; returns its nominal time and the results."""
    def work():
        scenario, kernels = import_program()
        docs = generate(workload, seed)
        return scenario, kernels, docs, [scenario.load_scenario(doc) for doc in docs]

    with Meter() as meter:
        scenario, kernels, docs, scenarios = meter.time(work)
    return meter.last_s, scenario, kernels, docs, scenarios


def probe_setup(workload, seed):
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def load_golden(workload, seed):
    if not GOLDEN.exists():
        return None
    golden = json.loads(GOLDEN.read_text())
    if golden["seed"] != seed:
        return None
    return golden["digests"].get(workload)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts attempted and failed commands; a scenario whose report digest
    differs from its reference fails all its commands."""

    def __init__(self, golden=None):
        self.golden = golden
        self.seen = {}            # scenario index -> digest of its first report
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, index, report, text):
        d = digest(text)
        first = self.seen.setdefault(index, d)
        results = report["results"]
        bad = sum(r["status"] != EXPECTED_STATUS for r in results)
        if bad:
            self.problems.append(f"scenario {index}: {bad} command(s) not {EXPECTED_STATUS}")
        want = self.golden[index] if self.golden else first
        if d != want:
            bad = len(results)
            self.problems.append(f"scenario {index}: report digest {d} != {want}")
        self.attempted += len(results)
        self.failed += bad

    def crashed(self, index, commands):
        self.attempted += commands
        self.failed += commands
        self.problems.append(f"scenario {index}: raised")


def _call(fn, *args):
    return fn(*args)


def run_one(scenario, sc, index, checker, call=_call):
    """One checked ``run_scenario`` plus ``canonical_report`` (made through
    ``call``); returns whether it completed."""
    try:
        report = scenario.run_scenario(sc)
        text = call(scenario.canonical_report, report)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checker.crashed(index, len(sc.commands))
        return False
    checker.check(index, report, text)
    return True


def timed_phase(scenario, scenarios, seconds, checker, meter):
    """Closed loop over the scenarios for ``seconds``, and for at least
    MIN_SCENARIOS scenarios.  Returns the nominal time of each scenario
    (its commands plus its ``canonical_report``) and of each command."""
    scenario_s, command_s = [], []
    original = scenario.run_command

    def timed_command(sc, cmd, rng):
        try:
            return meter.time(original, sc, cmd, rng)
        finally:
            command_s.append(meter.last_s)

    scenario.run_command = timed_command
    try:
        start = perf_counter()
        i = 0
        while (perf_counter() - start < seconds
               or (len(scenario_s) < MIN_SCENARIOS and i < 2 * MIN_SCENARIOS)):
            index = i % len(scenarios)
            first = len(command_s)
            if run_one(scenario, scenarios[index], index, checker, call=meter.time):
                scenario_s.append(sum(command_s[first:]) + meter.last_s)
            i += 1
    finally:
        scenario.run_command = original
    if len(scenario_s) < MIN_SCENARIOS:
        raise RuntimeError(f"only {len(scenario_s)} of {i} scenarios completed")
    return scenario_s, command_s


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    n = len(xs)
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def parity(scenario, kernels, scenarios, checker):
    """Run every scenario once on each other built backend; digests must match."""
    active = kernels.backend_name()
    others = [b for b in kernels.available_backends() if b != active]
    if others:
        for i, sc in enumerate(scenarios):
            if i not in checker.seen:
                run_one(scenario, sc, i, checker)
    outcome = {}
    for backend in others:
        failed_before = checker.failed
        kernels.set_backend(backend)
        try:
            for i, sc in enumerate(scenarios):
                run_one(scenario, sc, i, checker)
        finally:
            kernels.set_backend(active)
        outcome[backend] = ("identical digests" if checker.failed == failed_before
                            else "reports differ")
    return outcome


def environment(kernels):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"backend": kernels.backend_name(),
            "available_backends": list(kernels.available_backends()),
            "nproc": nproc, "python": platform.python_version(), "cpu": cpu}


def end_to_end(args):
    setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s, scenario, kernels, _, scenarios = setup(args.workload, args.seed)
    setup_samples.append(setup_s)
    checker = Checker(load_golden(args.workload, args.seed))

    run_one(scenario, scenarios[0], 0, checker)          # warm-up, checked like the rest
    with Meter() as meter:
        scenario_s, command_s = timed_phase(scenario, scenarios, args.seconds, checker, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    backends = parity(scenario, kernels, scenarios, checker)

    scenario_tail, scenario_pct = tail(scenario_s)
    command_tail, command_pct = tail(command_s)
    metrics = {
        "scenarios_per_s": (len(scenario_s) / sum(scenario_s), "1/s"),
        "scenario_p50_ms": (statistics.median(scenario_s) * 1e3, "ms"),
        "scenario_tail_ms": (scenario_tail * 1e3, "ms"),
        "cmd_p50_ms": (statistics.median(command_s) * 1e3, "ms"),
        "cmd_tail_ms": (command_tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        **environment(kernels),
        "scenarios_timed": len(scenario_s),
        "scenario_tail_percentile": scenario_pct,
        "commands_timed": len(command_s),
        "cmd_tail_percentile": command_pct,
        "setup_samples_s": setup_samples,
        "timing": f"nominal: wall time / slowdown, where one calibration pass takes "
                  f"{CALIBRATION_S} s at slowdown 1",
        "slowdown_quartiles": statistics.quantiles(meter.slowdowns, n=4),
        "wall_scenarios_per_s": len(scenario_s) / meter.wall_s,
        "fail_ratio": checker.failed / checker.attempted,
        "parity": backends or "no second backend built",
    }
    return checker, metrics, info


def per_layer(args):
    _, scenario, kernels, docs, scenarios = setup(args.workload, args.seed)
    checker = Checker(load_golden(args.workload, args.seed))
    run_one(scenario, scenarios[0], 0, checker)          # warm-up
    n = min(TRACE_SCENARIOS, len(docs))

    def one_pass(tracer=None):
        t0 = perf_counter()
        for i in range(n):
            if tracer is not None:
                tracer.request = i
            sc = scenario.load_scenario(docs[i])
            run_one(scenario, sc, i, checker)
        return perf_counter() - t0

    untraced_s = one_pass()
    with Tracer() as tracer:
        traced_s = one_pass(tracer)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(spans_path)

    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    info = {
        **environment(kernels),
        "scenarios_traced": n,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": tracer.span_count(),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
        "counts": COUNTS,
        "fail_ratio": checker.failed / checker.attempted,
    }
    return checker, metrics, info


def record_golden(seed):
    """Rewrite golden.json: every scenario's report digest at ``seed``, per workload."""
    scenario, _ = import_program()
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = [
            digest(scenario.canonical_report(scenario.run_scenario(scenario.load_scenario(doc))))
            for doc in generate(workload, seed)]
    GOLDEN.write_text(json.dumps({"seed": seed, "digests": digests}, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="tame-roundtrip")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up, print it and exit (used internally)")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden.json for --seed from the current program")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0
    if args.record_golden:
        record_golden(args.seed)
        return 0

    checker, metrics, info = (per_layer if args.trace else end_to_end)(args)
    for problem in checker.problems:
        print(f"check: {problem}", file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "why": WORKLOADS[args.workload]["why"], "size": WORKLOADS[args.workload]["size"],
            "golden_checked": checker.golden is not None, **info}
    print(json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    print(f"{'fail_ratio':<48} {info['fail_ratio']:>16.6f} -  "
          f"({checker.failed} of {checker.attempted} commands)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
