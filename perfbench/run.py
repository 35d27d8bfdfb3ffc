"""afpa-sim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

- ``figures``: the seven CLI subcommands of the paper's figure pipeline,
  in-process through ``afpa_sim.cli.main``; one op is one subcommand, and
  one latency sample is one full pass;
- ``plan-stream``: a closed loop of ``plan_state`` calls, one haptic
  target at a time; one op is one plan;
- ``step-stream``: seeded three-command pressure schedules through
  ``step_simulate``; one op is one schedule.

A seed defines a round of distinct ops; a run times whole rounds.
``attempted`` and ``failed`` count the distinct ops of the run, so they
depend on the seed alone.  Every repeat of an op must give the same result
as its first run.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped: set-up time of a fresh interpreter (median of several launches),
latency median and p90 and throughput, and peak RSS.  Latency and
throughput are in calibration units ("cal"): each op's wall time is
divided by the time of a fixed piece of work that uses nothing of
afpa_sim, measured just before and after it, so that the host's changing
speed cancels out.  Set-up time is calibrated the same way and given in
seconds at a fixed reference speed.  The wall-clock values are printed too.
With ``--trace 1`` it wraps the pipeline's public functions (see
spans.py) and reports per-layer counters and self times, plus the
tracing overhead against an untraced phase of the same operations.

Human-readable lines and a run manifest go to stdout first; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  The program is built from ``src/`` of the checkout this file
sits in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# one single-threaded process: pin every BLAS/OpenMP pool before numpy loads
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_LAUNCHES = 7
# the child prints when it is done on the system-wide monotonic clock, which
# perf_counter reads on Linux; waiting for its exit with a timeout would
# poll and round the time up to the next 50 ms
SETUP_CODE = ("import afpa_sim; afpa_sim.load_config(afpa_sim.default_config_path()); "
              "import time; print(repr(time.perf_counter()))")
# calibration: root solves per calibration, and the time between two
# calibrations of the speed probe
CAL_ROOTS = 160
PROBE_EVERY_S = 0.1
# the median time of one calibration on the 2-vCPU host the benchmark was
# built on; setup_s is given at this speed
REFERENCE_CAL_S = 2.5e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "plan-stream", "step-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(launches: int) -> tuple[list[float], list[float]]:
    """Set-up time of fresh interpreters that import afpa_sim and load the config.

    Returns the wall times, and the same times scaled to the reference
    speed: each is divided by the calibrations just before and after its
    launch and multiplied by ``REFERENCE_CAL_S``.
    """
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    walls, cals = [], [min(calibrate(), calibrate())]
    for _ in range(launches):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120).stdout
        walls.append(float(done) - t0)
        cals.append(min(calibrate(), calibrate()))
    scaled = [w * REFERENCE_CAL_S / (0.5 * (a + b)) for w, a, b in zip(walls, cals, cals[1:])]
    return walls, scaled


def _cal_f(x: float, a: float) -> float:
    return math.tanh(a * x) + 0.1 * x * x - 0.5 + math.sqrt(1.0 + x) - 1.0


def calibrate() -> float:
    """Wall time of a fixed piece of interpreter and libm work.

    It bisects a transcendental equation, as the program's root solves do,
    but uses nothing of afpa_sim, so a change to the program does not move
    it, while a slower host moves it as it moves the program.  It calls no
    extension code, so it is safe to run from a signal handler in the middle
    of an op.
    """
    t0 = time.perf_counter()
    for i in range(CAL_ROOTS):
        a = 0.5 + 0.01 * i
        lo, hi = -0.99, 5.0
        f_lo = _cal_f(lo, a)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            f_mid = _cal_f(mid, a)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibrations every ``PROBE_EVERY_S``, also in the middle of an op.

    A SIGALRM interval timer runs ``calibrate`` from the signal handler, in
    the main thread between two bytecodes, and records when it started and
    how long it took.  ``latency`` then takes that time out of an op's wall
    time and divides the rest by the mean of the calibrations inside the op
    and the one on each side of it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.cals: list[float] = []

    def _fire(self, signum=None, frame=None) -> None:
        self.starts.append(time.perf_counter())
        self.cals.append(calibrate())

    def __enter__(self):
        self._fire()  # so that the first op has a calibration before it
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._fire()  # and the last op one after it

    def latency(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall seconds without calibrations, and calibration units, of [t0, t1]."""
        a = bisect.bisect_left(self.starts, t0)
        b = bisect.bisect_left(self.starts, t1)
        wall = t1 - t0 - sum(self.cals[a:b])
        around = self.cals[a - 1:b + 1]
        return wall, wall / (sum(around) / len(around))


def run_ops(wl, indices, kept, tracer=None) -> list[float]:
    """Run the ops in order; time each op only, keep what the checks need."""
    latencies = []
    for i in indices:
        t0 = time.perf_counter()
        result = wl.run_op(i, tracer)
        latencies.append(time.perf_counter() - t0)
        kept.append((i, wl.keep(i, result)))
    return latencies


def timed_rounds(wl, seconds: float, kept):
    """Whole rounds for about ``seconds``: wall and calibrated op latencies.

    After each round, another starts only if at least half a round's time
    is left, so a run lasts ``seconds`` give or take half a round, and at
    least one round.  A ``SpeedProbe`` runs throughout, so that a change of
    the host's speed during the run, even within an op, cancels out.
    """
    spans = []
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            round_start = time.perf_counter()
            for _ in range(wl.round_size):
                t0 = time.perf_counter()
                result = wl.run_op(i)
                spans.append((t0, time.perf_counter()))
                kept.append((i, wl.keep(i, result)))
                i += 1
            now = time.perf_counter()
            if now + 0.5 * (now - round_start) >= deadline:
                break
    wall, calibrated = zip(*(probe.latency(t0, t1) for t0, t1 in spans))
    return list(wall), list(calibrated), probe.cals


def per_sample(wl, latencies) -> list[float]:
    """Latency per sample: the sum over ``ops_per_sample`` consecutive ops."""
    g = wl.ops_per_sample
    return [sum(latencies[k:k + g]) for k in range(0, len(latencies), g)]


def untraced_run(wl, seconds: float):
    import numpy as np

    setup_wall, setup = measure_setup(SETUP_LAUNCHES)
    kept = []
    run_ops(wl, [0], kept)  # warm-up, checked but not timed
    raw, calibrated, cals = timed_rounds(wl, seconds, kept)
    samples_cal = per_sample(wl, calibrated)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_cal": statistics.median(samples_cal),
        "op_p90_cal": float(np.percentile(samples_cal, 90.0)),
        "ops_per_kcal": 1e3 * len(samples_cal) / sum(samples_cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup), "setup_wall_s": statistics.median(setup_wall),
              "samples": len(samples_cal), "ops": len(raw),
              "rounds": len(raw) // wl.round_size, "calibrations": len(cals),
              "cal_ms_median": statistics.median(cals) * 1e3}
    if hasattr(wl, "sim_s"):
        counts["sim_s"] = sum(wl.sim_s(j) for j in range(len(raw)))
    return metrics, counts, per_sample(wl, raw), kept


def traced_run(wl, seconds: float):
    from spans import Tracer

    block = range(wl.trace_block)
    kept = []
    run_ops(wl, [0], kept)  # warm-up
    untraced, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds / 3.0
    while not untraced or time.perf_counter() < deadline:
        untraced.append(sum(run_ops(wl, block, kept)))
    deadline = time.perf_counter() + 2.0 * seconds / 3.0
    while not traced or time.perf_counter() < deadline:
        tracer = Tracer()  # one per block, so each block's counters stand alone
        tracer.install()
        try:
            traced.append(sum(run_ops(wl, block, kept, tracer)))
        finally:
            tracer.uninstall()
        if tracers:
            tracer.spans.clear()  # only the first block's spans are written
        tracers.append(tracer)
    counters_repeat = all(t.counters() == tracers[0].counters() for t in tracers)
    tracers[0].write(OUT / f"trace-{wl.name}.json")
    metrics = layer_metrics(wl, tracers)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_ms_per_op"] = (
        (statistics.median(traced) - statistics.median(untraced))
        / (len(block) // wl.ops_per_sample) * 1e3
    )
    counts = {"untraced_blocks": len(untraced), "traced_blocks": len(traced),
              "ops_per_block": len(block)}
    return metrics, counts, counters_repeat, kept


def verdicts(wl, kept) -> list[tuple[bool, bool]]:
    """One ``(failed, known_defect)`` pair per distinct op of the run.

    The first result of each distinct op is checked by the workload; every
    later run of the same op must give a result equal to the first, or the
    op fails outside any known defect.  Since each run covers whole rounds
    (or whole traced blocks), the pairs depend on the seed alone.
    """
    first, differs = {}, set()
    for i, k in kept:
        j = i % wl.round_size
        if j not in first:
            first[j] = k
        elif k != first[j]:
            differs.add(j)
    checked = wl.check(first)
    return [(failed or j in differs, known and j not in differs)
            for j, (failed, known) in sorted(checked.items())]


def layer_metrics(wl, tracers) -> dict:
    """Per-layer numbers; counts from one block, times averaged over blocks."""
    from workloads import FALLBACK_MIN_FORWARD_MAPS, SUBCOMMANDS

    first = tracers[0]
    ops = wl.trace_block // wl.ops_per_sample  # per op; a figures op is a pass
    calls, evals = first.calls, first.evals

    def seconds(name: str, kind: str = "total_s") -> float:  # per block
        return sum(t.seconds(name, kind) for t in tracers) / len(tracers)

    def layer_s(layer: str) -> float:  # per op
        return sum(t.layer_self_s(layer) for t in tracers) / len(tracers) / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def ms_per_call(name: str, kind: str = "total_s") -> float:
        return ratio(seconds(name, kind), calls(name)) * 1e3

    per_plan = first.forward_maps_per_plan
    steps = first.sim_steps
    m = {
        "pouch.free_height.calls": calls("pouch.free_height") / ops,
        "pouch.volume.calls": calls("pouch.volume") / ops,
        "pouch.volume_gradient.calls": calls("pouch.volume_gradient") / ops,
        "pouch.self_s": layer_s("pouch"),
        "rig.solve_equilibrium.calls": calls("rig.solve_equilibrium") / ops,
        "rig.solve_equilibrium.calls_per_forward_map": ratio(
            first.solves_in_forward_map, calls("planner.forward_map")),
        "rig.probe_force.calls": calls("rig.probe_force") / ops,
        "rig.stiffness.calls": calls("rig.stiffness") / ops,
        "rig.root_solves": calls("rig.brentq") / ops,
        "rig.root_evals": evals("rig.brentq") / ops,
        "rig.solve_equilibrium.self_us": ms_per_call("rig.solve_equilibrium", "self_s") * 1e3,
        "rig.self_s": layer_s("rig"),
        "pneumatics.step_simulate.ms_per_sim_s": ratio(
            seconds("pneumatics.step_simulate"), first.sim_s) * 1e3,
        "pneumatics.root_solves_per_step": ratio(calls("pneumatics.brentq"), steps),
        "pneumatics.root_evals_per_step": ratio(evals("pneumatics.brentq"), steps),
        "pneumatics.self_s": layer_s("pneumatics"),
        "planner.forward_map.calls_per_plan": ratio(sum(per_plan), len(per_plan)),
        "planner.fallback_frac": ratio(
            sum(n >= FALLBACK_MIN_FORWARD_MAPS for n in per_plan), len(per_plan)),
        "planner.root_evals_per_plan": ratio(evals("planner.brentq"), calls("planner.plan_state")),
        "planner.plan_state.self_ms": ms_per_call("planner.plan_state", "self_s"),
        "study.simulate_session.ms": ms_per_call("study.simulate_session"),
        "study.study_stats.ms": ms_per_call("study.study_stats"),
        "config.load_config.ms": ms_per_call("config.load_config"),
        "drivers.bytes_written": getattr(wl, "bytes_written", 0),
        "trace.spans": first.span_count / ops,
    }
    for sub in SUBCOMMANDS:
        m[f"drivers.{sub.replace('-', '_')}_s"] = seconds(f"bench.{sub}") / ops
    return m


def manifest(args, wl, counts, attempted, failed, known) -> dict:
    import numpy
    import scipy

    commit = None  # stays None outside a git checkout of this repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass  # no git
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "sizes": wl.sizes(),
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "failed_known_defect": known,
    }


def workload_table(wl, metrics, units, counts, wall, attempted, failed) -> list[tuple]:
    """The end-to-end metrics, then wall-clock ones under workload-specific names.

    ``wall`` holds the uncalibrated latency of each sample, in seconds.
    """
    import numpy as np

    n = counts["samples"]
    rows = [(name, metrics[name], units[name], n)
            for name in ("op_p50_cal", "op_p90_cal", "ops_per_kcal")]
    rows += [("setup_s", metrics["setup_s"], units["setup_s"], counts["setup_s"]),
             ("setup_wall_s", counts["setup_wall_s"], "s", counts["setup_s"])]
    if wl.name == "figures":
        rows.append(("figures_s", statistics.median(wall), "s", n))
    elif wl.name == "plan-stream":
        rows += [("plan_p50_ms", statistics.median(wall) * 1e3, "ms", n),
                 ("plan_p90_ms", float(np.percentile(wall, 90.0)) * 1e3, "ms", n),
                 ("plans_per_s", n / sum(wall), "1/s", n)]
    else:
        rows.append(("sim_s_per_host_s", counts["sim_s"] / sum(wall), "1", n))
    rows += [("failed_frac", failed / attempted, "1", attempted),
             ("peak_rss_mb", metrics["peak_rss_mb"], units["peak_rss_mb"], 1)]
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "afpa_sim" / "__init__.py").is_file():
        print(f"error: no afpa_sim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import afpa_sim
    import workloads

    if Path(afpa_sim.__file__).resolve().parent != SRC / "afpa_sim":
        print(f"error: afpa_sim imported from {afpa_sim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # the reported metrics and their units are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    if args.trace:
        metrics, counts, counters_repeat, kept = traced_run(wl, args.seconds)
    else:
        metrics, counts, wall, kept = untraced_run(wl, args.seconds)
        counters_repeat = True
    pairs = verdicts(wl, kept)
    attempted = len(pairs)
    failed = sum(1 for f, _ in pairs if f)
    known = sum(1 for f, k in pairs if f and k)
    # failures of a recorded known defect are counted but do not make the
    # run incorrect; any other failure does
    correct = counters_repeat and failed == known

    if args.trace:
        for name, unit in units.items():
            print(f"{name:46s} {metrics[name]:14.6g} {unit}")
    else:
        for name, value, unit, n in workload_table(wl, metrics, units, counts, wall,
                                                   attempted, failed):
            print(f"{name:20s} {value:14.6g} {unit:4s} n={n}")
    print("manifest " + json.dumps(manifest(args, wl, counts, attempted, failed, known),
                                   sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
