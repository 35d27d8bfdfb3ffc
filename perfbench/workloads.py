"""The benchmark workloads: seeded inputs, one timed operation, output checks.

Each workload exposes the same small interface, used by ``run.py``:

- ``round_size`` is the number of distinct operations a seed defines; op
  ``i`` runs input ``i % round_size``, and a run times whole rounds;
- ``ops_per_sample`` is the number of consecutive ops that make one
  latency sample (a figures pass is seven subcommand ops);
- ``run_op(i, tracer)`` performs operation ``i`` and returns its raw
  result; it is the only timed code;
- ``keep(i, result)`` reduces the result to plain values that the checks
  need and that ``==`` compares, outside the timed region;
- ``check(first)`` takes the kept value of the first run of each distinct
  op (a dict keyed by ``i % round_size``) and returns one
  ``(failed, known_defect)`` pair per key.  It runs after tracing is
  removed, so checks add no traced work;
- ``trace_block`` is the fixed number of operations of one traced block,
  so that work counters repeat exactly for a seed;
- ``sizes()`` describes the generated inputs for the run manifest.

Pipeline functions are always looked up on their module at call time
(``planner.plan_state``, not a name bound at import), so that a tracer
installed after import sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from afpa_sim import cli, config as config_mod, planner, pneumatics, rig as rig_mod

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "figures.json"

SUBCOMMANDS = (
    "characterize-size",
    "characterize-stiffness",
    "step",
    "plan",
    "feasibility",
    "study-run",
    "study-analyze",
)

# artifacts whose content does not depend on --seed, by the subcommand
# that writes them
SEED_FREE_BY_SUBCOMMAND = {
    "characterize-size": ("fig2c.csv",),
    "characterize-stiffness": ("fig3a.csv", "fig3b.csv"),
    "step": ("fig2d.csv", "fig2d_16hz.csv", "fig2e.csv", "fig2e_16hz.csv"),
    "plan": ("fig5a.csv",),
    "feasibility": ("figs4b.csv",),
    "study-run": (),
    "study-analyze": (),
}
SEED_FREE_ARTIFACTS = tuple(n for names in SEED_FREE_BY_SUBCOMMAND.values() for n in names)
# column sums and extremes must match the reference within rtol*|ref| + atol
REFERENCE_RTOL = 1e-4
REFERENCE_ATOL = 1e-6
# acceptance criterion 8: mean study accuracy within 0.894 +/- 0.05
STUDY_ACCURACY = 0.894
STUDY_ACCURACY_BAND = 0.05
# acceptance criterion 7: the plan's forward map must hit the target
PLAN_HEIGHT_TOL_MM = 1.0
PLAN_STIFFNESS_RTOL = 0.05
# a plan with at least this many forward_map calls ran the 20x20 grid
FALLBACK_MIN_FORWARD_MAPS = 400
# the known plan-stream defect (see PlanStream.check): the largest residual
# it was measured with, rounded up, and the most distinct targets one run
# may show before the run counts as incorrect
KINK_MAX_RESIDUAL = 0.1
KINK_MAX_TARGETS = 3
# step check: dynamic h2 equals the static equilibrium at the same pressures
STEP_H2_TOL_MM = 0.1
STEP_CHECK_EVERY = 100  # rows, i.e. every 0.1 s at dt = 1 ms


def packaged_config():
    return config_mod.load_config(config_mod.default_config_path())


def _compliant_copy(rig, rng) -> rig_mod.RigSpec:
    return dataclasses.replace(rig, belt_compliance=float(rng.uniform(0.1, 0.5)))


def _stratified_flags(rng, blocks: int, block: int, per_block: int) -> list[bool]:
    """Exactly ``per_block`` True flags in each block, at seeded positions."""
    flags: list[bool] = []
    for _ in range(blocks):
        b = np.zeros(block, dtype=bool)
        b[:per_block] = True
        rng.shuffle(b)
        flags.extend(bool(v) for v in b)
    return flags


# --- figures ----------------------------------------------------------------


def summarize_csv(path: Path) -> dict:
    """Row count plus sum, min and max of each numeric column of a CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    columns = {}
    for j, name in enumerate(header):
        try:
            col = np.array([float(row[j]) for row in body])
        except ValueError:
            continue  # a label column
        columns[name] = [float(col.sum()), float(col.min()), float(col.max())]
    return {"rows": len(body), "columns": columns}


def _matches_reference(summary: dict, reference: dict) -> bool:
    if summary["rows"] != reference["rows"] or summary["columns"].keys() != reference["columns"].keys():
        return False
    for name, ref in reference["columns"].items():
        for got, want in zip(summary["columns"][name], ref):
            # written as "not <=" so that a NaN fails
            if not abs(got - want) <= REFERENCE_RTOL * abs(want) + REFERENCE_ATOL:
                return False
    return True


def run_subcommand(sub: str, out: Path, seed: int, tracer=None) -> int:
    """One subcommand through ``cli.main``, its stdout discarded; its exit code."""
    argv = [sub, "--seed", str(seed), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        with tracer.span(f"bench.{sub}"):
            return cli.main(argv)


def run_figures_pass(out: Path, seed: int) -> list[int]:
    """The seven subcommands in order; their exit codes."""
    return [run_subcommand(sub, out, seed) for sub in SUBCOMMANDS]


class Figures:
    """The paper's figure pipeline: one op per subcommand, one pass per round."""

    name = "figures"
    round_size = len(SUBCOMMANDS)
    ops_per_sample = len(SUBCOMMANDS)  # latency is reported per pass
    trace_block = len(SUBCOMMANDS)

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        self.bytes_written = 0  # by the last complete pass
        self._pass_digests: dict[str, str] = {}
        self._pass_bytes = 0

    def sizes(self) -> dict:
        return {"subcommands_per_pass": len(SUBCOMMANDS), "study_seed": self.seed}

    def run_op(self, i: int, tracer=None):
        out = self.out_dir / f"pass-{i // self.round_size:05d}"
        if i % self.round_size == 0:
            shutil.rmtree(out, ignore_errors=True)
        return out, run_subcommand(SUBCOMMANDS[i % self.round_size], out, self.seed, tracer)

    def keep(self, i: int, result) -> dict:
        """Exit code, and digests of the files this subcommand wrote or changed."""
        out, code = result
        sub = SUBCOMMANDS[i % self.round_size]
        if i % self.round_size == 0:
            self._pass_digests, self._pass_bytes = {}, 0
        files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        written = {n: d for n, d in digests.items() if self._pass_digests.get(n) != d}
        self._pass_bytes += sum(p.stat().st_size for p in files if p.name in written)
        self._pass_digests = digests
        kept = {
            "code": code,
            "digests": written,
            "reference_ok": all(
                name in written
                and _matches_reference(summarize_csv(out / name), self.reference[name])
                for name in SEED_FREE_BY_SUBCOMMAND[sub]
            ),
        }
        if sub == "study-analyze":
            summary_path = out / "study_summary.json"
            kept["study_accuracy"] = (
                json.loads(summary_path.read_text(encoding="utf-8"))["overall_accuracy_mean"]
                if summary_path.is_file() else math.nan)
        if i % self.round_size == self.round_size - 1:
            self.bytes_written = self._pass_bytes
            shutil.rmtree(out, ignore_errors=True)
        return kept

    def check(self, first: dict) -> dict:
        verdicts = {}
        for j, k in first.items():
            ok = k["code"] == 0 and k["reference_ok"]
            if "study_accuracy" in k:
                ok = ok and abs(k["study_accuracy"] - STUDY_ACCURACY) <= STUDY_ACCURACY_BAND
            verdicts[j] = (not ok, False)
        return verdicts


# --- plan-stream ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PlanInput:
    rig: rig_mod.RigSpec
    target: planner.HapticTarget
    off_reach: bool
    compliant: bool


class PlanStream:
    """Closed loop of single haptic targets through ``plan_state``."""

    name = "plan-stream"
    BLOCK = 20  # per block: exactly 4 off-reach and 5 compliant targets
    OFF_REACH_PER_BLOCK = 4
    COMPLIANT_PER_BLOCK = 5
    BLOCKS = 25
    OFF_REACH_STIFFNESS_SCALE = 3.0
    # off-reach bases need max(p1, p2) above 150 / 3 kPa, so that 3x the
    # stiffness would need more than the 150 kPa pressure ceiling
    OFF_REACH_MIN_PRESSURE = 60.0
    round_size = BLOCK * BLOCKS
    ops_per_sample = 1
    trace_block = 40

    def __init__(self, seed: int, out_dir: Path) -> None:
        cfg = packaged_config()
        self.bounds = cfg.bounds
        self.depth = cfg.probe_depth
        rng = np.random.default_rng([seed, 1])
        n = self.round_size
        off = _stratified_flags(rng, self.BLOCKS, self.BLOCK, self.OFF_REACH_PER_BLOCK)
        compliant = _stratified_flags(rng, self.BLOCKS, self.BLOCK, self.COMPLIANT_PER_BLOCK)
        self.inputs: list[PlanInput] = []
        for j in range(n):
            rig = _compliant_copy(cfg.rig, rng) if compliant[j] else cfg.rig
            while True:  # the domain of acceptance criterion 7
                p1 = float(rng.uniform(0.0, 120.0))
                p2 = float(rng.uniform(2.0, 140.0))
                if off[j] and max(p1, p2) < self.OFF_REACH_MIN_PRESSURE:
                    continue
                h, k = planner.forward_map(rig, p1, p2, self.depth)
                if k > 1e-3 and h > 6.0:
                    break
            if off[j]:
                k *= self.OFF_REACH_STIFFNESS_SCALE
            target = planner.HapticTarget(target_height=h, target_stiffness=k,
                                          probe_depth_ref=self.depth)
            self.inputs.append(PlanInput(rig, target, off[j], compliant[j]))

    def sizes(self) -> dict:
        n = len(self.inputs)
        return {
            "targets": n,
            "off_reach_share": sum(x.off_reach for x in self.inputs) / n,
            "compliant_share": sum(x.compliant for x in self.inputs) / n,
        }

    def run_op(self, i: int, tracer=None):
        x = self.inputs[i % self.round_size]
        return planner.plan_state(x.rig, x.target, self.bounds)

    def keep(self, i: int, result):
        return result

    def _round_trip_ok(self, x: PlanInput, plan) -> bool:
        h, k = planner.forward_map(x.rig, plan.p1, plan.p2, self.depth)
        t = x.target
        return (abs(h - t.target_height) <= PLAN_HEIGHT_TOL_MM
                and abs(k - t.target_stiffness) / t.target_stiffness <= PLAN_STIFFNESS_RTOL)

    def check(self, first: dict) -> dict:
        verdicts = {}
        for j, plan in first.items():
            x = self.inputs[j]
            round_trip_ok = self._round_trip_ok(x, plan)
            if x.off_reach:
                verdicts[j] = (not round_trip_ok if plan.feasible else not plan.reason, False)
            else:
                # known defect: on about 1 in 3000 reachable targets, at a
                # kink of the forward map (the belt-span plateau, or the
                # floor where the modulating side dominates on a compliant
                # rig), plan_state stops short of its own 1e-3 residual and
                # reports infeasible; its pressures nearly always still
                # pass the gate
                failed = not (plan.feasible and round_trip_ok)
                known = not plan.feasible and plan.residual_norm <= KINK_MAX_RESIDUAL
                verdicts[j] = (failed, known)
        if sum(known for _, known in verdicts.values()) > KINK_MAX_TARGETS:
            # far more often than measured: not the known defect
            verdicts = {j: (failed, False) for j, (failed, _) in verdicts.items()}
        return verdicts


# --- step-stream ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StepInput:
    rig: rig_mod.RigSpec
    schedule: tuple
    t_end: float
    compliant: bool


class StepStream:
    """Seeded multi-step pressure schedules through ``step_simulate``."""

    name = "step-stream"
    BLOCK = 4  # per block: exactly one schedule on a compliant rig
    COMPLIANT_PER_BLOCK = 1
    BLOCKS = 6
    COMMANDS = 3
    HOLD_S = 1.0
    MAX_COMMAND_KPA = 100.0
    round_size = BLOCK * BLOCKS
    ops_per_sample = 1
    trace_block = 4

    def __init__(self, seed: int, out_dir: Path) -> None:
        cfg = packaged_config()
        self.valves = cfg.valves
        self.dt = cfg.step.dt
        rng = np.random.default_rng([seed, 2])
        compliant = _stratified_flags(rng, self.BLOCKS, self.BLOCK, self.COMPLIANT_PER_BLOCK)
        self.inputs: list[StepInput] = []
        for c in compliant:
            rig = _compliant_copy(cfg.rig, rng) if c else cfg.rig
            schedule = tuple(
                (i * self.HOLD_S,
                 float(rng.uniform(0.0, self.MAX_COMMAND_KPA)),
                 float(rng.uniform(0.0, self.MAX_COMMAND_KPA)))
                for i in range(self.COMMANDS)
            )
            self.inputs.append(StepInput(rig, schedule, self.COMMANDS * self.HOLD_S, c))

    def sizes(self) -> dict:
        n = len(self.inputs)
        return {
            "schedules": n,
            "sim_s_per_schedule": self.COMMANDS * self.HOLD_S,
            "dt_s": self.dt,
            "compliant_share": sum(x.compliant for x in self.inputs) / n,
        }

    def sim_s(self, i: int) -> float:
        return self.inputs[i % self.round_size].t_end

    def run_op(self, i: int, tracer=None):
        x = self.inputs[i % self.round_size]
        return pneumatics.step_simulate(x.rig, self.valves, x.schedule, self.dt, x.t_end)

    def keep(self, i: int, result):
        return tuple(map(tuple, result[::STEP_CHECK_EVERY].tolist()))

    def check(self, first: dict) -> dict:
        verdicts = {}
        for j, rows in first.items():
            x = self.inputs[j]
            failed = False
            for _, p1, p2, _, h2 in rows:
                if p1 > 0.0 and p2 > 0.0 and h2 > x.rig.deflated_floor:
                    eq = rig_mod.solve_equilibrium(x.rig, p1, p2)
                    failed = failed or abs(eq.h2 - h2) > STEP_H2_TOL_MM
            # known defect (ROADMAP item 3): the dynamic height solve ignores
            # belt_compliance, so compliant schedules miss by 1-4 mm
            verdicts[j] = (failed, x.compliant)
        return verdicts


WORKLOADS = {w.name: w for w in (Figures, PlanStream, StepStream)}
