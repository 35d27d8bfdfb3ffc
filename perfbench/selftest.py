"""Self-tests of the benchmark's counters and input generation.

    python3 perfbench/selftest.py

Kept out of the tier-1 suite on purpose (the file name does not match
pytest's test_*.py pattern) and free of wall-time gates: every assertion
is on work counts or generated inputs, which repeat exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import afpa_sim  # noqa: E402
from afpa_sim import cli, drivers, planner  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = ROOT / ".perfbench-out" / "selftest"


def traced(call):
    """A fresh tracer after running ``call()`` under it.

    ``call`` looks its functions up only when it runs, after the wrappers
    are installed.
    """
    tracer = Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer


def block_counters(wl) -> dict:
    """Counters of one traced block, as ``run.py --trace 1`` runs it."""
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(wl.trace_block):
            wl.keep(i, wl.run_op(i, tracer))
    finally:
        tracer.uninstall()
    return tracer.counters()


class CountersRepeat(unittest.TestCase):
    """Work counters of a traced block repeat exactly for one seed."""

    def check_workload(self, name):
        first = block_counters(workloads.WORKLOADS[name](7, OUT / name))
        again = block_counters(workloads.WORKLOADS[name](7, OUT / name))
        self.assertEqual(first, again)
        self.assertGreater(first["spans"], 0)

    def test_figures(self):
        self.check_workload("figures")

    def test_plan_stream(self):
        self.check_workload("plan-stream")

    def test_step_stream(self):
        self.check_workload("step-stream")


class RoadmapBaseline(unittest.TestCase):
    """The counters reproduce the baseline recorded in ROADMAP.md."""

    @classmethod
    def setUpClass(cls):
        cls.config = afpa_sim.load_config(afpa_sim.default_config_path())

    def test_four_equilibrium_solves_per_forward_map(self):
        t = traced(lambda: planner.forward_map(
            self.config.rig, 30.0, 60.0, self.config.probe_depth))
        self.assertEqual(t.calls("rig.solve_equilibrium"), 4)
        self.assertEqual(t.solves_in_forward_map, 4)

    def test_210_equilibrium_solves_per_state_table(self):
        t = traced(lambda: drivers.plan_states(self.config))
        self.assertEqual(t.calls("drivers.plan_states"), 1)
        self.assertEqual(t.calls("planner.state_table"), 1)
        self.assertEqual(t.calls("rig.solve_equilibrium"), 210)

    def test_step_subcommand_free_height_calls(self):
        out = OUT / "step"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            t = traced(lambda: cli.main(["step", "--out", str(out)]))
        self.assertEqual(t.calls("cli.main"), 1)
        self.assertEqual(t.calls("pouch.free_height"), 1_062_158)
        self.assertEqual(t.sim_steps, 12_000)


class Checks(unittest.TestCase):
    """The output checks fail where they should."""

    def test_reference_rejects_nan(self):
        ref = {"rows": 2, "columns": {"h": [3.0, 1.0, 2.0]}}
        self.assertTrue(workloads._matches_reference(
            {"rows": 2, "columns": {"h": [3.0, 1.0, 2.0]}}, ref))
        self.assertFalse(workloads._matches_reference(
            {"rows": 2, "columns": {"h": [math.nan, 1.0, 2.0]}}, ref))

    def test_known_plan_defect_is_bounded(self):
        wl = workloads.PlanStream(1, OUT)
        reachable = [j for j, x in enumerate(wl.inputs) if not x.off_reach]

        def stopped_short(j, residual=0.01):
            """The plan of target j, reported infeasible like the known defect."""
            x = wl.inputs[j]
            plan = planner.plan_state(x.rig, x.target, wl.bounds)
            self.assertTrue(plan.feasible)
            return j, dataclasses.replace(plan, feasible=False, residual_norm=residual,
                                          reason="stopped short")

        n = workloads.KINK_MAX_TARGETS
        first = dict(stopped_short(j) for j in reachable[:n + 1])
        within = dict(list(first.items())[:n])
        self.assertEqual(wl.check(within), {j: (True, True) for j in within})
        self.assertEqual(wl.check(first), {j: (True, False) for j in first})
        far = dict([stopped_short(reachable[0], residual=2 * workloads.KINK_MAX_RESIDUAL)])
        self.assertEqual(wl.check(far), {reachable[0]: (True, False)})

    def test_probe_latency(self):
        probe = run.SpeedProbe()
        probe.starts, probe.cals = [0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.1, 0.4]
        # one calibration inside: its time comes out, and it and the one on
        # each side make the unit
        wall, cal = probe.latency(0.5, 1.5)
        self.assertAlmostEqual(wall, 0.8)
        self.assertAlmostEqual(cal, 0.8 / (0.4 / 3))
        # none inside: the two around it
        wall, cal = probe.latency(2.2, 2.3)
        self.assertAlmostEqual(cal, 0.1 / 0.25)

    def test_verdicts_count_distinct_ops(self):
        class Fake:
            round_size = 3

            def check(self, first):
                return {j: (j == 1, j == 1) for j in first}

        one = [(i, "out") for i in range(3)]
        self.assertEqual(run.verdicts(Fake(), one), [(False, False), (True, True), (False, False)])
        self.assertEqual(run.verdicts(Fake(), one * 4), run.verdicts(Fake(), one))
        # a repeat that differs from the first result fails outside any known defect
        self.assertEqual(run.verdicts(Fake(), one + [(4, "other"), (5, "out")]),
                         [(False, False), (True, False), (False, False)])


class SeededInputs(unittest.TestCase):
    """The seed alone decides the generated inputs."""

    def test_plan_stream(self):
        a, b, c = (workloads.PlanStream(s, OUT) for s in (1, 1, 2))
        self.assertEqual(a.inputs, b.inputs)
        self.assertNotEqual(a.inputs, c.inputs)
        self.assertEqual(a.sizes(), {"targets": 500, "off_reach_share": 0.2,
                                     "compliant_share": 0.25})

    def test_step_stream(self):
        a, b, c = (workloads.StepStream(s, OUT) for s in (1, 1, 2))
        self.assertEqual(a.inputs, b.inputs)
        self.assertNotEqual(a.inputs, c.inputs)
        self.assertEqual(a.sizes()["compliant_share"], 0.25)

    def test_figures_study_logs(self):
        logs = []
        for seed in (1, 2):
            out = OUT / f"study-{seed}"
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["study-run", "--seed", str(seed), "--out", str(out)]), 0)
            logs.append((out / "trials_s00.jsonl").read_bytes())
        self.assertNotEqual(logs[0], logs[1])


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
