"""Compare the outputs of the working tree with those of a git ref.

    python3 tools/same_outputs.py <git-ref>

Extracts ``<git-ref>`` with ``git archive`` into a temporary directory and
runs the same checks on both trees, each with its own ``src/``, ``demos/``
and ``perfbench/workloads.py`` (imported, never edited):

- the artifacts that the seven subcommands write at seed 7;
- the stdout of each demo;
- every plan of the plan-stream workload on seeds 1-10;
- every valve-step row of the step-stream workload on seeds 1-10;
- every valve-step row of the two packaged ``STEP_PROTOCOLS`` runs (fig2d and
  fig2e at full precision, which their CSVs round to 12 digits);
- every trial record of ``simulate_session`` on session seeds 1-100, over the
  packaged config's planned states.

Prints, for each artifact and demo, whether it is identical; for a CSV that
differs, the largest absolute and relative change of each column that moved.
For the plans it prints how many are bit-identical (``repr``), how many
changed outcome or reason, and how far the pressures of the rest moved; for
each set of step rows, how many runs are byte-identical and the largest change
of each column; for the sessions, how many are identical (``repr``), how many
answers changed and the largest response-time change.  Exits 1 if anything
differs, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
PLAN_SEEDS = range(1, 11)
STEP_SEEDS = range(1, 11)
SESSION_SEEDS = range(1, 101)
STEP_COLUMNS = ("t", "p1", "p2", "h1", "h2")


def dump(tree: Path, out: Path) -> None:
    """Write one tree's outputs under ``out``: run inside a process whose path starts
    with that tree's ``src`` and ``perfbench``."""
    import contextlib

    import numpy as np
    import workloads
    from afpa_sim import cli, drivers, planner, pneumatics, study
    from afpa_sim.config import default_config_path, load_config

    artifacts = out / "artifacts"
    for sub in workloads.SUBCOMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main([sub, "--seed", str(SEED), "--out", str(artifacts)]):
                raise SystemExit(f"{tree}: {sub} failed")
    for demo in sorted((tree / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, str(demo)], cwd=tree, capture_output=True,
                             check=True, env=os.environ)
        (out / "demos").mkdir(exist_ok=True)
        (out / "demos" / f"{demo.stem}.txt").write_bytes(run.stdout)
    with open(out / "plans.jsonl", "w") as fh:
        for seed in PLAN_SEEDS:
            plans = workloads.PlanStream(seed, out)
            for x in plans.inputs:
                plan = planner.plan_state(x.rig, x.target, plans.bounds)
                fh.write(json.dumps([seed, repr(x.target), repr(plan), plan.p1, plan.p2,
                                     plan.feasible, plan.reason]) + "\n")
    rows = {}
    for seed in STEP_SEEDS:
        steps = workloads.StepStream(seed, out)
        for j, x in enumerate(steps.inputs):
            rows[f"{seed}-{j}"] = pneumatics.step_simulate(x.rig, steps.valves, x.schedule,
                                                           steps.dt, x.t_end)
    np.savez(out / "steps.npz", **rows)
    config = load_config(default_config_path())
    np.savez(out / "protocols.npz", **{
        stem: pneumatics.step_simulate(config.rig, config.valves,
                                       [(0.0, *start), (config.step.step_time, *stepped)],
                                       config.step.dt, config.step.t_end)
        for stem, start, stepped in drivers.STEP_PROTOCOLS.values()})
    states = drivers.plan_states(config)
    with open(out / "sessions.jsonl", "w") as fh:
        for seed in SESSION_SEEDS:
            schedule = study.schedule_trials(states, config.study.reps, seed)
            records = study.simulate_session(config.rig, states, schedule,
                                             config.study.responder, seed, config.probe_depth)
            fh.write(json.dumps([seed, [[repr(r), r.responded, r.response_time]
                                        for r in records]]) + "\n")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    return header, body


def _csv_changes(a: Path, b: Path) -> list[str]:
    """One line per column of two same-shaped CSVs that moved: its largest changes."""
    (head_a, rows_a), (head_b, rows_b) = _read_csv(a), _read_csv(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"    header or row count differs: {len(rows_a)} -> {len(rows_b)} rows"]
    lines = []
    for j, name in enumerate(head_a):
        worst_abs = worst_rel = 0.0
        for row_a, row_b in zip(rows_a, rows_b):
            if row_a[j] == row_b[j]:
                continue
            try:
                x, y = float(row_a[j]), float(row_b[j])
            except ValueError:
                worst_abs = worst_rel = math.inf  # a label changed
                continue
            worst_abs = max(worst_abs, abs(y - x))
            worst_rel = max(worst_rel, abs(y - x) / abs(x) if x else math.inf)
        if worst_abs or worst_rel:
            lines.append(f"    {name}: largest change {worst_abs:.3g} abs, {worst_rel:.3g} rel")
    return lines


def compare_files(name: str, old: Path, new: Path) -> bool:
    """Print identical or different for each file of either directory; True if all match."""
    same = True
    for f in sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}):
        a, b = old / f, new / f
        if not (a.is_file() and b.is_file()):
            print(f"{name}/{f}: only in the {'ref' if a.is_file() else 'working tree'}")
            same = False
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}/{f}: identical")
        else:
            print(f"{name}/{f}: different")
            same = False
            if f.endswith(".csv"):
                print("\n".join(_csv_changes(a, b)))
    return same


def compare_plans(old: Path, new: Path) -> bool:
    with open(old) as fa, open(new) as fb:
        pairs = [(json.loads(a), json.loads(b)) for a, b in zip(fa, fb, strict=True)]
    targets = sum(a[1] != b[1] for a, b in pairs)
    identical = sum(a[2] == b[2] for a, b in pairs)
    outcome = sum(a[5] != b[5] for a, b in pairs)
    reason = sum(a[6] != b[6] for a, b in pairs)
    moves = {True: 0.0, False: 0.0}  # largest pressure move, by the ref's outcome
    for a, b in pairs:
        if a[5] == b[5]:
            moves[a[5]] = max(moves[a[5]], abs(b[3] - a[3]), abs(b[4] - a[4]))
    print(f"plan-stream seeds {PLAN_SEEDS[0]}-{PLAN_SEEDS[-1]}: {len(pairs)} plans, "
          f"{identical} bit-identical; {targets} targets, {outcome} outcomes and "
          f"{reason} reasons changed; largest pressure move {moves[True]:.3g} kPa on "
          f"feasible plans, {moves[False]:.3g} kPa on infeasible ones")
    return identical == len(pairs)


def compare_steps(name: str, old: Path, new: Path) -> bool:
    import numpy as np

    with np.load(old) as a, np.load(new) as b:
        keys = sorted(set(a.files) | set(b.files))
        same = [k for k in keys if k in a.files and k in b.files
                and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()]
        print(f"{name}: {len(keys)} runs, {len(same)} byte-identical")
        worst = np.zeros(len(STEP_COLUMNS))
        for k in set(keys) - set(same):
            if k not in a.files or k not in b.files or a[k].shape != b[k].shape:
                print(f"    run {k}: rows differ in number")
                continue
            worst = np.maximum(worst, np.abs(b[k] - a[k]).max(axis=0))
        for name, w in zip(STEP_COLUMNS, worst):
            if w:
                print(f"    {name}: largest change {w:.3g}")
    return len(same) == len(keys)


def compare_sessions(old: Path, new: Path) -> bool:
    with open(old) as fa, open(new) as fb:
        pairs = [(json.loads(a)[1], json.loads(b)[1]) for a, b in zip(fa, fb, strict=True)]
    identical = sum(a == b for a, b in pairs)
    trials = [(x, y) for a, b in pairs for x, y in zip(a, b)]
    answers = sum(x[1] != y[1] for x, y in trials)
    moved = max((abs(y[2] - x[2]) for x, y in trials), default=0.0)
    print(f"study sessions, seeds {SESSION_SEEDS[0]}-{SESSION_SEEDS[-1]}: {len(pairs)} sessions, "
          f"{identical} identical; {answers} of {len(trials)} answers changed; largest "
          f"response-time change {moved:.3g} s")
    return identical == len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        sys.path[:0] = [str(Path(argv[1]) / "src"), str(Path(argv[1]) / "perfbench")]
        dump(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        ref, outs = Path(tmp) / "ref", {}
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(ref, filter="data")
        for label, tree in (("ref", ref), ("new", ROOT)):
            outs[label] = Path(tmp) / f"out-{label}"
            outs[label].mkdir()
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            subprocess.run([sys.executable, __file__, "--dump", str(tree), str(outs[label])],
                           env=env, check=True)
        old, new = outs["ref"], outs["new"]
        print(f"working tree against {argv[0]}")
        same = [compare_files("artifacts", old / "artifacts", new / "artifacts"),
                compare_files("demos", old / "demos", new / "demos"),
                compare_plans(old / "plans.jsonl", new / "plans.jsonl"),
                compare_steps(f"step-stream seeds {STEP_SEEDS[0]}-{STEP_SEEDS[-1]}",
                              old / "steps.npz", new / "steps.npz"),
                compare_steps("step protocols", old / "protocols.npz", new / "protocols.npz"),
                compare_sessions(old / "sessions.jsonl", new / "sessions.jsonl")]
    return 0 if all(same) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
