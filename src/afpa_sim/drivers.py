"""Experiment drivers: run each protocol and emit plot-ready data files.

Each ``run_*`` takes the CLI's (config, seed, out).  Outputs are keyed by the
figure they reproduce (fig2c.csv, fig3a.csv, ...).  CSVs are UTF-8 with LF line
endings, `.` decimal separator and unit-suffixed column names; numbers take a
fixed shortest-round-trip rule, so identical runs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

from .config import RunConfig
from .planner import StateDef, feasibility_map, state_table
from .pneumatics import resample_16hz, step_simulate
from .rig import _probe_curve, size_pressure_sweep, solve_equilibrium
from .study import (
    StudyDomainError,
    TrialRecord,
    accuracy_stats,
    schedule_trials,
    simulate_session,
    study_stats,
)

# canonical step protocols, in the order they run: (label, initial (p1, p2), stepped (p1, p2))
STEP_PROTOCOLS = {
    "P1": ("fig2e", (10.0, 10.0), (90.0, 10.0)),
    "P2": ("fig2d", (0.0, 0.0), (0.0, 90.0)),
}
FEASIBILITY_GRID_N = 25  # pressures per axis of the figs4b map


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """One comma-joined line per row, an array via tolist; numbers by ``"%.12g"``."""
    formats: dict[tuple, str] = {}  # a row's ``%`` string, by the types of its values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist() if hasattr(rows, "tolist") else rows:
            if (line := formats.get(types := tuple(map(type, row)))) is None:
                line = formats[types] = ",".join(["%s" if issubclass(t, str) else "%.12g"
                                                  for t in types]) + "\n"
            fh.write(line % tuple(row))
    return path


def _write_json(path: Path, doc) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def run_characterize_size(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Height vs p1 hysteresis sweeps, one pair of branches per p2 level."""
    sweep = config.sweep
    n = int(round(sweep.p1_max / sweep.p1_step))
    desc = [sweep.p1_max - i * sweep.p1_step for i in range(n + 1)]
    path = desc + desc[-2::-1]  # p1_max -> 0 -> p1_max
    rows = []
    for p2 in sweep.p2_levels:
        samples = size_pressure_sweep(config.rig, p2, path)
        down = samples[: n + 1]  # descending p1
        up = samples[n:][::-1]  # ascending pass, aligned to the same p1 list
        for (p1, h_down), (_, h_up) in zip(down, up):
            rows.append((p2, p1, h_down, h_up))
    return [_write_csv(out / "fig2c.csv", ("p2_kPa", "p1_kPa", "h2_desc_mm", "h2_asc_mm"), rows)]


def _stiffness_levels(config: RunConfig) -> list[float]:
    levels = sorted(set(config.sweep.p2_levels) | {config.max_characterized_p2})
    return [p for p in levels if p >= 0.0]


def run_characterize_stiffness(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Probe force, loading and unloading against friction, and ``contact_stiffness`` vs
    compression depth at each p2 level, both read from one ``_probe`` per depth."""
    sweep, f = config.sweep, config.rig.friction_force
    depth_step = sweep.probe_rate / sweep.sample_rate
    force_rows, stiff_rows = [], []
    for p2 in _stiffness_levels(config):
        eq = solve_equilibrium(config.rig, 0.0, p2)
        n = round(min(sweep.compression_depth, max(depth_step, eq.h2 - 1.0)) / depth_step)
        for d, probe in _probe_curve(config.rig, 0.0, p2, n * depth_step, depth_step, eq):
            force_rows.append((p2, d, max(0.0, probe.force + f), max(0.0, probe.force - f)))
            if eq.h2 - d < eq.h2:  # contact_stiffness's range; the probe height is positive
                stiff_rows.append((p2, d, probe.k))
    return [
        _write_csv(
            out / "fig3a.csv",
            ("p2_kPa", "depth_mm", "force_loading_N", "force_unloading_N"),
            force_rows,
        ),
        _write_csv(out / "fig3b.csv", ("p2_kPa", "depth_mm", "stiffness_N_per_mm"), stiff_rows),
    ]


def run_step(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Commanded pressure step responses, full rate and 16 Hz resampled."""
    header = ("t_s", "p1_kPa", "p2_kPa", "h1_mm", "h2_mm")
    paths = []
    for stem, (p1a, p2a), (p1b, p2b) in STEP_PROTOCOLS.values():
        schedule = [(0.0, p1a, p2a), (config.step.step_time, p1b, p2b)]
        series = step_simulate(
            config.rig, config.valves, schedule, config.step.dt, config.step.t_end
        )
        paths += [_write_csv(out / f"{stem}.csv", header, series),
                  _write_csv(out / f"{stem}_16hz.csv", header, resample_16hz(series))]
    return paths


def plan_states(config: RunConfig) -> list[StateDef]:
    """The 3x3 study state table for this configuration."""
    return state_table(
        config.rig,
        sizes=list(config.study.sizes),
        stiffnesses=list(config.study.stiffnesses),
        bounds=config.bounds,
        probe_depth=config.probe_depth,
    )


def run_plan(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Plan the study states; emit the state table and its summary CSV."""
    return _write_plan(plan_states(config), out)


def _write_plan(states: Sequence[StateDef], out: Path) -> list[Path]:
    rows = [
        (s.id, s.size_class, s.stiffness_class, s.p1, s.p2, s.height, s.stiffness)
        for s in states
    ]
    table_doc = {"states": [asdict(s) for s in states]}
    return [
        _write_json(out / "state_table.json", table_doc),
        _write_csv(
            out / "fig5a.csv",
            ("state_id", "size_class", "stiffness_class", "p1_kPa", "p2_kPa", "h2_mm", "k_N_per_mm"),
            rows,
        ),
    ]


def run_feasibility(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Forward-model map over the pressure box."""
    import numpy as np
    p1_lo, p1_hi, p2_lo, p2_hi = config.bounds
    p1s = np.linspace(p1_lo, p1_hi, FEASIBILITY_GRID_N)
    p2s = np.linspace(p2_lo, p2_hi, FEASIBILITY_GRID_N)
    grid = feasibility_map(config.rig, p1s, p2s, config.probe_depth)
    return [
        _write_csv(out / "figs4b.csv", ("p1_kPa", "p2_kPa", "h2_mm", "k_N_per_mm"), grid)
    ]


def _records_to_lines(records: Sequence[TrialRecord], seed: int) -> list[str]:
    return [json.dumps({
        "trial_index": r.trial_index,
        "presented": r.presented,
        "responded": r.responded,
        "response_time_s": round(r.response_time, 9),
        "segment": r.segment,
        "seed": seed,
    }, sort_keys=True) for r in records]


def run_study(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Simulate the configured sessions; one JSONL trial log per session."""
    states = plan_states(config)
    paths = _write_plan(states, out)
    for s in range(config.study.sessions):
        session_seed = seed + s
        schedule = schedule_trials(states, config.study.reps, session_seed)
        records = simulate_session(
            config.rig, states, schedule, config.study.responder,
            session_seed, config.probe_depth,
        )
        log = out / f"trials_s{s:02d}.jsonl"
        with open(log, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(_records_to_lines(records, session_seed)) + "\n")
        paths.append(log)
    return paths


def _load_records(path: Path, segment_size: int) -> list[TrialRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                records.append(TrialRecord(
                    trial_index=doc["trial_index"],
                    presented=doc["presented"],
                    responded=doc["responded"],
                    response_time=doc["response_time_s"],
                    segment=doc["segment"],
                    segment_size=segment_size,
                ))
            except (ValueError, KeyError, TypeError) as exc:
                raise StudyDomainError(f"{path}:{number}: bad trial record: {exc!r}") from None
    return records


def run_study_analyze(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Statistics over all trial logs found in the output directory."""
    import numpy as np
    logs = sorted(out.glob("trials_s*.jsonl"))
    if not logs:
        raise FileNotFoundError(f"no trial logs (trials_s*.jsonl) in {out}")
    segment_size = config.study.reps  # 9 x reps trials -> 9 segments
    per_session = [_load_records(p, segment_size) for p in logs]
    pooled = [r for recs in per_session for r in recs]
    stats = [study_stats(recs, segment_size) for recs in per_session]

    confusion = np.mean([s.confusion for s in stats], axis=0)
    conf_rows = [
        [i + 1] + list(confusion[i]) for i in range(9)
    ]
    conf_header = ["presented_id"] + [f"p_resp_{j}_frac" for j in range(1, 10)]

    acc_rows = []
    for sid in range(1, 10):
        accs = [s.per_state_accuracy[sid] for s in stats]
        acc_rows.append((sid, float(np.mean(accs)), float(np.std(accs))))

    time_rows = [(sid, b.median, b.q1, b.q3, b.whisker_low, b.whisker_high)
                 for sid, b in accuracy_stats(pooled)[2].items()]

    seg_rows = [(seg + 1, float(np.mean([s.segment_accuracy[seg] for s in stats])),
                 float(np.mean([s.segment_time[seg] for s in stats])))
                for seg in range(len(stats[0].segment_accuracy))]

    overall = [s.overall_accuracy for s in stats]
    summary = {
        "sessions": len(stats),
        "trials_per_session": len(per_session[0]),
        "overall_accuracy_mean": float(np.mean(overall)),
        "overall_accuracy_std": float(np.std(overall)),
        "overall_accuracy_per_session": [float(a) for a in overall],
        "mean_response_time_s": float(np.mean([r.response_time for r in pooled])),
    }
    return [
        _write_csv(out / "fig5c.csv", conf_header, conf_rows),
        _write_csv(out / "fig5d.csv", ("state_id", "accuracy_frac", "accuracy_std_frac"), acc_rows),
        _write_csv(
            out / "fig5e.csv",
            ("state_id", "median_s", "q1_s", "q3_s", "whisker_low_s", "whisker_high_s"),
            time_rows,
        ),
        _write_csv(
            out / "fig5fg.csv", ("segment_id", "accuracy_frac", "mean_response_time_s"), seg_rows
        ),
        _write_json(out / "study_summary.json", summary),
    ]
