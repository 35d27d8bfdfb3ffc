"""Experiment drivers: run each protocol and emit plot-ready data files.

Each ``run_*`` takes the CLI's (config, seed, out).  Outputs are keyed by the
figure they reproduce (fig2c.csv, fig3a.csv, ...).  Every file is written by
``_write``, as UTF-8 with LF line endings.  CSVs have a `.` decimal separator and
unit-suffixed column names; numbers take ``"%.12g"``, 12 significant digits, which
does not round-trip every float but is fixed, so identical runs are byte-identical.

``run_study_analyze`` takes each configured session's log, which must hold
trials 1..9*reps in order, and builds fig5c-g from each session's confusion
matrix, segment trends and hit rate (``_hit_rate``), and the pooled records' latency
boxes, which ``accuracy_stats`` also builds, all on plain floats that equal numpy's bit
for bit, so it loads no numpy.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

from .config import RunConfig
from .planner import StateDef, _linspace, feasibility_map, state_table
from .pneumatics import resample_16hz, step_simulate
from .rig import _probe_curve, size_pressure_sweep, solve_equilibrium
from .study import (
    StudyDomainError,
    TrialRecord,
    _add,
    _confusion_rows,
    _hit_rate,
    _latency_boxes,
    _mean,
    _std,
    schedule_trials,
    segment_analysis,
    simulate_sessions,
)

# canonical step protocols, in the order they run: (label, initial (p1, p2), stepped (p1, p2))
STEP_PROTOCOLS = {
    "P1": ("fig2e", (10.0, 10.0), (90.0, 10.0)),
    "P2": ("fig2d", (0.0, 0.0), (0.0, 90.0)),
}
FEASIBILITY_GRID_N = 25  # pressures per axis of the figs4b map


def _write(path: Path, text: str) -> Path:
    """Write text to path as UTF-8, with its line endings as given (LF)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """The header and one comma-joined line per row, from one ``%`` operation: a column is
    text in every row or in none, and the first row's cells give ``%s`` for text and
    ``"%.12g"`` for a number.  An array's cells come from one ``ravel().tolist()``."""
    if hasattr(rows, "ravel"):
        cells, first = tuple(rows.ravel().tolist()), rows[0].tolist() if len(rows) else ()
    else:
        rows = list(rows)
        cells, first = tuple([v for row in rows for v in row]), rows[0] if rows else ()
    line = ",".join(["%s" if isinstance(v, str) else "%.12g" for v in first])
    return _write(path, ",".join(header) + "\n" + (line + "\n") * len(rows) % cells)


def _write_json(path: Path, doc) -> Path:
    return _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    """The sweep's p2 levels and max_characterized_p2, which the config keeps >= 0, sorted."""
    return sorted(set(config.sweep.p2_levels) | {config.max_characterized_p2})


def run_characterize_stiffness(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Probe force, loading and unloading against friction, and ``stiffness`` vs
    compression depth at each p2 level, both read from one ``_probe`` per depth."""
    sweep, f = config.sweep, config.rig.friction_force
    depth_step = sweep.probe_rate / sweep.sample_rate
    force_rows, stiff_rows = [], []
    for p2 in _stiffness_levels(config):
        eq = solve_equilibrium(config.rig, 0.0, p2)
        n = round(min(sweep.compression_depth, max(depth_step, eq.h2 - 1.0)) / depth_step)
        for d, probe in _probe_curve(config.rig, 0.0, p2, n * depth_step, depth_step, eq):
            force_rows.append((p2, d, max(0.0, probe.force + f), max(0.0, probe.force - f)))
            if eq.h2 - d < eq.h2:  # stiffness's range; the probe height is positive
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
    """Forward-model map over the pressure box, FEASIBILITY_GRID_N pressures per axis:
    ``feasibility_map``'s float rows, written without numpy."""
    b, n = config.bounds, FEASIBILITY_GRID_N
    rows = feasibility_map(config.rig, _linspace(*b[:2], n), _linspace(*b[2:], n),
                           config.probe_depth)
    return [
        _write_csv(out / "figs4b.csv", ("p1_kPa", "p2_kPa", "h2_mm", "k_N_per_mm"), rows)
    ]


def _records_to_lines(records: Sequence[TrialRecord], seed: int) -> list[str]:
    """One ``json.dumps(..., sort_keys=True)`` line per record, from one format string."""
    line = ('{"presented": %r, "responded": %r, "response_time_s": %r, "seed": %r, '
            '"segment": %r, "trial_index": %r}')
    return [line % (r.presented, r.responded, round(r.response_time, 9), seed, r.segment,
                    r.trial_index) for r in records]


def run_study(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Simulate the configured sessions over one set of per-run terms; a JSONL log each."""
    states = plan_states(config)
    paths = _write_plan(states, out)
    sessions = ((schedule_trials(states, config.study.reps, seed + s), seed + s)
                for s in range(config.study.sessions))
    runs = simulate_sessions(config.rig, states, sessions, config.study.responder,
                             config.probe_depth)
    paths += [_write(out / f"trials_s{s:02d}.jsonl",
                     "\n".join(_records_to_lines(records, seed + s)) + "\n")
              for s, records in enumerate(runs)]
    return paths


def _load_records(path: Path, segment_size: int) -> list[TrialRecord]:
    if not path.is_file():
        raise StudyDomainError(f"{path}: missing trial log")
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.isspace():  # a blank line; the file's lines are never empty
                continue
            try:
                doc = json.loads(line)
                records.append(TrialRecord(doc["trial_index"], doc["presented"],
                                           doc["responded"], doc["response_time_s"],
                                           doc["segment"], segment_size))
            except (ValueError, KeyError, TypeError) as exc:
                raise StudyDomainError(f"{path}:{number}: bad trial record: {exc!r}") from None
    return records


def run_study_analyze(config: RunConfig, seed: int, out: Path) -> list[Path]:
    """Statistics over the trial logs of the configured sessions, trials_s00 on, as plain
    floats: each mean and standard deviation is ``np.mean``'s or ``np.std``'s, bit for
    bit, and the mean confusion matrix adds the sessions' matrices in order."""
    if not (logs := {p.name for p in out.glob("trials_s*.jsonl")}):
        raise FileNotFoundError(f"no trial logs (trials_s*.jsonl) in {out}")
    names = [f"trials_s{s:02d}.jsonl" for s in range(config.study.sessions)]
    if extra := sorted(logs - set(names)):  # such as an earlier run's with more sessions
        raise StudyDomainError(f"{out / extra[0]}: not one of {len(names)} sessions' trial logs")
    segment_size = config.study.reps  # 9 x reps trials -> 9 segments
    per_session = [_load_records(out / name, segment_size) for name in names]
    for name, recs in zip(names, per_session):  # one whole session each, in trial order
        if [r.trial_index for r in recs] != list(range(1, 9 * segment_size + 1)):
            raise StudyDomainError(f"{out / name}: trials are not 1..{9 * segment_size} in order")
    pooled = [r for recs in per_session for r in recs]
    confusions = [_confusion_rows(recs) for recs in per_session]
    segments = [segment_analysis(recs, segment_size) for recs in per_session]
    overall = [_hit_rate(recs) for recs in per_session]

    n = len(confusions)  # np.mean over axis 0 adds the matrices in order
    conf_rows = [[i + 1] + [_add(c[i][j] for c in confusions) / n for j in range(9)]
                 for i in range(9)]
    conf_header = ["presented_id"] + [f"p_resp_{j}_frac" for j in range(1, 10)]

    # a state's accuracy in a session is its confusion matrix's diagonal entry
    acc_rows = []
    for i in range(9):
        accs = [c[i][i] for c in confusions]
        acc_rows.append((i + 1, _mean(accs), _std(accs)))

    time_rows = [(sid, b.median, b.q1, b.q3, b.whisker_low, b.whisker_high)
                 for sid, b in _latency_boxes(pooled).items()]

    # each segment's (accuracy, mean time) in every session, averaged per column
    seg_rows = [(seg, *(_mean(col) for col in zip(*blocks)))
                for seg, blocks in enumerate(zip(*segments), 1)]

    summary = {
        "sessions": len(per_session),
        "trials_per_session": len(per_session[0]),
        "overall_accuracy_mean": _mean(overall),
        "overall_accuracy_std": _std(overall),
        "overall_accuracy_per_session": overall,
        "mean_response_time_s": _mean([r.response_time for r in pooled]),
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
