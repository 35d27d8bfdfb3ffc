"""Nine-state identification protocol with synthetic responders.

A session presents each of the 9 planned haptic states a fixed number
of times in seeded random order.  A synthetic responder perceives the
state's (height, stiffness) pair through multiplicative noise and
answers with the nearest state in a normalized log-log perceptual
space, with an occasional uniform lapse.  The statistics battery
(confusion matrix, accuracies, box statistics, independent t-test,
segment trends) operates on the resulting trial records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import AfpaSimError
from .planner import DEFAULT_PROBE_DEPTH_MM, StateDef, forward_map
from .rig import RigSpec

# fixed actuator transition time added to every trial's latency; the
# rendered state needs about this long to settle after a pressure step
TRANSITION_TIME_S = 2.0
TRIALS_MAX = 100_000  # largest study size, 9 * reps * sessions trials: 10 MB of trial logs


class StudyDomainError(AfpaSimError, ValueError):
    """Invalid protocol parameters or records."""


class StatisticsError(AfpaSimError, ValueError):
    """Degenerate input to a statistical routine."""


@dataclass(frozen=True)
class ResponderModel:
    """Synthetic subject answering nearest-state in perceptual space.

    Noises are relative (multiplicative, log-normal) on the perceived
    height and stiffness.  lapse_rate is the probability of ignoring
    the percept and answering uniformly at random; lapse_drift is added
    to the lapse rate per trial (for fatigue-trend experiments).
    """

    size_noise: float
    stiffness_noise: float
    lapse_rate: float = 0.0
    base_time: float = 2.0  # s, decision floor on top of the transition
    time_per_confusability: float = 2.0  # s per unit confusability score
    time_noise: float = 0.1  # relative latency jitter
    lapse_drift: float = 0.0  # per-trial lapse_rate increment

    def __post_init__(self) -> None:
        if self.size_noise < 0 or self.stiffness_noise < 0:
            raise ValueError("noise values must be >= 0")
        if not (0.0 <= self.lapse_rate < 1.0):
            raise ValueError("lapse_rate must be in [0, 1)")
        if self.base_time <= 0:
            raise ValueError("base_time must be positive")
        if self.time_per_confusability < 0 or self.time_noise < 0:
            raise ValueError("time parameters must be >= 0")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int  # 1-based
    presented: int  # state id
    responded: int  # state id
    response_time: float  # s, includes the transition term
    segment: int  # 1-based block of segment_size trials
    segment_size: int = 10  # trials per segment, the study's reps

    def __post_init__(self) -> None:
        # bool is a subclass of int, so the type is compared exactly
        ids = self.trial_index, self.presented, self.responded
        if not all(type(i) is int and i > 0 for i in ids) or max(ids[1:]) > 9:
            raise StudyDomainError(f"trial_index {self.trial_index!r} must be a positive integer, "
                                   f"presented {self.presented!r} and responded "
                                   f"{self.responded!r} state ids 1..9")
        if not 0 < self.response_time < math.inf:  # also NaN, which json reads
            raise StudyDomainError("response_time must be positive and finite")
        if self.segment != math.ceil(self.trial_index / self.segment_size):
            raise StudyDomainError(f"trial {self.trial_index}: segment {self.segment} "
                                   f"inconsistent with segments of {self.segment_size}")


@dataclass(frozen=True)
class BoxStats:
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


@dataclass(frozen=True)
class TTestResult:
    t: float
    dof: float
    p_two_sided: float


@dataclass
class StudyStats:
    confusion: np.ndarray  # 9x9 row-normalized
    overall_accuracy: float
    per_state_accuracy: dict[int, float]
    response_time_stats: dict[int, BoxStats]
    segment_accuracy: list[float]
    segment_time: list[float]


def _check_states(states: Sequence[StateDef]) -> list[StateDef]:
    states = sorted(states, key=lambda s: s.id)
    ids = [s.id for s in states]
    if ids != list(range(1, 10)):
        raise StudyDomainError(f"need states with ids 1..9, got {ids}")
    classes = {(s.size_class, s.stiffness_class) for s in states}
    if len(classes) != 9:
        raise StudyDomainError("the 3x3 size/stiffness class grid must be complete")
    return states


def schedule_trials(states: Sequence[StateDef], reps: int, seed: int) -> list[int]:
    """Seeded uniform shuffle of each state id repeated ``reps`` times."""
    import numpy as np
    states = _check_states(states)
    if reps < 1:
        raise StudyDomainError(f"reps must be >= 1, got {reps}")
    order = np.array([s.id for s in states for _ in range(reps)])
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    return [int(i) for i in order]


def _perceptual_coords(
    rig: RigSpec, states: Sequence[StateDef], probe_depth: float
) -> tuple[np.ndarray, float, float]:
    """(log h2, log k) per state plus the class-grid log spacings."""
    import numpy as np
    hk = np.array([forward_map(rig, s.p1, s.p2, probe_depth) for s in states])
    if np.any(hk <= 0.0):
        raise StudyDomainError("every state must have positive height and stiffness")
    logs = np.log(hk)
    # normalize by the mean log spacing between adjacent classes of height and of stiffness
    classes = [sorted({round(v, 9) for v in column}) for column in logs.T]
    sh, sk = ((c[-1] - c[0]) / max(1, len(c) - 1) for c in classes)
    if sh <= 0 or sk <= 0:
        raise StudyDomainError("state grid is degenerate in height or stiffness")
    return logs, sh, sk


# width (in perceptual-noise units) of the crowding kernel used for the
# latency model; wider than the discrimination noise because deliberation
# slows down well before states become indistinguishable
CONFUSABILITY_SCALE = 2.0


def _confusability(z: np.ndarray, idx: int) -> float:
    """Crowding score of one state: Gaussian overlap mass of its neighbors."""
    import numpy as np
    d2 = np.sum((z - z[idx]) ** 2, axis=1)
    score = np.exp(-0.5 * d2 / CONFUSABILITY_SCALE**2)
    return float(np.sum(score) - 1.0)  # drop the self term


def simulate_session(
    rig: RigSpec,
    states: Sequence[StateDef],
    schedule: Sequence[int],
    responder: ResponderModel,
    seed: int,
    probe_depth: float = DEFAULT_PROBE_DEPTH_MM,
) -> list[TrialRecord]:
    """Run one synthetic session over the scheduled presentations."""
    import numpy as np
    states = _check_states(states)
    if not schedule:
        raise StudyDomainError("schedule must not be empty")
    by_id = {s.id: i for i, s in enumerate(states)}
    unknown = [sid for sid in schedule if sid not in by_id]
    if unknown:
        raise StudyDomainError(f"schedule references unknown state ids {sorted(set(unknown))}")

    logs, sh, sk = _perceptual_coords(rig, states, probe_depth)
    z = logs / np.array([sh, sk])  # normalized perceptual coordinates
    # noise magnitudes in normalized units
    noise = np.array([responder.size_noise / sh, responder.stiffness_noise / sk])
    crowd = z * 1.0
    if noise.max() > 0:
        crowd = logs / np.maximum(noise * np.array([sh, sk]), 1e-12)
    conf = [_confusability(crowd, i) for i in range(len(states))]

    # a schedule presents each state reps times, and a segment is reps trials
    segment_size = max(1, len(schedule) // len(states))
    rng = np.random.default_rng(seed)
    records: list[TrialRecord] = []
    for t_idx, sid in enumerate(schedule, start=1):
        i = by_id[sid]
        lapse = min(
            0.999, responder.lapse_rate + responder.lapse_drift * (t_idx - 1)
        )
        if lapse > 0.0 and rng.random() < lapse:
            answer = int(rng.integers(1, 10))
        else:
            percept = z[i] + noise * rng.standard_normal(2)
            d2 = np.sum((z - percept) ** 2, axis=1)
            answer = states[int(np.argmin(d2))].id
        latency = (
            TRANSITION_TIME_S
            + responder.base_time
            + responder.time_per_confusability * conf[i]
        )
        if responder.time_noise > 0:
            latency *= math.exp(responder.time_noise * rng.standard_normal())
        records.append(
            TrialRecord(
                trial_index=t_idx,
                presented=sid,
                responded=answer,
                response_time=latency,
                segment=math.ceil(t_idx / segment_size),
                segment_size=segment_size,
            )
        )
    return records


def confusion_matrix(records: Sequence[TrialRecord]) -> np.ndarray:
    """Row-normalized 9x9 matrix of P(responded j | presented i)."""
    import numpy as np
    counts = np.zeros((9, 9))
    for r in records:
        counts[r.presented - 1, r.responded - 1] += 1.0
    row_sums = counts.sum(axis=1)
    missing = [i + 1 for i in range(9) if row_sums[i] == 0]
    if missing:
        raise StudyDomainError(f"states never presented: {missing}")
    return counts / row_sums[:, None]


def accuracy_stats(
    records: Sequence[TrialRecord],
) -> tuple[float, dict[int, float], dict[int, BoxStats]]:
    """(overall accuracy, per-state accuracy, per-state latency box stats)."""
    import numpy as np
    if not records:
        raise StudyDomainError("records must not be empty")
    hits: dict[int, list[int]] = {}
    times: dict[int, list[float]] = {}
    for r in records:
        hits.setdefault(r.presented, []).append(int(r.responded == r.presented))
        times.setdefault(r.presented, []).append(r.response_time)
    per_state = {sid: float(np.mean(h)) for sid, h in sorted(hits.items())}
    time_stats = {sid: box_stats(ts) for sid, ts in sorted(times.items())}
    overall = float(np.mean([r.responded == r.presented for r in records]))
    return overall, per_state, time_stats


def segment_analysis(
    records: Sequence[TrialRecord], segment_size: int = 10
) -> list[tuple[float, float]]:
    """Per-segment (accuracy, mean response time) in presentation order."""
    import numpy as np
    if segment_size < 1:
        raise StudyDomainError("segment_size must be >= 1")
    if not records or len(records) % segment_size != 0:
        raise StudyDomainError(
            f"record count {len(records)} not divisible by segment size {segment_size}"
        )
    ordered = sorted(records, key=lambda r: r.trial_index)
    blocks = (ordered[i : i + segment_size] for i in range(0, len(ordered), segment_size))
    return [(float(np.mean([r.responded == r.presented for r in block])),
             float(np.mean([r.response_time for r in block]))) for block in blocks]


def study_stats(records: Sequence[TrialRecord], segment_size: int = 10) -> StudyStats:
    """Full statistics bundle over one session's records."""
    overall, per_state, time_stats = accuracy_stats(records)
    segments = segment_analysis(records, segment_size)
    return StudyStats(
        confusion=confusion_matrix(records),
        overall_accuracy=overall,
        per_state_accuracy=per_state,
        response_time_stats=time_stats,
        segment_accuracy=[a for a, _ in segments],
        segment_time=[t for _, t in segments],
    )


def box_stats(samples: Sequence[float]) -> BoxStats:
    """Median/quartiles (inclusive linear interpolation) and 1.5 IQR whiskers."""
    import numpy as np
    if len(samples) == 0:
        raise StatisticsError("box_stats requires at least one sample")
    arr = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise StatisticsError("samples must be finite")
    q1, med, q3 = (float(v) for v in np.percentile(arr, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = tuple(float(v) for v in sorted(arr[(arr < lo_fence) | (arr > hi_fence)]))
    return BoxStats(
        median=med,
        q1=q1,
        q3=q3,
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=outliers,
    )


def t_test_independent(
    a: Sequence[float], b: Sequence[float], equal_variance: bool = True
) -> TTestResult:
    """Two-sample t-test: pooled (Student) or Welch, two-sided p."""
    import numpy as np
    x, y = (np.asarray(v, dtype=float) for v in (a, b))
    if x.size < 2 or y.size < 2:
        raise StatisticsError("each group needs at least 2 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise StatisticsError("samples must be finite")
    vx, vy = (float(np.var(v, ddof=1)) for v in (x, y))
    mx, my = (float(np.mean(v)) for v in (x, y))
    if vx == 0.0 and vy == 0.0:
        if mx == my:
            raise StatisticsError("degenerate: zero variance and equal means")
        return TTestResult(t=math.copysign(math.inf, mx - my), dof=float(x.size + y.size - 2), p_two_sided=0.0)
    if equal_variance:
        dof = float(x.size + y.size - 2)
        pooled = ((x.size - 1) * vx + (y.size - 1) * vy) / dof
        se = math.sqrt(pooled * (1.0 / x.size + 1.0 / y.size))
    else:
        sx, sy = vx / x.size, vy / y.size
        se = math.sqrt(sx + sy)
        dof = (sx + sy) ** 2 / (
            sx * sx / (x.size - 1) + sy * sy / (y.size - 1)
        )
    t = (mx - my) / se
    from scipy import special  # scipy loads on the first t-test

    # two-sided p from the regularized incomplete beta form of the t CDF
    p = float(special.betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return TTestResult(t=t, dof=dof, p_two_sided=min(1.0, max(0.0, p)))
