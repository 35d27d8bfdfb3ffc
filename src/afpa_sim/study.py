"""Nine-state identification protocol with synthetic responders.

A session presents each of the 9 planned haptic states a fixed number
of times in seeded random order.  A synthetic responder perceives the
state's (height, stiffness) pair through multiplicative noise and
answers with the nearest state in a normalized log-log perceptual
space, with an occasional uniform lapse.  The statistics battery
(confusion matrix, accuracies with latency box statistics, independent
t-test, segment trends) operates on the resulting trial records, one
function per statistic, so a caller computes only what it reads.  A
record's segment_size, like its ids, is a positive int.

The sessions of a study share their per-run terms: ``simulate_sessions``
computes the states' perceptual coordinates and pre-jitter latencies once,
and ``simulate_session`` is its one-session case.  ``box_stats`` takes
numpy's ``linear`` quartiles (Hyndman & Fan type 7) from a sorted list of
floats, bit for bit, and a 0/1 accuracy is a count over a length (``_hit_rate``).  The
confusion counts, ``segment_analysis``, the means and standard deviations
that ``study-analyze`` writes and the t-test's sample moments are plain floats
too, equal to numpy's bit for bit (``_mean``, ``_var``), so reading a study's
logs loads no numpy; the t-test's p does, through ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        # each check fails a NaN and an infinity
        if not all(0.0 <= x < math.inf for x in (self.size_noise, self.stiffness_noise)):
            raise ValueError("noise values must be >= 0")
        if not (0.0 <= self.lapse_rate < 1.0):
            raise ValueError("lapse_rate must be in [0, 1)")
        if not 0.0 < self.base_time < math.inf:
            raise ValueError("base_time must be positive")
        if not all(0.0 <= x < math.inf for x in (self.time_per_confusability, self.time_noise)):
            raise ValueError("time parameters must be >= 0")
        if not math.isfinite(self.lapse_drift):  # may be negative
            raise ValueError("lapse_drift must be finite")


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
        t, a, b = self.trial_index, self.presented, self.responded
        if not (type(t) is type(a) is type(b) is int and t > 0 and 0 < a <= 9 and 0 < b <= 9):
            raise StudyDomainError(f"trial_index {self.trial_index!r} must be a positive integer, "
                                   f"presented {self.presented!r} and responded "
                                   f"{self.responded!r} state ids 1..9")
        if not 0 < self.response_time < math.inf:  # also NaN, which json reads
            raise StudyDomainError("response_time must be positive and finite")
        if type(self.segment_size) is not int or self.segment_size < 1:
            raise StudyDomainError(f"segment_size {self.segment_size!r} must be a positive integer")
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
    if type(reps) is not int or reps < 1:
        raise StudyDomainError(f"reps {reps!r} must be a positive integer")
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


def simulate_sessions(rig: RigSpec, states: Sequence[StateDef],
                      sessions: Iterable[tuple[Sequence[int], int]], responder: ResponderModel,
                      probe_depth: float = DEFAULT_PROBE_DEPTH_MM
                      ) -> Iterator[list[TrialRecord]]:
    """Run synthetic sessions, each a (schedule, seed) pair, and yield each one's records.

    The per-run terms, each state's perceptual coordinates and its latency
    before the jitter, are computed once, before the first session.
    """
    import numpy as np
    states = _check_states(states)
    by_id = {s.id: i for i, s in enumerate(states)}
    logs, sh, sk = _perceptual_coords(rig, states, probe_depth)
    z = logs / np.array([sh, sk])  # normalized perceptual coordinates
    # noise magnitudes in normalized units
    noise = np.array([responder.size_noise / sh, responder.stiffness_noise / sk])
    crowd = logs / np.maximum(noise * np.array([sh, sk]), 1e-12) if noise.max() > 0 else z
    latencies = [TRANSITION_TIME_S + responder.base_time
                 + responder.time_per_confusability * _confusability(crowd, i)
                 for i in range(len(states))]
    coords, (nh, nk) = z.tolist(), noise.tolist()
    for schedule, seed in sessions:
        if not schedule:
            raise StudyDomainError("schedule must not be empty")
        unknown = [sid for sid in schedule if sid not in by_id]
        if unknown:
            raise StudyDomainError(f"schedule references unknown state ids {sorted(set(unknown))}")
        # a schedule presents each state reps times, and a segment is reps trials
        segment_size = max(1, len(schedule) // len(states))
        rng = np.random.default_rng(seed)
        records: list[TrialRecord] = []
        for t_idx, sid in enumerate(schedule, start=1):
            i = by_id[sid]
            lapse = min(0.999, responder.lapse_rate + responder.lapse_drift * (t_idx - 1))
            if lapse > 0.0 and rng.random() < lapse:
                answer = int(rng.integers(1, 10))
            else:  # the percept, its squared distance to each state and the first nearest
                eh, ek = rng.standard_normal(2).tolist()
                ph, pk = coords[i][0] + nh * eh, coords[i][1] + nk * ek
                d2 = [(h - ph) * (h - ph) + (k - pk) * (k - pk) for h, k in coords]
                answer = states[d2.index(min(d2))].id
            latency = latencies[i]
            if responder.time_noise > 0:
                latency *= math.exp(responder.time_noise * rng.standard_normal())
            records.append(TrialRecord(t_idx, sid, answer, latency,
                                       math.ceil(t_idx / segment_size), segment_size))
        yield records


def simulate_session(rig: RigSpec, states: Sequence[StateDef], schedule: Sequence[int],
                     responder: ResponderModel, seed: int,
                     probe_depth: float = DEFAULT_PROBE_DEPTH_MM) -> list[TrialRecord]:
    """Run one synthetic session over the scheduled presentations."""
    return next(simulate_sessions(rig, states, [(schedule, seed)], responder, probe_depth))


def confusion_matrix(records: Sequence[TrialRecord]) -> np.ndarray:
    """Row-normalized 9x9 matrix of P(responded j | presented i), as an array."""
    import numpy as np
    return np.array(_confusion_rows(records))


def _confusion_rows(records: Sequence[TrialRecord]) -> list[list[float]]:
    """``confusion_matrix`` as nine rows of floats."""
    counts = [[0.0] * 9 for _ in range(9)]
    for r in records:
        counts[r.presented - 1][r.responded - 1] += 1.0
    row_sums = list(map(sum, counts))  # whole numbers, so exact in any order
    missing = [i + 1 for i in range(9) if row_sums[i] == 0]
    if missing:
        raise StudyDomainError(f"states never presented: {missing}")
    return [[c / n for c in row] for row, n in zip(counts, row_sums)]


def accuracy_stats(records: Sequence[TrialRecord]
                   ) -> tuple[float, dict[int, float], dict[int, BoxStats]]:
    """(overall accuracy, per-state accuracy, per-state latency box stats); a 0/1 mean is
    its count over its length, which is exact."""
    if not records:
        raise StudyDomainError("records must not be empty")
    hits: dict[int, list[bool]] = {}
    for r in records:
        hits.setdefault(r.presented, []).append(r.responded == r.presented)
    per_state = {sid: sum(h) / len(h) for sid, h in sorted(hits.items())}
    return _hit_rate(records), per_state, _latency_boxes(records)


def _hit_rate(records: Sequence[TrialRecord]) -> float:
    """The share of records answered with the state presented: an exact count over a length."""
    return sum(r.responded == r.presented for r in records) / len(records)


def _latency_boxes(records: Sequence[TrialRecord]) -> dict[int, BoxStats]:
    """Each presented state's response-time ``box_stats``, by state id, from its times in
    record order."""
    times: dict[int, list[float]] = {}
    for r in records:
        times.setdefault(r.presented, []).append(r.response_time)
    return {sid: box_stats(ts) for sid, ts in sorted(times.items())}


def segment_analysis(records: Sequence[TrialRecord],
                     segment_size: int = 10) -> list[tuple[float, float]]:
    """Per-segment (accuracy, mean response time) in presentation order; segment_size is
    a positive int, and a mean is ``np.mean``'s, bit for bit."""
    if type(segment_size) is not int or segment_size < 1:
        raise StudyDomainError(f"segment_size must be >= 1 and an int, got {segment_size!r}")
    if not records or len(records) % segment_size != 0:
        raise StudyDomainError(f"record count {len(records)} not divisible by segment "
                               f"size {segment_size}")
    ordered = sorted(records, key=lambda r: r.trial_index)
    blocks = (ordered[i : i + segment_size] for i in range(0, len(ordered), segment_size))
    return [(_hit_rate(block), _mean([r.response_time for r in block])) for block in blocks]


def _add(xs: Iterable[float], total: float = 0.0) -> float:
    """total plus each of xs in order, as numpy adds arrays over an axis that is not the
    last; builtin ``sum`` compensates its float sums from Python 3.12 on."""
    for x in xs:
        total += x
    return total


def _pairwise_sum(xs: Sequence[float]) -> float:
    """numpy's pairwise float64 sum, bit for bit: in order below 8 values; from 8 to 128,
    eight partial sums, joined as a tree, then the rest in order; above 128, the sums of
    two halves split at a multiple of 8."""
    n = len(xs)
    if n > 128:
        h = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:h]) + _pairwise_sum(xs[h:])
    if n < 8:
        return _add(xs, -0.0)
    m = n - n % 8  # partial sum k adds xs[k], xs[k + 8], ... below m
    r = [_add(xs[k + 8 : m : 8], xs[k]) for k in range(8)]
    return _add(xs[m:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _mean(xs: Sequence[float]) -> float:
    """``np.mean`` of a non-empty sequence of floats, bit for bit; numpy's sum starts
    from 0.0."""
    return (0.0 + _pairwise_sum(xs)) / len(xs)


def _var(xs: Sequence[float], ddof: int = 0) -> float:
    """``np.var(xs, ddof=ddof)`` of more than ddof floats, bit for bit: the pairwise sum of
    the squared deviations, none of them -0.0, over len(xs) - ddof."""
    m = _mean(xs)
    return _pairwise_sum([(x - m) * (x - m) for x in xs]) / (len(xs) - ddof)


def _std(xs: Sequence[float]) -> float:
    """``np.std``, bit for bit: the square root of ``_var``."""
    return math.sqrt(_var(xs))


def _quantile(xs: list[float], q: float) -> float:
    """numpy's ``linear`` quantile (Hyndman & Fan type 7) of sorted xs, bit for bit."""
    v = (len(xs) - 1) * q  # the virtual index; the last value from the last index on
    if v >= len(xs) - 1:
        return xs[-1]
    a, b = xs[i := int(v)], xs[i + 1]
    g, d = v - i, b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g  # numpy's two-sided lerp


def box_stats(samples: Sequence[float]) -> BoxStats:
    """Median/quartiles (inclusive linear interpolation) and 1.5 IQR whiskers, on the
    samples as a sorted list of floats."""
    xs = sorted(map(float, samples))
    if not xs:
        raise StatisticsError("box_stats requires at least one sample")
    if not all(map(math.isfinite, xs)):
        raise StatisticsError("samples must be finite")
    q1, med, q3 = (_quantile(xs, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [x for x in xs if lo_fence <= x <= hi_fence]
    return BoxStats(med, q1, q3, whisker_low=inside[0], whisker_high=inside[-1],
                    outliers=tuple(x for x in xs if not lo_fence <= x <= hi_fence))


def t_test_independent(
    a: Sequence[float], b: Sequence[float], equal_variance: bool = True
) -> TTestResult:
    """Two-sample t-test: pooled (Student) or Welch, two-sided p, from the moments of the
    samples as lists of floats (``_mean``, ``_var``)."""
    x, y = list(map(float, a)), list(map(float, b))
    nx, ny = len(x), len(y)
    if nx < 2 or ny < 2:
        raise StatisticsError("each group needs at least 2 samples")
    if not (all(map(math.isfinite, x)) and all(map(math.isfinite, y))):
        raise StatisticsError("samples must be finite")
    vx, vy, mx, my = _var(x, 1), _var(y, 1), _mean(x), _mean(y)
    if vx == 0.0 and vy == 0.0:
        if mx == my:
            raise StatisticsError("degenerate: zero variance and equal means")
        return TTestResult(t=math.copysign(math.inf, mx - my), dof=float(nx + ny - 2), p_two_sided=0.0)
    if equal_variance:
        dof = float(nx + ny - 2)
        pooled = ((nx - 1) * vx + (ny - 1) * vy) / dof
        se = math.sqrt(pooled * (1.0 / nx + 1.0 / ny))
    else:
        sx, sy = vx / nx, vy / ny
        se = math.sqrt(sx + sy)
        dof = (sx + sy) ** 2 / (sx * sx / (nx - 1) + sy * sy / (ny - 1))
    t = (mx - my) / se
    from scipy import special  # scipy loads on the first t-test

    # two-sided p from the regularized incomplete beta form of the t CDF
    p = float(special.betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return TTestResult(t=t, dof=dof, p_two_sided=min(1.0, max(0.0, p)))
