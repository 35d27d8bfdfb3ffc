"""Protocol scheduling, synthetic responders, and the statistics battery."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from afpa_sim import drivers
from afpa_sim.config import default_config_path, load_config
from afpa_sim.drivers import plan_states
from afpa_sim.study import (
    BoxStats,
    ResponderModel,
    StatisticsError,
    StudyDomainError,
    TrialRecord,
    _add,
    _hit_rate,
    _mean,
    _std,
    _var,
    accuracy_stats,
    box_stats,
    confusion_matrix,
    schedule_trials,
    segment_analysis,
    simulate_session,
    t_test_independent,
)


@pytest.fixture(scope="module")
def setup():
    config = load_config(default_config_path())
    return config.rig, plan_states(config)


def perfect() -> ResponderModel:
    return ResponderModel(size_noise=0.0, stiffness_noise=0.0, lapse_rate=0.0)


def make_records(pairs, times=None):
    times = times or [5.0] * len(pairs)
    return [
        TrialRecord(trial_index=i + 1, presented=p, responded=r,
                    response_time=t, segment=math.ceil((i + 1) / 10))
        for i, ((p, r), t) in enumerate(zip(pairs, times))
    ]


# --- scheduling ------------------------------------------------------------

def test_single_rep_is_permutation(setup):
    _, states = setup
    sched = schedule_trials(states, 1, seed=3)
    assert sorted(sched) == list(range(1, 10))


def test_rep_counts_exact(setup):
    _, states = setup
    sched = schedule_trials(states, 10, seed=5)
    assert len(sched) == 90
    for sid in range(1, 10):
        assert sched.count(sid) == 10


def test_schedule_seed_determinism(setup):
    _, states = setup
    assert schedule_trials(states, 10, 11) == schedule_trials(states, 10, 11)
    assert schedule_trials(states, 10, 11) != schedule_trials(states, 10, 12)


def test_schedule_rejects_bad_reps(setup):
    # 2.5 raised a bare TypeError from range, and True scheduled one rep
    _, states = setup
    for reps in (0, 2.5, True):
        with pytest.raises(StudyDomainError, match=f"reps {reps!r} must be a positive integer"):
            schedule_trials(states, reps, seed=1)


# --- sessions --------------------------------------------------------------

def test_perfect_responder_all_correct(setup):
    rig, states = setup
    sched = schedule_trials(states, 3, seed=2)
    records = simulate_session(rig, states, sched, perfect(), seed=2)
    assert all(r.responded == r.presented for r in records)
    assert all(r.response_time > 0 for r in records)


def test_huge_noise_near_chance(setup):
    rig, states = setup
    noisy = ResponderModel(size_noise=10.0, stiffness_noise=10.0, lapse_rate=0.0)
    sched = schedule_trials(states, 40, seed=4)
    records = simulate_session(rig, states, sched, noisy, seed=4)
    acc = np.mean([r.responded == r.presented for r in records])
    assert abs(acc - 1.0 / 9.0) < 0.08


def test_session_deterministic(setup):
    rig, states = setup
    resp = ResponderModel(size_noise=0.06, stiffness_noise=0.15, lapse_rate=0.01)
    sched = schedule_trials(states, 5, seed=6)
    a = simulate_session(rig, states, sched, resp, seed=6)
    b = simulate_session(rig, states, sched, resp, seed=6)
    assert a == b


def test_study_logs_are_each_sessions_one_session_run(tmp_path):
    # run_study computes the per-run terms once; each log is simulate_session's
    # records at its session seed
    config = load_config(default_config_path())
    states = plan_states(config)
    drivers.run_study(config, 5, tmp_path)
    assert len(list(tmp_path.glob("trials_s*.jsonl"))) == config.study.sessions
    for s in range(config.study.sessions):
        schedule = schedule_trials(states, config.study.reps, 5 + s)
        records = simulate_session(config.rig, states, schedule, config.study.responder,
                                   5 + s, config.probe_depth)
        expected = "\n".join(drivers._records_to_lines(records, 5 + s)) + "\n"
        assert (tmp_path / f"trials_s{s:02d}.jsonl").read_text() == expected


def test_session_rejects_unknown_ids(setup):
    rig, states = setup
    with pytest.raises(StudyDomainError):
        simulate_session(rig, states, [1, 2, 42], perfect(), seed=1)


# --- confusion and accuracy ------------------------------------------------

def test_identity_confusion(setup):
    rig, states = setup
    sched = schedule_trials(states, 2, seed=8)
    records = simulate_session(rig, states, sched, perfect(), seed=8)
    cm = confusion_matrix(records)
    assert np.allclose(cm, np.eye(9))


def test_confusion_rows_normalized(setup):
    rig, states = setup
    noisy = ResponderModel(size_noise=0.2, stiffness_noise=0.5, lapse_rate=0.1)
    sched = schedule_trials(states, 10, seed=9)
    records = simulate_session(rig, states, sched, noisy, seed=9)
    cm = confusion_matrix(records)
    assert np.allclose(cm.sum(axis=1), 1.0, atol=1e-9)


def test_uniform_single_state_row():
    pairs = [(1, r) for r in range(1, 10)] + [(p, p) for p in range(2, 10)]
    cm = confusion_matrix(make_records(pairs))
    assert np.allclose(cm[0], 1.0 / 9.0)


def test_confusion_requires_every_state():
    pairs = [(p, p) for p in range(1, 9)]  # state 9 never shown
    with pytest.raises(StudyDomainError, match="9"):
        confusion_matrix(make_records(pairs))


def test_accuracy_all_correct():
    pairs = [(p, p) for p in range(1, 10)]
    overall, per_state, _ = accuracy_stats(make_records(pairs))
    assert overall == 1.0
    assert all(v == 1.0 for v in per_state.values())


def test_accuracy_one_wrong():
    pairs = [(p, p) for p in range(1, 9)] + [(9, 1)]
    overall, _, _ = accuracy_stats(make_records(pairs))
    assert overall == pytest.approx(8.0 / 9.0)


def test_accuracy_stats_per_state_from_each_state_records():
    # presented out of id order, with unequal hit rates and unsorted times per state
    pairs = [(7, 7), (2, 2), (5, 1), (7, 3), (5, 5), (2, 2), (5, 9), (2, 2), (5, 4)]
    times = [6.0, 3.5, 9.0, 2.5, 4.0, 7.5, 3.0, 5.0, 8.0]
    records = make_records(pairs, times)
    overall, per_state, boxes = accuracy_stats(records)
    assert overall == 5 / 9
    assert list(per_state) == list(boxes) == [2, 5, 7]
    assert per_state == {2: 1.0, 5: 0.25, 7: 0.5}
    for sid in (2, 5, 7):
        group = [r for r in records if r.presented == sid]
        assert per_state[sid] == _hit_rate(group)
        assert boxes[sid] == box_stats([r.response_time for r in group])
    assert boxes[5].median == 6.0  # of 3.0, 4.0, 8.0 and 9.0


# --- segments --------------------------------------------------------------

def test_segments_flat_for_uniform_records():
    pairs = [(1 + i % 9, 1 + i % 9) for i in range(90)]
    segs = segment_analysis(make_records(pairs, times=[4.0] * 90))
    assert all(a == 1.0 and t == 4.0 for a, t in segs)
    assert len(segs) == 9


def test_segment_boundaries():
    pairs = [(1, 1)] * 90
    records = make_records(pairs)
    assert records[9].segment == 1  # trial 10
    assert records[10].segment == 2  # trial 11


def test_logged_segment_is_analysis_block(setup):
    rig, states = setup
    config = load_config(default_config_path())
    records = simulate_session(rig, states, schedule_trials(states, 5, seed=4),
                               config.study.responder, seed=4)
    logged = [[r for r in records if r.segment == s] for s in range(1, 10)]
    assert segment_analysis(records, 5) == [segment_analysis(block, 5)[0] for block in logged]


def test_segment_requires_divisible_count():
    pairs = [(1, 1)] * 85
    with pytest.raises(StudyDomainError):
        segment_analysis(make_records(pairs))


def test_drifting_lapse_degrades_segments(setup):
    rig, states = setup
    drift = ResponderModel(size_noise=0.0, stiffness_noise=0.0,
                           lapse_rate=0.0, lapse_drift=0.01)
    sched = schedule_trials(states, 10, seed=12)
    records = simulate_session(rig, states, sched, drift, seed=12)
    segs = segment_analysis(records)
    accs = [a for a, _ in segs]
    # later blocks lapse more: sign test on first vs last third
    assert np.mean(accs[:3]) > np.mean(accs[-3:])


@pytest.mark.parametrize("field, value", [
    *[(f, v) for f in ("size_noise", "stiffness_noise", "time_per_confusability", "time_noise")
      for v in (math.nan, math.inf, -1.0)],
    *[("base_time", v) for v in (math.nan, math.inf, 0.0)],
    *[("lapse_drift", v) for v in (math.nan, math.inf, -math.inf)],
])
def test_responder_rejects_non_finite_fields(field, value):
    # size_noise=nan constructed and answered state 1 on every trial; an
    # infinite lapse_drift or base_time constructed too
    with pytest.raises(ValueError, match="noise|time|lapse_drift"):
        ResponderModel(**{"size_noise": 0.1, "stiffness_noise": 0.1, field: value})
    ResponderModel(size_noise=0.1, stiffness_noise=0.1, lapse_drift=-0.01)  # a falling lapse rate


# --- box stats -------------------------------------------------------------

def test_box_stats_hand_case():
    b = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (b.median, b.q1, b.q3) == (3.0, 2.0, 4.0)
    assert b.whisker_low == 1.0 and b.whisker_high == 5.0
    assert b.outliers == ()


def test_box_stats_constant_samples():
    b = box_stats([2.5] * 8)
    assert b.median == b.q1 == b.q3 == b.whisker_low == b.whisker_high == 2.5
    assert b.outliers == ()


def test_box_stats_flags_outlier():
    samples = list(range(1, 10)) + [100]
    b = box_stats([float(s) for s in samples])
    # inclusive quartiles at positions 0.25/0.75 * (n-1): q1 = 3.25, q3 = 7.75;
    # upper fence = 7.75 + 1.5 * 4.5 = 14.5, so 100 is an outlier
    assert b.q1 == pytest.approx(3.25)
    assert b.q3 == pytest.approx(7.75)
    assert b.outliers == (100.0,)
    assert b.whisker_high == 9.0


def test_box_stats_ordering_invariant():
    rng = np.random.default_rng(0)
    samples = rng.lognormal(1.0, 0.8, 40)
    b = box_stats(samples)
    assert b.whisker_low <= b.q1 <= b.median <= b.q3 <= b.whisker_high
    for o in b.outliers:
        assert o < b.whisker_low or o > b.whisker_high


def numpy_box_stats(samples) -> BoxStats:
    """box_stats by numpy's percentile and masks: the reference for the sorted-list rule."""
    arr = np.asarray(samples, dtype=float)
    q1, med, q3 = (float(v) for v in np.percentile(arr, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = tuple(float(v) for v in sorted(arr[(arr < lo_fence) | (arr > hi_fence)]))
    return BoxStats(med, q1, q3, float(inside.min()), float(inside.max()), outliers)


SAMPLE = st.one_of(st.floats(-1e300, 1e300), st.integers(-10**18, 10**18),
                   st.sampled_from([-1e300, -1.0, 0.0, 2.5, 7, 1e300]))  # ties


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(SAMPLE, min_size=1, max_size=130))
@example(samples=[3.0])  # one sample: every virtual index is n - 1
@example(samples=[0.7, 0.1])  # the median at g = 0.5 takes the lerp's upper form
@example(samples=[1e300, -1e300, 0.0, 5])
def test_box_stats_matches_numpy(samples):
    assert box_stats(samples) == numpy_box_stats(samples)
    # numpy picks between the equal zeros 0.0 and -0.0 by its own sort order, so
    # the bit-for-bit comparison is made with the signs of zeros dropped
    unsigned = [x + 0 for x in samples]
    assert repr(box_stats(unsigned)) == repr(numpy_box_stats(unsigned))


def test_box_stats_empty_rejected():
    with pytest.raises(StatisticsError):
        box_stats([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_stats_rejects_non_finite_samples(bad):
    with pytest.raises(StatisticsError, match="finite"):
        box_stats([1.0, 2.0, bad])


# --- t test ----------------------------------------------------------------

def test_t_test_identical_samples():
    a = [1.0, 2.0, 3.0, 4.0]
    r = t_test_independent(a, a, equal_variance=True)
    assert r.t == 0.0
    assert r.p_two_sided == pytest.approx(1.0)


def test_t_test_hand_case():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.0, 3.0, 4.0, 5.0, 6.0]
    r = t_test_independent(a, b, equal_variance=True)
    assert r.t == pytest.approx(-1.0)
    assert r.dof == 8
    assert r.p_two_sided == pytest.approx(0.3466, abs=2e-4)


def test_t_test_antisymmetry():
    rng = np.random.default_rng(1)
    a = list(rng.normal(5.0, 1.0, 12))
    b = list(rng.normal(6.0, 2.0, 15))
    for ev in (True, False):
        r1 = t_test_independent(a, b, ev)
        r2 = t_test_independent(b, a, ev)
        assert r1.t == pytest.approx(-r2.t)
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided)


def test_t_test_matches_oracle_50_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n1 = int(rng.integers(3, 30))
        n2 = int(rng.integers(3, 30))
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), n1)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), n2)
        ev = bool(rng.integers(0, 2))
        mine = t_test_independent(list(a), list(b), ev)
        oracle = sps.ttest_ind(a, b, equal_var=ev)
        assert mine.t == pytest.approx(oracle.statistic, rel=1e-9)
        assert abs(mine.p_two_sided - oracle.pvalue) <= 1e-6


def numpy_t_and_dof(a, b, equal_variance):
    """(t, dof) from numpy's moments, as ``t_test_independent`` once computed them."""
    x, y = (np.asarray(v, dtype=float) for v in (a, b))
    vx, vy = (float(np.var(v, ddof=1)) for v in (x, y))
    mx, my = (float(np.mean(v)) for v in (x, y))
    if equal_variance:
        dof = float(x.size + y.size - 2)
        pooled = ((x.size - 1) * vx + (y.size - 1) * vy) / dof
        se = math.sqrt(pooled * (1.0 / x.size + 1.0 / y.size))
    else:
        sx, sy = vx / x.size, vy / y.size
        se = math.sqrt(sx + sy)
        dof = (sx + sy) ** 2 / (sx * sx / (x.size - 1) + sy * sy / (y.size - 1))
    return (mx - my) / se, dof


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 300), m=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       equal_variance=st.booleans())
@example(n=7, m=8, seed=1, equal_variance=True)
@example(n=128, m=129, seed=2, equal_variance=False)
def test_t_test_moments_match_numpy(n, m, seed, equal_variance):
    # the float moments give the t and dof of numpy's, bit for bit
    a, b = seeded_floats(n, seed), [x + 0.5 for x in seeded_floats(m, seed + 1)]
    r = t_test_independent(a, b, equal_variance)
    assert repr((r.t, r.dof)) == repr(numpy_t_and_dof(a, b, equal_variance))


def test_t_test_welch_equals_pooled_for_balanced_equal_variance():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [3.0, 4.0, 5.0, 6.0]
    pooled = t_test_independent(a, b, True)
    welch = t_test_independent(a, b, False)
    assert welch.dof == pytest.approx(pooled.dof)
    assert welch.t == pytest.approx(pooled.t)


@pytest.mark.parametrize("equal_variance", [True, False])
def test_t_test_zero_variance_unequal_means(equal_variance):
    # no spread in either group, so any difference of the means is infinitely significant
    for a, b, sign in (([1, 1], [2, 2], -1.0), ([2.0, 2.0, 2.0], [1.0, 1.0], 1.0)):
        r = t_test_independent(a, b, equal_variance)
        assert r.t == sign * math.inf
        assert r.p_two_sided == 0.0
        assert r.dof == len(a) + len(b) - 2


def test_t_test_degenerate_rejected():
    with pytest.raises(StatisticsError):
        t_test_independent([1.0, 1.0], [1.0, 1.0], True)
    with pytest.raises(StatisticsError):
        t_test_independent([1.0], [1.0, 2.0], True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("first", [True, False])
def test_t_test_rejects_non_finite_samples(bad, first):
    # a NaN once gave t = nan and p = 0.0, since max(0.0, nan) is 0
    a, b = [1.0, 2.0, bad], [3.0, 4.0, 5.0]
    with pytest.raises(StatisticsError, match="finite"):
        t_test_independent(*((a, b) if first else (b, a)), True)


def test_record_validation():
    with pytest.raises(ValueError):
        TrialRecord(trial_index=1, presented=1, responded=1,
                    response_time=-1.0, segment=1)
    with pytest.raises(ValueError):
        TrialRecord(trial_index=11, presented=1, responded=1,
                    response_time=5.0, segment=1)


@pytest.mark.parametrize("field, value", [
    *[("presented", v) for v in (0, 10, 12, -1, "3", 3.0, True, None)],
    *[("responded", v) for v in (0, 10, "9", 2.0, False)],
    *[("trial_index", v) for v in (0, -1, "1", 1.0, True)],
    *[("response_time", v) for v in (math.nan, math.inf, 0.0)],
    *[("segment_size", v) for v in (0, -1, 2.5, True)],
])
def test_record_rejects_out_of_model_values(field, value):
    # a state id outside 1..9 indexed the confusion counts from the end (0 is
    # counts[-1]) or past it; json reads NaN as a number.  A segment size of 0
    # divided by zero, and -1, 2.5 and True passed with the segment they give
    fields = dict(trial_index=1, presented=1, responded=1, response_time=5.0, segment=1)
    edited = {**fields, field: value}
    if field == "segment_size" and value:
        edited["segment"] = math.ceil(1 / value)
    with pytest.raises(StudyDomainError):
        TrialRecord(**edited)
    TrialRecord(**fields)


# --- state, schedule and record checks -------------------------------------

def test_states_need_ids_one_to_nine(setup):
    _, states = setup
    with pytest.raises(StudyDomainError, match=r"ids 1\.\.9"):
        schedule_trials(states[:8], 1, seed=1)


def test_states_need_a_complete_class_grid(setup):
    _, states = setup
    first = states[0]
    twins = [replace(s, size_class=first.size_class, stiffness_class=first.stiffness_class)
             if s.id == 2 else s for s in states]
    with pytest.raises(StudyDomainError, match="class grid must be complete"):
        schedule_trials(twins, 1, seed=1)


def test_session_rejects_a_state_without_stiffness(setup):
    # a probe deeper than every state's height reads a stiffness of 0
    rig, states = setup
    with pytest.raises(StudyDomainError, match="positive height and stiffness"):
        simulate_session(rig, states, [1], perfect(), seed=1, probe_depth=1000.0)


def test_session_rejects_a_degenerate_state_grid(setup):
    # nine class labels on one pressure pair: every state renders the same
    rig, states = setup
    same = [replace(s, p1=states[0].p1, p2=states[0].p2) for s in states]
    with pytest.raises(StudyDomainError, match="degenerate"):
        simulate_session(rig, same, [1], perfect(), seed=1)


def test_session_rejects_an_empty_schedule(setup):
    rig, states = setup
    with pytest.raises(StudyDomainError, match="schedule must not be empty"):
        simulate_session(rig, states, [], perfect(), seed=1)


def test_accuracy_rejects_no_records():
    with pytest.raises(StudyDomainError, match="records must not be empty"):
        accuracy_stats([])


def test_segment_size_must_be_positive():
    # 2.5 and 10.0 once raised a bare TypeError from range, and True gave ten
    # one-trial segments
    records = make_records([(1, 1)] * 10)
    for size in (0, 2.5, 10.0, True):
        with pytest.raises(StudyDomainError, match="segment_size must be >= 1") as err:
            segment_analysis(records, segment_size=size)
        assert repr(size) in str(err.value)


# --- float statistics, against numpy ---------------------------------------

def seeded_floats(n: int, seed: int) -> list[float]:
    """n floats of both signs over six decades, so that the order of the additions shows."""
    rnd = random.Random(seed)
    return [rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-3, 3) for _ in range(n)]


# hypothesis's own floats (signed zeros, subnormals, the ends of the range) lead
# each sample, and seeded floats fill it to its size
SIZES = dict(n=st.integers(1, 900), seed=st.integers(0, 2**32 - 1))


def head_of(n: int, seed: int, head: list[float]) -> list[float]:
    return (head + seeded_floats(n, seed))[:n]


@settings(max_examples=300, deadline=None)
@given(head=st.lists(st.floats(-1e300, 1e300), max_size=8), **SIZES)
@example(n=7, seed=1, head=[])
@example(n=8, seed=2, head=[1.0] + [1e-16] * 7)  # in order, each 1e-16 rounds away
@example(n=128, seed=3, head=[])
@example(n=129, seed=4, head=[])
@example(n=900, seed=5, head=[1e300, -1e300, -0.0, 5e-324])
def test_float_mean_matches_numpy(n, seed, head):
    # pairwise: in order below 8 values, eight partial sums to 128, halves above
    xs = head_of(n, seed, head)
    assert repr(_mean(xs)) == repr(float(np.mean(xs)))


@settings(max_examples=200, deadline=None)
@given(head=st.lists(st.floats(-1e150, 1e150), max_size=8), **SIZES)
@example(n=1, seed=0, head=[-0.0])
@example(n=900, seed=6, head=[1e150, -1e150, 5e-324])
def test_float_std_matches_numpy(n, seed, head):
    xs = head_of(n, seed, head)
    assert repr(_std(xs)) == repr(float(np.std(xs)))


@settings(max_examples=200, deadline=None)
@given(head=st.lists(st.floats(-1e150, 1e150), max_size=8), ddof=st.sampled_from([0, 1]),
       n=st.integers(2, 900), seed=st.integers(0, 2**32 - 1))
@example(n=2, seed=0, head=[-0.0, 0.0], ddof=1)
@example(n=7, seed=1, head=[], ddof=1)  # in order
@example(n=8, seed=2, head=[], ddof=0)  # eight partial sums
@example(n=128, seed=3, head=[], ddof=1)
@example(n=129, seed=4, head=[], ddof=0)  # two halves
@example(n=900, seed=6, head=[1e150, -1e150, 5e-324], ddof=1)
def test_float_var_matches_numpy(head, ddof, n, seed):
    xs = head_of(n, seed, head)
    assert repr(_var(xs, ddof)) == repr(float(np.var(xs, ddof=ddof)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), head=st.lists(st.floats(-1e300, 1e300), max_size=8))
def test_float_mean_of_matrices_matches_numpy(seed, head):
    # np.mean over axis 0 adds the ten 9x9 matrices in order, as study-analyze's fig5c
    flat = head_of(810, seed, head)
    mats = [[flat[81 * k + 9 * i : 81 * k + 9 * i + 9] for i in range(9)] for k in range(10)]
    mean = [[_add(m[i][j] for m in mats) / len(mats) for j in range(9)] for i in range(9)]
    assert repr(mean) == repr(np.mean(mats, axis=0).tolist())


def numpy_segments(records, segment_size):
    """segment_analysis by numpy's mean, as the statistics battery once computed it."""
    ordered = sorted(records, key=lambda r: r.trial_index)
    blocks = [ordered[i : i + segment_size] for i in range(0, len(ordered), segment_size)]
    return [(sum(r.responded == r.presented for r in block) / segment_size,
             float(np.mean([r.response_time for r in block]))) for block in blocks]


@settings(max_examples=100, deadline=None)
@given(segment_size=st.integers(1, 150), seed=st.integers(0, 2**32 - 1),
       head=st.lists(st.floats(5e-324, 1e300), max_size=8))
@example(segment_size=129, seed=0, head=[5e-324, 1e300])
def test_segment_analysis_matches_numpy(segment_size, seed, head):
    rnd = random.Random(seed)
    n = 9 * segment_size
    times = (head + [rnd.uniform(2.0, 12.0) for _ in range(n)])[:n]
    records = [TrialRecord(k, rnd.randint(1, 9), rnd.randint(1, 9), t,
                           math.ceil(k / segment_size), segment_size)
               for k, t in enumerate(times, 1)]
    rnd.shuffle(records)
    assert repr(segment_analysis(records, segment_size)) == repr(numpy_segments(records,
                                                                                segment_size))


ID_VALUES = st.integers(-2, 12) | st.sampled_from([True, False, 1.0, 9.0, None, "1"])


def each_id_at(values):
    """An ``@example`` per id field and value, the other two ids 1."""
    def decorate(test):
        for field in ("trial_index", "presented", "responded"):
            for value in values:
                ids = dict(trial_index=1, presented=1, responded=1)
                test = example(**{**ids, field: value})(test)
        return test
    return decorate


@each_id_at([True, 1.0, 0, -1, 10])
@settings(max_examples=300, deadline=None)
@given(trial_index=ID_VALUES, presented=ID_VALUES, responded=ID_VALUES)
def test_record_ids_rejected_as_before(trial_index, presented, responded):
    # the rejected ids and the message are those of the all(...) and max(...) check
    # that the straight-line test replaced
    ids = trial_index, presented, responded
    rejected = not all(type(i) is int and i > 0 for i in ids) or max(ids[1:]) > 9
    segment = math.ceil(trial_index / 10) if type(trial_index) is int and trial_index > 0 else 1
    fields = dict(trial_index=trial_index, presented=presented, responded=responded,
                  response_time=5.0, segment=segment)
    if not rejected:
        TrialRecord(**fields)
        return
    with pytest.raises(StudyDomainError) as err:
        TrialRecord(**fields)
    assert str(err.value) == (f"trial_index {trial_index!r} must be a positive integer, "
                              f"presented {presented!r} and responded {responded!r} "
                              f"state ids 1..9")
