"""Coupled-rig equilibrium against a brute-force grid-scan oracle."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from scipy.optimize import brentq

from afpa_sim import rig as rig_mod
from afpa_sim.config import default_config_path, load_config
from afpa_sim.pouch import PouchStackSpec, contact_force, free_height
from afpa_sim.rig import (
    ROOT_XTOL_MM,
    RigDomainError,
    RigSpec,
    _probe,
    _rising_root,
    _side_force,
    belt_balance,
    equilibrium_slopes,
    force_displacement_curve,
    probe_force,
    size_pressure_sweep,
    solve_equilibrium,
    stiffness,
    stiffness_slopes,
)


def make_rig(w1=40.0, l1=300.0, w2=55.0, l2=120.0, c=90.0, end_caps=True, **kw) -> RigSpec:
    return RigSpec(
        modulating=PouchStackSpec(flat_width=w1, flat_length=l1, end_cap_correction=end_caps),
        morphing=PouchStackSpec(flat_width=w2, flat_length=l2, end_cap_correction=end_caps),
        belt_span=c,
        **kw,
    )


def oracle_h2(rig: RigSpec, p1: float, p2: float, grid_mm: float = 0.01) -> float:
    """Minimize |force imbalance| over a fine h2 grid with h1 = C - h2."""
    x1 = free_height(rig.modulating)
    x2 = free_height(rig.morphing)
    c = rig.belt_span
    if x1 + x2 <= c:
        return x2

    def side(spec, p, h):
        if h >= free_height(spec):
            return 0.0
        return contact_force(spec, p, max(h, 1e-9))

    lo = max(grid_mm, c - x1)
    hi = min(x2, c)
    hs = np.arange(lo, hi + grid_mm / 2, grid_mm)
    g = np.array([side(rig.modulating, p1, max(c - h, 1e-9)) - side(rig.morphing, p2, h)
                  for h in hs])
    if g[-1] <= 0.0:  # morphing side wins everywhere: ride the belt
        return float(hs[-1])
    if g[0] >= 0.0:  # modulating side wins everywhere: squashed to the floor
        return float(hs[0])
    return float(hs[np.argmin(np.abs(g))])


@settings(max_examples=30, deadline=None)
@given(
    p1=st.floats(0.0, 150.0),
    p2=st.floats(0.5, 150.0),
    w1=st.floats(20.0, 60.0),
    c=st.floats(60.0, 110.0),
)
def test_solver_matches_grid_oracle(p1, p2, w1, c):
    rig = make_rig(w1=w1, c=c)
    got = solve_equilibrium(rig, p1, p2).h2
    assert got == pytest.approx(oracle_h2(rig, p1, p2), abs=0.05)


def test_slack_when_belt_longer_than_free_heights():
    rig = make_rig(c=300.0)
    eq = solve_equilibrium(rig, 50.0, 50.0)
    assert not eq.taut
    assert eq.belt_tension == 0.0
    assert eq.h2 == pytest.approx(free_height(rig.morphing))


def test_equilibrium_monotone_in_pressures():
    rig = make_rig()
    h_mid = solve_equilibrium(rig, 50.0, 50.0).h2
    assert solve_equilibrium(rig, 80.0, 50.0).h2 <= h_mid  # more p1 squashes
    assert solve_equilibrium(rig, 50.0, 80.0).h2 >= h_mid  # more p2 inflates


def test_equilibrium_depends_on_pressure_ratio_only():
    # both side forces are proportional to pressure, so scaling (p1, p2)
    # together leaves the equilibrium unchanged
    rig = make_rig()
    a = solve_equilibrium(rig, 30.0, 20.0).h2
    b = solve_equilibrium(rig, 90.0, 60.0).h2
    assert a == pytest.approx(b, abs=1e-6)


def test_invalid_pressures_rejected():
    rig = make_rig()
    for p1, p2 in [(-1.0, 10.0), (10.0, -1.0), (200.0, 10.0), (float("nan"), 1.0)]:
        with pytest.raises(RigDomainError):
            solve_equilibrium(rig, p1, p2)


@settings(max_examples=60, deadline=None)
@given(
    p1=st.floats(0.0, 150.0),
    p2=st.floats(0.0, 150.0),
    compliance=st.floats(0.0, 0.5),
)
def test_probe_force_balances_at_equilibrium(p1, p2, compliance):
    rig = make_rig(belt_compliance=compliance)
    eq = solve_equilibrium(rig, p1, p2)
    # riding the belt span, the morphing side rests on the flattened
    # modulating stack, and a probe at that height takes the stack's share
    assume(eq.h2 < rig.belt_span)
    force, tension, h1 = probe_force(rig, p1, p2, eq.h2)
    assert force == pytest.approx(0.0, abs=1e-6)
    assert tension == pytest.approx(eq.belt_tension, abs=1e-6)
    assert h1 == pytest.approx(eq.h1, abs=1e-6)


def test_probe_force_increases_with_depth():
    rig = make_rig()
    eq = solve_equilibrium(rig, 40.0, 60.0)
    forces = [probe_force(rig, 40.0, 60.0, eq.h2 - d)[0] for d in (1.0, 3.0, 6.0, 10.0)]
    assert all(b >= a for a, b in zip(forces, forces[1:]))


def test_probe_above_equilibrium_rejected():
    rig = make_rig()
    eq = solve_equilibrium(rig, 40.0, 60.0)
    for h2_forced in (eq.h2 + 1.0, float("nan")):
        with pytest.raises(RigDomainError, match="h2_forced"):
            probe_force(rig, 40.0, 60.0, h2_forced)


def test_force_displacement_curve_rejects_bad_steps_and_depths():
    cfg = load_config(default_config_path())
    nan, inf = float("nan"), float("inf")
    for max_depth, step, field in ((5.0, nan, "step"), (5.0, inf, "step"), (5.0, 0.0, "step"),
                                   (nan, 0.5, "max_depth"), (-1.0, 0.5, "max_depth"),
                                   (inf, 0.5, "max_depth"),
                                   (5.0, 5.0 / (rig_mod.PROBE_SAMPLES_MAX + 1), "max_depth")):
        with pytest.raises(RigDomainError, match=field):
            force_displacement_curve(cfg.rig, 20.0, 30.0, max_depth, step)


@settings(max_examples=100, deadline=None)
@given(
    w1=st.floats(20.0, 60.0),
    w2=st.floats(40.0, 70.0),
    c=st.floats(60.0, 110.0),
    compliance=st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    p1=st.floats(0.0, 150.0),
    p2=st.floats(0.5, 150.0),
    frac=st.floats(0.0, 1.0),
)
def test_stiffness_matches_probe_force_slope(w1, w2, c, compliance, end_caps, p1, p2, frac):
    rig = make_rig(w1=w1, w2=w2, c=c, end_caps=end_caps, belt_compliance=compliance)
    eq = solve_equilibrium(rig, p1, p2)
    # depths at least 0.5 mm from the contact edge and from the height at
    # which the modulating side goes slack; both are kinks of the force curve
    h = 0.5 + frac * (eq.h2 - 1.0)
    assume(eq.h2 > 1.0 and abs(h - (c - free_height(rig.modulating))) >= 0.5)
    e = 1e-3
    f_lo, _, _ = probe_force(rig, p1, p2, h - e)
    f_hi, _, _ = probe_force(rig, p1, p2, h + e)
    assert stiffness(rig, p1, p2, h) == pytest.approx((f_lo - f_hi) / (2 * e), rel=1e-4)


@settings(max_examples=150, deadline=None)
@given(
    w=st.floats(10.0, 80.0),
    length=st.floats(20.0, 400.0),
    n=st.integers(1, 5),
    end_caps=st.booleans(),
    p=st.floats(0.0, 150.0),
    frac=st.floats(0.0, 1.0),
)
def test_side_force_slope_matches_central_difference(w, length, n, end_caps, p, frac):
    spec = PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                          end_cap_correction=end_caps)
    h = 0.5 + frac * (free_height(spec) - 1.0)  # 0.5 mm from both ends of the range
    e = 1e-3
    slope = (_side_force(spec, p, h + e)[0] - _side_force(spec, p, h - e)[0]) / (2 * e)
    assert _side_force(spec, p, h)[1] == pytest.approx(slope, rel=1e-4, abs=1e-12)


def brentq_balance(rig: RigSpec, p1: float, p2: float, h2_stop: float, offset: float):
    """(h1, h2) of the belt balance by scipy's derivative-free brentq."""
    def f1(h):
        return _side_force(rig.modulating, p1, h)[0]

    def f2(h):
        return _side_force(rig.morphing, p2, h)[0]

    x1 = free_height(rig.modulating)
    x2 = min(free_height(rig.morphing), h2_stop)
    span, c = rig.belt_span, rig.belt_compliance
    if x1 + x2 < span:
        return x1, x2

    def residual(h2):
        return f1(span + c * f2(h2) - h2) - f2(h2) - offset

    lo, hi = max(1e-9, span - x1), min(x2, span)
    if residual(hi) <= 0.0 or residual(lo) >= 0.0:
        h2 = hi if residual(hi) <= 0.0 else lo
        h1 = span - h2
        t = f1(h1)
        if c > 0.0 and t > 0.0 and f1(h1 + c * t) - t < 0.0:
            t = brentq(lambda t: f1(h1 + c * t) - t, 0.0, t, xtol=1e-12)
        return min(x1, h1 + c * t), h2
    h2 = brentq(residual, lo, hi, xtol=1e-12)
    return min(x1, span + c * f2(h2) - h2), h2  # side 1 out of contact stands at x1


@settings(max_examples=200, deadline=None)
@given(
    w1=st.floats(20.0, 60.0),
    w2=st.floats(40.0, 70.0),
    c=st.floats(60.0, 110.0),
    compliance=st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    p1=st.floats(0.0, 150.0),
    p2=st.floats(0.0, 150.0),
    offset=st.floats(-5.0, 5.0),
    stop=st.floats(1.0, 120.0),
    guess=st.none() | st.floats(0.0, 120.0),
    near=st.none() | st.floats(-1e-6, 1e-6),
)
@example(w1=40.0, w2=55.0, c=90.0, compliance=0.0, end_caps=True, p1=0.0, p2=0.0, offset=0.0,
         stop=120.0, guess=30.0, near=None)  # no force anywhere: the warm start rides the belt too
@example(w1=20.0, w2=40.0, c=60.0, compliance=0.0, end_caps=False, p1=5e-324, p2=5e-324,
         offset=0.0, stop=49.0, guess=None, near=None)  # subnormal forces: 0 over wide spans
# p1 = 0: the offset alone carries an interior root's 2 N tension, the belt closing 0.95 mm
# past side 1's free height, where h1 stands
@example(w1=21.0, w2=42.0, c=101.0, compliance=0.5, end_caps=True, p1=0.0, p2=109.0,
         offset=-2.0, stop=61.0, guess=None, near=None)
def test_belt_balance_matches_brentq(w1, w2, c, compliance, end_caps, p1, p2, offset, stop,
                                     guess, near):
    rig = make_rig(w1=w1, w2=w2, c=c, end_caps=end_caps, belt_compliance=compliance)
    want_h1, want_h2 = brentq_balance(rig, p1, p2, stop, offset)
    if near is not None:  # a guess next to the root: its Newton point closes the bracket
        guess = want_h2 + near
    b = belt_balance(
        _side_force, rig.modulating, p1, rig.morphing, p2,
        free_height(rig.modulating), min(free_height(rig.morphing), stop), c, compliance,
        offset, guess=guess,
    )
    assert b.h1 == pytest.approx(want_h1, abs=1e-6)
    assert b.h2 == pytest.approx(want_h2, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    w1=st.floats(20.0, 60.0),
    w2=st.floats(40.0, 70.0),
    c=st.floats(60.0, 110.0),
    compliance=st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    p1=st.floats(1.0, 149.0),
    p2=st.floats(1.0, 149.0),
)
def test_equilibrium_slopes_match_central_difference(w1, w2, c, compliance, end_caps, p1, p2):
    rig = make_rig(w1=w1, w2=w2, c=c, end_caps=end_caps, belt_compliance=compliance)
    lo = max(1e-9, c - free_height(rig.modulating))
    hi = min(free_height(rig.morphing), c)
    e = 1e-3
    h2 = [solve_equilibrium(rig, q1, q2).h2
          for q1, q2 in ((p1 + e, p2), (p1 - e, p2), (p1, p2 + e), (p1, p2 - e))]
    assume(all(lo < h < hi for h in h2))  # the branches are kinks of h2(p1, p2)
    slopes = equilibrium_slopes(rig, p1, p2, solve_equilibrium(rig, p1, p2))
    assert slopes[0] == pytest.approx((h2[0] - h2[1]) / (2 * e), rel=1e-5, abs=1e-9)
    assert slopes[1] == pytest.approx((h2[2] - h2[3]) / (2 * e), rel=1e-5, abs=1e-9)


@settings(max_examples=400, deadline=None)
@given(
    w1=st.floats(20.0, 60.0),
    w2=st.floats(40.0, 70.0),
    c=st.floats(60.0, 110.0),
    compliance=st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    p1=st.floats(1.0, 149.0),
    p2=st.floats(1.0, 149.0),
    depth=st.floats(0.5, 15.0),
)
def test_stiffness_slopes_match_central_difference(w1, w2, c, compliance, end_caps, p1, p2,
                                                   depth):
    # the planner's Jacobian row for the stiffness at a fixed depth below h2
    rig = make_rig(w1=w1, w2=w2, c=c, end_caps=end_caps, belt_compliance=compliance)
    x1 = free_height(rig.modulating)
    lo, hi = max(1e-9, c - x1), min(free_height(rig.morphing), c)
    e = 1e-3
    stencil = ((p1 + e, p2), (p1 - e, p2), (p1, p2 + e), (p1, p2 - e))
    eqs = [solve_equilibrium(rig, q1, q2) for q1, q2 in stencil]
    # the equilibrium branches and the probe balance going slack are kinks of k
    assume(all(lo < eq.h2 < hi and eq.h2 > depth for eq in eqs))
    assume(len({x1 + eq.h2 - depth < c for eq in eqs}) == 1)
    k = [_probe(rig, q1, q2, eq, eq.h2 - depth).k for (q1, q2), eq in zip(stencil, eqs)]
    eq = solve_equilibrium(rig, p1, p2)
    y = _probe(rig, p1, p2, eq, eq.h2 - depth).h1
    slopes = stiffness_slopes(rig, p1, p2, eq, depth, equilibrium_slopes(rig, p1, p2, eq), y)
    assert slopes[0] == pytest.approx((k[0] - k[1]) / (2 * e), rel=1e-5, abs=1e-9)
    assert slopes[1] == pytest.approx((k[2] - k[3]) / (2 * e), rel=1e-5, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    w1=st.floats(20.0, 60.0),
    w2=st.floats(40.0, 70.0),
    c=st.floats(60.0, 110.0),
    compliance=st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    p1=st.floats(0.0, 150.0),
    p2=st.floats(0.0, 150.0),
    offset=st.sampled_from([0.0]) | st.floats(-5.0, 5.0),
    stop=st.floats(1.0, 120.0),
    guess=st.none() | st.floats(0.0, 120.0),
)
@example(w1=40.0, w2=55.0, c=200.0, compliance=0.0, end_caps=True, p1=10.0, p2=10.0,
         offset=0.0, stop=120.0, guess=None)  # a belt longer than both stacks: slack
def test_balance_branch_labels_hold(w1, w2, c, compliance, end_caps, p1, p2, offset, stop,
                                    guess):
    # each label names the condition it stands for, and each side's last
    # evaluation is what the side function returns at its height
    rig = make_rig(w1=w1, w2=w2, c=c, end_caps=end_caps, belt_compliance=compliance)
    x1, x2 = free_height(rig.modulating), min(free_height(rig.morphing), stop)
    b = belt_balance(_side_force, rig.modulating, p1, rig.morphing, p2, x1, x2, c, compliance,
                     offset, guess=guess)
    lo, hi = max(1e-9, c - x1), min(x2, c)
    event(b.branch)
    assert b.branch in ("slack", "interior", "pinned", "squashed")
    if b.branch == "slack":
        assert x1 + x2 < c and b.belt_tension == 0.0
        assert b.side1 is None and b.side2 is None
    else:
        assert b.branch != "interior" or lo < b.h2 < hi
        assert b.branch != "pinned" or b.h2 == hi
        assert b.branch != "squashed" or b.h2 == lo
        assert b.side1[1] == _side_force(rig.modulating, p1, b.side1[0])
        assert b.side2[1] == _side_force(rig.morphing, p2, b.side2[0])
    eq = solve_equilibrium(rig, p1, p2)
    assert (equilibrium_slopes(rig, p1, p2, eq) == (0.0, 0.0)) == (eq.branch != "interior")


def test_belt_stretch_root_from_an_exact_tie():
    # a linear side 1, force k*(x1 - h), pinned against a stop: with c*k >= 1 it
    # leaves contact within the full stretch c*T, so the stretch root t - f1(h1 + c*t)
    # reads -T at t = 0 and exactly T at t = T, a tie of the ends' sizes.  Newton
    # from t = 0 on the slope 1 + c*k lands on the root in one step.  Side 2
    # is a constant force of 5 N, the law's other stack
    k, c, x1, span, stop = 1.0, 2.0, 8.0, 10.0, 4.0
    seen = []

    def side(spec, q, h):
        if spec == "constant":
            return q, 0.0
        seen.append(h)
        return (q * (x1 - h), -q) if h < x1 else (0.0, 0.0)

    b = belt_balance(side, "linear", k, "constant", 5.0, x1, stop, span, c)
    h1 = span - stop
    assert (b.branch, b.h2) == ("pinned", stop)
    assert b.belt_tension == pytest.approx(k * (x1 - h1) / (1.0 + c * k), rel=1e-15)
    assert b.h1 == h1 + c * b.belt_tension
    # the residual at the stop, f1 at h1, then the stretch at t = T and at the root
    assert seen[1:3] == [h1, h1 + c * k * (x1 - h1)] and len(seen) == 4


def test_solve_equilibrium_returns_the_balance_record(monkeypatch):
    # the balance's own record, side evaluations included, with no copy
    rig, built = make_rig(), []
    balance = rig_mod._balance

    def recorded(*args, **kwargs):
        built.append(balance(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(rig_mod, "_balance", recorded)
    eq = solve_equilibrium(rig, 50.0, 50.0)
    assert eq is built[0] and type(eq) is rig_mod.EquilibriumState
    assert eq == belt_balance(_side_force, rig.modulating, 50.0, rig.morphing, 50.0,
                              rig.modulating.free_height, rig.morphing.free_height, 90.0, 0.0)
    assert eq.side1[1] == _side_force(rig.modulating, 50.0, eq.side1[0])
    assert eq.side2[1] == _side_force(rig.morphing, 50.0, eq.side2[0])


@pytest.mark.parametrize("c, p1, p2, branch", [(300.0, 50.0, 50.0, "slack"),
                                               (90.0, 50.0, 50.0, "interior"),
                                               (90.0, 0.0, 30.0, "pinned"),
                                               (90.0, 50.0, 0.0, "squashed")])
def test_taut_on_each_branch(c, p1, p2, branch):
    eq = solve_equilibrium(make_rig(c=c), p1, p2)
    assert eq.branch == branch
    assert eq.taut is (branch != "slack")


def test_an_int_belt_span_gives_float_heights():
    # the pinned branch kept an int span through its bracket end: h1 = 0, h2 = 103
    rig = dataclasses.replace(load_config(default_config_path()).rig, belt_span=103)
    assert type(rig.belt_span) is float
    eq = solve_equilibrium(rig, 0.0, 30.0)
    assert eq.branch == "pinned" and (eq.h1, eq.h2) == (0.0, 103.0)
    assert all(type(v) is float for v in (eq.h1, eq.h2, eq.belt_tension))
    assert all(type(h) is float for _, h in size_pressure_sweep(rig, 30.0, [0.0, 10.0]))


def test_four_field_equilibrium_state_has_no_side_records():
    eq = rig_mod.EquilibriumState(40.0, 50.0, 1.0, "interior")
    assert eq.side1 is eq.side2 is None
    assert eq.taut and eq == (40.0, 50.0, 1.0, "interior", None, None)


def test_stiffness_range_is_open_at_the_equilibrium_height():
    rig = make_rig()
    eq = solve_equilibrium(rig, 20.0, 30.0)
    for h2 in (eq.h2, 0.0, -1.0, math.nan):
        with pytest.raises(RigDomainError, match="probe contact range"):
            stiffness(rig, 20.0, 30.0, h2)
    h2 = math.nextafter(eq.h2, 0.0)
    assert stiffness(rig, 20.0, 30.0, h2) == _probe(rig, 20.0, 30.0, eq, h2).k


def test_equilibrium_slopes_vanish_at_the_belt_span():
    rig = make_rig()
    eq = solve_equilibrium(rig, 0.0, 30.0)  # no p1: the morphing side rides the belt
    assert eq.h2 == rig.belt_span
    assert equilibrium_slopes(rig, 0.0, 30.0, eq) == (0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(
    w1=st.floats(20.0, 60.0),
    w2=st.floats(40.0, 70.0),
    c=st.floats(60.0, 110.0),
    compliance=st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    p1=st.floats(0.0, 150.0),
    p2=st.floats(0.5, 150.0),
    frac=st.floats(0.0, 1.0),
)
def test_probe_matches_fresh_side_forces(w1, w2, c, compliance, end_caps, p1, p2, frac):
    # the slopes read back from the probe balance are those of its
    # evaluations at exactly the same heights, so the result is bit for bit
    rig = make_rig(w1=w1, w2=w2, c=c, end_caps=end_caps, belt_compliance=compliance)
    eq = solve_equilibrium(rig, p1, p2)
    h = frac * eq.h2
    assume(0.0 < h < eq.h2)
    b = belt_balance(_side_force, rig.modulating, p1, rig.morphing, p2,
                     rig.modulating.free_height, min(rig.morphing.free_height, h),
                     rig.belt_span, compliance)
    d = -_side_force(rig.modulating, p1, b.h1)[1]
    fresh_k = -_side_force(rig.morphing, p2, h)[1] + d / (1.0 + compliance * d)
    fresh_force = max(0.0, _side_force(rig.morphing, p2, h)[0] - b.belt_tension)
    # one probe record holds all four, h1 the one stiffness_slopes takes
    assert _probe(rig, p1, p2, eq, h) == (fresh_force, b.belt_tension, b.h1, fresh_k)
    assert stiffness(rig, p1, p2, h) == fresh_k
    assert probe_force(rig, p1, p2, h) == (fresh_force, b.belt_tension, b.h1)


# each pair of operands of a bound written out as a conditional: NaN either side, equal,
# and signed zeros, where the builtin's pick shows in the repr
BOUND_OPERANDS = [(math.nan, 1.0), (1.0, math.nan), (1.0, 1.0), (0.0, -0.0), (-0.0, 0.0),
                  (1.0, 2.0), (2.0, 1.0)]


@pytest.mark.parametrize("height", [math.nan, 1e-9, 0.0, -0.0, 5e-10, 1.0])
def test_side_force_floor_picks_as_max(monkeypatch, height):
    # the pouch sees max(height, 1e-9): a NaN height stays NaN, for the pouch to reject
    seen = []
    monkeypatch.setattr(rig_mod, "_volume_terms", lambda spec, h: seen.append(h) or (0.0, 1.0, 1.0))
    _side_force(make_rig().morphing, 1.0, height)
    assert repr(seen) == repr([max(height, 1e-9)])


def stub_probe(monkeypatch, free: float, h2: float, force: float, tension: float):
    """``_probe`` at h2 on a rig whose morphing free height is ``free``, over a balance stub
    that records the stop it is given and returns ``tension``, with side 2's ``force``
    recorded at h2; and the stops."""
    stops = []

    def balance(side, spec1, q1, spec2, q2, x1, x2, *args):
        stops.append(x2)
        return rig_mod.EquilibriumState(40.0, h2, tension, "interior", (40.0, (1.0, -0.1)),
                               (h2, (force, -0.2)))

    monkeypatch.setattr(rig_mod, "belt_balance", balance)
    rig = SimpleNamespace(modulating=make_rig().modulating,
                          morphing=SimpleNamespace(free_height=free), belt_span=90.0,
                          belt_compliance=0.0)
    eq = rig_mod.EquilibriumState(40.0, 50.0, 1.0, "interior")
    return _probe(rig, 10.0, 10.0, eq, h2), stops


@pytest.mark.parametrize("free, h2", [(x, h) for x, h in BOUND_OPERANDS
                                      if 0.0 < h and not math.isnan(h)])
def test_probe_stop_picks_as_min(monkeypatch, free, h2):
    # the probe balance's stop is min(x2, h2), x2 first
    _, stops = stub_probe(monkeypatch, free, h2, 2.0, 1.0)
    assert repr(stops) == repr([min(free, h2)])


@pytest.mark.parametrize("force, tension", BOUND_OPERANDS + [(math.inf, math.inf)])
def test_probe_force_picks_as_max(monkeypatch, force, tension):
    # the probe force is max(0.0, f2(h2) - T): 0.0 for a NaN or negative zero difference
    probe, _ = stub_probe(monkeypatch, 60.0, 1.0, force, tension)
    assert repr(probe.force) == repr(max(0.0, force - tension))
    assert type(probe) is rig_mod.Probe


def test_probe_reads_back_only_records_at_its_heights(monkeypatch):
    # side records moved off the probe height and off h1, holding NaN, are not
    # read back: the probe evaluates both sides anew there, to the same record
    rig = make_rig()
    eq = solve_equilibrium(rig, 20.0, 30.0)
    want = _probe(rig, 20.0, 30.0, eq, 0.5 * eq.h2)
    balance = rig_mod.belt_balance

    def moved(*args):
        b = balance(*args)
        return b._replace(side1=(b.side1[0] + 1.0, (math.nan, math.nan)),
                          side2=(b.side2[0] + 1.0, (math.nan, math.nan)))

    monkeypatch.setattr(rig_mod, "belt_balance", moved)
    assert _probe(rig, 20.0, 30.0, eq, 0.5 * eq.h2) == want


def test_probe_side_force_evaluations(monkeypatch):
    # the probe balance evaluates side 2 at the probe height and side 1 at
    # h1, the latter twice on this riding branch (its residual at the stop,
    # then the tension); evaluating each height anew took 5 side forces here
    cfg = load_config(default_config_path())
    eq = solve_equilibrium(cfg.rig, 20.0, 30.0)
    calls = 0
    side_force = rig_mod._side_force

    def counted(*args):
        nonlocal calls
        calls += 1
        return side_force(*args)

    monkeypatch.setattr(rig_mod, "_side_force", counted)
    _probe(cfg.rig, 20.0, 30.0, eq, eq.h2 - cfg.probe_depth)
    assert calls == 2


def test_root_at_a_free_height_kink_side_force_evaluations(monkeypatch):
    # side 2 pinned at its free height by a near-zero p1: the residual's slope
    # at that end is ~1e-110, so Newton leaves the bracket and false position
    # rounds onto the end; one point ROOT_XTOL_MM inside it has the other
    # end's sign.  Bisecting the bracket down to ROOT_XTOL_MM took 65 here
    modulating, morphing = (PouchStackSpec(flat_width=w, flat_length=length,
                                           end_cap_correction=False)
                            for w, length in ((49.0, 300.0), (48.0, 120.0)))
    rig = RigSpec(modulating, morphing, belt_span=92.0)
    calls = 0
    side_force = rig_mod._side_force

    def counted(*args):
        nonlocal calls
        calls += 1
        return side_force(*args)

    monkeypatch.setattr(rig_mod, "_side_force", counted)
    eq = solve_equilibrium(rig, 1.8315932503829108e-109, 3.0)
    assert eq.h2 == morphing.free_height and eq.branch == "pinned"
    assert calls <= 7
    assert calls < 65


def test_force_displacement_side_force_evaluations(monkeypatch):
    # each sample's probe balance starts from the curve's one equilibrium and
    # evaluates side 2 at the probe height and side 1 at h1, each once;
    # solving the equilibrium again for every sample took 20 per sample here
    cfg = load_config(default_config_path())
    calls = 0
    side_force = rig_mod._side_force

    def counted(*args):
        nonlocal calls
        calls += 1
        return side_force(*args)

    monkeypatch.setattr(rig_mod, "_side_force", counted)
    solve_equilibrium(cfg.rig, 20.0, 30.0)
    per_solve, calls = calls, 0
    curve = force_displacement_curve(cfg.rig, 20.0, 30.0, max_depth=5.0, step=0.5)
    assert calls == per_solve + 2 * (len(curve) // 2)


def rising_line(root: float) -> tuple:
    """f(x) = x - root, slope 1, and the list of points it was evaluated at."""
    seen: list[float] = []

    def f(x: float) -> tuple[float, float]:
        seen.append(x)
        return x - root, 1.0

    return f, seen


def test_rising_root_takes_a_converged_guess_after_one_evaluation():
    # the bracket loop's own stopping rule: a Newton step within ROOT_XTOL_MM is the root
    for guess in (5.0, 5.0 + 0.5 * ROOT_XTOL_MM, 5.0 - 0.9 * ROOT_XTOL_MM):
        f, seen = rising_line(5.0)
        assert _rising_root(f, 0.0, None, 10.0, guess) == 5.0
        assert seen == [guess]
    # a zero without a slope may be zero over the whole bracket: hi is tested
    seen = []
    assert _rising_root(lambda x: seen.append(x) or (0.0, 0.0), 0.0, None, 10.0, 5.0) == 10.0
    assert seen == [5.0, 10.0]
    # a longer step is confirmed by a second evaluation, as before
    f, seen = rising_line(5.0)
    assert _rising_root(f, 0.0, None, 10.0, 5.0 + 3.0 * ROOT_XTOL_MM) == pytest.approx(5.0)
    assert len(seen) > 1


def test_rising_root_keeps_a_newton_point_past_an_end_out():
    # the line's zero lies half a tolerance past an end, and the guess just
    # inside it: the Newton step is within the tolerance, but its point is
    # not in the bracket, so the end is the root
    f, _ = rising_line(10.0 + 0.5 * ROOT_XTOL_MM)
    assert _rising_root(f, 0.0, None, 10.0, 10.0 - 0.25 * ROOT_XTOL_MM) == 10.0
    f, _ = rising_line(-0.5 * ROOT_XTOL_MM)
    assert _rising_root(f, 0.0, None, 10.0, 0.25 * ROOT_XTOL_MM) == 0.0


def slopeless_step(at: float):
    """A rising step at ``at`` with no slope, so every step is false position; its
    values are so uneven that the false position rounds onto the lower end."""
    seen = []

    def f(x: float) -> tuple[float, float]:
        seen.append(x)
        return (-1e-300 if x < at else 1e300), 0.0

    return f, seen


def test_rising_root_continues_past_a_near_end_of_the_same_sign():
    # the false position rounds onto 0, and the point ROOT_XTOL_MM inside it is
    # still below the root: it replaces that end and the bracket is halved
    f, seen = slopeless_step(0.7)
    assert _rising_root(f, 0.0, None, 1.0, None) == pytest.approx(0.7, abs=ROOT_XTOL_MM)
    assert ROOT_XTOL_MM in seen


def test_rising_root_takes_an_exact_zero_inside_a_rounded_onto_end():
    # the false position rounds onto 0, and the point ROOT_XTOL_MM inside it is
    # an exact zero of the rising function: that point is the root, not the end
    def f(x: float) -> tuple[float, float]:
        return (-1e-300 if x < ROOT_XTOL_MM else 0.0 if x == ROOT_XTOL_MM else 1e300), 0.0

    root = _rising_root(f, 0.0, None, 1.0, None)
    assert root == ROOT_XTOL_MM and f(root)[0] == 0.0


def test_rising_root_raises_when_the_bracket_outlasts_its_steps():
    # halving a 1e30 mm bracket to ROOT_XTOL_MM takes about 123 steps
    f, _ = slopeless_step(3e29)
    with pytest.raises(rig_mod.EquilibriumError, match="did not converge in 100 steps"):
        _rising_root(f, 0.0, None, 1e30, None)


def test_stiffness_scales_with_pressure_level():
    rig = make_rig()
    eq = solve_equilibrium(rig, 20.0, 40.0)
    h = eq.h2 - 5.0
    k1 = stiffness(rig, 20.0, 40.0, h)
    k2 = stiffness(rig, 40.0, 80.0, h)
    assert k2 == pytest.approx(2.0 * k1, rel=1e-4)


def test_force_displacement_curve_hysteresis():
    rig = make_rig(friction_force=0.5)
    curve = force_displacement_curve(rig, 20.0, 60.0, max_depth=10.0, step=1.0)
    n = 11
    loading = dict(curve[:n])
    unloading = dict(curve[n:])
    for d in loading:
        if loading[d] > 1.0:  # away from the force floor
            assert loading[d] >= unloading[d] + 0.9  # 2 x friction apart


def test_force_displacement_no_friction_branches_equal():
    rig = make_rig(friction_force=0.0)
    curve = force_displacement_curve(rig, 20.0, 60.0, max_depth=10.0, step=1.0)
    n = 11
    for (d1, f1), (d2, f2) in zip(curve[:n], reversed(curve[n:])):
        assert d1 == pytest.approx(d2)
        assert f1 == pytest.approx(f2, abs=1e-9)


def test_size_sweep_hysteresis_loop():
    rig = make_rig(friction_force=0.5)
    path = list(range(100, -5, -5)) + list(range(5, 105, 5))
    samples = size_pressure_sweep(rig, 60.0, [float(p) for p in path])
    by_leg = {}
    for i, (p1, h2) in enumerate(samples):
        by_leg.setdefault(p1, []).append(h2)
    # while rising (p1 decreasing) friction holds the height low; returning
    # branch sits higher at the same p1
    mid = by_leg[50.0]
    assert len(mid) == 2
    assert mid[0] <= mid[1]


def test_belt_compliance_raises_height_sum():
    stiff = make_rig(belt_compliance=0.0)
    soft = make_rig(belt_compliance=0.05)
    eq_stiff = solve_equilibrium(stiff, 60.0, 60.0)
    eq_soft = solve_equilibrium(soft, 60.0, 60.0)
    assert eq_soft.h1 + eq_soft.h2 > eq_stiff.h1 + eq_stiff.h2
    assert eq_soft.h1 + eq_soft.h2 == pytest.approx(
        stiff.belt_span + 0.05 * eq_soft.belt_tension, abs=1e-3
    )


@pytest.mark.parametrize("field, value", [
    (f, v) for f in ("belt_compliance", "friction_force", "deflated_floor")
    for v in (math.nan, math.inf, -1.0)])
def test_rig_spec_rejects_non_finite_fields(field, value):
    # each passed a plain comparison with NaN: friction_force=nan made every
    # force_displacement_curve force 0, and a NaN compliance failed later as a
    # pouch "height nan"
    with pytest.raises(ValueError, match=field):
        make_rig(**{field: value})
    make_rig(**{field: 0.0})

