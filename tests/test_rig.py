"""Coupled-rig equilibrium against a brute-force grid-scan oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from afpa_sim.pouch import PouchStackSpec, contact_force, free_height
from afpa_sim.rig import (
    Anchor,
    CalibrationError,
    RigDomainError,
    RigSpec,
    calibrate_rig,
    force_displacement_curve,
    probe_force,
    size_pressure_sweep,
    solve_equilibrium,
    stiffness,
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
    with pytest.raises(RigDomainError):
        probe_force(rig, 40.0, 60.0, eq.h2 + 1.0)


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


# --- calibration -----------------------------------------------------------

def test_calibration_recovers_forward_generated_anchors():
    true_rig = make_rig(w1=38.0, l1=320.0, w2=52.0, l2=130.0, c=88.0)
    pairs = [(0.0, 90.0), (100.0, 90.0), (30.0, 40.0), (10.0, 70.0), (60.0, 20.0)]
    anchors = [
        Anchor(kind="height", p1=p1, p2=p2, observed=solve_equilibrium(true_rig, p1, p2).h2)
        for p1, p2 in pairs
    ]
    eq = solve_equilibrium(true_rig, 0.0, 90.0)
    anchors.append(Anchor(kind="stiffness", p1=0.0, p2=90.0,
                          observed=stiffness(true_rig, 0.0, 90.0, eq.h2 - 8.0),
                          h2=eq.h2 - 8.0))
    start = make_rig(w1=42.0, l1=280.0, w2=49.0, l2=140.0, c=92.0)
    result = calibrate_rig(anchors, start)
    for a in anchors:
        pred = solve_equilibrium(result.rig, a.p1, a.p2).h2 if a.kind == "height" else None
        if pred is not None:
            assert pred == pytest.approx(a.observed, abs=0.5)


def test_calibration_requires_enough_anchors():
    with pytest.raises(CalibrationError, match="belt_span"):
        calibrate_rig(
            [Anchor(kind="height", p1=0.0, p2=90.0, observed=80.0)], make_rig()
        )


def test_calibration_rejects_missing_h2():
    anchors = [Anchor(kind="stiffness", p1=0.0, p2=90.0, observed=1.0)] * 5
    with pytest.raises(CalibrationError, match="h2"):
        calibrate_rig(anchors, make_rig())


def test_calibration_is_deterministic():
    anchors = [
        Anchor(kind="height", p1=p1, p2=p2, observed=obs)
        for p1, p2, obs in [(0, 90, 85.0), (100, 90, 45.0), (30, 40, 60.0), (10, 70, 75.0)]
    ]
    r1 = calibrate_rig(anchors, make_rig())
    r2 = calibrate_rig(anchors, make_rig())
    assert r1.rig == r2.rig
    assert r1.residuals == r2.residuals
