"""Inverse planning: round trips, feasibility edges, and the state table."""

import dataclasses
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from afpa_sim import planner as planner_mod, rig as rig_mod
from afpa_sim.config import default_config_path, load_config
from afpa_sim.drivers import run_feasibility
from afpa_sim.planner import (
    HapticTarget,
    InfeasibleTargetError,
    PlannerDomainError,
    check_bounds,
    constant_stiffness_path,
    feasibility_map,
    forward_map,
    plan_state,
    state_table,
    _contour,
    _forward_state,
)
from afpa_sim.pouch import PouchStackSpec
from afpa_sim.rig import ROOT_XTOL_MM, RigSpec, _rising_root, solve_equilibrium


@pytest.fixture(scope="module")
def rig() -> RigSpec:
    return load_config(default_config_path()).rig


def toy_rig() -> RigSpec:
    return RigSpec(
        modulating=PouchStackSpec(flat_width=40.0, flat_length=300.0),
        morphing=PouchStackSpec(flat_width=55.0, flat_length=120.0),
        belt_span=90.0,
    )


def test_round_trip_known_pair(rig):
    h, k = forward_map(rig, 12.0, 18.0, 5.0)
    plan = plan_state(rig, HapticTarget(target_height=h, target_stiffness=k))
    assert plan.feasible
    h2, k2 = forward_map(rig, plan.p1, plan.p2, 5.0)
    assert h2 == pytest.approx(h, abs=0.5)
    assert k2 == pytest.approx(k, rel=0.02)


def test_unreachable_stiffness_reported(rig):
    plan = plan_state(rig, HapticTarget(target_height=100.0, target_stiffness=4.0))
    assert not plan.feasible
    assert "stiffness unreachable" in plan.reason


@pytest.mark.parametrize("height, side", [(110.0, "low"), (20.0, "high")])
def test_unreachable_height_reported(rig, height, side):
    # above the belt span with p1 = 0, or below the floor at p1 = 150 kPa
    plan = plan_state(rig, HapticTarget(target_height=height, target_stiffness=0.2))
    assert not plan.feasible
    assert plan.reason == f"height unreachable (achievable height too {side})"


@pytest.mark.parametrize("bounds, side", [((0.0, 10.0, 50.0, 150.0), "high"),
                                          ((50.0, 150.0, 0.0, 10.0), "low")])
def test_contour_passing_the_box_names_the_height(rig, bounds, side):
    # the 60 mm contour passes this box on one side: at p1 <= 10 kPa and
    # p2 >= 50 kPa every height is above it, at p1 >= 50 and p2 <= 10 below
    plan = plan_state(rig, HapticTarget(target_height=60.0, target_stiffness=0.2), bounds)
    assert not plan.feasible
    assert plan.reason == f"height unreachable (achievable height too {side})"


@pytest.mark.parametrize("k_star", [0.1, 0.5, 2.0])
def test_seed_exits_where_the_contour_leaves_side_1_free(k_star):
    # one ulp above the lowest reachable height, C - h* rounds back to x1 on a
    # rigid rig: side 1 is free all along h*'s contour, which holds no p1, so
    # the seed gives none and the grid's plan says why the target is out of reach.
    # A compliant belt's contour ends at p2 = 0 there, with side 1 as free
    for rig in (toy_rig(), dataclasses.replace(toy_rig(), belt_compliance=0.3)):
        h_star = math.nextafter(rig.belt_span - rig.modulating.free_height, math.inf)
        assert rig.belt_span - h_star == rig.modulating.free_height
        point, _ = _contour(rig, h_star)
        assert point(0.0)[:2] == (math.inf, math.inf)
        assert planner_mod._seed(rig, h_star, k_star, 5.0, planner_mod.FULL_BOX) == (None, "")
        plan = plan_state(rig, HapticTarget(target_height=h_star, target_stiffness=k_star))
        assert not plan.feasible and plan.reason


def test_stiffness_slopes_vanish_out_of_contact_range(rig):
    # a depth past h2 leaves no probe contact: forward_map's stiffness is 0,
    # and so are its slopes in the planner's Jacobian
    eq, k, y = _forward_state(rig, 150.0, 0.0, 50.0, None)
    assert (eq.h2 < 50.0, k, y) == (True, 0.0, None)
    dh = rig_mod.equilibrium_slopes(rig, 150.0, 0.0, eq)
    assert rig_mod.stiffness_slopes(rig, 150.0, 0.0, eq, 50.0, dh, y) == (0.0, 0.0)


def test_belt_span_plateau_target_feasible():
    # the target height is the belt span, where h2 is flat in p1 up to some
    # pressure: the seed's root starts on an end where the height gap is 0
    rig = RigSpec(PouchStackSpec(53.7, 1373.0, 2, True), PouchStackSpec(77.8, 258.0, 3, False),
                  belt_span=43.1, belt_compliance=0.1)
    h, k = forward_map(rig, 78.0, 30.0, 8.0)
    assert h == rig.belt_span
    plan = plan_state(rig, HapticTarget(target_height=h, target_stiffness=k, probe_depth_ref=8.0))
    assert plan.feasible
    assert plan.p1 == 0.0
    assert plan.p2 == pytest.approx(70.316, abs=1e-3)


@pytest.mark.parametrize("rig, bounds, depth, base, scale", [
    # a strongly compliant belt: one contour root at the scaled seed's level
    # leaves the plan stuck at p1 = 0, 4.5% off
    (RigSpec(PouchStackSpec(22.9, 1912.0, 1, False), PouchStackSpec(39.0, 746.6, 1, False),
             belt_span=26.17, belt_compliance=0.25), (0.0, 32.7, 11.0, 143.6), 8.0,
     (23.5, 52.5), 1 / 3),
    # the target's stiffness is within 0.1% of the most the height allows, at
    # the p1 ceiling: a Newton step held at that bound gets there
    (RigSpec(PouchStackSpec(32.056780328092316, 990.4460467759009, 1, False),
             PouchStackSpec(27.163717419768947, 1765.1775835811027, 3, True),
             belt_span=69.11772329119194, belt_compliance=0.01821383454266773),
     (0.0, 105.58158711778644, 0.0, 129.3990314613855), 2.0,
     (74.07205990627705, 30.60731751288463), 3.0),
    # the belt-span plateau of a compliant belt: the contour there is a region,
    # and a seed kept on the ray through the contour point plans infeasible
    (RigSpec(PouchStackSpec(22.1, 1217.8, 3, False), PouchStackSpec(63.4, 866.7, 3, False),
             belt_span=110.3, belt_compliance=0.43), (19.9, 96.6, 0.0, 52.4), 2.0,
     (77.2, 51.2), 1.0),
])
def test_edge_targets_feasible(rig, bounds, depth, base, scale):
    h, k = forward_map(rig, *base, depth)
    plan = plan_state(rig, HapticTarget(h, scale * k, depth), bounds)
    assert plan.feasible, plan


def test_invalid_target_rejected(rig):
    # each rejection names its field; a NaN or infinite stiffness once named
    # p1, and a depth outside (0, target_height) ran the grid
    cases = [("target_height", HapticTarget(target_height=-5.0, target_stiffness=0.1)),
             ("target_stiffness", HapticTarget(target_height=50.0, target_stiffness=0.0))]
    cases += [("target_stiffness", HapticTarget(60.0, k)) for k in (math.nan, math.inf)]
    # a depth below the rounding of the height leaves h2 at the height
    cases += [("probe_depth_ref", HapticTarget(60.0, 0.1, d))
              for d in (math.nan, -5.0, 0.0, 1e-15, 70.0)]
    for field, target in cases:
        with pytest.raises(PlannerDomainError, match=field):
            plan_state(rig, target)
    # a bool once passed as the pressure 0 or 1 kPa
    for bounds in [(100.0, 50.0, 0.0, 150.0), (False, True, 0.0, 150.0), (0.0, 150.0, 0.0, True),
                   (np.True_, 150.0, 0.0, 150.0), ("0", 150.0, 0.0, 150.0)]:
        with pytest.raises(PlannerDomainError, match="bounds"):
            plan_state(rig, HapticTarget(target_height=50.0, target_stiffness=0.1), bounds)


@pytest.mark.parametrize("bounds", [(), (0.0, 150.0), (0.0, 150.0, 0.0),
                                    (0.0, 150.0, 0.0, 150.0, 0.0), 150.0, None,
                                    {0.0: 1.0, 50.0: 1.0, 100.0: 1.0, 150.0: 1.0}])
def test_bounds_not_a_box_of_four_rejected(rig, bounds):
    # the box was unpacked before it was checked: a wrong length raised a bare
    # ValueError ("not enough values to unpack") that did not name bounds
    with pytest.raises(PlannerDomainError, match="bounds"):
        plan_state(rig, HapticTarget(60.0, 0.1), bounds)
    with pytest.raises(PlannerDomainError, match="bounds"):
        check_bounds(bounds)


def test_bounds_as_a_list_accepted():
    assert check_bounds([0.0, 150, 0.0, 150.0]) == (0.0, 150.0, 0.0, 150.0)


def test_forward_map_rejects_bad_probe_depth(rig):
    # a NaN or negative depth once gave a stiffness of 0, as for no contact
    for depth in (math.nan, -5.0, 0.0, math.inf):
        with pytest.raises(PlannerDomainError, match="probe_depth"):
            forward_map(rig, 10.0, 10.0, depth)
        with pytest.raises(PlannerDomainError, match="probe_depth"):
            feasibility_map(rig, [0.0, 10.0], [0.0, 10.0], probe_depth=depth)
    h, k = forward_map(rig, 10.0, 10.0, 5.0)
    assert k > 0.0
    assert forward_map(rig, 10.0, 10.0, h) == (h, 0.0)  # a depth at h2 leaves no contact
    assert forward_map(rig, 10.0, 10.0, 200.0) == (h, 0.0)


def test_off_reach_stiffness_reported_too_low():
    # three times the stiffness of a base pair with p1 >= 60 kPa would need
    # p1 beyond the 150 kPa ceiling at that height
    cfg = load_config(default_config_path())
    for p1 in np.linspace(60.0, 140.0, 5):
        for p2 in np.linspace(10.0, 100.0, 6):
            h, k = forward_map(cfg.rig, p1, p2, cfg.probe_depth)
            target = HapticTarget(h, 3.0 * k, cfg.probe_depth)
            plan = plan_state(cfg.rig, target, cfg.bounds)
            assert not plan.feasible
            assert plan.reason == ("stiffness unreachable at height "
                                   "(achievable stiffness too low)"), (p1, p2)


def test_planner_deterministic(rig):
    target = HapticTarget(target_height=70.0, target_stiffness=0.15)
    assert plan_state(rig, target) == plan_state(rig, target)


def test_feasibility_map_shape_and_content():
    rig = toy_rig()
    grid = np.array(feasibility_map(rig, [0.0, 50.0, 100.0], [0.0, 50.0, 100.0]))
    assert grid.shape == (9, 4)
    zero = grid[(grid[:, 0] == 0.0) & (grid[:, 1] == 0.0)][0]
    assert zero[3] == 0.0  # no pressure, no stiffness


def test_feasibility_map_rows_are_float_tuples():
    # the rows the feasibility subcommand writes, as Python floats, not an array
    rows = feasibility_map(toy_rig(), [0.0, 50.0, 100.0], [0.0, 25.0])
    assert type(rows) is list and len(rows) == 6
    assert all(type(row) is tuple and len(row) == 4 for row in rows)
    assert all(type(v) is float for row in rows for v in row)
    assert [row[:2] for row in rows] == [(p1, p2) for p1 in (0.0, 50.0, 100.0) for p2 in (0.0, 25.0)]


def test_feasibility_map_grid_too_small():
    # a 1x4 grid, with four cells, returned its four rows
    for p1_values, p2_values in ([[0.0], [0.0, 50.0]], [[0.0], [0.0, 25.0, 50.0, 75.0]],
                                 [[0.0, 25.0, 50.0, 75.0], [0.0]]):
        with pytest.raises(PlannerDomainError, match="at least 2x2 cells"):
            feasibility_map(toy_rig(), p1_values, p2_values)


def test_feasibility_map_refinement_consistent():
    rig = toy_rig()
    coarse = np.array(feasibility_map(rig, [0.0, 100.0], [0.0, 100.0]))
    fine = np.array(feasibility_map(rig, [0.0, 50.0, 100.0], [0.0, 50.0, 100.0]))
    for row in coarse:
        match = fine[(fine[:, 0] == row[0]) & (fine[:, 1] == row[1])][0]
        assert np.array_equal(row, match)


subnormal_widths = st.integers(1, 64).map(lambda n: (0.0, n * 5e-324))
boxes = st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 150.0)).filter(lambda b: b[0] < b[1])


@settings(max_examples=300, deadline=None)
@given(box=st.one_of(boxes, subnormal_widths), num=st.integers(2, 200))
# a step that rounds to 0, where numpy scales i / (num - 1) by the width: 2/3 of the
# smallest subnormal rounds up to it
@example(box=(0.0, 5e-324), num=4)
def test_linspace_matches_numpy(box, num):
    assert planner_mod._linspace(*box, num) == np.linspace(*box, num).tolist()


def test_grids_hand_the_side_force_float_pressures(rig, monkeypatch, tmp_path):
    # the fallback grid's and the feasibility map's pressures are floats; an
    # np.linspace axis made every side-force product numpy-scalar arithmetic
    types = set()
    side_force = rig_mod._side_force

    def recorded(spec, pressure, height):
        types.add(type(pressure))
        return side_force(spec, pressure, height)

    monkeypatch.setattr(rig_mod, "_side_force", recorded)
    # an infeasible plan is the best of the grid's seeds
    assert not plan_state(rig, HapticTarget(target_height=95.0, target_stiffness=5.0)).feasible
    assert types == {float}
    config = load_config(default_config_path())
    # a RunConfig built in Python may hold integer bounds, and each axis ends on its bound
    for bounds in (config.bounds, (0, 150, 0, 150)):
        types.clear()
        run_feasibility(dataclasses.replace(config, bounds=bounds), 0, tmp_path)
        assert types == {float}, bounds


def test_constant_stiffness_path_deviation(rig):
    plans = constant_stiffness_path(rig, 0.15, [55.0, 70.0, 85.0])
    for p in plans:
        assert abs(p.achieved_stiffness - 0.15) <= 0.15 * 0.15


def test_single_height_path_matches_plan_state(rig):
    target = HapticTarget(target_height=70.0, target_stiffness=0.15)
    assert constant_stiffness_path(rig, 0.15, [70.0])[0] == plan_state(rig, target)


def test_reversed_path_same_pressures(rig):
    heights = [55.0, 70.0, 85.0]
    fwd = constant_stiffness_path(rig, 0.15, heights)
    rev = constant_stiffness_path(rig, 0.15, heights[::-1])
    for a, b in zip(fwd, rev[::-1]):
        assert a == b


def test_infeasible_waypoint_named(rig):
    with pytest.raises(InfeasibleTargetError, match="100.0"):
        constant_stiffness_path(rig, 1.0, [60.0, 100.0])


def test_state_table_recovers_forward_targets():
    rig = toy_rig()
    pairs = [(20.0, 30.0), (10.0, 40.0), (5.0, 50.0)]
    hs, ks = [], []
    for i, (p1, p2) in enumerate(pairs):
        h, k = forward_map(rig, p1, p2, 5.0)
        hs.append(h)
    # use one shared stiffness ladder achievable at all three heights
    ks = [0.1, 0.2, 0.4]
    states = state_table(rig, hs, ks)
    assert [s.id for s in states] == list(range(1, 10))
    for s in states:
        h, k = forward_map(rig, s.p1, s.p2, 5.0)
        assert h == pytest.approx(s.height, abs=1e-6)
        assert k == pytest.approx(s.stiffness, abs=1e-9)


def test_state_table_class_labels(rig):
    states = state_table(rig, [55.0, 75.0, 95.0], [0.12, 0.19, 0.30])
    assert states[0].size_class == "small" and states[0].stiffness_class == "soft"
    assert states[4].size_class == "medium" and states[4].stiffness_class == "medium"
    assert states[8].size_class == "large" and states[8].stiffness_class == "hard"
    # within each size, harder states need more pressure on both sides
    for i in range(0, 9, 3):
        assert states[i].p2 < states[i + 1].p2 < states[i + 2].p2


def test_state_table_rejects_degenerate_grid(rig):
    with pytest.raises(PlannerDomainError):
        state_table(rig, [55.0, 55.0, 95.0], [0.12, 0.19, 0.30])
    with pytest.raises(PlannerDomainError):
        state_table(rig, [55.0, 75.0, 95.0], [0.12, 0.12, 0.30])


def test_state_table_names_infeasible_cell(rig):
    with pytest.raises(InfeasibleTargetError, match="large.*hard"):
        state_table(rig, [55.0, 75.0, 95.0], [0.12, 0.19, 0.5])


def test_round_trip_random_feasible_targets(rig):
    rng = np.random.default_rng(7)
    tested = 0
    while tested < 20:
        p1 = float(rng.uniform(0.0, 120.0))
        p2 = float(rng.uniform(2.0, 140.0))
        h, k = forward_map(rig, p1, p2, 5.0)
        if k <= 1e-3 or h <= 6.0:
            continue
        plan = plan_state(rig, HapticTarget(target_height=h, target_stiffness=k))
        assert plan.feasible, f"target from ({p1}, {p2}) reported infeasible"
        h2, k2 = forward_map(rig, plan.p1, plan.p2, 5.0)
        assert abs(h2 - h) <= 1.0
        assert abs(k2 - k) <= 0.05 * k
        tested += 1


def test_increasing_height_lowers_p1_at_fixed_stiffness(rig):
    plans = constant_stiffness_path(rig, 0.15, [55.0, 65.0, 75.0, 85.0])
    p1s = [p.p1 for p in plans]
    assert all(b <= a + 1e-9 for a, b in zip(p1s, p1s[1:]))


def test_plan_fields_are_python_floats(rig):
    # on a compliant belt the seed needs Newton steps, solved by Cramer's rule on floats
    compliant = dataclasses.replace(rig, belt_compliance=0.3)
    h, k = forward_map(compliant, 40.0, 50.0, 5.0)
    plan = plan_state(compliant, HapticTarget(target_height=h, target_stiffness=k))
    assert plan.feasible
    for name in ("p1", "p2", "achieved_height", "achieved_stiffness", "residual_norm"):
        assert type(getattr(plan, name)) is float, name
    # integer bounds, on which the best-effort plan ends, once gave p1 = 50, an int
    plan = plan_state(rig, HapticTarget(target_height=60.0, target_stiffness=1.0), (50, 150, 0, 10))
    assert (plan.feasible, plan.p1, plan.p2) == (False, 50.0, 10.0)
    for name in ("p1", "p2", "achieved_height", "achieved_stiffness", "residual_norm"):
        assert type(getattr(plan, name)) is float, name


@settings(max_examples=200, deadline=None)
@given(
    widths=st.tuples(st.floats(20.0, 60.0), st.floats(40.0, 70.0)),
    span=st.floats(60.0, 110.0),
    compliance=st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    p1=st.floats(0.0, 150.0),
    p2=st.floats(0.0, 150.0),
    depth=st.sampled_from([2.0, 5.0, 8.0]),
    guess=st.one_of(st.floats(-50.0, 200.0), st.sampled_from(["lo", "hi", "root"]),
                    st.just(math.nan), st.just(math.inf)),
    near=st.floats(-1e-3, 1e-3),
)
# side 2 pinned at its free height by a near-zero p1: a warm bracket once
# closed on a midpoint 4e-8 mm below it, an 8e-9 N tension against ~1e-108 N
@example(widths=(49.0, 48.0), span=92.0, compliance=0.0, end_caps=False,
         p1=1.8315932503829108e-109, p2=3.0, depth=2.0, guess=1.0, near=0.0)
def test_warm_start_matches_cold_solve(widths, span, compliance, end_caps, p1, p2, depth,
                                       guess, near):
    specs = [PouchStackSpec(flat_width=w, flat_length=length, end_cap_correction=end_caps)
             for w, length in zip(widths, (300.0, 120.0))]
    rig = RigSpec(specs[0], specs[1], belt_span=span, belt_compliance=compliance)
    cold = solve_equilibrium(rig, p1, p2)
    # the bracket of the balance, its ends, or next to the root
    ends = {"lo": max(1e-9, span - specs[0].free_height),
            "hi": min(specs[1].free_height, span), "root": cold.h2 + near}
    guess = ends.get(guess, guess)
    warm = solve_equilibrium(rig, p1, p2, guess=guess)
    assert (warm.h1, warm.h2) == pytest.approx((cold.h1, cold.h2), abs=1e-6)
    assert warm.belt_tension == pytest.approx(cold.belt_tension, rel=1e-6, abs=1e-9)
    h, k = forward_map(rig, p1, p2, depth, guess=guess)
    want_h, want_k = forward_map(rig, p1, p2, depth)
    assert h == pytest.approx(want_h, abs=1e-6)
    assert k == pytest.approx(want_k, rel=1e-6, abs=1e-12)


def test_side_force_evaluations_per_plan(rig, monkeypatch):
    # reachable targets, images of a 3x3 pressure grid on the packaged rig
    # and on a compliant copy; with cold equilibrium solves the planner
    # needs 338.94 side-force evaluations per plan here, with the
    # anti-diagonal height root 203.17, and solving each probe balance of the
    # stiffness slopes twice 46.28
    rigs = (rig, dataclasses.replace(rig, belt_compliance=0.3))
    targets = [(r, *forward_map(r, p1, p2, 5.0)) for r in rigs
               for p1 in (10.0, 40.0, 80.0) for p2 in (15.0, 50.0, 100.0)]
    calls = {rig_mod: 0, planner_mod: 0}  # by the module that calls _side_force
    side_force = rig_mod._side_force

    def counting(module):
        def counted(*args):
            calls[module] += 1
            return side_force(*args)
        return counted

    for module in calls:
        monkeypatch.setattr(module, "_side_force", counting(module))
    per_target = []
    for r, h, k in targets:
        before = sum(calls.values())
        assert plan_state(r, HapticTarget(target_height=h, target_stiffness=k)).feasible
        per_target.append(sum(calls.values()) - before)
    # on the rigid belt h*'s contour is a ray, along which k scales with p2: a1
    # and a2, the seed's own two side forces, give its ends as ratios and one
    # stiffness evaluation an exact seed (82 side forces with the anti-diagonal
    # root)
    assert max(per_target[:9]) <= 8
    per_plan = calls[rig_mod] / len(targets)
    assert per_plan <= 1.02 * 32.61
    assert per_plan < 46.28
    assert per_plan < 338.94


def test_rigid_seed_solves_no_root(rig, monkeypatch):
    # a rigid reachable plan seeds from ratios: _seed makes no root solve,
    # where a compliant plan roots both box ends and the stiffness
    compliant = dataclasses.replace(rig, belt_compliance=0.3)
    calls = 0
    rising_root = planner_mod._rising_root

    def counted(*args):
        nonlocal calls
        calls += 1
        return rising_root(*args)

    monkeypatch.setattr(planner_mod, "_rising_root", counted)
    for r, roots in ((rig, 0), (compliant, 3)):
        for p1, p2 in ((10.0, 15.0), (40.0, 50.0), (80.0, 100.0)):
            h, k = forward_map(r, p1, p2, 5.0)
            calls = 0
            assert plan_state(r, HapticTarget(target_height=h, target_stiffness=k)).feasible
            assert calls == roots, (r.belt_compliance, p1, p2)


def test_python_calls_per_reachable_plan(rig):
    # every Python-level call (the profiler's "call" events; builtins and C
    # functions make "c_call"s) of the nine rigid plans of
    # test_side_force_evaluations_per_plan, each target built in the count:
    # 405, 45 a plan, 16 of them the eight side forces and their pouch terms.
    # Side 1's memo, the contour's gap and point, the probe's record reads and
    # the pick among one plan made 666; copying each equilibrium into a second
    # record and a second stiffness entry made 423.  The count does not depend
    # on the machine, so a call layer added to the reachable path fails here
    targets = [forward_map(rig, p1, p2, 5.0) for p1 in (10.0, 40.0, 80.0)
               for p2 in (15.0, 50.0, 100.0)]
    calls, plans = 0, []

    def counted(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    profile = sys.getprofile()
    sys.setprofile(counted)
    try:
        for h, k in targets:
            plans.append(plan_state(rig, HapticTarget(target_height=h, target_stiffness=k)))
    finally:
        sys.setprofile(profile)
    assert all(plan.feasible for plan in plans)
    assert calls <= 405


@pytest.mark.parametrize("a, lo, hi", [
    (math.nan, 0.0, 1.0), (0.5, math.nan, 1.0), (0.5, 0.0, math.nan), (0.0, 0.0, 1.0),
    (1.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (0.0, -1.0, -0.0), (-0.0, -1.0, 0.0),
    (2.0, 0.0, 1.0), (-1.0, 0.0, 1.0)])
def test_clip_picks_as_min_of_max(a, lo, hi):
    # each written-out bound picks the builtin's operand: NaN, equal and signed zeros
    assert repr(planner_mod._clip(a, lo, hi)) == repr(min(max(a, lo), hi))


def test_compliant_plan_solves_each_probe_balance_once(rig, monkeypatch):
    # the image of (40, 50) kPa at 0.3 mm/N: the stiffness slopes read the
    # probe balance's h1 that the probe has just solved; solving that
    # balance again through the probe force took 87 side forces here
    compliant = dataclasses.replace(rig, belt_compliance=0.3)
    h, k = forward_map(compliant, 40.0, 50.0, 5.0)
    calls = 0
    side_force = rig_mod._side_force

    def counted(*args):
        nonlocal calls
        calls += 1
        return side_force(*args)

    monkeypatch.setattr(rig_mod, "_side_force", counted)
    plan = plan_state(compliant, HapticTarget(target_height=h, target_stiffness=k))
    assert plan.feasible and plan.p1 == pytest.approx(40.0) and plan.p2 == pytest.approx(50.0)
    assert calls <= 60
    assert calls < 87


@settings(max_examples=200, deadline=None)
@given(
    widths=st.tuples(st.floats(20.0, 60.0), st.floats(40.0, 70.0)),
    lengths=st.tuples(st.floats(100.0, 2000.0), st.floats(100.0, 2000.0)),
    span=st.floats(60.0, 110.0),
    compliance=st.sampled_from([0.0]) | st.floats(0.0, 0.5),
    end_caps=st.booleans(),
    u=st.floats(0.0, 1.0),
    p1=st.floats(0.5, 150.0),
)
def test_contour_holds_the_target_height(widths, lengths, span, compliance, end_caps, u, p1):
    # each p1 of h*'s contour, found by the root of its gap, is a pressure pair
    # whose equilibrium is h*, on the balance's interior branch
    specs = [PouchStackSpec(flat_width=w, flat_length=length, end_cap_correction=end_caps)
             for w, length in zip(widths, lengths)]
    rig = RigSpec(specs[0], specs[1], belt_span=span, belt_compliance=compliance)
    lo, hi = max(0.0, span - specs[0].free_height), min(specs[1].free_height, span)
    h_star = lo + u * (hi - lo)
    # within the root tolerance of an end the balance may take that end's branch
    assume(lo + ROOT_XTOL_MM < h_star < hi - ROOT_XTOL_MM)
    point, gap = _contour(rig, h_star)
    assume(gap(150.0, p1)[0] > 0.0)  # p1 is on the contour below p2 = 150 kPa
    p2 = _rising_root(partial(gap, p1=p1), 0.0, None, 150.0, None)
    q1, slope, eq = point(p2)
    assume(q1 <= 150.0)
    solved = solve_equilibrium(rig, q1, p2)
    assert solved.branch == eq.branch == "interior"
    assert solved.h2 == pytest.approx(h_star, abs=ROOT_XTOL_MM)
    assert solved.h1 == pytest.approx(eq.h1, abs=ROOT_XTOL_MM)
    assert solved.belt_tension == pytest.approx(eq.belt_tension, rel=1e-6)
    # the step is scaled to the distance q1 / slope to the pole where side 1 turns free;
    # within 1e-4 mm of the bottom end, h1 is so near that free height that rounding of
    # its force swamps a central difference
    e = 1e-3 * min(p2, q1 / slope)
    diff = (point(p2 + e)[0] - point(p2 - e)[0]) / (2 * e)
    assert h_star - lo < 1e-4 or slope == pytest.approx(diff, rel=1e-5)


@pytest.mark.parametrize("y0, slope", [(-20.0, 1.0), (5.0, 1.0), (-5.0, 1.0), (0.0, 1.0),
                                       (-1.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
def test_line_root_takes_the_rising_roots_ends(y0, slope):
    # the ratio takes _rising_root's ends: a1 = 0 gives y0 = 0, and a2 = 0 or k_max = 0 a
    # flat line
    want = _rising_root(lambda x: (y0 + slope * x, slope), 0.0, None, 10.0, None)
    assert planner_mod._line_root(y0, slope, 0.0, 10.0) == want


@pytest.mark.parametrize("y0, slope, end", [(-7.0, 0.3, "hi"), (-3.0, 0.7, "lo")])
def test_line_root_steps_off_an_end_that_the_line_excludes(y0, slope, end):
    # -y0 / slope rounds onto the end, where the line is +8.9e-16 for (-7, 0.3) and
    # -4.4e-16 for (-3, 0.7), so the root is inside: the float next to that end
    x = -y0 / slope
    assert (y0 + slope * x > 0.0) == (end == "hi") and y0 + slope * x != 0.0
    lo, hi = (0.0, x) if end == "hi" else (x, 2.0 * x)
    assert planner_mod._line_root(y0, slope, lo, hi) == math.nextafter(x, lo if end == "hi" else hi)


@settings(max_examples=300, deadline=None)
@given(
    widths=st.tuples(st.floats(20.0, 60.0), st.floats(40.0, 70.0)),
    lengths=st.tuples(st.floats(100.0, 2000.0), st.floats(100.0, 2000.0)),
    span=st.floats(60.0, 130.0),
    end_caps=st.booleans(),
    u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    # no bound near 1e-300 kPa, where a force is subnormal and stops scaling with pressure
    p1s=st.tuples(st.just(0.0) | st.floats(1e-9, 150.0), st.floats(1e-9, 150.0)),
    p2s=st.tuples(st.just(0.0) | st.floats(1e-9, 150.0), st.floats(1e-9, 150.0)),
    depth=st.sampled_from([2.0, 5.0, 8.0]),
    w=st.floats(0.0, 1.0),
    scale=st.floats(0.2, 3.0),
)
# -y0 / slope rounds onto p2_hi, where the line is +7.1e-15: the root is inside the box
@example(widths=(20.0, 40.0), lengths=(100.0, 100.0), span=90.92420535628138, end_caps=False,
         u=0.5, p1s=(0.0, 66.75399694676275), p2s=(0.0, 66.75399694676275), depth=2.0, w=0.0,
         scale=1.0)
def test_rigid_seed_ratios_match_the_root_solves(widths, lengths, span, end_caps, u, p1s, p2s,
                                                 depth, w, scale):
    # on a rigid belt h*'s contour is a ray: its box ends and k_star's root on it
    # are ratios, each equal to the bracketed root of the contour's gap, or of the
    # stiffness probed afresh along the ray, and at the same end where the
    # contour or k_star passes the box
    specs = [PouchStackSpec(flat_width=wd, flat_length=length, end_cap_correction=end_caps)
             for wd, length in zip(widths, lengths)]
    rig = RigSpec(specs[0], specs[1], belt_span=span)
    (p1_lo, p1_hi), (p2_lo, p2_hi) = sorted(p1s), sorted(p2s)
    assume(p1_lo < p1_hi and p2_lo < p2_hi)
    bounds = (p1_lo, p1_hi, p2_lo, p2_hi)
    lo, top = max(0.0, span - specs[0].free_height), min(specs[1].free_height, span)
    h_star = lo + u * (top - lo)
    assume(lo < h_star < top and 0.0 < h_star - depth)
    point, gap = _contour(rig, h_star)
    ends = [_rising_root(partial(gap, p1=p), p2_lo, None, p2_hi, None) for p in (p1_lo, p1_hi)]
    ratios = [planner_mod._line_root(*gap(0.0, p), p2_lo, p2_hi) for p in (p1_lo, p1_hi)]
    assert ratios == pytest.approx(ends, rel=0.0, abs=ROOT_XTOL_MM)
    for ratio, end in zip(ratios, ends):
        assert ratio not in (p2_lo, p2_hi) or ratio == end
    p2_min, p2_max = ends
    if (g := gap(p2_max, p1_lo)[0]) < 0.0 or gap(p2_min, p1_hi)[0] > 0.0:
        event("the contour passes the box")
        assert planner_mod._seed(rig, h_star, 1.0, depth, bounds) == (
            None, planner_mod._diagnose(g, 0.0))
        return
    if point(p2_max)[0] == math.inf:
        assert planner_mod._seed(rig, h_star, 1.0, depth, bounds) == (None, "")
        return

    def probed(p2):  # k along the ray and its slope in p2, by a probe at p2
        p1, dp1, eq = point(p2)
        probe = rig_mod._probe(rig, p1, p2, eq, h_star - depth)
        dk = rig_mod.stiffness_slopes(rig, p1, p2, eq, depth,
                                      rig_mod.equilibrium_slopes(rig, p1, p2, eq), probe.h1)
        return probe.k, dk[0] * dp1 + dk[1]

    def stiffness(p2):
        k, slope = probed(p2)
        return k - k_star, slope

    # a multiple of the stiffness at a point of the ray in the box
    k_star = scale * probed(p2_min + w * (p2_max - p2_min))[0]
    assume(k_star > 0.0)
    p2 = _rising_root(stiffness, p2_min, None, p2_max, None)
    seed, reason = planner_mod._seed(rig, h_star, k_star, depth, bounds)
    assert seed[1] == pytest.approx(p2, rel=0.0, abs=ROOT_XTOL_MM)
    p1, slope, _ = point(p2)
    assert seed[0] == pytest.approx(min(max(p1, p1_lo), p1_hi), rel=0.0,
                                    abs=ROOT_XTOL_MM * (1.0 + slope))
    if p2 in (p2_min, p2_max) and abs(miss := stiffness(p2)[0]) > 1e-9 * k_star:
        event("k_star passes an end")
        assert reason == planner_mod._diagnose(0.0, miss)  # k_star passes that end
    elif p2_min + ROOT_XTOL_MM < p2 < p2_max - ROOT_XTOL_MM:
        event("k_star's root inside the box")
        assert reason == ""
