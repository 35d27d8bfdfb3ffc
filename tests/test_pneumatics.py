"""Valve flow law and chamber time-stepping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afpa_sim.pneumatics import (
    P_ATM_KPA,
    RHO_REF,
    ValveSpec,
    resample_16hz,
    rise_time_90,
    step_simulate,
    valve_mass_flow,
)
from afpa_sim.pouch import PouchStackSpec
from afpa_sim.rig import RigSpec, solve_equilibrium


def make_rig() -> RigSpec:
    return RigSpec(
        modulating=PouchStackSpec(flat_width=40.0, flat_length=300.0),
        morphing=PouchStackSpec(flat_width=55.0, flat_length=120.0),
        belt_span=90.0,
    )


def make_valves(c1=1.3e-10, c2=3.6e-11):
    return (ValveSpec(sonic_conductance=c1), ValveSpec(sonic_conductance=c2))


# --- valve law -------------------------------------------------------------

def test_choked_flow_independent_of_downstream():
    v = ValveSpec(sonic_conductance=1e-10)
    up = 400.0
    flows = [valve_mass_flow(v, up, down, 1.0) for down in (10.0, 60.0, 0.29 * up)]
    for f in flows:
        assert f == pytest.approx(flows[0])
    # analytic choked value: C * rho0 * P_up
    assert flows[0] == pytest.approx(1e-10 * RHO_REF * up * 1e3)


def test_subsonic_flow_below_choked():
    v = ValveSpec(sonic_conductance=1e-10)
    choked = valve_mass_flow(v, 400.0, 100.0, 1.0)
    subsonic = valve_mass_flow(v, 400.0, 350.0, 1.0)
    assert 0.0 < subsonic < choked


def test_flow_vanishes_at_equal_pressures():
    v = ValveSpec(sonic_conductance=1e-10)
    assert valve_mass_flow(v, 200.0, 200.0, 1.0) == 0.0


@settings(max_examples=80, deadline=None)
@given(up=st.floats(102.0, 800.0), down=st.floats(101.325, 800.0),
       opening=st.floats(0.0, 1.0))
def test_flow_antisymmetric(up, down, opening):
    v = ValveSpec(sonic_conductance=1e-10)
    assert valve_mass_flow(v, up, down, opening) == pytest.approx(
        -valve_mass_flow(v, down, up, opening)
    )


@settings(max_examples=50, deadline=None)
@given(opening=st.floats(0.0, 1.0))
def test_flow_linear_in_opening(opening):
    v = ValveSpec(sonic_conductance=1e-10)
    full = valve_mass_flow(v, 400.0, 150.0, 1.0)
    assert valve_mass_flow(v, 400.0, 150.0, opening) == pytest.approx(opening * full)


def test_invalid_opening_rejected():
    v = ValveSpec(sonic_conductance=1e-10)
    with pytest.raises(ValueError):
        valve_mass_flow(v, 400.0, 100.0, 1.5)


def test_invalid_valve_spec_rejected():
    with pytest.raises(ValueError):
        ValveSpec(sonic_conductance=-1.0)
    with pytest.raises(ValueError):
        ValveSpec(sonic_conductance=1e-10, critical_ratio=1.5)
    with pytest.raises(ValueError):
        ValveSpec(sonic_conductance=1e-10, command_lag=0.0)


# --- time stepping ---------------------------------------------------------

def test_null_step_is_flat():
    rig = make_rig()
    series = step_simulate(rig, make_valves(), [(0.0, 20.0, 30.0)], 1e-3, 2.0)
    h2 = series[:, 4]
    assert np.ptp(h2) < 0.1
    assert np.ptp(series[:, 2]) < 1.0


def test_step_converges_to_commanded_equilibrium():
    rig = make_rig()
    series = step_simulate(
        rig, make_valves(), [(0.0, 10.0, 10.0), (0.5, 40.0, 60.0)], 1e-3, 10.0
    )
    eq = solve_equilibrium(rig, 40.0, 60.0)
    assert series[-1, 4] == pytest.approx(eq.h2, abs=1.0)
    assert series[-1, 1] == pytest.approx(40.0, abs=2.0)
    assert series[-1, 2] == pytest.approx(60.0, abs=2.0)


def test_step_heights_respect_belt_span():
    rig = make_rig()
    series = step_simulate(
        rig, make_valves(), [(0.0, 0.0, 0.0), (0.5, 30.0, 60.0)], 1e-3, 4.0
    )
    assert np.all(series[:, 3] + series[:, 4] <= rig.belt_span + 1e-6)


@settings(max_examples=8, deadline=None)
@given(
    compliance=st.floats(0.0, 0.5),
    start=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
    step=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
)
def test_step_heights_match_static_equilibrium(compliance, start, step):
    # quasi-static mechanics: while both chambers are pressurized, the heights
    # are the static equilibrium at the pressures of that instant.  A pouch
    # still filling from flat sits at ambient pressure, which reads as a
    # gauge of about 1e-10 kPa from rounding; it has no static counterpart.
    rig = dataclasses.replace(make_rig(), belt_compliance=compliance)
    series = step_simulate(rig, make_valves(), [(0.0, *start), (0.5, *step)], 1e-3, 2.0)
    for _, p1, p2, _, h2 in series[::50]:
        if min(p1, p2) > 1e-6 and h2 > rig.deflated_floor:
            assert h2 == pytest.approx(solve_equilibrium(rig, p1, p2).h2, abs=0.1)


def test_halving_dt_changes_little():
    rig = make_rig()
    sched = [(0.0, 0.0, 0.0), (0.5, 0.0, 60.0)]
    a = step_simulate(rig, make_valves(), sched, 2e-3, 4.0)
    b = step_simulate(rig, make_valves(), sched, 1e-3, 4.0)
    assert a[-1, 4] == pytest.approx(b[-1, 4], abs=0.2)


def test_schedule_validation():
    rig = make_rig()
    with pytest.raises(ValueError):
        step_simulate(rig, make_valves(), [], 1e-3, 1.0)
    with pytest.raises(ValueError):
        step_simulate(rig, make_valves(), [(1.0, 0, 0), (0.5, 0, 0)], 1e-3, 2.0)
    with pytest.raises(ValueError):
        step_simulate(rig, make_valves(), [(0.0, 0, 0)], 0.1, 1.0)


def test_deflated_start_reports_floor_height():
    rig = make_rig()
    series = step_simulate(rig, make_valves(), [(0.0, 0.0, 0.0)], 1e-3, 0.5)
    assert series[0, 4] == pytest.approx(rig.deflated_floor)


# --- resampling and rise time ---------------------------------------------

def test_resample_row_count():
    t = np.linspace(0.0, 3.0, 3001)
    series = np.column_stack([t, np.sin(t)])
    out = resample_16hz(series)
    assert out.shape[0] == 3 * 16 + 1
    assert out[0, 0] == 0.0
    assert out[-1, 0] == pytest.approx(3.0)


def test_resample_preserves_linear_signal():
    t = np.linspace(0.0, 2.0, 1001)
    series = np.column_stack([t, 5.0 * t + 1.0])
    out = resample_16hz(series)
    assert np.allclose(out[:, 1], 5.0 * out[:, 0] + 1.0)


def test_rise_time_of_exponential():
    t = np.linspace(0.0, 10.0, 10001)
    tau = 1.0
    y = 1.0 - np.exp(-t / tau)
    series = np.column_stack([t, np.zeros_like(t), np.zeros_like(t), np.zeros_like(t), y])
    # 90% of the 0 -> (1 - e^-10) swing
    expected = -tau * math.log(1.0 - 0.9 * (1.0 - math.exp(-10.0)))
    assert rise_time_90(series) == pytest.approx(expected, abs=0.01)
