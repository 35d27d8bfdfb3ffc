"""Valve flow law and chamber time-stepping."""

import dataclasses
import math
import sys
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from afpa_sim import pneumatics, rig as rig_mod
from afpa_sim.config import default_config_path, load_config
from afpa_sim.pneumatics import (
    P_ATM_KPA,
    R_AIR,
    RHO_REF,
    T_AMBIENT,
    IntegrationError,
    ValveSpec,
    MIN_HEIGHT_MM,
    _fill_masses,
    _free_expansion_height,
    _gas_volume,
    _side_force_from_mass,
    _solve_heights,
    resample_16hz,
    rise_time_90,
    step_simulate,
    valve_mass_flow,
)
from afpa_sim.pouch import KPA_MM2_TO_N, PouchStackSpec, free_height
from afpa_sim.rig import (ROOT_XTOL_MM, RigDomainError, RigSpec, _rising_root, belt_balance,
                          solve_equilibrium)


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
    # the reversed flow is the same expression with its sign flipped: exact
    v = ValveSpec(sonic_conductance=1e-10)
    assert valve_mass_flow(v, up, down, opening) == -valve_mass_flow(v, down, up, opening)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -5.0])
@pytest.mark.parametrize("side", ["upstream", "downstream"])
def test_flow_rejects_out_of_model_pressures(side, bad):
    # a NaN downstream gave 0.0, a NaN upstream NaN, an infinite one inf, and
    # non-positive absolute pressures a finite flow
    v = ValveSpec(sonic_conductance=1.3e-10)
    up, down = (bad, 100.0) if side == "upstream" else (400.0, bad)
    with pytest.raises(ValueError, match="positive and finite"):
        valve_mass_flow(v, up, down, 0.5)


def test_invalid_valve_spec_rejected():
    with pytest.raises(ValueError):
        ValveSpec(sonic_conductance=-1.0)
    with pytest.raises(ValueError):
        ValveSpec(sonic_conductance=1e-10, critical_ratio=1.5)
    with pytest.raises(ValueError):
        ValveSpec(sonic_conductance=1e-10, command_lag=0.0)


@pytest.mark.parametrize("supply, exhaust", [(50.0, P_ATM_KPA), (P_ATM_KPA, P_ATM_KPA),
                                             (200.0, 300.0)])
def test_supply_not_above_exhaust_rejected(supply, exhaust):
    # no supply at or below the exhaust can fill a chamber: a 50 kPa absolute
    # supply once ran a 90 kPa command with both gauges at 0, and no error
    match = f"supply_pressure {supply} kPa .* exhaust_pressure {exhaust} kPa"
    with pytest.raises(ValueError, match=match):
        ValveSpec(sonic_conductance=1e-10, supply_pressure=supply, exhaust_pressure=exhaust)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ValveSpec)])
def test_non_finite_valve_spec_rejected(name, value):
    # each check is a comparison, which a NaN fails silently: a NaN conductance,
    # supply or lag, or an infinite conductance or exhaust, once built a spec
    # whose run ended in an IntegrationError
    fields = {"sonic_conductance": 1e-10, name: value}
    with pytest.raises(ValueError, match=name):
        ValveSpec(**fields)


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


def test_compliant_step_keeps_h1_below_free_height():
    # the interior branch of the balance caps h1 as its pinned branch does;
    # uncapped, the belt stretch put h1 above the free height by the root tolerance
    rig = dataclasses.replace(make_rig(), belt_compliance=0.5)
    series = step_simulate(rig, make_valves(), [(0.0, 3.0, 3.8e-99)], 1e-3, 2.0)
    assert np.all(series[:, 3] <= free_height(rig.modulating))


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
    with pytest.raises(ValueError, match="t_end"):
        step_simulate(rig, make_valves(), [(0.0, 0, 0)], 1e-3, 1e18)
    # every entry is checked, not only the one the run starts from; a NaN
    # command used to close the valve without a message
    with pytest.raises(ValueError, match="finite"):
        step_simulate(rig, make_valves(), [(0.0, 10, 10), (math.nan, 10, 10)], 1e-3, 1.0)
    for bad in (math.nan, 1e6, -50.0, math.inf):
        with pytest.raises(RigDomainError, match="p1 at t=0.5 s"):
            step_simulate(rig, make_valves(), [(0.0, 10, 10), (0.5, bad, 10)], 1e-3, 1.0)
        with pytest.raises(RigDomainError, match="p2 at t=0.5 s"):
            step_simulate(rig, make_valves(), [(0.0, 10, 10), (0.5, 10, bad)], 1e-3, 1.0)


def test_slack_chamber_reads_zero_gauge():
    # a chamber below its free height on a slack belt has expanded at ambient
    # pressure until its volume holds the gas: its gauge is 0, not rounding
    rig = make_rig()
    series = step_simulate(rig, make_valves(), [(0.0, 0.0, 0.0), (0.5, 3.0, 11.0)], 1e-3, 4.0)
    slack = series[series[:, 3] + series[:, 4] < rig.belt_span - 1e-6]
    assert len(slack) > 100
    for spec, p, h in ((rig.modulating, slack[:, 1], slack[:, 3]),
                       (rig.morphing, slack[:, 2], slack[:, 4])):
        assert np.all(p[h < free_height(spec)] == 0.0)


def abs_pressure(mass: float, gas: float) -> float:
    """Isothermal absolute pressure (kPa) of a gas mass (kg) in a volume (m^3): the gas law
    that the side force and the gauges write out, which they must equal bit for bit."""
    return mass * R_AIR * T_AMBIENT / gas * 1e-3


def mass_at(spec: PouchStackSpec, gauge: float, height: float) -> float:
    """Gas mass (kg) of a chamber holding the given gauge (kPa) at a height (mm)."""
    return (gauge + P_ATM_KPA) * 1e3 * _gas_volume(spec, height)[0] / (R_AIR * T_AMBIENT)


def cold_free_expansion(spec: PouchStackSpec, mass: float) -> float:
    """The free-expansion height by its two end tests, the free height first, then the root."""
    target = mass * R_AIR * T_AMBIENT / (P_ATM_KPA * 1e3)

    def excess(h):
        gas, area, _ = _gas_volume(spec, h)
        return gas - target, area * 1e-9

    return _rising_root(excess, MIN_HEIGHT_MM, None, spec.free_height, None)


def floor_gas(rig: RigSpec) -> list[tuple[float, float, float]]:
    return [_gas_volume(spec, MIN_HEIGHT_MM) for spec in (rig.modulating, rig.morphing)]


@settings(max_examples=150, deadline=None)
@given(
    w=st.floats(10.0, 80.0),
    length=st.floats(20.0, 400.0),
    n=st.integers(1, 5),
    end_caps=st.booleans(),
    gauge=st.floats(0.0, 150.0),
    fill=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0),
)
def test_mass_side_force_slope_matches_central_difference(w, length, n, end_caps, gauge,
                                                          fill, frac):
    spec = PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                          end_cap_correction=end_caps)
    hf = free_height(spec)
    mass = mass_at(spec, gauge, 0.5 + fill * (hf - 1.0))
    h = 0.5 + frac * (hf - 1.0)
    # 0.5 mm from the free height, the floor and the free-expansion kink
    assume(abs(h - cold_free_expansion(spec, mass)) >= 0.5)
    e = 1e-3
    slope = (_side_force_from_mass(spec, mass, h + e)[0]
             - _side_force_from_mass(spec, mass, h - e)[0]) / (2 * e)
    assert _side_force_from_mass(spec, mass, h)[1] == pytest.approx(slope, rel=1e-4, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    w=st.floats(10.0, 80.0),
    length=st.floats(20.0, 400.0),
    n=st.integers(1, 5),
    end_caps=st.booleans(),
    gauge=st.floats(-5.0, 150.0),
    fill=st.floats(0.0, 1.0),
    # a fraction of the free height, up to it or past it, or else a height at,
    # below (clamped) or near the floor
    frac=st.floats(0.0, 1.2) | st.just(1.0),
    floor=st.none() | st.sampled_from([0.0, 1e-9, MIN_HEIGHT_MM]) | st.floats(0.0, 1e-3),
)
def test_side_force_reads_one_gas_law(w, length, n, end_caps, gauge, fill, frac, floor):
    # the gas volume, its slope and the gauge of a side force are those of
    # _gas_volume and abs_pressure, bit for bit, the floor clamp included
    spec = PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                          end_cap_correction=end_caps)
    hf = spec.free_height
    height = frac * hf if floor is None else floor
    mass = mass_at(spec, gauge, MIN_HEIGHT_MM + fill * (hf - MIN_HEIGHT_MM))
    out = _side_force_from_mass(spec, mass, height)
    if height >= hf:
        assert out == (0.0, 0.0)
        return
    gas, area, _ = _gas_volume(spec, height)
    assert out[2:] == (gas, area * 1e-9)
    gauge = abs_pressure(mass, gas) - P_ATM_KPA
    assert out[0] == (gauge * area * KPA_MM2_TO_N if gauge > 0.0 else 0.0)


@settings(max_examples=150, deadline=None)
@given(
    compliance=st.floats(0.0, 0.5),
    gauges=st.tuples(st.floats(-1.0, 120.0), st.floats(-1.0, 120.0)),
    fills=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    guess=st.floats(0.0, 100.0),
)
def test_warm_started_heights_match_cold_solve(compliance, gauges, fills, guess):
    rig = dataclasses.replace(make_rig(), belt_compliance=compliance)
    m1, m2 = (mass_at(spec, g, f * free_height(spec))
              for spec, g, f in zip((rig.modulating, rig.morphing), gauges, fills))
    fills = _fill_masses(rig)
    floors = floor_gas(rig)
    warm = _solve_heights(rig, m1, m2, fills, floors, guess=guess)[:2]
    assert warm == pytest.approx(_solve_heights(rig, m1, m2, fills, floors)[:2], abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    widths=st.tuples(st.floats(10.0, 80.0), st.floats(10.0, 80.0)),
    lengths=st.tuples(st.floats(20.0, 400.0), st.floats(20.0, 400.0)),
    counts=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    end_caps=st.booleans(),
    span=st.floats(20.0, 300.0),
    compliance=st.floats(0.0, 0.5),
    gauges=st.tuples(st.floats(-1.0, 120.0), st.floats(-1.0, 120.0)),
    fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_fill_mass_gate_matches_cold_free_expansion(widths, lengths, counts, end_caps, span,
                                                    compliance, gauges, fractions):
    # a chamber at or above its fill mass rests taut: its free-expansion
    # height, capped by the belt, is the cap, so the gate may skip the root
    specs = [PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                            end_cap_correction=end_caps)
             for w, length, n in zip(widths, lengths, counts)]
    rig = RigSpec(modulating=specs[0], morphing=specs[1], belt_span=span,
                  belt_compliance=compliance)
    masses = [mass_at(spec, g, f * spec.free_height)
              for spec, g, f in zip(specs, gauges, fractions)]
    cap = span - MIN_HEIGHT_MM
    for spec, m, fill in zip(specs, masses, _fill_masses(rig)):
        assume(abs(m - fill) > 1e-6 * fill)  # the root's tolerance decides a near tie
        capped = min(cold_free_expansion(spec, m), cap)
        assert (m >= fill) == (capped == pytest.approx(min(spec.free_height, cap), abs=1e-6))
    # every chamber's root solved, as without the gate: the bracket ends are
    # the same, so the heights are too.  The gauges are read from the
    # balance's last evaluation, carried to the returned height to first order
    sides = list(zip(specs, masses))
    free = [cold_free_expansion(spec, m) for spec, m in sides]
    b = belt_balance(_side_force_from_mass, *sides[0], *sides[1], min(free[0], cap),
                     min(free[1], cap), span, compliance)
    h1, h2 = b.h1, b.h2
    cold_gauges = [0.0 if h == x < spec.free_height
                   else abs_pressure(m, _gas_volume(spec, h)[0]) - P_ATM_KPA
                   for (spec, m), h, x in zip(sides, (h1, h2), free)]
    heights = _solve_heights(rig, *masses, _fill_masses(rig), floor_gas(rig))
    assert heights[:2] == (h1, h2)
    assert heights[2:4] == pytest.approx(cold_gauges, rel=1e-12)


# a guess as a fraction of its bracket, in and out of it, an end by name, or none
GUESSES = st.floats(-0.2, 1.2) | st.sampled_from(["lo", "hi", None, math.nan, math.inf])


def at(guess, lo: float, hi: float):
    """The drawn guess in the bracket [lo, hi]."""
    if guess in ("lo", "hi"):
        return lo if guess == "lo" else hi
    return lo + guess * (hi - lo) if isinstance(guess, float) and math.isfinite(guess) else guess


@settings(max_examples=300, deadline=None)
@given(
    widths=st.tuples(st.floats(10.0, 80.0), st.floats(10.0, 80.0)),
    lengths=st.tuples(st.floats(20.0, 400.0), st.floats(20.0, 400.0)),
    counts=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    end_caps=st.booleans(),
    span_frac=st.floats(0.2, 1.0),
    compliance=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5),
    gauges=st.tuples(st.floats(-1.0, 120.0), st.floats(-1.0, 120.0)),
    fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    guess=GUESSES,
    free_guesses=st.tuples(GUESSES, GUESSES),
)
# an interior balance whose last f2 evaluation is 8.51e-8 mm from h2, where f2'' is
# 2770 N/mm^2: the first-order carry of the tension is 1.00e-11 N off a fresh f2,
# which a fixed bound of 1e-11 N failed
@example(widths=(58.0, 59.0), lengths=(21.0, 162.0), counts=(1, 2), end_caps=False,
         span_frac=0.25, compliance=0.5, gauges=(2.0, 1.0), fractions=(1.0, 0.0), guess=0.0,
         free_guesses=(0.0, 0.0))
def test_reads_from_last_evaluation_match_fresh(widths, lengths, counts, end_caps, span_frac,
                                                compliance, gauges, fractions, guess,
                                                free_guesses):
    # the gauges and the tension are read from the balance's last evaluation,
    # carried to the returned heights to first order: a fresh evaluation there
    # agrees, from any guess, on every branch of the balance
    specs = [PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                            end_cap_correction=end_caps)
             for w, length, n in zip(widths, lengths, counts)]
    span = span_frac * (specs[0].free_height + specs[1].free_height)
    rig = RigSpec(modulating=specs[0], morphing=specs[1], belt_span=span,
                  belt_compliance=compliance)
    masses = [mass_at(spec, g, f * spec.free_height)
              for spec, g, f in zip(specs, gauges, fractions)]
    fills, floors = _fill_masses(rig), floor_gas(rig)
    cap = span - MIN_HEIGHT_MM
    x1, x2 = (min(cold_free_expansion(spec, m), cap) for spec, m in zip(specs, masses))
    lo, hi = max(1e-9, span - x1), min(x2, span)
    h1, h2, g1, g2, *free = _solve_heights(
        rig, *masses, fills, floors, at(guess, lo, hi),
        *[at(g, MIN_HEIGHT_MM, spec.free_height) for g, spec in zip(free_guesses, specs)])
    gauges = g1, g2
    fresh = [0.0 if h == x < spec.free_height
             else abs_pressure(m, _gas_volume(spec, h)[0]) - P_ATM_KPA
             for spec, m, h, x in zip(specs, masses, (h1, h2), free)]
    assert gauges == pytest.approx(fresh, rel=1e-12, abs=1e-11)
    f2 = partial(_side_force_from_mass, specs[1], masses[1])
    b = belt_balance(_side_force_from_mass, specs[0], masses[0], specs[1], masses[1],
                     min(free[0], cap), min(free[1], cap), span, compliance,
                     guess=at(guess, lo, hi))
    b1, b2, tension = b.h1, b.h2, b.belt_tension
    assert (b1, b2) == (h1, h2)
    # bit for bit, each gauge is the gas law at its side's last evaluated gas
    # volume carried to its height, where that lies within ROOT_XTOL_MM and
    # holds a volume, else at a fresh _gas_volume; 0 where the chamber rests at
    # its free-expansion height below the free height
    for spec, m, h, x, last, gauge in zip(specs, masses, (h1, h2), free, (b.side1, b.side2),
                                          gauges):
        if h == x < spec.free_height:
            assert gauge == 0.0
        elif last and len(last[1]) > 3 and abs(h - last[0]) <= ROOT_XTOL_MM:
            assert gauge == abs_pressure(m, last[1][2] + last[1][3] * (h - last[0])) - P_ATM_KPA
        else:
            event("a gauge from a fresh gas volume")
            assert gauge == abs_pressure(m, _gas_volume(spec, h)[0]) - P_ATM_KPA
    interior = max(1e-9, span - min(free[0], cap)) < h2 < min(free[1], cap, span)
    event("slack" if sum(map(min, free, (cap, cap))) < span else "interior" if interior
          else "riding" if h2 == min(free[1], cap, span) else "squashed")
    event("stretched" if compliance and tension and not interior else "no stretch")
    if interior:
        # bit for bit, f2's last evaluation, at x within ROOT_XTOL_MM of h2, carried to
        # h2 by its slope; an evaluation at h2 itself where the root's last was farther
        x, (t_x, k_x, *_) = b.side2
        assert abs(h2 - x) <= ROOT_XTOL_MM and tension == t_x + k_x * (h2 - x)
        # carried from f2's last evaluation, at x, to first order: off by under
        # |h2 - x| |f2'(h2) - f2'(x)|, f2' being monotone over so short a step,
        # plus an evaluation's rounding, about 1e-16 of the absolute pressure on
        # the flat pouch (the gauge and the contact area both cancel)
        force, slope = f2(h2)[:2]
        carry = abs(h2 - x) * abs(slope - f2(x)[1])
        flat = specs[1].flat_width * specs[1].flat_length
        assert abs(tension - force) <= carry + 1e-15 * (P_ATM_KPA + fresh[1]) * flat * KPA_MM2_TO_N


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("record", ["near", "far", "no volume", "none"])
def test_gauge_carries_only_a_near_record_with_a_volume(monkeypatch, side, record):
    # one side's balance record is moved 0.5 or 2 ROOT_XTOL_MM below its
    # height, stripped of its gas volume, or dropped: the gauge is the gas law
    # at the record's gas volume carried to the height where the record lies
    # within ROOT_XTOL_MM and holds one, else at a fresh _gas_volume
    rig = make_rig()
    spec = (rig.modulating, rig.morphing)[side]
    masses = [mass_at(s, 30.0, 40.0) for s in (rig.modulating, rig.morphing)]
    balance, solved = pneumatics.belt_balance, []

    def moved(*args, **kwargs):
        b = balance(*args, **kwargs)
        h, values = b[side], b[4 + side][1]
        solved.append((b, near := h - 0.5 * ROOT_XTOL_MM))
        last = {"near": (near, values), "far": (h - 2.0 * ROOT_XTOL_MM, values),
                "no volume": (h, values[:2]), "none": None}[record]
        return b._replace(**{f"side{side + 1}": last})

    monkeypatch.setattr(pneumatics, "belt_balance", moved)
    out = _solve_heights(rig, *masses, _fill_masses(rig), floor_gas(rig))
    ((b, near),) = solved
    assert b.branch == "interior"
    h, values = out[side], b[4 + side][1]
    gas = values[2] + values[3] * (h - near) if record == "near" else _gas_volume(spec, h)[0]
    assert out[2 + side] == abs_pressure(masses[side], gas) - P_ATM_KPA
    assert gas != _gas_volume(spec, h)[0] or record != "near"  # the two readings differ here


def test_tension_beyond_the_last_evaluation_is_evaluated_anew():
    # a valve step's balance whose root is a Newton step from the guess, taken
    # after the bracket's end x2 was evaluated: f2's last evaluation lies 13 mm
    # from h2, so the tension is f2(h2) itself, and the record keeps that evaluation
    rig = make_rig()
    heights = []

    def side(spec, mass, h):
        if spec is rig.morphing:
            heights.append(h)
        return _side_force_from_mass(spec, mass, h)

    m2 = 3.9630484758598034e-05
    b = belt_balance(side, rig.modulating, 6.37141951125417e-05, rig.morphing, m2,
                     76.39437268410977, 51.077319679916656, 90.0, 0.09050766451524318,
                     guess=37.60363383597689)
    assert b.branch == "interior"
    assert abs(heights[-2] - b.h2) > ROOT_XTOL_MM and heights[-1] == b.h2
    assert b.side2 == (b.h2, _side_force_from_mass(rig.morphing, m2, b.h2))
    assert b.belt_tension == b.side2[1][0]


# a guess's offset from the cold root, in ROOT_XTOL_MM: the root itself, the
# tolerance either side, or a point in between
NEAR_ROOT = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    widths=st.tuples(st.floats(10.0, 80.0), st.floats(10.0, 80.0)),
    lengths=st.tuples(st.floats(20.0, 400.0), st.floats(20.0, 400.0)),
    counts=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    end_caps=st.booleans(),
    span_frac=st.floats(0.2, 1.0),
    compliance=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5),
    gauges=st.tuples(st.floats(-1.0, 120.0), st.floats(-1.0, 120.0)),
    fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    offsets=st.tuples(NEAR_ROOT, NEAR_ROOT, NEAR_ROOT),
)
def test_guess_near_the_root_matches_cold_solve(widths, lengths, counts, end_caps, span_frac,
                                                compliance, gauges, fractions, offsets):
    # a guess whose Newton step is within ROOT_XTOL_MM is taken as the root
    # after one evaluation, as the bracket loop takes such a step: from guesses at and
    # around the cold roots the heights stay within the tolerance of the cold
    # solve's, and the gauges read from that one evaluation match fresh ones
    specs = [PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                            end_cap_correction=end_caps)
             for w, length, n in zip(widths, lengths, counts)]
    span = span_frac * (specs[0].free_height + specs[1].free_height)
    rig = RigSpec(modulating=specs[0], morphing=specs[1], belt_span=span,
                  belt_compliance=compliance)
    masses = [mass_at(spec, g, f * spec.free_height)
              for spec, g, f in zip(specs, gauges, fractions)]
    fills, floors = _fill_masses(rig), floor_gas(rig)
    h1, h2, _, _, *free = _solve_heights(rig, *masses, fills, floors)
    guess, *free_guess = (x + d * ROOT_XTOL_MM for x, d in zip((h2, *free), offsets))
    w1, w2, *gauges, _, _ = _solve_heights(rig, *masses, fills, floors, guess, *free_guess)
    assert (w1, w2) == pytest.approx((h1, h2), rel=0.0, abs=ROOT_XTOL_MM)
    fresh = [0.0 if h == x < spec.free_height
             else abs_pressure(m, _gas_volume(spec, h)[0]) - P_ATM_KPA
             for spec, m, h, x in zip(specs, masses, (w1, w2), free)]
    assert gauges == pytest.approx(fresh, rel=1e-12, abs=1e-11)
    cap = span - MIN_HEIGHT_MM
    event("slack" if sum(map(min, free, (cap, cap))) < span
          else "interior" if max(1e-9, span - min(free[0], cap)) < h2 < min(free[1], cap, span)
          else "pinned")


@settings(max_examples=300, deadline=None)
@given(
    w=st.floats(10.0, 80.0),
    length=st.floats(20.0, 400.0),
    n=st.integers(1, 5),
    end_caps=st.booleans(),
    gauge=st.floats(-5.0, 150.0),
    height=st.floats(0.0, 100.0),
    guess=GUESSES,
)
def test_warm_free_expansion_matches_cold(w, length, n, end_caps, gauge, height, guess):
    spec = PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                          end_cap_correction=end_caps)
    mass = mass_at(spec, gauge, min(height, spec.free_height))
    floor = _gas_volume(spec, MIN_HEIGHT_MM)
    warm = _free_expansion_height(spec, mass, floor, at(guess, MIN_HEIGHT_MM, spec.free_height))
    cold = cold_free_expansion(spec, mass)
    # a chamber holding about its free-height gas has a double root at the free
    # height: there the gas volume is flat to rounding over more than the
    # tolerance, and both heights hold the same gas to rounding
    assert (warm == pytest.approx(cold, abs=ROOT_XTOL_MM)
            or _gas_volume(spec, warm)[0] == pytest.approx(_gas_volume(spec, cold)[0],
                                                           rel=1e-15, abs=0.0))


def count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Calls of the named ``pneumatics`` functions, counted from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, f=getattr(pneumatics, name), **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(pneumatics, name, counted)
    return calls


COUNTED_SCHEDULE = [(0.0, 10.0, 10.0), (1.0, 40.0, 60.0), (2.0, 80.0, 20.0)]


def test_side_force_evaluations_per_step(monkeypatch):
    # a fixed 3-command schedule; the derivative-free brentq balance needs
    # 27.46 side-force evaluations per valve step here, the warm start alone
    # 7.12 and 10.71 volume evaluations, evaluating the gauges, the tension
    # and the free-expansion roots anew 6.22 and 8.00, a secant guess
    # confirmed by a second evaluation 4.01 of each, and a balance solved on
    # every step, the first hold at rest included, 2.62
    calls = count_calls(monkeypatch, "_side_force_from_mass", "_volume_terms", "valve_mass_flow")
    series = step_simulate(make_rig(), make_valves(), COUNTED_SCHEDULE, 1e-3, 3.0)
    side_forces, volumes, _ = (n / (len(series) - 1) for n in calls.values())
    # the first hold rests from its first step, which fills its 998 later steps:
    # each of the other 2,002 steps evaluates each valve's flow once (a venting
    # flow that evaluated itself again, reversed, made 2.18 a step on step-stream)
    assert calls["valve_mass_flow"] == 2 * (len(series) - 1 - 998)
    assert side_forces <= 1.02 * 1.96
    assert side_forces < 2.62
    assert side_forces < 4.01
    assert side_forces < 27.46
    assert volumes <= 1.02 * 1.96
    assert volumes < 2.62
    assert volumes < 4.01
    assert volumes < 8.00


def test_compliant_side_force_evaluations_per_step(monkeypatch):
    # the same schedule on a belt of 0.3 mm/N, whose pinned balances also
    # solve the belt's stretch: 1.9447 side forces and 1.9567 volume
    # evaluations a step when the side force still called _gas_volume
    calls = count_calls(monkeypatch, "_side_force_from_mass", "_volume_terms", "valve_mass_flow")
    rig = dataclasses.replace(make_rig(), belt_compliance=0.3)
    series = step_simulate(rig, make_valves(), COUNTED_SCHEDULE, 1e-3, 3.0)
    side_forces, volumes, _ = (n / (len(series) - 1) for n in calls.values())
    assert calls["valve_mass_flow"] == 4004
    assert side_forces <= 1.02 * 1.9447
    assert volumes <= 1.02 * 1.9567


def test_python_calls_per_solving_step():
    # every Python-level call of the run (the profiler's "call" events; builtins
    # and C functions make "c_call"s), per _solve_heights call: 24,769 calls over
    # 2,002 solves, valve flows and the run's set-up included.  The count does not
    # depend on the machine, so a call layer added to the valve step fails here
    rig, valves = make_rig(), make_valves()
    step_simulate(rig, valves, COUNTED_SCHEDULE, 1e-3, 3.0)  # numpy loaded, as in a run
    calls = dict.fromkeys(["all", "_solve_heights"], 0)

    def counted(frame, event, arg):
        if event == "call":
            calls["all"] += 1
            calls["_solve_heights"] += frame.f_code is _solve_heights.__code__

    profile = sys.getprofile()
    sys.setprofile(counted)
    try:
        step_simulate(rig, valves, COUNTED_SCHEDULE, 1e-3, 3.0)
    finally:
        sys.setprofile(profile)
    assert calls["_solve_heights"] == 2002
    assert calls["all"] / calls["_solve_heights"] <= 24_769 / 2_002


def test_each_balance_passes_one_module_level_side_law(monkeypatch):
    # the equilibrium, the probe and the valve step pass belt_balance their
    # module's side law itself, no function built per side, then each stack
    # with its own pressure or gas mass, side 1 first
    rig = make_rig()
    balance, solve, calls, masses = rig_mod.belt_balance, pneumatics._solve_heights, [], []

    def recorded(*args, **kwargs):
        calls.append(args[:5])
        return balance(*args, **kwargs)

    def solved(rig, m1, m2, *args):
        masses.append((m1, m2))
        return solve(rig, m1, m2, *args)

    monkeypatch.setattr(rig_mod, "belt_balance", recorded)
    monkeypatch.setattr(pneumatics, "belt_balance", recorded)
    monkeypatch.setattr(pneumatics, "_solve_heights", solved)
    eq = solve_equilibrium(rig, 20.0, 30.0)
    rig_mod._probe(rig, 20.0, 30.0, eq, 0.5 * eq.h2)
    by_pressure = (rig_mod._side_force, rig.modulating, 20.0, rig.morphing, 30.0)
    assert calls == [by_pressure, by_pressure]
    calls.clear()
    step_simulate(rig, make_valves(), [(0.0, 10.0, 10.0), (0.001, 40.0, 60.0)], 1e-3, 0.005)
    assert len(masses) == 6 and all(m1 != m2 for m1, m2 in masses)
    assert calls == [(rig_mod._side_force, rig.modulating, 10.0, rig.morphing, 10.0)] + [
        (_side_force_from_mass, rig.modulating, m1, rig.morphing, m2) for m1, m2 in masses]
    assert all(law is rig_mod._side_force or law is pneumatics._side_force_from_mass
               for law, *_ in calls)


def test_settled_step_evaluates_the_balance_once(monkeypatch):
    # the balance is a function of the gas masses, so a step whose masses
    # repeat those of the last balance keeps it and evaluates no side force;
    # a balance solved anew on each such step made 2 evaluations, one a side
    calls = count_calls(monkeypatch, "_side_force_from_mass", "valve_mass_flow")
    solved = []
    solve_heights = pneumatics._solve_heights

    def logged(rig, m1, m2, *args):
        before = calls["_side_force_from_mass"]
        out = solve_heights(rig, m1, m2, *args)
        solved.append(((m1, m2), calls["_side_force_from_mass"] - before))
        return out

    monkeypatch.setattr(pneumatics, "_solve_heights", logged)
    series = step_simulate(make_rig(), make_valves(), [(0.0, 10.0, 10.0), (0.5, 40.0, 60.0)],
                           1e-3, 1.0)
    assert all(masses != before for (masses, _), (before, _) in zip(solved[1:], solved))
    assert calls["_side_force_from_mass"] == sum(n for _, n in solved)
    assert len(solved) <= len(series) - 1 - 400  # the hold before the step solves nothing
    # a run held at rest to t_end solves its start and simulates one step: it
    # evaluates the valve flows as often as a one-step run, once per valve
    solved.clear()
    calls.update(dict.fromkeys(calls, 0))
    series = step_simulate(make_rig(), make_valves(), [(0.0, 10.0, 10.0)], 1e-3, 1.0)
    flows = calls["valve_mass_flow"]
    assert len(solved) == 1 and np.all(series[:, 1:] == series[0, 1:])
    calls.update(dict.fromkeys(calls, 0))
    step_simulate(make_rig(), make_valves(), [(0.0, 10.0, 10.0)], 1e-3, 1e-3)
    assert flows == calls["valve_mass_flow"] == 2


@st.composite
def command_schedules(draw):
    """1-3 commands, the first at t = 0 or later, each after a gap of whole
    milliseconds, of none, of 5e-13 s or 2e-12 s (either side of the 1e-12 s a
    command may lead its step by), or of 1 s (after any run's end)."""
    pressure = st.sampled_from([0.0, 3.8e-99]) | st.floats(0.0, 100.0)
    gap = (st.sampled_from([0.0, 5e-13, 2e-12, 1.0])
           | st.integers(1, 150).map(lambda ms: ms * 1e-3))
    t, schedule = draw(st.just(0.0) | gap), []
    for _ in range(draw(st.integers(1, 3))):
        schedule.append((t, draw(pressure), draw(pressure)))
        t += draw(gap)
    return schedule


def stepwise(schedule, dt: float, t_end: float) -> list:
    """The schedule with its command in force at each step time k * dt repeated there: the
    last whose time is at most the step's, to within 1e-12 s, else the first."""
    out = []
    for k in range(round(t_end / dt) + 1):
        cmd = schedule[0][1:]
        for t, *c in schedule:
            if t <= k * dt + 1e-12:
                cmd = tuple(c)
        out.append((k * dt, *cmd))
    return out


@settings(max_examples=40, deadline=None)
@given(compliance=st.just(0.0) | st.floats(0.1, 0.5), schedule=command_schedules(),
       dt=st.sampled_from([1e-3, 2e-3, 5e-4]), t_ends=st.tuples(st.integers(0, 300),
                                                                  st.integers(1, 100)))
# a command step so small that the lagged command moves for steps before any gas does
@example(compliance=0.0, schedule=[(0.0, 10.0, 10.0), (0.01, 10.0 + 3e-12, 10.0)], dt=1e-3,
         t_ends=(20, 100))
# a first command after t = 0, equal times, a 2e-12 s gap and a command after t_end
@example(compliance=0.0, schedule=[(2e-12, 10.0, 10.0), (0.01, 0.0, 30.0), (0.01, 10.0, 10.0),
                                   (0.02 + 2e-12, 40.0, 20.0), (1.0, 0.0, 0.0)],
         dt=1e-3, t_ends=(20, 100))
# commands within 1e-12 s after a step hold from that step, the second from step 0
@example(compliance=0.0, schedule=[(0.0, 0.0, 30.0), (5e-13, 10.0, 10.0),
                                   (0.01 + 5e-13, 40.0, 20.0)], dt=1e-3, t_ends=(20, 100))
def test_runs_at_rest_repeat_their_state(compliance, schedule, dt, t_ends):
    # a hold at rest is filled with the state of its first step, not stepped
    # through: the rows equal a step-by-step run's, one whose command changes
    # (to itself) on every step, so that no hold is filled and none ends early;
    # a longer run starts with the shorter one's rows, the time column is
    # i * dt, and a run that starts at rest keeps row 0 until the command changes
    rig = dataclasses.replace(make_rig(), belt_compliance=compliance)
    t1, t2 = t_ends[0] * 1e-3, sum(t_ends) * 1e-3
    short = step_simulate(rig, make_valves(), schedule, dt, t1)
    rows = step_simulate(rig, make_valves(), schedule, dt, t2)
    assert np.array_equal(step_simulate(rig, make_valves(), stepwise(schedule, dt, t2), dt, t2),
                          rows)
    assert np.array_equal(rows[:len(short)], short)
    assert np.array_equal(rows[:, 0], np.arange(len(rows)) * dt)
    with mock.patch.object(pneumatics, "_solve_heights", wraps=pneumatics._solve_heights) as solve:
        step_simulate(rig, make_valves(), schedule, dt, dt)
    event(f"starts at rest: {solve.call_count == 1}")
    if solve.call_count == 1:  # the first step moved no gas
        change = next((t for t, *cmd in schedule if cmd != list(schedule[0][1:])), math.inf)
        held = rows[rows[:, 0] + 1e-12 < change, 1:]
        assert np.array_equal(held, np.broadcast_to(rows[0, 1:], held.shape))


@settings(max_examples=200, deadline=None)
@given(
    w=st.floats(10.0, 80.0),
    length=st.floats(20.0, 400.0),
    n=st.integers(1, 5),
    end_caps=st.booleans(),
    gauge=st.floats(-5.0, 150.0),
    height=st.just(MIN_HEIGHT_MM) | st.floats(0.0, 1e-3) | st.floats(0.0, 100.0),
)
def test_floor_threshold_matches_cold_free_expansion(w, length, n, end_caps, gauge, height):
    # the gas at the floor, computed once, decides by the same rule as the
    # floor's own evaluation: deflated chambers and roots are bit for bit
    spec = PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                          end_cap_correction=end_caps)
    mass = mass_at(spec, gauge, min(height, spec.free_height))
    floor = _gas_volume(spec, MIN_HEIGHT_MM)
    assert _free_expansion_height(spec, mass, floor) == cold_free_expansion(spec, mass)


def test_gas_volume_evaluations_per_deflated_step(monkeypatch):
    # the morphing chamber fills from its deflated residue while the
    # modulating one stays deflated; each gas volume is a _volume_terms
    # call.  Evaluating the floor in every free-expansion call took 7.54
    # evaluations per step here, cold free-expansion roots with fresh gauges
    # 4.29, and a secant guess confirmed by a second evaluation 3.00
    calls = count_calls(monkeypatch, "_volume_terms")
    series = step_simulate(make_rig(), make_valves(), [(0.0, 0.0, 0.0), (0.5, 0.0, 90.0)],
                           1e-3, 2.0)
    assert series[-1, 3] == MIN_HEIGHT_MM and series[-1, 4] > 30.0  # expanded to 32 mm
    per_step = calls["_volume_terms"] / (len(series) - 1)
    assert per_step <= 1.02 * 0.914
    assert per_step < 3.00
    assert per_step < 4.29
    assert per_step < 7.54
    # the other way round, the modulating chamber's root starts from its
    # prediction: 1.1235 evaluations a step
    calls["_volume_terms"] = 0
    series = step_simulate(make_rig(), make_valves(), [(0.0, 0.0, 0.0), (0.5, 90.0, 0.0)],
                           1e-3, 2.0)
    assert series[-1, 2] == 0.0 and series[-1, 1] > 80.0  # at 84 kPa
    assert calls["_volume_terms"] / (len(series) - 1) <= 1.02 * 1.1235


@pytest.mark.parametrize("name", ["g1", "g2", "m1", "m2", "h1", "h2"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_each_non_finite_state_raises(monkeypatch, name, bad):
    # a solving step checks each of the six values it made: one of them
    # non-finite, the others finite, stops the run at that step.  A mass is
    # made so by its valve's flow, and solved as the last finite masses
    valves = make_valves()
    solve, flow = pneumatics._solve_heights, pneumatics.valve_mass_flow
    finite, solves, flows = [], [], []

    def solved(rig, m1, m2, *args):
        if math.isfinite(m1) and math.isfinite(m2):
            finite[:] = m1, m2
        h1, h2, g1, g2, x1, x2 = solve(rig, *finite, *args)
        state = {"g1": g1, "g2": g2, "h1": h1, "h2": h2}
        solves.append(m1)
        if len(solves) == 5 and name in state:  # step 4's, after the start's
            state[name] = bad
        return state["h1"], state["h2"], state["g1"], state["g2"], x1, x2

    def flowed(valve, *args):
        flows.append(valve)
        if name in ("m1", "m2") and len(flows) == 7 + (name == "m2"):  # step 4's, each valve's
            assert valve is valves[name == "m2"]
            return bad
        return flow(valve, *args)

    monkeypatch.setattr(pneumatics, "_solve_heights", solved)
    monkeypatch.setattr(pneumatics, "valve_mass_flow", flowed)
    with pytest.raises(IntegrationError, match=r"t=0\.0040 s with dt=0\.001 s"):
        step_simulate(make_rig(), valves, [(0.0, 10.0, 10.0), (0.001, 40.0, 60.0)], 1e-3, 0.05)


def test_solve_after_a_filled_hold_predicts_the_rest_state(monkeypatch):
    # a step-by-step run holds the rest state at each of its last three steps
    # once a hold has rested two steps, so the first solve after a hold filled
    # at rest is predicted at that state: here the masses move on steps 1-5
    # and from step 50, the second command's first, and rest in between
    solve, solves, flows = pneumatics._solve_heights, [], []

    def solved(rig, m1, m2, fills, floors, guess=None, free1=None, free2=None):
        out = solve(rig, m1, m2, fills, floors, guess, free1, free2)
        solves.append((guess, out[1]))
        return out

    def flowed(valve, *args):
        flows.append(valve)
        return 1e-9 if len(flows) <= 10 or len(flows) > 12 else 0.0  # step 6 rests

    monkeypatch.setattr(pneumatics, "_solve_heights", solved)
    monkeypatch.setattr(pneumatics, "valve_mass_flow", flowed)
    step_simulate(make_rig(), make_valves(), [(0.0, 10.0, 10.0), (0.05, 10.0, 10.0)], 1e-3, 0.05)
    assert len(solves) == 7  # the start, steps 1-5 and step 50
    assert solves[4][1] != solves[5][1]  # the last two steps before the rest moved h2
    assert solves[6][0] == solves[5][1]


def test_runaway_mass_update_raises_integration_error():
    # a conductance so large that the first step's flow carries each chamber's
    # mass above 1e287 kg and the next vents it to -inf: that step stops the
    # run, while its gauges and heights, at the deflated floor, are finite
    config = load_config(default_config_path())
    valve = ValveSpec(sonic_conductance=1e300)
    with pytest.raises(IntegrationError, match=r"t=0\.0020 s with dt=0\.001 s"):
        step_simulate(config.rig, (valve, valve), [(0.0, 10.0, 10.0), (0.01, 90.0, 10.0)],
                      1e-3, 0.05)


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


def test_rise_time_counts_from_the_first_sample():
    # a series cut at its step, t0 = 0.5 s, rises as fast as one that starts at 0
    t = np.linspace(0.0, 10.0, 10001)
    y = 1.0 - np.exp(-t)
    series = np.column_stack([t, np.zeros((10001, 3)), y])
    late = series.copy()
    late[:, 0] += 0.5
    assert rise_time_90(late) == pytest.approx(rise_time_90(series), abs=1e-12)
    assert rise_time_90(series) == pytest.approx(2.302, abs=1e-3)


def test_rise_time_of_flat_series_is_zero():
    # no change of h2, so no 90% point: 0, not the first sample's time
    t = np.linspace(0.5, 2.0, 7)
    series = np.column_stack([t, np.zeros((7, 3)), np.full(7, 40.0)])
    assert rise_time_90(series) == 0.0


def test_rise_time_of_overflowing_change_is_inf():
    # the one way to a fraction that never reaches 0.9: h2's change overflows,
    # so the last sample's fraction is inf / inf, NaN, rather than exactly 1
    t = np.array([0.0, 1.0, 2.0])
    series = np.column_stack([t, np.zeros((3, 3)), [-1e308, 0.0, 1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert rise_time_90(series) == math.inf
