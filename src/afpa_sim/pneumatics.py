"""Chamber pressure dynamics through proportional valves.

Each chamber is filled/vented through an ISO 6358 style orifice whose
opening tracks the pressure error of a commanded setpoint (first-order
lag on the command).  The gas is isothermal and the mechanics are
quasi-static: every step the chamber heights and pressures are solved
jointly from the current gas masses -- a slack pouch expands at zero
gauge pressure until its enclosed volume holds the gas, and reads a gauge
of exactly 0 there.  A chamber holding its fill mass, the gas that fills
it at ambient pressure to the most the belt allows, rests taut instead.  A
taut belt couples the two heights through the rig's force balance
(``rig.belt_balance``), belt compliance included, so a settled step lands
on the static equilibrium.  The balance is solved by Newton steps on the
side forces' analytic slopes (the gas law's and the stack's), from a three-point
(quadratic) prediction of h2 whose Newton step mostly ends the solve after one
evaluation.  Each side force also returns the gas volume it evaluated, so the
gauges are read from the balance record's last evaluation of each side; a slack
chamber's free-expansion root starts from the same prediction of its height.
A solving step calls ``_solve_heights``, ``belt_balance``, ``_rising_root``, the
balance's residual and the two side forces, each of which calls
``pouch._volume_terms`` itself: the gas volume and the gas law are written out in
the side force and in the gauges, and the balance record is built without its
constructor's frame.  The balance takes the one law ``_side_force_from_mass`` with
each stack and its gas mass, so no function is built per side, and
``_solve_heights`` returns its heights, gauges and free-expansion heights as one
flat tuple.
Each command's first step is found once, before the steps, which then walk the
commands in turn.  A step that moves no gas keeps its balance, a function of the
masses, and its row; one that also leaves the lagged command unchanged is at rest
(four floats saved at the step's start tell), and every step up to the next
command's first step repeats it in one copy.  The loop holds each chamber's lagged
command, gas mass and gauge, and the last three values of h2 and of each
free-expansion height, in plain floats, evaluates each valve's flow once from
constants read once per run, and stores each row through a flat memoryview;
each bound is a conditional expression that picks the operand ``min`` or ``max``
would, NaN and ties included.  Only a step that solves forms the predictions (a
free-expansion one only for a chamber below its fill mass, whose root uses it),
checks for a non-finite state and floors the reported h2.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from math import inf, sqrt
from typing import Sequence

from .errors import AfpaSimError
from .pouch import KPA_MM2_TO_N, PouchStackSpec, _volume_terms
from .rig import (ROOT_XTOL_MM, RigSpec, _check_pressure, _rising_root, belt_balance,
                  solve_equilibrium)

R_AIR = 287.05  # J/(kg K)
T_AMBIENT = 293.15  # K
P_ATM_KPA = 101.325
RHO_REF = 1.185  # kg/m^3, ISO 6358 reference density
DEAD_VOLUME_M3 = 8.0e-6  # tubing + fittings per chamber
OPENING_BAND_KPA = 20.0  # pressure error that fully opens the valve
DT_MAX_S = 5e-3  # s, largest step of the explicit gas-mass update
STEPS_MAX = 1_000_000  # largest t_end / dt: 40 MB of result rows


class IntegrationError(AfpaSimError, RuntimeError):
    """Non-finite state during time stepping."""


@dataclass(frozen=True)
class ValveSpec:
    """Proportional valve + supply line, ISO 6358 parameters."""

    sonic_conductance: float  # m^3/(s Pa)
    critical_ratio: float = 0.3
    supply_pressure: float = 400.0  # kPa absolute
    exhaust_pressure: float = P_ATM_KPA  # kPa absolute
    command_lag: float = 0.05  # s

    def __post_init__(self) -> None:
        for field in fields(self):  # each comparison below lets a NaN through
            if not math.isfinite(value := getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.sonic_conductance < 0:
            raise ValueError("sonic_conductance must be >= 0")
        if not (0.0 < self.critical_ratio < 1.0):
            raise ValueError("critical_ratio must be in (0, 1)")
        if self.supply_pressure <= 0 or self.exhaust_pressure <= 0:
            raise ValueError("pressures must be positive (absolute kPa)")
        if self.supply_pressure <= self.exhaust_pressure:  # no flow could fill a chamber
            raise ValueError(f"supply_pressure {self.supply_pressure} kPa must be above "
                             f"exhaust_pressure {self.exhaust_pressure} kPa")
        if self.command_lag <= 0:
            raise ValueError("command_lag must be positive")


def valve_mass_flow(
    valve: ValveSpec, upstream: float, downstream: float, opening: float
) -> float:
    """Mass flow (kg/s) through the valve, positive downstream.

    Pressures are absolute kPa, positive and finite.  Choked below the
    critical ratio, elliptic subsonic correction above it; antisymmetric in
    the pressure gradient.
    """
    if not (0.0 <= opening <= 1.0):
        raise ValueError(f"opening must be in [0, 1], got {opening}")
    if upstream < downstream:  # venting: the same flow from the higher side, sign flipped
        upstream, downstream, opening = downstream, upstream, -opening
    if not 0.0 < downstream <= upstream < inf:  # also a NaN
        raise ValueError(f"pressures must be positive and finite, got {upstream}, {downstream} kPa")
    if opening == 0.0 or upstream == downstream:
        return 0.0
    r = downstream / upstream
    b = valve.critical_ratio
    if r <= b:
        phi = 1.0
    else:
        phi = sqrt(s if (s := 1.0 - ((r - b) / (1.0 - b)) ** 2) > 0.0 else 0.0)
    return opening * valve.sonic_conductance * RHO_REF * (upstream * 1e3) * phi


MIN_HEIGHT_MM = 1e-6


def _gas_volume(spec: PouchStackSpec, height: float) -> tuple[float, float, float]:
    """Chamber gas volume (m^3) at a height (mm), with the stack's dV/dH (mm^2) and d2V/dH2 (mm)."""
    v, area, curvature = _volume_terms(spec, height if height > MIN_HEIGHT_MM else MIN_HEIGHT_MM)
    return v * 1e-9 + DEAD_VOLUME_M3, area, curvature


def _free_expansion_height(spec: PouchStackSpec, mass: float,
                           floor: tuple[float, float, float], guess: float | None = None) -> float:
    """Unconstrained pouch height for the given gas mass.

    The membrane offers no resistance, so the pouch expands at ambient
    pressure until its volume holds the gas, capped at the free height.
    ``floor`` is ``_gas_volume`` at MIN_HEIGHT_MM, which a deflated chamber
    ends at without another evaluation; the root starts from ``guess``.
    """
    target = mass * R_AIR * T_AMBIENT / (P_ATM_KPA * 1e3)  # m^3
    if (at_floor := (floor[0] - target, floor[1] * 1e-9))[0] >= 0.0:
        return MIN_HEIGHT_MM

    def excess(h: float) -> tuple[float, float]:
        gas, area, _ = _gas_volume(spec, h)
        return gas - target, area * 1e-9

    return _rising_root(excess, MIN_HEIGHT_MM, at_floor, spec.free_height, guess)


def _side_force_from_mass(spec: PouchStackSpec, mass: float, height: float) -> tuple:
    """Contact force (N) of one side at fixed gas mass, and its slope (N/mm).

    Isothermal gas: the absolute pressure (kPa) is m R T / V_gas and changes by
    dp/dH = -p * dV/dH / V_gas.  Below the free height the gas volume (m^3) and
    its slope (m^3/mm) follow.  The volume is ``_gas_volume``'s, written out
    here because the valve step evaluates this about twice a step.
    """
    if height >= spec.free_height:
        return 0.0, 0.0
    v, area, curvature = _volume_terms(spec, height if height > MIN_HEIGHT_MM else MIN_HEIGHT_MM)
    gas = v * 1e-9 + DEAD_VOLUME_M3
    p_abs = mass * R_AIR * T_AMBIENT / gas * 1e-3
    gauge = p_abs - P_ATM_KPA
    if gauge <= 0.0:
        return 0.0, 0.0, gas, area * 1e-9
    return (gauge * area * KPA_MM2_TO_N,
            (gauge * curvature - p_abs * area * area * 1e-9 / gas) * KPA_MM2_TO_N,
            gas, area * 1e-9)


def _fill_masses(rig: RigSpec) -> list[float]:
    """Gas (kg) that fills each chamber to min(free height, span - MIN_HEIGHT_MM) at 1 atm."""
    return [P_ATM_KPA * 1e3 * _gas_volume(s, min(s.free_height, rig.belt_span - MIN_HEIGHT_MM))[0]
            / (R_AIR * T_AMBIENT) for s in (rig.modulating, rig.morphing)]


def _solve_heights(rig: RigSpec, m1: float, m2: float, fills: Sequence[float],
                   floors: Sequence[tuple[float, float, float]], guess: float | None = None,
                   free1: float | None = None, free2: float | None = None) -> tuple:
    """Quasi-static (h1, h2, g1, g2, x1, x2): heights and free-expansion heights in mm,
    gauges in kPa, as one flat tuple.

    Each side's force vanishes at its free-expansion height, where its gas
    is at ambient pressure and its gauge reads exactly 0; a chamber never
    drops below its residue height, so neither can take the whole span.
    ``fills`` are the rig's ``_fill_masses``, ``floors`` each chamber's
    ``_gas_volume`` at MIN_HEIGHT_MM; ``guess`` (h2), ``free1`` and ``free2``
    (each free-expansion height) start the roots.  The balance takes
    ``_side_force_from_mass`` for both sides, with each stack and its gas
    mass.  Each gauge reads its gas volume from
    the balance's last evaluation of its side, carried to its height by its
    slope, as the balance carries the tension, where that lies within
    ROOT_XTOL_MM and holds one (below the free height); else from
    ``_gas_volume`` anew.  Its pressure is the side force's gas law.
    """
    spec1, spec2 = rig.modulating, rig.morphing
    x1 = (spec1.free_height if m1 >= fills[0]
          else _free_expansion_height(spec1, m1, floors[0], free1))
    x2 = (spec2.free_height if m2 >= fills[1]
          else _free_expansion_height(spec2, m2, floors[1], free2))
    cap = rig.belt_span - MIN_HEIGHT_MM
    h1, h2, _, _, last1, last2 = belt_balance(
        _side_force_from_mass, spec1, m1, spec2, m2, cap if cap < x1 else x1,
        cap if cap < x2 else x2, rig.belt_span, rig.belt_compliance, guess=guess)
    g1 = g2 = 0.0  # a chamber resting at its free-expansion height, below its free height
    if not h1 == x1 < spec1.free_height:
        if last1 and len(r := last1[1]) > 3 and -ROOT_XTOL_MM <= h1 - last1[0] <= ROOT_XTOL_MM:
            gas = r[2] + r[3] * (h1 - last1[0])
        else:
            gas = _gas_volume(spec1, h1)[0]
        g1 = m1 * R_AIR * T_AMBIENT / gas * 1e-3 - P_ATM_KPA
    if not h2 == x2 < spec2.free_height:
        if last2 and len(r := last2[1]) > 3 and -ROOT_XTOL_MM <= h2 - last2[0] <= ROOT_XTOL_MM:
            gas = r[2] + r[3] * (h2 - last2[0])
        else:
            gas = _gas_volume(spec2, h2)[0]
        g2 = m2 * R_AIR * T_AMBIENT / gas * 1e-3 - P_ATM_KPA
    return h1, h2, g1, g2, x1, x2


def check_step(dt: float, t_end: float) -> int:
    """Number of time steps of a run to t_end; ValueError if dt or that number is out of range."""
    if not 0.0 < dt <= DT_MAX_S:
        raise ValueError(f"dt must be in (0, {DT_MAX_S:g}] s, got {dt}")
    if not 0.0 <= t_end <= STEPS_MAX * dt:
        raise ValueError(f"t_end must be in [0, {STEPS_MAX} * dt] s, got {t_end}")
    return int(round(t_end / dt))


def step_simulate(
    rig: RigSpec,
    valves: tuple[ValveSpec, ValveSpec],
    schedule: Sequence[tuple[float, float, float]],
    dt: float,
    t_end: float,
) -> np.ndarray:
    """Simulate commanded pressure steps; returns rows (t, p1, p2, h1, h2).

    Pressures are gauge kPa, heights mm; the reported h2 is floored at
    the rig's deflated residue height.  A chamber whose initial command
    is zero starts deflated (flat pouch, only dead volume); otherwise it
    starts at the quasi-static equilibrium for the initial commands.
    """
    import numpy as np  # numpy loads on the first simulation
    n_steps = check_step(dt, t_end)
    times = [s[0] for s in schedule]
    if not (times and all(map(math.isfinite, times)) and times == sorted(times)):
        raise ValueError(f"schedule needs commands at finite, non-decreasing times, got {times}")
    for t, p1c, p2c in schedule:
        _check_pressure(p1c, f"p1 at t={t} s")
        _check_pressure(p2c, f"p2 at t={t} s")

    # each command holds from its first step, the first whose time reaches the command's to
    # within 1e-12 s, up to the next command's; the first command holds from step 0
    starts = [0] + [bisect_left(range(n_steps + 1), True, key=lambda k: ts <= k * dt + 1e-12)
                    for ts in times[1:]]
    c1, c2 = cmd_eff = schedule[starts.count(0) - 1][1:]  # each chamber's lagged command
    eq = solve_equilibrium(rig, c1, c2)
    m1, m2 = [(cmd + P_ATM_KPA) * 1e3 * _gas_volume(spec, h if cmd > 0.0 else MIN_HEIGHT_MM)[0]
              / (R_AIR * T_AMBIENT)  # a chamber commanded to 0 starts at its deflated residue
              for spec, cmd, h in zip((rig.modulating, rig.morphing), cmd_eff, (eq.h1, eq.h2))]
    fills = _fill_masses(rig)
    floors = [_gas_volume(spec, MIN_HEIGHT_MM) for spec in (rig.modulating, rig.morphing)]
    h1, h2, g1, g2, x1, x2 = _solve_heights(rig, m1, m2, fills, floors)
    fill1, fill2 = fills
    y = y1 = y2 = h2  # h2 and each free-expansion height at the last three steps, latest first
    a = a1 = a2 = x1
    b = b1 = b2 = x2
    s1, s2 = m1, m2  # the masses of the last balance, a function of them alone
    top = low if (low := rig.deflated_floor) > h2 else h2  # the reported h2
    (v1, lag1, sup1, exh1), (v2, lag2, sup2, exh2) = [
        (v, v.command_lag, v.supply_pressure, v.exhaust_pressure) for v in valves]

    rows = np.empty((n_steps + 1, 5))
    rows[0] = 0.0, g1, g2, h1, top
    flat = memoryview(rows.reshape(-1))  # row i is flat[5 * i:5 * i + 5]

    for (_, u1, u2), lo, end in zip(schedule, starts, starts[1:] + [n_steps + 1]):
        for i in range(max(lo, 1), end):
            e1, e2 = c1, c2  # the lagged commands and masses the step starts from
            n1, n2 = m1, m2
            c1 += dt * (u1 - c1) / lag1  # a chamber above its command vents: a negative flow
            m1 += valve_mass_flow(v1, sup1 if c1 > g1 else exh1, g1 + P_ATM_KPA,
                                  o if (o := abs(c1 - g1) / OPENING_BAND_KPA) < 1.0 else 1.0) * dt
            c2 += dt * (u2 - c2) / lag2
            m2 += valve_mass_flow(v2, sup2 if c2 > g2 else exh2, g2 + P_ATM_KPA,
                                  o if (o := abs(c2 - g2) / OPENING_BAND_KPA) < 1.0 else 1.0) * dt
            if m1 != s1 or m2 != s2:  # else no gas moved: the balance and its row stand
                # three-point predictions; a free-expansion height only where its root is solved
                h1, h2, g1, g2, x1, x2 = _solve_heights(
                    rig, m1, m2, fills, floors, 3.0 * y - 3.0 * y1 + y2,
                    None if m1 >= fill1 else 3.0 * a - 3.0 * a1 + a2,
                    None if m2 >= fill2 else 3.0 * b - 3.0 * b1 + b2)
                s1, s2 = m1, m2
                # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
                if (g1 - g1) + (g2 - g2) + (m1 - m1) + (m2 - m2) + (h1 - h1) + (h2 - h2) != 0.0:
                    raise IntegrationError(f"non-finite state at t={i * dt:.4f} s with dt={dt} s")
                top = low if low > h2 else h2
            y, y1, y2 = h2, y, y1
            a, a1, a2 = x1, a, a1
            b, b1, b2 = x2, b, b1
            k = 5 * i
            flat[k] = i * dt  # five stores, no tuple built and unpacked
            flat[k + 1] = g1
            flat[k + 2] = g2
            flat[k + 3] = h1
            flat[k + 4] = top
            # at rest: each later step of the command repeats it
            if m1 == n1 and m2 == n2 and c1 == e1 and c2 == e2:
                rows[i + 1:end] = rows[i]
                rows[i + 1:end, 0] = np.arange(i + 1, end) * dt
                if end > i + 1:  # a step-by-step run would hold the rest state three times
                    y1 = y2 = y
                    a1 = a2 = a
                    b1 = b2 = b
                break
    return rows


def resample_16hz(series: np.ndarray) -> np.ndarray:
    """Resample a (t, ...) series onto a 16 Hz grid by linear interpolation."""
    import numpy as np
    t = series[:, 0]
    grid = np.arange(0.0, math.floor(t[-1] * 16.0 + 1e-9) + 1) / 16.0
    return np.column_stack([grid] + [np.interp(grid, t, column) for column in series.T[1:]])


def rise_time_90(series: np.ndarray) -> float:
    """Time from the command step, the first sample, to 90% of h2's initial-to-final change."""
    t, y = series[:, 0], series[:, 4]
    y0, y1 = y[0], y[-1]
    if y1 == y0:
        return 0.0
    frac = (y - y0) / (y1 - y0)
    idx = int((frac >= 0.9).argmax())
    if frac[idx] < 0.9:
        return inf
    return float(t[idx] - t[0])
