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
Each command's first step is found once, before the steps, which then walk the
commands in turn.  A step that moves no gas keeps its balance, a function of the
masses; one that also leaves the lagged command unchanged is at rest, and every
step repeats it up to the next command's first step: those rows are copied, so a
hold at rest costs one step.  Each step evaluates each valve's flow once, from the
valves' constants read once per run; only a step that solves forms the prediction,
checks for a non-finite state and builds a new row, and one that moves no gas writes
the row before it at its own time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial
from typing import Sequence

from .errors import AfpaSimError
from .pouch import KPA_MM2_TO_N, PouchStackSpec, _volume_terms
from .rig import RigSpec, _carried, _check_pressure, _rising_root, belt_balance, solve_equilibrium

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
        if self.command_lag <= 0:
            raise ValueError("command_lag must be positive")


def valve_mass_flow(
    valve: ValveSpec, upstream: float, downstream: float, opening: float
) -> float:
    """Mass flow (kg/s) through the valve, positive downstream.

    Pressures are absolute kPa.  Choked below the critical ratio,
    elliptic subsonic correction above it; antisymmetric in the
    pressure gradient.
    """
    if not (0.0 <= opening <= 1.0):
        raise ValueError(f"opening must be in [0, 1], got {opening}")
    if upstream < downstream:  # venting: the same flow from the higher side, sign flipped
        upstream, downstream, opening = downstream, upstream, -opening
    if opening == 0.0 or upstream == downstream:
        return 0.0
    r = downstream / upstream
    b = valve.critical_ratio
    if r <= b:
        phi = 1.0
    else:
        phi = math.sqrt(max(0.0, 1.0 - ((r - b) / (1.0 - b)) ** 2))
    return opening * valve.sonic_conductance * RHO_REF * (upstream * 1e3) * phi


MIN_HEIGHT_MM = 1e-6


def _gas_volume(spec: PouchStackSpec, height: float) -> tuple[float, float, float]:
    """Chamber gas volume (m^3) at a height (mm), with the stack's dV/dH (mm^2) and d2V/dH2 (mm)."""
    v, area, curvature = _volume_terms(spec, height if height > MIN_HEIGHT_MM else MIN_HEIGHT_MM)
    return v * 1e-9 + DEAD_VOLUME_M3, area, curvature


def _abs_pressure(mass: float, gas: float) -> float:
    """Isothermal absolute pressure (kPa) of a gas mass (kg) in a volume (m^3)."""
    return mass * R_AIR * T_AMBIENT / gas * 1e-3


def _free_expansion_height(spec: PouchStackSpec, mass: float,
                           floor: tuple[float, float, float], guess: float | None = None) -> float:
    """Unconstrained pouch height for the given gas mass.

    The membrane offers no resistance, so the pouch expands at ambient
    pressure until its volume holds the gas, capped at the free height.
    ``floor`` is ``_gas_volume`` at MIN_HEIGHT_MM, which a deflated chamber
    ends at without another evaluation; the root starts from ``guess``.
    """
    target = mass * R_AIR * T_AMBIENT / (P_ATM_KPA * 1e3)  # m^3

    def excess(h: float) -> tuple[float, float]:
        gas, area, _ = _gas_volume(spec, h)
        return gas - target, area * 1e-9

    if (at_floor := (floor[0] - target, floor[1] * 1e-9))[0] >= 0.0:
        return MIN_HEIGHT_MM
    return _rising_root(excess, MIN_HEIGHT_MM, at_floor, spec.free_height, guess)


def _side_force_from_mass(spec: PouchStackSpec, mass: float, height: float) -> tuple:
    """Contact force (N) of one side at fixed gas mass, and its slope (N/mm).

    Isothermal gas: the pressure changes by dp/dH = -p * dV/dH / V_gas.
    Below the free height the gas volume (m^3) and its slope (m^3/mm) follow.
    """
    if height >= spec.free_height:
        return 0.0, 0.0
    gas, area, curvature = _gas_volume(spec, height)
    p_abs = _abs_pressure(mass, gas)
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
                   free_guess: Sequence[float | None] = (None, None)) -> tuple:
    """Quasi-static heights (h1, h2) in mm, gauges (kPa) and free-expansion heights (mm).

    Each side's force vanishes at its free-expansion height, where its gas
    is at ambient pressure and its gauge reads exactly 0; a chamber never
    drops below its residue height, so neither can take the whole span.
    ``fills`` are the rig's ``_fill_masses``, ``floors`` each chamber's
    ``_gas_volume`` at MIN_HEIGHT_MM; ``guess`` (h2) and ``free_guess`` start
    the roots.  Each gauge's gas volume is ``_carried`` from the balance's last
    evaluation of its side, else evaluated anew (a gas volume is never 0).
    """
    spec1, spec2 = rig.modulating, rig.morphing
    x1 = (spec1.free_height if m1 >= fills[0]
          else _free_expansion_height(spec1, m1, floors[0], free_guess[0]))
    x2 = (spec2.free_height if m2 >= fills[1]
          else _free_expansion_height(spec2, m2, floors[1], free_guess[1]))
    cap = rig.belt_span - MIN_HEIGHT_MM
    h1, h2, _, _, last1, last2 = belt_balance(
        partial(_side_force_from_mass, spec1, m1), partial(_side_force_from_mass, spec2, m2),
        min(x1, cap), min(x2, cap), rig.belt_span, rig.belt_compliance, guess=guess)
    return h1, h2, [_gauge(spec1, m1, h1, x1, last1), _gauge(spec2, m2, h2, x2, last2)], [x1, x2]


def _gauge(spec: PouchStackSpec, mass: float, height: float, free: float,
           last: tuple | None) -> float:
    """Gauge (kPa) of a chamber at its balanced height, given its free-expansion height."""
    if height == free < spec.free_height:
        return 0.0
    gas = _carried(last, 2, height) or _gas_volume(spec, height)[0]  # a volume is never 0
    return _abs_pressure(mass, gas) - P_ATM_KPA


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
    cmd_eff = list(schedule[starts.count(0) - 1][1:])
    eq = solve_equilibrium(rig, *cmd_eff)
    masses = [(cmd + P_ATM_KPA) * 1e3 * _gas_volume(spec, h if cmd > 0.0 else MIN_HEIGHT_MM)[0]
              / (R_AIR * T_AMBIENT)  # a chamber commanded to 0 starts at its deflated residue
              for spec, cmd, h in zip((rig.modulating, rig.morphing), cmd_eff, (eq.h1, eq.h2))]
    fills = _fill_masses(rig)
    floors = [_gas_volume(spec, MIN_HEIGHT_MM) for spec in (rig.modulating, rig.morphing)]
    h1, h2, pressures, free = _solve_heights(rig, *masses, fills, floors)
    past = ((h2, *free),) * 3  # the predicted values at the last three steps, latest first
    solved = masses[:]  # the masses of the last balance, a function of them alone
    row = (pressures[0], pressures[1], h1, max(h2, rig.deflated_floor))
    terms = [(v, v.command_lag, v.supply_pressure, v.exhaust_pressure) for v in valves]

    rows = np.empty((n_steps + 1, 5))
    rows[0] = (0.0, *row)

    for (_, *cmds), lo, end in zip(schedule, starts, starts[1:] + [n_steps + 1]):
        for i in range(max(lo, 1), end):
            t = i * dt
            start = cmd_eff + masses
            for j, (valve, lag, supply, exhaust) in enumerate(terms):
                cmd_eff[j] += dt * (cmds[j] - cmd_eff[j]) / lag
                err = cmd_eff[j] - pressures[j]
                opening = min(1.0, abs(err) / OPENING_BAND_KPA)
                # venting (from the exhaust) makes the flow negative
                masses[j] += valve_mass_flow(valve, supply if err > 0 else exhaust,
                                             pressures[j] + P_ATM_KPA, opening) * dt
            if masses != solved:  # else no gas moved: the balance and its row stand
                guess, *free_guess = [3.0 * x - 3.0 * x1 + x2 for x, x1, x2 in zip(*past)]
                h1, h2, pressures, free = _solve_heights(rig, *masses, fills, floors, guess,
                                                         free_guess)
                solved = masses[:]
                if not all(map(math.isfinite, (*pressures, *masses, h1, h2))):
                    raise IntegrationError(f"non-finite state at t={t:.4f} s with dt={dt} s")
                row = (pressures[0], pressures[1], h1, max(h2, rig.deflated_floor))
            past = (h2, *free), past[0], past[1]
            rows[i] = (t, *row)
            if cmd_eff + masses == start:  # at rest: each later step of the command repeats it
                rows[i + 1:end] = rows[i]
                rows[i + 1:end, 0] = np.arange(i + 1, end) * dt
                past = past if end == i + 1 else (past[0],) * 3
                break
    return rows


def resample_16hz(series: np.ndarray) -> np.ndarray:
    """Resample a (t, ...) series onto a 16 Hz grid by linear interpolation."""
    import numpy as np
    t = series[:, 0]
    grid = np.arange(0.0, math.floor(t[-1] * 16.0 + 1e-9) + 1) / 16.0
    return np.column_stack([grid] + [np.interp(grid, t, column) for column in series.T[1:]])


def rise_time_90(series: np.ndarray) -> float:
    """Time from the command step to 90% of h2's initial-to-final change."""
    t, y = series[:, 0], series[:, 4]
    y0, y1 = y[0], y[-1]
    if y1 == y0:
        return 0.0
    frac = (y - y0) / (y1 - y0)
    idx = int((frac >= 0.9).argmax())
    if frac[idx] < 0.9:
        return float("inf")
    return float(t[idx])
