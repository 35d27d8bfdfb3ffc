"""Chamber pressure dynamics through proportional valves.

Each chamber is filled/vented through an ISO 6358 style orifice whose
opening tracks the pressure error of a commanded setpoint (first-order
lag on the command).  The gas is isothermal and the mechanics are
quasi-static: every step the chamber heights and pressures are solved
jointly from the current gas masses -- a slack pouch expands at zero
gauge pressure until its enclosed volume holds the gas, and a taut belt
couples the two heights through the rig's force balance
(``rig.belt_balance``), belt compliance included, so a settled step
lands on the static equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .pouch import PouchStackSpec, free_height, volume, volume_gradient, KPA_MM2_TO_N
from .rig import RigSpec, belt_balance, solve_equilibrium

R_AIR = 287.05  # J/(kg K)
T_AMBIENT = 293.15  # K
P_ATM_KPA = 101.325
RHO_REF = 1.185  # kg/m^3, ISO 6358 reference density
DEAD_VOLUME_M3 = 8.0e-6  # tubing + fittings per chamber
OPENING_BAND_KPA = 20.0  # pressure error that fully opens the valve


class IntegrationError(RuntimeError):
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
        if self.sonic_conductance < 0:
            raise ValueError("sonic_conductance must be >= 0")
        if not (0.0 < self.critical_ratio < 1.0):
            raise ValueError("critical_ratio must be in (0, 1)")
        if self.supply_pressure <= 0 or self.exhaust_pressure <= 0:
            raise ValueError("pressures must be positive (absolute kPa)")
        if self.command_lag <= 0:
            raise ValueError("command_lag must be positive")


@dataclass
class ChamberState:
    gauge_pressure: float  # kPa
    gas_mass: float  # kg
    volume: float  # m^3


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
    if upstream < downstream:
        return -valve_mass_flow(valve, downstream, upstream, opening)
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


def _gas_volume(spec: PouchStackSpec, height: float) -> float:
    """Chamber gas volume in m^3 at the given height (mm)."""
    height = max(MIN_HEIGHT_MM, min(height, free_height(spec)))
    return volume(spec, height) * 1e-9 + DEAD_VOLUME_M3


def _abs_pressure(spec: PouchStackSpec, mass: float, height: float) -> float:
    """Isothermal absolute pressure (kPa) of the chamber gas."""
    return mass * R_AIR * T_AMBIENT / _gas_volume(spec, height) * 1e-3


def _free_expansion_height(spec: PouchStackSpec, mass: float) -> float:
    """Unconstrained pouch height for the given gas mass.

    The membrane offers no resistance, so the pouch expands at ambient
    pressure until its volume holds the gas, capped at the free height.
    """
    hf = free_height(spec)
    if _abs_pressure(spec, mass, hf) >= P_ATM_KPA:
        return hf
    target = mass * R_AIR * T_AMBIENT / (P_ATM_KPA * 1e3)  # m^3
    if target <= _gas_volume(spec, MIN_HEIGHT_MM):
        return MIN_HEIGHT_MM
    return brentq(
        lambda h: _gas_volume(spec, h) - target, MIN_HEIGHT_MM, hf, xtol=1e-7
    )


def _side_force_from_mass(spec: PouchStackSpec, mass: float, height: float) -> float:
    """Contact force of one side at fixed gas mass (gauge pressure from gas law)."""
    hf = free_height(spec)
    if height >= hf:
        return 0.0
    gauge = _abs_pressure(spec, mass, height) - P_ATM_KPA
    if gauge <= 0.0:
        return 0.0
    return gauge * volume_gradient(spec, max(MIN_HEIGHT_MM, height)) * KPA_MM2_TO_N


def _solve_heights(rig: RigSpec, m1: float, m2: float) -> tuple[float, float]:
    """Quasi-static heights (h1, h2) for the given gas masses.

    Each side's force vanishes at its free-expansion height; a chamber never
    drops below its residue height, so neither can take the whole span.
    """
    cap = rig.belt_span - MIN_HEIGHT_MM
    h1, h2, _ = belt_balance(
        partial(_side_force_from_mass, rig.modulating, m1),
        partial(_side_force_from_mass, rig.morphing, m2),
        min(_free_expansion_height(rig.modulating, m1), cap),
        min(_free_expansion_height(rig.morphing, m2), cap),
        rig.belt_span, rig.belt_compliance,
    )
    return h1, h2


def _command_at(schedule: Sequence[tuple[float, float, float]], t: float) -> tuple[float, float]:
    p1c, p2c = schedule[0][1], schedule[0][2]
    for ts, c1, c2 in schedule:
        if ts <= t + 1e-12:
            p1c, p2c = c1, c2
        else:
            break
    return p1c, p2c


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
    if dt <= 0 or dt > 5e-3:
        raise ValueError(f"dt must be in (0, 0.005] s, got {dt}")
    if not schedule:
        raise ValueError("schedule must not be empty")
    times = [s[0] for s in schedule]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("schedule times must be non-decreasing")

    p1c0, p2c0 = _command_at(schedule, 0.0)
    cmd_eff = [p1c0, p2c0]
    eq = solve_equilibrium(rig, p1c0, p2c0)
    specs = (rig.modulating, rig.morphing)
    heights = [eq.h1, eq.h2]
    masses = [0.0, 0.0]
    for j, cmd in enumerate((p1c0, p2c0)):
        if cmd <= 0.0:
            heights[j] = MIN_HEIGHT_MM  # deflated residue
            masses[j] = P_ATM_KPA * 1e3 * _gas_volume(specs[j], heights[j]) / (R_AIR * T_AMBIENT)
        else:
            masses[j] = (cmd + P_ATM_KPA) * 1e3 * _gas_volume(specs[j], heights[j]) / (
                R_AIR * T_AMBIENT
            )
    h1, h2 = _solve_heights(rig, masses[0], masses[1])
    pressures = [
        _abs_pressure(specs[0], masses[0], h1) - P_ATM_KPA,
        _abs_pressure(specs[1], masses[1], h2) - P_ATM_KPA,
    ]

    n_steps = int(round(t_end / dt))
    rows = np.empty((n_steps + 1, 5))
    rows[0] = (0.0, pressures[0], pressures[1], h1, max(h2, rig.deflated_floor))

    for i in range(1, n_steps + 1):
        t = i * dt
        cmds = _command_at(schedule, t)
        for j in (0, 1):
            valve = valves[j]
            cmd_eff[j] += dt * (cmds[j] - cmd_eff[j]) / valve.command_lag
            err = cmd_eff[j] - pressures[j]
            opening = min(1.0, abs(err) / OPENING_BAND_KPA)
            p_abs = pressures[j] + P_ATM_KPA
            if err > 0:
                mdot = valve_mass_flow(valve, valve.supply_pressure, p_abs, opening)
            elif err < 0:
                mdot = -valve_mass_flow(valve, p_abs, valve.exhaust_pressure, opening)
            else:
                mdot = 0.0
            masses[j] += mdot * dt
        h1, h2 = _solve_heights(rig, masses[0], masses[1])
        pressures = [
            _abs_pressure(specs[0], masses[0], h1) - P_ATM_KPA,
            _abs_pressure(specs[1], masses[1], h2) - P_ATM_KPA,
        ]
        if not all(math.isfinite(v) for v in (*pressures, *masses, h1, h2)):
            raise IntegrationError(f"non-finite state at t={t:.4f} s with dt={dt} s")
        rows[i] = (t, pressures[0], pressures[1], h1, max(h2, rig.deflated_floor))
    return rows


def resample_16hz(series: np.ndarray) -> np.ndarray:
    """Resample a (t, ...) series onto a 16 Hz grid by linear interpolation."""
    t = series[:, 0]
    duration = t[-1]
    grid = np.arange(0.0, math.floor(duration * 16.0 + 1e-9) + 1) / 16.0
    out = np.empty((grid.size, series.shape[1]))
    out[:, 0] = grid
    for col in range(1, series.shape[1]):
        out[:, col] = np.interp(grid, t, series[:, col])
    return out


def rise_time_90(series: np.ndarray, column: int = 4) -> float:
    """Time from the command step to 90% of the initial-to-final change."""
    t = series[:, 0]
    y = series[:, column]
    y0, y1 = y[0], y[-1]
    if y1 == y0:
        return 0.0
    frac = (y - y0) / (y1 - y0)
    idx = int(np.argmax(frac >= 0.9))
    if frac[idx] < 0.9:
        return float("inf")
    return float(t[idx])
