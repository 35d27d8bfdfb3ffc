"""Coupled equilibrium of two opposed pouch stacks under a crossing-belt tie.

The belt constrains h1 + h2 <= belt_span + belt_compliance * tension and
can only pull.  One force balance, ``belt_balance``, with belt stretch on
every path, serves the equilibrium, the Coulomb branches of the size
sweeps, the probe (a stop holding the morphing side down) and the valve
dynamics.  It takes one side law for both stacks, which it calls with each
stack and that stack's pressure or gas mass, so no caller builds a function
per side.  It returns one record, ``EquilibriumState``: heights, tension,
branch and each side's last evaluation, which the valve gauges read back and
``solve_equilibrium`` returns as it is, and the probe into its own record,
``Probe``: force, belt tension, h1 and stiffness, which ``probe_force``,
``stiffness`` and ``force_displacement_curve`` read.
The probe reads each side's force and slope back from the balance record where
it was made at the probe height and at h1, else evaluates them anew, and builds
its record without its constructor's frame; its bounds and the side force's
height floor pick the operand the builtin ``min`` or ``max`` would, written out.
Probe stiffness and the slopes in pressure of the height
(``equilibrium_slopes``) and of the stiffness (``stiffness_slopes``) are
closed-form implicit derivatives of the balance.  The balance's roots (the
interior h2 and the belt stretch), the valve model's free-expansion height
and the planner's seed pressures come from the package's one root solver,
``_rising_root``: bracketed, safeguarded Newton on a rising function with a
closed-form slope.  It starts from a ``guess`` where one is known: the valve
step's prediction, or a nearby solve's in the planner and the size sweep; a
guess whose Newton step is within the root tolerance ends it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import AfpaSimError
from .pouch import KPA_MM2_TO_N, PouchStackSpec, _curvature_slope, _volume_terms

PRESSURE_MAX_KPA = 150.0
ROOT_XTOL_MM = 1e-7  # also the tension tolerance (N) of the belt-stretch root
ROOT_MAX_ITER = 100
_FORCE_MIN = sys.float_info.min  # N; a subnormal force no longer scales with pressure
SWEEP_POINTS_MAX = 10_000  # largest p1 path of size_pressure_sweep (sweep.p1_max / p1_step)
PROBE_SAMPLES_MAX = 10_000  # most steps, max_depth / step rounded, of force_displacement_curve


class RigDomainError(AfpaSimError, ValueError):
    """Invalid pressures or probe heights."""


class EquilibriumError(AfpaSimError, RuntimeError):
    """Root finder failed; should not happen for valid inputs."""


@dataclass(frozen=True)
class RigSpec:
    """Two opposed actuators tied by crossing belts."""

    modulating: PouchStackSpec  # P1 side
    morphing: PouchStackSpec  # P2 side, the touched surface
    belt_span: float  # C, mm: max taut value of h1 + h2
    belt_compliance: float = 0.0  # mm/N
    friction_force: float = 0.0  # N, Coulomb branch offset
    deflated_floor: float = 10.0  # mm, reported height floor when deflated

    def __post_init__(self) -> None:
        if not (self.belt_span > 0 and math.isfinite(self.belt_span)):
            raise ValueError(f"belt_span must be positive, got {self.belt_span}")
        if not 0.0 <= self.belt_compliance < math.inf:  # also NaN
            raise ValueError("belt_compliance must be >= 0")
        if not 0.0 <= self.friction_force < math.inf:
            raise ValueError("friction_force must be >= 0")
        if not 0.0 <= self.deflated_floor < math.inf:
            raise ValueError("deflated_floor must be >= 0")
        object.__setattr__(self, "belt_span", float(self.belt_span))  # an int would give int heights


class EquilibriumState(NamedTuple):
    """What ``belt_balance`` solved.  branch: 'slack' (x1 + x2 < span), 'interior' (a root
    inside h2's bracket), 'pinned' (h2 at its top: the span or the stop x2) or 'squashed'
    (h2 at its bottom, span - x1); side1, side2: each side's last evaluation, (height,
    what the side function returned there), or None when slack or not given."""

    h1: float  # mm
    h2: float  # mm
    belt_tension: float  # N
    branch: str
    side1: tuple | None = None
    side2: tuple | None = None

    @property
    def taut(self) -> bool:  # the belt pulls: any branch but slack
        return self.branch != "slack"


def _check_pressure(p: float, name: str) -> float:
    if not math.isfinite(p) or p < 0.0 or p > PRESSURE_MAX_KPA:
        raise RigDomainError(f"{name} must be in [0, {PRESSURE_MAX_KPA}] kPa, got {p}")
    return float(p)


def _side_force(spec: PouchStackSpec, pressure: float, height: float) -> tuple[float, float]:
    """Contact force (N) of one side and its slope (N/mm), 0 outside the compressed range."""
    if height >= spec.free_height:
        return 0.0, 0.0
    _, area, curvature = _volume_terms(spec, 1e-9 if 1e-9 > height else height)
    force = pressure * area * KPA_MM2_TO_N
    if force < _FORCE_MIN and force:  # a subnormal force counts as none
        return 0.0, 0.0
    return force, pressure * curvature * KPA_MM2_TO_N


def _rising_root(f: Callable[[float], tuple[float, float]], lo: float,
                 f_lo: tuple[float, float] | None, hi: float, guess: float | None) -> float:
    """Root of a rising f, which returns (value, slope), in [lo, hi], given f_lo = f(lo) or
    None: hi if f(hi) <= 0, lo if f(lo) >= 0.

    A guess inside (lo, hi) whose Newton step is within ROOT_XTOL_MM, to a point
    inside (lo, hi), gives that point, an exact zero with a slope the guess
    itself.  Otherwise the guess replaces an end, and so does its Newton point
    pushed ROOT_XTOL_MM / 2 further.  Then safeguarded Newton from the end with
    the smaller value, stopping at a step within ROOT_XTOL_MM: a step that
    leaves the shrinking bracket, or is not half the one before, takes the
    Illinois false-position point, or bisection when that is not inside, until
    the bracket is within ROOT_XTOL_MM.  A false-position point rounded onto an
    end gives that end where the bracket is within ROOT_XTOL_MM, or where a
    point ROOT_XTOL_MM inside that end has the other end's sign.
    """
    f_hi = None
    if guess is not None and lo < guess < hi:
        r = f(guess)  # a zero value without a slope tests hi first, as a cold start does
        if r[1] and abs((x := guess - r[0] / r[1]) - guess) <= ROOT_XTOL_MM and lo < x < hi:
            return x
        lo, f_lo, hi, f_hi = (guess, r, hi, f_hi) if r[0] <= 0.0 else (lo, f_lo, guess, r)
        if r[0] and r[1]:
            x -= math.copysign(0.5 * ROOT_XTOL_MM, r[0] * r[1])  # pushed past the root
            if lo < x < hi and (r := f(x))[0]:
                lo, f_lo, hi, f_hi = (x, r, hi, f_hi) if r[0] < 0.0 else (lo, f_lo, x, r)
    if f_hi is None and (f_hi := f(hi))[0] <= 0.0:
        return hi
    if (f_lo := f_lo or f(lo))[0] >= 0.0:  # a given f_lo is at most 0: an exact zero
        return lo
    a, (ya, ka), b, (yb, kb) = lo, f_lo, hi, f_hi  # f(a) < 0 < f(b) from here on
    x, y, k = (a, ya, ka) if -ya <= yb else (b, yb, kb)
    last_step, side = abs(b - a), 0  # side: the end replaced last, -1 for a, +1 for b
    for _ in range(ROOT_MAX_ITER):
        x_new = x - y / k if k else math.inf
        inside = (x_new - a) * (x_new - b)
        if inside <= 0.0 and abs(x_new - x) <= ROOT_XTOL_MM:
            return x_new
        newton = inside < 0.0 and abs(x_new - x) < 0.5 * last_step
        if not newton:
            x_new = (a * yb - b * ya) / (yb - ya)
            if not (x_new - a) * (x_new - b) < 0.0:
                # the false position rounds onto an end: its value is below rounding of
                # the other's, so the root is likely within tolerance of it
                end = a if abs(x_new - a) < abs(x_new - b) else b
                if abs(b - a) <= ROOT_XTOL_MM:
                    return end
                near = end + math.copysign(ROOT_XTOL_MM, a + b - 2.0 * end)
                if (y_near := f(near)[0]) == 0.0:
                    return near
                if (y_near < 0.0) == (end == b):
                    return end
                a, ya, b, yb = (near, y_near, b, yb) if end == a else (a, ya, near, y_near)
                x_new = 0.5 * (a + b)
            if abs(b - a) <= ROOT_XTOL_MM:
                return x_new
        last_step, x = abs(x_new - x), x_new
        y, k = f(x)
        if y == 0.0:
            return x
        if y < 0.0:
            yb *= 0.5 if side < 0 and not newton else 1.0  # Illinois: b kept twice
            a, ya, side = x, y, -1
        else:
            ya *= 0.5 if side > 0 and not newton else 1.0
            b, yb, side = x, y, 1
    raise EquilibriumError(f"root finding did not converge in {ROOT_MAX_ITER} steps")


def belt_balance(side: Callable[..., tuple], spec1, q1: float, spec2, q2: float, x1: float,
                 x2: float, span: float, compliance: float, offset: float = 0.0,
                 guess: float | None = None) -> EquilibriumState:
    """The ``EquilibriumState`` of two sides tied by the belt.

    ``side`` is one law for both stacks: side(spec, q, h) gives the contact
    force of stack ``spec`` at height h, holding q (a pressure or a gas
    mass), and its slope, and may return more values after them, which the
    record keeps.  Below, f1(h) is side(spec1, q1, h) and f2(h) is
    side(spec2, q2, h), each called directly.  x1 and x2 are the heights the
    sides cannot pass (zero force, or a stop such as a probe holding side 2
    down).  ``offset`` is a Coulomb force on side 2, positive while h2 falls.
    With the tension taken as f2(h2), the residual
    f1(span + compliance * tension - h2) - tension - offset rises with h2, so
    a bracketed root is unique; its slope is analytic.  Without a sign change
    side 2 is pinned or squashed at an end of its range and side 1 alone
    stretches the belt.  ``guess`` is an h2 to start from, such as the last
    time step's.  An interior root's tension is f2's last evaluation, carried
    to h2 by its slope where that lies within ROOT_XTOL_MM, else f2(h2).
    On every taut branch h1 is span + compliance * tension - h2, or x1 where
    that lies past x1: side 1 is then out of contact, and on the interior
    branch the offset alone carries the tension, with h1 + h2 short of
    span + compliance * tension.
    """
    if x1 + x2 < span:  # each record is built as its class would, without its frame
        return tuple.__new__(EquilibriumState, (x1, x2, 0.0, "slack", None, None))
    last1 = last2 = None

    def residual(h2: float) -> tuple[float, float]:
        nonlocal last1, last2
        r2 = side(spec2, q2, h2)
        h1 = span + compliance * r2[0] - h2
        r1 = side(spec1, q1, h1)
        last1, last2 = (h1, r1), (h2, r2)
        return r1[0] - r2[0] - offset, r1[1] * (compliance * r2[1] - 1.0) - r2[1]

    lo, hi = d if (d := span - x1) > 1e-9 else 1e-9, span if span < x2 else x2
    if lo < (h2 := _rising_root(residual, lo, None, hi, guess)) < hi:
        at, r2 = last2  # f2's last evaluation, carried to h2 by its slope where that is near
        if -ROOT_XTOL_MM <= h2 - at <= ROOT_XTOL_MM:
            tension = r2[0] + r2[1] * (h2 - at)
        else:  # f2 is evaluated anew, and kept
            last2 = h2, (r2 := side(spec2, q2, h2))
            tension = r2[0]
        h1 = h if (h := span + compliance * tension - h2) < x1 else x1
        return tuple.__new__(EquilibriumState, (h1, h2, tension, "interior", last1, last2))
    h1 = span - h2
    if last1[0] != h1:  # else a rigid belt's residual has evaluated f1 there
        last1 = h1, side(spec1, q1, h1)
    tension, k1 = last1[1][:2]
    if compliance > 0.0 and tension > 0.0:
        def stretch(t: float) -> tuple[float, float]:  # rises from -tension at t = 0
            nonlocal last1
            h = h1 + compliance * t
            last1 = h, (r := side(spec1, q1, h))
            return t - r[0], 1.0 - compliance * r[1]

        tension = _rising_root(stretch, 0.0, (-tension, 1.0 - compliance * k1), tension, None)
        h1 += compliance * tension
    return tuple.__new__(EquilibriumState, (min(x1, h1), h2, tension,
                                            "pinned" if h2 == hi else "squashed", last1, last2))


def _balance(rig: RigSpec, p1: float, p2: float, offset: float = 0.0, *,
             guess: float | None = None) -> EquilibriumState:
    """``belt_balance`` of the rig's stacks."""
    return belt_balance(_side_force, rig.modulating, p1, rig.morphing, p2,
                        rig.modulating.free_height, rig.morphing.free_height, rig.belt_span,
                        rig.belt_compliance, offset, guess=guess)


def solve_equilibrium(rig: RigSpec, p1: float, p2: float, *,
                      guess: float | None = None) -> EquilibriumState:
    """The ``belt_balance`` at the given gauge pressures, solved from ``guess`` (h2)."""
    return _balance(rig, _check_pressure(p1, "p1"), _check_pressure(p2, "p2"), guess=guess)


def equilibrium_slopes(rig: RigSpec, p1: float, p2: float,
                       eq: EquilibriumState) -> tuple[float, float]:
    """(dh2/dp1, dh2/dp2) in mm/kPa of an equilibrium already solved at (p1, p2).

    The implicit-function theorem on the ``belt_balance`` residual
    p1*a1(h1) - p2*a2(h2), with h1 = C + c*p2*a2(h2) - h2 and a, k each side's
    force and slope per kPa.  Both are 0 off the balance's interior branch.
    """
    if eq.branch == "interior":
        c = rig.belt_compliance
        a1, k1 = _side_force(rig.modulating, 1.0, eq.h1)
        a2, k2 = _side_force(rig.morphing, 1.0, eq.h2)
        if slope := p1 * k1 * (c * p2 * k2 - 1.0) - p2 * k2:
            return -a1 / slope, -a2 * (c * p1 * k1 - 1.0) / slope
    return 0.0, 0.0


class Probe(NamedTuple):
    """What ``_probe`` solved with a probe holding the morphing side down."""

    force: float  # N, on the probe
    tension: float  # N, of the belt
    h1: float  # mm, of the modulating side, which ``stiffness_slopes`` takes
    k: float  # N/mm, the stiffness dF/d(depth)


def _probe(rig: RigSpec, p1: float, p2: float, eq: EquilibriumState, h2: float) -> Probe:
    """The ``Probe`` holding the morphing side at h2 in (0, eq.h2 + 1e-9], below ``eq``, solved
    at (p1, p2), else a RigDomainError naming h2 h2_forced, as ``probe_force``.  The modulating side
    re-equilibrates against the belt, which goes slack once that side is free.  F = f2(h2) - T
    with the belt closing at h1 = C + c*T - h2, so dF/d(depth) = -f2'(h2) + d / (1 + c*d),
    d = -f1'(h1) (0 if slack), both slopes read back where the probe balance evaluated them,
    else evaluated anew.  The record is built as ``Probe`` would, without its frame."""
    if not 0.0 < h2 <= eq.h2 + 1e-9:
        raise RigDomainError(f"h2_forced {h2} mm not in the probe contact range "
                             f"(0, {eq.h2:.6g}] mm")
    spec1, spec2, c = rig.modulating, rig.morphing, rig.belt_compliance
    h1, _, tension, _, last1, last2 = belt_balance(_side_force, spec1, p1, spec2, p2,
                                                   spec1.free_height,
                                                   h2 if h2 < (x2 := spec2.free_height) else x2,
                                                   rig.belt_span, c)
    force, slope = last2[1] if last2 and last2[0] == h2 else _side_force(spec2, p2, h2)
    d = -(last1[1] if last1 and last1[0] == h1 else _side_force(spec1, p1, h1))[1]
    return tuple.__new__(Probe, (f if (f := force - tension) > 0.0 else 0.0, tension, h1,
                                 d / (1.0 + c * d) - slope))


def probe_force(rig: RigSpec, p1: float, p2: float,
                h2_forced: float) -> tuple[float, float, float]:
    """Force on a probe holding the morphing side at ``h2_forced``: (force N, belt_tension N,
    h1 mm), the first three fields of its ``Probe``."""
    return _probe(rig, p1, p2, solve_equilibrium(rig, p1, p2), h2_forced)[:3]


def _probe_curve(rig: RigSpec, p1: float, p2: float, max_depth: float, step: float,
                 eq: EquilibriumState) -> list[tuple[float, Probe]]:
    """(depth, ``_probe``) every ``step`` down to ``max_depth`` (mm), which rounds to at most
    PROBE_SAMPLES_MAX steps, below ``eq``, the equilibrium at (p1, p2)."""
    if not 0.0 < step < math.inf:
        raise RigDomainError(f"step must be positive and finite, got {step}")
    if not 0.0 <= max_depth / step < PROBE_SAMPLES_MAX + 0.5:  # also NaN and inf
        raise RigDomainError(f"max_depth {max_depth} mm not in [0, {PROBE_SAMPLES_MAX} steps]")
    if max_depth >= eq.h2:
        raise RigDomainError(f"max_depth {max_depth} mm exceeds equilibrium height {eq.h2:.6g} mm")
    return [(d, _probe(rig, p1, p2, eq, eq.h2 - d))
            for d in [i * step for i in range(round(max_depth / step) + 1)]]


def force_displacement_curve(rig: RigSpec, p1: float, p2: float, max_depth: float,
                             step: float) -> list[tuple[float, float]]:
    """Loading then unloading (depth, force) samples from the equilibrium height.

    ``max_depth`` / ``step`` (mm) rounds to at most PROBE_SAMPLES_MAX steps.
    """
    f = rig.friction_force
    curve = _probe_curve(rig, p1, p2, max_depth, step, solve_equilibrium(rig, p1, p2))
    return ([(d, max(0.0, probe.force + f)) for d, probe in curve]
            + [(d, max(0.0, probe.force - f)) for d, probe in reversed(curve)])


def stiffness(rig: RigSpec, p1: float, p2: float, h2: float) -> float:
    """Probe stiffness dF/d(depth) at height h2 below the equilibrium at (p1, p2) (N/mm), in
    closed form: the ``_probe``'s k."""
    eq = solve_equilibrium(rig, p1, p2)
    if not 0.0 < h2 < eq.h2:
        raise RigDomainError(f"h2 {h2} mm not in the probe contact range (0, {eq.h2:.6g}) mm")
    return _probe(rig, p1, p2, eq, h2).k


def stiffness_slopes(rig: RigSpec, p1: float, p2: float, eq: EquilibriumState, depth: float,
                     dh: tuple[float, float], y: float | None) -> tuple[float, float]:
    """(dk/dp1, dk/dp2) in N/mm/kPa of the ``_probe``'s k at ``depth`` below eq.h2:
    k = -p2*s2(x) + d/D at x = h2 - depth, with d = -p1*s1(y), D = 1 + c*d and the probe
    balance at y = C - x + c*p1*a1(y), or slack (a1 = s1 = 0); a, s, t: a side's force and
    slopes per kPa.  x moves by dh, eq's ``equilibrium_slopes``; y is the ``Probe``'s h1,
    None out of range, where this is (0, 0)."""
    if y is None:
        return 0.0, 0.0
    x = eq.h2 - depth
    (a1, s1), (_, s2) = _side_force(rig.modulating, 1.0, y), _side_force(rig.morphing, 1.0, x)
    t1 = KPA_MM2_TO_N * _curvature_slope(rig.modulating, y)
    t2 = KPA_MM2_TO_N * _curvature_slope(rig.morphing, x)
    c, (dh1, dh2) = rig.belt_compliance, dh
    big_d = 1.0 - c * p1 * s1  # dd/dp: -s1 - p1*t1*dy/dp1 and -p1*t1*dy/dp2
    dd1, dd2 = -s1 - p1 * t1 * (c * a1 - dh1) / big_d, p1 * t1 * dh2 / big_d
    return -p2 * t2 * dh1 + dd1 / big_d ** 2, -s2 - p2 * t2 * dh2 + dd2 / big_d ** 2


def size_pressure_sweep(rig: RigSpec, p2_fixed: float,
                        p1_path: Sequence[float]) -> list[tuple[float, float]]:
    """(p1, h2) samples along an ordered p1 path, with Coulomb hysteresis."""
    samples: list[tuple[float, float]] = []
    prev_h2: float | None = None
    for p1 in p1_path:
        h2_free = solve_equilibrium(rig, p1, p2_fixed, guess=prev_h2).h2
        moved = prev_h2 is not None and h2_free != prev_h2
        direction = math.copysign(1.0, h2_free - prev_h2) if moved else 0.0
        # Coulomb friction holds the height back against the motion
        h2 = _balance(rig, p1, p2_fixed, offset=-direction * rig.friction_force, guess=h2_free).h2
        samples.append((float(p1), h2))
        prev_h2 = h2
    return samples

