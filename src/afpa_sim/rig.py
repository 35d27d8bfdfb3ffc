"""Coupled equilibrium of two opposed pouch stacks under a crossing-belt tie.

The belt constrains h1 + h2 <= belt_span + belt_compliance * tension and
can only pull.  One force balance, ``belt_balance``, with belt stretch on
every path, serves the equilibrium, the Coulomb branches of the size
sweeps, the probe (a stop holding the morphing side down) and the valve
dynamics.  It returns one record, ``Balance``: heights, tension, branch and
each side's last evaluation, which the valve gauges read back, and the probe
into its own record, ``Probe``: force, belt tension, h1 and stiffness, which
``probe_force``, ``contact_stiffness`` and ``force_displacement_curve`` read.
The balance's roots, the valve model's free-expansion height and the planner's seed
pressures come from the package's one root solver, the bracketed,
safeguarded Newton ``_root``, on closed-form slopes.  Probe stiffness and
the slopes in pressure of the height (``equilibrium_slopes``) and of the
stiffness (``stiffness_slopes``) are closed-form implicit derivatives of
the balance.  It starts from a ``guess`` of h2 where one is known: the
valve step's prediction, or a nearby solve's in the planner and the size
sweep; a guess whose Newton step is within the root tolerance ends it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .errors import AfpaSimError
from .pouch import KPA_MM2_TO_N, PouchDomainError, PouchStackSpec, _curvature_slope, _volume_terms

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


class CalibrationError(AfpaSimError, ValueError):
    """Anchor set cannot determine the rig parameters."""


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
        if self.belt_compliance < 0:
            raise ValueError("belt_compliance must be >= 0")
        if self.friction_force < 0:
            raise ValueError("friction_force must be >= 0")
        if self.deflated_floor < 0:
            raise ValueError("deflated_floor must be >= 0")


@dataclass(frozen=True)
class EquilibriumState:
    h1: float  # mm
    h2: float  # mm
    belt_tension: float  # N
    branch: str  # the ``Balance`` branch: slack, interior, pinned or squashed

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
    _, area, curvature = _volume_terms(spec, max(height, 1e-9))
    force = pressure * area * KPA_MM2_TO_N
    if force < _FORCE_MIN and force:  # a subnormal force counts as none
        return 0.0, 0.0
    return force, pressure * curvature * KPA_MM2_TO_N


def _root(f: Callable[[float], tuple[float, float]], a: float, fa: tuple[float, float],
          b: float, fb: tuple[float, float]) -> float:
    """Root of f, which returns (value, slope), between a and b, given fa = f(a), fb = f(b).

    An end where f is exactly 0 is the root.  Otherwise safeguarded Newton from
    the end with the smaller value, stopping at a step within ROOT_XTOL_MM: a
    step that leaves the shrinking bracket, or is not half the one before, takes
    the Illinois false-position point, or bisection when that is not inside,
    until the bracket is within ROOT_XTOL_MM.  A false-position point rounded
    onto an end gives that end where the bracket is within ROOT_XTOL_MM, or
    where a point ROOT_XTOL_MM inside that end has the other end's sign.
    """
    if fa[0] == 0.0 or fb[0] == 0.0:
        return a if fa[0] == 0.0 else b
    if fa[0] > 0.0:
        a, fa, b, fb = b, fb, a, fa  # f(a) < 0 < f(b) from here on
    (ya, ka), (yb, kb) = fa, fb
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


def _rising_root(f: Callable[[float], tuple[float, float]], lo: float,
                 f_lo: tuple[float, float] | None, hi: float, guess: float | None) -> float:
    """Root of a rising f in [lo, hi], f_lo = f(lo) or None: hi if f(hi) <= 0, lo if f(lo) >= 0.

    A guess inside (lo, hi) takes ``_root``'s stopping rule: a Newton step from
    it within ROOT_XTOL_MM, to a point inside (lo, hi), gives that point, an
    exact zero with a slope the guess itself.  Otherwise the guess replaces an
    end, and so does its Newton point pushed ROOT_XTOL_MM / 2 further.
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
    if f_lo is None and (f_lo := f(lo))[0] >= 0.0:
        return lo
    return _root(f, lo, f_lo, hi, f_hi)


class Balance(NamedTuple):
    """What ``belt_balance`` solved.  branch: 'slack' (x1 + x2 < span), 'interior' (a root
    inside h2's bracket), 'pinned' (h2 at its top: the span or the stop x2) or 'squashed'
    (h2 at its bottom, span - x1); side1, side2: each side's last evaluation, (height,
    what the side function returned there), or None when slack."""

    h1: float  # mm
    h2: float  # mm
    tension: float  # N
    branch: str
    side1: tuple | None
    side2: tuple | None


def _carried(last: tuple | None, i: int, x: float) -> float | None:
    """Value i of ``last``, a side's last evaluation (at, values), carried to x by value
    i + 1, its slope, where at is within ROOT_XTOL_MM and values hold both; else None."""
    if last:
        at, values = last
        if len(values) > i + 1 and -ROOT_XTOL_MM <= x - at <= ROOT_XTOL_MM:
            return values[i] + values[i + 1] * (x - at)
    return None


def _read(last: tuple | None, x: float, f: Callable[[float], tuple]) -> tuple:
    """f(x), read back from ``last``, a side's last evaluation, where that was at x."""
    return last[1] if last and last[0] == x else f(x)


def belt_balance(f1: Callable[[float], tuple], f2: Callable[[float], tuple], x1: float,
                 x2: float, span: float, compliance: float, offset: float = 0.0,
                 guess: float | None = None) -> Balance:
    """The ``Balance`` of two sides tied by the belt.

    f1 and f2 give each side's contact force and its slope at its height,
    and may return more values after them, which the record keeps; x1 and
    x2 are the heights the sides cannot pass (zero force, or a stop such as
    a probe holding side 2 down).  ``offset`` is a Coulomb force on side 2,
    positive while h2 falls.  With the tension taken as f2(h2), the residual
    f1(span + compliance * tension - h2) - tension - offset rises with h2, so
    a bracketed root is unique; its slope is analytic.  Without a sign change
    side 2 is pinned or squashed at an end of its range and side 1 alone
    stretches the belt.  ``guess`` is an h2 to start from, such as the last
    time step's.  An interior root's tension is ``_carried`` from f2's.
    """
    if x1 + x2 < span:
        return Balance(x1, x2, 0.0, "slack", None, None)
    last1 = last2 = None

    def residual(h2: float) -> tuple[float, float]:
        nonlocal last1, last2
        r2 = f2(h2)
        h1 = span + compliance * r2[0] - h2
        r1 = f1(h1)
        last1, last2 = (h1, r1), (h2, r2)
        return r1[0] - r2[0] - offset, r1[1] * (compliance * r2[1] - 1.0) - r2[1]

    lo, hi = max(1e-9, span - x1), min(x2, span)
    if lo < (h2 := _rising_root(residual, lo, None, hi, guess)) < hi:
        if (tension := _carried(last2, 0, h2)) is None:  # f2 is evaluated anew, and kept
            last2 = h2, f2(h2)
            tension = last2[1][0]
        return Balance(min(x1, span + compliance * tension - h2), h2, tension, "interior",
                       last1, last2)
    h1 = span - h2
    if last1[0] != h1:  # else a rigid belt's residual has evaluated f1 there
        last1 = h1, f1(h1)
    tension, k1 = last1[1][:2]
    if compliance > 0.0 and tension > 0.0:
        def stretch(t: float) -> tuple[float, float]:
            nonlocal last1
            h = h1 + compliance * t
            last1 = h, (r := f1(h))
            return r[0] - t, compliance * r[1] - 1.0

        if (s_hi := stretch(tension))[0] < 0.0:  # else the stretch is below rounding
            tension = _root(stretch, 0.0, (tension, compliance * k1 - 1.0), tension, s_hi)
        h1 += compliance * tension
    return Balance(min(x1, h1), h2, tension, "pinned" if h2 == hi else "squashed",
                   last1, last2)


def _balance(rig: RigSpec, p1: float, p2: float, offset: float = 0.0, *,
             guess: float | None = None) -> Balance:
    """``belt_balance`` of the rig's stacks."""
    return belt_balance(partial(_side_force, rig.modulating, p1),
                        partial(_side_force, rig.morphing, p2), rig.modulating.free_height,
                        rig.morphing.free_height, rig.belt_span, rig.belt_compliance, offset,
                        guess=guess)


def solve_equilibrium(rig: RigSpec, p1: float, p2: float, *,
                      guess: float | None = None) -> EquilibriumState:
    """Equilibrium heights and belt tension at the given gauge pressures, from ``guess`` (h2)."""
    b = _balance(rig, _check_pressure(p1, "p1"), _check_pressure(p2, "p2"), guess=guess)
    return EquilibriumState(b.h1, b.h2, b.tension, b.branch)


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
    d = -f1'(h1) (0 if slack), both slopes read back where the probe balance evaluated them."""
    if not 0.0 < h2 <= eq.h2 + 1e-9:
        raise RigDomainError(f"h2_forced {h2} mm not in the probe contact range "
                             f"(0, {eq.h2:.6g}] mm")
    f1, f2 = partial(_side_force, rig.modulating, p1), partial(_side_force, rig.morphing, p2)
    b = belt_balance(f1, f2, rig.modulating.free_height, min(rig.morphing.free_height, h2),
                     rig.belt_span, rig.belt_compliance)
    force, slope = _read(b.side2, h2, f2)
    d = -_read(b.side1, b.h1, f1)[1]
    return Probe(max(0.0, force - b.tension), b.tension, b.h1,
                 d / (1.0 + rig.belt_compliance * d) - slope)


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
    """Probe stiffness dF/d(depth) at height h2 (N/mm), in closed form."""
    return contact_stiffness(rig, p1, p2, solve_equilibrium(rig, p1, p2), h2)


def contact_stiffness(rig: RigSpec, p1: float, p2: float, eq: EquilibriumState,
                      h2: float) -> float:
    """``stiffness`` below an equilibrium already solved at (p1, p2): the ``_probe``'s k."""
    if not 0.0 < h2 < eq.h2:
        raise RigDomainError(f"h2 {h2} mm not in the probe contact range (0, {eq.h2:.6g}) mm")
    return _probe(rig, p1, p2, eq, h2).k


def stiffness_slopes(rig: RigSpec, p1: float, p2: float, eq: EquilibriumState, depth: float,
                     dh: tuple[float, float], y: float | None) -> tuple[float, float]:
    """(dk/dp1, dk/dp2) in N/mm/kPa of the ``contact_stiffness`` k at ``depth`` below eq.h2:
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


# --- calibration -----------------------------------------------------------

@dataclass(frozen=True)
class Anchor:
    """One observed operating point used to fit the rig geometry.

    kind: 'height'    -> observed = equilibrium h2 (mm) at (p1, p2)
          'force'     -> observed = probe force (N) at (p1, p2, h2)
          'stiffness' -> observed = probe stiffness (N/mm) at (p1, p2, h2)

    An unknown kind, a force or stiffness anchor without h2, an observed value not
    positive and finite, or a pressure outside [0, PRESSURE_MAX_KPA] raises CalibrationError.
    """

    kind: str
    p1: float
    p2: float
    observed: float
    h2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PREDICT:
            raise CalibrationError(f"unknown anchor kind {self.kind!r}, not one of "
                                   f"{', '.join(_PREDICT)}")
        if self.kind != "height" and self.h2 is None:
            raise CalibrationError(f"{self.kind} anchor requires an h2 value")
        if not 0.0 < self.observed < math.inf:  # also NaN
            raise CalibrationError(f"anchor observed {self.observed} must be positive and finite")
        if not all(0.0 <= p <= PRESSURE_MAX_KPA for p in (self.p1, self.p2)):
            raise CalibrationError(f"anchor pressures ({self.p1}, {self.p2}) kPa must be in "
                                   f"[0, {PRESSURE_MAX_KPA}] kPa")


_PREDICT = {  # an anchor's observation predicted on a rig, by kind
    "height": lambda rig, a: solve_equilibrium(rig, a.p1, a.p2).h2,
    "force": lambda rig, a: probe_force(rig, a.p1, a.p2, a.h2)[0],
    "stiffness": lambda rig, a: stiffness(rig, a.p1, a.p2, a.h2),
}


@dataclass
class CalibrationResult:
    rig: RigSpec
    residuals: list[float]
    anchors: list[Anchor]


_FIT_PARAMS = ("modulating.flat_width", "modulating.flat_length",
               "morphing.flat_width", "morphing.flat_length", "belt_span")


def _rig_from_vector(x: Sequence[float], template: RigSpec) -> RigSpec:
    w1, l1, w2, l2, c = x
    return replace(template, belt_span=c,
                   modulating=replace(template.modulating, flat_width=w1, flat_length=l1),
                   morphing=replace(template.morphing, flat_width=w2, flat_length=l2))


def calibrate_rig(anchors: Sequence[Anchor], start: RigSpec) -> CalibrationResult:
    """Least-squares fit of the five geometry parameters to the anchors.

    Residuals are normalized by the observed values; the fit is a damped
    Gauss-Newton (trust-region) descent from the given starting rig and
    is deterministic.
    """
    anchors = list(anchors)
    if len(anchors) < len(_FIT_PARAMS) - 1:
        raise CalibrationError(f"need at least {len(_FIT_PARAMS) - 1} independent anchors to "
                               f"constrain parameters {', '.join(_FIT_PARAMS)}; "
                               f"got {len(anchors)}")
    x0 = operator.attrgetter(*_FIT_PARAMS)(start)

    def residuals(x):
        try:
            rig = _rig_from_vector(x, start)
        except ValueError:
            return [1e3] * len(anchors)
        out = []
        for a in anchors:
            try:
                pred = _PREDICT[a.kind](rig, a)
            except (RigDomainError, PouchDomainError):
                pred = 0.0
            out.append((pred - a.observed) / a.observed)
        return out

    from scipy.optimize import least_squares  # scipy loads on the first calibration

    sol = least_squares(
        residuals, x0, method="trf",
        bounds=([1.0, 1.0, 1.0, 1.0, 10.0], [500.0, 2000.0, 500.0, 2000.0, 500.0]),
        xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=400,
    )
    rig = _rig_from_vector(sol.x, start)
    return CalibrationResult(rig=rig, residuals=list(sol.fun), anchors=anchors)
