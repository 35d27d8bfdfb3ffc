"""Inverse rendering: map a (height, stiffness) target to a pressure pair.

The forward map (p1, p2) -> (equilibrium height, probe stiffness at a
reference depth) takes one equilibrium solve, whose closed-form slope
gives the stiffness.  Side forces scale with pressure, so h2 = h* fixes the
belt tension, and the contour of h* is p1 in closed form in p2 (``_contour``).
The seed is one bracketed root of the stiffness along it within the box; on
a rigid belt the contour is a ray, along which the stiffness scales with p2,
so its ends in the box and the seed are ratios of the two side forces at h* and
C - h*, written out in ``_seed`` with one probe, and no root solve.  The
contour's ends name an unreachable height or stiffness.  A damped Newton
iteration refines the seed on the closed-form Jacobian of the forward map
(``rig.equilibrium_slopes``, ``rig.stiffness_slopes``); a feasible refinement is
the plan, and only otherwise is a coarse grid the fallback, whose axes, like the
drivers' ``feasibility_map`` axes, are lists of floats (``_linspace``), so the scalar
kernels and the map's (p1, p2, h2, k) rows hold only Python floats.  Each solve of one
``plan_state`` call starts from the h2 of the one before.  Pressure bounds are capped by
``rig.PRESSURE_MAX_KPA``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial, reduce
from numbers import Real

from .errors import AfpaSimError
from .rig import (PRESSURE_MAX_KPA, EquilibriumState, RigSpec, _probe, _rising_root,
                  _side_force, equilibrium_slopes, solve_equilibrium, stiffness_slopes)

DEFAULT_PROBE_DEPTH_MM = 5.0
RESIDUAL_TOL = 1e-3
NEWTON_MAX_ITER = 40
GRID_N = 20  # points per axis of the fallback seed grid
Box = tuple[float, float, float, float]  # kPa pressure bounds (p1_lo, p1_hi, p2_lo, p2_hi)
FULL_BOX: Box = (0.0, PRESSURE_MAX_KPA, 0.0, PRESSURE_MAX_KPA)


class PlannerDomainError(AfpaSimError, ValueError):
    """Invalid target or pressure bounds."""


class InfeasibleTargetError(AfpaSimError, RuntimeError):
    """A required waypoint could not be planned."""


@dataclass(frozen=True)
class HapticTarget:
    target_height: float  # mm, desired equilibrium h2
    target_stiffness: float  # N/mm at the reference probe depth
    probe_depth_ref: float = DEFAULT_PROBE_DEPTH_MM


@dataclass(frozen=True)
class PlanResult:
    p1: float
    p2: float
    achieved_height: float
    achieved_stiffness: float
    residual_norm: float
    feasible: bool
    reason: str = ""


@dataclass(frozen=True)
class StateDef:
    """One entry of the 3x3 size/stiffness study grid."""

    id: int  # 1..9, row-major (size-major)
    p1: float
    p2: float
    size_class: str  # small | medium | large
    stiffness_class: str  # soft | medium | hard
    height: float
    stiffness: float


def forward_map(rig: RigSpec, p1: float, p2: float, probe_depth: float, *,
                guess: float | None = None) -> tuple[float, float]:
    """(equilibrium h2 solved from ``guess``, stiffness at h2 - probe_depth or 0 out of range,
    at or past h2); probe_depth must be positive and finite."""
    if not 0.0 < probe_depth < math.inf:
        raise PlannerDomainError(f"probe_depth {probe_depth} mm must be positive and finite")
    eq, k, _ = _forward_state(rig, p1, p2, probe_depth, guess)
    return eq.h2, k


def _forward_state(rig: RigSpec, p1: float, p2: float, probe_depth: float,
                   guess: float | None) -> tuple[EquilibriumState, float, float | None]:
    """``forward_map`` with the whole equilibrium state it solved, not only its h2, and the
    ``Probe``'s h1 (None out of range), which ``stiffness_slopes`` takes."""
    eq = solve_equilibrium(rig, p1, p2, guess=guess)
    if not 0.0 < (h := eq.h2 - probe_depth) < eq.h2:  # out of rig.stiffness's range
        return eq, 0.0, None
    probe = _probe(rig, p1, p2, eq, h)
    return eq, probe.k, probe.h1


def check_bounds(bounds: Box) -> Box:
    """The pressure box (p1_lo, p1_hi, p2_lo, p2_hi) as floats, if real numbers (not bools)
    ordered within the rig's limit."""
    if not ((type(bounds) is tuple or isinstance(bounds, Sequence)) and len(bounds) == 4):
        raise PlannerDomainError(f"bounds {bounds!r} must be a sequence of 4 pressures "
                                 "(p1_lo, p1_hi, p2_lo, p2_hi)")
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    floats = type(p1_lo) is type(p1_hi) is type(p2_lo) is type(p2_hi) is float  # the usual box
    numbers = floats or all(isinstance(b, Real) and not isinstance(b, bool) for b in bounds)
    if not (numbers and 0.0 <= p1_lo < p1_hi <= PRESSURE_MAX_KPA
            and 0.0 <= p2_lo < p2_hi <= PRESSURE_MAX_KPA):
        raise PlannerDomainError(f"bounds {bounds} must be ordered boxes of numbers within "
                                 f"[0, {PRESSURE_MAX_KPA:g}] kPa")
    return (p1_lo, p1_hi, p2_lo, p2_hi) if floats else tuple(map(float, bounds))


def _validate_target(rig: RigSpec, target: HapticTarget) -> tuple[float, float, float]:
    h, k, depth = target.target_height, target.target_stiffness, target.probe_depth_ref
    hf = rig.morphing.free_height
    if not 0.0 < h < hf:
        raise PlannerDomainError(f"target_height {h} mm outside (0, {hf:.6g}) mm")
    if not 0.0 < k < math.inf:
        raise PlannerDomainError(f"target_stiffness {k} N/mm must be positive and finite")
    if not 0.0 < h - depth < h:  # the probe's contact range, as rounded
        raise PlannerDomainError(f"probe_depth_ref {depth} mm leaves h2 outside (0, {h:.6g}) mm")
    return h, k, depth


def plan_state(rig: RigSpec, target: HapticTarget, bounds: Box = FULL_BOX) -> PlanResult:
    """Solve for (p1, p2) realizing the target; best-effort result if infeasible.

    bounds is (p1_lo, p1_hi, p2_lo, p2_hi) in kPa.
    """
    bounds = check_bounds(bounds)
    h_star, k_star, depth = _validate_target(rig, target)
    last_h = h_star  # each solve starts from the h2 of the one before

    def residual(p1: float, p2: float) -> tuple[float, float, tuple]:
        """Relative height and stiffness misses, and the ``_forward_state`` they come from."""
        nonlocal last_h
        eq, k, _ = state = _forward_state(rig, p1, p2, depth, last_h)
        last_h = eq.h2
        return (eq.h2 - h_star) / h_star, (k - k_star) / k_star, state

    def jacobian(p1: float, p2: float, state: tuple) -> tuple[float, float, float, float]:
        """The residual's slopes, row by row, at a point whose ``residual`` gave ``state``."""
        eq, _, y = state
        dh = equilibrium_slopes(rig, p1, p2, eq)
        dk = stiffness_slopes(rig, p1, p2, eq, depth, dh, y)
        return dh[0] / h_star, dh[1] / h_star, dk[0] / k_star, dk[1] / k_star

    seed, reason = _seed(rig, h_star, k_star, depth, bounds)
    plans = [] if seed is None else [_refine(residual, jacobian, *seed, bounds)]
    if plans and plans[0].feasible:  # the seed's plan, which _best would pick alone
        return plans[0]
    p2s = _linspace(*bounds[2:], GRID_N)  # coarse grid fallback for maps the seed misses
    seeds = sorted(((math.hypot(*residual(p1, p2)[:2]), p1, p2)
                    for p1 in _linspace(*bounds[:2], GRID_N) for p2 in p2s),
                   key=lambda s: (s[0], s[1] + s[2]))
    plans += [_refine(residual, jacobian, p1, p2, bounds) for _, p1, p2 in seeds[:3]]
    best = _best(plans)
    return best if best.feasible else replace(best, reason=reason or best.reason)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` for num >= 2, bit for bit: start + i*step
    with the last point stop, and its start + (i / (num - 1))*width where the step is 0;
    floats, from integer ends too."""
    div, width = num - 1, stop - start
    if step := width / div:
        points = [start + i * step for i in range(num)]
    else:  # a subnormal width
        points = [start + i / div * width for i in range(num)]
    points[-1] = float(stop)
    return points


def _best(plans: list[PlanResult]) -> PlanResult:
    """The feasible plan of least p1 + p2 (an earlier one within 1e-9), else the least residual."""
    feasible = [p for p in plans if p.feasible]
    if not feasible:
        return min(plans, key=lambda p: p.residual_norm)
    return reduce(lambda best, p: p if p.p1 + p.p2 < best.p1 + best.p2 - 1e-9 else best, feasible)


def _clip(a: float, lo: float, hi: float) -> float:
    """min(max(a, lo), hi), each bound picking the operand the builtin would: NaN stays NaN."""
    return hi if hi < (b := lo if lo > a else a) else b


def _contour(rig: RigSpec, h_star: float):
    """h2 = h_star on the balance's interior branch, max(0, C - x1) < h_star < min(x2, C):
    side forces are p*a(h), so T = p2*a2(h_star) and p1 = T / a1(C + c*T - h_star) rises
    with p2.  Two functions of p2: ``point``, (p1, dp1/dp2 = (a2/a1)*(1 - c*p1*s1), the
    equilibrium), and ``gap``, T - P*a1 and its slope, rising through 0 where p1 = P.  Each
    call evaluates side 1 at its h1.  On a rigid belt h1 = C - h_star, so ``gap`` is affine
    in p2, and ``_seed`` reads that ray's ratios without these functions."""
    span, c = rig.belt_span, rig.belt_compliance
    a2 = _side_force(rig.morphing, 1.0, h_star)[0]

    def point(p2: float) -> tuple[float, float, EquilibriumState]:
        a1, s1 = _side_force(rig.modulating, 1.0, h1 := span + c * (t := p2 * a2) - h_star)
        eq = EquilibriumState(h1, h_star, t, "interior")
        if not a1:  # side 1 free: no p1 holds h_star
            return math.inf, math.inf, eq
        return t / a1, a2 / a1 * (1.0 - c * t / a1 * s1), eq

    def gap(p2: float, p1: float) -> tuple[float, float]:
        a1, s1 = _side_force(rig.modulating, 1.0, span + c * (t := p2 * a2) - h_star)
        return t - p1 * a1, a2 * (1.0 - c * p1 * s1)

    return point, gap


def _line_root(y0: float, slope: float, lo: float, hi: float) -> float:
    """Root -y0 / slope in [lo, hi] of the rising line y0 + slope*x, with ``_rising_root``'s
    ends: hi if the line is <= 0 at hi, lo if it is >= 0 at lo.  Otherwise the root is
    inside, so a quotient rounded onto an end gives the float next to it, inward."""
    if y0 + slope * hi <= 0.0:
        return hi
    if y0 + slope * lo >= 0.0:
        return lo
    x = -y0 / slope
    return math.nextafter(hi, lo) if x >= hi else math.nextafter(lo, hi) if x <= lo else x


def _seed(rig: RigSpec, h_star: float, k_star: float, depth: float,
          bounds: Box) -> tuple[tuple[float, float] | None, str]:
    """Seed pressures, or None, and why the target is out of reach, or "": the root of
    k_star along h_star's ``_contour`` in the box, whose ends are roots of its ``gap``,
    or at h_star = C < x2, the span plateau (a region, left of that contour), along
    p1 = p1_lo.  On a rigid belt ``gap`` is p2*a2 - p1*a1, with a2 at h_star and a1 at
    C - h_star, and the contour is a ray, along which k scales with p2: the ends and
    k_star's root on it are ratios (``_line_root``), and only the probe at its p2_max end
    takes an ``EquilibriumState``.  The end that k_star passes names an unreachable
    stiffness."""
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    span, c = rig.belt_span, rig.belt_compliance
    top = min(rig.morphing.free_height, span)
    if not max(0.0, span - rig.modulating.free_height) < h_star <= top:
        return None, _diagnose(top - h_star, 0.0)
    if c:
        contour, gap = _contour(rig, h_star)
        p2_min = _rising_root(partial(gap, p1=p1_lo), p2_lo, None, p2_hi, None)
        p2_max = _rising_root(partial(gap, p1=p1_hi), p2_lo, None, p2_hi, None)
        passes = ((g := gap(p2_max, p1_lo)[0]) < 0.0
                  or h_star < top and gap(p2_min, p1_hi)[0] > 0.0)
    else:  # gap is p2*a2 - p1*a1, with side 1 once at h1 = C - h_star
        a2 = _side_force(rig.morphing, 1.0, h_star)[0]
        a1 = _side_force(rig.modulating, 1.0, span - h_star)[0]
        p2_min = _line_root(-p1_lo * a1, a2, p2_lo, p2_hi)
        p2_max = _line_root(-p1_hi * a1, a2, p2_lo, p2_hi)
        passes = ((g := p2_max * a2 - p1_lo * a1) < 0.0
                  or h_star < top and p2_min * a2 - p1_hi * a1 > 0.0)
    if passes:
        return None, _diagnose(g, 0.0)  # the contour passes the box on one side
    if h_star == top:  # the span plateau, a region left of the contour
        p2_max = p2_hi
        def path(p2: float) -> tuple[float, float, EquilibriumState]:
            return p1_lo, 0.0, solve_equilibrium(rig, p1_lo, p2, guess=h_star)
    elif not c:  # a ray, along which k scales with p2: p1 = p2*a2 / a1
        if not a1:  # side 1 free all along the ray
            return None, ""
        eq = EquilibriumState(span - h_star, h_star, t := p2_max * a2, "interior")
        k_max = _probe(rig, t / a1, p2_max, eq, h_star - depth).k  # depth in (0, h_star)
        p2 = _line_root(-p2_max * k_star, k_max, p2_min, p2_max)  # p2_max times k_star / k_max
        miss = k_max * p2 / p2_max - k_star if p2 in (p2_min, p2_max) else 0.0  # past that end
        return (_clip(p2 * a2 / a1, p1_lo, p1_hi), p2), _diagnose(0.0, miss) if miss else ""
    elif contour(p2_max)[0] == math.inf:  # side 1 free at p1_hi's end of the contour
        return None, ""
    else:
        path = contour

    def stiffness(p2: float) -> tuple[float, float]:
        """k - k_star along the path at p2, and its slope in p2."""
        p1, dp1, eq = path(p2)
        probe = _probe(rig, p1, p2, eq, h_star - depth)
        dk = stiffness_slopes(rig, p1, p2, eq, depth, equilibrium_slopes(rig, p1, p2, eq),
                              probe.h1)
        return probe.k - k_star, dk[0] * dp1 + dk[1]

    p2 = _rising_root(stiffness, p2_min, None, p2_max, None)
    miss = stiffness(p2)[0] if p2 in (p2_min, p2_max) else 0.0  # k_star past that end
    return (_clip(path(p2)[0], p1_lo, p1_hi), p2), _diagnose(0.0, miss) if miss else ""


def _refine(residual, jacobian, p1: float, p2: float, bounds) -> PlanResult:
    """Damped Newton from (p1, p2), each step solved from ``jacobian`` by Cramer's rule."""
    r1, r2, state = residual(p1, p2)
    norm = math.hypot(r1, r2)
    for _ in range(NEWTON_MAX_ITER):
        if norm <= RESIDUAL_TOL:
            break
        a, b, c, d = jacobian(p1, p2, state)
        if not (det := a * d - b * c):
            break
        step = ((b * r2 - d * r1) / det, (c * r1 - a * r2) / det)
        # a pressure the step pushes past its bound is held, the other solves least squares
        if _clip(p1 + step[0], *bounds[:2]) == p1 != p1 + step[0] and b * b + d * d:
            step = (0.0, -(b * r1 + d * r2) / (b * b + d * d))
        elif _clip(p2 + step[1], *bounds[2:]) == p2 != p2 + step[1] and a * a + c * c:
            step = (-(a * r1 + c * r2) / (a * a + c * c), 0.0)
        for i in range(12):  # damped update: halve until the residual decreases
            n1 = _clip(p1 + 0.5 ** i * step[0], *bounds[:2])
            n2 = _clip(p2 + 0.5 ** i * step[1], *bounds[2:])
            t1, t2, tstate = residual(n1, n2)
            if (tn := math.hypot(t1, t2)) < norm:
                p1, p2, r1, r2, state, norm = n1, n2, t1, t2, tstate, tn
                break
        else:
            break
    feasible = norm <= RESIDUAL_TOL
    eq, k, _ = state
    return PlanResult(p1=p1, p2=p2, achieved_height=eq.h2, achieved_stiffness=k, residual_norm=norm,
                      feasible=feasible, reason="" if feasible else _diagnose(r1, r2))


def _diagnose(r1: float, r2: float) -> str:
    if abs(r2) > abs(r1):
        side = "low" if r2 < 0 else "high"
        return f"stiffness unreachable at height (achievable stiffness too {side})"
    side = "low" if r1 < 0 else "high"
    return f"height unreachable (achievable height too {side})"


def feasibility_map(rig: RigSpec, p1_values: Sequence[float], p2_values: Sequence[float],
                    probe_depth: float = DEFAULT_PROBE_DEPTH_MM) -> list[tuple]:
    """Forward-model grid: one (p1, p2, h2, k) tuple per pressure pair, p1 and p2 as the axes
    give them, each cell solved from the h2 of the one before."""
    if min(len(p1_values), len(p2_values)) < 2:
        raise PlannerDomainError("grid must have at least 2x2 cells")
    rows, h = [], None
    for p1 in p1_values:
        for p2 in p2_values:
            h, k = forward_map(rig, p1, p2, probe_depth, guess=h)
            rows.append((p1, p2, h, k))
    return rows


def _plan_or_raise(rig: RigSpec, h: float, k: float, bounds: Box, probe_depth: float,
                   name: str) -> PlanResult:
    """``plan_state`` of one (h, k) target; InfeasibleTargetError naming it if infeasible."""
    plan = plan_state(rig, HapticTarget(h, k, probe_depth), bounds)
    if not plan.feasible:
        raise InfeasibleTargetError(f"{name} infeasible: {plan.reason}")
    return plan


def constant_stiffness_path(
    rig: RigSpec,
    k_star: float,
    heights: Sequence[float],
    bounds: Box = FULL_BOX,
    probe_depth: float = DEFAULT_PROBE_DEPTH_MM,
) -> list[PlanResult]:
    """Per-height plans holding the stiffness constant along the path."""
    return [_plan_or_raise(rig, h, k_star, bounds, probe_depth,
                           f"waypoint h2={h} mm, k={k_star} N/mm") for h in heights]


SIZE_CLASSES = ("small", "medium", "large")
STIFFNESS_CLASSES = ("soft", "medium", "hard")


def state_table(
    rig: RigSpec,
    sizes: Sequence[float],
    stiffnesses: Sequence[float],
    bounds: Box = FULL_BOX,
    probe_depth: float = DEFAULT_PROBE_DEPTH_MM,
) -> list[StateDef]:
    """3x3 grid of planned states, ids 1..9 row-major (size-major)."""
    if len(set(sizes)) != 3:
        raise PlannerDomainError("sizes must be 3 distinct heights")
    if len(set(stiffnesses)) != 3:
        raise PlannerDomainError("stiffnesses must be 3 distinct values")
    states = []
    for i, h in enumerate(sorted(sizes)):
        for j, k in enumerate(sorted(stiffnesses)):
            plan = _plan_or_raise(
                rig, h, k, bounds, probe_depth,
                f"state (size={SIZE_CLASSES[i]}, stiffness={STIFFNESS_CLASSES[j]})")
            states.append(StateDef(
                id=3 * i + j + 1, p1=plan.p1, p2=plan.p2,
                size_class=SIZE_CLASSES[i], stiffness_class=STIFFNESS_CLASSES[j],
                height=plan.achieved_height, stiffness=plan.achieved_stiffness,
            ))
    return states
