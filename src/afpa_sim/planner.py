"""Inverse rendering: map a (height, stiffness) target to a pressure pair.

The forward map (p1, p2) -> (equilibrium height, probe stiffness at a
reference depth) takes one equilibrium solve, whose closed-form slope
gives the stiffness.  Side forces scale with pressure, so h2 = h* fixes the
belt tension, and the contour of h* is p1 in closed form in p2 (``_contour``).
The seed is one bracketed root of the stiffness along it within the box; on
a rigid belt the contour is a ray, along which the stiffness scales with p2,
so its ends in the box and the seed are ratios, with no root solve.  The
contour's ends name an unreachable height or stiffness.  A damped Newton
iteration refines the seed on the closed-form Jacobian of the forward map
(``rig.equilibrium_slopes``, ``rig.stiffness_slopes``); a coarse grid is the
fallback.  Each solve of one ``plan_state`` call starts from the h2 of the
one before.  Pressure bounds are capped by ``rig.PRESSURE_MAX_KPA``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial, reduce
from numbers import Real

from .errors import AfpaSimError
from .rig import (PRESSURE_MAX_KPA, EquilibriumState, RigSpec, _probe,
                  _rising_root, _side_force, contact_stiffness, equilibrium_slopes,
                  solve_equilibrium, stiffness_slopes)

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
    if not 0.0 < (h := eq.h2 - probe_depth) < eq.h2:  # out of contact_stiffness's range
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
    if not any(p.feasible for p in plans):
        import numpy as np  # coarse grid fallback for maps the seed does not cover
        seeds = sorted(((math.hypot(*residual(p1, p2)[:2]), float(p1), float(p2))
                        for p1 in np.linspace(*bounds[:2], GRID_N)
                        for p2 in np.linspace(*bounds[2:], GRID_N)),
                       key=lambda s: (s[0], s[1] + s[2]))
        plans += [_refine(residual, jacobian, p1, p2, bounds) for _, p1, p2 in seeds[:3]]
    best = _best(plans)
    return best if best.feasible else replace(best, reason=reason or best.reason)


def _best(plans: list[PlanResult]) -> PlanResult:
    """The feasible plan of least p1 + p2 (an earlier one within 1e-9), else the least residual."""
    feasible = [p for p in plans if p.feasible]
    if not feasible:
        return min(plans, key=lambda p: p.residual_norm)
    return reduce(lambda best, p: p if p.p1 + p.p2 < best.p1 + best.p2 - 1e-9 else best, feasible)


def _clip(a: float, lo: float, hi: float) -> float:
    return min(max(a, lo), hi)


def _contour(rig: RigSpec, h_star: float):
    """h2 = h_star on the balance's interior branch, max(0, C - x1) < h_star < min(x2, C):
    side forces are p*a(h), so T = p2*a2(h_star) and p1 = T / a1(C + c*T - h_star) rises
    with p2.  Two functions of p2: ``point``, (p1, dp1/dp2 = (a2/a1)*(1 - c*p1*s1), the
    equilibrium), and ``gap``, T - P*a1 and its slope, rising through 0 where p1 = P.  On a
    rigid belt h1 = C - h_star, so side 1 is evaluated once and ``gap`` is affine in p2."""
    span, c = rig.belt_span, rig.belt_compliance
    a2 = _side_force(rig.morphing, 1.0, h_star)[0]
    memo: dict[float, tuple[float, float]] = {}  # (a1, s1) by h1: one entry if rigid

    def side1(h1: float) -> tuple[float, float]:
        return memo.get(h1) or memo.setdefault(h1, _side_force(rig.modulating, 1.0, h1))

    def point(p2: float) -> tuple[float, float, EquilibriumState]:
        a1, s1 = side1(h1 := span + c * (t := p2 * a2) - h_star)
        eq = EquilibriumState(h1, h_star, t, "interior")
        if not a1:  # side 1 free: no p1 holds h_star
            return math.inf, math.inf, eq
        return t / a1, a2 / a1 * (1.0 - c * t / a1 * s1), eq

    def gap(p2: float, p1: float) -> tuple[float, float]:
        a1, s1 = side1(span + c * (t := p2 * a2) - h_star)
        return t - p1 * a1, a2 * (1.0 - c * p1 * s1)

    return point, gap


def _line_root(y0: float, slope: float, lo: float, hi: float) -> float:
    """Root -y0 / slope in [lo, hi] of the rising line y0 + slope*x, with ``_rising_root``'s
    ends: hi if the line is <= 0 at hi, lo if it is >= 0 at lo."""
    if y0 + slope * hi <= 0.0:
        return hi
    if y0 + slope * lo >= 0.0:
        return lo
    return _clip(-y0 / slope, lo, hi)


def _seed(rig: RigSpec, h_star: float, k_star: float, depth: float,
          bounds: Box) -> tuple[tuple[float, float] | None, str]:
    """Seed pressures, or None, and why the target is out of reach, or "": the root of
    k_star along h_star's ``_contour`` in the box, whose ends are roots of its ``gap``,
    or at h_star = C < x2, the span plateau (a region, left of that contour), along
    p1 = p1_lo.  On a rigid belt ``gap`` is affine in p2 and the contour is a ray, along
    which k scales with p2: the ends and k_star's root on it are ratios (``_line_root``).
    The end that k_star passes names an unreachable stiffness."""
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    top = min(rig.morphing.free_height, rig.belt_span)
    if not max(0.0, rig.belt_span - rig.modulating.free_height) < h_star <= top:
        return None, _diagnose(top - h_star, 0.0)
    contour, gap = _contour(rig, h_star)
    if rig.belt_compliance:
        p2_min, p2_max = (_rising_root(partial(gap, p1=p), p2_lo, None, p2_hi, None)
                          for p in (p1_lo, p1_hi))
    else:
        p2_min, p2_max = (_line_root(*gap(0.0, p), p2_lo, p2_hi) for p in (p1_lo, p1_hi))
    if (g := gap(p2_max, p1_lo)[0]) < 0.0 or (h_star < top and gap(p2_min, p1_hi)[0] > 0.0):
        return None, _diagnose(g, 0.0)  # the contour passes the box on one side
    if h_star == top:  # the span plateau, a region left of the contour
        p2_max = p2_hi
        def path(p2: float) -> tuple[float, float, EquilibriumState]:
            return p1_lo, 0.0, solve_equilibrium(rig, p1_lo, p2, guess=h_star)
    elif (end := contour(p2_max))[0] == math.inf:  # side 1 free at p1_hi's end of the contour
        return None, ""
    else:
        path = contour
    if path is contour and not rig.belt_compliance:  # a ray, along which k scales with p2
        p1, _, eq = end
        k_max = contact_stiffness(rig, p1, p2_max, eq, h_star - depth)
        def stiffness(p2: float) -> tuple[float, float]:
            return k_max * p2 / p2_max - k_star, k_max / p2_max
        p2 = _line_root(-p2_max * k_star, k_max, p2_min, p2_max)  # p2_max times k_star / k_max
    else:
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


def feasibility_map(
    rig: RigSpec,
    p1_values: Sequence[float],
    p2_values: Sequence[float],
    probe_depth: float = DEFAULT_PROBE_DEPTH_MM,
) -> np.ndarray:
    """Forward-model grid: rows (p1, p2, h2, k) for every pressure pair."""
    import numpy as np
    if len(p1_values) * len(p2_values) < 4:
        raise PlannerDomainError("grid must have at least 2x2 cells")
    rows, h = [], None  # each cell's solve starts from the h2 of the one before
    for p1 in p1_values:
        for p2 in p2_values:
            h, k = forward_map(rig, p1, p2, probe_depth, guess=h)
            rows.append((p1, p2, h, k))
    return np.array(rows, dtype=float)


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
