"""Inverse rendering: map a (height, stiffness) target to a pressure pair.

The forward map (p1, p2) -> (equilibrium height, probe stiffness at a
reference depth) takes one equilibrium solve, whose closed-form slope
gives the stiffness.  It is smooth away from the slack/taut boundary; the
planner seeds from the height ratio and stiffness scale (or a coarse
grid) and refines with a damped Newton iteration on a finite-difference
Jacobian.  Pressure bounds are capped by ``rig.PRESSURE_MAX_KPA``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .pouch import free_height
from .rig import PRESSURE_MAX_KPA, RigDomainError, RigSpec, contact_stiffness, solve_equilibrium

DEFAULT_PROBE_DEPTH_MM = 5.0
RESIDUAL_TOL = 1e-3
NEWTON_MAX_ITER = 40
JACOBIAN_STEP_KPA = 0.25


class PlannerDomainError(ValueError):
    """Invalid target or pressure bounds."""


class InfeasibleTargetError(RuntimeError):
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
    height: float = 0.0
    stiffness: float = 0.0


def forward_map(rig: RigSpec, p1: float, p2: float, probe_depth: float) -> tuple[float, float]:
    """(equilibrium h2, stiffness at h2 - probe_depth); stiffness 0 if out of range."""
    eq = solve_equilibrium(rig, p1, p2)
    try:
        k = contact_stiffness(rig, p1, p2, eq, eq.h2 - probe_depth)
    except RigDomainError:
        k = 0.0
    return eq.h2, k


def _check_bounds(bounds: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    ok = 0.0 <= p1_lo < p1_hi <= PRESSURE_MAX_KPA and 0.0 <= p2_lo < p2_hi <= PRESSURE_MAX_KPA
    if not ok:
        raise PlannerDomainError(f"bounds {bounds} must be ordered boxes within "
                                 f"[0, {PRESSURE_MAX_KPA:g}] kPa")
    return bounds


def _validate_target(rig: RigSpec, target: HapticTarget) -> None:
    hf = free_height(rig.morphing)
    if not (0.0 < target.target_height < hf):
        raise PlannerDomainError(
            f"target_height {target.target_height} mm outside (0, {hf:.6g}) mm"
        )
    if target.target_stiffness <= 0.0:
        raise PlannerDomainError("target_stiffness must be positive")


def plan_state(
    rig: RigSpec,
    target: HapticTarget,
    bounds: tuple[float, float, float, float] = (0.0, PRESSURE_MAX_KPA, 0.0, PRESSURE_MAX_KPA),
    grid_n: int = 20,
) -> PlanResult:
    """Solve for (p1, p2) realizing the target; best-effort result if infeasible.

    bounds is (p1_lo, p1_hi, p2_lo, p2_hi) in kPa.
    """
    _check_bounds(bounds)
    _validate_target(rig, target)
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    h_star = target.target_height
    k_star = target.target_stiffness
    depth = target.probe_depth_ref

    def residual(p1: float, p2: float) -> tuple[float, float, float, float]:
        h, k = forward_map(rig, p1, p2, depth)
        r1 = (h - h_star) / h_star
        r2 = (k - k_star) / k_star
        return r1, r2, h, k

    best: PlanResult | None = None

    def consider(result: PlanResult) -> None:
        nonlocal best
        if result.feasible and (best is None or not best.feasible
                                or result.p1 + result.p2 < best.p1 + best.p2 - 1e-9):
            best = result
        elif best is None or (not best.feasible and result.residual_norm < best.residual_norm):
            best = result

    # ratio/scale seeding: pouch forces are proportional to pressure, so the
    # equilibrium height depends (without belt compliance) only on the ratio
    # p1/p2 while stiffness scales with the overall pressure level.  Match the
    # height with a 1-D root on the ratio, then rescale both pressures to
    # match the stiffness; a short Newton polish absorbs compliance effects.
    seed = _ratio_scale_seed(rig, h_star, k_star, depth, bounds)
    if seed is not None:
        consider(_refine(residual, seed[0], seed[1], bounds))
    if best is None or not best.feasible:
        # coarse grid fallback for maps the ratio argument does not cover
        p1s = np.linspace(p1_lo, p1_hi, grid_n)
        p2s = np.linspace(p2_lo, p2_hi, grid_n)
        seeds: list[tuple[float, float, float]] = []  # (norm, p1, p2)
        for p1 in p1s:
            for p2 in p2s:
                r1, r2, _, _ = residual(p1, p2)
                seeds.append((math.hypot(r1, r2), float(p1), float(p2)))
        seeds.sort(key=lambda s: (s[0], s[1] + s[2]))
        for _, p1, p2 in seeds[:3]:
            consider(_refine(residual, p1, p2, bounds))
    assert best is not None
    if not best.feasible:
        reason = _diagnose_target(rig, h_star, k_star, depth, bounds)
        best = replace(best, reason=reason or best.reason)
    return best


def _diagnose_target(
    rig: RigSpec,
    h_star: float,
    k_star: float,
    depth: float,
    bounds: tuple[float, float, float, float],
) -> str | None:
    """Name the binding constraint of an infeasible target, if identifiable."""
    p1_lo, p1_hi, p2_lo, p2_hi = bounds

    def height_at(p1: float, p2: float) -> float:
        return solve_equilibrium(rig, p1, p2).h2

    try:
        h_max = height_at(p1_lo, p2_hi)
        h_min = height_at(p1_hi, max(p2_lo, 1e-3))
        if h_star > h_max:
            return "height unreachable (achievable height too low)"
        if h_star < h_min:
            return "height unreachable (achievable height too high)"
        seed = _ratio_scale_seed(rig, h_star, k_star, depth, bounds)
        if seed is None:
            return None
        _, k = forward_map(rig, seed[0], seed[1], depth)
        if k < k_star * (1.0 - RESIDUAL_TOL):
            return "stiffness unreachable at height (achievable stiffness too low)"
        if k > k_star * (1.0 + RESIDUAL_TOL):
            return "stiffness unreachable at height (achievable stiffness too high)"
        return None
    except (RigDomainError, ValueError):
        return None


def _ratio_scale_seed(
    rig: RigSpec,
    h_star: float,
    k_star: float,
    depth: float,
    bounds: tuple[float, float, float, float],
) -> tuple[float, float] | None:
    """Seed pressures from the height-ratio / stiffness-scale decomposition."""
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    p2_ref = min(max(10.0, p2_lo + 1e-6), p2_hi)

    def height_at(p1: float, p2: float) -> float:
        return solve_equilibrium(rig, p1, p2).h2

    try:
        h_soft = height_at(p1_lo, p2_ref)  # tallest at this p2
        h_firm = height_at(p1_hi, p2_ref)  # most squashed
        if h_firm <= h_star <= h_soft:
            p1 = brentq(lambda p: height_at(p, p2_ref) - h_star, p1_lo, p1_hi, xtol=1e-6)
            p2 = p2_ref
        elif h_star > h_soft:
            # needs more morphing-side pressure than the reference level
            if height_at(p1_lo, p2_hi) < h_star:
                return None
            p1 = p1_lo
            p2 = brentq(lambda p: height_at(p1_lo, p) - h_star, p2_ref, p2_hi, xtol=1e-6)
        else:
            # squashed below the reference contour: raise the ratio by
            # dropping the morphing-side pressure at full p1
            p2_min = max(p2_lo, 1e-3)
            if p2_min >= p2_ref or height_at(p1_hi, p2_min) > h_star:
                return None
            p1 = p1_hi
            p2 = brentq(lambda p: height_at(p1_hi, p) - h_star, p2_min, p2_ref, xtol=1e-6)
        h, k = forward_map(rig, p1, p2, depth)
        if k <= 0.0:
            return None
        t = min(max(k_star / k, 1e-3), 1e3)
        return (
            min(max(p1 * t, p1_lo), p1_hi),
            min(max(p2 * t, p2_lo), p2_hi),
        )
    except (RigDomainError, ValueError):
        return None


def _refine(residual, p1: float, p2: float, bounds) -> PlanResult:
    p1_lo, p1_hi, p2_lo, p2_hi = bounds

    def clip(a: float, lo: float, hi: float) -> float:
        return min(max(a, lo), hi)

    r1, r2, h, k = residual(p1, p2)
    norm = math.hypot(r1, r2)
    for _ in range(NEWTON_MAX_ITER):
        if norm <= RESIDUAL_TOL:
            break
        d = JACOBIAN_STEP_KPA
        j = np.empty((2, 2))
        for col, (dp1, dp2) in enumerate(((d, 0.0), (0.0, d))):
            q1 = clip(p1 + dp1, p1_lo, p1_hi)
            q2 = clip(p2 + dp2, p2_lo, p2_hi)
            if q1 == p1 and q2 == p2:  # at the upper bound; step down instead
                q1 = clip(p1 - dp1, p1_lo, p1_hi)
                q2 = clip(p2 - dp2, p2_lo, p2_hi)
            s1, s2, _, _ = residual(q1, q2)
            j[0, col] = (s1 - r1) / ((q1 - p1) + (q2 - p2))
            j[1, col] = (s2 - r2) / ((q1 - p1) + (q2 - p2))
        try:
            step = np.linalg.solve(j, [-r1, -r2])
        except np.linalg.LinAlgError:
            break
        # damped update: halve until the residual decreases
        scale = 1.0
        improved = False
        for _ in range(12):
            n1 = clip(p1 + scale * step[0], p1_lo, p1_hi)
            n2 = clip(p2 + scale * step[1], p2_lo, p2_hi)
            t1, t2, th, tk = residual(n1, n2)
            tn = math.hypot(t1, t2)
            if tn < norm:
                p1, p2, r1, r2, h, k, norm = n1, n2, t1, t2, th, tk, tn
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    feasible = norm <= RESIDUAL_TOL
    reason = "" if feasible else _diagnose(r1, r2)
    return PlanResult(
        p1=p1, p2=p2, achieved_height=h, achieved_stiffness=k,
        residual_norm=norm, feasible=feasible, reason=reason,
    )


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
    if len(p1_values) * len(p2_values) < 4:
        raise PlannerDomainError("grid must have at least 2x2 cells")
    rows = np.empty((len(p1_values) * len(p2_values), 4))
    i = 0
    for p1 in p1_values:
        for p2 in p2_values:
            h, k = forward_map(rig, p1, p2, probe_depth)
            rows[i] = (p1, p2, h, k)
            i += 1
    return rows


def constant_stiffness_path(
    rig: RigSpec,
    k_star: float,
    heights: Sequence[float],
    bounds: tuple[float, float, float, float] = (0.0, PRESSURE_MAX_KPA, 0.0, PRESSURE_MAX_KPA),
    probe_depth: float = DEFAULT_PROBE_DEPTH_MM,
) -> list[PlanResult]:
    """Per-height plans holding the stiffness constant along the path."""
    plans = []
    for h in heights:
        target = HapticTarget(target_height=h, target_stiffness=k_star,
                              probe_depth_ref=probe_depth)
        plan = plan_state(rig, target, bounds)
        if not plan.feasible:
            raise InfeasibleTargetError(
                f"waypoint h2={h} mm, k={k_star} N/mm infeasible: {plan.reason}"
            )
        plans.append(plan)
    return plans


SIZE_CLASSES = ("small", "medium", "large")
STIFFNESS_CLASSES = ("soft", "medium", "hard")


def state_table(
    rig: RigSpec,
    sizes: Sequence[float],
    stiffnesses: Sequence[float],
    bounds: tuple[float, float, float, float] = (0.0, PRESSURE_MAX_KPA, 0.0, PRESSURE_MAX_KPA),
    probe_depth: float = DEFAULT_PROBE_DEPTH_MM,
) -> list[StateDef]:
    """3x3 grid of planned states, ids 1..9 row-major (size-major)."""
    if len(set(sizes)) != 3:
        raise PlannerDomainError("sizes must be 3 distinct heights")
    if len(set(stiffnesses)) != 3:
        raise PlannerDomainError("stiffnesses must be 3 distinct values")
    sizes = sorted(sizes)
    stiffnesses = sorted(stiffnesses)
    states = []
    for i, h in enumerate(sizes):
        for j, k in enumerate(stiffnesses):
            target = HapticTarget(target_height=h, target_stiffness=k,
                                  probe_depth_ref=probe_depth)
            plan = plan_state(rig, target, bounds)
            if not plan.feasible:
                raise InfeasibleTargetError(
                    f"state (size={SIZE_CLASSES[i]}, stiffness={STIFFNESS_CLASSES[j]}) "
                    f"infeasible: {plan.reason}"
                )
            states.append(StateDef(
                id=3 * i + j + 1, p1=plan.p1, p2=plan.p2,
                size_class=SIZE_CLASSES[i], stiffness_class=STIFFNESS_CLASSES[j],
                height=plan.achieved_height, stiffness=plan.achieved_stiffness,
            ))
    return states
