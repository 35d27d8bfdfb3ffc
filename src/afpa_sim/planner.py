"""Inverse rendering: map a (height, stiffness) target to a pressure pair.

The forward map (p1, p2) -> (equilibrium height, probe stiffness at a
reference depth) takes one equilibrium solve, whose closed-form slope
gives the stiffness.  It is smooth away from the slack/taut boundary; the
planner seeds from the height ratio and stiffness scale (or a coarse
grid) and refines with a damped Newton iteration.  The seed's height
roots run on the rig's one root solver, ``rig._root``, with the
closed-form height slopes of ``rig.equilibrium_slopes``; the refinement
keeps a finite-difference Jacobian, whose stiffness row would need the
third volume derivative.  Within one ``plan_state`` call the solves are
warm-started: a seed root's from the tangent h2 + dh2/dp * dp of its step
before, the refinement's and the grid's from the previous solve's h2.  A
target beyond the heights of the pressure box's corners is named by the
seed itself.  Pressure bounds are capped by ``rig.PRESSURE_MAX_KPA``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import AfpaSimError
from .pouch import free_height
from .rig import (PRESSURE_MAX_KPA, RigDomainError, RigSpec, _root, contact_stiffness,
                  equilibrium_slopes, solve_equilibrium)

DEFAULT_PROBE_DEPTH_MM = 5.0
RESIDUAL_TOL = 1e-3
NEWTON_MAX_ITER = 40
JACOBIAN_STEP_KPA = 0.25  # the Jacobian's stiffness row would need V''' in closed form
GRID_N = 20  # points per axis of the fallback seed grid


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
    height: float = 0.0
    stiffness: float = 0.0


def forward_map(rig: RigSpec, p1: float, p2: float, probe_depth: float, *,
                guess: float | None = None) -> tuple[float, float]:
    """(equilibrium h2 solved from ``guess``, stiffness at h2 - probe_depth or 0 out of range)."""
    eq = solve_equilibrium(rig, p1, p2, guess=guess)
    try:
        k = contact_stiffness(rig, p1, p2, eq, eq.h2 - probe_depth)
    except RigDomainError:
        k = 0.0
    return eq.h2, k


def check_bounds(bounds: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """The pressure box (p1_lo, p1_hi, p2_lo, p2_hi) if ordered within the rig's limit."""
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
) -> PlanResult:
    """Solve for (p1, p2) realizing the target; best-effort result if infeasible.

    bounds is (p1_lo, p1_hi, p2_lo, p2_hi) in kPa.
    """
    check_bounds(bounds)
    _validate_target(rig, target)
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    h_star = target.target_height
    k_star = target.target_stiffness
    depth = target.probe_depth_ref

    last_h = math.nan  # each solve starts from the h2 of the one before

    def residual(p1: float, p2: float) -> tuple[float, float, float, float]:
        nonlocal last_h
        h, k = forward_map(rig, p1, p2, depth, guess=last_h)
        last_h = h
        r1 = (h - h_star) / h_star
        r2 = (k - k_star) / k_star
        return r1, r2, h, k

    # ratio/scale seeding: pouch forces are proportional to pressure, so the
    # equilibrium height depends (without belt compliance) only on the ratio
    # p1/p2 while stiffness scales with the overall pressure level.  Match the
    # height with a 1-D root on the ratio, then rescale both pressures to
    # match the stiffness; a short Newton polish absorbs compliance effects.
    seed, reason = _ratio_scale_seed(rig, h_star, k_star, depth, bounds)
    plans = [] if seed is None else [_refine(residual, *seed, bounds)]
    if not any(p.feasible for p in plans):
        # coarse grid fallback for maps the ratio argument does not cover
        seeds: list[tuple[float, float, float]] = []  # (norm, p1, p2)
        for p1 in np.linspace(p1_lo, p1_hi, GRID_N):
            for p2 in np.linspace(p2_lo, p2_hi, GRID_N):
                r1, r2, _, _ = residual(p1, p2)
                seeds.append((math.hypot(r1, r2), float(p1), float(p2)))
        seeds.sort(key=lambda s: (s[0], s[1] + s[2]))
        plans += [_refine(residual, p1, p2, bounds) for _, p1, p2 in seeds[:3]]
    best = _best(plans)
    if not best.feasible:
        if not reason and seed is not None:
            k = forward_map(rig, *seed, depth)[1]
            if not k_star * (1.0 - RESIDUAL_TOL) <= k <= k_star * (1.0 + RESIDUAL_TOL):
                reason = _diagnose(0.0, k - k_star)
        best = replace(best, reason=reason or best.reason)
    return best


def _best(plans: list[PlanResult]) -> PlanResult:
    """The feasible plan of least p1 + p2 (an earlier one within 1e-9), else the least residual."""
    feasible = [p for p in plans if p.feasible]
    if not feasible:
        return min(plans, key=lambda p: p.residual_norm)
    return reduce(lambda best, p: p if p.p1 + p.p2 < best.p1 + best.p2 - 1e-9 else best, feasible)


def _ratio_scale_seed(
    rig: RigSpec,
    h_star: float,
    k_star: float,
    depth: float,
    bounds: tuple[float, float, float, float],
) -> tuple[tuple[float, float] | None, str]:
    """Seed pressures from the height-ratio / stiffness-scale decomposition.

    Returns (seed, ""), or (None, reason) when h_star lies beyond the heights
    of the box's corners, or (None, "") when the seed has no stiffness.
    """
    p1_lo, p1_hi, p2_lo, p2_hi = bounds
    p2_ref = min(max(10.0, p2_lo + 1e-6), p2_hi)

    def gap(p1: float, p2: float, guess: float | None = None) -> tuple[float, tuple[float, float]]:
        """h2 - h_star at (p1, p2), with (dh2/dp1, dh2/dp2)."""
        eq = solve_equilibrium(rig, p1, p2, guess=guess)
        return eq.h2 - h_star, equilibrium_slopes(rig, p1, p2, eq)

    def height_root(axis: int, fixed: float, lo: float, g_lo, hi: float,
                    g_hi) -> tuple[float, float]:
        """The pressure on ``axis`` (0: p1, 1: p2) of height h_star, the other one
        ``fixed``, and the h2 predicted there.

        Each solve starts from the tangent of the point before, at first the end
        that ``_root`` starts from.
        """
        f_lo, f_hi = (g_lo[0], g_lo[1][axis]), (g_hi[0], g_hi[1][axis])
        p_last, (g_last, k_last) = min((lo, f_lo), (hi, f_hi), key=lambda e: abs(e[1][0]))

        def predict(p: float) -> float:
            return h_star + g_last + k_last * (p - p_last)

        def f(p: float) -> tuple[float, float]:
            nonlocal p_last, g_last, k_last
            g, slopes = gap(*((p, fixed) if axis == 0 else (fixed, p)), guess=predict(p))
            p_last, g_last, k_last = p, g, slopes[axis]
            return g, k_last

        p = _root(f, lo, f_lo, hi, f_hi)
        return p, predict(p)

    soft, firm = gap(p1_lo, p2_ref), gap(p1_hi, p2_ref)  # tallest and most squashed at p2_ref
    if firm[0] <= 0.0 <= soft[0]:
        (p1, h), p2 = height_root(0, p2_ref, p1_lo, soft, p1_hi, firm), p2_ref
    elif soft[0] < 0.0:
        # needs more morphing-side pressure than the reference level
        if (tallest := gap(p1_lo, p2_hi))[0] < 0.0:
            return None, "height unreachable (achievable height too low)"
        p1, (p2, h) = p1_lo, height_root(1, p1_lo, p2_ref, soft, p2_hi, tallest)
    else:
        # squashed below the reference contour: raise the ratio by
        # dropping the morphing-side pressure at full p1
        p2_min = max(p2_lo, 1e-3)
        if p2_min >= p2_ref or (lowest := gap(p1_hi, p2_min))[0] > 0.0:
            return None, "height unreachable (achievable height too high)"
        p1, (p2, h) = p1_hi, height_root(1, p1_hi, p2_min, lowest, p2_ref, firm)
    _, k = forward_map(rig, p1, p2, depth, guess=h)
    if k <= 0.0:
        return None, ""
    t = min(max(k_star / k, 1e-3), 1e3)
    return (min(max(p1 * t, p1_lo), p1_hi), min(max(p2 * t, p2_lo), p2_hi)), ""


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
            step = [float(s) for s in np.linalg.solve(j, [-r1, -r2])]
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


def _plan_or_raise(rig: RigSpec, h: float, k: float, bounds: tuple[float, float, float, float],
                   probe_depth: float, name: str) -> PlanResult:
    """``plan_state`` of one (h, k) target; InfeasibleTargetError naming it if infeasible."""
    plan = plan_state(rig, HapticTarget(h, k, probe_depth), bounds)
    if not plan.feasible:
        raise InfeasibleTargetError(f"{name} infeasible: {plan.reason}")
    return plan


def constant_stiffness_path(
    rig: RigSpec,
    k_star: float,
    heights: Sequence[float],
    bounds: tuple[float, float, float, float] = (0.0, PRESSURE_MAX_KPA, 0.0, PRESSURE_MAX_KPA),
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
    bounds: tuple[float, float, float, float] = (0.0, PRESSURE_MAX_KPA, 0.0, PRESSURE_MAX_KPA),
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
