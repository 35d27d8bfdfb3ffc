"""Coupled equilibrium of two opposed pouch stacks under a crossing-belt tie.

The belt constrains h1 + h2 <= belt_span + belt_compliance * tension and
can only pull.  One force balance, ``belt_balance``, with belt stretch on
every path, serves the equilibrium, the Coulomb branches of the size
sweeps, the probe (a stop holding the morphing side down) and the valve
dynamics.  Probe stiffness is its closed-form implicit derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from scipy.optimize import brentq, least_squares

from .pouch import (
    KPA_MM2_TO_N,
    PouchDomainError,
    PouchStackSpec,
    contact_force,
    free_height,
    volume_curvature,
)

PRESSURE_MAX_KPA = 150.0
ROOT_XTOL_MM = 1e-7  # also the tension tolerance (N) of the belt-stretch root


class RigDomainError(ValueError):
    """Invalid pressures or probe heights."""


class EquilibriumError(RuntimeError):
    """Root finder failed; should not happen for valid inputs."""


class CalibrationError(ValueError):
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
    taut: bool


def _check_pressure(p: float, name: str) -> float:
    if not math.isfinite(p) or p < 0.0 or p > PRESSURE_MAX_KPA:
        raise RigDomainError(f"{name} must be in [0, {PRESSURE_MAX_KPA}] kPa, got {p}")
    return float(p)


def _side_force(spec: PouchStackSpec, pressure: float, height: float) -> float:
    """Contact force of one side, 0 outside the compressed range."""
    hf = free_height(spec)
    if height >= hf:
        return 0.0
    if height <= 0.0:
        height = 1e-9
    return contact_force(spec, pressure, height)


def _root(f: Callable[[float], float], lo: float, hi: float) -> float:
    try:
        return brentq(f, lo, hi, xtol=ROOT_XTOL_MM)
    except (ValueError, RuntimeError) as exc:  # pragma: no cover - guarded by the brackets
        raise EquilibriumError(f"equilibrium root finding failed: {exc}") from exc


def belt_balance(f1: Callable[[float], float], f2: Callable[[float], float], x1: float,
                 x2: float, span: float, compliance: float,
                 offset: float = 0.0) -> tuple[float, float, float]:
    """Heights (h1, h2) in mm and belt tension in N of two sides tied by the belt.

    f1 and f2 give each side's contact force at its height; x1 and x2 are
    the heights the sides cannot pass (zero force, or a stop such as a
    probe holding side 2 down).  ``offset`` is a Coulomb force on side 2,
    positive while h2 falls.  With the tension taken as f2(h2), the residual
    f1(span + compliance * tension - h2) - tension - offset rises with h2,
    so a bracketed root is unique.  Without a sign change side 2 is pinned
    at the end of its range and side 1 alone stretches the belt.
    """
    if x1 + x2 < span:
        return x1, x2, 0.0

    def residual(h2: float) -> float:
        tension = f2(h2)
        return f1(span + compliance * tension - h2) - tension - offset

    lo = max(1e-9, span - x1)
    hi = min(x2, span)
    if residual(hi) <= 0.0:
        h2 = hi  # side 2 rides its stop or the belt
    elif residual(lo) >= 0.0:
        h2 = lo  # side 1 squashes side 2 to the bracket floor
    else:
        h2 = _root(residual, lo, hi)
        tension = f2(h2)
        return span + compliance * tension - h2, h2, tension
    h1 = span - h2
    tension = f1(h1)
    if compliance > 0.0 and tension > 0.0:
        def stretch(t: float) -> float:
            return f1(h1 + compliance * t) - t

        if stretch(tension) < 0.0:  # else the stretch is below rounding
            tension = _root(stretch, 0.0, tension)
        h1 += compliance * tension
    return min(x1, h1), h2, tension


def _balance(
    rig: RigSpec, p1: float, p2: float, h2_stop: float = math.inf, offset: float = 0.0
) -> tuple[float, float, float]:
    """``belt_balance`` of the rig's stacks, the morphing side held below h2_stop."""
    return belt_balance(
        partial(_side_force, rig.modulating, p1),
        partial(_side_force, rig.morphing, p2),
        free_height(rig.modulating),
        min(free_height(rig.morphing), h2_stop),
        rig.belt_span, rig.belt_compliance, offset,
    )


def solve_equilibrium(rig: RigSpec, p1: float, p2: float) -> EquilibriumState:
    """Equilibrium heights and belt tension at the given gauge pressures."""
    h1, h2, tension = _balance(rig, _check_pressure(p1, "p1"), _check_pressure(p2, "p2"))
    return EquilibriumState(h1, h2, tension, taut=h1 + h2 >= rig.belt_span - 1e-9)


def probe_force(
    rig: RigSpec, p1: float, p2: float, h2_forced: float
) -> tuple[float, float, float]:
    """Force on a probe holding the morphing side at ``h2_forced``.

    Returns (force N, belt_tension N, h1 mm).  The modulating side
    re-equilibrates against the belt, stretching it by the compliance; the
    belt goes slack once the modulating side reaches its free height.
    """
    eq = solve_equilibrium(rig, p1, p2)
    if h2_forced > eq.h2 + 1e-9:
        raise RigDomainError(
            f"h2_forced {h2_forced} mm above equilibrium {eq.h2:.6g} mm (probe not in contact)"
        )
    if h2_forced <= 0.0:
        raise RigDomainError("h2_forced must be positive")
    h1, _, tension = _balance(rig, p1, p2, h2_stop=h2_forced)
    force = max(0.0, _side_force(rig.morphing, p2, h2_forced) - tension)
    return force, tension, h1


def force_displacement_curve(
    rig: RigSpec,
    p1: float,
    p2: float,
    max_depth: float,
    step: float,
    with_friction: bool = True,
) -> list[tuple[float, float]]:
    """Loading then unloading (depth, force) samples from the equilibrium height."""
    if step <= 0:
        raise RigDomainError("step must be positive")
    eq = solve_equilibrium(rig, p1, p2)
    if max_depth >= eq.h2:
        raise RigDomainError(f"max_depth {max_depth} mm exceeds equilibrium height {eq.h2:.6g} mm")
    n = int(round(max_depth / step))
    depths = [i * step for i in range(n + 1)]
    f = rig.friction_force if with_friction else 0.0
    curve = [(d, probe_force(rig, p1, p2, eq.h2 - d)[0]) for d in depths]
    return ([(d, max(0.0, base + f)) for d, base in curve]
            + [(d, max(0.0, base - f)) for d, base in reversed(curve)])


def stiffness(rig: RigSpec, p1: float, p2: float, h2: float) -> float:
    """Probe stiffness dF/d(depth) at height h2 (N/mm), in closed form."""
    return contact_stiffness(rig, p1, p2, solve_equilibrium(rig, p1, p2), h2)


def contact_stiffness(rig: RigSpec, p1: float, p2: float, eq: EquilibriumState,
                      h2: float) -> float:
    """``stiffness`` below an equilibrium already solved at (p1, p2).

    F = f2(h2) - T with the belt closing at h1 = C + c*T - h2, so by the
    implicit-function theorem dF/d(depth) = -f2'(h2) + d / (1 + c*d), where
    d = -f1'(h1) while the belt is taut and 0 once the modulating side is
    slack; each f' is the pressure times the volume curvature.
    """
    if not 0.0 < h2 < eq.h2:
        raise RigDomainError(f"h2 {h2} mm not in the probe contact range (0, {eq.h2:.6g}) mm")
    h1, _, _ = _balance(rig, p1, p2, h2_stop=h2)
    d = 0.0
    if h1 < free_height(rig.modulating):
        d = -p1 * volume_curvature(rig.modulating, h1) * KPA_MM2_TO_N
    k2 = -p2 * volume_curvature(rig.morphing, h2) * KPA_MM2_TO_N
    return k2 + d / (1.0 + rig.belt_compliance * d)


def size_pressure_sweep(
    rig: RigSpec, p2_fixed: float, p1_path: Sequence[float]
) -> list[tuple[float, float]]:
    """(p1, h2) samples along an ordered p1 path, with Coulomb hysteresis."""
    samples: list[tuple[float, float]] = []
    prev_h2: float | None = None
    for p1 in p1_path:
        h2_free = solve_equilibrium(rig, p1, p2_fixed).h2
        if prev_h2 is None:
            direction = 0.0
        else:
            direction = math.copysign(1.0, h2_free - prev_h2) if h2_free != prev_h2 else 0.0
        # Coulomb friction holds the height back against the motion
        _, h2, _ = _balance(rig, p1, p2_fixed, offset=-direction * rig.friction_force)
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
    """

    kind: str
    p1: float
    p2: float
    observed: float
    h2: float | None = None


@dataclass
class CalibrationResult:
    rig: RigSpec
    residuals: list[float] = field(default_factory=list)
    anchors: list[Anchor] = field(default_factory=list)


_FIT_PARAMS = ("modulating.flat_width", "modulating.flat_length",
               "morphing.flat_width", "morphing.flat_length", "belt_span")


def _rig_from_vector(x: Sequence[float], template: RigSpec) -> RigSpec:
    w1, l1, w2, l2, c = x
    return RigSpec(
        modulating=PouchStackSpec(
            flat_width=w1, flat_length=l1,
            pouch_count=template.modulating.pouch_count,
            end_cap_correction=template.modulating.end_cap_correction,
        ),
        morphing=PouchStackSpec(
            flat_width=w2, flat_length=l2,
            pouch_count=template.morphing.pouch_count,
            end_cap_correction=template.morphing.end_cap_correction,
        ),
        belt_span=c,
        belt_compliance=template.belt_compliance,
        friction_force=template.friction_force,
        deflated_floor=template.deflated_floor,
    )


def _predict(rig: RigSpec, anchor: Anchor) -> float:
    if anchor.kind == "height":
        return solve_equilibrium(rig, anchor.p1, anchor.p2).h2
    if anchor.kind == "force":
        assert anchor.h2 is not None
        force, _, _ = probe_force(rig, anchor.p1, anchor.p2, anchor.h2)
        return force
    if anchor.kind == "stiffness":
        assert anchor.h2 is not None
        return stiffness(rig, anchor.p1, anchor.p2, anchor.h2)
    raise ValueError(f"unknown anchor kind {anchor.kind!r}")


def calibrate_rig(
    anchors: Sequence[Anchor],
    start: RigSpec,
    weights: Sequence[float] | None = None,
) -> CalibrationResult:
    """Least-squares fit of the five geometry parameters to the anchors.

    Residuals are normalized by the observed values; the fit is a damped
    Gauss-Newton (trust-region) descent from the given starting rig and
    is deterministic.
    """
    anchors = list(anchors)
    if len(anchors) < len(_FIT_PARAMS) - 1:
        raise CalibrationError(
            f"need at least {len(_FIT_PARAMS) - 1} independent anchors to constrain "
            f"parameters {', '.join(_FIT_PARAMS)}; got {len(anchors)}"
        )
    for a in anchors:
        if a.kind in ("force", "stiffness") and a.h2 is None:
            raise CalibrationError(f"{a.kind} anchor requires an h2 value")
        if a.observed <= 0:
            raise CalibrationError("anchor observations must be positive")
    if weights is None:
        weights = [1.0] * len(anchors)

    x0 = [
        start.modulating.flat_width, start.modulating.flat_length,
        start.morphing.flat_width, start.morphing.flat_length,
        start.belt_span,
    ]

    def residuals(x):
        try:
            rig = _rig_from_vector(x, start)
        except ValueError:
            return [1e3] * len(anchors)
        out = []
        for w, a in zip(weights, anchors):
            try:
                pred = _predict(rig, a)
            except (RigDomainError, PouchDomainError):
                pred = 0.0
            out.append(w * (pred - a.observed) / a.observed)
        return out

    sol = least_squares(
        residuals, x0, method="trf",
        bounds=([1.0, 1.0, 1.0, 1.0, 10.0], [500.0, 2000.0, 500.0, 2000.0, 500.0]),
        xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=400,
    )
    rig = _rig_from_vector(sol.x, start)
    return CalibrationResult(rig=rig, residuals=list(sol.fun), anchors=anchors)
