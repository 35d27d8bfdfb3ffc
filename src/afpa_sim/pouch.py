"""Quasi-static model of a stacked-pouch fabric expansion actuator.

A stack of n flat fabric pouches (flat size W x L) bulges into
circular-arc cross sections when pressurized.  With the plates in
contact, each pouch keeps a flat central contact strip and two tangent
semicircular side bulges; the fabric is inextensible, so the contact
width shrinks as the stack grows and vanishes at the free height
2*n*W/pi.  Plate force follows from virtual work: F = P * dV/dH at
constant pressure, and its slope from the closed-form curvature
d2V/dH2, which the rig uses for analytic probe stiffness.

Units: mm, kPa, N (1 kPa * 1 mm^2 = 1e-3 N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KPA_MM2_TO_N = 1e-3

# End-cap rounding profile: with the correction on, the effective
# force-transmitting area saturates towards the flat-contact value only
# at deep compression.  A quadratic floor keeps a small residual slope
# away from the free height while the force slope vanishes smoothly at
# zero contact; the decay length is a fixed fraction of the free
# height.  Both constants were fixed once against bench stiffness
# curves and are part of the model definition, not per-rig calibration.
ECAP_QUADRATIC_FRACTION = 0.1
ECAP_DECAY_FRACTION = 0.15


class PouchDomainError(ValueError):
    """Height or pressure outside the model's validity range."""


@dataclass(frozen=True)
class PouchStackSpec:
    """Geometry of one sewn stack of identical pouches."""

    flat_width: float  # W, mm (across the bulging direction)
    flat_length: float  # L, mm (along the seal)
    pouch_count: int = 3
    end_cap_correction: bool = True

    def __post_init__(self) -> None:
        if not (self.flat_width > 0 and math.isfinite(self.flat_width)):
            raise ValueError(f"flat_width must be positive, got {self.flat_width}")
        if not (self.flat_length > 0 and math.isfinite(self.flat_length)):
            raise ValueError(f"flat_length must be positive, got {self.flat_length}")
        if int(self.pouch_count) != self.pouch_count or self.pouch_count < 1:
            raise ValueError(f"pouch_count must be a positive integer, got {self.pouch_count}")


@dataclass(frozen=True)
class CrossSection:
    """Inflation geometry of the whole stack at one height."""

    thickness: float  # per-pouch height H/n, mm
    contact_width: float  # flat contact span across W, mm
    contact_length: float  # flat contact span along L, mm
    volume: float  # whole-stack enclosed volume, mm^3


def free_height(spec: PouchStackSpec) -> float:
    """Height at which the side bulges are full semicircles (zero contact)."""
    return 2.0 * spec.pouch_count * spec.flat_width / math.pi


def _check_height(spec: PouchStackSpec, height: float) -> float:
    hf = free_height(spec)
    if not math.isfinite(height) or height <= 0.0 or height > hf * (1.0 + 1e-12):
        raise PouchDomainError(
            f"height {height} mm outside (0, {hf:.6g}] mm for this spec"
        )
    return min(height, hf)


def _area_slope_flat(spec: PouchStackSpec, height: float) -> float:
    """dV/dH without the end-cap correction: L * contact_width."""
    n = spec.pouch_count
    cw = spec.flat_width - math.pi * height / (2.0 * n)
    return spec.flat_length * max(0.0, cw)


def _ecap_params(spec: PouchStackSpec) -> tuple[float, float, float]:
    """(slope scale S, free height X, decay length lam) for the correction."""
    x_free = free_height(spec)
    slope = math.pi * spec.flat_length / (2.0 * spec.pouch_count)  # = L*cw per mm of compression
    lam = ECAP_DECAY_FRACTION * x_free
    return slope, x_free, lam


def _area_slope_ecap(spec: PouchStackSpec, height: float) -> float:
    """dV/dH with the end-cap correction on."""
    slope, x_free, lam = _ecap_params(spec)
    x = x_free - height  # compression from the free height
    return slope * (
        ECAP_QUADRATIC_FRACTION * x * x / (2.0 * x_free)
        + lam * (math.exp((x - x_free) / lam) - math.exp(-x_free / lam))
    )


def volume(spec: PouchStackSpec, height: float) -> float:
    """Enclosed volume of the stack, mm^3 (closed form)."""
    height = _check_height(spec, height)
    n = spec.pouch_count
    w, length = spec.flat_width, spec.flat_length
    if not spec.end_cap_correction:
        return length * (w * height - math.pi * height * height / (4.0 * n))
    slope, x_free, lam = _ecap_params(spec)
    x0 = x_free - height
    # integral of the effective area from x0 to x_free
    return slope * (
        ECAP_QUADRATIC_FRACTION * (x_free ** 3 - x0 ** 3) / (6.0 * x_free)
        + lam * lam * (1.0 - math.exp(-height / lam))
        - lam * math.exp(-x_free / lam) * height
    )


def volume_gradient(spec: PouchStackSpec, height: float) -> float:
    """dV/dH at the given height, mm^2 (analytic in both modes)."""
    height = _check_height(spec, height)
    if not spec.end_cap_correction:
        return _area_slope_flat(spec, height)
    return _area_slope_ecap(spec, height)


def volume_curvature(spec: PouchStackSpec, height: float) -> float:
    """d2V/dH2 at the given height, mm (analytic in both modes, never positive)."""
    height = _check_height(spec, height)
    slope, x_free, lam = _ecap_params(spec)
    if not spec.end_cap_correction:
        # L * contact_width falls at a constant rate until the contact vanishes
        return -slope if height < x_free else 0.0
    return -slope * (ECAP_QUADRATIC_FRACTION * (x_free - height) / x_free
                     + math.exp(-height / lam))


def cross_section(spec: PouchStackSpec, height: float) -> CrossSection:
    """Inflation geometry at the given stack height."""
    height = _check_height(spec, height)
    t = height / spec.pouch_count
    cw = max(0.0, spec.flat_width - math.pi * t / 2.0)
    if spec.end_cap_correction:
        cl = max(0.0, spec.flat_length - math.pi * t / 2.0)
    else:
        cl = spec.flat_length
    return CrossSection(
        thickness=t,
        contact_width=cw,
        contact_length=cl,
        volume=volume(spec, height),
    )


def contact_force(spec: PouchStackSpec, pressure: float, height: float) -> float:
    """Plate contact force F = P * dV/dH, in N (pressure in kPa)."""
    if not math.isfinite(pressure) or pressure < 0.0:
        raise PouchDomainError(f"pressure must be non-negative, got {pressure}")
    return pressure * volume_gradient(spec, height) * KPA_MM2_TO_N
