"""Quasi-static model of a stacked-pouch fabric expansion actuator.

A stack of n flat fabric pouches (flat size W x L) bulges into
circular-arc cross sections when pressurized.  With the plates in
contact, each pouch keeps a flat central contact strip and two tangent
semicircular side bulges; the fabric is inextensible, so the contact
width shrinks as the stack grows and vanishes at the free height
2*n*W/pi.  Plate force follows from virtual work: F = P * dV/dH at
constant pressure, its slope from the closed-form curvature d2V/dH2 (the
rig's probe stiffness) and d3V/dH3 (that stiffness's pressure slopes).
Terms of the spec alone, such as the free height, are computed once.

Units: mm, kPa, N (1 kPa * 1 mm^2 = 1e-3 N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import AfpaSimError

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
_ECAP_FREE_DECAY = math.exp(-1.0 / ECAP_DECAY_FRACTION)  # exp(-X / lam) at every X


class PouchDomainError(AfpaSimError, ValueError):
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
        # an int, not a bool, with 2nW/pi a finite float (float(n) is finite up to 2**1023);
        # the message leaves out n, whose digits may be too many to print
        n = self.pouch_count
        if type(n) is not int or not 1 <= n <= 2**1023 or not math.isfinite(self.free_height):
            raise ValueError("pouch_count must be a positive int, not a bool, with a finite "
                             "free height")

    @cached_property
    def free_height(self) -> float:
        """Height (mm) at which the side bulges are full semicircles (zero contact)."""
        return 2.0 * self.pouch_count * self.flat_width / math.pi

    @cached_property
    def _shape_terms(self) -> tuple[float, ...]:
        """L * contact_width lost per mm of compression, the end-cap decay length (mm), and of
        the free height x_free: the largest height taken, x_free * (1 + 1e-12), x_free^3 and
        6 x_free, which ``_volume_terms`` would otherwise compute on every call."""
        x_free = self.free_height
        return (math.pi * self.flat_length / (2.0 * self.pouch_count),
                ECAP_DECAY_FRACTION * x_free, x_free * (1.0 + 1e-12), x_free ** 3, 6.0 * x_free)


@dataclass(frozen=True)
class CrossSection:
    """Inflation geometry of the whole stack at one height."""

    thickness: float  # per-pouch height H/n, mm
    contact_width: float  # flat contact span across W, mm
    contact_length: float  # flat contact span along L, mm
    volume: float  # whole-stack enclosed volume, mm^3


def free_height(spec: PouchStackSpec) -> float:
    """Height at which the side bulges are full semicircles (zero contact)."""
    return spec.free_height


def _volume_terms(spec: PouchStackSpec, height: float) -> tuple[float, float, float]:
    """(V mm^3, dV/dH mm^2, d2V/dH2 mm) at the given height, closed form in both modes."""
    x_free = spec.free_height
    slope, lam, top, x_free3, x_free6 = spec._shape_terms  # lam: the end-cap decay length
    if not 0.0 < height <= top:  # NaN fails too
        raise PouchDomainError(
            f"height {height} mm outside (0, {x_free:.6g}] mm for this spec"
        )
    if height > x_free:
        height = x_free
    if not spec.end_cap_correction:
        n, length = spec.pouch_count, spec.flat_length
        # L * contact_width falls at a constant rate until the contact vanishes
        return (length * (spec.flat_width * height - math.pi * height * height / (4.0 * n)),
                length * max(0.0, spec.flat_width - math.pi * height / (2.0 * n)),
                -slope if height < x_free else 0.0)
    q = ECAP_QUADRATIC_FRACTION
    x0 = x_free - height  # compression from the free height
    decay = math.exp(-height / lam)
    # V integrates the effective area V' from x0 to x_free; V'' is its slope
    return (slope * (q * (x_free3 - x0 ** 3) / x_free6
                     + lam * lam * (1.0 - decay) - lam * _ECAP_FREE_DECAY * height),
            slope * (q * x0 * x0 / (2.0 * x_free) + lam * (decay - _ECAP_FREE_DECAY)),
            -slope * (q * x0 / x_free + decay))


def _curvature_slope(spec: PouchStackSpec, height: float) -> float:
    """d3V/dH3 in closed form, 0 from the free height on (no force there).  Not in
    ``_volume_terms``' return, which every valve step evaluates."""
    if not spec.end_cap_correction or height >= spec.free_height:
        return 0.0
    slope, lam = spec._shape_terms[:2]
    return slope * (ECAP_QUADRATIC_FRACTION / spec.free_height + math.exp(-height / lam) / lam)


def volume(spec: PouchStackSpec, height: float) -> float:
    """Enclosed volume of the stack, mm^3 (closed form)."""
    return _volume_terms(spec, height)[0]


def volume_gradient(spec: PouchStackSpec, height: float) -> float:
    """dV/dH at the given height, mm^2 (analytic in both modes)."""
    return _volume_terms(spec, height)[1]


def cross_section(spec: PouchStackSpec, height: float) -> CrossSection:
    """Inflation geometry at the given stack height."""
    v = volume(spec, height)
    t = min(height, spec.free_height) / spec.pouch_count
    cw = max(0.0, spec.flat_width - math.pi * t / 2.0)
    cl = (max(0.0, spec.flat_length - math.pi * t / 2.0) if spec.end_cap_correction
          else spec.flat_length)
    return CrossSection(
        thickness=t,
        contact_width=cw,
        contact_length=cl,
        volume=v,
    )


def contact_force(spec: PouchStackSpec, pressure: float, height: float) -> float:
    """Plate contact force F = P * dV/dH, in N (pressure in kPa)."""
    if not math.isfinite(pressure) or pressure < 0.0:
        raise PouchDomainError(f"pressure must be non-negative, got {pressure}")
    return pressure * volume_gradient(spec, height) * KPA_MM2_TO_N
