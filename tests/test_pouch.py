"""Pouch stack model: closed forms against independent numeric oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afpa_sim.pouch import (
    KPA_MM2_TO_N,
    CrossSection,
    PouchDomainError,
    PouchStackSpec,
    _curvature_slope,
    contact_force,
    cross_section,
    free_height,
    volume,
    volume_curvature,
    volume_gradient,
)


def spec_strategy(end_cap=None):
    caps = st.booleans() if end_cap is None else st.just(end_cap)
    return st.builds(
        PouchStackSpec,
        flat_width=st.floats(5.0, 200.0),
        flat_length=st.floats(5.0, 500.0),
        pouch_count=st.integers(1, 8),
        end_cap_correction=caps,
    )


def test_free_height_formula():
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0, pouch_count=3)
    assert free_height(spec) == pytest.approx(2 * 3 * 50.0 / math.pi)


def test_free_height_scales_with_count():
    one = PouchStackSpec(flat_width=40.0, flat_length=80.0, pouch_count=1)
    four = PouchStackSpec(flat_width=40.0, flat_length=80.0, pouch_count=4)
    assert free_height(four) == pytest.approx(4 * free_height(one))


@pytest.mark.parametrize("end_caps", [True, False])
def test_replaced_spec_computes_its_own_constants(end_caps):
    # the spec-only terms are cached on each spec: a replaced copy, built after
    # the original's cache is filled, must not read the original's values
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0, end_cap_correction=end_caps)
    terms = [volume(spec, 30.0), volume_gradient(spec, 30.0), volume_curvature(spec, 30.0)]
    assert spec.free_height == free_height(spec) == 2 * 3 * 50.0 / math.pi
    wider = dataclasses.replace(spec, flat_width=60.0, flat_length=200.0, pouch_count=4)
    fresh = PouchStackSpec(flat_width=60.0, flat_length=200.0, pouch_count=4,
                           end_cap_correction=end_caps)
    assert wider.free_height == 2 * 4 * 60.0 / math.pi
    for f in (volume, volume_gradient, volume_curvature):
        assert f(wider, 30.0) == f(fresh, 30.0)
    assert [volume(spec, 30.0), volume_gradient(spec, 30.0), volume_curvature(spec, 30.0)] == terms
    # the cache is not part of the value
    assert wider == fresh and hash(wider) == hash(fresh)


def test_contact_width_vanishes_at_free_height():
    spec = PouchStackSpec(flat_width=60.0, flat_length=120.0)
    cs = cross_section(spec, free_height(spec))
    assert cs.contact_width == pytest.approx(0.0, abs=1e-9)


def test_contact_width_at_flat_limit():
    spec = PouchStackSpec(flat_width=60.0, flat_length=120.0)
    cs = cross_section(spec, 1e-6)
    assert cs.contact_width == pytest.approx(60.0, rel=1e-4)


def test_volume_flat_mode_closed_form():
    # V = L (W H - pi H^2 / (4 n)) without the correction
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0, pouch_count=3,
                          end_cap_correction=False)
    h = 40.0
    expected = 100.0 * (50.0 * 40.0 - math.pi * 40.0**2 / 12.0)
    assert volume(spec, h) == pytest.approx(expected)


@settings(max_examples=150, deadline=None)
@given(spec=spec_strategy(), frac=st.floats(0.05, 1.0))
def test_volume_matches_integrated_gradient(spec, frac):
    h = frac * free_height(spec)
    hs = np.linspace(1e-9, h, 4001)
    grads = [volume_gradient(spec, x) for x in hs]
    integral = np.trapezoid(grads, hs)
    assert volume(spec, h) == pytest.approx(integral, rel=1e-5, abs=1e-6)


@settings(max_examples=150, deadline=None)
@given(spec=spec_strategy(), frac=st.floats(0.02, 0.98), p=st.floats(0.1, 150.0))
def test_force_is_virtual_work_slope(spec, frac, p):
    h = frac * free_height(spec)
    eps = 1e-3
    dv = (volume(spec, h + eps) - volume(spec, h - eps)) / (2 * eps)
    assert contact_force(spec, p, h) == pytest.approx(p * dv * KPA_MM2_TO_N, rel=1e-4)


@settings(max_examples=150, deadline=None)
@given(spec=spec_strategy(), frac=st.floats(0.02, 0.98))
def test_curvature_is_gradient_slope(spec, frac):
    h = frac * free_height(spec)
    eps = 1e-3
    dg = (volume_gradient(spec, h + eps) - volume_gradient(spec, h - eps)) / (2 * eps)
    assert volume_curvature(spec, h) == pytest.approx(dg, rel=1e-4)


@settings(max_examples=150, deadline=None)
@given(spec=spec_strategy(), frac=st.floats(0.02, 0.98))
def test_curvature_slope_is_curvature_slope(spec, frac):
    h = frac * free_height(spec)
    eps = 1e-3
    dc = (volume_curvature(spec, h + eps) - volume_curvature(spec, h - eps)) / (2 * eps)
    assert _curvature_slope(spec, h) == pytest.approx(dc, rel=1e-4, abs=1e-9)
    assert _curvature_slope(spec, free_height(spec)) == 0.0  # no force from there on


@settings(max_examples=150, deadline=None)
@given(
    w=st.floats(5.0, 200.0), length=st.floats(5.0, 500.0),
    n=st.integers(1, 8), frac=st.floats(0.01, 1.0),
)
def test_end_cap_correction_never_exceeds_flat_model(w, length, n, frac):
    on = PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n)
    off = PouchStackSpec(flat_width=w, flat_length=length, pouch_count=n,
                         end_cap_correction=False)
    h = frac * free_height(on)
    assert volume(on, h) <= volume(off, h) * (1 + 1e-12)
    assert volume_gradient(on, h) <= volume_gradient(off, h) + 1e-12


@settings(max_examples=100, deadline=None)
@given(spec=spec_strategy(), frac=st.floats(0.05, 0.95))
def test_volume_monotone_in_height(spec, frac):
    hf = free_height(spec)
    h1, h2 = frac * hf, min(hf, frac * hf + 0.05 * hf)
    assert volume(spec, h2) >= volume(spec, h1)


def test_force_zero_at_free_height_with_correction():
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0)
    # effective area vanishes smoothly at zero compression
    assert contact_force(spec, 100.0, free_height(spec)) == pytest.approx(0.0, abs=1e-6)


def test_cross_section_fields_consistent():
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0, pouch_count=2)
    cs = cross_section(spec, 20.0)
    assert isinstance(cs, CrossSection)
    assert cs.thickness == pytest.approx(10.0)
    assert cs.volume == pytest.approx(volume(spec, 20.0))


@pytest.mark.parametrize("height", [-1.0, 0.0, 1e9, float("nan"), float("inf"), -float("inf")])
def test_invalid_height_rejected(height):
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0)
    with pytest.raises(PouchDomainError):
        volume(spec, height)


@pytest.mark.parametrize("end_caps", [True, False])
def test_height_just_above_free_height_reads_as_free_height(end_caps):
    # the range check allows 1e-12 relative above the free height, which the
    # closed forms then take as the free height itself
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0, end_cap_correction=end_caps)
    hf = spec.free_height
    for f in (volume, volume_gradient, volume_curvature):
        assert f(spec, hf * (1.0 + 1e-12)) == f(spec, hf)
    with pytest.raises(PouchDomainError):
        volume(spec, hf * (1.0 + 3e-12))


def test_negative_pressure_rejected():
    spec = PouchStackSpec(flat_width=50.0, flat_length=100.0)
    with pytest.raises(PouchDomainError):
        contact_force(spec, -1.0, 10.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"flat_width": -1.0, "flat_length": 10.0},
        {"flat_width": 10.0, "flat_length": 0.0},
        {"flat_width": 10.0, "flat_length": 10.0, "pouch_count": 0},
        {"flat_width": float("inf"), "flat_length": 10.0},
    ],
)
def test_invalid_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        PouchStackSpec(**kwargs)
