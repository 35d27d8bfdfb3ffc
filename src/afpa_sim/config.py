"""Strict JSON run configuration, read and written by walking the dataclasses.

The document mirrors ``RunConfig``: each dataclass field is a key of the
same name, a nested dataclass is an object, a tuple of numbers is an array
and the valve pair is an object keyed ``modulating``/``morphing``.  The
three planner fields of ``RunConfig`` (``PLANNER_FIELDS``) sit in a
``planner`` object.  Field defaults and the checks on field values live on
the dataclasses (``__post_init__``); a failed check is reported as a
``ConfigError`` that names the object, or for the planner fields the field.

The file declares its pressure/length units up front.  The pressure fields
(``PRESSURE_FIELDS``: the valves' supply_pressure and exhaust_pressure,
planner bounds and max_characterized_p2, sweep p2_levels, p1_max and
p1_step) may be given in Pa and are normalized to kPa on load.  Every
number must be finite.  The keys an object allows are its dataclass's
field names: for the root, the fields outside ``planner`` with ``planner``
and ``units``, and ``modulating`` and ``morphing`` for the valve pair.  Any
other key is rejected, so a typo cannot silently fall back to a default
value.  The reader is a few functions on the parsed JSON objects and
their field paths, such as ``planner.bounds[1]``, which each error names.
It resolves each dataclass's field types (``typing.get_type_hints``, which
compiles the string annotations) once per process, so a later load in the
same process reuses them.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .errors import AfpaSimError
from .planner import DEFAULT_PROBE_DEPTH_MM, PlannerDomainError, check_bounds
from .pneumatics import ValveSpec, check_step
from .rig import PROBE_SAMPLES_MAX, SWEEP_POINTS_MAX, RigSpec
from .study import TRIALS_MAX, ResponderModel


class ConfigError(AfpaSimError, ValueError):
    """Malformed or invalid configuration; message carries the field path."""


@dataclass(frozen=True)
class SweepSettings:
    """Quasi-static characterization sweeps."""

    p2_levels: tuple[float, ...]  # kPa, one size curve per level
    p1_max: float  # kPa, sweep turnaround
    p1_step: float  # kPa
    compression_depth: float  # mm, probe travel for stiffness curves
    probe_rate: float  # mm/s
    sample_rate: float = 16.0  # Hz

    def __post_init__(self) -> None:
        if not self.p2_levels or not all(0.0 <= p < math.inf for p in self.p2_levels):
            raise ValueError("p2_levels needs at least one non-negative level")
        if not all(0.0 < x < math.inf for x in (self.p1_step, self.p1_max)):  # also NaN
            raise ValueError("p1_step and p1_max must be positive")
        if not all(0.0 < x < math.inf
                   for x in (self.compression_depth, self.probe_rate, self.sample_rate)):
            raise ValueError("probe settings must be positive")
        if self.p1_max / self.p1_step > SWEEP_POINTS_MAX:
            raise ValueError(f"p1_max / p1_step must be at most {SWEEP_POINTS_MAX} points")
        if self.compression_depth * self.sample_rate / self.probe_rate > PROBE_SAMPLES_MAX:
            raise ValueError("compression_depth * sample_rate / probe_rate must be at most "
                             f"{PROBE_SAMPLES_MAX} samples")


@dataclass(frozen=True, kw_only=True)
class StepSettings:
    dt: float = 1e-3  # s
    t_end: float  # s
    step_time: float  # s, command switch instant

    def __post_init__(self) -> None:
        check_step(self.dt, self.t_end)
        if not 0.0 <= self.step_time < self.t_end:
            raise ValueError("step_time must lie within [0, t_end)")


@dataclass(frozen=True, kw_only=True)
class StudySettings:
    sizes: tuple[float, float, float]  # mm
    stiffnesses: tuple[float, float, float]  # N/mm
    reps: int = 10
    sessions: int = 10
    responder: ResponderModel

    def __post_init__(self) -> None:
        for name in ("sizes", "stiffnesses"):
            if not all(0.0 < x < math.inf for x in getattr(self, name)):  # also NaN
                raise ValueError(f"{name} must be positive and finite")
        for name in ("reps", "sessions"):
            if type(n := getattr(self, name)) is not int or n < 1:
                raise ValueError(f"{name} {n!r} must be a positive integer")
        if 9 * self.reps * self.sessions > TRIALS_MAX:
            raise ValueError(f"9 * reps * sessions must be at most {TRIALS_MAX} trials")


# RunConfig fields that the document keeps in its ``planner`` object
PLANNER_FIELDS = ("bounds", "probe_depth", "max_characterized_p2")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    rig: RigSpec
    valves: tuple[ValveSpec, ValveSpec]  # (modulating, morphing)
    bounds: tuple[float, float, float, float]  # kPa pressure box
    probe_depth: float = DEFAULT_PROBE_DEPTH_MM  # mm
    max_characterized_p2: float  # kPa
    sweep: SweepSettings
    step: StepSettings
    study: StudySettings

    def __post_init__(self) -> None:
        try:
            check_bounds(self.bounds)
        except PlannerDomainError as exc:
            raise ValueError(f"planner.bounds: {exc}") from None
        if not 0.0 < self.probe_depth < math.inf:  # also NaN
            raise ValueError("planner.probe_depth: must be positive and finite")
        if not self.bounds[2] < self.max_characterized_p2 <= self.bounds[3]:
            raise ValueError("planner.max_characterized_p2: must lie inside the p2 bounds")


PRESSURE_FIELDS = frozenset({
    "supply_pressure", "exhaust_pressure",  # valves, absolute
    "bounds", "max_characterized_p2",  # planner
    "p2_levels", "p1_max", "p1_step",  # sweep
})
_PAIR_KEYS = ("modulating", "morphing")  # object keys of the valve pair
_PRESSURE_SCALE = {"kPa": 1.0, "Pa": 1e-3}
_TYPE_NAMES = {int: "an integer", bool: "a boolean"}
_hints = cache(get_type_hints)  # a dataclass's field types, resolved once per process


def _finite(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    return x


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(data: Any, path: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object, got {type(data).__name__}")
    return data


def _take(obj: dict, path: str, key: str) -> Any:
    if key not in obj:
        raise ConfigError(f"missing required field {_at(path, key)}")
    return obj[key]


def _known(obj: dict, path: str, keys: Any) -> None:
    """Reject the keys of ``obj`` that are not in ``keys``."""
    if unknown := sorted(set(obj).difference(keys)):
        raise ConfigError(f"unknown keys in {path or '<root>'}: {', '.join(unknown)}")


def _value(tp: Any, v: Any, key: str, path: str, unit: float) -> Any:
    """Field ``key`` of type ``tp`` from its JSON value ``v`` at ``path``; ``unit`` scales
    pressures to kPa."""
    if is_dataclass(tp):
        return _parse(tp, v, path, unit)
    scale = unit if key in PRESSURE_FIELDS else 1.0
    if tp is float:
        return _finite(v, path) * scale
    if tp in _TYPE_NAMES:  # a JSON integer (not a boolean) for int, a boolean for bool
        if type(v) is not tp:
            raise ConfigError(f"{path}: expected {_TYPE_NAMES[tp]}, got {v!r}")
        return v
    args = get_args(tp)
    if is_dataclass(args[0]):
        pair = _object(v, path)
        value = tuple(_parse(a, _take(pair, path, k), _at(path, k), unit)
                      for a, k in zip(args, _PAIR_KEYS))
        _known(pair, path, _PAIR_KEYS)
        return value
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected an array of numbers, got {v!r}")
    if args[-1] is not Ellipsis and len(v) != len(args):
        raise ConfigError(f"{path}: expected {len(args)} values, got {len(v)}")
    return tuple(_finite(x, f"{path}[{i}]") * scale for i, x in enumerate(v))


def _parse(cls: type, data: Any, path: str, unit: float) -> Any:
    """Build dataclass ``cls`` from its JSON object; absent fields take their defaults."""
    obj, planner, names = _object(data, path), None, [f.name for f in fields(cls)]
    if cls is RunConfig:
        planner = _object(_take(obj, path, "planner"), "planner")
        names = [n for n in names if n not in PLANNER_FIELDS] + ["planner", "units"]
    hints = _hints(cls)
    values = {}
    for f in fields(cls):
        src, at = (obj, path) if f.name in names else (planner, "planner")
        if f.name in src or f.default is MISSING:
            values[f.name] = _value(hints[f.name], _take(src, at, f.name), f.name,
                                    _at(at, f.name), unit)
    _known(obj, path, names)
    if planner is not None:
        _known(planner, "planner", PLANNER_FIELDS)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def parse_config(doc: Any) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    units = _object(_take(_object(doc, ""), "", "units"), "units")
    p_unit = _take(units, "units", "pressure")
    if not isinstance(p_unit, str) or p_unit not in _PRESSURE_SCALE:
        raise ConfigError(f"units.pressure: expected one of {sorted(_PRESSURE_SCALE)}, got {p_unit!r}")
    l_unit = _take(units, "units", "length")
    if l_unit != "mm":
        raise ConfigError(f"units.length: only 'mm' is supported, got {l_unit!r}")
    _known(units, "units", ("pressure", "length"))
    return _parse(RunConfig, doc, "", _PRESSURE_SCALE[p_unit])


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(doc)


def _render(obj: Any) -> dict:
    """The JSON object of a dataclass instance: the inverse of ``_parse``."""
    doc: dict = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if is_dataclass(v):
            v = _render(v)
        elif isinstance(v, tuple):
            v = dict(zip(_PAIR_KEYS, map(_render, v))) if is_dataclass(v[0]) else list(v)
        in_planner = isinstance(obj, RunConfig) and f.name in PLANNER_FIELDS
        (doc.setdefault("planner", {}) if in_planner else doc)[f.name] = v
    return doc


def canonical_form(config: RunConfig) -> dict:
    """Normalized (kPa/mm) dictionary rendering of a RunConfig."""
    return {"units": {"pressure": "kPa", "length": "mm"}, **_render(config)}


def default_config_path() -> Path:
    """Path of the packaged default configuration."""
    return Path(resources.files("afpa_sim").joinpath("data/default_config.json"))
