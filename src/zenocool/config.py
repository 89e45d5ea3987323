"""Experiment configuration: parsing, validation, presets.

Configs are flat JSON. Exactly one unit convention per file: either
``omega_m_rad_s`` is present and every rate is in rad/s with ``tau`` in
seconds and temperatures in kelvin, or ``"dimensionless": true`` and rates
are ratios to omega_m, ``tau`` is the product omega_m*tau, and the thermal
state must be given as ``n_bar_th``. Unknown keys and keys of the wrong
kind are rejected by name; the spec dataclasses declare the keys inside
``segments``, ``outputs`` and ``sweep``, their kinds (a tuple field is a
nonempty list, checked element by element) and every default. Parsing
checks the JSON's shape and types, then builds the library objects the
config describes, whose own rules check the values; a value that breaks
one is a ``ConfigError`` naming its key.
"""

from __future__ import annotations

import json
import logging
import math
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace

from .params import PhysicalParams
from .fock import DEFAULT_EPSILON_TAIL, DEFAULT_HARD_CAP, ThermalSpec
from .coefficients import switches, variant_params
from .protocol import ProtocolSchedule, Segment, _apply_axis, _check_axis

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@contextmanager
def _named(where: str):
    """Re-raise a rule's ``ValueError`` as a ``ConfigError`` that starts with
    ``where``, the key or place the checked value came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The kind of each top-level key; keys inside ``segments``, ``outputs`` and
# ``sweep`` are the fields of their spec dataclasses below. ``preset`` is read
# first, to expand it, and never reaches the reader.
_TOP_KEYS = {
    "dimensionless": bool, "omega_m_rad_s": float, "g_m": float, "g_f": float,
    "delta_e": float, "tau": float, "T_kelvin": float, "n_bar_th": float,
    "epsilon_tail": float, "segments": list, "seed": int, "hard_cap": int,
    "outputs": dict, "sweep": dict,
}


@dataclass(frozen=True)
class SegmentSpec:
    variant: str
    steps: int
    until_n_bar: float | None = None
    g_f: float | None = None      # override, in the file's unit convention
    delta_e: float | None = None


@dataclass(frozen=True)
class OutputOptions:
    run_csv: bool = True
    histogram_csv: bool = False
    coefficients_csv: bool = False
    powers: tuple[int, ...] = (1,)
    variants: tuple[str, ...] | None = None
    n_max: int | None = None


@dataclass(frozen=True)
class SweepOptions:
    axis: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (dimensionless internally)."""

    params: PhysicalParams
    segments: tuple[SegmentSpec, ...] = ()
    temperature: float | None = None
    n_bar_th: float | None = None
    epsilon_tail: float = DEFAULT_EPSILON_TAIL
    seed: int = 0
    hard_cap: int = DEFAULT_HARD_CAP
    outputs: OutputOptions = field(default_factory=OutputOptions)
    sweep: SweepOptions | None = None
    preset: str | None = None

    @property
    def si_units(self) -> bool:
        return self.params.omega_m is not None

    @property
    def has_thermal(self) -> bool:  # T_kelvin or n_bar_th
        return self.temperature is not None or self.n_bar_th is not None

    def thermal_spec(self) -> ThermalSpec:
        if not self.has_thermal:
            raise ConfigError("config has no thermal state: set T_kelvin or n_bar_th")
        key = "T_kelvin" if self.temperature is not None else "n_bar_th"
        with _named(f"key {key!r}"):
            return ThermalSpec(temperature=self.temperature, n_bar_th=self.n_bar_th,
                               omega_m=self.params.omega_m, epsilon_tail=self.epsilon_tail)

    def segment_params(self, spec: SegmentSpec) -> PhysicalParams:
        """Effective parameters of one segment.

        The variant's switch rule applies (conventional variants run with
        g_f = 0); a resonant variant must not carry a detuning.
        """
        scale = self.params.omega_m if self.si_units else 1.0
        p = replace(self.params, **{k: getattr(spec, k) / scale for k in ("g_f", "delta_e")
                                    if getattr(spec, k) is not None})
        switched = variant_params(spec.variant, p)
        if switched.delta_e != p.delta_e:
            raise ConfigError(
                f"segment variant {spec.variant!r} is resonant but delta_e is "
                f"{p.delta_e:g}; use the {spec.variant + '-detuned'!r} variant"
            )
        return switched

    def sweep_values(self) -> tuple[float, ...]:
        """The sweep grid in library units: an SI ``tau`` grid is in seconds,
        and :func:`~zenocool.protocol.sweep` takes omega_m tau."""
        values = self.sweep.values
        if self.sweep.axis == "tau" and self.si_units:
            return tuple(v * self.params.omega_m for v in values)
        return values

    def schedule(self) -> ProtocolSchedule:
        """The segments as a schedule; a segment that breaks a rule of
        ``Segment`` or of its parameters is a ``ConfigError`` naming it."""
        if not self.segments:
            raise ConfigError("config has no segments")
        segments = []
        for i, s in enumerate(self.segments):
            with _named(f"segments[{i}]"):
                segments.append(Segment(s.variant, self.segment_params(s), s.steps,
                                        s.until_n_bar))
        return ProtocolSchedule(tuple(segments))

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; parses back to an equal config."""
        out: dict = {}
        if self.preset is not None:
            out["preset"] = self.preset
        if self.si_units:
            si = self.params.to_si()
            out["omega_m_rad_s"] = si["omega_m_rad_s"]
            out["g_m"] = si["g_m_rad_s"]
            out["g_f"] = si["g_f_rad_s"]
            out["delta_e"] = si["delta_e_rad_s"]
            out["tau"] = si["tau_s"]
        else:
            out["dimensionless"] = True
            out["g_m"] = self.params.g_m
            out["g_f"] = self.params.g_f
            out["delta_e"] = self.params.delta_e
            out["tau"] = self.params.tau
        if self.temperature is not None:
            out["T_kelvin"] = self.temperature
        if self.n_bar_th is not None:
            out["n_bar_th"] = self.n_bar_th
        out["epsilon_tail"] = self.epsilon_tail
        out["segments"] = [_plain(s) for s in self.segments]
        out["seed"] = self.seed
        out["hard_cap"] = self.hard_cap
        out["outputs"] = _plain(self.outputs)
        if self.sweep is not None:
            out["sweep"] = _plain(self.sweep)
        return out


def _plain(spec) -> dict:
    """A spec's fields as JSON keys: ``None`` left out, tuples as lists."""
    values = ((f.name, getattr(spec, f.name)) for f in fields(spec))
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None}


# A field's JSON kind, by the names in its annotation (a string, under
# ``from __future__ import annotations``): ``tuple[x, ...]`` is a nonempty
# list of x, written ``(x,)``.
_JSON_KINDS = {"str": str, "int": int, "float": float, "bool": bool}


def _kind(annotation: str):
    outer, inner = re.match(r"(\w+)(?:\[(\w+))?", annotation).groups()
    return (_JSON_KINDS[inner],) if outer == "tuple" else _JSON_KINDS[outer]


def _spec_keys(spec) -> tuple[dict, tuple[str, ...]]:
    """The kind of each field of a spec dataclass, and the fields it requires."""
    kinds = {f.name: _kind(f.type) for f in fields(spec)}
    return kinds, tuple(f.name for f in fields(spec) if f.default is MISSING)


_SPEC_KEYS = {spec: _spec_keys(spec) for spec in (SegmentSpec, OutputOptions, SweepOptions)}


def _typed(key: str, value, kind, where: str):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r} in {where} must be a finite number, "
                              f"got {value!r}")
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind in (list, dict, str) and isinstance(value, kind):
        return value
    if isinstance(kind, tuple):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"key {key!r} in {where} must be a nonempty list of "
                              f"{kind[0].__name__}")
        return tuple([_typed(key, v, kind[0], where) for v in value])
    raise ConfigError(f"key {key!r} in {where} must be {kind.__name__}, "
                      f"got {type(value).__name__}")


def _require(raw: dict, keys, where: str):
    for key in keys:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r} in {where}")


def _read(raw, kinds: dict[str, type], where: str) -> dict:
    """The keys of one JSON object, each checked against its kind; an unknown
    key is named."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(raw.keys() - kinds.keys())
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")
    return {key: _typed(key, value, kinds[key], where) for key, value in raw.items()}


def _read_spec(spec, raw, where: str) -> dict:
    """The keys of one object that a spec dataclass declares, checked."""
    kinds, required = _SPEC_KEYS[spec]
    keys = _read(raw, kinds, where)
    _require(keys, required, where)
    return keys


def _parse_outputs(raw) -> OutputOptions:
    keys = _read_spec(OutputOptions, raw, "outputs")
    if min(keys.get("powers", (1,))) < 1:
        raise ConfigError("key 'powers' in outputs must be a nonempty list of "
                          "positive ints")
    with _named("key 'variants' in outputs"):
        list(map(switches, keys.get("variants", ())))
    if "n_max" in keys and keys["n_max"] < 0:
        raise ConfigError("key 'n_max' in outputs must be nonnegative")
    return OutputOptions(**keys)


def _parse_sweep(raw, has_si: bool, n_segments: int) -> SweepOptions:
    keys = _read_spec(SweepOptions, raw, "sweep")
    with _named("key 'axis' in sweep"):
        _check_axis(keys["axis"], has_si, n_segments)
    return SweepOptions(**keys)


def parse_config_data(data: dict, preset: str | None = None) -> ExperimentConfig:
    """Validate a raw config mapping, expanding its preset if named.

    ``preset`` overlays the named preset under the explicit keys: the
    preset provides defaults and the mapping's own keys win. Only the keys
    the mapping holds are passed on, so every default is the one its
    dataclass declares.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    named = data.get("preset")
    if named is not None and not isinstance(named, str):
        raise ConfigError("key 'preset' must be a string")
    if preset is not None and named is not None and preset != named:
        raise ConfigError(f"preset {preset!r} conflicts with config preset {named!r}")
    preset = named or preset
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; "
                          f"available: {', '.join(sorted(PRESETS))}")
    keys = dict(PRESETS[preset]) if preset is not None else {}
    keys.update((k, v) for k, v in data.items() if k != "preset")
    if preset is not None and logger.isEnabledFor(logging.INFO):
        logger.info("expanded preset %r to %s", preset, json.dumps(keys, sort_keys=True))

    keys = _read(keys, _TOP_KEYS, "config")
    has_si = "omega_m_rad_s" in keys
    if keys.pop("dimensionless", False) == has_si:
        raise ConfigError("set exactly one unit convention: key 'omega_m_rad_s' "
                          "(SI) or key 'dimensionless': true")
    _require(keys, ("g_m", "tau"), "config")
    rates = {k: keys.pop(k) for k in ("g_m", "tau", "g_f", "delta_e") if k in keys}
    with _named("config"):
        params = (PhysicalParams.from_si(keys.pop("omega_m_rad_s"), **rates) if has_si
                  else PhysicalParams(**rates))

    if "T_kelvin" in keys:
        keys["temperature"] = keys.pop("T_kelvin")
    if "segments" in keys:
        keys["segments"] = tuple(SegmentSpec(**_read_spec(SegmentSpec, s, f"segments[{i}]"))
                                 for i, s in enumerate(keys["segments"]))
    if "outputs" in keys:
        keys["outputs"] = _parse_outputs(keys["outputs"])
    if "sweep" in keys:
        keys["sweep"] = _parse_sweep(keys["sweep"], has_si, len(keys.get("segments", ())))

    c = ExperimentConfig(params=params, preset=preset, **keys)
    if not 0.0 < c.epsilon_tail <= 1e-6:
        raise ConfigError("key 'epsilon_tail' must be in (0, 1e-6]")
    if c.seed < 0:
        raise ConfigError("key 'seed' must be nonnegative")
    if c.hard_cap < 0:
        raise ConfigError("key 'hard_cap' must be nonnegative")
    if c.outputs.n_max is not None and c.outputs.n_max > c.hard_cap:
        raise ConfigError(f"key 'n_max' in outputs is {c.outputs.n_max}, above "
                          f"'hard_cap' {c.hard_cap}")
    schedule = c.schedule() if c.segments else None
    thermal = c.thermal_spec() if c.has_thermal else None
    # A g_f, T or tau grid value fails its own point of the sweep instead;
    # with no thermal state, the runner names the missing keys.
    if schedule and thermal and c.sweep and c.sweep.axis in ("N", "switch"):
        with _named("key 'values' in sweep"):
            for value in c.sweep.values:
                _apply_axis(c.sweep.axis, value, thermal, schedule)
    return c


def parse_config(path, preset: str | None = None) -> ExperimentConfig:
    """Read and validate a JSON config file.

    A file that is not UTF-8, not JSON, nested past the recursion limit or
    holding an integer past Python's digit limit raises ``ConfigError``; one
    that cannot be read raises ``OSError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text) if text.strip() else {}
    except (ValueError, RecursionError) as exc:  # ValueError covers both decode errors
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        return parse_config_data(data, preset=preset)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Preset anchors: a 15.6 GHz (angular) magnetic resonator coupled at
# 2*pi*1 MHz, measured every 700 (or 220) resonator cycles' worth of time.
_OMEGA = 1.56e10
_G_M = 2.0 * math.pi * 1.0e6
_TAU_700 = 700.0 / _OMEGA
_TAU_220 = 220.0 / _OMEGA


def _si_run(T, gf_over_gm, tau, segments, seed, **outputs):
    cfg = {
        "omega_m_rad_s": _OMEGA,
        "g_m": _G_M,
        "g_f": gf_over_gm * _G_M,
        "delta_e": 0.0,
        "tau": tau,
        "T_kelvin": T,
        "segments": segments,
        "seed": seed,
    }
    if outputs:
        cfg["outputs"] = outputs
    return cfg


PRESETS: dict[str, dict] = {
    # Coefficient-range study on a dimensionless grid.
    "fig2": {
        "dimensionless": True,
        "g_m": 0.0004, "g_f": 0.02, "delta_e": 0.0, "tau": 700.0,
        "outputs": {"run_csv": False, "coefficients_csv": True,
                    "powers": [1, 10], "variants": ["driven", "conventional"],
                    "n_max": 2500},
        "seed": 2,
    },
    # Low-temperature runs, driving on versus off.
    "fig3a": _si_run(0.1, 30.0, _TAU_700, [{"variant": "driven", "steps": 80}], 31),
    "fig3a_conventional": _si_run(0.1, 0.0, _TAU_700,
                                  [{"variant": "conventional", "steps": 80}], 31),
    "fig3b": _si_run(1.0, 30.0, _TAU_700, [{"variant": "driven", "steps": 80}], 32),
    "fig3b_conventional": _si_run(1.0, 0.0, _TAU_700,
                                  [{"variant": "conventional", "steps": 80}], 32),
    "fig3c": _si_run(2.2, 30.0, _TAU_700, [{"variant": "driven", "steps": 80}], 33),
    "fig3c_conventional": _si_run(2.2, 0.0, _TAU_700,
                                  [{"variant": "conventional", "steps": 80}], 33),
    # 10 K runs where only the driven protocol cools.
    "fig4": _si_run(10.0, 30.0, _TAU_700, [{"variant": "driven", "steps": 300}], 41),
    "fig4_conventional": _si_run(10.0, 0.0, _TAU_700,
                                 [{"variant": "conventional", "steps": 300}], 41),
    # Population histograms after 60 measurements (5a is the untouched start).
    "fig5a": _si_run(10.0, 0.0, _TAU_700, [], 50, run_csv=True, histogram_csv=True),
    "fig5b": _si_run(10.0, 0.0, _TAU_700,
                     [{"variant": "conventional", "steps": 60}], 51,
                     run_csv=True, histogram_csv=True),
    "fig5c": _si_run(10.0, 30.0, _TAU_700, [{"variant": "driven", "steps": 60}], 52,
                     run_csv=True, histogram_csv=True),
    # Around 100 K with a shorter interval and stronger driving.
    "fig6": _si_run(100.0, 50.0, _TAU_220, [{"variant": "driven", "steps": 300}], 61),
    "fig6_sweep": {
        **_si_run(100.0, 50.0, _TAU_220, [{"variant": "driven", "steps": 50}], 62),
        "sweep": {"axis": "T", "values": [90.0, 100.0, 110.0, 120.0]},
    },
    # Hybrid schedule: driving on for 30 measurements, then off.
    "fig7": _si_run(10.0, 30.0, _TAU_700,
                    [{"variant": "driven", "steps": 30},
                     {"variant": "conventional", "steps": 270}], 71),
    "fig7_threshold": _si_run(10.0, 30.0, _TAU_700,
                              [{"variant": "driven", "steps": 300, "until_n_bar": 10.0},
                               {"variant": "conventional", "steps": 270}], 71),
    # fig7's 300 measurements against the step at which the driving goes off.
    "fig7_switch": {
        **_si_run(10.0, 30.0, _TAU_700,
                  [{"variant": "driven", "steps": 30},
                   {"variant": "conventional", "steps": 270}], 72),
        "sweep": {"axis": "switch", "values": [0, 20, 60, 120, 189, 300]},
    },
    # Terminal observables against the driving strength (units of g_m).
    # The grid samples halfway between the g_f*tau = 2*j*pi resonances at
    # which the first cooling-free index crosses the ground state and the
    # survival probability spikes trivially; midway points expose the
    # asymptotic trend instead.
    "fig8": {
        **_si_run(10.0, 30.0, _TAU_700, [{"variant": "driven", "steps": 50}], 81),
        "sweep": {"axis": "g_f",
                  "values": [round((j + 0.5) * 2.0 * math.pi / (_G_M / _OMEGA * 700.0), 2)
                             for j in range(5)]},
    },
    # Detuned coefficient tables on the dimensionless grid.
    "fig9": {
        "dimensionless": True,
        "g_m": 0.0004, "g_f": 0.02, "delta_e": 0.002, "tau": 700.0,
        "outputs": {"run_csv": False, "coefficients_csv": True, "powers": [1],
                    "variants": ["driven-detuned", "conventional-detuned"],
                    "n_max": 2500},
        "seed": 9,
    },
}
