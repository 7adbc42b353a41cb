"""Scenario files: strict JSON schema, defaulting, and round-trip
serialization.

The simulation itself runs in internal units (hbar = M = c = 1); the lab
`setup` block, in SI units, feeds only the closed-form estimate chain.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, DomainError, IoError
from .experiments import DESK_SCALE, THRESHOLD_FRACTION, TwoGateConfig
from .packets import GATE_PROFILES
from .propagation import ENGINES, STUECKELBERG, THEORIES
from .units import MOMENTUM_MODELS, SETUP_FIELDS, PhysicalSetup

# every default lives on PhysicalSetup and DESK_SCALE; a setup key names its
# field in SI, and a packet or sim key is the TwoGateConfig field itself
_SETUP_DEFAULTS = {key: getattr(PhysicalSetup, name)
                   for key, name in SETUP_FIELDS.items()}
_PACKET_DEFAULTS = {key: getattr(DESK_SCALE, key) for key in (
    "spatial_width", "spatial_center", "momentum", "carrier_energy",
    "gate_width", "gate_spacing", "gate_profile")}
_SIM_DEFAULTS = {key: getattr(DESK_SCALE, key)
                 for key in ("flight_distance", "s_elapsed", "detector_x")}
_ANALYSIS_DEFAULTS = {"threshold_fraction": THRESHOLD_FRACTION}


@dataclass(frozen=True)
class Scenario:
    theory: str = STUECKELBERG
    engine: str = DESK_SCALE.engine
    setup: dict = field(default_factory=lambda: dict(_SETUP_DEFAULTS))
    packet: dict = field(default_factory=lambda: dict(_PACKET_DEFAULTS))
    sim: dict = field(default_factory=lambda: dict(_SIM_DEFAULTS))
    analysis: dict = field(default_factory=lambda: dict(_ANALYSIS_DEFAULTS))

    def to_dict(self) -> dict:
        """The scenario echo; each section is a shallow copy, because its
        values are numbers, strings or None."""
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def physical_setup(self) -> PhysicalSetup:
        try:
            return PhysicalSetup(**{name: self.setup[key]
                                    for key, name in SETUP_FIELDS.items()})
        except DomainError as exc:
            raise ConfigError(f"setup: {exc}") from exc

    def two_gate_config(self) -> TwoGateConfig:
        try:
            return TwoGateConfig(**self.packet, **self.sim, engine=self.engine)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


def _reject_unknown(section: str, data: dict, known) -> None:
    for key in data:
        if key not in known:
            import difflib  # only for the hint; a cold start skips it
            hint = difflib.get_close_matches(key, list(known), n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown key {where!r}{suggestion}")


def _merge_section(section: str, data, defaults: dict) -> dict:
    if data is None:
        return dict(defaults)
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    _reject_unknown(section, data, defaults)
    merged = dict(defaults)
    merged.update(data)
    return merged


def _require_number(section: str, key: str, value, positive=False,
                    nonnegative=False, allow_none=False) -> None:
    if value is None:
        if allow_none:
            return
        raise ConfigError(f"{section}.{key} must be a number")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ConfigError(
            f"{section}.{key} is too large for a float") from None
    if not finite:
        raise ConfigError(f"{section}.{key} must be finite, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{section}.{key} must be > 0")
    if nonnegative and value < 0:
        raise ConfigError(f"{section}.{key} must be >= 0")


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    _reject_unknown("", raw, [f.name for f in fields(Scenario)])

    theory = raw.get("theory", Scenario.theory)
    if theory not in THEORIES:
        raise ConfigError(f"theory must be one of {THEORIES}, got {theory!r}")
    engine = raw.get("engine", Scenario.engine)
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")

    setup = _merge_section("setup", raw.get("setup"), _SETUP_DEFAULTS)
    packet = _merge_section("packet", raw.get("packet"), _PACKET_DEFAULTS)
    sim = _merge_section("sim", raw.get("sim"), _SIM_DEFAULTS)
    analysis = _merge_section("analysis", raw.get("analysis"),
                              _ANALYSIS_DEFAULTS)

    _require_number("setup", "wavelength_nm", setup["wavelength_nm"],
                    positive=True)
    count = setup["photon_count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError("setup.photon_count must be an integer >= 1")
    _require_number("setup", "photon_count", count)
    _require_number("setup", "flight_distance_m", setup["flight_distance_m"],
                    positive=True)
    if setup["momentum_model"] not in MOMENTUM_MODELS:
        raise ConfigError(
            f"setup.momentum_model must be one of {MOMENTUM_MODELS}")
    _require_number("packet", "spatial_width", packet["spatial_width"],
                    positive=True)
    _require_number("packet", "spatial_center", packet["spatial_center"])
    _require_number("packet", "momentum", packet["momentum"], positive=True)
    _require_number("packet", "carrier_energy", packet["carrier_energy"],
                    allow_none=True)
    _require_number("packet", "gate_width", packet["gate_width"],
                    positive=True)
    _require_number("packet", "gate_spacing", packet["gate_spacing"],
                    nonnegative=True)
    if packet["gate_profile"] not in GATE_PROFILES:
        raise ConfigError(
            f"packet.gate_profile must be one of {GATE_PROFILES}")
    _require_number("sim", "flight_distance", sim["flight_distance"],
                    positive=True)
    _require_number("sim", "s_elapsed", sim["s_elapsed"], positive=True,
                    allow_none=True)
    _require_number("sim", "detector_x", sim["detector_x"], allow_none=True)
    tf = analysis["threshold_fraction"]
    _require_number("analysis", "threshold_fraction", tf)
    if not 0.0 < tf < 1.0:
        raise ConfigError("analysis.threshold_fraction must be in (0, 1)")

    return Scenario(theory=theory, engine=engine, setup=setup, packet=packet,
                    sim=sim, analysis=analysis)


def parse_scenario(path) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise IoError(f"scenario file not found: {p}")
    try:  # ValueError: bad JSON, or an integer past Python's digit limit
        raw = json.loads(p.read_text())
    except ValueError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)
