"""Scenario configuration: dataclasses, text-file parsing, canonical form.

The on-disk format is plain ``key = value`` lines with ``#`` comments; keys
mirror the configuration field names with dots for nesting (``pmht.T = 30``,
``gravimeter.sigma = 1e-5``). Vectors are comma-separated; the bump list uses
``cx,cy,amplitude,width`` quadruples separated by semicolons.

:data:`KEYS` lists every key once, with the field that holds its value, its
codec and its allowed range or choices. Parsing, :func:`serialize_config`
(which writes the keys in table order) and :meth:`ScenarioConfig.validate`
all walk it; a value out of range, or not one of the key's choices, raises
:class:`ConfigError` naming the key.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections.abc import Callable, Collection
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

from .errors import ConfigError
from .inertial import SENSOR_GRADES

__all__ = [
    "GaussianBump",
    "MapGenParams",
    "MapSource",
    "GravimeterParams",
    "PmhtParams",
    "FusionParams",
    "InsParams",
    "InitParams",
    "MonteCarloParams",
    "DivergenceParams",
    "ScenarioConfig",
    "Key",
    "KEYS",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_hash",
]

INS_DT = 1.0  # dead-reckoning step, seconds; gravimeter samples land on these steps
# Longest flight, in INS steps: 116 days at 1 s, whose truth alone is 400 MB.
# Both route end points are checked against the map, but a zero velocity keeps
# them at the start however long the flight, so the step count is capped here.
MAX_INS_STEPS = 10**7
# 99.9% quantile of a 2-dof chi-square, the default innovation gate.
CHI2_99P9_2DOF = 13.815510557964274


@dataclass(frozen=True)
class GaussianBump:
    cx: float
    cy: float
    amplitude: float
    width: float


@dataclass
class MapGenParams:
    rows: int = 120
    cols: int = 120
    cell_size: float = 100.0
    origin_x: float = 0.0
    origin_y: float = 0.0
    background: float = 9.79
    bumps: tuple[GaussianBump, ...] = ()
    noise_scale: float = 0.0
    noise_corr_cells: float = 6.0
    seed: int = 0


@dataclass
class MapSource:
    """Either a grid file on disk or synthetic-generator parameters."""

    file: str | None = None
    gen: MapGenParams | None = None


@dataclass
class GravimeterParams:
    sigma: float = 1e-5
    interval: float = 10.0


@dataclass
class PmhtParams:
    T: int = 30
    max_iters: int = 15
    epsilon: float = 0.1
    gamma: float = 9.21
    n_max: int = 20
    q_a: float = 0.01
    k_sig: float = 3.0
    grad_floor: float = 1e-9
    spread_cov: bool = False


@dataclass
class FusionParams:
    """Knobs of the aiding filter.

    ``nis_gate`` set to ``None`` disables the innovation guard, leaving the
    plain ungated update; the default keeps the guard on. ``q_accel`` is the
    velocity-driving white-noise PSD in (m/s^2)^2/Hz; when ``None`` the
    harness fills it from the accelerometer grade.
    """

    mode: str = "standard"
    variability_threshold: float = 0.05
    window_len: int = 100
    v_floor: float = 0.01
    nis_gate: float | None = CHI2_99P9_2DOF
    # alpha = 1 is the classical symmetric sigma set. Small alpha values
    # (e.g. 1e-3) put a ~1e6 magnitude weight on the center point, which
    # amplifies float rounding past the 1e-10 KF-equivalence budget.
    alpha: float = 1.0
    beta: float = 2.0
    kappa: float = 0.0
    bias_psd: float = 1e-12
    q_accel: float | None = None
    template_half_width: int = 8


@dataclass
class InsParams:
    accel_grade: str = "PC-horizontal-accel"
    gyro_grade: str = "PC-horizontal-gyro"


@dataclass
class InitParams:
    """Initial belief uncertainty; bias sigma defaults to the grade bias."""

    pos_sigma: float = 30.0
    vel_sigma: float = 0.1
    bias_sigma: float | None = None


@dataclass
class MonteCarloParams:
    runs: int = 1
    base_seed: int = 0


@dataclass
class DivergenceParams:
    error_threshold_m: float = 10000.0
    sustain_s: float = 600.0


@dataclass
class ScenarioConfig:
    map: MapSource = field(default_factory=MapSource)
    start: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (22.0, 0.0)
    duration: float = 3600.0
    ins: InsParams = field(default_factory=InsParams)
    gravimeter: GravimeterParams = field(default_factory=GravimeterParams)
    pmht: PmhtParams = field(default_factory=PmhtParams)
    fusion: FusionParams = field(default_factory=FusionParams)
    init: InitParams = field(default_factory=InitParams)
    monte_carlo: MonteCarloParams = field(default_factory=MonteCarloParams)
    divergence: DivergenceParams = field(default_factory=DivergenceParams)
    aiding: bool = True
    mean_error_window: str = "aided"
    include_diverged: bool = False

    def validate(self) -> None:
        if self.map.file is None and self.map.gen is None:
            raise ConfigError("config must set either map.file or synthetic map parameters")
        for key in KEYS:
            key.check(key.get(self))
        steps = self.gravimeter.interval / INS_DT
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ConfigError(
                f"gravimeter.interval must be a whole number of {INS_DT:g} s INS steps, "
                f"got {_fmt(self.gravimeter.interval)}")
        if self.aiding and self.pmht.T * self.gravimeter.interval > self.duration:
            raise ConfigError(
                f"pmht.T = {self.pmht.T} scans every gravimeter.interval = "
                f"{self.gravimeter.interval:g} s outlast duration = {self.duration:g} s: "
                "no batch would ever close")


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: cannot parse boolean from {text!r}")


def _parse_vec2(text: str, key: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"key {key!r}: expected two comma-separated numbers")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {text!r}") from None


def _parse_bumps(text: str, key: str) -> tuple[GaussianBump, ...]:
    bumps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"key {key!r}: each bump needs cx,cy,amplitude,width")
        try:
            cx, cy, amp, width = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse bump {chunk!r}") from None
        if width <= 0:
            raise ConfigError(f"key {key!r}: bump width must be positive")
        bumps.append(GaussianBump(cx, cy, amp, width))
    return tuple(bumps)


def _num(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse number from {text!r}") from None


def _intval(text: str, key: str) -> int:
    value = _num(text, key)
    if not math.isfinite(value) or value != int(value):
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}")
    return int(value)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


class _Codec(NamedTuple):
    """How a key's value is read from and written to text."""

    kind: str
    parse: Callable[[str, str], object]
    fmt: Callable[[object], str]


_INT = _Codec("int", _intval, _fmt)
_FLOAT = _Codec("float", _num, _fmt)
_STR = _Codec("str", lambda text, key: text, _fmt)
_BOOL = _Codec("bool", _parse_bool, _fmt)
_VEC2 = _Codec("vec2", _parse_vec2, lambda vec: ",".join(map(_fmt, vec)))
_BUMPS = _Codec("bumps", _parse_bumps, lambda bumps: "; ".join(
    ",".join(map(_fmt, (b.cx, b.cy, b.amplitude, b.width))) for b in bumps))


@dataclass(frozen=True)
class Key:
    """One config key: where its value lives, its codec and its range.

    ``section`` is the dotted attribute path from :class:`ScenarioConfig` to
    the object holding the value (``""`` for top-level fields); the field is
    the last part of ``name``. ``gt``/``ge``/``le`` bound the value, and
    ``choices``, when set, is the collection it must be in; a live mapping
    such as :data:`~.inertial.SENSOR_GRADES` admits its keys as they are when
    the value is checked. ``none`` lists the words read as ``None``, the
    first being the one written; an unset value skips the checks.
    """

    name: str
    section: str
    codec: _Codec
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    none: tuple[str, ...] = ()
    choices: Collection[str] | None = None

    @property
    def field(self) -> str:
        return self.name.rpartition(".")[2]

    def _owner(self, cfg: ScenarioConfig):
        return reduce(getattr, filter(None, self.section.split(".")), cfg)

    def get(self, cfg: ScenarioConfig):
        """The stored value, or ``None`` when its section is absent."""
        owner = self._owner(cfg)
        return None if owner is None else getattr(owner, self.field)

    def set(self, cfg: ScenarioConfig, text: str) -> None:
        value = None if text.lower() in self.none else self.codec.parse(text, self.name)
        setattr(self._owner(cfg), self.field, value)

    def text(self, value) -> str:
        return self.none[0] if value is None else self.codec.fmt(value)

    def check(self, value) -> None:
        if value is None:
            return
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{self.name} must be one of {', '.join(self.choices)}, "
                              f"got {value!r}")
        for cmp, op, bound in ((operator.gt, ">", self.gt), (operator.ge, ">=", self.ge),
                               (operator.le, "<=", self.le)):
            if bound is not None and not cmp(value, bound):
                raise ConfigError(f"{self.name} must be {op} {bound}, got {_fmt(value)}")


# Serialization follows this order.
KEYS: tuple[Key, ...] = (
    Key("map.file", "map", _STR),
    Key("map.rows", "map.gen", _INT, ge=2),
    Key("map.cols", "map.gen", _INT, ge=2),
    Key("map.cell_size", "map.gen", _FLOAT, gt=0),
    Key("map.origin_x", "map.gen", _FLOAT),
    Key("map.origin_y", "map.gen", _FLOAT),
    Key("map.background", "map.gen", _FLOAT),
    Key("map.bumps", "map.gen", _BUMPS),
    Key("map.noise_scale", "map.gen", _FLOAT, ge=0),
    Key("map.noise_corr_cells", "map.gen", _FLOAT, ge=0),
    Key("map.seed", "map.gen", _INT),
    Key("start", "", _VEC2),
    Key("velocity", "", _VEC2),
    Key("duration", "", _FLOAT, ge=INS_DT, le=MAX_INS_STEPS * INS_DT),
    Key("ins.accel_grade", "ins", _STR, choices=SENSOR_GRADES),
    Key("ins.gyro_grade", "ins", _STR, choices=SENSOR_GRADES),
    Key("gravimeter.sigma", "gravimeter", _FLOAT, gt=0),
    Key("gravimeter.interval", "gravimeter", _FLOAT, gt=0),
    Key("pmht.T", "pmht", _INT, ge=2),
    Key("pmht.max_iters", "pmht", _INT, ge=1),
    Key("pmht.epsilon", "pmht", _FLOAT, ge=0),
    Key("pmht.gamma", "pmht", _FLOAT, gt=0),
    Key("pmht.n_max", "pmht", _INT, ge=1),
    Key("pmht.q_a", "pmht", _FLOAT, ge=0),
    Key("pmht.k_sig", "pmht", _FLOAT, gt=0),
    Key("pmht.grad_floor", "pmht", _FLOAT, gt=0),
    Key("pmht.spread_cov", "pmht", _BOOL),
    Key("fusion.mode", "fusion", _STR, choices=("standard", "retrodiction")),
    Key("fusion.variability_threshold", "fusion", _FLOAT, ge=0, le=1),
    Key("fusion.window_len", "fusion", _INT, ge=1),
    Key("fusion.v_floor", "fusion", _FLOAT, gt=0),
    Key("fusion.nis_gate", "fusion", _FLOAT, gt=0, none=("none", "off")),
    Key("fusion.alpha", "fusion", _FLOAT, gt=0),
    Key("fusion.beta", "fusion", _FLOAT),
    Key("fusion.kappa", "fusion", _FLOAT),
    Key("fusion.bias_psd", "fusion", _FLOAT, ge=0),
    Key("fusion.q_accel", "fusion", _FLOAT, ge=0, none=("auto",)),
    Key("fusion.template_half_width", "fusion", _INT, ge=1),
    Key("init.pos_sigma", "init", _FLOAT, gt=0),
    Key("init.vel_sigma", "init", _FLOAT, gt=0),
    Key("init.bias_sigma", "init", _FLOAT, gt=0, none=("auto",)),
    Key("monte_carlo.runs", "monte_carlo", _INT, ge=1),
    Key("monte_carlo.base_seed", "monte_carlo", _INT),
    Key("divergence.error_threshold_m", "divergence", _FLOAT, gt=0),
    Key("divergence.sustain_s", "divergence", _FLOAT, gt=0),
    Key("aiding", "", _BOOL),
    Key("mean_error_window", "", _STR, choices=("aided", "full")),
    Key("include_diverged", "", _BOOL),
)

_BY_NAME = {key.name: key for key in KEYS}


def parse_config_text(text: str) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from ``key = value`` lines.

    The synthetic map section is kept only when the text sets one of its keys.
    """
    cfg = ScenarioConfig(map=MapSource(gen=MapGenParams()))
    synthetic = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"unknown config key {name!r}")
        key.set(cfg, value)
        synthetic |= key.section == "map.gen"
    if not synthetic:
        cfg.map.gen = None
    if cfg.map.file is not None and cfg.map.gen is not None:
        raise ConfigError("config sets both map.file and synthetic map parameters")
    return cfg


def parse_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: "
                              f"byte {exc.start} cannot be decoded") from None
    return parse_config_text(text)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form of a configuration, in :data:`KEYS` order.

    Keys of an absent section, an unset ``map.file`` and an empty bump list
    are left out.
    """
    lines = []
    for key in KEYS:
        value = key.get(cfg)
        if (value is None and not key.none) or value == ():
            continue
        lines.append(f"{key.name} = {key.text(value)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ScenarioConfig) -> str:
    """SHA-256 of the canonical config text."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
