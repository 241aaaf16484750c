"""Scenario configuration: dataclasses, text-file parsing, canonical form.

The on-disk format is plain ``key = value`` lines with ``#`` comments; keys
mirror the configuration field names with dots for nesting (``pmht.T = 30``,
``gravimeter.sigma = 1e-5``). Vectors are comma-separated; the bump list uses
``cx,cy,amplitude,width`` quadruples separated by semicolons.

Each key is declared once, as a config dataclass field: its type picks the
codec and its ``_key`` spec holds the range or choices. :data:`KEYS` is
derived from the fields in order. Parsing, :func:`serialize_config` and
:meth:`ScenarioConfig.validate` all walk it; a value out of range, not
finite, or not one of the key's choices raises :class:`ConfigError` naming
the key. Parsing only reads values: every check of one, the rules that join
keys included, is in ``validate``.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections.abc import Callable, Collection
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from functools import reduce
from types import NoneType, UnionType
from typing import NamedTuple, get_args, get_type_hints

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
# Most cells of a synthetic map: 400 MB of float64, about 32 corridor maps.
MAX_MAP_CELLS = 5 * 10**7
# Widest noise correlation, in cells: a smoothing kernel radius of 4e4 cells
# and about 82 MB per padded 128-column strip.
MAX_NOISE_CORR_CELLS = 10**4
# 99.9% quantile of a 2-dof chi-square, the default innovation gate.
CHI2_99P9_2DOF = 13.815510557964274
NAV_STATES = 6  # the nav filter's state: position, velocity and accelerometer bias


def unscented_spread(n: int, alpha: float, kappa: float) -> tuple[float, float]:
    """``lambda = alpha²(n + kappa) - n`` of the nav filter's scaled unscented
    transform over ``n`` states, and its spread factor ``n + lambda``."""
    lam = alpha * alpha * (n + kappa) - n
    return lam, n + lam


@dataclass(frozen=True)
class GaussianBump:
    cx: float
    cy: float
    amplitude: float
    width: float


def _key(default, **spec):
    """A config field with a default and a :class:`Key` spec: any of the
    bounds ``gt``/``ge``/``le``, the unset words ``none`` and ``choices``."""
    return field(default=default, metadata=spec)


# Each field below is one config key (``pmht.T``) or a section of them. Field
# order is the order serialize_config writes, so moving a field moves every
# config_hash.
@dataclass
class MapGenParams:
    rows: int = _key(120, ge=2)
    cols: int = _key(120, ge=2)
    cell_size: float = _key(100.0, gt=0)
    origin_x: float = 0.0
    origin_y: float = 0.0
    background: float = 9.79
    bumps: tuple[GaussianBump, ...] = ()
    noise_scale: float = _key(0.0, ge=0)
    noise_corr_cells: float = _key(6.0, ge=0, le=MAX_NOISE_CORR_CELLS)
    seed: int = _key(0, ge=0)


@dataclass
class MapSource:
    """Either a grid file on disk or synthetic-generator parameters."""

    file: str | None = None
    # "flat": the generator's keys read map.rows, not map.gen.rows.
    gen: MapGenParams | None = field(default=None, metadata={"flat": True})


@dataclass
class GravimeterParams:
    sigma: float = _key(1e-5, gt=0)
    interval: float = _key(10.0, ge=INS_DT)


@dataclass
class PmhtParams:
    T: int = _key(30, ge=2)
    max_iters: int = _key(15, ge=1)
    epsilon: float = _key(0.1, ge=0)
    gamma: float = _key(9.21, gt=0)
    n_max: int = _key(20, ge=1)
    q_a: float = _key(0.01, ge=0)
    k_sig: float = _key(3.0, gt=0)
    grad_floor: float = _key(1e-9, gt=0)
    spread_cov: bool = False


@dataclass
class FusionParams:
    """Knobs of the aiding filter.

    ``nis_gate`` set to ``None`` disables the innovation guard, leaving the
    plain ungated update; the default keeps the guard on. ``q_accel`` is the
    velocity-driving white-noise PSD in (m/s^2)^2/Hz; when ``None`` the
    harness fills it from the accelerometer grade.
    """

    mode: str = _key("standard", choices=("standard", "retrodiction"))
    variability_threshold: float = _key(0.05, ge=0, le=1)
    window_len: int = _key(100, ge=1)
    v_floor: float = _key(0.01, gt=0)
    nis_gate: float | None = _key(CHI2_99P9_2DOF, gt=0, none=("none", "off"))
    # alpha = 1 is the classical symmetric sigma set. Small alpha values
    # (e.g. 1e-3) put a ~1e6 magnitude weight on the center point, which
    # amplifies float rounding past the 1e-10 KF-equivalence budget.
    alpha: float = _key(1.0, gt=0)
    beta: float = 2.0
    kappa: float = 0.0
    bias_psd: float = _key(1e-12, ge=0)
    q_accel: float | None = _key(None, ge=0, none=("auto",))
    template_half_width: int = _key(8, ge=1)


@dataclass
class InsParams:
    accel_grade: str = _key("PC-horizontal-accel", choices=SENSOR_GRADES)
    gyro_grade: str = _key("PC-horizontal-gyro", choices=SENSOR_GRADES)


@dataclass
class InitParams:
    """Initial belief uncertainty; bias sigma defaults to the grade bias."""

    pos_sigma: float = _key(30.0, gt=0)
    vel_sigma: float = _key(0.1, gt=0)
    bias_sigma: float | None = _key(None, gt=0, none=("auto",))


@dataclass
class MonteCarloParams:
    runs: int = _key(1, ge=1)
    base_seed: int = _key(0, ge=0)


@dataclass
class DivergenceParams:
    error_threshold_m: float = _key(10000.0, gt=0)
    sustain_s: float = _key(600.0, gt=0)


@dataclass
class ScenarioConfig:
    map: MapSource = field(default_factory=MapSource)
    start: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (22.0, 0.0)
    duration: float = _key(3600.0, ge=INS_DT, le=MAX_INS_STEPS * INS_DT)
    ins: InsParams = field(default_factory=InsParams)
    gravimeter: GravimeterParams = field(default_factory=GravimeterParams)
    pmht: PmhtParams = field(default_factory=PmhtParams)
    fusion: FusionParams = field(default_factory=FusionParams)
    init: InitParams = field(default_factory=InitParams)
    monte_carlo: MonteCarloParams = field(default_factory=MonteCarloParams)
    divergence: DivergenceParams = field(default_factory=DivergenceParams)
    aiding: bool = True
    mean_error_window: str = _key("aided", choices=("aided", "full"))
    include_diverged: bool = False

    def validate(self) -> None:
        """Check every value: each key's range and the rules that join keys.

        This is the one check of a config value; the library does not check
        a validated value again.
        """
        if (self.map.file is None) == (self.map.gen is None):
            raise ConfigError("config must set exactly one of map.file and the synthetic "
                              "map parameters (map.rows, map.cols, ...)")
        for key in KEYS:
            key.check(key.get(self))
        gen = self.map.gen
        if gen is not None:
            if gen.rows * gen.cols > MAX_MAP_CELLS:
                raise ConfigError(f"map.rows * map.cols must be <= {MAX_MAP_CELLS}, "
                                  f"got {gen.rows} * {gen.cols}")
            for bump in gen.bumps:
                if not bump.width > 0:
                    raise ConfigError(f"map.bumps widths must be > 0, got {_fmt(bump.width)}")
        spread = unscented_spread(NAV_STATES, self.fusion.alpha, self.fusion.kappa)[1]
        if not spread > 0:
            raise ConfigError(f"fusion.alpha = {_fmt(self.fusion.alpha)} and fusion.kappa = "
                              f"{_fmt(self.fusion.kappa)} give the nav filter's unscented "
                              f"spread factor n + lambda = {_fmt(spread)}; it must be positive")
        # Every entry of the unaided nav covariance stays below one axis's
        # variance sum at the end of the flight: position, velocity and bias.
        # The filter scales the covariance by n + lambda for its sigma points
        # and adds it to its transpose, so both products must be finite. An
        # infinite n + lambda overflows every belief, whatever its sigmas:
        # that fails the run as a numerical fault.
        init, t2 = self.init, self.duration * self.duration
        bias_sigma = init.bias_sigma
        if bias_sigma is None:
            bias_sigma = SENSOR_GRADES[self.ins.accel_grade].accel_bias
        terms = {"pos_sigma": init.pos_sigma * init.pos_sigma,
                 "vel_sigma": init.vel_sigma * init.vel_sigma * (1.0 + t2),
                 "bias_sigma": bias_sigma * bias_sigma * (1.0 + t2 + t2 * t2 / 4.0)}
        if math.isfinite(spread) and not math.isfinite(max(spread, 2.0) * sum(terms.values())):
            name = max(terms, key=terms.get)
            raise ConfigError(f"init.{name} = {_fmt(getattr(init, name))} over duration = "
                              f"{_fmt(self.duration)} s overflows the nav filter's covariance, "
                              f"scaled by n + lambda = {_fmt(spread)}")
        steps = self.gravimeter.interval / INS_DT
        if abs(steps - round(steps)) > 1e-9:
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
        bumps.append(GaussianBump(cx, cy, amp, width))
    return tuple(bumps)


def _num(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse number from {text!r}") from None


def _intval(text: str, key: str) -> int:
    """An integer, exactly: in digits, or in a spelling whose float holds it
    exactly, such as ``1e3`` or ``30.0``."""
    try:
        return int(text)
    except ValueError:  # a huge exponent reads as inf, before Decimal sees it
        value = _num(text, key)
    from decimal import Decimal  # imported here: 0.4 MB of RSS that a run in digits never needs
    if not (math.isfinite(value) and value.is_integer() and Decimal(text) == value):
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}")
    return int(value)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


class _Codec(NamedTuple):
    """How a key's value is read from and written to text, and the real
    numbers it holds, which must be finite."""

    kind: str
    parse: Callable[[str, str], object]
    fmt: Callable[[object], str]
    reals: Callable[[object], tuple] = lambda value: ()


# The codec of each field type a key may have, alone or ``| None``.
_CODECS = {
    int: _Codec("int", _intval, _fmt),
    float: _Codec("float", _num, _fmt, lambda value: (value,)),
    str: _Codec("str", lambda text, key: text, _fmt),
    bool: _Codec("bool", _parse_bool, _fmt),
    tuple[float, float]: _Codec("vec2", _parse_vec2, lambda vec: ",".join(map(_fmt, vec)),
                                tuple),
    tuple[GaussianBump, ...]: _Codec("bumps", _parse_bumps, lambda bumps: "; ".join(
        ",".join(map(_fmt, astuple(b))) for b in bumps),
        lambda bumps: tuple(x for b in bumps for x in astuple(b))),
}


@dataclass(frozen=True)
class Key:
    """One config key: where its value lives, its codec and its range.

    Keys are not written by hand: :data:`KEYS` derives one from each field
    of the config dataclasses, with the codec the field's type names and the
    range from its ``_key`` spec. ``section`` is the dotted attribute path
    from :class:`ScenarioConfig` to the object holding the value (``""`` for
    top-level fields); the field is the last part of ``name``.
    ``gt``/``ge``/``le`` bound the value, and ``choices``, when set, is the
    collection it must be in; a live mapping such as
    :data:`~.inertial.SENSOR_GRADES` admits its keys as they are when the
    value is checked. ``none`` lists the words read as ``None``, the first
    being the one written; an unset value skips the checks.
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
        if not all(map(math.isfinite, self.codec.reals(value))):
            raise ConfigError(f"{self.name} must be finite, got {self.text(value)}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{self.name} must be one of {', '.join(self.choices)}, "
                              f"got {value!r}")
        for cmp, op, bound in ((operator.gt, ">", self.gt), (operator.ge, ">=", self.ge),
                               (operator.le, "<=", self.le)):
            if bound is not None and not cmp(value, bound):
                raise ConfigError(f"{self.name} must be {op} {bound}, got {_fmt(value)}")


def _bare(kind):
    """``kind`` without its ``| None``."""
    args = [arg for arg in get_args(kind) if arg is not NoneType]
    return args[0] if isinstance(kind, UnionType) and len(args) == 1 else kind


def _walk(cls, section: str = "", prefix: str = ""):
    """The keys of config dataclass ``cls``, in field order: a field whose
    type is a config dataclass is a section, walked in its place; any other
    field is a key, with the codec its type names and its ``_key`` spec."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        kind = _bare(hints[f.name])
        path = f"{section}.{f.name}".lstrip(".")
        if is_dataclass(kind):
            yield from _walk(kind, path, prefix if f.metadata.get("flat") else path + ".")
        elif kind in _CODECS:
            yield Key(prefix + f.name, section, _CODECS[kind], **f.metadata)
        else:
            raise TypeError(f"{cls.__name__}.{f.name}: no config codec for {hints[f.name]}")


# In field order, which is the serialization order.
KEYS: tuple[Key, ...] = tuple(_walk(ScenarioConfig))

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
