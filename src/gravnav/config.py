"""Scenario configuration: dataclasses, text-file parsing, canonical form.

The on-disk format is plain ``key = value`` lines with ``#`` comments; keys
mirror the configuration field names with dots for nesting (``pmht.T = 30``,
``gravimeter.sigma = 1e-5``). Vectors are comma-separated; the bump list uses
``cx,cy,amplitude,width`` quadruples separated by semicolons.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .fusion import FusionParams

__all__ = [
    "GaussianBump",
    "MapGenParams",
    "MapSource",
    "GravimeterParams",
    "PmhtParams",
    "InsParams",
    "InitParams",
    "MonteCarloParams",
    "DivergenceParams",
    "ScenarioConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_hash",
]


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
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.pmht.T < 2:
            raise ConfigError("pmht.T must be >= 2")
        if self.pmht.max_iters < 1:
            raise ConfigError("pmht.max_iters must be >= 1")
        if not self.pmht.gamma > 0:
            raise ConfigError("pmht.gamma must be positive")
        if self.pmht.n_max < 1:
            raise ConfigError("pmht.n_max must be >= 1")
        if self.fusion.window_len < 1:
            raise ConfigError("fusion.window_len must be >= 1")
        if self.monte_carlo.runs < 1:
            raise ConfigError("monte_carlo.runs must be >= 1")
        if self.gravimeter.interval <= 0:
            raise ConfigError("gravimeter.interval must be positive")
        if self.divergence.error_threshold_m <= 0 or self.divergence.sustain_s <= 0:
            raise ConfigError("divergence thresholds must be positive")
        if self.fusion.mode not in ("standard", "retrodiction"):
            raise ConfigError(f"unknown fusion.mode {self.fusion.mode!r}")
        if self.mean_error_window not in ("aided", "full"):
            raise ConfigError(f"unknown mean_error_window {self.mean_error_window!r}")


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
    if value != int(value):
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}")
    return int(value)


def parse_config_text(text: str) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from ``key = value`` lines."""
    cfg = ScenarioConfig()
    gen_touched = False

    def gen(cfg=cfg) -> MapGenParams:
        nonlocal gen_touched
        if cfg.map.gen is None:
            cfg.map.gen = MapGenParams()
        gen_touched = True
        return cfg.map.gen

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            _apply_key(cfg, gen, key, value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {line_no}: key {key!r}: {exc}") from exc
    if cfg.map.file is not None and gen_touched:
        raise ConfigError("config sets both map.file and synthetic map parameters")
    return cfg


def _apply_key(cfg: ScenarioConfig, gen, key: str, value: str) -> None:
    fus = cfg.fusion
    if key == "map.file":
        cfg.map.file = value
    elif key == "map.rows":
        gen().rows = _intval(value, key)
    elif key == "map.cols":
        gen().cols = _intval(value, key)
    elif key == "map.cell_size":
        gen().cell_size = _num(value, key)
    elif key == "map.origin_x":
        gen().origin_x = _num(value, key)
    elif key == "map.origin_y":
        gen().origin_y = _num(value, key)
    elif key == "map.background":
        gen().background = _num(value, key)
    elif key == "map.bumps":
        gen().bumps = _parse_bumps(value, key)
    elif key == "map.noise_scale":
        gen().noise_scale = _num(value, key)
    elif key == "map.noise_corr_cells":
        gen().noise_corr_cells = _num(value, key)
    elif key == "map.seed":
        gen().seed = _intval(value, key)
    elif key == "start":
        cfg.start = _parse_vec2(value, key)
    elif key == "velocity":
        cfg.velocity = _parse_vec2(value, key)
    elif key == "duration":
        cfg.duration = _num(value, key)
    elif key == "ins.accel_grade":
        cfg.ins.accel_grade = value
    elif key == "ins.gyro_grade":
        cfg.ins.gyro_grade = value
    elif key == "gravimeter.sigma":
        cfg.gravimeter.sigma = _num(value, key)
    elif key == "gravimeter.interval":
        cfg.gravimeter.interval = _num(value, key)
    elif key == "pmht.T":
        cfg.pmht.T = _intval(value, key)
    elif key == "pmht.max_iters":
        cfg.pmht.max_iters = _intval(value, key)
    elif key == "pmht.epsilon":
        cfg.pmht.epsilon = _num(value, key)
    elif key == "pmht.gamma":
        cfg.pmht.gamma = _num(value, key)
    elif key == "pmht.n_max":
        cfg.pmht.n_max = _intval(value, key)
    elif key == "pmht.q_a":
        cfg.pmht.q_a = _num(value, key)
    elif key == "pmht.k_sig":
        cfg.pmht.k_sig = _num(value, key)
    elif key == "pmht.grad_floor":
        cfg.pmht.grad_floor = _num(value, key)
    elif key == "pmht.spread_cov":
        cfg.pmht.spread_cov = _parse_bool(value, key)
    elif key == "fusion.mode":
        cfg.fusion = _replace(fus, mode=value)
    elif key == "fusion.variability_threshold":
        cfg.fusion = _replace(fus, variability_threshold=_num(value, key))
    elif key == "fusion.window_len":
        cfg.fusion = _replace(fus, window_len=_intval(value, key))
    elif key == "fusion.v_floor":
        cfg.fusion = _replace(fus, v_floor=_num(value, key))
    elif key == "fusion.nis_gate":
        gate = None if value.strip().lower() in ("none", "off") else _num(value, key)
        cfg.fusion = _replace(fus, nis_gate=gate)
    elif key == "fusion.alpha":
        cfg.fusion = _replace(fus, alpha=_num(value, key))
    elif key == "fusion.beta":
        cfg.fusion = _replace(fus, beta=_num(value, key))
    elif key == "fusion.kappa":
        cfg.fusion = _replace(fus, kappa=_num(value, key))
    elif key == "fusion.bias_psd":
        cfg.fusion = _replace(fus, bias_psd=_num(value, key))
    elif key == "fusion.q_accel":
        q = None if value.strip().lower() == "auto" else _num(value, key)
        cfg.fusion = _replace(fus, q_accel=q)
    elif key == "fusion.template_half_width":
        cfg.fusion = _replace(fus, template_half_width=_intval(value, key))
    elif key == "init.pos_sigma":
        cfg.init.pos_sigma = _num(value, key)
    elif key == "init.vel_sigma":
        cfg.init.vel_sigma = _num(value, key)
    elif key == "init.bias_sigma":
        cfg.init.bias_sigma = None if value.strip().lower() == "auto" else _num(value, key)
    elif key == "monte_carlo.runs":
        cfg.monte_carlo.runs = _intval(value, key)
    elif key == "monte_carlo.base_seed":
        cfg.monte_carlo.base_seed = _intval(value, key)
    elif key == "divergence.error_threshold_m":
        cfg.divergence.error_threshold_m = _num(value, key)
    elif key == "divergence.sustain_s":
        cfg.divergence.sustain_s = _num(value, key)
    elif key == "aiding":
        cfg.aiding = _parse_bool(value, key)
    elif key == "mean_error_window":
        cfg.mean_error_window = value
    elif key == "include_diverged":
        cfg.include_diverged = _parse_bool(value, key)
    else:
        raise ConfigError(f"unknown config key {key!r}")


def _replace(params: FusionParams, **kw) -> FusionParams:
    return replace(params, **kw)


def parse_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form of a configuration (stable key order)."""
    lines: list[str] = []

    def put(key, value):
        lines.append(f"{key} = {_fmt(value)}")

    if cfg.map.file is not None:
        put("map.file", cfg.map.file)
    if cfg.map.gen is not None:
        g = cfg.map.gen
        put("map.rows", g.rows)
        put("map.cols", g.cols)
        put("map.cell_size", g.cell_size)
        put("map.origin_x", g.origin_x)
        put("map.origin_y", g.origin_y)
        put("map.background", g.background)
        if g.bumps:
            bump_txt = "; ".join(
                f"{_fmt(b.cx)},{_fmt(b.cy)},{_fmt(b.amplitude)},{_fmt(b.width)}"
                for b in g.bumps)
            put("map.bumps", bump_txt)
        put("map.noise_scale", g.noise_scale)
        put("map.noise_corr_cells", g.noise_corr_cells)
        put("map.seed", g.seed)
    put("start", f"{_fmt(cfg.start[0])},{_fmt(cfg.start[1])}")
    put("velocity", f"{_fmt(cfg.velocity[0])},{_fmt(cfg.velocity[1])}")
    put("duration", cfg.duration)
    put("ins.accel_grade", cfg.ins.accel_grade)
    put("ins.gyro_grade", cfg.ins.gyro_grade)
    put("gravimeter.sigma", cfg.gravimeter.sigma)
    put("gravimeter.interval", cfg.gravimeter.interval)
    put("pmht.T", cfg.pmht.T)
    put("pmht.max_iters", cfg.pmht.max_iters)
    put("pmht.epsilon", cfg.pmht.epsilon)
    put("pmht.gamma", cfg.pmht.gamma)
    put("pmht.n_max", cfg.pmht.n_max)
    put("pmht.q_a", cfg.pmht.q_a)
    put("pmht.k_sig", cfg.pmht.k_sig)
    put("pmht.grad_floor", cfg.pmht.grad_floor)
    put("pmht.spread_cov", cfg.pmht.spread_cov)
    put("fusion.mode", cfg.fusion.mode)
    put("fusion.variability_threshold", cfg.fusion.variability_threshold)
    put("fusion.window_len", cfg.fusion.window_len)
    put("fusion.v_floor", cfg.fusion.v_floor)
    put("fusion.nis_gate", "none" if cfg.fusion.nis_gate is None else cfg.fusion.nis_gate)
    put("fusion.alpha", cfg.fusion.alpha)
    put("fusion.beta", cfg.fusion.beta)
    put("fusion.kappa", cfg.fusion.kappa)
    put("fusion.bias_psd", cfg.fusion.bias_psd)
    put("fusion.q_accel", "auto" if cfg.fusion.q_accel is None else cfg.fusion.q_accel)
    put("fusion.template_half_width", cfg.fusion.template_half_width)
    put("init.pos_sigma", cfg.init.pos_sigma)
    put("init.vel_sigma", cfg.init.vel_sigma)
    put("init.bias_sigma", "auto" if cfg.init.bias_sigma is None else cfg.init.bias_sigma)
    put("monte_carlo.runs", cfg.monte_carlo.runs)
    put("monte_carlo.base_seed", cfg.monte_carlo.base_seed)
    put("divergence.error_threshold_m", cfg.divergence.error_threshold_m)
    put("divergence.sustain_s", cfg.divergence.sustain_s)
    put("aiding", cfg.aiding)
    put("mean_error_window", cfg.mean_error_window)
    put("include_diverged", cfg.include_diverged)
    return "\n".join(lines) + "\n"


def config_hash(cfg: ScenarioConfig) -> str:
    """SHA-256 of the canonical config text."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
