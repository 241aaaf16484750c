"""Ground truth, drifting planar dead reckoning, and the gravimeter's noise.

The dead-reckoning model is deliberately planar: position and velocity in a
local East-North frame, a constant accelerometer bias, accelerometer white
noise, and gyro errors entering through two small tilt angles that leak
gravity into the horizontal channels (plus a yaw error that misresolves the
true acceleration). This reproduces the qualitative growth of inertial
drift - quadratic in accelerometer bias, cubic in gyro bias - without a full
strapdown mechanization. The vertical channel is not simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SensorGrade",
    "Trajectory",
    "SENSOR_GRADES",
    "GRAVITY",
    "simulate_truth",
    "simulate_ins",
    "sample_gravimeter",
]

GRAVITY = 9.80665  # m/s^2, standard gravity used for tilt leakage

_DEG_PER_HOUR = math.pi / 180.0 / 3600.0  # deg/h -> rad/s


@dataclass(frozen=True)
class SensorGrade:
    """Bias and white-noise magnitudes for one inertial sensor suite.

    A grade carries both accelerometer fields (m/s^2, m/s^2/sqrt(Hz)) and
    gyroscope fields (deg/h, deg/h/sqrt(Hz)); consumers read whichever pair
    matches the role the grade is passed in. Each preset's key in
    :data:`SENSOR_GRADES` names the sensor type whose fields it defines; the
    complementary pair is filled from the matching preset of the same grade
    family.
    """

    accel_bias: float
    accel_noise_density: float
    gyro_bias: float
    gyro_noise_density: float

    def __post_init__(self):
        for name in ("accel_bias", "accel_noise_density", "gyro_bias", "gyro_noise_density"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def _grade(ab, an, gb, gn) -> SensorGrade:
    return SensorGrade(accel_bias=ab, accel_noise_density=an,
                       gyro_bias=gb, gyro_noise_density=gn)


SENSOR_GRADES: dict[str, SensorGrade] = {
    "PC-horizontal-accel": _grade(2e-6, 8e-5, 2e-5, 1e-3),
    "PC-horizontal-gyro": _grade(2e-6, 8e-5, 2e-5, 1e-3),
    "QS-accel": _grade(1e-8, 3e-8, 1e-5, 1.2e-4),
    "QS-gyro": _grade(1e-8, 3e-8, 1e-5, 1.2e-4),
}


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled planar path."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "velocities", np.asarray(self.velocities, dtype=float))
        if len(self.times) < 2:
            raise ValueError("trajectory needs at least 2 samples")
        steps = np.diff(self.times)
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
            raise ValueError("trajectory time spacing must be uniform")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return len(self.times)


def simulate_truth(start, velocity, duration: float, dt: float = 1.0) -> Trajectory:
    """Constant-velocity ground truth sampled at ``dt``."""
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    n = int(round(duration / dt)) + 1
    times = np.arange(n) * dt
    positions = start[None, :] + times[:, None] * velocity[None, :]
    velocities = np.tile(velocity, (n, 1))
    return Trajectory(times=times, positions=positions, velocities=velocities)


def simulate_ins(
    truth: Trajectory,
    grade_accel: SensorGrade,
    grade_gyro: SensorGrade,
    seed: int,
) -> Trajectory:
    """Dead-reckoned path indicated by an error-corrupted sensor suite.

    Bias directions and all noise draws are deterministic in ``seed``. With
    error-free sensors the indicated path equals the truth to machine
    precision.
    """
    rng = np.random.default_rng(seed)
    n = len(truth)
    dt = truth.dt
    a_true = np.diff(truth.velocities, axis=0) / dt

    theta = rng.uniform(0.0, 2.0 * math.pi)
    bias_a = grade_accel.accel_bias * np.array([math.cos(theta), math.sin(theta)])
    sig_a = grade_accel.accel_noise_density * math.sqrt(1.0 / dt)
    noise_a = rng.standard_normal((n - 1, 2)) * sig_a

    gyro_bias = grade_gyro.gyro_bias * _DEG_PER_HOUR
    sig_g = grade_gyro.gyro_noise_density * _DEG_PER_HOUR * math.sqrt(1.0 / dt)
    tilt_bias = gyro_bias * rng.choice([-1.0, 1.0], size=2)
    yaw_bias = gyro_bias * rng.choice([-1.0, 1.0])
    tilt_noise = rng.standard_normal((n - 1, 2)) * sig_g
    yaw_noise = rng.standard_normal(n - 1) * sig_g

    tilt = np.cumsum((tilt_bias[None, :] + tilt_noise) * dt, axis=0)
    yaw = np.cumsum((yaw_bias + yaw_noise) * dt)
    cy, sy = np.cos(yaw), np.sin(yaw)
    a_rot = np.column_stack([cy * a_true[:, 0] - sy * a_true[:, 1],
                             sy * a_true[:, 0] + cy * a_true[:, 1]])
    a_ind = a_rot + GRAVITY * np.sin(tilt) + bias_a[None, :] + noise_a

    velocities = np.empty((n, 2))
    velocities[0] = truth.velocities[0]
    velocities[1:] = truth.velocities[0] + np.cumsum(a_ind * dt, axis=0)
    positions = np.empty((n, 2))
    positions[0] = truth.positions[0]
    increments = velocities[:-1] * dt + 0.5 * a_ind * dt * dt
    positions[1:] = truth.positions[0] + np.cumsum(increments, axis=0)
    return Trajectory(times=truth.times.copy(), positions=positions,
                      velocities=velocities)


def sample_gravimeter(field, sigma: float, seed: int) -> np.ndarray:
    """Gravimeter readings of the true ``field`` values along a route.

    Each reading is its field value plus zero-mean Gaussian noise of
    standard deviation ``sigma``, drawn in order from the stream of
    ``seed``. A zero ``sigma`` adds no noise.
    """
    field = np.asarray(field, dtype=float)
    return field + np.random.default_rng(seed).standard_normal(field.shape) * sigma
