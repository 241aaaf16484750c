import math

import numpy as np
import pytest

from gravnav.inertial import (
    GRAVITY,
    SENSOR_GRADES,
    SensorGrade,
    Trajectory,
    sample_gravimeter,
    simulate_ins,
    simulate_truth,
)
from oracles import dead_reckon


def tiny_grade(accel_bias=1e-30, accel_noise=1e-30, gyro_bias=1e-30, gyro_noise=1e-30):
    return SensorGrade(accel_bias=accel_bias, accel_noise_density=accel_noise,
                       gyro_bias=gyro_bias, gyro_noise_density=gyro_noise)


class TestGradePresets:
    def test_pc_horizontal_accel_row(self):
        g = SENSOR_GRADES["PC-horizontal-accel"]
        assert g.accel_bias == 2e-6
        assert g.accel_noise_density == 8e-5

    def test_pc_horizontal_gyro_row(self):
        g = SENSOR_GRADES["PC-horizontal-gyro"]
        assert g.gyro_bias == 2e-5
        assert g.gyro_noise_density == 1e-3

    def test_quantum_rows(self):
        qa = SENSOR_GRADES["QS-accel"]
        assert qa.accel_bias == 1e-8
        assert qa.accel_noise_density == 3e-8
        qg = SENSOR_GRADES["QS-gyro"]
        assert qg.gyro_bias == 1e-5
        assert qg.gyro_noise_density == 1.2e-4

    def test_all_magnitudes_positive(self):
        for grade in SENSOR_GRADES.values():
            assert grade.accel_bias > 0
            assert grade.accel_noise_density > 0
            assert grade.gyro_bias > 0
            assert grade.gyro_noise_density > 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SensorGrade(accel_bias=0.0, accel_noise_density=1.0, gyro_bias=1.0,
                        gyro_noise_density=1.0)


class TestSimulateTruth:
    def test_constant_velocity_endpoint(self):
        traj = simulate_truth((0.0, 0.0), (22.0, 0.0), duration=10.0, dt=1.0)
        assert traj.positions[-1] == pytest.approx([220.0, 0.0])
        assert len(traj) == 11

    def test_zero_velocity(self):
        traj = simulate_truth((5.0, -3.0), (0.0, 0.0), duration=20.0, dt=2.0)
        assert (traj.positions == traj.positions[0]).all()

    def test_path_length_long_leg(self):
        duration = 3.6 * 3600.0
        traj = simulate_truth((0.0, 0.0), (22.0, 0.0), duration=duration, dt=1.0)
        length = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1).sum()
        assert length == pytest.approx(285120.0, rel=1e-12)


class TestSimulateIns:
    def test_error_free_sensors_reproduce_truth(self):
        traj = simulate_truth((0.0, 0.0), (22.0, 5.0), duration=600.0, dt=1.0)
        accels = simulate_ins(traj, tiny_grade(), tiny_grade(), seed=1)
        positions, velocities = dead_reckon(traj, accels)
        assert np.abs(positions - traj.positions).max() < 1e-9
        assert np.abs(velocities - traj.velocities).max() < 1e-12

    def test_bias_only_statics_half_b_t_squared(self):
        bias = 2e-6
        traj = simulate_truth((0.0, 0.0), (0.0, 0.0), duration=3600.0, dt=1.0)
        accels = simulate_ins(traj, tiny_grade(accel_bias=bias), tiny_grade(), seed=3)
        positions, _ = dead_reckon(traj, accels)
        err = np.linalg.norm(positions - traj.positions, axis=1)
        times = traj.times
        expected = 0.5 * bias * times ** 2
        assert err[1:] == pytest.approx(expected[1:], rel=1e-9)
        # drift stays along one direction
        late = positions[-1] - traj.positions[-1]
        mid = positions[1800] - traj.positions[1800]
        cosang = (late @ mid) / (np.linalg.norm(late) * np.linalg.norm(mid))
        assert cosang == pytest.approx(1.0, abs=1e-9)

    def test_seeded_reproducibility(self):
        traj = simulate_truth((0.0, 0.0), (22.0, 0.0), duration=300.0, dt=1.0)
        pc = SENSOR_GRADES["PC-horizontal-accel"]
        pg = SENSOR_GRADES["PC-horizontal-gyro"]
        a = simulate_ins(traj, pc, pg, seed=42)
        b = simulate_ins(traj, pc, pg, seed=42)
        c = simulate_ins(traj, pc, pg, seed=43)
        assert (a == b).all()
        assert not (a == c).all()

    def test_noise_scaling_doubles_terminal_spread(self):
        traj = simulate_truth((0.0, 0.0), (0.0, 0.0), duration=600.0, dt=1.0)
        density = 8e-5

        def terminal_errors(scale, seed0):
            grade = tiny_grade(accel_noise=scale * density)
            errs = []
            for s in range(200):
                accels = simulate_ins(traj, grade, tiny_grade(), seed=seed0 + s)
                positions, _ = dead_reckon(traj, accels)
                errs.append(np.linalg.norm(positions[-1] - traj.positions[-1]))
            return np.std(errs)

        ratio = terminal_errors(2.0, 10_000) / terminal_errors(1.0, 10_000)
        assert 1.6 <= ratio <= 2.4

    def test_pcag_drift_growth_shape(self):
        # growth over the final hour of a 3.6 h leg, checked at 600 s stride
        duration = 3.6 * 3600.0
        traj = simulate_truth((0.0, 0.0), (0.0, 0.0), duration=duration, dt=1.0)
        pc = SENSOR_GRADES["PC-horizontal-accel"]
        pg = SENSOR_GRADES["PC-horizontal-gyro"]
        grew = 0
        terminal = []
        for seed in range(100):
            positions, _ = dead_reckon(traj, simulate_ins(traj, pc, pg, seed=seed))
            err = np.linalg.norm(positions - traj.positions, axis=1)
            checkpoints = err[-3601::600]
            if (np.diff(checkpoints) > 0).all():
                grew += 1
            terminal.append(err[-1])
        assert grew >= 95
        assert np.mean(terminal) > 200.0


class TestGyroBias:
    """A gyro bias alone: tilt leaks gravity, yaw misresolves the true
    acceleration, each angle growing as b * k * dt with one sign per axis."""

    BIAS = 100.0  # deg/h

    def angles(self, n):
        return self.BIAS * math.pi / 180.0 / 3600.0 * np.arange(1, n)

    def test_standing_tilt_leaks_g_sin_angle(self):
        traj = simulate_truth((0.0, 0.0), (0.0, 0.0), duration=600.0, dt=1.0)
        accels = simulate_ins(traj, tiny_grade(), tiny_grade(gyro_bias=self.BIAS), seed=4)
        leak = GRAVITY * np.sin(self.angles(len(traj)))
        signs = np.sign(accels[0])
        assert np.abs(accels - signs * leak[:, None]).max() < 1e-12

    def test_yaw_rotates_the_true_acceleration(self):
        # The same seed over a constant-velocity truth draws the same errors
        # and has no true acceleration to rotate: the difference is a_rot.
        n, accel = 601, np.array([0.3, -0.2])
        times = np.arange(n) * 1.0
        velocities = np.array([22.0, 5.0]) + times[:, None] * accel
        turning = Trajectory(times=times, positions=np.zeros((n, 2)), velocities=velocities)
        steady = simulate_truth((0.0, 0.0), (22.0, 5.0), duration=600.0, dt=1.0)
        grade = tiny_grade(gyro_bias=self.BIAS)
        signs = set()
        for seed in (6, 8):  # one yaw bias of each sign
            rotated = (simulate_ins(turning, tiny_grade(), grade, seed=seed)
                       - simulate_ins(steady, tiny_grade(), grade, seed=seed))
            angle = np.arctan2(rotated[:, 1], rotated[:, 0]) - math.atan2(accel[1], accel[0])
            sign = np.sign(angle[-1])
            signs.add(sign)
            assert np.abs(angle - sign * self.angles(n)).max() < 5e-12
            assert np.abs(np.linalg.norm(rotated, axis=1) - np.linalg.norm(accel)).max() < 1e-12
        assert signs == {-1.0, 1.0}


class TestSampleGravimeter:
    def test_noiseless_samples_equal_map(self):
        field = np.array([9.79, 9.81, 0.0, 1e-300])
        assert sample_gravimeter(field, sigma=0.0, seed=0).tobytes() == field.tobytes()

    def test_clt_mean_bound(self):
        c, sigma = 9.79, 1e-4
        readings = sample_gravimeter(np.full(10_000, c), sigma=sigma, seed=7)
        assert readings.shape == (10_000,)
        assert abs(np.mean(readings) - c) < 4.0 * sigma / 100.0

    def test_snr_at_reference_noise_level(self):
        sigma = 1e-5
        readings = sample_gravimeter(np.full(10, 9.79), sigma=sigma, seed=0)
        snr_db = 20.0 * np.log10(abs(readings[0]) / sigma)
        assert snr_db == pytest.approx(120.0, abs=1.0)

    def test_seed_repeats_its_draws(self):
        field = np.linspace(9.7, 9.9, 50)
        first = sample_gravimeter(field, sigma=1e-3, seed=11)
        assert sample_gravimeter(field, sigma=1e-3, seed=11).tobytes() == first.tobytes()
        assert not np.array_equal(sample_gravimeter(field, sigma=1e-3, seed=12), first)
        # in order: a prefix of the route reads the prefix of the draws
        assert sample_gravimeter(field[:20], sigma=1e-3, seed=11).tobytes() == first[:20].tobytes()
