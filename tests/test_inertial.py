import numpy as np
import pytest

from gravnav.errors import OutOfBoundsError
from gravnav.geomap import GridMap
from gravnav.inertial import (
    SENSOR_GRADES,
    SensorGrade,
    sample_gravimeter,
    simulate_ins,
    simulate_truth,
)


def tiny_grade(accel_bias=1e-30, accel_noise=1e-30, gyro_bias=1e-30, gyro_noise=1e-30):
    return SensorGrade(accel_bias=accel_bias, accel_noise_density=accel_noise,
                       gyro_bias=gyro_bias, gyro_noise_density=gyro_noise)


def constant_grid(value, rows=10, cols=10, cell=100.0):
    return GridMap(n_rows=rows, n_cols=cols, origin=np.zeros(2), cell_size=cell,
                   values=np.full((rows, cols), float(value)))


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
        ins = simulate_ins(traj, tiny_grade(), tiny_grade(), seed=1)
        assert np.abs(ins.positions - traj.positions).max() < 1e-9
        assert np.abs(ins.velocities - traj.velocities).max() < 1e-12

    def test_bias_only_statics_half_b_t_squared(self):
        bias = 2e-6
        traj = simulate_truth((0.0, 0.0), (0.0, 0.0), duration=3600.0, dt=1.0)
        ins = simulate_ins(traj, tiny_grade(accel_bias=bias), tiny_grade(), seed=3)
        err = np.linalg.norm(ins.positions - traj.positions, axis=1)
        times = traj.times
        expected = 0.5 * bias * times ** 2
        assert err[1:] == pytest.approx(expected[1:], rel=1e-9)
        # drift stays along one direction
        late = ins.positions[-1] - traj.positions[-1]
        mid = ins.positions[1800] - traj.positions[1800]
        cosang = (late @ mid) / (np.linalg.norm(late) * np.linalg.norm(mid))
        assert cosang == pytest.approx(1.0, abs=1e-9)

    def test_seeded_reproducibility(self):
        traj = simulate_truth((0.0, 0.0), (22.0, 0.0), duration=300.0, dt=1.0)
        pc = SENSOR_GRADES["PC-horizontal-accel"]
        pg = SENSOR_GRADES["PC-horizontal-gyro"]
        a = simulate_ins(traj, pc, pg, seed=42)
        b = simulate_ins(traj, pc, pg, seed=42)
        c = simulate_ins(traj, pc, pg, seed=43)
        assert (a.positions == b.positions).all()
        assert not (a.positions == c.positions).all()

    def test_noise_scaling_doubles_terminal_spread(self):
        traj = simulate_truth((0.0, 0.0), (0.0, 0.0), duration=600.0, dt=1.0)
        density = 8e-5

        def terminal_errors(scale, seed0):
            grade = tiny_grade(accel_noise=scale * density)
            errs = []
            for s in range(200):
                ins = simulate_ins(traj, grade, tiny_grade(), seed=seed0 + s)
                errs.append(np.linalg.norm(ins.positions[-1] - traj.positions[-1]))
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
            ins = simulate_ins(traj, pc, pg, seed=seed)
            err = np.linalg.norm(ins.positions - traj.positions, axis=1)
            checkpoints = err[-3601::600]
            if (np.diff(checkpoints) > 0).all():
                grew += 1
            terminal.append(err[-1])
        assert grew >= 95
        assert np.mean(terminal) > 200.0


class TestSampleGravimeter:
    def test_noiseless_samples_equal_map(self):
        grid = constant_grid(9.79)
        traj = simulate_truth((50.0, 50.0), (10.0, 0.0), duration=80.0, dt=1.0)
        meas = sample_gravimeter(grid, traj, interval=10.0, sigma=0.0, seed=0)
        assert len(meas) == 8
        assert all(m.value == 9.79 for m in meas)
        assert all(m.sigma > 0 for m in meas)

    def test_sampling_times(self):
        grid = constant_grid(1.0)
        traj = simulate_truth((50.0, 50.0), (0.0, 0.0), duration=100.0, dt=1.0)
        meas = sample_gravimeter(grid, traj, interval=20.0, sigma=0.0, seed=0)
        assert [m.time for m in meas] == [20.0, 40.0, 60.0, 80.0, 100.0]

    def test_clt_mean_bound(self):
        c, sigma = 9.79, 1e-4
        grid = constant_grid(c)
        traj = simulate_truth((500.0, 500.0), (0.0, 0.0), duration=1e4, dt=1.0)
        meas = sample_gravimeter(grid, traj, interval=1.0, sigma=sigma, seed=7)
        assert len(meas) == 10_000
        mean = np.mean([m.value for m in meas])
        assert abs(mean - c) < 4.0 * sigma / 100.0

    def test_snr_at_reference_noise_level(self):
        grid = constant_grid(9.79)
        traj = simulate_truth((500.0, 500.0), (0.0, 0.0), duration=100.0, dt=1.0)
        meas = sample_gravimeter(grid, traj, interval=10.0, sigma=1e-5, seed=0)
        snr_db = 20.0 * np.log10(abs(meas[0].value) / meas[0].sigma)
        assert snr_db == pytest.approx(120.0, abs=1.0)

    def test_off_map_error_names_time(self):
        grid = constant_grid(1.0, rows=5, cols=5, cell=10.0)
        traj = simulate_truth((5.0, 25.0), (10.0, 0.0), duration=20.0, dt=1.0)
        with pytest.raises(OutOfBoundsError) as exc:
            sample_gravimeter(grid, traj, interval=10.0, sigma=0.0, seed=0)
        assert "t=" in str(exc.value)
        assert "np.float64" not in str(exc.value)

    def test_interval_must_divide_dt(self):
        grid = constant_grid(1.0)
        traj = simulate_truth((50.0, 50.0), (0.0, 0.0), duration=10.0, dt=1.0)
        with pytest.raises(ValueError):
            sample_gravimeter(grid, traj, interval=2.5, sigma=0.0, seed=0)
