"""Direct tests of the Dormand-Prince 5(4) integrator in ``bfmix.odeint``."""
import numpy as np
import pytest

from bfmix.odeint import SingularityEncounteredError, integrate

#: stage abscissae of the Dormand-Prince pair after the first stage
STAGE_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


class TestAccuracy:
    @pytest.mark.parametrize("t0, t1", [(0.2 + 0.1j, 1.5 - 0.7j),
                                        (0.3j, 2 - 1j), (0.1, 1.0)])
    def test_linear_against_exp(self, t0, t1):
        lam = -0.3 + 1.1j
        y0 = np.array([1 + 0.5j, -2j])
        y, _ = integrate(lambda t, y: lam * y, t0, y0, t1,
                         rtol=1e-11, atol=1e-13)
        exact = y0 * np.exp(lam * (t1 - t0))
        assert np.max(np.abs(y - exact)) < 1e-9 * np.max(np.abs(exact))

    def test_time_dependent_rhs_sees_segment_times(self):
        # y' = 2 t y, y = exp(t^2 - t0^2) along a complex segment
        t0, t1 = 0.1 - 0.2j, 0.9 + 0.6j
        y, _ = integrate(lambda t, y: 2 * t * y, t0, [1.0], t1,
                         rtol=1e-11, atol=1e-13)
        assert abs(y[0] - np.exp(t1 ** 2 - t0 ** 2)) < 1e-9


class TestShapes:
    def test_two_dimensional_state_matches_rows(self):
        lams = np.array([[-0.5 + 1j], [0.25 - 2j], [1.5j]])

        def f(t, y):
            return lams * y * (1 + 0.1 * y)

        y0 = np.array([[1.0, 0.5j], [-0.3, 0.2 + 0.1j], [0.7j, 1.0]])
        y, _ = integrate(f, 0.0, y0, 1.0 + 0.5j, rtol=1e-12, atol=1e-14)
        assert y.shape == y0.shape
        for i in range(len(y0)):
            def row(t, v, lam=lams[i]):
                return lam * v * (1 + 0.1 * v)
            yi, _ = integrate(row, 0.0, y0[i], 1.0 + 0.5j,
                              rtol=1e-12, atol=1e-14)
            assert np.max(np.abs(y[i] - yi)) < 1e-9

    def test_record_runs_from_t0_to_exactly_t1(self):
        for t0, t1 in [(0.2, 1.2), (0.2 + 0.1j, 1.5 - 0.7j), (0.3j, 2 - 1j)]:
            y, traj = integrate(lambda t, y: -y, t0, [1.0, 2.0], t1,
                                record=True)
            assert traj.times[0] == t0
            assert traj.times[-1] == t1
            assert len(traj.times) == len(traj.states) > 2
            assert np.array_equal(traj.states[-1], y)
            assert traj.states[-1] is not y

    def test_no_record_leaves_trajectory_empty(self):
        _, traj = integrate(lambda t, y: -y, 0.0, [1.0], 1.0)
        assert traj.times == [] and traj.states == []

    def test_zero_length_segment_returns_copy(self):
        y0 = np.array([1.0 + 2j, 3.0])
        y, traj = integrate(lambda t, y: y, 0.5j, y0, 0.5j, record=True)
        assert np.array_equal(y, y0)
        assert y is not y0
        y[0] = 0
        assert y0[0] == 1.0 + 2j
        assert traj.times == [0.5j]


class TestFailures:
    def test_blow_up_raises_singularity(self):
        # y' = y^2, y(0) = 1 has y = 1/(1 - t)
        with pytest.raises(SingularityEncounteredError,
                           match="step-size underflow") as info:
            integrate(lambda t, y: y * y, 0.0, [1.0], 1.5,
                      rtol=1e-6, atol=1e-8)
        assert abs(info.value.t_estimate - 1.0) < 1e-5


class TestStepCount:
    def _counted(self, rhs, t0, y0, t1, **kw):
        times = []

        def f(t, y):
            times.append(t)
            return rhs(t, y)
        _, traj = integrate(f, t0, y0, t1, record=True, **kw)
        return times, traj

    def test_fsal_calls_per_attempted_step(self):
        # the first step, length/100, is far too long for this oscillation,
        # so steps are rejected as well as accepted
        times, traj = self._counted(lambda t, y: 60j * y, 0.0, [1.0], 1.0,
                                    rtol=1e-10, atol=1e-12)
        assert times[0] == 0.0
        assert (len(times) - 1) % 6 == 0
        attempts = (len(times) - 1) // 6
        accepted = len(traj.times) - 1
        assert attempts > accepted
        starts = set()
        for k in range(attempts):
            stage = times[1 + 6 * k:7 + 6 * k]
            h = (stage[5] - stage[0]) / (1 - STAGE_C[0])
            t = stage[0] - STAGE_C[0] * h
            for c, ti in zip(STAGE_C, stage):
                assert abs(ti - (t + c * h)) < 1e-12
            starts.add(round(t.real, 9))
        # every attempt starts at an accepted node: its first stage is reused
        assert starts <= {round(complex(t).real, 9) for t in traj.times}

    def test_constant_field_accepts_every_step(self):
        # zero error estimate: each step grows fivefold from length/100
        times, traj = self._counted(lambda t, y: np.ones_like(y), 0.0,
                                    [0.0], 1.0)
        assert len(traj.times) == 5
        assert len(times) == 1 + 6 * 4
        assert abs(traj.states[-1][0] - 1.0) < 1e-14
