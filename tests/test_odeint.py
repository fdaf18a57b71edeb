"""Direct tests of the DOP853 integrator in ``bfmix.odeint``: its accuracy,
its contract on state shapes and failures, its 12 right-hand-side calls per
accepted step and 11 per rejected one, its tableau's order conditions, and
step-for-step agreement with the numpy form of the same stepper in
``helpers_odeint``."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bfmix import odeint
from bfmix.odeint import SingularityEncounteredError, integrate
import helpers_odeint
from helpers_odeint import integrate_reference

#: abscissae of the 11 stages of a step after its first, the reused one;
#: an accepted step then calls the right-hand side at its new point
STAGE_C = tuple(helpers_odeint.C[1:12])

_spec = importlib.util.spec_from_file_location(
    "odeint_golden",
    Path(__file__).resolve().parent.parent / "scripts" / "odeint_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


class TestAccuracy:
    @pytest.mark.parametrize("t0, t1", [(0.2 + 0.1j, 1.5 - 0.7j),
                                        (0.3j, 2 - 1j), (0.1, 1.0)])
    def test_linear_against_exp(self, t0, t1):
        lam = -0.3 + 1.1j
        y0 = np.array([1 + 0.5j, -2j])
        y, _ = integrate(lambda t, y: lam * np.asarray(y), t0, y0, t1,
                         rtol=1e-11, atol=1e-13)
        exact = y0 * np.exp(lam * (t1 - t0))
        assert np.max(np.abs(y - exact)) < 1e-9 * np.max(np.abs(exact))

    def test_time_dependent_rhs_sees_segment_times(self):
        # y' = 2 t y, y = exp(t^2 - t0^2) along a complex segment
        t0, t1 = 0.1 - 0.2j, 0.9 + 0.6j
        y, _ = integrate(lambda t, y: 2 * t * np.asarray(y), t0, [1.0], t1,
                         rtol=1e-11, atol=1e-13)
        assert abs(y[0] - np.exp(t1 ** 2 - t0 ** 2)) < 1e-9


class TestShapes:
    def test_two_dimensional_state_matches_rows(self):
        lams = np.array([[-0.5 + 1j], [0.25 - 2j], [1.5j]])

        def f(t, flat):
            y = np.array(flat).reshape(len(lams), -1)
            return (lams * y * (1 + 0.1 * y)).ravel().tolist()

        y0 = np.array([[1.0, 0.5j], [-0.3, 0.2 + 0.1j], [0.7j, 1.0]])
        y = np.array(integrate(f, 0.0, y0.ravel(), 1.0 + 0.5j, rtol=1e-12,
                               atol=1e-14)[0]).reshape(y0.shape)
        assert y.shape == y0.shape
        for i in range(len(y0)):
            def row(t, v, lam=lams[i]):
                v = np.asarray(v)
                return lam * v * (1 + 0.1 * v)
            yi, _ = integrate(row, 0.0, y0[i], 1.0 + 0.5j,
                              rtol=1e-12, atol=1e-14)
            assert np.max(np.abs(y[i] - yi)) < 1e-9

    def test_record_runs_from_t0_to_exactly_t1(self):
        for t0, t1 in [(0.2, 1.2), (0.2 + 0.1j, 1.5 - 0.7j), (0.3j, 2 - 1j)]:
            y, traj = integrate(lambda t, y: -np.asarray(y), t0, [1.0, 2.0],
                                t1)
            assert traj.times[0] == t0
            assert traj.times[-1] == t1
            assert len(traj.times) == len(traj.states) > 2
            assert np.array_equal(traj.states[-1], y)
            assert traj.states[-1] is not y

    def test_zero_length_segment_returns_copy(self):
        y0 = np.array([1.0 + 2j, 3.0])
        y, traj = integrate(lambda t, y: y, 0.5j, y0, 0.5j)
        assert np.array_equal(y, y0)
        assert y is not y0
        y[0] = 0
        assert y0[0] == 1.0 + 2j
        assert traj.times == [0.5j]

    def test_states_are_lists_of_complex(self):
        y, traj = integrate(lambda t, y: [-v for v in y], 0.0, [1, 2.0],
                            1.0)
        for state in (y, *traj.states):
            assert type(state) is list
            assert [type(v) for v in state] == [complex, complex]
        assert traj.states[0] == [1, 2]

    def test_empty_state(self):
        # no components: the error estimate is zero, so every step is
        # accepted and grows fivefold from length/100
        calls = []
        y, traj = integrate(lambda t, y: calls.append(t) or [], 0.0, [],
                            1.0 + 1j)
        assert y == []
        assert traj.times[-1] == 1.0 + 1j and len(traj.times) == 5
        assert len(calls) == 1 + 12 * 4


class TestFailures:
    @pytest.mark.parametrize("tols", [
        pytest.param({}, id="default"),
        pytest.param({"rtol": 1e-6, "atol": 1e-8}, id="rtol1e-6")])
    def test_blow_up_raises_singularity(self, tols):
        # y' = y^2, y(0) = 1 has y = 1/(1 - t); the step underflows near the
        # pole before the state overflows (an overflow RuntimeWarning would
        # fail the test under the suite's warning filter)
        calls = []

        def f(t, y):
            calls.append(t)
            y = np.asarray(y)
            return y * y
        with pytest.raises(SingularityEncounteredError,
                           match="step-size underflow") as info:
            integrate(f, 0.0, [1.0], 1.5, **tols)
        assert abs(info.value.t_estimate - 1.0) < 1e-5
        assert len(calls) < 10 ** 4

    @pytest.mark.parametrize("f, y0, t1, message", [
        # the state passes the float range in an accepted step
        pytest.param(lambda t, y: [1e308 + 0j for _ in y], [0j], 3.0,
                     "state overflow", id="constant"),
        # |y5| overflows while both of its parts are finite
        pytest.param(lambda t, y: [1e308 + 1e308j for _ in y],
                     [1e308 + 1e308j], 1.0, "step-size underflow",
                     id="modulus"),
        # the stages reach inf and nan through complex products
        pytest.param(lambda t, y: [1e300 * v * v * v for v in y], [1.0, 1j],
                     1.0, "step-size underflow", id="cube")])
    def test_overflowing_field_raises_singularity(self, f, y0, t1, message):
        with pytest.raises(SingularityEncounteredError, match=message):
            integrate(f, 0.0, y0, t1)

    def test_infinite_estimate_rejects_the_step(self):
        # at atol = 1, rtol = 0 the squared third-order estimates of
        # y' = 1e166 t^3 pass the float range while the fifth-order ones,
        # round-off of a cubic, stay finite; read as err = 0 every step
        # would pass, where y' = 1e162 t^3 underflows with finite sums
        for big in (1e162, 1e166):
            with pytest.raises(SingularityEncounteredError,
                               match="step-size underflow"):
                integrate(lambda t, y: [big * t ** 3], 0.0, [0j], 1.0,
                          rtol=0.0, atol=1.0)

    def test_zero_scale_rejects_the_step(self):
        # atol = 0 at a component that stays 0: the estimate cannot be
        # scaled, so every step is rejected until the step size underflows
        with pytest.raises(SingularityEncounteredError,
                           match="step-size underflow"):
            integrate(lambda t, y: [0j, y[1]], 0.0, [0j, 1.0], 1.0, atol=0.0)

    def test_non_finite_start_raises_singularity(self):
        with pytest.raises(SingularityEncounteredError,
                           match="state overflow") as info:
            integrate(lambda t, y: y, 0.5, [1.0, complex("nan")], 1.0)
        assert info.value.t_estimate == 0.5

    def test_two_dimensional_state_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            integrate(lambda t, y: y, 0.0, np.ones((2, 2)), 1.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            integrate(lambda t, y: y, 0.0, [[1.0, 2.0], [3.0, 4.0]], 1.0)


class TestStepCount:
    def _counted(self, rhs, t0, y0, t1, **kw):
        times = []

        def f(t, y):
            times.append(t)
            return rhs(t, y)
        _, traj = integrate(f, t0, y0, t1, **kw)
        return times, traj

    def test_fsal_calls_per_attempted_step(self):
        # the first step, length/100, is far too long for this oscillation,
        # so steps are rejected as well as accepted
        times, traj = self._counted(lambda t, y: 60j * np.asarray(y), 0.0,
                                    [1.0], 1.0, rtol=1e-10, atol=1e-12)
        assert times[0] == 0.0
        starts, accepted, rejected = set(), 0, 0
        i = 1
        while i < len(times):
            stage = times[i:i + 11]
            assert len(stage) == 11
            h = (stage[10] - stage[0]) / (1 - STAGE_C[0])
            t = stage[0] - STAGE_C[0] * h
            for c, ti in zip(STAGE_C, stage):
                assert abs(ti - (t + c * h)) < 1e-12
            starts.add(round(t.real, 9))
            i += 11
            # an accepted step calls the right-hand side once more, at the
            # new point t + h, where its last stage was evaluated
            if i < len(times) and times[i] == stage[10]:
                accepted += 1
                i += 1
            else:
                rejected += 1
        assert accepted == len(traj.times) - 1
        assert rejected > 0
        assert len(times) == 1 + 12 * accepted + 11 * rejected
        # every attempt starts at an accepted node: its first stage is reused
        assert starts <= {round(complex(t).real, 9) for t in traj.times}

    def test_constant_field_accepts_every_step(self):
        # zero error estimate: each step grows fivefold from length/100
        times, traj = self._counted(lambda t, y: np.ones_like(y), 0.0,
                                    [0.0], 1.0)
        assert len(traj.times) == 5
        assert len(times) == 1 + 12 * 4
        assert abs(traj.states[-1][0] - 1.0) < 1e-14


class TestTableau:
    """Order conditions of the DOP853 tableau, on the constants the stepper
    reads, gathered into matrices by ``helpers_odeint``."""

    def test_row_sums_are_abscissae(self):
        # the last row holds the eighth-order weights, for the new point
        assert np.max(np.abs(helpers_odeint.A.sum(axis=1)
                             - helpers_odeint.C)) < 1e-14

    @pytest.mark.parametrize("k", range(1, 9))
    def test_weights_integrate_powers_exactly(self, k):
        # sum_i b_i c_i^(k-1) = 1/k through k = 8: eighth-order quadrature
        c = helpers_odeint.C[:12]
        assert abs(helpers_odeint.B @ c ** (k - 1) - 1 / k) < 1e-14

    def test_generated_stages_read_the_nonzero_pattern(self):
        # the rows of the step kernel that odeint generates, against the
        # nonzero entries of the reference's matrices
        def stages(row):
            return (np.flatnonzero(row) + 1).tolist()
        for i in range(2, odeint.STAGES + 1):
            assert odeint._row(f"A{i}", i) == stages(helpers_odeint.A[i - 1])
        assert odeint._row("B") == stages(helpers_odeint.B)
        assert odeint._row("ER") == stages(helpers_odeint.E5)
        assert odeint._row("BHH") == stages(helpers_odeint.B
                                            - helpers_odeint.E3)

    def test_error_weights_sum_to_zero(self):
        # each estimate is a difference of two consistent solutions
        assert abs(helpers_odeint.E5.sum()) < 1e-14
        assert abs(helpers_odeint.E3.sum()) < 1e-14


#: relative agreement of the node times with the reference.  Both steppers
#: make the same number of steps, but the error estimate of a short step is
#: a difference of stage values that cancels to round-off, so the order of
#: summation moves its leading digits, and each step length moves by an
#: eighth of that; 2.85e-5 is the largest seen over the 404 integrations of
#: the 202 seed-11 ode-crosscheck points (the references and 200 cycles).
#: It moves with the fields' rounding: 2.88e-5 before the orbit and Heun
#: fields folded their constants, 5.4e-5 with the Heun field's 1/x divided
NODE_RTOL = 1e-4


class TestAgainstReference:
    """``integrate`` against the numpy stepper of ``helpers_odeint``."""

    def _compare(self, f, t0, y0, t1, **kw):
        calls, ref_calls = [], []

        def counted(t, y):
            calls.append(t)
            return f(t, y)

        def ref_counted(t, y):
            ref_calls.append(t)
            return np.asarray(f(t, y.tolist()), dtype=complex)
        y, traj = integrate(counted, t0, y0, t1, **kw)
        y_ref, traj_ref = integrate_reference(ref_counted, t0, y0, t1, **kw)
        assert len(calls) == len(ref_calls)
        assert len(traj.times) == len(traj_ref.times)
        for t, t_ref in zip(traj.times, traj_ref.times):
            assert abs(t - t_ref) <= NODE_RTOL * abs(t_ref)
        assert traj.times[-1] == traj_ref.times[-1] == t1
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))

    def test_heun_and_orbit_fields(self):
        segments = golden.case1_segments()
        # one Heun integration and one orbit per point
        assert len(segments) == 2 * len(golden.CASE1_POINTS)
        for f, t0, y0, t1, kw in segments:
            self._compare(f, t0, y0, t1, **kw)

    # the step kernel is generated per state size: 4 is an N_f = 1 orbit
    # and the Heun system, 6 an N_f = 2 orbit
    @pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-12])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_linear_complex_system(self, n, rtol):
        lam = [-0.3 + 1.1j, 0.5 - 2j, 1j, -1 + 0.2j, 0.7 + 0.4j, -0.2 - 1.5j]
        y0 = [1, 0.5j, -2, 1 + 1j, -0.5 + 0.3j, 2j]

        def f(t, y):
            return [a * v for a, v in zip(lam, y)]
        self._compare(f, 0.2 + 0.1j, y0[:n], 1.5 - 0.7j,
                      rtol=rtol, atol=rtol * 1e-2)


def test_bits_match_golden():
    """Calls, nodes and the repr of every node time and end-state component
    equal those of ``tests/data/odeint_bits.json`` exactly."""
    want = json.loads(golden.OUT.read_text())
    got = json.loads(golden.render())
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name
