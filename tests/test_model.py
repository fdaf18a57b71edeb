import cmath
import dataclasses
import json
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from bfmix import cli, elliptic, model
from bfmix.model import PhaseState, make_params
from bfmix.odeint import SingularityEncounteredError, integrate
from conftest import random_rational
import helpers_model
from helpers_model import RawParams, normalize
from helpers_series import evaluate


class TestNormalize:
    def test_identity_scaling(self):
        raw = RawParams(Q(1), Q(1), Q(1), Q(7), Q(2), (Q(3),), Q(25), (Q(11),))
        p = normalize(raw)
        assert (p.omega0, p.omegas, p.g_bf) == (Q(2), (Q(3),), Q(7))
        assert (p.C0_sq, p.Cs) == (Q(25), (Q(11),))

    def test_reference_scaling(self):
        # m_B=1, m_F=2, g_BB=4 gives gamma = 1/2
        raw = RawParams(Q(1), Q(2), Q(4), Q(1), Q(1), (Q(1),), Q(1), (Q(1),))
        p = normalize(raw)
        assert p.omega0 == Q(1, 4)
        assert p.omegas[0] == Q(1, 2)
        assert p.g_bf == Q(1, 2)
        assert p.C0_sq == Q(1, 4)
        assert p.Cs[0] ** 2 == Q(1, 16)

    def test_gbf_zero_stays_zero(self):
        raw = RawParams(Q(3), Q(5), Q(9), Q(0), Q(1), (Q(1),), Q(0), (Q(1),))
        assert normalize(raw).g_bf == 0

    def test_idempotent_on_normalized(self):
        raw = RawParams(Q(1), Q(1), Q(1), Q(3), Q(2), (Q(5),), Q(49), (Q(2),))
        p = normalize(raw)
        again = normalize(RawParams(Q(1), Q(1), Q(1), p.g_bf, p.omega0,
                                          p.omegas, p.C0_sq, p.Cs))
        assert again == p

    def test_gbb_positive_required(self):
        raw = RawParams(Q(1), Q(1), Q(-1), Q(1), Q(1), (Q(1),), Q(0), (Q(0),))
        with pytest.raises(model.InvalidParameterError):
            normalize(raw)


class TestHamiltonian:
    def test_reference_value(self):
        p = make_params(1, [1], 0, [0], 0)
        s = PhaseState(1, 0, (1,), (0,))
        assert model.hamiltonian(p, s) == pytest.approx(1.5)

    def test_gbf_linearity(self):
        s = PhaseState(0.7, 0.1, (1.3,), (0.2,))
        p0 = make_params(1, [2], 0, [0], Q(1, 2))
        p1 = make_params(1, [2], 0, [0], Q(3, 2))
        dH = model.hamiltonian(p1, s) - model.hamiltonian(p0, s)
        assert dH == pytest.approx(-1.0 * 0.7 ** 2 * 1.3 ** 2)

    def test_parity_in_q0(self):
        p = make_params(2, [3], 1, [0], Q(5, 4))
        s1 = PhaseState(0.8, 0.3, (0.5,), (0.1,))
        s2 = PhaseState(-0.8, 0.3, (0.5,), (0.1,))
        assert model.hamiltonian(p, s1) == model.hamiltonian(p, s2)

    def test_written_out_at_two_modes(self):
        w0, ws, c0, cs, g = 1.5, (2.0, 1 / 3), 0.5, (0.75, -2.0), 0.4
        p = make_params(Q(3, 2), [Q(2), Q(1, 3)], Q(1, 4), [Q(3, 4), Q(-2)],
                        Q(2, 5))
        q0, p0 = 0.8 + 0.1j, 0.3 - 0.2j
        qs, ps = (1.2 - 0.3j, 0.7 + 0.4j), (0.1 + 0.5j, -0.6 + 0.2j)
        want = (p0 ** 2 / 2 + ps[0] ** 2 / 2 + ps[1] ** 2 / 2
                + w0 * q0 ** 2 + ws[0] * qs[0] ** 2 + ws[1] * qs[1] ** 2
                - g * q0 ** 2 * (qs[0] ** 2 + qs[1] ** 2) - q0 ** 4 / 2
                + c0 ** 2 / (2 * q0 ** 2) + cs[0] ** 2 / (2 * qs[0] ** 2)
                + cs[1] ** 2 / (2 * qs[1] ** 2))
        got = model.hamiltonian(p, PhaseState(q0, p0, qs, ps))
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_negative_c0sq_is_rejected(self):
        with pytest.raises(model.InvalidParameterError,
                           match="C0\\^2 must be nonnegative"):
            make_params(1, [1], -1, [0], 1)

    def test_centrifugal_pole_guard(self):
        p = make_params(1, [1], 1, [0], 0)
        with pytest.raises(ZeroDivisionError):
            model.hamiltonian(p, PhaseState(0, 0, (1,), (0,)))


def _fd_gradient(p, s, h=1e-6):
    """Central-difference canonical field (dq = dH/dp, dp = -dH/dq)."""
    base = [s.q0, s.p0, *s.qs, *s.ps]
    n_f = len(s.qs)

    def ham(vec):
        return model.hamiltonian(p, PhaseState(vec[0], vec[1],
                                               tuple(vec[2:2 + n_f]),
                                               tuple(vec[2 + n_f:])))
    grads = []
    for i in range(len(base)):
        up = list(base); up[i] += h
        dn = list(base); dn[i] -= h
        grads.append((ham(up) - ham(dn)) / (2 * h))
    # canonical pairing: coords are [q0, p0, q1.., p1..]
    dq0, dp0 = grads[1], -grads[0]
    dqs = [grads[2 + n_f + j] for j in range(n_f)]
    dps = [-grads[2 + j] for j in range(n_f)]
    return [dq0, dp0, *dqs, *dps]


class TestEquationsOfMotion:
    def test_matches_hamiltonian_gradient(self, rng):
        # N_f = 1, 2 and 3, with C0 = 0 and C0 != 0; from N_f = 2 on, the
        # first mode has C_1 = 0, so its centrifugal term is absent
        for n_f in (1, 2, 3):
            for c0_zero in (True, False):
                for _ in range(5):
                    cs = [random_rational(rng, nonzero=True)
                          for _ in range(n_f)]
                    if n_f > 1:
                        cs[0] = Q(0)
                    p = make_params(
                        abs(random_rational(rng, nonzero=True)),
                        [abs(random_rational(rng, nonzero=True))
                         for _ in range(n_f)],
                        Q(0) if c0_zero
                        else random_rational(rng, nonzero=True) ** 2,
                        cs, random_rational(rng))
                    s = PhaseState(
                        complex(0.9 + 0.1 * rng.random(), rng.random() - 0.5),
                        complex(rng.random(), rng.random()),
                        tuple(complex(1.1 + rng.random(), rng.random() - 0.5)
                              for _ in range(n_f)),
                        tuple(complex(rng.random(), rng.random())
                              for _ in range(n_f)))
                    rhs = helpers_model.eom(p, s)
                    fd = _fd_gradient(p, s)
                    got = [rhs.q0, rhs.p0, *rhs.qs, *rhs.ps]
                    scale = max(1.0, max(abs(x) for x in fd))
                    for a, b in zip(got, fd):
                        assert abs(a - b) < 1e-6 * scale

    def test_overflow_gives_non_finite_values(self):
        """A state beyond the float range overflows to inf or nan, so the
        stepper rejects the step; no OverflowError escapes the field."""
        p = make_params(1, [2], 0, [3], 1)
        f = model._vector_field(p)
        out = f(0.0, [1e103 + 0j, 0j, 1 + 0j, 0j])
        assert not all(map(cmath.isfinite, out))
        # q_1^3 overflows: C_1^2 / q_1^3 underflows to 0, as it should
        out = f(0.0, [0.5 + 0j, 0j, 1e103 + 0j, 0j])
        assert out[3] == (-2 * 2 + 2 * 0.25) * 1e103
        # q0 near a pole at t = 1e-100: each step overflows and is rejected
        # until the step size underflows
        with pytest.raises(SingularityEncounteredError,
                           match="step-size underflow"):
            integrate(f, 0.0, [1e100, 0, 1, 0], 1.0)

    def test_pj_formula_at_gbf_zero(self):
        p = make_params(1, [Q(3, 2)], 0, [Q(2)], 0)
        s = PhaseState(0.5, 0.1, (0.7,), (0.3,))
        rhs = helpers_model.eom(p, s)
        expected = -2 * 1.5 * 0.7 + 4.0 / 0.7 ** 3
        assert rhs.ps[0] == pytest.approx(expected)

    def test_transverse_equilibrium(self):
        p = make_params(1, [2], 0, [0], Q(1, 2))
        s = PhaseState(0, 0, (0,), (0,))
        rhs = helpers_model.eom(p, s)
        assert rhs.qs[0] == 0 and rhs.ps[0] == 0


class TestCase1Solution:
    def test_rejects_vanishing_orbit_point(self):
        p = make_params(1, [2], 0, [1], 1)
        with pytest.raises(model.InvalidParameterError):
            model.solution_case1(p, [0], 0, 0)

    def test_eom_residual(self):
        p = make_params(1, [2, Q(1, 2)], 0, [1, Q(3, 4)], Q(2, 3))
        for tval in (0.3 + 0.2j, 0.9 - 0.15j):
            assert helpers_model.case1_residual(p, [0, 0], 0, tval) < 1e-9

    def test_nonzero_integration_constants(self):
        p = make_params(1, [2], 0, [3], Q(1, 5))
        assert helpers_model.case1_residual(p, [Q(1, 2)], 0.1, 0.7 + 0.1j) < 1e-9

    def test_momentum_is_coordinate_derivative(self):
        p = make_params(1, [2], 0, [1], 1)
        h = 1e-6
        tval = 0.4 + 0.3j
        sm = model.solution_case1(p, [0], 0, tval - h)
        sp = model.solution_case1(p, [0], 0, tval + h)
        s = model.solution_case1(p, [0], 0, tval)
        fd = (sp.qs[0] - sm.qs[0]) / (2 * h)
        assert abs(fd - s.ps[0]) < 1e-7

    def test_degenerate_amplitude_warns(self):
        p = make_params(1, [Q(1, 2)], 0, [1], 1)
        # amplitude^2 = C^2/(2w) - h^2/(4w^2) = 1 - h^2 at w = 1/2
        with pytest.warns(model.DegenerateAmplitudeWarning):
            model.solution_case1(p, [1], 0, 0.3)


class TestCase2Solution:
    def setup_method(self):
        self.p = make_params(1, [1], 1, [0], 1)
        self.e = elliptic.invariants_from_energy(1, 1, 0)

    def test_local_series(self):
        from bfmix.variational import qbar0_series
        qb = qbar0_series(self.e, 10)
        assert qb.coefficient(-1) == 1
        assert qb.coefficient(1) == Q(1, 3)                 # w0/3
        assert qb.coefficient(3) == self.e.g2 / 40 - Q(1, 18)

    def test_matches_series_near_origin(self):
        from bfmix.variational import qbar0_series
        qb = qbar0_series(self.e, 24)
        s = helpers_model.solution_case2(self.p, self.e, 0.04)
        assert abs(s.q0 - evaluate(qb, 0.04)) < 1e-10 * abs(s.q0)

    def test_energy_level(self):
        for tval in (0.4, 0.3 + 0.2j, 1.1):
            s = helpers_model.solution_case2(self.p, self.e, tval)
            assert abs(model.hamiltonian(self.p, s) - 0.0) < 1e-9

    def test_eom_residual(self):
        for tval in (0.4, 0.9 + 0.3j):
            assert helpers_model.case2_residual(self.p, self.e, tval) < 1e-9

    def test_momentum_is_coordinate_derivative(self):
        h = 1e-6
        tval = 0.6 + 0.2j
        sm = helpers_model.solution_case2(self.p, self.e, tval - h)
        sp = helpers_model.solution_case2(self.p, self.e, tval + h)
        s = helpers_model.solution_case2(self.p, self.e, tval)
        fd = (sp.q0 - sm.q0) / (2 * h)
        assert abs(fd - s.p0) < 1e-7

    def test_rejects_case1_parameters(self):
        p = make_params(1, [1], 0, [1], 1)
        with pytest.raises(model.InvalidParameterError):
            helpers_model.solution_case2(p, self.e, 0.3)


class TestMaxResidual:
    @pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan],
                                           [0.5, math.nan, 2.0]])
    def test_nan_wins_wherever_it_falls(self, residuals):
        assert math.isnan(helpers_model.max_residual(residuals))

    def test_largest_of_finite_residuals(self):
        assert helpers_model.max_residual([0.5, 2.0, math.inf, 1.0]) == math.inf
        assert helpers_model.max_residual([0.5, 2.0, 1.0]) == 2.0
        assert helpers_model.max_residual([]) == 0.0


class TestClosedFormIdentities:
    """Each closed form's first integral reduces to exactly 0 over random
    rational points, and to a nonzero polynomial when an input is off."""

    def test_oscillator_modes(self, rng):
        for _ in range(40):
            n_f = rng.randint(1, 3)
            p = make_params(1, [abs(random_rational(rng, nonzero=True))
                                for _ in range(n_f)], 0,
                            [random_rational(rng, nonzero=True)
                             for _ in range(n_f)], random_rational(rng))
            hj = [random_rational(rng) for _ in range(n_f)]
            assert model.case1_identity(p, hj) == {
                f"q{j + 1}": "0" for j in range(n_f)}

    def test_elliptic_orbit(self, rng):
        checked = 0
        while checked < 40:
            w0 = abs(random_rational(rng, nonzero=True))
            c0sq, h = abs(random_rational(rng)), random_rational(rng)
            try:
                e = elliptic.invariants_from_energy(w0, c0sq, h)
            except elliptic.DegenerateInvariantsError:
                continue
            assert model.case2_identity(e) == {"q0": "0"}
            checked += 1

    def test_separatrix(self, rng):
        checked = 0
        while checked < 40:
            w0 = abs(random_rational(rng, nonzero=True))
            c0sq = abs(random_rational(rng)) * w0 ** 3 / 4
            if model.separatrix_constant(w0, c0sq) <= 0:
                continue
            assert model.separatrix_identity(w0, c0sq) == {"q0": "0"}
            checked += 1

    def test_g2_off_by_a_little_is_seen(self):
        # g3 and K off: test_verdict_cli's test_verify_failure_exit_code
        e = elliptic.invariants_from_energy(Q(3, 2), Q(1, 2), Q(1, 3))
        off = dataclasses.replace(e, g2=e.g2 + Q(1, 10**12))
        assert model.case2_identity(off) == {"q0": "-1/1000000000000*wp"}


class TestSeparatrix:
    def test_zero_c0_factorization(self):
        a, h_star = model.separatrix_scale(1, 0)
        assert h_star == pytest.approx(1.0, abs=1e-12)
        assert a == pytest.approx(1 / 3, abs=1e-12)

    def test_asymptotic_plateau(self):
        a, _ = model.separatrix_scale(1, Q(1, 100))
        q0, _ = helpers_model.separatrix_state(1.0, a, 14.0)
        assert abs(q0 ** 2 - (2 / 3 + a)) < 1e-9

    def test_eom_residual(self):
        p = model.make_params(1, [], Q(1, 100), [], 0)
        a, _ = model.separatrix_scale(1, Q(1, 100))
        for tval in (0.7, 0.45 + 0.2j, 1.6):
            assert helpers_model.separatrix_residual(p, a, tval) < 1e-9

    def test_momentum_is_coordinate_derivative(self):
        h = 1e-6
        a, _ = model.separatrix_scale(1, Q(1, 100))
        for tval in (0.7, 0.45 + 0.2j):
            qm = helpers_model.separatrix_state(1.0, a, tval - h)[0]
            qp = helpers_model.separatrix_state(1.0, a, tval + h)[0]
            p0 = helpers_model.separatrix_state(1.0, a, tval)[1]
            assert abs((qp - qm) / (2 * h) - p0) < 1e-7

    def test_cubic_root_certificate(self):
        w0, c0sq = 1.0, 0.01
        a, h = model.separatrix_scale(w0, c0sq)
        # h* is a root of the discriminant cubic, a of a^2 (a + w0) = K
        val = (h ** 3 - w0 ** 2 * h ** 2 - 9 * c0sq * w0 * h
               + 8 * c0sq * w0 ** 3 + 6.75 * c0sq ** 2)
        assert abs(val) < 1e-12
        assert abs(a * a * (a + w0) - (8 * w0 ** 3 - 27 * c0sq) / 54) < 1e-16

    def test_largest_real_root_against_numpy(self):
        rng = random.Random(27)
        for _ in range(400):
            w0 = Q(rng.randint(1, 400), rng.randint(1, 100))
            c0sq = (Q(rng.randint(1, 400), rng.randint(1, 400))
                    * Q(10) ** rng.randint(-4, 2))
            if 27 * c0sq == 8 * w0 ** 3:
                continue
            w, c = float(w0), float(c0sq)
            roots = np.roots([1.0, -w * w, -9 * c * w,
                              8 * c * w ** 3 + 6.75 * c * c])
            if 27 * c0sq < 8 * w0 ** 3:     # three real roots
                want = max(roots.real)
            else:                           # one real root
                want = roots[np.argmin(abs(roots.imag))].real
            a, h_star = model.separatrix_scale(w0, c0sq)
            assert h_star == pytest.approx(want, rel=1e-10), (w0, c0sq)
            assert a == pytest.approx(math.sqrt(4 * w * w - 3 * want) / 3,
                                      rel=1e-9), (w0, c0sq)

    @pytest.mark.parametrize("w0", [Q(1), Q(3), Q(1, 3), Q(7, 5), Q(10, 7)])
    def test_exact_roots_at_zero_c0_and_on_the_curve(self, w0):
        # at C0^2 = 0, a^2 (a + w0) = 4 w0^3/27 has the root a = w0/3, so
        # s = 1/3 and h* = w0^2, rounded once; on 27 C0^2 = 8 w0^3 its root
        # a = 0 is a double one, and there is no separatrix
        a, h_star = model.separatrix_scale(w0, 0)
        assert h_star == float(w0 ** 2)
        assert a == pytest.approx(float(w0 / 3), rel=3e-16)
        with pytest.raises(model.NoSeparatrixError,
                           match=r"no separatrix on 27 C0\^2 = 8 w0\^3"):
            model.separatrix_scale(w0, Q(8, 27) * w0 ** 3)

    @pytest.mark.parametrize("w0, c0sq", [
        (Q(1), Q(1, 100)), (Q(2), Q(3, 10)), (Q(1, 2), Q(1, 20)), (Q(1), Q(1))])
    def test_root_scales_across_the_float_range(self, w0, c0sq):
        # a^2 (a + w0) = K and the discriminant cubic are homogeneous when
        # w0, C0^2, a and h weigh 1, 3, 1 and 2; (1/2, 1/20) and (1, 1) have
        # K < 0
        a, h = model.separatrix_scale(w0, c0sq)
        for e in (-100, -30, 30, 100):
            scale = Q(2) ** e
            a_e, h_e = model.separatrix_scale(scale * w0, scale ** 3 * c0sq)
            assert a_e == pytest.approx(a * 2.0 ** e, rel=1e-14)
            assert h_e == pytest.approx(h * 2.0 ** (2 * e), rel=1e-14)
            _assert_exact_scale(scale * w0, scale ** 3 * c0sq, a_e, h_e)

    @pytest.mark.parametrize("w0, rel, error", [
        (Q(1), Q(1, 10 ** 400), model.NoSeparatrixError),
        (Q(13 * 10 ** 153), Q(1, 10 ** 6), OverflowError)],
        ids=["a-underflows", "h-overflows"])
    def test_float_range_is_refused(self, w0, rel, error):
        # C0^2 a relative `rel` inside the curve: K/w0^3 rounds to 0.0, or
        # h* = w0^2 (4/3 - 3 s^2) to inf though w0^2 is finite
        with pytest.raises(error):
            model.separatrix_scale(w0, Q(8, 27) * w0 ** 3 * (1 - rel))

    def test_scale_against_exact_root_on_a_seeded_grid(self):
        rng = random.Random(33)
        for _ in range(3000):
            w0 = (Q(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
                  * Q(2) ** rng.randint(-20, 20))
            c0sq = Q(8, 27) * w0 ** 3 * Q(rng.randint(0, 10 ** 6 - 1), 10 ** 6)
            _assert_exact_scale(w0, c0sq, *model.separatrix_scale(w0, c0sq))

    @pytest.mark.parametrize("w0", [Q(1), Q(3), Q(7, 5)])
    def test_scale_near_the_curve(self, w0):
        # C0^2 a relative 10^-k inside the curve: a ~ w0 sqrt(2 10^-k / 27)
        for k in range(1, 16):
            c0sq = Q(8, 27) * w0 ** 3 * (1 - Q(10) ** -k)
            _assert_exact_scale(w0, c0sq, *model.separatrix_scale(w0, c0sq))

    def test_scale_beyond_the_curve_against_exact_root(self):
        # K < 0, no separatrix: the real root a < -w0, reported as |a|, with
        # 27 C0^2 / (8 w0^3) - 1 from 10^-15 to 10^6
        rng = random.Random(34)
        for _ in range(1000):
            w0 = (Q(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
                  * Q(2) ** rng.randint(-20, 20))
            excess = (Q(rng.randint(10 ** 5, 10 ** 6 - 1), 10 ** 6)
                      * Q(10) ** rng.randint(-14, 5))
            c0sq = Q(8, 27) * w0 ** 3 * (1 + excess)
            _assert_exact_scale(w0, c0sq, *model.separatrix_scale(w0, c0sq))

    @pytest.mark.parametrize("c0sq", [Q(4, 100), Q(5, 100)],
                             ids=["pool-4", "pool-5"])
    def test_pool_draws_beyond_the_curve_through_analyze(self, c0sq, capsys):
        # the benchmark's case-3 pool draws w0 = 1/2 with these C0^2, where
        # K < 0; analyze case3 answers there until ROADMAP item 2 is done
        assert cli.main(["analyze", "case3", "--omega0", "1/2", "--omega1",
                         "1", "--c0sq", str(c0sq), "--c1sq", "1",
                         "--action", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["outcome"] == "NonIntegrable"
        details = report["details"]
        _assert_exact_scale(Q(1, 2), c0sq, float(details["a"]),
                            float(details["h_star"]))


def _exact_root_bracket(w0: Q, c0sq: Q):
    """Fractions lo <= r < hi, hi - lo <= 2^-60 |r|, around the real root r
    of r^2 (r + w0) = K = (8 w0^3 - 27 C0^2)/54 where the cubic rises: the
    positive one where K > 0, the one below -w0 where K < 0.  By bisection
    over r = m / D with D = den(w0) 2^E, in integer arithmetic."""
    K = (8 * w0 ** 3 - 27 * c0sq) / 54
    # |r| >= w0 sqrt(3 K / (4 w0^3)) where K > 0, as r <= w0/3, and |r| > w0
    # where K < 0; the float only sizes D
    low = float(w0) * (math.sqrt(0.75 * float(K / w0 ** 3)) if K > 0 else 1)
    E = max(0, 61 - math.frexp(low)[1])
    p, D = w0.numerator << E, w0.denominator << E
    lhs, rhs = K.denominator, K.numerator * D ** 3

    def above(m):       # r^2 (r + w0) > K at r = m / D
        return m * m * (m + p) * lhs > rhs
    if K > 0:
        lo, hi = 0, p // 3 + 1      # r <= w0/3 < hi / D
    else:
        # the cubic rises on r < -2 w0/3: double the distance below -w0
        lo, hi, step = -p - 1, -p, 1
        while above(lo):
            step *= 2
            lo = -p - step
    assert above(hi) and not above(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return Q(lo, D), Q(hi, D)


def _assert_exact_scale(w0: Q, c0sq: Q, a: float, h_star: float):
    """(a, h*) of separatrix_scale within 1e-15 relative of |r|, r the exact
    root, and of h* = 4 w0^2/3 - 3 r^2, which falls as |r| rises."""
    lo, hi = _exact_root_bracket(w0, c0sq)
    for got, ends in ((a, (abs(lo), abs(hi))),
                      (h_star, [4 * w0 ** 2 / 3 - 3 * x ** 2 for x in (lo, hi)])):
        err = max(abs(Q(got) - x) for x in ends) / min(map(abs, ends))
        assert err <= Q(1, 10 ** 15), (w0, c0sq, got, float(err))


class TestIntegrator:
    def test_energy_drift(self):
        p = make_params(1, [1], 0, [1], Q(1, 2))
        s0 = PhaseState(0.4, 0.1, (0.5,), (-0.2,), 0.0)
        _, drift = model.integrate_orbit(p, s0, 5.0, tol=1e-10)
        assert drift < 1e-8

    def test_separability_at_gbf_zero(self):
        p = make_params(1, [1], 0, [1], 0)
        s_a = PhaseState(0.4, 0.1, (0.5,), (-0.2,), 0.0)
        s_b = PhaseState(0.4, 0.1, (0.9,), (0.3,), 0.0)
        traj_a, _ = model.integrate_orbit(p, s_a, 3.0, tol=1e-11)
        traj_b, _ = model.integrate_orbit(p, s_b, 3.0, tol=1e-11)
        end_a = traj_a.states[-1][:2]
        end_b = traj_b.states[-1][:2]
        assert abs(end_a[0] - end_b[0]) < 1e-8
        assert abs(end_a[1] - end_b[1]) < 1e-8

    def test_reproduces_closed_form(self):
        p = make_params(1, [1], 1, [0], 1)
        e = elliptic.invariants_from_energy(1, 1, 0)
        s0 = helpers_model.solution_case2(p, e, 0.35)
        s0 = PhaseState(s0.q0, s0.p0, s0.qs, s0.ps, 0.35)
        traj, _ = model.integrate_orbit(p, s0, 1.0, tol=1e-12)
        target = helpers_model.solution_case2(p, e, 1.0)
        assert abs(traj.states[-1][0] - target.q0) < 1e-6
        assert abs(traj.states[-1][1] - target.p0) < 1e-6

    def test_orbit_field_is_eom(self, monkeypatch, rng):
        """integrate_orbit integrates eom's vector field, with a C0 term and
        with a C_j = 0 mode, which has no centrifugal term (its q_j starts
        at 0)."""
        fields = []

        def spy(f, *args, **kw):
            fields.append(f)
            return integrate(f, *args, **kw)
        monkeypatch.setattr(model, "integrate", spy)
        p = make_params(Q(3, 2), [Q(1), Q(2, 3)], Q(1, 4), [Q(0), Q(3, 4)],
                        Q(2, 5))
        s0 = PhaseState(0.8, 0.1, (0.0, 0.9), (0.2, -0.1), 0.0)
        model.integrate_orbit(p, s0, 0.2)
        f, = fields
        for _ in range(20):
            c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(7)]
            s = PhaseState(c[0], c[1], (c[2], c[3]), (c[4], c[5]), c[6])
            got = np.asarray(f(s.t, model.state_to_vector(s)),
                             dtype=complex)
            want = model.state_to_vector(helpers_model.eom(p, s))
            assert np.array_equal(got, want)

    def test_tolerance_validation(self):
        p = make_params(1, [1], 0, [1], 0)
        with pytest.raises(model.InvalidParameterError):
            model.integrate_orbit(p, PhaseState(1, 0, (1,), (0,)), 1.0, tol=0)
