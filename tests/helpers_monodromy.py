"""Nonlinear monodromy oracle for the log coefficients of VE2 and VE3.

Nothing here uses the forcing, variation-of-constants or residue code.  The
orbit ``qbar0`` of the elliptic invariant plane (``C_j = 0``) is perturbed at
``t = r`` by ``eta * xi``, where ``xi = (xi0, xi_j)`` is a solution of the
first variational equation.  The full equations of motion are then integrated
with :func:`bfmix.odeint.integrate` once around the square
``|Re t|, |Im t| <= r``, counterclockwise about the orbit's pole ``t = 0``.

Write the perturbed orbit as ``qbar + sum_k eta^k xi_k``.  Suppose VE1 and
the VE below order ``k`` are log-free.  Then the only multivalued part of
``xi_k`` is ``(L1 sol1 + L2 sol2) log t`` in each block.  Here ``L1`` and
``L2`` are the ``1/t`` coefficients of the rows ``mu_first = -sol2 K`` and
``mu_second = sol1 K`` of ``X^{-1} (0, K)``.  One loop adds ``2 pi i`` to
``log t``, so the ``O(eta^k)`` part of the end-minus-start defect is
``2 pi i (L1 sol1 + L2 sol2)`` at ``t = r``.  Since the Wronskian is one,
``(L1, L2) = X(r)^{-1} defect / (2 pi i)``.

* The perturbation is carried as its exact displacement from the orbit,
  integrated together with the orbit in one state.  The same steps serve
  every copy, and the small differences are never formed by subtracting
  large states.
* The defect is taken at ``eta = +-eps`` and ``+-eps/2``.  Odd and even parts
  give the ``eta^3`` and ``eta^2`` orders.  Richardson extrapolation over
  ``eps`` and ``eps/2`` removes the ``eta^5`` and ``eta^4`` terms that come
  next.
* For a half-integer Lame index, ``sol1`` and ``sol2`` change sign around
  the loop.  The end state is then mapped back by the symmetry
  ``(q_j, p_j) -> -(q_j, p_j)`` of the equations.

The Frobenius series enter only as initial data and to convert the defect
into ``(L1, L2)``.
"""
import math

import numpy as np

from bfmix.odeint import integrate

#: perturbation size; the odd/even Richardson readings keep a relative error
#: of order eps^4 from the nonlinear terms
EPS = 2e-3
#: half side of the square loop.  The start point sits where the perturbation
#: ``eps * sol1 ~ eps r^-n`` is still small, which index 4 needs; the corners
#: (``r sqrt 2 = 0.85``) stay inside the orbit's other singularities
RADIUS = 0.6
#: relative tolerance of the Dormand-Prince integration
RTOL = 1e-11


def _vector_field(p):
    """Right-hand side for one orbit row and any number of displacement rows,
    the rows laid end to end in one flat list.

    Row 0 is the orbit ``(q0, p0, 0, ...)`` in the plane ``q_j = p_j = 0``.
    Each further row is the exact displacement ``(a, b, u_j, v_j)`` of a
    perturbed solution from it, for the Hamiltonian's equations

        q0'' = -2 w0 q0 + 2 q0^3 + 2 g q0 sum q_j^2 + C0^2 / q0^3
        q_j'' = -2 w_j q_j + 2 g q0^2 q_j.
    """
    w0, g, c0sq = float(p.omega0), float(p.g_bf), float(p.C0_sq)
    ws = [float(w) for w in p.omegas]
    n_f = len(ws)
    row = 2 + 2 * n_f

    def f(t, y):
        q = y[0]
        q3 = q * q * q
        out = [y[1], -2 * w0 * q + 2 * q3 + c0sq / q3] + [0j] * (2 * n_f)
        for i in range(row, len(y), row):
            a, b = y[i], y[i + 1]
            u = y[i + 2:i + 2 + n_f]
            qa = q + a
            qa2 = qa * qa
            cube_diff = a * (3 * q * q + 3 * q * a + a * a)      # qa^3 - q^3
            out.append(b)
            out.append(-2 * w0 * a + 2 * cube_diff
                       + 2 * g * qa * sum(x * x for x in u)
                       - c0sq * cube_diff / (q3 * qa2 * qa))
            out += y[i + 2 + n_f:i + row]
            out += [(2 * g * qa2 - 2 * w) * x for x, w in zip(u, ws)]
        return out

    return f


def _rows(basis, dq, dp, t):
    """``X(t)^{-1} (dq, dp)`` for a unit-Wronskian basis."""
    s1, s2 = basis.sol1, basis.sol2
    return np.array([s2.differentiate().evaluate(t) * dq - s2.evaluate(t) * dp,
                     s1.evaluate(t) * dp - s1.differentiate().evaluate(t) * dq])


def monodromy_rows(p, qbar, tb, nbs, xi0, xij):
    """Log-coefficient rows read from the loop defect of the full flow.

    ``qbar`` is the orbit series and ``tb``, ``nbs`` are the tangential and
    normal Frobenius bases.  ``xi0`` and ``xij`` are the first-order series
    that set the perturbation direction.  Returns ``(second, third)``.  Each
    is a complex array of shape ``(1 + N_f, 2)``: one ``(L1, L2)`` row per
    block, tangential first, read from the ``eta^2`` and ``eta^3`` orders.
    ``third`` is the VE3 residue only where ``second`` vanishes.
    """
    n_f, eps, r = len(nbs), EPS, RADIUS
    etas = (eps, -eps, eps / 2, -eps / 2)
    start = np.zeros((1 + len(etas), 2 + 2 * n_f), dtype=complex)
    start[0, :2] = qbar.evaluate(r), qbar.differentiate().evaluate(r)
    direction = np.array(
        [xi0.evaluate(r), xi0.differentiate().evaluate(r)]
        + [x.evaluate(r) for x in xij]
        + [x.differentiate().evaluate(r) for x in xij])
    start[1:] = np.outer(etas, direction)

    f = _vector_field(p)
    corners = [r, r + 1j * r, -r + 1j * r, -r - 1j * r, r - 1j * r, r]
    y = start
    for t0, t1 in zip(corners, corners[1:]):
        y = integrate(f, t0, y.ravel(), t1, rtol=RTOL,
                      atol=RTOL * eps ** 3)[0].reshape(y.shape)
    for j, nb in enumerate(nbs):
        if nb.exponents[1].denominator == 2:      # sol1, sol2 ~ t^(1/2) Z
            y[:, [2 + j, 2 + n_f + j]] *= -1
    defect = y[1:] - start[1:]

    readings = []
    for k, sign in ((2, 1), (3, -1)):
        # eta^k part of the defect at eta = eps and eps/2, then Richardson
        big = (defect[0] + sign * defect[1]) / (2 * eps ** k)
        small = (defect[2] + sign * defect[3]) / (2 * (eps / 2) ** k)
        d = (4 * small - big) / 3 / (2j * math.pi)
        blocks = [_rows(tb, d[0], d[1], r)]
        blocks += [_rows(nb, d[2 + j], d[2 + n_f + j], r)
                   for j, nb in enumerate(nbs)]
        readings.append(np.array(blocks))
    return readings[0], readings[1]
