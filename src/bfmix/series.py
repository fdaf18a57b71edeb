"""Truncated Laurent/Puiseux series with exact rational coefficients.

A series is a finite set of terms ``c * t**e`` with exponents on a lattice
``base + step * ZZ`` plus a truncation order: exponents at or above the
truncation are unknown.  All arithmetic tracks how far the result can be
trusted, so a residue read off a series is either exact or raises.

Terms are stored densely on one lattice denominator ``L`` per series: an
integer base ``b``, an integer step ``s`` and an integer truncation ``t``
(or :data:`INF`), so the k-th stored exponent is ``(b + k*s) / L``, and the
integer numerators of the coefficients over one common denominator.  Exponent
bookkeeping is then integer arithmetic, a product is an integer convolution
followed by a single reduction, and ``Fraction``s are built only where a
caller asks for an exponent or a coefficient.

The chain's operands hold a handful of terms each, so an operation costs its
bookkeeping more than its arithmetic, and each one does only what its
operands need.  The canonical form is made in one pass over the dense list:
the cut at the truncation, the zero ends, the coarsest step (scanned only
when the second coefficient is zero), the common factor of the numerators,
and a division of the lattice only where ``L``, the base and the step share
a factor.  ``+`` and ``-`` share one body, which folds the sign into the
factor that rescales the second operand to the common denominator; ``+``,
``-`` and ``*`` align operands on one lattice without any re-gridding, and a
product convolves the two lists in a nested loop with each factor's step as
its stride.  Each result of ``+``, ``-``, ``*`` and ``scale`` is one
``_set`` call on a fresh instance, and ``product_residue`` reads the ``t^-1``
term of a product from the one convolution sum that gives it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

Q = Fraction
Exponent = Fraction

#: truncation sentinel for series known to all orders (polynomials in t, 1/t)
INF = math.inf

#: the coefficient 0, one object for every reader (a Fraction is immutable)
_ZERO = Fraction(0)
#: a bare series, which one ``_set`` call fills
_new = object.__new__


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class ZeroDivisionSeriesError(SeriesError):
    """Inversion of a series that is zero to its truncation order."""


class FieldExtensionError(SeriesError, ValueError):
    """Exact sqrt would leave the rationals (non-square leading coefficient)."""


class InsufficientOrderError(SeriesError):
    """A requested coefficient lies at or beyond the truncation order."""


def as_fraction(x) -> Fraction:
    """x itself when it is a Fraction, else Fraction(x)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _rational(x):
    """x itself when it is an int or a Fraction (both carry numerator and
    denominator), else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _exponent(x, L: int):
    """The exponent x / L as a Fraction, or INF."""
    return INF if x == INF else Fraction(x, L)


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """The nonnegative square root of ``x`` in Q, or None when ``x`` is not
    the square of a rational.  A negative ``x`` raises ValueError."""
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def _sqrt_fraction(x: Fraction) -> Fraction:
    if x < 0:
        raise FieldExtensionError(f"sqrt of negative rational {x}")
    root = rational_sqrt(x)
    if root is None:
        raise FieldExtensionError(f"{x} is not a perfect square in Q")
    return root


# -- dense coefficient lists ---------------------------------------------------

def _convolve(out: list, a: list, b: list, ra: int, rb: int) -> None:
    """Add a[i] * b[j] to out[i*ra + j*rb] wherever that index lies below
    len(out): the product of two dense lists whose steps are ra and rb times
    the step of ``out``."""
    n = len(out)
    k = 0
    for x in a:
        if k >= n:
            break
        if x:
            j = k
            for y in b[:-((k - n) // rb)]:
                out[j] += x * y
                j += rb
        k += ra


def append_rational(nums: List[int], den: int, p: int, q: int) -> int:
    """Append p/q to the numerators ``nums`` over ``den``, rescaling them to
    a common denominator; returns the new denominator."""
    if p == 0:
        nums.append(0)
        return den
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    p, q = p // g, q // g
    f = q // math.gcd(q, den)
    if f != 1:
        nums[:] = [x * f for x in nums]
        den *= f
    nums.append(p * (den // q))
    return den


def _product_on(L: int, x: "PuiseuxSeries", y: "PuiseuxSeries"):
    """(base, sx, sy, trunc) of the product x * y on the lattice 1/L, a
    multiple of both factors' lattices: the exponent of the product of the
    two first terms, the steps of x and y, and the truncation below which
    the product is exact."""
    fx, fy = L // x._L, L // y._L
    bx, tx, by, ty = x._base * fx, x._trunc * fx, y._base * fy, y._trunc * fy
    # each factor is exact below its trunc; the product is exact below
    # min(val_x + trunc_y, val_y + trunc_x)
    vx = bx if x._coeffs else tx
    vy = by if y._coeffs else ty
    t = vx + ty
    return bx + by, x._step * fx, y._step * fy, t if t <= vy + tx else vy + tx


class PuiseuxSeries:
    """Immutable truncated Puiseux series with rational coefficients.

    The known terms are ``coeffs[k] / den * t**((base + k * step) / L)``
    with integers ``L, base, step, coeffs, den``; ``trunc / L`` is the first
    unknown exponent (``trunc`` may be :data:`INF` for exact polynomials).
    The form is canonical -- nonzero end coefficients, the coarsest step (1
    for a single term; base 0 and step 1 for no term), a denominator sharing
    no factor with all the numerators, and ``L, base, step, trunc`` sharing
    no common factor -- so equal series have equal fields.
    """

    __slots__ = ("_L", "_base", "_step", "_coeffs", "_den", "_trunc")

    def __init__(self, terms: Dict[Exponent, Fraction], trunc=INF):
        """sum c * t**e over ``terms``, cut below t**trunc: each term is
        placed on the lattice of step 1/L, and ``_set`` makes the canonical
        form."""
        if trunc != INF:
            trunc = as_fraction(trunc)
        exps = [as_fraction(e) for e in terms]
        cs = [Fraction(c) for c in terms.values()]
        L = math.lcm(*(e.denominator for e in exps),
                     1 if trunc == INF else trunc.denominator)
        t = INF if trunc == INF else trunc.numerator * (L // trunc.denominator)
        xs = [e.numerator * (L // e.denominator) for e in exps]
        base = min(xs, default=0)
        den = math.lcm(*(c.denominator for c in cs))
        coeffs = [0] * (max(xs, default=base - 1) - base + 1)
        for x, c in zip(xs, cs):
            coeffs[x - base] = c.numerator * (den // c.denominator)
        self._set(L, base, 1, coeffs, den, t)

    @classmethod
    def from_dense(cls, L: int, base: int, step: int, coeffs: List[int],
                   den: int, trunc) -> "PuiseuxSeries":
        """The series sum_k coeffs[k] / den * t**((base + k * step) / L), cut
        below t**(trunc / L), from positive integers ``L``, ``step`` and
        ``den``, integers ``base`` and ``coeffs``, and an integer ``trunc``
        or INF."""
        s = _new(cls)
        s._set(L, base, step, coeffs, den, trunc)
        return s

    def _set(self, L, base, step, coeffs, den, trunc) -> None:
        """Store the canonical form of the given dense data in one pass."""
        n = len(coeffs)
        if trunc != INF:
            below = -((base - trunc) // step)
            if below < n:
                n = below if below > 0 else 0
        while n and not coeffs[n - 1]:
            n -= 1
        i = 0
        while i < n and not coeffs[i]:
            i += 1
        if i == n:
            coeffs, base, step, den = [], 0, L, 1
        else:
            if i or n < len(coeffs):
                coeffs = coeffs[i:n]
                base += i * step
                n -= i
            if n == 1:
                step = L
            elif not coeffs[1]:
                # the coarsest step divides the index of every nonzero term;
                # a nonzero second term leaves the step as it is
                g = 0
                for k in range(2, n):
                    if coeffs[k]:
                        g = math.gcd(g, k)
                        if g == 1:
                            break
                if g > 1:
                    coeffs = coeffs[::g]
                    step *= g
            if den != 1:
                g = math.gcd(den, *coeffs)
                if g != 1:
                    coeffs = [c // g for c in coeffs]
                    den //= g
        g = math.gcd(L, base, step)
        if g != 1:
            if trunc != INF:
                g = math.gcd(g, trunc)
                trunc //= g
            L, base, step = L // g, base // g, step // g
        self._L, self._base, self._step, self._coeffs = L, base, step, coeffs
        self._den, self._trunc = den, trunc

    def dense(self) -> Tuple[int, int, int, List[int], int, object]:
        """(L, base, step, coeffs, den, trunc): the arguments of
        :meth:`from_dense` that give this series."""
        return (self._L, self._base, self._step, self._coeffs, self._den,
                self._trunc)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "PuiseuxSeries":
        c = _rational(c)
        return cls.from_dense(1, 0, 1, [c.numerator], c.denominator, INF)

    # -- basic observers ------------------------------------------------------

    @property
    def truncation_order(self):
        return _exponent(self._trunc, self._L)

    @property
    def base_exponent(self):
        """Leading exponent (valuation); trunc when the series shows no term."""
        return _exponent(self._base if self._coeffs else self._trunc, self._L)

    def terms(self) -> Iterator[Tuple[Exponent, Fraction]]:
        """(exponent, coefficient) of the nonzero terms, ascending."""
        b, s, L, den = self._base, self._step, self._L, self._den
        return ((Fraction(b + k * s, L), Fraction(c, den))
                for k, c in enumerate(self._coeffs) if c)

    def coefficient(self, e) -> Fraction:
        """Exact coefficient of t**e; raises if e is not known at this order."""
        e = as_fraction(e)
        x, d = e.numerator * self._L, e.denominator
        if self._trunc != INF and x >= self._trunc * d:
            raise InsufficientOrderError(
                f"coefficient of t^{e} unknown (truncation "
                f"t^{self.truncation_order})")
        if x % d:
            return _ZERO
        k, r = divmod(x // d - self._base, self._step)
        if r or not 0 <= k < len(self._coeffs) or not self._coeffs[k]:
            return _ZERO
        return Fraction(self._coeffs[k], self._den)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self._trunc == other._trunc and self._L == other._L
                and self._base == other._base and self._step == other._step
                and self._den == other._den and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self._L, self._base, self._step, self._trunc, self._den,
                     tuple(self._coeffs)))

    # -- ring operations ------------------------------------------------------

    def _on(self, L: int):
        """(base, step, trunc) on the lattice 1/L, a multiple of self's."""
        f = L // self._L
        if f == 1:
            return self._base, self._step, self._trunc
        return self._base * f, self._step * f, self._trunc * f

    def _cut(self, L: int, trunc) -> "PuiseuxSeries":
        """self cut below t**(trunc / L), on a multiple L of self's lattice."""
        base, step, own = self._on(L)
        if trunc == own:
            return self
        return PuiseuxSeries.from_dense(L, base, step, self._coeffs,
                                        self._den, trunc)

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self._sum(other, 1)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self._sum(other, -1)

    def _sum(self, other: "PuiseuxSeries", sign: int) -> "PuiseuxSeries":
        """self + sign * other for sign 1 or -1: the sign rides on the
        factor that rescales other's numerators to the common denominator."""
        L = self._L
        if other._L == L:
            b1, s1, t1 = self._base, self._step, self._trunc
            b2, s2, t2 = other._base, other._step, other._trunc
        else:
            L = math.lcm(L, other._L)
            b1, s1, t1 = self._on(L)
            b2, s2, t2 = other._on(L)
        t = t1 if t1 <= t2 else t2
        a, c = self._coeffs, other._coeffs
        if not c:
            return self._cut(L, t)
        if not a:
            return (other if sign > 0 else -other)._cut(L, t)
        den = d1 = self._den
        d2 = other._den
        if d2 != den:
            den = math.lcm(den, d2)
            if den != d1:
                f = den // d1
                a = [v * f for v in a]
        f = sign * (den // d2)
        if f != 1:
            c = [v * f for v in c]
        base = b1 if b1 <= b2 else b2
        step = math.gcd(s1, s2, b1 - b2)
        r1, r2 = s1 // step, s2 // step
        o1, o2 = (b1 - base) // step, (b2 - base) // step
        e1, e2 = o1 + (len(a) - 1) * r1 + 1, o2 + (len(c) - 1) * r2 + 1
        out = [0] * (e1 if e1 >= e2 else e2)
        out[o1:e1:r1] = a
        out[o2:e2:r2] = map(add, out[o2:e2:r2], c)
        s = _new(PuiseuxSeries)
        s._set(L, base, step, out, den, t)
        return s

    def __neg__(self) -> "PuiseuxSeries":
        s = _new(PuiseuxSeries)
        s._L, s._base, s._step, s._den = self._L, self._base, self._step, self._den
        s._coeffs = [-c for c in self._coeffs]
        s._trunc = self._trunc
        return s

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        L = self._L
        if other._L != L:
            L = math.lcm(L, other._L)
        base, sa, sb, t = _product_on(L, self, other)
        a, b = self._coeffs, other._coeffs
        s = _new(PuiseuxSeries)
        if not (a and b):
            s._set(L, 0, L, [], 1, t)
            return s
        step = sa if sa == sb else math.gcd(sa, sb)
        ra, rb = sa // step, sb // step
        n = (len(a) - 1) * ra + (len(b) - 1) * rb + 1
        if t != INF:
            # the lattice points base + k*step below t
            below = -((base - t) // step)
            if below < n:
                n = below if below > 0 else 0
        out = [0] * n
        _convolve(out, a, b, ra, rb)
        s._set(L, base, step, out, self._den * other._den, t)
        return s

    def product_residue(self, other: "PuiseuxSeries") -> Fraction:
        """``(self * other).coefficient(-1)``, from the one convolution sum
        that gives the 1/t coefficient instead of the whole product."""
        L = self._L if self._L == other._L else math.lcm(self._L, other._L)
        base, sa, sb, t = _product_on(L, self, other)
        if t != INF and t <= -L:
            raise InsufficientOrderError(
                f"residue unknowable at truncation t^{Fraction(t, L)}")
        a, b = self._coeffs, other._coeffs
        # the terms a[i] b[j] with base + i*sa + j*sb = -L
        s = 0
        rest = -L - base
        for x in a:
            if rest < 0:
                break
            j, r = divmod(rest, sb)
            if not r and j < len(b):
                s += x * b[j]
            rest -= sa
        return Fraction(s, self._den * other._den)

    def scale(self, k) -> "PuiseuxSeries":
        k = _rational(k)
        p = k.numerator
        s = _new(PuiseuxSeries)
        s._set(self._L, self._base, self._step, [c * p for c in self._coeffs],
               self._den * k.denominator, self._trunc)
        return s

    def truncate(self, t) -> "PuiseuxSeries":
        if t == INF:
            return self
        t = as_fraction(t)
        L = math.lcm(self._L, t.denominator)
        return self._cut(L, min(t.numerator * (L // t.denominator),
                                self._on(L)[2]))

    def _unit_length(self) -> Tuple[object, int]:
        """(rel, n): the relative order (over L) kept when expanding
        self / (c0 t^v) and how many lattice coefficients lie below it."""
        if self._trunc != INF:
            rel = self._trunc - self._base
            return rel, -(-rel // self._step)
        if len(self._coeffs) > 1:
            raise ValueError("exact series of several terms: truncate first")
        return INF, 1

    def invert(self) -> "PuiseuxSeries":
        """Multiplicative inverse, exact to the same relative order.

        d_0 = 1/c_0 and d_k = -(sum_{j>=1} c_j d_{k-j}) / c_0 on the lattice.
        """
        if not self._coeffs:
            raise ZeroDivisionSeriesError("inverting a series with no known term")
        v = self._base
        rel, n = self._unit_length()
        a = self._coeffs[:n]
        a0 = a[0]
        d: List[int] = []
        den = append_rational(d, 1, self._den, a0)
        for k in range(1, n):
            m = min(k, len(a) - 1)
            s = sum(map(mul, a[m:0:-1], d[k - m:k]))
            den = append_rational(d, den, -s, a0 * den)
        return PuiseuxSeries.from_dense(self._L, -v, self._step, d, den, rel - v)

    def sqrt(self) -> "PuiseuxSeries":
        """Square root; the leading coefficient must be the square of a
        rational.  The root of an odd leading exponent is half-integer, so
        the root lives on the lattice 1/(2L).

        w_0 = sqrt(c_0) and w_k = (c_k - sum_{0<j<k} w_j w_{k-j}) / (2 w_0).
        """
        if not self._coeffs:
            raise ZeroDivisionSeriesError("sqrt of a series with no known term")
        v = self._base
        rel, n = self._unit_length()
        a = self._coeffs[:n]
        c_den = self._den
        root = _sqrt_fraction(Fraction(a[0], c_den))
        w = [root.numerator]
        den = root.denominator
        for k in range(1, n):
            s = sum(map(mul, w[1:k], w[k - 1:0:-1]))
            ak = a[k] if k < len(a) else 0
            den = append_rational(
                w, den, (ak * den * den - c_den * s) * root.denominator,
                2 * c_den * den * den * root.numerator)
        return PuiseuxSeries.from_dense(2 * self._L, v, 2 * self._step, w, den,
                                        2 * rel + v)

    # -- conversions ----------------------------------------------------------

    def to_csv_rows(self) -> Iterable[str]:
        """Rows 'exponent,numerator,denominator', ascending exponents."""
        for e, c in self.terms():
            yield f"{e},{c.numerator},{c.denominator}"

    def __repr__(self) -> str:
        bits = []
        for e, c in self.terms():
            bits.append(f"({c})*t^({e})")
        tail = ("" if self._trunc == INF
                else f" + O(t^({self.truncation_order}))")
        body = " + ".join(bits) if bits else "0"
        return body + tail

