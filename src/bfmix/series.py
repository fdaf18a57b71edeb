"""Truncated Laurent/Puiseux series with exact rational coefficients.

A series is a finite set of terms ``c * t**e`` with exponents on a lattice
``base + step * ZZ`` plus a truncation order: exponents at or above the
truncation are unknown.  All arithmetic tracks how far the result can be
trusted, so a residue read off a series is either exact or raises.

Terms are stored densely: a base exponent, a lattice step and the integer
numerators of the coefficients at ``base + k * step`` over one common
denominator, so a product is an integer convolution followed by a single
reduction.  Only :meth:`PuiseuxSeries.evaluate` leaves the rationals, for
numeric cross-checks of the exact pipeline.
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

#: relative order used when expanding an exact (untruncated) unit, e.g. 1/(1+t)
DEFAULT_REL_ORDER = Fraction(16)

_ONE = Fraction(1)


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class ZeroDivisionSeriesError(SeriesError):
    """Inversion of a series that is zero to its truncation order."""


class FieldExtensionError(SeriesError, ValueError):
    """Exact sqrt would leave the rationals (non-square leading coefficient)."""


class InsufficientOrderError(SeriesError):
    """A requested coefficient lies at or beyond the truncation order."""


def _exp_add(a, b):
    if a == INF or b == INF:
        return INF
    return a + b


def _exp_min(a, b):
    if a == INF:
        return b
    if b == INF:
        return a
    return min(a, b)


def _as_exponent(e) -> Exponent:
    return e if isinstance(e, Fraction) else Fraction(e)


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

def _lattice_gcd(x: Fraction, y: Fraction) -> Fraction:
    """Largest step s with x and y both in s * ZZ (x, y >= 0)."""
    return Fraction(math.gcd(x.numerator * y.denominator,
                             y.numerator * x.denominator),
                    x.denominator * y.denominator)


def _ceil_div(span: Fraction, step: Fraction) -> int:
    return -((-span) // step)


def _count_below(n: int, base: Fraction, step: Fraction, trunc) -> int:
    """How many of the first n lattice points base + k*step lie below trunc."""
    if trunc == INF:
        return n
    return max(0, min(n, _ceil_div(trunc - base, step)))


def _spread(coeffs: list, r: int) -> list:
    """Coefficients re-gridded on a step r times finer."""
    if r == 1:
        return coeffs
    out = [0] * ((len(coeffs) - 1) * r + 1)
    out[::r] = coeffs
    return out


def _convolve(a: list, b: list, n: int) -> list:
    """First n coefficients of the product of the dense lists a and b."""
    la, lb = len(a), len(b)
    rb = b[::-1]
    out = []
    for k in range(n):
        lo = k - lb + 1 if k >= lb else 0
        hi = k + 1 if k < la else la
        out.append(sum(map(mul, a[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi])))
    return out


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


class PuiseuxSeries:
    """Immutable truncated Puiseux series with rational coefficients.

    The known terms are ``coeffs[k] / den * t**(base + k * step)`` with
    integer ``coeffs`` and ``den``; ``trunc`` is the first unknown exponent
    (may be :data:`INF` for exact polynomials).  The form is canonical --
    nonzero end coefficients, the coarsest step and a denominator sharing no
    factor with all the numerators -- so equal series have equal fields.
    """

    __slots__ = ("_base", "_step", "_coeffs", "_den", "_trunc")

    def __init__(self, terms: Dict[Exponent, Fraction], trunc=INF):
        if trunc != INF:
            trunc = _as_exponent(trunc)
        clean: Dict[Exponent, Fraction] = {}
        for e, c in terms.items():
            e = _as_exponent(e)
            c = Fraction(c)
            if c != 0 and (trunc == INF or e < trunc):
                clean[e] = clean.get(e, 0) + c
        values = {e: c for e, c in clean.items() if c != 0}
        base, step, den = Fraction(0), _ONE, 1
        coeffs: list = []
        if values:
            exps = sorted(values)
            base = exps[0]
            step = Fraction(0)
            for e in exps[1:]:
                step = _lattice_gcd(step, e - base)
            step = step or _ONE
            coeffs = [0] * (int((exps[-1] - base) / step) + 1)
            den = math.lcm(*(c.denominator for c in values.values()))
            for e, c in values.items():
                k = int((e - base) / step)
                coeffs[k] = c.numerator * (den // c.denominator)
        self._base, self._step, self._coeffs = base, step, coeffs
        self._den, self._trunc = den, trunc

    @classmethod
    def from_dense(cls, base: Fraction, step: Fraction, coeffs: List[int],
                   den: int, trunc) -> "PuiseuxSeries":
        """The series sum_k coeffs[k] / den * t**(base + k * step), cut below
        ``trunc``, from integer ``coeffs`` and a positive integer ``den``.
        Base, step and a finite trunc are Fractions."""
        n = _count_below(len(coeffs), base, step, trunc)
        while n and not coeffs[n - 1]:
            n -= 1
        i = 0
        while i < n and not coeffs[i]:
            i += 1
        if i == n:
            coeffs, base, step, den = [], Fraction(0), _ONE, 1
        else:
            if i or n < len(coeffs):
                coeffs = coeffs[i:n]
                base = base + i * step
            g = 0
            for k, c in enumerate(coeffs):
                if c:
                    g = math.gcd(g, k)
                    if g == 1:
                        break
            if g == 0:
                step = _ONE
            elif g > 1:
                coeffs = coeffs[::g]
                step = step * g
            if den != 1:
                g = math.gcd(den, *coeffs)
                if g != 1:
                    coeffs = [c // g for c in coeffs]
                    den //= g
        s = cls.__new__(cls)
        s._base, s._step, s._coeffs = base, step, coeffs
        s._den, s._trunc = den, trunc
        return s

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, trunc=INF) -> "PuiseuxSeries":
        return cls({}, trunc)

    @classmethod
    def constant(cls, c) -> "PuiseuxSeries":
        return cls({Q(0): c}, INF)

    @classmethod
    def monomial(cls, c, e) -> "PuiseuxSeries":
        return cls({_as_exponent(e): c}, INF)

    @classmethod
    def variable(cls) -> "PuiseuxSeries":
        return cls.monomial(1, 1)

    # -- basic observers ------------------------------------------------------

    @property
    def truncation_order(self):
        return self._trunc

    @property
    def is_zero(self) -> bool:
        """True when no term is known; the series may hide beyond trunc."""
        return not self._coeffs

    @property
    def base_exponent(self):
        """Leading exponent (valuation); trunc when the series shows no term."""
        return self._base if self._coeffs else self._trunc

    @property
    def ramification(self) -> int:
        """Smallest d with all stored exponents in (1/d)*ZZ."""
        d = 1
        for e, _ in self.terms():
            d = math.lcm(d, e.denominator)
        if self._trunc != INF:
            d = math.lcm(d, self._trunc.denominator)
        return d

    def terms(self) -> Iterator[Tuple[Exponent, Fraction]]:
        """(exponent, coefficient) of the nonzero terms, ascending."""
        b, s, L = self._integer_exponents()
        den = self._den
        return ((Fraction(b + k * s, L), Fraction(c, den))
                for k, c in enumerate(self._coeffs) if c)

    def _stored(self, e: Exponent) -> Fraction:
        k = (e - self._base) / self._step
        if k.denominator == 1 and 0 <= k < len(self._coeffs):
            c = self._coeffs[int(k)]
            if c:
                return Fraction(c, self._den)
        return Q(0)

    def coefficient(self, e) -> Fraction:
        """Exact coefficient of t**e; raises if e is not known at this order."""
        e = _as_exponent(e)
        if self._trunc != INF and e >= self._trunc:
            raise InsufficientOrderError(
                f"coefficient of t^{e} unknown (truncation t^{self._trunc})")
        return self._stored(e)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self._trunc == other._trunc
                and self._coeffs == other._coeffs and self._den == other._den
                and (not self._coeffs or (self._base == other._base
                                          and self._step == other._step)))

    def __hash__(self):
        return hash((self._trunc, tuple(self.terms())))

    def agrees_with(self, other: "PuiseuxSeries") -> bool:
        """Equality of all coefficients below the common truncation order."""
        t = _exp_min(self._trunc, other._trunc)
        return ({e: c for e, c in self.terms() if e < t}
                == {e: c for e, c in other.terms() if e < t})

    # -- ring operations ------------------------------------------------------

    def _cut(self, trunc) -> "PuiseuxSeries":
        if trunc == self._trunc:
            return self
        return PuiseuxSeries.from_dense(self._base, self._step, self._coeffs,
                                        self._den, trunc)

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        t = _exp_min(self._trunc, other._trunc)
        if not other._coeffs:
            return self._cut(t)
        if not self._coeffs:
            return other._cut(t)
        base = min(self._base, other._base)
        step = _lattice_gcd(_lattice_gcd(self._step, other._step),
                            abs(self._base - other._base))
        den = self._den if self._den == other._den \
            else math.lcm(self._den, other._den)
        placed = []
        for s in (self, other):
            vals = s._coeffs
            if s._den != den:
                f = den // s._den
                vals = [c * f for c in vals]
            r = int(s._step / step)
            off = int((s._base - base) / step)
            placed.append((off, off + (len(vals) - 1) * r + 1, r, vals))
        out = [0] * max(end for _, end, _, _ in placed)
        for off, end, r, vals in placed:
            out[off:end:r] = list(map(add, out[off:end:r], vals))
        return PuiseuxSeries.from_dense(base, step, out, den, t)

    def __neg__(self) -> "PuiseuxSeries":
        s = PuiseuxSeries.__new__(PuiseuxSeries)
        s._base, s._step, s._den = self._base, self._step, self._den
        s._coeffs = [-c for c in self._coeffs]
        s._trunc = self._trunc
        return s

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def _product_trunc(self, other: "PuiseuxSeries"):
        # each factor is exact below its trunc; the product is exact below
        # min(val_a + trunc_b, val_b + trunc_a)
        return _exp_min(_exp_add(self.base_exponent, other._trunc),
                        _exp_add(other.base_exponent, self._trunc))

    def _on_common_lattice(self, other: "PuiseuxSeries"):
        """(step, a, b): both coefficient lists re-gridded on one step."""
        step = _lattice_gcd(self._step, other._step)
        return (step, _spread(self._coeffs, int(self._step / step)),
                _spread(other._coeffs, int(other._step / step)))

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        t = self._product_trunc(other)
        if not (self._coeffs and other._coeffs):
            return PuiseuxSeries.zero(t)
        step, a, b = self._on_common_lattice(other)
        base = self._base + other._base
        n = _count_below(len(a) + len(b) - 1, base, step, t)
        return PuiseuxSeries.from_dense(base, step, _convolve(a, b, n),
                                        self._den * other._den, t)

    def product_residue(self, other: "PuiseuxSeries") -> Fraction:
        """``(self * other).residue()``, from the one convolution sum that
        gives the 1/t coefficient instead of the whole product."""
        t = self._product_trunc(other)
        if t != INF and t <= -1:
            raise InsufficientOrderError(
                f"residue unknowable at truncation t^{t}")
        if not (self._coeffs and other._coeffs):
            return Q(0)
        step, a, b = self._on_common_lattice(other)
        k = (-1 - self._base - other._base) / step
        if k.denominator != 1 or k < 0:
            return Q(0)
        k = int(k)
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        if lo > hi:
            return Q(0)
        s = sum(map(mul, a[lo:hi + 1], b[k - hi:k - lo + 1][::-1]))
        return Fraction(s, self._den * other._den)

    def scale(self, k) -> "PuiseuxSeries":
        k = Fraction(k)
        return PuiseuxSeries.from_dense(
            self._base, self._step, [c * k.numerator for c in self._coeffs],
            self._den * k.denominator, self._trunc)

    def shift(self, m) -> "PuiseuxSeries":
        """Multiply by t**m."""
        m = _as_exponent(m)
        s = PuiseuxSeries.__new__(PuiseuxSeries)
        s._base = self._base + m if self._coeffs else self._base
        s._step, s._coeffs, s._den = self._step, self._coeffs, self._den
        s._trunc = _exp_add(self._trunc, m)
        return s

    def truncate(self, t) -> "PuiseuxSeries":
        t = t if t == INF else _as_exponent(t)
        return self._cut(_exp_min(t, self._trunc))

    def pow(self, n: int) -> "PuiseuxSeries":
        if n < 0:
            return self.invert().pow(-n)
        result = PuiseuxSeries.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    __pow__ = pow

    def _unit_length(self) -> Tuple[object, int]:
        """(rel, n): the relative order kept when expanding self / (c0 t^v)
        and how many lattice coefficients lie below it."""
        rel = INF if self._trunc == INF else self._trunc - self._base
        if rel == INF and len(self._coeffs) > 1:
            rel = DEFAULT_REL_ORDER
        return rel, (1 if rel == INF else _ceil_div(rel, self._step))

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
        return PuiseuxSeries.from_dense(-v, self._step, d, den, _exp_add(rel, -v))

    def sqrt(self) -> "PuiseuxSeries":
        """Square root; the leading coefficient must be the square of a
        rational.  The root of an odd leading exponent is half-integer.

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
        return PuiseuxSeries.from_dense(v / 2, self._step, w, den,
                                        _exp_add(rel, v / 2))

    # -- calculus -------------------------------------------------------------

    def _integer_exponents(self) -> Tuple[int, int, int]:
        """(b, s, L) with base = b / L and step = s / L."""
        L = math.lcm(self._base.denominator, self._step.denominator)
        return int(self._base * L), int(self._step * L), L

    def differentiate(self) -> "PuiseuxSeries":
        b, s, L = self._integer_exponents()
        out = [c * (b + k * s) for k, c in enumerate(self._coeffs)]
        return PuiseuxSeries.from_dense(self._base - 1, self._step, out,
                                        self._den * L, _exp_add(self._trunc, -1))

    def antiderivative(self) -> "LogSeries":
        """Termwise primitive with zero constants; the 1/t term feeds log t,
        so the truncation must lie above t^-1."""
        if self._trunc != INF and self._trunc <= -1:
            raise InsufficientOrderError(
                f"log coefficient unknowable at truncation t^{self._trunc}")
        logc = Q(0)
        b, s, L = self._integer_exponents()
        coeffs = list(self._coeffs)
        for k, c in enumerate(coeffs):
            if c and b + k * s == -L:
                logc = Fraction(c, self._den)
                coeffs[k] = 0
        # c_k / (e_k + 1) with e_k + 1 = m_k / L
        ms = [b + L + k * s for k in range(len(coeffs))]
        m_lcm = math.lcm(*(m for m, c in zip(ms, coeffs) if c))
        out = [c * L * (m_lcm // m) if c else 0 for m, c in zip(ms, coeffs)]
        regular = PuiseuxSeries.from_dense(self._base + 1, self._step, out,
                                           self._den * m_lcm,
                                           _exp_add(self._trunc, 1))
        return LogSeries(regular, logc)

    def residue(self) -> Fraction:
        """Coefficient of 1/t (0 when the lattice misses it); needs trunc > -1."""
        if self._trunc != INF and self._trunc <= -1:
            raise InsufficientOrderError(
                f"residue unknowable at truncation t^{self._trunc}")
        return self._stored(Q(-1))

    # -- conversions ----------------------------------------------------------

    def evaluate(self, t: complex) -> complex:
        """Floating-point value of the known terms at ``t``, fractional powers
        on the principal branch."""
        b, s, L = self._integer_exponents()
        t = complex(t)
        den = self._den
        total = 0j
        for k, c in enumerate(self._coeffs):
            if c:
                total += complex(c / den) * t ** ((b + k * s) / L)
        return total

    def to_csv_rows(self) -> Iterable[str]:
        """Rows 'exponent,numerator,denominator', ascending exponents."""
        for e, c in self.terms():
            yield f"{e},{c.numerator},{c.denominator}"

    def __repr__(self) -> str:
        bits = []
        for e, c in self.terms():
            bits.append(f"({c})*t^({e})")
        tail = "" if self._trunc == INF else f" + O(t^({self._trunc}))"
        body = " + ".join(bits) if bits else "0"
        return body + tail


class LogSeries:
    """A Puiseux series plus a multiple of log t (from integrating 1/t)."""

    __slots__ = ("regular", "log_coefficient")

    def __init__(self, regular: PuiseuxSeries, log_coefficient: Fraction):
        self.regular = regular
        self.log_coefficient = log_coefficient

    @property
    def has_log(self) -> bool:
        return self.log_coefficient != 0

    def __repr__(self) -> str:
        if not self.has_log:
            return repr(self.regular)
        return f"{self.regular!r} + ({self.log_coefficient})*log(t)"
