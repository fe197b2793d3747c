"""Exact Laurent polynomials modulo ``t**2`` for the residue verifier.

A :class:`JetSeries` is a finite Laurent polynomial ``c0(q) + t*c1(q)`` in a
local coordinate ``q``, carrying a first-order deformation parameter ``t``
that is truncated structurally modulo ``t**2``.  Nothing else is truncated:
every series of the residue chain is a finite Laurent polynomial, since the
branch ``v = q*(1 - t q^-2)^(1/2)`` is exactly ``q - (t/2) q^-1`` mod
``t**2``, so sums and products are exact at every exponent.  Coefficients
live on ``_ExactCore``, the one exact core that ``plumbing.JetCoefficients``
shares: integer numerators over one positive common denominator in lowest
terms, with one equality, sum and rational scaling.  So the arithmetic runs
on ints and ``Fraction`` appears only at the boundary: the constructor
takes ints and Fractions, and ``coefficient``, ``terms`` and ``repr`` give
Fractions back.  Every operation is pure and exact; floats and strings are
rejected, and so is a key that is not an integer.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm


def _rat(value):
    """``value`` as an exact rational; an int or a Fraction is kept as is."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, (float, complex, str)):
        raise TypeError("jet arithmetic is exact; floats and strings are "
                        "not allowed")
    return Fraction(value)


def _pair(value):
    c0, c1 = value if isinstance(value, tuple) else (value, 0)
    return _rat(c0), _rat(c1)


class _ExactCore:
    """Immutable exact values held as integer numerators over one
    denominator.

    ``_num`` maps a key to the integer numerators ``(n0, n1)`` over the
    common denominator ``_den > 0``.  Absent keys are zero, and the form is
    canonical: no stored pair is ``(0, 0)``, ``gcd(_den, every numerator)
    == 1``, and ``_den == 1`` for zero.  Values of two different classes
    are never equal and do not add.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, pairs):
        """The value of ``pairs = {key: (c0, c1)}`` with int or Fraction
        ``c0`` and ``c1``."""
        # the lcm of reduced denominators leaves the numerators in lowest terms
        den = lcm(*(c.denominator for pair in pairs.values() for c in pair))
        self._init({key: (c0.numerator * (den // c0.denominator),
                          c1.numerator * (den // c1.denominator))
                    for key, (c0, c1) in pairs.items() if c0 or c1}, den)

    def _init(self, num, den):
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _reduced(cls, acc, den):
        """The value of integer pairs ``acc`` over ``den > 0``, with zero
        pairs dropped and put in lowest terms."""
        return cls._lowest(
            {key: pair for key, pair in acc.items() if pair[0] or pair[1]}, den)

    @classmethod
    def _lowest(cls, num, den):
        """The value of integer pairs ``num``, none of them ``(0, 0)``, over
        ``den > 0``, put in lowest terms by one gcd over the denominator and
        numerators."""
        g = den
        for n0, n1 in num.values():
            g = gcd(g, n0, n1)
            if g == 1:
                break
        else:
            # g divides everything; for zero g == den
            num = {key: (n0 // g, n1 // g) for key, (n0, n1) in num.items()}
            den //= g
        out = object.__new__(cls)
        out._init(num, den)
        return out

    def _result(self, other, out):
        """``out`` as the sum of ``self`` and ``other`` (a multiple when
        ``other is self``); a subclass sets its own state here."""
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        den = lcm(self._den, other._den)
        f = den // self._den
        acc = {key: (f * n0, f * n1) for key, (n0, n1) in self._num.items()}
        f = den // other._den
        for key, (n0, n1) in other._num.items():
            a0, a1 = acc.get(key, (0, 0))
            acc[key] = (a0 + f * n0, a1 + f * n1)
        return self._result(other, self._reduced(acc, den))

    def scale(self, factor):
        """Multiply by an exact rational scalar."""
        f = _rat(factor)
        p = f.numerator
        # a nonzero multiple has no zero pair
        num = ({key: (p * n0, p * n1) for key, (n0, n1) in self._num.items()}
               if p else {})
        return self._result(self, self._lowest(num, self._den * f.denominator))


class JetSeries(_ExactCore):
    """Immutable exact Laurent polynomial ``c0(q) + t*c1(q)`` modulo ``t**2``.

    ``_num`` maps an exponent ``e`` of ``q`` to the numerators ``(n0, n1)``
    of ``(c0, c1)`` over ``_den``, in the canonical form of ``_ExactCore``.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__({operator.index(e): _pair(value)
                          for e, value in (terms or {}).items()})

    # ---- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "JetSeries":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, c0=0, c1=0) -> "JetSeries":
        """The single term ``(c0 + t*c1) * q**exponent``."""
        return cls({exponent: (c0, c1)})

    # ---- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def terms(self):
        """Stored terms as a sorted list ``[(e, c0, c1), ...]`` of Fractions."""
        d = self._den
        return [(e, Fraction(n0, d), Fraction(n1, d))
                for e, (n0, n1) in sorted(self._num.items())]

    def coefficient(self, exponent: int, t_order: int) -> Fraction:
        """Exact coefficient of ``q**exponent * t**t_order`` (zero if absent)."""
        if t_order not in (0, 1):
            raise ValueError("t_order must be 0 or 1")
        return Fraction(self._num.get(exponent, (0, 0))[t_order], self._den)

    def t_component(self, t_order: int) -> "JetSeries":
        """The pure-q series holding the ``t**t_order`` coefficients."""
        if t_order not in (0, 1):
            raise ValueError("t_order must be 0 or 1")
        return self._reduced({e: (c[t_order], 0) for e, c in self._num.items()},
                             self._den)

    def __repr__(self):
        if self.is_zero:
            return "JetSeries(0)"
        bits = []
        for e, c0, c1 in self.terms():
            if c0:
                bits.append(f"({c0})q^{e}")
            if c1:
                bits.append(f"({c1})t q^{e}")
        return "JetSeries(" + " + ".join(bits) + ")"

    # ---- ring operations ------------------------------------------------

    def __neg__(self) -> "JetSeries":
        return self.scale(-1)

    def __sub__(self, other: "JetSeries") -> "JetSeries":
        if not isinstance(other, JetSeries):
            return NotImplemented
        return self + (-other)

    def mul(self, other: "JetSeries") -> "JetSeries":
        """Exact product modulo ``t**2``."""
        if not isinstance(other, JetSeries):
            raise TypeError("can only multiply JetSeries by JetSeries")
        acc = {}
        for ea, (a0, a1) in self._num.items():
            for eb, (b0, b1) in other._num.items():
                e = ea + eb
                p0, p1 = acc.get(e, (0, 0))
                acc[e] = (p0 + a0 * b0, p1 + a0 * b1 + a1 * b0)
        return self._reduced(acc, self._den * other._den)

    # ---- the two special inverses used by the residue chain -------------

    def sqrt_one_minus(self) -> "JetSeries":
        """For ``u`` with zero t^0 part, the exact root ``s`` of ``s*s = 1 - u``.

        Modulo ``t**2`` this is ``1 - u/2``; a nonzero t^0 part is rejected
        because general square roots are out of scope.
        """
        for e, (n0, _) in self._num.items():
            if n0:
                raise ValueError(
                    "sqrt_one_minus needs an argument with zero t^0 part "
                    f"(found coefficient {Fraction(n0, self._den)} at "
                    f"exponent {e})")
        # 1 - u/2 over the denominator 2*den
        den = 2 * self._den
        acc = {e: (0, -n1) for e, (_, n1) in self._num.items()}
        acc[0] = (den, acc.get(0, (0, 0))[1])
        return self._reduced(acc, den)

    def invert_unit(self) -> "JetSeries":
        """Inverse of a series whose t^0 part is a single monomial.

        ``c*q**e + t*p(q)`` inverts to ``q**-e/c - t*p(q)*q**-2e/c**2``
        modulo ``t**2``.  Needed for the ``v**(n-1)`` factor at ``n = 0``.
        """
        base = [(e, n0) for e, (n0, _) in self._num.items() if n0]
        if len(base) != 1:
            raise ValueError("invert_unit needs a single-monomial t^0 part")
        # with c = n/d: 1/c = d*n / n**2 and -c1/c**2 = -n1*d / n**2
        e0, n = base[0]
        d = self._den
        acc = {-e0: (d * n, 0)}
        for e, (_, n1) in self._num.items():
            if n1:
                k = e - 2 * e0
                p0, p1 = acc.get(k, (0, 0))
                acc[k] = (p0, p1 - n1 * d)
        return self._reduced(acc, n * n)
