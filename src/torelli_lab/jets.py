"""Exact Laurent polynomials modulo ``t**2`` for the residue verifier.

A :class:`JetSeries` is a finite Laurent polynomial ``c0(q) + t*c1(q)`` in a
local coordinate ``q``, carrying a first-order deformation parameter ``t``
that is truncated structurally modulo ``t**2``.  Nothing else is truncated:
every series of the residue chain is a finite Laurent polynomial, since the
branch ``v = q*(1 - t q^-2)^(1/2)`` is exactly ``q - (t/2) q^-1`` mod
``t**2``, so sums and products are exact at every exponent.  Coefficients
live on ``_ExactCore``, the one exact core that ``plumbing.JetCoefficients``
shares: one integer numerator per key over one positive common denominator
in lowest terms, with one equality, sum and rational scaling.  A series
keys its monomial ``t**k * q**e`` as ``(e, k)``, so the truncation modulo
``t**2`` is one comparison in a product, ``ka + kb <= 1``.  So the
arithmetic runs on ints and ``Fraction`` appears only at the boundary: the
constructor takes ints and Fractions, and ``coefficient``, ``terms`` and
``repr`` give Fractions back.  Every operation is pure and exact; floats
and strings are rejected, and so is a key that is not an integer.
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


class _ExactCore:
    """Immutable exact values held as integer numerators over one
    denominator.

    ``_num`` maps a key to its integer numerator over the common
    denominator ``_den > 0``.  Absent keys are zero, and the form is
    canonical: no stored numerator is 0, ``gcd(_den, every numerator) ==
    1``, and ``_den == 1`` for zero.  Values of two different classes are
    never equal and do not add.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, values):
        """The value of ``values = {key: c}`` with int or Fraction ``c``."""
        # the lcm of reduced denominators leaves the numerators in lowest terms
        den = lcm(*(c.denominator for c in values.values()))
        self._init({key: c.numerator * (den // c.denominator)
                    for key, c in values.items() if c}, den)

    def _init(self, num, den):
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _reduced(cls, acc, den):
        """The value of integer numerators ``acc`` over ``den > 0``, with
        zeros dropped and put in lowest terms."""
        return cls._lowest({key: n for key, n in acc.items() if n}, den)

    @classmethod
    def _lowest(cls, num, den):
        """The value of nonzero integer numerators ``num`` over ``den > 0``,
        put in lowest terms by one gcd over the denominator and
        numerators."""
        g = den
        for n in num.values():
            g = gcd(g, n)
            if g == 1:
                break
        else:
            # g divides everything; for zero g == den
            num = {key: n // g for key, n in num.items()}
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
        acc = {key: f * n for key, n in self._num.items()}
        f = den // other._den
        for key, n in other._num.items():
            acc[key] = acc.get(key, 0) + f * n
        return self._result(other, self._reduced(acc, den))

    def scale(self, factor):
        """Multiply by an exact rational scalar."""
        f = _rat(factor)
        p = f.numerator
        # a nonzero multiple has no zero numerator
        num = {key: p * n for key, n in self._num.items()} if p else {}
        return self._result(self, self._lowest(num, self._den * f.denominator))


class JetSeries(_ExactCore):
    """Immutable exact Laurent polynomial ``c0(q) + t*c1(q)`` modulo ``t**2``.

    ``_num`` maps the monomial ``t**k * q**e`` as the key ``(e, k)``, with
    ``k`` 0 or 1, to its numerator over ``_den``, in the canonical form of
    ``_ExactCore``.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        values = {}
        for e, value in (terms or {}).items():
            e = operator.index(e)
            c0, c1 = value if isinstance(value, tuple) else (value, 0)
            values[(e, 0)], values[(e, 1)] = _rat(c0), _rat(c1)
        super().__init__(values)

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
        num, d = self._num, self._den
        return [(e, Fraction(num.get((e, 0), 0), d),
                 Fraction(num.get((e, 1), 0), d))
                for e in sorted({e for e, _ in num})]

    def coefficient(self, exponent: int, t_order: int) -> Fraction:
        """Exact coefficient of ``q**exponent * t**t_order`` (zero if absent)."""
        if t_order not in (0, 1):
            raise ValueError("t_order must be 0 or 1")
        return Fraction(self._num.get((exponent, t_order), 0), self._den)

    def t_component(self, t_order: int) -> "JetSeries":
        """The pure-q series holding the ``t**t_order`` coefficients."""
        if t_order not in (0, 1):
            raise ValueError("t_order must be 0 or 1")
        return self._lowest({(e, 0): n for (e, k), n in self._num.items()
                             if k == t_order}, self._den)

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
        for (ea, ka), a in self._num.items():
            for (eb, kb), b in other._num.items():
                if ka + kb <= 1:
                    key = (ea + eb, ka + kb)
                    acc[key] = acc.get(key, 0) + a * b
        return self._reduced(acc, self._den * other._den)

    # ---- the two special inverses used by the residue chain -------------

    def sqrt_one_minus(self) -> "JetSeries":
        """For ``u`` with zero t^0 part, the exact root ``s`` of ``s*s = 1 - u``.

        Modulo ``t**2`` this is ``1 - u/2``; a nonzero t^0 part is rejected
        because general square roots are out of scope.
        """
        for (e, k), n in self._num.items():
            if k == 0:
                raise ValueError(
                    "sqrt_one_minus needs an argument with zero t^0 part "
                    f"(found coefficient {Fraction(n, self._den)} at "
                    f"exponent {e})")
        # 1 - u/2 over the denominator 2*den
        den = 2 * self._den
        num = {key: -n for key, n in self._num.items()}
        num[(0, 0)] = den
        return self._lowest(num, den)

    def invert_unit(self) -> "JetSeries":
        """Inverse of a series whose t^0 part is a single monomial.

        ``c*q**e + t*p(q)`` inverts to ``q**-e/c - t*p(q)*q**-2e/c**2``
        modulo ``t**2``.  Needed for the ``v**(n-1)`` factor at ``n = 0``.
        """
        base = [(e, n) for (e, k), n in self._num.items() if k == 0]
        if len(base) != 1:
            raise ValueError("invert_unit needs a single-monomial t^0 part")
        # with c = n/d: 1/c = d*n / n**2 and -c1/c**2 = -n1*d / n**2
        e0, n = base[0]
        d = self._den
        num = {(-e0, 0): d * n}
        for (e, k), n1 in self._num.items():
            if k == 1:
                num[(e - 2 * e0, 1)] = -n1 * d
        return self._lowest(num, n * n)
