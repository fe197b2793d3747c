"""Exact truncated Laurent series for the residue verifier.

A :class:`JetSeries` is a Laurent series ``c0(q) + t*c1(q)`` in a local
coordinate ``q``, carrying a first-order deformation parameter ``t`` that is
truncated structurally modulo ``t**2``.  Coefficients are exact rationals,
held as integer numerators over one positive common denominator in lowest
terms, so the arithmetic runs on ints and ``Fraction`` appears only at the
boundary: the constructor takes ints and Fractions (``from_numerators`` and
``linear_combination`` take integer numerators over one denominator), and
``coefficient``, ``terms`` and ``repr`` give Fractions back.  Exponents are
confined to a hard window ``[low_cut, high_cut]``; exponents outside the
window are truncated silently unless the caller marks them as significant.
Every operation is pure and exact; floats are rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import TorelliLabError

DEFAULT_LOW_CUT = -8
DEFAULT_HIGH_CUT = 12


class WindowError(TorelliLabError):
    """Incompatible exponent windows, or an access outside the window."""


class WindowUnderflowError(WindowError):
    """A coefficient marked significant fell below ``low_cut``."""


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, complex)):
        raise TypeError("JetSeries arithmetic is exact; floats are not allowed")
    return Fraction(value)


def _check_window(exponents, low_cut, high_cut) -> None:
    """``WindowError`` for an empty window or an exponent outside it."""
    if low_cut > high_cut:
        raise WindowError(f"empty window [{low_cut}, {high_cut}]")
    for e in exponents:
        if e < low_cut or e > high_cut:
            raise WindowError(
                f"exponent {e} outside window [{low_cut}, {high_cut}]")


def _positive_int(den) -> int:
    if not isinstance(den, int):
        raise TypeError("a JetSeries denominator is an int")
    if den < 1:
        raise ValueError(f"a JetSeries denominator is positive, got {den}")
    return den


def _pair(value):
    if isinstance(value, tuple):
        c0, c1 = value
        return _rat(c0), _rat(c1)
    return _rat(value), Fraction(0)


class JetSeries:
    """Immutable exact series ``c0(q) + t*c1(q)`` modulo ``t**2``.

    ``_num`` maps an exponent ``e`` of ``q`` to the integer numerators
    ``(n0, n1)`` of ``(c0, c1)`` over the common denominator ``_den > 0``.
    Absent exponents are zero, and the form is canonical: no stored pair is
    ``(0, 0)``, ``gcd(_den, every numerator) == 1``, and ``_den == 1`` for
    the zero series.  Construction rejects terms outside the window;
    arithmetic truncates instead (silently above ``high_cut``, and below
    ``low_cut`` unless ``strict_low`` is requested).
    """

    __slots__ = ("low_cut", "high_cut", "_num", "_den")

    def __init__(self, terms=None, low_cut: int = DEFAULT_LOW_CUT,
                 high_cut: int = DEFAULT_HIGH_CUT):
        terms = {int(e): value for e, value in (terms or {}).items()}
        _check_window(terms, low_cut, high_cut)
        pairs = {}
        for e, value in terms.items():
            c0, c1 = _pair(value)
            if c0 or c1:
                pairs[e] = (c0, c1)
        # the lcm of reduced denominators leaves the numerators in lowest terms
        den = lcm(*(c.denominator for pair in pairs.values() for c in pair))
        num = {e: (c0.numerator * (den // c0.denominator),
                   c1.numerator * (den // c1.denominator))
               for e, (c0, c1) in pairs.items()}
        self._init(num, den, int(low_cut), int(high_cut))

    def _init(self, num, den, low_cut, high_cut):
        object.__setattr__(self, "low_cut", low_cut)
        object.__setattr__(self, "high_cut", high_cut)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _reduced(cls, num, den, low_cut, high_cut) -> "JetSeries":
        """The series ``num / den`` for ``den > 0`` and nonzero pairs, put
        in lowest terms by one gcd over the denominator and numerators."""
        g = den
        for n0, n1 in num.values():
            g = gcd(g, n0, n1)
            if g == 1:
                break
        else:
            # g divides everything; for the zero series g == den
            num = {e: (n0 // g, n1 // g) for e, (n0, n1) in num.items()}
            den //= g
        out = object.__new__(cls)
        out._init(num, den, low_cut, high_cut)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("JetSeries is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, low_cut: int = DEFAULT_LOW_CUT,
             high_cut: int = DEFAULT_HIGH_CUT) -> "JetSeries":
        return cls({}, low_cut, high_cut)

    @classmethod
    def one(cls, low_cut: int = DEFAULT_LOW_CUT,
            high_cut: int = DEFAULT_HIGH_CUT) -> "JetSeries":
        return cls({0: 1}, low_cut, high_cut)

    @classmethod
    def monomial(cls, exponent: int, c0=0, c1=0,
                 low_cut: int = DEFAULT_LOW_CUT,
                 high_cut: int = DEFAULT_HIGH_CUT) -> "JetSeries":
        """The single term ``(c0 + t*c1) * q**exponent``."""
        return cls({exponent: (c0, c1)}, low_cut, high_cut)

    @classmethod
    def from_numerators(cls, num, den: int, low_cut: int, high_cut: int
                        ) -> "JetSeries":
        """The series ``sum (n0 + t*n1) / den * q**e`` over the integer
        pairs ``num[e] = (n0, n1)``, for an integer ``den > 0``.

        The constructor on integers: an exponent outside the window is a
        :class:`WindowError` even where its pair is zero, and the result
        is put in lowest terms by one gcd pass.
        """
        _check_window(num, low_cut, high_cut)
        kept = {}
        for e, (n0, n1) in num.items():
            if not (isinstance(n0, int) and isinstance(n1, int)):
                raise TypeError("JetSeries numerators are ints")
            if n0 or n1:
                kept[e] = (n0, n1)
        return cls._reduced(kept, _positive_int(den), low_cut, high_cut)

    @classmethod
    def linear_combination(cls, parts, den: int, low_cut: int, high_cut: int
                           ) -> "JetSeries":
        """``sum (n / den) * q**k * series`` over ``(n, k, series)`` parts
        with integer ``n`` and one integer ``den > 0``, accumulated in one
        pass over one common denominator.

        Equal to adding up ``series.shift(k).scale(Fraction(n, den))`` for
        series on the window ``[low_cut, high_cut]``: shifted exponents
        outside the window are dropped as :meth:`shift` drops them, zero
        numerators and zero series contribute nothing, and terms that
        cancel are not stored.
        """
        # (numerator, series denominator, shift, numerators) of each part
        ints = []
        for n, k, series in parts:
            if not isinstance(n, int):
                raise TypeError("linear_combination takes integer numerators")
            if n and series._num:
                ints.append((n, series._den, k, series._num))
        common = lcm(*[d for _, d, _, _ in ints])
        acc = {}
        for n, d, k, num in ints:
            f = n * (common // d)
            for e, (n0, n1) in num.items():
                e += k
                a0, a1 = acc.get(e, (0, 0))
                acc[e] = (a0 + f * n0, a1 + f * n1)
        return cls._build(acc, _positive_int(den) * common, low_cut, high_cut,
                          strict_low=False)

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
        if exponent < self.low_cut or exponent > self.high_cut:
            raise WindowError(
                f"exponent {exponent} outside window "
                f"[{self.low_cut}, {self.high_cut}]")
        return Fraction(self._num.get(exponent, (0, 0))[t_order], self._den)

    def t_component(self, t_order: int) -> "JetSeries":
        """The pure-q series holding the ``t**t_order`` coefficients."""
        if t_order not in (0, 1):
            raise ValueError("t_order must be 0 or 1")
        num = {e: (c[t_order], 0) for e, c in self._num.items() if c[t_order]}
        return self._reduced(num, self._den, self.low_cut, self.high_cut)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetSeries):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

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

    # ---- window plumbing ----------------------------------------------

    def _merged_window(self, other: "JetSeries"):
        low = max(self.low_cut, other.low_cut)
        high = min(self.high_cut, other.high_cut)
        if low > high:
            raise WindowError("disjoint exponent windows")
        return low, high

    @classmethod
    def _build(cls, acc, den, low, high, strict_low) -> "JetSeries":
        """The series of numerators ``acc`` over ``den``, truncated to the
        window ``[low, high]`` and put in lowest terms."""
        kept = {}
        for e, (n0, n1) in acc.items():
            if not (n0 or n1):
                continue
            if e > high:
                continue
            if e < low:
                if strict_low:
                    raise WindowUnderflowError(
                        f"nonzero coefficient at exponent {e} below "
                        f"low_cut {low}")
                continue
            kept[e] = (n0, n1)
        return cls._reduced(kept, den, low, high)

    # ---- ring operations ------------------------------------------------

    def __add__(self, other: "JetSeries") -> "JetSeries":
        if not isinstance(other, JetSeries):
            return NotImplemented
        low, high = self._merged_window(other)
        den = lcm(self._den, other._den)
        acc = {}
        for src, f in ((self, den // self._den), (other, den // other._den)):
            for e, (n0, n1) in src._num.items():
                a0, a1 = acc.get(e, (0, 0))
                acc[e] = (a0 + f * n0, a1 + f * n1)
        return self._build(acc, den, low, high, strict_low=False)

    def __neg__(self) -> "JetSeries":
        out = object.__new__(JetSeries)
        out._init({e: (-n0, -n1) for e, (n0, n1) in self._num.items()},
                  self._den, self.low_cut, self.high_cut)
        return out

    def __sub__(self, other: "JetSeries") -> "JetSeries":
        if not isinstance(other, JetSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "JetSeries":
        """Multiply by an exact rational scalar."""
        f = _rat(factor)
        p = f.numerator
        num = ({e: (p * n0, p * n1) for e, (n0, n1) in self._num.items()}
               if p else {})
        return self._reduced(num, self._den * f.denominator,
                             self.low_cut, self.high_cut)

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def mul(self, other: "JetSeries", strict_low: bool = False) -> "JetSeries":
        """Exact product modulo ``t**2`` with window truncation.

        With ``strict_low`` a nonzero product term below ``low_cut`` raises
        :class:`WindowUnderflowError` instead of being discarded.
        """
        if not isinstance(other, JetSeries):
            raise TypeError("can only multiply JetSeries by JetSeries")
        low, high = self._merged_window(other)
        acc = {}
        for ea, (a0, a1) in self._num.items():
            for eb, (b0, b1) in other._num.items():
                e = ea + eb
                p0, p1 = acc.get(e, (0, 0))
                acc[e] = (p0 + a0 * b0, p1 + a0 * b1 + a1 * b0)
        return self._build(acc, self._den * other._den, low, high, strict_low)

    def __mul__(self, other):
        if isinstance(other, JetSeries):
            return self.mul(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def shift(self, k: int, strict_low: bool = False) -> "JetSeries":
        """Multiply by ``q**k`` (window truncation as in :meth:`mul`)."""
        acc = {e + k: c for e, c in self._num.items()}
        return self._build(acc, self._den, self.low_cut, self.high_cut,
                           strict_low)

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
        if self.low_cut > 0 or self.high_cut < 0:
            raise WindowError("window must contain exponent 0 for the unit term")
        # 1 - u/2 over the denominator 2*den
        den = 2 * self._den
        acc = {e: (0, -n1) for e, (_, n1) in self._num.items()}
        acc[0] = (den, acc.get(0, (0, 0))[1])
        return self._build(acc, den, self.low_cut, self.high_cut,
                           strict_low=False)

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
        return self._build(acc, n * n, self.low_cut, self.high_cut,
                           strict_low=False)
