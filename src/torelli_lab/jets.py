"""Exact truncated Laurent series for the residue verifier.

A :class:`JetSeries` is a Laurent series ``c0(q) + t*c1(q)`` in a local
coordinate ``q``, carrying a first-order deformation parameter ``t`` that is
truncated structurally modulo ``t**2``.  Coefficients are exact rationals and
exponents are confined to a hard window ``[low_cut, high_cut]``; exponents
outside the window are truncated silently unless the caller marks them as
significant.  Every operation is pure and exact; floats are rejected.
"""

from __future__ import annotations

from fractions import Fraction

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


def _pair(value):
    if isinstance(value, tuple):
        c0, c1 = value
        return _rat(c0), _rat(c1)
    return _rat(value), Fraction(0)


class JetSeries:
    """Immutable exact series ``c0(q) + t*c1(q)`` modulo ``t**2``.

    ``terms`` maps an exponent ``e`` of ``q`` to the pair ``(c0, c1)``.
    Absent exponents are zero.  Construction rejects terms outside the
    window; arithmetic truncates instead (silently above ``high_cut``,
    and below ``low_cut`` unless ``strict_low`` is requested).
    """

    __slots__ = ("low_cut", "high_cut", "_terms")

    def __init__(self, terms=None, low_cut: int = DEFAULT_LOW_CUT,
                 high_cut: int = DEFAULT_HIGH_CUT):
        if low_cut > high_cut:
            raise WindowError(f"empty window [{low_cut}, {high_cut}]")
        object.__setattr__(self, "low_cut", int(low_cut))
        object.__setattr__(self, "high_cut", int(high_cut))
        clean = {}
        for e, value in (terms or {}).items():
            e = int(e)
            if e < self.low_cut or e > self.high_cut:
                raise WindowError(
                    f"exponent {e} outside window [{low_cut}, {high_cut}]")
            c0, c1 = _pair(value)
            if c0 or c1:
                clean[e] = (c0, c1)
        object.__setattr__(self, "_terms", clean)

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
    def linear_combination(cls, parts, low_cut: int, high_cut: int
                           ) -> "JetSeries":
        """``sum coeff * q**k * series`` over ``(coeff, k, series)`` parts,
        accumulated in one pass.

        Equal to adding up ``series.shift(k).scale(coeff)`` for series on
        the window ``[low_cut, high_cut]``: shifted exponents outside the
        window are dropped as :meth:`shift` drops them, and terms that
        cancel are not stored.
        """
        acc = {}
        for coeff, k, series in parts:
            for e, (c0, c1) in series._terms.items():
                e += k
                if low_cut <= e <= high_cut:
                    a0, a1 = acc.get(e, (0, 0))
                    acc[e] = (a0 + coeff * c0, a1 + coeff * c1)
        return cls(acc, low_cut, high_cut)

    # ---- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Stored terms as a sorted list ``[(e, c0, c1), ...]``."""
        return [(e, c[0], c[1]) for e, c in sorted(self._terms.items())]

    def coefficient(self, exponent: int, t_order: int) -> Fraction:
        """Exact coefficient of ``q**exponent * t**t_order`` (zero if absent)."""
        if t_order not in (0, 1):
            raise ValueError("t_order must be 0 or 1")
        if exponent < self.low_cut or exponent > self.high_cut:
            raise WindowError(
                f"exponent {exponent} outside window "
                f"[{self.low_cut}, {self.high_cut}]")
        return self._terms.get(exponent, (Fraction(0), Fraction(0)))[t_order]

    def t_component(self, t_order: int) -> "JetSeries":
        """The pure-q series holding the ``t**t_order`` coefficients."""
        if t_order not in (0, 1):
            raise ValueError("t_order must be 0 or 1")
        return JetSeries({e: c[t_order] for e, c in self._terms.items()},
                         self.low_cut, self.high_cut)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetSeries):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "JetSeries(0)"
        bits = []
        for e, (c0, c1) in sorted(self._terms.items()):
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

    def _build(self, acc, low, high, strict_low):
        kept = {}
        for e, (c0, c1) in acc.items():
            if not (c0 or c1):
                continue
            if e > high:
                continue
            if e < low:
                if strict_low:
                    raise WindowUnderflowError(
                        f"nonzero coefficient at exponent {e} below "
                        f"low_cut {low}")
                continue
            kept[e] = (c0, c1)
        return JetSeries(kept, low, high)

    # ---- ring operations ------------------------------------------------

    def __add__(self, other: "JetSeries") -> "JetSeries":
        if not isinstance(other, JetSeries):
            return NotImplemented
        low, high = self._merged_window(other)
        acc = {}
        for src in (self._terms, other._terms):
            for e, (c0, c1) in src.items():
                a0, a1 = acc.get(e, (Fraction(0), Fraction(0)))
                acc[e] = (a0 + c0, a1 + c1)
        return self._build(acc, low, high, strict_low=False)

    def __neg__(self) -> "JetSeries":
        return JetSeries({e: (-c0, -c1) for e, (c0, c1) in self._terms.items()},
                         self.low_cut, self.high_cut)

    def __sub__(self, other: "JetSeries") -> "JetSeries":
        if not isinstance(other, JetSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "JetSeries":
        """Multiply by an exact rational scalar."""
        f = _rat(factor)
        return JetSeries({e: (f * c0, f * c1)
                          for e, (c0, c1) in self._terms.items()},
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
        for ea, (a0, a1) in self._terms.items():
            for eb, (b0, b1) in other._terms.items():
                e = ea + eb
                c0 = a0 * b0
                c1 = a0 * b1 + a1 * b0
                if c0 or c1:
                    p0, p1 = acc.get(e, (Fraction(0), Fraction(0)))
                    acc[e] = (p0 + c0, p1 + c1)
        return self._build(acc, low, high, strict_low)

    def __mul__(self, other):
        if isinstance(other, JetSeries):
            return self.mul(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def shift(self, k: int, strict_low: bool = False) -> "JetSeries":
        """Multiply by ``q**k`` (window truncation as in :meth:`mul`)."""
        acc = {e + k: c for e, c in self._terms.items()}
        return self._build(acc, self.low_cut, self.high_cut, strict_low)

    # ---- the two special inverses used by the residue chain -------------

    def sqrt_one_minus(self) -> "JetSeries":
        """For ``u`` with zero t^0 part, the exact root ``s`` of ``s*s = 1 - u``.

        Modulo ``t**2`` this is ``1 - u/2``; a nonzero t^0 part is rejected
        because general square roots are out of scope.
        """
        for e, (c0, _) in self._terms.items():
            if c0:
                raise ValueError(
                    "sqrt_one_minus needs an argument with zero t^0 part "
                    f"(found coefficient {c0} at exponent {e})")
        if self.low_cut > 0 or self.high_cut < 0:
            raise WindowError("window must contain exponent 0 for the unit term")
        acc = {e: (Fraction(0), -c1 / 2) for e, (_, c1) in self._terms.items()}
        z = acc.get(0, (Fraction(0), Fraction(0)))
        acc[0] = (Fraction(1), z[1])
        return self._build(acc, self.low_cut, self.high_cut, strict_low=False)

    def invert_unit(self) -> "JetSeries":
        """Inverse of a series whose t^0 part is a single monomial.

        ``c*q**e + t*p(q)`` inverts to ``q**-e/c - t*p(q)*q**-2e/c**2``
        modulo ``t**2``.  Needed for the ``v**(n-1)`` factor at ``n = 0``.
        """
        base = [(e, c0) for e, (c0, _) in self._terms.items() if c0]
        if len(base) != 1:
            raise ValueError("invert_unit needs a single-monomial t^0 part")
        e0, c = base[0]
        acc = {-e0: (1 / c, Fraction(0))}
        for e, (_, c1) in self._terms.items():
            if c1:
                k = e - 2 * e0
                p0, p1 = acc.get(k, (Fraction(0), Fraction(0)))
                acc[k] = (p0, p1 - c1 / (c * c))
        return self._build(acc, self.low_cut, self.high_cut, strict_low=False)
