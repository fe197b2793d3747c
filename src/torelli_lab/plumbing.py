"""Exact verification of the plumbing residue calculus.

A one-parameter smoothing of a surface glued along a fibre is described
locally by coordinates (q, v) with t = q^2 - v^2, and a holomorphic 3-form
with jet coefficients b[m, n] produces, after taking the residue against
t = q^2 - v^2 and restricting to the branch v = q (1 - t q^{-2})^{1/2}, a
family of 2-forms

    -1/2 (q + v) * sum_{m,n} b[m,n] q^m v^{n-1}   (mod t^2),

whose t^0 part omega and t^1 part eta admit closed forms

    omega = - sum b[m,n] q^{m+n},
    eta   =   sum ((2n - 1)/4) b[m,n] q^{m+n-2}.

This module recomputes the substitution chain independently in exact
arithmetic and compares it, coefficient for coefficient, against the closed
forms, the q^{-2} leading law (eta's leading coefficient is -b[0,0]/4), the
q^{-1} residue law ((b[0,1] - b[1,0])/4), and the proportionality of the
eta series across proportional jet data.

Every series in the chain is a finite Laurent polynomial in q: modulo t^2
the branch is exactly v = q - (t/2) q^{-1}, so the chain is exact
Laurent-polynomial arithmetic and nothing but t^2 is truncated.  The
factors that do not depend on the jet, the prefactor and the powers
v^(n-1), are built once per jet order, and only the chain image of each
jet index n is kept and shared: the t^0 and t^1 numerators of their product
-1/2 (q + v) v^(n-1) over one common denominator.  The chain is linear in
b, so summing the images of a jet's terms applies the same linear map as
multiplying the sum of its terms by the prefactor; only the order of two
exact operations differs, by distributivity.  Each part is summed in one
pass, and the proportionality check builds the t^1 part alone.  Every
identity is checked on chains of its own, no eta is derived from another
member's chain, and every check finds its first mismatch by cross-multiplied
t^0 numerators.

Jet coefficients live on the exact core of ``jets``, keyed by ``(m, n)``,
and the chain and the closed forms read that layout directly, so all of
them run on ints.  ``Fraction`` appears only at the boundary: the
``JetCoefficients`` constructor takes ints and Fractions, ``b[key]``,
``b.b`` and ``items()`` give Fractions back, and the report compares and
prints Fraction coefficients.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import UsageError
from .jets import JetSeries, _ExactCore, _rat

MAX_ORDER_DEFAULT = 6


class JetOrderError(UsageError):
    """Jet coefficients outside the supported total order."""


def _jet_order(max_order) -> int:
    max_order = operator.index(max_order)
    if max_order < 0:
        raise JetOrderError(f"max_order must be non-negative, got {max_order}")
    return max_order


class JetCoefficients(_ExactCore):
    """Finitely supported exact coefficients b[m, n], m, n >= 0,
    m + n <= max_order.

    On the exact core of ``jets``: ``_num`` maps ``(m, n)`` to the integer
    numerator of b[m, n] over the common denominator ``_den``.  A sum has
    the larger ``max_order`` of its terms, and a multiple keeps its own.
    """

    __slots__ = ("max_order",)

    def __init__(self, b, max_order: int = MAX_ORDER_DEFAULT):
        max_order = _jet_order(max_order)
        values = {}
        for (m, n), value in dict(b).items():
            m, n = operator.index(m), operator.index(n)
            if m < 0 or n < 0:
                raise JetOrderError("jet indices must be non-negative")
            if m + n > max_order:
                raise JetOrderError(
                    f"jet index ({m}, {n}) exceeds max_order {max_order}")
            values[(m, n)] = _rat(value)
        super().__init__(values)
        object.__setattr__(self, "max_order", max_order)

    def _result(self, other, out) -> "JetCoefficients":
        object.__setattr__(out, "max_order",
                           max(self.max_order, other.max_order))
        return out

    @property
    def b(self) -> dict:
        """The nonzero coefficients as a new dict ``{(m, n): Fraction}``."""
        d = self._den
        return {key: Fraction(k, d) for key, k in self._num.items()}

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._num.get(key, 0), self._den)

    def items(self):
        return sorted(self.b.items())


def _numerators(series: JetSeries, f: int):
    """The nonzero t^0 and t^1 numerators of ``series`` times ``f``, as two
    tuples of ``(exponent, numerator)``."""
    return tuple(tuple((e, f * c) for (e, k), c in series._num.items()
                       if k == t) for t in (0, 1))


@functools.cache
def _chain_factors(max_order: int):
    """``(images, den)``, the chain images of the jet indices n =
    0..max_order: ``images[n]`` holds the t^0 and t^1 numerators of
    -1/2 (q + v) v^(n-1), with v = q*(1 - t q^{-2})^{1/2}, over the lcm
    ``den`` of their denominators, as ``_numerators`` gives them.  The
    factors are built by exact multiplication (the unit inverse at n = 0)
    and not kept; the images are immutable and shared by the order's chains.
    """
    q = JetSeries.monomial(1, c0=1)
    u = JetSeries.monomial(-2, c1=1)
    v = q.mul(u.sqrt_one_minus())
    prefactor = (q + v).scale(Fraction(-1, 2))
    v_pows = [v.invert_unit(), JetSeries.one()]
    while len(v_pows) <= max_order:
        v_pows.append(v_pows[-1].mul(v))
    products = [prefactor.mul(p) for p in v_pows[:max_order + 1]]
    den = lcm(*(p._den for p in products))
    return tuple(_numerators(p, den // p._den) for p in products), den


def _chain_part(b: JetCoefficients, t: int) -> JetSeries:
    """The t^``t`` part of the chain of ``b``: the images of its jet
    indices, the image of (m, n) being ``images[n][t]`` shifted by m,
    summed in one pass and returned as a canonical pure-q series."""
    images, den = _chain_factors(b.max_order)
    acc = {}
    for (m, n), k in b._num.items():
        for e, c in images[n][t]:
            acc[e + m] = acc.get(e + m, 0) + k * c
    return JetSeries._lowest({(e, 0): c for e, c in acc.items() if c},
                             den * b._den)


def residue_pair(b: JetCoefficients):
    """(omega, eta): the t^0 and t^1 parts of the residue chain.

    Each part is summed over the cached images of ``_chain_factors``, the
    product of the prefactor -1/2 (q + v) with each v^(n-1).  The chain is
    linear in ``b``, so this is the chain's own map, applied in the other
    order by distributivity; no use is made of the closed forms, so
    comparing against them is a two-sided check.
    """
    return _chain_part(b, 0), _chain_part(b, 1)


def closed_form_pair(b: JetCoefficients):
    """The closed forms for omega and eta, built directly."""
    # integer numerators over _den for omega and over 4*_den for eta
    omega = {}
    eta = {}
    for (m, n), k in b._num.items():
        e = m + n
        omega[e] = omega.get(e, 0) - k
        eta[e - 2] = eta.get(e - 2, 0) + (2 * n - 1) * k
    return tuple(JetSeries._reduced({(e, 0): k for e, k in num.items()}, den)
                 for num, den in ((omega, b._den), (eta, 4 * b._den)))


@dataclass(frozen=True)
class ClosedFormCheck:
    ok: bool
    first_mismatch: tuple = None    # (series, exponent, chain, closed)

    def __bool__(self):
        return self.ok


def _compare_closed_forms(b: JetCoefficients, omega: JetSeries,
                          eta: JetSeries) -> ClosedFormCheck:
    """Compare the chain's (omega, eta) for ``b`` with the closed forms."""
    omega_cf, eta_cf = closed_form_pair(b)
    for name, lhs, rhs in (("omega", omega, omega_cf), ("eta", eta, eta_cf)):
        # canonical forms are equal as numerators: a pass builds no Fraction
        e = None if lhs == rhs else _first_cross_mismatch(1, lhs, 1, rhs)
        if e is not None:
            return ClosedFormCheck(ok=False, first_mismatch=(
                name, e, lhs.coefficient(e, 0), rhs.coefficient(e, 0)))
    return ClosedFormCheck(ok=True)


def check_closed_forms(b: JetCoefficients) -> ClosedFormCheck:
    """Exact coefficientwise equality of the chain and the closed forms."""
    return _compare_closed_forms(b, *residue_pair(b))


@dataclass(frozen=True)
class ProportionalityCheck:
    ok: bool
    ratios: tuple = ()              # -b[0,0] per member, the predicted ratios
    first_mismatch: tuple = None    # (index_i, index_j, exponent)

    def __bool__(self):
        return self.ok


def _first_cross_mismatch(x: Fraction, s: JetSeries, y: Fraction,
                          t: JetSeries):
    """The lowest exponent whose t^0 coefficients of x*s and y*t differ,
    or None, without building either series: the t^0 numerators compared
    cross-multiplied over the product of all four denominators.  The t^1
    parts do not count."""
    a = x.numerator * y.denominator * t._den
    c = y.numerator * x.denominator * s._den
    sn, tn = s._num, t._num
    return min((e for e, k in sn.keys() | tn.keys()
                if k == 0 and a * sn.get((e, 0), 0) != c * tn.get((e, 0), 0)),
               default=None)


def check_eta_proportionality(b_list) -> ProportionalityCheck:
    """For jet data that are scalar multiples of a common set, the eta
    series must satisfy the cross-proportionality

        omega_i(a) * eta_j == omega_j(a) * eta_i   (exactly),

    with omega_j(a) = -b_j[0,0]; this is the rank-1 shape of the derivative
    restated at series level.  Cross-multiplied integer numerators avoid
    division, handle zero members and build no scaled series; each eta is
    the t^1 part of the chain of its own member, built alone.
    """
    etas = [_chain_part(b, 1) for b in b_list]
    ratios = tuple(-b[(0, 0)] for b in b_list)
    for i in range(len(b_list)):
        for j in range(i + 1, len(b_list)):
            bad = _first_cross_mismatch(ratios[i], etas[j], ratios[j], etas[i])
            if bad is not None:
                return ProportionalityCheck(ok=False, ratios=ratios,
                                            first_mismatch=(i, j, bad))
    return ProportionalityCheck(ok=True, ratios=ratios)


# ---------------------------------------------------------------------------
# randomized verification report
# ---------------------------------------------------------------------------

def random_jet_coefficients(rng: random.Random, max_order: int = MAX_ORDER_DEFAULT,
                            bound: int = 9) -> JetCoefficients:
    """Dense random jets with integer entries in [-bound, bound], drawn in
    the order of (m, n) by ``rng.randrange(-bound, bound + 1)``, the draw
    that ``rng.randint(-bound, bound)`` makes, and put on the exact core
    over the denominator 1 without the constructor's checks."""
    max_order = _jet_order(max_order)
    draw = rng.randrange
    num = {(m, n): draw(-bound, bound + 1)
           for m in range(max_order + 1) for n in range(max_order + 1 - m)}
    out = JetCoefficients._reduced(num, 1)
    object.__setattr__(out, "max_order", max_order)
    return out


def verification_report(trials: int = 200, max_order: int = MAX_ORDER_DEFAULT,
                        seed: int = 0) -> dict:
    """Run every identity on random jet data; everything asserted exactly.

    ``UsageError`` when ``trials < 1`` or ``max_order < 0``, which would
    check nothing and still report "ok"."""
    if trials < 1 or max_order < 0:
        raise UsageError(
            f"the verifier needs trials >= 1 and max_order >= 0, got "
            f"trials = {trials} and max_order = {max_order}")
    rng = random.Random(seed)
    identities = {
        "closed_forms": {"trials": 0, "failures": 0, "first_failure": None},
        "leading_term": {"trials": 0, "failures": 0, "first_failure": None},
        "residue_term": {"trials": 0, "failures": 0, "first_failure": None},
        "linearity": {"trials": 0, "failures": 0, "first_failure": None},
        "proportionality": {"trials": 0, "failures": 0, "first_failure": None},
    }
    audit = []

    def record(name, ok, detail):
        identities[name]["trials"] += 1
        if not ok:
            identities[name]["failures"] += 1
            if identities[name]["first_failure"] is None:
                identities[name]["first_failure"] = detail

    for k in range(trials):
        b = random_jet_coefficients(rng, max_order)
        om_a, eta_a = residue_pair(b)
        chk = _compare_closed_forms(b, om_a, eta_a)
        record("closed_forms", chk.ok,
               None if chk.ok else [str(x) for x in chk.first_mismatch])
        lead = eta_a.coefficient(-2, 0)
        record("leading_term", lead == Fraction(-1, 4) * b[(0, 0)],
               f"got {lead}")
        res = eta_a.coefficient(-1, 0)
        expected = (b[(0, 1)] - b[(1, 0)]) / 4
        record("residue_term", res == expected, f"got {res}")
        if k < 10:
            audit.append({
                "b00": str(b[(0, 0)]),
                "residue_coefficient": str(res),
                "residue_vanishes": res == 0,
            })

        b2 = random_jet_coefficients(rng, max_order)
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combo = b.scale(alpha) + b2.scale(beta)
        om_c, eta_c = residue_pair(combo)
        om_b, eta_b = residue_pair(b2)
        lin_ok = (om_c == om_a.scale(alpha) + om_b.scale(beta)
                  and eta_c == eta_a.scale(alpha) + eta_b.scale(beta))
        record("linearity", lin_ok, f"scalars ({alpha}, {beta})")

        scalars = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                   for _ in range(5)]
        family = [b.scale(c) for c in scalars]
        prop = check_eta_proportionality(family)
        record("proportionality", prop.ok,
               None if prop.ok else list(prop.first_mismatch))

    all_pass = all(v["failures"] == 0 for v in identities.values())
    return {
        "trials": trials,
        "max_order": max_order,
        "seed": seed,
        "identities": identities,
        "residue_audit": audit,
        "status": "ok" if all_pass else "failed",
    }

