"""Weierstrass models of Jacobian elliptic surfaces over P^1.

A surface is a pair of exact binary forms (g4, g6) of degrees 4*dL and 6*dL,
the coefficients of the fibration y^2 = 4x^3 - g4 x - g6.  The module derives
the numerical invariants from (h, q), classifies singular fibres through the
discriminant g4^3 - 27 g6^2, decides genericity, and provides two
constructors: rejection-sampled general surfaces (all fibres nodal), and
surfaces with up to four prescribed I2 fibres obtained by forcing the local
jet equations

    a0^3 - 27 b0^2 = 0   and   2 a0 b1 - 3 a1 b0 = 0

at each prescribed point via a0 = 3 s^2, b0 = s^3, b1 = a1 s / 2.

Genericity is decided in rational arithmetic without root finding; floats
appear only in reported fibre coordinates.  A surface object computes its
discriminant Delta and its ramification form W, the squarefree decomposition
of each, and its genericity report at most once and keeps them.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import binforms
from .binforms import (
    BinaryForm,
    ProjectivePointP1,
    forms_coprime,
    gcd_is_constant,
    poly_degree,
    poly_eval,
    poly_mul,
    poly_strip,
    squarefree_decomposition,
    transvectant_first,
)
from .errors import ConsistencyError, TorelliLabError, UsageError

COEFF_BOUND = 20
REJECTION_BUDGET = 1000
# The height bound of a surface-file coefficient: its numerator and its
# denominator have at most COEFF_DIGITS_MAX decimal digits.  That is
# CPython's default limit on int <-> str conversion, so every coefficient
# within it can be written back to a surface file.  Delta of a dL = 4
# surface with one coefficient at the bound costs about 3 ms on a 2-core
# x86-64 machine; at 10^5 digits it costs 0.33 s and at 10^6 digits 11.5 s,
# which a 9-character decimal string such as "1e1000000" would otherwise buy.
# The bound limits the cost of the exact arithmetic, not the range that
# double-precision root location handles: on the h = 3, seed 0 surface,
# analyze passes with g4[0] = 10^60 but ends in a typed error from 10^100.
COEFF_DIGITS_MAX = 4300
_HEIGHT_MAX = 10 ** COEFF_DIGITS_MAX


class UnsupportedGenusError(UsageError):
    """Positive-genus bases are carried in formulas but not constructed."""


class SurfaceGateError(UsageError):
    """The inequality gate h >= q+3, 8h > 10(q-1) fails."""


class DegenerateSurfaceError(TorelliLabError):
    """The discriminant vanishes identically."""


class RejectionBudgetError(TorelliLabError):
    """The randomized constructor exhausted its redraw budget."""


class IsotrivialError(TorelliLabError):
    """The transvectant vanishes identically (g4^3/g6^2 constant)."""


def degree_gate_ok(h: int, q: int) -> bool:
    return h >= q + 3 and 8 * h > 10 * (q - 1)


def check_degree_gate(h: int, q: int) -> None:
    """``SurfaceGateError`` unless (h, q) passes the inequality gate."""
    if not degree_gate_ok(h, q):
        raise SurfaceGateError(f"gate h >= q+3 fails: h = {h}, q = {q}")


@dataclass(frozen=True)
class Invariants:
    """Numerical invariants derived from the geometric genus h and the
    irregularity q; q is carried symbolically even though construction
    fixes q = 0."""

    h: int
    q: int
    chi: int
    N: int
    c2: int
    deg_phi: int
    deg_canonical_curve: int

    @classmethod
    def from_genus_irregularity(cls, h: int, q: int) -> "Invariants":
        chi = h + 1 - q
        return cls(
            h=h,
            q=q,
            chi=chi,
            N=10 * h + 8 * (1 - q),
            c2=12 * chi,
            deg_phi=24 * chi,
            deg_canonical_curve=h + q - 1,
        )

    @property
    def h11(self) -> int:
        """Full (1,1)-space dimension: primitive part N plus the section
        and fibre classes."""
        return self.N + 2

    def to_json_dict(self) -> dict:
        return {**asdict(self), "h11": self.h11}


class WeierstrassSurface:
    """Exact Weierstrass data (g4, g6) over a genus-q base (q = 0 in v1).

    The slots ``_delta``, ``_delta_factors``, ``_w``, ``_w_factors`` and
    ``_report`` keep the facts computed by ``discriminant``,
    ``discriminant_factors``, ``ramification_form``, ``ramification_factors``
    and ``genericity``; they take no part in equality, repr or the JSON form.
    """

    __slots__ = ("q", "dL", "g4", "g6", "_delta", "_delta_factors", "_w",
                 "_w_factors", "_report")

    def __init__(self, dL: int, g4: BinaryForm, g6: BinaryForm, q: int = 0):
        if q != 0:
            raise UnsupportedGenusError(
                "bases of genus >= 1 are unimplemented; formulas carry q "
                "symbolically but construction requires q = 0")
        if dL < 1:
            raise UsageError("dL must be a positive integer")
        if g4.degree != 4 * dL or g6.degree != 6 * dL:
            raise UsageError(
                f"expected degrees ({4 * dL}, {6 * dL}), "
                f"got ({g4.degree}, {g6.degree})")
        h = dL - 1 + q
        check_degree_gate(h, q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "dL", dL)
        object.__setattr__(self, "g4", g4)
        object.__setattr__(self, "g6", g6)
        for name in self.__slots__[4:]:    # the stored facts
            object.__setattr__(self, name, None)

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassSurface is immutable")

    @property
    def h(self) -> int:
        return self.dL - 1 + self.q

    def __eq__(self, other):
        if not isinstance(other, WeierstrassSurface):
            return NotImplemented
        return (self.q, self.dL, self.g4, self.g6) == \
            (other.q, other.dL, other.g4, other.g6)

    def __repr__(self):
        return f"WeierstrassSurface(dL={self.dL}, h={self.h}, q={self.q})"


@dataclass(frozen=True)
class FiberRecord:
    point: ProjectivePointP1
    delta_val: int
    g4_vanishes: bool
    kodaira: str


@dataclass(frozen=True)
class FiberReport:
    fibers: tuple
    all_I1: bool
    I2_count: int

    def to_json_dict(self) -> dict:
        return {
            "fibers": [
                {
                    "z": rec.point.to_json(),
                    "delta_val": rec.delta_val,
                    "g4_vanishes": rec.g4_vanishes,
                    "kodaira": rec.kodaira,
                }
                for rec in self.fibers
            ],
            "all_I1": self.all_I1,
            "I2_count": self.I2_count,
        }


def invariants(s: WeierstrassSurface) -> Invariants:
    return Invariants.from_genus_irregularity(s.h, s.q)


def _stored(s: WeierstrassSurface, slot: str, compute):
    """The fact kept in ``slot`` of ``s``, computed on first use."""
    value = getattr(s, slot)
    if value is None:
        value = compute()
        object.__setattr__(s, slot, value)
    return value


def discriminant(s: WeierstrassSurface) -> BinaryForm:
    """Delta = g4^3 - 27 g6^2, a form of degree 12*dL."""
    delta = _stored(s, "_delta", lambda: s.g4 ** 3 - 27 * s.g6 ** 2)
    if delta.is_zero:
        raise DegenerateSurfaceError(
            "discriminant vanishes identically (isotrivial data): not an "
            "elliptic fibration with varying fibres in the required sense")
    return delta


def discriminant_factors(s: WeierstrassSurface):
    """Squarefree decomposition of the affine part of Delta, as
    ``squarefree_decomposition`` gives it.  Genericity clause (a) and the
    fibre table both read it, so Delta's multiplicities are found once per
    surface.  Both read Delta itself from the ``_delta`` slot after this
    call, so each asks ``discriminant`` once."""
    delta = discriminant(s)
    return _stored(s, "_delta_factors",
                   lambda: squarefree_decomposition(delta.coeffs))


def ramification_form(s: WeierstrassSurface) -> BinaryForm:
    """The transvectant W of (g4, g6); raises when identically zero."""
    w = _stored(s, "_w", lambda: transvectant_first(s.g4, s.g6))
    if w.is_zero:
        raise IsotrivialError(
            "isotrivial or degenerate family: the transvectant of (g4, g6) "
            "vanishes identically")
    return w


def ramification_factors(s: WeierstrassSurface):
    """Squarefree decomposition of the affine part of W, as
    ``squarefree_decomposition`` gives it.  Genericity clause (b) and the
    ramification divisor both read it, so W's squarefreeness is proved
    once per surface."""
    w = ramification_form(s)
    return _stored(s, "_w_factors",
                   lambda: squarefree_decomposition(w.coeffs))


def classify_fibers(s: WeierstrassSurface) -> FiberReport:
    """Singular fibres from the valuation of the discriminant.

    At a root of Delta of multiplicity n the fibre is I_n when g4 does not
    vanish there, and an unclassified additive type otherwise.  All
    multiplicity and vanishing decisions are exact; floats only locate the
    reported points.
    """
    factors = discriminant_factors(s)
    delta = s._delta
    records = []
    exact_total = 0
    g4_aff = poly_strip(s.g4.coeffs)
    for factor, mult in factors:
        exact_total += mult * poly_degree(factor)
        # the part of the factor where g4 vanishes too, and the rest
        additive_part = binforms.poly_gcd(factor, g4_aff)
        inert_part = binforms.poly_divexact(factor, additive_part)
        for piece, vanishes in ((inert_part, False), (additive_part, True)):
            if poly_degree(piece) < 1:
                continue
            for root in binforms._roots_dense(piece):
                records.append(FiberRecord(
                    point=ProjectivePointP1.from_affine(root),
                    delta_val=mult,
                    g4_vanishes=vanishes,
                    kodaira="additive_other" if vanishes else f"I{mult}",
                ))
    v_inf = delta.mult_at_infinity()
    if v_inf > 0:
        exact_total += v_inf
        g4_inf_zero = not s.g4.coeffs[-1]
        records.append(FiberRecord(
            point=ProjectivePointP1.infinity(),
            delta_val=v_inf,
            g4_vanishes=g4_inf_zero,
            kodaira="additive_other" if g4_inf_zero else f"I{v_inf}",
        ))
    if exact_total != delta.degree:
        raise ConsistencyError(
            f"fibre valuations sum to {exact_total}, not deg Delta = {delta.degree}")
    records.sort(key=lambda rec: rec.point._sort_key())
    all_i1 = all(rec.kodaira == "I1" for rec in records)
    i2 = sum(1 for rec in records if rec.kodaira == "I2")
    return FiberReport(fibers=tuple(records), all_I1=all_i1, I2_count=i2)


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralityReport:
    """Outcome of the three genericity clauses.

    (a) all singular fibres are nodal, (b) the ramification form is
    squarefree, (c) the ramification divisor avoids the discriminant locus.
    """

    all_fibers_i1: bool
    ram_reduced: bool
    ram_avoids_discriminant: bool
    failed_clauses: tuple
    warnings: tuple = ()

    @property
    def is_general(self) -> bool:
        return not self.failed_clauses

    def __bool__(self) -> bool:
        return self.is_general

    def to_json_dict(self) -> dict:
        return {"is_general": self.is_general, **asdict(self)}


def genericity(s: WeierstrassSurface) -> GeneralityReport:
    """The three genericity clauses, decided exactly without root finding.

    Clause (a) is decided as "Delta is squarefree".  A fibre is I1 exactly
    at a simple zero of Delta where g4 does not vanish, and at a zero p of
    Delta with g4(p) = 0 also g6(p) = 0, so ord_p Delta >= 2; the point at
    infinity behaves the same.  Clauses (a) and (b) are one rule,
    ``_reduced``, read off the stored ``discriminant_factors`` and
    ``ramification_factors``, which the fibre table and the ramification
    divisor reuse.  Raises ``DegenerateSurfaceError`` when Delta vanishes
    identically.

    Clause (a) implies clause (c), so W and Delta are tested for a common
    root only when Delta is not squarefree.  By Euler's identity, for
    {i, j} = {0, 1},

        g4 d_i(Delta) - 3 d_i(g4) Delta = +-(27 / 2dL) g6 Z_j W.

    At a common zero of W and Delta this leaves g4 d_i(Delta) = 0 for both
    i: either the gradient of Delta vanishes there, or g4 = 0 and then
    g6 = 0 too.  Either way Delta has a multiple root there.
    """
    return _stored(s, "_report", lambda: _decide_genericity(s))


def _reduced(form: BinaryForm, factors) -> bool:
    """The nonzero ``form`` has no multiple root, given the squarefree
    decomposition ``factors`` of its affine part."""
    return form.mult_at_infinity() <= 1 and all(m == 1 for _, m in factors)


def _decide_genericity(s: WeierstrassSurface) -> GeneralityReport:
    factors = discriminant_factors(s)
    delta = s._delta
    all_i1 = _reduced(delta, factors)
    failed = [] if all_i1 else ["a"]
    try:
        w = ramification_form(s)
    except IsotrivialError:
        return GeneralityReport(
            all_fibers_i1=all_i1,
            ram_reduced=False,
            ram_avoids_discriminant=False,
            failed_clauses=tuple(failed + ["b", "c"]),
            warnings=("ramification form vanishes identically",),
        )
    reduced = _reduced(w, ramification_factors(s))
    if not reduced:
        failed.append("b")
    disjoint = all_i1 or forms_coprime(w, delta)
    warnings = ()
    if not disjoint:
        failed.append("c")
        warnings = (
            "ramification meets the discriminant locus: multiplicities of "
            "div(W) are only contractual on the general locus",)
    return GeneralityReport(
        all_fibers_i1=all_i1,
        ram_reduced=reduced,
        ram_avoids_discriminant=disjoint,
        failed_clauses=tuple(failed),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _draw_form(rng: random.Random, degree: int) -> BinaryForm:
    """Integer coefficients in [-COEFF_BOUND, COEFF_BOUND], nonzero at the
    top degree."""
    coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(degree + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-COEFF_BOUND, COEFF_BOUND)
    return BinaryForm(degree, coeffs)


def make_random_general(h: int, seed: int) -> WeierstrassSurface:
    """Random surface with all fibres of type I1 and a reduced ramification
    divisor disjoint from the discriminant locus; deterministic in ``seed``."""
    q = 0
    check_degree_gate(h, q)
    dL = h + 1 - q
    rng = random.Random(seed)
    for _ in range(REJECTION_BUDGET):
        g4 = _draw_form(rng, 4 * dL)
        g6 = _draw_form(rng, 6 * dL)
        s = WeierstrassSurface(dL, g4, g6, q)
        try:
            general = genericity(s).is_general
        except DegenerateSurfaceError:
            continue
        if general:
            return s
    raise RejectionBudgetError(
        f"no general surface with h = {h} found in {REJECTION_BUDGET} draws")


def _hermite_interpolant(points, values, derivs):
    """Polynomial of degree < 2r matching a value and a derivative at each
    of r distinct Fraction points; exact.  It is the sum over i of
    l_i(z)^2 (v_i + e_i (z - p_i)), with l_i the Lagrange basis and
    e_i = d_i - v_i sum_{j != i} 2 / (p_i - p_j)."""
    total = []
    for i, (p, v, d) in enumerate(zip(points, values, derivs)):
        ell = [Fraction(1)]
        slope = 0
        for q in points[:i] + points[i + 1:]:
            ell = poly_mul(ell, [-q / (p - q), 1 / (p - q)])
            slope += 2 / (p - q)
        e = d - v * slope
        total = binforms.poly_add(
            total, poly_mul(poly_mul(ell, ell), [v - e * p, e]))
    return total


def make_with_I2(h: int, points, seed: int) -> WeierstrassSurface:
    """Surface with prescribed I2 fibres at up to four affine points.

    At each point the two-jet of (g4, g6) is forced to (3s^2 + a1 z,
    s^3 + (a1 s / 2) z) in the local coordinate, which satisfies both local
    equations identically.  Each form is the closed-form Hermite interpolant
    of those jets (degree < 2r) plus a random multiple of prod (z - p)^2,
    which leaves the jets as they are.  Validated exactly: v(Delta) = 2 at each
    prescribed point and each point is a root of the ramification form.
    """
    q = 0
    check_degree_gate(h, q)
    pts = [Fraction(p) for p in points]
    r = len(pts)
    if not (1 <= r <= 4):
        raise UsageError("between 1 and 4 prescribed points are supported")
    if len(set(pts)) != r:
        raise UsageError("prescribed points must be distinct")
    dL = h + 1 - q
    rng = random.Random(seed)
    # (z - p)^2 factors collected into the double-root modulus
    modulus = [Fraction(1)]
    for p in pts:
        modulus = poly_mul(modulus, [p * p, -2 * p, Fraction(1)])

    for _ in range(REJECTION_BUDGET):
        svals = []
        for _ in range(r):
            num = 0
            while num == 0:
                num = rng.randint(-9, 9)
            svals.append(Fraction(num, rng.randint(1, 3)))
        a1s = [Fraction(rng.randint(-9, 9)) for _ in range(r)]
        b1s = [a1 * s / 2 for a1, s in zip(a1s, svals)]
        t4 = _hermite_interpolant(pts, [3 * s * s for s in svals], a1s)
        t6 = _hermite_interpolant(pts, [s ** 3 for s in svals], b1s)
        u4 = [Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND))
              for _ in range(4 * dL - 2 * r + 1)]
        u6 = [Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND))
              for _ in range(6 * dL - 2 * r + 1)]
        for u in (u4, u6):
            while not u[-1]:
                u[-1] = Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND))
        g4_aff = binforms.poly_add(t4, poly_mul(modulus, u4))
        g6_aff = binforms.poly_add(t6, poly_mul(modulus, u6))
        g4 = BinaryForm.from_affine(g4_aff, 4 * dL)
        g6 = BinaryForm.from_affine(g6_aff, 6 * dL)
        s = WeierstrassSurface(dL, g4, g6, q)
        try:
            delta_aff = poly_strip(discriminant(s).coeffs)
            ram = ramification_form(s)
        except (DegenerateSurfaceError, IsotrivialError):
            continue
        d1 = binforms.poly_derivative(delta_aff)
        d2 = binforms.poly_derivative(d1)
        if any(poly_eval(delta_aff, p) or poly_eval(d1, p)
               or ram.eval_pair(Fraction(1), p) for p in pts):
            raise ConsistencyError(
                "forced two-jets do not give a double zero of Delta inside "
                "the zeros of W at every prescribed point")
        if any(poly_eval(d2, p) == 0 for p in pts):
            continue
        if not gcd_is_constant(g4_aff, g6_aff):
            continue
        return s
    raise RejectionBudgetError(
        f"no surface with {r} prescribed I2 fibres found in "
        f"{REJECTION_BUDGET} draws")


# ---------------------------------------------------------------------------
# JSON surface files
# ---------------------------------------------------------------------------

def surface_to_json_dict(s: WeierstrassSurface) -> dict:
    return {
        "q": s.q,
        "dL": s.dL,
        "g4": [str(c) for c in s.g4.coeffs],
        "g6": [str(c) for c in s.g6.coeffs],
    }


def _coefficient(c) -> Fraction:
    """The exact value of a JSON integer or rational string, or
    ``ValueError`` when its height exceeds ``COEFF_DIGITS_MAX`` digits.  A
    decimal string whose digits plus |exponent| exceed the bound is
    rejected before ``Fraction`` builds its power of ten."""
    if type(c) is str:
        mantissa, e, exponent = c.lower().partition("e")
        if e and (sum(ch.isdigit() for ch in mantissa) + abs(int(exponent))
                  > COEFF_DIGITS_MAX):
            raise ValueError(f"coefficient {c!r} exceeds the height bound of "
                             f"{COEFF_DIGITS_MAX} digits")
    value = Fraction(c)
    if max(abs(value.numerator), value.denominator) >= _HEIGHT_MAX:
        raise ValueError(f"a coefficient exceeds the height bound of "
                         f"{COEFF_DIGITS_MAX} digits")
    return value


def surface_from_json_dict(data: dict) -> WeierstrassSurface:
    """The surface of a surface file's JSON object; ``UsageError`` unless q
    and dL are JSON integers and g4 and g6 lists of JSON integers and strings
    that ``Fraction`` parses, each of height below 10^``COEFF_DIGITS_MAX``.
    Nothing is truncated or rounded."""
    try:
        q, dL, g4, g6 = data["q"], data["dL"], data["g4"], data["g6"]
        if type(q) is not int or type(dL) is not int:
            raise TypeError(f"q and dL must be JSON integers, got q = {q!r}, "
                            f"dL = {dL!r}")
        if type(g4) is not list or type(g6) is not list:
            raise TypeError("g4 and g6 must be lists of coefficients")
        for c in g4 + g6:
            if type(c) not in (int, str):
                raise TypeError(f"coefficient {c!r} is neither a JSON "
                                "integer nor a rational string")
        g4 = BinaryForm(4 * dL, [_coefficient(c) for c in g4])
        g6 = BinaryForm(6 * dL, [_coefficient(c) for c in g6])
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed surface data: {exc}") from exc
    return WeierstrassSurface(dL, g4, g6, q)


def load_json(path):
    """The JSON value in the file at ``path``; ``UsageError`` naming the path
    when the file is not UTF-8 JSON or holds an integer longer than CPython
    converts (4300 digits by default)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, UnicodeDecodeError) as exc:
            raise UsageError(f"{path} is not a JSON file: {exc}") from exc


def load_surface(path) -> WeierstrassSurface:
    return surface_from_json_dict(load_json(path))
