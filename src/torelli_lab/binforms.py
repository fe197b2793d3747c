"""Binary forms on P^1 and the polynomial machinery under them.

A binary form of degree d is stored by its d+1 coefficients, index k holding
the coefficient of Z0^(d-k) Z1^k, so the list read in ascending index order
is also the affine polynomial in z = Z1/Z0.  Forms are exact: each
coefficient is stored in canonical form, an ``int`` when it is integral and
a ``fractions.Fraction`` otherwise, so forms with integer coefficients
multiply as Python ints.  Float or complex coefficients are rejected.  Forms
still evaluate at complex points.

Exact decisions (gcd, coprimality, multiplicity structure) run on one
integer kernel: the input is cleared of denominators and content once, and
the gcd, Yun's decomposition and exact division work on primitive integer
lists.  Every decision is one gcd, by one certified path: the heuristic gcd
GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989), whose candidate
is accepted only when it divides both inputs exactly over Z, with the
primitive pseudo-remainder sequence (PRS) as its only fallback.  There is
no separate squarefree test: squarefreeness is read off Yun's
decomposition, whose first gcd is that of (a, a').  The first transvectant
is computed on the same polynomial layer, from its affine identity.  Numerical
roots are the eigenvalues of a real companion matrix, polished by one Newton
step, and every root is checked against a backward-error bound; the roots of
an integer factor are closed under complex conjugation, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import TorelliLabError

CLUSTER_TOL = 1e-7
BACKWARD_ERROR_TOL = 1e-9

# Evaluation points GCDHEU tries before the PRS fallback.
_HEU_TRIES = 6


class ZeroFormError(TorelliLabError):
    """An operation that needs a nonzero form received the zero form."""


class DivisorError(TorelliLabError):
    """Points of a divisor are not separated at the clustering scale."""


# ---------------------------------------------------------------------------
# exact polynomial layer (ascending coefficient lists of int or Fraction)
# ---------------------------------------------------------------------------

def poly_strip(coeffs):
    """Drop trailing zeros; the zero polynomial becomes []."""
    i = len(coeffs) - 1
    while i >= 0 and not coeffs[i]:
        i -= 1
    return list(coeffs[: i + 1])


def poly_degree(coeffs) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly_strip(coeffs)) - 1


def poly_mul(a, b):
    a, b = poly_strip(a), poly_strip(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_strip([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ])


def poly_scale(a, c):
    return [c * x for x in a] if c else []


def poly_derivative(a):
    return poly_strip([i * c for i, c in enumerate(a)][1:])


def poly_eval(a, z):
    """Horner evaluation; exact when both the poly and z are rational."""
    acc = 0
    for c in reversed(a):
        acc = acc * z + c
    return acc


def poly_divexact(a, b):
    """Quotient of integer polynomials; ArithmeticError unless b divides a
    over Z."""
    a, b = poly_strip(a), poly_strip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + len(b) - 1], b[-1])
        if rem:
            raise ArithmeticError("division was expected to be exact over Z")
        q[k] = c
        for j in range(len(b)):
            r[k + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("division was expected to be exact over Z")
    return poly_strip(q)


def _int_primitive(ints):
    """Strip, divide out the content and make the leading entry > 0."""
    ints = poly_strip(ints)
    if not ints:
        return []
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _to_int_primitive(coeffs):
    """Clear denominators and content; sign fixed so the leading entry > 0."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return _int_primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _pseudo_rem(a, b):
    """Pseudo-remainder of integer polynomials (stays over Z)."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        r = [lb * x for x in r]
        for j in range(db + 1):
            r[k + j] -= c * b[j]
        r[db + k] = 0
    return poly_strip(r)


def _heu_gcd(a, b):
    """GCDHEU on two nonzero primitive integer polynomials: their primitive
    gcd, or None when no evaluation point gives one.  The gcd of the values
    at an integer xi > 2 min(|a|, |b|) + 2 (max-norms), read as symmetric
    xi-adic digits, has a primitive part G that is the gcd exactly when it
    divides both inputs over Z (Geddes, Czapor & Labahn, Algorithms for
    Computer Algebra, 1992, 7.7): exact division certifies every answer.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 3
    for _ in range(_HEU_TRIES):
        gamma = math.gcd(poly_eval(a, xi), poly_eval(b, xi))
        digits = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        g = _int_primitive(digits)
        try:
            poly_divexact(a, g)
            poly_divexact(b, g)
            return g
        except ArithmeticError:
            xi = xi * 73794 // 27011
    return None


def poly_gcd(a, b):
    """Exact gcd over Q, returned as a primitive integer-coefficient list
    with a positive leading entry: GCDHEU, else the primitive PRS."""
    ai, bi = _to_int_primitive(a), _to_int_primitive(b)
    if not ai or not bi:
        return ai or bi
    g = _heu_gcd(ai, bi)
    if g is not None:
        return g
    if len(ai) < len(bi):
        ai, bi = bi, ai
    while len(bi) > 1:
        r = _pseudo_rem(ai, bi)
        ai, bi = bi, _int_primitive(r)
    return [1] if bi else ai


def gcd_is_constant(a, b) -> bool:
    """Exact decision that two nonzero polynomials have a constant gcd over
    Q; False when either is zero."""
    a, b = poly_strip(a), poly_strip(b)
    if not a or not b:
        return False
    return poly_degree(poly_gcd(a, b)) == 0


def squarefree_decomposition(a):
    """Yun decomposition: list of (primitive factor, multiplicity).

    The factors are squarefree, pairwise coprime, and their m-th powers
    multiply to the input up to a rational constant.  Yun's loop starts
    from the one gcd of (a, a'), which also decides squarefreeness.  The
    input is made a primitive integer list first; every divisor Yun meets is
    then primitive, so by Gauss's lemma each quotient is exact over Z and
    each factor comes out primitive.
    """
    a = _to_int_primitive(a)
    if not a:
        raise ZeroFormError("squarefree decomposition of the zero polynomial")
    if len(a) == 1:
        return []
    da = poly_derivative(a)
    g = poly_gcd(a, da)
    if poly_degree(g) == 0:
        return [(a, 1)]
    w = poly_divexact(a, g)
    y = poly_divexact(da, g)
    out = []
    k = 1
    while True:
        z = poly_add(y, poly_scale(poly_derivative(w), -1))
        if not z:
            if poly_degree(w) > 0:
                out.append((w, k))
            break
        p = poly_gcd(w, z)
        if poly_degree(p) > 0:
            out.append((p, k))
            w = poly_divexact(w, p)
            y = poly_divexact(z, p)
        else:
            y = z
        k += 1
    return out


# ---------------------------------------------------------------------------
# numerical root finding
# ---------------------------------------------------------------------------

def _roots_dense(factor):
    """All n affine roots of an integer polynomial, given by its ascending
    coefficients, with a nonzero leading entry.

    The coefficients are divided by 2^k, k > 0 only above 2^1000, then
    scaled to unit max-norm in float64, highest degree first.  The
    eigenvalues of their real companion matrix (numpy.roots, real QR) are
    backward stable for them (Edelman & Murakami, Math. Comp. 64, 1995).
    Real QR returns complex roots in exact conjugate pairs and real roots
    with imaginary part 0.0, and the Newton step (numpy.polyval) keeps that
    symmetry; it polishes each root, kept only where it lowers |p|.  A
    failed companion solve, a missing root, or a root off the bound
    |p(z)| <= BACKWARD_ERROR_TOL * max(1, |z|)^n raises TorelliLabError.
    """
    n = len(factor) - 1
    if n <= 0:
        return np.empty(0, dtype=complex)
    scale = 1 << max(0, max(abs(c) for c in factor).bit_length() - 1000)
    c = np.array([x / scale for x in factor[::-1]], dtype=float)
    c = c / np.max(np.abs(c))
    with np.errstate(all="ignore"):
        try:
            z = np.asarray(np.roots(c), dtype=complex)
        except np.linalg.LinAlgError as exc:
            raise TorelliLabError(f"root finding failed: {exc}") from exc
        if len(z) != n:
            raise TorelliLabError(
                f"root finding returned {len(z)} of {n} roots")
        p = np.polyval(c, z)
        newton = z - p / np.polyval(np.polyder(c), z)
        p_newton = np.polyval(c, newton)
        better = np.abs(p_newton) < np.abs(p)
        z = np.where(better, newton, z)
        p = np.where(better, p_newton, p)
        ok = np.isfinite(z) & (
            np.abs(p) <= BACKWARD_ERROR_TOL * np.maximum(1.0, np.abs(z)) ** n)
    if not np.all(ok):
        raise TorelliLabError(
            f"{np.count_nonzero(~ok)} of {n} roots miss the backward-error bound")
    return z


# ---------------------------------------------------------------------------
# projective points and divisors
# ---------------------------------------------------------------------------

class ProjectivePointP1:
    """A point of P^1 stored as a unit vector (z0, z1) in C^2.

    Normalization: unit Euclidean norm and the first nonzero coordinate
    rotated to be real and positive, which makes point comparison and
    divisor ordering deterministic.
    """

    __slots__ = ("z0", "z1")

    def __init__(self, z0, z1):
        z0 = complex(z0)
        z1 = complex(z1)
        norm = math.hypot(abs(z0), abs(z1))
        if norm == 0.0:
            raise ValueError("(0, 0) is not a point of P^1")
        z0 /= norm
        z1 /= norm
        pivot = z0 if abs(z0) > 1e-12 else z1
        phase = pivot / abs(pivot)
        z0 /= phase
        z1 /= phase
        if abs(z0) <= 1e-12:
            z0 = 0.0 + 0.0j
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "z1", z1)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePointP1 is immutable")

    @classmethod
    def from_affine(cls, z) -> "ProjectivePointP1":
        return cls(1.0, complex(z))

    @classmethod
    def infinity(cls) -> "ProjectivePointP1":
        return cls(0.0, 1.0)

    @property
    def is_infinity(self) -> bool:
        return self.z0 == 0.0

    def affine(self):
        """The affine coordinate z1/z0, or None at infinity."""
        if self.is_infinity:
            return None
        return self.z1 / self.z0

    def to_json(self):
        """JSON form: "inf", or [re, im] of the affine coordinate."""
        if self.is_infinity:
            return "inf"
        a = self.affine()
        return [a.real, a.imag]

    def chordal(self, other: "ProjectivePointP1") -> float:
        """|z0 w1 - z1 w0| for unit representatives: the sine of the angle."""
        return abs(self.z0 * other.z1 - self.z1 * other.z0)

    def _sort_key(self):
        if self.is_infinity:
            return (1, 0.0, 0.0)
        a = self.affine()
        return (0, a.real, a.imag)

    def __repr__(self):
        if self.is_infinity:
            return "P1(inf)"
        a = self.affine()
        return f"P1({a.real:.6g}{a.imag:+.6g}j)"


@dataclass(frozen=True)
class DivisorP1:
    """A multiset of points of P^1 with positive multiplicities."""

    points: tuple
    degree: int = field(init=False)

    def __post_init__(self):
        pts = tuple((p, int(m)) for p, m in self.points)
        for _, m in pts:
            if m <= 0:
                raise DivisorError("multiplicities must be positive")
        # ProjectivePointP1.chordal of every pair i < j at once
        z = np.array([(p.z0, p.z1) for p, _ in pts],
                     dtype=complex).reshape(-1, 2)
        i, j = np.triu_indices(len(pts), 1)
        chordal = np.abs(z[i, 0] * z[j, 1] - z[i, 1] * z[j, 0])
        if np.any(chordal <= CLUSTER_TOL):
            raise DivisorError(
                "divisor points are not separated at the clustering "
                f"scale {CLUSTER_TOL}")
        pts = tuple(sorted(pts, key=lambda pm: pm[0]._sort_key()))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "degree", sum(m for _, m in pts))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def is_reduced(self) -> bool:
        return all(m == 1 for _, m in self.points)


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

class BinaryForm:
    """Homogeneous form of fixed degree in (Z0, Z1) with rational
    coefficients, each an int when integral and a Fraction otherwise."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        degree = int(degree)
        coeffs = list(coeffs)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if len(coeffs) != degree + 1:
            raise ValueError(
                f"degree {degree} needs {degree + 1} coefficients, "
                f"got {len(coeffs)}")
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("binary forms are exact; coefficients must be "
                            "int or Fraction")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(
            c.numerator if c.denominator == 1 else c for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    # ---- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, [0] * (degree + 1))

    @classmethod
    def constant(cls, value, degree: int) -> "BinaryForm":
        """The affine constant ``value`` as the form value*Z0^degree."""
        coeffs = [value] + [0] * degree
        return cls(degree, coeffs)

    @classmethod
    def from_affine(cls, affine_coeffs, degree: int) -> "BinaryForm":
        """Homogenize an affine polynomial (ascending in z = Z1/Z0)."""
        affine_coeffs = list(affine_coeffs)
        if len(affine_coeffs) > degree + 1:
            raise ValueError("affine degree exceeds the form degree")
        coeffs = affine_coeffs + [0] * (degree + 1 - len(affine_coeffs))
        return cls(degree, coeffs)

    # ---- basic structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def affine_degree(self) -> int:
        """Largest index with a nonzero coefficient."""
        return poly_degree(self.coeffs)

    def mult_at_infinity(self) -> int:
        if self.is_zero:
            raise ZeroFormError("the zero form has no root divisor")
        return self.degree - self.affine_degree()

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"BinaryForm(deg={self.degree})"

    # ---- arithmetic -------------------------------------------------------

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("can only add forms of equal degree")
        return BinaryForm(self.degree,
                          [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-1) * other

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return BinaryForm(self.degree, [scalar * c for c in self.coeffs])
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            return BinaryForm.from_affine(poly_mul(self.coeffs, other.coeffs),
                                          self.degree + other.degree)
        return self.__rmul__(other)

    def __pow__(self, n: int) -> "BinaryForm":
        if n < 0:
            raise ValueError("negative powers are not forms")
        out = BinaryForm.constant(1, 0)
        for _ in range(n):
            out = out * self
        return out

    # ---- evaluation ---------------------------------------------------------

    def eval_pair(self, z0, z1):
        """Value at representative coordinates; exact for rational input."""
        d = self.degree
        pow0 = [1]
        pow1 = [1]
        for _ in range(d):
            pow0.append(pow0[-1] * z0)
            pow1.append(pow1[-1] * z1)
        return sum(c * pow0[d - k] * pow1[k]
                   for k, c in enumerate(self.coeffs) if c)


# ---------------------------------------------------------------------------
# the module operations
# ---------------------------------------------------------------------------

def transvectant_first(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Jacobian-determinant covariant f_Z0 g_Z1 - f_Z1 g_Z0.

    For forms of degrees m, n >= 1 the result has exact degree m + n - 2
    (possibly the zero form when f and g are algebraically dependent).  By
    Euler's identity Z0 f_Z0 + Z1 f_Z1 = m f, on the affine chart Z0 = 1 it
    equals m f g' - n g f', which is how it is computed; the terms of
    degree m + n - 1 cancel.
    """
    m, n = f.degree, g.degree
    if m < 1 or n < 1:
        raise ValueError("transvectant needs forms of degree at least 1")
    fa, ga = f.coeffs, g.coeffs
    w = poly_add(poly_scale(poly_mul(fa, poly_derivative(ga)), m),
                 poly_scale(poly_mul(ga, poly_derivative(fa)), -n))
    return BinaryForm.from_affine(w, m + n - 2)


def roots_projective(f: BinaryForm) -> DivisorP1:
    """All deg(f) projective roots with multiplicities summing to deg(f).

    The multiplicity structure comes from the squarefree decomposition over
    Q; floats only locate the points.
    """
    if f.is_zero:
        raise ZeroFormError("the zero form has no root divisor")
    return divisor_from_factors(f, squarefree_decomposition(f.coeffs))


def divisor_from_factors(f: BinaryForm, factors) -> DivisorP1:
    """The root divisor of the nonzero form f, given the squarefree
    decomposition of its affine part as ``squarefree_decomposition``
    returns it.  The root at (0, 1) carries multiplicity deg(f) - deg(affine
    part).
    """
    entries = [(ProjectivePointP1.from_affine(r), mult)
               for factor, mult in factors
               for r in _roots_dense(factor)]
    inf_mult = f.mult_at_infinity()
    if inf_mult > 0:
        entries.append((ProjectivePointP1.infinity(), inf_mult))
    return DivisorP1(tuple(entries))


def forms_coprime(f: BinaryForm, g: BinaryForm) -> bool:
    """Exact test that f and g share no projective root."""
    if f.is_zero or g.is_zero:
        raise ZeroFormError("coprimality with the zero form is undefined")
    if f.mult_at_infinity() > 0 and g.mult_at_infinity() > 0:
        return False
    return gcd_is_constant(poly_strip(f.coeffs), poly_strip(g.coeffs))
