"""Binary forms: evaluation, roots with multiplicities, the transvectant."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from conftest import (
    form_is_squarefree,
    multiplicity_at,
    poly_is_squarefree,
    random_exact_form,
)
from torelli_lab import binforms
from torelli_lab.binforms import (
    CLUSTER_TOL,
    BinaryForm,
    DivisorError,
    DivisorP1,
    ProjectivePointP1,
    ZeroFormError,
    forms_coprime,
    poly_add,
    poly_derivative,
    poly_divexact,
    poly_gcd,
    poly_degree,
    poly_mul,
    poly_scale,
    poly_strip,
    roots_projective,
    squarefree_decomposition,
    transvectant_first,
)
from torelli_lab.errors import TorelliLabError
from torelli_lab.surfaces import (
    discriminant,
    make_random_general,
    make_with_I2,
    ramification_form,
)

SQRT2 = math.sqrt(2.0)


def eval_point(f: BinaryForm, p: ProjectivePointP1) -> complex:
    return complex(f.eval_pair(p.z0, p.z1))


def affine_transvectant(f: BinaryForm, g: BinaryForm):
    """The classical weighted combination m' f g' - n' g f' on the chart Z0=1.

    Returned as an affine coefficient list.  ``transvectant_first`` computes
    with the same identity times hcf(m, n), so the tests that use this pin
    that scaling only; the Jacobian from the homogeneous partials and the
    sympy Jacobian are W's independent references.
    """
    if f.degree < 1 or g.degree < 1:
        raise ValueError("transvectant needs forms of degree at least 1")
    h = math.gcd(f.degree, g.degree)
    mp, np_ = f.degree // h, g.degree // h
    fa, ga = list(f.coeffs), list(g.coeffs)
    term1 = poly_scale(poly_mul(fa, poly_derivative(ga)), mp)
    term2 = poly_scale(poly_mul(ga, poly_derivative(fa)), np_)
    return poly_add(term1, poly_scale(term2, -1))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    f = BinaryForm(2, [0, 1, 0])                       # Z0 Z1
    assert eval_point(f, ProjectivePointP1(1, 0)) == 0
    g = BinaryForm(2, [1, 0, 1])                       # Z0^2 + Z1^2
    p = ProjectivePointP1(1 / SQRT2, 1 / SQRT2)
    assert abs(eval_point(g, p) - 1.0) < 1e-14
    assert eval_point(BinaryForm(5, [0] * 6), p) == 0


def test_exact_evaluation_is_exact():
    f = BinaryForm(3, [Fraction(1, 3), 0, -2, 1])
    val = f.eval_pair(Fraction(1), Fraction(1, 2))
    assert val == Fraction(1, 3) - 2 * Fraction(1, 4) + Fraction(1, 8)


@pytest.mark.parametrize("bad", [0.5, 2j])
def test_float_and_complex_coefficients_are_rejected(bad):
    with pytest.raises(TypeError):
        BinaryForm(2, [1, bad, 0])
    f = BinaryForm(2, [1, 0, 1])
    with pytest.raises(TypeError):
        bad * f
    with pytest.raises(TypeError):
        f * bad


# ---------------------------------------------------------------------------
# the integer kernel
# ---------------------------------------------------------------------------

def _all_int(coeffs):
    return all(type(c) is int for c in coeffs)


def test_sampled_surface_is_integer_throughout():
    s = make_random_general(5, 0)
    delta, w = discriminant(s), ramification_form(s)
    for form in (s.g4, s.g6, delta, w):
        assert _all_int(form.coeffs)
    for form in (delta, w):
        aff = poly_strip(form.coeffs)
        factors = squarefree_decomposition(aff)
        assert factors and all(_all_int(f) for f, _ in factors)
        assert _all_int(poly_gcd(aff, poly_derivative(aff)))
    assert _all_int(poly_gcd(poly_strip(delta.coeffs), poly_strip(w.coeffs)))


def test_coefficients_are_int_exactly_when_integral():
    assert type(BinaryForm(1, [Fraction(4, 2), 1]).coeffs[0]) is int
    s = make_with_I2(4, [Fraction(1, 2), -3], seed=0)
    coeffs = s.g4.coeffs + s.g6.coeffs + discriminant(s).coeffs
    assert any(type(c) is Fraction for c in coeffs)
    for c in coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction)


# the last pair divides over Q but not over Z
@pytest.mark.parametrize("a, b", [([1, 0, 1], [1, 2]), ([1, 3], [0, 2]),
                                  ([1, 2], [2, 4])])
def test_exact_division_over_z_rejects_a_remainder(a, b):
    with pytest.raises(ArithmeticError):
        poly_divexact(a, b)


# ---------------------------------------------------------------------------
# the certified gcd
# ---------------------------------------------------------------------------

def _prs_gcd(a, b):
    """``poly_gcd`` with GCDHEU given no evaluation point, so the primitive
    PRS alone answers: the oracle of the certified path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binforms, "_HEU_TRIES", 0)
        return poly_gcd(a, b)


def _agrees_with_the_prs(a, b):
    g = poly_gcd(a, b)
    assert g == _prs_gcd(a, b)
    assert g == poly_gcd(b, a)
    return g


@pytest.mark.parametrize("h", range(3, 9))
def test_poly_gcd_equals_the_prs_on_sampled_surfaces(h):
    for seed in range(5):
        s = make_random_general(h, seed)
        delta = poly_strip(discriminant(s).coeffs)
        w = poly_strip(ramification_form(s).coeffs)
        for a, b in ((delta, poly_derivative(delta)),
                     (w, poly_derivative(w)), (w, delta)):
            assert _agrees_with_the_prs(a, b) == [1]


def test_poly_gcd_equals_the_prs_on_i2_surfaces():
    # Delta has a double root at each prescribed I2 point, which W shares
    degrees = []
    for r in range(1, 5):
        s = make_with_I2(3, [0, 1, -1, 2][:r], seed=r)
        delta = poly_strip(discriminant(s).coeffs)
        w = poly_strip(ramification_form(s).coeffs)
        for a, b in ((delta, poly_derivative(delta)),
                     (w, poly_derivative(w)), (w, delta)):
            degrees.append(poly_degree(_agrees_with_the_prs(a, b)))
    assert degrees[0::3] == [1, 2, 3, 4]
    assert all(d >= r for d, r in zip(degrees[2::3], range(1, 5)))


@pytest.mark.parametrize("k", range(1, 6))
def test_poly_gcd_finds_a_known_gcd(k):
    g = [1]
    for r in range(1, k + 1):
        g = poly_mul(g, [r, 1])
    u = poly_mul(poly_mul([-1, 1], [-2, 1]), [3, 0, 1])
    v = poly_mul(poly_mul([-7, 1], [-9, 1]), [-11, 1])
    a = poly_scale(poly_mul(g, u), 5)
    b = poly_scale(poly_mul(g, v), -3)
    assert _agrees_with_the_prs(a, b) == g


def test_an_unlucky_evaluation_point_is_rejected_by_exact_division(monkeypatch):
    # a = z - 1 and b = 3z + 1 are coprime, but at xi = 2 |a| + 3 = 5 their
    # values 4 and 16 share 4, whose symmetric base-5 digits read z - 1:
    # that candidate fails to divide b, and at xi = 13 the gcd 4 reads 1
    a, b = [-1, 1], [1, 3]
    candidates = []
    original = binforms.poly_divexact

    def recorded(x, y):
        candidates.append(list(y))
        return original(x, y)

    monkeypatch.setattr(binforms, "poly_divexact", recorded)
    assert poly_gcd(a, b) == [1] == _prs_gcd(a, b)
    assert candidates == [[-1, 1], [-1, 1], [1], [1]]


# ---------------------------------------------------------------------------
# projective roots
# ---------------------------------------------------------------------------

def test_roots_plus_minus_one():
    f = BinaryForm(2, [-1, 0, 1])                      # Z1^2 - Z0^2
    div = roots_projective(f)
    assert div.degree == 2
    affs = sorted(p.affine().real for p, _ in div)
    assert affs == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_roots_of_z0_cubed_all_at_infinity():
    div = roots_projective(BinaryForm(3, [1, 0, 0, 0]))
    assert len(div) == 1
    (p, mult), = div
    assert p.is_infinity and mult == 3


def test_roots_with_point_at_infinity():
    # affine z^2 - 1 embedded in degree 3: roots at +-1 and infinity
    div = roots_projective(BinaryForm(3, [-1, 0, 1, 0]))
    assert div.degree == 3
    assert multiplicity_at(div, ProjectivePointP1.infinity()) == 1
    assert multiplicity_at(div, ProjectivePointP1.from_affine(1)) == 1
    assert multiplicity_at(div, ProjectivePointP1.from_affine(-1)) == 1


def _separated_by_the_pairwise_loop(points):
    """The pairwise chordal scan DivisorP1 once ran point by point: the
    oracle of its vectorized scan."""
    return all(points[i].chordal(points[j]) > CLUSTER_TOL
               for i in range(len(points)) for j in range(i + 1, len(points)))


def _at_angle(p, t):
    """A point at chordal distance sin(t) from p."""
    c, s = math.cos(t), math.sin(t)
    return ProjectivePointP1(p.z0 * c - p.z1.conjugate() * s,
                             p.z1 * c + p.z0.conjugate() * s)


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("base", [
    lambda: [ProjectivePointP1.from_affine(0.3 - 1.2j)],
    lambda: [ProjectivePointP1.infinity()],
    lambda: [ProjectivePointP1.from_affine(2.0), ProjectivePointP1.infinity()],
    lambda: [p for p, _ in roots_projective(
        ramification_form(make_random_general(5, 0)))],
], ids=["affine", "infinity", "two-points", "roots-of-W"])
def test_divisor_separation_matches_the_pairwise_loop(base, scale):
    base = base()
    near = _at_angle(base[-1], math.asin(scale * CLUSTER_TOL))
    assert math.isclose(near.chordal(base[-1]), scale * CLUSTER_TOL,
                        rel_tol=1e-6)
    for points in (base, base + [near]):
        separated = _separated_by_the_pairwise_loop(points)
        assert separated == (len(points) == len(base) or scale > 1)
        if separated:
            assert len(DivisorP1(tuple((p, 1) for p in points))) == len(points)
        else:
            with pytest.raises(DivisorError):
                DivisorP1(tuple((p, 1) for p in points))


def test_zero_form_has_no_divisor():
    with pytest.raises(ZeroFormError):
        roots_projective(BinaryForm(4, [0] * 5))


def test_root_multiplicities_sum_exactly():
    rng = random.Random(5)
    for trial in range(30):
        f = random_exact_form(rng, rng.randint(2, 8))
        g = random_exact_form(rng, rng.randint(1, 4))
        # build in repeated factors to exercise the exact decomposition
        form = f * g * g
        div = roots_projective(form)
        assert div.degree == form.degree


def test_multiplicities_from_exact_decomposition():
    # (z - 1)^2 (z + 2), degree 3
    f = BinaryForm(3, [2, -3, 0, 1])
    div = roots_projective(f)
    assert multiplicity_at(div, ProjectivePointP1.from_affine(1)) == 2
    assert multiplicity_at(div, ProjectivePointP1.from_affine(-2)) == 1


def test_backward_error_bound():
    rng = random.Random(17)
    for _ in range(20):
        f = random_exact_form(rng, rng.randint(3, 20))
        fc = [complex(c) for c in f.coeffs]
        scale = max(abs(c) for c in fc)
        div = roots_projective(f)
        for p, mult in div:
            if mult != 1 or p.is_infinity:
                continue
            r = p.affine()
            val = abs(f.eval_pair(1, r))
            assert val <= 1e-9 * scale * max(1.0, abs(r)) ** f.degree


def _newton_refined(factor, roots, dps=50, digits=45):
    """Each root refined by Newton's method at ``dps`` digits on the exact
    integer factor, until a step is below 10^-digits * max(1, |z|): the
    reference for the forward error."""
    with mpmath.workdps(dps):
        p = [mpmath.mpf(int(c)) for c in reversed(factor)]
        dp = [k * c for k, c in zip(range(len(p) - 1, 0, -1), p)]
        tol = mpmath.mpf(10) ** -digits
        out = []
        for r in roots:
            z = mpmath.mpc(r.real, r.imag)
            for _ in range(20):
                step = mpmath.polyval(p, z) / mpmath.polyval(dp, z)
                z -= step
                if abs(step) <= tol * max(1, abs(z)):
                    break
            else:
                raise AssertionError("reference Newton iteration did not converge")
            out.append(complex(z))
    return np.array(out)


@pytest.mark.parametrize("form_of", [
    lambda: ramification_form(make_random_general(5, 0)),
    lambda: ramification_form(make_random_general(8, 0)),
    lambda: discriminant(make_random_general(8, 1)),
], ids=["W-h5-seed0", "W-h8-seed0", "Delta-h8-seed1"])
def test_roots_match_a_high_precision_reference(form_of):
    worst = 0.0
    for factor, _ in squarefree_decomposition(poly_strip(form_of().coeffs)):
        roots = binforms._roots_dense(factor)
        ref = _newton_refined(factor, roots)
        worst = max(worst, float(np.max(np.abs(roots - ref) / np.abs(ref))))
        # a real factor's roots are closed under conjugation, bit for bit,
        # and none is off the real line by less than the clustering scale
        assert np.array_equal(np.sort(roots), np.sort(roots.conj()))
        assert not np.any((roots.imag != 0) & (np.abs(roots.imag) < CLUSTER_TOL))
    assert worst <= 2e-15


def test_roots_near_an_i2_fibre_are_distinct_at_the_cluster_scale():
    # W has a near-triple root cluster at each prescribed I2 point, here
    # -3 and -3 +- 1.5e-4i; its roots must still be located well inside the
    # scale at which a divisor declares points distinct
    s = make_with_I2(4, [Fraction(1, 2), -3], seed=1)
    worst = 0.0
    for factor, _ in squarefree_decomposition(
            poly_strip(ramification_form(s).coeffs)):
        roots = binforms._roots_dense(factor)
        ref = _newton_refined(factor, roots, digits=30)
        worst = max(worst, float(np.max(np.abs(roots - ref) / np.abs(ref))))
    assert worst < CLUSTER_TOL


def test_root_finding_scales_tall_factors_by_an_exact_power_of_two():
    # a factor times 2^k has the same roots; its coefficients overflow a
    # double from k of about 1000 on, and every k gives the same bits
    factors = squarefree_decomposition(poly_strip(
        ramification_form(make_random_general(3, 0)).coeffs))
    for factor, _ in factors:
        roots = binforms._roots_dense(factor)
        for k in (500, 1100, 4000):
            scaled = binforms._roots_dense([c << k for c in factor])
            assert np.array_equal(scaled, roots)


@pytest.mark.parametrize("corrupt", ["one-root-short", "nan-root", "shifted-root",
                                     "no-convergence"])
def test_root_finding_raises_on_a_bad_eigenvalue_set(monkeypatch, corrupt):
    coeffs = [720, -1764, 1624, -735, 175, -21, 1]  # roots 1..6
    assert np.allclose(np.sort(binforms._roots_dense(coeffs).real), range(1, 7))
    companion_roots = np.roots

    def bad_roots(p):
        if corrupt == "no-convergence":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        r = np.array(companion_roots(p), dtype=complex)
        if corrupt == "one-root-short":
            return r[:-1]
        r[0] = complex("nan") if corrupt == "nan-root" else r[0] + 0.1
        return r

    monkeypatch.setattr(np, "roots", bad_roots)
    with pytest.raises(TorelliLabError):
        binforms._roots_dense(coeffs)


# ---------------------------------------------------------------------------
# transvectant
# ---------------------------------------------------------------------------

def test_transvectant_antisymmetry_and_self_annihilation():
    rng = random.Random(23)
    for _ in range(25):
        f = random_exact_form(rng, rng.randint(1, 7))
        g = random_exact_form(rng, rng.randint(1, 7))
        t_fg = transvectant_first(f, g)
        t_gf = transvectant_first(g, f)
        assert (t_fg + t_gf).is_zero
        assert transvectant_first(f, f).is_zero
        # bilinearity in the first slot
        f2 = random_exact_form(rng, f.degree)
        lhs = transvectant_first(f + f2, g)
        rhs = transvectant_first(f, g) + transvectant_first(f2, g)
        assert lhs == rhs


def test_transvectant_monomial_example():
    f = BinaryForm(4, [1, 0, 0, 0, 0])                 # Z0^4
    g = BinaryForm(6, [0, 0, 0, 0, 0, 0, 1])           # Z1^6
    t = transvectant_first(f, g)
    expected = [0] * 9
    expected[5] = 24                                   # 24 Z0^3 Z1^5
    assert t == BinaryForm(8, expected)


def test_affine_proportionality_constant_is_hcf():
    """Affine part of the Jacobian determinant = hcf(m,n) * (m' f g' - n' g f')."""
    rng = random.Random(101)
    for _ in range(50):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        f = random_exact_form(rng, m)
        g = random_exact_form(rng, n)
        jac_affine = poly_strip(transvectant_first(f, g).coeffs)
        classical = affine_transvectant(f, g)
        h = math.gcd(m, n)
        assert jac_affine == poly_strip(poly_scale(classical, h))


def test_affine_proportionality_spec_instance():
    # affine f = 1 as Z0^4, affine g = z as Z0^5 Z1: classical value 2,
    # homogeneous affine part 4 = hcf(4, 6) * 2
    f = BinaryForm(4, [1, 0, 0, 0, 0])
    g = BinaryForm(6, [0, 1, 0, 0, 0, 0, 0])
    assert affine_transvectant(f, g) == [Fraction(2)]
    assert poly_strip(transvectant_first(f, g).coeffs) == [Fraction(4)]


def test_transvectant_against_symbolic_jacobian():
    z0, z1 = sympy.symbols("z0 z1")
    rng = random.Random(2)
    for _ in range(10):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        f = random_exact_form(rng, m)
        g = random_exact_form(rng, n)
        fs = sum(sympy.Rational(int(c)) * z0 ** (m - k) * z1 ** k
                 for k, c in enumerate(f.coeffs))
        gs = sum(sympy.Rational(int(c)) * z0 ** (n - k) * z1 ** k
                 for k, c in enumerate(g.coeffs))
        jac = sympy.expand(sympy.diff(fs, z0) * sympy.diff(gs, z1)
                           - sympy.diff(fs, z1) * sympy.diff(gs, z0))
        ours = transvectant_first(f, g)
        poly = sympy.Poly(jac, z0, z1) if jac != 0 else None
        for k, c in enumerate(ours.coeffs):
            d = ours.degree
            expected = poly.coeff_monomial(z0 ** (d - k) * z1 ** k) if poly else 0
            assert Fraction(int(sympy.Integer(expected))) == c


def _jacobian_from_partials(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f_Z0 g_Z1 - f_Z1 g_Z0 built from the coefficients of the four
    homogeneous partial derivatives, with no affine identity."""
    def partials(h):
        d, c = h.degree, h.coeffs
        return ([(d - k) * c[k] for k in range(d)],
                [k * c[k] for k in range(1, d + 1)])

    def product(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    (f0, f1), (g0, g1) = partials(f), partials(g)
    return BinaryForm(f.degree + g.degree - 2,
                      [x - y for x, y in zip(product(f0, g1), product(f1, g0))])


def test_transvectant_equals_the_jacobian_of_the_partials():
    # zero leading coefficients (roots at infinity) and Fraction entries
    rng = random.Random(20)
    for _ in range(400):
        forms = []
        for degree in (rng.randint(1, 12), rng.randint(1, 12)):
            coeffs = [rng.choice((0, rng.randint(-9, 9),
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
                      for _ in range(degree + 1)]
            forms.append(BinaryForm(degree, coeffs))
        assert transvectant_first(*forms) == _jacobian_from_partials(*forms)


def test_transvectant_rejects_constants():
    with pytest.raises(ValueError):
        transvectant_first(BinaryForm(0, [1]), BinaryForm(3, [1, 0, 0, 0]))


# ---------------------------------------------------------------------------
# squarefree / coprime
# ---------------------------------------------------------------------------

def test_squarefree_and_coprime_examples():
    f = BinaryForm(2, [-1, 0, 1])                      # Z1^2 - Z0^2
    g = BinaryForm(1, [1, 0])                          # Z0
    assert form_is_squarefree(f) and forms_coprime(f, g)

    f2 = BinaryForm(3, [0, 1, 0, 0])                   # Z0^2 Z1
    assert form_is_squarefree(f2) is False

    f3 = BinaryForm(2, [0, 1, 0])                      # Z0 Z1
    assert form_is_squarefree(f3) and not forms_coprime(f3, g)


def test_squarefree_sees_the_point_at_infinity():
    # affine part z (squarefree) but Z0^2 divides the form
    f = BinaryForm(3, [0, 1, 0, 0])
    assert form_is_squarefree(f) is False


def test_squarefree_and_coprime_rejects_zero():
    with pytest.raises(ZeroFormError):
        form_is_squarefree(BinaryForm(2, [0] * 3))
    with pytest.raises(ZeroFormError):
        forms_coprime(BinaryForm(2, [0] * 3), BinaryForm(1, [1, 0]))


def test_poly_gcd_and_decomposition():
    rng = random.Random(31)
    for _ in range(20):
        a = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 6))]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 6))]
        c = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 4))]
        a, b, c = poly_strip(a), poly_strip(b), poly_strip(c)
        if poly_degree(c) < 1 or poly_degree(a) < 1 or poly_degree(b) < 1:
            continue
        g = poly_gcd(poly_mul(a, c), poly_mul(b, c))
        assert poly_degree(g) >= poly_degree(c)
        # the decomposition reconstructs the total degree with multiplicity
        prod = poly_mul(poly_mul(a, c), c)
        total = sum(m * poly_degree(f) for f, m in squarefree_decomposition(prod))
        assert total == poly_degree(prod)


def test_squarefree_input_is_decomposed_without_a_prs_gcd(monkeypatch):
    def no_prs(a, b):
        raise AssertionError("PRS step run on a squarefree input")

    rng = random.Random(5)
    inputs = [[Fraction(-1), Fraction(0), Fraction(1)],
              poly_strip(transvectant_first(random_exact_form(rng, 8),
                                            random_exact_form(rng, 12)).coeffs)]
    expected = [binforms._to_int_primitive(a) for a in inputs]
    monkeypatch.setattr(binforms, "_pseudo_rem", no_prs)
    for a, prim in zip(inputs, expected):
        assert squarefree_decomposition(a) == [(prim, 1)]


def _divexact_over_q(a, b):
    """Quotient over the rationals of a polynomial b divides, by long
    division in ``Fraction`` arithmetic: the rational reference Yun below
    divides with."""
    a = [Fraction(c) for c in poly_strip(a)]
    b = [Fraction(c) for c in poly_strip(b)]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for j in range(len(b)):
            a[k + j] -= c * b[j]
        a = poly_strip(a)
    if a:
        raise ArithmeticError("division was expected to be exact")
    return poly_strip(q)


def _squarefree_decomposition_before_shared_gcd(a):
    """Yun behind a separate squarefree test, which computes the gcd of
    (a, a') a second time on an input with a repeated factor: the reference
    of the test below.  Every gcd goes through the module attribute
    ``binforms.poly_gcd`` so that a patched counter sees it."""
    a = poly_strip(a)
    if poly_is_squarefree(a):
        return [([Fraction(c) for c in binforms._to_int_primitive(a)], 1)]
    da = poly_derivative(a)
    g = binforms.poly_gcd(a, da)
    w = _divexact_over_q(a, g)
    y = _divexact_over_q(da, g)
    out = []
    k = 1
    while True:
        z = poly_add(y, poly_scale(poly_derivative(w), -1))
        if not z:
            if poly_degree(w) > 0:
                out.append(([Fraction(c) for c in binforms._to_int_primitive(w)], k))
            break
        p = binforms.poly_gcd(w, z)
        if poly_degree(p) > 0:
            out.append(([Fraction(c) for c in p], k))
            w = _divexact_over_q(w, p)
            y = _divexact_over_q(z, p)
        else:
            y = z
        k += 1
    return out


def test_repeated_factor_costs_one_gcd_of_a_and_its_derivative(monkeypatch):
    # Delta of a surface with prescribed I2 fibres has double roots there
    delta = poly_strip(discriminant(make_with_I2(3, [0, 1], seed=1)).coeffs)
    calls = []
    original = binforms.poly_gcd

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(binforms, "poly_gcd", counted)
    before = _squarefree_decomposition_before_shared_gcd(delta)
    calls_before = len(calls)
    calls.clear()
    after = squarefree_decomposition(delta)
    assert after == before
    assert [m for _, m in after] == [1, 2]
    assert len(calls) == calls_before - 1
