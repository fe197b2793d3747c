"""Weierstrass surfaces: invariants, fibre classification, constructors."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import form_is_squarefree, save_surface
from torelli_lab import binforms, cli, surfaces
from torelli_lab.binforms import (
    BinaryForm,
    ProjectivePointP1,
    forms_coprime,
    poly_derivative,
    poly_eval,
    poly_strip,
    transvectant_first,
)
from torelli_lab.errors import ConsistencyError, UsageError
from torelli_lab.ramification import ramification_divisor
from torelli_lab.surfaces import (
    DegenerateSurfaceError,
    Invariants,
    SurfaceGateError,
    UnsupportedGenusError,
    WeierstrassSurface,
    classify_fibers,
    discriminant,
    invariants,
    load_surface,
    make_random_general,
    make_with_I2,
    surface_from_json_dict,
    surface_to_json_dict,
)


def surface_from_affine(dL, g4_affine, g6_affine):
    return WeierstrassSurface(
        dL,
        BinaryForm.from_affine(g4_affine, 4 * dL),
        BinaryForm.from_affine(g6_affine, 6 * dL),
    )


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_dl4():
    inv = Invariants.from_genus_irregularity(3, 0)
    assert (inv.h, inv.N, inv.chi, inv.c2, inv.deg_phi,
            inv.deg_canonical_curve) == (3, 38, 4, 48, 96, 2)
    assert inv.h11 == inv.N + 2


def test_invariants_dl5():
    inv = Invariants.from_genus_irregularity(4, 0)
    assert (inv.h, inv.N, inv.deg_canonical_curve) == (4, 48, 3)


def test_invariants_carry_q_symbolically():
    inv = Invariants.from_genus_irregularity(7, 2)
    assert inv.chi == 6
    assert inv.N == 10 * 7 + 8 * (1 - 2)
    assert inv.deg_canonical_curve == 8


def test_gate():
    with pytest.raises(SurfaceGateError):
        make_random_general(2, seed=0)
    # 8h > 10(q-1) holds trivially at q=0: 24 > -10
    assert 8 * 3 > 10 * (0 - 1)


def test_positive_genus_unimplemented():
    g4 = BinaryForm.zero(16)
    g6 = BinaryForm.from_affine([1], 24)
    with pytest.raises(UnsupportedGenusError):
        WeierstrassSurface(4, g4, g6, q=1)


# ---------------------------------------------------------------------------
# discriminant and fibres
# ---------------------------------------------------------------------------

def test_discriminant_constant():
    s = surface_from_affine(4, [0], [1])
    delta = discriminant(s)
    assert poly_strip(delta.coeffs) == [Fraction(-27)]


def test_discriminant_two_simple_roots():
    # g4 = 3, g6 = z: 27 - 27 z^2
    s = surface_from_affine(4, [3], [0, 1])
    delta = discriminant(s)
    assert poly_strip(delta.coeffs) == [Fraction(27), Fraction(0), Fraction(-27)]
    report = classify_fibers(s)
    finite = [r for r in report.fibers if not r.point.is_infinity]
    assert {r.kodaira for r in finite} == {"I1"}


def test_discriminant_double_root():
    # g4 = 3, g6 = 1 - z^2: 27 z^2 (2 - z^2), double root at 0
    s = surface_from_affine(4, [3], [1, 0, -1])
    delta = discriminant(s)
    assert poly_strip(delta.coeffs) == [0, 0, Fraction(54), 0, Fraction(-27)]
    report = classify_fibers(s)
    origin = ProjectivePointP1.from_affine(0)
    rec = next(r for r in report.fibers if r.point.chordal(origin) < 1e-9)
    assert rec.kodaira == "I2" and rec.delta_val == 2
    assert report.I2_count == 1 and not report.all_I1


def test_additive_fiber_when_g4_vanishes():
    # g4 = z and g6 = z: delta = z^3 - 27 z^2 vanishes at 0 where g4 does too
    s = surface_from_affine(4, [0, 1], [0, 1])
    report = classify_fibers(s)
    origin = ProjectivePointP1.from_affine(0)
    rec = next(r for r in report.fibers if r.point.chordal(origin) < 1e-9)
    assert rec.kodaira == "additive_other" and rec.g4_vanishes


def test_isotrivial_discriminant_rejected():
    # g4 = 3 u^2, g6 = u^3 makes g4^3 - 27 g6^2 vanish identically
    u = [Fraction(1), Fraction(2)] + [Fraction(0)] * 7  # degree-8 affine poly 1 + 2z
    from torelli_lab.binforms import poly_mul
    u = poly_strip(u)
    u2 = poly_mul(u, u)
    u3 = poly_mul(u2, u)
    s = surface_from_affine(4, [3 * c for c in u2], u3)
    with pytest.raises(DegenerateSurfaceError):
        discriminant(s)


def test_fiber_valuation_mismatch_is_a_typed_error(monkeypatch):
    s = make_random_general(3, seed=0)
    monkeypatch.setattr(surfaces, "squarefree_decomposition", lambda aff: [])
    # a fresh copy: the sampler already stored the true factors of Delta on s
    with pytest.raises(ConsistencyError):
        classify_fibers(WeierstrassSurface(s.dL, s.g4, s.g6))


def test_fiber_valuations_sum_to_12dL():
    for seed in range(5):
        s = make_random_general(3, seed=seed)
        report = classify_fibers(s)
        assert sum(r.delta_val for r in report.fibers) == 12 * s.dL


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_make_random_general_postconditions():
    s = make_random_general(3, seed=1)
    assert s.dL == 4 and s.h == 3
    report = classify_fibers(s)
    assert report.all_I1
    s4 = make_random_general(4, seed=7)
    assert invariants(s4).N == 48
    assert classify_fibers(s4).all_I1


def test_make_random_general_deterministic():
    assert make_random_general(3, seed=42) == make_random_general(3, seed=42)


def test_make_random_general_exact_genericity():
    s = make_random_general(3, seed=13)
    delta = discriminant(s)
    assert form_is_squarefree(delta) and forms_coprime(delta, s.g4)


def _genericity_running_every_test(s):
    """The three clauses each decided by its own exact test, (c) included
    when (a) holds: the reference for the shortcut that (a) implies (c)."""
    delta = discriminant(s)
    all_i1 = form_is_squarefree(delta)
    failed = [] if all_i1 else ["a"]
    try:
        w = surfaces.ramification_form(s)
    except surfaces.IsotrivialError:
        return surfaces.GeneralityReport(
            all_fibers_i1=all_i1, ram_reduced=False,
            ram_avoids_discriminant=False,
            failed_clauses=tuple(failed + ["b", "c"]),
            warnings=("ramification form vanishes identically",))
    reduced = form_is_squarefree(w)
    if not reduced:
        failed.append("b")
    disjoint = forms_coprime(w, delta)
    warnings = ()
    if not disjoint:
        failed.append("c")
        warnings = (
            "ramification meets the discriminant locus: multiplicities of "
            "div(W) are only contractual on the general locus",)
    return surfaces.GeneralityReport(
        all_fibers_i1=all_i1, ram_reduced=reduced,
        ram_avoids_discriminant=disjoint, failed_clauses=tuple(failed),
        warnings=warnings)


def test_clause_c_follows_from_clause_a(monkeypatch):
    # criterion 7's surfaces, then draws with coefficients in [-1, 1],
    # which make non-general surfaces common
    cases = [make_with_I2(3, [Fraction(p) for p in (0, 1, -1, 2)[:r]],
                          seed=100 * r + seed)
             for r in (1, 2, 3, 4) for seed in range(5)]
    monkeypatch.setattr(surfaces, "COEFF_BOUND", 1)
    rng = random.Random(0)
    while len(cases) < 140:
        dL = 4 + len(cases) % 2
        s = WeierstrassSurface(dL, surfaces._draw_form(rng, 4 * dL),
                               surfaces._draw_form(rng, 6 * dL))
        try:
            discriminant(s)
        except DegenerateSurfaceError:
            continue
        cases.append(s)
    failed = set()
    for s in cases:
        report = surfaces.genericity(s)
        assert report == _genericity_running_every_test(s)
        failed.update(report.failed_clauses)
        if report.all_fibers_i1:
            assert report.ram_avoids_discriminant
    assert failed == {"a", "b", "c"}


def test_one_reducedness_rule_agrees_with_the_gcd_test():
    # products with repeated factors and with roots at infinity, where the
    # rule reads the multiplicity off the degree drop
    rng = random.Random(3)
    verdicts = set()
    for _ in range(300):
        aff = [rng.randint(-3, 3) or 1]
        for _ in range(rng.randint(0, 4)):
            factor = [rng.randint(-3, 3), rng.choice((-1, 1))]
            aff = binforms.poly_mul(aff, factor if rng.random() < 0.6
                                    else binforms.poly_mul(factor, factor))
        f = BinaryForm.from_affine(aff, len(aff) - 1 + rng.randint(0, 2))
        factors = binforms.squarefree_decomposition(f.coeffs)
        verdict = surfaces._reduced(f, factors)
        assert verdict == form_is_squarefree(f)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_one_decomposition_per_form_per_surface(monkeypatch):
    """What ``analyze`` asks of a surface decomposes Delta once and W once,
    and so takes the gcd of (Delta, Delta') once.  The fibre table and the
    genericity decision each ask ``discriminant`` once: the benchmark counts
    the sampler's draws as its calls."""
    primitive = binforms._to_int_primitive
    for s in (make_random_general(4, seed=3), make_with_I2(3, [0, 1], seed=1)):
        s = WeierstrassSurface(s.dL, s.g4, s.g6)
        delta = primitive(discriminant(s).coeffs)
        w = primitive(surfaces.ramification_form(s).coeffs)
        delta_pair = (delta, primitive(poly_derivative(delta)))
        decomposed, delta_gcds, delta_asks = [], [], []
        decompose, gcd = binforms.squarefree_decomposition, binforms.poly_gcd
        ask = surfaces.discriminant

        def counted_decompose(a):
            decomposed.append(primitive(a))
            return decompose(a)

        def counted_gcd(a, b):
            if (primitive(a), primitive(b)) == delta_pair:
                delta_gcds.append(1)
            return gcd(a, b)

        with monkeypatch.context() as patch:
            for module in (binforms, surfaces):
                patch.setattr(module, "squarefree_decomposition",
                              counted_decompose)
            patch.setattr(binforms, "poly_gcd", counted_gcd)
            patch.setattr(surfaces, "discriminant",
                          lambda s: delta_asks.append(1) or ask(s))
            classify_fibers(s)
            ramification_divisor(s)
            surfaces.genericity(s)
        assert sorted(decomposed) == sorted([delta, w])
        assert len(delta_gcds) == 1
        assert len(delta_asks) == 2


def test_make_with_i2_local_equations_hold_exactly():
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    s = make_with_I2(3, points, seed=9)
    g4a = poly_strip(s.g4.coeffs)
    g6a = poly_strip(s.g6.coeffs)
    g4p = poly_derivative(g4a)
    g6p = poly_derivative(g6a)
    for p in points:
        a0, a1 = poly_eval(g4a, p), poly_eval(g4p, p)
        b0, b1 = poly_eval(g6a, p), poly_eval(g6p, p)
        assert a0 ** 3 - 27 * b0 ** 2 == 0
        assert 2 * a0 * b1 - 3 * a1 * b0 == 0


def test_make_with_i2_has_exact_valuation_two():
    s = make_with_I2(3, [Fraction(0)], seed=5)
    delta = discriminant(s)
    aff = poly_strip(delta.coeffs)
    d1 = poly_derivative(aff)
    d2 = poly_derivative(d1)
    assert poly_eval(aff, Fraction(0)) == 0
    assert poly_eval(d1, Fraction(0)) == 0
    assert poly_eval(d2, Fraction(0)) != 0
    w = transvectant_first(s.g4, s.g6)
    assert w.eval_pair(Fraction(1), Fraction(0)) == 0
    assert classify_fibers(s).I2_count >= 1


def test_make_with_i2_failed_jets_are_a_typed_error(monkeypatch):
    monkeypatch.setattr(surfaces, "_hermite_interpolant",
                        lambda points, values, derivs: [Fraction(1)])
    with pytest.raises(ConsistencyError):
        make_with_I2(3, [Fraction(0)], seed=0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hermite_interpolant_matches_rational_jets_exactly(r):
    # non-integer points, which the pinned I2 sets never use
    points = [Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4), Fraction(-2)][:r]
    rng = random.Random(r)

    def draw():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))

    for _ in range(5):
        values = [draw() for _ in points]
        derivs = [draw() for _ in points]
        t = surfaces._hermite_interpolant(points, values, derivs)
        assert t == poly_strip(t) and len(t) <= 2 * r     # degree < 2r
        assert all(isinstance(c, (int, Fraction)) for c in t)
        dt = poly_derivative(t)
        for p, v, d in zip(points, values, derivs):
            assert poly_eval(t, p) == v
            assert poly_eval(dt, p) == d


def _digest(surfs):
    digest = hashlib.sha256()
    for s in surfs:
        digest.update(json.dumps(surface_to_json_dict(s), sort_keys=True).encode())
    return digest.hexdigest()


SAMPLER_DIGEST = "a627bb189061c7e1249c3c3d9782546c3fa4d9f6cb38e0d7f9433a0622036740"
I2_DIGEST = "82c9d0c5d7fa04773372c146b7343c8799fa6ddcc12520875357959b25e6a5ed"


def _sampler_set():
    return [make_random_general(h, s) for h in (3, 4, 5, 6) for s in range(5)]


def _i2_set():
    return [make_with_I2(3, [0, 1, -1, 2][:r], s) for r in range(1, 5)
            for s in range(5)]


def _exact_facts(surfs):
    """Every exact decision an analysis makes on each surface: the
    genericity verdict, the squarefree factors of W, and the fibre table,
    read from the squarefree factors of Delta."""
    return [(surfaces.genericity(s), surfaces.ramification_factors(s),
             classify_fibers(s).to_json_dict()) for s in surfs]


def test_sampler_golden_digest():
    """The rejection sampler's exact decisions are pinned: a change in which
    draw is accepted moves the digest."""
    assert _digest(_sampler_set()) == SAMPLER_DIGEST


def test_i2_constructor_golden_digest():
    assert _digest(_i2_set()) == I2_DIGEST


def test_the_prs_fallback_alone_gives_the_same_surfaces_and_facts(monkeypatch):
    # the sampler's facts are pinned by its digest: every accepted draw is
    # general by construction
    certified = _exact_facts(_i2_set())
    steps = []
    original = binforms._pseudo_rem

    def counted(a, b):
        steps.append(1)
        return original(a, b)

    monkeypatch.setattr(binforms, "_HEU_TRIES", 0)
    monkeypatch.setattr(binforms, "_pseudo_rem", counted)
    assert _digest(_sampler_set()) == SAMPLER_DIGEST
    assert steps
    i2 = _i2_set()
    assert _digest(i2) == I2_DIGEST
    assert _exact_facts(i2) == certified


def test_every_gcd_of_the_pinned_sets_is_certified_without_the_prs(monkeypatch):
    def no_prs(a, b):
        raise AssertionError("a gcd fell back to the PRS")

    monkeypatch.setattr(binforms, "_pseudo_rem", no_prs)
    for h in (3, 4, 5, 6):                     # criterion 1's surfaces
        for seed in range(50):
            s = make_random_general(h, seed=1000 * h + seed)
            assert ramification_divisor(s).divisor.degree == 10 * h + 8
    sampled, i2 = _sampler_set(), _i2_set()
    assert _digest(sampled) == SAMPLER_DIGEST
    assert _digest(i2) == I2_DIGEST
    for s in i2:                               # the rest of an analysis
        ramification_divisor(s)
    _exact_facts(sampled + i2)


ANALYZE_DIGEST = "4cf0df2257ae2e1cb70652ecb8cf9c91228bf0f6d2e8591febd7ce62ddac88d7"


def _analyze_digest(surfs, tmp_path):
    """sha256 of the ``analyze`` reports of ``surfs``, ``timestamp``
    dropped: fibres, divisor, genericity and invariants, byte for byte."""
    digest = hashlib.sha256()
    path, out = tmp_path / "surface.json", tmp_path / "report.json"
    for s in surfs:
        save_surface(s, path)
        assert cli.main(["analyze", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        del report["timestamp"]
        digest.update(json.dumps(report, sort_keys=True).encode())
    return digest.hexdigest()


def test_analyze_golden_digest(tmp_path):
    assert _analyze_digest(_sampler_set() + _i2_set(), tmp_path) == ANALYZE_DIGEST


def test_make_with_i2_rejects_bad_points():
    with pytest.raises(UsageError):
        make_with_I2(3, [Fraction(0), Fraction(0)], seed=1)
    with pytest.raises(UsageError):
        make_with_I2(3, [], seed=1)
    with pytest.raises(UsageError):
        make_with_I2(3, [0, 1, 2, 3, 4], seed=1)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_surface_json_roundtrip_bit_exact(tmp_path):
    s = make_random_general(3, seed=11)
    path = tmp_path / "surface.json"
    save_surface(s, path)
    assert load_surface(path) == s
    data = surface_to_json_dict(s)
    assert surface_from_json_dict(data) == s
    assert all(isinstance(c, str) for c in data["g4"])


def test_surface_json_rationals_roundtrip(tmp_path):
    g4 = BinaryForm.from_affine([Fraction(1, 3), Fraction(-7, 2)], 16)
    g6 = BinaryForm.from_affine([Fraction(5)], 24)
    s = WeierstrassSurface(4, g4, g6)
    path = tmp_path / "surface.json"
    save_surface(s, path)
    assert load_surface(path) == s


def _with_first_g4(value):
    data = surface_to_json_dict(make_random_general(3, seed=0))
    data["g4"][0] = value
    return data


OVER_HEIGHT = {
    "1e1000000": "1e1000000",
    "0e1000000": "0e1000000",
    "1e-1000000": "1e-1000000",
    "1E4300": "1E4300",
    "-2.5e4299": "-2.5e4299",
    "20-digit exponent": "1" * 10 + "e" + "9" * 20,
    "integer 10^4300": 10 ** surfaces.COEFF_DIGITS_MAX,
    "denominator of 4301 digits": "1/1" + "0" * surfaces.COEFF_DIGITS_MAX,
}


@pytest.mark.parametrize("value", OVER_HEIGHT.values(), ids=OVER_HEIGHT)
def test_a_coefficient_above_the_height_bound_is_a_usage_error(value):
    t0 = time.perf_counter()
    with pytest.raises(UsageError, match="malformed surface data"):
        surface_from_json_dict(_with_first_g4(value))
    # rejected before any power of ten is built
    assert time.perf_counter() - t0 < 0.5


AT_HEIGHT = {
    "1e4299": "1e4299",
    "-0.5e4298": "-0.5e4298",
    "4300 nines": "9" * surfaces.COEFF_DIGITS_MAX,
    "denominator of 4300 nines": "1/" + "9" * surfaces.COEFF_DIGITS_MAX,
}


@pytest.mark.parametrize("value", AT_HEIGHT.values(), ids=AT_HEIGHT)
def test_a_coefficient_at_the_height_bound_loads(value):
    s = surface_from_json_dict(_with_first_g4(value))
    assert s.g4.coeffs[0] == Fraction(value)


def test_an_over_long_json_integer_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "surface.json"
    text = json.dumps(_with_first_g4(0)).replace(
        '"g4": [0', '"g4": [' + "7" * (surfaces.COEFF_DIGITS_MAX + 1), 1)
    path.write_text(text, encoding="utf-8")
    assert cli.main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:usage: ") and out == ""
