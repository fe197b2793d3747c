"""Ramification divisor: degree law, genericity, degree bookkeeping."""

import random
from fractions import Fraction

import pytest

from conftest import multiplicity_at
from torelli_lab import binforms
from torelli_lab.binforms import (
    BinaryForm,
    DivisorP1,
    ProjectivePointP1,
    poly_mul,
    poly_strip,
)
from torelli_lab.errors import ConsistencyError
from torelli_lab.ramification import (
    IsotrivialError,
    divisor_to_json_dict,
    is_general,
    ramification_divisor,
    ramification_form,
    schottky_degree_check,
)
from torelli_lab.surfaces import (
    Invariants,
    WeierstrassSurface,
    classify_fibers,
    genericity,
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


def test_degree_law_on_random_general_surfaces():
    for seed in range(4):
        s = make_random_general(3, seed=seed)
        ram = ramification_divisor(s)
        assert ram.total_degree == 38
        assert ram.form.degree == 38
        assert ram.divisor.degree == 38


def test_constant_g4_puts_all_ramification_at_infinity():
    # affine W = 2*3*1 - 3*z*0 = 6, so the divisor is 38 * (infinity)
    s = surface_from_affine(4, [3], [0, 1])
    ram = ramification_divisor(s)
    assert len(ram.divisor) == 1
    (p, mult), = ram.divisor
    assert p.is_infinity and mult == 38


def test_isotrivial_pair_rejected():
    u = poly_strip([Fraction(1), Fraction(2)])
    u2 = poly_mul(u, u)
    u3 = poly_mul(u2, u)
    s = surface_from_affine(4, [3 * c for c in u2], u3)
    with pytest.raises(IsotrivialError):
        ramification_form(s)


def test_is_general_on_generator_output():
    s = make_random_general(3, seed=2)
    report = is_general(s)
    assert report
    assert report.failed_clauses == ()


def test_is_general_fails_clause_c_for_i2_surfaces():
    s = make_with_I2(3, [Fraction(0), Fraction(1)], seed=3)
    report = is_general(s)
    assert not report
    assert "c" in report.failed_clauses
    assert report.warnings


def test_is_general_fails_on_i2_fiber():
    s = surface_from_affine(4, [3], [1, 0, -1])
    report = is_general(s)
    assert not report.all_fibers_i1
    assert "a" in report.failed_clauses


def _small_surfaces():
    """Small-coefficient surfaces with dL = 4 covering every way clause (a)
    can hold or fail: full-degree pairs, a root shared by g4 and g6, a
    fibre at infinity (I_n or additive), and prescribed I2 fibres."""
    rng = random.Random(12)

    def poly(degree, top=None):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(degree)]
        return coeffs + [Fraction(top if top is not None
                                  else rng.choice((-2, -1, 1, 2)))]

    out = []
    for _ in range(8):
        out.append(surface_from_affine(4, poly(16), poly(24)))
        a = Fraction(rng.randint(-2, 2))
        shared = [-a, Fraction(1)]
        out.append(surface_from_affine(
            4, poly_mul(shared, poly(15)), poly_mul(shared, poly(23))))
        # 3^3 = 27 * 1^2 cancels the top coefficient of Delta
        out.append(surface_from_affine(4, poly(16, top=3), poly(24, top=1)))
        out.append(surface_from_affine(
            4, poly(rng.randint(0, 5)), poly(rng.randint(0, 7))))
    for r in (1, 2, 3):
        for seed in range(2):
            out.append(make_with_I2(3, [0, 1, -1][:r], seed))
    return out


def test_clause_a_agrees_with_the_fibre_table():
    verdicts = []
    for s in _small_surfaces():
        expected = classify_fibers(s).all_I1
        assert is_general(s).all_fibers_i1 == expected
        verdicts.append(expected)
    assert set(verdicts) == {True, False}


def test_unramified_at_j_zero():
    """A simple zero of g4 away from g6's zeros is not a ramification point."""
    rng = random.Random(4)
    for _ in range(20):
        # g4 = z * (unit at 0), g6 with nonzero constant term
        g4_aff = poly_mul([Fraction(0), Fraction(1)],
                          [Fraction(rng.randint(1, 9))] +
                          [Fraction(rng.randint(-9, 9)) for _ in range(6)])
        g6_aff = [Fraction(rng.randint(1, 9))] + \
            [Fraction(rng.randint(-9, 9)) for _ in range(8)]
        s = surface_from_affine(4, g4_aff, g6_aff)
        w = ramification_form(s)
        assert w.eval_pair(Fraction(1), Fraction(0)) != 0


def test_i2_points_lie_in_ramification_divisor():
    points = [Fraction(0), Fraction(2)]
    s = make_with_I2(3, points, seed=8)
    w = ramification_form(s)
    for p in points:
        assert w.eval_pair(Fraction(1), p) == 0
    ram = ramification_divisor(s)
    for p in points:
        assert multiplicity_at(
            ram.divisor, ProjectivePointP1.from_affine(complex(p))) >= 1


def test_divisor_degree_mismatch_is_a_typed_error(monkeypatch):
    s = make_random_general(3, seed=0)
    monkeypatch.setattr(binforms, "divisor_from_factors",
                        lambda w, factors: DivisorP1(((ProjectivePointP1.infinity(), 1),)))
    with pytest.raises(ConsistencyError):
        ramification_divisor(s)


def test_schottky_degree_check():
    for h, expected in ((3, 38), (4, 48), (6, 68)):
        inv = Invariants.from_genus_irregularity(h, 0)
        assert inv.N == expected
        assert 10 * (h - 1) - 9 * (-2) == expected
        assert 10 * (h + 1) - 2 == expected
    s = make_random_general(3, seed=6)
    assert schottky_degree_check(s)


def divisor_from_json_dict(data: dict) -> DivisorP1:
    """Reader of ``divisor_to_json_dict``, the oracle of its round trip."""
    entries = []
    for item in data["points"]:
        z = item["z"]
        if z == "inf":
            p = ProjectivePointP1.infinity()
        else:
            p = ProjectivePointP1.from_affine(complex(z[0], z[1]))
        entries.append((p, int(item["mult"])))
    divisor = DivisorP1(tuple(entries))
    if divisor.degree != int(data["degree"]):
        raise ValueError("divisor degree field disagrees with the points")
    return divisor


def test_divisor_json_roundtrip():
    s = make_random_general(3, seed=9)
    d = ramification_divisor(s).divisor
    data = divisor_to_json_dict(d)
    back = divisor_from_json_dict(data)
    assert back.degree == d.degree
    assert len(back) == len(d)
    for (p, m), (p2, m2) in zip(d, back):
        assert m == m2
        assert p.chordal(p2) < 1e-12


def test_stored_facts_match_a_reloaded_surface():
    s = make_random_general(3, seed=4)
    ram = ramification_divisor(s)
    fibers = classify_fibers(s)
    loaded = surface_from_json_dict(surface_to_json_dict(s))
    assert loaded._report is None and s._report is not None
    assert genericity(loaded) == genericity(s)
    assert divisor_to_json_dict(ramification_divisor(loaded).divisor) == \
        divisor_to_json_dict(ram.divisor)
    assert classify_fibers(loaded).to_json_dict() == fibers.to_json_dict()
    assert loaded == s and repr(loaded) == repr(s)
    assert surface_to_json_dict(loaded) == surface_to_json_dict(s)
