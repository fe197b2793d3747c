"""Exact series arithmetic: ring axioms, the square-root law, windows."""

import random
from fractions import Fraction

import pytest

from torelli_lab.jets import (
    JetSeries,
    WindowError,
    WindowUnderflowError,
)


def random_series(rng, low_exp=-2, high_exp=4, n_terms=3):
    # supports kept small enough that triple products stay inside the
    # default window, where the ring axioms hold without truncation
    terms = {}
    for _ in range(n_terms):
        e = rng.randint(low_exp, high_exp)
        terms[e] = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return JetSeries(terms)


def test_monomial_product():
    a = JetSeries({0: 1, -2: (0, 1)})          # 1 + t q^-2
    q = JetSeries.monomial(1, c0=1)
    out = a.mul(q)
    assert out == JetSeries({1: 1, -1: (0, 1)})


def test_multiplication_by_zero_annihilates():
    a = JetSeries({1: 1, -1: -1})              # q - q^-1
    assert a.mul(JetSeries.zero()).is_zero


def test_one_plus_t_squared_drops_t2():
    a = JetSeries({0: (1, 1)})                 # 1 + t
    sq = a.mul(a)
    assert sq == JetSeries({0: (1, 2)})        # 1 + 2t, t^2 dropped
    assert sq.coefficient(0, 1) == 2


def test_ring_axioms_exact():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b + c) == a.mul(b) + a.mul(c)


def test_sqrt_one_minus_known_values():
    u = JetSeries.monomial(-2, c1=1)           # t q^-2
    assert u.sqrt_one_minus() == JetSeries({0: 1, -2: (0, Fraction(-1, 2))})
    assert JetSeries.zero().sqrt_one_minus() == JetSeries.one()
    # binomial series: (1 - 3tq)^(1/2) = 1 - (3/2) t q  mod t^2
    u = JetSeries.monomial(1, c1=3)
    assert u.sqrt_one_minus() == JetSeries({0: 1, 1: (0, Fraction(-3, 2))})


def test_sqrt_law_on_random_admissible_input():
    rng = random.Random(3)
    one = JetSeries.one()
    for _ in range(100):
        terms = {rng.randint(-3, 5): (0, Fraction(rng.randint(-9, 9),
                                                  rng.randint(1, 5)))
                 for _ in range(3)}
        u = JetSeries(terms)
        s = u.sqrt_one_minus()
        assert s.mul(s) + u == one


def test_sqrt_rejects_nonzero_t0_part():
    with pytest.raises(ValueError):
        JetSeries({0: (Fraction(1, 2), 0)}).sqrt_one_minus()


def test_coefficient_reads_and_window_guard():
    s = JetSeries({1: 1, -1: (0, 1)})          # q + t q^-1
    assert s.coefficient(-1, 1) == 1
    assert s.coefficient(3, 0) == 0
    assert JetSeries.zero().coefficient(0, 0) == 0
    with pytest.raises(WindowError):
        s.coefficient(100, 0)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        JetSeries({0: 0.5})
    with pytest.raises(TypeError):
        JetSeries({0: 1}).scale(0.5)


def test_strict_low_underflow_raises():
    a = JetSeries.monomial(-8, c0=1)
    b = JetSeries.monomial(-3, c0=1)
    assert a.mul(b).is_zero                    # silent truncation by default
    with pytest.raises(WindowUnderflowError):
        a.mul(b, strict_low=True)


def test_disjoint_windows_rejected():
    a = JetSeries.monomial(0, c0=1, low_cut=-2, high_cut=3)
    b = JetSeries.monomial(5, c0=1, low_cut=4, high_cut=9)
    with pytest.raises(WindowError):
        a.mul(b)


def test_invert_unit_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        e0 = rng.randint(-2, 2)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        terms = {e0: (c, Fraction(rng.randint(-5, 5)))}
        e1 = rng.randint(-1, 3)
        if e1 != e0:
            terms[e1] = (0, Fraction(rng.randint(-5, 5)))
        f = JetSeries(terms)
        g = f.invert_unit()
        assert f.mul(g) == JetSeries.one()
