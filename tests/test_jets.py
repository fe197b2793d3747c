"""Exact Laurent-polynomial arithmetic: ring axioms, the square-root law,
and the integer representation, and the residue chain built on it, against
a ``Fraction``-dict oracle."""

import random
from fractions import Fraction

import pytest

from torelli_lab.jets import JetSeries
from torelli_lab.plumbing import (JetCoefficients, random_jet_coefficients,
                                  residue_pair)

ZERO = JetSeries({})


def random_series(rng, low_exp=-20, high_exp=20, n_terms=3):
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
    assert a.mul(ZERO).is_zero


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
    assert ZERO.sqrt_one_minus() == JetSeries.one()
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


def test_coefficient_reads():
    s = JetSeries({1: 1, -1: (0, 1)})          # q + t q^-1
    assert s.coefficient(-1, 1) == 1
    assert s.coefficient(3, 0) == 0
    assert ZERO.coefficient(0, 0) == 0
    # no exponent is out of reach: far from the support a read is zero
    assert s.coefficient(100, 0) == 0 and s.coefficient(-100, 1) == 0
    with pytest.raises(ValueError):
        s.coefficient(1, 2)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        JetSeries({0: 0.5})
    with pytest.raises(TypeError):
        JetSeries({0: 1}).scale(0.5)


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


def test_canonical_form_equal_values_compare_equal():
    half = JetSeries({0: Fraction(2, 4)})
    assert half == JetSeries.one().scale(Fraction(1, 2))
    assert JetSeries({0: (2, Fraction(6, 4))}) == \
        JetSeries({0: (2, 1)}).scale(2) - JetSeries({0: (2, Fraction(1, 2))})
    rng = random.Random(13)
    for _ in range(40):
        a = random_series(rng)
        for b in (a.scale(3).scale(Fraction(1, 3)),
                  a.scale(Fraction(-5, 7)).scale(Fraction(-7, 5)),
                  (a + a).scale(Fraction(1, 2)),
                  a.mul(JetSeries.monomial(2, 1)).mul(
                      JetSeries.monomial(-2, 1))):
            assert b == a


def test_canonical_form_cancellation_gives_the_zero_series():
    rng = random.Random(17)
    for _ in range(40):
        a = random_series(rng)
        for z in (a - a, a + (-a), a.scale(0), a.t_component(0) +
                  a.t_component(1).mul(JetSeries.monomial(0, c1=1))
                  - a):
            assert z == ZERO and z.is_zero
            assert z.terms() == [] and repr(z) == "JetSeries(0)"


def test_from_numerators_is_the_constructor_on_integers():
    rng = random.Random(21)
    for _ in range(40):
        den = rng.randint(1, 36)
        num = {e: (rng.randint(-9, 9) * rng.randint(0, 1), rng.randint(-9, 9))
               for e in range(rng.randint(-20, 0), rng.randint(0, 20))}
        s = JetSeries.from_numerators(num, den)
        assert s == JetSeries({e: (Fraction(n0, den), Fraction(n1, den))
                               for e, (n0, n1) in num.items()})
    assert JetSeries.from_numerators({40: (0, 0), -40: (0, 0)}, 1) == ZERO
    assert JetSeries.from_numerators({40: (2, 0), -40: (0, 4)}, 6).terms() == \
        [(-40, 0, Fraction(2, 3)), (40, Fraction(1, 3), 0)]
    for den in (0, -2):
        with pytest.raises(ValueError):
            JetSeries.from_numerators({0: (1, 0)}, den)


def test_boundary_values_are_fractions():
    s = JetSeries({1: (3, Fraction(1, 6)), -1: (Fraction(-4, 6), 0)})
    for e, c0, c1 in s.terms():
        assert type(c0) is Fraction and type(c1) is Fraction
    assert s.terms() == [(-1, Fraction(-2, 3), 0), (1, 3, Fraction(1, 6))]
    for e in (-1, 0, 1):
        for t in (0, 1):
            assert type(s.coefficient(e, t)) is Fraction
    assert repr(s) == "JetSeries((-2/3)q^-1 + (3)q^1 + (1/6)t q^1)"


def test_float_and_complex_inputs_raise_type_error():
    for bad in (0.5, 1.0, 2j, (1, 0.5), (1j, 0)):
        with pytest.raises(TypeError):
            JetSeries({0: bad})
    one = JetSeries.one()
    for bad in (0.5, 2.0, 1j):
        with pytest.raises(TypeError):
            one.scale(bad)
    for bad in ((0.5, 1), (Fraction(1, 2), 1), (1, 2.0)):
        n, den = bad
        with pytest.raises(TypeError):
            JetSeries.from_numerators({0: (n, 0)}, den)
    with pytest.raises(TypeError):
        JetSeries.monomial(0, c1=1.5)


def test_strings_are_rejected_not_parsed():
    one = JetSeries.one()
    for bad in ("0.1", "3", "1/2", (1, "1/2")):
        with pytest.raises(TypeError):
            JetSeries({0: bad})
    for bad in ("3", "0.5"):
        with pytest.raises(TypeError):
            one.scale(bad)


def test_series_are_immutable():
    s = JetSeries.one()
    for name in ("_num", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)


# ---------------------------------------------------------------------------
# the integer representation against the Fraction-dict series it replaced
# ---------------------------------------------------------------------------

def _frac(value):
    if isinstance(value, (float, complex)):
        raise TypeError("floats are not allowed")
    return Fraction(value)


class FractionJetSeries:
    """The series as first written: a dict ``{e: (c0, c1)}`` of Fractions,
    every operation in ``Fraction`` arithmetic.  The oracle the integer
    numerators over one common denominator must reproduce exactly."""

    def __init__(self, terms=None):
        self._terms = {}
        for e, value in (terms or {}).items():
            c0, c1 = value if isinstance(value, tuple) else (value, 0)
            c0, c1 = _frac(c0), _frac(c1)
            if c0 or c1:
                self._terms[e] = (c0, c1)

    @classmethod
    def linear_combination(cls, parts):
        acc = {}
        for coeff, k, series in parts:
            for e, (c0, c1) in series._terms.items():
                a0, a1 = acc.get(e + k, (0, 0))
                acc[e + k] = (a0 + coeff * c0, a1 + coeff * c1)
        return cls(acc)

    def terms(self):
        return [(e, c[0], c[1]) for e, c in sorted(self._terms.items())]

    def coefficient(self, exponent, t_order):
        return self._terms.get(exponent, (Fraction(0), Fraction(0)))[t_order]

    def t_component(self, t_order):
        return FractionJetSeries({e: c[t_order] for e, c in self._terms.items()})

    def __add__(self, other):
        acc = {}
        for src in (self._terms, other._terms):
            for e, (c0, c1) in src.items():
                a0, a1 = acc.get(e, (Fraction(0), Fraction(0)))
                acc[e] = (a0 + c0, a1 + c1)
        return FractionJetSeries(acc)

    def __neg__(self):
        return FractionJetSeries(
            {e: (-c0, -c1) for e, (c0, c1) in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        f = _frac(factor)
        return FractionJetSeries(
            {e: (f * c0, f * c1) for e, (c0, c1) in self._terms.items()})

    def mul(self, other):
        acc = {}
        for ea, (a0, a1) in self._terms.items():
            for eb, (b0, b1) in other._terms.items():
                p0, p1 = acc.get(ea + eb, (Fraction(0), Fraction(0)))
                acc[ea + eb] = (p0 + a0 * b0, p1 + a0 * b1 + a1 * b0)
        return FractionJetSeries(acc)

    def sqrt_one_minus(self):
        if any(c0 for c0, _ in self._terms.values()):
            raise ValueError("nonzero t^0 part")
        acc = {e: (Fraction(0), -c1 / 2) for e, (_, c1) in self._terms.items()}
        acc[0] = (Fraction(1), acc.get(0, (0, Fraction(0)))[1])
        return FractionJetSeries(acc)

    def invert_unit(self):
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
        return FractionJetSeries(acc)


# exponent ranges of the random terms, from a narrow spread to a wide one
SPREADS = [(-8, 12), (-3, 4), (-1, 2), (-20, 20)]


def _random_terms(rng, low, high, n_terms, t0=True, t1=True):
    def value(on):
        if not on or rng.random() < 0.2:
            return 0
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    return {rng.randint(low, high): (value(t0), value(t1))
            for _ in range(n_terms)}


def _pair_of(terms):
    return JetSeries(terms), FractionJetSeries(terms)


def _random_pair(rng, spread, **kw):
    return _pair_of(_random_terms(rng, *spread, rng.randint(0, 5), **kw))


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc)


def _assert_matches(new, old):
    if isinstance(old, type):
        assert new is old
        return
    assert isinstance(new, JetSeries)
    assert new.terms() == old.terms()
    exponents = [e for e, _, _ in old.terms()] or [0]
    for e in range(min(exponents) - 2, max(exponents) + 3):
        for t in (0, 1):
            c = new.coefficient(e, t)
            assert type(c) is Fraction and c == old.coefficient(e, t)


SCALARS = [0, 1, -1, 3, Fraction(-3, 7), Fraction(5, 12), Fraction(-1, 12),
           Fraction(12, 5)]


@pytest.mark.parametrize("spread", SPREADS, ids=lambda w: f"{w[0]}_{w[1]}")
def test_ring_operations_match_the_fraction_oracle(spread):
    rng = random.Random(spread[1])
    for _ in range(150):
        (a, a_old), (b, b_old) = (_random_pair(rng, spread) for _ in range(2))
        (c, c_old) = _random_pair(rng, rng.choice(SPREADS))
        _assert_matches(a + b, a_old + b_old)
        _assert_matches(a - b, a_old - b_old)
        _assert_matches(a + c, a_old + c_old)
        _assert_matches(-a, -a_old)
        for f in SCALARS:
            _assert_matches(a.scale(f), a_old.scale(f))
        _assert_matches(a.mul(b), a_old.mul(b_old))
        _assert_matches(a.mul(c), a_old.mul(c_old))
        for k in range(-6, 7):
            _assert_matches(JetSeries.monomial(k, 1).mul(a),
                            FractionJetSeries({k: 1}).mul(a_old))
        for t in (0, 1):
            _assert_matches(a.t_component(t), a_old.t_component(t))


def _fraction_residue_pair(b):
    """The residue chain on the Fraction oracle: every factor built in
    Fraction arithmetic, sum b[m,n] q^m v^(n-1) as one linear combination,
    then one product with -1/2 (q + v) and the split into t^0 and t^1."""
    q = FractionJetSeries({1: 1})
    v = q.mul(FractionJetSeries({-2: (0, 1)}).sqrt_one_minus())
    prefactor = (q + v).scale(Fraction(-1, 2))
    v_pows = [v.invert_unit(), FractionJetSeries({0: 1})]
    while len(v_pows) <= b.max_order:
        v_pows.append(v_pows[-1].mul(v))
    total = FractionJetSeries.linear_combination(
        (c, m, v_pows[n]) for (m, n), c in b.items())
    result = prefactor.mul(total)
    return result.t_component(0), result.t_component(1)


@pytest.mark.parametrize("max_order", [0, 3, 6, 12])
def test_residue_chain_matches_the_fraction_oracle(max_order):
    """The chain's one pass over the integer layout, its fused product and
    its split reproduce the Fraction chain exactly: on the zero jet, every
    monomial jet, dense integer jets, their rational multiples and sparse
    rational jets with some entries zero."""
    rng = random.Random(max_order)
    jets = [JetCoefficients({}, max_order)]
    jets += [JetCoefficients({(m, n): 1}, max_order)
             for m in range(max_order + 1) for n in range(max_order + 1 - m)]
    for _ in range(40):
        dense = random_jet_coefficients(rng, max_order)
        c = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        sparse = {}
        for _ in range(rng.randint(1, 6)):
            m = rng.randint(0, max_order)
            sparse[(m, rng.randint(0, max_order - m))] = rng.choice(
                [0, Fraction(rng.randint(-12, 12), rng.randint(1, 12))])
        jets += [dense, dense.scale(c), JetCoefficients(sparse, max_order)]
    for b in jets:
        for new, old in zip(residue_pair(b), _fraction_residue_pair(b)):
            _assert_matches(new, old)


@pytest.mark.parametrize("spread", SPREADS, ids=lambda w: f"{w[0]}_{w[1]}")
def test_special_inverses_match_the_fraction_oracle(spread):
    rng = random.Random(spread[1] - spread[0])
    for _ in range(150):
        u, u_old = _random_pair(rng, spread, t0=False)
        _assert_matches(_outcome(u.sqrt_one_minus),
                        _outcome(u_old.sqrt_one_minus))
        a, a_old = _random_pair(rng, spread)
        _assert_matches(_outcome(a.sqrt_one_minus),
                        _outcome(a_old.sqrt_one_minus))
        terms = _random_terms(rng, *spread, rng.randint(0, 4), t0=False)
        e0 = rng.randint(*spread)
        terms[e0] = (rng.choice(SCALARS[1:]), terms.get(e0, (0, 0))[1])
        f, f_old = _pair_of(terms)
        _assert_matches(_outcome(f.invert_unit), _outcome(f_old.invert_unit))
        _assert_matches(_outcome(a.invert_unit), _outcome(a_old.invert_unit))


def test_oracle_cases_reach_both_rejections():
    """Random cases like the ones above reject inputs of both special
    inverses, and also accept some."""
    rng = random.Random(1)
    seen = set()
    for _ in range(300):
        a, _ = _random_pair(rng, rng.choice(SPREADS))
        for name, fn in (("sqrt", a.sqrt_one_minus), ("inverse", a.invert_unit)):
            seen.add((name, _outcome(fn) is ValueError))
    assert seen == {("sqrt", True), ("sqrt", False),
                    ("inverse", True), ("inverse", False)}
