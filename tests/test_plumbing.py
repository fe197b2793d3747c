"""Exact residue-chain identities."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import leading_coefficient, residue_coefficient
from torelli_lab import plumbing
from torelli_lab.errors import UsageError
from torelli_lab.jets import JetSeries
from torelli_lab.plumbing import (
    MAX_ORDER_DEFAULT,
    JetCoefficients,
    JetOrderError,
    check_closed_forms,
    closed_form_pair,
    check_eta_proportionality,
    random_jet_coefficients,
    residue_pair,
    verification_report,
)


def test_leading_example_constant_jet():
    b = JetCoefficients({(0, 0): 1})
    omega, eta = residue_pair(b)
    assert omega == JetSeries({0: -1})
    assert eta == JetSeries({-2: Fraction(-1, 4)})
    # leading law: coefficient of q^-2 is a quarter of omega's value -b00
    assert leading_coefficient(b) == Fraction(-1, 4)


def test_zero_jet_gives_zero_pair():
    omega, eta = residue_pair(JetCoefficients({}))
    assert omega.is_zero and eta.is_zero


def test_residue_cancels_for_symmetric_first_jets():
    c = Fraction(7, 3)
    b = JetCoefficients({(1, 0): c, (0, 1): c})
    assert residue_coefficient(b) == 0


def test_residue_law_random():
    rng = random.Random(5)
    for _ in range(50):
        b = random_jet_coefficients(rng)
        assert residue_coefficient(b) == (b[(0, 1)] - b[(1, 0)]) / 4
        assert leading_coefficient(b) == Fraction(-1, 4) * b[(0, 0)]


def test_closed_forms_random_exact():
    rng = random.Random(1)
    for _ in range(200):
        b = random_jet_coefficients(rng)
        check = check_closed_forms(b)
        assert check.ok, check.first_mismatch


def test_closed_forms_single_entry():
    b = JetCoefficients({(2, 3): 7})
    assert check_closed_forms(b).ok
    _, eta = residue_pair(b)
    assert eta.coefficient(3, 0) == Fraction(5, 4) * 7


def test_chain_is_linear():
    rng = random.Random(9)
    for _ in range(30):
        b1 = random_jet_coefficients(rng)
        b2 = random_jet_coefficients(rng)
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        om, eta = residue_pair(b1.scale(alpha) + b2.scale(beta))
        om1, eta1 = residue_pair(b1)
        om2, eta2 = residue_pair(b2)
        assert om == om1.scale(alpha) + om2.scale(beta)
        assert eta == eta1.scale(alpha) + eta2.scale(beta)


def test_eta_proportionality_scalar_family():
    rng = random.Random(13)
    base = random_jet_coefficients(rng)
    family = [base, base.scale(3)]
    check = check_eta_proportionality(family)
    assert check.ok
    _, eta1 = residue_pair(family[0])
    _, eta2 = residue_pair(family[1])
    assert eta2 == eta1.scale(3)
    # a zero member is consistent with ratio 0
    assert check_eta_proportionality([base, base.scale(0)]).ok
    # predicted ratios are -b00
    assert check.ratios == (-base[(0, 0)], -3 * base[(0, 0)])


def test_eta_proportionality_random_scalars():
    rng = random.Random(17)
    for _ in range(20):
        base = random_jet_coefficients(rng)
        scalars = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                   for _ in range(5)]
        assert check_eta_proportionality([base.scale(c) for c in scalars]).ok


def test_eta_proportionality_detects_unrelated_data():
    rng = random.Random(19)
    b1 = random_jet_coefficients(rng)
    b2 = random_jet_coefficients(rng)
    # generic pairs are not proportional, so the cross-check must fail
    check = check_eta_proportionality([b1, b2])
    assert not check.ok
    assert check.first_mismatch is not None
    assert check == _scaled_series_proportionality([b1, b2])


def _lowest_t0_difference(lhs, rhs):
    """The lowest exponent of the t^0 part of ``lhs - rhs``, or None."""
    diff = (lhs - rhs).t_component(0)
    return None if diff.is_zero else diff.terms()[0][0]


def _scaled_series_proportionality(b_list):
    """The proportionality check as first written: both sides of every
    pair built as scaled series and compared.  The oracle the
    cross-multiplied numerators must reproduce."""
    etas = [residue_pair(b)[1] for b in b_list]
    ratios = tuple(-b[(0, 0)] for b in b_list)
    for i in range(len(b_list)):
        for j in range(i + 1, len(b_list)):
            bad = _lowest_t0_difference(etas[j].scale(ratios[i]),
                                        etas[i].scale(ratios[j]))
            if bad is not None:
                return plumbing.ProportionalityCheck(
                    ok=False, ratios=ratios, first_mismatch=(i, j, bad))
    return plumbing.ProportionalityCheck(ok=True, ratios=ratios)


def test_cross_multiplied_proportionality_matches_the_scaled_series():
    rng = random.Random(37)
    base = random_jet_coefficients(rng)
    no_b00 = base + JetCoefficients({(0, 0): -base[(0, 0)]})
    assert no_b00[(0, 0)] == 0 and no_b00.b
    # the top entry moves eta at q^4 alone, the highest exponent of order 6
    top = base + JetCoefficients({(2, 4): 1})
    cases = {
        "zero_b00": [no_b00.scale(c) for c in (1, Fraction(-2, 3), 0, 5)],
        "zero_member": [base, base.scale(0), base.scale(Fraction(7, 2))],
        "all_zero": [JetCoefficients({}), base.scale(0), JetCoefficients({})],
        "top_exponent": [base.scale(2), top.scale(2)],
        "top_exponent_scaled": [base, base.scale(3), top.scale(Fraction(-1, 4))],
        "unrelated_zero_b00": [no_b00, random_jet_coefficients(rng)],
    }
    verdicts = {}
    for name, family in cases.items():
        check = check_eta_proportionality(family)
        assert check == _scaled_series_proportionality(family), name
        verdicts[name] = check.first_mismatch
    assert verdicts == {"zero_b00": None, "zero_member": None,
                        "all_zero": None, "top_exponent": (0, 1, 4),
                        "top_exponent_scaled": (0, 2, 4),
                        "unrelated_zero_b00": verdicts["unrelated_zero_b00"]}
    assert verdicts["unrelated_zero_b00"] is not None
    # random families of mixed orders, some of them proportional
    for _ in range(200):
        order = rng.choice((0, 1, 3, 6))
        b = random_jet_coefficients(rng, order, bound=rng.choice((1, 9)))
        family = [b.scale(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                  for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            family.insert(rng.randrange(len(family) + 1),
                          random_jet_coefficients(rng, order))
        check = check_eta_proportionality(family)
        assert check == _scaled_series_proportionality(family)


def test_first_mismatch_is_the_lowest_differing_t0_exponent():
    """The one mismatch rule of the verifier, with unit multipliers as the
    closed-form check calls it, and with the multiplier moved onto the
    multiplier argument as the proportionality check calls it."""
    first = plumbing._first_cross_mismatch
    a = JetSeries({-2: 1, 1: Fraction(1, 2), 3: (2, 5)})
    b = JetSeries({-2: 1, 1: Fraction(1, 3), 3: 1, 4: (0, 7)})
    assert first(1, a, 1, b) == _lowest_t0_difference(a, b) == 1
    assert first(1, b, 1, a.scale(Fraction(2, 3))) == -2
    assert first(1, b, Fraction(2, 3), a) == -2
    assert first(1, a, 1, a.scale(1)) is None
    # t^1 parts do not count
    assert first(1, JetSeries({0: (1, 2)}), 1, JetSeries({0: (1, 3)})) is None


@pytest.mark.parametrize("max_order", [0, 1, 6, 12])
@pytest.mark.parametrize("bound", [0, 1, 9])
def test_random_jets_are_the_constructor_on_the_randint_draws(max_order,
                                                              bound):
    """The jets built on the exact core equal the constructor's on the same
    draws, and leave the stream where ``randint`` leaves it: the report's
    scalars come from that stream."""
    rng, old_rng = random.Random(max_order + bound), random.Random(max_order + bound)
    for _ in range(3):
        b = random_jet_coefficients(rng, max_order, bound)
        old = JetCoefficients({(m, n): old_rng.randint(-bound, bound)
                               for m in range(max_order + 1)
                               for n in range(max_order + 1 - m)}, max_order)
        assert type(b) is JetCoefficients
        assert (b._num, b._den, b.max_order) == \
            (old._num, old._den, old.max_order)
        assert rng.getstate() == old_rng.getstate()
    with pytest.raises(JetOrderError):
        random_jet_coefficients(rng, -1)


def test_jet_coefficient_validation():
    with pytest.raises(JetOrderError):
        JetCoefficients({(4, 3): 1})
    with pytest.raises(JetOrderError):
        JetCoefficients({(-1, 0): 1})
    with pytest.raises(TypeError):
        JetCoefficients({(0, 0): 0.5})


def test_jet_values_are_not_parsed_from_strings():
    for bad in ("0.1", "3", "1/2"):
        with pytest.raises(TypeError):
            JetCoefficients({(0, 0): bad})
        with pytest.raises(TypeError):
            JetCoefficients({(0, 0): 1}).scale(bad)


def test_jet_keys_and_orders_are_integers():
    for bad in ({(1.5, 0): 1}, {(0, "1"): 1}, {(0.0, 0): 1}):
        with pytest.raises(TypeError):
            JetCoefficients(bad)
    for bad in (2.7, 2.0, "2", None):
        with pytest.raises(TypeError):
            JetCoefficients({}, max_order=bad)
    with pytest.raises(JetOrderError):
        JetCoefficients({}, -3)
    for bad in (0.5, "3", 1.0):
        with pytest.raises(TypeError):
            JetSeries({bad: 1})
    assert JetCoefficients({(True, 0): 1}, max_order=True).max_order == 1
    assert JetCoefficients({}, 0).max_order == 0


def test_jets_and_series_do_not_mix():
    assert not JetCoefficients({}) == JetSeries({})
    jet = JetCoefficients({(0, 0): 1})
    for series in (JetSeries.one(), JetSeries({})):
        assert jet != series and series != jet
        with pytest.raises(TypeError):
            jet + series
        with pytest.raises(TypeError):
            series + jet
        with pytest.raises(TypeError):
            series - jet


def test_a_sum_takes_the_larger_order_and_a_multiple_keeps_its_own():
    low = JetCoefficients({(1, 1): Fraction(1, 2)}, 2)
    high = JetCoefficients({(0, 6): 3}, 6)
    for total in (low + high, high + low):
        assert total.max_order == 6
        assert total.b == {(1, 1): Fraction(1, 2), (0, 6): 3}
    assert (low + low).max_order == 2
    for c in (0, 1, Fraction(-2, 3)):
        assert low.scale(c).max_order == 2 and high.scale(c).max_order == 6
    zero = low.scale(-1) + low
    assert zero == JetCoefficients({}) and zero.max_order == 2


def test_jet_coefficients_keep_a_fraction_and_reject_floats():
    value = Fraction(3, 7)
    b = JetCoefficients({(1, 2): value, (0, 1): 2})
    assert b.b[(1, 2)] == value and type(b.b[(1, 2)]) is Fraction
    assert b[(0, 1)] == 2 and type(b[(0, 1)]) is Fraction
    # scale follows the constructor's rule
    for bad in (0.1, 0.5, 1.0, 1j, 2j):
        with pytest.raises(TypeError):
            JetCoefficients({(0, 0): bad})
        with pytest.raises(TypeError):
            b.scale(bad)


def jets_to_json_dict(b: JetCoefficients) -> dict:
    return {"b": [[m, n, str(v)] for (m, n), v in b.items()],
            "max_order": b.max_order}


def jets_from_json_dict(data: dict) -> JetCoefficients:
    try:
        entries = {(int(m), int(n)): Fraction(v) for m, n, v in data["b"]}
        max_order = int(data.get("max_order", MAX_ORDER_DEFAULT))
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed jet data: {exc}") from exc
    return JetCoefficients(entries, max_order)


def test_jets_json_roundtrip():
    b = JetCoefficients({(0, 0): Fraction(1, 2), (2, 1): -3})
    data = jets_to_json_dict(b)
    assert data["b"] == [[0, 0, "1/2"], [2, 1, "-3"]]
    assert jets_from_json_dict(data) == b


@pytest.mark.parametrize("trials, max_order", [(0, 6), (-3, 6), (1, -1)])
def test_verification_report_rejects_an_empty_run(trials, max_order):
    with pytest.raises(UsageError):
        verification_report(trials=trials, max_order=max_order)


def test_verification_report_all_green():
    report = verification_report(trials=25, seed=3)
    assert report["status"] == "ok"
    for identity in report["identities"].values():
        assert identity["failures"] == 0
    assert report["residue_audit"]


def test_verifier_golden_digest():
    """The report of 20 trials and the exact (omega, eta) of the 28 monomial
    jets of order <= 6 and of 20 random jets are pinned: a change in the
    series representation cannot move a single coefficient unnoticed."""
    digest = hashlib.sha256()
    digest.update(json.dumps(verification_report(trials=20, max_order=6, seed=0),
                             sort_keys=True).encode())
    rng = random.Random(0)
    jets = [JetCoefficients({(m, n): 1}) for m in range(7) for n in range(7 - m)]
    jets += [random_jet_coefficients(rng) for _ in range(20)]
    for b in jets:
        for series in residue_pair(b):
            digest.update(repr([(e, str(c0), str(c1))
                                for e, c0, c1 in series.terms()]).encode())
    assert digest.hexdigest() == \
        "9db2a30b79948b74727bbd191ebd6d56a174a9eb4f1b97c0a3bcfe6103f2ed5d"


def test_verifier_golden_digest_across_orders():
    """The 20-trial reports at orders 0, 8 and 12 are pinned: the order-0
    chain, and chains whose exponents reach well past the order-6 ones."""
    digest = hashlib.sha256()
    for max_order, seed in ((0, 1), (8, 3), (12, 2)):
        report = verification_report(trials=20, max_order=max_order, seed=seed)
        assert report["status"] == "ok"
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "a5fc035535caf8e10671d3295ca2674243d871ee08a08c5020a2de3673844392"


def test_higher_order_window_scales():
    rng = random.Random(23)
    b = random_jet_coefficients(rng, max_order=9)
    assert check_closed_forms(b).ok


# ---------------------------------------------------------------------------
# the one-pass chain against the chain built term by term
# ---------------------------------------------------------------------------

def _residue_pair_term_by_term(b: JetCoefficients, seen=None):
    """The chain as first written: every factor rebuilt for each jet, and
    the sum taken through a product with q^m, scale and + one term at a
    time.  Every intermediate series is appended to ``seen`` when given."""
    seen = [] if seen is None else seen

    def keep(series):
        seen.append(series)
        return series

    q = keep(JetSeries.monomial(1, c0=1))
    u = keep(JetSeries.monomial(-2, c1=1))
    v = keep(q.mul(keep(u.sqrt_one_minus())))
    prefactor = keep(keep(q + v).scale(Fraction(-1, 2)))
    max_n = max((n for (_, n) in b.b), default=0)
    v_pows = {0: keep(v.invert_unit()), 1: keep(JetSeries.one())}
    for k in range(2, max_n + 1):
        v_pows[k] = keep(v_pows[k - 1].mul(v))
    total = JetSeries({})
    for (m, n), coeff in b.items():
        term = keep(keep(JetSeries.monomial(m, 1).mul(v_pows[n])).scale(coeff))
        total = keep(total + term)
    result = keep(prefactor.mul(total))
    return keep(result.t_component(0)), keep(result.t_component(1))


def _oracle_jets(max_order, seed):
    rng = random.Random(seed)
    jets = [JetCoefficients({}, max_order)]
    jets += [JetCoefficients({(m, n): 1}, max_order)
             for m in range(min(6, max_order) + 1)
             for n in range(min(6, max_order) + 1 - m)]
    for k in range(24):
        b = random_jet_coefficients(rng, max_order)
        if k % 2:
            b = b.scale(Fraction(rng.choice((-1, 1)) * rng.randint(1, 7),
                                 rng.randint(1, 9)))
        jets.append(b)
    return jets


# The exponent windows the chain was once truncated to, as (low, high) for a
# jet order: the default one, the smallest one accepted, and a fixed one.  A
# window was accepted when low <= -4 and high >= max_order + 2.
WINDOWS = {"default": lambda order: (-8, max(12, order + 6)),
           "smallest": lambda order: (-4, order + 2),
           "-6_9": lambda order: (-6, 9)}


def _window_accepted(low, high, max_order):
    return low <= -4 and high >= max_order + 2


@pytest.mark.parametrize("max_order", [3, 6, 8, 12])
@pytest.mark.parametrize("window", list(WINDOWS))
def test_one_pass_chain_equals_the_term_by_term_chain(max_order, window):
    """The one-pass chain equals the term-by-term chain.  Where the window
    was accepted, every intermediate of the chain lies inside it, so a chain
    truncated to that window cut nothing and gave this same result."""
    low, high = WINDOWS[window](max_order)
    for b in _oracle_jets(max_order, seed=max_order):
        seen = []
        assert residue_pair(b) == _residue_pair_term_by_term(b, seen)
        if _window_accepted(low, high, max_order):
            exponents = [e for series in seen for e, _, _ in series.terms()]
            assert low <= min(exponents) and max(exponents) <= high


def test_oracle_jets_cover_every_monomial_and_window():
    jets = _oracle_jets(6, seed=0)
    assert jets[0].b == {}
    assert sum(len(b.b) == 1 for b in jets) == 28
    assert sum(len(b.b) > 1 for b in jets) == 24
    # (-6, 9) was accepted at orders 3 and 6 only
    assert [_window_accepted(*WINDOWS[w](order), order)
            for order in (3, 6, 8, 12) for w in WINDOWS] == \
        [True] * 6 + [True, True, False] * 2


@pytest.fixture
def fresh_chain_factors():
    plumbing._chain_factors.cache_clear()
    yield
    plumbing._chain_factors.cache_clear()


def test_report_fails_on_a_closed_form_off_by_a_quarter(monkeypatch):
    true_closed_form_pair = plumbing.closed_form_pair

    def off_by_a_quarter(b):
        omega, eta = true_closed_form_pair(b)
        return omega, eta + JetSeries({1: Fraction(1, 4)})

    monkeypatch.setattr(plumbing, "closed_form_pair", off_by_a_quarter)
    report = verification_report(trials=2, seed=0)
    assert report["status"] == "failed"
    assert report["identities"]["closed_forms"]["failures"] == 2


MUTATED_CLOSED_FORMS = [
    # (series, exponent, added term, first_mismatch)
    ("omega", -1, Fraction(1, 4), ("omega", -1, 0, Fraction(1, 4))),
    ("omega", 0, Fraction(1, 4), ("omega", 0, -3, Fraction(-11, 4))),
    ("omega", 5, Fraction(-1, 4), ("omega", 5, -17, Fraction(-69, 4))),
    ("eta", -2, Fraction(1, 4), ("eta", -2, Fraction(-3, 4), Fraction(-1, 2))),
    ("eta", 1, Fraction(1, 4), ("eta", 1, Fraction(-1, 2), Fraction(-1, 4))),
    ("eta", 9, Fraction(1, 4), ("eta", 9, 0, Fraction(1, 4))),
    # a t^1 term differs, but only t^0 coefficients are compared
    ("eta", 1, (0, Fraction(1, 4)), None),
]


@pytest.mark.parametrize("series, exponent, term, expected",
                         MUTATED_CLOSED_FORMS)
def test_a_closed_form_off_by_a_quarter_names_its_first_mismatch(
        monkeypatch, series, exponent, term, expected):
    """A closed form changed at one exponent is reported there as
    ``(series, exponent, chain, closed)``, the chain's and the changed
    closed form's coefficients."""
    b = random_jet_coefficients(random.Random(41))
    true_closed_form_pair = plumbing.closed_form_pair

    def mutated(jet):
        pair = dict(zip(("omega", "eta"), true_closed_form_pair(jet)))
        pair[series] = pair[series] + JetSeries({exponent: term})
        return pair["omega"], pair["eta"]

    monkeypatch.setattr(plumbing, "closed_form_pair", mutated)
    check = check_closed_forms(b)
    assert check.ok is (expected is None)
    assert check.first_mismatch == expected
    if expected is not None:
        assert [type(x) for x in check.first_mismatch] == \
            [str, int, Fraction, Fraction]


def test_report_fails_on_a_wrong_square_root(monkeypatch, fresh_chain_factors):
    def one_minus_u(self):
        # the series of 1 - u, not of its square root 1 - u/2
        return JetSeries.one() - self

    monkeypatch.setattr(JetSeries, "sqrt_one_minus", one_minus_u)
    report = verification_report(trials=2, seed=0)
    assert report["status"] == "failed"
    assert report["identities"]["closed_forms"]["failures"] == 2


def _factor_series(max_order):
    """The jet-independent factors of the chain, rebuilt from public
    ``JetSeries`` methods: the prefactor -1/2 (q + v) and the powers
    v^(n-1) for n = 0..max(max_order, 1)."""
    q = JetSeries.monomial(1, c0=1)
    v = q.mul(JetSeries.monomial(-2, c1=1).sqrt_one_minus())
    v_pows = [v.invert_unit(), JetSeries.one()]
    while len(v_pows) <= max_order:
        v_pows.append(v_pows[-1].mul(v))
    return (q + v).scale(Fraction(-1, 2)), v_pows


def _series_of(numerators, den):
    t0, t1 = ({e: c for e, c in part} for part in numerators)
    return JetSeries.from_numerators(
        {e: (t0.get(e, 0), t1.get(e, 0)) for e in t0.keys() | t1.keys()}, den)


def _check_layout(layout, max_order):
    """``layout`` is ``(rows, pre, den)`` read off the factor series: rows
    over their common denominator, the prefactor over its own, and ``den``
    the product of the two."""
    rows, pre, den = layout
    prefactor, v_pows = _factor_series(max_order)
    assert len(rows) == len(v_pows) == max(max_order + 1, 2)
    assert den % prefactor._den == 0
    v_den = den // prefactor._den
    assert [_series_of(row, v_den) for row in rows] == v_pows
    assert _series_of(pre, prefactor._den) == prefactor
    return v_den


def test_chains_share_and_keep_the_factors(fresh_chain_factors):
    rng = random.Random(29)
    b = random_jet_coefficients(rng)
    first = residue_pair(b)
    layout = plumbing._chain_factors(b.max_order)
    assert len(layout) == 3
    _check_layout(layout, b.max_order)
    assert residue_pair(b) == first
    assert residue_pair(b.scale(3)) == tuple(s.scale(3) for s in first)
    assert plumbing._chain_factors(b.max_order) is layout
    _check_layout(layout, b.max_order)
    assert plumbing._chain_factors.cache_info().misses == 1


@pytest.mark.parametrize("max_order", [0, 1, 6, 12])
def test_the_layout_is_read_off_the_factor_series(max_order,
                                                  fresh_chain_factors):
    rows, pre, den = layout = plumbing._chain_factors(max_order)
    v_den = _check_layout(layout, max_order)
    # v^(n-1) = q^(n-1) - ((n-1)/2) t q^(n-3), so the common denominator is 2
    assert v_den == 2 and rows[1] == (((0, 2),), ())
    plumbing._chain_factors.cache_clear()
    assert plumbing._chain_factors(max_order) == (rows, pre, den)
    assert plumbing._chain_factors.cache_info().misses == 1


def test_report_fails_on_a_changed_layout_numerator(monkeypatch):
    """The chain reads the cached layout: one numerator of v^1 off by one
    fails every closed form."""
    rows, pre, den = layout = plumbing._chain_factors(6)
    _check_layout(layout, 6)
    (e, c), = rows[2][0]
    changed = rows[:2] + ((((e, c + 1),), rows[2][1]),) + rows[3:]
    monkeypatch.setattr(plumbing, "_chain_factors",
                        lambda order: (changed, pre, den))
    report = verification_report(trials=2, seed=0)
    assert report["status"] == "failed"
    assert report["identities"]["closed_forms"]["failures"] == 2


# ---------------------------------------------------------------------------
# the integer jets against the Fraction-dict jets they replaced
# ---------------------------------------------------------------------------

class FractionJetCoefficients:
    """The jets as first written: a dict ``{(m, n): Fraction}`` of nonzero
    values, every operation in ``Fraction`` arithmetic.  The oracle the
    integer numerators over one common denominator must reproduce exactly."""

    def __init__(self, b, max_order=MAX_ORDER_DEFAULT):
        self.b = {}
        for (m, n), value in dict(b).items():
            if m < 0 or n < 0 or m + n > max_order:
                raise JetOrderError(f"jet index ({m}, {n})")
            if isinstance(value, (float, complex)):
                raise TypeError("floats are not allowed")
            value = Fraction(value)
            if value:
                self.b[(m, n)] = value
        self.max_order = max_order

    def __getitem__(self, key):
        return self.b.get(key, Fraction(0))

    def items(self):
        return sorted(self.b.items())

    def scale(self, factor):
        factor = Fraction(factor)
        return FractionJetCoefficients(
            {k: factor * v for k, v in self.b.items()}, self.max_order)

    def __add__(self, other):
        out = dict(self.b)
        for k, v in other.b.items():
            out[k] = out.get(k, Fraction(0)) + v
        return FractionJetCoefficients(out, max(self.max_order, other.max_order))


JET_SCALARS = [0, 1, -1, 2, Fraction(-3, 7), Fraction(5, 12), Fraction(-1, 12)]


def _random_entries(rng, max_order):
    entries = {}
    for _ in range(rng.randint(0, 8)):
        m = rng.randint(0, max_order)
        n = rng.randint(0, max_order - m)
        entries[(m, n)] = rng.choice([0, rng.randint(-9, 9),
                                      Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 12))])
    return entries


def _assert_jets_match(new, old):
    assert new.max_order == old.max_order
    assert new.b == old.b and all(type(v) is Fraction for v in new.b.values())
    assert new.items() == old.items()
    for m in range(new.max_order + 2):
        for n in range(new.max_order + 2 - m):
            assert new[(m, n)] == old[(m, n)]
            assert type(new[(m, n)]) is Fraction
    # canonical: lowest terms, no stored zero, denominator 1 for zero jets,
    # and every stored pair (k, 0) has a zero t-part
    numerators = [k for k, _ in new._num.values()]
    assert all(t == 0 for _, t in new._num.values())
    assert new._den > 0 and 0 not in numerators
    assert gcd(new._den, *numerators) == 1
    assert new._num or new._den == 1


@pytest.mark.parametrize("seed", range(6))
def test_jet_arithmetic_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    pool = []
    for _ in range(60):
        op = rng.choice(("new", "scale", "add", "cancel") if pool else ("new",))
        if op == "new":
            max_order = rng.choice((0, 2, 6))
            entries = _random_entries(rng, max_order)
            pair = (JetCoefficients(entries, max_order),
                    FractionJetCoefficients(entries, max_order))
        elif op == "scale":
            c = rng.choice(JET_SCALARS + [Fraction(rng.randint(-9, 9),
                                                   rng.randint(1, 12))])
            new, old = rng.choice(pool)
            pair = (new.scale(c), old.scale(c))
        elif op == "add":
            (a, a_old), (b, b_old) = rng.choice(pool), rng.choice(pool)
            pair = (a + b, a_old + b_old)
        else:
            # full cancellation: x*c + x*(-c) is the zero jet
            new, old = rng.choice(pool)
            c = rng.choice(JET_SCALARS[1:])
            pair = (new.scale(c) + new.scale(-c), old.scale(c) + old.scale(-c))
            assert pair[0].b == {} and pair[0] == JetCoefficients({})
        _assert_jets_match(*pair)
        for other, other_old in rng.sample(pool, min(3, len(pool))):
            assert (pair[0] == other) == (pair[1].b == other_old.b)
        assert pair[0] == JetCoefficients(pair[1].b, pair[1].max_order)
        pool.append(pair)
    assert any(not new.b for new, _ in pool)
    assert len({new.max_order for new, _ in pool}) > 1


def test_the_jet_arithmetic_of_a_trial_builds_no_fraction(monkeypatch):
    rng = random.Random(31)
    b1 = random_jet_coefficients(rng)
    b2 = random_jet_coefficients(rng)
    alpha, beta = Fraction(-5, 4), Fraction(3, 2)
    residue_pair(b1)    # the chain factors are built once and cached
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    combo = b1.scale(alpha) + b2.scale(beta)
    chain = residue_pair(combo)
    closed = closed_form_pair(combo)
    assert made == []
    # the probe sees a Fraction built at the boundary
    assert combo[(0, 0)] == alpha * b1[(0, 0)] + beta * b2[(0, 0)]
    assert made
    monkeypatch.undo()
    assert chain == closed
