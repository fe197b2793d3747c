"""Exact residue-chain identities."""

import random
from fractions import Fraction

import pytest

from conftest import leading_coefficient
from torelli_lab.errors import UsageError
from torelli_lab.jets import JetSeries
from torelli_lab.plumbing import (
    MAX_ORDER_DEFAULT,
    JetCoefficients,
    JetOrderError,
    check_closed_forms,
    check_eta_proportionality,
    random_jet_coefficients,
    residue_coefficient,
    residue_pair,
    verification_report,
)


def test_leading_example_constant_jet():
    b = JetCoefficients({(0, 0): 1})
    omega, eta = residue_pair(b)
    assert omega == JetSeries({0: -1}, omega.low_cut, omega.high_cut)
    assert eta == JetSeries({-2: Fraction(-1, 4)}, eta.low_cut, eta.high_cut)
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


def test_jet_coefficient_validation():
    with pytest.raises(JetOrderError):
        JetCoefficients({(4, 3): 1})
    with pytest.raises(JetOrderError):
        JetCoefficients({(-1, 0): 1})
    with pytest.raises(TypeError):
        JetCoefficients({(0, 0): 0.5})


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


def test_verification_report_all_green():
    report = verification_report(trials=25, seed=3)
    assert report["status"] == "ok"
    for identity in report["identities"].values():
        assert identity["failures"] == 0
    assert report["residue_audit"]


def test_higher_order_window_scales():
    rng = random.Random(23)
    b = random_jet_coefficients(rng, max_order=9)
    assert check_closed_forms(b).ok


def test_too_small_window_is_an_error():
    from torelli_lab.jets import WindowError

    b = JetCoefficients({(0, 0): 1, (3, 3): 2})
    with pytest.raises(WindowError):
        residue_pair(b, high_cut=4)
    with pytest.raises(WindowError):
        residue_pair(b, low_cut=-2)
