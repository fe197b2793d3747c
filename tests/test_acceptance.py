"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import random
import time
from fractions import Fraction

import numpy as np

from conftest import leading_coefficient, residue_coefficient
from torelli_lab.binforms import (
    BinaryForm,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_strip,
    transvectant_first,
)
from torelli_lab.ivhs import IVHSPresentation, synthesize
from torelli_lab.plumbing import (
    check_closed_forms,
    check_eta_proportionality,
    random_jet_coefficients,
)
from torelli_lab.recovery import (
    DegeneratePresentationError,
    chordal_distance,
    extract_rank_ones,
    match_points,
    rank_one_oracle_bruteforce,
    roundtrip,
)
from torelli_lab.surfaces import (
    Invariants,
    WeierstrassSurface,
    discriminant,
    make_random_general,
    make_with_I2,
)
from torelli_lab.ramification import ramification_divisor, schottky_degree_check


def report(number: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.1f}s): {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_degree_law():
    """Exact degree 10h+8 of the ramification form and of its root divisor
    for 200 random general surfaces, h in {3,4,5,6}; < 30 s."""
    t0 = time.time()
    ok = True
    seeds_per_h = 50
    for h in (3, 4, 5, 6):
        expected = 10 * h + 8
        for seed in range(seeds_per_h):
            s = make_random_general(h, seed=1000 * h + seed)
            ram = ramification_divisor(s)
            if ram.form.degree != expected or ram.divisor.degree != expected:
                ok = False
    elapsed = time.time() - t0
    report(1, "degree law 10h+8 on 200 random general surfaces", ok, elapsed)
    assert elapsed < 30.0


def test_criterion_2_unramified_at_j_zero():
    """W(p) != 0 (exact) when g4 has a simple zero at p and g6(p) != 0;
    20 constructions; < 5 s."""
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        p = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        unit = [Fraction(rng.randint(-9, 9)) for _ in range(15)]
        while poly_eval(poly_strip(unit) or [Fraction(0)], p) == 0 or not poly_strip(unit):
            unit = [Fraction(rng.randint(-9, 9)) for _ in range(15)]
        g4_aff = poly_mul([-p, Fraction(1)], unit)
        g6_aff = [Fraction(rng.randint(-9, 9)) for _ in range(25)]
        while poly_eval(g6_aff, p) == 0:
            g6_aff[0] += 1
        s = WeierstrassSurface(4,
                               BinaryForm.from_affine(g4_aff, 16),
                               BinaryForm.from_affine(g6_aff, 24))
        w = transvectant_first(s.g4, s.g6)
        if s.g4.eval_pair(Fraction(1), p) != 0:
            ok = False
        if w.eval_pair(Fraction(1), p) == 0:
            ok = False
    elapsed = time.time() - t0
    report(2, "classifying map unramified over j=0 (simple zero of g4)",
           ok, elapsed)
    assert elapsed < 5.0


def test_criterion_3_torelli_roundtrip():
    """50 trials per h in {3,4,5}: recovered Z within 1e-6 of the truth,
    quadric dimension exactly (h-1)(h-2)/2, quadrics vanish to 1e-9 on 100
    fresh canonical-curve samples; < 5 min."""
    t0 = time.time()
    ok = True
    expected_dims = {3: 1, 4: 3, 5: 6}
    for h in (3, 4, 5):
        for trial in range(50):
            seed = 5000 * h + trial
            s = make_random_general(h, seed=seed)
            rep = roundtrip(s, seed=seed)
            if rep.status != "ok" or rep.max_chordal >= 1e-6:
                ok = False
            if rep.quadric_dim != expected_dims[h]:
                ok = False
            if rep.residual_max > 1e-9:
                ok = False
    elapsed = time.time() - t0
    report(3, "round trip recovers Z and the curve for h in {3,4,5}, 50 each",
           ok, elapsed)
    assert elapsed < 300.0


def test_criterion_4_recovery_invariance():
    """One fixed h=4 surface, 10 synthesis draws (fresh scalar weights,
    frames, mixers): identical recovered Z up to permutation within 1e-6;
    < 1 min."""
    t0 = time.time()
    s = make_random_general(4, seed=77)
    recovered = []
    for seed in range(10):
        pres, _ = synthesize(s, seed=seed, frame_seed=9000 + seed)
        factors = extract_rank_ones(pres, seed=seed)
        recovered.append(np.vstack([f.x for f in factors]))
    ok = all(match_points(recovered[0], other).max_chordal < 1e-6
             for other in recovered[1:])
    elapsed = time.time() - t0
    report(4, "recovered Z invariant under synthesis randomness (h=4, 10 draws)",
           ok, elapsed)
    assert elapsed < 60.0


def test_criterion_5_bruteforce_oracle_agreement(tiny_built_presentation):
    """Tiny built instance: multi-start minor-system oracle agrees with the
    simultaneous-diagonalization extractor to 1e-8.  Negative control: a
    generic subspace (h=3, N=3, where the rank-1 locus of a generic span is
    empty) yields zero factors from both; < 1 min.

    The control runs at h=3: for h=2 every generic N-dim subspace of
    C^(2xN) meets the rank-1 locus (the Segre variety has complementary
    dimension), so a zero-factor control there is impossible.
    """
    t0 = time.time()
    pres, _ = tiny_built_presentation
    oracle = rank_one_oracle_bruteforce(pres, seed=0)
    extracted = extract_rank_ones(pres, seed=0)
    ok = len(oracle) == 3 and len(extracted) == 3
    for f in extracted:
        best = min(max(chordal_distance(f.x, g.x),
                       chordal_distance(f.y, g.y)) for g in oracle)
        if best > 1e-8:
            ok = False

    rng = np.random.default_rng(123)
    basis = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    generic = IVHSPresentation(h=3, N=3, basis=basis)
    if rank_one_oracle_bruteforce(generic, seed=0) != []:
        ok = False
    try:
        extract_rank_ones(generic, seed=0)
        ok = False
    except DegeneratePresentationError:
        pass
    elapsed = time.time() - t0
    report(5, "extractor matches the brute-force oracle; generic span rejected",
           ok, elapsed)
    assert elapsed < 60.0


def test_criterion_6_plumbing_identities():
    """200 random jet sets (m+n <= 6): residue chain equals the closed forms
    coefficient-for-coefficient; leading term -b00/4; residue coefficient
    (b01-b10)/4; proportionality ratios -b00; all exact; < 10 s."""
    t0 = time.time()
    rng = random.Random(6)
    ok = True
    for _ in range(200):
        b = random_jet_coefficients(rng)
        if not check_closed_forms(b).ok:
            ok = False
        if leading_coefficient(b) != Fraction(-1, 4) * b[(0, 0)]:
            ok = False
        if residue_coefficient(b) != (b[(0, 1)] - b[(1, 0)]) / 4:
            ok = False
        scalars = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                   for _ in range(3)]
        family = [b.scale(c) for c in scalars]
        prop = check_eta_proportionality(family)
        if not prop.ok:
            ok = False
        if prop.ratios != tuple(-c * b[(0, 0)] for c in scalars):
            ok = False
    elapsed = time.time() - t0
    report(6, "plumbing residue identities exact on 200 random jet sets",
           ok, elapsed)
    assert elapsed < 10.0


def test_criterion_7_i2_constructor():
    """20 constructions across r in {1..4}: v(Delta) = 2 exactly at every
    prescribed point, and every prescribed point is a root of the
    ramification form (rational arithmetic); < 30 s."""
    t0 = time.time()
    ok = True
    point_pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    for r in (1, 2, 3, 4):
        for seed in range(5):
            points = point_pool[:r]
            s = make_with_I2(3, points, seed=100 * r + seed)
            delta = discriminant(s)
            aff = poly_strip(delta.coeffs)
            d1 = poly_derivative(aff)
            d2 = poly_derivative(d1)
            w = transvectant_first(s.g4, s.g6)
            for p in points:
                if poly_eval(aff, p) != 0 or poly_eval(d1, p) != 0:
                    ok = False
                if poly_eval(d2, p) == 0:
                    ok = False
                if w.eval_pair(Fraction(1), p) != 0:
                    ok = False
    elapsed = time.time() - t0
    report(7, "prescribed I2 fibres have v(Delta)=2 and lie in Z, exactly",
           ok, elapsed)
    assert elapsed < 30.0


def test_criterion_8_schottky_bookkeeping():
    """deg Z = 10(h-1)+18 = 10h+8 = deg(10L + K) for h in {3..8}; < 1 s."""
    t0 = time.time()
    ok = True
    for h in range(3, 9):
        inv = Invariants.from_genus_irregularity(h, 0)
        class_degree = 10 * (h - 1) + 18
        bundle_degree = 10 * (h + 1) - 2
        if not (class_degree == bundle_degree == 10 * h + 8 == inv.N):
            ok = False
    # and the surface-level check agrees on a constructed example
    if not schottky_degree_check(make_random_general(3, seed=8)):
        ok = False
    elapsed = time.time() - t0
    report(8, "Schottky degree bookkeeping for h in {3..8}", ok, elapsed)
    assert elapsed < 1.0
