"""Rank-one extraction, the brute-force oracle, and the round trip."""

import numpy as np
import pytest

from torelli_lab.errors import UsageError
from torelli_lab.ivhs import IVHSPresentation, synthesize
from torelli_lab.linalg import nullspace
from torelli_lab.recovery import (
    DegeneratePresentationError,
    InterpolationDimensionError,
    RankOneFactor,
    StageError,
    chordal_distance,
    expected_quadric_dimension,
    extract_rank_ones,
    match_points,
    rank_one_oracle_bruteforce,
    recover_geometry,
    roundtrip,
    true_canonical_points,
    _veronese2,
)
from torelli_lab.surfaces import make_random_general


def random_presentation(rng, h, n):
    basis = rng.standard_normal((n, h, n)) + 1j * rng.standard_normal((n, h, n))
    return IVHSPresentation(h=h, N=n, basis=basis)


def factor_sets_match(a, b, tol):
    if len(a) != len(b):
        return False
    for f in a:
        best = min(max(chordal_distance(f.x, g.x), chordal_distance(f.y, g.y))
                   for g in b)
        if best > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_tiny_instance_recovers_built_factors(tiny_built_presentation):
    pres, x_true = tiny_built_presentation
    factors = extract_rank_ones(pres, seed=0)
    assert len(factors) == 3
    for k in range(3):
        best = min(chordal_distance(f.x, x_true[k]) for f in factors)
        assert best < 1e-10
    assert all(f.confidence > 0.999 for f in factors)


def test_extraction_on_synthesized_surface():
    s = make_random_general(3, seed=1)
    pres, truth = synthesize(s, seed=1)
    factors = extract_rank_ones(pres, seed=1)
    assert len(factors) == 38
    assert all(f.confidence > 0.999 for f in factors)
    truth_x = np.vstack([ep.x for ep in truth.points])
    rec_x = np.vstack([f.x for f in factors])
    report = match_points(rec_x, truth_x)
    assert report.max_chordal < 1e-6
    # the recovered y's match the hidden frame up to phase and permutation
    rec_y = np.vstack([f.y for f in factors])
    yrep = match_points(rec_y, truth.y_frame.T)
    assert yrep.max_chordal < 1e-6


def test_generic_subspace_is_rejected():
    rng = np.random.default_rng(0)
    pres = random_presentation(rng, 3, 38)
    with pytest.raises(DegeneratePresentationError):
        extract_rank_ones(pres, seed=0)


def test_extraction_needs_at_least_two_factors():
    basis = np.ones((1, 2, 1), dtype=complex)
    pres = IVHSPresentation(h=2, N=1, basis=basis)
    with pytest.raises(UsageError):
        extract_rank_ones(pres, seed=0)


def test_chordal_metrics_resolve_a_tiny_perturbation():
    rng = np.random.default_rng(3)
    n, h, angle = 6, 4, 1e-12
    x = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    v = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
    v -= np.sum(x.conj() * v, axis=1, keepdims=True) * x
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    y = np.cos(angle) * x + np.sin(angle) * v
    for k in range(n):
        assert angle / 2 <= chordal_distance(x[k], y[k]) <= 2 * angle
    report = match_points(y, x)
    assert report.permutation == tuple(range(n))
    assert angle / 2 <= report.mean_chordal <= report.max_chordal <= 2 * angle


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_agrees_with_extractor_on_tiny_instance(tiny_built_presentation):
    pres, _ = tiny_built_presentation
    oracle = rank_one_oracle_bruteforce(pres, seed=0)
    extracted = extract_rank_ones(pres, seed=0)
    assert len(oracle) == 3
    # far inside criterion 5's 1e-8: the oracle's own error must not reach it
    assert factor_sets_match(oracle, extracted, 1e-10)


def test_oracle_finds_axis_pair():
    basis = np.zeros((2, 2, 2), dtype=complex)
    basis[0, 0, 0] = 1.0
    basis[1, 1, 1] = 1.0
    pres = IVHSPresentation(h=2, N=2, basis=basis)
    oracle = rank_one_oracle_bruteforce(pres, seed=1)
    assert len(oracle) == 2
    dirs = sorted(np.argmax(np.abs(f.x)) for f in oracle)
    assert dirs == [0, 1]


def test_oracle_empty_on_generic_h3_span():
    # 3-dim generic subspaces of C^(3x3) miss the rank-1 variety
    rng = np.random.default_rng(7)
    pres = random_presentation(rng, 3, 3)
    assert rank_one_oracle_bruteforce(pres, seed=7) == []


def test_oracle_gate():
    rng = np.random.default_rng(1)
    pres = random_presentation(rng, 4, 4)
    with pytest.raises(UsageError):
        rank_one_oracle_bruteforce(pres, seed=0)


# ---------------------------------------------------------------------------
# quadric interpolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h,expected", [(3, 1), (4, 3), (5, 6)])
def test_quadric_dimension(h, expected):
    assert expected_quadric_dimension(h) == expected
    s = make_random_general(h, seed=h)
    # independent oracle: the nullspace on the exact Veronese images of the
    # true ramification points must already have the classical dimension
    truth_x = true_canonical_points(s)
    rows = np.vstack([_veronese2(x) for x in truth_x])
    assert nullspace(rows, 1e-8).shape[1] == expected


def test_recover_geometry_and_containment():
    s = make_random_general(4, seed=2)
    pres, truth = synthesize(s, seed=2)
    factors = extract_rank_ones(pres, seed=2)
    geometry = recover_geometry(factors, 4)
    assert geometry.quadric_dim == 3
    assert geometry.point_residual_max < 1e-8
    # every quadric annihilates fresh samples of the true canonical curve
    from torelli_lab.binforms import ProjectivePointP1
    from torelli_lab.ivhs import canonical_point
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        v = canonical_point(ProjectivePointP1.from_affine(z), 4).x
        for q in geometry.quadric_basis:
            assert abs(v @ q @ v) < 1e-9


def test_recover_geometry_rejects_wrong_count():
    factors = [RankOneFactor(x=np.array([1.0, 0, 0]), y=np.zeros(3) + 1,
                             confidence=1.0) for _ in range(5)]
    with pytest.raises(UsageError):
        recover_geometry(factors, 3)


def test_recover_geometry_dimension_mismatch_on_random_points():
    rng = np.random.default_rng(4)
    n = 38
    factors = []
    for _ in range(n):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        factors.append(RankOneFactor(x=x / np.linalg.norm(x),
                                     y=np.ones(n), confidence=1.0))
    # 38 generic points of P^2 admit no quadric at all
    with pytest.raises(InterpolationDimensionError):
        recover_geometry(factors, 3)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_roundtrip_h3():
    s = make_random_general(3, seed=1)
    report = roundtrip(s, seed=1)
    assert report.status == "ok"
    assert report.max_chordal < 1e-6
    assert report.quadric_dim == 1
    assert report.residual_max < 1e-9
    assert report.recovered_dL == s.dL and report.dL_matches
    assert set(report.stage_timings_ms) == {
        "synthesize", "extract", "recover", "match"}


def test_roundtrip_h5():
    s = make_random_general(5, seed=3)
    report = roundtrip(s, seed=3)
    assert report.status == "ok"
    assert report.max_chordal < 1e-6
    assert report.quadric_dim == 6


def test_roundtrip_h6():
    s = make_random_general(6, seed=2)
    report = roundtrip(s, seed=2)
    assert report.status == "ok"
    assert report.N == 68
    assert report.max_chordal < 1e-6
    assert report.quadric_dim == expected_quadric_dimension(6) == 10


def test_roundtrip_invariant_under_synthesis_randomness():
    s = make_random_general(3, seed=4)
    truth_x = true_canonical_points(s)
    recovered = []
    for seed in range(6):
        pres, _ = synthesize(s, seed=seed, frame_seed=seed * 17)
        factors = extract_rank_ones(pres, seed=seed)
        rec = np.vstack([f.x for f in factors])
        assert match_points(rec, truth_x).max_chordal < 1e-6
        recovered.append(rec)
    for other in recovered[1:]:
        assert match_points(recovered[0], other).max_chordal < 1e-6


def test_roundtrip_corrupt_span_fails_at_extraction():
    s = make_random_general(3, seed=5)
    with pytest.raises(StageError) as err:
        roundtrip(s, seed=5, corrupt_span=True)
    assert err.value.stage == "extract"
