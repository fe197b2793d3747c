"""Rank-one extraction, the brute-force oracle, and the round trip."""

import functools
import hashlib
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from torelli_lab import ivhs, linalg, recovery
from torelli_lab.errors import UsageError
from torelli_lab.ivhs import (
    IVHSPresentation,
    canonical_point,
    normalize_phase,
    synthesize,
)
from torelli_lab.linalg import nullspace
from torelli_lab.recovery import (
    CONFIDENCE_MIN,
    CONTRACTION_COND_MAX,
    NULLSPACE_REL_TOL,
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
    _veronese2,
)
from torelli_lab.ramification import is_general, ramification_divisor
from torelli_lab.surfaces import (
    WeierstrassSurface,
    discriminant,
    invariants,
    make_random_general,
    ramification_form,
)


def true_canonical_points(s) -> np.ndarray:
    """Exact-path canonical images of the true ramification points."""
    inv = invariants(s)
    ram = ramification_divisor(s)
    return np.vstack([canonical_point(p, inv.h).x for p, _ in ram.divisor])


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


@functools.lru_cache(maxsize=None)
def synthesized(h):
    """A synthesized presentation at h (cached: h = 8 takes a second)."""
    return synthesize(make_random_general(h, seed=h), seed=h)[0]


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


def _factor_bits(factors):
    return [(f.x.tobytes(), f.y.tobytes(), f.confidence) for f in factors]


@pytest.mark.parametrize("h, seed", [(3, 0), (8, 1)])
def test_extraction_does_not_depend_on_the_basis_scale(h, seed):
    # the contractions and the dual are scaled by one power of 2 from the
    # basis peak, so a basis times 2^k gives the same factors to the last
    # bit, with no overflow or underflow warning, as far as 2^-1000 and
    # 2^1000 (about 1e-301 and 1e301)
    pres = synthesize(make_random_general(h, seed=seed), seed=seed)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = extract_rank_ones(pres, seed)
        want = _factor_bits(factors)
        for k in (3, -3, 250, -250, 500, -500, 1000, -1000):
            scaled = IVHSPresentation(h=h, N=pres.N,
                                      basis=pres.basis * np.ldexp(1.0, k))
            assert _factor_bits(extract_rank_ones(scaled, seed)) == want, k
        # a subnormal peak (here about 1e-313) keeps some 33 bits: the
        # scale is capped so that the contractions stay finite, and the
        # points agree to what those bits resolve
        tiny = IVHSPresentation(h=h, N=pres.N,
                                basis=pres.basis * np.ldexp(1.0, -1040))
        got = extract_rank_ones(tiny, seed)
    assert match_points(np.vstack([f.x for f in got]),
                        np.vstack([f.x for f in factors])).max_chordal < 1e-7


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


def chordal_matrix(recovered, truth):
    """dist[i, j] of every pair, by the stable formula ``match_points``
    uses for the pairs it matches and for its broadcast fallback, so the
    oracle solves the same matrix bit for bit."""
    rec = recovered / np.linalg.norm(recovered, axis=1, keepdims=True)
    tru = truth / np.linalg.norm(truth, axis=1, keepdims=True)
    inner = rec.conj() @ tru.T
    return np.linalg.norm(tru[None, :, :] - inner[:, :, None] * rec[:, None, :],
                          axis=2)


def projective_noise(rng, x, scale):
    """Rows of ``x`` moved by ``scale`` and rescaled by random nonzero
    complex factors, which leave the projective points unchanged."""
    n, h = x.shape
    noise = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
    factor = rng.uniform(0.5, 2.0, (n, 1)) * np.exp(2j * np.pi * rng.random((n, 1)))
    return (x + scale * noise) * factor


def test_match_points_agrees_with_the_assignment_oracle(monkeypatch):
    """A nearest-neighbour bijection is taken as it is; colliding nearest
    neighbours go to the assignment solver.  Either way the permutation and
    the chordal statistics are those of ``linear_sum_assignment``, bit for
    bit, also at the recovery workload's N = 88, h = 8.  A bijection
    computes only the matched distances: no 3-D array reaches the norm."""
    oracle = scipy.optimize.linear_sum_assignment
    solved, norm_ndims = [], []
    norm = np.linalg.norm

    def counted(dist):
        solved.append(1)
        return oracle(dist)

    def spied_norm(x, *args, **kwargs):
        norm_ndims.append(np.ndim(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    rng = np.random.default_rng(11)
    fallbacks = {"bijective": 0, "duplicated": 0, "clustered": 0}
    cases = [(("bijective", "duplicated", "clustered")[trial % 3], None)
             for trial in range(90)]
    cases += [(kind, (88, 8)) for kind in ("bijective", "duplicated") * 2]
    for kind, size in cases:
        if size is None:
            n, h = int(rng.integers(3, 61)), int(rng.integers(3, 7))
        else:
            n, h = size
        truth = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
        if kind == "duplicated":
            copies = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
            truth[copies[1:]] = truth[copies[0]]
        elif kind == "clustered":
            centres = truth[rng.integers(0, max(1, n // 6), n)]
            truth = projective_noise(rng, centres, 1e-3)
        perm = rng.permutation(n)
        recovered = projective_noise(rng, truth[perm],
                                     1e-7 if kind != "clustered" else 1e-1)

        solved.clear()
        norm_ndims.clear()
        with monkeypatch.context() as spy:
            spy.setattr(np.linalg, "norm", spied_norm)
            report = match_points(recovered, truth)
        fallbacks[kind] += bool(solved)
        if kind == "bijective":
            assert norm_ndims and max(norm_ndims) == 2
        dist = chordal_matrix(recovered, truth)
        np.testing.assert_allclose(
            dist[0], [chordal_distance(recovered[0], t) for t in truth],
            rtol=1e-9, atol=1e-15)
        rows, cols = oracle(dist)
        np.testing.assert_array_equal(rows, np.arange(n))
        assert report.permutation == tuple(int(c) for c in cols)
        assert report.max_chordal == float(dist[rows, cols].max())
        assert report.mean_chordal == float(dist[rows, cols].mean())
        if kind == "bijective":
            assert report.permutation == tuple(int(c) for c in perm)
    # every bijective case took the certificate, every duplicated one the
    # solver, and the clustered ones reached the solver at least once
    assert fallbacks["bijective"] == 0
    assert fallbacks["duplicated"] == 32
    assert fallbacks["clustered"] > 0


def test_match_points_resolves_a_near_tie_by_the_distances():
    # true points 0 and 1 lie about 3e-9 apart, closer than |<x, y>|^2 can
    # tell (its rounding is about 1e-16, the square of a 1e-8 angle): here
    # the largest |<x, y>| of each of rows 0 and 1 is the other's point,
    # a bijection that is not optimal, so the stable distances must decide
    rng = np.random.default_rng(2)
    n, h = 4, 5
    truth = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
    truth[1] = truth[0] + 3e-9 * (rng.standard_normal(h)
                                  + 1j * rng.standard_normal(h))
    recovered = truth + 1e-9 * (rng.standard_normal((n, h))
                                + 1j * rng.standard_normal((n, h)))
    rec = recovered / np.linalg.norm(recovered, axis=1, keepdims=True)
    tru = truth / np.linalg.norm(truth, axis=1, keepdims=True)
    assert tuple(np.abs(rec.conj() @ tru.T).argmax(axis=1)) == (1, 0, 2, 3)
    dist = chordal_matrix(recovered, truth)
    report = match_points(recovered, truth)
    assert report.permutation == (0, 1, 2, 3)
    assert report.max_chordal == float(dist[np.arange(n), np.arange(n)].max())


def test_match_points_rejects_a_zero_point_like_the_solver():
    # the zero row's NaN distances give argmin 0, which no other row takes:
    # a bijection that certifies nothing
    x = np.eye(3, dtype=complex)
    y = x.copy()
    y[0] = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            match_points(y, x)


@pytest.mark.parametrize("n_rec, n_true", [(5, 3), (3, 5)])
def test_match_points_rejects_unequal_counts(n_rec, n_true):
    # more recovered than true points once left unmatched rows unset and
    # reported a perfect match
    x = np.eye(5, dtype=complex)
    with pytest.raises(UsageError, match=f"{n_rec} recovered .* {n_true} true"):
        match_points(x[:n_rec], x[:n_true])


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


ROUNDTRIP_DIGEST = "ef421130c0be79c210dce169e227ceb517dfb1de29a7c7ee7f4b2090c45bef00"
RECOVER_Z_DIGEST = "27a621ef46bb8fe6075d05c1a28039e880eb1a895de3ed094ebcf2d8b2413ee6"


def _roundtrip_digest():
    digest = hashlib.sha256()
    for seed in range(10):
        report = roundtrip(make_random_general(5, seed), seed).to_json_dict()
        del report["stage_timings_ms"]
        digest.update(json.dumps(report, sort_keys=True).encode())
    return digest.hexdigest()


def _recover_z_digest():
    pres, _ = synthesize(make_random_general(8, seed=1), seed=1)
    loaded = ivhs.presentation_from_json_dict(
        json.loads(json.dumps(ivhs.presentation_to_json_dict(pres))))
    geometry = recover_geometry(extract_rank_ones(loaded, seed=1), loaded.h)
    z = np.ascontiguousarray(geometry.z_points, "<c16")
    return hashlib.sha256(z.tobytes()).hexdigest()


def test_roundtrip_golden_digest():
    """The h = 5 reports of seeds 0..9, without their timings, are pinned:
    a change to matching, extraction or interpolation that moves a single
    reported bit moves the digest."""
    assert _roundtrip_digest() == ROUNDTRIP_DIGEST


def test_recover_z_points_golden_digest():
    """The recovered points of one h = 8 presentation, read back from its
    file data as ``torelli-lab recover`` reads it, are pinned to the byte."""
    assert _recover_z_digest() == RECOVER_Z_DIGEST


def test_golden_digests_do_not_depend_on_the_blas_scope(monkeypatch):
    """With the OpenBLAS lookup forced to "absent" the entry points run at
    the caller's thread count, and every byte is the same."""
    monkeypatch.setattr(linalg, "_blas_threads", ())
    assert _roundtrip_digest() == ROUNDTRIP_DIGEST
    assert _recover_z_digest() == RECOVER_Z_DIGEST


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


def test_roundtrip_dropped_factor_fits_no_admissible_genus(monkeypatch):
    s = make_random_general(3, seed=1)
    extract = recovery.extract_rank_ones
    monkeypatch.setattr(recovery, "extract_rank_ones",
                        lambda *args: extract(*args)[:-1])
    with pytest.raises(StageError) as err:
        roundtrip(s, seed=1)
    assert err.value.stage == "recover"
    assert "37 recovered points fit no admissible (h, q)" in str(err.value)


@pytest.mark.parametrize("h", [3, 4])
def test_the_twin_surface_hides_behind_the_same_divisor(h):
    """A negative control: (2 g4, g6 / 2) is another surface, with another
    discriminant, but W is bilinear in (g4, g6), so its ramification form is
    exactly the original's.  Recovery from the twin's own presentation finds
    the original's points to criterion 3's bound: the period data fix the
    divisor, not the surface."""
    for seed in range(6):
        s = make_random_general(h, seed=seed)
        twin = WeierstrassSurface(s.dL, 2 * s.g4, Fraction(1, 2) * s.g6)
        assert ramification_form(twin) == ramification_form(s)
        assert discriminant(twin) != discriminant(s)
        assert is_general(twin)
        pres, _ = synthesize(twin, seed=seed)
        geometry = recover_geometry(extract_rank_ones(pres, seed=seed), h)
        match = match_points(geometry.z_points, true_canonical_points(s))
        assert match.max_chordal < 1e-6


# ---------------------------------------------------------------------------
# the vectorized extraction and interpolation against their loop forms
# ---------------------------------------------------------------------------

# the fixed relative eigenvalue gap and frame condition that the extractor
# cut at before its gap certificates; the loop-form reference keeps both
EIG_GAP_MIN = 1e-6
KAPPA_F_MAX = 1e12


def _loop_extract_rank_ones(presentation, seed):
    """The extractor written with one einsum, the general eigensolver and
    one full SVD per slice: the loop-form reference the extractor must
    reproduce."""
    basis = presentation.basis
    n, h = presentation.N, presentation.h
    rng = np.random.default_rng(seed)
    for _ in range(recovery.EXTRACTION_RETRIES):
        u1 = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        u2 = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        p1 = np.einsum("d,jda->aj", u1, basis)
        p2 = np.einsum("d,jda->aj", u2, basis)
        sv = np.linalg.svd(p2, compute_uv=False)
        if sv[-1] == 0.0 or sv[0] / sv[-1] > CONTRACTION_COND_MAX:
            continue
        pencil = np.linalg.solve(p2.T, p1.T).T
        try:
            values, y_frame = linalg.eig_general(pencil)
        except linalg.EigenConvergenceError:
            continue
        try:
            dual = np.linalg.solve(y_frame.T, np.eye(n, dtype=complex))
        except np.linalg.LinAlgError:
            continue
        if not np.linalg.norm(y_frame) * np.linalg.norm(dual) < KAPPA_F_MAX:
            continue
        scale = max(1.0, float(np.max(np.abs(values))))
        gaps = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(gaps, np.inf)
        if float(np.min(gaps)) < EIG_GAP_MIN * scale:
            continue
        slices = np.einsum("jda,ak->kdj", basis, dual)
        factors = []
        for k in range(n):
            u, s, _ = np.linalg.svd(slices[k])
            confidence = float(1.0 - s[1] / s[0]) if s[0] > 0 else 0.0
            if confidence <= CONFIDENCE_MIN:
                break
            factors.append(RankOneFactor(
                x=normalize_phase(u[:, 0]),
                y=normalize_phase(y_frame[:, k]),
                confidence=confidence,
            ))
        if len(factors) == n:
            return sorted(factors, key=lambda f: tuple(np.round(
                np.concatenate([f.x.real, f.x.imag]), 9)))
    raise DegeneratePresentationError("no rank-1 frame found")


def _loop_quadrics(factors, h):
    """The quadric basis built entry by entry from the nullspace of the
    Veronese rows: the loop-form reference of ``recover_geometry``."""
    z = np.vstack([f.x for f in factors])
    rows = np.vstack([_veronese2(z[i]) for i in range(len(z))])
    null = nullspace(rows, NULLSPACE_REL_TOL)
    quadrics = []
    for j in range(null.shape[1]):
        q = np.zeros((h, h), dtype=complex)
        idx = 0
        for i in range(h):
            for k in range(i, h):
                c = null[idx, j]
                if i == k:
                    q[i, i] = c
                else:
                    q[i, k] = c / 2
                    q[k, i] = c / 2
                idx += 1
        quadrics.append(q / np.linalg.norm(q))
    return quadrics


@pytest.mark.parametrize("h", [3, 4, 5, 6, 8])
def test_vectorized_extraction_matches_the_loop_form(h):
    pres = synthesized(h)
    new = extract_rank_ones(pres, seed=h)
    old = _loop_extract_rank_ones(pres, seed=h)
    assert len(new) == len(old) == pres.N
    for f, g in zip(new, old):        # same order, factor by factor
        assert chordal_distance(f.x, g.x) < 1e-10
        assert chordal_distance(f.y, g.y) < 1e-10
        assert abs(f.confidence - g.confidence) < 1e-10

    geometry = recover_geometry(new, h)
    old_quadrics = _loop_quadrics(old, h)
    assert geometry.quadric_dim == len(old_quadrics) \
        == expected_quadric_dimension(h)
    if old_quadrics:
        span = np.vstack([q.reshape(-1) for q in geometry.quadric_basis]).T
        ortho, _ = np.linalg.qr(span)
        for q in old_quadrics:
            v = q.reshape(-1)
            assert np.linalg.norm(v - ortho @ (ortho.conj().T @ v)) < 1e-10
        residual = max(abs(z @ q @ z) for z in geometry.z_points
                       for q in geometry.quadric_basis)
        assert geometry.point_residual_max == pytest.approx(residual, rel=1e-6)


def test_veronese_rows_of_a_stack_are_the_rows_of_each_point():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    rows = _veronese2(z)
    assert rows.shape == (5, 10)
    for k in range(5):
        expected = [z[k, i] * z[k, j] for i in range(4) for j in range(i, 4)]
        # equal up to rounding: numpy's vector loop may fuse multiply-adds
        np.testing.assert_allclose(rows[k], expected, rtol=1e-14)
        np.testing.assert_array_equal(_veronese2(z[k]), rows[k])


def test_extraction_svd_count_does_not_grow_with_n(monkeypatch):
    svd_calls, eig_calls = [], []
    svd, eig_general = np.linalg.svd, linalg.eig_general

    def counted_svd(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    def counted_eig(*args, **kwargs):
        eig_calls.append(1)
        return eig_general(*args, **kwargs)

    counts = {}
    for h in (3, 4):
        pres = synthesized(h)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(linalg, "eig_general", counted_eig)
        svd_calls.clear()
        eig_calls.clear()
        extract_rank_ones(pres, seed=h)
        monkeypatch.undo()
        assert len(eig_calls) == 0           # the normal pencil's path
        counts[pres.N] = len(svd_calls)
    # the contraction's condition only: the slices' rank-1 bounds take a
    # power step each, with no SVD
    assert counts == {38: 1, 48: 1}


# ---------------------------------------------------------------------------
# the normal-pencil path and its certificates
# ---------------------------------------------------------------------------

def _solver_calls(monkeypatch, presentation, seed):
    """(eigh calls, eig_general calls, factors or the error) of one
    extraction."""
    calls = {"eigh": 0, "eig_general": 0}
    eigh, eig_general = np.linalg.eigh, linalg.eig_general

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_eig(*args, **kwargs):
        calls["eig_general"] += 1
        return eig_general(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", counted_eigh)
        m.setattr(linalg, "eig_general", counted_eig)
        try:
            out = extract_rank_ones(presentation, seed)
        except DegeneratePresentationError as exc:
            out = exc
    return calls["eigh"], calls["eig_general"], out


def mixed_frame(presentation, eps, seed):
    """The presentation with its hidden frame Y replaced by (I + eps A) Y,
    for a random A of unit 2-norm: a non-unitary frame, so a pencil that
    is not normal, with the same x's."""
    rng = np.random.default_rng(seed)
    n = presentation.N
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mix = np.eye(n) + eps * a / np.linalg.norm(a, 2)
    return IVHSPresentation(presentation.h, n, presentation.basis @ mix.T)


@pytest.mark.parametrize("h", [3, 5, 8])
def test_a_synthesized_presentation_takes_the_normal_path(h, monkeypatch):
    eighs, eigs, factors = _solver_calls(monkeypatch, synthesized(h), h)
    assert (eighs, eigs) == (1, 0)
    assert len(factors) == 10 * h + 8


@pytest.mark.parametrize("h", [3, 5, 8])
def test_a_non_unitary_frame_takes_the_general_path_and_recovers(
        h, monkeypatch):
    s = make_random_general(h, seed=h)
    pres, truth = synthesize(s, seed=h)
    eighs, eigs, factors = _solver_calls(monkeypatch,
                                         mixed_frame(pres, 0.3, h), h)
    assert (eighs, eigs) == (0, 1)
    truth_x = np.vstack([ep.x for ep in truth.points])
    rec_x = np.vstack([f.x for f in factors])
    assert match_points(rec_x, truth_x).max_chordal < 1e-10


def test_an_uncertified_general_frame_names_its_certificate(monkeypatch):
    # at FRAME_SIN_MAX = 1e-16 no computed frame is certified, so every
    # attempt fails the certificate of its path and says which
    monkeypatch.setattr(recovery, "FRAME_SIN_MAX", 1e-16)
    eighs, eigs, err = _solver_calls(monkeypatch,
                                     mixed_frame(synthesized(3), 0.3, 3), 3)
    assert (eighs, eigs) == (0, recovery.EXTRACTION_RETRIES)
    assert isinstance(err, DegeneratePresentationError)
    assert "Bauer-Fike" in str(err)


def test_an_uncertified_normal_frame_names_its_certificate(monkeypatch):
    monkeypatch.setattr(recovery, "FRAME_SIN_MAX", 1e-16)
    eighs, eigs, err = _solver_calls(monkeypatch, synthesized(3), 3)
    assert (eighs, eigs) == (recovery.EXTRACTION_RETRIES, 0)
    assert isinstance(err, DegeneratePresentationError)
    assert "Davis-Kahan" in str(err)


def near_parallel_frame(presentation, delta):
    """The presentation with its hidden frame Y replaced by M Y, where M is
    the identity with rows 0 and 1 made e0 + e1 and delta e1: a frame of
    condition about 2/delta, so a near-defective pencil, with the same
    x's."""
    mix = np.eye(presentation.N, dtype=complex)
    mix[0, 1], mix[1, 1] = 1.0, delta
    return IVHSPresentation(presentation.h, presentation.N,
                            presentation.basis @ mix.T)


def test_a_near_defective_pencil_fails_the_bauer_fike_certificate(
        monkeypatch):
    # kappa_F of every computed frame is about 3e6, far below any cut on
    # kappa alone: the product with the gap quotients rejects them
    pres = near_parallel_frame(synthesized(3), 3e-6)
    eighs, eigs, err = _solver_calls(monkeypatch, pres, 0)
    assert (eighs, eigs) == (0, recovery.EXTRACTION_RETRIES)
    assert isinstance(err, DegeneratePresentationError)
    assert err.args[0].endswith(
        "(eigenvalues fail the Bauer-Fike gap certificate)")


@pytest.mark.parametrize("route", ["normal", "general"])
def test_a_singular_frame_is_a_typed_retry(route, monkeypatch):
    # each route hands back a frame with a zero column, so LU meets an
    # exact zero pivot in the dual solve on every attempt
    def with_zero_column(solver):
        def solve(pencil):
            values, frame = solver(pencil)
            frame = frame.copy()
            frame[:, 1] = 0.0
            return values, frame
        return solve

    if route == "normal":
        pres = synthesized(3)
        monkeypatch.setattr(recovery, "_normal_frame",
                            with_zero_column(recovery._normal_frame))
    else:
        pres = mixed_frame(synthesized(3), 0.3, 3)
        monkeypatch.setattr(linalg, "eig_general",
                            with_zero_column(linalg.eig_general))
    with pytest.raises(DegeneratePresentationError) as err:
        extract_rank_ones(pres, 3)
    assert err.value.args[0].endswith("(defective eigenframe)")


@pytest.mark.parametrize("route", ["normal", "general"])
def test_one_dual_solve_per_attempt_on_either_route(route, monkeypatch):
    pres = synthesized(3) if route == "normal" \
        else mixed_frame(synthesized(3), 0.3, 3)
    solves, solve = [], np.linalg.solve

    def counted_solve(a, b):
        solves.append(np.shape(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    eighs, eigs, factors = _solver_calls(monkeypatch, pres, 3)
    assert eighs + eigs == 1 and len(factors) == pres.N
    # the pencil's solve, then the dual's
    assert solves == [(pres.N, pres.N), (pres.N, pres.N)]


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-3, 1e-1, 1.0])
@pytest.mark.parametrize("h", [3, 5, 8])
def test_a_pencil_off_normality_never_takes_the_fast_path(h, eps,
                                                          monkeypatch):
    eighs, eigs, _ = _solver_calls(monkeypatch,
                                   mixed_frame(synthesized(h), eps, 17), h)
    assert eighs == 0 and eigs >= 1


def test_the_normality_certificate_separates_normal_from_perturbed():
    rng = np.random.default_rng(8)
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    normal = (q * d) @ q.conj().T
    assert recovery._certified_normal(normal, 1.0)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e *= 1e-8 * np.linalg.norm(normal) / np.linalg.norm(e)
    assert not recovery._certified_normal(normal + e, 100.0)


@pytest.mark.parametrize("h", [3, 4, 5, 6, 7, 8])
def test_confidence_is_a_lower_bound_on_the_singular_value_gap(
        h, monkeypatch):
    """Every confidence the extractor returns is at most 1 - sigma_2/sigma_1
    of a reference SVD of the very slice it bounded, up to the reference's
    own rounding (LAPACK's sigma_2 is good to a few eps times sigma_1)."""
    bounds, seen = recovery._rank_one_bounds, []

    def spy(tall):
        sv = np.linalg.svd(tall, compute_uv=False)
        x, confidence = bounds(tall)
        seen.append((x, confidence, sv))
        return x, confidence

    monkeypatch.setattr(recovery, "_rank_one_bounds", spy)
    factors = extract_rank_ones(synthesized(h), seed=h)
    x, confidence, sv = seen[-1]
    assert np.all(confidence
                  <= 1.0 - sv[:, 1] / sv[:, 0] + 4 * np.finfo(float).eps)
    assert sorted(f.confidence for f in factors) == sorted(confidence)
    assert min(confidence) > CONFIDENCE_MIN


def test_the_rank_one_bound_holds_off_rank_one():
    rng = np.random.default_rng(5)
    n, rows, h = 60, 30, 6
    tall = rng.standard_normal((n, rows, h)) \
        + 1j * rng.standard_normal((n, rows, h))
    # spectra from nearly rank 1 to flat
    u, _, vh = np.linalg.svd(tall, full_matrices=False)
    decay = np.logspace(-12, 0, n)[:, None] ** np.arange(h)
    tall = (u * decay[:, None, :]) @ vh
    s = np.linalg.svd(tall, compute_uv=False)
    x, confidence = recovery._rank_one_bounds(tall.copy())
    assert np.all(confidence <= 1.0 - s[:, 1] / s[:, 0])
    # x is the top right singular direction of the N x h slice (that is,
    # the top left one of its h x N transpose) where the slice is near rank 1
    assert max(chordal_distance(x[k], vh[k, 0]) for k in range(10)) < 1e-9
