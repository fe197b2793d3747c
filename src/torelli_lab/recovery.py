"""Recovery of the ramification points and the base curve from period data.

Given only the subspace W of C^(h x N) spanned by unknown rank-1 tensors
x_k (x) y_k (with no two x's proportional and the y's a basis), the rank-1
elements of W are exactly the generators, and they are found constructively
by simultaneous diagonalization: contracting the basis stack along the
h-dimensional factor with two random covectors gives a pencil P1 = Y D1 C,
P2 = Y D2 C whose quotient N = P1 P2^{-1} = Y D1 D2^{-1} Y^{-1} is
diagonalized by the hidden frame Y.  The forward model draws Y unitary, so
N is normal.  When N's departure from normality is within what the solve's
rounding explains, the frame comes from ``eigh`` of its Hermitian part and
one first-order correction by the complex eigenvalue gaps; any other
pencil goes to the general eigensolver.  Either route yields only the
eigenvalues and a unit frame V, and one check follows: the dual frame
solve(V^T, I), then every gap quotient times kappa (1 on a certified normal
pencil, by Davis-Kahan; kappa_F(V) otherwise, by Bauer-Fike) against
``FRAME_SIN_MAX``.  Back-substitution against the dual gives N rank-1
slices, and one power step per slice gives x_k with a certified lower
bound on its 1 - sigma_2/sigma_1, the confidence.  Uncertified or
singular frames, failed slices and ill-conditioned contractions are
retried with fresh randomness.

The recovered x's are points of P^(h-1) lying on the degree h-1 canonical
curve; the curve itself is recovered as the intersection of the quadrics
through them, computed as the nullspace of the degree-2 Veronese evaluation
matrix.  A brute-force oracle (multi-start alternating projection onto the
rank-1 variety) cross-checks the extraction on tiny instances.

The thresholds are module constants, not settings: ``FRAME_SIN_MAX`` for
the gap certificates, ``CONFIDENCE_MIN`` for the rank-1 confidence of every
extracted slice, ``NULLSPACE_REL_TOL`` for
the quadric nullspace cut and ``MATCH_TOL`` for the round trip's chordal
match against the ground truth.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import TorelliLabError, UsageError
from .ivhs import (
    IVHSPresentation,
    normalize_phase,
    normalize_phase_rows,
    synthesize,
)
from .linalg import EigenConvergenceError, _one_blas_thread
from .surfaces import WeierstrassSurface, degree_gate_ok, invariants

EXTRACTION_RETRIES = 10
# Both gap certificates bound the angle of each computed eigenvector of the
# pencil by FRAME_SIN_MAX: Davis-Kahan ||N v - d v|| / gap on a normal
# pencil, Bauer-Fike kappa_F(V) ||N v - d v|| / gap on any other.  A slice
# takes in such an angle amplified by about the spread of the weights
# (LAMBDA_MAX / LAMBDA_MIN = 100), which 1e-8 keeps below MATCH_TOL.
FRAME_SIN_MAX = 1e-8
# The recovery thresholds, validated for h <= 8, N <= 88: the tests extract
# and interpolate up to h = 8, the size of the benchmark's recovery workload.
CONFIDENCE_MIN = 0.999
NULLSPACE_REL_TOL = 1e-8
MATCH_TOL = 1e-6
CONTRACTION_COND_MAX = 1e8
ORACLE_SIGMA_RATIO = 1e-8
ORACLE_STARTS_PER_DIM = 120
CURVE_SAMPLES = 100


class DegeneratePresentationError(TorelliLabError):
    """No rank-1 frame was extracted within the retry budget."""


class InterpolationDimensionError(TorelliLabError):
    """The space of quadrics through the recovered points has the wrong
    dimension, signalling a failed recovery or a non-generic input."""


class StageError(TorelliLabError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class RankOneFactor:
    """A recovered tensor direction: x in P^(h-1), y in P^(N-1), and the
    rank-1 confidence of its extracted slice, a lower bound on
    1 - sigma_2/sigma_1."""

    x: np.ndarray
    y: np.ndarray
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError("confidence must lie in [0, 1]")


def chordal_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Sine of the principal angle between two complex lines.

    Computed as the norm of the component of unit y orthogonal to unit x,
    which keeps full relative accuracy for nearby lines, where
    sqrt(1 - |<x, y>|^2) cannot resolve angles below about 1.5e-8.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    return float(np.linalg.norm(y - np.vdot(x, y) * x))


def _certified_normal(pencil: np.ndarray, cond: float) -> bool:
    """Whether ||N N^H - N^H N||_F / ||N||_F^2 is within what the computed
    pencil of a normal N can read, to first order in the unit roundoff u,
    for a contraction P2 of 2-norm condition ``cond``.

    LU with partial pivoting solves P2^T X = P1^T with a backward error of
    gamma_3n ||P2^T|| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Theorem 9.4, with unit growth), so the computed pencil
    is N + E with ||E||_F <= 3 n u cond ||N||_F.  For a normal N the
    commutator of N + E is at most 4 ||N||_F ||E||_F, and the two products
    that form it add 2 n u ||N||_F^2 of rounding."""
    n, u = len(pencil), np.finfo(float).eps / 2
    adj = pencil.conj().T
    departure = np.linalg.norm(pencil @ adj - adj @ pencil) \
        / np.linalg.norm(pencil) ** 2
    return bool(departure <= (12.0 * cond + 2.0) * n * u)


def _factor_order(x: np.ndarray) -> np.ndarray:
    """Indices that sort the rows of ``x`` lexicographically by their real
    parts then their imaginary parts, each rounded to 9 decimals."""
    keys = np.round(np.concatenate([x.real, x.imag], axis=1), 9)
    return np.lexsort(keys.T[::-1])


def _rank_one_bounds(tall: np.ndarray):
    """(x, confidence) of every N x h matrix S = tall[k]: x is the dominant
    direction of the h x N slice S^T, and confidence is a certified lower
    bound on its 1 - sigma_2/sigma_1.

    From the row of S of largest norm, one power step with S^H S gives a
    unit v.  S (I - v v^H) is S on the complement of v, so its norm is at
    least sigma_2 (Courant-Fischer), and ||S v|| <= sigma_1; hence
    1 - ||S - S v v^H||_F / ||S v|| <= 1 - sigma_2/sigma_1.  x is conj(v).
    ``tall`` is overwritten by the residuals S - S v v^H."""
    n = len(tall)
    parts = tall.view(float)          # real and imaginary parts side by side
    rows = tall[np.arange(n),
                np.argmax(np.einsum("kji,kji->kj", parts, parts), axis=1)]
    v = rows.conj() / np.linalg.norm(rows, axis=1, keepdims=True)
    sv = (tall @ v[:, :, None])[:, :, 0]
    v = (sv.conj()[:, None, :] @ tall)[:, 0, :].conj()     # S^H S v
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sv = (tall @ v[:, :, None])[:, :, 0]
    tall -= sv[:, :, None] * v.conj()[:, None, :]
    top = np.linalg.norm(sv, axis=1)
    ratio = np.divide(np.sqrt(np.einsum("kji,kji->k", parts, parts)), top,
                      out=np.ones(n), where=top > 0)
    return v.conj(), 1.0 - ratio


def _normal_frame(pencil: np.ndarray):
    """(values, unit eigenvectors) of a near-normal pencil: the eigenvectors
    of its Hermitian part, with one first-order correction from the complex
    gaps of V^H N V.  The Hermitian part alone separates eigenvalues only by
    their real parts; E_ij = D_ij / (d_j - d_i) uses the full complex gap."""
    _, v = np.linalg.eigh((pencil + pencil.conj().T) / 2)
    d = v.conj().T @ pencil @ v
    values = np.diag(d).copy()
    gaps = values[None, :] - values[:, None]
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # an exact collision gives a non-finite frame, which fails the
        # gap certificate
        frame = v + v @ (d / gaps)
        return values, frame / np.linalg.norm(frame, axis=0)


def _gap_quotients(pencil, values, frame) -> np.ndarray:
    """||N v_k - d_k v_k|| / min_(j != k) |d_k - d_j| of every eigenpair."""
    residual = np.linalg.norm(pencil @ frame - frame * values, axis=0)
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        return residual / gaps.min(axis=1)


@_one_blas_thread
def extract_rank_ones(presentation: IVHSPresentation, seed: int):
    """All N rank-1 factors of the presentation, each with confidence above
    ``CONFIDENCE_MIN``, or ``DegeneratePresentationError``.

    A pencil that passes the normality certificate is diagonalized from
    ``eigh``; any other pencil goes to ``linalg.eig_general``.  Either frame
    then gets one dual solve, a singular frame being a retry, and one
    certificate: kappa times the largest gap quotient at most
    ``FRAME_SIN_MAX``, with kappa = 1 by Davis-Kahan on a normal pencil and
    kappa_F(V) by Bauer-Fike otherwise, an overflow reading as inf."""
    basis = presentation.basis
    n, h = presentation.N, presentation.h
    if n < 2:
        raise UsageError("extraction needs N >= 2")
    rng = np.random.default_rng(seed)
    stacked_t = basis.reshape(n * h, n).T
    reasons = []
    for _ in range(EXTRACTION_RETRIES):
        u1 = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        u2 = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        # p[a, j] = sum_d u[d] basis[j, d, a]
        p1 = (u1 @ basis).T
        p2 = (u2 @ basis).T
        sv = np.linalg.svd(p2, compute_uv=False)
        if sv[-1] == 0.0 or sv[0] / sv[-1] > CONTRACTION_COND_MAX:
            reasons.append("ill-conditioned contraction")
            continue
        pencil = np.linalg.solve(p2.T, p1.T).T
        normal = _certified_normal(pencil, sv[0] / sv[-1])
        try:
            values, frame = _normal_frame(pencil) if normal \
                else linalg.eig_general(pencil)
            dual = np.linalg.solve(frame.T, np.eye(n, dtype=complex))
        except EigenConvergenceError:
            reasons.append("eigeniteration failed")
            continue
        except np.linalg.LinAlgError:         # a singular frame
            reasons.append("defective eigenframe")
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # inf kappa
            kappa = 1.0 if normal else \
                np.linalg.norm(frame) * np.linalg.norm(dual)
            sin_max = kappa * np.max(_gap_quotients(pencil, values, frame))
        if not sin_max <= FRAME_SIN_MAX:
            reasons.append("eigenframe fails the Davis-Kahan certificate"
                           if normal else
                           "eigenvalues fail the Bauer-Fike gap certificate")
            continue
        # slice k is the h x N matrix sum_a basis[:, :, a] dual[a, k], held
        # as its N x h transpose tall[k]
        tall = (dual.T @ stacked_t).reshape(n, n, h)
        xs, confidences = _rank_one_bounds(tall)
        if np.all(confidences > CONFIDENCE_MIN):
            xs = normalize_phase_rows(xs)
            ys = normalize_phase_rows(frame.T)
            return [RankOneFactor(x=xs[k], y=ys[k],
                                  confidence=float(confidences[k]))
                    for k in _factor_order(xs)]
        reasons.append("slice not rank 1")
    raise DegeneratePresentationError(
        "degenerate presentation: no rank-1 frame found in "
        f"{EXTRACTION_RETRIES} attempts ({'; '.join(sorted(set(reasons)))})")


def rank_one_oracle_bruteforce(presentation: IVHSPresentation, seed: int = 0):
    """Independent search for every rank-1 element of the subspace.

    Multi-start alternating projection between the subspace and the rank-1
    variety (ORACLE_STARTS_PER_DIM starts per dimension), accepting local
    minimizers of sigma_2/sigma_1 below ORACLE_SIGMA_RATIO and deduplicating
    projectively.  A start stops when its step, measured by the stable
    chordal distance, is below 1e-12 (1 - |<c, prev>| cannot resolve
    steps below about 1.5e-8), or after 500 steps.  Cost-gated to N <= 6,
    h <= 3.
    """
    n, h = presentation.N, presentation.h
    if n > 6 or h > 3:
        raise UsageError("brute-force oracle is gated to N <= 6 and h <= 3")
    flat = presentation.flattened()
    _, _, vh = np.linalg.svd(flat, full_matrices=False)
    ortho = vh[:n]                      # orthonormal rows spanning the subspace
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(ORACLE_STARTS_PER_DIM * n):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c /= np.linalg.norm(c)
        prev = None
        for _ in range(500):
            m = (c @ ortho).reshape(h, n)
            u, s, vvh = np.linalg.svd(m, full_matrices=False)
            rank1 = s[0] * np.outer(u[:, 0], vvh[0])
            c = np.conj(ortho) @ rank1.reshape(-1)
            norm = np.linalg.norm(c)
            if norm < 1e-13:
                break
            c /= norm
            # chordal_distance(prev, c); both are unit vectors already
            if prev is not None and \
                    np.linalg.norm(c - np.vdot(prev, c) * prev) < 1e-12:
                break
            prev = c
        m = (c @ ortho).reshape(h, n)
        u, s, vvh = np.linalg.svd(m, full_matrices=False)
        if s[0] <= 1e-13 or s[1] / s[0] >= ORACLE_SIGMA_RATIO:
            continue
        x = normalize_phase(u[:, 0])
        y = normalize_phase(vvh[0].conj())
        if any(chordal_distance(x, f.x) < 1e-6 and
               chordal_distance(y, f.y) < 1e-6 for f in found):
            continue
        found.append(RankOneFactor(x=x, y=y,
                                   confidence=float(1.0 - s[1] / s[0])))
    if not found:
        return []
    return [found[k] for k in _factor_order(np.vstack([f.x for f in found]))]


@dataclass(frozen=True)
class MatchReport:
    permutation: tuple
    max_chordal: float
    mean_chordal: float


@dataclass(frozen=True)
class RecoveredGeometry:
    z_points: np.ndarray            # N x h unit rows
    quadric_basis: tuple            # symmetric h x h matrices, Frobenius-unit
    quadric_dim: int
    point_residual_max: float


def _veronese2(x: np.ndarray) -> np.ndarray:
    """Degree-2 monomials x_i x_j, i <= j, in lexicographic order, of a
    point or of each row of a stack of points."""
    x = np.asarray(x, dtype=complex)
    i, j = np.triu_indices(x.shape[-1])
    return x[..., i] * x[..., j]


def _max_quadric_value(rows: np.ndarray, quadrics) -> float:
    """max |v^T q v| over the points v with Veronese rows ``rows`` and the
    symmetric quadrics q: v^T q v is the row times q's coefficients of
    x_i x_j, which are q_ii and q_ij + q_ji = 2 q_ij."""
    if len(quadrics) == 0:
        return 0.0
    i, j = np.triu_indices(np.shape(quadrics)[-1])
    coeffs = np.asarray(quadrics)[:, i, j] * np.where(i == j, 1.0, 2.0)
    return float(np.max(np.abs(rows @ coeffs.T)))


def expected_quadric_dimension(h: int) -> int:
    """Dimension of the quadrics through a rational normal curve of degree
    h-1 in P^(h-1)."""
    return (h - 1) * (h - 2) // 2


@_one_blas_thread
def recover_geometry(factors, h: int) -> RecoveredGeometry:
    """Quadric interpolation through the recovered points of P^(h-1), with
    the nullspace cut at ``NULLSPACE_REL_TOL``."""
    n = len(factors)
    expected_n = 10 * h + 8
    if n != expected_n:
        raise UsageError(
            f"expected N = 10h+8 = {expected_n} factors for h = {h}, got {n}")
    z = np.vstack([f.x for f in factors])
    rows = _veronese2(z)
    null = linalg.nullspace(rows, NULLSPACE_REL_TOL)
    dim = null.shape[1]
    if dim != expected_quadric_dimension(h):
        raise InterpolationDimensionError(
            f"interpolation dimension mismatch: got {dim} quadrics, expected "
            f"{expected_quadric_dimension(h)} for h = {h}")
    # the symmetric matrix of each nullspace vector: its coefficient of
    # x_i x_j is split evenly between entries (i, j) and (j, i)
    i, j = np.triu_indices(h)
    entries = null.T * np.where(i == j, 1.0, 0.5)
    quadrics = np.zeros((dim, h, h), dtype=complex)
    quadrics[:, i, j] = entries
    quadrics[:, j, i] = entries
    quadrics /= np.linalg.norm(quadrics, axis=(1, 2), keepdims=True)
    return RecoveredGeometry(
        z_points=z,
        quadric_basis=tuple(quadrics),
        quadric_dim=dim,
        point_residual_max=_max_quadric_value(rows, quadrics),
    )


@dataclass(frozen=True)
class RoundTripReport:
    h: int
    N: int
    seed: int
    max_chordal: float
    mean_chordal: float
    quadric_dim: int
    residual_max: float
    point_residual_max: float
    recovered_dL: int
    dL_matches: bool
    min_confidence: float
    stage_timings_ms: dict
    status: str

    def to_json_dict(self) -> dict:
        return asdict(self)


@_one_blas_thread
def match_points(recovered: np.ndarray, truth: np.ndarray) -> MatchReport:
    """Optimal bipartite matching of projective point sets in chordal
    distance, each matched distance the stable form of ``chordal_distance``.

    For unit x and y, chordal(x, y)^2 = 1 - |<x, y>|^2, so each row's
    nearest point is the one of largest |<x, y>|.  When those picks are
    distinct, that map is itself an optimal assignment: every row sits at
    its own minimum, so no assignment has a smaller sum.  The picks are
    taken as they are when every row's largest |<x, y>|^2 beats its
    runner-up by more than the rounding bound below, which proves the pick
    is also the row's minimum of the computed distances; only then are the
    N matched distances all that is computed.  Otherwise scipy solves the
    assignment on the distances of all pairs.  Both sets must have the
    same shape."""
    if recovered.shape != truth.shape:
        raise UsageError(
            f"cannot match {recovered.shape[0]} recovered points of shape "
            f"{recovered.shape} against {truth.shape[0]} true points of "
            f"shape {truth.shape}")
    n, h = recovered.shape
    rec = recovered / np.linalg.norm(recovered, axis=1, keepdims=True)
    tru = truth / np.linalg.norm(truth, axis=1, keepdims=True)
    inner = rec.conj() @ tru.T
    # With unit roundoff u, the stored rows have squared norms within
    # (2h + 4) u of 1 and the BLAS inner products are within
    # sqrt(2) gamma_(2h) of the exact ones of those rows, so to first order
    # in u every computed distance d and computed closeness a = |inner|^2
    # satisfy |d^2 - (1 - a)| <= (12 h + 20) u <= 16 (h + 2) u.  A gap in a
    # of twice that makes d strictly smallest at the pick.
    rows = np.arange(n)
    close = inner.real ** 2 + inner.imag ** 2
    cols = close.argmax(axis=1)
    best = close[rows, cols]
    close[rows, cols] = -np.inf
    gap = best - close.max(axis=1)
    if np.all(gap > 32 * (h + 2) * np.finfo(float).eps / 2) \
            and np.unique(cols).size == n:
        matched = np.linalg.norm(tru[cols] - inner[rows, cols, None] * rec,
                                 axis=1)
    else:
        from scipy.optimize import linear_sum_assignment
        dist = np.linalg.norm(
            tru[None, :, :] - inner[:, :, None] * rec[:, None, :], axis=2)
        rows, cols = linear_sum_assignment(dist)
        matched = dist[rows, cols]
    order = np.empty(n, dtype=int)
    order[rows] = cols
    return MatchReport(
        permutation=tuple(int(c) for c in order),
        max_chordal=float(matched.max()),
        mean_chordal=float(matched.mean()),
    )


def _curve_samples(h: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh unit Veronese samples of the degree h-1 rational normal curve:
    the rows (1, z, ..., z^(h-1)), normalized as ``canonical_point`` does,
    at affine points z drawn real part then imaginary part per sample."""
    draws = rng.standard_normal(2 * count)
    z = draws[0::2] + 1j * draws[1::2]
    return normalize_phase_rows(z[:, None] ** np.arange(h))


def recovered_line_degree(h: int, n: int) -> int:
    """dL = h + 1 - q, with q read from N = 10h + 8(1 - q) for the number n
    of recovered points.  ``StageError("recover", ...)`` names n when no
    admissible (h, q) fits, and names n and q when the fit has q >= 1,
    because the quadric interpolation is written for q = 0 only."""
    q, rem = divmod(10 * h + 8 - n, 8)
    if rem or q < 0 or not degree_gate_ok(h, q):
        raise StageError(
            "recover", f"recover: {n} recovered points fit no admissible "
            f"(h, q) with h = {h}")
    if q:
        raise StageError(
            "recover", f"recover: {n} recovered points fit q = {q} with "
            f"h = {h}, but recovery interpolates for q = 0 only")
    return h + 1 - q


def roundtrip(s: WeierstrassSurface, seed: int,
              corrupt_span: bool = False) -> RoundTripReport:
    """Forward synthesis, extraction, interpolation, and ground-truth match.

    Any stage failure is re-raised as :class:`StageError` tagged with the
    stage name.  ``corrupt_span`` perturbs the synthesized basis by a random
    non-rank-1 matrix, a negative control that must make extraction fail.
    """
    inv = invariants(s)
    timings = {}

    def run(stage, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except TorelliLabError as exc:
            raise StageError(stage, f"{stage}: {exc}") from exc
        timings[stage] = (time.perf_counter() - t0) * 1000.0
        return out

    presentation, truth = run(
        "synthesize", lambda: synthesize(s, seed))
    if corrupt_span:
        rng = np.random.default_rng(seed + 10**6)
        noise = rng.standard_normal((inv.h, inv.N)) \
            + 1j * rng.standard_normal((inv.h, inv.N))
        basis = presentation.basis.copy()
        basis[-1] = basis[-1] + noise * np.linalg.norm(basis[-1]) / np.linalg.norm(noise)
        presentation = IVHSPresentation(h=inv.h, N=inv.N, basis=basis)
    factors = run("extract", lambda: extract_rank_ones(presentation, seed))
    recovered_dl = recovered_line_degree(presentation.h, len(factors))
    geometry = run("recover", lambda: recover_geometry(factors, inv.h))
    truth_x = np.vstack([ep.x for ep in truth.points])
    match = run("match", lambda: match_points(geometry.z_points, truth_x))
    if match.max_chordal > MATCH_TOL:
        raise StageError(
            "match", f"match: recovered points miss the ground truth "
            f"(max chordal {match.max_chordal:.3e} > {MATCH_TOL})")

    rng = np.random.default_rng(seed + 2 * 10**6)
    samples = _curve_samples(inv.h, CURVE_SAMPLES, rng)
    residual = _max_quadric_value(_veronese2(samples),
                                  geometry.quadric_basis)

    return RoundTripReport(
        h=inv.h,
        N=inv.N,
        seed=seed,
        max_chordal=match.max_chordal,
        mean_chordal=match.mean_chordal,
        quadric_dim=geometry.quadric_dim,
        residual_max=float(residual),
        point_residual_max=geometry.point_residual_max,
        recovered_dL=recovered_dl,
        dL_matches=recovered_dl == s.dL,
        min_confidence=float(min(f.confidence for f in factors)),
        stage_timings_ms=timings,
        status="ok",
    )

