"""Synthetic infinitesimal period data for a general surface.

The derivative of the period map at a general surface is spanned by one
rank-1 tensor per ramification point a: the evaluation covector of the
canonical embedding at a, times a class attached to the fibre over a.  The
canonical embedding of the genus-0 base is the degree h-1 Veronese, so the
evaluation covectors are explicit monomial vectors.  The attached classes
are transcendental; they form an orthogonal frame, so this module models
them by a unitary frame drawn once per surface (from a digest of the exact
surface data, overridable), while the per-synthesis seed draws the unknown
scalar weights and a well-conditioned change of basis that hides the rank-1
structure.  Those rank-1 tensors are orthonormal, so a synthesized basis is
independent by construction and is not re-certified; any other basis is
certified when a presentation is made from it.  The recovery argument needs
only the frame's linear independence, and so does the extractor's
general-eigensolver path; its fast path uses the orthogonality, because a
unitary frame makes the pencil it diagonalizes normal, and it certifies
that normality before relying on it.  The spanned subspace of C^(h x N)
is then an invariant of the surface, not of the synthesis seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .binforms import ProjectivePointP1
from .errors import TorelliLabError, UsageError
from .linalg import _one_blas_thread
from .ramification import is_general, ramification_divisor
from .surfaces import (
    WeierstrassSurface,
    invariants,
    load_json,
    surface_to_json_dict,
)

LAMBDA_MIN = 0.1
LAMBDA_MAX = 10.0
MIXER_COND_MAX = 100.0
BASIS_INDEPENDENCE_TOL = 1e-10


class NonGenericSurfaceError(TorelliLabError):
    """The forward model needs a general surface with reduced ramification."""


class InvalidPresentationError(TorelliLabError):
    """Basis matrices fail the linear-independence contract."""


class MalformedPresentationError(UsageError, InvalidPresentationError):
    """Period data whose basis bytes do not fill the declared shape."""


def normalize_phase(x: np.ndarray) -> np.ndarray:
    """Unit norm with the first non-negligible entry rotated real-positive."""
    return normalize_phase_rows(np.reshape(x, (1, -1)))[0]


def normalize_phase_rows(m: np.ndarray) -> np.ndarray:
    """``normalize_phase`` applied to every row of a 2-D array."""
    m = np.asarray(m, dtype=complex)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize the zero vector")
    m = m / norms
    pivots = m[np.arange(len(m)), np.argmax(np.abs(m) > 1e-12, axis=1)]
    return m * (np.abs(pivots) / pivots)[:, None]


@dataclass(frozen=True)
class EmbeddedPoint:
    """A base point with its canonical-embedding image in P^(h-1)."""

    base_point: ProjectivePointP1
    x: np.ndarray


def canonical_point(a: ProjectivePointP1, h: int) -> EmbeddedPoint:
    """Degree h-1 Veronese image of a point of P^1, normalized.

    On the affine chart this is the direction (1, a, a^2, ..., a^(h-1));
    the homogeneous monomials extend it through a = infinity.
    """
    return canonical_points([a], h)[0]


def canonical_points(base_points, h: int) -> tuple:
    """``canonical_point`` of every point, from one array power and one
    row normalization."""
    if h < 3:
        raise UsageError("the canonical embedding needs h >= 3")
    z = np.array([(a.z0, a.z1) for a in base_points],
                 dtype=complex).reshape(-1, 2)
    k = np.arange(h)
    rows = normalize_phase_rows(z[:, :1] ** (h - 1 - k) * z[:, 1:] ** k)
    return tuple(EmbeddedPoint(base_point=a, x=x)
                 for a, x in zip(base_points, rows))


class IVHSPresentation:
    """An N-dimensional subspace of C^(h x N) given by a finite basis of
    matrices, independent to ``BASIS_INDEPENDENCE_TOL``.  The constructor
    proves that independence for any basis handed to it: a Cholesky
    factorization of the Gram matrix, its diagonal lowered by the rounding
    margins, certifies it, and an SVD decides what that cannot.
    ``synthesize`` proves it by construction instead and builds through
    ``_presentation_by_construction``, which checks shape and finiteness
    only."""

    __slots__ = ("h", "N", "basis")

    def __init__(self, h: int, N: int, basis):
        basis, peak = _finite_basis(h, N, basis)
        flat = basis.reshape(N, h * N)
        # The certificate, on F = flat scaled exactly by a power of 2 so that
        # G = fl(F F^H) cannot overflow and tr G stays far above underflow.
        # With u the unit roundoff and gamma_k = k u / (1 - k u):
        # - G.  Each entry is a complex inner product of length hN, which the
        #   BLAS forms as real ones of length 2hN in some order, so
        #   |G - F F^H| <= sqrt(2) gamma_(2hN) |F| |F|^T <= gamma_(3hN) |F| |F|^T
        #   entrywise (Higham, Accuracy and Stability of Numerical
        #   Algorithms, 2002, sections 3.1 and 3.6).  Reading ||F||_F^2 off
        #   the computed trace costs N more, so delta = gamma_((3h+1)N) tr G
        #   bounds both ||G - F F^H||_2 and ||F||_F^2 - tr G.  The bound is
        #   entrywise and symmetric, so it holds for the Hermitian matrix of
        #   G's lower triangle, the part LAPACK's Cholesky reads.
        # - Cholesky.  If it factors A = G - s I (s = t + c, subtracted in
        #   place), then R^H R = A + E with |E| <= gamma_(3N+3) |R^H| |R|:
        #   Higham's Theorem 10.3, with each complex inner product again a
        #   pair of real ones of twice the length.  Its diagonal gives
        #   ||R||_F^2 <= tr A / (1 - gamma_(3N+3)), and R^H R is positive
        #   definite, so lam_min(A) > -||E||_2 >= -c for
        #   c = gamma_k / (1 - gamma_k) tr G = k u tr G / (1 - 2 k u) with
        #   k = 3N + 6: the three beyond 3N + 3 cover, to first order in u,
        #   the rounding of the trace, of s and of the shifted diagonal
        #   (Rump, Verification of positive definiteness, BIT 46, 2006).
        #   Then lam_min(G) > t.
        # - Verdict.  By Weyl's inequality sigma_min(F)^2 >= lam_min(G) - delta
        #   > tol^2 (tr G + delta) >= tol^2 sigma_max(F)^2 for
        #   t = tol^2 (tr G + delta) + delta, which proves
        #   sigma_min > tol sigma_max.  A failed factorization proves nothing,
        #   and an SVD decides, on the transpose (LAPACK takes the tall layout
        #   about twice as fast).
        _, e = np.frexp(peak)
        scaled = flat * np.ldexp(1.0, min(-int(e), 1023))
        gram = scaled @ scaled.conj().T
        trace = np.trace(gram).real
        u, m, k = np.finfo(float).eps / 2, (3 * h + 1) * N, 3 * N + 6
        delta = m * u / (1 - m * u) * trace
        t = BASIS_INDEPENDENCE_TOL ** 2 * (trace + delta) + delta
        c = k * u / (1 - 2 * k * u) * trace
        gram.flat[::N + 1] -= t + c
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            sv = np.linalg.svd(flat.T, compute_uv=False)
            if sv[0] == 0.0 or sv[-1] <= BASIS_INDEPENDENCE_TOL * sv[0]:
                raise InvalidPresentationError(
                    "basis matrices are not numerically independent "
                    f"(sigma_min/sigma_max = {sv[-1] / max(sv[0], 1e-300):.2e})")
        _fill(self, h, N, basis)

    def __setattr__(self, name, value):
        raise AttributeError("IVHSPresentation is immutable")

    def flattened(self) -> np.ndarray:
        return self.basis.reshape(self.N, self.h * self.N)


def _finite_basis(h: int, N: int, basis):
    """The basis as a complex array of shape (N, h, N), and its largest
    |entry|, which must be finite."""
    if h < 1 or N < 1:
        raise InvalidPresentationError(
            f"a presentation needs h >= 1 and N >= 1, got {h} and {N}")
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (N, h, N):
        raise InvalidPresentationError(
            f"expected basis of shape {(N, h, N)}, got {basis.shape}")
    peak = np.max(np.abs(basis))
    if not np.isfinite(peak):
        raise InvalidPresentationError("basis contains NaN or Inf")
    return basis, peak


def _fill(p: IVHSPresentation, h: int, N: int, basis: np.ndarray) -> None:
    object.__setattr__(p, "h", int(h))
    object.__setattr__(p, "N", int(N))
    object.__setattr__(p, "basis", basis)


def _presentation_by_construction(h: int, N: int, basis) -> IVHSPresentation:
    """A presentation whose independence its builder has proved, as
    ``synthesize`` does; shape and finiteness are still checked."""
    basis, _ = _finite_basis(h, N, basis)
    p = object.__new__(IVHSPresentation)
    _fill(p, h, N, basis)
    return p


@dataclass(frozen=True)
class GroundTruth:
    points: tuple          # EmbeddedPoint per ramification point
    lambdas: np.ndarray
    y_frame: np.ndarray    # unitary; column k models the class at point k
    mixer: np.ndarray


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _surface_frame_seed(s: WeierstrassSurface) -> int:
    digest = hashlib.sha256(
        json.dumps(surface_to_json_dict(s), sort_keys=True).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@_one_blas_thread
def synthesize(s: WeierstrassSurface, seed: int, frame_seed=None):
    """Forward model: (presentation, ground truth) for a general surface.

    The unitary frame is drawn from ``frame_seed`` when given, otherwise
    from a digest of the exact surface data, so that by default the spanned
    subspace depends only on the surface.  The scalar weights (magnitudes
    in [``LAMBDA_MIN``, ``LAMBDA_MAX``], random phases) and the hiding basis
    change are drawn from ``seed``.  The change of basis is the mixer
    Sigma V^H: one Haar unitary V with its rows scaled by singular values
    graded from 1 to 1/cond, cond <= ``MIXER_COND_MAX``.  A left unitary
    factor would change neither the spanned subspace nor the pencil that
    extraction diagonalizes, so none is drawn.  The basis is independent by
    construction, so the presentation is built without the constructor's
    Gram certificate.
    """
    report = is_general(s)
    if not report:
        raise NonGenericSurfaceError(
            "surface is not general: failing clauses "
            f"{list(report.failed_clauses)}")
    # clause (b) makes W's divisor reduced, and the degree law that
    # ramification_divisor checks then gives it N points
    inv = invariants(s)
    h, N = inv.h, inv.N
    ram = ramification_divisor(s)
    points = canonical_points([p for p, _ in ram.divisor], h)
    X = np.column_stack([ep.x for ep in points])

    fs = _surface_frame_seed(s) if frame_seed is None else int(frame_seed)
    y_frame = haar_unitary(np.random.default_rng(fs), N)

    rng = np.random.default_rng(seed)
    mags = np.exp(rng.uniform(np.log(LAMBDA_MIN), np.log(LAMBDA_MAX), size=N))
    lambdas = mags * np.exp(2j * np.pi * rng.uniform(size=N))
    cond = np.exp(rng.uniform(0.0, np.log(MIXER_COND_MAX)))
    svals = np.exp(np.linspace(0.0, -np.log(cond), N))
    mixer = svals[:, None] * haar_unitary(rng, N).conj().T

    # basis[j, i, a] = sum_k mixer[j, k] lambdas[k] X[i, k] y_frame[a, k]
    weighted = (mixer * lambdas)[:, None, :] * X
    basis = (weighted.reshape(N * h, N) @ y_frame.T).reshape(N, h, N)
    # Independence by construction, in place of the constructor's
    # certificate.  Flattened, the basis is B = (mixer Lambda) K^T, where K
    # (hN x N) has the columns x_k (x) y_k.  With u the unit roundoff,
    # gamma_k = k u / (1 - k u), and gamma~_k the same with a small constant
    # c times k:
    # - Khatri-Rao.  K^H K = (X^H X) o (Y^H Y), the entrywise product (Kolda
    #   and Bader, SIAM Review 51, 2009, section 2.6).  With Y unitary and
    #   unit columns x_k this is the identity, so B has exactly the singular
    #   values of mixer Lambda, whose ratio sigma_min/sigma_max is at least
    #   1 / (MIXER_COND_MAX LAMBDA_MAX / LAMBDA_MIN) = 1e-4.
    # - The computed Y, V and x_k.  Householder QR gives Q + E with Q
    #   unitary and ||E||_F <= sqrt(N) gamma~_(N^2) (Higham, Accuracy and
    #   Stability of Numerical Algorithms, 2002, section 19.3), and the unit
    #   phases add O(u) per column, so ||Y^H Y - I||_2 <= e = O(N^(5/2) u);
    #   the mixer's singular values are svals within a factor 1 +- e as
    #   well.  |x_k^H x_k - 1| <= gamma~_h.  K^H K - I is
    #   (X^H X) o (Y^H Y - I) plus diag(|x_k|^2 - 1), and for positive
    #   semidefinite X^H X Schur's bound ||A o F||_2 <= max_k a_kk ||F||_2
    #   (Horn and Johnson, Topics in Matrix Analysis, 1991, Theorem 5.5.18)
    #   gives ||K^H K - I||_2 <= eta = gamma~_h + (1 + gamma~_h) e.  So the
    #   singular values of (mixer Lambda) K^T lie within a factor
    #   [sqrt(1 - eta), sqrt(1 + eta)] of those of mixer Lambda.
    # - The product.  Two complex products per entry of `weighted`, then an
    #   inner product of length N: |fl(B) - B| <= gamma_(3N+6) |W| |Y^T|
    #   entrywise, and ||W||_F = ||mixer Lambda||_F <= sqrt(N) sigma_max, so
    #   ||fl(B) - B||_2 <= d sigma_max with d = N gamma_(3N+6).
    # By Weyl's inequality the computed basis has sigma_min/sigma_max >=
    # 1e-4 (1 - 2 eta - 1e4 d) to first order, that is
    # 1e-4 (1 - O(N^(5/2) u)).  At N = 88, 1e4 d = 2.6e-8 and
    # eta = 1.6e-11 c, so even c = 100 keeps the loss below 1e-7 relative:
    # the ratio stays about six orders of magnitude above
    # BASIS_INDEPENDENCE_TOL = 1e-10.  Measured, the singular values agree
    # with those of mixer Lambda to about 1e-15.
    presentation = _presentation_by_construction(h, N, basis)
    truth = GroundTruth(points=points, lambdas=lambdas,
                        y_frame=y_frame, mixer=mixer)
    return presentation, truth


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _cplx(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_json(m: np.ndarray) -> list:
    return [[_cplx(z) for z in row] for row in np.asarray(m)]


BASIS_FORMAT = "one hex string of (N, h, N) little-endian complex128 bytes"


def presentation_to_json_dict(p: IVHSPresentation) -> dict:
    return {
        "h": p.h,
        "N": p.N,
        "basis": np.ascontiguousarray(p.basis, "<c16").tobytes().hex(),
    }


@_one_blas_thread
def presentation_from_json_dict(data: dict) -> IVHSPresentation:
    try:
        h, n = data["h"], data["N"]
        raw = bytes.fromhex(data["basis"])
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed presentation data, whose basis must be "
                         f"{BASIS_FORMAT}: {exc}") from exc
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (h, n)):
        raise MalformedPresentationError(
            f"malformed presentation data: h and N must be JSON integers, "
            f"got h = {h!r}, N = {n!r} (the basis is {BASIS_FORMAT})")
    if min(h, n) < 1 or len(raw) != 16 * n * h * n:
        raise MalformedPresentationError(
            f"malformed presentation data: {len(raw)} basis bytes for h = {h},"
            f" N = {n}, but {BASIS_FORMAT} needs h, N >= 1 and 16*N*h*N bytes")
    return IVHSPresentation(h, n, np.frombuffer(raw, "<c16").reshape(n, h, n))


def truth_to_json_dict(t: GroundTruth) -> dict:
    return {
        "points": [{"base": ep.base_point.to_json(),
                    "x": [_cplx(z) for z in ep.x]} for ep in t.points],
        "lambdas": [_cplx(z) for z in t.lambdas],
        "y_frame": _matrix_json(t.y_frame),
        "mixer": _matrix_json(t.mixer),
    }


def load_presentation(path) -> IVHSPresentation:
    return presentation_from_json_dict(load_json(path))
