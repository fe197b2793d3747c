"""Dense complex linear algebra used by the recovery pipeline.

Thin contract-bearing wrappers over LAPACK via numpy: the guarantees are
an accuracy bound on the nullspace and unit eigenvectors for the
eigenpairs of a general matrix, not specific algorithms.  The extractor
calls ``eig_general`` only for pencils that fail its normality
certificate; a normal pencil is diagonalized in ``recovery`` from
``numpy.linalg.eigh``, and ``recovery`` alone decides whether either
frame is good enough.  Matrices are plain 2-D complex ndarrays;
validation rejects non-finite entries.

The numeric entry points of ``ivhs`` and ``recovery`` run under
``_one_blas_thread``: numpy's bundled OpenBLAS is held to one thread for
the call and the caller's count is restored on exit.  Their matrices (at
most 88 x 88, or 88 slices of 88 x 8) are too small to gain from a second
thread, and on a 2-core machine each call pays for waking it.  The library
is looked up on the first such call, not at import; without a bundled
scipy-openblas the decorator does nothing.  The results are bit-for-bit
those of the default thread count.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TorelliLabError

_blas_threads = None     # (get, set) of the bundled OpenBLAS, () when absent


def _find_blas_threads():
    """The thread-count (get, set) functions of the scipy-openblas bundled
    with numpy, or () when there is none."""
    import ctypes
    from pathlib import Path

    libs = sorted(Path(np.__file__).parent.parent.glob(
        "numpy.libs/libscipy_openblas64_*.so"))
    if not libs:
        return ()
    lib = ctypes.CDLL(str(libs[0]))
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_ = lib.scipy_openblas_set_num_threads64_
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _one_blas_thread(fn):
    """Run ``fn`` with the bundled OpenBLAS on one thread and restore the
    caller's count on exit, also when ``fn`` raises."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _blas_threads
        if _blas_threads is None:
            _blas_threads = _find_blas_threads()
        if not _blas_threads:
            return fn(*args, **kwargs)
        get, set_ = _blas_threads
        before = get()
        set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_(before)

    return wrapper


class EigenConvergenceError(TorelliLabError):
    """Eigeniteration did not converge."""


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and coerce to a finite dense complex 2-D array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def nullspace(a, rel_tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the right singular directions with
    singular value <= rel_tol * sigma_max; shape (cols, k), k possibly 0."""
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    m = as_cmatrix(a)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(m.shape[1], dtype=complex)
    ns = [vh[i].conj() for i in range(m.shape[1])
          if i >= s.size or s[i] <= rel_tol * smax]
    if not ns:
        return np.empty((m.shape[1], 0), dtype=complex)
    return np.column_stack(ns)


def eig_general(a):
    """(values, vectors) of a general square complex matrix: the eigenvalues
    and the unit eigenvectors that ``numpy.linalg.eig`` returns, vectors[:, k]
    pairing values[k].  Whether the frame is well conditioned is for the
    caller to decide."""
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eig_general needs a square matrix")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return values, vectors
