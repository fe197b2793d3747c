"""Accuracy contracts of the dense complex kernel, and the one-thread
scope of the numeric entry points."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torelli_lab
from torelli_lab import ivhs, linalg, recovery
from torelli_lab.linalg import as_cmatrix, eig_general, nullspace
from torelli_lab.recovery import StageError
from torelli_lab.surfaces import make_random_general


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def eigpair_residuals(a, values, vectors):
    """||A v - lambda v|| of every returned eigenpair."""
    return np.linalg.norm(a @ vectors - vectors * values, axis=0)


def test_construction_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[np.inf, 1.0]]))


def test_nullspace_examples():
    ns = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]), 1e-8)
    assert ns.shape == (2, 1)
    direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(ns[:, 0], direction)) - 1.0) < 1e-12
    assert nullspace(np.eye(4), 1e-8).shape == (4, 0)
    assert nullspace(np.zeros((2, 3)), 1e-8).shape == (3, 3)


def test_nullspace_rel_tol_validation():
    with pytest.raises(ValueError):
        nullspace(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        nullspace(np.eye(2), 1.5)


def test_nullspace_residual_bound():
    rng = np.random.default_rng(1)
    for _ in range(25):
        rows, cols, rank = 20, 12, 7
        a = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
        ns = nullspace(a, 1e-8)
        assert ns.shape[1] == cols - rank
        smax = np.linalg.norm(a, 2)
        for j in range(ns.shape[1]):
            assert np.linalg.norm(a @ ns[:, j]) <= 10 * 1e-8 * smax


def test_nullspace_of_a_tall_matrix_skips_u_bit_for_bit(monkeypatch):
    # the recovery's Veronese rows are tall (88 x 36 at h = 8): the reduced
    # SVD there gives the same vh to the last bit as the full one
    rng = np.random.default_rng(5)
    svd = np.linalg.svd
    for rows, cols, rank in [(88, 36, 30), (40, 12, 12), (12, 12, 7)]:
        a = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
        reduced = nullspace(a, 1e-8)
        monkeypatch.setattr(np.linalg, "svd", lambda m, full_matrices:
                            svd(m, full_matrices=True))
        full = nullspace(a, 1e-8)
        monkeypatch.undo()
        assert reduced.shape == (cols, cols - rank)
        assert np.array_equal(reduced.view(np.uint64), full.view(np.uint64))


def test_nullspace_of_a_wide_matrix_has_the_full_dimension():
    rng = np.random.default_rng(6)
    for rows, cols, rank in [(5, 12, 5), (5, 12, 3), (1, 4, 1)]:
        a = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
        ns = nullspace(a, 1e-8)
        assert ns.shape == (cols, cols - rank)
        assert np.allclose(ns.conj().T @ ns, np.eye(cols - rank), atol=1e-12)
        assert np.linalg.norm(a @ ns) <= 1e-12 * np.linalg.norm(a, 2)


def test_eig_examples():
    values, vectors = eig_general(np.diag([2.0, 5.0]))
    assert sorted(values.real) == pytest.approx([2.0, 5.0])
    assert np.allclose(np.abs(vectors), np.eye(2)[:, np.argsort(values.real)])
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    values, vectors = eig_general(a)
    assert np.allclose(values, 0.0)
    assert np.all(eigpair_residuals(a, values, vectors) <= 1e-8)
    # a Jordan block has one eigenvector: the unit frame is (nearly)
    # singular, which is for the caller to judge
    assert abs(np.linalg.det(vectors)) < 1e-8


def test_eig_returns_a_near_defective_frame_as_it_is():
    # distinct eigenvalues 1 and 1 + 1e-12, eigenvectors (1, 0) and nearly
    # (1, 1e-12): diagonalizable, with kappa_2 of the unit frame about 2e12
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]])
    values, vectors = eig_general(a)
    assert values[0] != values[1]
    assert 1.5e12 < np.linalg.cond(vectors) < 2.5e12


def test_eig_returns_unit_eigenvectors():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 9, 9)
    values, vectors = eig_general(a)
    assert values.shape == (9,) and vectors.shape == (9, 9)
    assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-14)
    assert np.all(eigpair_residuals(a, values, vectors)
                  <= 1e-12 * np.linalg.norm(a, 2))
    with pytest.raises(ValueError, match="square"):
        eig_general(random_complex(rng, 3, 4))


def test_eig_recovers_separated_spectra():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        lam = rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n)
        while np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(n) * 1e9) < 1e-3:
            lam = rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n)
        p = random_complex(rng, n, n)
        a = p @ np.diag(lam) @ np.linalg.inv(p)
        values, vectors = eig_general(a)
        scale = max(1.0, float(np.max(np.abs(lam))))
        got = sorted(values, key=lambda z: (z.real, z.imag))
        want = sorted(lam, key=lambda z: (z.real, z.imag))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8 * scale
        norm = np.linalg.norm(a, 2)
        assert np.all(eigpair_residuals(a, values, vectors)
                      <= 1e-8 * max(norm, 1.0))


# ---------------------------------------------------------------------------
# the numeric entry points run with the bundled OpenBLAS on one thread
# ---------------------------------------------------------------------------

CALLER_THREADS = 3      # neither 1 nor the default, so a restore shows
SPIED = ("eig", "eigvals", "eigvalsh", "cholesky", "svd", "solve", "qr",
         "norm")


@pytest.fixture
def blas_seen(monkeypatch):
    """``(get, seen)``: the bundled OpenBLAS thread count, set to
    CALLER_THREADS for the test, and the counts read at every call of the
    ``np.linalg`` functions in SPIED."""
    found = linalg._find_blas_threads()
    if not found:
        pytest.skip("numpy has no bundled scipy-openblas")
    get, set_ = found
    seen = []
    for name in SPIED:
        def spy(*args, _original=getattr(np.linalg, name), **kwargs):
            seen.append(get())
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    before = get()
    set_(CALLER_THREADS)
    yield get, seen
    set_(before)


@pytest.fixture(scope="module")
def entry_point_calls():
    """A call of each decorated entry point on an h = 3 surface."""
    s = make_random_general(3, seed=1)
    pres, truth = ivhs.synthesize(s, 1)
    data = ivhs.presentation_to_json_dict(pres)
    factors = recovery.extract_rank_ones(pres, 1)
    geometry = recovery.recover_geometry(factors, 3)
    truth_x = np.vstack([ep.x for ep in truth.points])
    return {
        "synthesize": lambda: ivhs.synthesize(s, 2),
        "presentation_from_json_dict":
            lambda: ivhs.presentation_from_json_dict(data),
        "extract_rank_ones": lambda: recovery.extract_rank_ones(pres, 2),
        "recover_geometry": lambda: recovery.recover_geometry(factors, 3),
        "match_points":
            lambda: recovery.match_points(geometry.z_points, truth_x),
    }


ENTRY_POINTS = ("synthesize", "presentation_from_json_dict",
                "extract_rank_ones", "recover_geometry", "match_points")


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_runs_on_one_blas_thread(name, entry_point_calls,
                                             blas_seen):
    get, seen = blas_seen
    entry_point_calls[name]()
    assert seen and set(seen) == {1}
    assert get() == CALLER_THREADS


def test_the_count_is_restored_after_a_raise(blas_seen):
    get, seen = blas_seen
    with pytest.raises(StageError):
        recovery.roundtrip(make_random_general(3, seed=5), seed=5,
                           corrupt_span=True)
    assert 1 in seen
    assert get() == CALLER_THREADS


def test_the_count_is_restored_after_nested_calls(blas_seen):
    # roundtrip itself is not scoped: it calls synthesize, extraction,
    # interpolation and matching, each of which is
    get, seen = blas_seen
    assert recovery.roundtrip(make_random_general(3, seed=1), 1).status == "ok"
    assert 1 in seen
    assert get() == CALLER_THREADS

    @linalg._one_blas_thread
    def inner():
        return get()

    @linalg._one_blas_thread
    def outer():
        return inner(), get()

    assert outer() == (1, 1)
    assert get() == CALLER_THREADS


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_without_the_library_the_entry_points_run_unchanged(
        name, entry_point_calls, blas_seen, monkeypatch):
    get, seen = blas_seen
    monkeypatch.setattr(linalg, "_blas_threads", ())
    entry_point_calls[name]()
    assert seen and set(seen) == {CALLER_THREADS}
    assert get() == CALLER_THREADS


FRESH_VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import torelli_lab
from torelli_lab import linalg, plumbing, recovery
report = plumbing.verification_report(trials=1)
print(report["status"], linalg._blas_threads is None)
recovery.match_points(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
print(linalg._blas_threads is None)
"""


def test_import_and_a_verifier_trial_never_look_up_the_library():
    # the set-up of the benchmark's verify workload; the positive control
    # shows that a scoped call does the lookup
    src = str(Path(torelli_lab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FRESH_VERIFY, src],
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == ["ok", "True", "False"]
