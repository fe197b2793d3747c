"""Accuracy contracts of the dense complex kernel."""

import numpy as np
import pytest

from torelli_lab.linalg import as_cmatrix, eig_general, nullspace


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def eigpair_residuals(a, res):
    """||A v - lambda v|| of every returned eigenpair."""
    return np.linalg.norm(a @ res.vectors - res.vectors * res.values, axis=0)


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


def test_eig_examples():
    res = eig_general(np.diag([2.0, 5.0]))
    assert sorted(res.values.real) == pytest.approx([2.0, 5.0])
    assert not res.defective
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    jordan = eig_general(a)
    assert np.allclose(jordan.values, 0.0)
    assert jordan.defective
    assert np.all(eigpair_residuals(a, jordan) <= 1e-8)


def test_eig_flags_a_near_defective_diagonalizable_frame():
    # distinct eigenvalues 1 and 1 + 1e-12, eigenvectors (1, 0) and nearly
    # (1, 1e-12): diagonalizable, with kappa_2 of the unit frame about 2e12
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]])
    res = eig_general(a)
    assert res.values[0] != res.values[1]
    assert 1.5e12 < np.linalg.cond(res.vectors) < 2.5e12
    assert res.defective


def test_eig_returns_the_dual_frame():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 9, 9)
    res = eig_general(a)
    assert not res.defective
    expected = np.linalg.solve(res.vectors.T, np.eye(9, dtype=complex))
    assert np.array_equal(res.dual, expected)
    assert np.allclose(res.vectors.T @ res.dual, np.eye(9), atol=1e-12)


def test_eig_recovers_separated_spectra():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        lam = rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n)
        while np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(n) * 1e9) < 1e-3:
            lam = rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n)
        p = random_complex(rng, n, n)
        a = p @ np.diag(lam) @ np.linalg.inv(p)
        res = eig_general(a)
        scale = max(1.0, float(np.max(np.abs(lam))))
        got = sorted(res.values, key=lambda z: (z.real, z.imag))
        want = sorted(lam, key=lambda z: (z.real, z.imag))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8 * scale
        norm = np.linalg.norm(a, 2)
        assert np.all(eigpair_residuals(a, res) <= 1e-8 * max(norm, 1.0))
