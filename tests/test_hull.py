import numpy as np
import pytest

from conftest import brute_force_min_norm
from ridgeopt.hull import (AtomSet, MinNormCertificate, min_norm_point,
                           caratheodory_reduce)


class TestAtomSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            AtomSet(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            AtomSet([[1.0, np.inf]])

    def test_dedup_keeps_order(self):
        a = AtomSet([[3.0], [1.0], [3.0], [2.0]]).dedup()
        assert a.atoms.ravel().tolist() == [3.0, 1.0, 2.0]


class TestMinNormPoint:
    def test_symmetric_pair(self):
        cert = min_norm_point([[1.0], [-1.0]])
        assert cert.norm == 0.0
        assert np.allclose(cert.weights, [0.5, 0.5])

    def test_two_unit_vectors(self):
        cert = min_norm_point([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(cert.point, [0.5, 0.5])
        assert cert.norm == pytest.approx(np.sqrt(0.5))

    def test_triangle(self):
        cert = min_norm_point([[2.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
        assert np.allclose(cert.point, [1.5, 1.5])
        assert cert.norm ** 2 == pytest.approx(4.5)
        oracle = brute_force_min_norm(np.array([[2., 1.], [1., 2.], [3., 3.]]))
        assert abs(cert.norm - oracle) <= 1e-6

    def test_single_atom(self):
        cert = min_norm_point([[3.0, 4.0]])
        assert cert.norm == pytest.approx(5.0)
        assert cert.gap == pytest.approx(0.0)

    def test_duplicates_removed(self):
        cert = min_norm_point([[1.0], [1.0], [-1.0]])
        assert cert.atoms.shape[0] == 2
        assert cert.norm == 0.0

    def test_deterministic(self):
        rng = np.random.Generator(np.random.Philox(5))
        P = rng.normal(size=(6, 3))
        a = min_norm_point(P)
        b = min_norm_point(P)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.point, b.point)

    def test_matches_oracle_random(self):
        rng = np.random.Generator(np.random.Philox(11))
        for trial in range(60):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, 4))
            P = rng.normal(size=(n, p)) + rng.normal(size=(1, p))
            cert = min_norm_point(P)
            oracle = brute_force_min_norm(P, seed=trial)
            assert abs(cert.norm - oracle) <= 1e-4

    def test_scaling_equivariance(self):
        rng = np.random.Generator(np.random.Philox(13))
        for _ in range(20):
            P = rng.normal(size=(5, 2))
            c = 3.7
            cert = min_norm_point(P, tol=1e-9)
            cert_s = min_norm_point(c * P, tol=1e-9)
            assert np.allclose(cert_s.point, c * cert.point, atol=1e-9)
            ok = min_norm_point(P, tol=1e-9).norm <= 1e-9
            ok_s = min_norm_point(c * P, tol=c * 1e-9).norm <= c * 1e-9
            assert ok == ok_s

    def test_iteration_cap_flagged(self):
        rng = np.random.Generator(np.random.Philox(17))
        P = rng.normal(size=(8, 3)) + 2.0
        cert = min_norm_point(P, max_iter=1)
        assert not cert.converged
        assert cert.norm >= 0.0

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            min_norm_point([[1.0]], tol=0.0)


class TestCaratheodory:
    def test_collinear_reduction(self):
        atoms = np.array([[-2.0], [-1.0], [1.0], [2.0], [3.0]])
        w = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        point = w @ atoms
        cert = MinNormCertificate(atoms=atoms, weights=w, point=point,
                                  norm=float(np.linalg.norm(point)), gap=0.0)
        red = caratheodory_reduce(cert)
        assert np.count_nonzero(red.weights) <= 2
        assert np.allclose(red.point, point, atol=1e-12)

    def test_idempotent_when_small(self):
        cert = min_norm_point([[1.0, 0.0], [0.0, 1.0]])
        red = caratheodory_reduce(cert)
        assert np.allclose(red.weights, cert.weights)
        assert np.allclose(red.point, cert.point)

    def test_random_interior(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(50):
            P = rng.normal(size=(6, 2))
            w = rng.dirichlet(np.ones(6))
            point = w @ P
            cert = MinNormCertificate(atoms=P, weights=w, point=point,
                                      norm=float(np.linalg.norm(point)),
                                      gap=0.0)
            red = caratheodory_reduce(cert)
            assert np.count_nonzero(red.weights) <= 3
            assert np.linalg.norm(red.point - point) <= 1e-10
            assert red.norm <= cert.norm + 1e-10
            assert red.weights.min() >= 0.0
            assert red.weights.sum() == pytest.approx(1.0)


class TestHullContainsZero:
    def test_contains(self):
        cert = min_norm_point([[1.0], [-1.0]], 1e-9)
        assert cert.norm <= 1e-9

    def test_not_contains(self):
        cert = min_norm_point([[1.0], [3.0]], 1e-9)
        assert cert.norm > 1e-9
        assert cert.norm == pytest.approx(1.0)

    def test_v_block_pair(self):
        # the second-coordinate blocks of {(1,-2),(1,2)}: used by po_sample
        cert = min_norm_point([[-2.0], [2.0]], 1e-9)
        assert cert.norm <= 1e-9
        assert np.allclose(cert.weights, [0.5, 0.5])
