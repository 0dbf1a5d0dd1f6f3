"""Tests for the randomized property suites."""

import numpy as np
import pytest

from loewner import (
    MatrixTuple,
    PencilRealization,
    SingularPivotComplement,
    SuiteConfig,
    build_realization,
    cauchy_atom,
    check_concave,
    check_free_axioms,
    check_herglotz,
    check_hypograph_saturation,
    check_jensen_isometry,
    check_monotone,
    check_monotone_scalar,
    comat_decompose,
    eval_complex,
    random_commuting_tuple,
    random_pd,
    reconstruct_hull_certificate,
    weighted_arithmetic,
    weighted_harmonic,
)
from loewner.numlin import operator_norm
from loewner.verify import _disjoint_support_isometry


IDENTITY = build_realization("identity")
HARMONIC = weighted_harmonic([0.4, 0.6])
CAUCHY = cauchy_atom(1.0)


class TestFreeAxioms:
    def test_identity_realization_tight(self):
        cfg = SuiteConfig(dims=(2, 3), trials=20, seed=1, tol=1e-12)
        report = check_free_axioms(IDENTITY, cfg)
        assert report.passed and report.failures == 0

    def test_harmonic_realization(self):
        cfg = SuiteConfig(dims=(2, 4), trials=20, seed=2, tol=1e-10)
        report = check_free_axioms(HARMONIC, cfg)
        assert report.passed

    def test_report_shape(self):
        cfg = SuiteConfig(dims=(2,), trials=5, seed=3, tol=1e-10)
        report = check_free_axioms(CAUCHY, cfg)
        assert report.suite == "axioms"
        assert report.trials == 5 and report.dims == (2,)
        assert report.worst_violation <= 0.0


class TestMonotone:
    def test_arithmetic_mean_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=4, tol=1e-10)
        assert check_monotone(weighted_arithmetic([0.5, 0.5]), cfg).passed

    def test_cauchy_atom_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=5, tol=1e-8)
        assert check_monotone(CAUCHY, cfg).passed

    def test_square_negative_control_fails(self):
        cfg = SuiteConfig(dims=(2, 3), trials=100, seed=6, tol=1e-8)
        report = check_monotone_scalar(lambda x: x ** 2, cfg)
        assert not report.passed
        assert report.failures > 0
        assert report.worst_violation < -1e-3
        assert report.first_failure_seed is not None

    def test_sqrt_scalar_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=50, seed=7, tol=1e-8)
        assert check_monotone_scalar(np.sqrt, cfg).passed


class TestConcaveJensen:
    def test_harmonic_concave(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=8, tol=1e-8)
        assert check_concave(HARMONIC, cfg).passed

    def test_harmonic_jensen(self):
        cfg = SuiteConfig(dims=(3, 5), trials=30, seed=9, tol=1e-8)
        assert check_jensen_isometry(HARMONIC, cfg).passed

    def test_cauchy_jensen(self):
        cfg = SuiteConfig(dims=(4,), trials=30, seed=10, tol=1e-8)
        assert check_jensen_isometry(CAUCHY, cfg).passed

    def test_averaging_block_isometry_reduces_to_midpoint_concavity(self):
        # W = (sqrt(1/2) I, sqrt(1/2) I)^T compresses X (+) Y to the midpoint
        from loewner import eval_pencil
        from loewner.numlin import tuple_compress, tuple_direct_sum
        rng = np.random.default_rng(20)
        w = np.vstack([np.sqrt(0.5) * np.eye(3), np.sqrt(0.5) * np.eye(3)])
        for _ in range(10):
            x = MatrixTuple((random_pd(3, (0.1, 10), rng),))
            y = MatrixTuple((random_pd(3, (0.1, 10), rng),))
            stacked = tuple_direct_sum(x, y)
            mid = tuple_compress(stacked, w)
            np.testing.assert_allclose(
                mid.items[0].entries,
                (x.items[0].entries + y.items[0].entries) / 2, atol=1e-12)
            lhs = eval_pencil(CAUCHY, mid).entries
            fs = eval_pencil(CAUCHY, stacked).entries
            rhs = w.T @ fs @ w
            assert np.linalg.eigvalsh(lhs - rhs)[0] >= -1e-10


class TestHypograph:
    def test_sqrt_passes(self):
        cfg = SuiteConfig(dims=(4,), trials=500, seed=11, tol=1e-8)
        assert check_hypograph_saturation(np.sqrt, cfg).passed

    def test_square_fails(self):
        cfg = SuiteConfig(dims=(4,), trials=200, seed=12, tol=1e-8)
        report = check_hypograph_saturation(lambda x: x ** 2, cfg)
        assert not report.passed and report.worst_violation < -1e-3

    def test_two_variable_sum_passes(self):
        cfg = SuiteConfig(dims=(4,), trials=50, seed=13, tol=1e-8)
        report = check_hypograph_saturation(lambda a, b: a + b, cfg, k=2)
        assert report.passed

    def test_disjoint_support_isometry_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = _disjoint_support_isometry(6, 3, rng)
            np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-14)
            # disjoint supports: compressions of diagonals stay diagonal
            d = np.diag(rng.uniform(1, 2, 6))
            c = v.T @ d @ v
            assert operator_norm(c - np.diag(np.diag(c))) == 0.0


class TestComatDecompose:
    def test_scalar_multiple_of_identity(self):
        x = MatrixTuple((2.5 * np.eye(3),))
        cert = comat_decompose(x)
        assert len(cert.block_dims) == 1 and cert.block_dims[0] == 3
        assert cert.isometry.shape == (3, 3)
        np.testing.assert_allclose(cert.isometry.T @ cert.isometry, np.eye(3),
                                   atol=1e-12)

    def test_diagonal_spectral_certificate(self):
        x = MatrixTuple((np.diag([1.0, 2.0]),))
        cert = comat_decompose(x)
        assert sorted(float(s[0]) for s in cert.scalar_tuples) == [1.0, 2.0]
        rebuilt = reconstruct_hull_certificate(cert)
        np.testing.assert_allclose(rebuilt[0], np.diag([1.0, 2.0]), atol=1e-12)

    def test_commuting_pair_reconstruction(self):
        x = random_commuting_tuple(2, 4, (0.5, 4), 3)
        cert = comat_decompose(x)
        v = cert.isometry
        assert operator_norm(v.T @ v - np.eye(4)) <= 1e-12
        rebuilt = reconstruct_hull_certificate(cert)
        for got, xi in zip(rebuilt, x.items):
            assert operator_norm(got - xi.entries) <= 1e-10 * max(1, xi.norm)
        assert np.all(cert.scalar_tuples >= cert.base_level / 2)

    def test_general_noncommuting_tuple(self):
        x = MatrixTuple((random_pd(3, (0.5, 3), 1), random_pd(3, (0.5, 3), 2),
                         random_pd(3, (0.5, 3), 3)))
        cert = comat_decompose(x)
        rebuilt = reconstruct_hull_certificate(cert)
        for got, xi in zip(rebuilt, x.items):
            assert operator_norm(got - xi.entries) <= 1e-10 * max(1, xi.norm)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            comat_decompose(MatrixTuple((np.diag([1.0, 0.0]),)))


class TestHerglotz:
    def test_identity_and_harmonic(self):
        cfg = SuiteConfig(dims=(2, 3), trials=20, seed=14, tol=1e-10)
        assert check_herglotz(IDENTITY, cfg).passed
        assert check_herglotz(HARMONIC, cfg).passed

    def test_quadrature_realization(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=15, tol=1e-8)
        r = build_realization("power:0.5", n_nodes=32)
        report = check_herglotz(r, cfg)
        assert report.passed
        assert report.extras["max_conjugate_asymmetry"] <= 1e-10

    def test_asymmetry_above_sym_tol_fails_every_trial(self):
        cfg = SuiteConfig(dims=(2, 3), trials=10, seed=3)
        r = build_realization("cauchy:2")
        ok = check_herglotz(r, cfg)
        bad = check_herglotz(r, cfg, sym_tol=-1.0)
        assert ok.passed and not bad.passed
        assert bad.failures == cfg.trials * len(cfg.dims)
        # the asymmetry check fails a trial without changing its violation
        assert bad.worst_violation == ok.worst_violation
        assert bad.first_failure_seed == 3 * 1_000_000 + 2 * 10_000
        assert bad.extras == {"max_conjugate_asymmetry": ok.extras["max_conjugate_asymmetry"],
                              "sym_tol": -1.0}

    def test_singular_pivot_counts_as_failure(self):
        # the auxiliary block of A0 (x) I + A1 (x) X is zero: a singular pivot
        r = PencilRealization(np.array([1.0, 0.0]), np.zeros((2, 2)),
                              (np.diag([1.0, 0.0]),))
        with pytest.raises(SingularPivotComplement):
            eval_complex(r, [np.eye(2) + 1j * np.eye(2)])
        cfg = SuiteConfig(dims=(2, 3), trials=10, seed=3)
        report = check_herglotz(r, cfg)
        assert report.failures == cfg.trials * len(cfg.dims) and report.skipped == 0
        assert report.worst_violation == -1.0
        assert report.first_failure_seed == 3_020_000


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg = SuiteConfig(dims=(2, 3), trials=15, seed=42, tol=1e-8)
        r1 = check_monotone(CAUCHY, cfg)
        r2 = check_monotone(CAUCHY, cfg)
        assert r1 == r2

    def test_seed_changes_report(self):
        cfg_a = SuiteConfig(dims=(3,), trials=15, seed=1, tol=1e-8)
        cfg_b = SuiteConfig(dims=(3,), trials=15, seed=2, tol=1e-8)
        assert (check_monotone(CAUCHY, cfg_a).worst_violation
                != check_monotone(CAUCHY, cfg_b).worst_violation)


class TestReportInvariants:
    def test_pass_iff_zero_failures(self):
        from loewner import VerificationReport
        with pytest.raises(ValueError):
            VerificationReport(suite="x", dims=(2,), trials=1, failures=1,
                               skipped=0, worst_violation=-1.0,
                               first_failure_seed=0, seed=0, tol=1e-8,
                               passed=True)
