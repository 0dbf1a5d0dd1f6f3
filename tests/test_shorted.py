"""Tests for the shorted operator and its variational oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import (
    NotPositiveSemidefinite,
    RangeConditionViolation,
    SingularPivotComplement,
    SymMatrix,
    block_schur_general,
    loewner_leq,
    random_pd,
    shorted_operator,
    variational_infimum,
)
from loewner.numlin import operator_norm


def random_psd(n, rng, rank=None):
    """Random PSD matrix, optionally rank deficient."""
    r = rank if rank is not None else n
    g = rng.standard_normal((n, r))
    return g @ g.T


class TestShortedExamples:
    def test_identity_block_diagonal(self):
        for s in (1, 2, 3):
            res = shorted_operator(np.eye(4), s)
            np.testing.assert_allclose(res.s_short.entries, np.eye(s), atol=1e-14)

    def test_two_by_two_scalar_formula(self):
        res = shorted_operator(np.array([[2.0, 1.0], [1.0, 1.0]]), 1)
        np.testing.assert_allclose(res.s_short.entries, [[1.0]], atol=1e-14)
        assert res.rank_used == 1

    def test_full_pivot_returns_input(self):
        z = random_pd(3, (0.5, 2), 0)
        res = shorted_operator(z, 3)
        np.testing.assert_array_equal(res.s_short.entries, z.entries)
        assert res.rank_used == 0

    def test_c_factor_reproduces_coupling_block(self):
        rng = np.random.default_rng(5)
        z = random_psd(6, rng)
        res = shorted_operator(z, 2)
        lam, u = np.linalg.eigh(z[2:, 2:])
        root = u @ np.diag(np.sqrt(np.clip(lam, 0, None))) @ u.T
        # Z21 = Z22^(1/2) C
        np.testing.assert_allclose(root @ res.c_factor, z[2:, :2],
                                   atol=1e-10 * operator_norm(z))


class TestVariationalOracle:
    def test_identity_unit_vector(self):
        v = np.array([1.0, 0.0])
        assert abs(variational_infimum(np.eye(4), v) - 1.0) < 1e-14

    def test_two_by_two_calculus(self):
        # minimizer w = -1 gives value 1
        val = variational_infimum(np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([1.0]))
        assert abs(val - 1.0) < 1e-14

    def test_never_exceeds_head_block(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            z = random_psd(7, rng)
            v = rng.standard_normal(3)
            val = variational_infimum(z, v)
            assert val <= v @ z[:3, :3] @ v + 1e-10 * operator_norm(z)

    def test_agreement_with_shorted_operator(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            rank = 8 if trial % 3 else 5
            z = random_psd(8, rng, rank=rank)
            res = shorted_operator(z, 4)
            for _ in range(5):
                v = rng.standard_normal(4)
                v /= np.linalg.norm(v)
                quad = float(v @ res.s_short.entries @ v)
                assert abs(quad - variational_infimum(z, v)) <= 1e-8 * operator_norm(z)


class TestShortedInvariants:
    def test_domination(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = random_psd(6, rng)
            res = shorted_operator(z, 3)
            embedded = np.zeros_like(z)
            embedded[:3, :3] = res.s_short.entries
            assert loewner_leq(embedded, z, tol=1e-9)

    def test_monotone_in_loewner_order(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            z = random_psd(6, rng)
            zp = z + random_psd(6, rng)
            s1 = shorted_operator(z, 3).s_short.entries
            s2 = shorted_operator(zp, 3).s_short.entries
            scale = max(1.0, operator_norm(zp))
            assert np.linalg.eigvalsh(s2 - s1)[0] >= -1e-9 * scale

    def test_congruence_covariance_on_pivot(self):
        rng = np.random.default_rng(6)
        z = random_psd(7, rng)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot = np.eye(7)
        rot[:3, :3] = q
        s_rot = shorted_operator(rot.T @ z @ rot, 3).s_short.entries
        s = shorted_operator(z, 3).s_short.entries
        np.testing.assert_allclose(s_rot, q.T @ s @ q, atol=1e-10 * operator_norm(z))

    def test_idempotent_across_nested_pivots(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = random_psd(8, rng)
            inner = shorted_operator(z, 5).s_short
            nested = shorted_operator(inner, 2).s_short.entries
            direct = shorted_operator(z, 2).s_short.entries
            assert operator_norm(nested - direct) <= 1e-8 * max(1, operator_norm(z))


class TestShortedErrors:
    def test_rejects_non_psd(self):
        with pytest.raises(NotPositiveSemidefinite):
            shorted_operator(np.diag([1.0, -1.0]), 1)

    def test_range_condition_violation(self):
        # lambda_min ~ -4e-10 passes the PSD gate, but Z21 has mass against
        # the null space of Z22
        delta = 2e-5
        z = np.array([[1.0, delta], [delta, 0.0]])
        with pytest.raises(RangeConditionViolation):
            shorted_operator(z, 1)

    def test_nan_tolerance_admits_nothing(self):
        with pytest.raises(NotPositiveSemidefinite):
            shorted_operator(np.array([[1.0, 2.0], [2.0, 1.0]]), 1, psd_tol=np.nan)

    def test_pivot_bounds(self):
        with pytest.raises(ValueError):
            shorted_operator(np.eye(3), 0)
        with pytest.raises(ValueError):
            shorted_operator(np.eye(3), 4)


class TestBlockSchurGeneral:
    def test_block_diagonal(self):
        z = np.diag([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(block_schur_general(z, 2), np.diag([1.0, 2.0]))

    def test_scalar_hermitian(self):
        z = np.array([[2.0, 1.0 + 1j], [1.0 - 1j, 4.0]])
        out = block_schur_general(z, 1)
        assert abs(out[0, 0] - (2.0 - 2.0 / 4.0)) < 1e-14

    def test_agreement_with_shorted_on_pd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = random_pd(6, (0.2, 5), rng).entries
            plain = block_schur_general(z, 3)
            short = shorted_operator(SymMatrix(z), 3).s_short.entries
            assert operator_norm(plain - short) <= 1e-10 * operator_norm(z)

    def test_singular_trailing_block(self):
        z = np.zeros((3, 3))
        z[0, 0] = 1.0
        with pytest.raises(SingularPivotComplement):
            block_schur_general(z, 1)


@st.composite
def rank_deficient_psd(draw):
    """``Z = G G*`` of size N in [2, 8] and rank r in [1, N], the columns of G
    scaled by 10**a for exponents a in [-4, 4]; a pivot size s in [1, N - 1]
    and three test vectors of length s."""
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(1, n))
    s = draw(st.integers(1, n - 1))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=rank, max_size=rank)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, rank)) * scales
    return g @ g.T, s, rng.standard_normal((3, s))


# Measured over these 300 draws: at most 6.6e-16 ||Z|| |v|^2 against the
# variational infimum (1.3e-14 on an earlier set of 300), and 1.3 kappa(Z22)
# eps ||Z|| against the plain Schur complement on the 211 draws it takes;
# kappa(Z22) < 1e10 keeps every eigenvalue of Z22 above the rank cut
# 1e-12 lambda_max(Z22), so both compute the same matrix.
@settings(settings.get_profile("loewner"), max_examples=300)
@given(rank_deficient_psd())
def test_shorted_operator_matches_its_oracles(case):
    z, s, vs = case
    short = shorted_operator(z, s).s_short.entries
    znorm = operator_norm(z)
    for v in vs:
        gap = abs(float(v @ short @ v) - variational_infimum(z, v))
        assert gap <= 1e-13 * znorm * (v @ v)
    cond = np.linalg.cond(z[s:, s:])
    if cond < 1e10:
        gap = operator_norm(short - block_schur_general(z, s))
        assert gap <= 10.0 * cond * np.finfo(float).eps * znorm
