"""Tests for pencil realizations and their evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import (
    DimensionMismatch,
    MatrixTuple,
    PencilDomainError,
    PencilRealization,
    SymMatrix,
    apply_scalar_function,
    assemble_pencil,
    b_form,
    build_realization,
    eval_complex,
    eval_pencil,
    from_b_form,
    loewner_leq,
    make_dominated_pair,
    random_pd,
    shorted_operator,
)
from loewner.numlin import (
    NotPositiveSemidefinite,
    operator_norm,
    tuple_compress,
    tuple_direct_sum,
)
from loewner.pencil import (
    _arrowhead_short,
    _aux_blocks_diagonal,
    _rotated_coefficients,
    householder_to_e1,
)
from loewner.shorted import RangeConditionViolation, block_schur_general


def identity_realization():
    return PencilRealization(np.array([1.0]), SymMatrix(np.zeros((1, 1))),
                             (SymMatrix(np.ones((1, 1))),))


def cauchy_realization(lam=1.0):
    a0 = np.array([[0.0, 0.0], [0.0, lam]])
    a1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    return PencilRealization(np.array([1.0, 0.0]), SymMatrix(a0), (SymMatrix(a1),))


class TestConstruction:
    def test_unit_vector_enforced(self):
        with pytest.raises(ValueError, match="1e-12"):
            PencilRealization(np.array([1.0, 1.0]), SymMatrix(np.eye(2)),
                              (SymMatrix(np.eye(2)),))

    def test_psd_coefficients_enforced(self):
        bad = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
        with pytest.raises(ValueError, match="not PSD"):
            PencilRealization(np.array([1.0, 0.0]), SymMatrix(np.eye(2)),
                              (SymMatrix(bad),))

    def test_householder_maps_e_to_e1(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            e = rng.standard_normal(5)
            e /= np.linalg.norm(e)
            q = householder_to_e1(e)
            np.testing.assert_allclose(q @ e, np.eye(5)[0], atol=1e-14)
            np.testing.assert_allclose(q @ q.T, np.eye(5), atol=1e-14)
        np.testing.assert_array_equal(householder_to_e1(np.eye(3)[0]), np.eye(3))


class TestAssemble:
    def test_identity_realization_assembles_to_point(self):
        a = random_pd(4, (0.5, 2), 1)
        out = assemble_pencil(identity_realization(), MatrixTuple((a,)))
        np.testing.assert_allclose(out.entries, a.entries, atol=1e-14)

    def test_zero_coefficients_give_offset(self):
        r = PencilRealization(np.array([1.0, 0.0]), SymMatrix(np.diag([2.0, 3.0])),
                              (SymMatrix(np.zeros((2, 2))),))
        out = assemble_pencil(r, MatrixTuple((np.eye(3),)))
        np.testing.assert_allclose(out.entries, np.kron(np.diag([2.0, 3.0]), np.eye(3)))

    def test_identity_tuple_gives_b0(self):
        r = cauchy_realization(1.5)
        out = assemble_pencil(r, MatrixTuple((np.eye(2),)))
        b0, _ = b_form(r)
        np.testing.assert_allclose(out.entries, np.kron(b0.entries, np.eye(2)))

    def test_arity_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assemble_pencil(cauchy_realization(), MatrixTuple((np.eye(2), np.eye(2))))


class TestEval:
    def test_identity(self):
        a = random_pd(5, (0.1, 10), 2)
        out = eval_pencil(identity_realization(), MatrixTuple((a,)))
        np.testing.assert_allclose(out.entries, a.entries, atol=1e-12 * a.norm)

    def test_constant(self):
        r = PencilRealization(np.array([1.0]), SymMatrix(np.array([[2.5]])),
                              (SymMatrix(np.zeros((1, 1))),))
        out = eval_pencil(r, MatrixTuple((random_pd(3, (0.5, 2), 3),)))
        np.testing.assert_allclose(out.entries, 2.5 * np.eye(3), atol=1e-14)

    def test_cauchy_scalar(self):
        out = eval_pencil(cauchy_realization(1.0), MatrixTuple((np.array([[1.0]]),)))
        assert abs(out.entries[0, 0] - 0.5) < 1e-14

    def test_cauchy_matrix_vs_eigendecomposition_oracle(self):
        lam = 1.7
        r = cauchy_realization(lam)
        for seed in range(10):
            a = random_pd(5, (0.05, 20), seed)
            got = eval_pencil(r, MatrixTuple((a,)))
            oracle = apply_scalar_function(lambda x: lam * x / (lam + x), a)
            assert operator_norm(got.entries - oracle.entries) <= 1e-10 * max(1, oracle.norm)

    def test_outside_domain_raises(self):
        with pytest.raises(PencilDomainError):
            eval_pencil(cauchy_realization(1.0), MatrixTuple((-2.0 * np.eye(3),)))

    def test_result_is_psd_at_psd_boundary(self):
        # contraction compressions can make coordinates singular PSD
        out = eval_pencil(cauchy_realization(1.0), MatrixTuple((np.diag([1.0, 0.0]),)))
        assert np.linalg.eigvalsh(out.entries)[0] >= -1e-12
        np.testing.assert_allclose(out.entries, np.diag([0.5, 0.0]), atol=1e-12)

    def test_blockwise_path_matches_reference_shorted(self):
        r = cauchy_realization(2.0)
        for seed in range(5):
            x = MatrixTuple((random_pd(4, (0.2, 5), seed),))
            fast = eval_pencil(r, x).entries
            z = assemble_pencil(r, x)  # e is already e1
            ref = shorted_operator(z, 4).s_short.entries
            assert operator_norm(fast - ref) <= 1e-11 * max(1, operator_norm(z))

    def test_complex_hermitian_input(self):
        # Hermitian PD argument through the real-coefficient pencil
        rng = np.random.default_rng(14)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g @ g.conj().T + 0.5 * np.eye(4)
        lam = 1.5
        got = eval_pencil(cauchy_realization(lam), MatrixTuple((a,))).entries
        oracle = apply_scalar_function(lambda x: lam * x / (lam + x), SymMatrix(a)).entries
        assert operator_norm(got - oracle) <= 1e-10 * max(1, operator_norm(oracle))
        assert np.iscomplexobj(got)

    def test_rotated_pivot_matches_manual_reference(self):
        # e away from e1 forces the Householder rotation; compare against
        # rotating the assembled pencil by hand
        rng = np.random.default_rng(13)
        e = np.array([0.6, 0.8])
        base = cauchy_realization(1.5)
        r = PencilRealization(e, base.a0, base.coeffs)
        for _ in range(5):
            x = MatrixTuple((random_pd(3, (0.2, 5), rng),))
            got = eval_pencil(r, x).entries
            q = householder_to_e1(e)
            z = assemble_pencil(r, x).entries
            rot = np.kron(q, np.eye(3)) @ z @ np.kron(q, np.eye(3)).T
            ref = shorted_operator(SymMatrix(rot), 3).s_short.entries
            assert operator_norm(got - ref) <= 1e-10 * max(1, operator_norm(z))

    def test_complex_coefficients_componentwise_path(self):
        # a non-diagonal complex aux block takes the dense path; at a real
        # point the assembled pencil must keep the coefficients complex
        r = complex_dense_realization()
        assert not _aux_blocks_diagonal(*_rotated_coefficients(r))
        x = MatrixTuple((random_pd(3, (0.1, 3), 1),))
        ref, znorm = rotated_oracle(r, x)
        assert operator_norm(eval_pencil(r, x).entries - ref) <= 1e-13 * znorm

    def test_dense_rank_cut_spans_the_whole_trailing_block(self):
        # the 1e-14 component falls below rank_tol * lambda_max(Z22), so the
        # oracle drops it; a cut taken per component keeps it and is 1.2-1.7 off
        r = two_scale_realization()
        assert eval_path(r) == "dense"
        for seed in range(3):
            x = MatrixTuple((random_pd(3, (0.1, 10), seed),))
            ref, znorm = rotated_oracle(r, x)
            assert operator_norm(eval_pencil(r, x).entries - ref) <= 1e-12 * znorm


def complex_coefficient_realization():
    # Hermitian PSD A1 (eigenvalues 0, 1, 4) with complex pivot couplings
    a1 = np.array([[3, 1j, 1 - 1j], [-1j, 1, 0], [1 + 1j, 0, 1]])
    return PencilRealization(np.eye(3)[0], SymMatrix(np.diag([0.0, 1.0, 2.0])),
                             (SymMatrix(a1),))


def complex_dense_realization():
    # complex_coefficient_realization with a non-diagonal complex aux block
    a0 = np.array([[1.0, 0.5j, 0.0], [-0.5j, 1.0, 0.2], [0.0, 0.2, 1.0]])
    return PencilRealization(np.eye(3)[0], SymMatrix(a0),
                             complex_coefficient_realization().coeffs)


def two_scale_realization():
    """e = e1 and an aux block of two non-diagonal 2 x 2 components, the
    second scaled by 1e-14 and coupled to the pivot at sqrt(1e-14)."""
    b = np.array([[2.0, 1.0], [1.0, 2.0]])
    a1 = np.zeros((5, 5))
    a1[1:3, 1:3] = b
    a1[3:, 3:] = 1e-14 * b
    a1[1:, 0] = a1[0, 1:] = [0.5, 0.3, 0.6e-7, 0.4e-7]
    a1[0, 0] = 1.0 + a1[0, 1:] @ np.linalg.solve(a1[1:, 1:], a1[1:, 0])
    return PencilRealization(np.eye(5)[0], SymMatrix(np.diag([1.0, 0, 0, 0, 0])),
                             (SymMatrix(a1),))


def rotated_oracle(r, xt):
    """Dense shorted operator of the rotated, assembled pencil, and that
    pencil's norm."""
    rot = np.kron(householder_to_e1(r.e), np.eye(xt.n))
    z = rot @ assemble_pencil(r, xt).entries @ rot.T
    return shorted_operator(SymMatrix(z), xt.n).s_short.entries, operator_norm(z)


def spectral_and_oracles(r, x):
    """Spectral-path result, the batched arrowhead path and the dense shorted
    operator of the rotated, assembled pencil, plus that pencil's norm."""
    xt = MatrixTuple((x,))
    a0r, coeffs_r = _rotated_coefficients(r)
    assert r.k == 1 and r.m > 1 and _aux_blocks_diagonal(a0r, coeffs_r)
    fast = eval_pencil(r, xt).entries
    batched = _arrowhead_short(a0r, coeffs_r, [xt.items[0].entries], 1e-12, 1e-9, True)
    ref, znorm = rotated_oracle(r, xt)
    return fast, batched, ref, znorm


def assert_matches_oracles(r, x):
    # rounding in z - sum_j |o_j|^2/d_j scales with the pencil, not with F
    fast, batched, ref, znorm = spectral_and_oracles(r, x)
    assert operator_norm(fast - batched) <= 1e-13 * max(1.0, znorm)
    assert operator_norm(fast - ref) <= 1e-13 * max(1.0, znorm)


def raises_domain_error(fn):
    try:
        fn()
    except PencilDomainError:
        return True
    return False


class TestSpectralPath:
    """One-variable arrowhead pencils evaluate in the eigenbasis of X."""

    def test_batched_path_not_used_for_one_variable(self, monkeypatch):
        def fail(*args):
            raise AssertionError("batched arrowhead path taken")

        monkeypatch.setattr("loewner.pencil._arrowhead_short", fail)
        r = build_realization("power:0.5", n_nodes=24)
        x = random_pd(4, (0.1, 10), 0)
        out = eval_pencil(r, MatrixTuple((x,))).entries
        oracle = apply_scalar_function(np.sqrt, x).entries
        assert operator_norm(out - oracle) <= 1e-10 * operator_norm(oracle)

    def test_power_half_96_nodes(self):
        r = build_realization("power:0.5", n_nodes=96)
        for seed in range(3):
            assert_matches_oracles(r, random_pd(4, (0.1, 10), seed).entries)

    def test_cauchy(self):
        r = cauchy_realization(1.7)
        for seed in range(5):
            assert_matches_oracles(r, random_pd(6, (0.05, 20), seed).entries)

    def test_rotated_e(self):
        # a two-dimensional auxiliary space keeps the rotated aux block 1 x 1,
        # so an arbitrary e still takes the spectral path
        rng = np.random.default_rng(21)
        g0 = rng.standard_normal((2, 2))
        g1 = rng.standard_normal((2, 2))
        r = PencilRealization(np.array([0.6, -0.8]), SymMatrix(g0 @ g0.T),
                              (SymMatrix(g1 @ g1.T),))
        for _ in range(5):
            assert_matches_oracles(r, random_pd(5, (0.1, 10), rng).entries)

    def test_complex_hermitian_point(self):
        rng = np.random.default_rng(22)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = g @ g.conj().T + 0.3 * np.eye(4)
        r = build_realization("power:0.5", n_nodes=48)
        assert_matches_oracles(r, x)
        got = eval_pencil(r, MatrixTuple((x,))).entries
        oracle = apply_scalar_function(np.sqrt, SymMatrix(x)).entries
        assert operator_norm(got - oracle) <= 1e-10 * operator_norm(oracle)

    def test_complex_hermitian_coefficients(self):
        # the couplings enter as |o|^2, so complex pivot couplings stay exact
        r = complex_coefficient_realization()
        rng = np.random.default_rng(23)
        assert_matches_oracles(r, random_pd(4, (0.1, 10), rng).entries)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_matches_oracles(r, g @ g.conj().T + 0.2 * np.eye(3))

    @pytest.mark.parametrize("lo,hi,rel", [(0.1, 10.0, 5e-12), (1e-4, 1e4, 1e-10),
                                           (1e-8, 1e8, 1e-6)])
    def test_wide_spectra_against_mpmath(self, lo, hi, rel):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        r = build_realization("power:0.5", n_nodes=96)
        a0 = r.a0.entries
        c = r.coeffs[0].entries

        def f(x):  # the quadrature rational z - sum_j o_j^2 / d_j, at 50 digits
            out = mp.mpf(a0[0, 0]) + mp.mpf(c[0, 0]) * x
            for j in range(1, r.m):
                o = mp.mpf(a0[j, 0]) + mp.mpf(c[j, 0]) * x
                out -= o * o / (mp.mpf(a0[j, j]) + mp.mpf(c[j, j]) * x)
            return out

        rng = np.random.default_rng(24)
        n = 5
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = (q * np.geomspace(lo, hi, n)) @ q.T
        x = (x + x.T) / 2.0
        with mpmath.workdps(50):
            lam, u = mp.eigsy(mp.matrix(x.tolist()))
            ref = u * mp.diag([f(lam[i]) for i in range(n)]) * u.T
            ref = np.array(ref.tolist(), dtype=float)
        a0r, coeffs_r = _rotated_coefficients(r)
        fast = eval_pencil(r, MatrixTuple((x,))).entries
        batched = _arrowhead_short(a0r, coeffs_r, [x], 1e-12, 1e-9, True)
        norm = operator_norm(ref)
        assert operator_norm(fast - ref) <= rel * norm
        assert operator_norm(batched - ref) <= rel * norm

    def test_rank_deficient_truncation(self):
        # aux part of A0 zero: at a singular X the trailing entries d vanish
        # with the couplings, and truncation drops them; F(X) = 1.5 X exactly
        a1 = np.array([[3.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
        r = PencilRealization(np.eye(3)[0], SymMatrix(np.zeros((3, 3))),
                              (SymMatrix(a1),))
        rng = np.random.default_rng(25)
        g = rng.standard_normal((5, 3))
        x = g @ g.T  # rank 3 of 5
        fast, batched, ref, znorm = spectral_and_oracles(r, x)
        assert operator_norm(fast - 1.5 * x) <= 1e-12 * operator_norm(x)
        assert operator_norm(fast - batched) <= 1e-12 * operator_norm(x)
        assert operator_norm(fast - ref) <= 1e-12 * znorm

    @pytest.mark.parametrize("x,raises", [
        (-2.0 * np.eye(3), True),
        (np.diag([1.0, 0.0]), False),
        (np.diag([1.0, 2.0, -1e-6]), True),
        (np.diag([1.0, 2.0, -1e-13]), False),
    ])
    @pytest.mark.parametrize("spec", ["cauchy:1.0", "power:0.5"])
    def test_domain_errors_match_batched_path(self, spec, x, raises):
        r = build_realization(spec, n_nodes=24)
        a0r, coeffs_r = _rotated_coefficients(r)
        spectral = raises_domain_error(lambda: eval_pencil(r, MatrixTuple((x,))))
        batched = raises_domain_error(
            lambda: _arrowhead_short(a0r, coeffs_r, [x], 1e-12, 1e-9, True))
        assert spectral == batched == raises


def geomean_formula(x1, x2, t):
    """``X1^{1/2} (X1^{-1/2} X2 X1^{-1/2})^t X1^{1/2}`` through eigendecompositions."""
    lam, u = np.linalg.eigh(x1)
    half = (u * np.sqrt(lam)) @ u.conj().T
    half_inv = (u / np.sqrt(lam)) @ u.conj().T
    mid = half_inv @ x2 @ half_inv
    mu, v = np.linalg.eigh((mid + mid.conj().T) / 2.0)
    return half @ ((v * mu ** t) @ v.conj().T) @ half


def complex_pd(n, rng, shift=0.3):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + shift * np.eye(n)


class TestBatchedArrowheadPath:
    """Arrowhead pencils in k >= 2 variables take the batched path
    (`_arrowhead_short`); the dense shorted operator is its oracle."""

    @staticmethod
    def assert_matches_shorted(r, xt, rel=1e-13):
        assert r.k >= 2 and r.m > 1 and _aux_blocks_diagonal(*_rotated_coefficients(r))
        fast = eval_pencil(r, xt).entries
        ref, znorm = rotated_oracle(r, xt)
        assert operator_norm(fast - ref) <= rel * max(1.0, znorm)
        return fast

    def test_geomean_96_nodes(self):
        # n = 16 keeps the assembled pencil at 1536 x 1536 for the dense oracle;
        # n = 64 is checked against the eigen formula below
        r = build_realization("geomean:0.5", n_nodes=96)
        for seed in range(2):
            x = MatrixTuple((random_pd(16, (0.3, 3.0), 2 * seed),
                             random_pd(16, (0.3, 3.0), 2 * seed + 1)))
            self.assert_matches_shorted(r, x)

    def test_harmonic_two_weights(self):
        # e is not e1 here, so the rotation is exercised too
        r = build_realization("harmonic:0.3,0.7")
        assert r.m == 2 and abs(r.e[0] - 1.0) > 1e-3
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = MatrixTuple((random_pd(6, (0.05, 20), rng), random_pd(6, (0.05, 20), rng)))
            fast = self.assert_matches_shorted(r, x)
            x1i, x2i = (np.linalg.inv(xi.entries) for xi in x.items)
            oracle = np.linalg.inv(0.3 * x1i + 0.7 * x2i)
            assert operator_norm(fast - oracle) <= 1e-11 * operator_norm(oracle)

    @pytest.mark.parametrize("n", [16, 64])
    def test_geomean_eigen_formula(self, n):
        r = build_realization("geomean:0.5", n_nodes=96)
        x1 = random_pd(n, (0.3, 3.0), 41).entries
        x2 = random_pd(n, (0.3, 3.0), 42).entries
        got = eval_pencil(r, MatrixTuple((x1, x2))).entries
        ref = geomean_formula(x1, x2, 0.5)
        assert operator_norm(got - ref) <= 1e-11 * operator_norm(ref)

    def test_complex_hermitian_points(self):
        # complex eigenvectors of the trailing blocks take the conjugated branch
        rng = np.random.default_rng(32)
        x1, x2 = complex_pd(6, rng), complex_pd(6, rng)
        r = build_realization("geomean:0.5", n_nodes=48)
        fast = self.assert_matches_shorted(r, MatrixTuple((x1, x2)))
        assert np.iscomplexobj(fast)
        ref = geomean_formula(x1, x2, 0.5)
        assert operator_norm(fast - ref) <= 1e-9 * operator_norm(ref)
        self.assert_matches_shorted(build_realization("harmonic:0.3,0.7"),
                                    MatrixTuple((x1, x2)))

    def test_rank_deficient_pair(self):
        # a shared kernel vector v makes every trailing block singular on v
        # (geomean has A0 = 0), with the couplings vanishing there as well:
        # the blocks are truncated and the range condition holds
        rng = np.random.default_rng(33)
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        proj = np.eye(5) - np.outer(v, v)
        x1 = proj @ random_pd(5, (0.5, 2.0), rng).entries @ proj
        x2 = proj @ random_pd(5, (0.5, 2.0), rng).entries @ proj
        r = build_realization("geomean:0.5", n_nodes=48)
        assert not np.any(r.a0.entries)
        fast = self.assert_matches_shorted(r, MatrixTuple((x1, x2)), rel=1e-12)
        assert np.linalg.norm(fast @ v) <= 1e-12 * operator_norm(fast)
        # on the complement of v the mean is the eigen formula's
        basis = np.linalg.svd(proj)[0][:, :4]
        ref = geomean_formula(basis.T @ x1 @ basis, basis.T @ x2 @ basis, 0.5)
        assert operator_norm(basis.T @ fast @ basis - ref) <= 1e-9 * operator_norm(ref)

    @pytest.mark.parametrize("spec", ["geomean:0.5", "harmonic:0.3,0.7"])
    def test_non_psd_pair_raises(self, spec):
        r = build_realization(spec, n_nodes=24)
        x = MatrixTuple((np.diag([1.0, 2.0, -0.5]), np.eye(3)))
        with pytest.raises(PencilDomainError):
            eval_pencil(r, x)
        with pytest.raises(NotPositiveSemidefinite):
            rotated_oracle(r, x)


class TestEvalLayout:
    """The rotated layout is computed once per realization and is read-only."""

    def test_layout_computed_once(self, monkeypatch):
        rng = np.random.default_rng(34)
        cases = [("geomean:0.5", 2), ("power:0.5", 1), ("harmonic:0.2,0.3,0.5", 3)]
        realizations = [build_realization(spec, n_nodes=24) for spec, _ in cases]
        points = [[random_pd(4, (0.1, 10), rng).entries for _ in range(k)] for _, k in cases]
        for r, x in zip(realizations, points):
            eval_pencil(r, x)

        def fail(*args):
            raise AssertionError("layout recomputed")

        monkeypatch.setattr("loewner.pencil._rotated_coefficients", fail)
        monkeypatch.setattr("loewner.pencil._aux_blocks_diagonal", fail)
        for r, x in zip(realizations, points):
            eval_pencil(r, x)
            eval_complex(r, [xi + 1j * np.eye(4) for xi in x])

    @pytest.mark.parametrize("spec", ["geomean:0.5", "harmonic:0.3,0.7",
                                      "harmonic:0.2,0.3,0.5"])
    def test_layout_read_only(self, spec):
        a0r, coeffs_r, _ = build_realization(spec, n_nodes=24)._layout
        for c in (a0r, *coeffs_r):
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0, 0] = 1.0

    @pytest.mark.parametrize("spec,k", [("geomean:0.5", 2), ("harmonic:0.3,0.7", 2),
                                        ("harmonic:0.2,0.3,0.5", 3)])
    def test_real_eval_runs_without_einsum(self, monkeypatch, spec, k):
        r = build_realization(spec, n_nodes=24)
        rng = np.random.default_rng(35)
        x = MatrixTuple(tuple(random_pd(5, (0.1, 10), rng) for _ in range(k)))
        ref, znorm = rotated_oracle(r, x)

        def fail(*args, **kwargs):
            raise AssertionError("einsum called")

        monkeypatch.setattr("loewner.pencil.np.einsum", fail)
        got = eval_pencil(r, x).entries
        assert operator_norm(got - ref) <= 1e-12 * max(1.0, znorm)


# Realizations per `eval` path: one-variable spectral, batched arrowhead
# (k >= 2) and dense (m = 1 or a non-diagonal aux block).
PATH_SPECS = {
    "arithmetic:0.4,0.6": "dense",
    "power:0.5": "spectral",
    "cauchy:1.0": "spectral",
    "geomean:0.5": "batched",
    "harmonic:0.3,0.7": "batched",
    "harmonic:0.2,0.3,0.5": "dense",
    "two-scale": "dense",
}
PATH_REALIZATIONS = {spec: (two_scale_realization() if spec == "two-scale"
                            else build_realization(spec, n_nodes=24))
                     for spec in PATH_SPECS}


def eval_path(r):
    if r.m == 1 or not _aux_blocks_diagonal(*_rotated_coefficients(r)):
        return "dense"
    return "spectral" if r.k == 1 else "batched"


def test_path_specs_cover_every_eval_path():
    assert {spec: eval_path(r) for spec, r in PATH_REALIZATIONS.items()} == PATH_SPECS


@st.composite
def wide_points(draw):
    """A tuple of n x n PD points with spectra 10**a for exponents a in
    [-8, 8], in random orthonormal bases; with ``flip`` the largest
    eigenvalue of every coordinate is negated, so the point leaves the domain."""
    spec = draw(st.sampled_from(sorted(PATH_SPECS)))
    r = PATH_REALIZATIONS[spec]
    n = draw(st.integers(1, 5))
    flip = draw(st.booleans())
    items = []
    for _ in range(r.k):
        lam = 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)))
        if flip:
            lam[np.argmax(lam)] *= -1.0
        seed = draw(st.integers(0, 2**32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        items.append((q * lam) @ q.T)
    return r, MatrixTuple(tuple(items))


# Worst measured error against the rotated dense oracle, relative to the
# pencil norm, over 1200 numpy-generated points per realization of this kind
# on the commit before the BLAS contractions: 4.1e-12 (harmonic:0.3,0.7);
# the bound leaves a 25x margin.
WIDE_SPECTRUM_REL = 1e-10


@settings(settings.get_profile("loewner"), max_examples=300)
@given(wide_points())
def test_every_eval_path_matches_shorted_oracle(case):
    r, xt = case
    try:
        got = eval_pencil(r, xt).entries
    except PencilDomainError:
        got = None
    try:
        ref, znorm = rotated_oracle(r, xt)
    except (NotPositiveSemidefinite, RangeConditionViolation):
        ref = None
    assert (got is None) == (ref is None)
    if got is not None:
        assert operator_norm(got - ref) <= WIDE_SPECTRUM_REL * max(1.0, znorm)


class TestEvalProperties:
    def test_unitary_invariance(self):
        r = cauchy_realization(1.3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = MatrixTuple((random_pd(4, (0.1, 10), rng),))
            g = rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(g)
            fx = eval_pencil(r, x).entries
            fconj = eval_pencil(r, tuple_compress(x, q)).entries
            assert operator_norm(fconj - q.T @ fx @ q) <= 1e-10 * max(1, operator_norm(fx))

    def test_direct_sum_invariance(self):
        r = cauchy_realization(0.7)
        x = MatrixTuple((random_pd(3, (0.1, 10), 5),))
        y = MatrixTuple((random_pd(2, (0.1, 10), 6),))
        fs = eval_pencil(r, tuple_direct_sum(x, y)).entries
        fx = eval_pencil(r, x).entries
        fy = eval_pencil(r, y).entries
        block = np.zeros((5, 5))
        block[:3, :3] = fx
        block[3:, 3:] = fy
        assert operator_norm(fs - block) <= 1e-10 * max(1, operator_norm(fs))

    def test_monotone_on_dominated_pairs(self):
        r = cauchy_realization(1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = MatrixTuple((random_pd(3, (0.1, 10), rng),))
            y = MatrixTuple((random_pd(3, (0.1, 10), rng),))
            xd, yd = make_dominated_pair(x, y)
            fx = eval_pencil(r, xd).entries
            fy = eval_pencil(r, yd).entries
            assert np.linalg.eigvalsh(fy - fx)[0] >= -1e-8

    def test_midpoint_concavity(self):
        r = cauchy_realization(1.0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_pd(3, (0.1, 10), rng).entries
            b = random_pd(3, (0.1, 10), rng).entries
            fm = eval_pencil(r, MatrixTuple(((a + b) / 2,))).entries
            fa = eval_pencil(r, MatrixTuple((a,))).entries
            fb = eval_pencil(r, MatrixTuple((b,))).entries
            assert np.linalg.eigvalsh(fm - (fa + fb) / 2)[0] >= -1e-8

    def test_scalar_consistency_on_commuting_input(self):
        lam = 2.0
        r = cauchy_realization(lam)
        a = random_pd(5, (0.1, 10), 9)
        via_pencil = eval_pencil(r, MatrixTuple((a,)))
        via_calculus = apply_scalar_function(lambda x: lam * x / (lam + x), a)
        assert operator_norm(via_pencil.entries - via_calculus.entries) <= 1e-10


class TestEvalComplex:
    def test_identity_preserves_point(self):
        a = random_pd(3, (0.5, 2), 1).entries + 1j * random_pd(3, (0.5, 2), 2).entries
        out = eval_complex(identity_realization(), [a])
        np.testing.assert_allclose(out, a, atol=1e-12)

    def test_cauchy_at_i(self):
        out = eval_complex(cauchy_realization(1.0), [np.array([[1j]])])
        assert abs(out[0, 0] - (0.5 + 0.5j)) < 1e-14

    def test_imaginary_part_stays_nonnegative(self):
        r = cauchy_realization(1.4)
        rng = np.random.default_rng(3)
        for _ in range(30):
            re = rng.standard_normal((3, 3))
            x = (re + re.T) / 2 + 1j * random_pd(3, (0.2, 3), rng).entries
            f = eval_complex(r, [x])
            assert np.linalg.eigvalsh((f - f.conj().T) / 2j)[0] >= -1e-10

    def test_conjugate_symmetry(self):
        r = cauchy_realization(0.9)
        re = np.diag([1.0, 2.0, 3.0])
        x = re + 1j * random_pd(3, (0.5, 1.5), 5).entries
        f = eval_complex(r, [x])
        fc = eval_complex(r, [x.conj()])
        assert operator_norm(fc - f.conj()) <= 1e-12

    def test_rejects_indefinite_imaginary_part(self):
        x = np.eye(2) + 1j * np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="definite"):
            eval_complex(cauchy_realization(1.0), [x])

    def test_rejects_mixed_half_planes(self):
        a = np.eye(2) + 1j * np.eye(2)
        b = np.eye(2) - 1j * np.eye(2)
        r = PencilRealization(np.array([1.0, 0.0]), SymMatrix(np.eye(2)),
                              (SymMatrix(np.eye(2)), SymMatrix(np.eye(2))))
        with pytest.raises(ValueError, match="one sign"):
            eval_complex(r, [a, b])


    def test_complex_coefficients_match_dense_schur(self):
        # the pivot-row coupling of a complex-Hermitian coefficient is the
        # conjugate of the pivot-column coupling
        r = complex_coefficient_realization()
        z = np.array([[1 + 2j]])
        got = eval_complex(r, [z])
        dense = np.kron(r.a0.entries, np.eye(1)) + np.kron(r.coeffs[0].entries, z)
        ref = block_schur_general(dense, 1)
        assert operator_norm(got - ref) <= 1e-13

    @pytest.mark.parametrize("spec,path", [
        ("cauchy:1.0", "arrowhead"), ("harmonic:0.3,0.7", "arrowhead"),
        ("harmonic:0.2,0.3,0.5", "dense"), ("arithmetic:0.4,0.6", "dense"),
        ("complex-dense", "dense")])
    def test_every_path_matches_block_schur_oracle(self, spec, path):
        r = (complex_dense_realization() if spec == "complex-dense"
             else build_realization(spec, n_nodes=24))
        assert (eval_path(r) == "dense") == (path == "dense")
        rng = np.random.default_rng(36)
        rot = np.kron(householder_to_e1(r.e), np.eye(4))
        for sign in (1, -1):
            x = []
            for _ in range(r.k):
                re = rng.standard_normal((4, 4))
                x.append((re + re.T) / 2 + sign * 1j * random_pd(4, (0.2, 3), rng).entries)
            z = np.kron(r.a0.entries, np.eye(4))
            for c, xi in zip(r.coeffs, x):
                z = z + np.kron(c.entries, xi)
            z = rot @ z @ rot.T
            ref = block_schur_general(z, 4)
            got = eval_complex(r, x)
            assert operator_norm(got - ref) <= 1e-12 * max(1.0, operator_norm(z))

    def test_complex_coefficients_match_dense_schur_matrix_point(self):
        r = complex_coefficient_realization()
        rng = np.random.default_rng(26)
        re = rng.standard_normal((3, 3))
        x = (re + re.T) / 2 + 1j * random_pd(3, (0.2, 3), rng).entries
        got = eval_complex(r, [x])
        dense = np.kron(r.a0.entries, np.eye(3)) + np.kron(r.coeffs[0].entries, x)
        ref = block_schur_general(dense, 3)
        assert operator_norm(got - ref) <= 1e-12 * max(1.0, operator_norm(dense))


class TestBForm:
    def test_identity_realization(self):
        b0, bs = b_form(identity_realization())
        assert b0.entries[0, 0] == 1.0
        assert bs[0].entries[0, 0] == 1.0

    def test_cauchy_atom_b_form(self):
        b0, bs = b_form(cauchy_realization(1.0))
        np.testing.assert_allclose(b0.entries, [[1.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(bs[0].entries, [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(b0.entries - bs[0].entries, np.diag([0.0, 1.0]))

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g0 = rng.standard_normal((3, 3))
            g1 = rng.standard_normal((3, 3))
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            r = PencilRealization(e, SymMatrix(g0 @ g0.T), (SymMatrix(g1 @ g1.T),))
            b0, bs = b_form(r)
            r2 = from_b_form(1, 3, e, b0, bs)
            scale = max(1.0, r.a0.norm)
            assert operator_norm(r2.a0.entries - r.a0.entries) <= 1e-14 * scale
            assert np.array_equal(r2.coeffs[0].entries, r.coeffs[0].entries)

    def test_from_b_form_rejects_violations(self):
        # B0 < B1 means the affine offset would not be PSD
        with pytest.raises(ValueError, match="B-form"):
            from_b_form(1, 1, np.array([1.0]), np.array([[1.0]]), [np.array([[2.0]])])
