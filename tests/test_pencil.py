"""Tests for pencil realizations and their evaluation."""

import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_gram_realization
import loewner
from loewner import jsonio
from loewner import (
    DimensionMismatch,
    MatrixTuple,
    PencilDomainError,
    PencilRealization,
    SymMatrix,
    apply_scalar_function,
    assemble_pencil,
    build_realization,
    eval_complex,
    eval_pencil,
    make_dominated_pair,
    random_pd,
    shorted_operator,
)
from loewner.numlin import (
    DEFAULT_PSD_TOL,
    NotPositiveSemidefinite,
    _psd_check,
    as_tuple,
    operator_norm,
    tuple_compress,
    tuple_direct_sum,
)
from loewner.pencil import (
    _EIG_COND_MAX,
    Arrowhead,
    _arrowhead_blocks,
    _arrowhead_schur_complex,
    _arrowhead_short,
    _assembled_pencil,
    _aux_blocks_diagonal,
    _certified_arrowhead,
    _parallel_sum_short,
    _rotated_coefficients,
    _route,
    _route_complex,
    _spectral_complex,
    householder_to_e1,
)
from loewner.shorted import (
    DEFAULT_RANK_TOL,
    RangeConditionViolation,
    SingularPivotComplement,
    block_schur_general,
)


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
        with pytest.raises(NotPositiveSemidefinite, match="A1: eigenvalue -1.000e"):
            PencilRealization(np.array([1.0, 0.0]), SymMatrix(np.eye(2)),
                              (SymMatrix(bad),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        # eigvalsh of such a coefficient is NaN, which _psd_check never rejects
        c = np.diag([1.0, 2.0, 3.0])
        c[1, 2] = c[2, 1] = bad
        e1, zero = np.eye(3)[0], SymMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="^A2 has a non-finite entry$"):
            PencilRealization(e1, zero, (SymMatrix(np.eye(3)), SymMatrix(c)))
        with pytest.raises(ValueError, match="^A0 has a non-finite entry$"):
            PencilRealization(e1, SymMatrix(c), (SymMatrix(np.eye(3)),))
        c = np.eye(3)
        c[0, 0] = bad
        with pytest.raises(ValueError, match="^A1 has a non-finite entry$"):
            PencilRealization(e1, zero, (SymMatrix(c),))

    def test_householder_maps_e_to_e1(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            e = rng.standard_normal(5)
            e /= np.linalg.norm(e)
            q = householder_to_e1(e)
            np.testing.assert_allclose(q @ e, np.eye(5)[0], atol=1e-14)
            np.testing.assert_allclose(q @ q.T, np.eye(5), atol=1e-14)
        np.testing.assert_array_equal(householder_to_e1(np.eye(3)[0]), np.eye(3))


def boundary_arrowhead(rng, m, hermitian, kappa, zero_d):
    """An arrowhead ``[[z, o*], [o, diag(d)]]`` with d spread over a random
    sub-range of 1e-8..1e8 and z chosen so that lambda_min sits at
    ``-DEFAULT_PSD_TOL * max(1, lambda_max) * (1 + kappa)``; ``zero_d`` sets d_1 = 0
    with o_1 = 0 ("zero") or o_1 != 0 ("coupled")."""
    lo, hi = np.sort(rng.uniform(-8, 8, 2))
    d = 10.0 ** rng.uniform(lo, hi, m - 1)
    o = np.sqrt(d) * rng.standard_normal(m - 1)
    if hermitian:
        o = o * np.exp(2j * np.pi * rng.uniform(size=m - 1))
    top = max(1.0, d.max())
    if zero_d:
        d[0] = 0.0
        o[0] = 0.0 if zero_d == "zero" else 0.1 * np.sqrt(DEFAULT_PSD_TOL) * top
    c = np.diag(np.concatenate([[0.0], d])).astype(o.dtype)
    c[1:, 0], c[0, 1:] = o, o.conj()

    def gap(t):  # tol * max(1, lambda_max) - t with lambda_min at -t (1 + kappa)
        lam = -t * (1 + kappa)
        c[0, 0] = lam + np.sum(np.abs(o) ** 2 / (d - lam))
        return DEFAULT_PSD_TOL * max(1.0, np.linalg.eigvalsh(c)[-1]) - t

    # gap decreases in t; regula falsi (Illinois) from the bracket [tol, tol + gap(tol)]
    a, fa = DEFAULT_PSD_TOL, gap(DEFAULT_PSD_TOL)
    b, fb = (a + fa, gap(a + fa)) if fa > 0 else (a, fa)
    while abs(fb) > 1e-6 * b:
        t = b - fb * (b - a) / (fb - fa)
        ft = gap(t)
        if ft * fb < 0:
            a, fa = b, fb
        else:
            fa /= 2
        b, fb = t, ft
    return c  # as set by the last call, gap(b)


def admission_outcome(fn):
    try:
        fn()
    except NotPositiveSemidefinite as exc:
        return str(exc)
    return None


class TestCertifiedAdmission:
    """The spectrum-free arrowhead test only accepts, and only where the dense
    rule `_psd_check(eigvalsh(c))` accepts; every reject is the dense one."""

    @pytest.mark.parametrize("m", [2, 3, 9, 40, 128, 385])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_matches_dense_rule_at_the_tolerance_boundary(self, m, hermitian, monkeypatch):
        rng = np.random.default_rng(1000 * m + hermitian)
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr("loewner.pencil.np.linalg.eigvalsh",
                            lambda a: calls.append(a) or eigvalsh(a))
        certified = {1e-2: 0, -1e-2: 0}
        for kappa in certified:
            for zero_d in (None, "zero", "coupled"):
                c = SymMatrix(boundary_arrowhead(rng, m, hermitian, kappa, zero_d))
                lo, hi = eigvalsh(c.entries)[[0, -1]]
                assert (lo < -DEFAULT_PSD_TOL * max(1.0, hi)) == (kappa > 0)
                zero = SymMatrix(np.zeros((m, m)))
                for i, (a0, coeffs) in enumerate([(c, (zero,)), (zero, (c,))]):
                    expected = admission_outcome(
                        lambda: _psd_check(eigvalsh(c.entries), DEFAULT_PSD_TOL, f"A{i}"))
                    calls.clear()
                    got = admission_outcome(
                        lambda: PencilRealization(np.eye(m)[0], a0, coeffs))
                    assert got == expected
                    certified[kappa] += not calls
        assert certified[1e-2] == 0 and certified[-1e-2] > 0

    def test_certifies_no_coefficient_with_non_finite_entries(self):
        for bad in (np.nan, np.inf, -np.inf):
            for at in ((0, 0), (1, 0), (1, 1), (1, 2)):
                c = np.eye(3)
                c[at] = c[at[::-1]] = bad
                # (1, 2) lies off the arrowhead pattern: the coefficient stays dense
                assert at == (1, 2) or not _certified_arrowhead(np.diag(c), c[1:, 0])
                with pytest.raises(ValueError, match="A0 has a non-finite entry"):
                    PencilRealization(np.eye(3)[0], c, (np.eye(3),))

    def test_builders_and_their_files_call_no_eigvalsh(self, monkeypatch):
        specs = ["power:0.37", "sqrt", "geomean:0.5", "cauchy:2", "harmonic:0.3,0.7",
                 "harmonic:0.2,0.3,0.5", "arithmetic:0.3,0.7", "identity", "constant:2",
                 "affine:1,2,3"]

        def fail(*args):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr("loewner.pencil.np.linalg.eigvalsh", fail)
        for spec in specs:
            r = build_realization(spec)
            text = jsonio.dumps(jsonio.realization_to_json(r))
            jsonio.realization_from_json(json.loads(text))

    def test_dense_coefficient_takes_one_eigvalsh(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr("loewner.pencil.np.linalg.eigvalsh",
                            lambda a: calls.append(a) or eigvalsh(a))
        dense = random_pd(3, (0.5, 2), 7)
        PencilRealization(np.eye(3)[0], SymMatrix(np.zeros((3, 3))), (dense,))
        assert len(calls) == 1 and calls[0] is dense.entries

    def test_dense_arrowheads_keep_their_bits_as_vectors(self):
        # the dense form of a coefficient kept as vectors is symmetrized once
        # more by SymMatrix, so it keeps the bits of the input's SymMatrix only
        # if symmetrizing is idempotent; halving complex values as numpy does
        # (by 2 + 0j) moved a zero's sign in 291 of these 3000
        rng = np.random.default_rng(5)
        parts = np.array([0.0, -0.0, 0.5, -0.5])
        for _ in range(3000):
            a = np.empty((3, 3), dtype=complex)
            a.real, a.imag = rng.choice(parts, (2, 3, 3))
            a[1, 2] = a[2, 1] = 0.0
            a.real[np.diag_indices(3)] += 4.0
            r = PencilRealization(np.eye(3)[0], a, (np.eye(3),))
            assert isinstance(r.coefficients[0], Arrowhead)
            assert r.a0.entries.tobytes() == SymMatrix(a).entries.tobytes()


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
        b0 = r.a0.entries + r.coeffs[0].entries
        np.testing.assert_allclose(out.entries, np.kron(b0, np.eye(2)))
        # bit for bit the Kronecker sum, at a real and a complex-Hermitian point
        rng = np.random.default_rng(15)
        for x in (random_pd(3, (0.5, 2), rng), SymMatrix(complex_pd(3, rng))):
            kron = np.kron(r.a0.entries, np.eye(3)) + np.kron(r.coeffs[0].entries, x.entries)
            got = assemble_pencil(r, MatrixTuple((x,))).entries
            assert got.dtype == kron.dtype and np.array_equal(got, SymMatrix(kron).entries)

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

    def test_nan_tolerance_admits_nothing(self):
        r = build_realization("arithmetic:0.5,0.5")
        with pytest.raises(PencilDomainError):
            eval_pencil(r, [np.diag([-1.0, 1.0])] * 2, tol=np.nan)

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
        a = complex_pd(4, np.random.default_rng(14), shift=0.5)
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
        # the 1e-14 component falls below DEFAULT_RANK_TOL * lambda_max(Z22), so the
        # oracle drops it; a cut taken per component keeps it and is 1.2-1.7 off
        r = two_scale_realization()
        for seed in range(3):
            x = MatrixTuple((random_pd(3, (0.1, 10), seed),))
            assert route(r, x) == "dense"
            ref, znorm = rotated_oracle(r, x)
            assert operator_norm(eval_pencil(r, x).entries - ref) <= 1e-12 * znorm

    @pytest.mark.parametrize("lam,raises", [([2.0, -1.0, 0.5], True), ([2.0, 0.3, 0.5], False)])
    def test_dense_range_condition(self, lam, raises):
        # two-scale's own trailing block A1_aux (x) X is PSD only where X is,
        # and then the coupling has no mass on its null space; the shifted
        # variant's is singular at the eigenvalue -1, with coupling mass 0.58
        # there.  At the admitted point the 1e-14 component (at most 9e-14)
        # still falls below the cut 9e-12.
        r = shifted_two_scale_realization()
        xt = MatrixTuple((np.diag(lam),))
        try:
            ref, znorm = rotated_oracle(r, xt)
        except (NotPositiveSemidefinite, RangeConditionViolation):
            ref = None
        assert (ref is None) == raises
        if raises:
            with pytest.raises(PencilDomainError, match="range condition"):
                eval_pencil(r, xt)
        else:
            assert route(r, xt) == "dense"
            assert operator_norm(eval_pencil(r, xt).entries - ref) <= 1e-13 * znorm


def complex_coefficient_realization(complex_couplings=True):
    # Hermitian PSD A1 (eigenvalues 0, 1, 4) with complex pivot couplings, or a real PD one
    a1 = np.array([[3, 1j, 1 - 1j], [-1j, 1, 0], [1 + 1j, 0, 1]] if complex_couplings
                  else [[3.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    return PencilRealization(np.eye(3)[0], SymMatrix(np.diag([0.0, 1.0, 2.0])),
                             (SymMatrix(a1),))


def swapped_realization(complex_couplings):
    """`complex_coefficient_realization` with its first two coordinates swapped
    and e = e2: the Householder map of e2 is exactly that swap."""
    r, swap = complex_coefficient_realization(complex_couplings), np.eye(3)[[1, 0, 2]]
    return PencilRealization(swap[0], SymMatrix(swap @ r.a0.entries @ swap),
                             tuple(SymMatrix(swap @ c.entries @ swap) for c in r.coeffs))


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


def shifted_two_scale_realization():
    """`two_scale_realization` with the aux block of A0 equal to that of A1:
    the trailing block ``A1_aux (x) (I + X)`` is PSD-singular where X has
    eigenvalue -1, and the coupling ``A1_aux0 (x) X`` has mass there."""
    base = two_scale_realization()
    a0 = base.a0.entries.copy()
    a0[1:, 1:] = base.coeffs[0].entries[1:, 1:]
    return PencilRealization(base.e, SymMatrix(a0), base.coeffs)


def rotated_oracle(r, xt):
    """Dense shorted operator of the rotated, assembled pencil, and that
    pencil's norm."""
    rot = np.kron(householder_to_e1(r.e), np.eye(xt.n))
    z = rot @ assemble_pencil(r, xt).entries @ rot.T
    return shorted_operator(SymMatrix(z), xt.n).s_short.entries, operator_norm(z)


def route(r, x, tol=1e-9):
    """The real path that `eval` takes at x."""
    return _route(r, [xi.entries[None] for xi in as_tuple(x).items], tol)[0][0]


def one_point(values):
    """A kernel's outcome at a stack of one point: its value, or the
    exception that it records for the point, raised."""
    (value,) = values
    if isinstance(value, Exception):
        raise value
    return value


def batched_short(r, xs):
    """The batched kernel on the n x n blocks of a rotated arrowhead pencil."""
    return one_point(_arrowhead_short(*_arrowhead_blocks(r._layout[0], [x[None] for x in xs]),
                                      1e-9))


def spectral_and_oracles(r, x):
    """Spectral-path result, the batched arrowhead path and the dense shorted
    operator of the rotated, assembled pencil, plus that pencil's norm."""
    xt = MatrixTuple((x,))
    assert r.k == 1 and r.m > 1 and _aux_blocks_diagonal(*_rotated_coefficients(r))
    fast = eval_pencil(r, xt).entries
    batched = batched_short(r, [xt.items[0].entries])
    ref, znorm = rotated_oracle(r, xt)
    return fast, batched, ref, znorm


def assert_matches_oracles(r, x):
    # rounding in z - sum_j |o_j|^2/d_j scales with the pencil, not with F
    fast, batched, ref, znorm = spectral_and_oracles(r, x)
    assert operator_norm(fast - batched) <= 1e-13 * max(1.0, znorm)
    assert operator_norm(fast - ref) <= 1e-13 * max(1.0, znorm)


class TestSpectralPath:
    """One-variable arrowhead pencils evaluate in the eigenbasis of X."""

    def test_batched_path_not_used_for_one_variable(self):
        r = build_realization("power:0.5", n_nodes=24)
        x = random_pd(4, (0.1, 10), 0)
        assert route(r, [x]) == "spectral"
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

    @pytest.mark.parametrize("complex_couplings", [False, True])
    def test_rotated_e_with_three_coordinates(self, complex_couplings):
        r = swapped_realization(complex_couplings)
        table = complex_coefficient_realization(complex_couplings)._layout[0]
        assert np.array_equal(r._layout[0], table)
        for seed in range(3):
            x = random_pd(4, (0.1, 10), seed).entries
            assert route(r, [x]) == "spectral"
            assert_matches_oracles(r, x)

    def test_complex_hermitian_point(self):
        x = complex_pd(4, np.random.default_rng(22))
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
        assert_matches_oracles(r, complex_pd(3, rng, shift=0.2))

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
        fast = eval_pencil(r, MatrixTuple((x,))).entries
        batched = batched_short(r, [x])
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
        spectral = domain_outcome(lambda: eval_pencil(r, MatrixTuple((x,))))[0]
        batched = domain_outcome(lambda: batched_short(r, [x]))[0]
        assert spectral == batched == ("error" if raises else "ok")


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
    """Arrowhead pencils in k >= 2 variables (`geomean`, `harmonic:w1,w2`: the
    two-generator spectral path with the batched fallback); the dense
    shorted operator is their oracle."""

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
        x1, x2 = (random_pd(n, (0.3, 3.0), seed).entries for seed in (41, 42))
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


def mp_complement(r, xs, dps=50):
    """``Z11 - sum_j R'_j B_j^-1 R_j`` of the rotated pencil (real
    coefficients) at ``dps`` digits; complex when the point is."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    a0r, coeffs_r = r._rotated
    n = xs[0].shape[0]
    with mpmath.workdps(dps):
        xm = [mp.matrix(x.tolist()) for x in xs]

        def block(i, j):
            out = mp.eye(n) * mp.mpf(a0r[i, j])
            for c, x in zip(coeffs_r, xm):
                out += mp.mpf(c[i, j]) * x
            return out

        out = block(0, 0)
        for j in range(1, r.m):
            out -= block(0, j) * mp.inverse(block(j, j)) * block(j, 0)
        out = np.array(out.tolist(), dtype=complex)
        return out if any(np.iscomplexobj(x) for x in xs) else out.real


def spectral_point(seed, spectra, n):
    """Real symmetric matrices with the given geometric spectra in random bases."""
    rng = np.random.default_rng(seed)
    out = []
    for lo, hi in spectra:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = (q * np.geomspace(lo, hi, n)) @ q.T
        out.append((x + x.T) / 2.0)
    return out


def domain_outcome(fn):
    try:
        return "ok", fn()
    except PencilDomainError as exc:
        return "error", str(exc)


class TestTwoGeneratorPath:
    """`geomean` and two-weight `harmonic` evaluate with one Cholesky of X1 and
    one ``eigh`` of ``L^-1 X2 L^-*``; `_arrowhead_short` is the fallback when
    ``mu_min <= sqrt(DEFAULT_RANK_TOL) mu_max`` and the oracle."""

    def test_batched_path_not_used(self):
        x1, x2 = (random_pd(64, (0.3, 3.0), seed).entries for seed in (51, 52))
        r = build_realization("geomean:0.5", n_nodes=96)
        assert route(r, [x1, x2]) == "spectral"
        got = eval_pencil(r, [x1, x2]).entries
        ref = geomean_formula(x1, x2, 0.5)
        assert operator_norm(got - ref) <= 1e-11 * operator_norm(ref)
        r = build_realization("harmonic:0.3,0.7")
        assert route(r, [x1, x2]) == "spectral"
        got = eval_pencil(r, [x1, x2]).entries
        ref = np.linalg.inv(0.3 * np.linalg.inv(x1) + 0.7 * np.linalg.inv(x2))
        assert operator_norm(got - ref) <= 1e-12 * operator_norm(ref)

    @pytest.mark.parametrize("spectra", [((0.1, 10.0), (0.1, 10.0)),
                                         ((1e-2, 1.0), (0.1, 10.0))])
    @pytest.mark.parametrize("spec", ["geomean:0.5", "harmonic:0.3,0.7"])
    def test_admitted_points_against_mpmath(self, spec, spectra):
        # measured 1.4e-14..6.9e-14 of ||F|| for geomean:0.5@96 on the first
        # spectra (the batched path: 1.0e-13..5.1e-13)
        r = build_realization(spec, n_nodes=96)
        for seed in range(2):
            x1, x2 = spectral_point(seed, spectra, 5)
            assert route(r, [x1, x2]) == "spectral"
            ref = mp_complement(r, [x1, x2])
            got = eval_pencil(r, [x1, x2]).entries
            assert operator_norm(got - ref) <= 1e-12 * operator_norm(ref)

    def test_wide_mu_reproducer_takes_the_fallback(self):
        # mu spans about 1e-21 of mu_max, far below its eps * mu_max accuracy:
        # without the admission rule the spectral form is 8.6e3 ||F|| off here
        r = build_realization("geomean:0.5", n_nodes=24)
        x1, x2 = spectral_point(2, ((1.3e-6, 9.8e5), (2.6e-8, 2.7e7)), 4)
        assert route(r, [x1, x2]) == "batched"
        got = eval_pencil(r, [x1, x2]).entries
        ref = mp_complement(r, [x1, x2])
        # the batched path's own error at this point is 1.0e-7 of ||F||
        assert operator_norm(got - ref) <= 1e-6 * operator_norm(ref)

    @pytest.mark.parametrize("x1,x2,raises", [
        (np.diag([1.0, 2.0, 0.0]), np.eye(3), False),
        (np.eye(3), np.diag([1.0, 2.0, 0.0]), False),
        (np.diag([1.0, 2.0, -0.5]), np.eye(3), True),
        (np.eye(3), np.diag([1.0, 2.0, -1e-6]), True),
        (np.diag([1.0, 2.0, -1e-13]), np.eye(3), False),
        (np.eye(3), -np.eye(3), True),
    ])
    @pytest.mark.parametrize("spec", ["geomean:0.5", "harmonic:0.3,0.7"])
    def test_domain_errors_match_batched_path(self, spec, x1, x2, raises):
        r = build_realization(spec, n_nodes=24)
        got = domain_outcome(lambda: eval_pencil(r, [x1, x2]).entries)
        want = domain_outcome(lambda: batched_short(r, [x1, x2]))
        assert got[0] == want[0] == ("error" if raises else "ok")
        if raises:
            assert got[1] == want[1]
        else:
            assert operator_norm(got[1] - want[1]) <= 1e-13 * max(1.0, operator_norm(want[1]))


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
        monkeypatch.setattr("loewner.pencil._diagonal", fail)
        monkeypatch.setattr("loewner.pencil.np.diag", fail)  # the table is built once too
        for r, x in zip(realizations, points):
            eval_pencil(r, x)
            eval_complex(r, [xi + 1j * np.eye(4) for xi in x])

    @pytest.mark.parametrize("spec", ["geomean:0.5", "harmonic:0.3,0.7",
                                      "harmonic:0.2,0.3,0.5"])
    def test_layout_read_only(self, spec):
        r = build_realization(spec, n_nodes=24)
        (table, *_), (a0r, coeffs_r) = r._layout, r._rotated
        assert table.shape[0] == 1 + len(coeffs_r)
        for c in (a0r, *coeffs_r, table):
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


def shifted_parallel_sum_realization():
    """``X1 : (I + X2)``: a two-variable arrowhead pencil with A0 != 0."""
    a0 = np.diag([0.0, 1.0])
    return PencilRealization(np.eye(2)[0], SymMatrix(a0),
                             (SymMatrix(np.ones((2, 2))), SymMatrix(np.diag([0.0, 1.0]))))


def block_diagonal_realization():
    """A block-diagonal pencil in two variables with A0 != 0 whose last block
    ``B_4 = X1`` is decoupled (e_4 = 0); not arrowhead after the rotation."""
    return PencilRealization(np.array([0.48, 0.6, 0.64, 0.0]),
                             SymMatrix(np.diag([0.5, 0.0, 1.0, 0.0])),
                             (SymMatrix(np.diag([1.0, 2.0, 0.0, 1.0])),
                              SymMatrix(np.diag([0.0, 1.0, 3.0, 0.0]))))


# The `eval` path of each realization at a well-conditioned PD point: spectral
# (k = 1, or k = 2 with A0 = 0; wide-mu points fall back to batched), batched
# (other arrowhead pencils), parallel-sum (stored coefficients diagonal; points
# outside its admission rule fall back to dense) and dense (m = 1 or a
# non-diagonal aux block).
PATH_SPECS = {
    "arithmetic:0.4,0.6": "dense",
    "power:0.5": "spectral",
    "cauchy:1.0": "spectral",
    "geomean:0.5": "spectral",
    "harmonic:0.3,0.7": "spectral",
    "shifted-parallel-sum": "batched",
    "harmonic:0.2,0.3,0.5": "parallel-sum",
    "block-diagonal": "parallel-sum",
    "two-scale": "dense",
}
CUSTOM_REALIZATIONS = {"two-scale": two_scale_realization,
                       "shifted-parallel-sum": shifted_parallel_sum_realization,
                       "block-diagonal": block_diagonal_realization,
                       "complex-dense": complex_dense_realization,
                       "swapped-real": lambda: swapped_realization(False),
                       "swapped-complex": lambda: swapped_realization(True)}
PATH_REALIZATIONS = {spec: (CUSTOM_REALIZATIONS[spec]() if spec in CUSTOM_REALIZATIONS
                            else build_realization(spec, n_nodes=24))
                     for spec in PATH_SPECS}
# complex Hermitian coefficients on each complex path: the arrowhead
# `complex_coefficient_realization`, the same with a second, real diagonal
# coefficient (two variables and A0 != 0) and the dense Gram pencil
ADJOINT_REALIZATIONS = {
    "complex-arrowhead": complex_coefficient_realization(),
    "complex-two-variable": PencilRealization(
        np.eye(3)[0], complex_coefficient_realization().a0,
        complex_coefficient_realization().coeffs + (SymMatrix(np.diag([0.0, 2.0, 1.0])),)),
    "complex-gram": complex_gram_realization()}


def test_path_specs_cover_every_eval_path():
    rng = np.random.default_rng(37)
    assert {spec: route(r, [random_pd(3, (0.5, 2), rng) for _ in range(r.k)])
            for spec, r in PATH_REALIZATIONS.items()} == PATH_SPECS


@pytest.mark.parametrize("evaluate", ["eval", "eval_complex"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("spec", sorted(PATH_SPECS))
def test_non_finite_point_is_rejected_before_routing(spec, bad, evaluate):
    # before, each path failed its own way: a PencilDomainError with a NaN
    # eigenvalue, LinAlgError, or a RuntimeWarning first at complex points
    r = PATH_REALIZATIONS[spec]
    xs = [np.eye(3)] * (r.k - 1) + [np.diag([1.0, bad, 2.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            if evaluate == "eval":
                eval_pencil(r, xs)
            else:
                eval_complex(r, [x + 1j * np.eye(3) for x in xs])
    assert type(exc.value) is ValueError
    assert str(exc.value) == "point has a non-finite entry"


# one point just outside the domain per real path, admitted at a looser tol;
# harmonic's Cholesky fails there, so it goes to the dense path
@pytest.mark.parametrize("spec,path", [
    ("cauchy:1.0", "spectral"), ("shifted-parallel-sum", "batched"),
    ("arithmetic:0.4,0.6", "dense"), ("harmonic:0.2,0.3,0.5", "dense")])
def test_tol_reaches_every_real_path(spec, path):
    r = PATH_REALIZATIONS[spec]
    xs = [np.diag([1.0, 2.0, -1e-6])] * r.k
    with pytest.raises(PencilDomainError):
        eval_pencil(r, xs)
    assert route(r, xs, tol=1e-5) == path
    eval_pencil(r, xs, tol=1e-5)


class TestCertifiedOneByOnePencil:
    """An m = 1 pencil's complement is its symmetrized Z11: a shifted Cholesky
    admits it with no spectrum, and eigvalsh decides the rest as before."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        return calls

    def test_admitted_point_takes_no_spectrum(self, eigvalsh_calls):
        r = PATH_REALIZATIONS["arithmetic:0.4,0.6"]
        rng = np.random.default_rng(38)
        for n in (1, 4, 16):
            eval_pencil(r, [random_pd(n, (0.1, 10), rng) for _ in range(r.k)])
        assert eigvalsh_calls == []

    def test_values_and_errors_keep_their_bits(self, eigvalsh_calls, monkeypatch):
        r = PATH_REALIZATIONS["arithmetic:0.4,0.6"]
        rng = np.random.default_rng(39)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        # certified, deferred and admitted (-1.9e-9 >= -1e-9 * 2), and rejected
        points = [[random_pd(5, (0.1, 10), rng) for _ in range(r.k)]]
        points += [[q @ np.diag([low, 0.5, 1.0, 1.5, 2.0]) @ q.T] * r.k for low in (-1.9e-9, -1e-3)]
        got = [outcome_of(lambda: eval_pencil(r, x)) for x in points]
        assert eigvalsh_calls == [(1, 5, 5)] * 2
        monkeypatch.setattr("loewner.pencil._certified_psd", lambda z, tol: False)
        assert [outcome_of(lambda: eval_pencil(r, x)) for x in points] == got
        assert got[2] == ("PencilDomainError",
                          "pencil not PSD at X: Schur complement eigenvalue -1.000e-03")


def outcome_of(call):
    """The bytes of ``call()``'s SymMatrix, or its error's type name and message."""
    try:
        return call().entries.tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def wide_points(draw):
    """A `PATH_REALIZATIONS` realization and a `wide_tuples` point of it."""
    spec = draw(st.sampled_from(sorted(PATH_SPECS)))
    r = PATH_REALIZATIONS[spec]
    return r, draw(wide_tuples(r, draw(st.integers(1, 5))))


@st.composite
def wide_tuples(draw, r, n):
    """A tuple of n x n PD points with spectra 10**a for exponents a in
    [-8, 8], in random orthonormal bases; with ``flip`` the largest
    eigenvalue of every coordinate is negated, so the point leaves the domain."""
    flip = draw(st.booleans())
    items = []
    for _ in range(r.k):
        lam = 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)))
        if flip:
            lam[np.argmax(lam)] *= -1.0
        seed = draw(st.integers(0, 2**32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        items.append((q * lam) @ q.T)
    return MatrixTuple(tuple(items))


# Worst measured error against the rotated dense oracle, relative to the
# pencil norm: 2.2e-11 (geomean:0.5, batched path) over this test's 300
# derandomized draws, 1.7e-16 on the 7 of them that the parallel-sum path
# admits, and 4.1e-12 over an earlier set of 1200 numpy-generated points per
# realization; the bound leaves a 4.5x margin over the former.  Those figures
# hold for these draws only: over 12 000 further numpy-drawn wide-spectrum
# k = 2 points the oracle itself drifts up to 1.2e-6 from a 50-digit
# reference on 44 points, and the batched path reaches 3.1e-10 on 4.
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


@st.composite
def parallel_sum_points(draw):
    """A parallel-sum realization and a PD point with spectra 10**a for
    exponents a in [-2, 2], n <= 4: every B_j then has lambda_min above 1e-6
    max_k ||B_k||_F, so the point lies inside the path's admission rule."""
    r = PATH_REALIZATIONS[draw(st.sampled_from(["block-diagonal", "harmonic:0.2,0.3,0.5"]))]
    n = draw(st.integers(1, 4))
    items = []
    for _ in range(r.k):
        lam = 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        seed = draw(st.integers(0, 2**32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        items.append((q * lam) @ q.T)
    return r, MatrixTuple(tuple(items))


# all 200 derandomized draws reach `_parallel_sum_short`; worst error 3.9e-16
# of max(1, pencil norm), median 1.0e-16
@settings(settings.get_profile("loewner"), max_examples=200)
@given(parallel_sum_points())
def test_parallel_sum_path_matches_shorted_oracle(case):
    r, xt = case
    (got,) = _parallel_sum_short(r._layout[0], [x.entries[None] for x in xt.items], r.e)
    assert got is not None
    assert np.array_equal(eval_pencil(r, xt).entries, got)
    ref, znorm = rotated_oracle(r, xt)
    assert operator_norm(got - ref) <= WIDE_SPECTRUM_REL * max(1.0, znorm)


def mp_dense_complement(r, xs, dps=50):
    """``Z11 - Z12 Z22^-1 Z21`` of the assembled pencil rotated by the
    Householder reflection of e (not e1), all at ``dps`` digits; real points."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    m, n = r.m, xs[0].shape[0]
    with mpmath.workdps(dps):
        v = mp.matrix(r.e.tolist()) - mp.eye(m)[:, 0]
        q = mp.eye(m) - 2 * (v * v.T) / (v.T * v)[0]
        z = mp.zeros(m * n)
        for c, x in zip((r.a0, *r.coeffs), (np.eye(n), *xs)):
            c, x = q * mp.matrix(c.entries.tolist()) * q.T, mp.matrix(x.tolist())
            for a in range(m):
                for b in range(m):
                    z[a * n:(a + 1) * n, b * n:(b + 1) * n] += c[a, b] * x
        out = z[:n, :n] - z[:n, n:] * mp.inverse(z[n:, n:]) * z[n:, :n]
        return np.array(out.tolist(), dtype=float)


def parallel_sum_margin(r, xs):
    """``min_j lambda_min(B_j) / max_k ||B_k||_F`` of a block-diagonal pencil at xs."""
    n = xs[0].shape[0]
    blocks = [r.a0.entries[j, j] * np.eye(n)
              + sum(c.entries[j, j] * x for c, x in zip(r.coeffs, xs)) for j in range(r.m)]
    return (min(np.linalg.eigvalsh(b)[0] for b in blocks)
            / max(np.linalg.norm(b) for b in blocks))


def dense_reference(r, xs):
    """The batched kernel on the rotated, assembled pencil at the symmetrized
    point, its trailing block as one block, as `eval` returns it."""
    a0r, coeffs_r = r._rotated
    z, n = _assembled_pencil(a0r, coeffs_r, [SymMatrix(x).entries for x in xs]), xs[0].shape[0]
    return SymMatrix(one_point(_arrowhead_short(z[None, :n, :n], z[None, None, n:, n:],
                                                z[None, None, n:, :n], 1e-9))).entries


def pencil_norm(r, xs):
    return operator_norm(assemble_pencil(r, xs).entries)


class TestParallelSumPath:
    """Block-diagonal pencils that are not arrowhead after the rotation
    (`harmonic` with three or more weights) evaluate as the parallel sum
    ``(sum_j e_j^2 B_j^-1)^-1``; the one-block batched kernel on the assembled
    pencil is the fallback and, with a 50-digit complement of the rotated
    pencil, the oracle."""

    def test_dense_path_not_used(self):
        rng = np.random.default_rng(70)
        xs = [random_pd(64, (0.1, 10), rng).entries for _ in range(3)]
        r = PATH_REALIZATIONS["harmonic:0.2,0.3,0.5"]
        assert route(r, xs) == "parallel-sum"
        got = eval_pencil(r, xs).entries
        ref = np.linalg.inv(sum(w * np.linalg.inv(x) for w, x in zip((0.2, 0.3, 0.5), xs)))
        assert operator_norm(got - ref) <= 1e-12 * operator_norm(ref)
        x1, x2, eye = xs[0], xs[1], np.eye(64)
        r = PATH_REALIZATIONS["block-diagonal"]
        assert route(r, [x1, x2]) == "parallel-sum"
        got = eval_pencil(r, [x1, x2]).entries
        blocks = (0.5 * eye + x1, 2.0 * x1 + x2, eye + 3.0 * x2)
        ref = np.linalg.inv(sum(e * e * np.linalg.inv(b)
                                for e, b in zip((0.48, 0.6, 0.64), blocks)))
        assert operator_norm(got - ref) <= 1e-12 * operator_norm(ref)

    # measured at most 2.7e-16 of the pencil norm here (3.0e-13 of ||F||), and
    # 9.2e-16 over 599 random admitted points (n <= 4, spectra over 10**[0, 6.5])
    @pytest.mark.parametrize("span", [10.0, 1e4, 1e5])
    @pytest.mark.parametrize("spec", ["harmonic:0.2,0.3,0.5", "block-diagonal"])
    def test_admitted_points_against_mpmath(self, spec, span):
        r = PATH_REALIZATIONS[spec]
        for seed in range(2):
            xs = spectral_point(seed, [(1.0, span)] * r.k, 4)
            assert route(r, xs) == "parallel-sum"
            got = eval_pencil(r, xs).entries
            assert operator_norm(got - mp_dense_complement(r, xs)) <= 1e-13 * pencil_norm(r, xs)

    # B_j = (5/3) X1, (10/9) I, (2/3) I: the margin is 0.4 / sqrt(1 + s^2), 1.0025e-6
    # and 0.9975e-6; the admitted point is 3.8e-18 of the pencil norm off (2.0e-12 of ||F||)
    @pytest.mark.parametrize("s,admitted", [(3.99e5, True), (4.01e5, False)])
    def test_condition_bound(self, s, admitted):
        r = PATH_REALIZATIONS["harmonic:0.2,0.3,0.5"]
        q = np.array([[0.6, 0.8], [-0.8, 0.6]])
        xs = [q @ np.diag([1.0, s]) @ q.T, np.eye(2), np.eye(2)]
        # the admission floor is sqrt(DEFAULT_RANK_TOL) = 1e-6
        assert (parallel_sum_margin(r, xs) > np.sqrt(DEFAULT_RANK_TOL)) == admitted
        assert route(r, xs) == ("parallel-sum" if admitted else "dense")
        got = eval_pencil(r, xs).entries
        if admitted:
            assert operator_norm(got - mp_dense_complement(r, xs)) <= 1e-13 * pencil_norm(r, xs)
        else:
            assert np.array_equal(got, dense_reference(r, xs))

    def test_chain_takes_one_solve_per_link(self, linalg_calls):
        r = PATH_REALIZATIONS["harmonic:0.2,0.3,0.5"]
        xs = [random_pd(8, (0.5, 2.0), seed).entries for seed in range(3)]
        eval_pencil(r, xs)
        assert linalg_calls == [("cholesky", (1, 3, 8, 8)), ("solve", (1, 8, 8)),
                                ("solve", (1, 8, 8))]

    def test_decoupled_block_is_certified_but_not_chained(self, linalg_calls):
        # e_4 = 0: B_4 = X1 is in the certificate's stack, and three blocks make two links
        r = PATH_REALIZATIONS["block-diagonal"]
        xs = [random_pd(8, (0.5, 2.0), seed).entries for seed in range(2)]
        eval_pencil(r, xs)
        assert linalg_calls == [("cholesky", (1, 4, 8, 8)), ("solve", (1, 8, 8)),
                                ("solve", (1, 8, 8))]
        linalg_calls.clear()
        xs[0] = np.diag([1.0] * 7 + [1e-7])  # B_4 = X1 below the floor 1e-6 max ||B_k||_F
        assert _parallel_sum_short(r._layout[0], [x[None] for x in xs], r.e) == [None]
        assert linalg_calls[0] == ("cholesky", (1, 4, 8, 8))

    @pytest.mark.parametrize("xs,raises", [
        ([np.diag([1.0, 0.0, 2.0]), np.eye(3), np.eye(3)], False),
        ([np.eye(3), np.eye(3), np.diag([1.0, 2.0, -1e-13])], False),
        ([np.diag([1.0, 2.0, -0.5]), np.eye(3), np.eye(3)], True),
        ([np.eye(3), np.eye(3), np.diag([1.0, 2.0, -1e-6])], True),
        ([-np.eye(3)] * 3, True),
        ([np.full((2, 2), 0.81), np.eye(2), np.eye(2)], False),
    ])
    def test_fallbacks_match_dense_path(self, xs, raises):
        # the shifted Cholesky fails at each point: PSD-singular, barely and clearly
        # non-PSD, and a rank-one B_1 that an unshifted Cholesky passes
        self.assert_dense_outcome(PATH_REALIZATIONS["harmonic:0.2,0.3,0.5"], xs, raises)

    @pytest.mark.parametrize("xs,raises", [
        # B_4 = X1 is singular, then indefinite, while B_1..B_3 stay definite
        ([np.diag([1.0, 0.0]), np.eye(2)], False),
        ([np.diag([1.0, -0.25]), np.eye(2)], True),
        ([np.eye(2), np.diag([1.0, -0.5])], True),
    ])
    def test_decoupled_block_fallbacks_match_dense_path(self, xs, raises):
        self.assert_dense_outcome(PATH_REALIZATIONS["block-diagonal"], xs, raises)

    @staticmethod
    def assert_dense_outcome(r, xs, raises):
        assert _parallel_sum_short(r._layout[0], [x[None] for x in xs], r.e) == [None]
        got = domain_outcome(lambda: eval_pencil(r, xs).entries)
        want = domain_outcome(lambda: dense_reference(r, xs))
        assert got[0] == want[0] == ("error" if raises else "ok")
        assert got[1] == want[1] if raises else np.array_equal(got[1], want[1])
        assert raises or route(r, xs) == "dense"

    def test_complex_hermitian_point(self):
        r = PATH_REALIZATIONS["harmonic:0.2,0.3,0.5"]
        rng = np.random.default_rng(72)
        xs = [complex_pd(4, rng) for _ in range(3)]
        assert route(r, xs) == "parallel-sum"
        got = eval_pencil(r, xs).entries
        assert np.iscomplexobj(got)
        assert operator_norm(got - dense_reference(r, xs)) <= 1e-13 * pencil_norm(r, xs)


# One `eval` per path (spectral with k = 1 and k = 2, batched at a wide-mu
# point, parallel-sum, and dense at a PSD-singular parallel-sum point, at m = 1
# and for two-scale) and one `eval_complex` per path (spectral with k = 1 and
# k = 2, batched, dense).
SCIPY_LINALG_PROBE = """
import sys
import numpy as np
from loewner import (PencilRealization, SymMatrix, build_realization, eval_complex,
                     eval_pencil, random_pd)
""" + inspect.getsource(two_scale_realization) + """
x = [random_pd(4, (0.5, 2.0), s).entries for s in range(2)]
wide = np.diag([1e-8, 1.0, 1e8, 1.0])
singular = np.diag([1.0, 0.0, 2.0, 1.0])
for spec, point in [("power:0.5", x[:1]), ("geomean:0.5", x), ("geomean:0.5", [wide, x[1]]),
                    ("harmonic:0.2,0.3,0.5", [*x, x[0]]),
                    ("harmonic:0.2,0.3,0.5", [singular, *x]), ("arithmetic:0.4,0.6", x)]:
    eval_pencil(build_realization(spec, n_nodes=8), point)
eval_pencil(two_scale_realization(), x[:1])
for spec in ("power:0.5", "geomean:0.5", "cauchy:1.0", "arithmetic:0.4,0.6"):
    r = build_realization(spec, n_nodes=8)
    eval_complex(r, [xi + 1j * np.eye(4) for xi in x[:r.k]])
print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
"""


def test_eval_does_not_import_scipy_linalg():
    # importing scipy.linalg adds about 6.5 MB of resident memory
    src = str(Path(loewner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", SCIPY_LINALG_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

    # F(X*) = F(X)* for Hermitian coefficients, real or complex; at a point
    # with complex real parts X* is not conj X, and F(conj X) = conj F(X)
    # holds only for real coefficients.  Measured at most 9.2e-14 of
    # ||F|| (power:0.5) over 40 seeds of this draw per case.
    @pytest.mark.parametrize("spec,path", [
        ("power:0.5", "spectral"), ("cauchy:1.0", "batched"),
        ("harmonic:0.2,0.3,0.5", "dense"), ("complex-arrowhead", "spectral"),
        ("complex-two-variable", "batched"), ("complex-gram", "dense")])
    def test_adjoint_symmetry(self, spec, path):
        r = ADJOINT_REALIZATIONS.get(spec) or PATH_REALIZATIONS[spec]
        rng = np.random.default_rng(40)
        x = []
        for _ in range(r.k):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x.append((h + h.conj().T) / 2 + 1j * complex_pd(4, rng))
        adjoint = [xi.conj().T for xi in x]
        assert route_complex(r, x)[0] == route_complex(r, adjoint)[0] == path
        f = eval_complex(r, x)
        assert operator_norm(eval_complex(r, adjoint) - f.conj().T) <= 1e-12 * max(
            1.0, operator_norm(f))

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

    # the point may be a MatrixTuple, one matrix or a sequence of matrices;
    # it is read as given, never symmetrized
    def test_matrix_tuple_point(self):
        # a MatrixTuple is self-adjoint, so its imaginary part is zero
        x = MatrixTuple((random_pd(3, (0.5, 2), 1),))
        with pytest.raises(ValueError, match="definite"):
            eval_complex(cauchy_realization(1.0), x)
        with pytest.raises(DimensionMismatch, match="2 variables, point has 1"):
            eval_complex(build_realization("geomean:0.5", n_nodes=16), x)

    def test_bare_matrix_point(self):
        r = cauchy_realization(0.7)
        x = np.array([[1.0 + 2j, 0.5 - 1j], [-0.3 + 0.2j, 2.0 + 1j]])
        got = eval_complex(r, x)
        assert operator_norm(got - complex_oracle(r, [x])[0]) <= 1e-13
        assert np.array_equal(got, eval_complex(r, [x]))
        assert np.array_equal(got, eval_complex(r, x.tolist()))

    def test_list_of_arrays_point(self):
        r = build_realization("geomean:0.5", n_nodes=16)
        rng = np.random.default_rng(11)
        xs = [random_pd(3, (0.5, 2), rng).entries + 1j * random_pd(3, (0.5, 2), rng).entries
              for _ in range(2)]
        got = eval_complex(r, xs)
        for same in (tuple(xs), np.stack(xs), [x.tolist() for x in xs]):
            assert np.array_equal(got, eval_complex(r, same))
        with pytest.raises(DimensionMismatch, match="share one dimension"):
            eval_complex(r, [xs[0], xs[1][:2, :2]])
        with pytest.raises(DimensionMismatch, match="2 variables, point has 3"):
            eval_complex(r, xs + xs[:1])

    def test_non_square_coordinate_reports_its_shape(self):
        # each coordinate is checked square before the dimensions are compared
        r, x = build_realization("geomean:0.5", n_nodes=16), 1j * np.eye(2)
        message = r"^expected a square matrix, got shape \(2, 3\)$"
        for point in ([x, 1j * np.ones((2, 3))], [1j * np.ones((2, 3)), x]):
            with pytest.raises(ValueError, match=message):
                eval_complex(r, point)

    def test_complex_coefficients_match_dense_schur(self):
        # the pivot-row coupling of a complex-Hermitian coefficient is the
        # conjugate of the pivot-column coupling
        r, z = complex_coefficient_realization(), [np.array([[1 + 2j]])]
        assert operator_norm(eval_complex(r, z) - complex_oracle(r, z)[0]) <= 1e-13

    @pytest.mark.parametrize("spec,path", [
        ("power:0.5", "spectral"), ("geomean:0.5", "spectral"),
        ("cauchy:1.0", "batched"), ("harmonic:0.3,0.7", "batched"),
        ("shifted-parallel-sum", "batched"),
        ("harmonic:0.2,0.3,0.5", "dense"), ("block-diagonal", "dense"),
        ("arithmetic:0.4,0.6", "dense"), ("complex-dense", "dense"),
        ("swapped-real", "spectral"), ("swapped-complex", "spectral")])
    def test_every_path_matches_block_schur_oracle(self, spec, path):
        r = PATH_REALIZATIONS.get(spec) or CUSTOM_REALIZATIONS[spec]()
        rng = np.random.default_rng(36)
        for sign in (1, -1):
            x = []
            for _ in range(r.k):
                re = rng.standard_normal((4, 4))
                x.append((re + re.T) / 2 + sign * 1j * random_pd(4, (0.2, 3), rng).entries)
            ref, znorm = complex_oracle(r, x)
            assert route_complex(r, x)[0] == path
            assert operator_norm(eval_complex(r, x) - ref) <= 1e-12 * max(1.0, znorm)

    def test_complex_coefficients_match_dense_schur_matrix_point(self):
        r = complex_coefficient_realization()
        rng = np.random.default_rng(26)
        re = rng.standard_normal((3, 3))
        x = (re + re.T) / 2 + 1j * random_pd(3, (0.2, 3), rng).entries
        ref, znorm = complex_oracle(r, [x])
        assert operator_norm(eval_complex(r, [x]) - ref) <= 1e-12 * max(1.0, znorm)


def complex_oracle(r, x):
    """`block_schur_general` of the rotated, assembled pencil at a complex
    point, and that pencil's norm."""
    n = x[0].shape[0]
    rot = np.kron(householder_to_e1(r.e), np.eye(n))
    z = np.kron(r.a0.entries, np.eye(n))
    for c, xi in zip(r.coeffs, x):
        z = z + np.kron(c.entries, xi)
    z = rot @ z @ rot.T
    return block_schur_general(z, n), operator_norm(z)


def im_min(x):
    """The smallest |eigenvalue| of Im X1."""
    return float(np.abs(np.linalg.eigvalsh((x[0] - x[0].conj().T) / 2j)).min())


def route_complex(r, x):
    """``(path, out)`` of `eval_complex` at x."""
    names, values = _route_complex(r, [np.asarray(xi, dtype=complex)[None] for xi in x])
    return names[0], values[0]


def spectral_complex(r, x):
    """The complex spectral form at x, None when it is not admitted."""
    return _spectral_complex(r._layout[0], [xi[None] for xi in x], [im_min(x)])[0]


# Z - 2i I is nilpotent: Z is defective, with Im Z of eigenvalues 1 and 3
DEFECTIVE_Z = np.diag([1.0, -1.0]) + 1j * np.array([[2.0, 1.0], [1.0, 2.0]])
E21 = np.array([[0.0, 0.0], [1.0, 0.0]])


def defective_family_point(spec, eps):
    """``Z + eps E21`` (kappa_1(V) about 2 / sqrt(eps)) as the point of a
    `spec` realization: for k = 2, ``X1 = (1 + i) I`` and ``X2 = X1 Z``, so
    that ``X1^-1 X2 = Z`` and both imaginary parts are definite."""
    r = PATH_REALIZATIONS[spec]
    z = DEFECTIVE_Z + eps * E21
    return r, ([z] if r.k == 1 else [(1 + 1j) * np.eye(2), (1 + 1j) * z])


class TestComplexSpectralPath:
    """`power`, `sqrt` and `geomean` (m > 2) evaluate at complex points with one
    ``eig``; `_arrowhead_schur_complex` is the fallback and, with
    `block_schur_general`, the oracle."""

    @pytest.mark.parametrize("spec", ["power:0.5", "geomean:0.5"])
    def test_batched_path_not_used(self, spec):
        r = build_realization(spec, n_nodes=96)
        rng = np.random.default_rng(61)
        x = [rng.standard_normal((16, 16)) for _ in range(r.k)]
        x = [(a + a.T) / 2 + 1j * random_pd(16, (0.1, 10), rng).entries for a in x]
        ref = one_point(_arrowhead_schur_complex(r._layout[0], [xi[None] for xi in x]))
        assert route_complex(r, x)[0] == "spectral"
        assert operator_norm(eval_complex(r, x) - ref) <= 1e-11 * operator_norm(ref)

    @pytest.mark.parametrize("spec", ["power:0.5", "geomean:0.5"])
    def test_defective_point_takes_the_fallback(self, spec):
        # numpy's eig returns kappa_1(V) of about 9e7 here
        r, x = defective_family_point(spec, 0.0)
        assert route_complex(r, x)[0] == "batched"
        got = eval_complex(r, x)
        ref, znorm = complex_oracle(r, x)
        assert operator_norm(got - ref) <= 1e-13 * max(1.0, znorm)

    # kappa_1(V) is 2.0e2, 8.9e2, 2.0e3 and 2.0e4: the bound sits in (8.9e2, 2.0e3]
    @pytest.mark.parametrize("eps,admitted", [(1e-4, True), (5e-6, True),
                                              (1e-6, False), (1e-8, False)])
    @pytest.mark.parametrize("spec", ["power:0.5", "geomean:0.5"])
    def test_condition_bound_against_mpmath(self, spec, eps, admitted):
        r, x = defective_family_point(spec, eps)
        mu, v = np.linalg.eig(x[0] if r.k == 1 else np.linalg.solve(*x))
        kappa = np.linalg.norm(v, 1) * np.linalg.norm(np.linalg.inv(v), 1)
        assert (kappa < _EIG_COND_MAX) == admitted
        assert route_complex(r, x)[0] == ("spectral" if admitted else "batched")
        got = eval_complex(r, x)
        ref = mp_complement(r, x)
        # measured at most 3.8e-12 of ||F|| on the admitted points and 3.2e-14
        # on the fallbacks; forced past the bound, the spectral form is off by
        # 1.0e-11 (eps = 1e-6) and 1.8e-10 (eps = 1e-8) for power:0.5
        assert operator_norm(got - ref) <= (2e-11 if admitted else 1e-13) * operator_norm(ref)

    def test_zero_auxiliary_diagonal_raises_from_the_batched_path(self):
        # d_1 = 0 at every mu: the pivot rule leaves the point to the batched
        # path, which raises exactly as before
        r = PencilRealization(np.eye(3)[0], SymMatrix(np.zeros((3, 3))),
                              (SymMatrix(np.diag([1.0, 0.0, 1.0])),))
        assert r._layout[2] == ("spectral", "batched")
        x = [np.diag([1.0, -1.0]) + 1j * np.eye(2)]
        assert spectral_complex(r, x) is None
        with pytest.raises(SingularPivotComplement) as exc:
            eval_complex(r, x)
        assert str(exc.value) == (
            "pivot complement block singular (sigma_min = 0.000e+00); "
            "imaginary-part positivity violated beyond tolerance")


@st.composite
def herglotz_points(draw):
    """A `power:0.5` or `geomean:0.5` realization and an n x n tuple
    ``A + s i B`` (n in {1, 2, 3, 5}, s = +-1) with B PD, spectrum in
    [10**a, 10], and A of norm up to about 10."""
    r = PATH_REALIZATIONS[draw(st.sampled_from(["power:0.5", "geomean:0.5"]))]
    n = draw(st.sampled_from([1, 2, 3, 5]))
    sign = draw(st.sampled_from([1, -1]))
    lo = 10.0 ** draw(st.floats(-3.0, 0.0))
    scale = 10.0 ** draw(st.floats(-1.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = []
    for _ in range(r.k):
        a = scale * rng.standard_normal((n, n))
        x.append((a + a.T) / 2 + sign * 1j * random_pd(n, (lo, 10.0), rng).entries)
    return r, x


# worst measured over these 200 draws: 1.1e-15 of the pencil norm against
# either oracle, and an exact conjugate symmetry
@settings(settings.get_profile("loewner"), max_examples=200)
@given(herglotz_points())
def test_spectral_complex_matches_batched_and_dense(case):
    r, x = case
    path, fast = route_complex(r, x)
    assert path == "spectral"
    assert np.array_equal(eval_complex(r, x), fast)
    batched = one_point(_arrowhead_schur_complex(r._layout[0], [xi[None] for xi in x]))
    ref, znorm = complex_oracle(r, x)
    assert operator_norm(fast - batched) <= 1e-12 * max(1.0, znorm)
    assert operator_norm(fast - ref) <= 1e-12 * max(1.0, znorm)
    conj = spectral_complex(r, [xi.conj() for xi in x])
    assert operator_norm(conj - fast.conj()) <= 1e-10 * max(1.0, operator_norm(fast))



def coordinate_stacks(points):
    """One (s, n, n) stack per coordinate of s points."""
    return [np.stack(c) for c in zip(*points)]


def symmetric_point(rng, k, n, spectra):
    """k exactly symmetric n x n matrices with the given spectra in random bases."""
    out = []
    for lam in spectra[:k]:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = (q * lam) @ q.T
        out.append((x + x.T) / 2.0)
    return out


def mixed_real_points(r, rng, n=3):
    """PD points, points whose second coordinate has a spread spectrum (the
    two-generator form leaves them to the batched path), and points with a
    negative eigenvalue in the first or in every coordinate (outside the
    domain, or at its edge; the Cholesky of the two-generator form fails
    there)."""
    spectra = [[[0.5, 1.0, 2.0], [0.3, 1.5, 3.0], [1.0, 2.0, 4.0]],
               [[1.0, 1.0, 1.0], [1e-12, 1.0, 10.0], [0.5, 1.0, 2.0]],
               [[-1.0, 1.0, 2.0], [0.5, 1.0, 2.0], [0.5, 1.0, 2.0]],
               [[-1.0, -2.0, -3.0]] * 3,
               [[1.0, 2.0, -1e-6], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]]
    return [symmetric_point(rng, r.k, n, [s[:n] for s in spectra[i % 5]]) for i in range(10)]


def mixed_complex_points(r, rng, n=2):
    """Points ``A + s i B`` (B PD, one sign s per point) and, for the spectral
    realizations, near-defective points that `_spectral_complex` leaves to
    the batched path."""
    points = []
    for i in range(6):
        sign = 1 if i % 3 else -1
        points.append([a + sign * 1j * b for a, b in zip(
            symmetric_point(rng, r.k, n, [rng.normal(size=n)] * r.k),
            symmetric_point(rng, r.k, n, [rng.uniform(0.1, 3.0, n)] * r.k))])
    if r is PATH_REALIZATIONS["power:0.5"] or r is PATH_REALIZATIONS["geomean:0.5"]:
        for eps in (0.0, 1e-8, 1e-4):
            z = DEFECTIVE_Z + eps * E21
            points.append([z] if r.k == 1 else [(1 + 1j) * np.eye(2), (1 + 1j) * z])
    return points


def outcome(fn, *args):
    """``fn(*args)`` as raw bytes, or the type and message of the domain error it raises."""
    try:
        value = fn(*args)
    except (PencilDomainError, SingularPivotComplement) as exc:
        return type(exc), str(exc)
    return np.asarray(value.entries if isinstance(value, SymMatrix) else value).tobytes()


def stacked_outcome(value, hermitian):
    if isinstance(value, Exception):
        return type(value), str(value)
    return (SymMatrix(value).entries if hermitian else value).tobytes()


class TestStackedRoute:
    """`_route` and `_route_complex` take a stack of points: each point's path,
    value (bit for bit) and domain error are those of a stack of one, the
    public `eval` and `eval_complex`, on every path."""

    @pytest.mark.parametrize("spec", sorted(PATH_SPECS))
    def test_real_slices_equal_single_points(self, spec):
        r = PATH_REALIZATIONS[spec]
        points = mixed_real_points(r, np.random.default_rng(71))
        names, values = _route(r, coordinate_stacks(points), DEFAULT_PSD_TOL)
        for point, name, value in zip(points, names, values):
            assert name == route(r, point)
            assert stacked_outcome(value, True) == outcome(eval_pencil, r, point)
        admitted = [not isinstance(v, PencilDomainError) for v in values]
        assert any(admitted) and not all(admitted)

    def test_real_stack_uses_both_two_generator_paths(self):
        r = PATH_REALIZATIONS["geomean:0.5"]
        points = mixed_real_points(r, np.random.default_rng(71))
        names, _ = _route(r, coordinate_stacks(points), DEFAULT_PSD_TOL)
        assert set(names) == {"spectral", "batched"}

    @pytest.mark.parametrize("spec", sorted(PATH_SPECS))
    def test_complex_slices_equal_single_points(self, spec):
        r = PATH_REALIZATIONS[spec]
        points = mixed_complex_points(r, np.random.default_rng(72))
        arrays = coordinate_stacks(points)
        names, values = _route_complex(r, arrays)
        for point, name, value in zip(points, names, values):
            assert name == route_complex(r, point)[0]
            assert stacked_outcome(value, False) == outcome(eval_complex, r, point)
        if r._layout[2][0] == "spectral":
            assert set(names) == {"spectral", "batched"}

    def test_one_out_of_domain_point_marks_only_itself(self):
        for spec in ("power:0.5", "geomean:0.5", "harmonic:0.2,0.3,0.5", "two-scale",
                     "shifted-parallel-sum", "arithmetic:0.4,0.6"):
            r = PATH_REALIZATIONS[spec]
            rng = np.random.default_rng(73)
            points = [symmetric_point(rng, r.k, 3, [[0.5, 1.0, 2.0]] * r.k) for _ in range(5)]
            points[2][0] = -points[2][0]
            values = _route(r, coordinate_stacks(points), DEFAULT_PSD_TOL)[1]
            assert [isinstance(v, PencilDomainError) for v in values] == [False] * 2 + [True] + [False] * 2

    def test_singular_pivot_marks_every_point(self):
        r = PencilRealization(np.array([1.0, 0.0]), np.zeros((2, 2)), (np.diag([1.0, 0.0]),))
        points = [[np.eye(2) + s * 1j * np.eye(2)] for s in (1, -1, 2)]
        arrays = coordinate_stacks(points)
        values = _route_complex(r, arrays)[1]
        assert [stacked_outcome(v, False) for v in values] == [
            outcome(eval_complex, r, p) for p in points]
        assert all(isinstance(v, SingularPivotComplement) for v in values)

    def test_one_singular_pivot_marks_only_itself(self):
        # cauchy:1.0 evaluates complex points on the batched kernel alone;
        # B_1 = I + X is singular to 1e-14 at the third point only
        r = PATH_REALIZATIONS["cauchy:1.0"]
        assert r._layout[2] == ("batched",)
        rng = np.random.default_rng(74)
        points = [[symmetric_point(rng, 1, 2, [rng.normal(size=2)])[0]
                   + 1j * symmetric_point(rng, 1, 2, [rng.uniform(0.1, 3.0, 2)])[0]]
                  for _ in range(4)]
        points.insert(2, [np.diag([-1.0, 2.0]) + 1e-14j * np.eye(2)])
        arrays = coordinate_stacks(points)
        names, values = _route_complex(r, arrays)
        assert names == ["batched"] * 5
        assert [stacked_outcome(v, False) for v in values] == [
            outcome(eval_complex, r, p) for p in points]
        assert [isinstance(v, SingularPivotComplement) for v in values] == [
            False, False, True, False, False]
        assert str(values[2]) == ("pivot complement block singular (sigma_min = 1.000e-14); "
                                  "imaginary-part positivity violated beyond tolerance")

    def test_admission_scale_counts_the_pivot(self):
        # z = 10 mu dominates the scale max(1, max z, max d): at mu = -1e-9 the
        # complement -1e-8 clears -1e-9 * 50 but not -1e-9 * max(1, max d)
        r = PencilRealization(np.eye(2)[0], np.diag([0.0, 1.0]),
                              (np.array([[10.0, 1.0], [1.0, 0.1]]),))
        points = [[np.diag([-eps, 5.0])] for eps in (1e-9, 1e-8, 1e-9)]
        names, values = _route(r, coordinate_stacks(points), DEFAULT_PSD_TOL)
        assert names == ["spectral"] * 3
        assert [isinstance(v, PencilDomainError) for v in values] == [False, True, False]
        assert [stacked_outcome(v, True) for v in values] == [
            outcome(eval_pencil, r, p) for p in points]

    @settings(settings.get_profile("loewner"), max_examples=100)
    @given(st.data())
    def test_wide_spectrum_stacks_equal_single_points(self, data):
        # stacks of `wide_points` of one realization and size: many points
        # leave the domain, by every check, or fall back to another path
        r, first = data.draw(wide_points())
        points = [x.arrays() for x in [first, *data.draw(
            st.lists(wide_tuples(r, first.n), min_size=1, max_size=5))]]
        names, values = _route(r, coordinate_stacks(points), DEFAULT_PSD_TOL)
        for point, name, value in zip(points, names, values):
            assert name == route(r, point)
            assert stacked_outcome(value, True) == outcome(eval_pencil, r, point)

    # messages recorded from `eval` before it became a stack of one
    @pytest.mark.parametrize("spec, point, message", [
        ("cauchy:1.0", [-2.0 * np.eye(3)], "trailing-block eigenvalue -1.000e+00"),
        ("cauchy:1.0", [np.diag([1.0, 2.0, -1.0])],
         "range condition violated (1.000e+00 > 3.000e-05)"),
        ("power:0.5", [np.diag([1.0, 2.0, -1e-6])], "Schur complement eigenvalue -4.804e-05"),
        ("geomean:0.5", [np.eye(3), np.diag([1.0, 2.0, -1e-6])],
         "Schur complement eigenvalue -4.804e-05"),
        ("geomean:0.5", [np.diag([1.0, 2.0, -1.0]), np.eye(3)],
         "trailing-block eigenvalue -3.888e+01"),
        ("shifted-parallel-sum", [np.diag([1.0, 2.0, -1e-6])] * 2,
         "Schur complement eigenvalue -1.000e-06"),
        ("harmonic:0.2,0.3,0.5", [np.diag([1.0, 2.0, -1e-6])] * 3,
         "trailing-block eigenvalue -1.437e-06"),
        ("arithmetic:0.4,0.6", [np.diag([1.0, 2.0, -1e-6])] * 2,
         "Schur complement eigenvalue -1.000e-06"),
    ])
    def test_public_eval_raises_the_same_message(self, spec, point, message):
        r = cauchy_realization(1.0) if spec == "cauchy:1.0" else PATH_REALIZATIONS[spec]
        with pytest.raises(PencilDomainError) as exc:
            eval_pencil(r, point)
        assert str(exc.value) == "pencil not PSD at X: " + message
