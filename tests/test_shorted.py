"""Tests for the shorted operator and its variational oracle."""

import hashlib
from unittest import mock

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
from loewner import shorted as shorted_module
from loewner.numlin import DEFAULT_PSD_TOL, _certified_psd, operator_norm
from loewner.shorted import DEFAULT_RANK_TOL


def random_psd(n, rng, rank=None):
    """Random PSD matrix, optionally rank deficient."""
    r = rank if rank is not None else n
    g = rng.standard_normal((n, r))
    return g @ g.T


def _gram(seed, n, rank, cplx=False):
    """``G G*`` for a seeded n x rank Gaussian G."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + (1j * rng.standard_normal((n, rank)) if cplx else 0.0)
    return SymMatrix(g @ g.conj().T).entries


def _z22_at_the_cut(seed, cplx):
    """PSD Z, 6 x 6 with pivot 3, whose Z22 has the eigenvalue 1e-14 lambda_max,
    under the rank cut but not zero, and ``Z21 = Z22^(1/2) C``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 6)) + (1j * rng.standard_normal((3, 6)) if cplx else 0.0)
    u = np.linalg.qr(g[:, :3])[0]
    root = (u * np.sqrt([1e-14, 0.5, 2.0])) @ u.conj().T
    c = g[:, 3:]
    z21 = root @ c
    return SymMatrix(np.block([[c.conj().T @ c + np.eye(3), z21.conj().T],
                               [z21, root @ root]])).entries


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


class TestCertifiedAdmission:
    """`shorted_operator` admits Z by a shifted Cholesky when it can; the
    spectrum of Z decides every rejection, with the same bytes as before."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        return calls

    @pytest.mark.parametrize("cplx", [False, True])
    def test_full_rank_trailing_block_takes_no_spectrum_of_z(self, eigvalsh_calls, cplx):
        # rank 30 of 32, as the benchmark's rank-deficient Z: Z22 keeps full rank
        rng = np.random.default_rng(4)
        g = rng.standard_normal((32, 30)) + (1j * rng.standard_normal((32, 30)) if cplx else 0.0)
        z = g @ g.conj().T / 32
        for s in (2, 8, 32):
            shorted_operator(z, s)
        assert eigvalsh_calls == []

    def test_rank_deficient_trailing_block_takes_the_spectrum_once(self, eigvalsh_calls):
        # Z of rank 2, so the rank cut drops an eigenvalue of its 3 x 3 Z22
        z = random_psd(6, np.random.default_rng(5), rank=2)
        assert _certified_psd(z, DEFAULT_PSD_TOL)
        shorted_operator(z, 3)
        assert eigvalsh_calls == [(6, 6)]

    def test_range_check_the_diagonal_cannot_settle_takes_the_spectrum_once(
            self, eigvalsh_calls, monkeypatch):
        # ||(I - P)Z21|| = 1.7e-5 lies between 1e-5 * max diag Z = 1e-5 and
        # 1e-5 * ||Z|| = 2e-5: only the spectrum shows that the check passes
        d = 1.2e-5
        z = np.array([[1.0, 1.0, d], [1.0, 1.0, d], [d, d, 0.0]])
        assert _certified_psd(z, DEFAULT_PSD_TOL)
        got = shorted_operator(z, 2)
        assert eigvalsh_calls == [(3, 3)]
        monkeypatch.setattr("loewner.shorted._permuted_cholesky", lambda zm, s, tol: None)
        assert shorted_operator(z, 2).s_short.entries.tobytes() == got.s_short.entries.tobytes()

    def test_certified_admission_keeps_every_bit(self, monkeypatch):
        # the inputs that the permuted Cholesky admits but does not short: s = N,
        # and a Z22 that the rank cut truncates
        rng = np.random.default_rng(6)
        cases = [(random_psd(5, rng, 5), 5), (random_psd(6, rng, 3), 6),
                 (_z22_at_the_cut(2, False), 3), (_z22_at_the_cut(3, True), 3)]
        assert all(shorted_module._permuted_cholesky(z, s, DEFAULT_PSD_TOL) is not None
                   for z, s in cases)
        got = [shorted_operator(z, s) for z, s in cases]
        assert [r.rank_used for r in got] == [0, 0, 2, 2]
        monkeypatch.setattr("loewner.shorted._permuted_cholesky", lambda zm, s, tol: None)
        for (z, s), r in zip(cases, got):
            want = shorted_operator(z, s)
            assert want.s_short.entries.tobytes() == r.s_short.entries.tobytes()
            assert want.c_factor.tobytes() == r.c_factor.tobytes()
            assert want.rank_used == r.rank_used

    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
    ROTATED = Q @ np.diag([-3e-6, 0.5, 1.0, 2.0, 4.0, 8.0]) @ Q.T
    # the messages as the eigvalsh-only admission wrote them
    REJECTIONS = [
        (np.diag([1.0, -1.0]), 1, 1e-9, NotPositiveSemidefinite,
         "shorted_operator: eigenvalue -1.000e+00 below -1.0e-09 * max(1, 1.000e+00)"),
        (np.array([[1.0, 2e-5], [2e-5, 0.0]]), 1, 1e-9, RangeConditionViolation,
         "||(I - P)Z21|| = 2.000e-05 exceeds 1.0e-05 * ||Z|| = 1.000e-05"),
        (np.array([[4.0, 6e-5j, 0.0], [-6e-5j, 0.0, 0.0], [0.0, 0.0, 1.0]]), 1, 1e-9,
         RangeConditionViolation,
         "||(I - P)Z21|| = 6.000e-05 exceeds 1.0e-05 * ||Z|| = 4.000e-05"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 1, np.nan, NotPositiveSemidefinite,
         "shorted_operator: eigenvalue -1.000e+00 below -nan * max(1, 3.000e+00)"),
        (ROTATED, 2, 1e-9, NotPositiveSemidefinite,
         "shorted_operator: eigenvalue -3.000e-06 below -1.0e-09 * max(1, 8.000e+00)"),
        (ROTATED, 2, 1e-7, NotPositiveSemidefinite,
         "shorted_operator: eigenvalue -3.000e-06 below -1.0e-07 * max(1, 8.000e+00)"),
    ]

    @pytest.mark.parametrize("z, s, tol, error, message", REJECTIONS)
    def test_rejection_messages_keep_their_bytes(self, z, s, tol, error, message):
        with pytest.raises(error) as info:
            shorted_operator(z, s, tol)
        assert str(info.value) == message


class TestByteIdentity:
    """The value, rank, C factor or exception of a fixed list of inputs, one
    or more for each route of `shorted_operator`, hashed together: which
    route takes an input must move no bit of its outcome."""

    DIGEST = "b8bad27c2455acade37982bf1354aff63db9a95d92836363ea92130296e0c2ec"
    D = 1.2e-5
    # (Z, s, tol, route): "cholesky" takes no spectrum; "spectral" takes one
    # after the permuted Cholesky failed or, for s = N, never ran; "spectral,
    # admitted" takes one after the permuted Cholesky completed
    CASES = [
        (_gram(0, 8, 8), 3, DEFAULT_PSD_TOL, "cholesky"),
        (_gram(1, 6, 6, cplx=True), 2, DEFAULT_PSD_TOL, "cholesky"),
        (_gram(2, 5, 5), 5, DEFAULT_PSD_TOL, "cholesky"),
        (_gram(3, 5, 3, cplx=True), 5, DEFAULT_PSD_TOL, "cholesky"),
        (_z22_at_the_cut(0, False), 3, DEFAULT_PSD_TOL, "spectral, admitted"),
        (_z22_at_the_cut(1, True), 3, DEFAULT_PSD_TOL, "spectral, admitted"),
        (_gram(0, 6, 2), 3, DEFAULT_PSD_TOL, "spectral"),
        (np.array([[1.0, 1.0, D], [1.0, 1.0, D], [D, D, 0.0]]), 2, DEFAULT_PSD_TOL, "spectral"),
        (np.diag([1.0, -1.0]), 2, DEFAULT_PSD_TOL, "spectral"),
    ] + [(z, s, tol, "spectral") for z, s, tol, _, _ in TestCertifiedAdmission.REJECTIONS]

    def test_outcomes_keep_their_bytes_on_their_routes(self, linalg_calls):
        permuted, admitted = shorted_module._permuted_cholesky, []

        def spy(zm, s, tol):
            w_adj = permuted(zm, s, tol)
            admitted.append(w_adj is not None)
            return w_adj

        digest = hashlib.sha256()
        with mock.patch.object(shorted_module, "_permuted_cholesky", spy):
            for z, s, tol, route in self.CASES:
                linalg_calls.clear()
                admitted.clear()
                out = _outcome(z, s, tol)
                spectral = any(name in ("eigh", "eigvalsh") for name, _ in linalg_calls)
                assert spectral == (route != "cholesky")
                if spectral:
                    assert any(admitted) == (route == "spectral, admitted")
                if isinstance(out, tuple):
                    digest.update(f"{out[0].__name__}: {out[1]}\n".encode())
                    continue
                for a in (out.s_short.entries, out.c_factor):
                    digest.update(f"{a.dtype.str} {a.shape}\n".encode() + a.tobytes())
                digest.update(f"rank {out.rank_used}\n".encode())
        assert digest.hexdigest() == self.DIGEST


class TestNonFiniteInput:
    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_variational_infimum_rejects_a_non_finite_vector(self, monkeypatch, v):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigensolve ran"))
        with pytest.raises(ValueError, match="^vector has a non-finite entry$"):
            variational_infimum(np.eye(2), [v])
        with pytest.raises(ValueError, match="^vector has a non-finite entry$"):
            variational_infimum(np.eye(3), [1.0, v])

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_block_schur_general_rejects_a_non_finite_entry(self, monkeypatch, v):
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("svd ran"))
        for s in (1, 2):
            with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
                block_schur_general(np.diag([1.0, v]), s)


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


def _outcome(z, s, tol=DEFAULT_PSD_TOL):
    """`shorted_operator`'s result, or its exception's type and message."""
    try:
        return shorted_operator(z, s, tol)
    except ValueError as exc:
        return type(exc), str(exc)


def _routes(z, s):
    """The outcome of ``shorted_operator(z, s)``, whether its Cholesky route
    ran, and the outcome with that route turned off (eigh only)."""
    factor, ran = shorted_module._certified_cholesky, []

    def spy(z22):
        low = factor(z22)
        ran.append(low is not None)
        return low

    with mock.patch.object(shorted_module, "_certified_cholesky", spy):
        got = _outcome(z, s)
    with mock.patch.object(shorted_module, "_certified_cholesky", lambda z22: None):
        want = _outcome(z, s)
    return got, any(ran), want


@st.composite
def trailing_block_at_the_cut(draw):
    """PSD ``Z`` of size N in [2, 8], real or complex, pivot s in [1, N - 1],
    whose Z22 has lambda_max 10**a (a in [-8, 8]) and lambda_min at
    ``DEFAULT_RANK_TOL lambda_max`` times 10**[log10 0.25, log10 4], or
    exact zeros in its spectrum.  ``Z21 = Z22^(1/2) C`` and ``Z11 = C* C +
    P``, with C and the complement P spread over 10**[-8, 8]; on a coin
    Z21 gains mass along the eigenvector of lambda_min(Z22)."""
    n = draw(st.integers(2, 8))
    s = draw(st.integers(1, n - 1))
    m, cplx = n - s, draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if cplx else g

    top = 10.0 ** draw(st.floats(-8.0, 8.0))
    ratio = DEFAULT_RANK_TOL * 10.0 ** draw(st.floats(np.log10(0.25), np.log10(4.0)))
    mu = top * ratio ** rng.uniform(0.0, 1.0, m)
    mu[0], mu[-1] = top * ratio, top
    if m > 1 and draw(st.booleans()):
        mu[: draw(st.integers(1, m - 1))] = 0.0
    u = np.linalg.qr(gauss(m, m))[0]
    root = (u * np.sqrt(mu)) @ u.conj().T
    c = gauss(m, s) * 10.0 ** rng.uniform(-4.0, 4.0, s)
    q = np.linalg.qr(gauss(s, s))[0]
    p = (q * 10.0 ** rng.uniform(-8.0, 8.0, s)) @ q.conj().T
    z21 = root @ c
    if draw(st.booleans()):
        kick = 10.0 ** draw(st.floats(-12.0, -2.0)) * np.sqrt(top)
        z21 = z21 + kick * np.outer(u[:, 0], gauss(s))
    z = np.block([[c.conj().T @ c + p, z21.conj().T], [z21, root @ root]])
    return z, s


# A rounding of Z22 by eps ||Z22|| moves the complement by up to kappa(Z22)
# eps ||C||^2, C = Z22^(-1/2) Z21, so the two routes may differ by that much.
# Measured: at most 0.99 kappa(Z22) eps (||Z|| + ||C||^2) over the 2482
# certified draws of 4400 random ones; 227 of these 400 take the route.
@settings(settings.get_profile("loewner"), max_examples=400)
@given(trailing_block_at_the_cut())
def test_cholesky_route_cuts_nothing_that_eigh_would(case):
    z, s = case
    got, certified, want = _routes(z, s)
    if not certified:
        assert isinstance(got, tuple) == isinstance(want, tuple)
        if isinstance(got, tuple):
            assert got == want
        else:
            assert got.s_short.entries.tobytes() == want.s_short.entries.tobytes()
            assert got.rank_used == want.rank_used
        return
    assert not isinstance(want, tuple), want
    assert got.rank_used == want.rank_used == z.shape[0] - s
    gap = operator_norm(got.s_short.entries - want.s_short.entries)
    scale = operator_norm(z) + operator_norm(want.c_factor) ** 2
    assert gap <= 4.0 * np.linalg.cond(z[s:, s:]) * np.finfo(float).eps * scale


def test_cholesky_route_against_mpmath():
    """The certified complement of ``Z = G G*`` (N <= 6, the columns of G
    scaled by 10**[-4, 4], so the spectrum of Z spans 10**[-8, 8]) against
    the 50-digit complement of the same Z.  Measured on these 400 draws: at
    most 9.3e-13 ||Z|| on the 389 certified (the eigh route: 1.4e-11 on the
    same draws), and 2.7e-13 ||Z|| on 3097 certified of 3200 other draws."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    certified = 0
    for _ in range(400):
        n = int(rng.integers(2, 7))
        s, cplx = int(rng.integers(1, n)), bool(rng.integers(2))
        g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
        g = g * 10.0 ** rng.uniform(-4.0, 4.0, n)
        z = SymMatrix(g @ g.conj().T).entries
        got, ran, _ = _routes(z, s)
        if not ran:
            continue
        certified += 1
        with mpmath.workdps(50):
            zz = mpmath.matrix(z.tolist())
            exact = zz[:s, :s] - zz[:s, s:] * mpmath.inverse(zz[s:, s:]) * zz[s:, :s]
            exact = np.array(exact.tolist(), dtype=z.dtype)
        assert operator_norm(got.s_short.entries - exact) <= 5e-12 * operator_norm(z)
    assert certified >= 350


@pytest.mark.parametrize("cplx", [False, True])
def test_c_factor_of_the_cholesky_route_has_the_eigh_bytes(cplx):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6)) + (1j * rng.standard_normal((6, 6)) if cplx else 0.0)
    got, ran, want = _routes(g @ g.conj().T, 2)
    assert ran
    assert got.rank_used == want.rank_used == 4
    assert got.c_factor.dtype == want.c_factor.dtype and got.c_factor.shape == (4, 2)
    assert got.c_factor.tobytes() == want.c_factor.tobytes()
    assert got.c_factor is got.c_factor
