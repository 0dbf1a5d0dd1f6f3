"""The permuted-Cholesky route of `shorted_operator`: one Cholesky of
``[[Z22, Z21], [Z12, Z11 + c I]]`` admits Z and shorts it when a shifted
Cholesky of Z22 proves that the rank cut drops nothing; every other Z takes
the spectral reference flow (``eigvalsh``, then eigh)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import shorted as shorted_module
from loewner.numlin import (
    DEFAULT_PSD_TOL,
    NotPositiveSemidefinite,
    SymMatrix,
    _admission_shift,
    _psd_check,
    operator_norm,
)
from loewner.shorted import DEFAULT_RANK_TOL, shorted_operator


def _outcome(z, s, tol=DEFAULT_PSD_TOL):
    """`shorted_operator`'s result, or its exception's type and message."""
    try:
        return shorted_operator(z, s, tol)
    except ValueError as exc:
        return type(exc), str(exc)


def _route_and_fallback(z, s):
    """The outcome of ``shorted_operator(z, s)``, whether the permuted
    Cholesky admitted Z, whether the route shorted it, and the outcome with
    the permuted Cholesky turned off (``eigvalsh``, then eigh)."""
    permuted, certified = shorted_module._permuted_cholesky, shorted_module._certified_cholesky
    admitted, shorted = [], []

    def permuted_spy(zm, s_, tol):
        w_adj = permuted(zm, s_, tol)
        admitted.append(w_adj is not None)
        return w_adj

    def certified_spy(z22):
        floor = certified(z22)
        shorted.append(floor is not None)
        return floor

    with mock.patch.object(shorted_module, "_permuted_cholesky", permuted_spy), \
            mock.patch.object(shorted_module, "_certified_cholesky", certified_spy):
        got = _outcome(z, s)
    with mock.patch.object(shorted_module, "_permuted_cholesky", lambda zm, s_, tol: None):
        want = _outcome(z, s)
    return got, any(admitted), any(admitted) and any(shorted), want


@st.composite
def near_the_admission_boundary(draw):
    """Z of size N in [2, 8], real or complex, pivot s in [1, N - 1], with
    ``lambda_min(Z) = -DEFAULT_PSD_TOL max(1, lambda_max(Z)) r``, r in
    [0.5, 2].  ``Z22 = R^2`` has lambda_max 10**[-8, 8] and is well
    conditioned (lambda_min / lambda_max in 10**[-4, 0]) or at the rank cut
    (``DEFAULT_RANK_TOL`` times 10**[log10 0.25, log10 4]); ``Z21 = R C``
    and ``Z11 = C* C + P - t x x*``, with C and the PSD-singular complement P
    (null vector x) over 10**[-8, 8], and t found by bisection."""
    n = draw(st.integers(2, 8))
    s = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, cplx, at_cut = n - s, rng.random() < 0.5, rng.random() < 0.5

    def gauss(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if cplx else g

    top = 10.0 ** rng.uniform(-8.0, 8.0)
    if at_cut:
        ratio = DEFAULT_RANK_TOL * 10.0 ** rng.uniform(np.log10(0.25), np.log10(4.0))
    else:
        ratio = 10.0 ** rng.uniform(-4.0, 0.0)
    mu = top * ratio ** rng.uniform(0.0, 1.0, m)
    mu[0], mu[-1] = top * ratio, top
    u = np.linalg.qr(gauss(m, m))[0]
    root = (u * np.sqrt(mu)) @ u.conj().T
    c = gauss(m, s) * 10.0 ** rng.uniform(-4.0, 4.0, s)
    q = np.linalg.qr(gauss(s, s))[0]
    p = 10.0 ** rng.uniform(-8.0, 8.0, s)
    p[0] = 0.0
    z0 = SymMatrix(np.block([[c.conj().T @ c + (q * p) @ q.conj().T, (root @ c).conj().T],
                             [root @ c, root @ root]])).entries
    kick = np.zeros_like(z0)
    kick[:s, :s] = np.outer(q[:, 0], q[:, 0].conj())
    r = 10.0 ** rng.uniform(np.log10(0.5), np.log10(2.0))

    def above(t):  # lambda_min(Z0 - t kick) above the target
        lam = np.linalg.eigvalsh(z0 - t * kick)
        return lam[0] > -DEFAULT_PSD_TOL * max(1.0, lam[-1]) * r

    lo, hi = 0.0, DEFAULT_PSD_TOL * max(1.0, np.linalg.eigvalsh(z0)[-1])
    while above(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return SymMatrix(z0 - hi * kick).entries, s


# Measured: of these 400 draws the route takes 50 and eigvalsh rejects 206; over
# 6000 random draws of the generator the route took 715 (27 with kappa(Z22) >
# 1e10: at the cut the rounding of S mostly exceeds c and the Cholesky fails),
# and -lambda_min(S) reached 0.99997 c and never passed c.
@settings(settings.get_profile("loewner"), max_examples=400)
@given(near_the_admission_boundary())
def test_permuted_cholesky_is_sound(case):
    z, s = case
    got, admitted, routed, want = _route_and_fallback(z, s)
    if admitted:
        _psd_check(np.linalg.eigvalsh(z), DEFAULT_PSD_TOL, "Z")
    if not routed:
        assert isinstance(got, tuple) == isinstance(want, tuple)
        if isinstance(got, tuple):
            assert got == want
        else:
            assert got.s_short.entries.tobytes() == want.s_short.entries.tobytes()
            assert got.rank_used == want.rank_used
        return
    assert got.rank_used == z.shape[0] - s
    # S + c I is the computed Schur complement of the completed factorization,
    # so only the rounding of that factorization and of Z11 - W* W goes past -c
    c = float(_admission_shift(z, DEFAULT_PSD_TOL))
    n, eps = z.shape[0], np.finfo(float).eps
    rounding = 2 * (n + 2) * eps * (np.abs(z.diagonal()).sum() + n * c)
    assert np.linalg.eigvalsh(got.s_short.entries)[0] >= -(c + rounding)


@pytest.mark.parametrize("r,outcome", [(0.25, "routed"), (0.9, "fallback"), (3.0, "rejected")])
def test_each_side_of_the_boundary(r, outcome):
    # lambda_min(Z) = -1e-9 r and c = 1e-9 less rounding (max(1, max diag Z) = 1);
    # the shift diag(c I, 0) lifts lambda_min by about 0.57 c, the pivot mass of
    # its eigenvector, so at r = 0.9 the permuted Cholesky declines and eigvalsh admits
    rng = np.random.default_rng(3)
    _, v = np.linalg.eigh(SymMatrix(rng.standard_normal((6, 6))).entries)
    lam = np.array([-DEFAULT_PSD_TOL * r, 0.3, 0.5, 0.7, 0.9, 1.0])
    z = SymMatrix((v * lam) @ v.T).entries
    got, admitted, routed, want = _route_and_fallback(z, 2)
    assert admitted == routed == (outcome == "routed")
    assert isinstance(want, tuple) == (outcome == "rejected")
    if outcome == "routed":
        assert operator_norm(got.s_short.entries - want.s_short.entries) <= 1e-14
    else:
        assert _outcome_bytes(got) == _outcome_bytes(want)


def _outcome_bytes(outcome):
    return outcome if isinstance(outcome, tuple) else outcome.s_short.entries.tobytes()


class TestSpies:
    """Which LAPACK calls a call makes."""

    def test_certified_call_makes_two_choleskys_and_nothing_else(self, linalg_calls):
        # the benchmark's input: rank 240 of 256, pivot 64, full-rank Z22
        rng = np.random.default_rng(11)
        g = rng.standard_normal((256, 240))
        z = g @ g.T / 256
        got = shorted_operator(z, 64)
        assert linalg_calls == [("cholesky", (256, 256)), ("cholesky", (192, 192))]
        assert got.rank_used == 192

    def test_full_pivot_certified_call_makes_one_cholesky_and_nothing_else(self, linalg_calls):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((48, 40))
        z = g @ g.T / 48
        got = shorted_operator(z, 48)
        assert linalg_calls == [("cholesky", (48, 48))]
        assert got.rank_used == 0
        assert got.s_short.entries.tobytes() == SymMatrix(z).entries.tobytes()

    @pytest.mark.parametrize("admitted", [False, True])
    def test_rank_deficient_trailing_block_takes_the_eigh_route(self, linalg_calls, admitted):
        # rank 3 of 8, pivot 2; or Z22 = diag(2, 1e-14), which the permuted
        # Cholesky factors but whose 1e-14 the rank cut drops
        if admitted:
            z, n, s = np.diag([1.0, 1.0, 2.0, 1e-14]), 4, 2
        else:
            g = np.random.default_rng(12).standard_normal((8, 3))
            z, n, s = g @ g.T, 8, 2
        assert (shorted_module._permuted_cholesky(z, s, DEFAULT_PSD_TOL) is not None) == admitted
        linalg_calls.clear()
        shorted_operator(z, s)
        # the permuted Cholesky, and the Z22 certificate only once it completed
        tried = [("cholesky", (n, n))] + ([("cholesky", (n - s, n - s))] if admitted else [])
        assert linalg_calls == tried + [("eigvalsh", (n, n)), ("eigh", (n - s, n - s))]

@pytest.mark.parametrize("tol", [0.0, np.nan, np.inf])
def test_no_admission_shift_leaves_z_to_the_fallback(tol):
    # c <= 0 at tol 0, and no shift at a non-finite tol
    z = np.diag([2.0, 1.0, 0.5])
    assert _admission_shift(z, tol) is None
    assert shorted_module._permuted_cholesky(z, 1, tol) is None


def test_non_psd_z_with_certified_z22_is_rejected_with_the_fallback_message():
    z = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    got, admitted, routed, want = _route_and_fallback(z, 1)
    assert not admitted and not routed
    assert got == want == (NotPositiveSemidefinite,
                           "shorted_operator: eigenvalue -1.000e+00 below -1.0e-09 * max(1, "
                           "3.000e+00)")
