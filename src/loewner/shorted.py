"""Shorted operator (Schur complement onto a leading subspace) of a PSD matrix.

For a PSD block matrix ``Z = [[Z11, Z12], [Z21, Z22]]`` with pivot block of
size s, the shorted operator is ``Z11 - Z12 Z22^+ Z21`` with a rank-truncated
pseudo-inverse.  It is the maximal self-adjoint X on the pivot subspace with
``[[X, 0], [0, 0]] <= Z``, which is the property every downstream monotonicity
argument leans on.  The pivot subspace is always the span of the first s
coordinates; callers rotate other subspaces into leading position.

`shorted_operator` takes one of two routes.  The Cholesky route: one
Cholesky of the permuted ``[[Z22, Z21], [Z12, Z11 + c I]]``
(`_permuted_cholesky`) admits Z and gives ``W* = Z12 L^-*``, ``Z22 = L L*``,
and when a shifted Cholesky of Z22 (`_certified_cholesky`) proves that the
rank cut drops no eigenvalue, the complement is ``Z11 - W* W``.  Every other
Z takes the spectral reference flow: ``eigvalsh(Z)``, which alone raises
`NotPositiveSemidefinite`, then the cut in the eigenbasis of Z22, which
alone raises `RangeConditionViolation`.
`variational_infimum` is the independent oracle for the same quantity:
``v* S v = inf_w [v; w]* Z [v; w]``, solved through the stationarity system in
a separately computed eigenbasis of Z22 (no intermediates shared with
`shorted_operator`), and it admits Z by ``eigvalsh`` alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numlin import (
    DEFAULT_PSD_TOL,
    SymMatrix,
    _admission_shift,
    _as_array,
    _cholesky_completes,
    _cholesky_shift,
    _eigvalsh_slack,
    _finite,
    _psd_check,
    _sym,
)

__all__ = [
    "ShortedResult",
    "RangeConditionViolation",
    "SingularPivotComplement",
    "shorted_operator",
    "variational_infimum",
    "block_schur_general",
]

DEFAULT_RANK_TOL = 1e-12


class RangeConditionViolation(ValueError):
    """ran(Z21) is not contained in ran(Z22^(1/2)) within tolerance.

    For certified-PSD input this cannot happen, so it signals input corrupted
    past the PSD tolerance (or a tolerance misconfiguration); it is reported
    rather than silently projected away.
    """


class SingularPivotComplement(ValueError):
    """The trailing block passed to a plain Schur complement is singular."""


@dataclass(frozen=True)
class ShortedResult:
    """Shorted operator, the rank of Z22 kept by the cut, and the factor C
    with Z21 = Z22^(1/2) C (the symmetric root), computed on first access."""

    s_short: SymMatrix
    rank_used: int
    _factor: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def c_factor(self) -> np.ndarray:
        return self._factor()


def _root_factor(z21: np.ndarray, z22: np.ndarray):
    """``C = Z22^(+1/2) Z21`` through ``eigh(Z22)`` with the rank cut, and the
    cut's data: the eigenvalues kept and ``U* Z21`` in the eigenbasis."""
    lam, u = np.linalg.eigh(z22)
    keep = lam > DEFAULT_RANK_TOL * max(float(lam[-1]), 0.0)
    g = u.conj().T @ z21
    c = u[:, keep] @ (g[keep, :] / np.sqrt(lam[keep])[:, None])
    return c, keep, g


def _certified_cholesky(z22: np.ndarray):
    """The floor f that a shifted Cholesky proves ``lambda_min(Z22) > f``
    when f is high enough that `_root_factor`'s rank cut drops nothing, else
    None.  The cut keeps every eigenvalue that ``eigh`` computes above
    ``DEFAULT_RANK_TOL lambda_max``; with ``tau = DEFAULT_RANK_TOL
    ||Z22||_F`` it does so once ``lambda_min > f = tau + 2 m eps (||Z22||_F
    + tau)``, since lambda_max <= ||Z22||_F and ``eigh`` errs by at most
    ``m eps ||Z22||_F`` (`_eigvalsh_slack`)."""
    fro = float(np.linalg.norm(z22))
    if not math.isfinite(fro):
        return None
    tau = DEFAULT_RANK_TOL * fro
    floor = tau + _eigvalsh_slack(z22.shape[0], fro + tau)
    if not _cholesky_completes(z22, _cholesky_shift(z22.diagonal().real, floor)):
        return None
    return floor


def _permuted_cholesky(zm: np.ndarray, s: int, psd_tol: float):
    """``W* = Z12 L^-*``, ``Z22 = L L*``: the lower-left block of the Cholesky
    factor of the permuted ``[[Z22, Z21], [Z12, Z11 + c I]]``, c =
    `_admission_shift` of Z, or None when c is not defined or that Cholesky
    fails.  Its completing proves what `numlin._certified_psd` proves, since
    the shift ``diag(c I, 0)`` lies between 0 and c I; for s = N it is that
    certificate's Cholesky of ``Z + c I``."""
    c = _admission_shift(zm, psd_tol)
    if c is None:
        return None
    perm = np.roll(zm, -s, axis=(0, 1))
    i = np.arange(zm.shape[0] - s, zm.shape[0])
    perm[i, i] += c
    try:
        return np.linalg.cholesky(perm)[-s:, :-s]
    except np.linalg.LinAlgError:
        return None


def shorted_operator(z, s: int, psd_tol: float = DEFAULT_PSD_TOL) -> ShortedResult:
    """Shorted operator of a PSD matrix onto its first ``s`` coordinates.

    Eigenvalues of Z22 at or below ``DEFAULT_RANK_TOL * lambda_max(Z22)`` are
    treated as exact zeros in the pseudo-inverse, and the range condition is
    ``||(I - P_range) Z21|| <= 10 sqrt(DEFAULT_RANK_TOL) ||Z||``, the
    Cauchy-Schwarz bound for PSD input.

    The Cholesky route: one Cholesky of the permuted ``[[Z22, Z21], [Z12,
    Z11 + c I]]`` (`_permuted_cholesky`; for s = N the shifted Cholesky of
    Z) admits Z and gives ``W* = Z12 L^-*``, ``Z22 = L L*``.  For s = N, Z is
    returned.  For s < N, when `_certified_cholesky` proves that the rank
    cut drops nothing, the complement is ``Z11 - W* W``: every eigenvalue of
    Z22 is kept, the range check is vacuous, and the factorization, which
    completed with ``Z11 + c I`` in place of Z11, bounds the complement below
    by -c less rounding.  Every other Z takes the spectral reference flow:
    ``eigvalsh(Z)``, the only source of `NotPositiveSemidefinite` and of
    ||Z|| = lambda_max(Z), then the cut of Z22 in its eigenbasis
    (`_root_factor`), the only source of `RangeConditionViolation`.  The
    Cholesky route admits only what ``eigvalsh`` admits, so the two routes
    raise the same errors.

    Parameters
    ----------
    z : PSD self-adjoint matrix (SymMatrix or array).
    s : pivot dimension, 1 <= s <= N.  ``s == N`` returns Z itself.
    psd_tol : relative PSD admission tolerance for Z.

    Raises
    ------
    ValueError
        Z has a NaN or infinite entry.
    NotPositiveSemidefinite
        Z has an eigenvalue below the relative tolerance.
    RangeConditionViolation
        Z21 has mass against the truncated null space of Z22.
    """
    zm = _finite(_as_array(_sym(z)))
    n = zm.shape[0]
    if not 1 <= s <= n:
        raise ValueError(f"pivot dimension {s} outside [1, {n}]")
    z11 = zm[:s, :s]
    z21 = zm[s:, :s]
    z22 = zm[s:, s:]
    w_adj = _permuted_cholesky(zm, s, psd_tol)
    cholesky_route = w_adj is not None and (s == n or _certified_cholesky(z22) is not None)
    if not cholesky_route:
        vals = np.linalg.eigvalsh(zm)
        _psd_check(vals, psd_tol, "shorted_operator")
    if s == n:
        empty = np.zeros((0, s), dtype=zm.dtype)
        return ShortedResult(SymMatrix(zm), 0, lambda: empty)
    if cholesky_route:
        return ShortedResult(SymMatrix(z11 - w_adj @ w_adj.conj().T), n - s,
                             lambda: _root_factor(z21, z22)[0])

    c, keep, g = _root_factor(z21, z22)
    if not np.all(keep):
        bound = 10.0 * math.sqrt(DEFAULT_RANK_TOL)
        off_range = float(np.linalg.norm(g[~keep, :], 2)) if g[~keep, :].size else 0.0
        znorm = max(float(vals[-1]), 0.0)
        if off_range > bound * max(znorm, 1e-300):
            raise RangeConditionViolation(
                f"||(I - P)Z21|| = {off_range:.3e} exceeds "
                f"{bound:.1e} * ||Z|| = {bound * znorm:.3e}"
            )
    short = z11 - c.conj().T @ c
    return ShortedResult(SymMatrix(short), int(keep.sum()), lambda: c)


def variational_infimum(z, v) -> float:
    """inf over w of the quadratic ``[v; w]* Z [v; w]`` for PSD Z.

    Solves the stationarity system ``Z22 w = -Z21 v`` in an eigenbasis of Z22
    with small-eigenvalue truncation.  Used as the independent maximality
    oracle for `shorted_operator`; the two share no intermediate results.
    """
    zm = _finite(_as_array(_sym(z)))
    vv = _finite(np.asarray(v).reshape(-1), "vector")
    s = vv.shape[0]
    if not 1 <= s <= zm.shape[0]:
        raise ValueError(f"vector length {s} outside [1, {zm.shape[0]}]")
    vals = np.linalg.eigvalsh(zm)
    _psd_check(vals, DEFAULT_PSD_TOL, "variational_infimum")
    head = float(np.real(vv.conj() @ zm[:s, :s] @ vv))
    if s == zm.shape[0]:
        return head
    rhs = zm[s:, :s] @ vv
    lam, u = np.linalg.eigh(zm[s:, s:])
    cut = DEFAULT_RANK_TOL * max(float(lam[-1]), 0.0)
    b = u.conj().T @ rhs
    keep = lam > cut
    return head - float(np.sum(np.abs(b[keep]) ** 2 / lam[keep]))


def block_schur_general(z, s: int) -> np.ndarray:
    """Plain Schur complement ``Z11 - Z12 Z22^{-1} Z21`` for invertible Z22.

    Accepts arbitrary (possibly complex, non-self-adjoint) square input; this
    is the kernel for evaluating pencils at points with definite imaginary
    part, where invertibility of the trailing block is guaranteed.  A NaN or
    infinite entry raises ValueError.
    """
    zm = np.asarray(_as_array(z))
    n = zm.shape[0]
    if zm.ndim != 2 or zm.shape[1] != n:
        raise ValueError("input must be square")
    _finite(zm)
    if not 1 <= s <= n:
        raise ValueError(f"pivot dimension {s} outside [1, {n}]")
    if s == n:
        return zm.copy()
    z22 = zm[s:, s:]
    znorm = float(np.linalg.norm(zm, 2))
    smin = float(np.linalg.svd(z22, compute_uv=False)[-1])
    if smin <= 1e-12 * max(znorm, 1e-300):
        raise SingularPivotComplement(
            f"trailing block singular: sigma_min = {smin:.3e} <= 1.0e-12 * ||Z||")
    return zm[:s, :s] - zm[:s, s:] @ np.linalg.solve(z22, zm[s:, :s])
