"""Shorted operator (Schur complement onto a leading subspace) of a PSD matrix.

For a PSD block matrix ``Z = [[Z11, Z12], [Z21, Z22]]`` with pivot block of
size s, the shorted operator is ``Z11 - Z12 Z22^+ Z21`` with a rank-truncated
pseudo-inverse.  It is the maximal self-adjoint X on the pivot subspace with
``[[X, 0], [0, 0]] <= Z``, which is the property every downstream monotonicity
argument leans on.  The pivot subspace is always the span of the first s
coordinates; callers rotate other subspaces into leading position.

`shorted_operator` admits Z by an accept-only certificate, a shifted
Cholesky (`numlin._certified_psd`), and takes the spectrum of Z only when
that fails or a lower bound on ||Z|| cannot settle the range check;
``eigvalsh`` alone rejects.
`variational_infimum` is the independent oracle for the same quantity:
``v* S v = inf_w [v; w]* Z [v; w]``, solved through the stationarity system in
a separately computed eigenbasis of Z22 (no intermediates shared with
`shorted_operator`), and it admits Z by ``eigvalsh`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numlin import (
    DEFAULT_PSD_TOL,
    SymMatrix,
    _as_array,
    _certified_psd,
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
    """Shorted operator plus the factor C with Z21 = Z22^(1/2) C."""

    s_short: SymMatrix
    c_factor: np.ndarray
    rank_used: int


def shorted_operator(z, s: int, psd_tol: float = DEFAULT_PSD_TOL) -> ShortedResult:
    """Shorted operator of a PSD matrix onto its first ``s`` coordinates.

    Eigenvalues of Z22 at or below ``DEFAULT_RANK_TOL * lambda_max(Z22)`` are
    treated as exact zeros in the pseudo-inverse, and the range condition is
    ``||(I - P_range) Z21|| <= 10 sqrt(DEFAULT_RANK_TOL) ||Z||``, the
    Cauchy-Schwarz bound for PSD input.

    `_certified_psd` admits Z with no spectrum when it can; otherwise
    ``eigvalsh(Z)`` decides, the only source of `NotPositiveSemidefinite`.
    ||Z|| = lambda_max(Z) comes from that spectrum.  A certified Z takes it
    only for a range check that the floor ``max diag Z - 2 N eps ||Z||_F``
    on the computed lambda_max cannot pass.

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
    vals = None
    if not _certified_psd(zm, psd_tol):
        vals = np.linalg.eigvalsh(zm)
        _psd_check(vals, psd_tol, "shorted_operator")
    if s == n:
        empty = np.zeros((0, s), dtype=zm.dtype)
        return ShortedResult(SymMatrix(zm), empty, 0)

    z11 = zm[:s, :s]
    z21 = zm[s:, :s]
    z22 = zm[s:, s:]
    lam, u = np.linalg.eigh(z22)
    cut = DEFAULT_RANK_TOL * max(float(lam[-1]), 0.0)
    keep = lam > cut
    g = u.conj().T @ z21
    if not np.all(keep):
        bound = 10.0 * math.sqrt(DEFAULT_RANK_TOL)
        off_range = float(np.linalg.norm(g[~keep, :], 2)) if g[~keep, :].size else 0.0
        if vals is None:
            # the computed lambda_max(Z) is at least max diag Z less the eigvalsh
            # error, n eps ||Z||_F: a check this floor passes needs no spectrum
            slack = 2 * n * np.finfo(float).eps * float(np.linalg.norm(zm))
            if off_range > bound * max(float(zm.diagonal().real.max()) - slack, 1e-300):
                vals = np.linalg.eigvalsh(zm)
        if vals is not None:
            znorm = max(float(vals[-1]), 0.0)
            if off_range > bound * max(znorm, 1e-300):
                raise RangeConditionViolation(
                    f"||(I - P)Z21|| = {off_range:.3e} exceeds "
                    f"{bound:.1e} * ||Z|| = {bound * znorm:.3e}"
                )
    g_keep = g[keep, :]
    lam_keep = lam[keep]
    c = u[:, keep] @ (g_keep / np.sqrt(lam_keep)[:, None])
    short = z11 - c.conj().T @ c
    return ShortedResult(SymMatrix(short), c, int(keep.sum()))


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
