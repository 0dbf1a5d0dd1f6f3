"""Affine PSD matrix pencils and their Schur-complement evaluation.

A realization is the data ``(e, A0, A_1..A_k)`` with unit vector e and PSD
coefficient matrices; it represents the matrix function

    F(X) = (e (x) I)*  S(L(X))  (e (x) I),
    L(X) = A0 (x) I + sum_i A_i (x) X_i,

where S is the shorted operator onto the subspace spanned by e.  Functions of
this shape are automatically operator monotone and operator concave in the
Loewner order, which is what the verify suites exercise.

Evaluation rotates e into the first coordinate (deterministic Householder
reflection), so the shorted operator always pivots on the leading n rows.
`eval` then takes one of three paths, chosen from the realization's shape:

* one-variable spectral (k = 1, auxiliary dimension m > 1, every aux-by-aux
  block diagonal): every trailing block ``d0_j I + d_j X`` and coupling
  ``o0_j I + o_j X`` is a polynomial in X, so ``F(X) = U diag(f(lam)) U*``
  for ``X = U diag(lam) U*`` with the scalar rational
  ``f = z - sum_j |o_j|^2 / d_j``: one ``eigh(X)`` (`_spectral_short`).
  Oracles: `_arrowhead_short` and `shorted.shorted_operator` on the
  assembled pencil.
* batched arrowhead (k >= 2, m > 1, every aux-by-aux block diagonal): the
  trailing block splits into n x n blocks, one batched ``eigh`` over them
  (`_arrowhead_short`).  Oracle: `shorted.shorted_operator`.
* dense (any other shape, m = 1 included): one ``eigh`` of the trailing
  block of the assembled pencil, empty when m = 1 (`_dense_short`).  Oracle:
  `shorted.shorted_operator`, whose rank cut ``rank_tol * lambda_max(Z22)``
  over the whole trailing block it shares.

Every path fuses the same admission checks into the factorization (Z >= 0 iff
Z22 >= 0, the range condition holds, and the complement is >= 0) with the same
relative tolerances.  `eval_complex` has two paths, batched arrowhead
(`_arrowhead_schur_complex`) and dense (one ``solve`` against the trailing
block); the oracle of both is `shorted.block_schur_general`.

The batched contractions run as BLAS ``matmul``: the arrowhead blocks are one
gemm over the stacked, flattened point (`_arrowhead_blocks`) and the
complement one gemm over the rows of the rotated couplings, because
``np.einsum`` with two or more operands and no ``optimize=`` runs numpy's own
loop, not BLAS.  The rotated coefficients and the arrowhead test are computed
once per realization (`PencilRealization._layout`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numlin import (
    DEFAULT_PSD_TOL,
    DimensionMismatch,
    MatrixTuple,
    SymMatrix,
    _as_array,
    _sym,
    as_tuple,
)
from .shorted import SingularPivotComplement

__all__ = [
    "PencilRealization",
    "PencilDomainError",
    "householder_to_e1",
    "assemble_pencil",
    "eval",
    "eval_complex",
    "b_form",
    "from_b_form",
]


class PencilDomainError(ValueError):
    """The pencil is not PSD at the requested point (outside the realized domain)."""


def _check_psd_coeff(m: np.ndarray, tol: float, what: str) -> None:
    vals = np.linalg.eigvalsh(m)
    if vals[0] < -tol * max(1.0, abs(float(vals[-1]))):
        raise ValueError(f"{what} is not PSD: lambda_min = {vals[0]:.3e}")


@dataclass(frozen=True)
class PencilRealization:
    """Immutable affine-pencil realization (e, A0, A_1..A_k).

    Invariants enforced at construction: ``||e|| = 1`` to 1e-12 and every
    coefficient PSD within the relative tolerance.  Stored in affine form;
    ``b_form`` converts to the normalized-at-identity form
    ``B0 (x) I + sum B_i (x) (X_i - I)`` with ``B_i = A_i``,
    ``B0 = A0 + sum A_i`` (so B0 >= sum B_i iff A0 >= 0).
    """

    e: np.ndarray
    a0: SymMatrix
    coeffs: tuple
    psd_tol: float = DEFAULT_PSD_TOL

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float).reshape(-1)
        if abs(np.linalg.norm(e) - 1.0) > 1e-12:
            raise ValueError(f"||e|| = {np.linalg.norm(e):.15f} is not 1 within 1e-12")
        e.setflags(write=False)
        object.__setattr__(self, "e", e)
        a0 = _sym(self.a0)
        coeffs = tuple(_sym(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("realization needs at least one variable coefficient")
        m = e.shape[0]
        if a0.n != m or any(c.n != m for c in coeffs):
            raise DimensionMismatch("e, A0 and all A_i must share the auxiliary dimension")
        _check_psd_coeff(a0.entries, self.psd_tol, "A0")
        for i, c in enumerate(coeffs):
            _check_psd_coeff(c.entries, self.psd_tol, f"A{i + 1}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def k(self) -> int:
        return len(self.coeffs)

    @property
    def m(self) -> int:
        return self.e.shape[0]

    @cached_property
    def _layout(self):
        """``(a0r, coeffs_r, arrowhead)``, computed once per realization.

        The coefficients with e rotated into the first coordinate (read-only
        arrays) and whether the auxiliary dimension exceeds 1 and every
        aux-by-aux block of them is diagonal.
        """
        a0r, coeffs_r = _rotated_coefficients(self)
        for c in (a0r, *coeffs_r):
            c.setflags(write=False)
        return a0r, tuple(coeffs_r), self.m > 1 and _aux_blocks_diagonal(a0r, coeffs_r)


def householder_to_e1(e) -> np.ndarray:
    """Deterministic orthogonal Q with Q e = e1 (identity when e already is e1)."""
    e = np.asarray(e, dtype=float).reshape(-1)
    m = e.shape[0]
    v = e - np.eye(m)[0]
    vv = float(v @ v)
    if vv <= 1e-28:
        return np.eye(m)
    return np.eye(m) - (2.0 / vv) * np.outer(v, v)


def assemble_pencil(r: PencilRealization, x) -> SymMatrix:
    """Kronecker-structured pencil ``A0 (x) I_n + sum A_i (x) X_i`` at a tuple."""
    xt = as_tuple(x)
    if xt.k != r.k:
        raise DimensionMismatch(f"realization has {r.k} variables, point has {xt.k}")
    n = xt.n
    out = np.kron(r.a0.entries, np.eye(n))
    for c, xi in zip(r.coeffs, xt.items):
        out = out + np.kron(c.entries, xi.entries)
    return SymMatrix(out)


def _rotated_coefficients(r: PencilRealization):
    """Coefficient matrices with e rotated into the first coordinate."""
    if r.m == 1 or (abs(r.e[0] - 1.0) < 1e-15 and np.all(np.abs(r.e[1:]) < 1e-15)):
        return r.a0.entries, [c.entries for c in r.coeffs]
    q = householder_to_e1(r.e)
    return q @ r.a0.entries @ q.T, [q @ c.entries @ q.T for c in r.coeffs]


def _aux_blocks_diagonal(a0r, coeffs_r) -> bool:
    """True when every coefficient's aux-by-aux block is exactly diagonal.

    Arrowhead-built pencils have this shape, so the trailing block of the
    assembled pencil splits into per-aux-coordinate n x n blocks and the whole
    evaluation runs on small batched operations (for one variable, in the
    eigenbasis of X) without forming the mn x mn Kronecker matrix.
    """
    for c in (a0r, *coeffs_r):
        aux = c[1:, 1:]
        if np.count_nonzero(aux - np.diag(np.diag(aux))):
            return False
    return True


def _assembled_pencil(a0r, coeffs_r, arrays, dtype):
    """``A0r (x) I + sum_i A_ir (x) X_i`` as a dense array of the given dtype."""
    out = np.kron(a0r, np.eye(arrays[0].shape[0])).astype(dtype)
    for c, x in zip(coeffs_r, arrays):
        out = out + np.kron(c, np.asarray(x, dtype=dtype))
    return out


def _adjoint(a):
    """Conjugate transpose over the last two axes; real data is not copied."""
    at = a.swapaxes(-1, -2)
    return at.conj() if np.iscomplexobj(at) else at


def _arrowhead_blocks(a0r, coeffs_r, arrays, row=False):
    """``Z11``, the trailing blocks ``B_j`` and the couplings ``R_j`` of an
    arrowhead pencil at X (with ``row``, also the pivot-row couplings
    ``R'_j``), from one gemm ``coef.T @ x`` over the stacked, flattened point.

    ``B_j``, ``R_j`` and ``R'_j`` are views into one array; the identity
    multiples are added on its diagonals in place.
    """
    n = arrays[0].shape[0]

    def column(c):
        o = c[1:, 0]
        return np.concatenate([c[:1, 0], np.diag(c)[1:], o, o.conj()][:3 + row])

    ident = column(a0r)
    coef = np.stack([column(c) for c in coeffs_r])
    x = np.stack(arrays).reshape(len(arrays), n * n)
    lin = (coef.T @ x).astype(np.result_type(ident, coef, x), copy=False)
    lin[:, ::n + 1] += ident[:, None]
    lin = lin.reshape(-1, n, n)
    return (lin[0].copy(), *np.split(lin[1:], 2 + row))


def _arrowhead_short(a0r, coeffs_r, arrays, rank_tol, psd_tol, check_domain):
    """Shorted operator of an arrowhead pencil, batched over aux coordinates.

    For aux coordinate j the trailing block is
    ``B_j = a0[j,j] I + sum_i c_i[j,j] X_i`` and the coupling to the pivot is
    ``R_j = a0[j,0] I + sum_i c_i[j,0] X_i``; the complement is
    ``Z11 - sum_j R_j* B_j^+ R_j`` with the same admission checks as the
    dense path.  Serves k >= 2; for k = 1 it is the oracle of
    `_spectral_short`.
    """
    n = arrays[0].shape[0]
    z11, blocks, couple = _arrowhead_blocks(a0r, coeffs_r, arrays)
    lam, u = np.linalg.eigh(blocks)
    scale = max(1.0, float(np.linalg.eigvalsh(z11)[-1]), float(lam.max(initial=0.0)))
    if check_domain and float(lam.min(initial=0.0)) < -psd_tol * scale:
        raise PencilDomainError(
            f"pencil not PSD at X: trailing-block eigenvalue {float(lam.min()):.3e}")
    g = _adjoint(u) @ couple
    del blocks, couple, u  # frees the shared block array before the complement
    cut = rank_tol * np.clip(lam[:, -1], 0.0, None)
    keep = lam > cut[:, None]
    if check_domain and not np.all(keep):
        off = np.where(keep[:, :, None], 0.0, np.abs(g) ** 2)
        off_norm = math.sqrt(float(off.sum()))
        if off_norm > 10.0 * math.sqrt(rank_tol) * scale:
            raise PencilDomainError(
                f"pencil not PSD at X: range condition violated "
                f"({off_norm:.3e} > {10.0 * math.sqrt(rank_tol) * scale:.3e})")
    winv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    # sum_j g_j* diag(winv_j) g_j as one gemm over the (m-1) n rows of g
    gw = g * winv[:, :, None]
    if np.iscomplexobj(gw):
        np.conjugate(gw, out=gw)
    short = z11 - gw.reshape(-1, n).T @ g.reshape(-1, n)
    short = (short + short.conj().T) / 2.0
    if check_domain:
        smin = float(np.linalg.eigvalsh(short)[0])
        if smin < -psd_tol * scale:
            raise PencilDomainError(
                f"pencil not PSD at X: Schur complement eigenvalue {smin:.3e}")
    return short


def _spectral_short(a0r, c, x, rank_tol, psd_tol, check_domain):
    """Shorted operator of a one-variable arrowhead pencil in X's eigenbasis.

    With ``X = U diag(lam) U*`` every block of the pencil is diagonal in U, so
    the complement is ``U diag(f) U*`` with ``d = d0_j + d_j lam``,
    ``o = o0_j + o_j lam`` and ``f = z - sum_j |o|^2 / d`` over the kept
    entries of d.  The admission checks of `_arrowhead_short` become scalar
    tests on these arrays with the same tolerances; f is exactly the spectrum
    of the complement.
    """
    lam, u = np.linalg.eigh(x)
    d = np.real(np.diag(a0r)[1:, None] + np.diag(c)[1:, None] * lam)
    o = a0r[1:, 0, None] + c[1:, 0, None] * lam
    z = np.real(a0r[0, 0] + c[0, 0] * lam)
    scale = max(1.0, float(z.max()), float(d.max()))
    if check_domain and float(d.min()) < -psd_tol * scale:
        raise PencilDomainError(
            f"pencil not PSD at X: trailing-block eigenvalue {float(d.min()):.3e}")
    o2 = np.abs(o) ** 2
    keep = d > rank_tol * np.clip(d.max(axis=1), 0.0, None)[:, None]
    if check_domain and not np.all(keep):
        off_norm = math.sqrt(float(o2[~keep].sum()))
        if off_norm > 10.0 * math.sqrt(rank_tol) * scale:
            raise PencilDomainError(
                f"pencil not PSD at X: range condition violated "
                f"({off_norm:.3e} > {10.0 * math.sqrt(rank_tol) * scale:.3e})")
    f = z - np.where(keep, o2 / np.where(keep, d, 1.0), 0.0).sum(axis=0)
    if check_domain and float(f.min()) < -psd_tol * scale:
        raise PencilDomainError(
            f"pencil not PSD at X: Schur complement eigenvalue {float(f.min()):.3e}")
    return (u * f) @ u.conj().T


def _dense_short(z, n, rank_tol, psd_tol, check_domain):
    """Shorted operator of an assembled pencil onto its leading n coordinates.

    One ``eigh`` of the trailing block Z22 (empty for auxiliary dimension 1);
    eigenvalues of Z22 at or below ``rank_tol * lambda_max(Z22)`` are dropped
    from the pseudo-inverse, as in `shorted.shorted_operator`.  The admission
    checks of `_arrowhead_short` are fused in: Z22 is PSD, the coupling has no
    mass against the dropped eigenvectors, and the complement is PSD.
    Together these are equivalent to Z >= 0.
    """
    z11, z21 = z[:n, :n], z[n:, :n]
    lam, u = np.linalg.eigh(z[n:, n:])
    top = float(lam.max(initial=0.0))
    scale = max(1.0, float(np.linalg.eigvalsh(z11)[-1]), top)
    if check_domain and float(lam.min(initial=0.0)) < -psd_tol * scale:
        raise PencilDomainError(
            f"pencil not PSD at X: trailing-block eigenvalue {float(lam.min()):.3e}")
    g = _adjoint(u) @ z21
    keep = lam > rank_tol * top
    if check_domain and not np.all(keep):
        off_norm = float(np.linalg.norm(g[~keep], 2))
        if off_norm > 10.0 * math.sqrt(rank_tol) * scale:
            raise PencilDomainError(
                f"pencil not PSD at X: range condition violated "
                f"({off_norm:.3e} > {10.0 * math.sqrt(rank_tol) * scale:.3e})")
    gk = g[keep]
    short = z11 - _adjoint(gk) @ (gk / lam[keep][:, None])
    short = (short + short.conj().T) / 2.0
    if check_domain:
        smin = float(np.linalg.eigvalsh(short)[0])
        if smin < -psd_tol * scale:
            raise PencilDomainError(
                f"pencil not PSD at X: Schur complement eigenvalue {smin:.3e}")
    return short


def eval(r: PencilRealization, x, tol: float = DEFAULT_PSD_TOL,
         rank_tol: float = 1e-12, check_domain: bool = True) -> SymMatrix:
    """Evaluate the realized function at a tuple of self-adjoint matrices.

    Requires the pencil to be PSD at X (the realized domain); raises
    PencilDomainError otherwise.  ``check_domain=False`` skips the admission
    checks for certified-positive inputs.  The result is PSD.
    """
    xt = as_tuple(x)
    if xt.k != r.k:
        raise DimensionMismatch(f"realization has {r.k} variables, point has {xt.k}")
    a0r, coeffs_r, arrowhead = r._layout
    arrays = [xi.entries for xi in xt.items]
    if arrowhead and r.k == 1:
        short = _spectral_short(a0r, coeffs_r[0], arrays[0], rank_tol, tol, check_domain)
    elif arrowhead:
        short = _arrowhead_short(a0r, coeffs_r, arrays, rank_tol, tol, check_domain)
    else:
        z = _assembled_pencil(a0r, coeffs_r, arrays, np.result_type(a0r, *coeffs_r, *arrays))
        short = _dense_short(z, xt.n, rank_tol, tol, check_domain)
    return SymMatrix(short)


def _arrowhead_schur_complex(a0r, coeffs_r, arrays, sv_tol):
    """Complex-point Schur complement of an arrowhead pencil, batched.

    The pivot-column coupling is ``R_j = o0_j I + sum_i o_ij X_i`` and, the
    coefficients being Hermitian, the pivot-row coupling is
    ``R'_j = conj(o0_j) I + sum_i conj(o_ij) X_i`` (equal to R_j for real
    coefficients): the complement is ``Z11 - sum_j R'_j B_j^{-1} R_j``.
    """
    z11, blocks, couple, row = _arrowhead_blocks(a0r, coeffs_r, arrays, row=True)
    scale = max(1.0, float(np.abs(blocks).sum(axis=-1).max()),
                float(np.abs(z11).sum(axis=-1).max()))
    smin = float(np.linalg.svd(blocks, compute_uv=False).min(initial=np.inf))
    if smin <= sv_tol * scale:
        raise SingularPivotComplement(
            f"pivot complement block singular (sigma_min = {smin:.3e}); "
            "imaginary-part positivity violated beyond tolerance")
    solved = np.linalg.solve(blocks, couple)
    # kept as einsum: a gemm here changes the bits of pinned herglotz reports
    return z11 - np.einsum("jab,jbc->ac", row, solved)


def eval_complex(r: PencilRealization, x, sv_tol: float = 1e-12) -> np.ndarray:
    """Evaluate the pencil's analytic continuation at a tuple with definite
    imaginary parts.

    Accepts tuples whose imaginary parts are all positive definite or all
    negative definite (the two half-planes are symmetric; the conjugate
    half-plane is needed by the conjugate-symmetry checks).  The trailing
    block is then invertible and a plain Schur complement applies.
    Returns a complex n x n matrix, not Hermitian in general.
    """
    arrays = [np.asarray(xi, dtype=complex) for xi in
              (x.arrays() if isinstance(x, MatrixTuple) else
               ([_as_array(x)] if np.asarray(_as_array(x)).ndim == 2 else
                [_as_array(xi) for xi in x]))]
    if len(arrays) != r.k:
        raise DimensionMismatch(f"realization has {r.k} variables, point has {len(arrays)}")
    n = arrays[0].shape[0]
    if any(a.shape != (n, n) for a in arrays):
        raise DimensionMismatch("all tuple entries must share one dimension")
    signs = []
    for a in arrays:
        im = (a - a.conj().T) / 2j
        vals = np.linalg.eigvalsh(im)
        if vals[0] > 0:
            signs.append(1)
        elif vals[-1] < 0:
            signs.append(-1)
        else:
            raise ValueError("imaginary part of every coordinate must be definite")
    if len(set(signs)) != 1:
        raise ValueError("imaginary parts must share one sign across coordinates")

    a0r, coeffs_r, arrowhead = r._layout
    if arrowhead:
        return _arrowhead_schur_complex(a0r, coeffs_r, arrays, sv_tol)
    z = _assembled_pencil(a0r, coeffs_r, arrays, complex)
    z22 = z[n:, n:]
    scale = max(1.0, float(np.abs(z).sum(axis=1).max()))
    smin = float(np.linalg.svd(z22, compute_uv=False).min(initial=np.inf))
    if smin <= sv_tol * scale:
        raise SingularPivotComplement(
            f"pivot complement block singular (sigma_min = {smin:.3e}); "
            "imaginary-part positivity violated beyond tolerance")
    return z[:n, :n] - z[:n, n:] @ np.linalg.solve(z22, z[n:, :n])


def b_form(r: PencilRealization):
    """Convert to (B0, [B_1..B_k]) with B_i = A_i and B0 = A0 + sum A_i."""
    b0 = r.a0.entries.copy()
    for c in r.coeffs:
        b0 = b0 + c.entries
    return SymMatrix(b0), [SymMatrix(c.entries) for c in r.coeffs]


def from_b_form(k: int, m: int, e, b0, b, tol: float = DEFAULT_PSD_TOL) -> PencilRealization:
    """Inverse of `b_form`; validates B_i >= -tol and B0 >= sum B_i - tol."""
    if len(b) != k:
        raise ValueError(f"expected {k} coefficient matrices, got {len(b)}")
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.shape[0] != m:
        raise ValueError(f"expected e of length {m}, got {e.shape[0]}")
    a0 = _as_array(_sym(b0)).copy()
    for bi in b:
        a0 = a0 - _as_array(_sym(bi))
    try:
        return PencilRealization(e, SymMatrix(a0), tuple(_sym(bi) for bi in b), psd_tol=tol)
    except ValueError as exc:
        raise ValueError(f"B-form constraints violated: {exc}") from exc
