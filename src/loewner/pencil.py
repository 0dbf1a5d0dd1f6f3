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
The shape of the realization fixes, once (`PencilRealization._layout`), the
paths to try in order.  `_route` (real points) and `_route_complex` take a
stack of points, one (s, n, n) array per coordinate, and give each point the
first path that admits it (`_first_paths`).  Each path is one kernel: it
takes the stack of the points still open and gives, per point, its value,
the exception that rejects it, or None to leave it to the next path.  Its
LAPACK calls are stacked, and each slice has the bits of the call on that
point alone; only "dense", whose trailing block is (m - 1) n square,
assembles one point at a time.  `eval` and `eval_complex` are a stack of
one (`_at_one_point`); the `verify` suites evaluate every point of one size
in one call, and the CLI's scalar adapter a stack of diagonal points
(`_at_points`).  `eval` has four paths:

* "spectral" (auxiliary dimension m > 1, every aux-by-aux block diagonal,
  and k = 1, or k = 2 with the rotated A0 zero): every trailing block and
  coupling is ``p G1 + q G2`` for the generators (G1, G2) = (I, X) or
  (X1, X2).  With ``G1 = Y Y*`` and ``G2 = Y diag(mu) Y*`` the complement is
  ``Y diag(f(mu)) Y*`` for the scalar rational ``f = z - sum_j |o_j|^2 / d_j``
  (`_spectral_short`): one ``eigh(X)``, or one Cholesky ``X1 = L L*`` and one
  ``eigh(L^-1 X2 L^-*)``.  The k = 2 form admits a point only when the
  Cholesky succeeds and ``mu_min > sqrt(DEFAULT_RANK_TOL) mu_max``; other
  points take "batched".  Oracles: `_arrowhead_short` and
  `shorted.shorted_operator` on the assembled pencil.
* "batched" (every other arrowhead pencil): `_arrowhead_short`, one batched
  ``eigh`` over the n x n blocks of `_arrowhead_blocks`.  Oracle:
  `shorted.shorted_operator`.
* "parallel-sum" (m > 1, not arrowhead, the stored A0 and A_i diagonal, as
  for `harmonic` with three or more weights): ``(sum_j e_j^2 B_j^-1)^-1``
  over the diagonal blocks B_j of the unrotated pencil, one ``solve`` per
  block with e_j != 0 after the first (`_parallel_sum_short`).  It admits a
  point when one stacked shifted Cholesky proves every B_j far enough from
  singular that "dense" would cut nothing; other points, and every domain
  error, go to "dense".  Oracles: that path and mpmath.
* "dense" (every other shape, m = 1 included): `_arrowhead_short` with the
  trailing block of the assembled pencil as its one block, empty when
  m = 1 (`_dense_short`).  Oracle: `shorted.shorted_operator`, whose rank cut
  ``DEFAULT_RANK_TOL * lambda_max(Z22)`` it shares; that oracle shorts Z
  by one Cholesky of its permutation with Z22 leading instead when it
  proves that the cut drops nothing.

Every path fuses the same admission checks into the factorization (Z >= 0 iff
Z22 >= 0, the range condition holds, and the complement is >= 0), recorded
per point by `_admitted_psd` and `_admitted_range` (rank cut
``DEFAULT_RANK_TOL``, as in `shorted_operator`).  `eval_complex` has three paths:

* "spectral" (the shapes of the real spectral path with m > 2; m = 2
  pencils gain nothing from it): every block is ``G1 P(M)`` for a polynomial
  P in ``M = Z`` or ``X1^-1 X2``, so one ``eig`` ``M = V diag(mu) V^-1``
  gives the complement ``G1 V diag(f(mu)) V^-1`` (`_spectral_complex`).  It
  admits a point only when ``kappa_1(V) < _EIG_COND_MAX``, since its error
  grows with kappa(V), and when no trailing block can be near singular;
  other points take "batched".  Oracles: `_arrowhead_schur_complex` and
  `shorted.block_schur_general`.
* "batched" (every other arrowhead pencil, m = 2 included): one ``svd``
  and one ``solve`` over the n x n trailing blocks, and one ``einsum`` per
  point (`_arrowhead_schur_complex`), the only source of
  `SingularPivotComplement` for arrowhead pencils.  Oracle:
  `shorted.block_schur_general`.
* "dense" (every other shape): one ``solve`` against the trailing block of
  the assembled pencil (`_dense_complex`).  Oracle: the same.

Every path but "dense" reads the coefficients from one table that `_layout`
builds once, one row per coefficient with A0 first: ``[diag(c), c[1:, 0]]``
of the rotated coefficient for arrowhead pencils, the stored diagonal for
parallel-sum ones.  A realization keeps each arrowhead coefficient, such as
every one a builder makes, as its `Arrowhead` vectors (`PencilRealization`);
when every coefficient is one and e = e1 its table rows are those vectors,
and only "dense" forms the dense coefficients.  Otherwise (a rotation of e,
or one coefficient kept dense) `_layout` forms them all.  The contractions
run as BLAS ``matmul``, one gemm per point: the arrowhead and parallel-sum
blocks ``table[1:].T @ x`` over the stacked, flattened point
(`_linear_blocks`) and the real complement over the rows of the rotated
couplings, because ``np.einsum`` with two or more operands and no
``optimize=`` runs numpy's own loop, not BLAS.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numlin import (
    DEFAULT_PSD_TOL,
    DimensionMismatch,
    SymMatrix,
    _as_array,
    _certified_psd,
    _cholesky_shift,
    _coordinates,
    _finite,
    _halve,
    _psd_check,
    _psd_shift,
    _shifted,
    _square,
    _sym,
    as_tuple,
)
from .shorted import DEFAULT_RANK_TOL, SingularPivotComplement

__all__ = [
    "Arrowhead",
    "PencilRealization",
    "PencilDomainError",
    "householder_to_e1",
    "assemble_pencil",
    "eval",
    "eval_complex",
]


class PencilDomainError(ValueError):
    """The pencil is not PSD at the requested point (outside the realized domain)."""


class Arrowhead(NamedTuple):
    """The vectors of an m x m arrowhead coefficient ``[[z, r], [o, diag(d)]]``:
    ``diag = (z, d)`` (length m), the coupling column ``col = o`` and the
    pivot row ``row = r`` (length m - 1)."""

    diag: np.ndarray
    col: np.ndarray
    row: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]


class PencilRealization:
    """Immutable affine-pencil realization (e, A0, A_1..A_k).

    Each coefficient, A0 first, is kept in ``coefficients`` in its own form:
    as read-only `Arrowhead` vectors when given as one, or as a matrix whose
    entries off the pivot row, pivot column and diagonal all have the bits of
    +0.0 (a ``-0.0`` there keeps the matrix); as a `SymMatrix` otherwise.
    The vectors are symmetrized as `SymMatrix` symmetrizes, ``(c + c*) / 2``,
    so the dense `a0` and `coeffs`, built on first access only (by
    `assemble_pencil`, the dense paths, or `_layout` when e is not e1 or a
    coefficient is kept dense), equal `SymMatrix` of the input bit for bit.

    Invariants enforced at construction: ``||e|| = 1`` to 1e-12, every
    coefficient finite and PSD within the relative tolerance
    ``DEFAULT_PSD_TOL``, as `_psd_check` of its ``eigvalsh`` decides (the
    only source of `NotPositiveSemidefinite`).  `_certified_arrowhead` never
    accepts a coefficient whose Frobenius norm is not finite, so only
    coefficients it defers are scanned for finiteness.  It accepts an
    arrowhead ``c = [[z, o*], [o, diag(d)]]`` (diagonal c and m = 1 included)
    with no spectrum when, for ``tau = DEFAULT_PSD_TOL max(1, max diag c)``
    and the shift ``s = tau - 2 m eps (||c||_F + tau)``, ``d + s > 0`` and
    ``z + s - S > (m + 8) eps (|z| + |s| + S)``, ``S = sum |o_i|^2/(d_i + s)``.
    That bound exceeds the rounding error of the left side, so c + s I > 0
    (Albert's test), and s is below the dense rule's shift ``DEFAULT_PSD_TOL
    max(1, lambda_max)`` by more than the error of ``eigvalsh``, taken as
    ``m eps ||c||_F``: the dense rule accepts c too."""

    def __init__(self, e, a0, coeffs):
        e = _unit_vector(e)
        self.__dict__.update(e=e, coefficients=tuple(map(_stored, (a0, *coeffs))))
        self._admit()

    def _admit(self):
        """The invariants of the class docstring, checked after ``||e|| = 1``:
        at least one variable coefficient, every one m x m, finite and PSD."""
        if len(self.coefficients) < 2:
            raise ValueError("realization needs at least one variable coefficient")
        if any(c.n != self.m for c in self.coefficients):
            raise DimensionMismatch("e, A0 and all A_i must share the auxiliary dimension")
        for i, c in enumerate(self.coefficients):
            if not (isinstance(c, Arrowhead) and _certified_arrowhead(c.diag, c.col)):
                c = _arrowhead_matrix(*c) if isinstance(c, Arrowhead) else c.entries
                _psd_check(np.linalg.eigvalsh(_finite(c, f"A{i}")), DEFAULT_PSD_TOL, f"A{i}")

    def __setattr__(self, name, value):
        raise AttributeError(f"PencilRealization is immutable: cannot set {name!r}")

    @property
    def k(self) -> int:
        return len(self.coefficients) - 1

    @property
    def m(self) -> int:
        return self.e.shape[0]

    @property
    def a0(self) -> SymMatrix:
        return self._dense[0]

    @property
    def coeffs(self) -> tuple:
        return self._dense[1]

    @cached_property
    def _dense(self):
        """``(a0, coeffs)`` as `SymMatrix` values, the arrowheads assembled."""
        a0, *coeffs = (SymMatrix(_arrowhead_matrix(*c)) if isinstance(c, Arrowhead) else c
                       for c in self.coefficients)
        return a0, tuple(coeffs)

    @cached_property
    def _rotated(self):
        """``(a0r, coeffs_r)``: the dense coefficients with e rotated into the
        first coordinate, read-only, computed once."""
        a0r, coeffs_r = _rotated_coefficients(self)
        for c in (a0r, *coeffs_r):
            c.setflags(write=False)
        return a0r, tuple(coeffs_r)

    @cached_property
    def _layout(self):
        """``(table, real_paths, complex_paths)``, computed once per
        realization: the coefficient table of the module docstring (None for
        dense-only shapes), read-only, and the paths that `_route` and
        `_route_complex` try in order.  Read off the vectors when e = e1 and
        every coefficient is an `Arrowhead`, otherwise off `_rotated`."""
        table = None
        if self.m > 1 and _is_e1(self.e) and all(isinstance(c, Arrowhead)
                                                 for c in self.coefficients):
            table = np.array([np.concatenate([c.diag, c.col]) for c in self.coefficients])
        elif self.m > 1 and _aux_blocks_diagonal(*self._rotated):
            a0r, coeffs_r = self._rotated
            table = np.array([np.concatenate([np.diag(c), c[1:, 0]]) for c in (a0r, *coeffs_r)])
        if table is not None:
            spectral = self.k == 1 or (self.k == 2 and not np.any(table[0]))
            real = ("spectral", "batched") if spectral else ("batched",)
            paths = real, real if self.m > 2 else ("batched",)
        elif self.m > 1 and _diagonal(c.entries for c in (self.a0, *self.coeffs)):
            table = np.array([np.diag(c.entries) for c in (self.a0, *self.coeffs)])
            paths = ("parallel-sum", "dense"), ("dense",)
        else:
            paths = ("dense",), ("dense",)
        if table is not None:
            table.setflags(write=False)
        return table, *paths


def _stored(c):
    """Coefficient ``c`` in the form that `PencilRealization` keeps it in; the
    vectors of a matrix are copied off its `SymMatrix`, already symmetrized."""
    if isinstance(c, Arrowhead):
        cplx = any(np.iscomplexobj(v) for v in c)
        diag, col, row = (np.asarray(v, dtype=np.complex128 if cplx else np.float64) for v in c)
        if not diag.shape[0] - 1 == col.shape[0] == row.shape[0]:
            raise DimensionMismatch("an arrowhead needs m diagonal and m - 1 coupling entries")
        arrow = Arrowhead(_halve(diag + diag.conj()), _halve(col + row.conj()),
                          _halve(row + col.conj()))
    else:
        c = _sym(c)
        aux = c.entries[1:, 1:].copy()
        np.fill_diagonal(aux, 0.0)
        if aux.view(np.uint64).any():
            return c
        arrow = Arrowhead(np.diag(c.entries).copy(), c.entries[1:, 0].copy(),
                          c.entries[0, 1:].copy())
    for v in arrow:
        v.setflags(write=False)
    return arrow


def _unit_vector(e) -> np.ndarray:
    """``e`` as a read-only float vector, if ``||e|| = 1`` to 1e-12."""
    e = np.array(e, dtype=float).reshape(-1)
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise ValueError(f"||e|| = {np.linalg.norm(e):.15f} is not 1 within 1e-12")
    e.setflags(write=False)
    return e


def _arrowhead_matrix(diag, col, row) -> np.ndarray:
    """The dense m x m arrowhead with diagonal ``diag``, coupling column
    ``col`` and pivot row ``row``."""
    c = np.zeros((diag.shape[0],) * 2, dtype=diag.dtype)
    np.fill_diagonal(c, diag)
    c[1:, 0], c[0, 1:] = col, row
    return c


def _certified_arrowhead(diag, col) -> bool:
    """True certifies the Hermitian arrowhead of ``diag`` and coupling column
    ``col`` PSD (`PencilRealization`); False defers to eigvalsh."""
    m, dg = diag.shape[0], diag.real
    fro = math.sqrt(float(np.sum(np.abs(diag) ** 2)) + 2.0 * float(np.sum(np.abs(col) ** 2)))
    if not math.isfinite(fro):
        return False
    eps, s = np.finfo(float).eps, _psd_shift(m, max(1.0, dg.max()), fro, DEFAULT_PSD_TOL)
    if not np.all(dg[1:] + s > 0):
        return False
    total = float((np.abs(col) ** 2 / (dg[1:] + s)).sum())
    return bool(dg[0] + s - total > (m + 8) * eps * (abs(dg[0]) + abs(s) + total))


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
    return SymMatrix(_assembled_pencil(r.a0.entries, [c.entries for c in r.coeffs],
                                       [xi.entries for xi in xt.items]))


def _is_e1(e) -> bool:
    """True when e is e1 to 1e-15, so that no rotation is applied."""
    return bool(abs(e[0] - 1.0) < 1e-15 and np.all(np.abs(e[1:]) < 1e-15))


def _rotated_coefficients(r: PencilRealization):
    """Coefficient matrices with e rotated into the first coordinate."""
    if r.m == 1 or _is_e1(r.e):
        return r.a0.entries, [c.entries for c in r.coeffs]
    q = householder_to_e1(r.e)
    return q @ r.a0.entries @ q.T, [q @ c.entries @ q.T for c in r.coeffs]


def _aux_blocks_diagonal(a0r, coeffs_r) -> bool:
    """True when every coefficient's aux-by-aux block is exactly diagonal (an
    arrowhead pencil): the trailing block of the assembled pencil then splits
    into n x n blocks, and no path forms the mn x mn Kronecker matrix."""
    return _diagonal(c[1:, 1:] for c in (a0r, *coeffs_r))


def _diagonal(mats) -> bool:
    """True when every matrix is exactly diagonal."""
    return not any(np.count_nonzero(c - np.diag(np.diag(c))) for c in mats)


def _assembled_pencil(a0r, coeffs_r, arrays):
    """``A0r (x) I + sum_i A_ir (x) X_i`` as a dense array."""
    dtype = np.result_type(a0r, *coeffs_r, *arrays)
    out = np.kron(a0r, np.eye(arrays[0].shape[0])).astype(dtype)
    for c, x in zip(coeffs_r, arrays):
        out = out + np.kron(c, np.asarray(x, dtype=dtype))
    return out


def _adjoint(a):
    """Conjugate transpose over the last two axes; real data is not copied."""
    at = a.swapaxes(-1, -2)
    return at.conj() if np.iscomplexobj(at) else at


def _arrowhead_blocks(table, arrays, row=False):
    """``Z11``, the trailing blocks ``B_j`` and the couplings ``R_j`` (with
    ``row``, also the pivot-row couplings ``R'_j``, the conjugated couplings
    of Hermitian coefficients) of an arrowhead pencil at a stack of points,
    from its coefficient ``table``; all but Z11 view one `_linear_blocks`."""
    if row:
        table = np.concatenate([table, table[:, (table.shape[1] + 1) // 2:].conj()], axis=1)
    lin = _linear_blocks(table[0], table[1:], arrays)
    return (lin[:, 0].copy(), *np.split(lin[:, 1:], 2 + row, axis=1))


def _linear_blocks(ident, coef, arrays):
    """``ident[j] I + sum_i coef[i, j] X_i`` for every j at a stack of
    points, from one gemm ``coef.T @ x`` per point over its stacked,
    flattened coordinates."""
    s, n = arrays[0].shape[:2]
    x = np.stack(arrays, axis=1).reshape(s, len(arrays), n * n)
    lin = (coef.T @ x).astype(np.result_type(ident, coef, x), copy=False)
    lin[..., ::n + 1] += ident[:, None]
    return lin.reshape(s, -1, n, n)


def _admitted_psd(out, idx, value, scale, psd_tol, what):
    """None when the smallest eigenvalue ``value`` of the trailing block or
    of the complement (``what``) is ``>= -psd_tol * scale`` at every point
    ``idx`` (a NaN fails); else the mask of the points where it is, with the
    PencilDomainError of every other point recorded in ``out``."""
    ok = value >= -psd_tol * scale
    if ok.all():
        return None
    for j in np.flatnonzero(~ok):
        out[idx[j]] = PencilDomainError(f"pencil not PSD at X: {what} eigenvalue {value[j]:.3e}")
    return ok


def _admitted_range(out, idx, keep, couple, scale):
    """The range condition at the points ``idx``: where the rank cut drops an
    eigenvalue (``keep`` False; one row of ``couple`` per eigenvalue), the
    coupling mass (Frobenius) against the dropped eigenvectors is at most
    ``10 sqrt(DEFAULT_RANK_TOL) scale``.  None when no point drops one; else
    the mask of the points that meet it, with the PencilDomainError of every
    other point recorded in ``out``."""
    if keep.all():
        return None
    ok = keep.all(axis=(-2, -1))
    bound = 10.0 * math.sqrt(DEFAULT_RANK_TOL) * scale
    for j in np.flatnonzero(~ok):
        off_norm = math.sqrt(float((np.abs(couple[j][~keep[j]]) ** 2).sum()))
        ok[j] = not off_norm > bound[j]
        if not ok[j]:
            out[idx[j]] = PencilDomainError(f"pencil not PSD at X: range condition violated "
                                            f"({off_norm:.3e} > {bound[j]:.3e})")
    return ok


def _keep(ok, *stacks):
    """Each stack (None stays None) at the points where the mask ``ok``
    holds; the stacks themselves, uncopied, when ``ok`` is None or holds
    everywhere."""
    if ok is None or ok.all():
        return stacks
    return tuple(None if a is None else a[ok] for a in stacks)


def _placed(out, idx, values):
    """``out`` with each of ``values`` at its point ``idx``."""
    for i, value in zip(idx.tolist(), values):
        out[i] = value
    return out


def _arrowhead_short(z11, blocks, couple, psd_tol):
    """Shorted operators ``Z11 - sum_j R_j* B_j^+ R_j`` at a stack of points
    of a pencil whose trailing block is the direct sum of the ``blocks``
    B_j, coupled to the pivot by ``couple`` R_j, from one stacked ``eigh``:
    per point, its complement or its PencilDomainError.

    The blocks are the n x n ones of an arrowhead pencil (`_arrowhead_blocks`),
    or the whole trailing block of an assembled pencil as one block (empty
    when m = 1).  Eigenvalues of B_j at or below
    ``DEFAULT_RANK_TOL * lambda_max(B_j)`` are dropped from the
    pseudo-inverse, as in `shorted.shorted_operator`.  The admission checks
    are fused in: the B_j are PSD, the couplings have no mass (Frobenius)
    against the dropped eigenvectors, and the complement is PSD.  Together
    these are equivalent to Z >= 0.  When m = 1 and `_certified_psd`
    certifies the whole stack of symmetrized Z11, those are the values, with
    no spectrum taken.
    """
    out, idx = [None] * len(z11), np.arange(len(z11))
    # m = 1 leaves the complement Z11 itself: one spectrum for scale and check
    empty = blocks.shape[-1] == 0
    if empty:
        z11h = (z11 + _adjoint(z11)) / 2.0
        if _certified_psd(z11h, psd_tol):
            return list(z11h)
    lam, u = np.linalg.eigh(blocks)
    spec11 = np.linalg.eigvalsh(z11h if empty else z11)
    # max(1, max spec11, max lam) point by point; fmax skips a NaN, as max() does
    scale = np.fmax(np.fmax(1.0, spec11[:, -1]), lam.max(axis=(-2, -1), initial=0.0))
    ok = _admitted_psd(out, idx, lam.min(axis=(-2, -1), initial=0.0), scale, psd_tol,
                       "trailing-block")
    idx, scale, z11, spec11, lam, u, couple = _keep(ok, idx, scale, z11, spec11, lam, u, couple)
    g = _adjoint(u) @ couple
    del u  # frees the eigenvectors before the complement
    keep = lam > DEFAULT_RANK_TOL * lam.max(axis=-1, initial=0.0)[..., None]
    ok = _admitted_range(out, idx, keep, g, scale)
    idx, scale, z11, spec11, lam, g, keep = _keep(ok, idx, scale, z11, spec11, lam, g, keep)
    winv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    # sum_j g_j* diag(winv_j) g_j as one gemm per point over the rows of g
    gw = g * winv[..., None]
    if np.iscomplexobj(gw):
        np.conjugate(gw, out=gw)
    rows = (len(g), g.shape[1] * g.shape[2], g.shape[3])
    short = z11 - gw.reshape(rows).swapaxes(-1, -2) @ g.reshape(rows)
    short = (short + _adjoint(short)) / 2.0
    smin = (spec11 if empty else np.linalg.eigvalsh(short))[:, 0]
    ok = _admitted_psd(out, idx, smin, scale, psd_tol, "Schur complement")
    return _placed(out, *_keep(ok, idx, short))


def _dense_short(coefficients, arrays, psd_tol):
    """`_arrowhead_short` at a stack of points with the trailing block of the
    assembled pencil (rotated ``coefficients``) as its one block, empty when
    m = 1.  That block is (m - 1) n square, so the points are assembled and
    shorted one at a time."""
    n, out = arrays[0].shape[-1], []
    for point in zip(*arrays):
        z = _assembled_pencil(*coefficients, point)
        out += _arrowhead_short(z[None, :n, :n], z[None, None, n:, n:], z[None, None, n:, :n],
                                psd_tol)
    return out


def _spectral_terms(p, q, mu):
    """The pivot ``z``, trailing diagonal ``d_j`` and pivot-column couplings
    ``o_j`` of the arrowhead ``p + q mu`` (two table rows), one column per
    eigenvalue mu (rows j = 1..m-1), for a stack ``mu`` of spectra."""
    t = p[:, None] + q[:, None] * mu[..., None, :]
    m = (p.shape[0] + 1) // 2
    return t[..., 0, :], t[..., 1:m, :], t[..., m:, :]


def _factored(factor, *stacks):
    """``(ok, factors)``: ``factor`` maps stacks of matrices to a tuple of
    stacks in one call, and ``ok`` is None when that call succeeds.  When it
    raises LinAlgError, each point is factored alone: ``ok`` masks those that
    succeed and ``factors`` are theirs, empty stacks if none does."""
    try:
        return None, factor(*stacks)
    except np.linalg.LinAlgError:
        pass
    ok, parts = np.zeros(len(stacks[0]), dtype=bool), [factor(*(s[:0] for s in stacks))]
    for i in range(len(stacks[0])):
        try:
            parts.append(factor(*(s[i:i + 1] for s in stacks)))
        except np.linalg.LinAlgError:
            continue
        ok[i] = True
    return ok, tuple(map(np.concatenate, zip(*parts)))


def _spectral_short(table, arrays, psd_tol):
    """Shorted operators at a stack of points of an arrowhead pencil whose
    blocks are all ``p_ij G1 + q_ij G2``, ``p, q = table[-2:]``: generators
    (I, X) for one variable (``x1`` None, p = A0, q = A1) and (X1, X2) for two
    with A0 = 0 (p = A1, q = A2).

    ``G1 = Y Y*`` and ``G2 = Y diag(mu) Y*`` (from ``eigh(X)``, or ``Y = L W``
    with ``X1 = L L*``, ``L^-1 X2 L^-* = W diag(mu) W*``), so the complement is
    ``Y diag(f) Y*`` with ``d = p_jj + q_jj mu``, ``o = p_j0 + q_j0 mu`` and
    ``f = z - sum_j |o|^2 / d`` over the kept entries of d.  The admission
    checks of `_arrowhead_short` become scalar tests with the same
    tolerances, each made only on the points that passed the one before.
    Per point: its complement, its PencilDomainError, or None, for the
    batched path, when the Cholesky fails or
    ``mu_min <= sqrt(DEFAULT_RANK_TOL) mu_max``: mu is accurate only to
    eps mu_max.
    """
    p, q = table[-2:]
    x1, x2 = (None, *arrays)[-2:]
    out, idx = [None] * len(x2), np.arange(len(x2))
    if x1 is None:
        mu, y = np.linalg.eigh(x2)
    else:
        ok, (low,) = _factored(lambda a: (np.linalg.cholesky(a),), x1)
        idx, x2 = _keep(ok, idx, x2)
        mu, w = np.linalg.eigh(np.linalg.solve(low, _adjoint(np.linalg.solve(low, x2))))
        idx, low, mu, w = _keep(mu[:, 0] > math.sqrt(DEFAULT_RANK_TOL) * mu[:, -1], idx, low, mu, w)
        y = low @ w
    z, d, o = _spectral_terms(p, q, mu)
    z, d = np.real(z), np.real(d)
    # max(1, max z, max d) point by point; fmax skips a NaN, as max() does
    scale = np.fmax(np.fmax(1.0, z.max(axis=-1)), d.max(axis=(-2, -1)))
    ok = _admitted_psd(out, idx, d.min(axis=(-2, -1)), scale, psd_tol, "trailing-block")
    idx, scale, y, z, d, o = _keep(ok, idx, scale, y, z, d, o)
    keep = d > DEFAULT_RANK_TOL * np.clip(d.max(axis=-1), 0.0, None)[..., None]
    ok = _admitted_range(out, idx, keep, o, scale)
    idx, scale, y, z, d, o, keep = _keep(ok, idx, scale, y, z, d, o, keep)
    o2 = np.abs(o) ** 2
    if keep.all():  # no entry of d is dropped, so the masks below would be no-ops
        f = z - (o2 / d).sum(axis=-2)
    else:
        f = z - np.where(keep, o2 / np.where(keep, d, 1.0), 0.0).sum(axis=-2)
    ok = _admitted_psd(out, idx, f.min(axis=-1), scale, psd_tol, "Schur complement")
    idx, y, f = _keep(ok, idx, y, f)
    return _placed(out, idx, (y * f[:, None, :]) @ _adjoint(y))


def _parallel_sum_short(table, arrays, e):
    """Shorts of ``L(X) = (+)_j B_j``, ``B_j = a0[j,j] I + sum_i c_i[j,j]
    X_i`` (A0 and every A_i diagonal, the rows of ``table``) onto e (x) I at
    a stack of points: the parallel sum ``(sum_j e_j^2 B_j^-1)^-1`` (Anderson
    and Duffin), chained as ``P <- P (P + C_j)^-1 C_j = P (e_j^2 P + B_j)^-1
    B_j`` over ``C_j = B_j / e_j^2`` from the largest e_j^2, one ``solve`` per
    link and none for e_j = 0.  Per point: its short, or None, for the dense
    path, unless one stacked shifted Cholesky (`_factored` when it fails)
    proves ``lambda_min(B_j) > sqrt(DEFAULT_RANK_TOL) max_k ||B_k||_F`` for
    every block, e_j = 0 included: then L(X) has condition below 1e6, Z22 is
    a compression of it, so that path's rank cut drops nothing and every
    admission check passes."""
    out, blocks = [None] * len(arrays[0]), _linear_blocks(table[0], table[1:], arrays)
    floor = math.sqrt(DEFAULT_RANK_TOL) * np.linalg.norm(blocks, axis=(-2, -1)).max(axis=-1)
    idx, blocks, floor = _keep(np.isfinite(floor), np.arange(len(out)), blocks, floor)
    c = _cholesky_shift(blocks.diagonal(axis1=-2, axis2=-1).real, floor[:, None])
    ok, _ = _factored(lambda a: (np.linalg.cholesky(a),), _shifted(blocks, c))
    idx, blocks = _keep(ok, idx, blocks)
    w = e ** 2
    first, *rest = (j for j in np.argsort(-w, kind="stable").tolist() if w[j] != 0.0)
    short = blocks[:, first] / w[first]
    for j in rest:
        short = short @ np.linalg.solve(w[j] * short + blocks[:, j], blocks[:, j])
    return _placed(out, idx, (short + _adjoint(short)) / 2.0)


def eval(r: PencilRealization, x, tol: float = DEFAULT_PSD_TOL) -> SymMatrix:
    """Evaluate the realized function at a tuple of self-adjoint matrices.

    Requires the pencil to be PSD at X (the realized domain) within the
    relative tolerance ``tol``; raises PencilDomainError otherwise, and
    ValueError for a point with a NaN or infinite entry.  The result is PSD.
    """
    xt = as_tuple(x)
    if xt.k != r.k:
        raise DimensionMismatch(f"realization has {r.k} variables, point has {xt.k}")
    return SymMatrix(_at_one_point(lambda a: _route(r, a, tol), [xi.entries for xi in xt.items]))


def _at_one_point(route, arrays):
    """The value of ``route`` at the point ``arrays`` as a stack of one
    (`_at_points`)."""
    (value,) = _at_points(route, [a[None] for a in arrays])
    return value


def _at_points(route, arrays):
    """The values of ``route`` at a stack of points, or the first exception
    that rejects one, raised; ValueError when a point has a NaN or infinite
    entry."""
    for a in arrays:
        _finite(a, "point")
    values = route(arrays)[1]
    for value in values:
        if isinstance(value, Exception):
            raise value
    return values


def _first_paths(paths, arrays, kernels):
    """``(names, values)`` at a stack of points (``arrays``: one stack per
    coordinate): per point, the first of ``paths`` that admits it and its
    value, or the exception that rejects it.  ``kernels[path]`` runs once, on
    the points no earlier path took, and gives each its outcome or None."""
    names, values = [None] * len(arrays[0]), [None] * len(arrays[0])
    todo = list(range(len(values)))
    for path in paths:
        if not todo:
            break
        got = kernels[path](arrays if len(todo) == len(values) else [a[todo] for a in arrays])
        for i, value in zip(todo, got):
            names[i], values[i] = path, value
        todo = [i for i, value in zip(todo, got) if value is None]
    return names, values


def _route(r: PencilRealization, arrays, tol):
    """`_first_paths` over the real paths of ``r`` (`_layout`); "batched" and
    "dense" admit every point or reject it with a PencilDomainError."""
    table, paths, _ = r._layout
    return _first_paths(paths, arrays, {
        "spectral": lambda a: _spectral_short(table, a, tol),
        "batched": lambda a: _arrowhead_short(*_arrowhead_blocks(table, a), tol),
        "parallel-sum": lambda a: _parallel_sum_short(table, a, r.e),
        "dense": lambda a: _dense_short(r._rotated, a, tol)})


# Relative singular-value floor of the trailing block at complex points.
_SV_TOL = 1e-12


def _singular_pivots(blocks, scale):
    """Per point of a stack of trailing ``blocks``, its SingularPivotComplement
    unless ``sigma_min > _SV_TOL * scale``, else None."""
    smin = np.linalg.svd(blocks, compute_uv=False).min(axis=(-2, -1), initial=np.inf)
    return [SingularPivotComplement(f"pivot complement block singular (sigma_min = {s:.3e}); "
                                    "imaginary-part positivity violated beyond tolerance")
            if s <= _SV_TOL * c else None for s, c in zip(smin.tolist(), scale)]


def _arrowhead_schur_complex(table, arrays):
    """Complex-point Schur complements ``Z11 - sum_j R'_j B_j^-1 R_j`` at a
    stack of points of an arrowhead pencil, from one stacked ``svd`` and
    ``solve``: per point, its complement or its SingularPivotComplement.
    For Hermitian coefficients the pivot-row coupling
    ``R'_j = conj(o0_j) I + sum_i conj(o_ij) X_i`` conjugates ``R_j``."""
    z11, blocks, couple, row = _arrowhead_blocks(table, arrays, row=True)
    # max(1, max row sum of |B_j|, of |Z11|) point by point; fmax skips a NaN, as max() does
    scale = np.fmax(np.fmax(1.0, np.abs(blocks).sum(axis=-1).max(axis=(-2, -1))),
                    np.abs(z11).sum(axis=-1).max(axis=-1))
    out = _singular_pivots(blocks, scale)
    idx, z11, blocks, couple, row = _keep(np.array([v is None for v in out], dtype=bool),
                                          np.arange(len(out)), z11, blocks, couple, row)
    # kept as einsum, point by point, for m = 2 pencils and spectral fallbacks:
    # a gemm here changes the bits of the pinned herglotz report of cauchy:2
    return _placed(out, idx, [z - np.einsum("jab,jbc->ac", rows, sol)
                              for z, rows, sol in zip(z11, row, np.linalg.solve(blocks, couple))])


def _dense_complex(coefficients, arrays):
    """Complex-point Schur complements at a stack of points of the assembled
    pencil (rotated ``coefficients``), one ``solve`` against its trailing
    block per point, assembled one at a time as in `_dense_short`."""
    n, out = arrays[0].shape[-1], []
    for point in zip(*arrays):
        z = _assembled_pencil(*coefficients, point)
        scale = max(1.0, float(np.abs(z).sum(axis=1).max()))
        out += _singular_pivots(z[None, None, n:, n:], [scale])
        if out[-1] is None:
            out[-1] = z[:n, :n] - z[:n, n:] @ np.linalg.solve(z[n:, n:], z[n:, :n])
    return out


# kappa_1(V) from which `_spectral_complex` leaves the point to the batched
# path.  The error of V diag(f) V^-1 grows as kappa(V) eps (Higham, Functions
# of Matrices, 4.5): against 40-digit complements at 300 near-defective points
# (n <= 4) it stayed under 154 kappa_1 eps of ||F||: below 3.4e-11 of ||F||
# under kappa_1 = 1e3, but up to 1.2e-10 under 1e4.  Random Herglotz points
# stay under 400 up to n = 64.
_EIG_COND_MAX = 1e3


def _spectral_complex(table, arrays, im_min):
    """Complex-point Schur complements at a stack of points of an arrowhead
    pencil whose blocks are all ``p_ij G1 + q_ij G2`` (the rows and
    generators of `_spectral_short`).

    Every block is ``G1 P(M)`` for a polynomial P in ``M = G1^-1 G2`` (M = Z,
    or ``X1^-1 X2`` from one ``solve``), so with ``M = V diag(mu) V^-1`` (one
    ``eig``, V^-1 from one ``inv``) the complement is ``G1 V diag(f) V^-1``
    with ``f = z - sum_j o'_j o_j / d_j``.  Per point: its complement, or
    None, for `_arrowhead_schur_complex`, when a factorization fails, when
    ``kappa_1(V) >= _EIG_COND_MAX`` or when ``sigma_min(B_j) >= im_min min|d|
    / (n kappa_1(V))`` (``im_min``, per point the smallest |eigenvalue| of
    Im X1, is <= sigma_min(G1); kappa_2 <= n kappa_1) does not clear
    ``_SV_TOL`` times an upper bound on the batched path's scale: every
    SingularPivotComplement, and its message, comes from the batched path.
    Every factorization is one stacked call.
    """
    p, q = table[-2:]
    out = [None] * len(arrays[0])

    def factor(*xs):  # (x2,) or (x1, x2)
        mu, v = np.linalg.eig(xs[0] if len(xs) == 1 else np.linalg.solve(*xs))
        return mu, v, np.linalg.inv(v)  # one gesv against I, as solve(v, I)

    ok, (mu, v, w) = _factored(factor, *arrays)
    idx, *arrays = _keep(ok, np.arange(len(out)), *arrays)
    kappa = np.linalg.norm(v, 1, axis=(-2, -1)) * np.linalg.norm(w, 1, axis=(-2, -1))
    idx, mu, v, w, kappa, *arrays = _keep(kappa < _EIG_COND_MAX, idx, mu, v, w, kappa, *arrays)
    x1, x2 = (None, *arrays)[-2:]
    if x1 is None:
        g1_min = g1_norm = 1.0
    else:
        g1_min = np.asarray(im_min)[idx]
        g1_norm = np.linalg.norm(x1, np.inf, axis=(-2, -1))[:, None]
    m = (p.shape[0] + 1) // 2
    bound = np.abs(p[:m]) * g1_norm + np.abs(q[:m]) * np.linalg.norm(x2, np.inf, axis=(-2, -1))[:, None]
    scale = np.fmax(1.0, bound.max(axis=-1))  # skipping a NaN, as max() does
    z, d, o = _spectral_terms(p, q, mu)
    ok = g1_min * np.abs(d).min(axis=(-2, -1)) > mu.shape[-1] * kappa * _SV_TOL * scale
    idx, mu, v, w, z, d, o, x1 = _keep(ok, idx, mu, v, w, z, d, o, x1)
    orow = p[m:, None].conj() + q[m:, None].conj() * mu[:, None, :]  # R'_j, as in `_arrowhead_blocks`
    values = (v * (z - (orow * o / d).sum(axis=-2))[:, None, :]) @ w
    if x1 is not None:
        values = x1 @ values
    return _placed(out, idx, values)


def eval_complex(r: PencilRealization, x) -> np.ndarray:
    """Evaluate the pencil's analytic continuation at a tuple with definite
    imaginary parts.

    Accepts tuples whose imaginary parts are all positive definite or all
    negative definite: the lower half-plane is the mirror image of the
    upper one, F(X*) = F(X)*.  The trailing block is then invertible and a
    plain Schur complement applies.
    Returns a complex n x n matrix, not Hermitian in general.  A
    `MatrixTuple` point is self-adjoint by construction, so its imaginary
    parts are zero and it always fails the definiteness check.  A NaN or
    infinite entry raises ValueError.
    """
    arrays = [np.asarray(_as_array(xi), dtype=complex) for xi in _coordinates(x)]
    if len(arrays) != r.k:
        raise DimensionMismatch(f"realization has {r.k} variables, point has {len(arrays)}")
    for a in arrays:
        _square(a)
    n = arrays[0].shape[0]
    if any(a.shape != (n, n) for a in arrays):
        raise DimensionMismatch("all tuple entries must share one dimension")
    return _at_one_point(lambda a: _route_complex(r, a), arrays)


def _imaginary_floor(arrays):
    """Per point of a stack of complex points, the smallest |eigenvalue| of
    Im X1 (the ``im_min`` of `_spectral_complex`), from one stacked
    ``eigvalsh`` per coordinate.  ValueError unless every Im X_i is definite,
    with one sign across the coordinates of a point."""
    ends = [np.linalg.eigvalsh((a - _adjoint(a)) / 2j)[:, [0, -1]].tolist() for a in arrays]
    signs = [[1 if lo > 0 else -1 if hi < 0 else 0 for lo, hi in coordinate]
             for coordinate in ends]
    if any(0 in coordinate for coordinate in signs):
        raise ValueError("imaginary part of every coordinate must be definite")
    if any(coordinate != signs[0] for coordinate in signs):
        raise ValueError("imaginary parts must share one sign across coordinates")
    return np.array([min(abs(lo), abs(hi)) for lo, hi in ends[0]])


def _route_complex(r: PencilRealization, arrays):
    """`_first_paths` over the complex paths of ``r`` (`_layout`), after
    `_imaginary_floor`; "batched" and "dense" admit every point or reject it
    with a SingularPivotComplement."""
    table, _, paths = r._layout
    im_min = _imaginary_floor(arrays)
    return _first_paths(paths, arrays, {
        "spectral": lambda a: _spectral_complex(table, a, im_min),
        "batched": lambda a: _arrowhead_schur_complex(table, a),
        "dense": lambda a: _dense_complex(r._rotated, a)})
