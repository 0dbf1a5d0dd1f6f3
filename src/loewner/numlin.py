"""Dense self-adjoint linear algebra kernel.

Everything downstream (Schur complements, pencil evaluation, the property
suites) funnels through this module: eigendecomposition, the Loewner order
predicate, functional calculus on commuting tuples, PSD square root, and
the seeded random generators used by every randomized suite.

Conventions
-----------
* Matrices are real symmetric by default; every kernel also accepts complex
  Hermitian input (`SymMatrix` symmetrizes with the conjugate transpose).
* PSD tolerances are relative: A counts as PSD when
  ``lambda_min(A) >= -tol * max(1, lambda_max(A))``.  Default tol 1e-9.
* All functions are pure; randomness enters only through explicit seeds or
  generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PSD_TOL = 1e-9

__all__ = [
    "DEFAULT_PSD_TOL",
    "SymMatrix",
    "MatrixTuple",
    "Contraction",
    "DimensionMismatch",
    "NotPositiveSemidefinite",
    "CommutationError",
    "operator_norm",
    "loewner_leq",
    "apply_scalar_function",
    "psd_sqrt",
    "random_pd",
    "random_commuting_tuple",
    "make_dominated_pair",
    "random_isometry",
    "random_contraction",
    "direct_sum",
    "tuple_direct_sum",
    "tuple_compress",
    "as_tuple",
]


class DimensionMismatch(ValueError):
    """Operands do not share the required dimensions."""


class NotPositiveSemidefinite(ValueError):
    """A matrix required to be PSD has an eigenvalue below tolerance."""


class CommutationError(ValueError):
    """A tuple required to commute fails the commutator tolerance."""


def _as_array(a) -> np.ndarray:
    if isinstance(a, SymMatrix):
        return a.entries
    return np.asarray(a)


def operator_norm(a) -> float:
    """Spectral norm (largest singular value)."""
    m = _as_array(a)
    if m.size == 0:
        return 0.0
    return float(_operator_norms(m))


def _operator_norms(a: np.ndarray) -> np.ndarray:
    """`operator_norm` of each matrix of a stack: one stacked ``svd``."""
    # what np.linalg.norm(m, 2) computes, without its axis handling
    return np.linalg.svd(a, compute_uv=False).max(axis=-1, initial=0.0)


@dataclass(frozen=True)
class SymMatrix:
    """Dense self-adjoint matrix; symmetrized at construction.

    ``entries`` always equals its conjugate transpose exactly, because the
    constructor stores ``(A + A*)/2`` (`_halve`).  Real input stays real.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _square(np.asarray(self.entries))
        if arr.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = arr.astype(dtype, copy=True)
        arr = _halve(arr + arr.conj().T)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def norm(self) -> float:
        return operator_norm(self.entries)

    def __array__(self, dtype=None):
        return self.entries if dtype is None else self.entries.astype(dtype)


def _halve(arr: np.ndarray) -> np.ndarray:
    """``arr / 2``, halving the real and imaginary parts of a complex array on
    their own: numpy divides it by ``2 + 0j``, which can flip a zero's sign,
    so that symmetrizing twice would not give the bits of symmetrizing once."""
    if arr.dtype.kind == "c":  # cheaper than np.iscomplexobj on every SymMatrix
        return (arr.view(np.float64) / 2.0).view(np.complex128)
    return arr / 2.0


def _square(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is a square matrix, else ValueError."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _sym(a) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(np.asarray(a))


@dataclass(frozen=True)
class MatrixTuple:
    """k-tuple of same-dimension self-adjoint matrices."""

    items: tuple

    def __post_init__(self):
        items = tuple(_sym(x) for x in self.items)
        if not items:
            raise ValueError("tuple must contain at least one matrix")
        n = items[0].n
        if any(x.n != n for x in items):
            raise DimensionMismatch("all tuple entries must share one dimension")
        object.__setattr__(self, "items", items)

    @property
    def k(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return self.items[0].n

    def arrays(self) -> list:
        return [x.entries for x in self.items]


def _coordinates(x) -> list:
    """The coordinates of a point as given (not symmetrized): ``x`` is a
    MatrixTuple, one matrix (a SymMatrix, an array with ``ndim`` 2 or a
    sequence of rows) or a sequence of matrices."""
    if isinstance(x, MatrixTuple):
        return list(x.items)
    if isinstance(x, SymMatrix) or getattr(x, "ndim", 0) == 2:
        return [x]
    items = list(x)
    return [items] if items and np.ndim(items[0]) < 2 else items


def as_tuple(x) -> MatrixTuple:
    """Coerce a MatrixTuple or the other forms of `_coordinates` to MatrixTuple."""
    if isinstance(x, MatrixTuple):
        return x
    return MatrixTuple(tuple(_coordinates(x)))


@dataclass(frozen=True)
class Contraction:
    """Rectangular map E -> K with operator norm at most 1 (+1e-12 slack)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2:
            raise ValueError("contraction entries must be a 2-d array")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = arr.astype(dtype, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        norm = operator_norm(arr)
        if norm > 1.0 + 1e-12:
            raise ValueError(f"operator norm {norm:.12f} exceeds 1")

    def __array__(self, dtype=None):
        return self.entries if dtype is None else self.entries.astype(dtype)


# ---------------------------------------------------------------------------
# spectral kernels
# ---------------------------------------------------------------------------

def _psd_check(vals: np.ndarray, tol: float, what: str) -> None:
    lo = float(vals[0])
    hi = float(vals[-1])
    if not lo >= -tol * max(1.0, abs(hi)):  # a NaN fails
        raise NotPositiveSemidefinite(
            f"{what}: eigenvalue {lo:.3e} below -{tol:.1e} * max(1, {hi:.3e})"
        )


def loewner_leq(a, b, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Loewner order predicate: A <= B up to a relative tolerance.

    True iff ``lambda_min(B - A) >= -tol * max(1, ||A||, ||B||)``.
    """
    am, bm = _as_array(_sym(a)), _as_array(_sym(b))
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bm.shape} differ")
    diff_min = float(np.linalg.eigvalsh(bm - am)[0])
    vals_a = np.linalg.eigvalsh(am)
    vals_b = np.linalg.eigvalsh(bm)
    scale = max(1.0, abs(vals_a[0]), abs(vals_a[-1]), abs(vals_b[0]), abs(vals_b[-1]))
    return diff_min >= -tol * scale


def _joint_basis(arrays):
    """Orthogonal basis jointly diagonalizing a commuting family.

    Diagonalizes a generic random combination and reuses its basis; a second
    combination is tried if the off-diagonal residual exceeds 1e-8 * scale.
    The combination coefficients come from a fixed-seed generator so the
    result is a pure function of the input.
    """
    k = len(arrays)
    rng = np.random.default_rng(0x1DEA)
    scale = max(max(operator_norm(x) for x in arrays), 1e-300)
    for _ in range(2):
        c = rng.standard_normal(k)
        combo = sum(ci * x for ci, x in zip(c, arrays))
        combo = (combo + combo.conj().T) / 2.0
        _, basis = np.linalg.eigh(combo)
        worst = 0.0
        for x in arrays:
            rot = basis.conj().T @ x @ basis
            off = rot - np.diag(np.diag(rot))
            worst = max(worst, operator_norm(off))
        if worst <= 1e-8 * scale:
            return basis
    raise CommutationError(
        f"joint diagonalization residual {worst:.3e} exceeds "
        "1.0e-08 * scale; tuple does not commute within tolerance")


def apply_scalar_function(f, x) -> SymMatrix:
    """Functional calculus f(X) on a commuting tuple through joint diagonalization.

    ``f`` takes k scalar arguments (k = tuple arity); for k = 1 this is the
    standard functional calculus.  Raises CommutationError when the tuple does
    not commute within tolerance and ValueError when f is undefined (non-finite)
    at a joint eigenvalue.
    """
    xt = as_tuple(x)
    arrays = xt.arrays()
    n = xt.n
    if xt.k == 1:
        lam, basis = np.linalg.eigh(arrays[0])
        joint = [lam]
    else:
        basis = _joint_basis(arrays)
        joint = [np.real(np.diag(basis.conj().T @ a @ basis)) for a in arrays]
    # non-finite values become a ValueError below, so silence numpy here
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            vals = np.asarray(f(*joint), dtype=float)
            if vals.shape != (n,):
                raise TypeError
        except TypeError:
            vals = np.array([float(f(*(col[j] for col in joint))) for j in range(n)])
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        point = tuple(float(col[bad]) for col in joint)
        raise ValueError(f"function undefined at joint eigenvalue {point}")
    return SymMatrix(basis @ np.diag(vals) @ basis.conj().T)


def psd_sqrt(a) -> SymMatrix:
    """Principal square root of a PSD matrix (negative roundoff clamped to 0)."""
    m = _as_array(_sym(a))
    vals, vecs = np.linalg.eigh(m)
    _psd_check(vals, DEFAULT_PSD_TOL, "psd_sqrt")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return SymMatrix(vecs @ np.diag(root) @ vecs.conj().T)


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# Each generator comes in two parts: a draw takes the random numbers of one
# sample from the generator, in a fixed order, and a build does the
# arithmetic of many draws at once, in stacked calls.  A stacked LAPACK or
# matmul call gives each slice the bits of the call on that slice alone, so a
# stacked build equals the builds of its draws one by one.  The public
# generators are the builds of a stack of one.

def _orthonormal(g: np.ndarray) -> np.ndarray:
    """The Q factors of a stack of (m, n) Gaussian draws (m >= n), each
    column's sign fixed by the diagonal of R, which makes them Haar
    distributed and deterministic: one stacked ``qr``."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    return _orthonormal(_isometry_draw(n, n, rng)[None])[0]


def random_pd(n: int, interval=(0.1, 10.0), seed=0) -> SymMatrix:
    """Random PD matrix with spectrum drawn uniformly from ``interval``."""
    return SymMatrix(_pd_build(_pd_draw(1, n, interval, _rng(seed)))[0])


def _pd_draw(count: int, n: int, interval, rng) -> list:
    """The random numbers of ``count`` successive `random_pd` draws from
    ``rng``: per matrix, the pair of its (n, n) Gaussian and its spectrum."""
    lo, hi = interval
    if not (0.0 < lo <= hi):
        raise ValueError("spectrum interval must satisfy 0 < lo <= hi")
    return [(rng.standard_normal((n, n)), rng.uniform(lo, hi, n)) for _ in range(count)]


def _pd_build(draws) -> np.ndarray:
    """``Q diag(lam) Q^T`` of each ``(g, lam)`` of a list of `_pd_draw` pairs,
    Q = `_orthonormal` (g), symmetrized as `SymMatrix` does it: a
    (len(draws), n, n) stack from one stacked ``qr`` and ``matmul``."""
    g, lam = map(np.array, zip(*draws))
    diag, idx = np.zeros(g.shape), np.arange(g.shape[-1])
    diag[:, idx, idx] = lam
    q = _orthonormal(g)
    a = q @ diag @ q.swapaxes(-1, -2)
    return _halve(a + a.swapaxes(-1, -2))


def random_commuting_tuple(k: int, n: int, interval=(0.1, 10.0), seed=0) -> MatrixTuple:
    """Commuting PD tuple: one shared random orthogonal basis, independent spectra."""
    lo, hi = interval
    if not (0.0 < lo <= hi):
        raise ValueError("spectrum interval must satisfy 0 < lo <= hi")
    rng = _rng(seed)
    q = _haar_orthogonal(n, rng)
    items = []
    for _ in range(k):
        lam = rng.uniform(lo, hi, n)
        items.append(SymMatrix(q @ np.diag(lam) @ q.T))
    return MatrixTuple(tuple(items))


def make_dominated_pair(x: MatrixTuple, y: MatrixTuple):
    """Shift X down coordinatewise so that X' <= Y strictly, staying positive.

    ``X'_i = X_i - t_i I`` with ``t_i = max(0, lambda_max(X_i - Y_i)) + 0.05``.
    Scalar shifts preserve commutation.  If any X'_i leaves the
    positive cone, one common positive shift is added to both sides of every
    coordinate, which preserves the order.
    """
    xt, yt = as_tuple(x), as_tuple(y)
    if xt.k != yt.k or xt.n != yt.n:
        raise DimensionMismatch("tuples must share arity and dimension")
    xd, yd = _dominated_pair(np.array([xt.arrays()]), np.array([yt.arrays()]))
    return MatrixTuple(tuple(xd[0])), MatrixTuple(tuple(yd[0]))


def _dominated_pair(x: np.ndarray, y: np.ndarray):
    """`make_dominated_pair` of each pair of two (trials, k, n, n) stacks of
    self-adjoint coordinates, as stacks; one stacked ``eigvalsh`` per spectrum
    it needs.  Only the pairs whose own floor asks for it are lifted."""
    eye = np.eye(x.shape[-1])
    # Python's max(0, t) and min() semantics on a NaN, kept: fmax, and min of a list
    t = np.fmax(0.0, np.linalg.eigvalsh(x - y)[..., -1]) + 0.05
    shifted = x - t[..., None, None] * eye
    floor = np.array([min(row) for row in np.linalg.eigvalsh(shifted)[..., 0].tolist()])
    lifted = floor <= 0.0
    if lifted.any():
        lift = np.where(lifted, 0.05 - floor, 0.0)[:, None, None, None] * eye
        where = lifted[:, None, None, None]
        np.add(shifted, lift, out=shifted, where=where)
        y = np.add(y, lift, out=y.copy(), where=where)
    return shifted, y


def random_isometry(n: int, m: int, seed=0) -> Contraction:
    """Random isometry C^n -> C^m (m >= n), W*W = I to 1e-12."""
    return Contraction(_orthonormal(_isometry_draw(n, m, _rng(seed))[None])[0])


def _isometry_draw(n: int, m: int, rng) -> np.ndarray:
    """The (m, n) Gaussian of a `random_isometry` draw; its build is `_orthonormal`."""
    if m < n:
        raise ValueError(f"isometry needs target dim >= source dim, got {m} < {n}")
    return rng.standard_normal((m, n))


def random_contraction(n: int, m: int, seed=0) -> Contraction:
    """Random strict contraction C^n -> C^m via norm rescaling."""
    g, target = _contraction_draw(n, m, _rng(seed))
    return Contraction(_contraction_build(g[None], np.array([target]))[0])


def _contraction_draw(n: int, m: int, rng):
    """The (m, n) Gaussian and the target norm of a `random_contraction` draw."""
    return rng.standard_normal((m, n)), rng.uniform(0.1, 1.0)


def _contraction_build(g: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``g * target / ||g||`` of a stack of `_contraction_draw` draws: one stacked ``svd``."""
    return g * (target / np.maximum(_operator_norms(g), 1e-300))[..., None, None]


# ---------------------------------------------------------------------------
# structural helpers shared by the suites
# ---------------------------------------------------------------------------

def direct_sum(a, b) -> SymMatrix:
    return SymMatrix(_direct_sums(_as_array(_sym(a)), _as_array(_sym(b))))


def _direct_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The direct sums ``a (+) b`` of two stacks of square matrices."""
    n, m = a.shape[-1], b.shape[-1]
    out = np.zeros((*a.shape[:-2], n + m, n + m), dtype=np.result_type(a, b))
    out[..., :n, :n] = a
    out[..., n:, n:] = b
    return out


def tuple_direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    xt, yt = as_tuple(x), as_tuple(y)
    if xt.k != yt.k:
        raise DimensionMismatch("tuples must share arity")
    return MatrixTuple(tuple(direct_sum(a, b) for a, b in zip(xt.items, yt.items)))


def tuple_compress(x: MatrixTuple, w) -> MatrixTuple:
    """Coordinatewise compression W* X_i W."""
    xt = as_tuple(x)
    wm = _as_array(w)
    if wm.shape[0] != xt.n:
        raise DimensionMismatch(f"map has {wm.shape[0]} rows, tuple dimension is {xt.n}")
    return MatrixTuple(tuple(_compressed(np.stack(xt.arrays()), wm)))


def _compressed(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``W* X_i W`` of a (..., k, n, n) stack of coordinates and a (..., n, m)
    stack of maps W, symmetrized as `SymMatrix` does it."""
    w = w[..., None, :, :]
    c = w.conj().swapaxes(-1, -2) @ x @ w
    return _halve(c + c.conj().swapaxes(-1, -2))
