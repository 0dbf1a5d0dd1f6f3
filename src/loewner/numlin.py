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


def _finite(arr: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``arr`` if every entry is finite, else ValueError: checked before an
    eigensolve, which a NaN or an infinity would pass or spoil."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite entry")
    return arr


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


def _eigvalsh_slack(n: int, fro):
    """``2 n eps fro``: twice the error ``n eps fro`` assumed of ``eigvalsh``
    on an n x n Hermitian matrix of Frobenius norm ``fro``."""
    return 2 * n * np.finfo(float).eps * fro


def _psd_shift(n: int, scale, fro, tol: float):
    """``s = tau - 2 n eps (fro + tau)``, ``tau = tol scale``, for n x n
    Hermitian matrices with ``scale = max(1, largest diagonal entry)`` and
    Frobenius norm ``fro`` (arrays for a stack): ``lambda_min > -s`` implies
    that `_psd_check` of ``eigvalsh`` accepts at ``tol``, since ``tau <= tol
    max(1, lambda_max)`` and s is below tau by more than the error of
    ``eigvalsh`` (`_eigvalsh_slack`)."""
    tau = tol * scale
    return tau - _eigvalsh_slack(n, fro + tau)


def _cholesky_shift(diag, floor):
    """The shift c for which a Cholesky of ``z + c I`` that completes proves
    ``lambda_min(z) > floor``, for n x n Hermitian z with real diagonal
    ``diag`` (a stack: the last axis, and one floor per matrix).  ``c = -floor
    - (n + 2) eps (sum |z_ii| + n |floor|) - n tiny``: the subtracted term
    bounds the rounding of the Cholesky (Demmel; Rump, BIT 2006) and of the
    shifted diagonal, complex arithmetic and underflow included."""
    n, info = diag.shape[-1], np.finfo(float)
    trace = np.abs(diag).sum(axis=-1) + n * np.abs(floor)
    return -floor - (n + 2) * info.eps * trace - n * info.tiny


def _shifted(z: np.ndarray, c) -> np.ndarray:
    """``z + c I`` (a copy) for each matrix of the stack ``z``, one shift each."""
    shifted, i = np.array(z), np.arange(z.shape[-1])
    shifted[..., i, i] += np.asarray(c)[..., None]
    return shifted


def _cholesky_completes(z: np.ndarray, c) -> bool:
    """True when a Cholesky of ``z + c I`` completes for every matrix of the
    stack ``z`` (one shift per matrix); LAPACK reads only the lower triangle.
    ``z + c I`` must be finite: a NaN does not stop the factorization."""
    try:
        np.linalg.cholesky(_shifted(z, c))
    except np.linalg.LinAlgError:
        return False
    return True


def _cholesky_completions(z: np.ndarray, c) -> np.ndarray:
    """`_cholesky_completes` for each matrix of the stack ``z`` on its own:
    True where a Cholesky of ``z + c I`` (its lower triangle) runs to the end
    with every pivot positive and finite.  The stack is factored by hand, one
    column at a time, since LAPACK's stacked call raises for the whole stack
    when one matrix fails: each step divides the column below the pivot by
    the pivot's root and subtracts its outer product from the trailing block,
    whose diagonal then holds the pivots.  A NaN or infinite entry or shift
    makes some pivot NaN or infinite, so it gives False."""
    with np.errstate(all="ignore"):
        a = _shifted(z, c)
        for j in range(z.shape[-1] - 1):
            col = a[..., j + 1:, j] / np.sqrt(a[..., j, j].real)[..., None]
            a[..., j + 1:, j + 1:] -= col[..., :, None] * col[..., None, :].conj()
    pivots = np.diagonal(a, axis1=-2, axis2=-1).real
    return ((pivots > 0.0) & (pivots < np.inf)).all(axis=-1)


def _admission_shift(z: np.ndarray, tol: float):
    """The shift c = `_cholesky_shift` of -s, s = `_psd_shift`, of each
    Hermitian matrix of ``z`` (a float, or an array for a stack), or None
    when c is not positive somewhere or an entry or ``tol`` is not finite.
    A Cholesky of ``z + D`` that completes, for a diagonal D with entries in
    [0, c], proves ``lambda_min(z) > -s``: ``lambda_min(z + D) <=
    lambda_min(z) + c``, and the rounding term of c bounds that of z + D,
    whose trace is at most ``sum |z_ii| + n s``."""
    n, fro = z.shape[-1], np.linalg.norm(z, axis=(-2, -1))
    if not (np.isfinite(fro).all() and np.isfinite(tol)):
        return None
    diag = np.diagonal(z, axis1=-2, axis2=-1).real
    s = _psd_shift(n, np.fmax(1.0, diag.max(axis=-1)), fro, tol)
    c = _cholesky_shift(diag, -s)
    return c if np.all(c > 0) else None


def _certified_psd(z: np.ndarray, tol: float) -> bool:
    """True certifies that `_psd_check` of ``eigvalsh`` accepts at ``tol``
    each Hermitian matrix of ``z`` (one, or a stack, certified whole or not
    at all): a Cholesky of ``z + c I``, c = `_admission_shift`, completes.
    False defers to it."""
    c = _admission_shift(z, tol)
    return c is not None and _cholesky_completes(z, c)


def loewner_leq(a, b, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Loewner order predicate: A <= B up to a relative tolerance.

    True iff ``lambda_min(B - A) >= -tol * max(1, ||A||, ||B||)``.
    """
    am, bm = _finite(_as_array(_sym(a))), _finite(_as_array(_sym(b)))
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bm.shape} differ")
    diff_min = float(np.linalg.eigvalsh(bm - am)[0])
    vals_a = np.linalg.eigvalsh(am)
    vals_b = np.linalg.eigvalsh(bm)
    scale = max(1.0, abs(vals_a[0]), abs(vals_a[-1]), abs(vals_b[0]), abs(vals_b[-1]))
    return diff_min >= -tol * scale


def _max(first, *rest):
    """Python's ``max`` of arrays, elementwise and with its NaN semantics: an
    argument replaces the running maximum only where it is greater."""
    for a in rest:
        first = np.where(a > first, a, first)
    return first


def _diagonals(d: np.ndarray) -> np.ndarray:
    """The (..., n, n) stack of diagonal matrices of a (..., n) stack of diagonals."""
    out, idx = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype), np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


def _joint_bases(x: np.ndarray):
    """Orthogonal bases jointly diagonalizing each commuting family of a
    (T, k, n, n) stack: ``(bases, joint, errors)``, with ``joint`` the joint
    eigenvalues as one (T, n) array per coordinate and per family None or
    its CommutationError.

    Diagonalizes a generic random combination and reuses its basis; a second
    combination is tried for the families whose off-diagonal residual
    exceeds 1e-8 * scale.  The combination coefficients come from a
    fixed-seed generator, the same for every family, so the result is a
    pure function of each family.
    """
    k = x.shape[1]
    rng = np.random.default_rng(0x1DEA)
    scale = _max(_max(*_operator_norms(x).T), 1e-300)
    bases, rots = np.empty(x[:, 0].shape, dtype=x.dtype), np.empty_like(x)
    todo, worst = np.arange(len(x)), np.zeros(len(x))
    for _ in range(2):
        c = rng.standard_normal(k)
        xs = x[todo]
        combo = sum(ci * xs[:, i] for i, ci in enumerate(c))
        combo = (combo + combo.conj().swapaxes(-1, -2)) / 2.0
        _, basis = np.linalg.eigh(combo)
        rot = basis.conj().swapaxes(-1, -2)[:, None] @ xs @ basis[:, None]
        off = rot - _diagonals(np.diagonal(rot, axis1=-2, axis2=-1))
        worst[todo] = _max(0.0, *_operator_norms(off).T)
        bases[todo], rots[todo] = basis, rot
        todo = todo[~(worst[todo] <= 1e-8 * scale[todo])]
        if not todo.size:
            break
    errors = [None] * len(x)
    for i in todo.tolist():
        errors[i] = CommutationError(
            f"joint diagonalization residual {worst[i]:.3e} exceeds "
            "1.0e-08 * scale; tuple does not commute within tolerance")
    joint = np.real(np.diagonal(rots, axis1=-2, axis2=-1))
    return bases, [np.ascontiguousarray(joint[:, i]) for i in range(k)], errors


def _scalar_values(f, joint):
    """f at the joint eigenvalues of a stack of points (``joint``: one (T, n)
    array per coordinate): the (T, n) values and per point None or the
    exception that rejects it.  f runs once on the whole stack; if it raises
    there or gives another shape, each point runs alone, as a lone point
    does: on its (n,) arrays, then on each joint eigenvalue when that raises
    TypeError or gives another shape.  A non-finite value is a ValueError."""
    t, n = joint[0].shape
    errors = [None] * t
    # non-finite values become a ValueError below, so silence numpy here
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            vals = np.asarray(f(*joint), dtype=float)
            if vals.shape != (t, n):
                raise TypeError
        except Exception:
            vals = np.zeros((t, n))
            for i in range(t):
                try:
                    vals[i] = _point_values(f, [col[i] for col in joint])
                except Exception as exc:
                    errors[i] = exc
    for i in np.flatnonzero(~np.isfinite(vals).all(axis=1)).tolist():
        bad = int(np.flatnonzero(~np.isfinite(vals[i]))[0])
        point = tuple(float(col[i, bad]) for col in joint)
        errors[i] = ValueError(f"function undefined at joint eigenvalue {point}")
    return vals, errors


def _point_values(f, joint):
    """f at the joint eigenvalues of one point (``joint``: one (n,) array per
    coordinate): on the arrays, or on each joint eigenvalue when that raises
    TypeError or gives another shape."""
    n = len(joint[0])
    try:
        vals = np.asarray(f(*joint), dtype=float)
        if vals.shape != (n,):
            raise TypeError
    except TypeError:
        vals = np.array([float(f(*(col[j] for col in joint))) for j in range(n)])
    return vals


def _functional_calculus(f, x: np.ndarray):
    """`apply_scalar_function` at each point of a (T, k, n, n) stack of
    commuting self-adjoint coordinates: a (T, n, n) stack of values (zero
    where a point fails) and per point None or the exception that rejects
    it.  One stacked ``eigh`` (k = 1) or `_joint_bases` (k > 1) gives the
    joint eigenvalues, f runs once on the stack (`_scalar_values`) and one
    stacked ``matmul`` assembles the values, symmetrized as `SymMatrix` does
    it; each value has the bits of its point's lone call."""
    if x.shape[1] == 1:
        lam, bases = np.linalg.eigh(x[:, 0])
        joint, errors = [lam], [None] * len(x)
    else:
        bases, joint, errors = _joint_bases(x)
    ok = np.array([e is None for e in errors], dtype=bool)
    idx = np.flatnonzero(ok)
    if idx.size:
        vals, failed = _scalar_values(f, [col[idx] for col in joint])
        for i, exc in zip(idx.tolist(), failed):
            errors[i] = exc
        kept = np.array([e is None for e in failed], dtype=bool)
        idx, vals = idx[kept], vals[kept]
    out = np.zeros(x[:, 0].shape, dtype=bases.dtype)
    if idx.size:
        b = bases[idx]
        a = b @ _diagonals(vals) @ b.conj().swapaxes(-1, -2)
        out[idx] = _halve(a + a.conj().swapaxes(-1, -2))
    return out, errors


def apply_scalar_function(f, x) -> SymMatrix:
    """Functional calculus f(X) on a commuting tuple through joint diagonalization.

    ``f`` takes k scalar arguments (k = tuple arity); for k = 1 this is the
    standard functional calculus.  Raises CommutationError when the tuple does
    not commute within tolerance and ValueError when f is undefined (non-finite)
    at a joint eigenvalue.  The stack of one of `_functional_calculus`.
    """
    (value,), (error,) = _functional_calculus(f, np.array(as_tuple(x).arrays())[None])
    if error is not None:
        raise error
    return SymMatrix(value)


def psd_sqrt(a) -> SymMatrix:
    """Principal square root of a PSD matrix (negative roundoff clamped to 0)."""
    m = _finite(_as_array(_sym(a)))
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
    return _rotated_spectra(_orthonormal(g), lam)


def _rotated_spectra(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``Q diag(lam) Q^T`` of stacks of orthogonal Q and spectra, symmetrized
    as `SymMatrix` does it."""
    a = q @ _diagonals(lam) @ q.swapaxes(-1, -2)
    return _halve(a + a.swapaxes(-1, -2))


def random_commuting_tuple(k: int, n: int, interval=(0.1, 10.0), seed=0) -> MatrixTuple:
    """Commuting PD tuple: one shared random orthogonal basis, independent spectra."""
    return MatrixTuple(tuple(_commuting_build([_commuting_draw(k, n, interval, _rng(seed))])[0]))


def _commuting_draw(k: int, n: int, interval, rng):
    """The random numbers of a `random_commuting_tuple` draw: the (n, n)
    Gaussian of the shared basis and the k spectra."""
    lo, hi = interval
    if not (0.0 < lo <= hi):
        raise ValueError("spectrum interval must satisfy 0 < lo <= hi")
    return _isometry_draw(n, n, rng), [rng.uniform(lo, hi, n) for _ in range(k)]


def _commuting_build(draws) -> np.ndarray:
    """``Q diag(lam_i) Q^T`` of each `_commuting_draw` ``(g, lams)``, Q =
    `_orthonormal` (g), symmetrized as `SymMatrix` does it: a
    (len(draws), k, n, n) stack from one stacked ``qr`` and ``matmul``."""
    g, lam = map(np.array, zip(*draws))
    return _rotated_spectra(_orthonormal(g)[:, None], lam)


def make_dominated_pair(x: MatrixTuple, y: MatrixTuple):
    """Shift X down coordinatewise so that X' <= Y strictly, staying positive.

    ``X'_i = X_i - t_i I`` with ``t_i = max(0, lambda_max(X_i - Y_i)) + 0.05``.
    Scalar shifts preserve commutation.  If any X'_i leaves the
    positive cone, one common positive shift is added to both sides of every
    coordinate, which preserves the order.  A NaN or infinite entry raises
    ValueError.
    """
    xt, yt = as_tuple(x), as_tuple(y)
    if xt.k != yt.k or xt.n != yt.n:
        raise DimensionMismatch("tuples must share arity and dimension")
    xd, yd = _dominated_pair(*(_finite(np.array([t.arrays()]), "tuple") for t in (xt, yt)))
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
