"""Randomized property suites for pencil realizations and scalar functions.

Each suite draws seeded trials, measures a normalized violation per trial and
aggregates a machine-readable report.  Sign convention: violations are signed
floats where negative means "bad": for order checks it is the most negative
eigenvalue of the difference that should be PSD, normalized by
max(1, ||F(X)||); for equality checks it is the negated normalized residual
norm.  A suite passes iff no trial dips below -tol.  Reports are bit-for-bit
reproducible from (seed, config); trial seeds are derived as
seed*1e6 + dim*1e4 + trial.

A trial of the pencil suites (axioms, monotone, concave, jensen, herglotz)
is a draw and a measure (`_run`): every trial of one dimension is drawn first,
each from its own generator in the order of a lone trial; the points of all
of them are evaluated in one stacked call per point size (`_evaluate`, over
`pencil._route` or `pencil._route_complex`); then each trial measures its
violation from its values.  A point outside the domain skips only its own
trial.  The scalar suites and those in `measures` run each trial whole
(`_deferred`).

One tally, `_tally`, serves every suite (those in `measures` too).  A trial
returns its violation, raises `_Skip`, or raises `_Fail` to fail whatever its
violation (herglotz: a singular pivot, or conjugate asymmetry above sym_tol).
`check_directsum_coupling` labels trials by coupling index, so that index is
its ``first_failure_seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import pencil as _pencil
from .numlin import (
    DEFAULT_PSD_TOL,
    MatrixTuple,
    _compressed,
    _direct_sums,
    _dominated_pair,
    _halve,
    _haar_orthogonal,
    _random_pd_stack,
    as_tuple,
    apply_scalar_function,
    make_dominated_pair,
    operator_norm,
    random_commuting_tuple,
    random_contraction,
    random_isometry,
    random_pd,
    tuple_compress,
)

__all__ = [
    "SuiteConfig",
    "VerificationReport",
    "HullCertificate",
    "check_free_axioms",
    "check_monotone",
    "check_monotone_scalar",
    "check_concave",
    "check_jensen_isometry",
    "check_hypograph_saturation",
    "check_herglotz",
    "comat_decompose",
    "reconstruct_hull_certificate",
]


# The spectrum interval of every random PD draw in the suites.
_SPECTRUM = (0.1, 10.0)


@dataclass(frozen=True)
class SuiteConfig:
    dims: tuple = (2, 3, 4)
    trials: int = 100
    seed: int = 0
    tol: float = 1e-8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.0 < self.tol < math.inf:  # NaN too: `v < -tol` would never hold
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or min(self.dims) < 1:
            raise ValueError(f"dims must be a nonempty list of dimensions >= 1, got {self.dims}")


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    dims: tuple
    trials: int
    failures: int
    skipped: int
    worst_violation: float
    first_failure_seed: int | None
    seed: int
    tol: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (self.failures == 0):
            raise ValueError("pass flag must equal (failures == 0)")

    def summary(self) -> str:
        return (f"{self.suite}: {'pass' if self.passed else 'FAIL'} "
                f"(failures={self.failures}/{self.trials * len(self.dims)}, "
                f"skipped={self.skipped}, worst={self.worst_violation:.3e})")


class _Skip(Exception):
    pass


class _Fail(Exception):
    """``_Fail(v)``: the trial fails whatever its violation ``v``, which still counts."""


def _tally(suite: str, cfg: SuiteConfig, trials, extras=None) -> VerificationReport:
    """Report of ``(label, run)`` pairs: ``run()`` returns a violation or raises `_Skip`
    or `_Fail`; the first failing label is ``first_failure_seed``."""
    worst = np.inf
    failures = skipped = 0
    first_fail = None
    for label, run in trials:
        try:
            v = run()
            failed = v < -cfg.tol
        except _Skip:
            skipped += 1
            continue
        except _Fail as exc:
            v, failed = exc.args[0], True
        worst = min(worst, v)
        if failed:
            failures += 1
            if first_fail is None:
                first_fail = label
    return VerificationReport(
        suite=suite, dims=cfg.dims, trials=cfg.trials, failures=failures,
        skipped=skipped, worst_violation=float(worst) if np.isfinite(worst) else 0.0,
        first_failure_seed=first_fail, seed=cfg.seed, tol=cfg.tol,
        passed=failures == 0,
        extras={k: float(v) for k, v in (extras or {}).items()})


def _run(suite: str, cfg: SuiteConfig, draw, evaluate=None, extras=None) -> VerificationReport:
    """Tally of the seeded trials of every dimension.  ``draw(rng, dim, trial)``
    returns the trial's points (each a (k, n, n) stack of coordinates) and its
    run, ``measure(values)``.  Every trial of a dimension is drawn first, each from
    its own generator; ``evaluate(points)`` then gives the values of all their
    points in one call, and the trials are measured in order."""
    def trials():
        for dim in cfg.dims:
            seeds = [cfg.seed * 1_000_000 + dim * 10_000 + trial for trial in range(cfg.trials)]
            drawn = [draw(np.random.default_rng(ts), dim, trial) for trial, ts in enumerate(seeds)]
            points = [p for trial_points, _ in drawn for p in trial_points]
            values = iter(evaluate(points) if points else ())
            for ts, (trial_points, measure) in zip(seeds, drawn):
                yield ts, partial(measure, [next(values) for _ in trial_points])

    return _tally(suite, cfg, trials(), extras)


def _deferred(trial_fn):
    """``trial_fn(rng, dim, trial)``, a trial that returns its violation, as a
    draw for `_run` with no points: the whole trial runs when measured."""
    return lambda rng, dim, trial: ((), lambda values: trial_fn(rng, dim, trial))


def _random_tuples(count: int, k: int, n: int, rng) -> np.ndarray:
    """``count`` successive random PD k-tuples, each a (k, n, n) stack, from
    one stacked draw."""
    return _random_pd_stack(count * k, n, _SPECTRUM, rng).reshape(count, k, n, n)


def _evaluate(points, route, hermitian):
    """Per point, ``(F(X), ||F(X)||)`` or the exception that rejects X.
    A point is a (k, n, n) stack of coordinates; ``route(arrays)`` gives the
    values at the coordinate stacks of every point of one size n, in one call
    per size.  A ``hermitian`` value is symmetrized as `SymMatrix` does it."""
    out = [None] * len(points)
    for n in dict.fromkeys(p.shape[-1] for p in points):
        idx = [i for i, p in enumerate(points) if p.shape[-1] == n]
        values = route([np.stack(c) for c in zip(*(points[i] for i in idx))])
        ok = [j for j, v in enumerate(values) if not isinstance(v, Exception)]
        if ok:
            f = np.stack([values[j] for j in ok])
            if hermitian:
                f = _halve(f + f.conj().swapaxes(-1, -2))
            # the norms of `operator_norm`, from one stacked svd
            for j, fj, norm in zip(ok, f, np.linalg.svd(f, compute_uv=False).max(axis=-1).tolist()):
                values[j] = fj, norm
        for i, v in zip(idx, values):
            out[i] = v
    return out


def _real_values(r):
    """`_run`'s ``evaluate`` for `pencil.eval` at the default tolerance."""
    return partial(_evaluate, route=lambda arrays: _pencil._route(r, arrays, DEFAULT_PSD_TOL)[1],
                   hermitian=True)


def _complex_values(r):
    """`_run`'s ``evaluate`` for `pencil.eval_complex`."""
    def route(arrays):
        return _pencil._route_complex(r, arrays, _pencil._imaginary_floor(arrays))[1]

    return partial(_evaluate, route=route, hermitian=False)


def _admitted(values, reject=_Skip):
    """The ``(F(X), ||F(X)||)`` of a trial's points; ``reject`` is raised if
    any point has none."""
    if any(isinstance(v, Exception) for v in values):
        raise reject
    return values


def _min_eig_scaled(diff: np.ndarray, scale: float) -> float:
    return float(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0]) / max(1.0, scale)


# ---------------------------------------------------------------------------
# free-function axioms and order/concavity suites
# ---------------------------------------------------------------------------

def check_free_axioms(r, cfg: SuiteConfig) -> VerificationReport:
    """Unitary invariance and direct-sum invariance of the realized function."""

    def draw(rng, dim, trial_index):
        (x,) = _random_tuples(1, r.k, dim, rng)
        u = _haar_orthogonal(dim, rng)
        (y,) = _random_tuples(1, r.k, dim, rng)

        def measure(values):
            (fx, fx_norm), (lhs, _), (fy, _), (fs, fs_norm) = _admitted(values)
            d1 = operator_norm(lhs - u.conj().T @ fx @ u) / max(1.0, fx_norm)
            d2 = operator_norm(fs - _direct_sums(fx, fy)) / max(1.0, fs_norm)
            return -max(d1, d2)

        return [x, _compressed(x, u), y, _direct_sums(x, y)], measure

    return _run("axioms", cfg, draw, _real_values(r))


def check_monotone(r, cfg: SuiteConfig) -> VerificationReport:
    """Loewner monotonicity on dominated pairs of PD tuples."""

    def draw(rng, dim, trial_index):
        xd, yd = _dominated_pair(*_random_tuples(2, r.k, dim, rng))

        def measure(values):
            (fx, fx_norm), (fy, fy_norm) = _admitted(values)
            return _min_eig_scaled(fy - fx, max(fx_norm, fy_norm))

        return [xd, yd], measure

    return _run("monotone", cfg, draw, _real_values(r))


def check_monotone_scalar(f, cfg: SuiteConfig, k: int = 1) -> VerificationReport:
    """Monotonicity of a scalar function applied through functional calculus.

    The counterpart of `check_monotone` for closed-form functions; the x^2
    negative control fails this suite (dominated non-commuting pairs exhibit
    the classical Loewner-order violation).
    """

    def trial(rng, dim, trial_index):
        if k == 1:
            x = MatrixTuple((random_pd(dim, _SPECTRUM, rng),))
            y = MatrixTuple((random_pd(dim, _SPECTRUM, rng),))
        else:
            x = random_commuting_tuple(k, dim, _SPECTRUM, rng)
            y = random_commuting_tuple(k, dim, _SPECTRUM, rng)
        xd, yd = make_dominated_pair(x, y)
        fx = apply_scalar_function(f, xd).entries
        fy = apply_scalar_function(f, yd).entries
        scale = max(operator_norm(fx), operator_norm(fy))
        return _min_eig_scaled(fy - fx, scale)

    return _run("monotone-scalar", cfg, _deferred(trial))


def check_concave(r, cfg: SuiteConfig) -> VerificationReport:
    """Midpoint operator concavity on random PD pairs."""

    def draw(rng, dim, trial_index):
        x, y = _random_tuples(2, r.k, dim, rng)

        def measure(values):
            (fm, fm_norm), (fx, fx_norm), (fy, fy_norm) = _admitted(values)
            return _min_eig_scaled(fm - (fx + fy) / 2.0, max(fm_norm, fx_norm, fy_norm))

        return [(x + y) / 2.0, x, y], measure

    return _run("concave", cfg, draw, _real_values(r))


def check_jensen_isometry(r, cfg: SuiteConfig) -> VerificationReport:
    """Jensen-type inequality F(W*XW) >= W* F(X) W.

    Even trials draw isometries, odd trials contractions (exercising the
    zero-extension behaviour of the pencil at singular compressions).
    """

    def draw(rng, dim, trial_index):
        n = int(rng.integers(1, dim + 1))
        if trial_index % 2 == 0:
            w = random_isometry(n, dim, rng).entries
        else:
            w = random_contraction(n, dim, rng).entries
        (x,) = _random_tuples(1, r.k, dim, rng)

        def measure(values):
            (fx, fx_norm), (lhs, lhs_norm) = _admitted(values)
            return _min_eig_scaled(lhs - w.conj().T @ fx @ w, max(lhs_norm, fx_norm))

        return [x, _compressed(x, w)], measure

    return _run("jensen", cfg, draw, _real_values(r))


# ---------------------------------------------------------------------------
# hypograph saturation and hull decomposition
# ---------------------------------------------------------------------------

def _disjoint_support_isometry(big: int, small: int, rng) -> np.ndarray:
    """Isometry whose columns have disjoint supports in the standard basis.

    Compressions of diagonal tuples by such maps stay exactly diagonal (hence
    commuting): each compressed diagonal entry is a convex combination of the
    eigenvalues in that column's support.  This constructible subfamily is
    rich enough to expose non-monotone functions (the averaging produces a
    Jensen gap for convex f) while mixing inside equal-eigenvalue blocks is
    the special case of equal support values.
    """
    perm = rng.permutation(big)
    cuts = np.sort(rng.choice(np.arange(1, big), size=small - 1, replace=False)) \
        if small > 1 else np.array([], dtype=int)
    groups = np.split(perm, cuts)
    v = np.zeros((big, small))
    for c, g in enumerate(groups):
        w = rng.uniform(0.2, 1.0, size=len(g))
        v[g, c] = np.sqrt(w / w.sum())
    return v


def check_hypograph_saturation(f, cfg: SuiteConfig, k: int = 1) -> VerificationReport:
    """Compression stability of the hypograph of a scalar function.

    Samples diagonal commuting tuples X, points Y <= f(X), and structured
    isometries V keeping the compressed tuple commuting; asserts
    V*YV <= f(V*XV) + tol.  Holds for every globally monotone f; the x^2
    negative control fails it.
    """

    def trial(rng, dim, trial_index):
        n = int(rng.integers(1, dim + 1))
        lam = [rng.uniform(*_SPECTRUM, size=dim) for _ in range(k)]
        x = MatrixTuple(tuple(np.diag(li) for li in lam))
        fx = apply_scalar_function(f, x).entries
        g = rng.standard_normal((dim, dim))
        p = g @ g.T
        p *= rng.uniform(0.0, 0.5) * max(1.0, operator_norm(fx)) / max(operator_norm(p), 1e-300)
        y = fx - p
        if k == 1 and rng.random() < 0.5:
            v = random_isometry(n, dim, rng).entries
        else:
            v = _disjoint_support_isometry(dim, n, rng)
        xc = tuple_compress(x, v)
        fxc = apply_scalar_function(f, xc).entries
        yc = v.conj().T @ y @ v
        return _min_eig_scaled(fxc - yc, operator_norm(fxc))

    return _run("hypograph", cfg, _deferred(trial))


@dataclass(frozen=True)
class HullCertificate:
    """Matrix convex combination certificate for a PD tuple.

    ``isometry`` is (k*n, n) with V*V = I; slot j contributes the strictly
    positive scalar tuple ``scalar_tuples[j]`` on a block of size
    ``block_dims[j]``.  The convex weights 1/k are folded into the isometry;
    reconstruction is X_l = V* diag(blocks of scalar_tuples[:, l]) V.
    """

    isometry: np.ndarray
    scalar_tuples: np.ndarray
    block_dims: tuple
    weights: tuple
    base_level: float


def comat_decompose(x) -> HullCertificate:
    """Decompose a PD tuple into compressions of scalar (commuting) tuples.

    Coordinate i is isolated in the tuple T_i = (zI, .., kX_i - (k-1)zI, .., zI)
    with (1/k) sum_i T_i = X and z = min_i lambda_min(X_i) * k/(2(k-1)); each
    T_i is then resolved spectrally.  For k = 1 there is no scalar padding and
    the certificate is the plain spectral decomposition (z = lambda_min).
    Eigenvalues of T_i at most ``1e-12 * max(1, |lambda_max|)`` apart share
    one block.  Every scalar entry is >= z/2 > 0.
    """
    xt = as_tuple(x)
    k, n = xt.k, xt.n
    spectra = [np.linalg.eigvalsh(xi.entries) for xi in xt.items]
    lam_min = min(float(s[0]) for s in spectra)
    if lam_min <= 0.0:
        raise ValueError(f"tuple must be positive definite, got lambda_min = {lam_min:.3e}")
    if k == 1:
        z = lam_min
        mats = [xt.items[0].entries]
    else:
        z = 0.5 * lam_min * k / (k - 1)
        mats = [k * xi.entries - (k - 1) * z * np.eye(n) for xi in xt.items]
    rows = []
    tuples = []
    block_dims = []
    inv_sqrt_k = 1.0 / np.sqrt(k)
    for i, m in enumerate(mats):
        lam, u = np.linalg.eigh((m + m.conj().T) / 2.0)
        scale = max(1.0, float(abs(lam[-1])))
        start = 0
        while start < n:
            stop = start + 1
            while stop < n and lam[stop] - lam[stop - 1] <= 1e-12 * scale:
                stop += 1
            value = float(lam[start:stop].mean())
            s = np.full(k, z)
            s[i] = value
            tuples.append(s)
            block_dims.append(stop - start)
            rows.append(inv_sqrt_k * u[:, start:stop].conj().T)
            start = stop
    v = np.vstack(rows)
    return HullCertificate(
        isometry=v,
        scalar_tuples=np.array(tuples),
        block_dims=tuple(block_dims),
        weights=tuple(1.0 / k for _ in tuples),
        base_level=z,
    )


def reconstruct_hull_certificate(cert: HullCertificate) -> list:
    """Rebuild the tuple a certificate describes; inverse of `comat_decompose`."""
    v = cert.isometry
    reps = np.repeat(cert.scalar_tuples, cert.block_dims, axis=0)
    out = []
    for el in range(cert.scalar_tuples.shape[1]):
        out.append(v.conj().T @ (reps[:, el][:, None] * v))
    return out


# ---------------------------------------------------------------------------
# analytic continuation
# ---------------------------------------------------------------------------

def check_herglotz(r, cfg: SuiteConfig, sym_tol: float = 1e-10) -> VerificationReport:
    """Imaginary-part positivity and conjugate symmetry of the continuation.

    For tuples X = A + iB with B PD: lambda_min(Im F(X)) >= -tol, and
    F(conj(X)) equals conj(F(X)) within sym_tol.  A singular pivot complement
    counts as a failure (it cannot occur when the imaginary parts are
    uniformly definite).
    """
    extras = {"max_conjugate_asymmetry": 0.0, "sym_tol": sym_tol}

    def draw(rng, dim, trial_index):
        a = [rng.standard_normal((dim, dim)) for _ in range(r.k)]
        b = _random_pd_stack(r.k, dim, _SPECTRUM, rng)
        xs = np.array([(ai + ai.T) / 2.0 + 1j * bi for ai, bi in zip(a, b)])

        def measure(values):
            (fv, fv_norm), (fc, _) = _admitted(values, _Fail(-1.0))
            scale = max(1.0, fv_norm)
            im_min = float(np.linalg.eigvalsh((fv - fv.conj().T) / 2j)[0]) / scale
            asym = operator_norm(fc - fv.conj()) / scale
            extras["max_conjugate_asymmetry"] = max(extras["max_conjugate_asymmetry"], asym)
            if asym > sym_tol:
                raise _Fail(im_min)
            return im_min

        return [xs, xs.conj()], measure

    return _run("herglotz", cfg, draw, _complex_values(r), extras)
