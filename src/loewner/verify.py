"""Randomized property suites for pencil realizations and scalar functions.

Each suite draws seeded trials, measures a normalized violation per trial and
aggregates a machine-readable report.  Sign convention: violations are signed
floats where negative means "bad": for order checks it is the most negative
eigenvalue of the difference that should be PSD, normalized by
max(1, ||F(X)||); for equality checks it is the negated normalized residual
norm.  A suite passes iff no trial dips below -tol.  Reports are bit-for-bit
reproducible from (seed, config); trial seeds are derived as
seed*1e6 + dim*1e4 + trial.

Every seeded suite, the pencil suites here (axioms, monotone, concave,
jensen, herglotz), the scalar suites (monotone-scalar, hypograph) and
`measures.check_stochastic_monotone`, runs the trials of each dimension in
blocks of at most `_BLOCK_TRIALS` (`_run`), in four steps: each trial takes
its raw random numbers (Gaussians, spectra, integers) from its own
generator, in the order of a lone trial (the draw halves of the `numlin`
generators); one build turns the block's numbers into points with stacked
``qr``, ``matmul`` and ``svd`` calls (their build halves); the points are
evaluated in one stacked call per point size (`_evaluate`); and the trials
are measured together, one stacked call per measure
(`measures.check_stochastic_monotone` decides the order and takes the means
trial by trial).  A stacked call gives each slice the bits of the call on
it alone, so a report does not depend on the block size.

One tally, `_tally`, serves every suite (those in `measures` too); it takes
one outcome per trial: its violation (a float), a `_Skip`, a `_Fail(v)`
that fails it whatever its violation v (herglotz: a singular pivot), or
any other exception, which `_tally` raises.  One evaluator, `_evaluate`,
serves every suite here: per point, F(X) (zero if rejected) and None or the
outcome that rejects it: `_Skip` out of the domain, `_Fail(-1)` at a
singular pivot, or a scalar function's error.  Every build measures its
whole block and returns `_first_errors`: per trial, the first outcome of
its points in a lone trial's call order, else its violation.
`check_directsum_coupling` labels trials by coupling index, so that index
is its ``first_failure_seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import pencil as _pencil
from .numlin import (
    DEFAULT_PSD_TOL,
    _commuting_build,
    _commuting_draw,
    _compressed,
    _contraction_build,
    _contraction_draw,
    _diagonals,
    _direct_sums,
    _dominated_pair,
    _finite,
    _functional_calculus,
    _halve,
    _isometry_draw,
    _max,
    _operator_norms,
    _orthonormal,
    _pd_build,
    _pd_draw,
    as_tuple,
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
    # no suite fills it; report files keep the key
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


def _tally(suite: str, cfg: SuiteConfig, outcomes) -> VerificationReport:
    """Report of ``(label, outcome)`` pairs, an outcome being a violation, a
    `_Skip`, a `_Fail` or an error, which is raised; the first failing label
    is ``first_failure_seed``."""
    worst = np.inf
    failures = skipped = 0
    first_fail = None
    for label, outcome in outcomes:
        if isinstance(outcome, _Skip):
            skipped += 1
            continue
        if isinstance(outcome, _Fail):
            v, failed = outcome.args[0], True
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            v, failed = outcome, outcome < -cfg.tol
        worst = min(worst, v)
        if failed:
            failures += 1
            if first_fail is None:
                first_fail = label
    return VerificationReport(
        suite=suite, dims=cfg.dims, trials=cfg.trials, failures=failures,
        skipped=skipped, worst_violation=float(worst) if np.isfinite(worst) else 0.0,
        first_failure_seed=first_fail, seed=cfg.seed, tol=cfg.tol,
        passed=failures == 0)


# At most this many trials of one dimension are drawn, built, evaluated and
# measured together, so that a suite's memory does not grow with its trials.
_BLOCK_TRIALS = 64


def _run(suite: str, cfg: SuiteConfig, draw, build) -> VerificationReport:
    """Tally of the seeded trials of every dimension, in blocks of at most
    `_BLOCK_TRIALS` consecutive trials.  Per block: ``draw(rng, dim, trial)``
    takes each trial's raw random numbers from its own generator, in the
    order of a lone trial; ``build(draws, dim, block)`` then builds the
    block's points, evaluates them and measures its trials, each step in
    stacked calls over the block, and returns per trial its `_tally`
    outcome.  Only one block is live at a time."""
    def outcomes():
        for dim in cfg.dims:
            for start in range(0, cfg.trials, _BLOCK_TRIALS):
                block = range(start, min(start + _BLOCK_TRIALS, cfg.trials))
                seeds = [cfg.seed * 1_000_000 + dim * 10_000 + trial for trial in block]
                draws = [draw(np.random.default_rng(ts), dim, trial)
                         for ts, trial in zip(seeds, block)]
                yield from zip(seeds, build(draws, dim, block))

    return _tally(suite, cfg, outcomes())


def _first_errors(violations, *errors):
    """The `_tally` outcomes of a block's trials: a trial's violation, or
    the first error of its own calls, in the order of a lone trial
    (``errors``: per call, one list over the trials, each item None or an
    outcome that settles the trial)."""
    return [next((e for e in errs if e is not None), v) for v, *errs in zip(violations, *errors)]


def _pd_stack(draws, *shape) -> np.ndarray:
    """The PD matrices of a block's `_pd_draw` draws (one per trial), from
    one build, as a (trials, *shape, n, n) stack."""
    built = _pd_build([pair for draw in draws for pair in draw])
    return built.reshape(len(draws), *shape, *built.shape[-2:])


def _evaluate(stacks, route):
    """Per (P, k, n, n) stack of points, ``(f, norm, errors)``: F(X) and
    ||F(X)||, zero at a rejected point, and per point None or the `_tally`
    outcome that rejects it.  The stacks of one size n go to ``route`` as one
    stack, in order; it returns what `numlin._functional_calculus` does."""
    out = [None] * len(stacks)
    for n in dict.fromkeys(s.shape[-1] for s in stacks):
        idx = [i for i, s in enumerate(stacks) if s.shape[-1] == n]
        f, errors = route(np.concatenate([stacks[i] for i in idx]))
        norm = _operator_norms(f)
        start = 0
        for i in idx:
            stop = start + len(stacks[i])
            out[i] = f[start:stop], norm[start:stop], errors[start:stop]
            start = stop
    return out


def _admitted(route, reject, points):
    """A pencil ``route`` at a stack of ``points`` as `_evaluate` takes it,
    each rejected point zero and its outcome a new ``reject()``."""
    values = route([np.ascontiguousarray(points[:, j]) for j in range(points.shape[1])])[1]
    errors = [reject() if isinstance(v, Exception) else None for v in values]
    zero = np.zeros_like(points[0, 0])
    return np.array([v if e is None else zero for v, e in zip(values, errors)]), errors


def _real_values(r):
    """`_evaluate` for `pencil.eval` at the default tolerance, each value
    symmetrized as `SymMatrix` does it."""
    def route(points):
        f, errors = _admitted(lambda a: _pencil._route(r, a, DEFAULT_PSD_TOL), _Skip, points)
        return _halve(f + f.conj().swapaxes(-1, -2)), errors

    return partial(_evaluate, route=route)


def _complex_values(r):
    """`_evaluate` for `pencil.eval_complex`."""
    return partial(_evaluate, route=partial(_admitted, partial(_pencil._route_complex, r),
                                            partial(_Fail, -1.0)))


def _min_eig_scaled(diff: np.ndarray, scale):
    """The smallest eigenvalue of the self-adjoint part of ``diff`` over
    max(1, ``scale``): a float for a matrix, a list for a stack of them (one
    stacked ``eigvalsh``) and an array of scales."""
    lam = np.linalg.eigvalsh((diff + diff.conj().swapaxes(-1, -2)) / 2.0)[..., 0]
    return (lam / np.fmax(1.0, scale)).tolist()


def _grouped_maps(sizes, isometry, draws, build):
    """Per source size n of a block's maps, in order of first use: the
    indices of its trials, those whose ``isometry`` is set first, and their
    maps, built with one `_orthonormal` over the isometries' Gaussians and
    one ``build`` over the other draws."""
    kinds = {}
    for i, n in enumerate(sizes):
        kinds.setdefault(n, ([], []))[not isometry[i]].append(i)
    groups = []
    for isometries, others in kinds.values():
        maps = [_orthonormal(np.array([draws[i] for i in isometries]))] if isometries else []
        if others:
            maps.append(build([draws[i] for i in others]))
        groups.append((np.array(isometries + others), np.concatenate(maps)))
    return groups


# ---------------------------------------------------------------------------
# free-function axioms and order/concavity suites
# ---------------------------------------------------------------------------

def check_free_axioms(r, cfg: SuiteConfig) -> VerificationReport:
    """Unitary invariance and direct-sum invariance of the realized function."""
    evaluate = _real_values(r)

    def draw(rng, dim, trial_index):
        x = _pd_draw(r.k, dim, _SPECTRUM, rng)
        u = _isometry_draw(dim, dim, rng)
        return x, u, _pd_draw(r.k, dim, _SPECTRUM, rng)

    def build(draws, dim, block):
        xs, us, ys = zip(*draws)
        xy = _pd_stack(xs + ys, r.k)
        x, y = xy[:len(block)], xy[len(block):]
        u = _orthonormal(np.array(us))
        (fx, fx_norm, ex), (lhs, _, eu), (fy, _, ey), (fs, fs_norm, es) = evaluate(
            [x, _compressed(x, u), y, _direct_sums(x, y)])
        ufu = u.conj().swapaxes(-1, -2) @ fx @ u
        d1 = _operator_norms(lhs - ufu) / np.fmax(1.0, fx_norm)
        d2 = _operator_norms(fs - _direct_sums(fx, fy)) / np.fmax(1.0, fs_norm)
        return _first_errors((-_max(d1, d2)).tolist(), ex, eu, ey, es)

    return _run("axioms", cfg, draw, build)


def _dominated_outcomes(evaluate, x, y):
    """The outcomes of F(Xd) <= F(Yd) on the `_dominated_pair` of a block,
    F(Xd) evaluated first."""
    (fx, fx_norm, ex), (fy, fy_norm, ey) = evaluate(_dominated_pair(x, y))
    return _first_errors(_min_eig_scaled(fy - fx, _max(fx_norm, fy_norm)), ex, ey)


def check_monotone(r, cfg: SuiteConfig) -> VerificationReport:
    """Loewner monotonicity on dominated pairs of PD tuples."""
    evaluate = _real_values(r)

    def draw(rng, dim, trial_index):
        return _pd_draw(2 * r.k, dim, _SPECTRUM, rng)

    def build(draws, dim, block):
        return _dominated_outcomes(evaluate, *_pd_stack(draws, 2, r.k).swapaxes(0, 1))

    return _run("monotone", cfg, draw, build)


def check_monotone_scalar(f, cfg: SuiteConfig, k: int = 1) -> VerificationReport:
    """Monotonicity of a scalar function applied through functional calculus.

    The counterpart of `check_monotone` for closed-form functions; the x^2
    negative control fails this suite (dominated non-commuting pairs exhibit
    the classical Loewner-order violation).
    """
    evaluate = partial(_evaluate, route=partial(_functional_calculus, f))

    def draw(rng, dim, trial_index):
        if k == 1:
            return _pd_draw(2, dim, _SPECTRUM, rng)
        return [_commuting_draw(k, dim, _SPECTRUM, rng) for _ in range(2)]

    def build(draws, dim, block):
        if k == 1:
            xy = _pd_stack(draws, 2, 1)
        else:
            built = _commuting_build([pair for draw in draws for pair in draw])
            xy = built.reshape(len(draws), 2, *built.shape[1:])
        return _dominated_outcomes(evaluate, *xy.swapaxes(0, 1))

    return _run("monotone-scalar", cfg, draw, build)


def check_concave(r, cfg: SuiteConfig) -> VerificationReport:
    """Midpoint operator concavity on random PD pairs."""
    evaluate = _real_values(r)

    def draw(rng, dim, trial_index):
        return _pd_draw(2 * r.k, dim, _SPECTRUM, rng)

    def build(draws, dim, block):
        x, y = _pd_stack(draws, 2, r.k).swapaxes(0, 1)
        (fm, fm_norm, em), (fx, fx_norm, ex), (fy, fy_norm, ey) = evaluate([(x + y) / 2.0, x, y])
        scale = _max(fm_norm, fx_norm, fy_norm)
        return _first_errors(_min_eig_scaled(fm - (fx + fy) / 2.0, scale), em, ex, ey)

    return _run("concave", cfg, draw, build)


def _compression_outcomes(evaluate, x, groups, lower):
    """The outcomes of F(V*XV) >= V*LV at a block's points ``x`` and the maps
    V of `_grouped_maps` ``groups``, F(X) evaluated first: ``lower(fx,
    fx_norm)`` gives each trial's L and a floor of its scale."""
    (fx, fx_norm, errors), *values = evaluate([x] + [_compressed(x[idx], v) for idx, v in groups])
    low, low_norm = lower(fx, fx_norm)
    violation, errors_v = np.empty(len(x)), [None] * len(x)
    for (idx, v), (fc, fc_norm, errs) in zip(groups, values):
        vlv = v.conj().swapaxes(-1, -2) @ low[idx] @ v
        violation[idx] = _min_eig_scaled(fc - vlv, _max(fc_norm, low_norm[idx]))
        for i, error in zip(idx.tolist(), errs):
            errors_v[i] = error
    return _first_errors(violation.tolist(), errors, errors_v)


def check_jensen_isometry(r, cfg: SuiteConfig) -> VerificationReport:
    """Jensen-type inequality F(W*XW) >= W* F(X) W.

    Even trials draw isometries, odd trials contractions (exercising the
    zero-extension behaviour of the pencil at singular compressions).
    """
    evaluate = _real_values(r)

    def draw(rng, dim, trial_index):
        n = int(rng.integers(1, dim + 1))
        w = (_isometry_draw if trial_index % 2 == 0 else _contraction_draw)(n, dim, rng)
        return n, w, _pd_draw(r.k, dim, _SPECTRUM, rng)

    def build(draws, dim, block):
        sizes, ws, xs = zip(*draws)
        groups = _grouped_maps(sizes, [trial % 2 == 0 for trial in block], ws,
                               lambda pairs: _contraction_build(*map(np.array, zip(*pairs))))
        return _compression_outcomes(evaluate, _pd_stack(xs, r.k), groups,
                                     lambda fx, fx_norm: (fx, fx_norm))

    return _run("jensen", cfg, draw, build)


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
    evaluate = partial(_evaluate, route=partial(_functional_calculus, f))

    def draw(rng, dim, trial_index):
        n = int(rng.integers(1, dim + 1))
        lam = [rng.uniform(*_SPECTRUM, size=dim) for _ in range(k)]
        g, shrink = rng.standard_normal((dim, dim)), rng.uniform(0.0, 0.5)
        if k == 1 and rng.random() < 0.5:
            return n, lam, g, shrink, _isometry_draw(n, dim, rng), True
        return n, lam, g, shrink, _disjoint_support_isometry(dim, n, rng), False

    def build(draws, dim, block):
        sizes, lams, gs, shrinks, maps, gaussian = zip(*draws)
        g = np.array(gs)
        p = g @ g.swapaxes(-1, -2)

        def lower(fx, fx_norm):  # Y = f(X) - P <= f(X)
            p_scale = np.array(shrinks) * _max(1.0, fx_norm) / _max(_operator_norms(p), 1e-300)
            return fx - p * p_scale[:, None, None], np.zeros(len(block))

        groups = _grouped_maps(sizes, gaussian, maps, np.array)
        return _compression_outcomes(evaluate, _diagonals(np.array(lams)), groups, lower)

    return _run("hypograph", cfg, draw, build)


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
    spectra = [np.linalg.eigvalsh(m) for m in [_finite(xi.entries) for xi in xt.items]]
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

def check_herglotz(r, cfg: SuiteConfig) -> VerificationReport:
    """Imaginary-part positivity of the continuation.

    For tuples X = A + iB with B PD: lambda_min(Im F(X)) >= -tol.  A
    singular pivot complement counts as a failure (it cannot occur when the
    imaginary parts are uniformly definite).
    """
    evaluate = _complex_values(r)

    def draw(rng, dim, trial_index):
        a = [rng.standard_normal((dim, dim)) for _ in range(r.k)]
        return a, _pd_draw(r.k, dim, _SPECTRUM, rng)

    def build(draws, dim, block):
        a, bs = zip(*draws)
        a = np.array(a)
        xs = (a + a.swapaxes(-1, -2)) / 2.0 + 1j * _pd_stack(bs, r.k)
        [(fv, fv_norm, errors)] = evaluate([xs])
        im_min = np.linalg.eigvalsh((fv - fv.conj().swapaxes(-1, -2)) / 2j)[:, 0]
        return _first_errors((im_min / np.fmax(1.0, fv_norm)).tolist(), errors)

    return _run("herglotz", cfg, draw, build)
