"""Randomized property suites for pencil realizations and scalar functions.

Each suite draws seeded trials, measures a normalized violation per trial and
aggregates a machine-readable report.  Sign convention: violations are signed
floats where negative means "bad": for order checks it is the most negative
eigenvalue of the difference that should be PSD, normalized by
max(1, ||F(X)||); for equality checks it is the negated normalized residual
norm.  A suite passes iff no trial dips below -tol.  Reports are bit-for-bit
reproducible from (seed, config); trial seeds are derived as
seed*1e6 + dim*1e4 + trial.

One tally, `_tally`, serves every suite (those in `measures` too).  A trial
returns its violation, raises `_Skip`, or raises `_Fail` to fail whatever its
violation (herglotz: a singular pivot, or conjugate asymmetry above sym_tol).
`check_directsum_coupling` labels trials by coupling index, so that index is
its ``first_failure_seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import pencil as _pencil
from .numlin import (
    MatrixTuple,
    _haar_orthogonal,
    as_tuple,
    apply_scalar_function,
    make_dominated_pair,
    operator_norm,
    random_commuting_tuple,
    random_contraction,
    random_isometry,
    random_pd,
    tuple_compress,
    tuple_direct_sum,
)
from .shorted import SingularPivotComplement

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


@dataclass(frozen=True)
class SuiteConfig:
    dims: tuple = (2, 3, 4)
    trials: int = 100
    seed: int = 0
    tol: float = 1e-8
    spectrum: tuple = (0.1, 10.0)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


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


def _run(suite: str, cfg: SuiteConfig, trial_fn, extras=None) -> VerificationReport:
    """Tally of ``trial_fn(rng, dim, trial)`` over the seeded trials of every dimension."""
    def trials():
        for dim in cfg.dims:
            for trial in range(cfg.trials):
                ts = cfg.seed * 1_000_000 + dim * 10_000 + trial
                yield ts, partial(trial_fn, np.random.default_rng(ts), dim, trial)

    return _tally(suite, cfg, trials(), extras)


def _random_tuple(k: int, n: int, spectrum, rng) -> MatrixTuple:
    return MatrixTuple(tuple(random_pd(n, spectrum, rng) for _ in range(k)))


def _eval(r, x):
    try:
        return _pencil.eval(r, x)
    except _pencil.PencilDomainError as exc:
        raise _Skip from exc


def _min_eig_scaled(diff: np.ndarray, scale: float) -> float:
    return float(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0]) / max(1.0, scale)


# ---------------------------------------------------------------------------
# free-function axioms and order/concavity suites
# ---------------------------------------------------------------------------

def check_free_axioms(r, cfg: SuiteConfig) -> VerificationReport:
    """Unitary invariance and direct-sum invariance of the realized function."""

    def trial(rng, dim, trial_index):
        x = _random_tuple(r.k, dim, cfg.spectrum, rng)
        u = _haar_orthogonal(dim, rng)
        fx = _eval(r, x).entries
        scale = max(1.0, operator_norm(fx))
        lhs = _eval(r, tuple_compress(x, u)).entries
        d1 = operator_norm(lhs - u.conj().T @ fx @ u) / scale
        y = _random_tuple(r.k, dim, cfg.spectrum, rng)
        fy = _eval(r, y).entries
        fs = _eval(r, tuple_direct_sum(x, y)).entries
        block = np.zeros_like(fs)
        block[:dim, :dim] = fx
        block[dim:, dim:] = fy
        d2 = operator_norm(fs - block) / max(1.0, operator_norm(fs))
        return -max(d1, d2)

    return _run("axioms", cfg, trial)


def check_monotone(r, cfg: SuiteConfig) -> VerificationReport:
    """Loewner monotonicity on dominated pairs of PD tuples."""

    def trial(rng, dim, trial_index):
        x = _random_tuple(r.k, dim, cfg.spectrum, rng)
        y = _random_tuple(r.k, dim, cfg.spectrum, rng)
        xd, yd = make_dominated_pair(x, y, margin=0.05)
        fx = _eval(r, xd).entries
        fy = _eval(r, yd).entries
        scale = max(operator_norm(fx), operator_norm(fy))
        return _min_eig_scaled(fy - fx, scale)

    return _run("monotone", cfg, trial)


def check_monotone_scalar(f, cfg: SuiteConfig, k: int = 1) -> VerificationReport:
    """Monotonicity of a scalar function applied through functional calculus.

    The counterpart of `check_monotone` for closed-form functions; the x^2
    negative control fails this suite (dominated non-commuting pairs exhibit
    the classical Loewner-order violation).
    """

    def trial(rng, dim, trial_index):
        if k == 1:
            x = MatrixTuple((random_pd(dim, cfg.spectrum, rng),))
            y = MatrixTuple((random_pd(dim, cfg.spectrum, rng),))
        else:
            x = random_commuting_tuple(k, dim, cfg.spectrum, rng)
            y = random_commuting_tuple(k, dim, cfg.spectrum, rng)
        xd, yd = make_dominated_pair(x, y, margin=0.05)
        fx = apply_scalar_function(f, xd).entries
        fy = apply_scalar_function(f, yd).entries
        scale = max(operator_norm(fx), operator_norm(fy))
        return _min_eig_scaled(fy - fx, scale)

    return _run("monotone-scalar", cfg, trial)


def check_concave(r, cfg: SuiteConfig) -> VerificationReport:
    """Midpoint operator concavity on random PD pairs."""

    def trial(rng, dim, trial_index):
        x = _random_tuple(r.k, dim, cfg.spectrum, rng)
        y = _random_tuple(r.k, dim, cfg.spectrum, rng)
        mid = MatrixTuple(tuple((a.entries + b.entries) / 2.0
                                for a, b in zip(x.items, y.items)))
        fm = _eval(r, mid).entries
        fx = _eval(r, x).entries
        fy = _eval(r, y).entries
        scale = max(operator_norm(fm), operator_norm(fx), operator_norm(fy))
        return _min_eig_scaled(fm - (fx + fy) / 2.0, scale)

    return _run("concave", cfg, trial)


def check_jensen_isometry(r, cfg: SuiteConfig) -> VerificationReport:
    """Jensen-type inequality F(W*XW) >= W* F(X) W.

    Even trials draw isometries, odd trials contractions (exercising the
    zero-extension behaviour of the pencil at singular compressions).
    """

    def trial(rng, dim, trial_index):
        n = int(rng.integers(1, dim + 1))
        if trial_index % 2 == 0:
            w = random_isometry(n, dim, rng).entries
        else:
            w = random_contraction(n, dim, rng).entries
        x = _random_tuple(r.k, dim, cfg.spectrum, rng)
        fx = _eval(r, x).entries
        lhs = _eval(r, tuple_compress(x, w)).entries
        rhs = w.conj().T @ fx @ w
        scale = max(operator_norm(lhs), operator_norm(fx))
        return _min_eig_scaled(lhs - rhs, scale)

    return _run("jensen", cfg, trial)


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
        lam = [rng.uniform(*cfg.spectrum, size=dim) for _ in range(k)]
        x = MatrixTuple(tuple(np.diag(li) for li in lam), commuting=True)
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
        if k > 1:
            xc = MatrixTuple(xc.items, commuting=True)
        fxc = apply_scalar_function(f, xc).entries
        yc = v.conj().T @ y @ v
        return _min_eig_scaled(fxc - yc, operator_norm(fxc))

    return _run("hypograph", cfg, trial)


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


def comat_decompose(x, group_tol: float = 1e-12) -> HullCertificate:
    """Decompose a PD tuple into compressions of scalar (commuting) tuples.

    Coordinate i is isolated in the tuple T_i = (zI, .., kX_i - (k-1)zI, .., zI)
    with (1/k) sum_i T_i = X and z = min_i lambda_min(X_i) * k/(2(k-1)); each
    T_i is then resolved spectrally.  For k = 1 there is no scalar padding and
    the certificate is the plain spectral decomposition (z = lambda_min).
    Every scalar entry is >= z/2 > 0.
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
            while stop < n and lam[stop] - lam[stop - 1] <= group_tol * scale:
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

    def trial(rng, dim, trial_index):
        a = [rng.standard_normal((dim, dim)) for _ in range(r.k)]
        xs = [(ai + ai.T) / 2.0 + 1j * random_pd(dim, cfg.spectrum, rng).entries
              for ai in a]
        try:
            fv = _pencil.eval_complex(r, xs)
            fc = _pencil.eval_complex(r, [xi.conj() for xi in xs])
        except SingularPivotComplement as exc:
            raise _Fail(-1.0) from exc
        scale = max(1.0, operator_norm(fv))
        im_min = float(np.linalg.eigvalsh((fv - fv.conj().T) / 2j)[0]) / scale
        asym = operator_norm(fc - fv.conj()) / scale
        extras["max_conjugate_asymmetry"] = max(extras["max_conjugate_asymmetry"], asym)
        if asym > sym_tol:
            raise _Fail(im_min)
        return im_min

    return _run("herglotz", cfg, trial, extras)
