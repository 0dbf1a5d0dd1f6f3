"""Finitely supported measures on PD matrices, stochastic order, operator means.

The stochastic order mu <= nu (mu(U) <= nu(U) for all closed upper sets U) is
decided constructively: by Strassen's theorem it holds iff some coupling of
(mu, nu) is supported on the Loewner relation between atoms, which is a
bipartite transportation feasibility problem.  `stochastic_leq` solves it by
max-flow and returns either a monotone coupling or a min-cut certificate; the
independent oracle `brute_force_stochastic_leq` enumerates the upper sets of
the finite atom poset directly.  The relation is batched (one stacked
``eigvalsh`` per mu atom) and Edmonds-Karp runs on adjacency lists in the BFS
order of a dense scan with ``longdouble`` flows, so couplings and certificates
are bit-identical to the pairwise relation and the dense-matrix max-flow.

Direct sums of measures are deliberately non-unique: any coupling gamma of
(mu, nu) induces the measure with atoms A_i (+) B_j and weights gamma_ij.
Operator means (arithmetic, harmonic, power) preserve every such direct sum,
which `check_directsum_coupling` exercises; the block fixed-point argument
needs only the marginals, so the test runs on raw float weights without
rational rounding.

The power mean is the unique PD fixed point of X = sum_i w_i X #_t A_i; its
geometric-mean kernel uses the eigendecomposition formula directly (not the
pencil realization) so that measure-level accuracy is independent of
quadrature error; cross-module agreement is itself a test.  Each iteration
takes X^{1/2} and X^{-1/2} once and batches the atoms.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numlin import (
    DimensionMismatch,
    SymMatrix,
    _haar_orthogonal,
    _sym,
    direct_sum,
    loewner_leq,
    operator_norm,
    random_pd,
)
from .verify import SuiteConfig, VerificationReport, _min_eig_scaled, _run, _Skip, _tally

__all__ = [
    "DiscreteMeasure",
    "Coupling",
    "StepRepresentation",
    "UpperSetCertificate",
    "MeanConvergenceError",
    "stochastic_leq",
    "brute_force_stochastic_leq",
    "monotone_representation",
    "couplings_sample",
    "pushforward_weights",
    "power_mean",
    "mean_of_measure",
    "parse_mean_spec",
    "check_stochastic_monotone",
    "check_directsum_coupling",
]

_CELL_EPS = 1e-14


class MeanConvergenceError(RuntimeError):
    """Fixed-point iteration did not converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on PD matrices of one dimension."""

    atoms: tuple
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(_sym(a) for a in self.atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        n = atoms[0].n
        if any(a.n != n for a in atoms):
            raise DimensionMismatch("all atoms must share one dimension")
        for i, a in enumerate(atoms):
            lam_min = float(np.linalg.eigvalsh(a.entries)[0])
            if lam_min <= 0.0:
                raise ValueError(f"atom {i} is not PD (lambda_min = {lam_min:.3e})")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != len(atoms):
            raise ValueError("one weight per atom required")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {float(w.sum()):.15f}")
        w.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.atoms[0].n

    @property
    def size(self) -> int:
        return len(self.atoms)

    @classmethod
    def dirac(cls, atom) -> "DiscreteMeasure":
        return cls((atom,), np.array([1.0]))

    def deduplicated(self, tol: float = 1e-12) -> "DiscreteMeasure":
        """Merge atoms equal within tol * max(1, ||A||), summing weights."""
        atoms: list = []
        weights: list = []
        for a, w in zip(self.atoms, self.weights):
            for i, b in enumerate(atoms):
                if operator_norm(a.entries - b.entries) <= tol * max(1.0, b.norm):
                    weights[i] += w
                    break
            else:
                atoms.append(a)
                weights.append(float(w))
        return DiscreteMeasure(tuple(atoms), np.array(weights))


@dataclass(frozen=True)
class Coupling:
    """Joint weight matrix with prescribed marginals (each within 1e-10)."""

    gamma: np.ndarray
    row_weights: np.ndarray
    col_weights: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise ValueError("coupling must be a 2-d array")
        if float(g.min(initial=0.0)) < -1e-12:
            raise ValueError(f"coupling has negative weight {float(g.min()):.3e}")
        g = np.clip(g, 0.0, None)
        r = np.asarray(self.row_weights, dtype=float).reshape(-1)
        c = np.asarray(self.col_weights, dtype=float).reshape(-1)
        if g.shape != (r.shape[0], c.shape[0]):
            raise DimensionMismatch("coupling shape must match the marginal sizes")
        row_err = float(np.max(np.abs(g.sum(axis=1) - r)))
        col_err = float(np.max(np.abs(g.sum(axis=0) - c)))
        if max(row_err, col_err) > self.tol:
            raise ValueError(
                f"marginals off by {max(row_err, col_err):.3e} (> {self.tol:.1e})")
        for arr in (g, r, c):
            arr.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "row_weights", r)
        object.__setattr__(self, "col_weights", c)


@dataclass(frozen=True)
class UpperSetCertificate:
    """Witness of mu(U) > nu(U): U is generated by the listed mu-atoms."""

    mu_indices: tuple
    nu_indices: tuple
    mu_mass: float
    nu_mass: float

    @property
    def violation(self) -> float:
        return self.mu_mass - self.nu_mass


@dataclass(frozen=True)
class StepRepresentation:
    """Simple function on [0,1]: atom index per interval of a partition."""

    breakpoints: np.ndarray
    atom_indices: tuple

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        if t.shape[0] != len(self.atom_indices) + 1:
            raise ValueError("need one more breakpoint than intervals")
        if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-10:
            raise ValueError("breakpoints must run from 0 to 1")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "breakpoints", t)
        object.__setattr__(self, "atom_indices", tuple(int(i) for i in self.atom_indices))

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)


def pushforward_weights(rep: StepRepresentation, n_atoms: int) -> np.ndarray:
    out = np.zeros(n_atoms)
    for idx, length in zip(rep.atom_indices, rep.lengths):
        out[idx] += length
    return out


# ---------------------------------------------------------------------------
# Strassen feasibility by max-flow
# ---------------------------------------------------------------------------

def _max_flow(size: int, edges, caps, source: int, sink: int, eps: float = 1e-13):
    """Edmonds-Karp on adjacency lists of the residual graph.

    Edge e = (tail, head) owns arc 2e with capacity ``caps[e]`` and the reverse
    arc 2e+1 with capacity 0; no two edges join the same nodes.  Neighbours are
    listed in ascending node order, so BFS visits nodes exactly as a scan of a
    dense capacity row does.  Flows stay in ``longdouble`` and an arc is open
    while ``cap - flow > eps``: float capacities then saturate without rounding
    slivers above ``eps``, and flows, value and min cut are bit-identical to a
    dense-matrix Edmonds-Karp.  BFS bounds the augmentation count independently
    of the capacities.  Returns the flow value, each edge's flow and the nodes
    the source still reaches (the source side of a min cut).
    """
    head = [v for edge in edges for v in reversed(edge)]
    adj = [[] for _ in range(size)]
    for tail, v, arc in sorted((head[a ^ 1], v, a) for a, v in enumerate(head)):
        adj[tail].append((v, arc))
    capl = np.zeros(len(head), dtype=np.longdouble)
    capl[0::2] = caps
    flow = np.zeros_like(capl)
    is_open = (capl > eps).tolist()
    while True:
        into = [None] * size  # the arc by which BFS first reached each node
        into[source] = -1
        queue = deque([source])
        while queue and into[sink] is None:
            for v, arc in adj[queue.popleft()]:
                if into[v] is None and is_open[arc]:
                    into[v] = arc
                    queue.append(v)
        if into[sink] is None:
            break
        path, v = [], sink
        while v != source:
            path.append(into[v])
            v = head[into[v] ^ 1]  # the tail of the arc into v
        back = [a ^ 1 for a in path]
        bottleneck = (capl[path] - flow[path]).min()
        flow[path] += bottleneck
        flow[back] -= bottleneck
        for a in path + back:
            is_open[a] = bool(capl[a] - flow[a] > eps)
    row = np.zeros(size, dtype=np.longdouble)  # a whole row sums in the dense order
    for v, arc in adj[source]:
        row[v] = flow[arc]
    reachable = np.array([arc is not None for arc in into])
    return float(row.sum()), np.asarray(flow[0::2], dtype=float), reachable


def _stacked(atoms):
    """Atoms stacked by dtype as (indices, stack) pairs, and every atom's
    largest |eigenvalue| from one ``eigvalsh`` per stack."""
    groups = {}
    for k, a in enumerate(atoms):
        groups.setdefault(a.entries.dtype, []).append(k)
    stacks = [(idx, np.stack([atoms[k].entries for k in idx])) for idx in groups.values()]
    ext = np.empty(len(atoms))
    for idx, stack in stacks:
        ext[idx] = np.abs(np.linalg.eigvalsh(stack)[:, [0, -1]]).max(axis=1)
    return stacks, ext


def _order_relation(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float) -> np.ndarray:
    """rel[i, j] = loewner_leq(A_i, B_j, tol), with one stacked ``eigvalsh``
    over B_j - A_i per mu atom (memory O(q n^2)).  Stacking by dtype sends
    each matrix to the LAPACK routine the pairwise predicate uses, so the
    relation equals it entry for entry."""
    _, ext_a = _stacked(mu.atoms)
    nu_stacks, ext_b = _stacked(nu.atoms)
    rel = np.empty((mu.size, nu.size), dtype=bool)
    diff_min = np.empty(nu.size)
    for i, a in enumerate(mu.atoms):
        for idx, stack in nu_stacks:
            diff_min[idx] = np.linalg.eigvalsh(stack - a.entries)[:, 0]
        rel[i] = diff_min >= -tol * np.maximum(max(1.0, ext_a[i]), ext_b)
    return rel


def stochastic_leq(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = 1e-9):
    """Decide mu <= nu in the stochastic order; constructive both ways.

    Builds the bipartite relation edge(i, j) iff A_i <= B_j (closed, with the
    relative Loewner tolerance) and solves the transportation feasibility
    problem by max-flow.  Returns ``(True, Coupling)`` with a coupling
    supported on the relation when the flow saturates (value 1 within 1e-10),
    else ``(False, UpperSetCertificate)`` extracted from the min cut: the
    upper set generated by the source-side mu-atoms carries more mu-mass than
    nu-mass.
    """
    if mu.n != nu.n:
        raise DimensionMismatch("measures must live on one matrix dimension")
    rows, cols = np.nonzero(_order_relation(mu, nu, tol))
    p, q = mu.size, nu.size
    sink = p + q + 1
    edges = ([(0, 1 + i) for i in range(p)]
             + list(zip((1 + rows).tolist(), (1 + p + cols).tolist()))
             + [(1 + p + j, sink) for j in range(q)])
    caps = np.concatenate([mu.weights, np.full(rows.size, 2.0), nu.weights])
    value, flow, reachable = _max_flow(sink + 1, edges, caps, 0, sink)
    if value >= 1.0 - 1e-10:
        gamma = np.zeros((p, q))
        gamma[rows, cols] = np.clip(flow[p:p + rows.size], 0.0, None)
        return True, Coupling(gamma, mu.weights, nu.weights)
    mu_side = np.flatnonzero(reachable[1:1 + p])
    nu_side = np.flatnonzero(reachable[1 + p:sink])
    return False, UpperSetCertificate(
        tuple(mu_side.tolist()), tuple(nu_side.tolist()),
        float(mu.weights[mu_side].sum()), float(nu.weights[nu_side].sum()))


def brute_force_stochastic_leq(mu: DiscreteMeasure, nu: DiscreteMeasure,
                               tol: float = 1e-9) -> bool:
    """Exact upper-set oracle on the pooled finite poset (supports <= 20 atoms).

    Enumerates every up-closed subset of supp(mu) + supp(nu) under the Loewner
    relation and checks mu(U) <= nu(U) + 1e-10.  Exponential by design; this
    is the independent cross-check for `stochastic_leq`.
    """
    if mu.n != nu.n:
        raise DimensionMismatch("measures must live on one matrix dimension")
    pool = list(mu.atoms) + list(nu.atoms)
    total = len(pool)
    if total > 20:
        raise ValueError(f"pooled support of size {total} exceeds 20")
    mu_mass = np.concatenate([mu.weights, np.zeros(nu.size)])
    nu_mass = np.concatenate([np.zeros(mu.size), nu.weights])
    closure = [0] * total
    for i in range(total):
        for j in range(total):
            if loewner_leq(pool[i], pool[j], tol):
                closure[i] |= 1 << j
    for mask in range(1, 1 << total):
        members = mask
        upper = True
        while members:
            i = (members & -members).bit_length() - 1
            members &= members - 1
            if (mask | closure[i]) != mask:
                upper = False
                break
        if not upper:
            continue
        mu_u = sum(mu_mass[i] for i in range(total) if mask >> i & 1)
        nu_u = sum(nu_mass[i] for i in range(total) if mask >> i & 1)
        if mu_u > nu_u + 1e-10:
            return False
    return True


def monotone_representation(mu: DiscreteMeasure, nu: DiscreteMeasure,
                            coupling: Coupling, tol: float = 1e-9):
    """Monotone Skorokhod pair from a coupling supported on the order relation.

    Lays the coupling cells onto [0,1] in lexicographic order with interval
    length gamma_ij; the pushforwards recover mu and nu exactly and the two
    step functions satisfy xi_mu(t) <= xi_nu(t) on every interval.
    """
    gamma = coupling.gamma
    if gamma.shape != (mu.size, nu.size):
        raise DimensionMismatch("coupling shape must match the measure supports")
    cells = [(i, j, float(gamma[i, j]))
             for i in range(mu.size) for j in range(nu.size)
             if gamma[i, j] > _CELL_EPS]
    for i, j, _ in cells:
        if not loewner_leq(mu.atoms[i], nu.atoms[j], tol):
            raise ValueError(
                f"coupling cell ({i}, {j}) is not supported on the order relation")
    lengths = np.array([g for _, _, g in cells])
    breaks = np.concatenate([[0.0], np.cumsum(lengths)])
    if abs(breaks[-1] - 1.0) > 1e-10:
        raise ValueError(f"coupling mass {breaks[-1]:.12f} is not 1")
    breaks[-1] = 1.0
    xi_mu = StepRepresentation(breaks, tuple(i for i, _, _ in cells))
    xi_nu = StepRepresentation(breaks.copy(), tuple(j for _, j, _ in cells))
    return xi_mu, xi_nu


def couplings_sample(mu: DiscreteMeasure, nu: DiscreteMeasure,
                     count: int, seed=0) -> list:
    """Product coupling first, then randomized northwest-corner extreme points."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    out = [Coupling(np.outer(mu.weights, nu.weights), mu.weights, nu.weights)]
    for _ in range(count - 1):
        sigma = rng.permutation(mu.size)
        tau = rng.permutation(nu.size)
        gamma = np.zeros((mu.size, nu.size))
        rows = mu.weights[sigma].copy()
        cols = nu.weights[tau].copy()
        i = j = 0
        while i < mu.size and j < nu.size:
            step = min(rows[i], cols[j])
            gamma[sigma[i], tau[j]] = step
            rows[i] -= step
            cols[j] -= step
            if rows[i] <= _CELL_EPS:
                i += 1
            if j < nu.size and cols[j] <= _CELL_EPS:
                j += 1
        out.append(Coupling(gamma, mu.weights, nu.weights))
    return out


# ---------------------------------------------------------------------------
# operator means
# ---------------------------------------------------------------------------

def _weighted_matrix_sum(weights, mats) -> np.ndarray:
    """Entrywise exactly rounded weighted sum of matrices.

    ``math.fsum`` is order-independent, which makes every mean built on it
    bitwise invariant under atom permutation; splitting an atom into two
    copies at half weight is also exact because halving and summing equal
    terms commute with rounding.
    """
    terms = [w * np.asarray(m) for w, m in zip(weights, mats)]
    if len(terms) == 1:
        return terms[0]
    if any(np.iscomplexobj(m) for m in terms):
        re = _weighted_matrix_sum([1.0] * len(terms), [m.real for m in terms])
        im = _weighted_matrix_sum([1.0] * len(terms), [m.imag for m in terms])
        return re + 1j * im
    flat = np.stack(terms).reshape(len(terms), -1)
    out = np.array([math.fsum(col) for col in flat.T.tolist()])
    return out.reshape(terms[0].shape)


def _geomean_pair(x: np.ndarray, a: np.ndarray, t: float) -> np.ndarray:
    """Weighted geometric mean X #_t A by the eigendecomposition formula.

    ``a`` may be one matrix or a stack of them: X^{1/2} and X^{-1/2} are then
    computed once and each slice equals the single-matrix result bit for bit.
    """
    lam, u = np.linalg.eigh(x)
    if lam[0] <= 0.0:
        raise ValueError(f"geometric mean base not PD (lambda_min = {lam[0]:.3e})")
    rt = np.sqrt(lam)
    xh = (u * rt) @ u.conj().T
    xhi = (u / rt) @ u.conj().T
    mid = xhi @ a @ xhi
    lam2, u2 = np.linalg.eigh((mid + mid.conj().swapaxes(-1, -2)) / 2.0)
    powered = (u2 * np.clip(lam2, 0.0, None)[..., None, :] ** t) @ u2.conj().swapaxes(-1, -2)
    res = xh @ powered @ xh
    return (res + res.conj().swapaxes(-1, -2)) / 2.0


def power_mean(weights, atoms, t: float, max_iter: int = 500) -> SymMatrix:
    """Power mean of PD matrices: the PD fixed point of X = sum_i w_i X #_t A_i.

    Computed by fixed-point iteration from the arithmetic mean; t = 1 returns
    the arithmetic mean exactly without iterating.  Stops when the relative
    Frobenius change drops below 1e-13 (or the absolute change below 1e-11);
    the fixed-point residual of the result is then far below 1e-10 * ||X||.
    Raises MeanConvergenceError with the final residual after ``max_iter``.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    mats = [_sym(a).entries for a in atoms]
    if w.shape[0] != len(mats):
        raise ValueError("one weight per atom required")
    if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be positive and sum to 1")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"power-mean exponent must lie in (0, 1], got {t}")
    arith = _weighted_matrix_sum(w, mats)
    if t == 1.0:
        return SymMatrix(arith)
    x = arith
    stack = np.stack(mats)
    step = np.inf
    for _ in range(max_iter):
        nxt = _weighted_matrix_sum(w, _geomean_pair(x, stack, t))
        step = float(np.linalg.norm(nxt - x, "fro"))
        x = nxt
        if step <= 1e-13 * float(np.linalg.norm(x, "fro")) or step <= 1e-11:
            return SymMatrix(x)
    raise MeanConvergenceError(
        f"power mean did not converge in {max_iter} iterations "
        f"(last change {step:.3e})", residual=step)


def parse_mean_spec(text: str):
    """Parse 'power:t' | 'arithmetic' | 'harmonic' into a (tag, *params) tuple."""
    tag, _, rest = text.strip().partition(":")
    if tag == "power":
        try:
            t = float(rest)
        except ValueError as exc:
            raise ValueError(f"cannot parse power exponent in {text!r}") from exc
        if not 0.0 < t <= 1.0:
            raise ValueError(f"power exponent must lie in (0, 1], got {t}")
        return ("power", t)
    if tag in ("arithmetic", "harmonic"):
        if rest:
            raise ValueError(f"{tag} takes no parameters")
        return (tag,)
    raise ValueError(f"unknown mean spec {text!r}")


def mean_of_measure(spec, mu: DiscreteMeasure) -> SymMatrix:
    """Weighted mean of a discrete measure; exact under atom permutation and
    splitting an atom into equal-weight copies (means depend on the measure,
    not its presentation)."""
    parsed = parse_mean_spec(spec) if isinstance(spec, str) else tuple(spec)
    mats = [a.entries for a in mu.atoms]
    if parsed[0] == "arithmetic":
        return SymMatrix(_weighted_matrix_sum(mu.weights, mats))
    if parsed[0] == "harmonic":
        acc = _weighted_matrix_sum(mu.weights, [np.linalg.inv(a) for a in mats])
        return SymMatrix(np.linalg.inv(acc))
    if parsed[0] == "power":
        return power_mean(mu.weights, mu.atoms, parsed[1])
    raise ValueError(f"unsupported mean spec {parsed!r}")


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

def _random_psd_bump(n: int, scale: float, rng) -> np.ndarray:
    q = _haar_orthogonal(n, rng)
    lam = rng.uniform(0.0, scale, n)
    return q @ np.diag(lam) @ q.T


def check_stochastic_monotone(spec, cfg) -> VerificationReport:
    """Means preserve the stochastic order on generated ordered measure pairs.

    Per trial: sample mu, lift every atom by a random PSD increment (same
    weights, optionally permuted) to get nu >= mu, confirm the order by
    max-flow, then require mean(mu) <= mean(nu) + tol.  ``spec`` is a mean
    spec string or any callable DiscreteMeasure -> matrix (callables provide
    the negative controls).
    """
    mean_fn = spec if callable(spec) else (lambda m: mean_of_measure(spec, m))
    lo, hi = cfg.spectrum
    bump_scale = 0.25 * (hi - lo) if hi > lo else 0.25 * lo

    def trial(rng, dim, trial_index):
        size = int(rng.integers(2, 5))
        atoms = [random_pd(dim, cfg.spectrum, rng) for _ in range(size)]
        w = rng.dirichlet(np.ones(size))
        mu = DiscreteMeasure(tuple(atoms), w)
        lifted = [a.entries + _random_psd_bump(dim, bump_scale, rng) for a in atoms]
        order = rng.permutation(size) if rng.random() < 0.5 else np.arange(size)
        nu = DiscreteMeasure(tuple(lifted[i] for i in order), w[order])
        ok, _ = stochastic_leq(mu, nu, tol=1e-9)
        if not ok:
            raise _Skip
        m1 = np.asarray(mean_fn(mu))
        m2 = np.asarray(mean_fn(nu))
        scale = max(operator_norm(m1), operator_norm(m2))
        return _min_eig_scaled(m2 - m1, scale)

    return _run("stochastic-monotone", cfg, trial)


def check_directsum_coupling(spec, mu: DiscreteMeasure, nu: DiscreteMeasure,
                             couplings, tol: float = 1e-8) -> VerificationReport:
    """mean(coupling-induced direct sum) == mean(mu) (+) mean(nu), per coupling."""
    couplings = list(couplings)
    cfg = SuiteConfig(dims=(mu.n + nu.n,), trials=len(couplings), seed=0, tol=tol)
    mean_fn = spec if callable(spec) else (lambda m: mean_of_measure(spec, m))
    target = direct_sum(mean_fn(mu), mean_fn(nu))

    def trial(coupling):
        charged = coupling.gamma > _CELL_EPS
        atoms = tuple(direct_sum(mu.atoms[i], nu.atoms[j]) for i, j in np.argwhere(charged))
        weights = coupling.gamma[charged]  # row-major, as the atoms
        joint = DiscreteMeasure(atoms, weights / weights.sum())
        got = np.asarray(mean_fn(joint))
        return -operator_norm(got - target.entries) / max(1.0, target.norm)

    return _tally("directsum-coupling", cfg,
                  ((idx, partial(trial, c)) for idx, c in enumerate(couplings)))
