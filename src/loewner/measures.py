"""Finitely supported measures on PD matrices, stochastic order, operator means.

The stochastic order mu <= nu (mu(U) <= nu(U) for all closed upper sets U) is
decided constructively: by Strassen's theorem it holds iff some coupling of
(mu, nu) is supported on the Loewner relation between atoms, which is a
bipartite transportation feasibility problem.  `stochastic_leq` solves it by
max-flow and returns either a monotone coupling or a min-cut certificate; the
independent oracle `brute_force_stochastic_leq` enumerates the upper sets
generated by subsets of supp(mu) directly.  Each measure checks its atoms
and takes their extreme eigenvalues once, from one stacked ``eigvalsh`` per
dtype (`DiscreteMeasure._spectra`).  The relation equals the pairwise
`loewner_leq` entry for entry, but runs the eigensolver on few pairs.  By
Cauchy interlacing lambda_min(B_j - A_i) is at most each diagonal entry of
B_j - A_i and the smaller eigenvalue of each 2 x 2 principal submatrix; a
pair whose bound lies below the threshold by more than the eigensolver's
error and the certificate's own rounding is decided False (`_rejected`).
The error is taken as 2 n eps ||B_j - A_i||_F, as `pencil` takes it for its
arrowhead certificate, with ||B_j - A_i||_F <= tr A_i + tr B_j.  A pair
whose shifted Cholesky proves lambda_min above the threshold by more than
that error is decided True (`_accepted`).  The pairs neither certificate
decides go to one stacked ``eigvalsh`` per block of mu atoms and dtype of
the pair, so that a real pair meets the real LAPACK routine, as in
`loewner_leq`, even beside complex atoms.  Edmonds-Karp runs on adjacency
lists built straight from the relation, in the BFS order of a dense scan
and with ``longdouble`` flows, so it augments along the paths a
dense-matrix Edmonds-Karp takes; the tests pin couplings and certificates
by digest to the outputs of that dense version.

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
takes X^{1/2} and X^{-1/2} once and batches the atoms, and Anderson mixing of
the last five iterates replaces the slowly contracting plain iteration.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .numlin import (
    DEFAULT_PSD_TOL,
    DimensionMismatch,
    SymMatrix,
    _cholesky_completions,
    _cholesky_shift,
    _diagonals,
    _finite,
    _isometry_draw,
    _orthonormal,
    _pd_build,
    _pd_draw,
    _sym,
    direct_sum,
    loewner_leq,
    operator_norm,
)
from .verify import _SPECTRUM, SuiteConfig, VerificationReport, _min_eig_scaled, _run, _Skip, _tally

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
    "power_mean_residual",
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
        for i, a in enumerate(atoms):  # one NaN would spoil its whole stack
            _finite(a.entries, f"atom {i}")
        object.__setattr__(self, "atoms", atoms)
        lam_min = self._spectra[1]
        if not np.all(lam_min > 0.0):
            i = int(np.argmin(lam_min > 0.0))
            raise ValueError(f"atom {i} is not PD (lambda_min = {lam_min[i]:.3e})")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != len(atoms):
            raise ValueError("one weight per atom required")
        if not np.all(w > 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {float(w.sum()):.15f}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @cached_property
    def _spectra(self):
        """Read-only ``(stacks, lam_min, lam_max)``: the atoms as one ``(indices,
        stack)`` pair per dtype, so that LAPACK gives each atom the bits of a
        call on it alone, and their extreme eigenvalues, one ``eigvalsh`` per stack."""
        dtypes = [a.entries.dtype for a in self.atoms]
        groups = [[k for k, d in enumerate(dtypes) if d == dt] for dt in dict.fromkeys(dtypes)]
        stacks = [(idx, np.stack([self.atoms[k].entries for k in idx])) for idx in groups]
        lam = np.empty((self.size, 2))
        for idx, stack in stacks:
            stack.setflags(write=False)
            lam[idx] = np.linalg.eigvalsh(stack)[:, [0, -1]]
        lam.setflags(write=False)
        return tuple(stacks), lam[:, 0], lam[:, 1]

    @property
    def n(self) -> int:
        return self.atoms[0].n

    @property
    def size(self) -> int:
        return len(self.atoms)

    @classmethod
    def dirac(cls, atom) -> "DiscreteMeasure":
        return cls((atom,), np.array([1.0]))


@dataclass(frozen=True)
class Coupling:
    """Joint weight matrix with prescribed marginals (each within 1e-10)."""

    gamma: np.ndarray
    row_weights: np.ndarray
    col_weights: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise ValueError("coupling must be a 2-d array")
        _finite(g, "coupling")
        if float(g.min(initial=0.0)) < -1e-12:
            raise ValueError(f"coupling has negative weight {float(g.min()):.3e}")
        g = np.clip(g, 0.0, None)
        r = np.asarray(self.row_weights, dtype=float).reshape(-1)
        c = np.asarray(self.col_weights, dtype=float).reshape(-1)
        if g.shape != (r.shape[0], c.shape[0]):
            raise DimensionMismatch("coupling shape must match the marginal sizes")
        row_err = float(np.max(np.abs(g.sum(axis=1) - r)))
        col_err = float(np.max(np.abs(g.sum(axis=0) - c)))
        if not max(row_err, col_err) <= 1e-10:
            raise ValueError(f"marginals off by {max(row_err, col_err):.3e} (> 1.0e-10)")
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
        if not (abs(t[0]) <= 1e-12 and abs(t[-1] - 1.0) <= 1e-10):
            raise ValueError("breakpoints must run from 0 to 1")
        if not np.all(np.diff(t) > 0):
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

def _max_flow(rows, cols, mu_weights, nu_weights):
    """Edmonds-Karp on the network of `stochastic_leq`: source -> mu_i
    (capacity the weight of mu_i) -> nu_j (capacity 2, one edge per related
    pair ``(rows[k], cols[k])``, in the row-major order of ``np.nonzero``)
    -> sink (capacity the weight of nu_j).  Returns the flow value, each
    edge's flow and the nodes the source still reaches (the source side of a
    min cut).

    The nodes are the source 0, mu_i at 1 + i, nu_j at 1 + p + j and the sink
    last.  Edge e owns arc 2e, of its capacity, and the reverse arc 2e + 1,
    of capacity 0; the edges are the source edges by i, the related pairs by
    k and the sink edges by j.  The adjacency lists are built from the
    relation in one pass over k: the source lists mu_i by i; mu_i its source
    arc, then its nu_j by j; nu_j its mu_i by i (k ascends with i), then the
    sink; the sink its nu_j by j.  Each list thus ascends by node, the order
    in which a BFS scans a dense capacity row, as did the generic edge-list
    version, which sorted every arc and is kept in the tests as an oracle.
    Flows stay in ``longdouble`` and an arc is open while ``cap - flow >
    1e-13``: float capacities then saturate without rounding slivers above
    1e-13, and flows, value and min cut are those of a dense-matrix
    Edmonds-Karp with the same BFS order, as pinned by digest in the tests.
    BFS bounds the augmentation count independently of the capacities.

    While a path of length three is open, BFS augments the one through the
    smallest mu_i that has an open path onward and that mu_i's smallest such
    nu_j, so one pass over i ascending, then j ascending, makes the same
    augmentations without a BFS.  It is exact: a middle arc never closes (it
    carries at most the total flow 1), and the source and sink arcs only gain
    flow, so a length-three path, once closed, never reopens.
    """
    p, q, r = len(mu_weights), len(nu_weights), len(rows)
    source, sink = 0, p + q + 1
    head = [source] * (2 * (p + r + q))  # the head of each arc
    adj = ([[(1 + i, 2 * i) for i in range(p)]] + [[(source, 2 * i + 1)] for i in range(p)]
           + [[] for _ in range(q + 1)])
    arc = 2 * p
    for i, j in zip(rows.tolist(), cols.tolist()):  # row-major, so each list ascends
        u, v = 1 + i, 1 + p + j
        adj[u].append((v, arc))
        adj[v].append((u, arc + 1))
        head[arc], head[arc + 1] = v, u
        arc += 2
    for j in range(q):
        adj[1 + p + j].append((sink, arc + 2 * j))
    adj[sink] = [(1 + p + j, arc + 2 * j + 1) for j in range(q)]
    head[0:2 * p:2] = range(1, p + 1)
    head[arc::2] = [sink] * q
    head[arc + 1::2] = range(1 + p, sink)
    capl = np.zeros(len(head), dtype=np.longdouble)
    capl[0::2] = np.concatenate([mu_weights, np.full(r, 2.0), nu_weights])
    flow = np.zeros_like(capl)
    is_open = (capl > 1e-13).tolist()

    def augment(path):
        bottleneck = min(capl[a] - flow[a] for a in path)
        for a in path:
            flow[a] += bottleneck
            flow[a ^ 1] -= bottleneck
            is_open[a] = bool(capl[a] - flow[a] > 1e-13)
            is_open[a ^ 1] = bool(capl[a ^ 1] - flow[a ^ 1] > 1e-13)

    into_sink = {v: arc ^ 1 for v, arc in adj[sink]}  # the arc of each node into the sink
    for u, first in adj[source]:
        for v, middle in adj[u]:
            if not is_open[first]:
                break
            last = into_sink.get(v)
            if last is not None and is_open[middle] and is_open[last]:
                augment([last, middle, first])  # in the order BFS lists a path
    while True:
        into = [None] * (sink + 1)  # the arc by which BFS first reached each node
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
        augment(path)
    row = np.zeros(sink + 1, dtype=np.longdouble)  # a whole row sums in the dense order
    for v, arc in adj[source]:
        row[v] = flow[arc]
    reachable = np.array([arc is not None for arc in into])
    return float(row.sum()), np.asarray(flow[0::2], dtype=float), reachable


# `_order_relation` forms B_j - A_i for this many matrix entries at a time.
_BLOCK_ENTRIES = 2 ** 15
# Each atom's share of the eigensolver error bound is at least this, so every
# error term of `_rejected` is a normal float, where relative rounding holds.
_ERROR_FLOOR = 2.0 ** -970


def _eig_error(stack: np.ndarray) -> np.ndarray:
    """Each atom's share of the eigensolver error bound on lambda_min(B - A):
    4 n eps tr(A), floored at `_ERROR_FLOOR`.  The bound assumed is 2 n eps
    ||B - A||_F, as for `pencil`'s arrowhead certificate, and ||B - A||_F <=
    ||A||_F + ||B||_F <= tr A + tr B for PSD atoms; the factor two covers the
    rounding of the trace.  Each term is scaled before the sum, so the sum
    cannot overflow."""
    n = stack.shape[-1]
    diag = np.diagonal(stack, axis1=-2, axis2=-1).real
    return np.maximum((diag * (4 * n * np.finfo(float).eps)).sum(axis=-1), _ERROR_FLOOR)


def _rejected(d: np.ndarray, thr: np.ndarray, err: np.ndarray) -> np.ndarray:
    """True where ``eigvalsh(d)[0] < thr`` is certain, for a stack ``d`` of
    Hermitian matrices, if the eigensolver errs by at most ``err``.

    By Cauchy interlacing lambda_min(d) is at most the smaller eigenvalue of
    each 2 x 2 principal submatrix [[p, r*], [r, s]], and a pair is rejected
    where one of them lies below ``u = thr - err``: where an upper bound on
    p - u (or s - u) is negative, or where the product of the two bounds is
    below |r|^2 by the relative margin 2^-48.  The upper bound adds 4 eps
    (|p| + |u|) to the computed p - u, over twice the rounding of u and of
    the difference; the margin covers the rounding of the product and of
    |r|^2, which must be a normal float.  Where a bound, a product or |r|^2
    overflows, the inf or NaN sits on the large side of a strict ``<`` (an
    infinite |r|^2 is excluded), so the pair is deferred, never decided:
    only these operations run with overflow and invalid operations silenced.
    """
    # the lower triangle eigvalsh reads, as np.tril_indices lists it, at a third of its cost
    k, l = np.nonzero(np.tri(d.shape[-1], k=-1, dtype=bool))
    diag = np.diagonal(d, axis1=-2, axis2=-1).real
    with np.errstate(over="ignore", invalid="ignore"):
        u = (thr - err)[..., None]
        hi = diag - u
        hi += 4 * np.finfo(float).eps * (np.abs(diag) + np.abs(u))
        rejected = (hi < 0.0).any(axis=-1)
        open_ = np.nonzero(~rejected)  # the minors only where the diagonal passes
        hi, r = hi[open_], d[open_][:, k, l]
        rr = r.real * r.real
        if r.dtype.kind == "c":
            rr += r.imag * r.imag
        minor = hi[:, k] * hi[:, l] < (1.0 - 2.0 ** -48) * rr
    minor &= (rr >= np.finfo(float).tiny) & (rr < np.inf)
    rejected[open_] = minor.any(axis=-1)
    return rejected


def _accepted(d: np.ndarray, thr: np.ndarray, err: np.ndarray) -> np.ndarray:
    """True where ``eigvalsh(d)[0] >= thr`` is certain, for a stack ``d`` of
    Hermitian matrices, if the eigensolver errs by at most ``err``: a
    Cholesky of ``d + c I``, c = `numlin._cholesky_shift` of the floor
    ``thr + err``, completes (`numlin._cholesky_completions`).  That proves
    lambda_min(d) > thr + err, so the eigensolver returns at least thr.  The
    floor is rounded up by one ulp, so that it is at least the exact sum: the
    shift's rounding term then has only the Cholesky and the shifted
    diagonal to cover.  A NaN or a failed pivot is not accepted (Rump,
    "Verification of positive definiteness", BIT 2006)."""
    floor = np.nextafter(thr + err, np.inf)
    diag = np.diagonal(d, axis1=-2, axis2=-1).real
    with np.errstate(over="ignore"):  # where sum |d_ii| overflows, c = -inf fails
        c = _cholesky_shift(diag, floor)
    return _cholesky_completions(d, c)


def _order_relation(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float) -> np.ndarray:
    """rel[i, j] = loewner_leq(A_i, B_j, tol), entry for entry.

    B_j - A_i is formed for a block of mu atoms of one dtype against each
    dtype stack of nu, so that no temporary exceeds about `_BLOCK_ENTRIES`
    entries (one mu row at least).  Two certificates decide most pairs under
    the eigensolver error bound of `_eig_error`: `_rejected` decides False by
    the diagonal and the 2 x 2 principal minors, then `_accepted` decides
    True, among the pairs left, by a shifted Cholesky that proves
    lambda_min(B_j - A_i) above the threshold by more than that bound.  Only
    the pairs neither decides go to one stacked ``eigvalsh`` per pair dtype
    and block: on seeded pairs at n = 4 only unrelated pairs that
    `_rejected` missed.  A real pair goes to the real LAPACK routine even
    beside complex atoms, as in `loewner_leq`, and a stacked call gives each
    matrix the bits of a call on it alone.
    """
    mu_stacks, _, ext_a = mu._spectra  # lambda_max, the largest |eigenvalue| of a PD atom
    nu_stacks, _, ext_b = nu._spectra
    nu_groups = [(np.array(idx), stack, _eig_error(stack)) for idx, stack in nu_stacks]
    rows = max(1, _BLOCK_ENTRIES // (nu.size * nu.n * nu.n))
    rel = np.zeros((mu.size, nu.size), dtype=bool)
    for idx_a, stack_a in mu_stacks:
        idx_a, err_a = np.array(idx_a), _eig_error(stack_a)
        for start in range(0, idx_a.size, rows):
            block = slice(start, start + rows)
            scale_a = np.maximum(1.0, ext_a[idx_a[block]])[:, None]
            undecided = {}
            for idx_b, stack_b, err_b in nu_groups:
                d = stack_b - stack_a[block, None]
                thr = -tol * np.maximum(scale_a, ext_b[idx_b])
                err = err_a[block, None] + err_b
                ii, jj = np.nonzero(~_rejected(d, thr, err))
                undecided.setdefault(d.dtype, []).append(
                    (idx_a[block][ii], idx_b[jj], d[ii, jj], thr[ii, jj], err[ii, jj]))
            for parts in undecided.values():
                i, j, d, thr, err = (np.concatenate(x) for x in zip(*parts))
                if i.size:
                    accepted = _accepted(d, thr, err)
                    rel[i, j] = accepted
                    left = ~accepted
                    if left.any():
                        rel[i[left], j[left]] = np.linalg.eigvalsh(d[left])[:, 0] >= thr[left]
    return rel


def stochastic_leq(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = DEFAULT_PSD_TOL):
    """Decide mu <= nu in the stochastic order; constructive both ways.

    Builds the bipartite relation edge(i, j) iff A_i <= B_j (closed, with the
    relative Loewner tolerance; `_order_relation`, which equals the pairwise
    `loewner_leq` entry for entry) and solves the transportation feasibility
    problem by max-flow on the network built from the related pairs
    (`_max_flow`).  Returns ``(True, Coupling)`` with a coupling supported
    on the relation when the flow saturates (value 1 within 1e-10), else
    ``(False, UpperSetCertificate)`` extracted from the min cut: the upper
    set generated by the source-side mu-atoms carries more mu-mass than
    nu-mass.  Both are deterministic to the bit: the coupling is the flow of
    the augmenting paths in the BFS order that `_max_flow` fixes.
    """
    if mu.n != nu.n:
        raise DimensionMismatch("measures must live on one matrix dimension")
    rows, cols = np.nonzero(_order_relation(mu, nu, tol))
    p, q = mu.size, nu.size
    value, flow, reachable = _max_flow(rows, cols, mu.weights, nu.weights)
    if value >= 1.0 - 1e-10:
        gamma = np.zeros((p, q))
        gamma[rows, cols] = np.clip(flow[p:p + rows.size], 0.0, None)
        return True, Coupling(gamma, mu.weights, nu.weights)
    mu_side = np.flatnonzero(reachable[1:1 + p])
    nu_side = np.flatnonzero(reachable[1 + p:1 + p + q])
    return False, UpperSetCertificate(
        tuple(mu_side.tolist()), tuple(nu_side.tolist()),
        float(mu.weights[mu_side].sum()), float(nu.weights[nu_side].sum()))


def brute_force_stochastic_leq(mu: DiscreteMeasure, nu: DiscreteMeasure,
                               tol: float = DEFAULT_PSD_TOL) -> bool:
    """Exact upper-set oracle on the pooled finite support (<= 20 atoms).

    Enumerates every subset S of supp(mu) and checks mu(S) <= nu(N(S)) +
    1e-10, where N(S) holds the nu-atoms B_j with A_i <= B_j for some A_i in
    S: the smallest upper set generated by S, as in the min-cut certificate.
    Only these mu -> nu pairs count, because the tolerant Loewner relation is
    not transitive at the tolerance (A <= B <= C need not give A <= C), and
    an upper set closed under it would credit nu-atoms that no coupling can
    reach.  Exponential by design; this is the independent cross-check for
    `stochastic_leq`.
    """
    if mu.n != nu.n:
        raise DimensionMismatch("measures must live on one matrix dimension")
    total = mu.size + nu.size
    if total > 20:
        raise ValueError(f"pooled support of size {total} exceeds 20")
    above = [sum(1 << j for j, b in enumerate(nu.atoms) if loewner_leq(a, b, tol))
             for a in mu.atoms]
    for mask in range(1, 1 << mu.size):
        members = [i for i in range(mu.size) if mask >> i & 1]
        upper = 0
        for i in members:
            upper |= above[i]
        mu_u = sum(mu.weights[i] for i in members)
        nu_u = sum(nu.weights[j] for j in range(nu.size) if upper >> j & 1)
        if mu_u > nu_u + 1e-10:
            return False
    return True


def monotone_representation(mu: DiscreteMeasure, nu: DiscreteMeasure, coupling: Coupling):
    """Monotone Skorokhod pair from a coupling supported on the order relation
    (`loewner_leq` at its default tolerance).

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
        if not loewner_leq(mu.atoms[i], nu.atoms[j]):
            raise ValueError(
                f"coupling cell ({i}, {j}) is not supported on the order relation")
    lengths = np.array([g for _, _, g in cells])
    breaks = np.concatenate([[0.0], np.cumsum(lengths)])
    if not abs(breaks[-1] - 1.0) <= 1e-10:
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

# One ``math.fsum`` call per column costs about (p + 8) x N term-steps for p
# terms and N columns; below this many the loop beats the fixed cost of the
# vectorised sum.  On one x86-64 core the two break even near N = 120 columns
# at p = 10 and N = 40 at p = 40.
_VECTOR_SUM_MIN = 2048
# A column whose largest |term| reaches this over the term count goes to
# ``math.fsum``: below it no partial sum of fsum or of the TwoSum tree can
# overflow, so fsum raises exactly where the vectorised sum is not taken.
_TWO_SUM_LIMIT = 2.0 ** 1020


def _two_sum_tree(rows: np.ndarray):
    """Pairwise float sum ``s`` of the rows of a (p, N) array and the (p - 1, N)
    TwoSum errors of its additions, so that ``s + sum(err)`` is the exact
    column sum (Knuth's TwoSum is error-free without overflow)."""
    err = np.empty((rows.shape[0] - 1, rows.shape[1]))
    done = 0
    while (m := rows.shape[0]) > 1:
        h = m // 2
        a, b = rows[:h], rows[m - h:]
        nxt = np.empty((m - h, rows.shape[1]))
        hi = np.add(a, b, out=nxt[:h])
        nxt[h:] = rows[h:m - h]
        bb = hi - a
        e = np.subtract(a, hi - bb, out=err[done:done + h])
        e += b - bb
        done += h
        rows = nxt
    return rows[0], err


def _exact_column_sums(flat: np.ndarray) -> np.ndarray:
    """Column sums of a (p, N) float64 array, p >= 2, with ``math.fsum``'s bits.

    After the TwoSum tree the exact sum is ``s + sum(err)``.  The float sum
    ``c`` of the p - 1 errors is off by at most ``gamma_{p-2} sum|err|``
    (``bound``, taken four times over to cover its own rounding), and
    ``(r, d) = TwoSum(s, c)`` gives ``exact = r + d + delta`` with
    ``|delta| <= bound``.  ``r`` is then the correctly rounded sum when
    ``|d| + bound`` is strictly below half the smaller gap from ``r`` to a
    neighbouring float, or when ``bound`` is 0 (``c`` exact, so ``r`` is the
    rounding of the exact sum itself, ties to even included).  Correct
    rounding has one result, so that is fsum's.  No TwoSum error is -0.0, so
    neither is ``r``: an exact zero is +0.0, as in fsum.  Every other column,
    and every column past ``_TWO_SUM_LIMIT`` or not finite, is summed by
    ``math.fsum`` in order, raising where it raises.
    """
    p = flat.shape[0]
    limit = _TWO_SUM_LIMIT / p
    safe, work = True, flat
    if not np.abs(flat).max() < limit:
        safe = np.abs(flat).max(axis=0) < limit
        work = np.where(safe, flat, 0.0)
    s, err = _two_sum_tree(work)
    c = err.sum(axis=0)
    bound = np.abs(err).sum(axis=0)
    bound *= (p - 2) * 2.0 ** -51
    r = s + c
    bb = r - s
    d = (s - (r - bb)) + (c - bb)
    mag = np.abs(r)
    half_gap = mag - np.nextafter(mag, 0.0)
    half_gap *= 0.5
    slack = np.abs(d, out=d)
    slack += bound
    ok = ((slack < half_gap) | (bound == 0.0)) & safe
    redo = np.flatnonzero(~ok)
    if redo.size:
        r[redo] = [math.fsum(col) for col in flat[:, redo].T.tolist()]
    return r


def _weighted_matrix_sum(weights, stack: np.ndarray) -> np.ndarray:
    """Entrywise exactly rounded weighted sum ``sum_i w_i stack[i]``.

    Correct rounding is order-independent, which makes every mean built on it
    bitwise invariant under atom permutation; splitting an atom into two
    copies at half weight is also exact because halving and summing equal
    terms commute with rounding.  Each entry has the bits ``math.fsum`` gives
    it: small sums call fsum per entry, larger ones take the vectorised
    TwoSum sum of `_exact_column_sums` (after Ogita, Rump & Oishi, "Accurate
    sum and dot product", SISC 2005).  Complex terms are summed as the real
    and imaginary columns of their float64 view.
    """
    terms = np.asarray(weights, dtype=float)[:, None, None] * stack
    if terms.shape[0] == 1:
        return terms[0]
    flat = terms.view(np.float64).reshape(terms.shape[0], -1)
    if (flat.shape[0] + 8) * flat.shape[1] < _VECTOR_SUM_MIN:
        out = np.array([math.fsum(col) for col in flat.T.tolist()])
    else:
        out = _exact_column_sums(flat)
    return out.view(terms.dtype).reshape(terms.shape[1:])


def _geomean_pair(x: np.ndarray, a: np.ndarray, t: float) -> np.ndarray:
    """Weighted geometric mean X #_t A by the eigendecomposition formula.

    ``a`` may be one matrix or a stack of them: X^{1/2} and X^{-1/2} are then
    computed once and each slice equals the single-matrix result bit for bit.
    """
    lam, u = np.linalg.eigh(x)
    if not lam[0] > 0.0:
        raise ValueError(f"geometric mean base not PD (lambda_min = {lam[0]:.3e})")
    rt = np.sqrt(lam)
    xh = (u * rt) @ u.conj().T
    xhi = (u / rt) @ u.conj().T
    mid = xhi @ a @ xhi
    lam2, u2 = np.linalg.eigh((mid + mid.conj().swapaxes(-1, -2)) / 2.0)
    powered = (u2 * np.clip(lam2, 0.0, None)[..., None, :] ** t) @ u2.conj().swapaxes(-1, -2)
    res = xh @ powered @ xh
    return (res + res.conj().swapaxes(-1, -2)) / 2.0


# Anderson mixing keeps this many (X, g(X)) pairs of the fixed-point map g.
_ANDERSON_DEPTH = 5
# `power_mean` mixes log X while the residual exceeds this share of ||g(X)||_F
# and X itself below it.
_LOG_MIXING_ABOVE = 1e-8


def _anderson_step(xs, gs, t: float) -> np.ndarray:
    """The next iterate from the newest (X_j, g(X_j)) pairs of a map g.

    Type-II Anderson mixing (Walker and Ni, SIAM J. Numer. Anal. 2011): with
    residuals f_j = g(X_j) - X_j, gamma minimises ||f_k - sum_j gamma_j
    (f_{j+1} - f_j)|| over the real coefficients, and the mixed iterate
    g(X_k) - sum_j gamma_j (g(X_{j+1}) - g(X_j)) is symmetrized.  Complex
    matrices enter as their float64 views, so gamma stays real.  The map
    contracts by about 1 - t per step, so its fixed point lies within about
    ||f_k|| / t of X_k: a mixed step ten times longer extrapolates rounding
    noise (as on a map that never contracts), and the plain image g(X_k),
    returned as the same object, is taken instead.  Reads only the history,
    so the result inherits its bitwise invariances.
    """
    if len(gs) < 2:
        return gs[-1]
    g = np.stack(gs).reshape(len(gs), -1).view(np.float64)
    f = g - np.stack(xs).reshape(len(xs), -1).view(np.float64)
    dg, df = np.diff(g, axis=0), np.diff(f, axis=0)
    gamma = np.linalg.lstsq(df.T, f[-1], rcond=None)[0]
    step = gamma @ dg
    if np.linalg.norm(step) > 10.0 * np.linalg.norm(f[-1]) / t:
        return gs[-1]
    x = (g[-1] - step).view(gs[-1].dtype).reshape(gs[-1].shape)
    return (x + x.conj().T) / 2.0


def _pd_log(lam: np.ndarray) -> np.ndarray:
    if not lam[0] > 0.0:
        raise ValueError(f"power-mean iterate not PD (lambda_min = {lam[0]:.3e})")
    return np.log(lam)


def _hermitian_fn(x: np.ndarray, fn) -> np.ndarray:
    """fn(X) of a Hermitian X from its eigendecomposition, symmetrized."""
    lam, u = np.linalg.eigh(x)
    y = (u * fn(lam)) @ u.conj().T
    return (y + y.conj().T) / 2.0


def _power_map(weights, stack, x: np.ndarray, t: float) -> np.ndarray:
    """g(X) = sum_i w_i X #_t A_i, exactly rounded: independent of atom order."""
    return _weighted_matrix_sum(weights, _geomean_pair(x, stack, t))


def power_mean_residual(mu: DiscreteMeasure, x: np.ndarray, t: float) -> float:
    """||g(X) - X||_F of the map g that `power_mean` iterates for ``mu``."""
    g = _power_map(mu.weights, np.stack([a.entries for a in mu.atoms]), x, t)
    return float(np.linalg.norm(g - x, "fro"))


def power_mean(weights, atoms, t: float) -> SymMatrix:
    """Power mean of PD matrices: the PD fixed point of X = sum_i w_i X #_t A_i.

    The input is checked once, by building ``DiscreteMeasure(tuple(atoms),
    weights)``, and raises its messages: finite PD atoms of one dimension,
    one strictly positive weight per atom, summing to 1 within 1e-12.
    Iterates the map g of `_power_map` from the arithmetic mean with Anderson
    mixing of the last five iterates (`_anderson_step`); t = 1 returns the
    arithmetic mean exactly without iterating.  Stops when the fixed-point
    residual ||g(X) - X||_F drops below 1e-13 * ||g(X)||_F or below 1e-11 *
    min(1, ||g(X)||_F), and returns g(X): the absolute 1e-11 applies only
    where ||g(X)||_F >= 1, and below that the bound stays relative.  While
    the residual is above 1e-8 * ||g(X)||_F the mixing reads log X and
    log g(X), so every mixed iterate exp(.) is PD; below it, where the
    eigendecompositions of the logarithm would add more rounding than the
    stopping rule allows, it reads X and g(X).  A mixed iterate that is then
    not PD makes `_geomean_pair` raise, and the history restarts from its
    newest pair, whose image is the next iterate.

    The plain iteration contracts by only about 1 - t per step: 30 to 44
    steps at t = 0.5 and 1600 to 2600 at t = 0.01.  Mixed, over random
    measures (n <= 5, p <= 6, spectra in [0.1, 10] or 10^[-3, 3]), it took at
    most 19 steps at t = 0.5 and a median of 12 to 51 (at most 575) at
    t = 0.01, never more than the plain iteration.  At t <= 0.05 on
    10^[-3, 3] the residual of the result stayed below 6e-11 * ||X||_F, and
    on 10^[-4, -2] at t = 0.02 below 1e-11 * ||X||_F.  Raises
    MeanConvergenceError with the last residual after ``max(500,
    ceil(60 / t))`` calls of `_geomean_pair`.
    """
    return _power_mean(DiscreteMeasure(tuple(atoms), weights), t)


def _power_mean(mu: DiscreteMeasure, t: float) -> SymMatrix:
    """`power_mean` of a measure, whose atoms and weights are already checked."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"power-mean exponent must lie in (0, 1], got {t}")
    w, stack = mu.weights, np.stack([a.entries for a in mu.atoms])
    x = _weighted_matrix_sum(w, stack)
    if t == 1.0:
        return SymMatrix(x)
    # The plain map contracts by about 1 - t per step (Lim and Palfia, J.
    # Funct. Anal. 2012) and took up to 27 / t steps; the budget is twice
    # 30 / t, with 500 as its floor.
    xs, gs = [], []
    far, y = True, _hermitian_fn(x, _pd_log)  # y = log X while far
    resid, budget = np.inf, max(500, math.ceil(60.0 / t))
    for _ in range(budget):
        try:
            gx = _power_map(w, stack, x, t)
        except ValueError:
            if far or x is gs[-1]:  # not a mixed iterate
                raise
            x = gs[-1]
            del xs[:-1], gs[:-1]
            continue
        resid = float(np.linalg.norm(gx - x, "fro"))
        scale = float(np.linalg.norm(gx, "fro"))
        if resid <= 1e-13 * scale or resid <= 1e-11 * min(1.0, scale):
            return SymMatrix(gx)
        if far and resid <= _LOG_MIXING_ABOVE * scale:
            far, xs, gs = False, [], []
        if far:
            xs.append(y)
            gs.append(_hermitian_fn(gx, _pd_log))
        else:
            xs.append(x)
            gs.append(gx)
        del xs[:-_ANDERSON_DEPTH], gs[:-_ANDERSON_DEPTH]
        nxt = _anderson_step(xs, gs, t)
        if not far:
            x = nxt
        elif nxt is gs[-1]:
            x, y = gx, nxt
        else:
            x, y = _hermitian_fn(nxt, np.exp), nxt
    raise MeanConvergenceError(
        f"power mean did not converge in {budget} iterations "
        f"(last change {resid:.3e})", residual=resid)


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
    if parsed[0] == "arithmetic":
        stack = np.stack([a.entries for a in mu.atoms])
        return SymMatrix(_weighted_matrix_sum(mu.weights, stack))
    if parsed[0] == "harmonic":
        groups = mu._spectra[0]
        inv = np.empty((mu.size, mu.n, mu.n), dtype=np.result_type(*(g for _, g in groups)))
        for idx, group in groups:
            inv[idx] = np.linalg.inv(group)
        return SymMatrix(np.linalg.inv(_weighted_matrix_sum(mu.weights, inv)))
    if parsed[0] == "power":
        return _power_mean(mu, parsed[1])
    raise ValueError(f"unsupported mean spec {parsed!r}")


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

def _mean_function(spec):
    """The mean of a spec string (parsed once) or callable, as an array; a
    ValueError where it has a non-finite entry."""
    mean = spec if callable(spec) else partial(mean_of_measure, parse_mean_spec(spec))

    def checked(mu):
        return _finite(np.asarray(mean(mu)), "mean")

    return checked


def check_stochastic_monotone(spec, cfg) -> VerificationReport:
    """Means preserve the stochastic order on generated ordered measure pairs.

    Per trial: sample mu, lift every atom by a random PSD increment (same
    weights, optionally permuted) to get nu >= mu, confirm the order by
    max-flow, then require mean(mu) <= mean(nu) + tol.  ``spec`` is a mean
    spec string or any callable DiscreteMeasure -> matrix (callables provide
    the negative controls).  A block builds its atoms and increments in
    stacked calls, then measures its trials one by one.
    """
    mean = _mean_function(spec)
    bump_scale = 0.25 * (_SPECTRUM[1] - _SPECTRUM[0])

    def draw(rng, dim, trial_index):
        size = int(rng.integers(2, 5))
        atoms = _pd_draw(size, dim, _SPECTRUM, rng)
        w = rng.dirichlet(np.ones(size))
        bumps = [(_isometry_draw(dim, dim, rng), rng.uniform(0.0, bump_scale, dim))
                 for _ in range(size)]
        order = rng.permutation(size) if rng.random() < 0.5 else np.arange(size)
        return atoms, w, bumps, order

    def build(draws, dim, block):
        atoms, weights, bumps, orders = zip(*draws)
        x = _pd_build([pair for a in atoms for pair in a])
        g, lam = map(np.array, zip(*(pair for b in bumps for pair in b)))
        q = _orthonormal(g)
        # the increments stay unsymmetrized: the pinned reports depend on their bits
        lifted = x + q @ _diagonals(lam) @ q.swapaxes(-1, -2)
        cuts = np.cumsum([len(w) for w in weights])[:-1]
        return list(map(measure, weights, orders, np.split(x, cuts), np.split(lifted, cuts)))

    def measure(w, order, xs, ys):
        mu, nu = DiscreteMeasure(tuple(xs), w), DiscreteMeasure(tuple(ys[order]), w[order])
        if not stochastic_leq(mu, nu)[0]:
            return _Skip()
        m1, m2 = mean(mu), mean(nu)
        return _min_eig_scaled(m2 - m1, max(operator_norm(m1), operator_norm(m2)))

    return _run("stochastic-monotone", cfg, draw, build)


def check_directsum_coupling(spec, mu: DiscreteMeasure, nu: DiscreteMeasure,
                             couplings) -> VerificationReport:
    """mean(coupling-induced direct sum) == mean(mu) (+) mean(nu), per coupling
    (the `SuiteConfig` tolerance 1e-8)."""
    couplings = list(couplings)
    cfg = SuiteConfig(dims=(mu.n + nu.n,), trials=len(couplings), seed=0)
    mean = _mean_function(spec)
    target = direct_sum(mean(mu), mean(nu))

    def trial(coupling):
        charged = coupling.gamma > _CELL_EPS
        atoms = tuple(direct_sum(mu.atoms[i], nu.atoms[j]) for i, j in np.argwhere(charged))
        weights = coupling.gamma[charged]  # row-major, as the atoms
        joint = DiscreteMeasure(atoms, weights / weights.sum())
        return -operator_norm(mean(joint) - target.entries) / max(1.0, target.norm)

    return _tally("directsum-coupling", cfg, enumerate(map(trial, couplings)))
