"""Constructive realization factory for a library of operator monotone functions.

Exact pencils exist for the affine, parallel-sum (cauchy), harmonic and
arithmetic families.  Fractional powers and the two-variable weighted
geometric mean are built from the half-line integral representation

    x^t = sin(t pi)/pi * int_0^inf  lam^(t-1) * x/(lam + x)  dlam,

discretized on (0,1) through lam = s/(1-s).  The transformed integrand has
algebraic endpoint factors s^(t-1) and (1-s)^(-t), so the nodes come from the
Gauss-Jacobi rule with exactly that weight, leaving a smooth remainder; plain
Gauss-Legendre on the same interval stalls near 1e-2 relative error at N=96
while this rule reaches roundoff.  Each quadrature term w * lam x/(lam + x) is
a scaled parallel sum, the short of [[w x, w x], [w x, w (x + lam)]]; the
terms share one pivot, so every coefficient of the realization is an
arrowhead (`_arrowhead`): a pivot entry, a diagonal and a coupling column,
handed to `PencilRealization` as an `Arrowhead` of the node and weight
vectors themselves, so no builder forms a dense coefficient.

Accuracy is calibrated against eigendecomposition oracles on spectra in
[0.1, 10].  For ``power:0.37`` the largest relative scalar error over 41
log-spaced x is 2.0e-12, 4.0e-12 and 6.8e-11 on [0.1, 10] at N = 96, 192
and 384 nodes, and 1.0e-5, 4.5e-11 and 6.1e-10 on [1e-3, 1e3]: more nodes
help only on wide spectra, and on 10^[-8, 8] the error is 0.96 to 0.99.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pencil import Arrowhead, PencilRealization

__all__ = [
    "QuadratureScheme",
    "FunctionSpec",
    "power_quadrature_scheme",
    "cauchy_atom",
    "loewner_quadrature",
    "weighted_harmonic",
    "weighted_arithmetic",
    "geometric_mean",
    "build_realization",
]


@dataclass(frozen=True)
class QuadratureScheme:
    """Positive nodes and weights with x^t ~= sum_j w_j * nodes_j*x/(nodes_j+x)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(nodes > 0):
            raise ValueError("nodes must be strictly positive")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must be strictly positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def power_quadrature_scheme(t: float, n_nodes: int) -> QuadratureScheme:
    """Gauss-Jacobi discretization of the x^t integral representation.

    With s = (x+1)/2 mapping (-1,1) to (0,1) and lam = s/(1-s), the integrand
    factors as s^(t-1) (1-s)^(-t) * x/(s + x(1-s)); the Jacobi weight
    (1-x)^(-t) (1+x)^(t-1) absorbs the singular factors exactly.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {t}")
    if n_nodes < 8:
        raise ValueError(f"need at least 8 nodes, got {n_nodes}")
    from scipy.special import roots_jacobi  # here: about 24 MB and 0.23 s to import
    with warnings.catch_warnings():
        # scipy's weight recurrence divides 0/0 at k=1 when a+b = -1; the
        # emitted values are still correct (sum of weights equals B(t, 1-t)).
        warnings.simplefilter("ignore", RuntimeWarning)
        x, u = roots_jacobi(n_nodes, -t, t - 1.0)
    s = 0.5 * (x + 1.0)
    lam = s / (1.0 - s)
    coeff = math.sin(t * math.pi) / math.pi * u / (1.0 - s)
    return QuadratureScheme(nodes=lam, weights=coeff / lam)


@dataclass(frozen=True)
class FunctionSpec:
    """Parsed function description; the grammar is the CLI's external surface.

    Grammar:  identity | constant:c | cauchy:lam | sqrt | power:t
              | harmonic:w1,..,wk | arithmetic:w1,..,wk | geomean:t
    ``affine`` (alpha, beta_1..beta_k) is additionally accepted in-process.
    """

    tag: str
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        tag, p = self.tag, self.params
        if tag == "identity":
            if p:
                raise ValueError("identity takes no parameters")
        elif tag == "constant":
            if len(p) != 1 or not 0 < p[0] < math.inf:
                raise ValueError("constant needs one finite parameter c > 0")
        elif tag == "affine":
            if len(p) < 2 or not all(0 <= b < math.inf for b in p):
                raise ValueError("affine needs finite alpha >= 0 and slopes beta_i >= 0")
        elif tag == "cauchy":
            if len(p) != 1 or not 0 < p[0] < math.inf:
                raise ValueError("cauchy needs one finite parameter lambda > 0")
        elif tag == "sqrt":
            if p:
                raise ValueError("sqrt takes no parameters")
        elif tag in ("power", "geomean"):
            if len(p) != 1 or not 0.0 < p[0] < 1.0:
                raise ValueError(f"{tag} needs one exponent t in (0, 1)")
        elif tag in ("harmonic", "arithmetic"):
            _check_weights(p)
        else:
            raise ValueError(f"unknown function tag {tag!r}")

    @classmethod
    def parse(cls, text: str) -> "FunctionSpec":
        tag, _, rest = text.strip().partition(":")
        try:
            params = tuple(float(p) for p in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ValueError(f"cannot parse parameters in {text!r}: {exc}") from exc
        return cls(tag, params)


def _check_weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1 or not np.all(w > 0):
        raise ValueError("weights must be positive")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {float(w.sum()):.12f}")
    return w / w.sum()


def _arrowhead(pivot, diag=(), couple=None) -> Arrowhead:
    """The coefficient ``[[pivot, couple*], [couple, diag(diag)]]`` of a pencil
    as an `Arrowhead`: zero coupling when ``couple`` is None, 1 x 1 for no
    diag."""
    diag = np.concatenate([[pivot], diag])
    couple = np.zeros(diag.shape[0] - 1) if couple is None else couple
    return Arrowhead(diag, couple, couple)


def _e1_pencil(a0, *coeffs) -> PencilRealization:
    """One realization with e = e1 from its coefficients' arrowheads."""
    e = np.zeros(a0.n)
    e[0] = 1.0
    return PencilRealization(e, a0, coeffs)


def cauchy_atom(lam: float) -> PencilRealization:
    """Pencil for the parallel sum r_lam(x) = lam*x/(lam + x).

    The short of [[x, x], [x, x + lam]] onto the first coordinate is
    x - x (x + lam)^-1 x = lam x / (lam + x).
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return _e1_pencil(_arrowhead(0.0, [lam]), _arrowhead(1.0, [1.0], [1.0]))


def loewner_quadrature(t: float, n_nodes: int = 96) -> PencilRealization:
    """Quadrature realization of x -> x^t for t in (0, 1).

    The relative error is measured in the module docstring: at the default
    96 nodes 2.0e-12 on [0.1, 10] and 1.0e-5 on [1e-3, 1e3], which 384 nodes
    bring to 6.1e-10 at the cost of 6.8e-11 on [0.1, 10].
    """
    s = power_quadrature_scheme(t, n_nodes)
    w = s.weights
    # the pivot sums the weights in node order
    return _e1_pencil(_arrowhead(0.0, w * s.nodes), _arrowhead(np.cumsum(w)[-1], w, w))


def weighted_harmonic(w) -> PencilRealization:
    """Exact pencil for the weighted harmonic mean (sum_i w_i X_i^-1)^-1.

    With e = (1,..,1)/sqrt(k), A0 = 0 and A_i = E_ii/(k w_i), the pencil is
    diag(X_i/(k w_i)) and shorting onto the diagonal vector direction is the
    infimal convolution of the coordinate quadratics, i.e. the harmonic mean.
    """
    w = _check_weights(w)
    k = w.shape[0]
    a0, *coeffs = (_arrowhead(d[0], d[1:]) for d in (np.zeros(k), *np.diag(1.0 / (k * w))))
    return PencilRealization(np.ones(k) / math.sqrt(k), a0, coeffs)


def weighted_arithmetic(w) -> PencilRealization:
    """Exact pencil for the weighted arithmetic mean sum_i w_i X_i."""
    return _e1_pencil(_arrowhead(0.0), *(_arrowhead(wi) for wi in _check_weights(w)))


def geometric_mean(t: float, n_nodes: int = 96) -> PencilRealization:
    """Quadrature realization of the weighted geometric mean X1 #_t X2.

    Two-variable perspective of x^t: each quadrature term becomes the scaled
    parallel sum w * ((lam X1) : X2), realized as the short of
    [[lam X1, lam X1], [lam X1, lam X1 + X2]], all sharing one pivot.
    """
    s = power_quadrature_scheme(t, n_nodes)
    wl = s.weights * s.nodes
    return _e1_pencil(_arrowhead(0.0, np.zeros(n_nodes)),
                      _arrowhead(np.cumsum(wl)[-1], wl, wl), _arrowhead(0.0, s.weights))


def build_realization(spec: FunctionSpec | str, n_nodes: int = 96) -> PencilRealization:
    """Build the pencil realization described by a FunctionSpec (or its text)."""
    if isinstance(spec, str):
        spec = FunctionSpec.parse(spec)
    tag, p = spec.tag, spec.params
    if tag in ("identity", "constant", "affine"):
        # 1 x 1 pencils: A0 = [[alpha]] and A_i = [[beta_i]]
        coef = {"identity": (0.0, 1.0), "constant": (*p, 0.0)}.get(tag, p)
        return _e1_pencil(*(_arrowhead(c) for c in coef))
    if tag == "cauchy":
        return cauchy_atom(p[0])
    if tag in ("sqrt", "power"):
        return loewner_quadrature(p[0] if p else 0.5, n_nodes)
    if tag == "harmonic":
        return weighted_harmonic(p)
    if tag == "arithmetic":
        return weighted_arithmetic(p)
    if tag == "geomean":
        return geometric_mean(p[0], n_nodes)
    raise ValueError(f"unknown function tag {tag!r}")
