"""Tests for the dense self-adjoint kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import (
    CommutationError,
    Contraction,
    DimensionMismatch,
    MatrixTuple,
    NotPositiveSemidefinite,
    SymMatrix,
    apply_scalar_function,
    comat_decompose,
    loewner_leq,
    make_dominated_pair,
    psd_sqrt,
    random_commuting_tuple,
    random_contraction,
    random_isometry,
    random_pd,
    shorted_operator,
    variational_infimum,
)
from loewner import shorted as shorted_module
from loewner.numlin import (
    DEFAULT_PSD_TOL,
    _certified_psd,
    _commuting_build,
    _commuting_draw,
    _compressed,
    _contraction_build,
    _contraction_draw,
    _dominated_pair,
    _functional_calculus,
    _halve,
    _isometry_draw,
    _orthonormal,
    _pd_build,
    _pd_draw,
    _psd_check,
    operator_norm,
    tuple_compress,
    tuple_direct_sum,
)


class TestSymMatrix:
    def test_symmetrized_at_construction(self):
        a = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        np.testing.assert_array_equal(a.entries, a.entries.T)
        assert a.entries[0, 1] == 1.0

    def test_hermitian_complex(self):
        a = SymMatrix(np.array([[1.0, 1j], [0.0, 2.0]]))
        np.testing.assert_allclose(a.entries, a.entries.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_complex_symmetrization_is_idempotent_bit_for_bit(self):
        # numpy divides a complex array by 2.0 as by 2 + 0j, which can flip the
        # sign of a zero part: symmetrizing twice then differed from once
        rng = np.random.default_rng(11)
        parts = np.array([0.0, -0.0, 1.0, -1.0])
        for _ in range(300):
            a = np.empty((3, 3), dtype=complex)
            a.real, a.imag = rng.choice(parts, (2, 3, 3))
            once = SymMatrix(a).entries
            assert SymMatrix(once).entries.tobytes() == once.tobytes()


class TestLoewnerLeq:
    def test_scalar_order(self):
        assert loewner_leq(np.eye(3), 2 * np.eye(3), 1e-10)

    def test_reflexive(self):
        a = random_pd(4, (0.1, 10), 5)
        assert loewner_leq(a, a)

    def test_incomparable_both_ways(self):
        a, b = np.diag([2.0, 0.0]), np.diag([1.0, 1.0])
        assert not loewner_leq(a, b)
        assert not loewner_leq(b, a)

    def test_antisymmetry_within_tolerance(self):
        a = random_pd(3, (1, 2), 9).entries
        b = a + 1e-12 * np.eye(3)
        assert loewner_leq(a, b) and loewner_leq(b, a)
        assert operator_norm(a - b) <= 2e-9 * max(1.0, operator_norm(a))

    def test_transitive_on_random_triples(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            a = random_pd(4, (0.5, 3), rng).entries
            b = a + random_pd(4, (0.01, 1), rng).entries
            c = b + random_pd(4, (0.01, 1), rng).entries
            assert loewner_leq(a, b) and loewner_leq(b, c)
            assert loewner_leq(a, c, tol=2e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loewner_leq(np.eye(2), np.eye(3))


class TestApplyScalarFunction:
    def test_identity_function(self):
        a = random_pd(5, (0.1, 10), 1)
        out = apply_scalar_function(lambda x: x, a)
        np.testing.assert_allclose(out.entries, a.entries, atol=1e-12 * a.norm)

    def test_sum_on_shared_eigenbasis(self):
        x = MatrixTuple((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        out = apply_scalar_function(lambda a, b: a + b, x)
        np.testing.assert_allclose(out.entries, np.diag([4.0, 6.0]), atol=1e-12)

    def test_sqrt_matches_psd_sqrt(self):
        # two independent code paths
        for seed in range(10):
            a = random_pd(6, (0.05, 8), seed)
            via_calculus = apply_scalar_function(np.sqrt, a)
            via_kernel = psd_sqrt(a)
            assert operator_norm(via_calculus.entries - via_kernel.entries) <= 1e-10 * a.norm

    def test_composition_through_shared_basis(self):
        for seed in range(5):
            x = random_commuting_tuple(2, 5, (0.2, 4), seed)
            inner = apply_scalar_function(lambda a, b: a * b + 1.0, x)
            composed = apply_scalar_function(lambda a, b: np.sqrt(a * b + 1.0), x)
            outer = apply_scalar_function(np.sqrt, inner)
            scale = max(1.0, inner.norm)
            assert operator_norm(composed.entries - outer.entries) <= 1e-9 * scale

    def test_rejects_noncommuting(self):
        a = random_pd(4, (0.5, 2), 3).entries
        b = random_pd(4, (0.5, 2), 4).entries
        x = MatrixTuple((a, b))  # no commuting flag; joint diagonalization must fail
        with pytest.raises(CommutationError):
            apply_scalar_function(lambda u, v: u + v, x)

    def test_undefined_at_eigenvalue(self):
        a = np.diag([1.0, 4.0])
        with pytest.raises(ValueError, match="undefined"):
            apply_scalar_function(lambda x: np.sqrt(x - 2.0), a)


class TestPsdSqrtPinv:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)).entries, np.eye(3))

    def test_diagonal_singular(self):
        a = np.diag([4.0, 0.0])
        np.testing.assert_allclose(psd_sqrt(a).entries, np.diag([2.0, 0.0]), atol=1e-14)

    def test_roundtrip(self):
        for seed in range(8):
            a = random_pd(5, (0.01, 5), seed)
            root = psd_sqrt(a)
            assert operator_norm(root.entries @ root.entries - a.entries) <= 1e-10 * max(1, a.norm)

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            psd_sqrt(np.diag([1.0, -0.5]))


# each public matrix entry point at a matrix diag(1, v) with v non-finite
NON_FINITE_CALLS = {
    "loewner_leq": lambda m: loewner_leq(np.eye(2), m),
    "shorted_operator": lambda m: shorted_operator(m, 1),
    "variational_infimum": lambda m: variational_infimum(m, [1.0]),
    "psd_sqrt": psd_sqrt,
    "comat_decompose": lambda m: comat_decompose([np.eye(2), m]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
@pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_raises_before_any_eigensolve(monkeypatch, name, v):
    """A NaN or an infinity would pass `loewner_leq`, give a NaN square root
    or a certificate with NaN entries: it is a ValueError before LAPACK runs."""
    def eigensolve(*args, **kwargs):
        raise AssertionError("an eigensolve ran on a non-finite matrix")

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, eigensolve)
    with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
        NON_FINITE_CALLS[name](np.diag([1.0, v]))


@st.composite
def psd_boundary_stacks(draw):
    """A stack of 1 to 3 Hermitian n x n matrices (n in [1, 12], real or
    complex) and a tolerance.  Each matrix has a spectrum over a random
    sub-range of 1e-8..1e8 times a scale 10**[-8, 8], and either lambda_min
    at ``-tol * max(1, lambda_max) * k`` for k in [0.5, 2], or 1 to n
    eigenvalues exactly zero, or no change; then a Haar rotation."""
    n, count = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    cplx = draw(st.booleans())
    tol = draw(st.sampled_from([DEFAULT_PSD_TOL, 1e-6, 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(count):
        lo, hi = np.sort(rng.uniform(-8, 8, 2))
        lam = 10.0 ** rng.uniform(lo, hi, n) * 10.0 ** draw(st.floats(-8, 8))
        kind = draw(st.sampled_from(["boundary", "rank-deficient", "as drawn"]))
        if kind == "boundary":
            lam[0] = -tol * max(1.0, lam.max()) * draw(st.floats(0.5, 2.0))
        elif kind == "rank-deficient":
            lam[:draw(st.integers(1, n))] = 0.0
        g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
        q = np.linalg.qr(g)[0]
        stack.append(SymMatrix((q * lam) @ q.conj().T).entries)
    return np.array(stack), tol


class TestCertifiedPsd:
    """`_certified_psd` only ever accepts, and only what `_psd_check` of
    ``eigvalsh`` accepts."""

    # 3000 draws of this strategy ran with no counterexample
    @settings(settings.get_profile("loewner"), max_examples=400)
    @given(psd_boundary_stacks())
    def test_never_accepts_what_eigvalsh_rejects(self, case):
        z, tol = case
        if not _certified_psd(z, tol):
            return
        for a in z:
            assert _certified_psd(a, tol)
            _psd_check(np.linalg.eigvalsh(a), tol, "certified")

    @settings(settings.get_profile("loewner"), max_examples=400)
    @given(psd_boundary_stacks())
    def test_full_pivot_permuted_cholesky_is_the_certificate(self, case):
        # `shorted_operator` admits with s = N by the permuted Cholesky alone
        z, tol = case
        for a in z:
            admitted = shorted_module._permuted_cholesky(a, a.shape[0], tol) is not None
            assert admitted == _certified_psd(a, tol)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_accepts_psd_matrices_at_every_scale(self, cplx):
        rng = np.random.default_rng(21)
        for exponent in range(-8, 9, 2):
            for rank in (3, 20, 24):
                g = rng.standard_normal((24, rank)) + (1j * rng.standard_normal((24, rank))
                                                       if cplx else 0.0)
                z = SymMatrix(10.0 ** exponent * g @ g.conj().T).entries
                assert _certified_psd(z, DEFAULT_PSD_TOL)
                assert _certified_psd(np.array([z, 2.0 * z]), DEFAULT_PSD_TOL)

    def test_one_uncertified_matrix_defers_the_whole_stack(self):
        good, bad = np.eye(4), np.diag([1.0, 1.0, 1.0, -1e-3])
        assert _certified_psd(good, DEFAULT_PSD_TOL)
        assert not _certified_psd(np.array([good, bad, good]), DEFAULT_PSD_TOL)

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_or_tolerance_is_not_certified(self, v):
        assert not _certified_psd(np.diag([1.0, v]), DEFAULT_PSD_TOL)
        assert not _certified_psd(np.eye(2), v)


@pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_dominated_pair_rejects_non_finite_tuples(monkeypatch, v, side):
    """A NaN once passed through as a "dominated" pair still holding it."""
    def eigensolve(*args, **kwargs):
        raise AssertionError("an eigensolve ran on a non-finite tuple")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigensolve)
    pair = [MatrixTuple((np.eye(2), np.eye(2))), MatrixTuple((np.eye(2), np.eye(2)))]
    pair[side] = MatrixTuple((np.eye(2), np.diag([1.0, v])))
    with pytest.raises(ValueError, match="^tuple has a non-finite entry$"):
        make_dominated_pair(*pair)


class TestRandomGenerators:
    def test_commuting_tuple_is_commuting(self):
        x = random_commuting_tuple(3, 6, (0.1, 10), 42)
        scale = max(xi.norm for xi in x.items) ** 2
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = x.items[i].entries, x.items[j].entries
                assert operator_norm(a @ b - b @ a) <= 1e-12 * scale

    def test_k1_reduces_to_random_pd(self):
        x = random_commuting_tuple(1, 4, (0.5, 2), 7)
        assert np.linalg.eigvalsh(x.items[0].entries)[0] > 0.4

    def test_seed_reproducibility_bit_identical(self):
        x1 = random_commuting_tuple(2, 5, (0.1, 10), 123)
        x2 = random_commuting_tuple(2, 5, (0.1, 10), 123)
        for a, b in zip(x1.items, x2.items):
            assert np.array_equal(a.entries, b.entries)
        assert np.array_equal(random_pd(4, (1, 2), 9).entries,
                              random_pd(4, (1, 2), 9).entries)

    def test_spectrum_inside_interval(self):
        x = random_commuting_tuple(2, 5, (0.3, 0.9), 5)
        for xi in x.items:
            vals = np.linalg.eigvalsh(xi.entries)
            assert vals[0] >= 0.3 - 1e-12 and vals[-1] <= 0.9 + 1e-12

    def test_isometry_gram(self):
        w = random_isometry(3, 7, 17)
        assert operator_norm(w.entries.T @ w.entries - np.eye(3)) <= 1e-12

    def test_isometry_needs_taller_target(self):
        with pytest.raises(ValueError):
            random_isometry(5, 3, 0)

    def test_contraction_norm(self):
        for seed in range(20):
            w = random_contraction(3, 5, seed)
            assert operator_norm(w.entries) <= 1.0 + 1e-12

    def test_contraction_type_rejects_large(self):
        with pytest.raises(ValueError):
            Contraction(2.0 * np.eye(2))


class TestMakeDominatedPair:
    def test_equal_tuples_shift_by_margin(self):
        x = random_commuting_tuple(2, 4, (1.0, 3.0), 3)
        xd, y = make_dominated_pair(x, x)
        for a, b in zip(xd.items, x.items):
            np.testing.assert_allclose(a.entries, b.entries - 0.05 * np.eye(4), atol=1e-14)
        for a, b in zip(y.items, x.items):
            np.testing.assert_array_equal(a.entries, b.entries)

    def test_scalar_case(self):
        x = MatrixTuple((np.array([[3.0]]),))
        y = MatrixTuple((np.array([[1.0]]),))
        xd, yd = make_dominated_pair(x, y)
        assert abs(xd.items[0].entries[0, 0] - 0.95) < 1e-14
        assert abs(yd.items[0].entries[0, 0] - 1.0) < 1e-14

    def test_order_holds_coordinatewise(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(2, 6))
            x = MatrixTuple(tuple(random_pd(n, (0.1, 10), rng) for _ in range(k)))
            y = MatrixTuple(tuple(random_pd(n, (0.1, 10), rng) for _ in range(k)))
            xd, yd = make_dominated_pair(x, y)
            for a, b in zip(xd.items, yd.items):
                assert loewner_leq(a, b)
                assert np.linalg.eigvalsh(a.entries)[0] > 0
                diff_max = np.linalg.eigvalsh(b.entries - a.entries)[-1]
                assert np.linalg.eigvalsh(b.entries - a.entries)[0] >= 0.05 - 1e-10 or diff_max > 0


class TestStructuralHelpers:
    def test_tuple_direct_sum(self):
        x = MatrixTuple((np.eye(2),))
        y = MatrixTuple((2 * np.eye(3),))
        s = tuple_direct_sum(x, y)
        np.testing.assert_allclose(s.items[0].entries,
                                   np.diag([1.0, 1.0, 2.0, 2.0, 2.0]))

    def test_tuple_compress(self):
        x = MatrixTuple((np.diag([1.0, 2.0, 3.0]),))
        v = np.zeros((3, 2))
        v[0, 0] = 1.0
        v[2, 1] = 1.0
        c = tuple_compress(x, v)
        np.testing.assert_allclose(c.items[0].entries, np.diag([1.0, 3.0]))


# ---------------------------------------------------------------------------
# split draws against the generators as they drew one sample at a time
# ---------------------------------------------------------------------------

def legacy_random_pd_stack(count, n, interval, rng):
    """``count`` successive random PD draws, each from its own ``standard_normal``
    and ``uniform`` calls into one (count, n, n) stack, as before the draws
    were split from the builds."""
    lo, hi = interval
    g, lam = np.empty((count, n, n)), np.zeros((count, n, n))
    for i in range(count):
        g[i] = rng.standard_normal((n, n))
        np.fill_diagonal(lam[i], rng.uniform(lo, hi, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    a = q @ lam @ q.swapaxes(-1, -2)
    return _halve(a + a.swapaxes(-1, -2))


def legacy_isometry(n, m, rng):
    """One sign-fixed Q factor of an (m, n) Gaussian, from its own ``qr``."""
    q, r = np.linalg.qr(rng.standard_normal((m, n)))
    return q * np.sign(np.diag(r))


def legacy_contraction(n, m, rng):
    g = rng.standard_normal((m, n))
    target = rng.uniform(0.1, 1.0)
    return g * (target / max(operator_norm(g), 1e-300))


def legacy_dominated_pair(x, y):
    """The dominated pair of two (k, n, n) tuples, one pair at a time."""
    eye = np.eye(x.shape[-1])
    t = np.fmax(0.0, np.linalg.eigvalsh(x - y)[:, -1]) + 0.05
    shifted = x - t[:, None, None] * eye
    floor = min(np.linalg.eigvalsh(shifted)[:, 0].tolist())
    if floor <= 0.0:
        lift = 0.05 - floor
        return shifted + lift * eye, y + lift * eye
    return shifted, y


def legacy_commuting_tuple(k, n, interval, rng):
    """A commuting tuple drawn and built one coordinate at a time."""
    q = legacy_isometry(n, n, rng)
    items = []
    for _ in range(k):
        a = q @ np.diag(rng.uniform(*interval, n)) @ q.T
        items.append(_halve(a + a.T))
    return np.array(items)


def assert_same_state(new, old):
    assert new.standard_normal() == old.standard_normal()


@settings(settings.get_profile("loewner"), max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 8), n=st.integers(1, 6),
       extra=st.integers(0, 3), k=st.integers(1, 3))
def test_split_draws_equal_per_draw_generators(seed, count, n, extra, k):
    """A stack of raw draws, built at once, has the bits of the generators
    drawing and building one sample at a time, slice for slice, and leaves
    the generator where they leave it."""
    m, spectrum = n + extra, (0.1, 10.0)
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)

    np.testing.assert_array_equal(_pd_build(_pd_draw(count, n, spectrum, new)),
                                  legacy_random_pd_stack(count, n, spectrum, old))
    assert_same_state(new, old)
    for _ in range(count):
        np.testing.assert_array_equal(random_pd(n, spectrum, new).entries,
                                      legacy_random_pd_stack(1, n, spectrum, old)[0])
    assert_same_state(new, old)

    for q in _orthonormal(np.stack([_isometry_draw(n, n, new) for _ in range(count)])):
        np.testing.assert_array_equal(q, legacy_isometry(n, n, old))
    np.testing.assert_array_equal(random_isometry(n, n, new).entries, legacy_isometry(n, n, old))
    assert_same_state(new, old)

    for w in _orthonormal(np.stack([_isometry_draw(n, m, new) for _ in range(count)])):
        np.testing.assert_array_equal(w, legacy_isometry(n, m, old))
    np.testing.assert_array_equal(random_isometry(n, m, new).entries, legacy_isometry(n, m, old))
    assert_same_state(new, old)

    got = _commuting_build([_commuting_draw(k, n, spectrum, new) for _ in range(count)])
    for tuple_ in got:
        np.testing.assert_array_equal(tuple_, legacy_commuting_tuple(k, n, spectrum, old))
    np.testing.assert_array_equal(np.array(random_commuting_tuple(k, n, spectrum, new).arrays()),
                                  legacy_commuting_tuple(k, n, spectrum, old))
    assert_same_state(new, old)

    g, target = map(np.stack, zip(*(_contraction_draw(n, m, new) for _ in range(count))))
    for w in _contraction_build(g, target):
        np.testing.assert_array_equal(w, legacy_contraction(n, m, old))
    np.testing.assert_array_equal(random_contraction(n, m, new).entries,
                                  legacy_contraction(n, m, old))
    assert_same_state(new, old)

    # the stacked helpers of the suites, over (count, k, n, n) stacks
    x, y = _pd_build(_pd_draw(2 * count * k, n, spectrum, new)).reshape(2, count, k, n, n)
    w = _orthonormal(np.stack([_isometry_draw(max(1, n - extra), n, new) for _ in range(count)]))
    for got, want in zip(zip(*_dominated_pair(x, y)), map(legacy_dominated_pair, x, y)):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    for got, xi, wi in zip(_compressed(x, w), x, w):
        c = wi.conj().T @ xi @ wi
        np.testing.assert_array_equal(got, _halve(c + c.conj().swapaxes(-1, -2)))


# ---------------------------------------------------------------------------
# the stacked functional calculus against the calculus of one point at a time
# ---------------------------------------------------------------------------

def legacy_joint_basis(arrays):
    """The joint eigenbasis of one commuting family, as before the calculus
    was stacked."""
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


def legacy_apply_scalar_function(f, arrays):
    """f(X) at one point (a list of k matrices), as before the calculus was
    stacked: the value, or the exception it raises."""
    try:
        n = arrays[0].shape[0]
        if len(arrays) == 1:
            lam, basis = np.linalg.eigh(arrays[0])
            joint = [lam]
        else:
            basis = legacy_joint_basis(arrays)
            joint = [np.real(np.diag(basis.conj().T @ a @ basis)) for a in arrays]
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
        return SymMatrix(basis @ np.diag(vals) @ basis.conj().T).entries
    except Exception as exc:
        return exc


def _scalar_only_sqrt(x):
    return math.sqrt(x)  # scalars only: arrays take the per-element fallback


def _raises_above(limit):
    def f(x):
        if np.max(x) > limit:
            raise ArithmeticError(f"argument above {limit}")
        return np.log(x)
    return f


@settings(settings.get_profile("loewner"), max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6), n=st.integers(1, 5),
       k=st.integers(1, 3), kind=st.sampled_from(["sqrt", "scalar-only", "shifted", "raises"]),
       noncommuting=st.booleans())
def test_stacked_calculus_equals_one_point_at_a_time(seed, count, n, k, kind, noncommuting):
    """Each point of a stack gets the bits of the calculus on it alone, or
    the same exception: f's own error (the whole stack then runs point by
    point), a non-finite value, or (at the middle point, for k > 1) a
    tuple that does not commute."""
    f = {"sqrt": lambda *a: np.sqrt(sum(a)), "scalar-only": _scalar_only_sqrt,
         "shifted": lambda *a: np.sqrt(sum(a) - 4.0), "raises": _raises_above(8.0)}[kind]
    if kind in ("scalar-only", "raises"):
        k = 1
    rng = np.random.default_rng(seed)
    x = _commuting_build([_commuting_draw(k, n, (0.1, 10.0), rng) for _ in range(count)])
    if noncommuting and k > 1:
        x[count // 2, 0] = random_pd(n, (0.1, 10.0), rng).entries
    values, errors = _functional_calculus(f, x)
    for got, error, point in zip(values, errors, x):
        want = legacy_apply_scalar_function(f, list(point))
        if isinstance(want, Exception):
            assert type(error) is type(want) and str(error) == str(want)
        else:
            assert error is None and got.tobytes() == want.tobytes()
