"""Tests for measures, stochastic order, couplings and operator means."""

import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loewner import (
    Coupling,
    DiscreteMeasure,
    MeanConvergenceError,
    StepRepresentation,
    SuiteConfig,
    UpperSetCertificate,
    brute_force_stochastic_leq,
    check_directsum_coupling,
    check_stochastic_monotone,
    couplings_sample,
    loewner_leq,
    mean_of_measure,
    monotone_representation,
    power_mean,
    random_isometry,
    random_pd,
    stochastic_leq,
)
from loewner import measures, verify
from loewner.measures import (
    _VECTOR_SUM_MIN,
    _exact_column_sums,
    _geomean_pair,
    _order_relation,
    _weighted_matrix_sum,
    parse_mean_spec,
    pushforward_weights,
)
from loewner.numlin import SymMatrix, operator_norm
from loewner.verify import _SPECTRUM, _min_eig_scaled, _Skip, _tally


def uniform_measure(atoms):
    k = len(atoms)
    return DiscreteMeasure(tuple(atoms), np.full(k, 1.0 / k))


def lifted(mu, rng, scale=0.4):
    """Same weights, every atom raised by a random PSD increment."""
    out = []
    for a in mu.atoms:
        g = rng.standard_normal((mu.n, mu.n))
        bump = g @ g.T
        bump *= scale / max(operator_norm(bump), 1e-300)
        out.append(a.entries + bump)
    return DiscreteMeasure(tuple(out), mu.weights)


def seeded_pair(seed, p, kind, n=4):
    """Seeded mu with p atoms of dimension n and a lifted, permuted copy above it
    ("ordered"), an independent measure ("independent"), or a measure whose
    atoms lie above almost every atom of mu ("dominated": many couplings, so
    the one found depends on the augmenting-path order)."""
    rng = np.random.default_rng(seed)
    atoms = [random_pd(n, (0.1, 10.0), rng) for _ in range(p)]
    mu = DiscreteMeasure(tuple(atoms), rng.dirichlet(np.ones(p)))
    if kind == "ordered":
        up = []
        for a in atoms:
            g = rng.standard_normal((n, n))
            up.append(a.entries + 2.5 * (g @ g.T) / np.linalg.norm(g @ g.T, 2))
        order = rng.permutation(p)
        return mu, DiscreteMeasure(tuple(up[i] for i in order), mu.weights[order])
    spectrum = (9.0, 20.0) if kind == "dominated" else (0.1, 10.0)
    other = [random_pd(n, spectrum, rng) for _ in range(p)]
    return mu, DiscreteMeasure(tuple(other), rng.dirichlet(np.ones(p)))


def complex_atoms(seed, k, n):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append(g @ g.conj().T / n + 0.2 * np.eye(n))
    return out


def small_random_measure(seed):
    """Seeded measure of 2 to 6 atoms of dimension 1 to 5, spectra in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    return DiscreteMeasure(tuple(random_pd(n, (0.1, 10.0), rng) for _ in range(p)),
                           rng.dirichlet(np.ones(p)))


def plain_power_mean(weights, atoms, t):
    """Oracle: the plain iteration X <- sum_i w_i X #_t A_i from the arithmetic
    mean, until a step changes X by at most 1e-13 of ||X||_F; returns X and
    the step count."""
    stack = np.stack([SymMatrix(a).entries for a in atoms])
    x = _weighted_matrix_sum(weights, stack)
    steps = 0
    while True:
        nxt = _weighted_matrix_sum(weights, _geomean_pair(x, stack, t))
        steps += 1
        change = np.linalg.norm(nxt - x, "fro")
        x = nxt
        if change <= 1e-13 * np.linalg.norm(x, "fro"):
            return x, steps


def pairwise_relation(mu, nu, tol=1e-9):
    return np.array([[loewner_leq(a, b, tol) for b in nu.atoms] for a in mu.atoms])


def certificate_rejects(a, b, tol=1e-9):
    """`_rejected` on the one pair (A, B), with the threshold of `loewner_leq`."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, *(abs(np.linalg.eigvalsh(m)[[0, -1]]).max() for m in (a, b)))
    err = measures._eig_error(a[None]) + measures._eig_error(b[None])
    return bool(measures._rejected((b - a)[None], np.array([-tol * scale]), err)[0])


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure((np.eye(2),), np.array([0.9]))

    def test_atoms_must_be_pd(self):
        with pytest.raises(ValueError, match="not PD"):
            DiscreteMeasure((np.diag([1.0, 0.0]),), np.array([1.0]))

    @pytest.mark.parametrize("atom", [[[1.0, np.nan], [np.nan, 1.0]],
                                      [[1.0, np.inf], [np.inf, 1.0]],
                                      [[1.0, 0.0], [0.0, np.nan]]],
                             ids=["nan-off-diagonal", "inf-off-diagonal", "nan-diagonal"])
    def test_rejects_non_finite_atom(self, silent_fds, atom):
        with pytest.raises(ValueError, match="atom 1 has a non-finite entry"):
            DiscreteMeasure((np.eye(2), np.array(atom)), np.array([0.5, 0.5]))

    def test_rejects_nan_weight(self, silent_fds):
        with pytest.raises(ValueError, match="strictly positive"):
            DiscreteMeasure((np.eye(2), 2 * np.eye(2)), np.array([np.nan, 0.5]))

    def test_one_eigvalsh_per_dtype_stack(self, monkeypatch):
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            stacks.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        real = [random_pd(3, (0.5, 2), s) for s in range(4)]
        cplx = complex_atoms(5, 2, 3)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        mu = uniform_measure(real)
        assert [(s.shape, s.dtype) for s in stacks] == [((4, 3, 3), np.float64)]
        nu = uniform_measure([real[0].entries + np.eye(3), cplx[0], real[1].entries, cplx[1]])
        assert [(s.shape, s.dtype) for s in stacks[1:]] == [((2, 3, 3), np.float64),
                                                            ((2, 3, 3), np.complex128)]
        # blocks of two mu rows, so that each measure's relation has two
        monkeypatch.setattr(measures, "_BLOCK_ENTRIES", 2 * 4 * 3 * 3)
        for first, second in ((mu, nu), (nu, mu)):
            del stacks[:]
            stochastic_leq(first, second)
            calls = stacks[:]
            # one call per pair dtype and block of two rows, at most ...
            dtypes = [s.dtype for s in calls]
            assert dtypes.count(np.float64) <= 2 and dtypes.count(np.complex128) <= 2
            # ... on exactly the differences the certificate leaves undecided
            undecided = [np.asarray(b) - np.asarray(a)
                         for a in first.atoms for b in second.atoms
                         if not certificate_rejects(a, b)]
            assert undecided
            assert (sorted(m.tobytes() for s in calls for m in s)
                    == sorted(m.tobytes() for m in undecided))

    def test_most_pairs_skip_the_eigensolver(self, monkeypatch):
        mu, nu = seeded_pair(2025, 100, "independent")
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            sizes.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        _order_relation(mu, nu, 1e-9)
        assert 0 < sum(sizes) < 0.25 * mu.size * nu.size


class TestStochasticLeq:
    def test_comparable_diracs(self):
        mu = DiscreteMeasure.dirac(np.eye(2))
        nu = DiscreteMeasure.dirac(2 * np.eye(2))
        ok, coupling = stochastic_leq(mu, nu)
        assert ok
        np.testing.assert_allclose(coupling.gamma, [[1.0]], atol=1e-12)

    def test_two_atoms_below_one(self):
        a = np.eye(3)
        b = 1.5 * np.eye(3)
        c = 2.0 * np.eye(3)
        mu = DiscreteMeasure((a, b), np.array([0.5, 0.5]))
        nu = DiscreteMeasure.dirac(c)
        ok, coupling = stochastic_leq(mu, nu)
        assert ok
        np.testing.assert_allclose(coupling.gamma.sum(), 1.0, atol=1e-12)
        assert brute_force_stochastic_leq(mu, nu)

    def test_incomparable_singletons_certificate(self):
        mu = DiscreteMeasure.dirac(np.diag([2.0, 0.5]) + 0.01 * np.eye(2))
        nu = DiscreteMeasure.dirac(np.diag([1.0, 1.0]) + 0.01 * np.eye(2))
        ok, cert = stochastic_leq(mu, nu)
        assert not ok
        assert isinstance(cert, UpperSetCertificate)
        assert cert.mu_indices == (0,)
        assert cert.violation > 0.5

    def test_reflexive(self):
        mu = uniform_measure([random_pd(3, (0.5, 3), s) for s in range(3)])
        ok, coupling = stochastic_leq(mu, mu)
        assert ok
        # diagonal coupling works; the solver may pick any feasible one
        assert brute_force_stochastic_leq(mu, mu)

    def test_flow_agrees_with_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        pool = []
        for s in range(8):
            atoms = [random_pd(3, (0.5, 3), rng) for _ in range(int(rng.integers(1, 4)))]
            w = rng.dirichlet(np.ones(len(atoms)))
            pool.append(DiscreteMeasure(tuple(atoms), w))
        pool.extend(lifted(m, rng) for m in pool[:4])
        agree = 0
        for mu in pool:
            for nu in pool:
                assert stochastic_leq(mu, nu)[0] == brute_force_stochastic_leq(mu, nu)
                agree += 1
        assert agree == len(pool) ** 2

    def test_transitive_via_coupling_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = uniform_measure([random_pd(3, (0.5, 2), rng) for _ in range(2)])
            nu = lifted(mu, rng)
            pi = lifted(nu, rng)
            assert stochastic_leq(mu, nu)[0]
            assert stochastic_leq(nu, pi)[0]
            assert stochastic_leq(mu, pi)[0]

    def test_no_credit_through_a_chain_at_the_tolerance(self):
        # A <= B1 and B1 <= B2 within the tolerance, but not A <= B2: no
        # coupling moves mass from A to B2, so mu <= nu fails for both
        a, b1, b2 = np.array([[2.0]]), np.array([[2.0 - 1.2e-9]]), np.array([[2.0 - 2.4e-9]])
        assert loewner_leq(a, b1) and loewner_leq(b1, b2) and not loewner_leq(a, b2)
        mu = DiscreteMeasure.dirac(a)
        nu = DiscreteMeasure((b1, b2), np.array([0.5, 0.5]))
        assert not stochastic_leq(mu, nu)[0]
        assert not brute_force_stochastic_leq(mu, nu)

    def test_brute_force_pool_size_limit(self):
        atoms = [(1.0 + i) * np.eye(2) for i in range(11)]
        mu = uniform_measure(atoms)
        nu = uniform_measure([a + np.eye(2) for a in atoms])
        with pytest.raises(ValueError, match="exceeds 20"):
            brute_force_stochastic_leq(mu, nu)


ORDER_TOL = 1e-9


@st.composite
def boundary_pairs(draw):
    """mu with p <= 10 atoms and nu with q <= 20 - p.  Every moved atom is
    ``A + delta P`` for a mu atom A and a random rank-one projector P, with
    ``|delta| <= 2 ORDER_TOL max(1, ||A||)`` of either sign, so its relation
    to A is decided at the tolerance boundary.  ``mirror`` pairs move every mu
    atom once and keep the (permuted) weights, so the order holds or fails on
    those boundary relations; other pairs mix moved and fresh atoms."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 10))
    mirror = draw(st.booleans())
    q = p if mirror else draw(st.integers(1, 20 - p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = [random_pd(n, (0.5, 4.0), rng).entries for _ in range(p)]
    others = []
    for j in range(q):
        if not mirror and draw(st.booleans()):
            others.append(random_pd(n, (0.5, 4.0), rng).entries)
            continue
        a = atoms[j if mirror else draw(st.integers(0, p - 1))]
        v = rng.standard_normal(n)
        delta = draw(st.floats(-2.0, 2.0)) * ORDER_TOL * max(1.0, operator_norm(a))
        others.append(a + delta * np.outer(v, v) / (v @ v))
    w = rng.dirichlet(np.ones(p))
    mu = DiscreteMeasure(tuple(atoms), w)
    if mirror:
        order = rng.permutation(p)
        return mu, DiscreteMeasure(tuple(others[i] for i in order), w[order])
    return mu, DiscreteMeasure(tuple(others), rng.dirichlet(np.ones(q)))


# 63 of the 150 derandomized pairs are ordered.  Over 1500 further random
# draws an oracle closing upper sets under the whole pooled relation disagreed
# on 3, through chains at the tolerance (see the chain test above).
@settings(settings.get_profile("loewner"), max_examples=150)
@given(boundary_pairs())
def test_flow_agrees_with_brute_force_at_the_tolerance(pair):
    mu, nu = pair
    assert stochastic_leq(mu, nu, ORDER_TOL)[0] == brute_force_stochastic_leq(mu, nu, ORDER_TOL)


class TestMonotoneRepresentation:
    def test_singleton_pair(self):
        mu = DiscreteMeasure.dirac(np.eye(2))
        nu = DiscreteMeasure.dirac(2 * np.eye(2))
        _, coupling = stochastic_leq(mu, nu)
        xi_mu, xi_nu = monotone_representation(mu, nu, coupling)
        assert len(xi_mu.atom_indices) == 1
        np.testing.assert_allclose(xi_mu.breakpoints, [0.0, 1.0])

    def test_product_coupling_of_ordered_atoms(self):
        rng = np.random.default_rng(1)
        base = uniform_measure([random_pd(2, (0.5, 2), rng) for _ in range(2)])
        # every nu-atom dominates every mu-atom
        shift = max(operator_norm(a.entries) for a in base.atoms)
        nu = DiscreteMeasure(tuple(a.entries + 2 * shift * np.eye(2) for a in base.atoms),
                             base.weights)
        product = couplings_sample(base, nu, 1)[0]
        xi_mu, xi_nu = monotone_representation(base, nu, product)
        assert len(xi_mu.atom_indices) == 4
        np.testing.assert_allclose(xi_mu.lengths, np.full(4, 0.25), atol=1e-12)

    def test_pushforward_recovers_measures(self):
        rng = np.random.default_rng(2)
        mu = DiscreteMeasure(tuple(random_pd(3, (0.5, 2), rng) for _ in range(3)),
                             np.array([0.2, 0.3, 0.5]))
        nu = lifted(mu, rng)
        ok, coupling = stochastic_leq(mu, nu)
        assert ok
        xi_mu, xi_nu = monotone_representation(mu, nu, coupling)
        np.testing.assert_allclose(pushforward_weights(xi_mu, mu.size), mu.weights,
                                   atol=1e-12)
        np.testing.assert_allclose(pushforward_weights(xi_nu, nu.size), nu.weights,
                                   atol=1e-12)

    def test_pointwise_order_on_every_interval(self):
        rng = np.random.default_rng(3)
        mu = uniform_measure([random_pd(3, (0.5, 2), rng) for _ in range(3)])
        nu = lifted(mu, rng)
        ok, coupling = stochastic_leq(mu, nu)
        xi_mu, xi_nu = monotone_representation(mu, nu, coupling)
        for i, j in zip(xi_mu.atom_indices, xi_nu.atom_indices):
            assert loewner_leq(mu.atoms[i], nu.atoms[j], 1e-9)

    def test_rejects_coupling_off_relation(self):
        mu = DiscreteMeasure.dirac(2 * np.eye(2))
        nu = DiscreteMeasure.dirac(np.eye(2))
        bad = Coupling(np.array([[1.0]]), mu.weights, nu.weights)
        with pytest.raises(ValueError, match="not supported"):
            monotone_representation(mu, nu, bad)


class TestNonFiniteInput:
    @pytest.mark.parametrize("gamma,row,message", [
        ([[np.nan, 0.5], [0.0, 0.5]], [0.5, 0.5], "coupling has a non-finite entry"),
        ([[0.5, 0.0], [0.0, 0.5]], [np.nan, 0.5], "marginals off by nan"),
    ], ids=["gamma", "marginal"])
    def test_coupling_rejects_nan(self, silent_fds, gamma, row, message):
        with pytest.raises(ValueError, match=message):
            Coupling(np.array(gamma), np.array(row), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("breaks", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0], [0.0, 0.5, np.nan]])
    def test_step_representation_rejects_nan(self, silent_fds, breaks):
        with pytest.raises(ValueError, match="breakpoints"):
            StepRepresentation(np.array(breaks), (0, 1))

    # A NaN weight reached LAPACK, which printed a DLASCL error to fd 1
    @pytest.mark.parametrize("weights,atoms,message", [
        ([np.nan, 0.5], [np.eye(2), np.eye(2)], "strictly positive"),
        ([0.5, 0.5], [np.eye(2), [[1.0, np.nan], [np.nan, 1.0]]], "atom 1 has a non-finite"),
        ([0.5, 0.5], [np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]], "atom 1 has a non-finite"),
    ], ids=["nan-weight", "nan-atom", "inf-atom"])
    def test_power_mean_rejects_non_finite(self, silent_fds, weights, atoms, message):
        with pytest.raises(ValueError, match=message):
            power_mean(weights, [np.array(a) for a in atoms], 0.5)


class TestCouplingsSample:
    def test_first_is_product(self):
        mu = uniform_measure([np.eye(2), 2 * np.eye(2)])
        nu = uniform_measure([3 * np.eye(2), 4 * np.eye(2), 5 * np.eye(2)])
        samples = couplings_sample(mu, nu, 5, seed=0)
        np.testing.assert_allclose(samples[0].gamma,
                                   np.outer(mu.weights, nu.weights))
        assert len(samples) == 5

    def test_all_samples_satisfy_marginals(self):
        rng = np.random.default_rng(4)
        mu = DiscreteMeasure(tuple(random_pd(2, (1, 2), rng) for _ in range(3)),
                             np.array([0.1, 0.3, 0.6]))
        nu = DiscreteMeasure(tuple(random_pd(2, (1, 2), rng) for _ in range(4)),
                             np.array([0.4, 0.2, 0.2, 0.2]))
        for c in couplings_sample(mu, nu, 10, seed=1):
            np.testing.assert_allclose(c.gamma.sum(axis=1), mu.weights, atol=1e-10)
            np.testing.assert_allclose(c.gamma.sum(axis=0), nu.weights, atol=1e-10)

    def test_singleton_mu_rows(self):
        mu = DiscreteMeasure.dirac(np.eye(2))
        nu = uniform_measure([2 * np.eye(2), 3 * np.eye(2)])
        for c in couplings_sample(mu, nu, 4, seed=2):
            np.testing.assert_allclose(c.gamma, nu.weights[None, :], atol=1e-12)


class TestPowerMean:
    def test_idempotent(self):
        a = random_pd(4, (0.5, 3), 0)
        out = power_mean([0.3, 0.7], (a, a), 0.5)
        assert operator_norm(out.entries - a.entries) <= 1e-12 * a.norm

    def test_t_one_is_arithmetic_bitwise(self):
        atoms = [random_pd(3, (0.5, 2), s) for s in (1, 2, 3)]
        w = np.array([0.2, 0.3, 0.5])
        out = power_mean(w, atoms, 1.0)
        mu = DiscreteMeasure(tuple(atoms), w)
        assert np.array_equal(out.entries, mean_of_measure("arithmetic", mu).entries)

    def test_commuting_atoms_scalar_oracle(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        spectra = [rng.uniform(0.5, 4.0, 4) for _ in range(3)]
        atoms = [q @ np.diag(s) @ q.T for s in spectra]
        w = np.array([0.2, 0.5, 0.3])
        for t in (0.3, 0.5, 0.9):
            got = power_mean(w, atoms, t).entries
            scalar = (sum(wi * s ** t for wi, s in zip(w, spectra))) ** (1.0 / t)
            oracle = q @ np.diag(scalar) @ q.T
            assert operator_norm(got - oracle) <= 1e-9 * max(1, operator_norm(oracle))

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(6)
        atoms = [random_pd(4, (0.2, 5), rng) for _ in range(3)]
        w = np.array([0.25, 0.35, 0.4])
        x = power_mean(w, atoms, 0.5).entries
        fixed = sum(wi * _geomean_pair(x, a.entries, 0.5) for wi, a in zip(w, atoms))
        assert np.linalg.norm(x - fixed, "fro") <= 1e-10 * np.linalg.norm(x, "fro")

    def test_monotone_in_each_atom(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            atoms = [random_pd(3, (0.5, 3), rng) for _ in range(3)]
            w = np.array([1 / 3] * 3)
            base = power_mean(w, atoms, 0.5).entries
            bumped = list(atoms)
            g = rng.standard_normal((3, 3))
            bumped[1] = bumped[1].entries + 0.5 * (g @ g.T) / operator_norm(g @ g.T)
            upper = power_mean(w, bumped, 0.5).entries
            assert np.linalg.eigvalsh(upper - base)[0] >= -1e-8

    def test_permutation_and_split_invariance_exact(self):
        atoms = [random_pd(3, (0.5, 2), s) for s in (10, 11)]
        mu = DiscreteMeasure(tuple(atoms), np.array([0.5, 0.5]))
        perm = DiscreteMeasure((atoms[1], atoms[0]), np.array([0.5, 0.5]))
        split = DiscreteMeasure((atoms[0], atoms[1], atoms[1]),
                                np.array([0.5, 0.25, 0.25]))
        for spec in ("power:0.5", "arithmetic", "harmonic"):
            base = mean_of_measure(spec, mu).entries
            assert np.array_equal(base, mean_of_measure(spec, perm).entries)
            assert np.array_equal(base, mean_of_measure(spec, split).entries)

    def test_checks_input_as_a_measure(self):
        # _geomean_pair clips negative eigenvalues of the atoms: without the
        # measure's checks the first returned diag(1, 0.25), the second a mean
        with pytest.raises(ValueError, match="atom 0 is not PD"):
            power_mean([0.5, 0.5], [np.diag([1.0, -0.5]), np.eye(2)], 0.5)
        with pytest.raises(ValueError, match="sum to 1 within 1e-12"):
            power_mean([0.5, 0.5 + 1e-10], [2 * np.eye(2), np.eye(2)], 0.5)

    def test_small_norm_means_meet_a_relative_residual(self):
        # Spectra in [1e-4, 1e-2] give ||X||_F near 0.01.  An absolute stop at
        # a residual of 1e-11 left 24 of these 60 means above 1e-10 * ||X||_F
        # (worst 2.9e-9); stopping at 1e-11 * min(1, ||g(X)||_F) keeps all
        # below 8.5e-12.
        worst = 0.0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            mu = DiscreteMeasure(tuple(random_pd(2, (1e-4, 1e-2), rng) for _ in range(3)),
                                 rng.dirichlet(np.ones(3)))
            x = mean_of_measure("power:0.02", mu).entries
            fixed = sum(w * _geomean_pair(x, a.entries, 0.02) for w, a in zip(mu.weights, mu.atoms))
            worst = max(worst, np.linalg.norm(x - fixed, "fro") / np.linalg.norm(x, "fro"))
        assert worst <= 1e-10

    def test_rejects_bad_exponent(self):
        a = random_pd(2, (1, 2), 0)
        with pytest.raises(ValueError):
            power_mean([1.0], (a,), 1.5)

    # The plain iteration contracts by about 1 - t per step: on these draws it
    # takes 1146 to 2410 steps, more than the 500 every exponent once had.
    # Mixed, power_mean took 9 to 32 calls of _geomean_pair and agreed with it
    # within 5.2e-11 of ||X||_F.
    @pytest.mark.parametrize("t", [0.02, 0.01])
    @pytest.mark.parametrize("seed", range(4))
    def test_small_exponents_converge(self, monkeypatch, t, seed):
        steps = []

        def counting(x, a, t):
            steps.append(1)
            return _geomean_pair(x, a, t)

        monkeypatch.setattr(measures, "_geomean_pair", counting)
        mu = small_random_measure(seed)
        x = mean_of_measure(f"power:{t}", mu).entries
        assert len(steps) <= 40
        oracle, plain_steps = plain_power_mean(mu.weights, mu.atoms, t)
        assert plain_steps > 500
        assert np.linalg.norm(x - oracle, "fro") <= 1e-10 * np.linalg.norm(oracle, "fro")
        fixed = sum(w * _geomean_pair(x, a.entries, t) for w, a in zip(mu.weights, mu.atoms))
        assert np.linalg.norm(x - fixed, "fro") <= 1e-11 * np.linalg.norm(x, "fro")

    def test_non_pd_mixed_iterate_restarts(self, monkeypatch):
        # Mixing X itself from the first step, not log X, overshoots out of the
        # PD cone on this draw (55 times in 158 calls); each overshoot costs
        # one call and restarts the history from its newest pair.
        failed = []

        def recording(x, a, t):
            try:
                return _geomean_pair(x, a, t)
            except ValueError:
                failed.append(1)
                raise

        monkeypatch.setattr(measures, "_geomean_pair", recording)
        monkeypatch.setattr(measures, "_LOG_MIXING_ABOVE", np.inf)
        mu = small_random_measure(0)
        x = mean_of_measure("power:0.02", mu).entries
        assert failed
        oracle, _ = plain_power_mean(mu.weights, mu.atoms, 0.02)
        assert np.linalg.norm(x - oracle, "fro") <= 1e-10 * np.linalg.norm(oracle, "fro")

    def test_complex_hermitian_agrees_with_plain_iteration(self):
        w = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        atoms = complex_atoms(78, 5, 6)
        for t in (0.3, 0.05):
            x = power_mean(w, atoms, t).entries
            oracle, _ = plain_power_mean(w, atoms, t)
            assert np.linalg.norm(x - oracle, "fro") <= 1e-10 * np.linalg.norm(oracle, "fro")

    @pytest.mark.parametrize("t,budget", [(0.5, 500), (0.02, 3000)])
    def test_non_convergence_raises_with_residual(self, monkeypatch, t, budget):
        # X -> X + I never contracts: every step changes X by ||I||_F = 2
        steps = []

        def drifting(x, a, t):
            steps.append(1)
            return np.broadcast_to(x + np.eye(x.shape[0]), a.shape)

        monkeypatch.setattr(measures, "_geomean_pair", drifting)
        atoms = [random_pd(4, (0.5, 2), s) for s in (1, 2)]
        with pytest.raises(MeanConvergenceError,
                           match=f"did not converge in {budget} iterations") as exc:
            power_mean([0.4, 0.6], atoms, t)
        assert len(steps) == budget
        assert exc.value.residual == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("t,budget", [(0.5, 500), (0.02, 3000)])
    def test_non_convergence_raises_when_mixing_x(self, monkeypatch, t, budget):
        # On X -> X + I the residual differences are rounding noise; without a
        # bound on the mixed step, mixing X itself (as below the log phase)
        # extrapolated to ||X||_F near 1e16 within three calls, where the
        # relative stopping rule passed.
        steps = []

        def drifting(x, a, t):
            steps.append(1)
            return np.broadcast_to(x + np.eye(x.shape[0]), a.shape)

        monkeypatch.setattr(measures, "_geomean_pair", drifting)
        monkeypatch.setattr(measures, "_LOG_MIXING_ABOVE", np.inf)
        atoms = [random_pd(4, (0.5, 2), s) for s in (1, 2)]
        with pytest.raises(MeanConvergenceError,
                           match=f"did not converge in {budget} iterations") as exc:
            power_mean([0.4, 0.6], atoms, t)
        assert len(steps) == budget
        assert exc.value.residual == pytest.approx(2.0, rel=1e-9)


class TestMeanOfMeasure:
    def test_parse_mean_spec(self):
        assert parse_mean_spec("power:0.5") == ("power", 0.5)
        assert parse_mean_spec("arithmetic") == ("arithmetic",)
        with pytest.raises(ValueError):
            parse_mean_spec("power:2")
        with pytest.raises(ValueError):
            parse_mean_spec("median")

    def test_two_atom_power_half_vs_direct_iteration(self):
        a = random_pd(3, (0.5, 3), 20)
        b = random_pd(3, (0.5, 3), 21)
        mu = uniform_measure([a, b])
        got = mean_of_measure("power:0.5", mu).entries
        x = (a.entries + b.entries) / 2
        for _ in range(300):
            x = 0.5 * _geomean_pair(x, a.entries, 0.5) + 0.5 * _geomean_pair(x, b.entries, 0.5)
        assert operator_norm(got - x) <= 1e-9 * max(1, operator_norm(x))

    def test_harmonic_formula(self):
        atoms = [random_pd(3, (0.5, 2), s) for s in (30, 31)]
        mu = DiscreteMeasure(tuple(atoms), np.array([0.3, 0.7]))
        got = mean_of_measure("harmonic", mu).entries
        oracle = np.linalg.inv(0.3 * np.linalg.inv(atoms[0].entries)
                               + 0.7 * np.linalg.inv(atoms[1].entries))
        assert operator_norm(got - oracle) <= 1e-11 * max(1, operator_norm(oracle))


    @pytest.mark.parametrize("kinds", ["real", "complex", "mixed"])
    def test_harmonic_stacked_inverse_is_per_atom(self, kinds):
        rng = np.random.default_rng(32)
        real = [random_pd(4, (0.5, 2), rng).entries for _ in range(3)]
        cplx = complex_atoms(33, 3, 4)
        atoms = {"real": real, "complex": cplx, "mixed": real[:2] + cplx[:2]}[kinds]
        w = rng.dirichlet(np.ones(len(atoms)))
        inv = [np.linalg.inv(a) for a in atoms]
        if kinds != "mixed":
            stacked = np.linalg.inv(np.stack(atoms))
            assert all(s.tobytes() == i.tobytes() for s, i in zip(stacked, inv))
        acc = [[[math.fsum(wi * x[r, c] for wi, x in zip(w, part)) for c in range(4)]
                for r in range(4)] for part in ([i.real for i in inv], [i.imag for i in inv])]
        oracle = np.linalg.inv(np.array(acc[0]) + 1j * np.array(acc[1]) if kinds != "real"
                               else np.array(acc[0]))
        got = mean_of_measure("harmonic", DiscreteMeasure(tuple(atoms), w)).entries
        assert got.tobytes() == SymMatrix(oracle).entries.tobytes()


# The power-mean iteration contracts by about 1 - t per step, so below
# t = 0.05 it takes more than 500 steps; those exponents are covered by
# `test_small_exponents_converge`.  Spectra stay in [0.1, 10], where the
# documented residual bound is claimed.
@settings(settings.get_profile("loewner"), max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6),
       st.floats(0.05, 1.0), st.booleans())
def test_power_mean_fixed_point_residual(seed, n, p, t, cplx):
    rng = np.random.default_rng(seed)
    atoms = []
    for _ in range(p):
        g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0)
        q, _ = np.linalg.qr(g)
        atoms.append((q * 10.0 ** rng.uniform(-1.0, 1.0, n)) @ q.conj().T)
    w = rng.dirichlet(np.ones(p))
    x = power_mean(w, atoms, t).entries
    fixed = sum(wi * _geomean_pair(x, a, t) for wi, a in zip(w, atoms))
    assert np.linalg.norm(x - fixed, "fro") <= 1e-10 * np.linalg.norm(x, "fro")


# Stopping on the fixed-point residual, not on the last change, keeps small
# exponents on wide spectra accurate: on these draws the worst residual was
# 3.0e-11 of ||X||_F, against 1.7e-10 for the plain iteration, which stopped
# on a change of 1e-13.
@pytest.mark.parametrize("t", [0.01, 0.02, 0.05])
def test_power_mean_residual_on_wide_spectra(t):
    rng = np.random.default_rng(17)
    for k in range(30):
        n, p = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        atoms = [log_spread_pd(rng, n, -3.0, 3.0, cplx=bool(k % 2)) for _ in range(p)]
        w = rng.dirichlet(np.ones(p))
        x = power_mean(w, atoms, t).entries
        fixed = sum(wi * _geomean_pair(x, a, t) for wi, a in zip(w, atoms))
        assert np.linalg.norm(x - fixed, "fro") <= 1e-10 * np.linalg.norm(x, "fro")


# ---------------------------------------------------------------------------
# exactly rounded sums: math.fsum is the oracle
# ---------------------------------------------------------------------------

BIG = np.finfo(float).max
SPECIAL_SUMMANDS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                    2.0 ** 53, 2.0 ** -53, 2.0 ** 1020, BIG, -BIG, 0.5 * BIG]


def fsum_columns(x):
    """Column sums by math.fsum, or the type of the first exception it raises."""
    try:
        return np.array([math.fsum(col) for col in x.T.tolist()]), None
    except (OverflowError, ValueError) as exc:
        return None, type(exc)


@st.composite
def summand_columns(draw):
    """(p, N) summands: dyadic values a few binades apart (ties and exact
    cancellation), spreads up to 10^+-300, subnormals, values near overflow,
    negated copies of whole rows, and a few infinities and NaNs."""
    p, cols = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    lo = draw(st.integers(-1130, 960))
    dyadic = st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(lo, lo + 10))
    elements = st.one_of(dyadic, st.floats(-4.0, 4.0), st.sampled_from(SPECIAL_SUMMANDS),
                         st.floats(allow_nan=False, allow_infinity=False))
    x = draw(hnp.arrays(np.float64, (p, cols), elements=elements))
    if draw(st.booleans()):
        x = np.concatenate([x, -x[::-1]])
    for row, col, v in draw(st.lists(st.tuples(st.integers(0, x.shape[0] - 1),
                                               st.integers(0, cols - 1),
                                               st.sampled_from([np.inf, -np.inf, np.nan])),
                                     max_size=2)):
        x[row, col] = v
    return x


@st.composite
def near_midpoints(draw):
    """64 columns r0 + ulp(r0)/2 + tail, in shuffled order: exact sums next to
    a rounding midpoint, on a side decided by 4 to 12 tail terms.  Tails of
    full-width terms about 2^-(30..90) ulp(r0) are where the float sum of the
    TwoSum errors rounds by the largest share of its bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, lo = draw(st.integers(4, 12)), draw(st.integers(30, 70))
    hi = lo + draw(st.integers(0, 20))
    r0 = rng.uniform(1.0, 2.0, 64) * 2.0 ** rng.integers(-60, 60, 64)
    half = np.spacing(r0) / 2
    mantissa = rng.integers(1, 2**53, (k, 64)).astype(float)
    tail = (rng.choice([-1.0, 1.0], (k, 64)) * mantissa
            * half * 2.0 ** -rng.integers(lo + 53, hi + 54, (k, 64)))
    return np.vstack([r0, half, tail])[rng.permutation(k + 2)]


def assert_sums_like_fsum(x):
    want, exc = fsum_columns(x)
    if exc is not None:
        with pytest.raises(exc) as info:
            _exact_column_sums(x)
        assert info.type is exc
    else:
        assert _exact_column_sums(x).tobytes() == want.tobytes()


@settings(settings.get_profile("loewner"), max_examples=300)
@given(summand_columns())
@example(np.array([[0.5 * BIG], [0.5 * BIG], [0.6 * BIG], [-0.6 * BIG]]))  # fsum overflows
@example(np.array([[1.0, np.inf], [np.nan, 2.0], [3.0, -np.inf]]))  # inf + -inf
# just past a midpoint by a tail the error sum drops; all -0.0 sums to +0.0
@example(np.array([[1.5, -0.0], [2.0 ** -53, -0.0], [2.0 ** -200, -0.0], [-2.0 ** -201, -0.0]]))
def test_vectorised_sum_is_fsum(x):
    assert_sums_like_fsum(x)


@settings(settings.get_profile("loewner"), max_examples=200)
@given(near_midpoints())
def test_vectorised_sum_is_fsum_next_to_midpoints(x):
    assert_sums_like_fsum(x)


@settings(settings.get_profile("loewner"), max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 12),
       st.integers(0, 600), st.sampled_from(["real", "complex", "cancel", "special"]))
def test_weighted_matrix_sum_is_fsum_on_both_sides_of_the_cut(seed, p, n, spread, kind):
    rng = np.random.default_rng(seed)
    shape = (p, n, n)
    stack = rng.standard_normal(shape) * 2.0 ** rng.integers(-spread // 2, spread // 2 + 1, shape)
    if kind == "complex":
        stack = stack + 1j * rng.standard_normal(shape)
    elif kind == "cancel":
        stack[p // 2:] = -stack[:p - p // 2][::-1]
    elif kind == "special":
        stack.flat[rng.integers(0, stack.size, 4)] = rng.choice(SPECIAL_SUMMANDS, 4)
    # equal weights keep the negated rows cancelling exactly
    w = np.full(p, 1.0 / p) if kind == "cancel" else rng.dirichlet(np.ones(p))
    terms = w[:, None, None] * stack
    parts = [terms.real, terms.imag] if kind == "complex" else [terms]
    sums = [fsum_columns(part.reshape(p, -1)) for part in parts]
    if any(exc is not None for _, exc in sums):
        exc = next(exc for _, exc in sums if exc is not None)
        with pytest.raises(exc):
            _weighted_matrix_sum(w, stack)
        return
    got = _weighted_matrix_sum(w, stack)
    assert got.dtype == stack.dtype
    if p == 1:
        assert got.tobytes() == terms[0].tobytes()
        return
    got_parts = [got.real, got.imag] if kind == "complex" else [got]
    for (want, _), part in zip(sums, got_parts):
        assert np.ascontiguousarray(part).reshape(-1).tobytes() == want.tobytes()


def test_sum_property_draws_reach_both_sides_of_the_cut():
    # (p + 8) * N for the smallest and the largest real draw above
    assert (2 + 8) * 1 < _VECTOR_SUM_MIN <= (40 + 8) * 12 * 12


def lambda_max_pick(mu):
    """Top-eigenvector projector weighted by lambda_max: order violating."""
    out = np.zeros((mu.n, mu.n))
    for w, a in zip(mu.weights, mu.atoms):
        lam, u = np.linalg.eigh(a.entries)
        out += w * lam[-1] * np.outer(u[:, -1], u[:, -1])
    return out + 0.05 * np.eye(mu.n)


def stochastic_reference_report(spec, cfg):
    """`check_stochastic_monotone` run one whole trial at a time, with the
    trial body of the suite before its trials were drawn and built in blocks."""
    mean_fn = spec if callable(spec) else (lambda m: mean_of_measure(spec, m))
    bump_scale = 0.25 * (_SPECTRUM[1] - _SPECTRUM[0])

    def random_psd_bump(n, scale, rng):
        q = random_isometry(n, n, rng).entries
        lam = rng.uniform(0.0, scale, n)
        return q @ np.diag(lam) @ q.T

    def trial(rng, dim, trial_index):
        size = int(rng.integers(2, 5))
        atoms = [random_pd(dim, _SPECTRUM, rng) for _ in range(size)]
        w = rng.dirichlet(np.ones(size))
        mu = DiscreteMeasure(tuple(atoms), w)
        lifted = [a.entries + random_psd_bump(dim, bump_scale, rng) for a in atoms]
        order = rng.permutation(size) if rng.random() < 0.5 else np.arange(size)
        nu = DiscreteMeasure(tuple(lifted[i] for i in order), w[order])
        ok, _ = stochastic_leq(mu, nu)
        if not ok:
            raise _Skip
        m1 = np.asarray(mean_fn(mu))
        m2 = np.asarray(mean_fn(nu))
        scale = max(operator_norm(m1), operator_norm(m2))
        return _min_eig_scaled(m2 - m1, scale)

    def outcomes():
        for dim in cfg.dims:
            for t in range(cfg.trials):
                ts = cfg.seed * 1_000_000 + dim * 10_000 + t
                try:
                    yield ts, trial(np.random.default_rng(ts), dim, t)
                except _Skip as exc:
                    yield ts, exc

    return _tally("stochastic-monotone", cfg, outcomes())


def raising_mean(k):
    """The arithmetic mean, which raises on its k-th call an error naming
    the measure it was called on."""
    calls = []

    def mean(mu):
        calls.append(mu)
        if len(calls) == k:
            raise RuntimeError(f"call {k}: {mu.size} atoms, weights {mu.weights.tolist()}")
        return mean_of_measure("arithmetic", mu)

    return mean


class TestStochasticMonotoneSuite:
    def test_arithmetic_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=20, seed=30, tol=1e-10)
        assert check_stochastic_monotone("arithmetic", cfg).passed

    def test_power_half_passes(self):
        cfg = SuiteConfig(dims=(3,), trials=25, seed=31, tol=1e-8)
        assert check_stochastic_monotone("power:0.5", cfg).passed

    def test_negative_control_detected(self):
        cfg = SuiteConfig(dims=(3,), trials=60, seed=32, tol=1e-8)
        report = check_stochastic_monotone(lambda_max_pick, cfg)
        assert not report.passed


class TestStochasticMonotoneMatchesPerTrialReference:
    """The suite draws each trial from its own generator and builds a block's
    atoms and increments in stacked calls; its reports and errors equal
    those of the per-trial reference at every block size."""

    CFG = SuiteConfig(dims=(1, 2, 3), trials=7, seed=5, tol=1e-8)

    @pytest.mark.parametrize("block", [2, 3, 64])
    @pytest.mark.parametrize("spec", ["arithmetic", "power:0.5", lambda_max_pick])
    def test_report_equals_reference(self, monkeypatch, spec, block):
        want = stochastic_reference_report(spec, self.CFG)
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        assert check_stochastic_monotone(spec, self.CFG) == want

    def test_negative_control_fails_some_trials(self):
        report = stochastic_reference_report(lambda_max_pick, self.CFG)
        assert 0 < report.failures < self.CFG.trials * len(self.CFG.dims)

    @pytest.mark.parametrize("block", [2, 3, 64])
    @pytest.mark.parametrize("k", [1, 2, 9, 30])
    def test_mean_error_equals_reference(self, monkeypatch, k, block):
        """A mean that raises on its k-th call raises the error of the same
        call, on the same measure, as the reference."""
        with pytest.raises(RuntimeError) as want:
            stochastic_reference_report(raising_mean(k), self.CFG)
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(want.value))}$"):
            check_stochastic_monotone(raising_mean(k), self.CFG)


class TestNonFiniteMean:
    """A mean with a non-finite entry is an error where it enters, in both
    measure suites (NaN compares False with every bound, so it passed the
    tolerance unseen, and inf gave a NaN norm)."""

    CFG = SuiteConfig(dims=(2, 3), trials=4, seed=5)

    @staticmethod
    def spoiled(value, at, when=lambda mu: True):
        def mean(mu):
            out = mean_of_measure("arithmetic", mu).entries.copy()
            if when(mu):
                out[at] = value
            return out
        return mean

    @pytest.mark.parametrize("value, at", [(math.inf, (0, 0)), (math.nan, (0, 1))])
    def test_stochastic_monotone(self, value, at):
        with pytest.raises(ValueError, match="^mean has a non-finite entry$"):
            check_stochastic_monotone(self.spoiled(value, at), self.CFG)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_directsum_coupling_on_the_joint_measure(self, value):
        mu, nu = TestDirectSumCoupling._pair()
        mean = self.spoiled(value, (0, 0), when=lambda m: m.n == mu.n + nu.n)
        with pytest.raises(ValueError, match="^mean has a non-finite entry$"):
            check_directsum_coupling(mean, mu, nu, couplings_sample(mu, nu, 3, seed=1))

    def test_spec_is_parsed_once_before_any_trial(self, monkeypatch):
        calls = []

        def parse(text):
            calls.append(text)
            return parse_mean_spec(text)

        monkeypatch.setattr(measures, "parse_mean_spec", parse)
        check_stochastic_monotone("harmonic", self.CFG)
        mu, nu = TestDirectSumCoupling._pair()
        check_directsum_coupling("harmonic", mu, nu, couplings_sample(mu, nu, 3, seed=1))
        assert calls == ["harmonic", "harmonic"]


class TestDirectSumCoupling:
    def test_product_coupling_of_diracs(self):
        mu = DiscreteMeasure.dirac(2 * np.eye(2))
        nu = DiscreteMeasure.dirac(3 * np.eye(3))
        report = check_directsum_coupling("arithmetic", mu, nu,
                                          couplings_sample(mu, nu, 1))
        assert report.passed and report.worst_violation >= -1e-14

    def test_power_mean_over_product_and_sampled(self):
        rng = np.random.default_rng(33)
        mu = uniform_measure([random_pd(2, (0.5, 2), rng) for _ in range(2)])
        nu = uniform_measure([random_pd(3, (0.5, 2), rng) for _ in range(2)])
        report = check_directsum_coupling("power:0.5", mu, nu,
                                          couplings_sample(mu, nu, 6, seed=1))
        assert report.passed

    def test_harmonic_over_random_couplings(self):
        rng = np.random.default_rng(34)
        mu = DiscreteMeasure(tuple(random_pd(2, (0.5, 2), rng) for _ in range(3)),
                             np.array([0.2, 0.3, 0.5]))
        nu = uniform_measure([random_pd(2, (0.5, 2), rng) for _ in range(2)])
        report = check_directsum_coupling("harmonic", mu, nu,
                                          couplings_sample(mu, nu, 8, seed=2))
        # every trial within 1e-10, not only within the suite tolerance 1e-8
        assert report.passed and report.worst_violation >= -1e-10

    @staticmethod
    def _pair():
        rng = np.random.default_rng(5)
        mu = uniform_measure([random_pd(2, (0.5, 2), rng) for _ in range(2)])
        nu = uniform_measure([random_pd(2, (0.5, 2), rng) for _ in range(2)])
        return mu, nu

    def test_negative_control_labels_failures_by_coupling(self):
        mu, nu = self._pair()
        couplings = couplings_sample(mu, nu, 5, seed=1)

        def first_atom(m):  # not a mean: ignores the weights
            return m.atoms[0].entries

        report = check_directsum_coupling(first_atom, mu, nu, couplings)
        # the induced measure's first atom is A_0 (+) B_0 iff gamma charges cell (0, 0)
        failing = [i for i, c in enumerate(couplings) if c.gamma[0, 0] <= 1e-14]
        assert not report.passed and report.failures == len(failing) == 2
        assert report.first_failure_seed == failing[0]
        assert report.trials == 5 and report.dims == (4,) and report.seed == 0

    def test_rejects_empty_couplings(self):
        mu, nu = self._pair()
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check_directsum_coupling("arithmetic", mu, nu, [])


class TestPinnedDigests:
    """Outputs pinned byte for byte to the one-pair-at-a-time relation, the
    dense-matrix max-flow and the one-atom-at-a-time power mean they replaced.

    Recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; another LAPACK
    build may round differently and needs its own digests.
    """

    @pytest.mark.parametrize("p, kind, ok, digest", [
        (100, "ordered", True,
         "5e86964d9f5ec849529e104a61471d60eec845fe2d27cd60ec48cc14942b0eb1"),
        (100, "independent", False,
         "b027e90c7b4662435c64e1c6370d1dac5a412e7b1b1fecdd48c064c209ba44fa"),
        (20, "ordered", True,
         "da5c596f63a2f37f840c6a79737f14d3f78f1362ef284650e220f3d63d3a57b9"),
        (20, "independent", False,
         "195502f2ba9697777c7d09c4a8463492f5aac20f825942537554a477ac675a60"),
        (100, "dominated", True,
         "ad2f19a908701df462c0282ea5f31eba5604360e9b5041d6cc1245ac9c4f9982"),
        (20, "dominated", True,
         "bba4884529bd3cbcb53e026ec1020b4806249c70991e6fee6a1f709685de119c"),
    ])
    def test_stochastic_leq(self, p, kind, ok, digest):
        got_ok, witness = stochastic_leq(*seeded_pair(1000 + p, p, kind))
        assert got_ok == ok
        if ok:
            payload = witness.gamma.tobytes()
        else:
            payload = repr((witness.mu_indices, witness.nu_indices,
                            witness.mu_mass.hex(), witness.nu_mass.hex())).encode()
        assert hashlib.sha256(payload).hexdigest() == digest

    # The two power-mean digests were re-pinned when power_mean moved from the
    # plain iteration to Anderson mixing stopped on its residual.
    def test_power_mean_real(self):
        rng = np.random.default_rng(77)
        atoms = [random_pd(32, (0.1, 10.0), rng) for _ in range(10)]
        w = rng.dirichlet(np.ones(10))
        out = power_mean(w, atoms, 0.5).entries
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "bd2fcbf8a0ec44dfcb2b729c12e3db439925d37e378dfb66ca19c1dc00fccfe8")

    def test_power_mean_complex_hermitian(self):
        w = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        out = power_mean(w, complex_atoms(78, 5, 6), 0.3).entries
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "9ced2d429ebe7690c11be79500f9157d04c07c2bb888e439a0d79167b20834cf")

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stacked_geomean_equals_per_atom(self, cplx):
        atoms = (complex_atoms(79, 6, 5) if cplx
                 else [random_pd(5, (1e-3, 1e3), s).entries for s in range(6)])
        x = atoms[0] + atoms[1]
        stacked = _geomean_pair(x, np.stack(atoms), 0.37)
        for a, got in zip(atoms, stacked):
            assert got.tobytes() == _geomean_pair(x, a, 0.37).tobytes()


def log_spread_pd(rng, n, lo_exp, hi_exp, cplx=False):
    g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0)
    q, _ = np.linalg.qr(g)
    return (q * 10.0 ** rng.uniform(lo_exp, hi_exp, n)) @ q.conj().T


class TestBatchedRelation:
    """The batched Loewner relation equals the pairwise `loewner_leq` relation."""

    def test_spectra_over_1e_minus8_to_1e8(self):
        rng = np.random.default_rng(40)
        atoms = [log_spread_pd(rng, 4, -8, 8) for _ in range(12)]
        mu = uniform_measure(atoms[:6])
        nu = uniform_measure(atoms[6:] + [a + log_spread_pd(rng, 4, -8, 0) for a in atoms[:6]])
        rel = _order_relation(mu, nu, 1e-9)
        assert rel.any()
        assert np.array_equal(rel, pairwise_relation(mu, nu))

    @pytest.mark.parametrize("cplx", [False, True])
    def test_tolerance_boundary(self, cplx):
        rng = np.random.default_rng(41)
        base = [log_spread_pd(rng, 5, -1, 2, cplx) for _ in range(4)]
        mu = uniform_measure(base)
        shrunk = [a * (1 - 1e-9 * (1 + s * 1e-6)) for a in base for s in (-1, 1)]
        nu = uniform_measure(shrunk)
        rel = _order_relation(mu, nu, 1e-9)
        assert np.array_equal(rel, pairwise_relation(mu, nu))
        # just inside the tolerance on one side, just outside on the other
        assert [bool(rel[k, 2 * k]) for k in range(4)] == [True] * 4
        assert [bool(rel[k, 2 * k + 1]) for k in range(4)] == [False] * 4

    def test_mixed_real_and_complex_atoms(self):
        rng = np.random.default_rng(42)
        atoms = [log_spread_pd(rng, 3, -2, 2, cplx=k % 2 == 1) for k in range(8)]
        shrunk = [a * (1 - 1e-9 * (1 + s * 1e-6)) for a in atoms[:4] for s in (-1, 1)]
        mu = uniform_measure(atoms[:5])
        nu = uniform_measure(atoms[3:] + shrunk + [a + np.eye(3) for a in atoms[:4]])
        rel = _order_relation(mu, nu, 1e-9)
        assert rel.any() and not rel.all()
        assert np.array_equal(rel, pairwise_relation(mu, nu))
        assert np.array_equal(_order_relation(nu, mu, 1e-9), pairwise_relation(nu, mu))

    def test_real_pair_beside_complex_atoms(self):
        # lambda_min(B - A) of this real pair differs between the real and the
        # complex LAPACK routine, and tol puts the threshold between the two:
        # the relation must diagonalize the real difference as a real matrix
        rng = np.random.default_rng(44)
        for _ in range(100):
            a = random_pd(4, (0.5, 2.0), rng).entries
            g = rng.standard_normal((4, 4))
            b = a + 1e-3 * (g + g.T)
            lam_r = np.linalg.eigvalsh(b - a)[0]
            lam_c = np.linalg.eigvalsh((b - a).astype(complex))[0]
            ends = np.abs([np.linalg.eigvalsh(m)[[0, -1]] for m in (a, b)])
            scale = max(1.0, float(ends.max()))
            tol = -float(lam_r + lam_c) / 2.0 / scale
            if tol > 0 and (lam_r >= -tol * scale) != (lam_c >= -tol * scale):
                break
        else:
            pytest.fail("no real pair separates the two LAPACK routines")
        mu = uniform_measure([a] + complex_atoms(45, 2, 4))
        nu = uniform_measure([b] + complex_atoms(46, 2, 4))
        rel = _order_relation(mu, nu, tol)
        assert rel[0, 0] == (lam_r >= -tol * scale)
        assert np.array_equal(rel, pairwise_relation(mu, nu, tol))

    @pytest.mark.parametrize("p, q", [(1, 7), (7, 1), (3, 5), (5, 3), (1, 1)])
    def test_unequal_shapes(self, p, q):
        rng = np.random.default_rng(43 + 10 * p + q)
        mu = uniform_measure([random_pd(3, (0.5, 2), rng) for _ in range(p)])
        nu = uniform_measure([random_pd(3, (1.5, 4), rng) for _ in range(q)])
        rel = _order_relation(mu, nu, 1e-9)
        assert rel.shape == (p, q)
        assert np.array_equal(rel, pairwise_relation(mu, nu))

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
    @pytest.mark.parametrize("kind", ["ordered", "independent"])
    def test_atoms_at_the_top_of_the_float_range(self, scale, kind):
        mu, nu = seeded_pair(46, 12, kind)
        cplx = [scale * a for a in complex_atoms(47, 3, 4)]
        mu = uniform_measure([scale * a.entries for a in mu.atoms] + cplx[:1])
        nu = uniform_measure([scale * b.entries for b in nu.atoms] + cplx[1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel = _order_relation(mu, nu, 1e-9)
        assert rel.any() and not rel.all()
        assert np.array_equal(rel, pairwise_relation(mu, nu))

    def test_certificate_keeps_its_rounding_margins(self):
        eps = np.finfo(float).eps
        # u = thr - err = -1.5: 8 ulps below it a diagonal entry is still
        # within 4 eps (|p| + |u|) of u, 16 ulps below it is decided
        d = np.array([[[-1.5 - 8 * eps]], [[-1.5 - 16 * eps]]])
        got = measures._rejected(d, np.full(2, -1.0), np.full(2, 0.5))
        assert got.tolist() == [False, True]
        # u = 0, p = s = 1: decided once |r|^2 exceeds (1 + 4 eps)^2 by 2^-48
        d = np.array([[[1.0, r], [r, 1.0]] for r in (1 + 6 * eps, 1 + 64 * eps)])
        assert measures._rejected(d, np.zeros(2), np.zeros(2)).tolist() == [False, True]

    @pytest.mark.parametrize("p, s, r, rejected", [
        (1e150, 1e150, 2e150, True),    # p's' and |r|^2 finite: lambda_min < 0 decided
        (1e160, 1e160, 2e160, False),   # both overflow
        (1.0, 1.0, 1e200, False),       # |r|^2 alone overflows
        (1e200, 1e200, 1e150, False),   # p's' alone overflows; the minor is PD
    ])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_overflow_defers_the_minor(self, p, s, r, rejected, dtype):
        d = np.array([[[p, r], [r, s]]], dtype=dtype)
        if dtype is complex:
            d[0, 1, 0] *= 1j
            d[0, 0, 1] *= -1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = measures._rejected(d, np.array([-1e-9]), np.array([1e-20]))
        assert got.tolist() == [rejected]


def boundary_pair(rng, n, lo, hi, kind, minor, isolated, at_margin, ulps, c_exp):
    """(A, B) with B - A = target w w* + c (I - w w*) up to rounding.

    w = e_k puts ``target`` on the diagonal of B - A, the smallest entry; a
    unit w in the span of e_k and e_l (``minor``) makes it the smaller
    eigenvalue of the (k, l) principal 2 x 2 block, above the diagonal.
    ``target`` is the relation threshold t or, with ``at_margin``, the point
    u - 8 eps |u| (u = t less the certificate's error term) where the
    certificate's bound on a diagonal entry crosses 0; it is then moved by
    ``ulps`` ulps.  ``isolated`` decouples A's block from the rest, sets it to
    4 |t| I and c to 2^c_exp |t|, so that B - A is formed within a few ulps
    of target; otherwise k holds A's largest diagonal entry, w is the top
    eigenvector of A's block and c = 2 tr A, which keeps B PD.  A's spectrum
    lies in 10^[lo, hi].  A and B are complex for ``kind`` "complex"; for
    "mixed" A is real and B complex.
    """
    a0 = log_spread_pd(rng, n, lo, hi, kind == "complex")
    k = int(np.argmax(np.diagonal(a0).real))
    block = [k, (k + 1 + int(rng.integers(n - 1))) % n] if minor else [k]
    w = np.zeros(n, dtype=complex if kind != "real" else float)
    if not isolated:
        w[block] = np.linalg.eigh(a0[np.ix_(block, block)])[1][:, -1]
    elif minor:
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, 2)
        w[block] = [np.cos(theta), np.sin(theta) * (np.exp(1j * phi) if kind != "real" else 1)]
    else:
        w[k] = 1.0
    ww = np.outer(w, w.conj())
    t = -ORDER_TOL * max(1.0, np.linalg.eigvalsh(a0)[-1])
    b = a0
    for _ in range(3):  # t depends on B, which depends on t
        a = a0.copy()
        if isolated:
            a[block, :] = a[:, block] = 0.0
            a[np.ix_(block, block)] = 4.0 * abs(t) * np.eye(len(block))
        c = 2.0 ** c_exp * abs(t) if isolated else 2.0 * np.trace(a0).real
        target = t
        if at_margin:
            u = t - (measures._eig_error(a[None]) + measures._eig_error(b[None]))[0]
            target = u - 8.0 * np.finfo(float).eps * abs(u)
        target += ulps * np.spacing(target)
        b = SymMatrix(a + target * ww + c * (np.eye(n) - ww)).entries
        t = -ORDER_TOL * max(1.0, *(np.linalg.eigvalsh(m)[-1] for m in (a, b)))
    return a, b


@st.composite
def certificate_boundary_pairs(draw):
    """mu and nu of two atoms each, the first pair from `boundary_pair`; the
    second atoms are random PD, of the other dtype for "mixed"."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["real", "complex", "mixed"]))
    lo = draw(st.floats(-8.0, 8.0))
    hi = draw(st.floats(lo, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = boundary_pair(rng, n, lo, hi, kind, minor=n > 1 and draw(st.booleans()),
                         isolated=draw(st.booleans()), at_margin=draw(st.booleans()),
                         ulps=draw(st.integers(-4, 4)), c_exp=draw(st.integers(0, 4)))
    others = [log_spread_pd(rng, n, lo, hi, cplx) for cplx in
              ((kind == "mixed") != np.iscomplexobj(m) for m in (a, b))]
    return uniform_measure([a, others[0]]), uniform_measure([b, others[1]])


@settings(settings.get_profile("loewner"), max_examples=400)
@given(certificate_boundary_pairs())
def test_relation_at_the_certificate_boundary(pair):
    mu, nu = pair
    assert np.array_equal(_order_relation(mu, nu, ORDER_TOL), pairwise_relation(mu, nu))


@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
@pytest.mark.parametrize("minor", [False, True])
def test_boundary_pairs_sit_on_both_sides_of_the_threshold(kind, minor):
    # on the threshold the relation goes both ways and the certificate defers;
    # at the edge of the certificate the relation is False, decided or not
    rng = np.random.default_rng(48)
    seen = set()
    for draw in range(40):
        isolated, at_margin = draw % 2 == 1, draw % 4 >= 2
        a, b = boundary_pair(rng, 4, -8.0, 8.0, kind, minor, isolated, at_margin,
                             ulps=int(rng.integers(-4, 5)), c_exp=2)
        leq = loewner_leq(a, b, ORDER_TOL)
        rejected = certificate_rejects(a, b)
        assert not (leq and rejected)
        seen.add((at_margin, leq, rejected))
    assert {(False, True, False), (False, False, False), (True, False, True),
            (True, False, False)} <= seen


class TestLargeInstances:
    """100 x 100 pairs and one 400 x 400 pair, checked against the pairwise
    relation."""

    def test_coupling_marginals_and_support(self):
        mu, nu = seeded_pair(2024, 100, "ordered")
        ok, coupling = stochastic_leq(mu, nu)
        assert ok
        gamma = coupling.gamma
        assert np.abs(gamma.sum(axis=1) - mu.weights).max() <= 1e-10
        assert np.abs(gamma.sum(axis=0) - nu.weights).max() <= 1e-10
        for i, j in zip(*np.nonzero(gamma)):
            assert loewner_leq(mu.atoms[i], nu.atoms[j], 1e-9)

    def test_min_cut_certificate(self):
        mu, nu = seeded_pair(2025, 100, "independent")
        ok, cert = stochastic_leq(mu, nu)
        assert not ok
        assert cert.mu_mass > cert.nu_mass
        assert cert.mu_mass == pytest.approx(mu.weights[list(cert.mu_indices)].sum(), abs=1e-12)
        assert cert.nu_mass == pytest.approx(nu.weights[list(cert.nu_indices)].sum(), abs=1e-12)
        above = {j for i in cert.mu_indices for j in range(nu.size)
                 if loewner_leq(mu.atoms[i], nu.atoms[j], 1e-9)}
        assert above <= set(cert.nu_indices)

    def test_dominated_400_atom_coupling(self):
        # the coupling depends on the augmenting-path order; the digest was
        # recorded from the max-flow with one BFS per augmentation
        mu, nu = seeded_pair(2031, 400, "dominated")
        a, b = (np.stack([x.entries for x in m.atoms]) for m in (mu, nu))
        ext_a, ext_b = (np.abs(np.linalg.eigvalsh(x)[:, [0, -1]]).max(axis=1) for x in (a, b))
        related = np.empty((mu.size, nu.size), dtype=bool)
        for i in range(mu.size):  # the pairwise `loewner_leq` rule, one stacked eigvalsh a row
            scale = np.maximum(1.0, np.maximum(ext_a[i], ext_b))
            related[i] = np.linalg.eigvalsh(b - a[i])[:, 0] >= -1e-9 * scale
        assert np.array_equal(_order_relation(mu, nu, 1e-9), related)
        ok, coupling = stochastic_leq(mu, nu)
        assert ok
        gamma = coupling.gamma
        assert hashlib.sha256(gamma.tobytes()).hexdigest() == (
            "34bf13e8df1f3768387e9a01b1ed5adb355b1ab4a76ab799acdf9cd58755ef0a")
        assert np.abs(gamma.sum(axis=1) - mu.weights).max() <= 1e-10
        assert np.abs(gamma.sum(axis=0) - nu.weights).max() <= 1e-10
        assert (gamma >= 0.0).all() and not (gamma[~related] != 0.0).any()

    @pytest.mark.parametrize("kind", ["ordered", "independent"])
    def test_no_dense_network_matrix(self, kind):
        # a dense (p+q+2)^2 longdouble capacity matrix alone would exceed the bound
        p = 200
        mu, nu = seeded_pair(2026, p, kind)
        tracemalloc.start()
        try:
            stochastic_leq(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * p + 2) ** 2 * np.dtype(np.longdouble).itemsize
