"""Tests for measures, stochastic order, couplings and operator means."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from loewner import (
    Coupling,
    DiscreteMeasure,
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
    random_pd,
    stochastic_leq,
)
from loewner.measures import (
    _geomean_pair,
    _order_relation,
    parse_mean_spec,
    pushforward_weights,
)
from loewner.numlin import operator_norm


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


def pairwise_relation(mu, nu, tol=1e-9):
    return np.array([[loewner_leq(a, b, tol) for b in nu.atoms] for a in mu.atoms])


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure((np.eye(2),), np.array([0.9]))

    def test_atoms_must_be_pd(self):
        with pytest.raises(ValueError, match="not PD"):
            DiscreteMeasure((np.diag([1.0, 0.0]),), np.array([1.0]))

    def test_deduplication(self):
        a = random_pd(2, (1, 2), 0)
        mu = DiscreteMeasure((a, a.entries.copy(), 2 * np.eye(2)),
                             np.array([0.25, 0.25, 0.5]))
        dd = mu.deduplicated()
        assert dd.size == 2
        np.testing.assert_allclose(sorted(dd.weights), [0.5, 0.5])


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

    def test_brute_force_pool_size_limit(self):
        atoms = [(1.0 + i) * np.eye(2) for i in range(11)]
        mu = uniform_measure(atoms)
        nu = uniform_measure([a + np.eye(2) for a in atoms])
        with pytest.raises(ValueError, match="exceeds 20"):
            brute_force_stochastic_leq(mu, nu)


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

    def test_rejects_bad_exponent(self):
        a = random_pd(2, (1, 2), 0)
        with pytest.raises(ValueError):
            power_mean([1.0], (a,), 1.5)


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


class TestStochasticMonotoneSuite:
    def test_arithmetic_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=20, seed=30, tol=1e-10)
        assert check_stochastic_monotone("arithmetic", cfg).passed

    def test_power_half_passes(self):
        cfg = SuiteConfig(dims=(3,), trials=25, seed=31, tol=1e-8)
        assert check_stochastic_monotone("power:0.5", cfg).passed

    def test_negative_control_detected(self):
        # top-eigenvector projector weighted by lambda_max: order violating
        def lambda_max_pick(mu):
            out = np.zeros((mu.n, mu.n))
            for w, a in zip(mu.weights, mu.atoms):
                lam, u = np.linalg.eigh(a.entries)
                out += w * lam[-1] * np.outer(u[:, -1], u[:, -1])
            return out + 0.05 * np.eye(mu.n)

        cfg = SuiteConfig(dims=(3,), trials=60, seed=32, tol=1e-8)
        report = check_stochastic_monotone(lambda_max_pick, cfg)
        assert not report.passed


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
                                          couplings_sample(mu, nu, 6, seed=1),
                                          tol=1e-8)
        assert report.passed

    def test_harmonic_over_random_couplings(self):
        rng = np.random.default_rng(34)
        mu = DiscreteMeasure(tuple(random_pd(2, (0.5, 2), rng) for _ in range(3)),
                             np.array([0.2, 0.3, 0.5]))
        nu = uniform_measure([random_pd(2, (0.5, 2), rng) for _ in range(2)])
        report = check_directsum_coupling("harmonic", mu, nu,
                                          couplings_sample(mu, nu, 8, seed=2),
                                          tol=1e-10)
        assert report.passed

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

    @pytest.mark.parametrize("tol", [0.0, -1e-8])
    def test_rejects_nonpositive_tol(self, tol):
        mu, nu = self._pair()
        with pytest.raises(ValueError, match="tol must be positive"):
            check_directsum_coupling("arithmetic", mu, nu, couplings_sample(mu, nu, 1), tol=tol)


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

    def test_power_mean_real(self):
        rng = np.random.default_rng(77)
        atoms = [random_pd(32, (0.1, 10.0), rng) for _ in range(10)]
        w = rng.dirichlet(np.ones(10))
        out = power_mean(w, atoms, 0.5).entries
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "719b35ed084128e4b73ca18c9f4d42a41ec5c553aa65b3467fa2492385a8eba7")

    def test_power_mean_complex_hermitian(self):
        w = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        out = power_mean(w, complex_atoms(78, 5, 6), 0.3).entries
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "3e543561c2e1458762bf23724442b1a9f37d08e9388a0fd4d032bc4d50c898cf")

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


class TestLargeInstances:
    """100 x 100 pairs, checked against the pairwise relation."""

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
