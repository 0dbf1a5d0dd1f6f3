"""Tests for the randomized property suites."""

import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import complex_gram_realization
from loewner import (
    MatrixTuple,
    PencilRealization,
    SingularPivotComplement,
    SuiteConfig,
    build_realization,
    cauchy_atom,
    check_concave,
    check_free_axioms,
    check_herglotz,
    check_hypograph_saturation,
    check_jensen_isometry,
    check_monotone,
    check_monotone_scalar,
    comat_decompose,
    eval_complex,
    random_commuting_tuple,
    random_pd,
    reconstruct_hull_certificate,
    weighted_arithmetic,
    weighted_harmonic,
)
from loewner import PencilDomainError, apply_scalar_function, eval_pencil, make_dominated_pair
from loewner.cli import _scalar_from_realization
from loewner.numlin import (
    operator_norm,
    random_contraction,
    random_isometry,
    tuple_compress,
    tuple_direct_sum,
)
from loewner import pencil, verify
from loewner.verify import (_SPECTRUM, _Fail, _Skip, _disjoint_support_isometry,
                            _min_eig_scaled, _tally)


IDENTITY = build_realization("identity")
HARMONIC = weighted_harmonic([0.4, 0.6])
CAUCHY = cauchy_atom(1.0)


class TestFreeAxioms:
    def test_identity_realization_tight(self):
        cfg = SuiteConfig(dims=(2, 3), trials=20, seed=1, tol=1e-12)
        report = check_free_axioms(IDENTITY, cfg)
        assert report.passed and report.failures == 0

    def test_harmonic_realization(self):
        cfg = SuiteConfig(dims=(2, 4), trials=20, seed=2, tol=1e-10)
        report = check_free_axioms(HARMONIC, cfg)
        assert report.passed

    def test_report_shape(self):
        cfg = SuiteConfig(dims=(2,), trials=5, seed=3, tol=1e-10)
        report = check_free_axioms(CAUCHY, cfg)
        assert report.suite == "axioms"
        assert report.trials == 5 and report.dims == (2,)
        assert report.worst_violation <= 0.0


class TestMonotone:
    def test_arithmetic_mean_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=4, tol=1e-10)
        assert check_monotone(weighted_arithmetic([0.5, 0.5]), cfg).passed

    def test_cauchy_atom_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=5, tol=1e-8)
        assert check_monotone(CAUCHY, cfg).passed

    def test_square_negative_control_fails(self):
        cfg = SuiteConfig(dims=(2, 3), trials=100, seed=6, tol=1e-8)
        report = check_monotone_scalar(lambda x: x ** 2, cfg)
        assert not report.passed
        assert report.failures > 0
        assert report.worst_violation < -1e-3
        assert report.first_failure_seed is not None

    def test_sqrt_scalar_passes(self):
        cfg = SuiteConfig(dims=(2, 3), trials=50, seed=7, tol=1e-8)
        assert check_monotone_scalar(np.sqrt, cfg).passed


class TestConcaveJensen:
    def test_harmonic_concave(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=8, tol=1e-8)
        assert check_concave(HARMONIC, cfg).passed

    def test_harmonic_jensen(self):
        cfg = SuiteConfig(dims=(3, 5), trials=30, seed=9, tol=1e-8)
        assert check_jensen_isometry(HARMONIC, cfg).passed

    def test_cauchy_jensen(self):
        cfg = SuiteConfig(dims=(4,), trials=30, seed=10, tol=1e-8)
        assert check_jensen_isometry(CAUCHY, cfg).passed

    def test_averaging_block_isometry_reduces_to_midpoint_concavity(self):
        # W = (sqrt(1/2) I, sqrt(1/2) I)^T compresses X (+) Y to the midpoint
        from loewner import eval_pencil
        from loewner.numlin import tuple_compress, tuple_direct_sum
        rng = np.random.default_rng(20)
        w = np.vstack([np.sqrt(0.5) * np.eye(3), np.sqrt(0.5) * np.eye(3)])
        for _ in range(10):
            x = MatrixTuple((random_pd(3, (0.1, 10), rng),))
            y = MatrixTuple((random_pd(3, (0.1, 10), rng),))
            stacked = tuple_direct_sum(x, y)
            mid = tuple_compress(stacked, w)
            np.testing.assert_allclose(
                mid.items[0].entries,
                (x.items[0].entries + y.items[0].entries) / 2, atol=1e-12)
            lhs = eval_pencil(CAUCHY, mid).entries
            fs = eval_pencil(CAUCHY, stacked).entries
            rhs = w.T @ fs @ w
            assert np.linalg.eigvalsh(lhs - rhs)[0] >= -1e-10


class TestHypograph:
    def test_sqrt_passes(self):
        cfg = SuiteConfig(dims=(4,), trials=500, seed=11, tol=1e-8)
        assert check_hypograph_saturation(np.sqrt, cfg).passed

    def test_square_fails(self):
        cfg = SuiteConfig(dims=(4,), trials=200, seed=12, tol=1e-8)
        report = check_hypograph_saturation(lambda x: x ** 2, cfg)
        assert not report.passed and report.worst_violation < -1e-3

    def test_two_variable_sum_passes(self):
        cfg = SuiteConfig(dims=(4,), trials=50, seed=13, tol=1e-8)
        report = check_hypograph_saturation(lambda a, b: a + b, cfg, k=2)
        assert report.passed

    def test_disjoint_support_isometry_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = _disjoint_support_isometry(6, 3, rng)
            np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-14)
            # disjoint supports: compressions of diagonals stay diagonal
            d = np.diag(rng.uniform(1, 2, 6))
            c = v.T @ d @ v
            assert operator_norm(c - np.diag(np.diag(c))) == 0.0


class TestComatDecompose:
    def test_scalar_multiple_of_identity(self):
        x = MatrixTuple((2.5 * np.eye(3),))
        cert = comat_decompose(x)
        assert len(cert.block_dims) == 1 and cert.block_dims[0] == 3
        assert cert.isometry.shape == (3, 3)
        np.testing.assert_allclose(cert.isometry.T @ cert.isometry, np.eye(3),
                                   atol=1e-12)

    def test_diagonal_spectral_certificate(self):
        x = MatrixTuple((np.diag([1.0, 2.0]),))
        cert = comat_decompose(x)
        assert sorted(float(s[0]) for s in cert.scalar_tuples) == [1.0, 2.0]
        rebuilt = reconstruct_hull_certificate(cert)
        np.testing.assert_allclose(rebuilt[0], np.diag([1.0, 2.0]), atol=1e-12)

    def test_commuting_pair_reconstruction(self):
        x = random_commuting_tuple(2, 4, (0.5, 4), 3)
        cert = comat_decompose(x)
        v = cert.isometry
        assert operator_norm(v.T @ v - np.eye(4)) <= 1e-12
        rebuilt = reconstruct_hull_certificate(cert)
        for got, xi in zip(rebuilt, x.items):
            assert operator_norm(got - xi.entries) <= 1e-10 * max(1, xi.norm)
        assert np.all(cert.scalar_tuples >= cert.base_level / 2)

    def test_general_noncommuting_tuple(self):
        x = MatrixTuple((random_pd(3, (0.5, 3), 1), random_pd(3, (0.5, 3), 2),
                         random_pd(3, (0.5, 3), 3)))
        cert = comat_decompose(x)
        rebuilt = reconstruct_hull_certificate(cert)
        for got, xi in zip(rebuilt, x.items):
            assert operator_norm(got - xi.entries) <= 1e-10 * max(1, xi.norm)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            comat_decompose(MatrixTuple((np.diag([1.0, 0.0]),)))


class TestHerglotz:
    def test_identity_and_harmonic(self):
        cfg = SuiteConfig(dims=(2, 3), trials=20, seed=14, tol=1e-10)
        assert check_herglotz(IDENTITY, cfg).passed
        assert check_herglotz(HARMONIC, cfg).passed

    def test_quadrature_realization(self):
        cfg = SuiteConfig(dims=(2, 3), trials=25, seed=15, tol=1e-8)
        r = build_realization("power:0.5", n_nodes=32)
        report = check_herglotz(r, cfg)
        assert report.passed and report.extras == {}

    def test_complex_coefficients_pass(self):
        # F(conj X) = conj F(X) fails here on every trial (by 0.05 of ||F||);
        # the suite checks only Im F(X) >= 0, which holds
        cfg = SuiteConfig(dims=(2, 3), trials=10, seed=1)
        r = complex_gram_realization()
        report = check_herglotz(r, cfg)
        assert report.passed and report.skipped == 0 and report.worst_violation > 0.0
        assert check_monotone(r, cfg).passed and check_concave(r, cfg).passed

    def test_one_evaluation_per_trial(self, monkeypatch):
        """The complex route sees each block's points X once, one per trial,
        all in the upper half-plane."""
        calls, route = [], pencil._route_complex

        def spy(r, arrays):
            calls.append([a.copy() for a in arrays])
            return route(r, arrays)

        monkeypatch.setattr(verify, "_BLOCK_TRIALS", 3)
        monkeypatch.setattr(pencil, "_route_complex", spy)
        check_herglotz(HARMONIC, SuiteConfig(dims=(2, 3), trials=7, seed=4))
        assert [len(arrays[0]) for arrays in calls] == [3, 3, 1, 3, 3, 1]
        assert all(len(arrays) == HARMONIC.k for arrays in calls)
        assert all(np.linalg.eigvalsh(a.imag).min() > 0.0 for arrays in calls for a in arrays)

    def test_singular_pivot_counts_as_failure(self):
        # the auxiliary block of A0 (x) I + A1 (x) X is zero: a singular pivot
        r = PencilRealization(np.array([1.0, 0.0]), np.zeros((2, 2)),
                              (np.diag([1.0, 0.0]),))
        with pytest.raises(SingularPivotComplement):
            eval_complex(r, [np.eye(2) + 1j * np.eye(2)])
        cfg = SuiteConfig(dims=(2, 3), trials=10, seed=3)
        report = check_herglotz(r, cfg)
        assert report.failures == cfg.trials * len(cfg.dims) and report.skipped == 0
        assert report.worst_violation == -1.0
        assert report.first_failure_seed == 3_020_000


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg = SuiteConfig(dims=(2, 3), trials=15, seed=42, tol=1e-8)
        r1 = check_monotone(CAUCHY, cfg)
        r2 = check_monotone(CAUCHY, cfg)
        assert r1 == r2

    def test_seed_changes_report(self):
        cfg_a = SuiteConfig(dims=(3,), trials=15, seed=1, tol=1e-8)
        cfg_b = SuiteConfig(dims=(3,), trials=15, seed=2, tol=1e-8)
        assert (check_monotone(CAUCHY, cfg_a).worst_violation
                != check_monotone(CAUCHY, cfg_b).worst_violation)


class TestReportInvariants:
    def test_pass_iff_zero_failures(self):
        from loewner import VerificationReport
        with pytest.raises(ValueError):
            VerificationReport(suite="x", dims=(2,), trials=1, failures=1,
                               skipped=0, worst_violation=-1.0,
                               first_failure_seed=0, seed=0, tol=1e-8,
                               passed=True)


class TestSuiteConfig:
    # an empty dims would pass with zero trials; a zero dimension used to
    # fail only deep inside random_pd
    @pytest.mark.parametrize("dims", [(), (0,), (2, 0), (3, -1)])
    def test_rejects_empty_or_nonpositive_dims(self, dims):
        with pytest.raises(ValueError, match="dims must be a nonempty list"):
            SuiteConfig(dims=dims, trials=5)

    @pytest.mark.parametrize("tol", [0.0, -1e-8])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            SuiteConfig(dims=(2,), trials=5, tol=tol)

    # with tol = NaN or inf no violation fails `v < -tol`: x**2 passed
    # check_monotone_scalar with 0 of 40 failures (15 at the default)
    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SuiteConfig(dims=(2,), trials=5, tol=tol)

    def test_accepts_dimension_one(self):
        cfg = SuiteConfig(dims=(1,), trials=3, seed=4)
        assert cfg.dims == (1,) and check_monotone(CAUCHY, cfg).trials == 3


# ---------------------------------------------------------------------------
# the stacked suites against a per-trial reference
# ---------------------------------------------------------------------------

def edge_realization():
    """A1 = [[1, 1], [1, 1 - 2e-9]] (eigenvalue -1e-9, admitted) and A0 =
    diag(8e-9, 0): F(X) is about 8e-9 I - 2e-9 X, so the pencil leaves the
    domain where lambda_max(X) is above about 8, and F fails monotonicity."""
    return PencilRealization(np.array([1.0, 0.0]), np.diag([8e-9, 0.0]),
                             (np.array([[1.0, 1.0], [1.0, 1.0 - 2e-9]]),))


def outcome(trial_fn, *args):
    """The `_tally` outcome of a per-trial function: its violation, or the
    `_Skip` or `_Fail` it raises (any other error propagates)."""
    try:
        return trial_fn(*args)
    except (_Skip, _Fail) as exc:
        return exc


def reference_report(suite, r, cfg):
    """The suite run one trial at a time through the public `eval` and
    `eval_complex`, as the suites ran before they were stacked."""
    def f(x):
        try:
            return eval_pencil(r, x).entries
        except PencilDomainError as exc:
            raise _Skip from exc

    def tuple_(dim, rng):
        return MatrixTuple(tuple(random_pd(dim, (0.1, 10.0), rng) for _ in range(r.k)))

    def min_eig(diff, scale):
        return float(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0]) / max(1.0, scale)

    def axioms(rng, dim, trial):
        x = tuple_(dim, rng)
        u = random_isometry(dim, dim, rng).entries
        fx = f(x)
        lhs = f(tuple_compress(x, u))
        d1 = operator_norm(lhs - u.T @ fx @ u) / max(1.0, operator_norm(fx))
        y = tuple_(dim, rng)
        fy, fs = f(y), f(tuple_direct_sum(x, y))
        block = np.zeros_like(fs)
        block[:dim, :dim], block[dim:, dim:] = fx, fy
        return -max(d1, operator_norm(fs - block) / max(1.0, operator_norm(fs)))

    def monotone(rng, dim, trial):
        xd, yd = make_dominated_pair(tuple_(dim, rng), tuple_(dim, rng))
        fx, fy = f(xd), f(yd)
        return min_eig(fy - fx, max(operator_norm(fx), operator_norm(fy)))

    def concave(rng, dim, trial):
        x, y = tuple_(dim, rng), tuple_(dim, rng)
        fm = f(MatrixTuple(tuple((a.entries + b.entries) / 2.0 for a, b in zip(x.items, y.items))))
        fx, fy = f(x), f(y)
        scale = max(operator_norm(fm), operator_norm(fx), operator_norm(fy))
        return min_eig(fm - (fx + fy) / 2.0, scale)

    def jensen(rng, dim, trial):
        n = int(rng.integers(1, dim + 1))
        w = (random_isometry if trial % 2 == 0 else random_contraction)(n, dim, rng).entries
        x = tuple_(dim, rng)
        fx = f(x)
        lhs = f(tuple_compress(x, w))
        return min_eig(lhs - w.T @ fx @ w, max(operator_norm(lhs), operator_norm(fx)))

    def herglotz(rng, dim, trial):
        a = [rng.standard_normal((dim, dim)) for _ in range(r.k)]
        xs = [(ai + ai.T) / 2.0 + 1j * random_pd(dim, (0.1, 10.0), rng).entries for ai in a]
        try:
            fv = eval_complex(r, xs)
        except SingularPivotComplement as exc:
            raise _Fail(-1.0) from exc
        return float(np.linalg.eigvalsh((fv - fv.conj().T) / 2j)[0]) / max(1.0, operator_norm(fv))

    trial_fn = {"axioms": axioms, "monotone": monotone, "concave": concave,
                "jensen": jensen, "herglotz": herglotz}[suite]
    seeds = ((cfg.seed * 1_000_000 + dim * 10_000 + t, dim, t)
             for dim in cfg.dims for t in range(cfg.trials))
    return _tally(suite, cfg, ((ts, outcome(trial_fn, np.random.default_rng(ts), dim, t))
                               for ts, dim, t in seeds))


STACKED_SUITES = {"axioms": check_free_axioms, "monotone": check_monotone,
                  "concave": check_concave, "jensen": check_jensen_isometry,
                  "herglotz": check_herglotz}


# the realizations of the reference comparison: the edge case, one variable
# (power, cauchy), the two-generator spectral path (geomean, harmonic with two
# weights; harmonic's complex points take the batched path) and the
# parallel-sum and dense paths of a three-variable pencil
REFERENCE_SPECS = ["edge", "power:0.5", "geomean:0.5", "harmonic:0.3,0.7",
                   "harmonic:0.2,0.3,0.5", "cauchy:1.0"]


def reference_realization(spec):
    return edge_realization() if spec == "edge" else build_realization(spec, n_nodes=16)


class TestStackedSuitesMatchPerTrialReference:
    """Each suite draws every trial of a dimension from its own generator,
    builds and evaluates the points of a block of trials in stacked calls and
    measures the block at once; its report equals that of the per-trial
    reference exactly, skips and failures included."""

    CFG = SuiteConfig(dims=(1, 2, 4), trials=6, seed=5, tol=1e-13)

    @pytest.mark.parametrize("suite", sorted(STACKED_SUITES))
    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    def test_report_equals_reference(self, suite, spec):
        r = reference_realization(spec)
        cfg = self.CFG
        got = STACKED_SUITES[suite](r, cfg)
        assert got == reference_report(suite, r, cfg)

    def test_config_takes_every_branch_of_the_draws(self, monkeypatch):
        """Over `REFERENCE_SPECS` at ``CFG``, `_dominated_pair` lifts some pairs
        and not others, and Jensen draws isometries and contractions, each at
        more than one source dimension n."""
        lifted, sizes = [], {"isometry": set(), "contraction": set()}
        dominated_pair = verify._dominated_pair

        def spy_pair(x, y):
            xd, yd = dominated_pair(x, y)
            lifted.extend(np.any(yd != y, axis=(1, 2, 3)).tolist())
            return xd, yd

        def spy_map(kind, draw):
            def spy(n, m, rng):
                sizes[kind].add(n)
                return draw(n, m, rng)
            return spy

        monkeypatch.setattr(verify, "_dominated_pair", spy_pair)
        monkeypatch.setattr(verify, "_isometry_draw", spy_map("isometry", verify._isometry_draw))
        monkeypatch.setattr(verify, "_contraction_draw",
                            spy_map("contraction", verify._contraction_draw))
        for spec in REFERENCE_SPECS:
            check_monotone(reference_realization(spec), self.CFG)
        assert True in lifted and False in lifted
        for spec in REFERENCE_SPECS:
            check_jensen_isometry(reference_realization(spec), self.CFG)
        assert len(sizes["isometry"]) > 1 and len(sizes["contraction"]) > 1

    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("suite", sorted(STACKED_SUITES))
    def test_blocks_of_trials_equal_reference(self, monkeypatch, suite, block):
        """Blocks smaller than a dimension's trials, the last one partial,
        give the reference report."""
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        cfg = SuiteConfig(dims=(1, 2, 4), trials=7, seed=5, tol=1e-13)
        for spec in ("edge", "harmonic:0.3,0.7"):
            r = reference_realization(spec)
            assert STACKED_SUITES[suite](r, cfg) == reference_report(suite, r, cfg)

    @pytest.mark.parametrize("block", [2, 3])
    def test_blocks_of_whole_trials_change_nothing(self, monkeypatch, block):
        """The square fails most trials, so a lost or repeated trial shows in
        the failure counts."""
        cfg = SuiteConfig(dims=(2, 3), trials=7, seed=5)
        runs = (partial(check_monotone_scalar, np.square, cfg),
                partial(check_hypograph_saturation, np.square, cfg))
        want = [run() for run in runs]
        assert all(0 < report.failures < 14 for report in want)
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        assert [run() for run in runs] == want

    def test_edge_realization_skips_and_fails_some_trials(self):
        cfg = SuiteConfig(dims=(1, 2, 4), trials=6, seed=5, tol=1e-13)
        total = cfg.trials * len(cfg.dims)
        r = edge_realization()
        for suite in ("axioms", "monotone", "concave", "jensen"):
            assert 0 < STACKED_SUITES[suite](r, cfg).skipped < total
        monotone = check_monotone(r, cfg)
        assert monotone.failures > 0
        cfg = SuiteConfig(dims=(1, 2, 4), trials=6, seed=5, tol=1e-8)
        herglotz = check_herglotz(r, cfg)
        assert 0 < herglotz.failures < total
        assert herglotz == reference_report("herglotz", r, cfg)

    def test_singular_pivot_failures_match_reference(self):
        r = PencilRealization(np.array([1.0, 0.0]), np.zeros((2, 2)), (np.diag([1.0, 0.0]),))
        cfg = SuiteConfig(dims=(2, 3), trials=4, seed=6)
        assert check_herglotz(r, cfg) == reference_report("herglotz", r, cfg)


def reject_points(monkeypatch, name, error, reject):
    """Patch the pencil route ``name`` (``_route`` or ``_route_complex``) so
    that it rejects with a new ``error`` every point (a list of coordinates)
    for which ``reject`` holds: a stacked suite and its per-trial reference,
    through `eval` and `eval_complex`, see the same rejections."""
    route = getattr(pencil, name)

    def patched(r, arrays, *tol):
        names, values = route(r, arrays, *tol)
        for i in range(len(values)):
            if reject([a[i] for a in arrays]):
                values[i] = error("rejected by the test")
        return names, values

    monkeypatch.setattr(pencil, name, patched)


def recorded_outcomes(monkeypatch):
    """Per `verify._tally` call from here on, its list of (label, outcome)."""
    runs, tally = [], verify._tally

    def spy(suite, cfg, outcomes):
        runs.append(list(outcomes))
        return tally(suite, cfg, runs[-1])

    monkeypatch.setattr(verify, "_tally", spy)
    return runs


class TestRejectedPointSettlesOnlyItsTrial:
    """Per point, `_evaluate` gives a value (zero if rejected) and None or
    the point's outcome; a trial takes the first outcome of its own points.
    With one dimension of 3, the suites' first points are 3 x 3, so a 6 x 6
    point is an axioms direct sum and a smaller one a jensen compression."""

    CFG = SuiteConfig(dims=(3,), trials=7, seed=5, tol=1e-13)
    SECOND_POINTS = {"axioms": lambda x: x[0].shape[-1] == 6 and x[0][0, 0] < 5.0,
                     "jensen": lambda x: x[0].shape[-1] < 3}

    @pytest.mark.parametrize("block", [1, 2, 64])
    @pytest.mark.parametrize("suite", sorted(SECOND_POINTS))
    def test_trial_rejected_in_its_second_evaluation_is_skipped(self, monkeypatch, suite, block):
        r = reference_realization("power:0.5")
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        runs = recorded_outcomes(monkeypatch)
        STACKED_SUITES[suite](r, self.CFG)
        reject_points(monkeypatch, "_route", PencilDomainError, self.SECOND_POINTS[suite])
        got = STACKED_SUITES[suite](r, self.CFG)
        assert got == reference_report(suite, r, self.CFG)
        base, patched = runs
        assert all(isinstance(v, float) for _, v in base)
        assert [label for label, _ in base] == [label for label, _ in patched]
        skipped = [isinstance(v, _Skip) for _, v in patched]
        assert 0 < got.skipped == sum(skipped) < len(patched)
        assert [v for (_, v), s in zip(base, skipped) if not s] == [
            v for (_, v), s in zip(patched, skipped) if not s]

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_herglotz_trial_rejected_at_its_point_fails(self, monkeypatch, block):
        """F(X) rejected fails its trial with -1 and leaves the other trials
        of its block as they were."""
        r = reference_realization("power:0.5")
        cfg = SuiteConfig(dims=(1, 2, 4), trials=6, seed=5, tol=1e-8)
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        runs = recorded_outcomes(monkeypatch)
        check_herglotz(r, cfg)
        reject_points(monkeypatch, "_route_complex", SingularPivotComplement,
                      lambda x: x[0].real[0, 0] < 0.0)
        got = check_herglotz(r, cfg)
        assert got == reference_report("herglotz", r, cfg)
        base, patched = runs
        failed = [isinstance(v, _Fail) for _, v in patched]
        assert 0 < sum(failed) < len(patched) and got.failures == sum(failed)
        assert all(v.args == (-1.0,) for (_, v), f in zip(patched, failed) if f)
        assert [v for (_, v), f in zip(base, failed) if not f] == [
            v for (_, v), f in zip(patched, failed) if not f]


# ---------------------------------------------------------------------------
# the stacked scalar suites against their per-trial reference
# ---------------------------------------------------------------------------

def scalar_reference_report(suite, f, cfg, k=1):
    """The scalar suite run one trial at a time, with the trial bodies of the
    suites before they were stacked: two `apply_scalar_function` calls per
    trial, and an error of f raised by the first trial that meets it."""
    def monotone_scalar(rng, dim, trial_index):
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

    def hypograph(rng, dim, trial_index):
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

    trial_fn = {"monotone-scalar": monotone_scalar, "hypograph": hypograph}[suite]
    seeds = ((cfg.seed * 1_000_000 + dim * 10_000 + t, dim, t)
             for dim in cfg.dims for t in range(cfg.trials))
    return _tally(suite, cfg, ((ts, outcome(trial_fn, np.random.default_rng(ts), dim, t))
                               for ts, dim, t in seeds))


SCALAR_SUITES = {"monotone-scalar": check_monotone_scalar,
                 "hypograph": check_hypograph_saturation}


def _math_sqrt(x):
    return math.sqrt(x)  # scalars only: arrays take the per-element fallback


def _adapter(spec):
    r = build_realization(spec, n_nodes=24)
    return _scalar_from_realization(r), r.k


# (name, () -> (f, k)): vectorised ufuncs, a scalar-only function, a sum of two
# variables and the CLI adapters of one- and two-variable realizations
SCALAR_FUNCTIONS = {
    "np.sqrt": lambda: (np.sqrt, 1),
    "np.square": lambda: (np.square, 1),
    "math.sqrt": lambda: (_math_sqrt, 1),
    "a+b": lambda: (lambda a, b: a + b, 2),
    "adapter:sqrt": lambda: _adapter("sqrt"),
    "adapter:cauchy:0.7": lambda: _adapter("cauchy:0.7"),
    "adapter:geomean:0.3": lambda: _adapter("geomean:0.3"),
}


class TestStackedScalarSuitesMatchPerTrialReference:
    """The scalar suites draw each trial from its own generator and build,
    evaluate (`numlin._functional_calculus`) and measure a block of trials
    in stacked calls; reports and errors equal the per-trial reference."""

    CFG = SuiteConfig(dims=(1, 2, 4), trials=7, seed=5, tol=1e-13)

    @pytest.mark.parametrize("block", [2, 3, 64])
    @pytest.mark.parametrize("suite", sorted(SCALAR_SUITES))
    @pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
    def test_report_equals_reference(self, monkeypatch, name, suite, block):
        f, k = SCALAR_FUNCTIONS[name]()
        want = scalar_reference_report(suite, f, self.CFG, k)
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        assert SCALAR_SUITES[suite](f, self.CFG, k=k) == want

    def test_functions_fail_some_trials(self):
        """The references are not all passing runs: the square fails trials
        of both suites."""
        for suite in SCALAR_SUITES:
            assert 0 < scalar_reference_report(suite, np.square, self.CFG).failures

    @pytest.mark.parametrize("block", [2, 3, 64])
    @pytest.mark.parametrize("suite", sorted(SCALAR_SUITES))
    @pytest.mark.parametrize("name", ["edge", "shifted sqrt"])
    def test_first_error_equals_reference(self, monkeypatch, name, suite, block):
        """A trial whose f raises (the edge pencil's domain error, or a
        non-finite value) raises the error of the first such trial, and of
        its first call, as the reference does."""
        f = (_scalar_from_realization(edge_realization()) if name == "edge"
             else lambda x: np.sqrt(x - 2.0))
        with pytest.raises(ValueError) as want:
            scalar_reference_report(suite, f, self.CFG)
        monkeypatch.setattr(verify, "_BLOCK_TRIALS", block)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            SCALAR_SUITES[suite](f, self.CFG)


def _hypograph_adapter(r, cfg):
    return check_hypograph_saturation(_scalar_from_realization(r), cfg, k=r.k)


# herglotz on harmonic:0.3,0.7 evaluates its points on the stacked batched
# complex kernel; hypograph runs the CLI adapter of power:0.5
@pytest.mark.parametrize("spec, suite", [("power:0.5", check_free_axioms),
                                         ("harmonic:0.3,0.7", check_herglotz),
                                         ("power:0.5", _hypograph_adapter)])
def test_suite_memory_is_bounded_by_its_block(monkeypatch, spec, suite):
    """Only one block of trials is live at a time: ten blocks of a dimension
    peak at about the memory of one (all trials at once: about ten times)."""
    monkeypatch.setattr(verify, "_BLOCK_TRIALS", 4)
    r = build_realization(spec, n_nodes=96)

    def peak(trials):
        tracemalloc.start()
        try:
            suite(r, SuiteConfig(dims=(2, 3, 5), trials=trials, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) < 1.5 * peak(4)
