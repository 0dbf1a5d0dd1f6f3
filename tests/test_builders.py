"""Tests for the realization factory."""

import numpy as np
import pytest

from loewner import (
    FunctionSpec,
    MatrixTuple,
    PencilRealization,
    QuadratureScheme,
    SymMatrix,
    apply_scalar_function,
    build_realization,
    cauchy_atom,
    eval_pencil,
    geometric_mean,
    loewner_quadrature,
    psd_sqrt,
    random_pd,
    weighted_arithmetic,
    weighted_harmonic,
)
from loewner.builders import power_quadrature_scheme
from loewner.numlin import operator_norm
from loewner.pencil import householder_to_e1


def geo_oracle(a, b, t):
    """A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2) by eigendecomposition."""
    a = np.asarray(a)
    b = np.asarray(b)
    lam, u = np.linalg.eigh(a)
    ah = (u * np.sqrt(lam)) @ u.T
    ahi = (u / np.sqrt(lam)) @ u.T
    lam2, u2 = np.linalg.eigh(ahi @ b @ ahi)
    return ah @ ((u2 * lam2 ** t) @ u2.T) @ ah


class TestFunctionSpec:
    def test_parse_valid(self):
        assert FunctionSpec.parse("power:0.5").params == (0.5,)
        assert build_realization(FunctionSpec.parse("harmonic:0.3,0.7")).k == 2
        assert FunctionSpec.parse("sqrt").tag == "sqrt"
        assert build_realization(FunctionSpec.parse("geomean:0.25")).k == 2

    @pytest.mark.parametrize("text", [
        "power:1.5", "power:0", "cauchy:-1", "cauchy:0", "constant:-2",
        "harmonic:0.3,0.3", "arithmetic:-0.5,1.5", "unknown:1", "power:a,b",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            FunctionSpec.parse(text)

    @pytest.mark.parametrize("spec", [
        "constant:nan", "constant:inf", "cauchy:inf", "cauchy:nan", "power:nan",
        "geomean:nan", "harmonic:nan,0.5", "arithmetic:0.5,nan", "harmonic:inf,0.5",
        ("affine", (np.nan, 1.0)), ("affine", (0.5, np.inf)),
    ])
    def test_rejects_non_finite_parameters(self, silent_fds, spec):
        with pytest.raises(ValueError, match="needs|weights must"):
            FunctionSpec(*spec) if isinstance(spec, tuple) else FunctionSpec.parse(spec)

    def test_affine_in_process_only(self):
        spec = FunctionSpec("affine", (0.5, 1.0, 2.0))
        assert build_realization(spec).k == 2


class TestQuadratureScheme:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            QuadratureScheme(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            QuadratureScheme(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            QuadratureScheme(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_power_scheme_shape_and_signs(self):
        s = power_quadrature_scheme(0.5, 32)
        assert s.nodes.shape == s.weights.shape == (32,)
        assert np.all(s.nodes > 0) and np.all(np.diff(s.nodes) > 0)
        assert np.all(s.weights > 0)

    def test_scalar_accuracy(self):
        for t in (0.25, 0.5, 0.75):
            s = power_quadrature_scheme(t, 64)
            for x in (0.1, 1.0, 7.3):
                approx = float(np.sum(s.weights * s.nodes * x / (s.nodes + x)))
                assert abs(approx - x ** t) <= 1e-9 * x ** t

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            power_quadrature_scheme(1.2, 32)
        with pytest.raises(ValueError):
            power_quadrature_scheme(0.5, 4)


class TestCauchyAtom:
    def test_scalar_half(self):
        r = cauchy_atom(1.0)
        out = eval_pencil(r, MatrixTuple((np.array([[1.0]]),)))
        assert abs(out.entries[0, 0] - 0.5) < 1e-14

    def test_saturates_at_lambda(self):
        r = cauchy_atom(3.0)
        out = eval_pencil(r, MatrixTuple((np.array([[1e6]]),)))
        assert abs(out.entries[0, 0] - 3.0) / 3.0 < 1e-5

    def test_matrix_oracle(self):
        lam = 2.5
        r = cauchy_atom(lam)
        a = random_pd(6, (0.05, 30), 3)
        got = eval_pencil(r, MatrixTuple((a,)))
        oracle = apply_scalar_function(lambda x: lam * x / (lam + x), a)
        assert operator_norm(got.entries - oracle.entries) <= 1e-10 * max(1, oracle.norm)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cauchy_atom(0.0)


class TestLoewnerQuadrature:
    def test_sqrt_accuracy_against_oracle(self):
        r = loewner_quadrature(0.5, 96)
        for seed in range(10):
            a = random_pd(6, (0.1, 10), seed)
            got = eval_pencil(r, MatrixTuple((a,))).entries
            oracle = psd_sqrt(a).entries
            rel = operator_norm(got - oracle) / operator_norm(oracle)
            assert rel <= 1e-6

    def test_fixed_point_of_power(self):
        r = loewner_quadrature(0.5, 64)
        out = eval_pencil(r, MatrixTuple((np.array([[1.0]]),)))
        assert abs(out.entries[0, 0] - 1.0) < 1e-10

    def test_error_decreases_with_node_doubling(self):
        fixed = [random_pd(4, (1e-3, 1e3), seed) for seed in range(10)]
        oracles = [apply_scalar_function(lambda x: x ** 0.35, a) for a in fixed]
        errs = []
        for n in (16, 32, 64, 128):
            r = loewner_quadrature(0.35, n)
            worst = 0.0
            for a, oracle in zip(fixed, oracles):
                got = eval_pencil(r, MatrixTuple((a,))).entries
                worst = max(worst, operator_norm(got - oracle.entries) / oracle.norm)
            errs.append(worst)
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            loewner_quadrature(1.0, 32)


class TestWeightedHarmonic:
    def test_idempotent(self):
        r = weighted_harmonic([0.4, 0.6])
        a = random_pd(4, (0.5, 3), 5)
        out = eval_pencil(r, MatrixTuple((a, a))).entries
        assert operator_norm(out - a.entries) <= 1e-10 * a.norm

    def test_scalar_pair(self):
        r = weighted_harmonic([0.5, 0.5])
        out = eval_pencil(r, MatrixTuple((np.array([[1.0]]), np.array([[3.0]]))))
        assert abs(out.entries[0, 0] - 1.5) < 1e-12

    def test_random_vs_inverse_sum_formula(self):
        w = [0.2, 0.5, 0.3]
        r = weighted_harmonic(w)
        for seed in range(8):
            xs = [random_pd(4, (0.2, 6), 10 * seed + i) for i in range(3)]
            got = eval_pencil(r, MatrixTuple(tuple(xs))).entries
            oracle = np.linalg.inv(sum(wi * np.linalg.inv(x.entries)
                                       for wi, x in zip(w, xs)))
            assert operator_norm(got - oracle) <= 1e-10 * max(1, operator_norm(oracle))

    def test_homogeneous(self):
        r = weighted_harmonic([0.3, 0.7])
        xs = [random_pd(3, (0.5, 2), s) for s in (1, 2)]
        f1 = eval_pencil(r, MatrixTuple(tuple(xs))).entries
        f2 = eval_pencil(r, MatrixTuple(tuple(3.0 * x.entries for x in xs))).entries
        assert operator_norm(f2 - 3.0 * f1) <= 1e-9 * max(1, operator_norm(f1))

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            weighted_harmonic([0.5, 0.6])


class TestWeightedArithmetic:
    def test_exact(self):
        w = [0.25, 0.75]
        r = weighted_arithmetic(w)
        xs = [random_pd(4, (0.1, 5), s) for s in (3, 4)]
        got = eval_pencil(r, MatrixTuple(tuple(xs))).entries
        oracle = 0.25 * xs[0].entries + 0.75 * xs[1].entries
        assert operator_norm(got - oracle) <= 1e-14 * max(1, operator_norm(oracle))

    def test_idempotent(self):
        r = weighted_arithmetic([0.5, 0.5])
        a = random_pd(3, (1, 2), 0)
        np.testing.assert_allclose(eval_pencil(r, MatrixTuple((a, a))).entries,
                                   a.entries, atol=1e-14)


class TestGeometricMean:
    def test_idempotent(self):
        r = geometric_mean(0.5, 64)
        a = random_pd(4, (0.3, 3), 8)
        out = eval_pencil(r, MatrixTuple((a, a))).entries
        assert operator_norm(out - a.entries) / a.norm <= 1e-8

    def test_scalar_pair(self):
        r = geometric_mean(0.5, 128)
        out = eval_pencil(r, MatrixTuple((np.array([[1.0]]), np.array([[4.0]]))))
        assert abs(out.entries[0, 0] - 2.0) < 1e-5

    def test_random_pairs_vs_oracle(self):
        r = geometric_mean(0.5, 128)
        for seed in range(8):
            a = random_pd(4, (0.1, 10), 2 * seed)
            b = random_pd(4, (0.1, 10), 2 * seed + 1)
            got = eval_pencil(r, MatrixTuple((a, b))).entries
            oracle = geo_oracle(a.entries, b.entries, 0.5)
            assert operator_norm(got - oracle) / operator_norm(oracle) <= 1e-5

    def test_weighted_exponent(self):
        r = geometric_mean(0.25, 96)
        a = random_pd(3, (0.2, 5), 11)
        b = random_pd(3, (0.2, 5), 12)
        got = eval_pencil(r, MatrixTuple((a, b))).entries
        oracle = geo_oracle(a.entries, b.entries, 0.25)
        assert operator_norm(got - oracle) / operator_norm(oracle) <= 1e-5

    def test_homogeneous(self):
        r = geometric_mean(0.5, 64)
        a = random_pd(3, (0.5, 2), 1)
        b = random_pd(3, (0.5, 2), 2)
        f1 = eval_pencil(r, MatrixTuple((a, b))).entries
        f2 = eval_pencil(r, MatrixTuple((2.0 * a.entries, 2.0 * b.entries))).entries
        assert operator_norm(f2 - 2.0 * f1) <= 1e-9 * max(1, operator_norm(f1))


class TestBuildRealization:
    def test_dispatch_matches_builders(self):
        a = random_pd(3, (0.5, 2), 1)
        r = build_realization("identity")
        np.testing.assert_allclose(eval_pencil(r, MatrixTuple((a,))).entries,
                                   a.entries, atol=1e-12)
        r = build_realization("constant:2.0")
        np.testing.assert_allclose(eval_pencil(r, MatrixTuple((a,))).entries,
                                   2.0 * np.eye(3), atol=1e-14)
        r = build_realization("sqrt", n_nodes=64)
        got = eval_pencil(r, MatrixTuple((a,))).entries
        assert operator_norm(got - psd_sqrt(a).entries) <= 1e-7

    def test_built_realizations_pass_order_suites(self):
        from loewner import SuiteConfig, check_concave, check_jensen_isometry, check_monotone
        cfg = SuiteConfig(dims=(2, 3), trials=15, seed=77, tol=1e-8)
        for text in ("cauchy:1.5", "power:0.5", "harmonic:0.3,0.7",
                     "arithmetic:0.5,0.5", "geomean:0.5"):
            r = build_realization(text, n_nodes=48)
            assert check_monotone(r, cfg).passed, text
            assert check_concave(r, cfg).passed, text
            assert check_jensen_isometry(r, cfg).passed, text


# The per-node construction that `build_realization` replaced: one pencil per
# quadrature atom, rotated and summed by `arrowhead_sum`.  It stays here as
# the oracle of the direct assembly.
def arrowhead_sum(atoms, affine=None) -> PencilRealization:
    """Sum of atom realizations plus an affine part, as one arrowhead pencil.

    Each atom is rotated so its pivot is the first coordinate; the summed
    pencil shares that single pivot coordinate while the atoms' auxiliary
    blocks stay disjoint, so the trailing block of the result is block
    diagonal and the shorted operator splits into the per-atom complements:

        eval(result, X) = alpha I + sum_i beta_i X_i + sum_j eval(atom_j, X).

    Coefficients stay PSD: each embedded atom coefficient is a principal
    embedding of a PSD matrix and the affine part adds nonnegative scalars at
    the pivot.
    """
    atoms = list(atoms)
    if affine is None and not atoms:
        raise ValueError("need at least one atom or an affine part")
    if affine is not None:
        alpha, beta = affine
        beta = np.asarray(beta, dtype=float).reshape(-1)
        if alpha < 0 or np.any(beta < 0):
            raise ValueError("affine part needs alpha >= 0 and beta_i >= 0")
        k = beta.shape[0]
    else:
        alpha, beta, k = 0.0, None, atoms[0].k
    if any(a.k != k for a in atoms):
        raise ValueError("all atoms (and the affine part) must share the arity")

    m = 1 + sum(a.m - 1 for a in atoms)
    a0 = np.zeros((m, m))
    coeffs = [np.zeros((m, m)) for _ in range(k)]
    a0[0, 0] = alpha
    if beta is not None:
        for i in range(k):
            coeffs[i][0, 0] = beta[i]
    offset = 1
    for atom in atoms:
        q = householder_to_e1(atom.e)
        idx = np.concatenate([[0], np.arange(offset, offset + atom.m - 1)])
        a0[np.ix_(idx, idx)] += q @ atom.a0.entries @ q.T
        for i in range(k):
            coeffs[i][np.ix_(idx, idx)] += q @ atom.coeffs[i].entries @ q.T
        offset += atom.m - 1
    e = np.zeros(m)
    e[0] = 1.0
    return PencilRealization(e, SymMatrix(a0), tuple(SymMatrix(c) for c in coeffs))


class TestArrowheadSum:
    def test_single_atom_identical_eval(self):
        atom = cauchy_atom(1.5)
        summed = arrowhead_sum([atom])
        a = random_pd(4, (0.2, 5), 1)
        f1 = eval_pencil(atom, MatrixTuple((a,))).entries
        f2 = eval_pencil(summed, MatrixTuple((a,))).entries
        assert operator_norm(f1 - f2) <= 1e-12

    def test_two_cauchy_atoms_scalar_sum(self):
        r = arrowhead_sum([cauchy_atom(1.0), cauchy_atom(2.0)])
        out = eval_pencil(r, MatrixTuple((np.array([[1.0]]),)))
        assert abs(out.entries[0, 0] - (0.5 + 2.0 / 3.0)) < 1e-13

    def test_affine_only_identity(self):
        r = arrowhead_sum([], affine=(0.0, [1.0]))
        a = random_pd(3, (0.1, 10), 2)
        np.testing.assert_allclose(eval_pencil(r, MatrixTuple((a,))).entries,
                                   a.entries, atol=1e-13)

    def test_matrix_sum_with_affine(self):
        r = arrowhead_sum([cauchy_atom(1.0)], affine=(0.5, [0.25]))
        a = random_pd(3, (0.2, 4), 7)
        got = eval_pencil(r, MatrixTuple((a,))).entries
        oracle = (0.5 * np.eye(3) + 0.25 * a.entries
                  + apply_scalar_function(lambda x: x / (1 + x), a).entries)
        assert operator_norm(got - oracle) <= 1e-10

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            arrowhead_sum([cauchy_atom(1.0), geometric_mean(0.5, 8)])


def scaled_cauchy_atom(lam, weight):
    """Pencil for weight * lam x/(lam + x)."""
    a0 = weight * np.array([[0.0, 0.0], [0.0, lam]])
    a1 = weight * np.array([[1.0, 1.0], [1.0, 1.0]])
    return PencilRealization(np.array([1.0, 0.0]), SymMatrix(a0), (SymMatrix(a1),))


def scaled_geo_atom(lam, weight):
    """Pencil for weight * ((lam X1) : X2), the scaled parallel sum."""
    a1 = weight * lam * np.array([[1.0, 1.0], [1.0, 1.0]])
    a2 = weight * np.array([[0.0, 0.0], [0.0, 1.0]])
    a0 = np.zeros((2, 2))
    return PencilRealization(np.array([1.0, 0.0]), SymMatrix(a0), (SymMatrix(a1), SymMatrix(a2)))


def per_atom_realization(spec, n_nodes):
    """`arrowhead_sum` of the per-atom pencils, or of an affine part alone
    for the m = 1 families; `weighted_harmonic` is built as before."""
    tag, p = spec.tag, spec.params
    if tag in ("sqrt", "power", "geomean"):
        s = power_quadrature_scheme(p[0] if p else 0.5, n_nodes)
        atom = scaled_geo_atom if tag == "geomean" else scaled_cauchy_atom
        return arrowhead_sum([atom(lam, w) for lam, w in zip(s.nodes, s.weights)])
    if tag == "cauchy":
        return arrowhead_sum([scaled_cauchy_atom(p[0], 1.0)])
    if tag == "harmonic":
        return weighted_harmonic(p)
    if tag == "arithmetic":
        w = np.asarray(p)
        return arrowhead_sum([], affine=(0.0, w / w.sum()))
    return arrowhead_sum([], affine=(0.0, [1.0]) if tag == "identity"
                         else (p[0], list(p[1:]) or [0.0]))


def pencil_bytes(r):
    """Every stored array of a realization, with dtype and shape: equal bytes
    mean bit-identical coefficients, the sign of zeros included."""
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (r.e, r.a0.entries, *(c.entries for c in r.coeffs))]


QUADRATURE_SPECS = ["sqrt", "power:0.37", "power:0.5", "power:0.9", "geomean:0.5",
                    "geomean:0.25"]
EXACT_SPECS = ["identity", "constant:2.5", FunctionSpec("affine", (0.5, 1.0, 2.0)),
               FunctionSpec("affine", (-0.0, 0.0, 2.0)), "cauchy:1.5", "harmonic:0.3,0.7",
               "harmonic:0.2,0.3,0.5", "arithmetic:0.25,0.75"]



def spec_id(value):
    return f"{value.tag}:{value.params}" if isinstance(value, FunctionSpec) else str(value)


class TestDirectAssembly:
    """`build_realization` assembles each pencil straight from its node and
    weight vectors, bit-identical to the per-atom construction."""

    @pytest.mark.parametrize("spec,n_nodes", [(spec, n) for spec in QUADRATURE_SPECS
                                              for n in (8, 24, 96, 384)]
                             + [(spec, 8) for spec in EXACT_SPECS], ids=spec_id)
    def test_bit_identical_to_per_atom_construction(self, spec, n_nodes):
        parsed = FunctionSpec.parse(spec) if isinstance(spec, str) else spec
        got = build_realization(spec, n_nodes=n_nodes)
        assert pencil_bytes(got) == pencil_bytes(per_atom_realization(parsed, n_nodes))

    @pytest.mark.parametrize("spec,n_nodes", [("power:0.37", 384), ("geomean:0.5", 96)]
                             + [(spec, 24) for spec in QUADRATURE_SPECS + EXACT_SPECS],
                             ids=spec_id)
    def test_one_pencil_per_build(self, monkeypatch, spec, n_nodes):
        # the per-atom construction made n_nodes + 1 pencils here
        made = []
        admit = PencilRealization._admit

        def counting(self):
            made.append(self)
            admit(self)

        monkeypatch.setattr(PencilRealization, "_admit", counting)
        build_realization(spec, n_nodes=n_nodes)
        assert len(made) == 1
