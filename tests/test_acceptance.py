"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.  Every tolerance is pinned here; nothing is calibrated at
runtime.
"""

import json

import numpy as np
import pytest

from loewner import (
    DiscreteMeasure,
    MatrixTuple,
    SuiteConfig,
    SymMatrix,
    apply_scalar_function,
    brute_force_stochastic_leq,
    build_realization,
    check_directsum_coupling,
    check_free_axioms,
    check_herglotz,
    check_jensen_isometry,
    check_monotone,
    check_monotone_scalar,
    check_stochastic_monotone,
    comat_decompose,
    couplings_sample,
    eval_pencil,
    jsonio,
    loewner_leq,
    mean_of_measure,
    monotone_representation,
    power_mean,
    psd_sqrt,
    random_pd,
    reconstruct_hull_certificate,
    shorted_operator,
    stochastic_leq,
    variational_infimum,
)
from loewner.cli import main
from loewner.measures import _geomean_pair, pushforward_weights
from loewner.numlin import operator_norm


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_psd(n, rng, rank=None):
    g = rng.standard_normal((n, rank if rank is not None else n))
    return g @ g.T


@pytest.fixture(scope="module")
def realizations():
    """The built library exercised by the per-realization criteria."""
    return {
        "cauchy:1.5": build_realization("cauchy:1.5"),
        "power:0.5": build_realization("power:0.5", n_nodes=96),
        "geomean:0.5": build_realization("geomean:0.5", n_nodes=128),
        "harmonic:0.25,0.75": build_realization("harmonic:0.25,0.75"),
        "arithmetic:0.3,0.3,0.4": build_realization("arithmetic:0.3,0.3,0.4"),
    }


def test_criterion_01_shorted_oracle_agreement():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        rank = 8 if trial % 4 else 5
        z = random_psd(8, rng, rank=rank)
        res = shorted_operator(z, 4)
        scale = operator_norm(z)
        for _ in range(20):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            quad = float(v @ res.s_short.entries @ v)
            worst = max(worst, abs(quad - variational_infimum(z, v)) / scale)
    report(1, "shorted vs variational oracle", worst <= 1e-8,
           f"200 PSD 8x8 instances, 20 vectors each, worst |v*Sv - inf| = "
           f"{worst:.3e} * ||Z|| (tol 1e-8)")


def test_criterion_02_shorting_monotone():
    rng = np.random.default_rng(102)
    worst = np.inf
    for _ in range(200):
        z = random_psd(6, rng)
        zp = z + random_psd(6, rng)
        s1 = shorted_operator(z, 3).s_short.entries
        s2 = shorted_operator(zp, 3).s_short.entries
        worst = min(worst, float(np.linalg.eigvalsh(s2 - s1)[0]) / operator_norm(zp))
    report(2, "shorting monotonicity", worst >= -1e-9,
           f"200 ordered PSD pairs, min eig(S(Z')-S(Z))/||Z'|| = {worst:.3e} "
           f"(tol -1e-9)")


def test_criterion_03_power_quadrature_accuracy(realizations):
    r96 = realizations["power:0.5"]
    worst = 0.0
    for seed in range(100):
        a = random_pd(6, (0.1, 10.0), 1000 + seed)
        got = eval_pencil(r96, MatrixTuple((a,))).entries
        oracle = psd_sqrt(a).entries
        worst = max(worst, operator_norm(got - oracle) / operator_norm(oracle))
    ok_a = worst <= 1e-6

    fixed = [random_pd(4, (1e-3, 1e3), 2000 + s) for s in range(50)]
    oracles = [psd_sqrt(a) for a in fixed]
    errs = []
    for n_nodes in (16, 32, 64, 128, 256):
        rn = build_realization("power:0.5", n_nodes=n_nodes)
        e = 0.0
        for a, oracle in zip(fixed, oracles):
            got = eval_pencil(rn, MatrixTuple((a,))).entries
            e = max(e, operator_norm(got - oracle.entries) / oracle.norm)
        errs.append(e)
    ok_b = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
    report(3, "power:0.5 quadrature", ok_a and ok_b,
           f"N=96 rel err {worst:.3e} (tol 1e-6) on [0.1,10]; sweep on "
           f"[1e-3,1e3]: " + " -> ".join(f"{e:.2e}" for e in errs)
           + f" non-increasing={ok_b}")


def test_criterion_04_exact_builders():
    rng = np.random.default_rng(104)
    worst_h = worst_a = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        w = rng.dirichlet(np.ones(k))
        xs = [random_pd(n, (0.2, 6.0), rng) for _ in range(k)]
        rh = build_realization(f"harmonic:{','.join(map(str, w))}")
        got = eval_pencil(rh, MatrixTuple(tuple(xs))).entries
        oracle = np.linalg.inv(sum(wi * np.linalg.inv(x.entries)
                                   for wi, x in zip(w, xs)))
        worst_h = max(worst_h, operator_norm(got - oracle) / max(1, operator_norm(oracle)))
        ra = build_realization(f"arithmetic:{','.join(map(str, w))}")
        got = eval_pencil(ra, MatrixTuple(tuple(xs))).entries
        oracle = sum(wi * x.entries for wi, x in zip(w, xs))
        worst_a = max(worst_a, operator_norm(got - oracle) / max(1, operator_norm(oracle)))
    report(4, "exact builders", worst_h <= 1e-10 and worst_a <= 1e-14,
           f"100 instances (k<=4, n<=6): harmonic err {worst_h:.3e} (tol 1e-10), "
           f"arithmetic err {worst_a:.3e} (tol 1e-14)")


def test_criterion_05_geometric_mean(realizations):
    r = realizations["geomean:0.5"]
    worst = 0.0
    for seed in range(100):
        a = random_pd(5, (0.1, 10.0), 3000 + 2 * seed)
        b = random_pd(5, (0.1, 10.0), 3001 + 2 * seed)
        got = eval_pencil(r, MatrixTuple((a, b))).entries
        root = psd_sqrt(a).entries
        root_inv = np.linalg.inv(root)
        lam, u = np.linalg.eigh(root_inv @ b.entries @ root_inv)
        oracle = root @ ((u * np.sqrt(lam)) @ u.T) @ root
        worst = max(worst, operator_norm(got - oracle) / operator_norm(oracle))
    report(5, "geomean:0.5 at N=128", worst <= 1e-5,
           f"100 spectrum-bounded pairs, worst rel err {worst:.3e} (tol 1e-5)")


def test_criterion_06_monotonicity_suites(realizations):
    cfg = SuiteConfig(dims=(2, 3, 5), trials=167, seed=106, tol=1e-8)
    details = []
    ok = True
    for name, r in realizations.items():
        rep = check_monotone(r, cfg)
        ok = ok and rep.passed
        details.append(f"{name}: worst {rep.worst_violation:.2e}")
    neg = check_monotone_scalar(lambda x: x ** 2,
                                SuiteConfig(dims=(2, 3), trials=250, seed=107,
                                            tol=1e-8))
    ok = ok and not neg.passed
    report(6, "monotone suites", ok,
           f"501 dominated pairs per realization over dims (2,3,5); "
           + "; ".join(details)
           + f"; x^2 negative control failures {neg.failures}/500 "
             f"(worst {neg.worst_violation:.2e})")


def test_criterion_07_jensen_suites(realizations):
    cfg = SuiteConfig(dims=(4, 8), trials=250, seed=108, tol=1e-8)
    details = []
    ok = True
    for name, r in realizations.items():
        rep = check_jensen_isometry(r, cfg)
        ok = ok and rep.passed
        details.append(f"{name}: worst {rep.worst_violation:.2e}")
    report(7, "Jensen isometry/contraction suites", ok,
           "500 compressions per realization (N<=8); " + "; ".join(details))


def test_criterion_08_free_axioms(realizations):
    cfg = SuiteConfig(dims=(2, 4), trials=100, seed=109, tol=1e-10)
    details = []
    ok = True
    for name, r in realizations.items():
        rep = check_free_axioms(r, cfg)
        ok = ok and rep.passed
        details.append(f"{name}: worst {rep.worst_violation:.2e}")
    report(8, "free-function axioms", ok,
           "unitary + direct-sum invariance, 200 trials per realization at "
           "1e-10; " + "; ".join(details))


def test_criterion_09_herglotz(realizations):
    cfg = SuiteConfig(dims=(2, 3), trials=100, seed=110, tol=1e-8)
    details = []
    ok = True
    for name, r in realizations.items():
        rep = check_herglotz(r, cfg, sym_tol=1e-10)
        ok = ok and rep.passed
        details.append(
            f"{name}: Im worst {rep.worst_violation:.2e}, "
            f"asym {rep.extras['max_conjugate_asymmetry']:.2e}")
    report(9, "Herglotz continuation", ok,
           "200 upper-half-plane tuples per realization; " + "; ".join(details))


def test_criterion_10_hull_decomposition():
    rng = np.random.default_rng(111)
    worst_gram = worst_rec = 0.0
    all_positive = True
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        x = MatrixTuple(tuple(random_pd(n, (0.3, 5.0), rng) for _ in range(k)))
        cert = comat_decompose(x)
        v = cert.isometry
        worst_gram = max(worst_gram, operator_norm(v.conj().T @ v - np.eye(n)))
        rebuilt = reconstruct_hull_certificate(cert)
        for got, xi in zip(rebuilt, x.items):
            worst_rec = max(worst_rec, operator_norm(got - xi.entries))
        all_positive = all_positive and bool(np.all(cert.scalar_tuples > 0))
    ok = worst_gram <= 1e-12 and worst_rec <= 1e-10 and all_positive
    report(10, "hull decomposition", ok,
           f"100 PD tuples (k<=3, n<=5): V*V-I {worst_gram:.2e} (tol 1e-12), "
           f"reconstruction {worst_rec:.2e} (tol 1e-10), "
           f"all scalars positive={all_positive}")


def _measure_pool(rng, count=30):
    pool = []
    base = []
    for _ in range(count // 2):
        size = int(rng.integers(1, 6))
        atoms = [random_pd(3, (0.5, 3.0), rng) for _ in range(size)]
        w = rng.dirichlet(np.ones(size))
        mu = DiscreteMeasure(tuple(atoms), w)
        base.append(mu)
        pool.append(mu)
    for mu in base:
        lifted = []
        for a in mu.atoms:
            g = rng.standard_normal((3, 3))
            bump = g @ g.T
            bump *= rng.uniform(0.1, 0.6) / operator_norm(bump)
            lifted.append(a.entries + bump)
        pool.append(DiscreteMeasure(tuple(lifted), mu.weights))
    return pool


def test_criterion_11_strassen_equivalence():
    rng = np.random.default_rng(112)
    pool = _measure_pool(rng, 30)
    comparisons = disagreements = true_count = 0
    rep_checks = True
    for mu in pool:
        for nu in pool:
            flow_ok, witness = stochastic_leq(mu, nu, tol=1e-9)
            oracle_ok = brute_force_stochastic_leq(mu, nu, tol=1e-9)
            comparisons += 1
            if flow_ok != oracle_ok:
                disagreements += 1
            if flow_ok:
                true_count += 1
                xi_mu, xi_nu = monotone_representation(mu, nu, witness)
                push_mu = pushforward_weights(xi_mu, mu.size)
                push_nu = pushforward_weights(xi_nu, nu.size)
                if (np.abs(push_mu - mu.weights).max() > 1e-12
                        or np.abs(push_nu - nu.weights).max() > 1e-12):
                    rep_checks = False
                for i, j in zip(xi_mu.atom_indices, xi_nu.atom_indices):
                    if not loewner_leq(mu.atoms[i], nu.atoms[j], 1e-9):
                        rep_checks = False
    ok = disagreements == 0 and rep_checks
    report(11, "Strassen equivalence", ok,
           f"{comparisons} ordered pairs from a 30-measure pool: "
           f"{disagreements} flow/oracle disagreements, {true_count} true "
           f"instances all with order-respecting exact representations="
           f"{rep_checks}")


def test_criterion_12_operator_means_of_measures():
    rng = np.random.default_rng(113)
    # fixed-point residuals and the commuting-atom oracle
    worst_resid = worst_comm = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(k))
        t = float(rng.uniform(0.2, 0.9))
        atoms = [random_pd(n, (0.3, 4.0), rng) for _ in range(k)]
        x = power_mean(w, atoms, t).entries
        fixed = sum(wi * _geomean_pair(x, a.entries, t) for wi, a in zip(w, atoms))
        worst_resid = max(worst_resid,
                          np.linalg.norm(x - fixed, "fro")
                          / max(np.linalg.norm(x, "fro"), 1e-300))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectra = [rng.uniform(0.5, 4.0, n) for _ in range(k)]
        catoms = [q @ np.diag(s) @ q.T for s in spectra]
        got = power_mean(w, catoms, t).entries
        scal = (sum(wi * s ** t for wi, s in zip(w, spectra))) ** (1.0 / t)
        oracle = q @ np.diag(scal) @ q.T
        worst_comm = max(worst_comm,
                         operator_norm(got - oracle) / max(1, operator_norm(oracle)))
    ok_resid = worst_resid <= 1e-10
    ok_comm = worst_comm <= 1e-9

    # t = 1 equals arithmetic exactly; permutation/split invariance exact
    atoms = [random_pd(3, (0.5, 2.0), 5000 + s) for s in range(3)]
    w = np.array([0.25, 0.25, 0.5])
    mu = DiscreteMeasure(tuple(atoms), w)
    ok_t1 = np.array_equal(power_mean(w, atoms, 1.0).entries,
                           mean_of_measure("arithmetic", mu).entries)
    perm = DiscreteMeasure((atoms[2], atoms[0], atoms[1]),
                           np.array([0.5, 0.25, 0.25]))
    split = DiscreteMeasure((atoms[0], atoms[1], atoms[2], atoms[2]),
                            np.array([0.25, 0.25, 0.25, 0.25]))
    ok_inv = True
    for spec in ("power:0.5", "arithmetic", "harmonic"):
        base = mean_of_measure(spec, mu).entries
        ok_inv = ok_inv and np.array_equal(base, mean_of_measure(spec, perm).entries)
        ok_inv = ok_inv and np.array_equal(base, mean_of_measure(spec, split).entries)

    # stochastic monotonicity of the power mean
    mono = check_stochastic_monotone(
        "power:0.5", SuiteConfig(dims=(3,), trials=200, seed=114, tol=1e-8))

    # direct sums through couplings
    ds_ok = True
    ds_worst = 0.0
    for pair_seed in range(3):
        prng = np.random.default_rng(115 + pair_seed)
        mu2 = DiscreteMeasure(tuple(random_pd(3, (0.5, 2.0), prng) for _ in range(2)),
                              np.array([0.5, 0.5]))
        nu2 = DiscreteMeasure(tuple(random_pd(3, (0.5, 2.0), prng) for _ in range(2)),
                              np.array([0.5, 0.5]))
        rep = check_directsum_coupling(
            "power:0.5", mu2, nu2,
            couplings_sample(mu2, nu2, 11, seed=pair_seed))
        ds_ok = ds_ok and rep.passed
        ds_worst = min(ds_worst, rep.worst_violation)

    ok = (ok_resid and ok_comm and ok_t1 and ok_inv and mono.passed and ds_ok)
    report(12, "operator means of measures", ok,
           f"residual {worst_resid:.2e} (tol 1e-10); commuting oracle "
           f"{worst_comm:.2e} (tol 1e-9); t=1 exact={ok_t1}; perm/split "
           f"exact={ok_inv}; stochastic monotone worst "
           f"{mono.worst_violation:.2e} over {mono.trials} pairs; direct-sum "
           f"couplings worst {ds_worst:.2e} (tol 1e-8)")


def test_criterion_13_cli_contract(tmp_path, capsys):
    # serialization round trips bit-exactly
    rng = np.random.default_rng(116)
    m = rng.standard_normal((4, 4)) * np.e
    trips = np.array_equal(
        jsonio.matrix_from_json(json.loads(jsonio.dumps(jsonio.matrix_to_json(m)))), m)
    r = build_realization("power:0.5", n_nodes=16)
    back = jsonio.realization_from_json(
        json.loads(jsonio.dumps(jsonio.realization_to_json(r))))
    trips = trips and all(np.array_equal(a.entries, b.entries)
                          for a, b in zip(back.coeffs, r.coeffs))
    trips = trips and np.array_equal(back.a0.entries, r.a0.entries)

    # exit-code semantics per command
    z_path = tmp_path / "z.json"
    z_path.write_text(jsonio.dumps(jsonio.matrix_to_json(np.array([[2.0, 1.0], [1.0, 1.0]]))))
    codes = []
    codes.append(main(["schur", "--input", str(z_path), "--pivot-dim", "1"]) == 0)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    codes.append(main(["schur", "--input", str(bad), "--pivot-dim", "1"]) == 2)
    codes.append(main(["realize", "--function", "power:1.5",
                       "-o", str(tmp_path / "r.json")]) == 2)
    codes.append(main(["realize", "--function", "cauchy:1",
                       "-o", str(tmp_path / "r.json")]) == 0)
    neg = tmp_path / "neg.json"
    neg.write_text(jsonio.dumps(jsonio.matrix_to_json(-np.eye(2))))
    codes.append(main(["eval", "--realization", str(tmp_path / "r.json"),
                       "--point", str(neg)]) == 1)
    mu_p = tmp_path / "mu.json"
    nu_p = tmp_path / "nu.json"
    mu_p.write_text(jsonio.dumps(jsonio.measure_to_json(
        DiscreteMeasure.dirac(np.diag([2.0, 0.5]) + 0.01 * np.eye(2)))))
    nu_p.write_text(jsonio.dumps(jsonio.measure_to_json(
        DiscreteMeasure.dirac(np.eye(2) + 0.01 * np.eye(2)))))
    codes.append(main(["order", "--mu", str(mu_p), "--nu", str(nu_p)]) == 1)
    codes.append(main(["order", "--mu", str(mu_p), "--nu", str(mu_p)]) == 0)

    # identical seeds produce identical report files
    args = ["verify", "--suite", "monotone", "--realization", str(tmp_path / "r.json"),
            "--dims", "2,3", "--trials", "10", "--seed", "9"]
    main(args + ["--report", str(tmp_path / "a.json")])
    main(args + ["--report", str(tmp_path / "b.json")])
    deterministic = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    capsys.readouterr()  # swallow CLI stdout/stderr before the summary line
    ok = trips and all(codes) and deterministic
    report(13, "CLI contract", ok,
           f"round trips bit-exact={trips}; exit codes ok={all(codes)}; "
           f"identical seeds identical bytes={deterministic}")
