"""The benchmark's four workloads: set-up, one cycle of timed ops, and checks.

Every input comes from a numpy generator seeded by (run seed, workload, stream);
the library receives only the generated arrays and files, never the seed.  A
cycle draws fresh inputs for every op, so no input point or measure repeats
within a run.  Realizations are built in set-up and reused across ops, except in
``cli-files``, where realizing a file is itself a timed op.

Each op's output is checked after its timed call by an oracle that does not
share the code path it checks: eigendecomposition formulas for ``x^t``,
``X1 #_t X2`` and the harmonic mean, ``variational_infimum`` for the shorted
operator, a resolvent sum over the quadrature nodes for ``eval_complex``,
marginals and relation support for couplings, Hall-violation for min-cut
certificates, the brute-force upper-set oracle on small pairs, and the
fixed-point residual for power means.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from loewner import builders, cli, jsonio, measures, pencil, shorted, verify


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call: ``call()`` is timed, ``check(output)`` is not.

    ``check`` raises on a wrong output and may return a dict of counters
    (for example relation edges) that the runner accumulates.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    trials: int = 0


class Inputs:
    """Seeded input source for one run; hashes everything it hands out."""

    def __init__(self, seed: int, workload_id: int, workdir: str, digest):
        self.seed = seed
        self.workload_id = workload_id
        self.workdir = workdir
        self.digest = digest

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.workload_id, stream])

    def note(self, *arrays) -> None:
        for a in arrays:
            self.digest.update(np.ascontiguousarray(a).tobytes())

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, payload: dict) -> str:
        path = self.path(name)
        text = jsonio.dumps(payload)
        self.digest.update(text.encode())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------
# input generators (benchmark-owned; they do not call the library)
# ---------------------------------------------------------------------------

def spd(rng, n: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """Random symmetric PD matrix with spectrum uniform on [lo, hi]."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    m = (q * rng.uniform(lo, hi, n)) @ q.T
    return (m + m.T) / 2.0


def psd_bump(rng, n: int, scale: float) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    m = (q * rng.uniform(0.0, scale, n)) @ q.T
    return (m + m.T) / 2.0


def measure_atoms(rng, p: int, n: int):
    atoms = np.stack([spd(rng, n) for _ in range(p)])
    return atoms, rng.dirichlet(np.ones(p))


def lifted(rng, atoms: np.ndarray, weights: np.ndarray):
    """Atoms raised by PSD increments and permuted: a measure above (atoms, weights)."""
    up = np.stack([a + psd_bump(rng, a.shape[0], 2.5) for a in atoms])
    order = rng.permutation(len(atoms))
    return up[order], weights[order]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

RTOL = 1e-8


def close(got, want, what: str, rtol: float = RTOL) -> None:
    got = np.asarray(got)
    err = float(np.linalg.norm(got - want, 2)) / max(1.0, float(np.linalg.norm(want, 2)))
    require(err <= rtol, f"{what}: relative error {err:.3e} > {rtol:.0e}")


def power_formula(x: np.ndarray, t: float) -> np.ndarray:
    lam, u = np.linalg.eigh(x)
    return (u * lam ** t) @ u.T


def geomean_formula(x1: np.ndarray, x2: np.ndarray, t: float) -> np.ndarray:
    lam, u = np.linalg.eigh(x1)
    half = (u * np.sqrt(lam)) @ u.T
    half_inv = (u / np.sqrt(lam)) @ u.T
    mid = half_inv @ x2 @ half_inv
    return half @ power_formula((mid + mid.T) / 2.0, t) @ half


def harmonic_formula(xs, w) -> np.ndarray:
    n = xs[0].shape[0]
    acc = sum(wi * np.linalg.solve(x, np.eye(n)) for wi, x in zip(w, xs))
    return np.linalg.solve(acc, np.eye(n))


def resolvent_sum(nodes, weights, z: np.ndarray) -> np.ndarray:
    """sum_j w_j lam_j Z (lam_j + Z)^-1, the quadrature's rational function at Z."""
    n = z.shape[0]
    eye = np.eye(n)
    inv = np.linalg.solve(nodes[:, None, None] * eye + z[None], np.broadcast_to(eye, (len(nodes), n, n)))
    terms = (weights * nodes)[:, None, None] * (eye - nodes[:, None, None] * inv)
    return terms.sum(axis=0)


def relation_margin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """lambda_min(B_j - A_i) / max(1, |spec A_i|, |spec B_j|) for all pairs."""
    dmin = np.linalg.eigvalsh(b[None, :] - a[:, None])[..., 0]
    sa = np.abs(np.linalg.eigvalsh(a)).max(axis=1)
    sb = np.abs(np.linalg.eigvalsh(b)).max(axis=1)
    scale = np.maximum(1.0, np.maximum(sa[:, None], sb[None, :]))
    return dmin / scale


def check_order(ok, witness, a, wa, b, wb, brute: bool = False) -> dict:
    """Check a stochastic-order decision by its coupling or min-cut certificate."""
    margin = relation_margin(a, b)
    if ok:
        gamma = np.asarray(witness.gamma)
        require(float(np.abs(gamma.sum(axis=1) - wa).max()) <= 1e-10, "coupling row marginal")
        require(float(np.abs(gamma.sum(axis=0) - wb).max()) <= 1e-10, "coupling column marginal")
        require(not np.any((gamma > 1e-14) & (margin < -1e-7)), "coupling leaves the relation")
    else:
        mu_side, nu_side = list(witness.mu_indices), set(witness.nu_indices)
        require(math.isclose(witness.mu_mass, math.fsum(wa[mu_side]), abs_tol=1e-12), "mu mass")
        require(math.isclose(witness.nu_mass, math.fsum(wb[list(nu_side)]), abs_tol=1e-12),
                "nu mass")
        require(witness.mu_mass > witness.nu_mass, "certificate carries no violation")
        above = set(np.flatnonzero((margin[mu_side] > 1e-7).any(axis=0)).tolist())
        require(above <= nu_side, "certificate's nu side misses atoms above its mu side")
    if brute:
        mu = measures.DiscreteMeasure(tuple(a), wa)
        nu = measures.DiscreteMeasure(tuple(b), wb)
        require(measures.brute_force_stochastic_leq(mu, nu) == ok, "disagrees with brute force")
    return {"edges": int((margin >= -1e-9).sum()), "pairs": margin.size}


def fixed_point_residual(x: np.ndarray, atoms, w, t: float) -> None:
    fixed = sum(wi * geomean_formula(x, a, t) for wi, a in zip(w, atoms))
    resid = float(np.linalg.norm(x - fixed, "fro"))
    require(resid <= 1e-10 * float(np.linalg.norm(x, "fro")),
            f"power-mean fixed-point residual {resid:.3e}")


def check_report(rep, trials: int, reports) -> None:
    reports.update(jsonio.dumps(jsonio.report_to_json(rep)).encode())
    require(rep.passed, f"{rep.summary()}")
    require(rep.trials * len(rep.dims) == trials, "suite ran a different trial count")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Sizes per scale, a set-up that builds reused state, and one cycle of ops."""

    name = ""
    sizes: dict = {}

    def __init__(self, scale: str):
        self.size = self.sizes[scale]

    def setup(self, inputs: Inputs) -> dict:
        return {}

    def cycle(self, state: dict, inputs: Inputs, rng, reports) -> list:
        raise NotImplementedError

    def largest_array(self) -> tuple:
        raise NotImplementedError


class EvalLarge(Workload):
    name = "eval-large"
    sizes = {
        "full": dict(nodes=96, many_nodes=384, n=64, n_many=16, n_generic=128, n_complex=16,
                     n_shorted=256),
        "small": dict(nodes=24, many_nodes=48, n=8, n_many=4, n_generic=16, n_complex=4,
                      n_shorted=32),
    }
    HARMONIC_W = (0.2, 0.3, 0.5)
    ARITH_W = (0.4, 0.6)

    def setup(self, inputs):
        s = self.size
        return {
            "power": builders.build_realization("power:0.5", n_nodes=s["nodes"]),
            "power_many": builders.build_realization("power:0.3", n_nodes=s["many_nodes"]),
            "geomean": builders.build_realization("geomean:0.5", n_nodes=s["nodes"]),
            "harmonic": builders.build_realization(
                "harmonic:" + ",".join(map(str, self.HARMONIC_W))),
            "arithmetic": builders.build_realization(
                "arithmetic:" + ",".join(map(str, self.ARITH_W))),
            "scheme": builders.power_quadrature_scheme(0.5, s["nodes"]),
        }

    def cycle(self, st, inputs, rng, reports):
        s = self.size
        x = spd(rng, s["n"])
        x_many = spd(rng, s["n_many"])
        g1, g2 = spd(rng, s["n"], 0.3, 3.0), spd(rng, s["n"], 0.3, 3.0)
        hs = [spd(rng, s["n_generic"]) for _ in self.HARMONIC_W]
        ars = [spd(rng, s["n_generic"]) for _ in self.ARITH_W]
        a = rng.standard_normal((s["n_complex"],) * 2)
        z = (a + a.T) / 2.0 + 1j * spd(rng, s["n_complex"])
        g = rng.standard_normal((s["n_shorted"], s["n_shorted"] - s["n_shorted"] // 16))
        zs = g @ g.T / s["n_shorted"]
        zs = (zs + zs.T) / 2.0
        pivot = s["n_shorted"] // 4
        vs = rng.standard_normal((3, pivot))
        inputs.note(x, x_many, g1, g2, *hs, *ars, z, zs, vs)

        def check_shorted(res):
            for v in vs:
                want = shorted.variational_infimum(zs, v)
                got = float(v @ res.s_short.entries @ v)
                require(abs(got - want) <= RTOL * max(1.0, float(np.linalg.norm(zs, 2))) * (v @ v),
                        f"shorted operator misses the variational infimum by {abs(got - want):.3e}")

        def check_complex(f):
            close(f, resolvent_sum(st["scheme"].nodes, st["scheme"].weights, z), "eval_complex")
            im_min = float(np.linalg.eigvalsh((f - f.conj().T) / 2j)[0])
            require(im_min >= -RTOL * max(1.0, float(np.linalg.norm(f, 2))),
                    f"Im F has eigenvalue {im_min:.3e}")

        return [
            Op("eval.power", lambda: pencil.eval(st["power"], x),
               lambda out: close(out.entries, power_formula(x, 0.5), "x^0.5")),
            Op("eval.power_many_nodes", lambda: pencil.eval(st["power_many"], x_many),
               lambda out: close(out.entries, power_formula(x_many, 0.3), "x^0.3")),
            Op("eval.geomean", lambda: pencil.eval(st["geomean"], [g1, g2]),
               lambda out: close(out.entries, geomean_formula(g1, g2, 0.5), "X1 #_0.5 X2")),
            Op("eval.harmonic_generic", lambda: pencil.eval(st["harmonic"], hs),
               lambda out: close(out.entries, harmonic_formula(hs, self.HARMONIC_W),
                                 "harmonic mean")),
            Op("eval.arithmetic", lambda: pencil.eval(st["arithmetic"], ars),
               lambda out: close(out.entries, sum(w * m for w, m in zip(self.ARITH_W, ars)),
                                 "arithmetic mean")),
            Op("eval_complex.power", lambda: pencil.eval_complex(st["power"], [z]),
               check_complex),
            Op("shorted_operator", lambda: shorted.shorted_operator(zs, pivot), check_shorted),
        ]

    def largest_array(self):
        s = self.size
        return (f"trailing blocks of power/geomean eval, {s['nodes']} x {s['n']} x {s['n']} "
                "float64", s["nodes"] * s["n"] ** 2 * 8)


class SuiteSweep(Workload):
    name = "suite-sweep"
    sizes = {
        "full": dict(nodes=96, dims=(2, 3, 5), trials=4),
        "small": dict(nodes=24, dims=(2, 3), trials=1),
    }
    SPECS = ("power:0.5", "geomean:0.5", "harmonic:0.3,0.7", "cauchy:1.0")
    SUITES = (("axioms", "check_free_axioms"), ("monotone", "check_monotone"),
              ("concave", "check_concave"), ("jensen", "check_jensen_isometry"),
              ("herglotz", "check_herglotz"))

    def setup(self, inputs):
        return {spec: builders.build_realization(spec, n_nodes=self.size["nodes"])
                for spec in self.SPECS}

    def cycle(self, st, inputs, rng, reports):
        s = self.size
        trials = s["trials"] * len(s["dims"])
        ops = []
        for spec in self.SPECS:
            for suite, fn_name in self.SUITES:
                # one fresh suite seed per op, so no trial point repeats in a run
                cfg = verify.SuiteConfig(dims=s["dims"], trials=s["trials"],
                                         seed=int(rng.integers(1, 2 ** 31)))
                inputs.note(np.array([cfg.seed]))
                ops.append(Op(
                    f"suite.{suite}.{spec.partition(':')[0]}",
                    lambda r=st[spec], fn=fn_name, cfg=cfg: getattr(verify, fn)(r, cfg),
                    lambda rep: check_report(rep, trials, reports),
                    trials=trials))
        return ops

    def largest_array(self):
        s = self.size
        n = max(s["dims"]) * 2
        return (f"trailing blocks of the axioms direct-sum eval, {s['nodes']} x {n} x {n} float64",
                s["nodes"] * n * n * 8)


class MeasuresMix(Workload):
    name = "measures-mix"
    sizes = {
        "full": dict(n=4, large=100, medium=20, small=8, wide=(10, 32), many=(40, 8),
                     means=(40, 8), csm_dims=(2, 3), csm_trials=2),
        "small": dict(n=3, large=12, medium=6, small=4, wide=(3, 6), many=(6, 3),
                      means=(6, 3), csm_dims=(2,), csm_trials=1),
    }

    def cycle(self, st, inputs, rng, reports):
        s = self.size
        n = s["n"]
        ops = []
        for label, copies in (("large", 1), ("medium", 2), ("small", 2)):
            p = s[label]
            for _ in range(copies):
                a, wa = measure_atoms(rng, p, n)
                b_ord, wb_ord = lifted(rng, a, wa)
                c, wc = measure_atoms(rng, p, n)
                b_ind, wb_ind = measure_atoms(rng, p, n)
                inputs.note(a, wa, b_ord, wb_ord, c, wc, b_ind, wb_ind)
                for kind, (x, wx, y, wy) in (("ordered", (a, wa, b_ord, wb_ord)),
                                             ("independent", (c, wc, b_ind, wb_ind))):
                    mu = measures.DiscreteMeasure(tuple(x), wx)
                    nu = measures.DiscreteMeasure(tuple(y), wy)
                    ops.append(Op(
                        f"order.{label}_{kind}",
                        lambda mu=mu, nu=nu: measures.stochastic_leq(mu, nu),
                        lambda out, x=x, wx=wx, y=y, wy=wy, kind=kind: {
                            f"relation.{kind}": check_order(*out, x, wx, y, wy,
                                                            brute=2 * len(x) <= 16)},
                    ))
        for label in ("wide", "many"):
            p, dim = s[label]
            atoms, w = measure_atoms(rng, p, dim)
            inputs.note(atoms, w)
            ops.append(Op(
                f"mean.power_{label}",
                lambda atoms=atoms, w=w: measures.power_mean(w, tuple(atoms), 0.5),
                lambda out, atoms=atoms, w=w: fixed_point_residual(out.entries, atoms, w, 0.5)))
        for spec in ("harmonic", "arithmetic"):
            p, dim = s["means"]
            atoms, w = measure_atoms(rng, p, dim)
            inputs.note(atoms, w)
            mu = measures.DiscreteMeasure(tuple(atoms), w)
            want = (harmonic_formula(list(atoms), w) if spec == "harmonic"
                    else np.einsum("i,iab->ab", w, atoms))
            ops.append(Op(f"mean.{spec}", lambda mu=mu, spec=spec: measures.mean_of_measure(spec, mu),
                          lambda out, want=want, spec=spec: close(out.entries, want, spec)))
        cfg = verify.SuiteConfig(dims=s["csm_dims"], trials=s["csm_trials"],
                                 seed=int(rng.integers(1, 2 ** 31)))
        inputs.note(np.array([cfg.seed]))
        trials = s["csm_trials"] * len(s["csm_dims"])
        ops.append(Op("check_stochastic_monotone",
                      lambda: measures.check_stochastic_monotone("power:0.5", cfg),
                      lambda rep: check_report(rep, trials, reports), trials=trials))
        return ops

    def largest_array(self):
        size = 2 * self.size["large"] + 2
        return (f"dense longdouble max-flow capacity and flow matrices, {size} x {size}",
                2 * size * size * np.dtype(np.longdouble).itemsize)


class CliFiles(Workload):
    name = "cli-files"
    sizes = {
        "full": dict(nodes_large=384, nodes_small=96, n=4, trials=10, order_atoms=20,
                     mean_atoms=(10, 8), schur=(48, 16), decompose=(2, 6)),
        "small": dict(nodes_large=48, nodes_small=24, n=3, trials=1, order_atoms=4,
                      mean_atoms=(3, 3), schur=(8, 3), decompose=(2, 3)),
    }

    def cycle(self, st, inputs, rng, reports):
        s = self.size
        n = s["n"]
        t_large, t_small, t_geo = (round(float(t), 6) for t in rng.uniform(0.2, 0.8, 3))
        x_large, x_small = spd(rng, n), spd(rng, n)
        g1, g2 = spd(rng, n, 0.3, 3.0), spd(rng, n, 0.3, 3.0)
        a = rng.standard_normal((n, n))
        zc = (a + a.T) / 2.0 + 1j * spd(rng, n)
        oa, owa = measure_atoms(rng, s["order_atoms"], n)
        ob, owb = lifted(rng, oa, owa)
        m_atoms, m_w = measure_atoms(rng, *s["mean_atoms"])
        h_atoms, h_w = measure_atoms(rng, *s["mean_atoms"])
        size, pivot = s["schur"]
        z = spd(rng, size)
        k, dim = s["decompose"]
        tup = [spd(rng, dim) for _ in range(k)]
        suite_seeds = rng.integers(1, 2 ** 31, size=3)
        inputs.note(np.array([t_large, t_small, t_geo]), suite_seeds)

        def measure_file(name, atoms, w):
            return inputs.write(name, jsonio.measure_to_json(
                measures.DiscreteMeasure(tuple(atoms), w)))

        def tuple_file(name, mats):
            return inputs.write(name, {"k": len(mats), "n": mats[0].shape[0],
                                       "items": [jsonio.matrix_to_json(m) for m in mats]})

        rl, rs, rg = (inputs.path(f"realization_{label}.json")
                      for label in ("large", "small", "geomean"))
        xl = inputs.write("x_large.json", jsonio.matrix_to_json(x_large))
        xs = inputs.write("x_small.json", jsonio.matrix_to_json(x_small))
        xc = inputs.write("x_complex.json", jsonio.matrix_to_json(zc))
        xg = tuple_file("x_pair.json", [g1, g2])
        mu, nu = measure_file("mu.json", oa, owa), measure_file("nu.json", ob, owb)
        m_in = measure_file("mean.json", m_atoms, m_w)
        h_in = measure_file("harmonic.json", h_atoms, h_w)
        z_in = inputs.write("z.json", jsonio.matrix_to_json(z))
        point = tuple_file("tuple.json", tup)
        cert = inputs.path("certificate.json")

        def exited_ok(out):
            require(out[0] == 0, f"exit code {out[0]}: {out[2].strip()}")
            return out[1]

        def realized(path, label=None):
            def check(out):
                exited_ok(out)
                size = os.path.getsize(path)
                require(size > 0, "empty realization file")
                return {f"realization_bytes.{label}": {"bytes": size, "files": 1}} if label else {}
            return check

        def evaluated(want, what):
            return lambda out: close(matrix_payload(json.loads(exited_ok(out))), want, what)

        def evaluated_complex(out):
            f = matrix_payload(json.loads(exited_ok(out)))
            scheme = builders.power_quadrature_scheme(t_small, s["nodes_small"])
            close(f, resolvent_sum(scheme.nodes, scheme.weights, zc), "file eval --complex")
            im_min = float(np.linalg.eigvalsh((f - f.conj().T) / 2j)[0])
            require(im_min >= -RTOL * max(1.0, float(np.linalg.norm(f, 2))),
                    f"Im F has eigenvalue {im_min:.3e}")

        def suite(out):
            text = exited_ok(out)
            reports.update(text.encode())
            require(json.loads(text)["pass"] is True, "suite report does not pass")

        def ordered(out):
            gamma = matrix_payload(json.loads(exited_ok(out))["gamma"])
            check_order(True, measures.Coupling(gamma, owa, owb), oa, owa, ob, owb)

        def power_mean(out):
            fixed_point_residual(matrix_payload(json.loads(exited_ok(out))), m_atoms, m_w, 0.5)

        def decomposed(out):
            exited_ok(out)
            with open(cert, encoding="utf-8") as fh:
                c = json.load(fh)
            v = matrix_payload(c["isometry"])
            scal = matrix_payload(c["scalar_tuples"])
            reps = np.repeat(scal, c["block_dims"], axis=0)
            require(bool(np.all(scal > 0)), "certificate has a non-positive scalar")
            for col, xi in enumerate(tup):
                close(v.T @ (reps[:, col][:, None] * v), xi, "certificate reconstruction")

        schur_want = z[:pivot, :pivot] - z[:pivot, pivot:] @ np.linalg.solve(
            z[pivot:, pivot:], z[pivot:, :pivot])

        def verify_op(suite_name, seed):
            return Op(f"cli.verify_{suite_name}", lambda: run_cli(
                ["verify", "--suite", suite_name, "--realization", rs,
                 "--trials", str(s["trials"]), "--seed", str(seed)]),
                suite, trials=3 * s["trials"])

        def realize_op(kind, spec, nodes, path, label=None):
            return Op(kind, lambda: run_cli(
                ["realize", "--function", spec, "--nodes", str(nodes), "-o", path]),
                realized(path, label))

        return [
            realize_op("cli.realize_large", f"power:{t_large}", s["nodes_large"], rl, "large_file"),
            realize_op("cli.realize_small", f"power:{t_small}", s["nodes_small"], rs, "small_file"),
            realize_op("cli.realize_geomean", f"geomean:{t_geo}", s["nodes_small"], rg),
            Op("cli.eval_large", lambda: run_cli(["eval", "--realization", rl, "--point", xl]),
               evaluated(power_formula(x_large, t_large), f"file x^{t_large}")),
            Op("cli.eval_small", lambda: run_cli(["eval", "--realization", rs, "--point", xs]),
               evaluated(power_formula(x_small, t_small), f"file x^{t_small}")),
            Op("cli.eval_geomean", lambda: run_cli(["eval", "--realization", rg, "--point", xg]),
               evaluated(geomean_formula(g1, g2, t_geo), "file X1 #_t X2")),
            Op("cli.eval_complex", lambda: run_cli(
                ["eval", "--realization", rs, "--point", xc, "--complex"]), evaluated_complex),
            verify_op("monotone", suite_seeds[0]),
            verify_op("hypograph", suite_seeds[1]),
            verify_op("herglotz", suite_seeds[2]),
            Op("cli.order", lambda: run_cli(["order", "--mu", mu, "--nu", nu]), ordered),
            Op("cli.mean_power", lambda: run_cli(
                ["mean", "--spec", "power:0.5", "--measure", m_in]), power_mean),
            Op("cli.mean_harmonic", lambda: run_cli(
                ["mean", "--spec", "harmonic", "--measure", h_in]),
               evaluated(harmonic_formula(list(h_atoms), h_w), "file harmonic mean")),
            Op("cli.schur", lambda: run_cli(["schur", "--input", z_in, "--pivot-dim", str(pivot)]),
               evaluated(schur_want, "schur")),
            Op("cli.decompose", lambda: run_cli(["decompose", "--point", point, "-o", cert]),
               decomposed),
        ]

    def largest_array(self):
        m = self.size["nodes_large"] + 1
        return (f"{m} x {m} float64 coefficient matrices of the large realization file "
                "(2 per file)", 2 * m * m * 8)


def run_cli(argv):
    """Call ``loewner.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def matrix_payload(d: dict) -> np.ndarray:
    """A matrix JSON payload read from its hex floats (complex when it has "im")."""
    re = np.array([[float.fromhex(x) for x in row] for row in d["re"]])
    if "im" in d:
        return re + 1j * np.array([[float.fromhex(x) for x in row] for row in d["im"]])
    return re


WORKLOADS = {w.name: w for w in (EvalLarge, SuiteSweep, MeasuresMix, CliFiles)}
