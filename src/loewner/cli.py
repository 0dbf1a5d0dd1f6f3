"""Command-line front end.

Exit codes: 0 = success / verified true; 1 = verified false, suite failure or
non-convergence; 2 = usage or structural error (bad JSON, schema or parameter
violations).  Results go to stdout, diagnostics and timings to stderr; no
command mutates its input files, and report files exclude wall-clock data so
identical seeds yield identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import builders, jsonio, measures, pencil, verify
from .measures import MeanConvergenceError
from .numlin import MatrixTuple, SymMatrix
from .pencil import PencilDomainError
from .shorted import shorted_operator
from .verify import SuiteConfig

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_STRUCTURAL = 2


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(payload))


def _emit(payload: dict) -> None:
    sys.stdout.write(jsonio.dumps(payload))


def cmd_schur(args) -> int:
    z = jsonio.matrix_from_json(_read_json(args.input))
    result = shorted_operator(SymMatrix(z), args.pivot_dim, psd_tol=args.tol)
    _emit(jsonio.matrix_to_json(result.s_short))
    return EXIT_OK


def cmd_realize(args) -> int:
    spec = builders.FunctionSpec.parse(args.function)
    if not spec.params:
        if args.weights is not None and spec.tag in ("harmonic", "arithmetic"):
            spec = builders.FunctionSpec(
                spec.tag, tuple(float(w) for w in args.weights.split(",")))
        elif args.t is not None and spec.tag in ("power", "geomean"):
            spec = builders.FunctionSpec(spec.tag, (args.t,))
    realization = builders.build_realization(spec, n_nodes=args.nodes)
    _write_json(args.output, jsonio.realization_to_json(realization))
    print(f"wrote realization ({spec.tag}, k={realization.k}, m={realization.m}) "
          f"to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    realization = jsonio.realization_from_json(_read_json(args.realization))
    point = jsonio.tuple_from_json(_read_json(args.point))
    try:
        if args.complex:
            out = pencil.eval_complex(realization, point)
        else:
            out = pencil.eval(realization,
                              MatrixTuple(tuple(SymMatrix(p) for p in point)),
                              tol=args.tol).entries
    except PencilDomainError as exc:
        print(f"point outside realized domain: {exc}", file=sys.stderr)
        return EXIT_FALSE
    _emit(jsonio.matrix_to_json(out))
    return EXIT_OK


# --suite name -> its check in `verify`, looked up by name when the suite runs
# so that a wrapper installed on the `verify` module (tracing) is what runs
_SUITES = {
    "axioms": "check_free_axioms",
    "monotone": "check_monotone",
    "concave": "check_concave",
    "jensen": "check_jensen_isometry",
    "herglotz": "check_herglotz",
    "hypograph": "check_hypograph_saturation",
}


def _scalar_from_realization(realization):
    def f(*xs):
        scalar_in = np.ndim(xs[0]) == 0
        cols = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]
        # one evaluation at the diagonal tuple: direct-sum invariance makes its
        # diagonal the scalar function at every joint eigenvalue
        point = MatrixTuple(tuple(np.diag(c) for c in cols))
        out = np.real(np.diag(pencil.eval(realization, point).entries))
        return float(out[0]) if scalar_in else out

    return f


def cmd_verify(args) -> int:
    realization = jsonio.realization_from_json(_read_json(args.realization))
    cfg = SuiteConfig(
        dims=tuple(int(d) for d in args.dims.split(",")),
        trials=args.trials, seed=args.seed, tol=args.tol)
    started = time.monotonic()
    check = getattr(verify, _SUITES[args.suite])
    if args.suite == "hypograph":
        report = check(_scalar_from_realization(realization), cfg, k=realization.k)
    else:
        report = check(realization, cfg)
    elapsed = time.monotonic() - started
    payload = jsonio.report_to_json(report)
    _emit(payload)
    if args.report:
        _write_json(args.report, payload)
    print(f"{report.summary()} [{elapsed:.2f}s]", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FALSE


def cmd_order(args) -> int:
    mu = jsonio.measure_from_json(_read_json(args.mu))
    nu = jsonio.measure_from_json(_read_json(args.nu))
    ok, witness = measures.stochastic_leq(mu, nu, tol=args.tol)
    if ok:
        payload = jsonio.coupling_to_json(witness)
    else:
        payload = jsonio.upper_certificate_to_json(witness)
    if args.certificate:
        _write_json(args.certificate, payload)
    else:
        _emit(payload)
    print("mu <= nu" if ok else
          f"mu <= nu is FALSE: upper set carries mu-mass "
          f"{witness.mu_mass:.6f} > nu-mass {witness.nu_mass:.6f}",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_FALSE


def cmd_mean(args) -> int:
    mu = jsonio.measure_from_json(_read_json(args.measure))
    parsed = measures.parse_mean_spec(args.spec)
    try:
        mean = measures.mean_of_measure(parsed, mu)
    except MeanConvergenceError as exc:
        print(f"fixed point did not converge: {exc} "
              f"(residual {exc.residual:.3e})", file=sys.stderr)
        return EXIT_FALSE
    if parsed[0] == "power":
        t = parsed[1]
        fixed = sum(w * measures._geomean_pair(mean.entries, a.entries, t)
                    for w, a in zip(mu.weights, mu.atoms))
        residual = float(np.linalg.norm(mean.entries - fixed, "fro"))
        print(f"fixed-point residual: {residual:.3e}", file=sys.stderr)
    _emit(jsonio.matrix_to_json(mean))
    return EXIT_OK


def cmd_decompose(args) -> int:
    point = jsonio.tuple_from_json(_read_json(args.point))
    x = MatrixTuple(tuple(SymMatrix(p) for p in point))
    cert = verify.comat_decompose(x)
    v = cert.isometry
    gram_err = float(np.linalg.norm(v.conj().T @ v - np.eye(x.n), 2))
    rebuilt = verify.reconstruct_hull_certificate(cert)
    rec_err = max(float(np.linalg.norm(r - xi.entries, 2))
                  for r, xi in zip(rebuilt, x.items))
    positive = bool(np.all(cert.scalar_tuples > 0))
    if gram_err > 1e-12 or rec_err > 1e-10 or not positive:
        print(f"refusing to write failing certificate "
              f"(V*V error {gram_err:.3e}, reconstruction error {rec_err:.3e}, "
              f"positive={positive})", file=sys.stderr)
        return EXIT_FALSE
    _write_json(args.output, jsonio.hull_certificate_to_json(cert))
    print(f"wrote certificate with {len(cert.block_dims)} blocks to {args.output} "
          f"(reconstruction error {rec_err:.3e})", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Monotone matrix functions as Schur complements of PSD "
                    "pencils; order-theoretic verification; stochastic orders "
                    "of matrix measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="shorted operator of a PSD matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--pivot-dim", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("realize", help="build a pencil realization")
    p.add_argument("--function", required=True,
                   help="identity | constant:c | cauchy:l | sqrt | power:t | "
                        "harmonic:w1,..,wk | arithmetic:w1,..,wk | geomean:t")
    p.add_argument("--nodes", type=int, default=96)
    p.add_argument("--weights", default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("eval", help="evaluate a realization at a point")
    p.add_argument("--realization", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--realization", required=True)
    p.add_argument("--dims", default="2,3,4")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("order", help="decide the stochastic order mu <= nu")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--certificate", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("mean", help="operator mean of a discrete measure")
    p.add_argument("--spec", required=True,
                   help="power:t | arithmetic | harmonic")
    p.add_argument("--measure", required=True)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("decompose",
                       help="matrix convex combination certificate of a PD tuple")
    p.add_argument("--point", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
