"""Command-line front end.

Exit codes: 0 = success / verified true; 1 = verified false, suite failure or
non-convergence; 2 = usage or structural error (bad JSON, schema or parameter
violations).  Results go to stdout, diagnostics and timings to stderr; no
command mutates its input files, and report files exclude wall-clock data so
identical seeds yield identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import builders, jsonio, measures, pencil, verify
from .measures import MeanConvergenceError
from .numlin import DEFAULT_PSD_TOL, DimensionMismatch, MatrixTuple, SymMatrix, _diagonals
from .pencil import PencilDomainError
from .shorted import SingularPivotComplement, shorted_operator
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
    except (PencilDomainError, SingularPivotComplement) as exc:
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
    """The scalar function of a realization, for the scalar suites: f takes
    the joint eigenvalues as scalars, as (n,) arrays, or as (T, n) arrays,
    and evaluates each row (each group of n) at its diagonal point, in one
    `pencil._route` call over the T points (`pencil._at_points`).
    Direct-sum invariance makes a diagonal point's value the function at
    every joint eigenvalue.  A non-finite entry is a ValueError and a point
    outside the domain raises its PencilDomainError, as `pencil.eval` does."""
    def f(*xs):
        if len(xs) != realization.k:
            raise DimensionMismatch(f"realization has {realization.k} variables, "
                                    f"point has {len(xs)}")
        cols = [np.asarray(x, dtype=float) for x in xs]
        if any(c.shape != cols[0].shape for c in cols):
            raise DimensionMismatch("all coordinates must share one shape")
        values = pencil._at_points(lambda a: pencil._route(realization, a, DEFAULT_PSD_TOL),
                                   [_diagonals(np.atleast_2d(c)) for c in cols])
        out = np.real(np.diagonal(np.array(values), axis1=-2, axis2=-1))
        return float(out[0, 0]) if cols[0].ndim == 0 else out.reshape(cols[0].shape)

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
        residual = measures.power_mean_residual(mu, mean.entries, parsed[1])
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


def tolerance(text: str) -> float:
    """A ``--tol`` value: finite and not negative, else argparse exits 2."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


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
    p.add_argument("--tol", type=tolerance, default=DEFAULT_PSD_TOL)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("realize", help="build a pencil realization")
    p.add_argument("--function", required=True,
                   help="identity | constant:c | cauchy:l | sqrt | power:t | "
                        "harmonic:w1,..,wk | arithmetic:w1,..,wk | geomean:t")
    p.add_argument("--nodes", type=int, default=96)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("eval", help="evaluate a realization at a point")
    p.add_argument("--realization", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_PSD_TOL)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--realization", required=True)
    p.add_argument("--dims", default=",".join(map(str, SuiteConfig.dims)))
    p.add_argument("--trials", type=int, default=SuiteConfig.trials)
    p.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p.add_argument("--tol", type=tolerance, default=SuiteConfig.tol)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("order", help="decide the stochastic order mu <= nu")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--certificate", default=None)
    p.add_argument("--tol", type=tolerance, default=DEFAULT_PSD_TOL)
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

    for p in sub.choices.values():  # so that "--tol -1e-9" reads -1e-9 as its value
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: `build_parser` costs about 1-2 ms, a
    large share of a small command, and parsing leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:  # a JSON object without a required field
        print(f"error: missing field {exc.args[0]!r}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (OSError, json.JSONDecodeError, TypeError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
