"""JSON schemas for matrices, realizations, measures, reports and certificates.

Floating values are serialized as hex-float strings (``float.hex()``), which
round-trip bit-exactly; human-readable decimal mirrors are included alongside
as non-authoritative fields (ignored on load).

Byte contract: for every object with string keys, ``dumps(obj)`` is
identical, byte for byte, to ``json.dumps(obj, sort_keys=True, indent=2) +
"\n"``, so identical objects produce identical files; the tests keep that
call as the oracle.  ``dumps`` raises ``TypeError`` where ``json.dumps``
does, and for any non-string key.  It has its own encoder because with
``indent`` set the standard library falls back from its C encoder to a
pure-Python generator chain, which was most of the time of writing a large
realization; this encoder joins each list of strings or of finite floats in
one call.

Load-time checks: every matrix row and vector is a JSON array whose entries
are hex strings or JSON numbers (not booleans), and every loaded array is
finite; anything else raises ``ValueError``.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .measures import Coupling, DiscreteMeasure, UpperSetCertificate
from .numlin import MatrixTuple, SymMatrix
from .pencil import PencilRealization
from .verify import HullCertificate, VerificationReport

VERSION = "0.1.0"

__all__ = [
    "VERSION",
    "dumps",
    "matrix_to_json",
    "matrix_from_json",
    "tuple_to_json",
    "tuple_from_json",
    "realization_to_json",
    "realization_from_json",
    "measure_to_json",
    "measure_from_json",
    "report_to_json",
    "report_from_json",
    "coupling_to_json",
    "coupling_from_json",
    "upper_certificate_to_json",
    "hull_certificate_to_json",
]


def _hex(x: float) -> str:
    return float(x).hex()


def _unhex(v) -> float:
    if isinstance(v, str):
        return float.fromhex(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a hex string or a JSON number, got {type(v).__name__}")
    return float(v)


def _floats(v) -> list:
    """Python floats of ``v`` flattened, cast as ``float(x)`` casts each entry."""
    return np.asarray(v, dtype=float).reshape(-1).tolist()


def _hex_vector(v) -> list:
    return list(map(float.hex, _floats(v)))


def _hex_rows(m) -> tuple:
    """Hex rows and decimal rows of a 2-d array."""
    rows = np.asarray(m, dtype=float).tolist()
    return [list(map(float.hex, row)) for row in rows], rows


def _unhex_list(v, what: str) -> list:
    """Floats of one JSON array of hex strings or JSON numbers."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON array, got {type(v).__name__}")
    try:
        return list(map(float.fromhex, v))
    except TypeError:  # a JSON number, or an entry of the wrong type
        return [_unhex(x) for x in v]


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite entry (nan or inf) in {what}")
    return arr


def _unhex_vector(v) -> np.ndarray:
    return _finite(np.array(_unhex_list(v, "vector"), dtype=float), "vector")


def _unhex_rows(rows) -> np.ndarray:
    arr = np.array([_unhex_list(row, "matrix row") for row in rows], dtype=float)
    return _finite(arr, "matrix")


def _encode(o, indent: str) -> str:
    """JSON text of ``o`` in the ``sort_keys=True, indent=2`` layout.

    ``indent`` is the newline and spaces that precede ``o``'s closing bracket.
    """
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if math.isinf(o):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        if kinds == {str}:
            body = sep.join(map(_quote, o))
        elif kinds == {float} and all(map(math.isfinite, o)):
            body = sep.join(map(float.__repr__, o))
        else:
            body = sep.join([_encode(x, inner) for x in o])
        return f"[{inner}{body}{indent}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = sep.join([f"{_quote(k)}: {_encode(v, inner)}" for k, v in sorted(o.items())])
        return f"{{{inner}{body}{indent}}}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps(obj: dict) -> str:
    """``obj`` as JSON text under the byte contract of the module docstring."""
    return _encode(obj, "\n") + "\n"


def matrix_to_json(m) -> dict:
    arr = np.asarray(m.entries if isinstance(m, SymMatrix) else m)
    if arr.ndim != 2:
        raise ValueError("matrix payload must be 2-d")
    out = {"rows": int(arr.shape[0]), "cols": int(arr.shape[1])}
    out["re"], out["re_decimal"] = _hex_rows(arr.real)
    if np.iscomplexobj(arr):
        out["im"], out["im_decimal"] = _hex_rows(arr.imag)
    return out


def matrix_from_json(d: dict) -> np.ndarray:
    re = _unhex_rows(d["re"])
    rows, cols = int(d["rows"]), int(d["cols"])
    if re.shape != (rows, cols):
        raise ValueError(f"matrix shape {re.shape} does not match header ({rows}, {cols})")
    if "im" in d:
        im = _unhex_rows(d["im"])
        if im.shape != re.shape:
            raise ValueError("imaginary part shape differs from the real part")
        z = re.astype(complex)  # re + 1j * im would turn a -0.0 into +0.0
        z.imag = im
        return z
    return re


def tuple_to_json(x: MatrixTuple) -> dict:
    return {
        "k": x.k,
        "n": x.n,
        "items": [matrix_to_json(xi) for xi in x.items],
    }


def tuple_from_json(d: dict) -> list:
    """Point payload: either a tuple file or a bare matrix file (k = 1).

    Returns raw arrays whose symmetry is not checked.  ``eval`` and
    ``decompose`` wrap each one in ``SymMatrix``, which silently keeps the
    Hermitian part ``(A + A*)/2``; ``eval --complex`` uses the arrays as given.
    """
    if "re" in d:
        return [matrix_from_json(d)]
    items = [matrix_from_json(item) for item in d["items"]]
    if "k" in d and int(d["k"]) != len(items):
        raise ValueError(f"header arity {d['k']} does not match {len(items)} items")
    return items


def realization_to_json(r: PencilRealization) -> dict:
    return {
        "k": r.k,
        "m": r.m,
        "e": _hex_vector(r.e),
        "e_decimal": _floats(r.e),
        "A0": matrix_to_json(r.a0),
        "A": [matrix_to_json(c) for c in r.coeffs],
    }


def realization_from_json(d: dict) -> PencilRealization:
    e = _unhex_vector(d["e"])
    a0 = SymMatrix(matrix_from_json(d["A0"]))
    coeffs = tuple(SymMatrix(matrix_from_json(c)) for c in d["A"])
    if int(d["m"]) != e.shape[0] or int(d["k"]) != len(coeffs):
        raise ValueError("realization header does not match its payload")
    return PencilRealization(e, a0, coeffs)


def measure_to_json(mu: DiscreteMeasure) -> dict:
    return {
        "n": mu.n,
        "atoms": [matrix_to_json(a) for a in mu.atoms],
        "weights": _hex_vector(mu.weights),
        "weights_decimal": _floats(mu.weights),
    }


def measure_from_json(d: dict) -> DiscreteMeasure:
    atoms = tuple(SymMatrix(matrix_from_json(a)) for a in d["atoms"])
    weights = _unhex_vector(d["weights"])
    if any(a.n != int(d["n"]) for a in atoms):
        raise ValueError("atom dimension does not match header")
    return DiscreteMeasure(atoms, weights)


def report_to_json(rep: VerificationReport) -> dict:
    return {
        "suite": rep.suite,
        "dims": list(rep.dims),
        "trials": rep.trials,
        "failures": rep.failures,
        "skipped": rep.skipped,
        "worst_violation": _hex(rep.worst_violation),
        "worst_violation_decimal": float(rep.worst_violation),
        "first_failure_seed": rep.first_failure_seed,
        "seed": rep.seed,
        "tol": _hex(rep.tol),
        "tol_decimal": float(rep.tol),
        "pass": rep.passed,
        "extras": {k: _hex(v) for k, v in sorted(rep.extras.items())},
        "extras_decimal": {k: float(v) for k, v in sorted(rep.extras.items())},
        "version": VERSION,
    }


def _typed(d: dict, key: str, *types):
    """``d[key]`` if its type is exactly one of ``types``: a boolean is not an integer."""
    if type(d[key]) not in types:
        raise ValueError(f"report field {key!r} has type {type(d[key]).__name__}")
    return d[key]


def report_from_json(d: dict) -> VerificationReport:
    return VerificationReport(
        suite=d["suite"],
        dims=tuple(int(x) for x in d["dims"]),
        trials=_typed(d, "trials", int),
        failures=_typed(d, "failures", int),
        skipped=_typed(d, "skipped", int),
        worst_violation=_unhex(d["worst_violation"]),
        first_failure_seed=_typed(d, "first_failure_seed", int, type(None)),
        seed=_typed(d, "seed", int),
        tol=_unhex(d["tol"]),
        passed=_typed(d, "pass", bool),
        extras={k: _unhex(v) for k, v in d.get("extras", {}).items()},
    )


def coupling_to_json(c: Coupling) -> dict:
    return {
        "kind": "coupling",
        "gamma": matrix_to_json(c.gamma),
        "row_weights": _hex_vector(c.row_weights),
        "col_weights": _hex_vector(c.col_weights),
    }


def coupling_from_json(d: dict) -> Coupling:
    return Coupling(
        matrix_from_json(d["gamma"]),
        _unhex_vector(d["row_weights"]),
        _unhex_vector(d["col_weights"]),
    )


def upper_certificate_to_json(cert: UpperSetCertificate) -> dict:
    return {
        "kind": "violated-upper-set",
        "mu_indices": list(cert.mu_indices),
        "nu_indices": list(cert.nu_indices),
        "mu_mass": _hex(cert.mu_mass),
        "nu_mass": _hex(cert.nu_mass),
        "mu_mass_decimal": float(cert.mu_mass),
        "nu_mass_decimal": float(cert.nu_mass),
    }


def hull_certificate_to_json(cert: HullCertificate) -> dict:
    return {
        "kind": "hull-decomposition",
        "isometry": matrix_to_json(cert.isometry),
        "scalar_tuples": matrix_to_json(cert.scalar_tuples),
        "block_dims": list(cert.block_dims),
        "weights": _hex_vector(cert.weights),
        "base_level": _hex(cert.base_level),
        "base_level_decimal": float(cert.base_level),
    }
