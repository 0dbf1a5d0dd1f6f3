"""Tests for the CLI: serialization fidelity, exit codes, determinism."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import complex_gram_realization, legacy_realization_payload
from loewner import (
    DiscreteMeasure,
    MatrixTuple,
    PencilRealization,
    SuiteConfig,
    SymMatrix,
    build_realization,
    check_concave,
    check_directsum_coupling,
    check_free_axioms,
    check_herglotz,
    check_hypograph_saturation,
    check_jensen_isometry,
    check_monotone,
    check_monotone_scalar,
    check_stochastic_monotone,
    comat_decompose,
    couplings_sample,
    eval_pencil,
    random_pd,
    shorted_operator,
    stochastic_leq,
)
import loewner
from loewner import cli, jsonio
from loewner.cli import _scalar_from_realization, build_parser, main
from loewner.pencil import PencilDomainError


def assert_same_realization(a, b):
    """``a`` and ``b`` hold the same arrays, byte for byte (signs of zeros included)."""
    assert (a.k, a.m) == (b.k, b.m)
    for x, y in zip((a.e, a.a0.entries, *(c.entries for c in a.coeffs)),
                    (b.e, b.a0.entries, *(c.entries for c in b.coeffs))):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def write(path, payload):
    path.write_text(jsonio.dumps(payload))


def read(path):
    return json.loads(path.read_text())


class TestSerializationRoundTrips:
    def test_matrix_bit_exact(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) * np.pi
        back = jsonio.matrix_from_json(json.loads(jsonio.dumps(jsonio.matrix_to_json(m))))
        assert np.array_equal(back, m)

    def test_complex_matrix_bit_exact(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        back = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_realization_round_trip(self):
        r = build_realization("power:0.5", n_nodes=16)
        back = jsonio.realization_from_json(
            json.loads(jsonio.dumps(jsonio.realization_to_json(r))))
        assert_same_realization(back, r)

    def test_complex_and_negative_zero_coefficients_round_trip(self):
        # a Hermitian A1 with complex couplings and an imaginary -0.0 above the
        # diagonal; A0 with a real -0.0 off the diagonal
        a1 = np.array([[3, 1j, 1 - 1j], [-1j, 1, complex(0.0, -0.0)], [1 + 1j, 0, 1]])
        a0 = np.diag([0.0, 1.0, 2.0])
        a0[1, 2] = a0[2, 1] = -0.0
        r = PencilRealization(np.eye(3)[0], SymMatrix(a0), (SymMatrix(a1),))
        assert np.signbit(r.coeffs[0].entries[1, 2].imag) and np.signbit(r.a0.entries[1, 2])
        payload = json.loads(jsonio.dumps(jsonio.realization_to_json(r)))
        assert 5 in payload["A0"]["index"] and 5 in payload["A"][0]["index"]
        assert_same_realization(jsonio.realization_from_json(payload), r)
        assert_same_realization(
            jsonio.realization_from_json(legacy_realization_payload(r)), r)

    def test_measure_round_trip(self):
        mu = DiscreteMeasure((random_pd(2, (1, 2), 0), random_pd(2, (1, 2), 1)),
                             np.array([1.0 / 3.0, 2.0 / 3.0]))
        back = jsonio.measure_from_json(jsonio.measure_to_json(mu))
        assert np.array_equal(back.weights, mu.weights)
        for a, b in zip(back.atoms, mu.atoms):
            assert np.array_equal(a.entries, b.entries)

    def test_report_round_trip(self):
        cfg = SuiteConfig(dims=(2,), trials=5, seed=0, tol=1e-8)
        rep = check_monotone(build_realization("cauchy:1"), cfg)
        back = jsonio.report_from_json(json.loads(jsonio.dumps(jsonio.report_to_json(rep))))
        assert back == rep

    def test_load_validates_invariants(self):
        r = build_realization("cauchy:1")
        payload = jsonio.realization_to_json(r)
        payload["e"][0] = (0.5).hex()  # no longer a unit vector
        with pytest.raises(ValueError):
            jsonio.realization_from_json(payload)


def _schema_payloads():
    """One payload of every schema ``jsonio`` writes."""
    rng = np.random.default_rng(4)
    mu = DiscreteMeasure(tuple(random_pd(3, (0.5, 2), s) for s in range(4)),
                         np.array([0.1, 0.2, 0.3, 0.4]))
    nu = DiscreteMeasure(tuple(random_pd(3, (3, 5), s) for s in range(3)),
                         np.full(3, 1.0 / 3.0))
    ordered, coupling = stochastic_leq(mu, nu)
    reversed_, upper = stochastic_leq(nu, mu)
    assert ordered and not reversed_
    x = MatrixTuple((random_pd(3, (0.5, 3), 1), random_pd(3, (0.5, 3), 2)))
    cfg = SuiteConfig(dims=(2,), trials=5, seed=1, tol=1e-8)
    return {
        "real": jsonio.matrix_to_json(rng.standard_normal((3, 4))),
        "complex": jsonio.matrix_to_json(rng.standard_normal((2, 2))
                                         + 1j * rng.standard_normal((2, 2))),
        "tuple": jsonio.tuple_to_json(x),
        "realization": jsonio.realization_to_json(build_realization("geomean:0.3", n_nodes=8)),
        "measure": jsonio.measure_to_json(mu),
        "report": jsonio.report_to_json(check_herglotz(build_realization("cauchy:2"), cfg)),
        "coupling": jsonio.coupling_to_json(coupling),
        "upper_certificate": jsonio.upper_certificate_to_json(upper),
        "hull_certificate": jsonio.hull_certificate_to_json(comat_decompose(x)),
    }


def _directsum(spec):
    rng = np.random.default_rng(5)
    mu, nu = (DiscreteMeasure(tuple(random_pd(2, (0.5, 2), rng) for _ in range(2)),
                              np.full(2, 0.5)) for _ in range(2))
    return check_directsum_coupling(spec, mu, nu, couplings_sample(mu, nu, 5, seed=1))


_SUITE_CFG = SuiteConfig(dims=(2, 3), trials=8, seed=21)
_SUITE_RUNS = {
    "axioms": lambda: check_free_axioms(build_realization("cauchy:2"), _SUITE_CFG),
    "monotone": lambda: check_monotone(build_realization("harmonic:0.3,0.7"), _SUITE_CFG),
    "concave": lambda: check_concave(build_realization("geomean:0.5", n_nodes=24), _SUITE_CFG),
    "jensen": lambda: check_jensen_isometry(build_realization("power:0.5", n_nodes=24),
                                            _SUITE_CFG),
    "hypograph": lambda: check_hypograph_saturation(np.sqrt, _SUITE_CFG),
    "monotone-scalar": lambda: check_monotone_scalar(lambda x: x ** 2, _SUITE_CFG),
    "stochastic-monotone": lambda: check_stochastic_monotone("power:0.5", _SUITE_CFG),
    "directsum-pass": lambda: _directsum("harmonic"),
    "directsum-fail": lambda: _directsum(lambda m: m.atoms[0].entries),
}


class TestByteContract:
    """``jsonio.dumps`` writes the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

    def test_dumps_matches_stdlib_oracle(self):
        for schema, payload in _schema_payloads().items():
            oracle = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert jsonio.dumps(payload) == oracle, schema

    def test_int_and_longdouble_matrices_print_as_floats(self):
        ints = jsonio.matrix_to_json(np.arange(6).reshape(2, 3))
        assert ints["re_decimal"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert all(type(x) is float for row in ints["re_decimal"] for x in row)
        ld = np.array([[1.0, 2.5], [3.0, 4.0]], dtype=np.longdouble) / 3
        payload = jsonio.matrix_to_json(ld)
        assert payload["re"] == [[float(x).hex() for x in row] for row in ld]
        assert payload["re_decimal"] == [[float(x) for x in row] for row in ld]

    def test_rejects_what_json_rejects(self):
        for bad in ({"n": np.int64(3)}, {"x": [1.0, np.bool_(True)]}, {"s": {1, 2}},
                    {(1, 2): 0}):
            with pytest.raises(TypeError):
                json.dumps(bad, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                jsonio.dumps(bad)
        with pytest.raises(TypeError):  # json.dumps would write the key as "1"
            jsonio.dumps({1: 0.5})

    def test_realize_file_digest_pinned(self, tmp_path):
        # the dense layout keeps the sha256 of the file written before the one-pass
        # encoder replaced json.dumps, which pins the builder's coefficient bits
        r = build_realization("power:0.37", n_nodes=384)
        legacy = jsonio.dumps(legacy_realization_payload(r))
        assert hashlib.sha256(legacy.encode()).hexdigest() == (
            "7f0cbdf03e90aba607c12468e8471117b27f841c006a55c8cc265f7d3d2c76f3")
        # re-pinned when coefficients were stored as their nonzero entries
        out = tmp_path / "r.json"
        assert main(["realize", "--function", "power:0.37", "--nodes", "384",
                     "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8310d9866733c27d12a599f07d1de6396c1b7071c15bdbaf0ab166db13488638")
        for text in (legacy, out.read_text()):
            assert_same_realization(jsonio.realization_from_json(json.loads(text)), r)

    def test_report_file_digest_pinned(self, tmp_path, capsys):
        main(["realize", "--function", "cauchy:2", "-o", str(tmp_path / "r.json")])
        rc = main(["verify", "--suite", "herglotz", "--realization", str(tmp_path / "r.json"),
                   "--dims", "2,3", "--trials", "20", "--seed", "11",
                   "--report", str(tmp_path / "rep.json")])
        assert rc == 0
        assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == (
            "b5e2a7488498d35a3e927dc133820f578da177156a3ac1970bd6c9419f592655")

    @pytest.mark.parametrize("suite, digest", [
        ("axioms", "d1a3ad8b146104f2c03edf663cc275ac7c507e92e3eecacbd448fe9dd239f6f9"),
        ("monotone", "f68569241222c384fa6b346fb95039aaa1d4dead53970f2134bb0d0e96dd9740"),
        ("concave", "14db6e70e2977162470222125a81ce69fbcf71e2c4feaaf332b608a5ebb41ff0"),
        ("jensen", "b016e3a227a1713a20ca2adc28f5bfe9d60f815e0a13b35861b919618fdce8ea"),
        ("hypograph", "243d1bf45a8374e2c2458ee9924d0f3ded0a0139431c36daa24fe1cf68c0d8a4"),
        ("monotone-scalar", "845101816aa6dfa4062bafaa417a3194dacd4c2c88ed9e35834a4bf8384da569"),
        ("stochastic-monotone",
         "5c109af61aab149455d993a5b98376f40ee2cc0dff5754e4c91e0c08574f4457"),
        ("directsum-pass", "8bd2b6b3e1160b9ff80b50ab493992dedb10c12cbe8475dd3b244a1c75f54fd9"),
        ("directsum-fail", "41e63c181fce1bff7dc93419db9564d25e5c199e71cc29c0f2c3d89ea3c9be08"),
    ])
    def test_suite_report_digest_pinned(self, suite, digest):
        """Report bytes of every suite, pinned to the per-suite loops that preceded the
        shared tally (monotone-scalar and directsum-fail pin a failing run).
        monotone (harmonic:0.3,0.7) and concave (geomean:0.5) were re-pinned when
        two-variable pencils with A0 = 0 moved to the two-generator spectral path:
        only the last bits of worst_violation moved.  stochastic-monotone
        (power:0.5) was re-pinned when the power mean moved to Anderson mixing:
        worst_violation moved by 1.8e-14.

        Recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; another LAPACK
        build may round differently and needs its own digests.
        """
        rep = _SUITE_RUNS[suite]()
        payload = jsonio.dumps(jsonio.report_to_json(rep)).encode()
        assert hashlib.sha256(payload).hexdigest() == digest


class TestLoadChecks:
    """Malformed entries are structural errors (exit 2), not silent values."""

    def _eval(self, tmp_path, point_payload):
        main(["realize", "--function", "cauchy:1", "-o", str(tmp_path / "r.json")])
        (tmp_path / "x.json").write_text(json.dumps(point_payload))
        return main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json")])

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_point_exits_2(self, tmp_path, capsys, entry):
        payload = jsonio.matrix_to_json(np.eye(2))
        payload["re"][0][0] = entry
        assert self._eval(tmp_path, payload) == 2
        assert "error: non-finite entry" in capsys.readouterr().err

    def test_string_row_exits_2(self, tmp_path, capsys):
        assert self._eval(tmp_path, {"rows": 2, "cols": 2, "re": ["10", "01"]}) == 2
        assert "error: matrix row must be a JSON array" in capsys.readouterr().err

    def test_bool_entry_exits_2(self, tmp_path, capsys):
        payload = {"rows": 2, "cols": 2, "re": [[True, 0], [0, 1]]}
        assert self._eval(tmp_path, payload) == 2
        assert "error: expected a hex string or a JSON number, got bool" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys, entry):
        main(["realize", "--function", "cauchy:1", "-o", str(tmp_path / "r.json")])
        payload = read(tmp_path / "r.json")
        payload["A"][0]["re"][-1] = entry
        write(tmp_path / "r.json", payload)
        write(tmp_path / "x.json", jsonio.matrix_to_json(np.eye(2)))
        assert main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json")]) == 2
        assert "error: non-finite entry" in capsys.readouterr().err

    # lowering the pivot of the singular A1 of power:0.5 by a relative 1e-7
    # takes lambda_min beyond the tolerance; by 1e-8 it stays within it
    @pytest.mark.parametrize("lower,code,err", [
        (1e-7, 2, "error: A1: eigenvalue -1.778e-07 below -1.0e-09 * max(1, 2.766e+01)\n"),
        (1e-8, 0, ""),
    ])
    def test_lowered_pivot_is_checked_by_the_dense_rule(self, tmp_path, capsys, lower, code, err):
        main(["realize", "--function", "power:0.5", "--nodes", "8", "-o", str(tmp_path / "r.json")])
        payload = read(tmp_path / "r.json")
        a1 = payload["A"][0]
        assert a1["index"][0] == 0  # the pivot entry
        pivot = a1["re_decimal"][0] * (1 - lower)
        a1["re"][0], a1["re_decimal"][0] = pivot.hex(), pivot
        write(tmp_path / "r.json", payload)
        write(tmp_path / "x.json", jsonio.matrix_to_json(np.eye(2)))
        capsys.readouterr()
        assert main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json")]) == code
        assert capsys.readouterr().err == err

    def test_string_vector_rejected(self):
        payload = jsonio.realization_to_json(build_realization("cauchy:1"))
        payload["e"] = "10"
        with pytest.raises(ValueError, match="vector must be a JSON array"):
            jsonio.realization_from_json(payload)

    def test_json_numbers_load_like_hex(self):
        m = np.array([[1.5, -2.0], [0.25, 3.0]])
        payload = jsonio.matrix_to_json(m)
        payload["re"] = [[1.5, "-0x1.0000000000000p+1"], [0.25, 3]]
        assert np.array_equal(jsonio.matrix_from_json(payload), m)


class TestSchurCommand:
    def test_identity(self, tmp_path, capsys):
        write(tmp_path / "z.json", jsonio.matrix_to_json(np.eye(3)))
        rc = main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["re_decimal"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_scalar_formula(self, tmp_path, capsys):
        write(tmp_path / "z.json", jsonio.matrix_to_json(np.array([[2.0, 1.0], [1.0, 1.0]])))
        rc = main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["re_decimal"] == [[1.0]]

    def test_file_round_trip_matches_in_process(self, tmp_path, capsys):
        z = random_pd(5, (0.1, 5), 3)
        write(tmp_path / "z.json", jsonio.matrix_to_json(z.entries))
        rc = main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "2"])
        assert rc == 0
        got = jsonio.matrix_from_json(json.loads(capsys.readouterr().out))
        expected = shorted_operator(z, 2).s_short.entries
        assert np.array_equal(got, expected)

    def test_non_psd_exits_2(self, tmp_path, capsys):
        write(tmp_path / "z.json", jsonio.matrix_to_json(np.diag([1.0, -1.0])))
        rc = main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "1"])
        assert rc == 2

    def test_bad_json_exits_2(self, tmp_path):
        (tmp_path / "z.json").write_text("{not json")
        assert main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "1"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["schur", "--input", str(tmp_path / "nope.json"), "--pivot-dim", "1"]) == 2


class TestRealizeEval:
    def test_cauchy_build_reload_eval(self, tmp_path, capsys):
        rc = main(["realize", "--function", "cauchy:1", "-o", str(tmp_path / "r.json")])
        assert rc == 0
        payload = read(tmp_path / "r.json")
        assert payload["m"] == 2
        a0 = jsonio.matrix_from_json(payload["A0"])
        np.testing.assert_allclose(a0, [[0.0, 0.0], [0.0, 1.0]])
        write(tmp_path / "x.json", jsonio.matrix_to_json(np.array([[1.0]])))
        rc = main(["eval", "--realization", str(tmp_path / "r.json"),
                   "--point", str(tmp_path / "x.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["re_decimal"] == [[0.5]]

    @pytest.mark.parametrize("complex_", [False, True])
    def test_eval_legacy_and_compact_files_print_same_bytes(self, tmp_path, capsys, complex_):
        compact, legacy, x = (tmp_path / name for name in ("c.json", "d.json", "x.json"))
        assert main(["realize", "--function", "power:0.37", "--nodes", "24",
                     "-o", str(compact)]) == 0
        write(legacy, legacy_realization_payload(build_realization("power:0.37", n_nodes=24)))
        point = random_pd(3, (0.5, 4), 9).entries
        write(x, jsonio.matrix_to_json(point + 1j * np.eye(3) if complex_ else point))
        outs = []
        for path in (legacy, compact):
            capsys.readouterr()
            assert main(["eval", "--realization", str(path), "--point", str(x)]
                        + ["--complex"] * complex_) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert ('"im"' in outs[0]) == complex_

    def test_arithmetic_m1(self, tmp_path):
        rc = main(["realize", "--function", "arithmetic:0.5,0.5",
                   "-o", str(tmp_path / "r.json")])
        assert rc == 0
        assert read(tmp_path / "r.json")["m"] == 1

    def test_power_out_of_range_exits_2(self, tmp_path):
        assert main(["realize", "--function", "power:1.5",
                     "-o", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("spec,message", [("harmonic", "weights must be positive"),
                                              ("power", "power needs one exponent")])
    def test_parameters_come_from_the_spec(self, tmp_path, capsys, spec, message):
        assert main(["realize", "--function", spec, "-o", str(tmp_path / "r.json")]) == 2
        assert message in capsys.readouterr().err
        for flag, value in (("--weights", "0.2,0.3,0.5"), ("--t", "0.3")):
            with pytest.raises(SystemExit) as exc:
                main(["realize", "--function", spec, flag, value,
                      "-o", str(tmp_path / "r.json")])
            assert exc.value.code == 2

    def test_eval_outside_domain_exits_1(self, tmp_path, capsys):
        main(["realize", "--function", "cauchy:1", "-o", str(tmp_path / "r.json")])
        write(tmp_path / "x.json", jsonio.matrix_to_json(-2.0 * np.eye(2)))
        rc = main(["eval", "--realization", str(tmp_path / "r.json"),
                   "--point", str(tmp_path / "x.json")])
        assert rc == 1
        assert "outside realized domain" in capsys.readouterr().err

    def test_eval_complex_herglotz(self, tmp_path, capsys):
        main(["realize", "--function", "sqrt", "--nodes", "32",
              "-o", str(tmp_path / "r.json")])
        x = np.diag([1.0, 2.0]) + 1j * np.eye(2)
        write(tmp_path / "x.json", jsonio.matrix_to_json(x))
        rc = main(["eval", "--realization", str(tmp_path / "r.json"),
                   "--point", str(tmp_path / "x.json"), "--complex"])
        assert rc == 0
        f = jsonio.matrix_from_json(json.loads(capsys.readouterr().out))
        assert np.linalg.eigvalsh((f - f.conj().T) / 2j)[0] >= -1e-8

    def _eval_complex_at(self, tmp_path, x):
        # m = 3, A0 = 0, A1 = diag(1, 0, 1): the second trailing block is 0 * X
        r = PencilRealization(np.eye(3)[0], SymMatrix(np.zeros((3, 3))),
                              (SymMatrix(np.diag([1.0, 0.0, 1.0])),))
        write(tmp_path / "r.json", jsonio.realization_to_json(r))
        write(tmp_path / "x.json", jsonio.matrix_to_json(x))
        return main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json"), "--complex"])

    def test_eval_complex_singular_pivot_exits_1(self, tmp_path, capsys):
        assert self._eval_complex_at(tmp_path, np.diag([1.0, -1.0]) + 1j * np.eye(2)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("point outside realized domain: pivot complement block "
                                "singular (sigma_min = 0.000e+00); imaginary-part "
                                "positivity violated beyond tolerance\n")

    def test_eval_complex_indefinite_imaginary_part_exits_2(self, tmp_path, capsys):
        assert self._eval_complex_at(tmp_path, np.eye(2) + 1j * np.diag([1.0, -1.0])) == 2
        assert "definite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--complex"]])
    def test_eval_non_square_point_names_its_shape(self, tmp_path, capsys, flags):
        main(["realize", "--function", "sqrt", "--nodes", "8", "-o", str(tmp_path / "r.json")])
        write(tmp_path / "x.json", jsonio.matrix_to_json(np.ones((2, 3)) + 1j * np.ones((2, 3))))
        capsys.readouterr()
        assert main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json"), *flags]) == 2
        assert capsys.readouterr().err == "error: expected a square matrix, got shape (2, 3)\n"

    def test_identity_echoes_point(self, tmp_path, capsys):
        main(["realize", "--function", "identity", "-o", str(tmp_path / "r.json")])
        a = random_pd(3, (0.5, 2), 9)
        write(tmp_path / "x.json", jsonio.matrix_to_json(a.entries))
        rc = main(["eval", "--realization", str(tmp_path / "r.json"),
                   "--point", str(tmp_path / "x.json")])
        assert rc == 0
        got = jsonio.matrix_from_json(json.loads(capsys.readouterr().out))
        assert np.allclose(got, a.entries, atol=1e-12)


class TestVerifyCommand:
    def test_monotone_harmonic_passes(self, tmp_path, capsys):
        main(["realize", "--function", "harmonic:0.5,0.5", "-o", str(tmp_path / "r.json")])
        rc = main(["verify", "--suite", "monotone", "--realization",
                   str(tmp_path / "r.json"), "--dims", "2,3", "--trials", "15",
                   "--seed", "7", "--report", str(tmp_path / "rep.json")])
        assert rc == 0
        payload = read(tmp_path / "rep.json")
        assert payload["pass"] is True
        assert payload["version"] == jsonio.VERSION

    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        main(["realize", "--function", "cauchy:2", "-o", str(tmp_path / "r.json")])
        args = ["verify", "--suite", "axioms", "--realization", str(tmp_path / "r.json"),
                "--dims", "2", "--trials", "10", "--seed", "3"]
        assert main(args + ["--report", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--report", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_herglotz_complex_coefficients_pass(self, tmp_path, capsys):
        """Im F(X) >= 0 holds for complex Hermitian coefficients, where
        F(conj X) = conj F(X) does not."""
        write(tmp_path / "r.json", jsonio.realization_to_json(complex_gram_realization()))
        rc = main(["verify", "--suite", "herglotz", "--realization", str(tmp_path / "r.json"),
                   "--dims", "2,3", "--trials", "5", "--report", str(tmp_path / "rep.json")])
        assert rc == 0
        payload = read(tmp_path / "rep.json")
        assert payload["pass"] is True and payload["extras"] == {}

    def test_zero_dimension_exits_2(self, tmp_path, capsys):
        main(["realize", "--function", "cauchy:2", "-o", str(tmp_path / "r.json")])
        assert main(["verify", "--suite", "monotone", "--realization",
                     str(tmp_path / "r.json"), "--dims", "2,0"]) == 2
        assert "dims must be a nonempty list" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        main(["realize", "--function", "cauchy:2", "-o", str(tmp_path / "r.json")])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--realization", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_hypograph_suite_through_cli(self, tmp_path, capsys):
        main(["realize", "--function", "sqrt", "--nodes", "24", "-o", str(tmp_path / "r.json")])
        rc = main(["verify", "--suite", "hypograph", "--realization",
                   str(tmp_path / "r.json"), "--dims", "3", "--trials", "25",
                   "--seed", "5"])
        assert rc == 0

    @pytest.mark.parametrize("spec", ["sqrt", "cauchy:0.7", "geomean:0.3"])
    def test_hypograph_adapter_matches_pointwise_eval(self, spec):
        r = build_realization(spec, n_nodes=24)
        f = _scalar_from_realization(r)
        rng = np.random.default_rng(3)
        cols = [rng.uniform(0.1, 10.0, size=6) for _ in range(r.k)]
        got = f(*cols)
        pointwise = [eval_pencil(r, MatrixTuple(tuple(np.array([[c[j]]]) for c in cols)))
                     .entries[0, 0] for j in range(6)]
        np.testing.assert_allclose(got, pointwise, rtol=1e-12, atol=1e-14)
        scalar = f(*(float(c[0]) for c in cols))
        assert isinstance(scalar, float)
        assert abs(scalar - pointwise[0]) <= 1e-12 * abs(pointwise[0])


    @pytest.mark.parametrize("spec", ["sqrt", "cauchy:0.7", "geomean:0.3"])
    def test_hypograph_adapter_stack_equals_eval_row_by_row(self, spec):
        """(T, n) joint eigenvalues are T diagonal points of one stacked
        evaluation; each row has the bits of `eval` at its diagonal point."""
        r = build_realization(spec, n_nodes=24)
        f = _scalar_from_realization(r)
        rng = np.random.default_rng(4)
        cols = [rng.uniform(0.1, 10.0, size=(5, 3)) for _ in range(r.k)]
        got = f(*cols)
        assert got.shape == (5, 3)
        for t in range(5):
            want = np.diag(eval_pencil(r, MatrixTuple(tuple(np.diag(c[t]) for c in cols))).entries)
            assert got[t].tobytes() == want.tobytes()
            assert f(*(c[t] for c in cols)).tobytes() == want.tobytes()

    def test_hypograph_adapter_rejects_a_stack_as_eval_does(self):
        f = _scalar_from_realization(build_realization("sqrt", n_nodes=24))
        with pytest.raises(ValueError, match="non-finite entry"):
            f(np.array([[1.0, 2.0], [np.nan, 1.0]]))
        with pytest.raises(PencilDomainError):
            f(np.array([[1.0, 2.0], [-3.0, 1.0]]))

    def test_hypograph_domain_error_exits_2_with_its_message(self, tmp_path, capsys):
        """The first trial whose f raises, at its first call, gives the
        message: the pencil leaves its domain where lambda_max(X) > about 8."""
        edge = PencilRealization(np.array([1.0, 0.0]), np.diag([8e-9, 0.0]),
                                 (np.array([[1.0, 1.0], [1.0, 1.0 - 2e-9]]),))
        write(tmp_path / "r.json", jsonio.realization_to_json(edge))
        rc = main(["verify", "--suite", "hypograph", "--realization", str(tmp_path / "r.json"),
                   "--dims", "1,2,4", "--trials", "6", "--seed", "5"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: pencil not PSD at X: Schur complement eigenvalue -1.167e-08\n")


class TestOrderCommand:
    def _measure_file(self, tmp_path, name, atoms, weights):
        mu = DiscreteMeasure(tuple(atoms), np.asarray(weights))
        write(tmp_path / name, jsonio.measure_to_json(mu))

    def test_comparable_diracs_exit_0(self, tmp_path, capsys):
        self._measure_file(tmp_path, "mu.json", [np.eye(2)], [1.0])
        self._measure_file(tmp_path, "nu.json", [2 * np.eye(2)], [1.0])
        rc = main(["order", "--mu", str(tmp_path / "mu.json"),
                   "--nu", str(tmp_path / "nu.json"),
                   "--certificate", str(tmp_path / "c.json")])
        assert rc == 0
        cert = read(tmp_path / "c.json")
        assert cert["kind"] == "coupling"
        np.testing.assert_allclose(jsonio.matrix_from_json(cert["gamma"]), [[1.0]])

    def test_incomparable_exit_1_with_certificate(self, tmp_path, capsys):
        self._measure_file(tmp_path, "mu.json", [np.diag([2.0, 0.5]) + 0.01 * np.eye(2)], [1.0])
        self._measure_file(tmp_path, "nu.json", [np.diag([1.0, 1.0]) + 0.01 * np.eye(2)], [1.0])
        rc = main(["order", "--mu", str(tmp_path / "mu.json"),
                   "--nu", str(tmp_path / "nu.json"),
                   "--certificate", str(tmp_path / "c.json")])
        assert rc == 1
        cert = read(tmp_path / "c.json")
        assert cert["kind"] == "violated-upper-set"
        assert cert["mu_indices"] == [0]

    def test_equal_measures_exit_0(self, tmp_path, capsys):
        a = random_pd(2, (0.5, 2), 5).entries
        self._measure_file(tmp_path, "mu.json", [a, a + np.eye(2)], [0.5, 0.5])
        rc = main(["order", "--mu", str(tmp_path / "mu.json"),
                   "--nu", str(tmp_path / "mu.json")])
        assert rc == 0


class TestMeanCommand:
    def test_single_atom_returns_atom(self, tmp_path, capsys):
        a = random_pd(3, (0.5, 2), 6)
        mu = DiscreteMeasure((a,), np.array([1.0]))
        write(tmp_path / "mu.json", jsonio.measure_to_json(mu))
        rc = main(["mean", "--spec", "power:0.5", "--measure", str(tmp_path / "mu.json")])
        assert rc == 0
        got = jsonio.matrix_from_json(json.loads(capsys.readouterr().out))
        assert np.allclose(got, a.entries, atol=1e-12)

    def test_power_one_is_arithmetic(self, tmp_path, capsys):
        atoms = [random_pd(2, (0.5, 2), s) for s in (1, 2)]
        mu = DiscreteMeasure(tuple(atoms), np.array([0.25, 0.75]))
        write(tmp_path / "mu.json", jsonio.measure_to_json(mu))
        rc = main(["mean", "--spec", "power:1", "--measure", str(tmp_path / "mu.json")])
        assert rc == 0
        got = jsonio.matrix_from_json(json.loads(capsys.readouterr().out))
        oracle = 0.25 * atoms[0].entries + 0.75 * atoms[1].entries
        assert np.allclose(got, oracle, atol=1e-15)

    def test_split_atom_identical_bytes(self, tmp_path, capsys):
        a = random_pd(2, (0.5, 2), 8)
        b = random_pd(2, (0.5, 2), 9)
        whole = DiscreteMeasure((a, b), np.array([0.5, 0.5]))
        split = DiscreteMeasure((a, b, b), np.array([0.5, 0.25, 0.25]))
        outputs = []
        for i, mu in enumerate((whole, split)):
            write(tmp_path / f"m{i}.json", jsonio.measure_to_json(mu))
            rc = main(["mean", "--spec", "power:0.5", "--measure",
                       str(tmp_path / f"m{i}.json")])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_permuted_atoms_same_residual(self, tmp_path, capsys, seed):
        # The residual once summed the per-atom terms in atom order: on two of
        # these draws it differed between a measure and its permutation.
        rng = np.random.default_rng(seed)
        atoms = [random_pd(3, (0.5, 2), rng) for _ in range(4)]
        w = rng.dirichlet(np.ones(4))
        streams = []
        for i, order in enumerate(([0, 1, 2, 3], [3, 1, 0, 2])):
            mu = DiscreteMeasure(tuple(atoms[k] for k in order), w[order])
            write(tmp_path / f"m{i}.json", jsonio.measure_to_json(mu))
            assert main(["mean", "--spec", "power:0.5", "--measure",
                         str(tmp_path / f"m{i}.json")]) == 0
            streams.append(capsys.readouterr())
        assert streams[0].out == streams[1].out
        assert streams[0].err == streams[1].err
        assert streams[0].err.startswith("fixed-point residual: ")

    def test_non_convergence_exits_1(self, tmp_path, capsys, monkeypatch):
        # a map that never contracts: every step changes X by ||I||_F = sqrt(2)
        monkeypatch.setattr("loewner.measures._geomean_pair",
                            lambda x, a, t: np.broadcast_to(x + np.eye(2), a.shape))
        atoms = [random_pd(2, (0.5, 2), s) for s in (1, 2)]
        write(tmp_path / "mu.json", jsonio.measure_to_json(
            DiscreteMeasure(tuple(atoms), np.array([0.5, 0.5]))))
        rc = main(["mean", "--spec", "power:0.5", "--measure", str(tmp_path / "mu.json")])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == ("fixed point did not converge: power mean did not converge in 500 "
                       "iterations (last change 1.414e+00) (residual 1.414e+00)\n")

    def test_bad_spec_exits_2(self, tmp_path):
        a = random_pd(2, (0.5, 2), 8)
        write(tmp_path / "mu.json", jsonio.measure_to_json(DiscreteMeasure((a,), np.array([1.0]))))
        assert main(["mean", "--spec", "median", "--measure", str(tmp_path / "mu.json")]) == 2

    def test_no_tol_option(self, tmp_path, capsys):
        a = random_pd(2, (0.5, 2), 8)
        write(tmp_path / "mu.json", jsonio.measure_to_json(DiscreteMeasure((a,), np.array([1.0]))))
        with pytest.raises(SystemExit) as exc:
            main(["mean", "--spec", "power:0.5", "--measure", str(tmp_path / "mu.json"),
                  "--tol", "1e-9"])
        assert exc.value.code == 2


class TestDecomposeCommand:
    def test_scalar_identity_tuple(self, tmp_path, capsys):
        write(tmp_path / "x.json", jsonio.matrix_to_json(2.0 * np.eye(3)))
        rc = main(["decompose", "--point", str(tmp_path / "x.json"),
                   "-o", str(tmp_path / "cert.json")])
        assert rc == 0
        cert = read(tmp_path / "cert.json")
        assert cert["kind"] == "hull-decomposition"
        assert cert["block_dims"] == [3]

    def test_pair_reload_and_reconstruct(self, tmp_path, capsys):
        x = MatrixTuple((random_pd(3, (0.5, 3), 1), random_pd(3, (0.5, 3), 2)))
        write(tmp_path / "x.json", jsonio.tuple_to_json(x))
        rc = main(["decompose", "--point", str(tmp_path / "x.json"),
                   "-o", str(tmp_path / "cert.json")])
        assert rc == 0
        cert = read(tmp_path / "cert.json")
        v = jsonio.matrix_from_json(cert["isometry"])
        tuples = jsonio.matrix_from_json(cert["scalar_tuples"])
        dims = cert["block_dims"]
        reps = np.repeat(tuples, dims, axis=0)
        for idx, xi in enumerate(x.items):
            rebuilt = v.T @ (reps[:, idx][:, None] * v)
            assert np.linalg.norm(rebuilt - xi.entries, 2) <= 1e-10

    def test_non_pd_exits_2(self, tmp_path, capsys):
        write(tmp_path / "x.json", jsonio.matrix_to_json(np.diag([1.0, -1.0])))
        assert main(["decompose", "--point", str(tmp_path / "x.json"),
                     "-o", str(tmp_path / "cert.json")]) == 2


# the arguments each command with ``--tol`` requires, besides ``--tol``
TOL_COMMANDS = {"schur": ["--input", "z.json", "--pivot-dim", "1"],
                "eval": ["--realization", "r.json", "--point", "x.json"],
                "verify": ["--suite", "monotone", "--realization", "r.json"],
                "order": ["--mu", "mu.json", "--nu", "nu.json"]}


class TestTolOption:
    # NaN or inf switched the check off: `schur --tol nan` shorted diag(1, -5)
    # and exited 0, and `order --tol nan` denied mu <= mu
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    @pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
    def test_rejects_non_finite_or_negative_tol(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *TOL_COMMANDS[command], f"--tol={value}"])
        assert exc.value.code == 2
        assert f"--tol: must be finite and >= 0, got {value}" in capsys.readouterr().err

    # argparse's own negative-number pattern has no exponent form: without
    # the parser's wider one, "-1e-9" after a space would read as an option
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    @pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
    def test_rejects_space_separated_tol(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *TOL_COMMANDS[command], "--tol", value])
        assert exc.value.code == 2
        assert f"--tol: must be finite and >= 0, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol,value", [(["--tol", "1e-9"], 1e-9), (["--tol=1e-9"], 1e-9),
                                           (["--tol", "0"], 0.0)])
    def test_reads_both_tol_forms(self, tol, value):
        for command, args in TOL_COMMANDS.items():
            assert build_parser().parse_args([command, *args, *tol]).tol == value

    def test_defaults_are_the_library_defaults(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        args = {c: build_parser().parse_args([c, *a]) for c, a in TOL_COMMANDS.items()}
        assert args["schur"].tol == default(shorted_operator, "psd_tol")
        assert args["eval"].tol == default(eval_pencil, "tol")
        assert args["order"].tol == default(stochastic_leq, "tol")
        v = args["verify"]
        dims = tuple(int(d) for d in v.dims.split(","))
        assert SuiteConfig(dims, v.trials, v.seed, v.tol) == SuiteConfig()


class TestSharedParser:
    """`main` builds its parser once per process; no call's options reach
    the next call."""

    def test_one_build_across_calls(self, tmp_path, capsys, monkeypatch):
        builds = []

        def counting():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for spec in ("identity", "cauchy:1", "sqrt"):
                assert main(["realize", "--function", spec, "--nodes", "8",
                             "-o", str(tmp_path / "r.json")]) == 0
            assert main(["eval", "--realization", str(tmp_path / "r.json"),
                         "--point", str(tmp_path / "nope.json")]) == 2
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_complex_flag_does_not_carry_over(self, tmp_path, capsys):
        main(["realize", "--function", "sqrt", "--nodes", "32", "-o", str(tmp_path / "r.json")])
        x = np.diag([1.0, 2.0])
        write(tmp_path / "z.json", jsonio.matrix_to_json(x + 1j * np.eye(2)))
        write(tmp_path / "x.json", jsonio.matrix_to_json(x))
        args = ["eval", "--realization", str(tmp_path / "r.json"), "--point"]
        assert main([*args, str(tmp_path / "z.json"), "--complex"]) == 0
        assert '"im"' in capsys.readouterr().out
        assert main([*args, str(tmp_path / "x.json")]) == 0
        got = json.loads(capsys.readouterr().out)
        r = jsonio.realization_from_json(read(tmp_path / "r.json"))
        assert "im" not in got
        assert np.array_equal(jsonio.matrix_from_json(got), eval_pencil(r, [x]).entries)

    def test_report_option_does_not_carry_over(self, tmp_path, capsys):
        main(["realize", "--function", "cauchy:2", "-o", str(tmp_path / "r.json")])
        args = ["verify", "--suite", "axioms", "--realization", str(tmp_path / "r.json"),
                "--dims", "2", "--trials", "3"]
        report = tmp_path / "rep.json"
        assert main([*args, "--report", str(report)]) == 0
        report.unlink()
        assert main(args) == 0
        assert not report.exists()

    def test_no_argv_reads_sys_argv(self, tmp_path, monkeypatch):
        # as the console script calls it
        out = tmp_path / "r.json"
        monkeypatch.setattr(sys, "argv", ["loewner", "realize", "--function", "identity",
                                          "-o", str(out)])
        assert main() == 0
        assert read(out)["m"] == 1


class TestMissingField:
    """A JSON file without a required field names the field and exits 2."""

    def test_measure(self, tmp_path, capsys):
        write(tmp_path / "mu.json", jsonio.matrix_to_json(np.eye(2)))  # a matrix, not a measure
        assert main(["mean", "--spec", "power:0.5", "--measure", str(tmp_path / "mu.json")]) == 2
        assert capsys.readouterr().err == "error: missing field 'atoms'\n"

    def test_realization(self, tmp_path, capsys):
        payload = jsonio.realization_to_json(build_realization("cauchy:1"))
        del payload["e"]
        write(tmp_path / "r.json", payload)
        write(tmp_path / "x.json", jsonio.matrix_to_json(np.eye(2)))
        assert main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == "error: missing field 'e'\n"

    def test_tuple_point(self, tmp_path, capsys):
        main(["realize", "--function", "geomean:0.5", "--nodes", "8",
              "-o", str(tmp_path / "r.json")])
        write(tmp_path / "x.json", {"k": 2, "n": 2})
        capsys.readouterr()
        assert main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == "error: missing field 'items'\n"


class TestInputImmutability:
    def test_commands_do_not_mutate_inputs(self, tmp_path, capsys):
        z = random_pd(4, (0.5, 2), 11)
        write(tmp_path / "z.json", jsonio.matrix_to_json(z.entries))
        before = (tmp_path / "z.json").read_bytes()
        main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "2"])
        assert (tmp_path / "z.json").read_bytes() == before


# Loads the files and runs eval, order and mean on them in a fresh process,
# then prints whether scipy.special was imported.
SCIPY_SPECIAL_PROBE = """
import json
import sys
import loewner
from loewner.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print("scipy.special" in sys.modules)
"""


def test_file_commands_do_not_import_scipy_special(tmp_path):
    # scipy.special is some 24 MB of resident memory; only realizing a
    # quadrature function needs it
    r, x, mu, nu = (str(tmp_path / f"{name}.json") for name in ("r", "x", "mu", "nu"))
    main(["realize", "--function", "power:0.5", "--nodes", "8", "-o", r])
    write(Path(x), jsonio.matrix_to_json(np.diag([1.0, 2.0])))
    for path, scale in ((mu, 1.0), (nu, 2.0)):
        write(Path(path), jsonio.measure_to_json(
            DiscreteMeasure((scale * np.eye(2),), np.array([1.0]))))
    argvs = [["eval", "--realization", r, "--point", x], ["order", "--mu", mu, "--nu", nu],
             ["mean", "--spec", "power:0.5", "--measure", nu]]
    src = str(Path(loewner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", SCIPY_SPECIAL_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
