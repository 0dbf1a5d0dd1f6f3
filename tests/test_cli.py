"""Tests for the CLI: serialization fidelity, exit codes, determinism."""

import hashlib
import json

import numpy as np
import pytest

from loewner import (
    DiscreteMeasure,
    MatrixTuple,
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
from loewner import jsonio
from loewner.cli import _scalar_from_realization, main


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
        assert np.array_equal(back.e, r.e)
        assert np.array_equal(back.a0.entries, r.a0.entries)
        for a, b in zip(back.coeffs, r.coeffs):
            assert np.array_equal(a.entries, b.entries)

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
        # sha256 of the file written before the one-pass encoder replaced json.dumps
        out = tmp_path / "r.json"
        assert main(["realize", "--function", "power:0.37", "--nodes", "384",
                     "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7f0cbdf03e90aba607c12468e8471117b27f841c006a55c8cc265f7d3d2c76f3")

    def test_report_file_digest_pinned(self, tmp_path, capsys):
        main(["realize", "--function", "cauchy:2", "-o", str(tmp_path / "r.json")])
        rc = main(["verify", "--suite", "herglotz", "--realization", str(tmp_path / "r.json"),
                   "--dims", "2,3", "--trials", "20", "--seed", "11",
                   "--report", str(tmp_path / "rep.json")])
        assert rc == 0
        assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == (
            "0449ebdde2e2bff8e269d3b0853ffede9a710de18ffc6384788c3762e0165f76")

    @pytest.mark.parametrize("suite, digest", [
        ("axioms", "d1a3ad8b146104f2c03edf663cc275ac7c507e92e3eecacbd448fe9dd239f6f9"),
        ("monotone", "3a67562538fae0fce56bd020209c68f3782593da0dca862d3abd5f854e505831"),
        ("concave", "764c927b92533141cb6979cf6ace6160c8e1f610848c8b7a3c7cd7f1e0f6d70e"),
        ("jensen", "b016e3a227a1713a20ca2adc28f5bfe9d60f815e0a13b35861b919618fdce8ea"),
        ("hypograph", "243d1bf45a8374e2c2458ee9924d0f3ded0a0139431c36daa24fe1cf68c0d8a4"),
        ("monotone-scalar", "845101816aa6dfa4062bafaa417a3194dacd4c2c88ed9e35834a4bf8384da569"),
        ("stochastic-monotone",
         "61e99eba675d139ec22fc0315df3d43019779444dfec7c8629501ddd4957e847"),
        ("directsum-pass", "8bd2b6b3e1160b9ff80b50ab493992dedb10c12cbe8475dd3b244a1c75f54fd9"),
        ("directsum-fail", "41e63c181fce1bff7dc93419db9564d25e5c199e71cc29c0f2c3d89ea3c9be08"),
    ])
    def test_suite_report_digest_pinned(self, suite, digest):
        """Report bytes of every suite, pinned to the per-suite loops that preceded the
        shared tally (monotone-scalar and directsum-fail pin a failing run).

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
        payload["A"][0]["re"][1][1] = entry
        write(tmp_path / "r.json", payload)
        write(tmp_path / "x.json", jsonio.matrix_to_json(np.eye(2)))
        assert main(["eval", "--realization", str(tmp_path / "r.json"),
                     "--point", str(tmp_path / "x.json")]) == 2
        assert "error: non-finite entry" in capsys.readouterr().err

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

    def test_arithmetic_m1(self, tmp_path):
        rc = main(["realize", "--function", "arithmetic:0.5,0.5",
                   "-o", str(tmp_path / "r.json")])
        assert rc == 0
        assert read(tmp_path / "r.json")["m"] == 1

    def test_power_out_of_range_exits_2(self, tmp_path):
        assert main(["realize", "--function", "power:1.5",
                     "-o", str(tmp_path / "r.json")]) == 2

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


class TestInputImmutability:
    def test_commands_do_not_mutate_inputs(self, tmp_path, capsys):
        z = random_pd(4, (0.5, 2), 11)
        write(tmp_path / "z.json", jsonio.matrix_to_json(z.entries))
        before = (tmp_path / "z.json").read_bytes()
        main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "2"])
        assert (tmp_path / "z.json").read_bytes() == before
