"""Property tests for ``jsonio``: the byte contract, bit-exact round trips and
load-time rejection of malformed payloads."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import legacy_realization_payload
from loewner import (DiscreteMeasure, PencilRealization, SuiteConfig, SymMatrix,
                     build_realization, check_monotone, eval_pencil, random_pd)
from loewner import jsonio
from loewner.cli import main
from loewner.pencil import (Arrowhead, _aux_blocks_diagonal, _diagonal, _is_e1,
                            householder_to_e1)

PROPERTY = settings(settings.get_profile("loewner"), max_examples=200)

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     float("nan"), float("inf"), float("-inf")])
TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800"])
SCALARS = (st.none() | st.booleans() | st.integers(min_value=-2**200, max_value=2**200)
           | FLOATS | TEXT)


def _containers(children):
    return (st.lists(children, max_size=6)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=6))


JSON_TREES = st.recursive(
    SCALARS | st.lists(FLOATS, max_size=8) | st.lists(TEXT, max_size=8), _containers,
    max_leaves=40)


@PROPERTY
@given(JSON_TREES)
def test_dumps_matches_stdlib_oracle(tree):
    assert jsonio.dumps(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5)


@PROPERTY
@given(hnp.arrays(np.float64, SHAPES, elements=FINITE), st.booleans(), st.data())
def test_matrix_round_trip_bit_exact(re, complex_, data):
    m = re
    if complex_:
        im = data.draw(hnp.arrays(np.float64, re.shape, elements=FINITE))
        m = re.astype(complex)
        m.imag = im
    back = jsonio.matrix_from_json(json.loads(jsonio.dumps(jsonio.matrix_to_json(m))))
    assert back.dtype == m.dtype
    assert back.tobytes() == m.tobytes()


def _realization():
    return jsonio.realization_to_json(build_realization("cauchy:1"))


def _legacy_realization():
    return legacy_realization_payload(build_realization("cauchy:1"))


def _point():
    return jsonio.matrix_to_json(np.array([[2.0, 0.5], [0.5, 1.0]]))


def _measure():
    atoms = (random_pd(2, (0.5, 2), 0), random_pd(2, (0.5, 2), 1))
    return jsonio.measure_to_json(DiscreteMeasure(atoms, np.array([0.25, 0.75])))


_REALIZATION_KEYS = ("k", "m", "e", "A0", "A")
_REALIZATION_HEADERS = (("k",), ("m",), ("A0", "rows"), ("A", 0, "cols"))
# (payload factory, required keys, header keys, vector paths, dense matrix paths,
# compact matrix paths); decimal mirrors are not read on load, so they are never
# mutated.  The dense realization is the layout older files have.
SCHEMAS = {
    "realization": (_legacy_realization, _REALIZATION_KEYS, _REALIZATION_HEADERS,
                    (("e",),), (("A0",), ("A", 0)), ()),
    "realization-compact": (_realization, _REALIZATION_KEYS, _REALIZATION_HEADERS,
                            (("e",),), (), (("A", 0),)),
    "point": (_point, ("rows", "cols", "re"), (("rows",), ("cols",)), (), ((),), ()),
    "measure": (_measure, ("n", "atoms", "weights"), (("n",),),
                (("weights",),), (("atoms", 0), ("atoms", 1)), ()),
}
BAD_ENTRIES = ["nan", "inf", "-inf", float("nan"), float("inf"), float("-inf"), True, False,
               None, [], {}, ["0x1p+0"], "zz", "", 10**400, "0x1p99999"]
BAD_ROWS = ["10", "0x1p+0", 1.0, True, None, {}, {"0": "0x1p+0"}, []]
BAD_HEADERS = [-1, "x", None, [], {}, float("nan"), float("inf"), 2.5, True]


def _compact_mutations(c):
    """Name -> (key, malformed value) for a compact payload ``c`` whose ``index``
    is ``[0, 1, 2, 3]`` (every entry of a 2 x 2 matrix)."""
    ix, re = c["index"], c["re"]
    assert ix == list(range(4)) == list(range(c["rows"] * c["cols"]))
    return {
        "index-negative": ("index", [-1, *ix[1:]]),
        "index-past-end": ("index", [*ix[:-1], 4]),
        "index-past-int64": ("index", [*ix[:-1], 2 ** 64]),
        "index-duplicate": ("index", [ix[0], *ix[:-1]]),
        "index-unsorted": ("index", [ix[1], ix[0], *ix[2:]]),
        "index-boolean": ("index", [False, True, *ix[2:]]),
        "index-float": ("index", [float(i) for i in ix]),
        "index-string": ("index", [str(i) for i in ix]),
        "index-nested": ("index", [[i] for i in ix]),
        "index-not-a-list": ("index", "0123"),
        "index-scalar": ("index", 0),
        "index-short": ("index", ix[:-1]),
        "re-short": ("re", re[:-1]),
        "re-long": ("re", re + re[:1]),
        "re-single": ("re", re[:1]),  # numpy would broadcast it to every index
        "im-short": ("im", re[:-1]),
        "im-long": ("im", re + re[:1]),
    }


COMPACT_MUTATIONS = sorted(_compact_mutations(_realization()["A"][0]))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@st.composite
def mutations(draw, schema):
    """A payload of ``schema`` with one authoritative field made invalid."""
    make, required, headers, vectors, dense, compact = SCHEMAS[schema]
    payload = make()
    sites = [("drop", (key,)) for key in required]
    sites += [("header", path) for path in headers]
    sites += [("entry", path) for path in vectors + dense + compact]
    sites += [(kind, path) for path in dense for kind in ("row", "drop-re")]
    sites += [(kind, path) for path in compact
              for kind in ("drop-re", "drop-index", *COMPACT_MUTATIONS)]
    kind, path = draw(st.sampled_from(sites))
    if kind == "drop":
        del payload[path[0]]
    elif kind in ("drop-re", "drop-index"):
        del _at(payload, path)[kind.removeprefix("drop-")]
    elif kind in COMPACT_MUTATIONS:
        target = _at(payload, path)
        key, value = _compact_mutations(target)[kind]
        target[key] = value
    elif kind == "header":
        parent = _at(payload, path[:-1])
        parent[path[-1]] = draw(st.sampled_from(BAD_HEADERS + [parent[path[-1]] + 1]))
    else:
        target = _at(payload, path)
        values = target if isinstance(target, list) else target["re"]
        i = draw(st.integers(0, len(values) - 1))
        if kind == "row":
            values[i] = draw(st.sampled_from(BAD_ROWS))
        elif isinstance(values[i], list):
            values[i][draw(st.integers(0, len(values[i]) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
        else:
            values[i] = draw(st.sampled_from(BAD_ENTRIES))
    return payload


def _run(tmp_path, schema, payload):
    path = tmp_path / f"{schema}.json"
    path.write_text(json.dumps(payload))
    if schema == "measure":
        return main(["mean", "--spec", "arithmetic", "--measure", str(path)])
    realization, point = tmp_path / "r.json", tmp_path / "x.json"
    realization.write_text(jsonio.dumps(_realization()))
    point.write_text(jsonio.dumps(_point()))
    return main(["eval", "--realization", str(path if schema != "point" else realization),
                 "--point", str(path if schema == "point" else point)])


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_valid_payload_exits_0(tmp_path, capsys, schema):
    make = SCHEMAS[schema][0]
    assert _run(tmp_path, schema, make()) == 0


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_mutated_payload_exits_2(tmp_path, capsys, schema):
    @settings(PROPERTY, max_examples=80)
    @given(mutations(schema))
    def check(payload):
        assert _run(tmp_path, schema, payload) == 2
        assert capsys.readouterr().err.startswith("error: ")

    check()


@pytest.mark.parametrize("name", COMPACT_MUTATIONS)
def test_malformed_compact_payload_exits_2(tmp_path, capsys, name):
    payload = _realization()
    coeff = payload["A"][0]
    key, value = _compact_mutations(coeff)[name]
    coeff[key] = value
    with pytest.raises(ValueError):  # not an IndexError or OverflowError from numpy
        jsonio.matrix_from_json(coeff)
    assert _run(tmp_path, "realization-compact", payload) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("side", [2 ** 28, 2 ** 31])  # 512 PiB, and past 2**64 bytes
def test_compact_header_too_large_exits_2(tmp_path, capsys, side):
    (tmp_path / "z.json").write_text(json.dumps(
        {"rows": side, "cols": side, "index": [], "re": []}))
    assert main(["schur", "--input", str(tmp_path / "z.json"), "--pivot-dim", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# a float or boolean equal to the true header value used to load as that integer
@pytest.mark.parametrize("load, make, path, value", [
    (jsonio.realization_from_json, _realization, ("k",), True),
    (jsonio.realization_from_json, _realization, ("m",), 2.9),
    (jsonio.realization_from_json, _legacy_realization, ("m",), 2.0),
    (jsonio.matrix_from_json, lambda: _realization()["A"][0], ("rows",), 2.5),
    (jsonio.matrix_from_json, _point, ("cols",), 2.7),
    (jsonio.measure_from_json, _measure, ("n",), 2.0),
    (jsonio.tuple_from_json, lambda: {"k": 1, "n": 2, "items": [_point()]}, ("k",), True),
])
def test_integer_header_rejects_floats_and_booleans(load, make, path, value):
    payload = make()
    _at(payload, path[:-1])[path[-1]] = value
    with pytest.raises(ValueError, match=repr(path[-1])):
        load(payload)


def _report():
    rep = check_monotone(build_realization("cauchy:1"), SuiteConfig(dims=(2,), trials=3))
    return json.loads(jsonio.dumps(jsonio.report_to_json(rep)))


def test_report_payload_round_trips():
    payload = _report()
    assert jsonio.report_to_json(jsonio.report_from_json(payload)) == payload
    payload["first_failure_seed"] = 7  # an integer label is kept as is
    assert jsonio.report_from_json(payload).first_failure_seed == 7


# one test per typed field; a JSON boolean is not an integer and vice versa
BAD_REPORT_FIELDS = {
    "pass": ["false", "true", 0, 1, None, 1.0],
    "trials": [2.9, 3.0, "3", True, None],
    "failures": [0.0, "0", False, None],
    "skipped": [0.0, "0", False, None],
    "seed": [0.0, "0", False, None, [0]],
    "first_failure_seed": ["x", 1.5, True, [1]],
    "suite": [5, None, True, ["monotone"], {}],
    "dims": [[2.9, True], [2, True], [2.0], ["2"], [None], 2, "2,3", None],
    "extras": [[], "s", 3, None],
}


@pytest.mark.parametrize("field", sorted(BAD_REPORT_FIELDS))
def test_report_field_type_checked_on_load(field):
    for bad in BAD_REPORT_FIELDS[field]:
        payload = _report()
        payload[field] = bad
        with pytest.raises(ValueError, match=field):
            jsonio.report_from_json(payload)


# the array fields of the measure and point loaders, each with its loader
BAD_ARRAY_FIELDS = {
    "atoms": (jsonio.measure_from_json, _measure),
    "items": (jsonio.tuple_from_json, lambda: {"k": 1, "n": 2, "items": [_point()]}),
}


@pytest.mark.parametrize("field", sorted(BAD_ARRAY_FIELDS))
@pytest.mark.parametrize("bad", ["s", 3, None, True, {"re": [[1.0]]}])
def test_array_field_type_checked_on_load(field, bad):
    load, make = BAD_ARRAY_FIELDS[field]
    payload = make()
    payload[field] = bad
    with pytest.raises(ValueError, match=f"field '{field}' has type"):
        load(payload)


# The oracle of the vector reader and writer, dense as the loader, writer and
# coefficient table were before coefficients were kept as arrowhead vectors:
# every payload read as matrices and symmetrized by `SymMatrix`, the table
# built from those matrices, and every coefficient written from them.
def _dense_from_json(d):
    """``(e, mats)``: the unit vector and symmetrized dense coefficients
    (A0 first) of a realization payload."""
    mats = [SymMatrix(jsonio.matrix_from_json(p)).entries for p in [d["A0"], *d["A"]]]
    return jsonio._unhex_vector(d["e"]), mats


def _dense_table(e, mats):
    """The coefficient table of `PencilRealization._layout` from the dense
    coefficients: rotated by e, arrowhead rows ``[diag(c), c[1:, 0]]``, or
    the stored diagonals of a parallel-sum pencil, or None."""
    if mats[0].shape[0] == 1:
        return None
    q = householder_to_e1(e)
    rotated = mats if _is_e1(e) else [q @ c @ q.T for c in mats]
    if _aux_blocks_diagonal(rotated[0], rotated[1:]):
        return np.array([np.concatenate([np.diag(c), c[1:, 0]]) for c in rotated])
    if _diagonal(mats):
        return np.array([np.diag(c) for c in mats])
    return None


def _dense_coefficients_to_json(mats):
    return [jsonio._compact_matrix_to_json(c) for c in mats]


def _assert_matches_dense(r, e, mats):
    """``r`` has the unit vector ``e`` and the dense coefficients ``mats``,
    byte for byte, and the coefficient table built from them."""
    assert r.e.tobytes() == e.tobytes() and (r.k, r.m) == (len(mats) - 1, e.shape[0])
    for x, y in zip((r.a0.entries, *(c.entries for c in r.coeffs)), mats):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    ta, tb = r._layout[0], _dense_table(e, mats)
    assert (ta is None) == (tb is None)
    assert ta is None or (ta.dtype == tb.dtype and ta.tobytes() == tb.tobytes())


# the node count sizes only the quadrature realizations
BUILDER_SPECS = ([(spec, n) for spec in ("sqrt", "power:0.37", "geomean:0.5")
                  for n in (8, 24, 96, 384)]
                 + [(spec, 8) for spec in ("cauchy:2", "harmonic:0.3,0.7", "harmonic:0.2,0.3,0.5",
                                           "arithmetic:0.3,0.7", "identity", "constant:2",
                                           "affine:1,2,3")])


@pytest.mark.parametrize("spec,n_nodes", BUILDER_SPECS)
def test_arrowhead_vectors_write_and_load_as_dense_code(spec, n_nodes):
    r = build_realization(spec, n_nodes=n_nodes)
    mats = [c.entries for c in (r.a0, *r.coeffs)]
    payload = jsonio.realization_to_json(r)
    assert all(isinstance(c, Arrowhead) for c in r.coefficients)
    assert [payload["A0"], *payload["A"]] == _dense_coefficients_to_json(mats)
    loaded = json.loads(jsonio.dumps(payload))
    back = jsonio.realization_from_json(loaded)
    assert all(isinstance(c, Arrowhead) for c in back.coefficients)
    _assert_matches_dense(back, *_dense_from_json(loaded))
    _assert_matches_dense(back, r.e, mats)


def _raw_payload(*coeffs):
    """A realization file with e = e1 and the arrays ``coeffs`` (A0 first)
    written compact exactly as given, not symmetrized."""
    m = coeffs[0].shape[0]
    return json.loads(jsonio.dumps({
        "k": len(coeffs) - 1, "m": m, "e": [x.hex() for x in np.eye(m)[0].tolist()],
        "A0": jsonio._compact_matrix_to_json(coeffs[0]),
        "A": [jsonio._compact_matrix_to_json(c) for c in coeffs[1:]]}))


RAW_COEFFICIENTS = {
    # -0.0 on the diagonal and in both couplings survives
    "signed-zeros": (np.array([[1.0, -0.0, 0.0], [-0.0, -0.0, 0.0], [0.0, 0.0, 2.0]]),
                     np.array([[3.0, 1.0, -0.0], [1.0, 2.0, 0.0], [-0.0, 0.0, 1.0]])),
    # conjugate couplings, and a real coupling whose two zero imaginary parts
    # are both +0.0 (the symmetrized row is then not the conjugated column)
    "complex-hermitian": (np.zeros((4, 4)),
                          np.array([[4, 1 - 2j, 0.5j, 0.5], [1 + 2j, 3, 0, 0],
                                    [-0.5j, 0, 2, 0], [0.5, 0, 0, 1]])),
    # pivot row and column differ, in value and in the sign of a zero
    "asymmetric": (np.array([[1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                   np.array([[3.0, 1.0, 0.5], [1.5, 2.0, 0.0], [0.25, 0.0, 1.0]])),
    # a coupling z = -0.5j: the sign of its zero real part survives a second
    # symmetrization only if that halves real and imaginary parts on their own
    "complex-signed-zero": (np.zeros((2, 2)), np.array([[4, -0.5j], [np.conj(-0.5j), 3]])),
    # A1 couples two trailing coordinates: A0 loads as vectors, A1 dense
    "non-arrowhead-index": (np.diag([1.0, 0.0, 0.0]),
                            np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])),
}


@pytest.mark.parametrize("name", sorted(RAW_COEFFICIENTS))
def test_compact_payloads_load_as_dense_code(name):
    payload = _raw_payload(*RAW_COEFFICIENTS[name])
    back, (e, mats) = jsonio.realization_from_json(payload), _dense_from_json(payload)
    assert ([isinstance(c, Arrowhead) for c in back.coefficients]
            == [True, name != "non-arrowhead-index"])
    _assert_matches_dense(back, e, mats)
    written = jsonio.realization_to_json(back)
    assert [written["A0"], *written["A"]] == _dense_coefficients_to_json(mats)


def _rewritten(text, load, write):
    return jsonio.dumps(write(load(json.loads(text))))


def test_complex_measure_rewrites_its_bytes():
    # z = -0.5j has real part -0.0; halving by 2 + 0j once turned it into +0.0
    z = -0.5j
    mu = DiscreteMeasure((np.array([[2, z], [np.conj(z), 2]]),), np.array([1.0]))
    text = jsonio.dumps(jsonio.measure_to_json(mu))
    assert '"-0x0.0p+0"' in text
    assert _rewritten(text, jsonio.measure_from_json, jsonio.measure_to_json) == text


def test_each_coefficient_keeps_its_own_form():
    # A0 is an arrowhead, A1 couples two trailing coordinates
    a0 = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]])
    a1 = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    raw = _raw_payload(a0, a1)
    mixed = jsonio.realization_from_json(raw)
    assert [type(c) for c in mixed.coefficients] == [Arrowhead, SymMatrix]
    payload = jsonio.realization_to_json(mixed)
    assert [payload["A0"], *payload["A"]] == [raw["A0"], *raw["A"]]
    text = jsonio.dumps(payload)
    assert _rewritten(text, jsonio.realization_from_json, jsonio.realization_to_json) == text
    # -0.0 in both triangles off the arrowhead pattern keeps A0 dense, in
    # memory and on file
    signed = a0.copy()
    signed[1, 2] = signed[2, 1] = -0.0
    dense = PencilRealization(np.eye(3)[0], signed, (a1,))
    assert [type(c) for c in dense.coefficients] == [SymMatrix, SymMatrix]
    assert dense.a0.entries.tobytes() == signed.tobytes()
    dense_text = jsonio.dumps(jsonio.realization_to_json(dense))
    assert dense_text.count('"-0x0.0p+0"') == 2
    reloaded = jsonio.realization_from_json(json.loads(dense_text))
    assert [type(c) for c in reloaded.coefficients] == [SymMatrix, SymMatrix]
    assert jsonio.dumps(jsonio.realization_to_json(reloaded)) == dense_text
    x = random_pd(4, (0.1, 10), 3)
    assert eval_pencil(mixed, [x]).entries.tobytes() == eval_pencil(dense, [x]).entries.tobytes()


def test_build_write_load_eval_forms_no_dense_coefficient():
    # a 2049 x 2049 coefficient is 33.6 MB; with dense coefficients the peak
    # was 194 MiB, and 2.8 MiB when the vectors go from builder to eval
    x = random_pd(2, (0.1, 10), 0).entries
    tracemalloc.start()
    try:
        r = build_realization("power:0.5", n_nodes=2048)
        text = jsonio.dumps(jsonio.realization_to_json(r))
        eval_pencil(jsonio.realization_from_json(json.loads(text)), [x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
