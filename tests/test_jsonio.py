"""Property tests for ``jsonio``: the byte contract, bit-exact round trips and
load-time rejection of malformed payloads."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loewner import DiscreteMeasure, SuiteConfig, build_realization, check_monotone, random_pd
from loewner import jsonio
from loewner.cli import main

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


def _point():
    return jsonio.matrix_to_json(np.array([[2.0, 0.5], [0.5, 1.0]]))


def _measure():
    atoms = (random_pd(2, (0.5, 2), 0), random_pd(2, (0.5, 2), 1))
    return jsonio.measure_to_json(DiscreteMeasure(atoms, np.array([0.25, 0.75])))


# (payload factory, required keys, header keys, vector paths, matrix paths);
# decimal mirrors are not read on load, so they are never mutated
SCHEMAS = {
    "realization": (_realization, ("k", "m", "e", "A0", "A"), (("k",), ("m",)),
                    (("e",),), (("A0",), ("A", 0))),
    "point": (_point, ("rows", "cols", "re"), (("rows",), ("cols",)), (), ((),)),
    "measure": (_measure, ("n", "atoms", "weights"), (("n",),),
                (("weights",),), (("atoms", 0), ("atoms", 1))),
}
BAD_ENTRIES = ["nan", "inf", "-inf", float("nan"), float("inf"), float("-inf"), True, False,
               None, [], {}, ["0x1p+0"], "zz", "", 10**400, "0x1p99999"]
BAD_ROWS = ["10", "0x1p+0", 1.0, True, None, {}, {"0": "0x1p+0"}, []]
BAD_HEADERS = [-1, "x", None, [], {}, float("nan"), float("inf")]


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@st.composite
def mutations(draw, schema):
    """A payload of ``schema`` with one authoritative field made invalid."""
    make, required, headers, vectors, matrices = SCHEMAS[schema]
    payload = make()
    sites = [("drop", (key,)) for key in required]
    sites += [("header", path) for path in headers]
    sites += [("entry", path) for path in vectors]
    sites += [(kind, path) for path in matrices for kind in ("row", "entry", "drop-re")]
    kind, path = draw(st.sampled_from(sites))
    if kind == "drop":
        del payload[path[0]]
    elif kind == "drop-re":
        del _at(payload, path)["re"]
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
    return main(["eval", "--realization", str(path if schema == "realization" else realization),
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
}


@pytest.mark.parametrize("field", sorted(BAD_REPORT_FIELDS))
def test_report_field_type_checked_on_load(field):
    for bad in BAD_REPORT_FIELDS[field]:
        payload = _report()
        payload[field] = bad
        with pytest.raises(ValueError, match=field):
            jsonio.report_from_json(payload)
