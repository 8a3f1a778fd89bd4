"""Round-trip fidelity of the JSON wire formats."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid import catalog, cyclotomic, repcore
from loopbraid.cyclotomic import CycNum, make_root_of_unity
from loopbraid.errors import MalformedInput
from loopbraid.repcore import GroupKind
from loopbraid.serialize import (
    certificate_from_obj,
    cycnum_from_obj,
    cycnum_to_obj,
    dumps,
    matrix_from_obj,
    matrix_to_obj,
    rep_from_obj,
    rep_to_obj,
    report_to_obj,
)

from extension_support import standard_extensions


def test_cycnum_round_trip_exact():
    values = [
        CycNum.from_rational(Fraction(-7, 3), 12),
        make_root_of_unity(60, 17) * Fraction(22, 7),
        CycNum.zero(5),
        CycNum.from_coeffs(12, ["1/2", "-3", "0", "10000000000000001/3"]),
    ]
    for x in values:
        obj = cycnum_to_obj(x)
        assert obj["conductor"] == x.conductor
        assert cycnum_from_obj(json.loads(json.dumps(obj))) == x


def test_cycnum_coeff_format():
    x = CycNum.from_coeffs(3, [Fraction(1, 2), Fraction(-3)])
    obj = cycnum_to_obj(x)
    assert obj["coeffs"] == ["1/2", "-3"]  # denominator 1 omitted


def test_wrong_length_scalar_is_rejected_before_field_tables(monkeypatch):
    # the tables of Q(zeta_n) cost n * phi(n), and phi(n) factors n: a
    # malformed scalar, even of a huge prime conductor, needs neither
    built = []
    monkeypatch.setattr(cyclotomic, "_field", lambda n: built.append(n))
    monkeypatch.setattr(cyclotomic, "euler_phi", lambda n: pytest.fail("phi called"))
    for conductor in (12, 4000, 10**6, 10**18 + 9):
        with pytest.raises(MalformedInput, match="length phi"):
            cycnum_from_obj({"conductor": conductor, "coeffs": ["1"]})
    assert built == []


def test_matrix_round_trip():
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    obj = matrix_to_obj(rep.A)
    assert obj["dim"] == 4
    assert matrix_from_obj(json.loads(json.dumps(obj))) == rep.A


def test_rep_round_trip_with_and_without_s():
    full = catalog.perm3(2)
    obj = rep_to_obj(full)
    back = rep_from_obj(json.loads(json.dumps(obj)))
    assert back.target == GroupKind.SLB3
    assert back.A == full.A and back.S2 == full.S2
    braid_only = catalog.counterexample6()
    obj = rep_to_obj(braid_only)
    assert obj["S1"] is None
    back = rep_from_obj(json.loads(json.dumps(obj)))
    assert back.S1 is None and back.B == braid_only.B


def test_certificate_round_trip():
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    (built, cert), = standard_extensions(rep.A, rep.B)
    obj = report_to_obj(cert)
    back = certificate_from_obj(json.loads(json.dumps(obj)))
    assert back.k == cert.k
    assert back.S == cert.S
    assert back.trace_value == cert.trace_value
    assert back.params.M == cert.params.M
    assert back.params.a == cert.params.a


@pytest.mark.parametrize(
    "edit, text",
    [
        (lambda obj: {}, "'k' of type dict"),
        (lambda obj: {**obj, "params": {**obj["params"], "a": "x"}}, "'a' of type int"),
        (lambda obj: {**obj, "params": {**obj["params"], "a": True}}, "'a' of type int"),
        (lambda obj: {**obj, "trace_value": "3"}, "'trace_value' of type int"),
        (lambda obj: obj, None),
    ],
    ids=["empty", "a-string", "a-bool", "trace-string", "valid"],
)
def test_certificate_reader_refuses_malformed_objects(edit, text):
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    (_, cert), = standard_extensions(rep.A, rep.B)
    obj = edit(json.loads(json.dumps(report_to_obj(cert))))
    if text is None:
        assert certificate_from_obj(obj) == cert
    else:
        with pytest.raises(MalformedInput, match=text):
            certificate_from_obj(obj)


def test_dumps_is_deterministic():
    rep = catalog.perm3(2)
    assert dumps(rep_to_obj(rep)) == dumps(rep_to_obj(catalog.perm3(2)))


# every kind of value `report_to_obj` emits: a tuple passes through a
# plain dict untouched, and dict keys are written as json writes them
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324])
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x20))  # control characters
    | st.sampled_from(["", "é", " ", "\U0001f600", '"\\/', "p/q"])
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers(-50, 50), inner, max_size=4),
    max_leaves=25,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_VALUES)
def test_dumps_matches_json_byte_for_byte(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_matches_json_on_reports_and_refuses_what_json_refuses():
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    (built, cert), = standard_extensions(rep.A, rep.B)
    small = {"k": [True, 1, 1.5, None, (2, "x")], "e": {}, "l": []}
    # the scalars of cycnum_to_obj are marked and written from a template;
    # plain dicts that only look like scalars take the general route
    marked = [cycnum_to_obj(x) for x in (CycNum(12, [1, -2, 0, 3], 4), CycNum.zero(1))]
    assert all(type(x) is not dict for x in marked)
    lookalikes = [
        dict(marked[0]),
        {"coeffs": ["1"], "conductor": 3},
        {"coeffs": [], "conductor": 3},
        {"coeffs": ['a"\n', 1], "conductor": 3},
        {"coeffs": ["1"], "conductor": 3, "dim": 1},
        {"coeffs": ["1"], "conductor": True},
    ]
    # verify's payload of a failing relation: a list of strings
    perm = catalog.perm3(2)
    broken = repcore.verify(dataclasses.replace(perm, S1=perm.S2, S2=perm.S1), GroupKind.LB3)
    assert broken.failing
    failing = {"verdicts": broken.verdicts, "all_hold": broken.all_hold,
               "failing": broken.failing}
    for obj in (report_to_obj([built, cert]), small, marked, {"k": marked, "m": [marked]},
                lookalikes, report_to_obj(failing)):
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)
    for bad in ({"x": object()}, [{1: 2, "1": 3}], {(1,): 2}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumps(bad)


@pytest.mark.parametrize(
    "obj, error, text",
    [({**rep_to_obj(catalog.tw3(1, 2, 3)), "target": "B4"}, MalformedInput, "unknown target")],
    ids=["unknown-target"],
)
def test_serialize_refusals(obj, error, text):
    with pytest.raises(error, match=text):
        rep_from_obj(obj)
