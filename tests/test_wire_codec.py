"""The integer wire codec for scalars, checked against Fraction, and a
structural fuzz of malformed representation files on every command that
reads one."""

import functools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid import cyclotomic
from loopbraid.cli import main
from loopbraid.cyclotomic import CycNum, euler_phi
from loopbraid.errors import ConductorMismatch, LoopBraidError, MalformedInput
from loopbraid.linalg import CMatrix
from loopbraid.serialize import _member, cycnum_from_obj, cycnum_to_obj, matrix_from_obj

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

# Canonical strings, non-canonical ones that Fraction reads, ones it refuses,
# and JSON values that are not strings.
WIRE_VALUES = [
    "0", "7", "-7", "1/2", "-1/2", "123456789012345678901234567890/7",
    "-0", "007", "-007", "2/4", "0/5", "1/007", "-0/3",
    "1.5", "-1.5", "1e3", "1E-3", ".5", "5.", "1_0", "1_000/3", " 4", "4 ", "\t4\n",
    "+3", "+3/4", "٣", "١/٢", "１２",
    "1/-2", "1/0", "0/0", "-1/0", "", "/", "1/", "/2", "-", "1//2", "1/2/3",
    "1.5/2", "0x10", "nan", "inf", "abc", "1 /2", "- 1",
    0, 5, -5, 10**40, 1.5, -0.25, 1e300, 0.1, float("inf"), float("nan"),
    True, False, None, [], {}, ["1"],
]


def parent_value(value) -> Fraction:
    """The coefficient the Fraction-only parser made of a wire value, or its
    error; an infinite float overflowed there instead of being refused."""
    try:
        return Fraction(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


@pytest.mark.parametrize("value", WIRE_VALUES, ids=repr)
def test_wire_scalar_matches_fraction(value):
    obj = {"conductor": 3, "coeffs": [value, "1/3"]}
    try:
        q = parent_value(value)
    except (TypeError, ValueError, ZeroDivisionError):
        with pytest.raises(MalformedInput):
            cycnum_from_obj(obj)
        return
    den = q.denominator * 3
    want = CycNum(3, [q.numerator * 3, q.denominator], den)
    got = cycnum_from_obj(obj)
    assert got == want
    assert (got._num, got._den) == (want._num, want._den)


def regex_route(text: str) -> tuple[int, int]:
    """A wire string as the reader took it before its plain-integer fast
    path: the canonical regex, else Fraction."""
    if re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", text):
        p, _, q = text.partition("/")
        return int(p), int(q) if q else 1
    f = Fraction(text)
    return f.numerator, f.denominator


WIRE_TEXT = st.one_of(
    st.sampled_from(
        ["0", "-0", "-3", "007", "-007", "", "-", "--3", "+3", "1/0", "01/2", "1/02",
         " 3", "3 ", "- 3", "٣", "-٣", "²", "-²", "１２", "3_0", "1/2"]
    ),
    st.text(alphabet="0123456789-+/ _.٣²１", max_size=8),
)


@PROPERTY
@given(WIRE_TEXT)
def test_wire_reader_matches_the_regex_route(text):
    try:
        p, q = regex_route(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            CycNum.from_coeffs(1, [text])
        return
    got = CycNum.from_coeffs(1, [text])
    want = Fraction(p, q)
    assert (got._num, got._den) == ((want.numerator,), want.denominator)


def old_coeff_str(v: int, den: int) -> str:
    q = Fraction(v, den)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@st.composite
def cycnums(draw):
    n = draw(st.sampled_from([1, 3, 4, 12, 60]))
    phi = len(CycNum.zero(n)._num)
    bits = draw(st.sampled_from([2, 30, 200]))
    num = [draw(st.integers(-(2**bits), 2**bits)) for _ in range(phi)]
    den = draw(st.one_of(st.integers(1, 50), st.integers(1, 2**100)))
    return CycNum(n, num, den)


@PROPERTY
@given(cycnums())
def test_wire_writer_bytes_and_round_trip(x):
    obj = cycnum_to_obj(x)
    assert obj["coeffs"] == [old_coeff_str(v, x._den) for v in x._num]
    back = cycnum_from_obj(json.loads(json.dumps(obj)))
    assert (back.conductor, back._num, back._den) == (x.conductor, x._num, x._den)


# -- the one matrix reader ------------------------------------------------------

CANONICAL_TEXT = ["0", "-0", "7", "-3", "1/2", "-12/5", "2/4", "007", "-007/3", "1/3"]
OTHER_TEXT = [
    "+3", "1.5", "1/0", "2/0", "1/02", " 4", "٣", "1,2", ",", "", "9" * 5000,
    "1/" + "7" * 5000, 2, -5, 1.5, True, None, ["1"],
]


@st.composite
def wire_matrices(draw):
    """A matrix wire object, all canonical or with one kind of trouble in
    it: a spelling Fraction reads or refuses, one spelling repeated across
    entries, a wrong length, a mixed or mistyped conductor, a ragged
    shape, a wrong dim or an entry that is not an object."""
    n = draw(st.sampled_from([1, 3, 4, 12]))
    phi, d = euler_phi(n), draw(st.integers(1, 3))
    entries = [
        [
            {"conductor": n, "coeffs": draw(st.lists(st.sampled_from(CANONICAL_TEXT),
                                                     min_size=phi, max_size=phi))}
            for _ in range(d)
        ]
        for _ in range(d)
    ]
    obj = {"dim": d, "conductor": n, "entries": entries}
    trouble = draw(st.sampled_from(
        ["none", "text", "repeat", "length", "entry-conductor", "matrix-conductor", "ragged",
         "dim", "not-a-dict"]
    ))
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    entry = entries[i][j]
    if trouble == "text":
        entry["coeffs"][draw(st.integers(0, phi - 1))] = draw(st.sampled_from(OTHER_TEXT))
    elif trouble == "repeat":
        # one spelling at one place of several entries, or 1, 1.0 and True
        # there, which are equal and hash alike
        spellings = draw(st.sampled_from(
            [[text] for text in CANONICAL_TEXT + OTHER_TEXT] + [[1, 1.0, True]]
        ))
        k = draw(st.integers(0, phi - 1))
        for row in entries:
            for e in row:
                if draw(st.booleans()):
                    e["coeffs"][k] = draw(st.sampled_from(spellings))
    elif trouble == "length":
        entry["coeffs"] = entry["coeffs"] + draw(st.sampled_from([["0"], []]))
        if draw(st.booleans()):
            entry["coeffs"] = entry["coeffs"][2:]
    elif trouble == "entry-conductor":
        entry["conductor"] = draw(st.sampled_from([3 * n, 2, True, float(n), str(n), None]))
    elif trouble == "matrix-conductor":
        obj["conductor"] = draw(st.sampled_from([3 * n, 0, -n, True, float(n)]))
    elif trouble == "ragged":
        entries[i] = entries[i][:-1] if draw(st.booleans()) else entries[i] + [entry]
    elif trouble == "dim":
        obj["dim"] = d + 1
    elif trouble == "not-a-dict":
        entries[i][j] = draw(st.sampled_from([["1"], "1", 1, None]))
    return obj


def reference_scalar(obj) -> CycNum:
    """A scalar as the Fraction route reads it: the member checks and the
    length guard, then CycNum.from_coeffs."""
    conductor = _member(obj, "conductor", int, "a scalar")
    coeffs = _member(obj, "coeffs", list, "a scalar")
    if 2 * len(coeffs) ** 2 < conductor:
        raise MalformedInput(f"bad scalar: coefficient vector must have length phi({conductor})")
    try:
        return CycNum.from_coeffs(conductor, coeffs)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise MalformedInput(f"bad scalar: {exc}") from None


def reference_matrix(obj) -> CMatrix:
    """A matrix as the Fraction route reads it: its scalars in row-major
    order, then CMatrix, then the dim check."""
    dim = _member(obj, "dim", int, "a matrix")
    conductor = _member(obj, "conductor", int, "a matrix")
    entries = _member(obj, "entries", list, "a matrix")
    if not all(isinstance(row, list) for row in entries):
        raise MalformedInput("a matrix needs 'entries' as a list of rows")
    m = CMatrix([[reference_scalar(e) for e in row] for row in entries], conductor)
    if m.dim != dim:
        raise MalformedInput("matrix dim field disagrees with the entries")
    return m


def read_outcome(read, obj):
    """The matrix read, or the class and text of what was raised."""
    try:
        m = read(obj)
    except LoopBraidError as exc:
        return type(exc), str(exc)
    return m.dim, m.conductor, [(x.conductor, x._num, x._den) for r in m.rows for x in r]


@PROPERTY
@given(wire_matrices())
def test_one_pass_matrix_reader_matches_the_scalar_route(obj):
    text = json.dumps(obj)
    got = read_outcome(matrix_from_obj, json.loads(text))
    assert got == read_outcome(reference_matrix, json.loads(text))


def test_equal_scalars_share_one_cycnum():
    half, one = {"conductor": 3, "coeffs": ["1/2", "0"]}, {"conductor": 3, "coeffs": [1, 0]}
    true = {"conductor": 3, "coeffs": [True, 0.0]}
    m = matrix_from_obj({"dim": 2, "conductor": 3, "entries": [[half, one], [true, half]]})
    (a, b), (c, e) = m.rows
    assert a is e and b is c and b == 1 and a == Fraction(1, 2)
    # the conductor is part of the key: ["1"] at conductor 2 is not one(1)
    one_at = [{"conductor": n, "coeffs": ["1"]} for n in (1, 2)]
    with pytest.raises(ConductorMismatch, match="conductors 1 and 2 differ"):
        matrix_from_obj({"dim": 2, "conductor": 1, "entries": [one_at, one_at]})


def test_the_first_bad_entry_in_row_major_order_is_named():
    good = {"conductor": 3, "coeffs": ["1", "0"]}
    bad = [{"conductor": 3, "coeffs": [text, "0"]} for text in ("abc", "1/0", "0x1")]
    entries = [[good, bad[0]], [bad[1], bad[2]]]
    with pytest.raises(MalformedInput, match="^bad scalar: Invalid literal for Fraction: 'abc'$"):
        matrix_from_obj({"dim": 2, "conductor": 3, "entries": entries})
    entries[0][1] = good
    with pytest.raises(MalformedInput, match=r"^bad scalar: Fraction\(1, 0\)$"):
        matrix_from_obj({"dim": 2, "conductor": 3, "entries": entries})


def test_wrong_length_matrix_is_rejected_before_euler_phi(monkeypatch):
    # as for a scalar, a short coefficient list of a huge conductor is
    # refused by its length before phi(n) factors n
    monkeypatch.setattr(cyclotomic, "euler_phi", lambda n: pytest.fail("phi called"))
    for n in (12, 4000, 10**18 + 9):
        entry = {"conductor": n, "coeffs": ["1"]}
        with pytest.raises(MalformedInput, match="length phi"):
            matrix_from_obj({"dim": 2, "conductor": n, "entries": [[entry] * 2] * 2})


# -- structural fuzz of malformed representation files ------------------------


def _entry(obj):
    return obj["A"]["entries"][0][1]


def _set_coeff(obj, text):
    _entry(obj)["coeffs"][1] = text


MUTATIONS = {
    # wrong types
    "target-int": lambda o: o.update(target=3),
    "A-list": lambda o: o.update(A=[[1, 0], [0, 1]]),
    "dim-string": lambda o: o["A"].update(dim="4"),
    "dim-bool": lambda o: o["B"].update(dim=True),
    "conductor-float": lambda o: o["A"].update(conductor=12.0),
    "entries-dict": lambda o: o["A"].update(entries={"0": []}),
    "row-string": lambda o: o["B"]["entries"].__setitem__(1, "row"),
    "entry-int": lambda o: o["A"]["entries"][0].__setitem__(1, 1),
    "entry-null": lambda o: o["B"]["entries"][2].__setitem__(0, None),
    "coeffs-string": lambda o: _entry(o).update(coeffs="1"),
    "entry-conductor-string": lambda o: _entry(o).update(conductor="12"),
    "coeff-null": lambda o: _entry(o)["coeffs"].__setitem__(0, None),
    "coeff-list": lambda o: _entry(o)["coeffs"].__setitem__(1, ["1"]),
    "coeff-infinite": lambda o: _entry(o)["coeffs"].__setitem__(0, float("inf")),
    "coeff-nan": lambda o: _entry(o)["coeffs"].__setitem__(0, float("nan")),
    # ragged rows
    "short-row": lambda o: o["A"]["entries"][1].pop(),
    "long-row": lambda o: o["B"]["entries"][0].append(_entry(o)),
    "extra-row": lambda o: o["A"]["entries"].append(list(o["A"]["entries"][0])),
    "no-rows": lambda o: o["B"].update(entries=[]),
    "dim-disagrees": lambda o: o["A"].update(dim=3),
    # an entry's conductor disagrees with its matrix
    "entry-in-subfield": lambda o: o["A"]["entries"][0].__setitem__(
        1, {"conductor": 1, "coeffs": ["1"]}
    ),
    "S1-ragged": lambda o: o["S1"]["entries"][0].pop(),
    "entry-short-vector": lambda o: _entry(o)["coeffs"].pop(),
    "matrix-conductor": lambda o: o["B"].update(conductor=24),
    # malformed scalar strings
    **{
        f"coeff-{text!r}": functools.partial(_set_coeff, text=text)
        for text in ["1/-2", "1/0", "0/0", "", "/", "1//2", "0x10", "1 /2"]
    },
}


COMMANDS = (
    ["verify", "--group", "B3"],
    ["extend"],
    ["extend", "--mode", "vb3"],
    ["analyze"],
    ["certify", "--starts", "10"],
)


@pytest.fixture(scope="module")
def lb3_obj(tmp_path_factory):
    """The LB3 extension of a tw4 representation, over Q(zeta_3): every
    command exits 0 on it unchanged."""
    root = tmp_path_factory.mktemp("lb3")
    rep, report = root / "tw4.json", root / "report.json"
    args = ["tw4", "--lambda", "1", "2", "3", "2/3", "--gamma2", "2"]
    assert main(["construct", *args, "--out", str(rep)]) == 0
    assert main(["extend", str(rep), "--out", str(report)]) == 0
    obj = json.loads(report.read_text())["representation"]
    rep.write_text(json.dumps(obj))
    for command in COMMANDS:
        assert main([command[0], str(rep), *command[1:]]) == 0
    return obj


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_malformed_file_exits_2_on_every_command(lb3_obj, mutation, tmp_path, capsys):
    obj = json.loads(json.dumps(lb3_obj))
    MUTATIONS[mutation](obj)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    for command in COMMANDS:
        code = main([command[0], str(path), *command[1:]])
        err = capsys.readouterr().err
        assert code == 2, (command, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text", [DEEP, '{"target": "B3", "A": ' + DEEP + "}"], ids=["bare", "in-A"]
)
def test_deeply_nested_file_exits_2_on_every_command(text, tmp_path, capsys):
    # json.dumps cannot build this nesting, so the raw text is written
    path = tmp_path / "deep.json"
    path.write_text(text)
    capsys.readouterr()
    for command in COMMANDS:
        code = main([command[0], str(path), *command[1:]])
        err = capsys.readouterr().err
        assert code == 2, (command, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
