"""JSON wire formats with bit-exact round-trips.

CycNum       {"conductor": N, "coeffs": ["p/q", ...]}   (q omitted when 1)
CMatrix      {"dim": d, "conductor": N, "entries": [[CycNum, ...], ...]}
LBRep        {"target": "LB3", "A": CMatrix|null, ..., "S2": CMatrix|null}
Certificate  {"k": CycNum, "S": CMatrix, "params": {...}, "trace_value": m}

Rationals travel as base-10 strings, so round-trips are exact.  The
writer's form is canonical: "p" when the coefficient is an integer, else
"p/q" in lowest terms with q > 1, the sign on p and no leading zeros or
other characters, each string made from the scalar's integer numerators
and denominator, with one gcd unless the coefficient is zero or the
denominator 1, and each scalar and each matrix written from one template.
One reader takes every scalar, alone or in a matrix: the member checks
(a JSON object holding an int and a list passes them as it is), a
length guard, then each coefficient as a rational, a canonical
string -?[0-9]+(/[1-9][0-9]*)? (so also "2/4" or "007") by int() and
any other value, such as "1.5", "+3" or a JSON number, by Fraction,
which accepts and refuses it (MalformedInput) as there.  A matrix reads
its entries in row-major order, so a refusal names the first bad one,
and parses each distinct coefficient string once; equal scalars share
one CycNum.  Complex numbers in oracle reports are [re, im] pairs.

Output reports are encoded field by field from their dataclasses by
`report_to_obj`: a dataclass field is a key of the JSON body.  So a
diagnostic, such as a timing, must never become a field of a report
dataclass, since the body stays byte-identical for identical input and
seed.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import re
from fractions import Fraction
from typing import Any

from .cyclotomic import CycNum
from .errors import MalformedInput
from .extend import ExtensionCertificate, ExtensionParams
from .linalg import CMatrix
from .repcore import GroupKind, LBRep


class _Scalar(dict):
    """The wire object of a scalar as `cycnum_to_obj` makes it: a dict to
    every reader, with an int "conductor" and a nonempty list of canonical
    "coeffs", which `_write` emits from one template."""

    __slots__ = ()


class _Matrix(dict):
    """The wire object of a matrix as `matrix_to_obj` makes it: a dict to
    every reader, with int "dim" and "conductor" and "entries" a list of
    rows of `_Scalar`s, which `_write` emits from one template."""

    __slots__ = ()


def cycnum_to_obj(x: CycNum) -> dict:
    den = x._den
    if den == 1:  # every coefficient an integer: no gcd
        coeffs = list(map(str, x._num))
    else:
        coeffs = []
        for v in x._num:
            if not v:
                coeffs.append("0")
                continue
            g = math.gcd(v, den)
            coeffs.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    obj = _Scalar()  # two stores: faster than passing the keys to the constructor
    obj["conductor"], obj["coeffs"] = x.conductor, coeffs
    return obj


def _member(obj, key: str, kind: type, what: str):
    """obj[key] when obj is a JSON object holding a `kind` there."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedInput(f"{what} needs {key!r} of type {kind.__name__}")
    return value


# a canonical wire rational "p" or "p/q": ASCII digits, the sign on p and
# q > 0 without a leading zero
_CANONICAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def _rational(c) -> tuple[int, int]:
    """A coefficient as (p, q) with q > 0: a canonical string by int(),
    any other value by Fraction, which accepts and refuses it as there."""
    if type(c) is str and _CANONICAL.fullmatch(c):
        p, _, q = c.partition("/")
        try:  # int refuses digits past int_max_str_digits; Fraction says so
            return int(p), int(q) if q else 1
        except ValueError:
            pass
    f = Fraction(c)
    return f.numerator, f.denominator


class _Rationals(dict):
    """The coefficient strings of one matrix, each with its (p, q), parsed
    on first sight."""

    __slots__ = ()

    def __missing__(self, text: str) -> tuple[int, int]:
        self[text] = pq = _rational(text)
        return pq


def _read_scalar(obj, rationals: _Rationals, scalars: dict) -> CycNum:
    """The scalar of obj, the one scalar reader.  rationals and scalars
    are the tables of the matrix being read: each coefficient string's
    (p, q), and each scalar keyed by its conductor and coefficients, so
    that equal scalars share one CycNum."""
    conductor = coeffs = None
    if type(obj) is dict:  # a JSON object: _member's checks, made on exact types
        conductor, coeffs = obj.get("conductor"), obj.get("coeffs")
    if type(conductor) is not int or type(coeffs) is not list:
        conductor = _member(obj, "conductor", int, "a scalar")
        coeffs = _member(obj, "coeffs", list, "a scalar")
    if 2 * len(coeffs) ** 2 < conductor:  # phi(n) >= sqrt(n/2), without factoring n
        raise MalformedInput(f"bad scalar: coefficient vector must have length phi({conductor})")
    key = (conductor, *coeffs)
    try:
        x = scalars.get(key)
    except TypeError:  # a list or an object among the coefficients, refused below
        x = None
    if x is not None:
        return x
    try:
        pairs = [rationals[c] if type(c) is str else _rational(c) for c in coeffs]
        den = math.lcm(*[q for _, q in pairs])
        x = CycNum(conductor, [p * (den // q) for p, q in pairs], den)
    except (TypeError, ValueError, ArithmeticError) as exc:  # 1/0, an infinite float
        raise MalformedInput(f"bad scalar: {exc}") from None
    scalars[key] = x
    return x


def cycnum_from_obj(obj: dict) -> CycNum:
    return _read_scalar(obj, _Rationals(), {})


def matrix_to_obj(m: CMatrix) -> dict:
    obj = _Matrix()
    obj["dim"], obj["conductor"] = m.dim, m.conductor
    obj["entries"] = [[cycnum_to_obj(e) for e in row] for row in m.rows]
    return obj


def matrix_from_obj(obj: dict) -> CMatrix:
    """The matrix of obj: its entries read in row-major order, so that a
    refusal names the first bad one, then CMatrix's shape and conductor
    checks."""
    dim = _member(obj, "dim", int, "a matrix")
    conductor = _member(obj, "conductor", int, "a matrix")
    entries = _member(obj, "entries", list, "a matrix")
    if not all(isinstance(row, list) for row in entries):
        raise MalformedInput("a matrix needs 'entries' as a list of rows")
    rationals, scalars = _Rationals(), {}
    m = CMatrix([[_read_scalar(e, rationals, scalars) for e in row] for row in entries], conductor)
    if m.dim != dim:
        raise MalformedInput("matrix dim field disagrees with the entries")
    return m


def report_to_obj(x: Any) -> Any:
    """The JSON object of a report value: dataclasses field by field.

    Scalars and matrices take their wire formats, an enum its value and a
    complex number an [re, im] pair; dicts, lists and tuples are walked,
    and any other value passes through unchanged.
    """
    if isinstance(x, CMatrix):
        return matrix_to_obj(x)
    if isinstance(x, CycNum):
        return cycnum_to_obj(x)
    if isinstance(x, (list, tuple)):
        return [report_to_obj(v) for v in x]
    if isinstance(x, dict):
        return {k: report_to_obj(v) for k, v in x.items()}
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, complex):
        return [x.real, x.imag]
    if dataclasses.is_dataclass(x):
        return {f.name: report_to_obj(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


def rep_to_obj(rep: LBRep) -> dict:
    return report_to_obj(rep)


def _matrix_or_none(obj) -> CMatrix | None:
    return None if obj is None else matrix_from_obj(obj)


def rep_from_obj(obj: dict) -> LBRep:
    target = _member(obj, "target", str, "a representation")
    if target not in GroupKind.__members__:
        raise MalformedInput(f"unknown target {target!r}")
    return LBRep(
        target=GroupKind[target],
        A=_matrix_or_none(obj.get("A")),
        B=_matrix_or_none(obj.get("B")),
        S1=_matrix_or_none(obj.get("S1")),
        S2=_matrix_or_none(obj.get("S2")),
    )


def params_from_obj(obj: dict) -> ExtensionParams:
    """M an object, a an int, and G and N each null (or absent) or a matrix;
    anything else is MalformedInput, naming the key."""
    what = "extension parameters"
    return ExtensionParams(
        M=matrix_from_obj(_member(obj, "M", dict, what)),
        G=_matrix_or_none(obj.get("G")),
        a=_member(obj, "a", int, what),
        N=_matrix_or_none(obj.get("N")),
    )


def certificate_from_obj(obj: dict) -> ExtensionCertificate:
    """k, S and params objects and trace_value an int; anything else is
    MalformedInput, naming the key."""
    what = "a certificate"
    return ExtensionCertificate(
        k=cycnum_from_obj(_member(obj, "k", dict, what)),
        S=matrix_from_obj(_member(obj, "S", dict, what)),
        params=params_from_obj(_member(obj, "params", dict, what)),
        trace_value=_member(obj, "trace_value", int, what),
    )


def dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    json encodes with its pure-Python encoder whenever it indents; this
    writer appends the same pieces to one list and joins them once.
    Strings go through json's own ASCII escaper and ints through
    int.__repr__; null, booleans, floats (NaN and +-Infinity included) and
    non-string dict keys go through json itself.  Dict keys are sorted as
    given.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


_ESCAPE = json.encoder.encode_basestring_ascii


def _key(k) -> str:
    if isinstance(k, str):
        return _ESCAPE(k)
    if k is None or isinstance(k, (int, float)):  # a bool is an int
        return _ESCAPE(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _scalar_text(x: _Scalar, newline: str) -> str:
    """The JSON of a `_Scalar` whose first line is already indented and
    whose later lines start with newline.  A canonical coefficient holds
    only digits, "-" and "/", which JSON writes as they are, so each is
    quoted without the escaper."""
    inner = newline + "  "
    item = inner + "  "
    return (
        "{" + inner + '"coeffs": [' + item + '"' + ('",' + item + '"').join(x["coeffs"]) + '"'
        + inner + "]," + inner + '"conductor": ' + int.__repr__(x["conductor"])
        + newline + "}"
    )


def _matrix_text(x: _Matrix, newline: str) -> str:
    """The JSON of a `_Matrix`, its keys in sorted order, each row a list
    of `_scalar_text`s."""
    inner = newline + "  "
    row, entry = inner + "  ", inner + "    "
    return (
        "{" + inner + '"conductor": ' + int.__repr__(x["conductor"])
        + "," + inner + '"dim": ' + int.__repr__(x["dim"])
        + "," + inner + '"entries": [' + row
        + ("," + row).join(
            "[" + entry + ("," + entry).join([_scalar_text(e, entry) for e in r]) + row + "]"
            for r in x["entries"]
        )
        + inner + "]" + newline + "}"
    )


def _write(x: Any, out: list[str], newline: str) -> None:
    """Append the JSON of x, whose first line is already indented and whose
    later lines start with newline."""
    if type(x) is _Scalar:
        out.append(_scalar_text(x, newline))
    elif type(x) is _Matrix:
        out.append(_matrix_text(x, newline))
    elif isinstance(x, str):
        out.append(_ESCAPE(x))
    elif x is None or x is True or x is False or isinstance(x, float):
        out.append(json.dumps(x))
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(x.items()):
            out.append(sep + _key(k) + ": ")
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
