"""Command-line front end.

Subcommands: construct, verify, extend, analyze, certify, sweep.  Scalars
are written as CYC literals: a rational ("3/2", "-2"), a root of unity
("z12^5" is zeta_12^5), or a product ("-1/2*z3").  Reports are JSON on
stdout or --out, embed the toolkit version and the SHA-256 of the input
bytes the command parsed, and are byte-identical for identical inputs and
seed.

Exit codes: 0 success, 1 relation violation, 2 bad input, 3 no extension.
Each command returns its report and exit code; main alone writes the
report and turns bad input into exit 2 and no extension into exit 3.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction

from . import __version__, catalog, extend, sampling
from .cyclotomic import CycNum, common_field, make_root_of_unity
from .errors import LoopBraidError, MalformedInput
from .repcore import GroupKind, LBRep, is_irreducible, verify
from .serialize import dumps, rep_from_obj, report_to_obj

# a rational ends the term or is joined to a root by "*"
_SCALAR_RE = re.compile(
    r"^(?:(?P<rat>[+-]?\d+(?:/0*[1-9]\d*)?)(?:\*(?=z)|$))?(?P<root>z(?P<n>\d+)(?:\^(?P<k>-?\d+))?)?$"
)


def parse_scalar(text: str) -> CycNum:
    """Parse a CYC literal: a sum of terms RATIONAL, zN[^K] or
    RATIONAL*zN[^K], joined by "+", as `str(CycNum)` writes one
    ("3/5 + -3/5*z12^2").

    Literals may be wrapped in parentheses, which keeps argparse from
    mistaking negative values like "(-1/2*z3)" for option flags.  A zero
    denominator ("1/0", "0/0") does not parse.  The sum lies in the field
    of the lcm of its terms' conductors.
    """
    text = text.strip().replace(" ", "")
    while text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    terms = []
    # every term ends in a digit, and a sign "+" never follows one
    for term in re.split(r"(?<=\d)\+", text):
        m = _SCALAR_RE.match(term)
        if not m or (m.group("rat") is None and m.group("root") is None):
            raise ValueError(f"cannot parse scalar literal {text!r}")
        value = CycNum.from_rational(Fraction(m.group("rat") or 1), 1)
        if m.group("root"):
            n = int(m.group("n"))
            value = value.promote(n) * make_root_of_unity(n, int(m.group("k") or 1))
        terms.append(value)
    (first, *rest), _ = common_field(*terms)
    return sum(rest, first)


class _NoExtension(Exception):
    """No extension exists: main writes the message alone and exits 3."""


def _emit(payload, out: str | None) -> None:
    """Write a report: domain objects take their wire formats here."""
    text = dumps(report_to_obj(payload))
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_rep(path: str, need_pair: bool = False) -> tuple[LBRep, dict]:
    """The one read of an input file: its representation, and the report's
    meta naming the SHA-256 of the bytes parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        # decoded first: json.loads of bytes would accept a UTF-8 BOM
        obj = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise MalformedInput("input nests too deeply") from None
    rep = rep_from_obj(obj)
    if need_pair and (rep.A is None or rep.B is None):
        raise ValueError("input has no braid pair A, B")
    return rep, _meta(hashlib.sha256(raw).hexdigest())


def _meta(input_sha256: str | None) -> dict:
    return {"toolkit_version": __version__, "input_sha256": input_sha256}


# -- construct ---------------------------------------------------------------


def _required(args, name: str):
    """args.<name>, or ValueError naming the missing flag --name."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"missing required --{name.replace('_', '-')}")
    return value


def _cyc(args, name: str) -> CycNum:
    return parse_scalar(_required(args, name))


def _arity(values: list, n: int) -> list:
    if len(values) != n:
        raise ValueError(f"expected {n} --lambda values, got {len(values)}")
    return values


# each family's constructor, called on the flags and the --lambda scalars
_FAMILIES = {
    "tw2": lambda args, lam: catalog.tw2(*_arity(lam, 2), family=args.variant),
    "tw3": lambda args, lam: catalog.tw3(*_arity(lam, 3)),
    "tw4": lambda args, lam: catalog.tw4(_arity(lam, 4), _cyc(args, "gamma2")),
    "tw5": lambda args, lam: catalog.tw5(_arity(lam, 5), _cyc(args, "gamma")),
    "binomial": lambda args, lam: catalog.binomial_rep(lam, _cyc(args, "c")),
    "counterexample6": lambda args, lam: catalog.counterexample6(),
    "v1": lambda args, lam: catalog.v1_family(_arity(lam, 1)[0], parse_scalar(args.x or "0")),
    "abeq": lambda args, lam: catalog.abeq_family(
        _required(args, "n"), _cyc(args, "mu"), _cyc(args, "sqrt_mu"), sign=args.sign
    ),
    "lkb3": lambda args, lam: catalog.lkb3(_cyc(args, "q"), _cyc(args, "t")),
    "perm3": lambda args, lam: catalog.perm3(_cyc(args, "t")),
}


def _cmd_construct(args) -> tuple[LBRep, int]:
    lam = [parse_scalar(s) for s in args.lam or []]
    return _FAMILIES[args.family](args, lam), 0


# -- verify --------------------------------------------------------------------


def _cmd_verify(args) -> tuple[dict, int]:
    rep, meta = _load_rep(args.file)
    report = verify(rep, GroupKind[args.group])
    payload = {
        "meta": meta,
        "group": args.group,
        "verdicts": report.verdicts,
        "all_hold": report.all_hold,
        "failing": report.failing,
    }
    return payload, 0 if report.all_hold else 1


# -- extend ----------------------------------------------------------------------


def _cmd_extend(args) -> tuple[dict, int]:
    rep, meta = _load_rep(args.file, need_pair=True)
    return {"meta": meta, "mode": args.mode, **_MODES[args.mode](rep, args)}, 0


def _k_search(rep: LBRep, refusal: str) -> list[tuple[CycNum, int]]:
    """The k-search's candidates (k, m).  An empty search is bad input when
    k lies only outside the working field, and "refusal: reason" (exit 3)
    otherwise."""
    search = extend.standard_k_candidates(rep.A, rep.B)
    if search.candidates:
        return search.candidates
    no_root = f"k^3 must equal {search.k_cubed}, which has no cube root in"
    n = search.suggested_conductor
    reason = {
        "cube-not-scalar": "(AB)^3 is not scalar",
        "not-cyclotomic": f"{no_root} any cyclotomic field",
        "no-root-in-field": f"{no_root} the working field; "
        + (f"suggested conductor {n}" if n else "no larger conductor was confirmed"),
        "no-integer-trace": "no k gives Tr(kAB) a rational integer",
    }[search.reason]
    if search.reason in ("not-cyclotomic", "no-root-in-field"):
        # an empty search forces Tr(AB) = 0: (AB)^3 = cI gives
        # Tr(AB) = mu (m0 + m1 w + m2 w^2) for a cube root mu of c, and
        # were that nonzero, 1/mu would be a k in the field.  So every
        # cube root k of k^3 has Tr(kAB) = 0, and the extension exists
        # over the field with k adjoined: bad input, not "no extension"
        raise ValueError(f"a standard extension exists only outside the working field: {reason}")
    raise _NoExtension(f"{refusal}: {reason}")


def _extend_standard(rep: LBRep, args) -> dict:
    candidates = _k_search(rep, "no standard extension")
    k = candidates[0][0]
    if args.k is not None:
        want = parse_scalar(args.k)
        k = next((kk for kk, _ in candidates if kk == want), None)
        if k is None:
            raise ValueError("--k is not a valid candidate")
    built, cert = extend.build_standard_extension(rep.A, rep.B, k)
    return {"representation": built, "certificate": cert, "candidate_count": len(candidates)}


def _extend_nonstandard3(rep: LBRep, args) -> dict:
    if rep.A.dim != 3:
        raise ValueError("nonstandard3 mode needs a 3-dimensional braid pair")
    l1, l2, l3 = (rep.A.rows[i][i] for i in range(3))
    # the normal form first (tw3 has no zero lambda): no verdict outside it
    check = None if any(x.is_zero for x in (l1, l2, l3)) else catalog.tw3(l1, l2, l3)
    if check is None or check.A != rep.A or check.B != rep.B:
        raise ValueError("input is not in the tw3 normal form")
    if l3 != -l2:
        # relabeling helps only when another pair of eigenvalues sums to 0
        hint = " (relabel the eigenvalues)" if -l1 in (l2, l3) else ""
        raise _NoExtension(f"no nonstandard extension: requires lambda3 = -lambda2{hint}")
    z = _cyc(args, "z")
    built = catalog.nonstandard_3d(l1, l2, z, sign=args.sign)
    return {
        "z": z,
        "sign": args.sign,
        "representation": built,
        "verifies_SLB3": verify(built, GroupKind.SLB3).all_hold,
    }


def _extend_vb3(rep: LBRep, args) -> dict:
    if rep.S1 is None or rep.S2 is None:
        raise ValueError("vb3 mode needs a verified LB3 representation")
    if not verify(rep, GroupKind.LB3).all_hold:
        raise ValueError("input does not verify LB3")
    # a given k goes to vb3_lift, which checks it, without the search
    k = parse_scalar(args.k) if args.k is not None else _k_search(rep, "no VB3 lift")[0][0]
    built, cert = extend.vb3_lift(rep, k)
    return {"k": k, "representation": built, "trace_of_S": cert.S.trace()}


_MODES = {"standard": _extend_standard, "nonstandard3": _extend_nonstandard3, "vb3": _extend_vb3}


# -- analyze ---------------------------------------------------------------------


# each analyze section: its flag (None: only a run with no flag has it),
# what it needs (0 nothing, 1 the braid pair A, B, 2 the pair and S1, S2),
# the dimensions at which a run with no flag has it (None: all), and its
# computation, which looks its functions up when it runs, so a wrapper put
# on a module's name (as benchmarks/tracing.py puts) sees every call
_SECTIONS = {
    "irreducible": ("--irreducible", 0, None, lambda rep: is_irreducible(rep)),
    "uniqueness": (
        "--uniqueness", 1, (4, 5),
        lambda rep: _or_why(extend.uniqueness_linearized, rep.A, rep.B),
    ),
    "slb3": ("--slb3", 2, None, lambda rep: {
        "direct": extend.slb3_test(rep, "direct"),
        "commutator": _or_why(extend.slb3_test, rep, "commutator", why="hypothesis unmet"),
    }),
    "polynomial_S": (
        "--poly-s", 2, None,
        lambda rep: _or_why(extend.polynomial_S_solve, rep.A, rep.B, rep.S),
    ),
    "k_candidates": (None, 1, None, lambda rep: _or_why(_k_candidates, rep.A, rep.B)),
}
# a requested section that cannot run says why, by what the input has
_MISSING = ("input has no braid pair A, B", "input has no S1, S2")


def _cmd_analyze(args) -> tuple[dict, int]:
    rep, meta = _load_rep(args.file)
    has = 0 if rep.A is None or rep.B is None else 1 if rep.S1 is None else 2
    asked = [name for name in _SECTIONS if getattr(args, name, False)]
    sections = {}
    for name, (_, needs, dims, compute) in _SECTIONS.items():
        ready = has >= needs
        if (name in asked) if asked else (ready and (dims is None or rep.dim in dims)):
            sections[name] = compute(rep) if ready else f"unavailable: {_MISSING[has]}"
    return {"meta": meta, "analysis": sections}, 0


def _or_why(section, *args, why: str = "unavailable"):
    """section(*args), or the text "why: reason" when it cannot be computed,
    so that analyze keeps every section it can."""
    try:
        return section(*args)
    except LoopBraidError as exc:
        return f"{why}: {exc}"


def _k_candidates(a, b) -> dict:
    search = extend.standard_k_candidates(a, b)
    return {
        "candidates": [{"k": k, "m": m} for k, m in search.candidates],
        "reason": search.reason,
    }


# -- certify ---------------------------------------------------------------------


def _cmd_certify(args) -> tuple[dict, int]:
    rep, meta = _load_rep(args.file, need_pair=True)
    report = extend.certify_no_extension(
        rep.A,
        rep.B,
        starts=args.starts,
        tol=args.tol,
        cluster_radius=args.cluster_radius,
        seed=args.seed,
    )
    return {"meta": meta, "report": report}, 0


# -- sweep -----------------------------------------------------------------------


def _cmd_sweep(args) -> tuple[dict, int]:
    report = sampling.standard_extension_sweep(args.family, args.draws, args.seed)
    return {"meta": _meta(None), "sweep": report}, 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopbraid",
        description="Exact toolkit for extending B3 representations to the loop braid group",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # the arguments several commands share, each declared once
    file_arg, out_arg, seed_arg = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    file_arg.add_argument("file")
    out_arg.add_argument("--out")
    seed_arg.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("construct", parents=[out_arg], help="build a catalog representation")
    c.add_argument("family", choices=list(_FAMILIES))
    c.add_argument("--lambda", dest="lam", nargs="*", metavar="CYC")
    c.add_argument("--family", dest="variant", type=int, default=2, help="tw2 family (1 or 2)")
    c.add_argument("--gamma2", metavar="CYC")
    c.add_argument("--gamma", metavar="CYC")
    c.add_argument("--c", metavar="CYC")
    c.add_argument("--x", metavar="CYC")
    c.add_argument("--n", type=int, help="abeq half-dimension")
    c.add_argument("--mu", metavar="CYC")
    c.add_argument("--sqrt-mu", dest="sqrt_mu", metavar="CYC")
    c.add_argument("--sign", type=int, default=-1)
    c.add_argument("--q", metavar="CYC")
    c.add_argument("--t", metavar="CYC")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser(
        "verify", parents=[file_arg, out_arg], help="check the relations of a group"
    )
    v.add_argument("--group", required=True, choices=[k.value for k in GroupKind])
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("extend", parents=[file_arg, out_arg], help="search/build extensions")
    e.add_argument("--mode", default="standard", choices=list(_MODES))
    e.add_argument("--k", metavar="CYC")
    e.add_argument("--z", metavar="CYC")
    e.add_argument("--sign", type=int, default=1)
    e.set_defaults(func=_cmd_extend)

    a = sub.add_parser(
        "analyze", parents=[file_arg, out_arg], help="uniqueness/SLB3/irreducibility reports"
    )
    for name, (flag, *_) in _SECTIONS.items():
        if flag:
            a.add_argument(flag, dest=name, action="store_true")
    a.set_defaults(func=_cmd_analyze)

    ce = sub.add_parser(
        "certify", parents=[file_arg, seed_arg, out_arg], help="no-extension certification"
    )
    ce.add_argument("--starts", type=int, default=2000)
    ce.add_argument("--tol", type=float, default=1e-9)
    ce.add_argument("--cluster-radius", dest="cluster_radius", type=float, default=1e-6)
    ce.set_defaults(func=_cmd_certify)

    s = sub.add_parser(
        "sweep", parents=[seed_arg, out_arg], help="extension-existence rates over random draws"
    )
    s.add_argument("--family", required=True, choices=sampling.family_names())
    s.add_argument("--draws", type=int, default=25)
    s.set_defaults(func=_cmd_sweep)
    return p


# the parser is built once per process; main only reads it
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its report, to --out or stdout, with
    the handler's exit code (0, or 1 for a relation violation).  Bad input
    of any kind exits 2 and no extension exits 3, each here, with one line
    on stderr and no report."""
    args = _parser().parse_args(argv)
    try:
        report, code = args.func(args)
        _emit(report, args.out)
        return code
    except _NoExtension as exc:
        print(exc, file=sys.stderr)
        return 3
    except (LoopBraidError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
