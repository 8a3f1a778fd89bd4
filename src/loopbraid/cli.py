"""Command-line front end.

Subcommands: construct, verify, extend, analyze, certify, sweep.  Scalars
are written as CYC literals: a rational ("3/2", "-2"), a root of unity
("z12^5" is zeta_12^5), or a product ("-1/2*z3").  Reports are JSON on
stdout or --out, embed the toolkit version and the SHA-256 of the input
bytes the command parsed, and are byte-identical for identical inputs and
seed.

Exit codes: 0 success, 1 relation violation, 2 bad input, 3 no extension.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__, catalog, extend, sampling
from .cyclotomic import CycNum, make_root_of_unity
from .errors import LoopBraidError, MalformedInput
from .repcore import GroupKind, LBRep, is_irreducible, verify
from .serialize import dumps, rep_from_obj, report_to_obj

_SCALAR_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/0*[1-9]\d*)?)?(?:(?<=\d)\*)?(?P<root>z(?P<n>\d+)(?:\^(?P<k>-?\d+))?)?$"
)


def parse_scalar(text: str) -> CycNum:
    """Parse a CYC literal: RATIONAL, zN[^K], or RATIONAL*zN[^K].

    Literals may be wrapped in parentheses, which keeps argparse from
    mistaking negative values like "(-1/2*z3)" for option flags.  A zero
    denominator ("1/0", "0/0") does not parse.
    """
    text = text.strip().replace(" ", "")
    while text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    m = _SCALAR_RE.match(text)
    if not m or (m.group("rat") is None and m.group("root") is None):
        raise ValueError(f"cannot parse scalar literal {text!r}")
    value = CycNum.from_rational(Fraction(m.group("rat") or 1), 1)
    if m.group("root"):
        n = int(m.group("n"))
        k = int(m.group("k") or 1)
        root = make_root_of_unity(n, k)
        value = value.promote(n) * root
    return value


def _seed_default(args_seed: int | None) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("LOOPBRAID_SEED")
    return int(env) if env else 0


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


def _cmd_construct(args) -> int:
    lam = [parse_scalar(s) for s in args.lam or []]
    if args.family == "tw2":
        rep = catalog.tw2(*_arity(lam, 2), family=args.variant)
    elif args.family == "tw3":
        rep = catalog.tw3(*_arity(lam, 3))
    elif args.family == "tw4":
        rep = catalog.tw4(_arity(lam, 4), parse_scalar(_req(args.gamma2, "--gamma2")))
    elif args.family == "tw5":
        rep = catalog.tw5(_arity(lam, 5), parse_scalar(_req(args.gamma, "--gamma")))
    elif args.family == "binomial":
        rep = catalog.binomial_rep(lam, parse_scalar(_req(args.c, "--c")))
    elif args.family == "counterexample6":
        rep = catalog.counterexample6()
    elif args.family == "v1":
        rep = catalog.v1_family(
            _arity(lam, 1)[0],
            parse_scalar(args.x or "0"),
        )
    elif args.family == "abeq":
        rep = catalog.abeq_family(
            _req(args.n, "--n"),
            parse_scalar(_req(args.mu, "--mu")),
            parse_scalar(_req(args.sqrt_mu, "--sqrt-mu")),
            sign=args.sign,
        )
    elif args.family == "lkb3":
        rep = catalog.lkb3(
            parse_scalar(_req(args.q, "--q")), parse_scalar(_req(args.t, "--t"))
        )
    elif args.family == "perm3":
        rep = catalog.perm3(parse_scalar(_req(args.t, "--t")))
    _emit(rep, args.out)
    return 0


def _arity(values: list, n: int) -> list:
    if len(values) != n:
        raise ValueError(f"expected {n} --lambda values, got {len(values)}")
    return values


def _req(value, flag: str):
    if value is None:
        raise ValueError(f"missing required {flag}")
    return value


# -- verify --------------------------------------------------------------------


def _cmd_verify(args) -> int:
    rep, meta = _load_rep(args.file)
    report = verify(rep, GroupKind[args.group])
    payload = {
        "meta": meta,
        "group": args.group,
        "verdicts": report.verdicts,
        "all_hold": report.all_hold,
        "failing": report.failing,
    }
    _emit(payload, args.out)
    return 0 if report.all_hold else 1


# -- extend ----------------------------------------------------------------------


def _cmd_extend(args) -> int:
    rep, meta = _load_rep(args.file, need_pair=True)
    if args.mode == "standard":
        return _extend_standard(rep, meta, args)
    if args.mode == "nonstandard3":
        return _extend_nonstandard3(rep, meta, args)
    return _extend_vb3(rep, meta, args)


def _extend_standard(rep: LBRep, meta: dict, args) -> int:
    search = extend.standard_k_candidates(rep.A, rep.B)
    if not search.candidates:
        reason = {
            "cube-not-scalar": "(AB)^3 is not scalar",
            "not-cyclotomic": f"k^3 must equal {search.k_cubed}, which has no cube "
            "root in any cyclotomic field",
            "no-root-in-field": "no cube root of Det-scalar in the field "
            f"(k^3 must equal {search.k_cubed}); "
            + (
                f"suggested conductor {search.suggested_conductor}"
                if search.suggested_conductor
                else "no larger conductor was confirmed"
            ),
            "no-integer-trace": "no k gives Tr(kAB) a rational integer",
        }[search.reason]
        print(f"no standard extension: {reason}", file=sys.stderr)
        return 3
    if args.k is not None:
        want = parse_scalar(args.k)
        matches = [kk for kk, _ in search.candidates if kk == want]
        if not matches:
            raise ValueError("--k is not a valid candidate")
        k = matches[0]
    else:
        k = search.candidates[0][0]
    built, cert = extend.build_standard_extension(rep.A, rep.B, k)
    payload = {
        "meta": meta,
        "mode": "standard",
        "representation": built,
        "certificate": cert,
        "candidate_count": len(search.candidates),
    }
    _emit(payload, args.out)
    return 0


def _extend_nonstandard3(rep: LBRep, meta: dict, args) -> int:
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
        print(f"no nonstandard extension: requires lambda3 = -lambda2{hint}", file=sys.stderr)
        return 3
    z = parse_scalar(_req(args.z, "--z"))
    built = catalog.nonstandard_3d(l1, l2, z, sign=args.sign)
    payload = {
        "meta": meta,
        "mode": "nonstandard3",
        "z": z,
        "sign": args.sign,
        "representation": built,
        "verifies_SLB3": verify(built, GroupKind.SLB3).all_hold,
    }
    _emit(payload, args.out)
    return 0


def _extend_vb3(rep: LBRep, meta: dict, args) -> int:
    if rep.S1 is None or rep.S2 is None:
        raise ValueError("vb3 mode needs a verified LB3 representation")
    if not verify(rep, GroupKind.LB3).all_hold:
        raise ValueError("input does not verify LB3")
    if args.k is not None:
        k = parse_scalar(args.k)
    else:
        search = extend.standard_k_candidates(rep.A, rep.B)
        if not search.candidates:
            print("no VB3 lift: no standard-extension candidate k exists", file=sys.stderr)
            return 3
        k = search.candidates[0][0]
    built = extend.vb3_lift(rep, k)
    payload = {
        "meta": meta,
        "mode": "vb3",
        "k": k,
        "representation": built,
        "trace_of_S": built.S.trace(),
    }
    _emit(payload, args.out)
    return 0


# -- analyze ---------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    rep, meta = _load_rep(args.file)
    sections = {}
    run_all = not (args.uniqueness or args.slb3 or args.irreducible or args.poly_s)
    pair = rep.A is not None and rep.B is not None
    with_s = pair and rep.S1 is not None
    # an explicitly requested section that cannot run says why
    missing = "input has no S1, S2" if pair else "input has no braid pair A, B"
    for requested, name, ready in (
        (args.uniqueness, "uniqueness", pair),
        (args.slb3, "slb3", with_s),
        (args.poly_s, "polynomial_S", with_s),
    ):
        if requested and not ready:
            sections[name] = f"unavailable: {missing}"
    if args.irreducible or run_all:
        sections["irreducible"] = is_irreducible(rep)
    if pair and (args.uniqueness or run_all and rep.dim in (4, 5)):
        sections["uniqueness"] = _or_why(extend.uniqueness_linearized, rep.A, rep.B)
    if (args.slb3 or run_all) and with_s:
        sections["slb3"] = {
            "direct": extend.slb3_test(rep, "direct"),
            "commutator": _or_why(
                extend.slb3_test, rep, "commutator", why="hypothesis unmet"
            ),
        }
    if (args.poly_s or run_all) and with_s:
        sections["polynomial_S"] = _or_why(extend.polynomial_S_solve, rep.A, rep.B, rep.S)
    if run_all and pair:
        sections["k_candidates"] = _or_why(_k_candidates, rep.A, rep.B)
    payload = {"meta": meta, "analysis": sections}
    _emit(payload, args.out)
    return 0


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


def _cmd_certify(args) -> int:
    rep, meta = _load_rep(args.file, need_pair=True)
    report = extend.certify_no_extension(
        rep.A,
        rep.B,
        starts=args.starts,
        tol=args.tol,
        cluster_radius=args.cluster_radius,
        seed=_seed_default(args.seed),
    )
    payload = {"meta": meta, "report": report}
    _emit(payload, args.out)
    return 0


# -- sweep -----------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    report = sampling.standard_extension_sweep(
        args.family, args.draws, _seed_default(args.seed)
    )
    payload = {"meta": _meta(None), "sweep": report}
    _emit(payload, args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopbraid",
        description="Exact toolkit for extending B3 representations to the loop braid group",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a catalog representation")
    c.add_argument("family", choices=[
        "tw2", "tw3", "tw4", "tw5", "binomial", "counterexample6",
        "v1", "abeq", "lkb3", "perm3",
    ])
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
    c.add_argument("--out")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="check the relations of a group")
    v.add_argument("file")
    v.add_argument("--group", required=True, choices=[k.value for k in GroupKind])
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("extend", help="search/build extensions")
    e.add_argument("file")
    e.add_argument("--mode", default="standard", choices=["standard", "nonstandard3", "vb3"])
    e.add_argument("--k", metavar="CYC")
    e.add_argument("--z", metavar="CYC")
    e.add_argument("--sign", type=int, default=1)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_extend)

    a = sub.add_parser("analyze", help="uniqueness/SLB3/irreducibility reports")
    a.add_argument("file")
    a.add_argument("--uniqueness", action="store_true")
    a.add_argument("--slb3", action="store_true")
    a.add_argument("--irreducible", action="store_true")
    a.add_argument("--poly-s", dest="poly_s", action="store_true")
    a.add_argument("--out")
    a.set_defaults(func=_cmd_analyze)

    ce = sub.add_parser("certify", help="no-extension certification")
    ce.add_argument("file")
    ce.add_argument("--starts", type=int, default=2000)
    ce.add_argument("--tol", type=float, default=1e-9)
    ce.add_argument("--cluster-radius", dest="cluster_radius", type=float, default=1e-6)
    ce.add_argument("--seed", type=int, default=None)
    ce.add_argument("--out")
    ce.set_defaults(func=_cmd_certify)

    s = sub.add_parser("sweep", help="extension-existence rates over random draws")
    s.add_argument("--family", required=True, choices=sampling.family_names())
    s.add_argument("--draws", type=int, default=25)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep)
    return p


# the parser is built once per process; main only reads it
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input of any kind exits 2 here."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoopBraidError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
