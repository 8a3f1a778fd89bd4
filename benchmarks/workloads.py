"""The benchmark workloads: seeded inputs, one op each, output checks.

Every op drives the ``loopbraid`` command in-process through
``cli.main([...])`` and reads back the reports it wrote.  Inputs come from
the benchmark seed only: catalog parameters are drawn as CYC literals
(a rational times a root of unity) with ``loopbraid.sampling``'s
rational draws, and the shape of every pool (families, dimensions,
conjugated and reducible shares) is fixed per workload so that seeds
change parameter values, never the mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from loopbraid import cli, sampling
from loopbraid.linalg import CMatrix
from loopbraid.repcore import GroupKind, LBRep, tensor_product
from loopbraid.serialize import rep_from_obj, rep_to_obj

# Acceptance settings of the no-extension certificate (criterion 4).
CERTIFY_ARGS = ["--starts", "2000", "--tol", "1e-9", "--cluster-radius", "1e-6"]
# The certify warm-up runs the same code path with 100 starts (about 0.5 s),
# so that set-up stays short next to a 10-15 s op.
CERTIFY_WARMUP_STARTS = "100"


class OpFailed(Exception):
    """An op exited with the wrong code, crashed, or failed an output check."""


class WrongOutput(OpFailed):
    """A wrong verdict: a report or exit code contradicts a known exact value."""


@dataclass
class Item:
    """One input of a workload pool and how its op runs."""

    label: str
    family: str
    dim: int
    conductor: int
    conjugated: bool = False
    reducible: bool = False
    construct: list[str] | None = None  # `construct` arguments, or None
    path: str | None = None  # pre-built input file, when no construct step
    expect: dict = field(default_factory=dict)


@dataclass
class OpResult:
    ok: bool
    wrong_output: bool
    reports: bytes
    error: str | None = None


# -- CYC literals --------------------------------------------------------------
# A monomial is (q, e) for q * zeta_n^e; products stay monomials, so the
# structural constraints of each family are met exactly.


def _mono(rng: random.Random, n: int) -> tuple[Fraction, int]:
    return sampling.rand_rational(rng), rng.randrange(n)


def _prod(*ms: tuple[Fraction, int], power: int = 1) -> tuple[Fraction, int]:
    q, e = Fraction(1), 0
    for mq, me in ms:
        q, e = q * mq, e + me
    return q**power, e * power


def _inv(m: tuple[Fraction, int]) -> tuple[Fraction, int]:
    return 1 / m[0], -m[1]


def _lit(m: tuple[Fraction, int], n: int) -> str:
    q, e = m[0], m[1] % n
    # parenthesized so argparse never reads "-1/2*z12" as a flag
    return f"({q})" if e == 0 else f"({q}*z{n}^{e})"


def draw_construct(
    family: str, dim: int, n: int, rng: random.Random, tw2_family: int | None = None
) -> list[str]:
    """`construct` arguments for one seeded draw that admits a standard extension.

    Mirrors the structural rules of ``loopbraid.sampling`` (forced cube,
    gamma^4 and gamma^5 products, paired binomial eigenvalues) at conductor n.
    """
    lit = lambda m: _lit(m, n)  # noqa: E731
    if family == "tw2":
        variant = tw2_family or rng.choice([1, 2])
        l2 = _mono(rng, n)
        if variant == 1:  # -l1/l2 is a primitive cube root of unity
            l1 = (l2[0], l2[1] + n // 2 + rng.choice([1, 2]) * n // 3)
        else:  # l1/l2 must not be a primitive sixth root of unity
            while True:
                l1 = _mono(rng, n)
                shift = n // 2 if l1[0] == -l2[0] else 0
                if abs(l1[0]) != abs(l2[0]) or (l1[1] - l2[1] + shift) % n not in (
                    n // 6,
                    5 * n // 6,
                ):
                    break
        return ["tw2", "--lambda", lit(l1), lit(l2), "--family", str(variant)]
    if family == "tw3":
        l1, l2, t = (_mono(rng, n) for _ in range(3))
        l3 = _prod(_prod(t, power=3), _inv(_prod(l1, l2)))
        return ["tw3", "--lambda", lit(l1), lit(l2), lit(l3)]
    if family == "tw4":
        l1, l2, l3, g2 = (_mono(rng, n) for _ in range(4))
        l4 = _prod(_prod(g2, power=2), _inv(_prod(l1, l2, l3)))
        return ["tw4", "--lambda", *map(lit, (l1, l2, l3, l4)), "--gamma2", lit(g2)]
    if family == "tw5":
        ls = [_mono(rng, n) for _ in range(4)]
        g = _mono(rng, n)
        ls.append(_prod(_prod(g, power=5), _inv(_prod(*ls))))
        return ["tw5", "--lambda", *map(lit, ls), "--gamma", lit(g)]
    if family == "binomial":  # dim = d + 1 eigenvalues paired to lambda_i lambda_(d-i) = c
        d = dim - 1
        half = [_mono(rng, n) for _ in range((d + 1) // 2)]
        if d % 2 == 0:
            mid = _mono(rng, n)
            c = _prod(mid, power=2)
            lams = half + [mid] + [_prod(c, _inv(x)) for x in reversed(half)]
        else:
            c = _mono(rng, n)
            lams = half + [_prod(c, _inv(x)) for x in reversed(half)]
        return ["binomial", "--lambda", *map(lit, lams), "--c", lit(c)]
    raise ValueError(f"unknown family {family!r}")


# -- running the command -------------------------------------------------------


def run_cli(argv: list[str], wrong: tuple[int, ...] = ()) -> None:
    """One in-process `loopbraid` command that must exit 0.

    An exit code in `wrong` is a wrong verdict (say, `verify` finding a
    relation that fails on a built extension); any other nonzero code is
    a failed op.  The command's stderr is kept for the message.
    """
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a crash is a failed op, never a dead benchmark
        raise OpFailed(f"{argv[0]} raised {type(exc).__name__}: {exc}") from exc
    if code != 0:
        msg = err.getvalue().strip().splitlines()
        error = WrongOutput if code in wrong else OpFailed
        raise error(f"{argv[0]} exited {code}: {msg[-1] if msg else ''}")


def _read(path: str) -> tuple[bytes, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _integer_value(obj: dict) -> int | None:
    """The rational integer a serialized CycNum equals, or None."""
    coeffs = [Fraction(c) for c in obj["coeffs"]]
    if any(coeffs[1:]) or coeffs[0].denominator != 1:
        return None
    return int(coeffs[0])


def _matrix_trace(obj: dict) -> dict:
    """Trace of a serialized CMatrix, summed here rather than by the program."""
    entries = obj["entries"]
    sums = [Fraction(0)] * len(entries[0][0]["coeffs"])
    for i, row in enumerate(entries):
        for j, c in enumerate(row[i]["coeffs"]):
            sums[j] += Fraction(c)
    return {"coeffs": [str(c) for c in sums]}


def _conjugate(rep_obj: dict, rng: random.Random) -> dict:
    """A dense B3 copy P A P^-1, P B P^-1 with P = L U unimodular (+-1 entries)."""
    rep = rep_from_obj(rep_obj)
    d, n = rep.dim, rep.conductor
    sign = lambda: rng.choice([-1, 1])  # noqa: E731
    lower = CMatrix.build(d, n, lambda i, j: 1 if i == j else (sign() if i > j else 0))
    upper = CMatrix.build(d, n, lambda i, j: 1 if i == j else (sign() if i < j else 0))
    p = lower @ upper
    pinv = p.inverse()
    return rep_to_obj(LBRep(target=GroupKind.B3, A=p @ rep.A @ pinv, B=p @ rep.B @ pinv))


# -- the uniqueness rank in F_p --------------------------------------------------
# For a prime p = 1 (mod 60), Phi_12 and Phi_60 split mod p, so zeta_N -> r
# (r of order N) maps Z[zeta_N][1/D] into F_p.  Rank can only drop under this
# map, so the rank of the uniqueness system mod p is a lower bound on the
# exact rank, and equals N_d on every draw where N_d is the right answer.

_P = 2147482921


def _root_mod_p(n: int) -> int:
    """An element of exact order n in F_p."""
    for a in range(2, _P):
        r = pow(a, (_P - 1) // n, _P)
        if all(pow(r, n // q, _P) != 1 for q in (2, 3, 5, 7) if n % q == 0):
            return r
    raise ValueError(f"no element of order {n}")


def _mat_mod_p(obj: dict, r: int) -> list[list[int]]:
    def entry(e):
        acc = 0
        for j, c in enumerate(e["coeffs"]):
            q = Fraction(c)
            acc += q.numerator * pow(q.denominator, -1, _P) * pow(r, j, _P)
        return acc % _P

    return [[entry(e) for e in row] for row in obj["entries"]]


def _mm(x, y):
    return [[sum(a * b for a, b in zip(row, col)) % _P for col in zip(*y)] for row in x]


def _rank_mod_p(rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, _P)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % _P
            if f:
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cyclic_mod_p(mat_obj: dict) -> bool:
    """True proves min poly = char poly: some Krylov basis has full rank mod p."""
    b = _mat_mod_p(mat_obj, _root_mod_p(mat_obj["conductor"]))
    d = len(b)
    for v in ([1] * d, list(range(1, d + 1)), [1] + [0] * (d - 1)):
        krylov = [v]
        for _ in range(d - 1):
            krylov.append([sum(x * y for x, y in zip(row, krylov[-1])) % _P for row in b])
        if _rank_mod_p(krylov) == d:
            return True
    return False


def uniqueness_rank_mod_p(rep_obj: dict) -> int:
    """Rank mod p of the system `extend.uniqueness_linearized` builds for (A, B)."""
    r = _root_mod_p(rep_obj["A"]["conductor"])
    a, b = (_mat_mod_p(rep_obj[k], r) for k in ("A", "B"))
    d = len(a)
    basis = [_mm(a, b)]  # B^n A B
    for _ in range(d - 1):
        basis.append(_mm(b, basis[-1]))
    fbasis = [_mm(_mm(b, e), a) for e in basis]
    monomials = [(m, k) for m in range(d) for k in range(m, d) if m + k > 0]
    rows = []
    for mats in (basis, fbasis):
        prod = {}
        for m, k in monomials:
            mk = _mm(mats[m], mats[k])
            if m != k:
                km = _mm(mats[k], mats[m])
                mk = [[(x + y) % _P for x, y in zip(r1, r2)] for r1, r2 in zip(mk, km)]
            prod[m, k] = mk
        rows += [
            [prod[mk][i][j] for mk in monomials]
            for i in range(d) for j in range(d) if i + j >= d
        ]
    return _rank_mod_p(rows)


# -- workloads -----------------------------------------------------------------


class Workload:
    """A fixed-shape pool of inputs and the op run on each of them."""

    name = ""
    calibration = "python"  # the kernel of calibrate.py that times like the ops
    # ops per second of `--seconds`: about the workload's rate at the
    # reference speed of calibrate.py, so that a run's ops take about
    # `--seconds` there
    ops_per_second = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = sampling.rng_for(seed)
        os.makedirs(workdir, exist_ok=True)
        self.pool: list[Item] = self.build_pool()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def build_pool(self) -> list[Item]:
        raise NotImplementedError

    def op(self, item: Item, index: int, pass_no: int) -> list[bytes]:
        """Run one op; returns the report bodies it wrote, in step order."""
        raise NotImplementedError

    def op_count(self, seconds: float) -> int:
        """Ops in a timed phase of `seconds`: fixed, so every run attempts
        the same ops whatever the machine's speed, and at least one."""
        return max(1, round(seconds * self.ops_per_second))

    def warmup(self) -> OpResult:
        """The set-up op; repeated after the timed phase for byte identity."""
        return self.run(0, 0)

    def run(self, index: int, pass_no: int, **kwargs) -> OpResult:
        try:
            reports = self.op(self.pool[index], index, pass_no, **kwargs)
        except WrongOutput as exc:
            return OpResult(False, True, b"", str(exc))
        except OpFailed as exc:
            return OpResult(False, False, b"", str(exc))
        except Exception as exc:  # a missing or malformed report fails the op
            tb = traceback.format_exc(limit=-1).strip().splitlines()[-2:]
            return OpResult(False, False, b"", f"{type(exc).__name__}: {exc} ({' '.join(tb)})")
        return OpResult(True, False, b"".join(reports))

    def mix(self, n_ops: int) -> dict:
        """Input-mix shares of the first n_ops ops: family, dimension, ..."""
        items = [self.pool[i % len(self.pool)] for i in range(n_ops)]

        def shares(key):
            out: dict[str, float] = {}
            for it in items:
                k = str(key(it))
                out[k] = out.get(k, 0.0) + 1 / n_ops
            return {k: round(v, 4) for k, v in sorted(out.items())}

        return {
            "pool_size": len(self.pool),
            "ops": n_ops,
            "family": shares(lambda it: it.family),
            "dimension": shares(lambda it: it.dim),
            "conductor": shares(lambda it: it.conductor),
            "conjugated": round(sum(it.conjugated for it in items) / n_ops, 4),
            "reducible": round(sum(it.reducible for it in items) / n_ops, 4),
        }


class Certify(Workload):
    name = "certify"
    calibration = "numpy"  # the numeric oracle is nearly all of an op
    ops_per_second = 0.13  # 2 ops at 15 s; an op is about 12.9 s

    def build_pool(self) -> list[Item]:
        path = self.path("c6.json")
        run_cli(["construct", "counterexample6", "--out", path])
        return [Item("counterexample6", "counterexample6", 6, 3, path=path)]

    def oracle_seed(self, pass_no: int) -> int:
        return random.Random(f"{self.seed}/{pass_no}").randrange(2**31)

    def op(self, item, index, pass_no, starts=None):
        out = self.path("certify.json")
        seed = str(self.oracle_seed(pass_no))
        args = CERTIFY_ARGS if starts is None else ["--starts", starts]
        run_cli(["certify", item.path, *args, "--seed", seed, "--out", out])
        raw, obj = _read(out)
        rep = obj["report"]
        if not (
            rep["verdict"].startswith("no extension")
            and rep["exact_steps_pass"]
            and rep["all_traces_non_integer"]
            and rep["oracle_exhaustive"]
            and len(rep["candidates"]) == 6
        ):
            raise WrongOutput(f"certify verdict {rep['verdict']!r}")
        return [raw]

    def warmup(self) -> OpResult:
        return self.run(0, -1, starts=CERTIFY_WARMUP_STARTS)


class Extend(Workload):
    """construct -> extend standard -> verify LB3 -> extend vb3 -> verify VB3."""

    name = "extend"
    conductor = 12
    # A 15 s run covers 60% of the pool: a large pool averages the cost
    # of seeded draws, which differ by 2x and more within a family.
    per_family = 80  # 400 inputs, about 25 s of ops on a 2-vCPU Xeon
    ops_per_second = 16.0  # 240 ops at 15 s
    dense = True

    def slots(self):
        """(family, dimension, conjugated, tw2 family) of each pool item.

        Every fourth input of a family is a dense copy, except for tw5 and
        at N=60: there a dense op costs 0.4-7.2 s by seed, so a few inputs
        would set the run's time and its spread.  Half the tw2 inputs are
        the reducible family 1.  Families alternate in op order, so a slow
        spell of the machine does not fall on one family, and any prefix
        of the pool keeps its mix.
        """
        return [
            (fam, dim, self.dense and k % 4 == 3 and fam != "tw5", 1 + k % 2)
            for k in range(self.per_family)
            for fam, dim in (("tw2", 2), ("tw3", 3), ("tw4", 4), ("tw5", 5), ("binomial", 4))
        ]

    def build_pool(self) -> list[Item]:
        n = self.conductor
        pool = []
        for i, (fam, dim, conj, tw2_family) in enumerate(self.slots()):
            args = draw_construct(fam, dim, n, self.rng, tw2_family)
            label = f"{fam}-d{dim}-N{n}" + ("-conj" if conj else "")
            item = Item(label, fam, dim, n, reducible=fam == "tw2" and tw2_family == 1)
            if not conj:
                item.construct = args
            else:
                base = self.path(f"base{i}.json")
                run_cli(["construct", *args, "--out", base])
                item.path = self.path(f"conj{i}.json")
                item.conjugated = True
                _write_json(item.path, _conjugate(_read(base)[1], self.rng))
            pool.append(item)
        return pool

    def op(self, item, index, pass_no):
        p = lambda s: self.path(f"{s}{index}.json")  # noqa: E731
        reports = []
        src = item.path
        if item.construct is not None:
            src = p("rep")
            run_cli(["construct", *item.construct, "--out", src])
            reports.append(_read(src)[0])
        # every input admits a standard extension, so exit 3 is wrong
        run_cli(["extend", src, "--mode", "standard", "--out", p("ext")], wrong=(3,))
        raw, ext = _read(p("ext"))
        reports.append(raw)
        # `extend` writes a report, not a rep file; its `representation`
        # object is what the next steps take.
        _write_json(p("lb3"), ext["representation"])
        run_cli(["verify", p("lb3"), "--group", "LB3", "--out", p("vlb3")], wrong=(1,))
        raw, ver = _read(p("vlb3"))
        reports.append(raw)
        run_cli(["extend", p("lb3"), "--mode", "vb3", "--out", p("vb3")], wrong=(3,))
        raw, vb3 = _read(p("vb3"))
        reports.append(raw)
        _write_json(p("vb3rep"), vb3["representation"])
        run_cli(["verify", p("vb3rep"), "--group", "VB3", "--out", p("vvb3")], wrong=(1,))
        raw, ver2 = _read(p("vvb3"))
        reports.append(raw)
        cert = ext["certificate"]
        m = cert["trace_value"]
        if not (ver["all_hold"] and ver2["all_hold"]):
            raise WrongOutput("a relation fails on the built extension")
        if _integer_value(_matrix_trace(cert["S"])) != m:
            raise WrongOutput(f"certificate trace_value {m} is not Tr(S)")
        if _integer_value(vb3["trace_of_S"]) != m:
            raise WrongOutput("VB3 trace_of_S differs from Tr(S)")
        return reports


class ExtendN60(Extend):
    name = "extend-n60"
    conductor = 60
    per_family = 30  # 150 inputs, about 34 s of ops
    ops_per_second = 4.4  # 66 ops at 15 s
    dense = False


class Analyze(Workload):
    """`analyze FILE` with all sections on pre-built inputs at N=12."""

    name = "analyze"
    conductor = 12
    # (kind, family, dimension): "pair" is the B3 pair, "ext" its standard
    # extension, "square" the tensor square of a tw2 extension, "conj" a
    # dense copy of a B3 pair.
    # 52 inputs, about 18 s of ops.  Kinds alternate in op order, so the
    # 3 dense copies (which fail, known defect 1) are ops 10, 21 and 31,
    # and every run of 32 ops or more attempts all of them.
    ops_per_second = 3.0  # 45 ops at 15 s
    SLOTS = (
        [("pair", "tw4", 4), ("ext", "tw4", 4)] * 7
        + [("pair", "tw5", 5), ("ext", "tw5", 5)] * 7
        + [("pair", "binomial", 3), ("ext", "binomial", 3)] * 3
        + [("pair", "binomial", 5), ("ext", "binomial", 5)] * 4
        + [("c6", "counterexample6", 6)] * 2
        + [("square", "tw2", 4)] * 5
        + [("conj", "tw4", 4)] * 3
    )

    def build_pool(self) -> list[Item]:
        n = self.conductor
        pool = []
        for i, (kind, fam, dim) in enumerate(self.SLOTS):
            path = self.path(f"in{i}.json")
            label = f"{kind}-{fam}-d{dim}"
            if kind == "c6":
                run_cli(["construct", "counterexample6", "--out", path])
                pool.append(Item(label, fam, dim, 3, path=path, expect={"irreducible": True}))
                continue
            if kind == "ext":  # extension of the pair drawn just before
                run_cli(["extend", pool[-1].path, "--mode", "standard", "--out", path])
                _write_json(path, _read(path)[1]["representation"])
                # polynomial_S needs min poly = char poly of B; when that
                # is not proven, "unavailable" is an accepted answer
                cyclic = cyclic_mod_p(_read(path)[1]["B"])
                expect = {"poly_s": "required" if cyclic else "optional", **pool[-1].expect}
                pool.append(Item(label, fam, dim, n, path=path, expect=expect))
                continue
            # tw2 family 2 makes AB skew lower triangular, so the tensor
            # square passes the uniqueness form check
            args = draw_construct(fam, dim, n, self.rng, tw2_family=2)
            run_cli(["construct", *args, "--out", path])
            obj = _read(path)[1]
            if fam == "binomial":  # the constructor returns the extension
                obj = {**obj, "target": "B3", "S1": None, "S2": None}
            if kind == "square":
                run_cli(["extend", path, "--mode", "standard", "--out", path])
                rep = rep_from_obj(_read(path)[1]["representation"])
                obj = rep_to_obj(tensor_product(rep, rep))
                item = Item(label, fam, dim, n, reducible=True, expect={"irreducible": False})
            elif kind == "conj":
                obj = _conjugate(obj, self.rng)
                item = Item(label, fam, dim, n, conjugated=True)
            else:
                item = Item(label, fam, dim, n)
                if fam in ("tw4", "tw5"):
                    # N_d = 9 or 14 unknowns bound the rank from above
                    item.expect["rank"] = (uniqueness_rank_mod_p(obj), {4: 9, 5: 14}[dim])
            _write_json(path, obj)
            item.path = path
            pool.append(item)
        # kinds alternate in op order, as in Extend.slots
        ordinal, first = {}, {}
        for i, it in enumerate(pool):
            first.setdefault(it.label, i)
            ordinal[i] = sum(1 for other in pool[:i] if other.label == it.label)
        order = sorted(range(len(pool)), key=lambda i: (ordinal[i], first[pool[i].label]))
        return [pool[i] for i in order]

    def op(self, item, index, pass_no):
        out = self.path(f"an{index}.json")
        run_cli(["analyze", item.path, "--out", out])
        raw, obj = _read(out)
        sec = obj["analysis"]
        exp = item.expect
        if "irreducible" in exp and sec.get("irreducible") is not exp["irreducible"]:
            raise WrongOutput(f"irreducible is {sec.get('irreducible')}")
        if "rank" in exp:
            low, n_d = exp["rank"]
            rank = sec.get("uniqueness", {}).get("rank")
            if rank is None or not low <= rank <= n_d:
                raise WrongOutput(f"uniqueness rank {rank} outside [{low}, N_d = {n_d}]")
        coeffs = sec.get("polynomial_S")
        if "poly_s" in exp and (isinstance(coeffs, list) or exp["poly_s"] == "required"):
            if not isinstance(coeffs, list) or not (
                any(Fraction(c) for c in coeffs[0]["coeffs"])
                and not any(Fraction(c) for x in coeffs[1:] for c in x["coeffs"])
            ):
                raise WrongOutput("polynomial_S is not of the form (k, 0, ..., 0)")
        return [raw]


WORKLOADS = {w.name: w for w in (Certify, Extend, ExtendN60, Analyze)}
