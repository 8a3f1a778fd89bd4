"""Benchmark-side tracing of loopbraid's layer boundaries.

``Tracer.install`` replaces, from outside the package, each layer's public
functions, in the defining module and under every name another module
imported them as (``cli.verify``, ``extend.solve_linear``,
``repcore.algebra_dimension``, ...), plus the heavy ``CMatrix`` methods.
Each call records a span (name, start, end, parent, op id).  The
``cyclotomic`` layer builds ~10^5 objects per op, so it gets counters and
aggregate busy time instead of spans.  ``serialize`` is spanned only where
other modules call it: its helpers call each other once per matrix entry.
``uninstall`` restores every replaced attribute.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("linalg", "repcore", "catalog", "extend", "serialize", "cli")
# modules whose internal calls are not spanned (see the module docstring)
_UNSPANNED_INSIDE = {"serialize"}
_CMATRIX_METHODS = (
    "__matmul__", "matpow", "kron", "det", "inverse", "rank", "kernel",
    "char_poly", "min_poly", "is_diagonalizable",
)
_MATMUL = "linalg.CMatrix.__matmul__"
_ELIM = {
    "linalg.CMatrix.det", "linalg.CMatrix.inverse", "linalg.CMatrix.rank",
    "linalg.CMatrix.kernel", "linalg.rref", "linalg.matrix_rank", "linalg.solve_linear",
}
_POLY = {"linalg.CMatrix.char_poly", "linalg.CMatrix.min_poly"}
_ALGDIM = "linalg.algebra_dimension"
_EXTEND_TIMES = {
    "extend.ksearch_s": "extend.standard_k_candidates",
    "extend.build_s": "extend.build_standard_extension",
    "extend.vb3_s": "extend.vb3_lift",
    "extend.uniqueness_s": "extend.uniqueness_linearized",
    "extend.poly_s_s": "extend.polynomial_S_solve",
    "extend.slb3_s": "extend.slb3_test",
    "extend.oracle_s": "extend.numeric_cubic_oracle",
}

# name -> unit, better; the order is the order of the printed metrics
PER_LAYER = {
    "cyclotomic.new_count": ("count", "lower"),
    "cyclotomic.mul_count": ("count", "lower"),
    "cyclotomic.dot_count": ("count", "lower"),
    "cyclotomic.inv_count": ("count", "lower"),
    "cyclotomic.dot_s": ("s", "lower"),
    "cyclotomic.inv_s": ("s", "lower"),
    "cyclotomic.max_coeff_bits": ("bits", "lower"),
    "cyclotomic.root_factor_count": ("count", "lower"),
    "linalg.matmul_count": ("count", "lower"),
    "linalg.matmul_s": ("s", "lower"),
    "linalg.elim_count": ("count", "lower"),
    "linalg.elim_s": ("s", "lower"),
    "linalg.poly_s": ("s", "lower"),
    "linalg.algdim_count": ("count", "lower"),
    "linalg.algdim_s": ("s", "lower"),
    "linalg.algdim_full_ratio": ("ratio", "higher"),
    "repcore.verify_count": ("count", "lower"),
    "repcore.verify_s": ("s", "lower"),
    "repcore.irreducible_s": ("s", "lower"),
    "catalog.construct_s": ("s", "lower"),
    **{name: ("s", "lower") for name in _EXTEND_TIMES},
    "extend.certify_exact_s": ("s", "lower"),
    "extend.oracle_converged_ratio": ("ratio", "higher"),
    "extend.oracle_min_basin": ("count", "higher"),
    "serialize.to_obj_s": ("s", "lower"),
    "serialize.from_obj_s": ("s", "lower"),
    "serialize.dumps_s": ("s", "lower"),
    "serialize.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.nonzero_exit_count": ("count", "lower"),
}


def _coeff_bits(value) -> int:
    """Largest numerator or denominator bit length in a linalg result."""
    num = getattr(value, "_num", None)
    if num is not None:  # a CycNum
        return max(value._den.bit_length(), *(abs(v).bit_length() for v in num))
    rows = getattr(value, "rows", None)  # CMatrix
    if rows is not None:
        return max(_coeff_bits(e) for r in rows for e in r)
    coeffs = getattr(value, "coeffs", None)  # FieldPoly
    if isinstance(coeffs, tuple):
        return max((_coeff_bits(c) for c in coeffs), default=0)
    if isinstance(value, (tuple, list)):
        return max((_coeff_bits(v) for v in value), default=0)
    return 0


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = -1
        self.counts = dict.fromkeys(("new", "mul", "dot", "inv", "root_factor"), 0)
        self.busy = {"dot": 0.0, "inv": 0.0}
        self.max_bits = 0
        self.algdim_full = 0
        self.oracle = {"converged": 0, "starts": 0, "min_basin": None}
        self.bytes_out = 0
        self.nonzero_exits = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        linalg = name.startswith("linalg.")

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            # a value crosses the linalg boundary when a caller outside
            # linalg receives it
            if linalg and not (stack and spans[stack[-1]][0].startswith("linalg.")):
                self.max_bits = max(self.max_bits, _coeff_bits(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import loopbraid

        mods = {
            name: importlib.import_module(f"loopbraid.{name}")
            for name in ("cyclotomic", "sampling", *LAYERS)
        }
        observers = {
            _ALGDIM: self._observe_algdim,
            "extend.numeric_cubic_oracle": self._observe_oracle,
            "serialize.dumps": self._observe_dumps,
            "cli.main": self._observe_main,
        }
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = self._span(span, obj, observers.get(span))
        for mod_name, mod in [("loopbraid", loopbraid), *mods.items()]:
            for name, obj in list(vars(mod).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is None:
                    continue
                if mod_name in _UNSPANNED_INSIDE and obj.__module__ == mod.__name__:
                    continue
                self._set(mod, name, wrapped)
        cmatrix = mods["linalg"].CMatrix
        for meth in _CMATRIX_METHODS:
            fn = cmatrix.__dict__[meth]
            self._set(cmatrix, meth, self._span(f"linalg.CMatrix.{meth}", fn))
        self._install_cyclotomic(mods)

    def _install_cyclotomic(self, mods) -> None:
        cyc = mods["cyclotomic"]
        cycnum = cyc.CycNum
        counts, busy, clock = self.counts, self.busy, time.perf_counter
        init, mul, inv = cycnum.__init__, cycnum.__mul__, cycnum.inv
        dot, factor = cyc.dot, cyc._roots_by_factorization

        def new(obj, *args, **kwargs):
            counts["new"] += 1
            init(obj, *args, **kwargs)

        def counted_mul(a, b):
            counts["mul"] += 1
            return mul(a, b)

        def timed_inv(x):
            counts["inv"] += 1
            t = clock()
            try:
                return inv(x)
            finally:
                busy["inv"] += clock() - t

        def timed_dot(xs, ys):
            counts["dot"] += 1
            t = clock()
            try:
                return dot(xs, ys)
            finally:
                busy["dot"] += clock() - t

        def counted_factor(x, n):
            counts["root_factor"] += 1
            return factor(x, n)

        self._set(cycnum, "__init__", new)
        self._set(cycnum, "__mul__", counted_mul)
        self._set(cycnum, "__rmul__", counted_mul)
        self._set(cycnum, "inv", timed_inv)
        self._set(cyc, "_roots_by_factorization", counted_factor)
        for mod in mods.values():
            if mod.__dict__.get("dot") is dot:
                self._set(mod, "dot", timed_dot)

    # -- observers ----------------------------------------------------------------

    def _observe_algdim(self, args, out) -> None:
        gens = args[0]
        self.algdim_full += out == gens[0].dim ** 2

    def _observe_oracle(self, args, out) -> None:
        self.oracle["converged"] += out.converged
        self.oracle["starts"] += out.starts
        sizes = [c.size for c in out.clusters]
        if sizes:
            low = self.oracle["min_basin"]
            self.oracle["min_basin"] = min(sizes) if low is None else min(low, *sizes)

    def _observe_dumps(self, args, out) -> None:
        self.bytes_out += len(out.encode())

    def _observe_main(self, args, out) -> None:
        self.nonzero_exits += out != 0

    # -- summaries ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        names = [s[0] for s in spans]
        parent_names = [names[s[3]] if s[3] >= 0 else "" for s in spans]
        dur = [s[2] - s[1] for s in spans]

        def outer(selected):
            """(count, seconds) of spans in `selected` not called from `selected`."""
            idx = [
                i for i, n in enumerate(names)
                if n in selected and parent_names[i] not in selected
            ]
            return len(idx), sum(dur[i] for i in idx)

        def layer_outer(prefix, suffix=""):
            idx = [
                i for i, n in enumerate(names)
                if n.startswith(prefix) and n.endswith(suffix)
                and not parent_names[i].startswith(prefix)
            ]
            return sum(dur[i] for i in idx)

        own = self.self_times()
        cli_self = sum(t for n, t in zip(names, own) if n.startswith("cli."))
        algdim_n, algdim_s = outer({_ALGDIM})
        certify_s = sum(d for n, d in zip(names, dur) if n == "extend.certify_no_extension")
        oracle_in_certify = sum(
            d for n, p, d in zip(names, parent_names, dur)
            if n == "extend.numeric_cubic_oracle" and p == "extend.certify_no_extension"
        )
        starts = self.oracle["starts"]
        return {
            "cyclotomic.new_count": self.counts["new"],
            "cyclotomic.mul_count": self.counts["mul"],
            "cyclotomic.dot_count": self.counts["dot"],
            "cyclotomic.inv_count": self.counts["inv"],
            "cyclotomic.dot_s": self.busy["dot"],
            "cyclotomic.inv_s": self.busy["inv"],
            "cyclotomic.max_coeff_bits": self.max_bits,
            "cyclotomic.root_factor_count": self.counts["root_factor"],
            "linalg.matmul_count": outer({_MATMUL})[0],
            "linalg.matmul_s": outer({_MATMUL})[1],
            "linalg.elim_count": outer(_ELIM)[0],
            "linalg.elim_s": outer(_ELIM)[1],
            "linalg.poly_s": outer(_POLY)[1],
            "linalg.algdim_count": algdim_n,
            "linalg.algdim_s": algdim_s,
            "linalg.algdim_full_ratio": self.algdim_full / algdim_n if algdim_n else 0.0,
            "repcore.verify_count": outer({"repcore.verify"})[0],
            "repcore.verify_s": outer({"repcore.verify"})[1],
            "repcore.irreducible_s": outer({"repcore.is_irreducible"})[1],
            "catalog.construct_s": layer_outer("catalog."),
            **{k: outer({v})[1] for k, v in _EXTEND_TIMES.items()},
            "extend.certify_exact_s": certify_s - oracle_in_certify,
            "extend.oracle_converged_ratio": self.oracle["converged"] / starts if starts else 0.0,
            "extend.oracle_min_basin": self.oracle["min_basin"] or 0,
            "serialize.to_obj_s": layer_outer("serialize.", "_to_obj"),
            "serialize.from_obj_s": layer_outer("serialize.", "_from_obj"),
            "serialize.dumps_s": outer({"serialize.dumps"})[1],
            "serialize.bytes_out": self.bytes_out,
            "cli.self_s": cli_self,
            "cli.nonzero_exit_count": self.nonzero_exits,
        }

    def layer_summary(self) -> dict:
        """Per span name: calls, total and self seconds, grouped by layer."""
        own = self.self_times()
        by_name: dict[str, list] = {}
        for (name, start, end, _, _), t in zip(self.spans, own):
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += t
        layers: dict[str, dict] = {}
        for name, (calls, total, selft) in sorted(by_name.items()):
            layer = name.split(".", 1)[0]
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": {}})
            entry["self_s"] += selft
            entry["calls"][name] = {"count": calls, "total_s": total, "self_s": selft}
        return layers

    def write_spans(self, path: str, t0: float) -> None:
        """CSV of every span; times in seconds from the start of the traced phase."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{start - t0:.6f},{end - t0:.6f}\n")
