"""Module layering: the package's imports form an acyclic graph, made at
module top, and only the heavy numeric dependencies load lazily."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loopbraid"
MODULES = {p.stem: p for p in PACKAGE.glob("*.py")}  # "__init__" is the package
# (module, function, package) of every import made inside a function: the
# numeric oracle's numpy and the root factorization's sympy, nothing else,
# so that no float reaches an exact verdict unseen
LAZY_SITES = {
    *(
        ("extend", fn, "numpy")
        for fn in (
            "_gemm_rows",
            "_cubic_jacobian",
            "_normal_equations",
            "_solve_hpd",
            "_steps_on",
            "_gauss_newton",
            "numeric_cubic_oracle",
        )
    ),
    ("cyclotomic", "_roots_by_factorization", "sympy"),
}


def _imports(path: Path):
    """(absolute module name, innermost enclosing function or None) for
    each import in path."""
    tree = ast.parse(path.read_text())
    # ast.walk is breadth first, so a nested function overrides its parent
    lazy = {
        id(node): fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["loopbraid" * bool(node.level), node.module]))
            # `from . import extend` names a module, `from . import __version__` does not
            names = [
                f"{base}.{alias.name}" if base == "loopbraid" and alias.name in MODULES else base
                for alias in node.names
            ]
        else:
            continue
        yield from ((name, lazy.get(id(node))) for name in names)


def _stem(name: str) -> str | None:
    """The package module an absolute name lies in, or None outside it."""
    top, _, rest = name.partition(".")
    return (rest.partition(".")[0] or "__init__") if top == "loopbraid" else None


def test_every_module_is_parsed():
    assert {"__init__", "cyclotomic", "catalog", "extend", "cli"} <= MODULES.keys()


def test_intra_package_import_graph_is_acyclic():
    graph = {
        stem: {_stem(name) for name, _ in _imports(path)} - {None, stem}
        for stem, path in MODULES.items()
    }
    assert set().union(*graph.values()) <= MODULES.keys()
    # raises graphlib.CycleError, naming the cycle, if there is one
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("extend") < order.index("catalog") < order.index("sampling")


def test_no_intra_package_import_inside_a_function():
    deferred = [
        (stem, name)
        for stem, path in MODULES.items()
        for name, inner in _imports(path)
        if inner and _stem(name)
    ]
    assert deferred == []


def test_only_numpy_and_sympy_are_imported_lazily():
    lazy = {
        (stem, fn, name.partition(".")[0])
        for stem, path in MODULES.items()
        for name, fn in _imports(path)
        if fn or name.partition(".")[0] in {"numpy", "sympy"}  # a module-top one too
    }
    assert lazy == LAZY_SITES


def test_modular_sits_behind_linalg_alone():
    # every rank question reaches F_p through one route in linalg
    importers = {
        stem
        for stem, path in MODULES.items()
        for name, _ in _imports(path)
        if _stem(name) == "modular" and stem != "modular"
    }
    assert importers == {"linalg"}


def test_every_public_name_resolves():
    import loopbraid

    missing = [name for name in loopbraid.__all__ if not hasattr(loopbraid, name)]
    assert missing == []
