"""Count the code of `src/loopbraid`: code lines and logical statements.

A code line is a line on which a token starts, leaving out blank lines,
comments and docstrings.  A logical statement is a NEWLINE token outside a
docstring.  Only the standard library is used, and nothing is written.

    python3 tools/code_lines.py [package directory]

prints one line per module and the totals, with the package directory
defaulting to the `src/loopbraid` of the checkout that holds this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, _DOCUMENTED) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, logical statements) of one Python file."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines, statements = set(), 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        row = tok.start[0]
        if tok.type in _SKIP or row in docstrings:
            continue
        if tok.type == tokenize.NEWLINE:
            statements += 1
        else:
            lines.add(row)
    return len(lines), statements


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "loopbraid"
    root = Path(argv[1]) if len(argv) > 1 else default
    total_lines = total_statements = 0
    print(f"{'module':<16} {'lines':>6} {'statements':>11}")
    for path in sorted(root.glob("*.py")):
        lines, statements = count(path)
        total_lines += lines
        total_statements += statements
        print(f"{path.stem:<16} {lines:>6} {statements:>11}")
    print(f"{'total':<16} {total_lines:>6} {total_statements:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
