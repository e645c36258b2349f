"""Line counts of the sqglab sources, per module and in total.

    python tools/loc.py [directory]

Two counts per file: ``lines``, as ``wc -l`` counts them, and ``code``,
the lines that hold a token outside docstrings and comments.  A token
that spans several lines, such as a multi-line string or a bracketed
expression, counts each line it covers.  A docstring is the string that
opens a module, class or function body, as the ``ast`` module finds it.
The directory defaults to ``src/sqglab`` beside this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def counts(text: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one Python source."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "sqglab"
    rows = [(path.name, *counts(path.read_text(encoding="utf-8"))) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
