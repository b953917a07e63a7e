"""Code lines of the library: for each module of ``src/ftk`` and in total,
the number of lines that hold a token outside comments and docstrings.

A docstring is the string literal that opens a module, class or function
body.  Blank lines, comment lines and docstring lines do not count; a
line of a bracketed expression that runs over several lines counts when
it holds a token of its own, and each line of a string literal that is
not a docstring counts.  This is the figure the project's change log and
roadmap quote as "code lines".  Run it with

    python tests/code_lines.py

from the root of the repository; it reads the sources and imports nothing
from ``ftk``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

LIBRARY = pathlib.Path(__file__).resolve().parent.parent / "src" / "ftk"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_spans(tree) -> list:
    """((start line, col), (end line, col)) of every docstring of tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(text: str) -> int:
    """The number of lines of the source text that hold a token outside
    comments and docstrings."""
    docs = _docstring_spans(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(lo <= tok.start < hi for lo, hi in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def library_counts() -> dict:
    """{module name: code lines} for every module of the library."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(LIBRARY.glob("*.py"))}


def main():
    counts = library_counts()
    for name, n in counts.items():
        print(f"{name:16} {n:5}")
    print(f"{'total':16} {sum(counts.values()):5}")


if __name__ == "__main__":
    main()
