#!/usr/bin/env python3
"""Count the lines of each module of src/simpca: total lines and code lines.

A code line holds a token that is not part of a comment or a docstring, so
blank lines, comment lines and docstrings are not code. Prints one row per
module and the totals, as TSV.

Usage: python3 scripts/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "simpca"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(total lines, code lines) of a Python source text."""
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(source.splitlines()), len(code)


def main():
    totals = [0, 0]
    print("module\tlines\tcode")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.stem}\t{lines}\t{code}")
    print(f"total\t{totals[0]}\t{totals[1]}")


if __name__ == "__main__":
    main()
