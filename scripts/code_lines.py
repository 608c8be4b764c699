#!/usr/bin/env python3
"""Count the physical and code lines of Python modules.

    python3 scripts/code_lines.py src/prorata/*.py
    python3 scripts/code_lines.py src

A directory stands for every ``*.py`` file under it, in sorted order. A
code line is a physical line that holds at least one token other than a
comment, a docstring or layout (newlines, indentation). A docstring is a
string statement standing alone as the first statement of a module, class
or function body. The script prints one row per module and a total row.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The physical and code lines of one module's source."""
    skip = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", type=pathlib.Path,
                    help="Python files, or directories to search for them")
    args = ap.parse_args(argv)
    files = [f for p in args.paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    rows = [(str(f), *count(f.read_text(encoding="utf-8"))) for f in files]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'physical':>8}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
