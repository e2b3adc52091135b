#!/usr/bin/env python3
"""Count the code lines of every Python module under a directory.

    python3 scripts/sloc.py [DIR]    (default src)

A code line holds at least one token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body);
blank lines, comment lines and docstring lines are not counted.  A line
that carries both code and a comment counts once.  Prints one line per
module, relative to DIR, then the total.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree):
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            doc = body[0]
            spans.append(((doc.lineno, doc.col_offset),
                          (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source):
    """The number of code lines in `source`, the text of one module."""
    spans = docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default="src")
    args = parser.parse_args(argv)
    total = 0
    for root, dirs, files in os.walk(args.directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d}  {os.path.relpath(path, args.directory)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
