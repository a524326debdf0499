"""Count the code lines of a Python package directory.

A code line holds at least one token that is not a comment, a newline or
part of a docstring. Blank lines, comment-only lines and the lines of
module, class and function docstrings do not count.

Usage: python3 tools/codelines.py [DIR]   (default: src/lapsewalk)
Prints one "<lines>  <module>" row per module, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers covered by module, class and function docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source):
    """Number of code lines in one module's source text."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                     if n not in docs)
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/lapsewalk")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
