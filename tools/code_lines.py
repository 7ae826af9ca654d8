"""Code lines of each module of the package, and their total.

    python tools/code_lines.py [SRC_DIR]

A code line is a physical line that holds a token of code: blank lines,
comments and docstrings (the leading string of a module, class or
function, as ``ast`` finds it) are left out, and each line of a
statement that spans several lines counts.  ``SRC_DIR`` defaults to the
``src/symindex`` of this checkout; the output is one ``name lines`` line
per module, sorted by name, then ``total lines``.
"""

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers of the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    src = pathlib.Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "symindex"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%s %d" % (path.name, count))
    print("total %d" % total)


if __name__ == "__main__":
    main(sys.argv)
