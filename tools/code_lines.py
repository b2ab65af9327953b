"""Code lines per module of src/sparselq.

A line counts when it holds a token that is neither a comment nor
whitespace (newline, indent, dedent) and that is not part of a module,
class or function docstring, found with ast.  Blank lines, comments and
docstrings therefore do not count; a string that is not a docstring does.

    python tools/code_lines.py            # the working tree
    python tools/code_lines.py --rev REV  # the files of a git revision
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

PACKAGE = "src/sparselq"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers that a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines in one module's source text."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in docs)
    return len(lines)


def sources(rev):
    """(module name, source) for each module of the package."""
    if rev is None:
        for name in sorted(os.listdir(PACKAGE)):
            if name.endswith(".py"):
                with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                    yield name, fh.read()
        return
    names = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:{PACKAGE}"],
                           capture_output=True, text=True, check=True).stdout
    for name in sorted(names.split()):
        if name.endswith(".py"):
            yield name, subprocess.run(
                ["git", "show", f"{rev}:{PACKAGE}/{name}"], capture_output=True,
                text=True, check=True).stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="count a git revision, not the tree")
    args = parser.parse_args(argv)
    total = 0
    for name, source in sources(args.rev):
        count = code_lines(source)
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    sys.exit(main())
