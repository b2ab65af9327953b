"""Code lines per module of src/sparselq.

A line counts when it holds a token that is neither a comment nor
whitespace (newline, indent, dedent) and that is not part of a module,
class or function docstring, found with ast.  Blank lines, comments and
docstrings therefore do not count; a string that is not a docstring does.

    python tools/code_lines.py              # the working tree
    python tools/code_lines.py --rev REV    # the files of a git revision
    python tools/code_lines.py --functions  # per top-level function and
                                            # class, largest first
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
_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_OWNERS = (ast.Module, *_DEFINITIONS)


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


def code_line_numbers(source, tree):
    """Line numbers of the code lines in one module's source text."""
    docs = docstring_lines(tree)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in docs)
    return lines


def code_lines(source):
    """Number of code lines in one module's source text."""
    return len(code_line_numbers(source, ast.parse(source)))


def definition_lines(source):
    """(name, code lines) of each top-level function and class, decorators
    included."""
    tree = ast.parse(source)
    lines = code_line_numbers(source, tree)
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield node.name, len(lines.intersection(
                range(first, node.end_lineno + 1)))


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
    parser.add_argument("--functions", action="store_true",
                        help="count each top-level function and class")
    args = parser.parse_args(argv)
    if args.functions:
        rows = [(count, f"{module}:{name}")
                for module, source in sources(args.rev)
                for name, count in definition_lines(source)]
        for count, name in sorted(rows, key=lambda row: -row[0]):
            print(f"{count:6d}  {name}")
        return
    total = 0
    for name, source in sources(args.rev):
        count = code_lines(source)
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    sys.exit(main())
