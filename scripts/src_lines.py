"""Size of the ``cheshire`` package in one tree or two: lines, code lines and exported names.

Usage: ``python3 scripts/src_lines.py TREE [OTHER_TREE]``

For every module of ``TREE/src/cheshire`` prints its lines, as ``wc -l``
counts them, and its code lines: the lines that hold a token of code, so
docstrings, comments and blank lines are not counted.  A docstring is the
string statement that opens a module, class or function body.  The last
rows give the totals and ``len(cheshire.__all__)``, read from
``__init__.py`` without importing the package.  With ``OTHER_TREE`` each
row holds both trees' figures (columns 1 and 2) and the second's minus
the first's.  Exits 2 on wrong arguments.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: Token types that are not code.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def module_size(path: Path) -> tuple[int, int]:
    """Lines (newline characters, as ``wc -l``) and code lines of one source file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def exported_names(package: Path) -> int:
    """``len(__all__)`` of the package's ``__init__.py``."""
    for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            return len(ast.literal_eval(node.value))
    raise SystemExit(f"{package}: no __all__ in __init__.py")


def tree_sizes(tree: Path) -> dict[str, tuple[int, ...]]:
    """Per module (lines, code lines), then the total and the exported-name count."""
    package = tree / "src" / "cheshire"
    sizes: dict[str, tuple[int, ...]] = {path.name: module_size(path) for path in sorted(package.glob("*.py"))}
    sizes["total"] = tuple(map(sum, zip(*sizes.values())))
    sizes["__all__"] = (exported_names(package),)
    return sizes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE", help="source tree with the package under src/")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    if len(trees) > 2 or not all((tree / "src" / "cheshire").is_dir() for tree in trees):
        parser.error("give one or two trees, each holding src/cheshire")
    sizes = [tree_sizes(tree) for tree in trees]
    names = sorted(set().union(*sizes) - {"total", "__all__"}) + ["total", "__all__"]
    columns = ["lines", "code"] if len(trees) == 1 else ["lines 1", "lines 2", "delta", "code 1", "code 2", "delta"]
    for k, tree in enumerate(trees, 1):
        print(f"tree {k}: {tree}")
    print(f"{'module':<16}" + "".join(f"{column:>8}" for column in columns))
    for name in names:
        values = [tree.get(name, (0, 0)) for tree in sizes]
        cells = []
        for k in range(len(values[0])):
            figures = [value[k] for value in values]
            cells += figures if len(figures) == 1 else [*figures, figures[1] - figures[0]]
        print(f"{name:<16}" + "".join(f"{cell:>8}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
