"""Every module-level name and class member in the package is used by the package or exported.

A function, class, method or assigned name that only tests call belongs in
the tests, not in ``src/``.  The check parses the package sources with
``ast``: a module-level name counts as used when code elsewhere in the
package refers to it by a ``Name``, an ``Attribute`` or an import alias,
and a member of a module-level class (a method, property or class
attribute, dunders aside) when code elsewhere refers to it by an
``Attribute``, or when it overrides a member of a base class, which the
base's own code reaches (``GaussianPointer._make``, called by NamedTuple's
``_replace``).  Docstrings and comments do not count, and neither does a
reference from inside the name's own definition.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import cheshire

PACKAGE = Path(cheshire.__file__).parent


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        ]
    return []


def _references(tree: ast.AST, attributes_only: bool = False) -> Counter:
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _trees() -> dict[str, ast.Module]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) > 1
    return trees


def test_every_module_level_name_is_used_or_exported():
    trees = _trees()
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    exported = set(cheshire.__all__)
    unused = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for statement in tree.body:
            own = _references(statement)
            for name in _defined_names(statement):
                if name not in exported and everywhere[name] - own[name] <= 0:
                    unused.append(f"{module}: {name}")
    assert unused == []


def test_every_class_member_is_used():
    trees = _trees()
    everywhere = sum((_references(tree, attributes_only=True) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        namespace = importlib.import_module("cheshire" if module == "__init__.py" else f"cheshire.{module[:-3]}")
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(namespace, cls.name).__mro__[1:]
            for statement in cls.body:
                own = _references(statement, attributes_only=True)
                for name in _defined_names(statement):
                    if name.startswith("__") or any(name in vars(base) for base in bases):
                        continue
                    if everywhere[name] - own[name] <= 0:
                        unused.append(f"{module}: {cls.name}.{name}")
    assert unused == []
