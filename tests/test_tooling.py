"""Source hygiene checks that need no linter."""

import ast
import inspect
import sys
from pathlib import Path

import waverg


def test_no_unused_imports():
    # __init__ imports to re-export, so it is left out
    unused = []
    for path in sorted(Path(waverg.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert not unused, unused


def test_imports_are_declared_dependencies():
    # pyproject.toml declares numpy and mpmath; anything else must be the
    # standard library or the package itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "mpmath", "waverg"}
    foreign = []
    for path in sorted(Path(waverg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert not foreign, foreign


def test_public_names_have_docstrings():
    # written in the source: a dataclass's generated signature does not count
    missing = []
    for name in sorted(waverg.__dict__):
        obj = getattr(waverg, name)
        if name.startswith("_") or not (inspect.isfunction(obj)
                                        or inspect.isclass(obj)):
            continue
        tree = ast.parse(Path(inspect.getfile(obj)).read_text())
        node = next(n for n in tree.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == obj.__name__)
        if not ast.get_docstring(node):
            missing.append(name)
    assert not missing, missing
