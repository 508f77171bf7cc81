"""Source hygiene checks that need no linter."""

import ast
import importlib
import importlib.util
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
    # pyproject.toml declares numpy (mpmath is a test oracle only); anything
    # else must be the standard library or the package itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "waverg"}
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


def _defaulted_options(tree: ast.Module):
    """(callee name, option, positional index or None) for every parameter
    with a default and every init dataclass field with a default."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            name = node.name
            if name == "__init__":
                # called through the class, which the enclosing walk names
                name = next(c.name for c in ast.walk(tree)
                            if isinstance(c, ast.ClassDef) and node in c.body)
            first = len(positional) - len(a.defaults)
            out += [(name, p, i) for i, p in enumerate(positional)
                    if i >= first]
            out += [(name, p.arg, None) for p, d in
                    zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
            for i, s in enumerate(fields):
                if isinstance(s.value, ast.Call):  # field(...)
                    kws = {kw.arg: kw.value for kw in s.value.keywords}
                    init = kws.get("init")
                    defaulted = ({"default", "default_factory"} & kws.keys()
                                 and not (isinstance(init, ast.Constant)
                                          and init.value is False))
                else:
                    defaulted = s.value is not None
                if defaulted:
                    out.append((node.name, s.target.id, i))
    return out


def _sets(call: ast.Call, option: str, index: int | None) -> bool:
    """True if ``call`` passes ``option`` (at positional ``index``)."""
    return (any(kw.arg in (option, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or index is not None and len(call.args) > index)


def test_every_option_is_set_somewhere():
    """Each defaulted parameter of a ``waverg`` function, and each defaulted
    init field of a ``waverg`` dataclass, is set by some call in the
    package, the tests or the benchmark.  An option that nothing sets has
    one value, and belongs in the code as a constant.

    A call sets an option when it passes it by keyword, passes enough
    positional arguments to reach it, or unpacks ``*args`` or ``**kwargs``.
    Calls are matched by callee name alone (``f(...)`` or ``x.f(...)``),
    so a call to another function of the same name counts: the check is
    lenient by design and catches only options that no call could set."""
    package = Path(waverg.__file__).parent
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for path in sorted({*package.glob("*.py"), *root.glob("tests/*.py"),
                        *root.glob("perfbench/*.py")}):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    unset = [f"{path.name}: {name}({option})"
             for path in sorted(package.glob("*.py"))
             for name, option, index in _defaulted_options(
                 ast.parse(path.read_text()))
             if not any(_sets(c, option, index) for c in calls.get(name, ()))]
    assert not unset, unset


def test_private_helpers_are_used_in_the_package():
    # a module-level function or class, private or public, that the package
    # reads nowhere outside its own definition, and that __init__ does not
    # export, is dead code or test-only code, even if a test calls it
    package = Path(waverg.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}

    def reads(node, name):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name)

    unused = []
    for module, tree in trees.items():
        for definition in tree.body:
            name = getattr(definition, "name", "")
            if not (isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                    and not name.endswith("__")):
                continue
            inside = {id(n) for n in ast.walk(definition)}
            if not any(reads(n, name) for t in trees.values()
                       for n in ast.walk(t) if id(n) not in inside):
                unused.append(f"{module}: {name}")
    assert not unused, unused


def test_traced_functions_resolve_with_their_counted_parameters():
    # perfbench/tracing.py wraps each TRACED (module, function) by name and
    # binds its counters' arguments by parameter name, so a rename in the
    # package would leave --trace 1 counting nothing; read, not changed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bound = {tracing._count_dense_map: {"N"},
             tracing._count_profile: {"d", "offsets", "quad_points"},
             tracing._count_q_norm: {"quad_points"},
             tracing._count_cascade: set()}  # reads the result only
    missing = []
    for targets in tracing.TRACED.values():
        for module, name, counter in targets:
            fn = getattr(importlib.import_module(f"waverg.{module}"), name,
                         None)
            if not callable(fn):
                missing.append(f"waverg.{module}.{name}")
            elif counter is not None:
                assert counter in bound, counter.__name__
                missing += [f"waverg.{module}.{name}({param})"
                            for param in sorted(bound[counter])
                            if param not in inspect.signature(fn).parameters]
    assert not missing, missing


def test_oracles_share_one_interface():
    # every exact oracle reads p, q and q_difference_norms with the same
    # parameters, and _oracle is the one chooser among them
    from waverg import Flat, Harmonic, Tabulated, kgrid, mera
    classes = (mera._Quadrature, mera._MasslessForms, mera._HarmonicForms)
    for read in ("p", "q", "q_difference_norms"):
        signatures = {tuple(inspect.signature(getattr(c, read)).parameters)
                      for c in classes}
        assert len(signatures) == 1, (read, signatures)
    k = kgrid(256)
    for d, want in ((Harmonic(0.0), mera._MasslessForms),
                    (Harmonic(0.3), mera._HarmonicForms),
                    (Flat(1.0), mera._Quadrature),
                    (Tabulated(k, Harmonic(0.3)(k)), mera._Quadrature)):
        assert type(mera._oracle(d, 1 << 12)) is want, d
