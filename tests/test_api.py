import ast
import importlib
import pkgutil
import re
from pathlib import Path

import robustcoreset

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _modules():
    yield robustcoreset
    for info in pkgutil.iter_modules(robustcoreset.__path__):
        yield importlib.import_module(f"robustcoreset.{info.name}")


def test_every_all_entry_resolves():
    for mod in _modules():
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)


def test_no_private_cross_imports():
    # a module's underscore names are its own; another module that needs
    # one should get a public name instead
    offenders = []
    for path in Path(robustcoreset.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("robustcoreset")):
                offenders += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert not offenders, offenders


def test_benchmark_traced_names_are_module_callables():
    # read the benchmark's TRACED table from its source without running it,
    # so a rename in the package fails here and not only in the benchmark
    tree = ast.parse(TRACING.read_text())
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    assert traced
    for layer, names in traced.items():
        mod = importlib.import_module(f"robustcoreset.{layer}")
        for name in names:
            assert callable(vars(mod).get(name)), f"{layer}.{name}"


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def test_every_public_name_has_a_caller():
    # a name in a module's __all__ must be used by the package or the
    # benchmark; its own definition line and the __all__ lists do not
    # count, and neither do the tests
    paths = [p for p in Path(robustcoreset.__file__).parent.glob("*.py")
             if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    lines, def_line = [], {}
    for path in paths:
        tree = ast.parse(path.read_text())
        skip = set()
        for node in tree.body:
            names = _top_level_names(node)
            if "__all__" in names:
                skip.update(range(node.lineno, node.end_lineno + 1))
            def_line.update({(path, name): node.lineno for name in names})
        lines += [(path, i, line) for i, line in
                  enumerate(path.read_text().splitlines(), 1) if i not in skip]
    unused = []
    for mod in _modules():
        path = Path(mod.__file__)
        if path.name == "__init__.py":
            continue
        for name in getattr(mod, "__all__", ()):
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = (path, def_line.get((path, name)))
            if not any(word.search(line) for p, i, line in lines
                       if (p, i) != own):
                unused.append(f"{mod.__name__}.{name}")
    assert not unused, unused


def _registered_command(node):
    # @main.command(...) registers the function with the click group
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def test_every_module_level_definition_is_referenced():
    # every function and class of the package, private or public, must be
    # used by name somewhere in the package outside its own definition;
    # imports do not count, and neither do dunder names or click commands
    uses, defs = [], []
    for path in Path(robustcoreset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.append((path, node.lineno, name))
        defs += [(path, node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("__")
                 and not _registered_command(node)]
    unused = [f"{path.name}: {node.name}" for path, node in defs
              if not any(name == node.name and not (
                  p == path and node.lineno <= line <= node.end_lineno)
                  for p, line, name in uses)]
    assert not unused, unused
