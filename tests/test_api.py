import ast
import importlib
import pkgutil
from pathlib import Path

import robustcoreset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
