import ast
import warnings
from pathlib import Path

import rankcrank

SRC = Path(rankcrank.__file__).parent


def test_every_module_compiles_without_warnings():
    # a compile-time warning, such as `cls is "P2"` (an identity test
    # against a literal), fails here instead of passing silently
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def parsed(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def defined_names(module: str) -> set:
    """The names a module defines at top level: functions, classes, globals."""
    names = set()
    for node in parsed(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def referenced_names(node: ast.AST) -> set:
    """Every bare name and attribute name read or written under `node`."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def tables_function(name: str) -> ast.FunctionDef:
    return next(node for node in parsed("tables").body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_enumeration_backend_uses_no_other_route():
    # `build` lists its partitions itself and tallies each statistic in
    # closed form: it calls no enumerator, statistic or series
    used = referenced_names(tables_function("build"))
    for module in ("partitions", "statistics", "qseries"):
        assert used.isdisjoint(defined_names(module) | {module}), module


def test_series_backend_uses_no_statistic_or_listing():
    # the accelerated rows come from series alone: no partition is listed,
    # conjugated or measured
    banned = {"rank", "crank", "rank_set_contains", "conjugate", "enumerate_partitions"}
    for name in ("build_accelerated", "_rows_from_series", "_q_rows"):
        assert referenced_names(tables_function(name)).isdisjoint(banned), name


def test_tables_imports_only_partition_counts():
    imported = {}  # module -> the names taken from it
    for node in ast.walk(parsed("tables")):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("rankcrank.")
            if module in ("", "rankcrank"):  # `from . import x` takes module x
                for alias in node.names:
                    imported.setdefault(alias.name, set()).add("*")
            else:
                imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name.removeprefix("rankcrank."), set()).add("*")
    assert imported["partitions"] == {"partition_count", "partition_count_series"}
    for module in ("statistics", "qseries", "reordering", "symbols", "injections"):
        assert module not in imported, module
