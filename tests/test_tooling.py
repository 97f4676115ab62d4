"""Checks on the source that no linter runs here.

``bench/spans.py`` looks each traced function up by module and attribute;
a target renamed or deleted in ``src/`` would break only the traced
benchmark run, so the names are checked here, with the tier-1 tests.
"""

import ast
from pathlib import Path

from conftest import load_bench

SRC = Path(__file__).resolve().parent.parent / "src" / "ampadmg"


def test_every_traced_target_resolves_to_a_callable():
    spans = load_bench("spans")
    assert spans.TARGETS
    for path, attr, _name in spans.TARGETS:
        owner = spans._resolve(path)
        assert callable(getattr(owner, attr, None)), (path, attr)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is left out.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused


def _raise_sites(tree, name: str) -> list:
    # The innermost function around each `raise <name>(...)` in the tree.
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == name:
                    sites.append(func)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(tree, None)
    return sites


def test_one_raise_site_refuses_biarrows():
    # Operations defined only with lines refuse biarrows through one gate;
    # marginal_graph raises the same class for another precondition, that its
    # input is undirected.
    sites = sorted(f"{path.name}:{func}" for path in SRC.glob("*.py")
                   for func in _raise_sites(ast.parse(path.read_text()), "UnsupportedDialectError"))
    assert sites == ["separation.py:_reject_biarrows", "separation.py:marginal_graph"]
