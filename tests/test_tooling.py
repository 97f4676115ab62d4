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
