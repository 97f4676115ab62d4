"""The benchmark's tracer binds wrappers under names in the package.

``bench/spans.py`` looks each traced function up by module and attribute;
a target renamed or deleted in ``src/`` would break only the traced
benchmark run, so the names are checked here, with the tier-1 tests.
"""

from conftest import load_bench


def test_every_traced_target_resolves_to_a_callable():
    spans = load_bench("spans")
    assert spans.TARGETS
    for path, attr, _name in spans.TARGETS:
        owner = spans._resolve(path)
        assert callable(getattr(owner, attr, None)), (path, attr)

