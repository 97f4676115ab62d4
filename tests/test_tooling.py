"""Checks on the source that no linter runs here.

``bench/spans.py`` looks each traced function up by module and attribute;
a target renamed or deleted in ``src/`` would break only the traced
benchmark run, so the names are checked here, with the tier-1 tests.
"""

import ast
import re
from pathlib import Path

import ampadmg
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


def _sites(tree, hit) -> list:
    # The innermost function around each node of the tree that `hit` accepts.
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                sites.append(func)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(tree, None)
    return sites


def _raise_sites(tree, name: str) -> list:
    # The innermost function around each `raise <name>(...)` in the tree.
    def hit(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == name

    return _sites(tree, hit)


def test_one_raise_site_refuses_biarrows():
    # Operations defined only with lines refuse biarrows through one gate;
    # marginal_graph raises the same class for another precondition, that its
    # input is undirected.
    sites = sorted(f"{path.name}:{func}" for path in SRC.glob("*.py")
                   for func in _raise_sites(ast.parse(path.read_text()), "UnsupportedDialectError"))
    assert sites == ["separation.py:_reject_biarrows", "separation.py:marginal_graph"]


def test_every_error_class_is_raised_somewhere():
    # A class nothing raises is dead public API; the base class is only caught.
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    unraised = [name for name in classes if name != "AmpAdmgError"
                and not any(_raise_sites(tree, name) for tree in trees)]
    assert classes and not unraised


KERNEL_HELPERS = ("_bits", "_union", "_spread", "_submasks", "_restrict", "_components",
                  "_undirected", "_node_index", "_node_mask")


def test_each_kernel_helper_has_one_definition_in_graph():
    # The bitmask helpers the engines share, and the node rule every entry
    # point reads its nodes through, are written once, in graph.py.
    defined = {name: [] for name in KERNEL_HELPERS}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(path.name)
    assert defined == {name: ["graph.py"] for name in KERNEL_HELPERS}


def test_only_the_token_reader_calls_int():
    # int() truncates floats and parses strings, so a node read through it
    # escapes the node rule (graph._node_index); only the text rule may
    # turn a token into an integer.
    def hit(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "int")

    sites = sorted(f"{path.name}:{func}" for path in SRC.glob("*.py")
                   for func in _sites(ast.parse(path.read_text()), hit))
    assert sites == ["graph.py:_int_token"]


def test_graphs_are_validated_only_where_text_enters():
    # The public constructor validates; every graph the package derives
    # from a valid one is built by MixedGraph._from_masks, which trusts it.
    def hit(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "MixedGraph")

    sites = sorted(f"{path.name}:{func}" for path in SRC.glob("*.py")
                   for func in _sites(ast.parse(path.read_text()), hit))
    assert sites == ["graph.py:parse", "learner.py:parse_atom_line"]


def test_each_criterion_kernel_has_one_dispatch_site():
    # separation._separating_masks maps every criterion to its kernel, for a
    # single question and a sweep pair alike; every other caller asks the
    # kernels through it.  Both lane kernels build their lane patterns with
    # _lanes.  The scalar route kernel is also asked directly by
    # connects_route and by the learner's and the rule premises' cut graphs.
    kernels = ("_path_connected", "_moral_masks", "_route_lanes", "_lanes", "_route_connected")

    def calls(name):
        # A call of `name`, bare or as a module attribute.
        return lambda node: (isinstance(node, ast.Call)
                             and getattr(node.func, "id", getattr(node.func, "attr", None)) == name)

    # The functions that call each kernel, however many times.
    sites = {name: sorted({f"{path.name}:{func}" for path in SRC.glob("*.py")
                           for func in _sites(ast.parse(path.read_text()), calls(name))})
             for name in kernels}
    assert sites == {"_path_connected": ["separation.py:_separating_masks"],
                     "_moral_masks": ["separation.py:_separating_masks"],
                     "_route_lanes": ["separation.py:_separating_masks"],
                     "_lanes": ["separation.py:_path_connected", "separation.py:_route_lanes"],
                     "_route_connected": ["docalc.py:rule_applicable", "learner.py:score",
                                          "separation.py:_separating_masks",
                                          "separation.py:connects_route"]}


def test_one_kernel_reads_a_partial_correlation():
    # sem._ci_tests alone inverts a covariance submatrix and reads a partial
    # correlation from it, and ci_test asks it for its one set.  sem's other
    # inverses build a model's covariance.
    def sites(*names):
        def hit(node):
            return isinstance(node, ast.Call) and ast.unparse(node.func) in names

        return {f"{path.name}:{func}" for path in SRC.glob("*.py")
                for func in _sites(ast.parse(path.read_text()), hit)}

    assert sites("math.sqrt", "np.sqrt") == {"sem.py:_ci_tests"}
    assert sites("np.linalg.inv") == {"sem.py:_ci_tests", "sem.py:__post_init__",
                                      "sem.py:implied_covariance", "sem.py:random_sem"}
    assert sites("_ci_tests") == {"sem.py:ci_test", "cli.py:_report_violations"}


def _live_names() -> set:
    # Every name read in src/ (outside the re-exports of __init__.py), named
    # in backticks in the README or traced by the benchmark.
    live = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    live.add(node.id)
                elif isinstance(node, ast.Attribute):
                    live.add(node.attr)
    live.update(re.findall(r"`(\w+)`", (SRC.parent.parent / "README.md").read_text()))
    live.update(attr for _path, attr, _name in load_bench("spans").TARGETS)
    return live


def test_every_export_is_used_documented_or_traced():
    # A public name that no other module uses, the README does not name and
    # the benchmark does not trace is a second spelling nobody reads.
    live = _live_names()
    assert [name for name in ampadmg.__all__ if name not in live] == []


def test_every_public_function_and_method_is_used_documented_or_traced():
    # The same rule for every public module-level function and every public
    # method of a public class: one only tests call is surface nobody reads.
    live = _live_names()
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = ([node] if isinstance(node, ast.FunctionDef)
                       else node.body if isinstance(node, ast.ClassDef)
                       and not node.name.startswith("_") else [])
            unread += [f"{path.name}:{f.name}" for f in members
                       if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                       and f.name not in live]
    assert unread == []
