"""Source hygiene: no module imports a name it never uses, and no private
name or attribute is set that nothing reads."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import tdasim

PACKAGE = Path(tdasim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    """`file:line: name` for each name the file imports and never reads.

    `__future__` imports are directives, not names; the names a package's
    `__init__.py` lists in `__all__` are its re-exports.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (path.name == "__init__.py" and isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    files = sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
    assert len(files) > 10
    assert [entry for path in files for entry in unused_imports(path)] == []


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each private module-level function, class or constant, by name."""
    found: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = stmt
    return found


def read_names(node: ast.AST) -> set[str]:
    """Names read under node: bare names, attributes and `from ... import` aliases."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_private_names(paths: list[Path]) -> list[str]:
    """`file: name` for each private module-level name nothing else in paths reads.

    A reference inside the name's own definition, such as a recursive call,
    does not count.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    reads = [(stmt, read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{path.name}: {name}"
            for path, tree in trees.items()
            for name, definition in private_definitions(tree).items()
            if not any(name in names for stmt, names in reads if stmt is not definition)]


def test_no_unreferenced_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    assert unreferenced_private_names(paths) == []


def private_attributes_set(tree: ast.Module) -> dict[str, int]:
    """Each private `self._name` the module assigns, with its first line."""
    found: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self" and t.attr.startswith("_")
                    and not t.attr.startswith("__")):
                found.setdefault(t.attr, node.lineno)
    return found


def attributes_read(tree: ast.Module) -> set[str]:
    """Attribute names the module reads; `x._a[i] = ...` writes into `_a`, not a read."""
    stored_into = {id(sub.value) for sub in ast.walk(tree)
                   if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store)}
    return {sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            and id(sub) not in stored_into}


def test_no_unread_private_attributes():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(attributes_read, trees.values()))
    set_attrs = {(path.name, name, line) for path, tree in trees.items()
                 for name, line in private_attributes_set(tree).items()}
    assert len(set_attrs) > 5
    assert sorted(f"{file}:{line}: self.{name}" for file, name, line in set_attrs
                  if name not in read) == []


def called_name(call: ast.Call) -> str | None:
    """The name a call invokes: `f` for `f(...)` and for `x.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def scoped_nodes(node: ast.AST, scope: str = "") -> Iterator[tuple[str, ast.AST]]:
    """Each node below node that is not a definition, with the qualified name
    of the innermost function or class around it ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped_nodes(child, f"{scope}.{child.name}" if scope else child.name)
        else:
            yield scope, child
            yield from scoped_nodes(child, scope)


def build_call_sites(tree: ast.Module) -> set[str]:
    """The qualified name of each function that calls `build(...)` or `x.build(...)`."""
    return {scope or "<module>" for scope, node in scoped_nodes(tree)
            if isinstance(node, ast.Call) and called_name(node) == "build"}


def test_graphs_are_built_only_by_the_scenario_the_generator_and_the_phase_timer():
    """A scenario's graph is built once: on first use, or by the generator's
    check, which keeps it as the candidate's graph.  Only the phase timer
    builds afresh, so that it times a real build on an empty search memo."""
    sites = {f"{path.name}: {site}"
             for path in sorted(PACKAGE.glob("*.py"))
             for site in build_call_sites(ast.parse(path.read_text(encoding="utf-8")))}
    assert sites == {"scenario.py: Scenario.graph", "generate.py: _conclusive",
                     "metrics.py: time_phases"}


def window_reads_outside_build(tree: ast.Module) -> list[int]:
    """The line of each `.windows` read that is not the first argument of a `build(...)` call."""
    building = {id(call.args[0]) for call in ast.walk(tree)
                if isinstance(call, ast.Call) and called_name(call) == "build" and call.args}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "windows"
            and isinstance(node.ctx, ast.Load) and id(node) not in building]


def test_scenario_windows_are_read_only_to_build_a_graph():
    """The graph indexes the windows by node and neighbor, so outside the
    scenario module a scenario's windows are read only to build a graph, and
    every other question is asked of the graph instead of rescanning them."""
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "scenario.py"]
    assert len(paths) > 5
    assert [f"{path.name}:{line}" for path in paths
            for line in window_reads_outside_build(ast.parse(path.read_text(encoding="utf-8")))
            ] == []


def adds_t_tr(node: ast.AST) -> bool:
    """Is node a sum with `t_tr` or `x.t_tr` among its terms?"""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(isinstance(sub, ast.Name) and sub.id == "t_tr"
                    or isinstance(sub, ast.Attribute) and sub.attr == "t_tr"
                    for sub in ast.walk(node)))


def reads_end(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "end" for sub in ast.walk(node))


def is_carriage_comparison(node: ast.AST) -> bool:
    """Is node a comparison of a sum with t_tr against an operand that reads `.end`?"""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(adds_t_tr(x) and reads_end(y) for x in operands for y in operands if y is not x)


def test_carriage_rule_is_stated_once():
    """Whether a transmission of t_tr that starts at send fits inside an
    encounter is asked of `TimeWindow.carries`; no other comparison adds t_tr
    on one side and reads a window's end on the other."""
    sites = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for scope, node in scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
             if is_carriage_comparison(node) and scope != "TimeWindow.carries"]
    assert sites == []


def subtracts_key_set(node: ast.AST) -> bool:
    """Is node a subtraction with a `*_KEYS` name as an operand?"""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and any(isinstance(x, ast.Name) and x.id.endswith("_KEYS")
                    for x in (node.left, node.right)))


def test_loaders_check_keys_only_through_one_reader():
    """Whether a JSON object has an unknown or a missing key is asked of
    `scenario._object`; no other code subtracts a `*_KEYS` set."""
    sites = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for scope, node in scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
             if subtracts_key_set(node) and scope != "_object"]
    assert sites == []


def test_runs_are_read_only_by_the_index_and_the_search():
    """A node's run, its vertex ids by window end, serves the search's
    same-node arcs; the dumps scan the node's range of ids instead, so
    inside the package only the index that makes the runs and the search
    read them."""
    sites = {f"{path.name}: {scope}" for path in sorted(PACKAGE.glob("*.py"))
             for scope, node in scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("_run", "_run_from")}
    assert sites == {"twig.py: Twig.__post_init__", "twig.py: _search"}
