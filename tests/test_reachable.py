"""Every definition in src/ratpoints is reached from a root.

A name-based walk over the syntax trees.  The definitions are the
top-level functions and classes and the methods of those classes, except
dunder methods, which are reached with their class.  The roots are the
module-level code of every module, ``cli.main``,
``tests/test_acceptance.py`` and every name and string constant in
``bench/*.py``, which wraps functions by name.
A definition is reached when its name occurs in reached code, and its body
is then walked in turn; a class's body is walked without its methods.  An
import binds a name without reaching it, and definitions that share a name
are reached together, so the walk may miss dead code but never reports
live code as dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ratpoints"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _names(node):
    """Identifiers, attribute names and string constants under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_method(stmt):
    return isinstance(stmt, FUNCTIONS) and not (
        stmt.name.startswith("__") and stmt.name.endswith("__"))


def _definitions(path):
    """(name, "module.qualified.name", nodes walked when it is reached) of
    the definitions in one module, and the names its other top-level code
    uses."""
    found, used = [], set()
    for stmt in _tree(path).body:
        if not isinstance(stmt, DEFINITIONS):
            used |= _names(stmt)
            continue
        qualname = f"{path.stem}.{stmt.name}"
        if not isinstance(stmt, ast.ClassDef):
            found.append((stmt.name, qualname, [stmt]))
            continue
        methods = [s for s in stmt.body if _is_method(s)]
        found.append((stmt.name, qualname,
                      [*stmt.decorator_list, *stmt.bases, *stmt.keywords,
                       *(s for s in stmt.body if s not in methods)]))
        found += [(m.name, f"{qualname}.{m.name}", [m]) for m in methods]
    return found, used


def unreached():
    """Sorted qualified names of the definitions no root reaches."""
    defs = {}
    todo = {"main"}  # cli.main, the console script
    for path in sorted(SRC.glob("*.py")):
        found, used = _definitions(path)
        todo |= used
        for name, qualname, nodes in found:
            defs.setdefault(name, []).append((qualname, nodes))
    for path in [ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "bench").glob("*.py"))]:
        todo |= _names(_tree(path))
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for _, nodes in defs.get(name, ()):
            for node in nodes:
                todo |= _names(node) - seen
    return sorted(qualname for name, found in defs.items()
                  if name not in seen for qualname, _ in found)


def test_every_definition_is_reached():
    dead = unreached()
    assert not dead, f"{len(dead)} unreached: {', '.join(dead)}"
