"""Every top-level definition in src/ratpoints is reached from a root.

A name-based walk over the syntax trees.  The roots are the module-level
code of every module, ``cli.main``, ``tests/test_acceptance.py`` and every
name and string constant in ``bench/*.py``, which wraps functions by name.
The names in ``KEPT`` are roots too: no CLI path runs them yet, but they
are kept, with their unit tests, for one that will.
A definition is reached when its name occurs in reached code, and its body
is then walked in turn.  An import binds a name without reaching it, and
definitions that share a name are reached together, so the walk may miss
dead code but never reports live code as dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ratpoints"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the absolute-irreducibility certificate for the paper's hypothesis that
# the variety is geometrically integral; no CLI command checks it yet
KEPT = {"is_absolutely_irreducible", "bivariate_absolutely_irreducible"}


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


def unreached():
    """Sorted "module.name" of the top-level definitions no root reaches."""
    defs = {}
    todo = {"main"} | KEPT  # main: cli.main, the console script
    for path in sorted(SRC.glob("*.py")):
        for stmt in _tree(path).body:
            if isinstance(stmt, DEFINITIONS):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            else:
                todo |= _names(stmt)
    for path in [ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "bench").glob("*.py"))]:
        todo |= _names(_tree(path))
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for _, node in defs.get(name, ()):
            todo |= _names(node) - seen
    return sorted(f"{module}.{name}" for name, found in defs.items()
                  if name not in seen for module, _ in found)


def test_every_definition_is_reached():
    dead = unreached()
    assert not dead, f"{len(dead)} unreached: {', '.join(dead)}"
