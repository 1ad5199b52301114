"""Every dataclass field in src/ratpoints is read by some caller.

A field counts as read when its name occurs as an attribute load
(``obj.name``) in src, in ``tests/test_acceptance.py`` or in
``bench/*.py``; a field that only its own tests read is write-only state.
The check goes by name, like ``test_reachable``: a field whose name is
also read elsewhere, such as ``p``, ``q`` or ``degree``, passes whatever
reads it, so the test may miss a write-only field but never reports a
read one.
"""

import ast

from test_reachable import ROOT, SRC, _tree


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def dataclass_fields():
    """("module.Class.field", field name) of every dataclass field."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in _tree(path).body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            out += [(f"{path.stem}.{cls.name}.{stmt.target.id}",
                     stmt.target.id)
                    for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
    return out


def attributes_read():
    """Names loaded as attributes anywhere in the readers."""
    readers = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "bench").glob("*.py"))]
    return {node.attr for path in readers for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    read = attributes_read()
    unread = [qualname for qualname, name in dataclass_fields()
              if name not in read]
    assert not unread, f"{len(unread)} never read: {', '.join(unread)}"
