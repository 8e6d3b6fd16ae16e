"""Labels stay at the I/O boundary.

``groupoid.py`` owns the label-keyed tables (``source``, ``target``,
``unit_of``, ``inverse``, ``composition``) and ``specio.py`` reads and
writes them as documents; every other module works on the index arrays
of `FiniteGroupoid`, and reaches a label only through its codec
(`FiniteGroupoid.index` and `FiniteGroupoid.vector`).
"""

import ast
from pathlib import Path

import gqm

TABLES = {"source", "target", "unit_of", "inverse", "composition"}
OWNERS = {"groupoid.py", "specio.py"}


def modules():
    for path in sorted(Path(gqm.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def is_label_lookup(node):
    """``<x>.transition_index[<y>.resolve(...)]``"""
    return (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "transition_index"
            and isinstance(node.slice, ast.Call)
            and isinstance(node.slice.func, ast.Attribute)
            and node.slice.func.attr == "resolve")


def test_only_the_owners_read_label_tables():
    reads = ["%s:%d .%s" % (name, node.lineno, node.attr)
             for name, tree in modules() if name not in OWNERS
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in TABLES]
    assert reads == []


def test_one_label_lookup():
    lookups = [name for name, tree in modules()
               for node in ast.walk(tree) if is_label_lookup(node)]
    assert lookups == ["groupoid.py"]
