"""Labels stay at the I/O boundary, and the composition has one int view.

``groupoid.py`` owns the label-keyed tables (``source``, ``target``,
``unit_of``, ``inverse``, ``composition``) and ``specio.py`` reads and
writes them as documents; every other module works on the index arrays
of `FiniteGroupoid`, and reaches a label only through its codec
(`FiniteGroupoid.index` and `FiniteGroupoid.vector`).  Kernels read the
composition as the triples of `FiniteGroupoid.composition_index`; the raw
rows behind them stay inside ``groupoid.py``.
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


def names(tree):
    """(line, identifier) of every function defined and every attribute
    or variable read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.lineno, node.name
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id


def test_one_composition_view():
    """No second composition view (a dense table, say) is defined or
    called anywhere, and `_composition_rows` is read in ``groupoid.py``
    only."""
    allowed = {"composition", "composition_index"}
    views = ["%s:%d %s" % (name, line, ident)
             for name, tree in modules() for line, ident in names(tree)
             if "composition" in ident and ident not in allowed
             and (name, ident) != ("groupoid.py", "_composition_rows")]
    assert views == []
