"""Labels stay at the I/O boundary, and the composition has one int view.

``groupoid.py`` owns the label-keyed tables (``source``, ``target``,
``unit_of``, ``inverse``, ``composition``) and ``specio.py`` reads and
writes them as documents; every other module works on the index arrays
of `FiniteGroupoid`, and reaches a label only through its codec
(`FiniteGroupoid.index` and `FiniteGroupoid.vector`).  No other module
loops over the transitions or calls the label-set queries, so no table
keyed by label is built there.  Kernels read the composition as the
triples of `FiniteGroupoid.composition_index`; the raw rows behind them
stay inside ``groupoid.py``.

Quivers stay at the boundary too: ``specio.py`` reads a quiver spec
once, and the groupoid it generates is the only record of its arrows.

Spectral kernels read the orbit blocks of `FiniteGroupoid.orbit_table`:
the dense |G| x |G| views are built only for the decoherence output.

Two lint checks run here over the package and the tests, so that they
need no linter: no module-level name is defined twice, and every
imported name is read.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
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


def test_no_transition_loops_or_label_queries():
    """Outside the owners no ``for`` loop or comprehension iterates
    ``.transitions``, and no module calls ``hom_set``, ``g_plus`` or
    ``g_minus``."""
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.For, ast.comprehension))
                    and name not in OWNERS
                    and any(isinstance(n, ast.Attribute)
                            and n.attr == "transitions"
                            for n in ast.walk(node.iter))):
                found.append("%s:%d loop" % (name, node.iter.lineno))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in {"hom_set", "g_plus", "g_minus"}):
                found.append("%s:%d %s" % (name, node.lineno,
                                           node.func.attr))
    assert found == []


def sources():
    """(path relative to the repository, tree) of every module of the
    package and of the tests."""
    root = Path(__file__).parents[1]
    for path in sorted([*Path(gqm.__file__).parent.glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        yield (path.relative_to(root).as_posix(),
               ast.parse(path.read_text(encoding="utf-8")))


def test_no_module_level_name_defined_twice():
    twice = []
    for name, tree in sources():
        seen = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name in seen:
                    twice.append("%s:%d %s" % (name, node.lineno, node.name))
                seen.add(node.name)
    assert twice == []


def test_every_import_is_read():
    """Every name an import binds is read somewhere in its module, except
    ``from __future__`` and the re-exports of ``gqm/__init__.py`` (its
    relative imports)."""
    unread = []
    for name, tree in sources():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"
                  and not (name.endswith("gqm/__init__.py") and node.level)):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += ["%s:%d %s" % (name, node.lineno, b)
                       for b in bound if b not in read]
    assert unread == []


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


def test_one_label_table_constructor():
    """Only `from_explicit` builds a groupoid from label tables, with the
    keyword constructor ``FiniteGroupoid(...)``; every other constructor
    builds the index arrays and goes through `FiniteGroupoid._indexed`."""
    calls = ["%s:%s" % (name, getattr(top, "name", "<module>"))
             for name, tree in modules() for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "FiniteGroupoid"]
    assert calls == ["groupoid.py:from_explicit"]


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


def test_quivers_stay_at_the_boundary():
    """The quiver is read once, by ``specio.py``, and built into its
    groupoid, which keeps its arrows as aliases: `QuiverSpec` appears only
    where quivers are made, `parse_quiver_doc` only in ``specio.py``, and
    the generated labels `pair_label` and `unit_label` only in
    ``groupoid.py``."""
    allowed = {
        "pair_label": {"groupoid.py"},
        "unit_label": {"groupoid.py"},
        "QuiverSpec": {"groupoid.py", "specio.py", "examples.py",
                       "__init__.py"},
        "parse_quiver_doc": {"specio.py"},
    }
    found = []
    for name, tree in modules():
        imported = [(node.lineno, a.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for a in node.names]
        found += ["%s:%d %s" % (name, line, ident)
                  for line, ident in [*names(tree), *imported]
                  if name not in allowed.get(ident, {name})]
    assert found == []


def test_dense_views_only():
    """The orbit blocks carry every spectral kernel, so no module calls
    `regular_rep`, and `invariance_matrix` is called only to build the
    decoherence output; the GNS products read the basis and eigenvalues,
    so no module reads the attribute ``.projector``.  All three stay
    defined as dense views: the tests read them, and
    ``perfbench/tracer.py`` wraps the two functions."""
    allowed = {"regular_rep": set(), "invariance_matrix": {"decoherence.py"}}
    calls = ["%s:%d %s" % (name, node.lineno, ident)
             for name, tree in modules() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             for ident in [getattr(node.func, "id",
                                   getattr(node.func, "attr", None))]
             if ident in allowed and name not in allowed[ident]]
    reads = ["%s:%d projector" % (name, node.lineno)
             for name, tree in modules() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "projector"]
    assert calls + reads == []


def test_tracer_names_exist():
    """Every function ``perfbench/tracer.py`` wraps (``LAYERS``) or counts
    (``COUNTERS``) still exists, and every counted one is wrapped: a
    missing name would fail ``--trace 1`` with an AttributeError.  The
    tracer is read from its file and run in a bare module, so nothing is
    written next to it."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         tracer.__dict__)
    wrapped = {"%s.%s" % (module, name)
               for module, functions in tracer.LAYERS.values()
               for name in functions}
    counted = set(tracer.COUNTERS) | {tracer.SWEEP_TRIAL,
                                      tracer.SWEEP_COMMAND}
    assert counted <= wrapped
    missing = [qualname for qualname in sorted(wrapped)
               if not callable(getattr(importlib.import_module(
                   qualname.rsplit(".", 1)[0]), qualname.rsplit(".", 1)[1],
                   None))]
    assert missing == []


def test_cli_import_runs_neither_gns_nor_examples():
    """A cold ``import gqm.cli`` does not run ``gqm.gns`` or
    ``gqm.examples``: the commands that use them import them when they
    run.  Both modules are in ``sys.modules`` from the start, where
    ``perfbench/tracer.py`` looks them up, but their code runs on first
    use, as ``from gqm import gns_build`` shows."""
    script = (
        "import json, sys, types\n"
        "import gqm.cli\n"
        "def ran():\n"
        "    return sorted(n for n, m in sys.modules.items()\n"
        "                  if n.startswith('gqm') and type(m) is\n"
        "                  types.ModuleType)\n"
        "cold = ran()\n"
        "known = sorted(n for n in sys.modules if n.startswith('gqm'))\n"
        "from gqm import gns_build\n"
        "print(json.dumps([cold, known, ran(), gns_build.__module__]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gqm.__file__).parents[1]))
    cold, known, warm, home = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True).stdout)
    assert "gqm.cli" in cold
    assert sorted(set(known) - set(cold)) == ["gqm.examples", "gqm.gns"]
    assert (warm, home) == (sorted(cold + ["gqm.gns"]), "gqm.gns")
