"""Labels stay at the I/O boundary, and the composition has one int view.

A groupoid is stored as index arrays only: ``groupoid.py`` derives the
label-keyed tables (``source``, ``target``, ``unit_of``, ``inverse``,
``composition``) from them as views, its keyword constructor alone turns
such tables into ints, and ``specio.py`` reads and writes them as
documents; every other module works on the index arrays
of `FiniteGroupoid`, and reaches a label only through its codec
(`FiniteGroupoid.index` and `FiniteGroupoid.vector`).  No other module
loops over the transitions or calls the label-set queries, so no table
keyed by label is built there.  The law checks, the
left-multiplication kernel of the GNS representation and the orbit table
of a kind with given triples read the composition triples in parts of
`FiniteGroupoid.composition_parts`, the one caller of
`FiniteGroupoid.composition_index`; a generated groupoid stores no
triples but reads each part off its orbit stacks, and the raw rows
behind them stay inside ``groupoid.py``.

Quivers stay at the boundary too: ``specio.py`` reads a quiver spec
once, and the groupoid it generates is the only record of its arrows.

Spectral kernels, the algebra product and the invariance check read the
orbit blocks of `FiniteGroupoid.orbit_table`, one `OrbitStack` per block
size, built in ``groupoid.py`` alone: no module holds a record of one
orbit or loops over orbits in Python, not even through a name bound to
a stack's extent (a loop over parts of `CHECK_PART` aside), the dense
|G| x |G| invariance matrix is built only for a decoherence functional
of a characteristic state (which ``measure`` and ``interference`` read
too), the GNS basis is stored by its rows' few entries, and the algebra
product is the one kernel that convolves.

Every module loads on first use, one way: ``gqm`` registers its
submodules as lazy modules and resolves its exports from their home
modules, and a module binds a sibling that only some of its functions
call as that lazy module object.  No function imports a gqm module, so a
command runs only the modules whose functions it calls, and
``gqm --help`` loads no numpy.

Every array the package takes, the value carriers' and the arrays of
`INTAKES`, goes through one intake, `groupoid.intake`, which alone
decides its dtype, shape and finiteness.

Every comparison with the tolerance lies in a function that a boundary
row of ``test_properties.py`` pins at that tolerance, or on a list that
only shrinks.

Five lint checks run here, so that they need no linter: no module-level
name is defined twice and every imported name is read, over the package
and the tests, every global name a function of the package reads is
bound at module level, no function of the package imports, but for
``import numpy as np`` in ``cli.py``, and every module-level function of
the package is reached from its entry points, so that a helper only the
tests call lives in the tests.
"""

import ast
import builtins
import importlib
import json
import os
import subprocess
import symtable
import sys
import types
from pathlib import Path

import pytest

import gqm
from test_properties import BOUNDARY_ROWS, FIXED_TOL, INTAKE_ROWS

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
    ``.transitions``, and no module calls ``hom_set``, ``g_plus``,
    ``g_minus`` or ``orbits``."""
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
                  and node.func.attr in {"hom_set", "g_plus", "g_minus",
                                         "orbits"}):
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


def test_no_function_imports():
    """No function of the package imports: a module binds each sibling it
    calls at module level, as the lazy module that ``gqm`` registers, so
    gqm loads lazily one way.  The one exception is ``import numpy as np``
    in ``cli.py``, which keeps ``gqm --help`` free of numpy."""
    found = set()
    for name, tree in modules():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {"%s:%d" % (name, node.lineno)
                          for node in ast.walk(function)
                          if isinstance(node, (ast.Import, ast.ImportFrom))
                          and not (name == "cli.py"
                                   and isinstance(node, ast.Import)
                                   and [(a.name, a.asname) for a in node.names]
                                   == [("numpy", "np")])}
    assert sorted(found) == []


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


def owners(tree):
    """(name, node) of each module-level statement and of each statement
    in a class body: a function by its name, anything else by the body
    it stands in."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            yield getattr(node, "name", "<%s>" % getattr(top, "name",
                                                         "module")), node


def test_one_groupoid_representation():
    """A groupoid is stored as index arrays only.  No module assigns
    ``source``, ``target``, ``unit_of``, ``inverse`` or ``composition`` on
    an instance, so the label tables stay views derived from the arrays.
    Only the keyword constructor and the group table turn label tables
    into ints: they alone call `_encode`, each entry's one label pass, and
    the codec dicts ``event_index`` and ``transition_index`` are read,
    other than by an ``in`` test, only in the keyword constructor and in
    the one-label lookups `index` and `require_event`; so no second int
    form can be derived from labels kept elsewhere.  No loop of a
    module walks a ``table`` or ``composition`` entry by entry."""
    stores, readers, encoders, loops = [], set(), set(), []
    for name, tree in modules():
        for owner, top in owners(tree):
            tested = {id(node.comparators[0]) for node in ast.walk(top)
                      if isinstance(node, ast.Compare)
                      and isinstance(node.ops[0], (ast.In, ast.NotIn))}
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in TABLES
                        and not isinstance(node.ctx, ast.Load)) or (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "setattr"
                        and any(isinstance(a, ast.Constant)
                                and a.value in TABLES for a in node.args)):
                    stores.append("%s:%d" % (name, node.lineno))
                elif (isinstance(node, ast.Attribute)
                      and node.attr in {"event_index", "transition_index"}
                      and isinstance(node.ctx, ast.Load)
                      and id(node) not in tested):
                    readers.add("%s:%s" % (name, owner))
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "_encode"):
                    encoders.add("%s:%s" % (name, owner))
                elif isinstance(node, (ast.For, ast.comprehension)) and {
                        n.id for n in ast.walk(node.iter)
                        if isinstance(n, ast.Name)} & {"table",
                                                       "composition"}:
                    loops.append("%s:%s" % (name, owner))
    assert stores == [] and loops == []
    assert readers == {"groupoid.py:__init__", "groupoid.py:index",
                       "groupoid.py:require_event"}
    assert encoders == {"groupoid.py:__init__",
                        "groupoid.py:group_as_groupoid"}


def test_composition_index_readers():
    """Only the part reader of every kernel over composable pairs calls
    `composition_index`.  Every other kernel, the orbit table's too, reads
    the orbit stacks or the parts."""
    assert functions_of(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "composition_index") == {
        "groupoid.FiniteGroupoid.composition_parts"}


def test_composition_parts_readers():
    """Only the laws over composable pairs, `matrix_of`, the orbit table of
    a kind with given triples and a generated kind's triples, joined on
    first read (`_rows`), call `composition_parts`; the product and
    invariance read the orbit stacks."""
    assert functions_of(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "composition_parts") == {
        "groupoid.validate", "action.is_action", "action.is_factorizable",
        "gns.RepMatrices.check", "gns.GnsRepresentation.matrix_of",
        "groupoid.FiniteGroupoid._orbit_table",
        "groupoid.FiniteGroupoid._rows"}


def test_one_composition_view():
    """No second composition view (a dense table, say) is defined or
    called anywhere; `composition_parts` reads `composition_index` in
    parts."""
    allowed = {"composition", "composition_index", "composition_parts"}
    views = ["%s:%d %s" % (name, line, ident)
             for name, tree in modules() for line, ident in names(tree)
             if "composition" in ident and ident not in allowed]
    assert views == []


LABEL_SEQUENCES = {"transitions", "events"}


def reads_label_sequence(node, aliases):
    """Whether ``node`` reads ``.transitions``, ``.events`` or a name
    bound to one of them."""
    return any((isinstance(n, ast.Attribute) and n.attr in LABEL_SEQUENCES)
               or (isinstance(n, ast.Name) and n.id in aliases)
               for n in ast.walk(node))


def test_one_composition_lookup():
    """``groupoid.py`` composes by index one way, through the parts of
    `FiniteGroupoid.composition_parts`: `_orbit_table` calls no
    ``_slot_table``, ``composition_index``, ``argsort`` or
    ``searchsorted``, and no ``for`` loop or comprehension of
    `validate` iterates ``.transitions`` or ``.events``, directly or
    through a name bound to them; its loops run over the failures it
    reports."""
    tree = dict(modules())["groupoid.py"]
    tops = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defs = {"validate": tops["validate"], **{
        node.name: node for node in tops["FiniteGroupoid"].body
        if isinstance(node, ast.FunctionDef)}}
    found = ["_orbit_table:%d %s" % (node.lineno, ident)
             for node in ast.walk(defs["_orbit_table"])
             if isinstance(node, ast.Call)
             for ident in [getattr(node.func, "id",
                                   getattr(node.func, "attr", None))]
             if ident in {"_slot_table", "composition_index", "argsort",
                          "searchsorted"}]
    aliases = set()
    for node in ast.walk(defs["validate"]):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                aliases |= {t.id for t, v in pairs
                            if isinstance(t, ast.Name)
                            and reads_label_sequence(v, set())}
    found += ["validate:%d loop" % node.iter.lineno
              for node in ast.walk(defs["validate"])
              if isinstance(node, (ast.For, ast.comprehension))
              and reads_label_sequence(node.iter, aliases)]
    assert found == []


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
    """The orbit stacks carry every spectral kernel, so no module calls
    `regular_rep`, and `invariance_matrix` is called only by
    `decoherence_from_characteristic`, whose functional the
    ``decoherence``, ``measure``, ``interference`` and ``example``
    commands read.  The GNS space stores each basis row as its few
    entries, and the dense |G| x dim basis and the projector
    (basis lambda)^H are formed in the tests only (`oracles.gns_basis`,
    `oracles.gns_projector`), so no module reads an attribute ``.basis``
    or ``.projector``.  The two functions stay defined as dense views:
    the tests read them, and ``perfbench/tracer.py`` wraps them."""
    allowed = {"regular_rep": set(), "invariance_matrix": {"decoherence.py"}}
    calls = ["%s:%d %s" % (name, node.lineno, ident)
             for name, tree in modules() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             for ident in [getattr(node.func, "id",
                                   getattr(node.func, "attr", None))]
             if ident in allowed and name not in allowed[ident]]
    reads = ["%s:%d %s" % (name, node.lineno, node.attr)
             for name, tree in modules() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("basis", "projector")]
    assert calls + reads == []


def test_only_the_algebra_product_convolves():
    """`convolve`, the sum over every composable pair, is imported and
    read in ``algebra.py`` only: the reproducing check and the other
    block kernels read the orbit stacks."""
    found = ["%s:%d" % (name, line) for name, tree in modules()
             if name != "algebra.py"
             for line, ident in [*names(tree), *(
                 (node.lineno, a.name) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names)]
             if ident == "convolve"]
    assert found == []


CARRIERS = {"AlgebraElement", "CharacteristicFunction", "ActionFunction",
            "DecoherenceFunctional"}
# the value carriers, and the other classes (by ``__post_init__``) and
# functions that take a caller's array
INTAKES = {*CARRIERS, "RepMatrices", "FrameChange", "fundamental_rep_inverse",
           "is_reproducing_sweep_trial"}


def intake_caller(node):
    """The function of ``node`` that must take its array through
    `groupoid.intake`: ``node`` itself for a function of `INTAKES`, the
    ``__post_init__`` of a class of it, else None."""
    if isinstance(node, ast.FunctionDef) and node.name in INTAKES:
        return node
    if isinstance(node, ast.ClassDef) and node.name in INTAKES:
        init, = [f for f in node.body if isinstance(f, ast.FunctionDef)
                 and f.name == "__post_init__"]
        return init
    return None


def test_value_carriers_take_values_through_intake():
    """The contract of every array the package takes, one dtype, one
    shape and finite entries, is decided by `groupoid.intake` alone: each
    class of `INTAKES` calls it once in its ``__post_init__``, each
    function once, and none converts its array, reads a shape or tests
    finiteness itself; and no ``try`` of the package calls one of them,
    so no message of the intake is rewritten."""
    own = {"asarray", "array", "finite", "isfinite", "shape", "ndim", "size"}
    found, tries = {}, []
    for name, tree in modules():
        for node in ast.walk(tree):
            body = intake_caller(node)
            if body is not None:
                idents = [ident for n in ast.walk(body) for ident in
                          [getattr(n, "id", getattr(n, "attr", None))]]
                found[node.name] = (idents.count("intake"),
                                    sorted(own.intersection(idents)))
            elif isinstance(node, ast.Try) and INTAKES.intersection(
                    getattr(n.func, "id", getattr(n.func, "attr", None))
                    for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Call)):
                tries.append("%s:%d" % (name, node.lineno))
    assert found == dict.fromkeys(INTAKES, (1, []))
    assert tries == []


# the exports that take no array or label -> value map of numbers: they
# take groupoids, labels, carriers, tolerances or a random generator, or
# are errors and records the package fills itself
TAKE_NO_NUMBERS = set("""
    dynamical_state extend_generator_action is_action is_factorizable
    quiver_decoherence recover_potential
    fundamental_rep incidence_element involution isotropy_char multiply
    operator_norm regular_rep spray_char unit_element
    QuantumMeasureReport characteristic_from_bivariate
    check_decoherence_axioms decoherence_from_characteristic interference
    is_invariant quantum_measure
    ActionInconsistencyError GqmError GqmInputError GroupoidValidationError
    MathPropertyError
    FiniteGroupoid QuiverSpec ValidationReport from_explicit from_quiver
    group_as_groupoid pair_groupoid validate
    PsdCheck assert_state delta_state is_positive_semidefinite
    observable_amplitude random_state state_eval transition_amplitude
    transition_amplitude_matrix
    GnsRepresentation GnsSpace frame_compose fundamental_matrices gns_build
    gns_matrices transformation_function""".split())


def test_every_export_that_takes_numbers_is_an_intake_row():
    """Each export is a row of the intake property's table, or its
    method is, or it takes no numbers; each name of `TAKE_NO_NUMBERS` is
    an export with no row."""
    rows = {name.split(".")[0] for name in INTAKE_ROWS}
    assert set(gqm._EXPORTS) <= rows | TAKE_NO_NUMBERS
    assert TAKE_NO_NUMBERS <= set(gqm._EXPORTS) - rows


# the functions of the package that compare with the tolerance and have
# no row in `BOUNDARY_ROWS` yet: none is left, and none comes in
PENDING = set()

# the functions that compare with the fixed `DEFAULT_TOL`, which no
# tolerance argument reaches, so that their rows check the default only
FIXED_TOLERANCE = {"action.extend_generator_action",
                   "gns.FrameChange.__post_init__"}


def compares_with_tolerance(node):
    """Whether ``node`` is a comparison, or a call of `beyond`, that reads
    ``tol`` or ``DEFAULT_TOL``."""
    return (isinstance(node, ast.Compare) or isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "beyond") and any(
        isinstance(n, ast.Name) and n.id in {"tol", "DEFAULT_TOL"}
        for n in ast.walk(node))


def functions_of(picks):
    """The functions of the package (``module.name`` or
    ``module.Class.name``) that hold a node for which ``picks`` is true,
    a node of a nested function or lambda counted as its outer one's."""
    found = set()
    for name, tree in modules():
        stack = [(tree, name.removesuffix(".py"), False)]
        while stack:
            parent, owner, in_def = stack.pop()
            for child in ast.iter_child_nodes(parent):
                inner = owner
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and (
                        not in_def):
                    inner = "%s.%s" % (owner, child.name)
                if picks(child):
                    found.add(inner)
                stack.append((child, inner, in_def or isinstance(
                    child, ast.FunctionDef)))
    return found


def test_every_tolerance_comparison_has_a_boundary_row():
    """Each function of the package with a comparison that reads the
    tolerance is the function of a row of `BOUNDARY_ROWS` or is
    `PENDING`, not both, and `PENDING` is empty; only the functions of
    `FIXED_TOLERANCE` have rows checked at the default tolerance alone,
    and all of their rows are."""
    found = functions_of(compares_with_tolerance)
    rows = {row[0] for row in BOUNDARY_ROWS.values()}
    fixed = {row[0] for row in BOUNDARY_ROWS.values() if FIXED_TOL in row}
    assert rows <= found
    assert found - rows == PENDING
    assert len(PENDING) == 0
    assert fixed == FIXED_TOLERANCE
    assert all(FIXED_TOL in row for row in BOUNDARY_ROWS.values()
               if row[0] in FIXED_TOLERANCE)


# the fields of `OrbitStack` that have one entry per orbit or per event
STACK_FIELDS = {"gather", "orbit", "rows"}


def reads_stack_field(node):
    return any(isinstance(n, ast.Attribute) and n.attr in STACK_FIELDS
               for n in ast.walk(node))


def iterates_stack_field(node, names=frozenset()):
    """Whether the iterable ``node`` of a loop reads a stack field or one
    of ``names``.  The element of a comprehension nested in it is left
    out: it does not decide how many items there are, and its own
    iterables are checked where the walk reaches that comprehension."""
    nested = [n.elt for n in ast.walk(node)
              if isinstance(n, (ast.GeneratorExp, ast.ListComp, ast.SetComp))]
    inner = {id(n) for elt in nested for n in ast.walk(elt)}
    return any((isinstance(n, ast.Attribute) and n.attr in STACK_FIELDS
                or isinstance(n, ast.Name) and n.id in names)
               and id(n) not in inner for n in ast.walk(node))


def is_extent(node):
    """Whether ``node`` is ``len(x)``, ``x.size`` or ``x.shape[...]`` of an
    ``x`` that reads a stack field."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len":
        return any(map(reads_stack_field, node.args))
    if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Attribute) and node.value.attr == "shape":
        return reads_stack_field(node.value.value)
    return (isinstance(node, ast.Attribute) and node.attr == "size"
            and reads_stack_field(node.value))


def reads_check_part(node):
    return (isinstance(node, ast.Name) and node.id == "CHECK_PART"
            or isinstance(node, ast.Attribute) and node.attr == "CHECK_PART")


def bound_names(func, seed):
    """The names ``func`` assigns from an expression that holds a node for
    which ``seed`` is true or reads a name found so far, to a fixed point;
    a tuple target takes a tuple value of its length element by element,
    and any other value whole."""
    found = set()
    while True:
        more = set(found)
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                pairs = ([(target, node.value)]
                         if not isinstance(target, ast.Tuple)
                         or not isinstance(node.value, ast.Tuple)
                         or len(target.elts) != len(node.value.elts)
                         else zip(target.elts, node.value.elts))
                more |= {t.id for tree, value in pairs
                         if any(seed(n) or isinstance(n, ast.Name)
                                and n.id in found for n in ast.walk(value))
                         for t in ast.walk(tree) if isinstance(t, ast.Name)}
        if more == found:
            return found
        found = more


def stack_loops(tree):
    """The lines of the ``for`` loops and comprehensions of ``tree`` that
    iterate a stack field, or a name their function binds to a stack
    field's extent, but for part loops: ``range`` calls whose step derives
    from `CHECK_PART`, directly or through a name bound to it."""
    scopes = {}
    for func in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(func, ast.FunctionDef):
            names = bound_names(func, is_extent), bound_names(
                func, reads_check_part)
            scopes.update((id(node), names) for node in ast.walk(func))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            extents, parts = scopes.get(id(node), (set(), set()))
            call = node.iter
            part = (isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "range"
                    and len(call.args) == 3 and any(
                        reads_check_part(n) or isinstance(n, ast.Name)
                        and n.id in parts for n in ast.walk(call.args[2])))
            if iterates_stack_field(call, extents) and not part:
                found.append(call.lineno)
    return found


@pytest.mark.parametrize("source, lines", [
    ("def f(s):\n    n = len(s.rows)\n    for k in range(n):\n"
     "        pass\n", [3]),
    ("def f(s):\n    k, b = s.gather.shape[0], 2\n"
     "    return [j for j in range(k - 1)]\n", [3]),
    ("def f(s):\n    n = s.rows.size\n    m = n // 2\n"
     "    for k in range(m):\n        pass\n", [4]),
    ("def f(s):\n    for k in range(s.rows.shape[0]):\n        pass\n", [2]),
    ("def f(s):\n    for a in range(0, s.rows.size, 4):\n        pass\n",
     [2]),
    ("def f(s, cost):\n    step = max(1, CHECK_PART // cost)\n"
     "    for a in range(0, s.rows.size, step):\n        pass\n", []),
    ("def f(s):\n    n, step = s.rows.size, groupoid.CHECK_PART // 4\n"
     "    for a in range(0, n, step):\n        pass\n", []),
    ("def f(s, t):\n    n = len(t)\n    for k in range(n):\n        pass\n",
     []),
    ("def f(s):\n    n = len(s.rows)\n\n\ndef g(n):\n"
     "    for k in range(n):\n        pass\n", []),
])
def test_stack_loop_lint(source, lines):
    """The loop lint follows the names a function binds to a stack field's
    extent, and passes a part loop whose step derives from `CHECK_PART`."""
    assert stack_loops(ast.parse(source)) == lines


def test_orbits_are_stacked_by_size_in_groupoid_only():
    """Every orbit kernel makes one call per block size: no module defines
    a class named ``Orbit``, and a class with a ``gather`` field also has
    the ``orbit`` field that numbers the orbits of its stack; no ``for``
    loop or comprehension iterates an expression that reads a stack field
    or a name bound to a stack field's extent, but for part loops
    (`stack_loops`); and outside ``groupoid.py`` no module regroups orbits
    by size, reading the ``shape`` of a stack field or passing one to a
    call that stacks, sorts or collects it."""
    regroup = {"stack", "concatenate", "sorted", "set", "unique",
               "group_indices", "bincount"}
    found = []
    for name, tree in modules():
        found += ["%s:%d loop" % (name, line) for line in stack_loops(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields = {n.target.id for n in node.body
                          if isinstance(n, ast.AnnAssign)}
                if node.name == "Orbit" or (
                        "gather" in fields and "orbit" not in fields):
                    found.append("%s:%d record %s"
                                 % (name, node.lineno, node.name))
            elif name == "groupoid.py":
                continue
            elif (isinstance(node, ast.Attribute) and node.attr == "shape"
                  and reads_stack_field(node.value)):
                found.append("%s:%d shape" % (name, node.lineno))
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id",
                              getattr(node.func, "attr", None)) in regroup
                  and any(map(reads_stack_field, node.args))):
                found.append("%s:%d regroups" % (name, node.lineno))
    assert found == []


def load_tracer():
    """``perfbench/tracer.py``, read from its file and run in a bare
    module, so that nothing is written next to it."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         tracer.__dict__)
    return tracer


def test_tracer_names_exist():
    """Every function ``perfbench/tracer.py`` wraps (``LAYERS``) or counts
    (``COUNTERS``) still exists, and every counted one is wrapped: a
    missing name would fail ``--trace 1`` with an AttributeError."""
    tracer = load_tracer()
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


def unreached(trees, roots):
    """(module, name) of each module-level function of ``trees`` (module
    name -> tree) that no walk from ``roots`` reaches.  Every module-level
    statement but a definition is a root too, and so are the module hooks
    ``__getattr__`` and ``__dir__``.  A reached definition reaches every
    name it reads, through the relative imports of its module, and a
    reached class reaches its methods."""
    defs, binds, todo = {}, {}, [*roots]
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:  # (module, None): a module object
                    binds[module, a.asname or a.name] = (
                        (a.name, None) if not node.module and a.name in trees
                        else (node.module or "__init__", a.name))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                if node.name in ("__getattr__", "__dir__"):
                    todo.append((module, node.name))
            else:
                todo += reads(binds, module, node)

    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += reads(binds, key[0], defs[key])
    return sorted(key for key, node in defs.items() if key not in reached
                  and isinstance(node, ast.FunctionDef))


def reads(binds, module, node):
    """The (module, name) of every name ``node`` reads in ``module``,
    followed through ``binds``, an attribute of a module object too."""
    def home(key):
        while key in binds and key[1] is not None:
            key = binds[key]
        return key

    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield home((module, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            owner, name = home((module, n.value.id))
            if name is None:
                yield home((owner, n.attr))


def test_unreached_lint():
    """The walk follows module objects, renamed and re-exported imports,
    module-level statements, the module hooks and the methods of a
    reached class, and a function only an unreached one reads stays
    unreached."""
    trees = {module: ast.parse(source) for module, source in {
        "__init__": "def __getattr__(name):\n    return _home(name)\n\n\n"
                    "def _home(name):\n    pass\n",
        "a": "from . import b\nfrom .c import K as L\nX = [helper]\n\n\n"
             "def main():\n    return b.f(), L()\n\n\n"
             "def helper():\n    pass\n\n\ndef alone():\n    pass\n",
        "b": "from .c import g\n\n\ndef f():\n    return g()\n\n\n"
             "def h():\n    pass\n",
        "c": "def g():\n    pass\n\n\nclass K:\n    def m(self):\n"
             "        return k_only()\n\n\ndef k_only():\n    pass\n\n\n"
             "def unused():\n    return g()\n",
    }.items()}
    assert unreached(trees, [("a", "main")]) == [
        ("a", "alone"), ("b", "h"), ("c", "unused")]
    assert unreached(trees, [("a", "alone"), ("b", "h")]) == [
        ("a", "main"), ("b", "f"), ("c", "g"), ("c", "k_only"),
        ("c", "unused")]


def test_every_function_is_reached():
    """Every module-level function of the package is reached from
    `cli.main`, from a name of ``gqm._EXPORTS``, from a module-level
    statement or module hook, or from a function ``perfbench/tracer.py``
    wraps or counts: a function that only the tests call belongs in the
    tests."""
    tracer = load_tracer()
    roots = [("cli", "main"), *((home, name) for name, home
                                in gqm._EXPORTS.items()),
             *((module[4:], name) for module, names in tracer.LAYERS.values()
               for name in names),
             *(tuple(qualname[4:].split(".")) for qualname in tracer.COUNTERS)]
    trees = {name[:-3]: tree for name, tree in modules()}
    assert ["%s.%s" % key for key in unreached(trees, roots)] == []


def run_python(*args):
    """(stdout, stderr, exit code) of a fresh interpreter on the package
    sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(gqm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout, proc.stderr, proc.returncode


# prints the gqm modules whose code ran, and whether numpy is loaded
RAN = ("import json, sys, types\n"
       "def ran():\n"
       "    return sorted(n for n, m in sys.modules.items()\n"
       "                  if n.startswith('gqm') and type(m) is\n"
       "                  types.ModuleType)\n")


def test_cli_import_runs_only_the_package_and_errors():
    """A cold ``import gqm.cli`` runs ``gqm``, ``gqm.errors`` and
    ``gqm.cli`` only, and loads no numpy.  Every module the tracer wraps
    is in ``sys.modules`` from the start, where ``perfbench/tracer.py``
    looks it up, but its code runs on first use, as
    ``from gqm import gns_build`` shows."""
    script = RAN + (
        "import gqm.cli\n"
        "cold = ran()\n"
        "known = sorted(n for n in sys.modules if n.startswith('gqm'))\n"
        "numpy = 'numpy' in sys.modules\n"
        "from gqm import gns_build\n"
        "print(json.dumps([cold, known, numpy, ran(),\n"
        "                  gns_build.__module__]))\n")
    cold, known, numpy, warm, home = json.loads(run_python("-c", script)[0])
    assert cold == ["gqm", "gqm.cli", "gqm.errors"]
    assert not numpy
    layers = {module for module, _ in load_tracer().LAYERS.values()}
    assert layers <= set(known)
    assert home == "gqm.gns" and "gqm.gns" in warm


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["measure", "--help"], 0), (["bogus"], 2),
    (["validate"], 2)])
def test_help_and_usage_errors_load_no_numpy(argv, code):
    """``gqm --help``, a command's help and a usage error import no numpy
    (``-X importtime`` lists every module imported), and ``python -m``
    warns about nothing."""
    _, err, returncode = run_python("-X", "importtime", "-m", "gqm.cli",
                                    *argv)
    imported = [line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:")]
    assert returncode == code
    assert "gqm" in imported and "numpy" not in imported
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [["validate", "G"], ["psd-check", "G", "S"]])
def test_group_spec_commands_load_no_masked_arrays(tmp_path, argv):
    """``validate`` and ``psd-check`` on a group spec, which `validate`
    checks exhaustively, leave ``numpy.ma`` unloaded: ``np.unique`` would
    import it (numpy >= 2), ~10 ms of every such command."""
    el = ["g%d" % k for k in range(4)]
    docs = {"G": {"kind": "group", "events": ["*"], "elements": el,
                  "identity": "g0",
                  "table": [{"left": a, "right": b,
                             "result": el[(j + k) % 4]}
                            for j, a in enumerate(el)
                            for k, b in enumerate(el)]},
            "S": {"type": "delta", "event": "*"}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    script = ("import json, sys\n"
              "from gqm.cli import main\n"
              "code = main(%r)\n"
              "print(json.dumps([code, 'numpy.ma' in sys.modules]))\n" % argv)
    out = run_python("-c", script)[0].splitlines()[-1]
    assert json.loads(out) == [0, False]


@pytest.mark.parametrize("argv, layers", [
    (["validate", "G"], ["groupoid", "specio"]),
    (["psd-check", "G", "S"], ["groupoid", "specio", "states"]),
    (["gns", "G", "S"], ["algebra", "gns", "groupoid", "specio", "states"]),
    (["interference", "G", "S", "--order", "1", "--sets", "1_a"],
     ["decoherence", "groupoid", "specio", "states"]),
    (["measure", "G", "S", "--set", "1_a"],
     ["decoherence", "groupoid", "specio", "states"]),
    (["decoherence", "G", "S"],
     ["decoherence", "groupoid", "specio", "states"]),
    (["decoherence", "Q", "A"],
     ["action", "decoherence", "groupoid", "specio", "states"]),
    (["frame", "G", "--unitary", "U"],
     ["gns", "groupoid", "specio", "states"]),
    (["example", "qubit"], ["action", "decoherence", "examples",
                            "groupoid", "specio", "states"]),
    (["sweep", "thm52", "--trials", "3"],
     ["action", "decoherence", "groupoid", "specio", "states"]),
    (["psd-check", "G", "P"], ["action", "groupoid", "specio", "states"]),
])
def test_commands_run_only_their_layers(tmp_path, argv, layers):
    """A cold command runs the package, ``gqm.errors``, ``gqm.cli`` and
    the modules whose functions it calls, and no other: ``validate`` runs
    no state, algebra or action code, the commands on characteristic
    states run no ``gqm.action``, only ``gns`` runs ``gqm.algebra``, and
    an action state runs no ``gqm.decoherence`` until a functional is
    built.  Each row pins what its command loads today; a change that
    narrows a command edits its row."""
    docs = {"G": {"kind": "pair", "events": ["a", "b"]},
            "S": {"type": "delta", "event": "a"},
            "Q": {"kind": "quiver", "events": ["a", "b"],
                  "arrows": [{"label": "f", "source": "a", "target": "b"}]},
            "A": {"type": "generator-action", "values": {"f": 0.5}},
            "P": {"type": "action", "potential": {"a": 0.0, "b": 0.5}},
            "U": {"unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    script = RAN + (
        "from gqm.cli import main\n"
        "code = main(%r)\n"
        "print(json.dumps([code, ran()]))\n" % argv)
    code, ran = json.loads(run_python("-c", script)[0].splitlines()[-1])
    assert code == 0
    assert ran == sorted(["gqm", "gqm.cli", "gqm.errors",
                          *("gqm." + m for m in layers)])


def test_every_export_resolves_to_its_home_module():
    """Each name of ``gqm.__all__`` is defined in the package itself or is
    the object of that name in its home module, whose own it is; ``dir``
    lists them all."""
    for name in gqm.__all__:
        value = getattr(gqm, name)
        if name in vars(gqm):
            continue
        home = importlib.import_module("gqm." + gqm._EXPORTS[name])
        assert value is getattr(home, name)
        assert getattr(value, "__module__", home.__name__) == home.__name__
    assert set(gqm.__all__) <= set(dir(gqm))


def test_every_global_read_in_a_function_is_bound():
    """Every global name a function of the package reads, in its
    comprehensions and lambdas too, is bound at module level or is a
    builtin: a name imported inside one function and read in another
    fails here, and not only when the branch that reads it runs."""
    unbound = []
    for path in sorted(Path(gqm.__file__).parent.glob("*.py")):
        top = symtable.symtable(path.read_text(encoding="utf-8"),
                                path.name, "exec")
        bound = {s.get_name() for s in top.get_symbols()
                 if s.is_assigned() or s.is_imported()} | set(dir(builtins))
        tables = top.get_children()
        while tables:
            table = tables.pop()
            tables += table.get_children()
            if table.get_type() == "function":
                unbound += ["%s:%d %s" % (path.name, table.get_lineno(),
                                          s.get_name())
                            for s in table.get_symbols()
                            if s.is_global() and s.is_referenced()
                            and s.get_name() not in bound]
    assert unbound == []


def test_a_failing_hypothesis_test_names_itself(pytester, monkeypatch):
    """Under this repository's warning filters and conftest, a failing
    ``@given`` test is reported by its node id, with no INTERNALERROR."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    pytester.makepyprojecttoml((root / "pyproject.toml").read_text())
    pytester.makeconftest((root / "tests" / "conftest.py").read_text())
    pytester.makepyfile(test_drawn="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_negative(x):
            assert x < 0
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    out = result.stdout.str() + result.stderr.str()
    assert "FAILED test_drawn.py::test_negative" in out
    assert "INTERNALERROR" not in out
    result.assert_outcomes(failed=1)
