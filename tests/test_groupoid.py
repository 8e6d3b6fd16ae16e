import tracemalloc

import numpy as np
import pytest

import gqm.groupoid
from gqm.action import (
    ActionFunction,
    coboundaries,
    is_action,
    is_factorizable,
    is_reproducing_sweep_trial,
)
from gqm.algebra import AlgebraElement, multiply
from gqm.errors import GqmInputError, GroupoidValidationError
from gqm.examples import build_qubit, cyclic_group_groupoid
from gqm.groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    from_explicit,
    from_quiver,
    group_as_groupoid,
    pair_groupoid,
    validate,
)
from gqm.specio import parse_groupoid_doc
from gqm.states import CharacteristicFunction, is_positive_semidefinite


def test_pair_groupoid_orders():
    assert pair_groupoid(["+", "-"]).order == 4
    assert pair_groupoid(["A", "B", "D", "Dbar"]).order == 16


def test_pair_groupoid_singleton():
    g = pair_groupoid(["x"])
    assert g.transitions == ("1_x",)
    assert g.compose("1_x", "1_x") == "1_x"


def test_pair_groupoid_rejects_bad_labels():
    with pytest.raises(GqmInputError):
        pair_groupoid([])
    with pytest.raises(GqmInputError):
        pair_groupoid(["x", "x"])
    with pytest.raises(GqmInputError):
        pair_groupoid(["x", ""])


def test_qubit_structure(qubit):
    assert qubit.transitions == ("1_+", "1_-", "alpha", "alpha^-1")
    assert qubit.source["alpha"] == "-"
    assert qubit.target["alpha"] == "+"
    assert qubit.inverse["alpha"] == "alpha^-1"
    assert qubit.compose("alpha", "alpha^-1") == "1_+"
    assert qubit.compose("alpha^-1", "alpha") == "1_-"
    with pytest.raises(GqmInputError):
        qubit.compose("alpha", "alpha")


def test_group_as_groupoid_z2():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
             ("g", "g"): "e"}
    g = group_as_groupoid(["e", "g"], table, "e")
    assert len(g.events) == 1
    assert g.order == 2
    assert g.isotropy(g.events[0]) == frozenset({"e", "g"})


def test_group_as_groupoid_z3(z3):
    x = z3.events[0]
    assert len(z3.isotropy(x)) == 3
    assert z3.orbit(x) == frozenset({x})


def test_group_as_groupoid_rejects_broken_table():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
             ("g", "g"): "g"}  # g has no inverse
    with pytest.raises(GqmInputError):
        group_as_groupoid(["e", "g"], table, "e")
    # the first bad entry in table order is named: an unknown element
    # before a key that is no pair (a tuple of two), and such a key or a
    # result that is no element before an incomplete table
    for table, entry in [
            ({("e", "e"): "e", ("e", "x"): "g", ("e", "g", "g"): "g",
              5: "e"}, "('e', 'x') -> 'g'"),
            ({5: "e", ("e", "x"): "g"}, "5 -> 'e'"),
            ({"eg": "g", ("g", "g"): "e"}, "'eg' -> 'g'"),
            ({("e", "e"): ["e"]}, "('e', 'e') -> ['e']")]:
        with pytest.raises(GqmInputError) as err:
            group_as_groupoid(["e", "g"], table, "e")
        assert str(err.value) == "table entry %s is out of range" % entry


@pytest.mark.parametrize("event", ["", 5])
def test_group_as_groupoid_rejects_bad_event_label(event):
    """The event is checked like the events of every other kind."""
    with pytest.raises(GqmInputError) as err:
        group_as_groupoid(["e"], {("e", "e"): "e"}, "e", event=event)
    assert str(err.value) == "event labels must be non-empty strings"


def test_group_as_groupoid_rejects_incomplete_table():
    with pytest.raises(GqmInputError):
        group_as_groupoid(["e", "g"], {("e", "e"): "e"}, "e")


def test_from_quiver_double_slit(double_slit):
    assert double_slit.order == 16
    assert double_slit.is_connected()
    assert double_slit.is_pair_groupoid()
    # arrow labels resolve as aliases of pair transitions
    assert double_slit.resolve("alpha") == "A->D"
    assert double_slit.resolve("beta_bar") == "B->Dbar"
    # the label codec: of two labels naming one transition, the later wins
    assert double_slit.index("alpha") == double_slit.index("A->D")
    vec = double_slit.vector({"alpha": 1.0, "A->D": 2.0, "beta": 3.0}, float)
    assert vec[double_slit.index("A->D")] == 2.0
    assert vec[double_slit.index("B->D")] == 3.0 and vec.sum() == 5.0


def test_from_quiver_single_arrow():
    g = from_quiver(QuiverSpec(["x", "y"], [("f", "x", "y")]))
    assert g.order == 4
    assert g.resolve("f") == "x->y"


def test_from_quiver_disjoint_components():
    q = QuiverSpec(["a", "b", "c", "d"],
                   [("f", "a", "b"), ("h", "c", "d")])
    g = from_quiver(q)
    assert g.order == 8
    assert not g.is_connected()
    assert len(g.orbits()) == 2


def test_from_quiver_rejects_undeclared_event():
    with pytest.raises(GqmInputError):
        from_quiver(QuiverSpec(["a"], [("f", "a", "b")]))


@pytest.mark.parametrize("doc, message", [
    ({"kind": "pair", "events": ["a", "b->c", "a->b", "c"]},
     "event pairs ('a', 'b->c') and ('a->b', 'c') both generate the label "
     "'a->b->c'"),
    ({"kind": "quiver", "events": ["1_p", "q", "p->q"],
      "arrows": [{"label": "f", "source": "1_p", "target": "q"}]},
     "event pairs ('1_p', 'q') and ('p->q', 'p->q') both generate the label "
     "'1_p->q'"),
])
def test_colliding_generated_labels_rejected(doc, message):
    """A pair label that repeats another pair label, or a unit label of
    another component, names two transitions: an input error that names
    both event pairs, raised before validation."""
    with pytest.raises(GqmInputError) as err:
        parse_groupoid_doc(doc)
    assert str(err.value) == message


class Validated(Exception):
    pass


def test_generated_kinds_never_validate(monkeypatch, qubit):
    """Pair and quiver groupoids come from index arithmetic, proven in
    ``test_oracles.py``, and their constructors never call `validate`;
    the constructors from tables always do."""
    def validate(g):
        raise Validated

    monkeypatch.setattr(gqm.groupoid, "validate", validate)
    pair_groupoid(["a", "b", "c"])
    from_quiver(QuiverSpec(["a", "b", "c"], [("f", "a", "b")]))
    with pytest.raises(Validated):
        from_explicit(qubit.events, qubit.transitions, qubit.source,
                      qubit.target, qubit.unit_of, qubit.inverse,
                      qubit.composition)
    with pytest.raises(Validated):
        group_as_groupoid(["e"], {("e", "e"): "e"}, "e")


LABEL_TABLES = {"source", "target", "unit_of", "inverse", "composition"}


def test_sweep_reads_no_label_table():
    """A pair groupoid keeps no label-keyed table until one is read, and
    a sweep trial reads none; once read, a table is kept."""
    g = pair_groupoid(["e%d" % k for k in range(12)])
    is_reproducing_sweep_trial(
        g, np.random.default_rng(0).normal(size=(3, 12)))
    assert not LABEL_TABLES & vars(g).keys()
    assert g.compose("e1->e2", "e0->e1") == "e0->e2"
    assert g.source["e0->e1"] == "e0" and g.unit_of["e3"] == "1_e3"
    assert all(getattr(g, name) is getattr(g, name) for name in LABEL_TABLES)


def test_from_explicit_qubit_matches_pair():
    g = build_qubit()
    p = pair_groupoid(["+", "-"])
    assert len(g.events) == len(p.events)
    assert g.order == p.order
    assert validate(g).ok


def test_from_explicit_rejects_missing_inverse(qubit):
    inverse = dict(qubit.inverse)
    del inverse["alpha"]
    with pytest.raises(GroupoidValidationError):
        from_explicit(qubit.events, qubit.transitions, qubit.source,
                      qubit.target, qubit.unit_of, inverse,
                      qubit.composition)


def test_from_explicit_rejects_broken_composition(qubit):
    comp = dict(qubit.composition)
    comp[("alpha", "alpha^-1")] = "1_-"  # wrong endpoints
    with pytest.raises(GroupoidValidationError) as err:
        from_explicit(qubit.events, qubit.transitions, qubit.source,
                      qubit.target, qubit.unit_of, qubit.inverse, comp)
    assert any("alpha" in v for v in err.value.violations)


@pytest.mark.parametrize("key", [
    ("alpha", "alpha", "alpha"), ("alpha",), 3, "aa", "alpha",
    (("alpha", "alpha^-1"),),
], ids=["triple", "single", "int", "two-chars", "string", "nested"])
def test_from_explicit_names_a_key_that_is_no_pair(qubit, key):
    """A composition key that is not an (outer, inner) tuple is named in
    one input error, before any label in it is read."""
    with pytest.raises(GqmInputError) as err:
        from_explicit(qubit.events, qubit.transitions, qubit.source,
                      qubit.target, qubit.unit_of, qubit.inverse,
                      {**qubit.composition, key: "1_+", ("x", "y"): "z"})
    assert str(err.value) == (
        "composition key %r is not an (outer, inner) pair" % (key,))


def test_validate_reports_corrupted_inverse(qubit):
    bad = FiniteGroupoid(
        events=qubit.events,
        transitions=qubit.transitions,
        source=dict(qubit.source),
        target=dict(qubit.target),
        unit_of=dict(qubit.unit_of),
        inverse={**qubit.inverse, "alpha": "alpha"},
        composition=dict(qubit.composition),
    )
    report = validate(bad)
    assert not report.ok
    assert any("alpha" in v for v in report.violations)


def test_validate_passes_constructors(pair4, z3):
    assert validate(pair4).ok
    assert validate(z3).ok


def test_validate_passes_the_empty_groupoid():
    """The keyword constructor takes empty tables, and `validate` finds
    nothing to check in them: no block is widest."""
    report = validate(FiniteGroupoid((), (), {}, {}, {}, {}, {}))
    assert report.ok and report.checks == 0


def test_validate_reads_associativity_in_parts():
    """Z_128 has 2^21 associativity checks, 16 MiB an int array; read in
    parts of `CHECK_PART` entries, `validate` stays under 8 MiB traced."""
    g = cyclic_group_groupoid(128)
    tracemalloc.start()
    try:
        report = validate(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.checks == 128 ** 3 + 6 * 128 + 128 ** 2 + 1
    assert peak <= 8 << 20


def test_composition_index_is_shared_and_read_only(pair3, z3):
    """The triples and the index arrays are computed once per groupoid and
    handed to every caller, so no caller may write to them."""
    for g in (pair3, z3):
        for view in (g.composition_index, g.index_arrays):
            arrays = view()
            assert all(a is b for a, b in zip(arrays, view()))
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr[0] = 0
                with pytest.raises(ValueError):
                    arr.setflags(write=True)


def test_spray_sizes_pair_groupoid(pair3):
    for x in pair3.events:
        assert len(pair3.g_plus(x)) == 3
        assert len(pair3.g_minus(x)) == 3


def test_counting_identities(corpus):
    for g in corpus:
        # g_plus sets partition the transitions
        total = sum(len(g.g_plus(x)) for x in g.events)
        assert total == g.order
        for a in g.events:
            assert len(g.g_plus(a)) == len(g.isotropy(a)) * len(g.orbit(a))
        if g.is_connected():
            sizes = {len(g.g_plus(x)) for x in g.events}
            assert len(sizes) == 1
            assert g.order == len(g.events) * sizes.pop()


def test_hom_set(qubit):
    assert qubit.hom_set("-", "+") == frozenset({"alpha"})
    assert qubit.hom_set("+", "+") == frozenset({"1_+"})


def test_unknown_labels_raise(qubit):
    with pytest.raises(GqmInputError):
        qubit.resolve("nope")
    with pytest.raises(GqmInputError):
        qubit.require_event("nope")


def test_cyclic_group_groupoid_rejects_bad_orders():
    assert cyclic_group_groupoid(1).order == 1
    for n in (0, -2, 2.0, 2.5, "3", None):
        with pytest.raises(GqmInputError):
            cyclic_group_groupoid(n)


def test_law_checks_read_the_pairs_in_parts():
    """`is_action`, `is_factorizable` and `multiply` read the composable
    pairs in parts of `CHECK_PART` entries: from pair(64) to pair(128),
    |G| grows 4x and the pairs 8x, and the traced peak of each at most
    4.5x (a pair groupoid stores the m x m index matrix of its events, and
    forms its composition triples part by part as they are read)."""
    peaks = []
    for n in (64, 128):
        g = pair_groupoid(["e%d" % k for k in range(n)])
        s = ActionFunction(g, coboundaries(g, np.linspace(0.0, 1.0, n)))
        phi = CharacteristicFunction(g, np.exp(1j * s.values))
        a = AlgebraElement(g, phi.values)
        for check in (lambda: is_action(s)[0],
                      lambda: is_factorizable(phi).ok,
                      lambda: multiply(a, a).coeffs.any()):
            tracemalloc.start()
            try:
                assert check()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    for small, large in zip(peaks[:3], peaks[3:]):
        assert large <= 4.5 * small


def test_pair_orbit_stacks_take_quadratic_memory():
    """A pair groupoid keeps no composition triples and builds its orbit
    table from its index matrix: building pair(n), its orbit table and the
    PSD check of a state on it peak, traced, at most 4.5x higher on pair(128)
    than on pair(64), where |G| grows 4x and the composable pairs 8x; and
    pair(256) with its orbit table, 2^24 composable pairs (a 384 MiB
    triple table), stays under 64 MiB."""
    peaks = []
    for n, check in ((64, True), (128, True), (256, False)):
        tracemalloc.start()
        try:
            g = pair_groupoid(["e%d" % k for k in range(n)])
            g.orbit_table()
            if check:
                values = np.exp(1j * coboundaries(g, np.linspace(0, 1, n)))
                phi = CharacteristicFunction(g, values / n)
                assert is_positive_semidefinite(phi).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 4.5 * peaks[0]
    assert peaks[2] < 64 << 20
