"""The vectorized kernels against the plain loop versions in ``oracles``.

Validation must give the same violations, in the same order, and the same
check count; products, involutions, representations, invariance matrices,
action and decoherence checks and their first violations must agree
exactly; eigen-derived numbers within 1e-12 of their scale.
"""

import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqm.groupoid
from gqm.action import (
    ActionFunction,
    action_from_potential,
    dynamical_state,
    is_action,
    is_reproducing_sweep_trial,
    quiver_decoherence,
)
from gqm.algebra import (
    AlgebraElement,
    fundamental_rep,
    involution,
    isotropy_char,
    multiply,
    operator_norm,
    regular_rep,
    spray_char,
)
from gqm.decoherence import (
    DecoherenceFunctional,
    characteristic_from_bivariate,
    check_decoherence_axioms,
    decoherence_from_characteristic,
    is_invariant,
)
from gqm.errors import GqmInputError, MathPropertyError
from gqm.examples import corpus_groupoids
from gqm.gns import (
    RANK_TOL,
    FrameChange,
    RepMatrices,
    fundamental_matrices,
    gns_build,
    gns_matrices,
    gns_report,
    transformation_function,
)
from gqm.groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    from_explicit,
    from_quiver,
    group_as_groupoid,
    pair_groupoid,
    validate,
)
from gqm.states import (
    CharacteristicFunction,
    delta_state,
    invariance_matrix,
    is_positive_semidefinite,
    observable_amplitude,
    psd_spectra,
    random_state,
    reproducing_deviations,
    transition_amplitude,
)
from groupoids import (
    GROUPS,
    chain_quiver,
    composite_groupoids,
    composite_specs,
    generator_actions,
)
from oracles import (
    assembled,
    bivariate_values_loop,
    block_kernels_loop,
    frame_transported_unit,
    fundamental_rep_loop,
    g_minus_loop,
    g_plus_loop,
    generated_triples_loop,
    gns_basis,
    gns_basis_loop,
    gns_dim_full,
    gns_matrices_dense,
    gns_projector,
    gns_projector_dense,
    group_tables_loop,
    hom_set_loop,
    invariance_matrix_loop,
    involution_loop,
    is_action_loop,
    is_invariant_loop,
    isotropy_loop,
    multiply_loop,
    observable_amplitude_loop,
    orbit_blocks_loop,
    orbit_loop,
    orbit_table_loop,
    orbit_table_slots,
    orbits_loop,
    pair_tables_loop,
    product_rounding_loop,
    psd_full,
    psd_orbits_loop,
    quiver_decoherence_loop,
    quiver_tables_loop,
    regular_rep_loop,
    rep_check_loop,
    reproducing_deviation_loop,
    target_block_violation_loop,
    transformation_loop,
    transition_amplitude_loop,
    validate_loop,
)
from specdocs import parse_groupoid_text


def pair_times_z2():
    """The pair groupoid on {p, q} times Z_2: one orbit, isotropy Z_2."""
    events = ["p", "q"]
    label = {(x, y, k): "%s%s%d" % (x, y, k)
             for x in events for y in events for k in (0, 1)}
    transitions = list(label.values())
    return from_explicit(
        events, transitions,
        {lab: x for (x, y, k), lab in label.items()},
        {lab: y for (x, y, k), lab in label.items()},
        {x: label[(x, x, 0)] for x in events},
        {lab: label[(y, x, k)] for (x, y, k), lab in label.items()},
        {(label[(y, z, k)], label[(x, y, j)]): label[(x, z, (j + k) % 2)]
         for x in events for y in events for z in events
         for j in (0, 1) for k in (0, 1)})


@functools.cache
def systems():
    """The groupoids every oracle comparison runs over. They come from
    validating constructors, so they are built on first use: a fault in
    ``validate`` then fails the tests that need them, not the collection
    of this module."""
    return corpus_groupoids() + [
        pair_times_z2(),
        from_quiver(QuiverSpec(["a", "b", "c", "d", "e"],
                               [("f", "a", "b"), ("h", "d", "c"),
                                ("k", "c", "e")])),
    ]


system = st.deferred(lambda: st.sampled_from(systems()))
# besides: groupoids with isotropy, several orbits and shuffled events
any_system = system | composite_groupoids()


def copy_of(g, **changes):
    """A fresh, unvalidated groupoid with the tables of ``g``, some of them
    replaced."""
    tables = dict(events=g.events, transitions=g.transitions,
                  source=dict(g.source), target=dict(g.target),
                  unit_of=dict(g.unit_of), inverse=dict(g.inverse),
                  composition=dict(g.composition))
    tables.update(changes)
    return FiniteGroupoid(**tables)


def assert_same_validation(g):
    fast, slow = validate(g), validate_loop(copy_of(g))
    assert fast.violations == slow.violations
    assert fast.checks == slow.checks


def test_validate_matches_loop_on_systems():
    for g in systems():
        assert_same_validation(copy_of(g))


def stack_fields(stack):
    return stack.gather, stack.events, stack.orbit, stack.rows


def assert_same_arrays(g, h):
    """Bit-identical transitions, index arrays, composition triples (in
    order) and orbit tables."""
    assert g.transitions == h.transitions
    for view in ("index_arrays", "composition_index"):
        for a, b in zip(getattr(g, view)(), getattr(h, view)(), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(g.orbit_table(), h.orbit_table(), strict=True):
        for x, y in zip(stack_fields(a), stack_fields(b)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def assert_generated(g, tables):
    """``g`` comes from index arithmetic and is not validated when built,
    so it is proven here: `validate` and its loop pass with equal check
    counts; its copy through the label-table constructor has the same
    arrays; and the loop-built ``tables`` (`quiver_tables_loop`'s) equal
    its label tables, composition in order, and go through `from_explicit`
    to the same canonical order and arrays."""
    fast, slow = validate(g), validate_loop(copy_of(g))
    assert fast.ok and slow.ok and fast.checks == slow.checks
    assert_same_arrays(g, copy_of(g))
    transitions, *labelled, aliases = tables
    assert [g.source, g.target, g.unit_of, g.inverse] == labelled[:4]
    assert list(g.composition.items()) == list(labelled[4].items())
    assert g.aliases == aliases
    assert_same_arrays(g, from_explicit(g.events, transitions, *labelled))


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_groupoids_are_proven(n):
    events = ["e%d" % k for k in range(n)]
    assert_generated(pair_groupoid(events),
                     pair_tables_loop([events]) + ({},))


@settings(max_examples=40, deadline=None)
@given(generator_actions())
def test_quiver_groupoids_are_proven(drawn):
    g, arrows, _ = drawn
    assert_generated(g, quiver_tables_loop(list(g.events), arrows))


@settings(max_examples=40, deadline=None)
@given(composite_specs(groups=GROUPS[:1]))
def test_quiver_specs_match_explicit(specs):
    """Where every H_i is trivial, the quiver spec of spanning paths
    generates the groupoid of the explicit (or group) spec: the same
    events, orbits and target block sizes."""
    explicit, quiver = (parse_groupoid_text(json.dumps(doc))
                        for doc in specs)
    assert quiver.events == explicit.events
    assert quiver.orbits() == explicit.orbits()
    assert np.array_equal(np.bincount(quiver.index_arrays()[1]),
                          np.bincount(explicit.index_arrays()[1]))
    arrows = [(a["label"], a["source"], a["target"])
              for a in specs[1]["arrows"]]
    assert_generated(quiver, quiver_tables_loop(list(quiver.events), arrows))


EVENT_NAMES = ["a", "b", "c", "a->b", "b->c", "c->a", "1_a", "1_b", "->",
               "a->", "1_a->b"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(EVENT_NAMES), min_size=1, max_size=6,
                unique=True), st.data())
def test_generated_label_checks_match_loop(events, data):
    """Events and arrow labels drawn to collide: the arithmetic builders
    reject the same inputs as the loops, with the same message, naming
    the same first offending pair or arrow; the rest build the loops'
    groupoids."""
    arrows = data.draw(st.lists(st.tuples(
        st.sampled_from(EVENT_NAMES + ["f", "g"]), st.sampled_from(events),
        st.sampled_from(events)), max_size=4, unique_by=lambda a: a[0]))
    for build, loop in (
            (lambda: pair_groupoid(events),
             lambda: pair_tables_loop([events]) + ({},)),
            (lambda: from_quiver(QuiverSpec(events, arrows)),
             lambda: quiver_tables_loop(events, arrows))):
        try:
            tables = loop()
        except GqmInputError as err:
            with pytest.raises(GqmInputError) as got:
                build()
            assert str(got.value) == str(err)
        else:
            assert_generated(build(), tables)


GROUP_LABELS = st.text("abcgh1_*", min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_group_groupoids_are_proven(cayley, data):
    """A group table under random labels, in random element and entry
    order, with 0 to 3 entries then given an unknown result, added with an
    unknown element, dropped, given the identity as result or given
    another result (which mostly breaks associativity): `group_as_groupoid`
    raises what the label-dict loop raises, or builds the loop's
    groupoid."""
    n = len(cayley)
    el = data.draw(st.lists(GROUP_LABELS, min_size=n, max_size=n,
                            unique=True))
    table = {(el[a], el[b]): el[cayley[a][b]]
             for a, b in data.draw(st.permutations(
                 [(a, b) for a in range(n) for b in range(n)]))}
    for _ in range(data.draw(st.integers(0, 3))):
        key = (data.draw(st.sampled_from(el)), data.draw(st.sampled_from(el)))
        fault = data.draw(st.sampled_from(
            ["range", "key", "drop", "identity"] + ["result"] * 4))
        if fault == "range":
            table[key] = "zz"
        elif fault == "key":
            table[("zz", key[1])] = key[0]
        elif fault == "drop":
            table.pop(key, None)
        else:
            table[key] = el[0] if fault == "identity" else data.draw(
                st.sampled_from(el))
    elements = data.draw(st.permutations(el))
    event = data.draw(GROUP_LABELS)
    try:
        tables = group_tables_loop(elements, table, el[0], event)
    except GqmInputError as err:
        with pytest.raises(GqmInputError) as got:
            group_as_groupoid(elements, table, el[0], event)
        assert type(got.value) is type(err) and str(got.value) == str(err)
    else:
        assert_generated(group_as_groupoid(elements, table, el[0], event),
                         tables + ({},))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validate_matches_loop_on_group_tables(data):
    """Cyclic tables under a random relabelling, with some entries then
    overwritten at random, which mostly breaks associativity."""
    n = data.draw(st.integers(1, 5))
    perm = data.draw(st.permutations(range(n)))
    table = {(perm[i], perm[j]): perm[(i + j) % n]
             for i in range(n) for j in range(n)}
    for _ in range(data.draw(st.integers(0, 3))):
        key = (data.draw(st.integers(0, n - 1)),
               data.draw(st.integers(0, n - 1)))
        table[key] = data.draw(st.integers(0, n - 1))
    el = ["h%d" % k for k in range(n)]
    inverse = {el[perm[i]]: el[perm[-i % n]] for i in range(n)}
    assert_same_validation(FiniteGroupoid(
        events=("*",), transitions=tuple(el),
        source=dict.fromkeys(el, "*"), target=dict.fromkeys(el, "*"),
        unit_of={"*": el[perm[0]]}, inverse=inverse,
        composition={(el[i], el[j]): el[r] for (i, j), r in table.items()}))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_validate_matches_loop_on_foreign_results(n, data):
    """Cyclic tables with some results outside the group, down to the
    one-transition groupoid, where no index into its tables wraps round."""
    el = ["h%d" % k for k in range(n)]
    comp = {(el[i], el[j]): el[(i + j) % n]
            for i in range(n) for j in range(n)}
    for key in data.draw(st.lists(st.sampled_from(sorted(comp)),
                                  min_size=1, max_size=3)):
        comp[key] = "zzz"
    assert_same_validation(FiniteGroupoid(
        events=("*",), transitions=tuple(el),
        source=dict.fromkeys(el, "*"), target=dict.fromkeys(el, "*"),
        unit_of={"*": el[0]}, inverse={el[i]: el[-i % n] for i in range(n)},
        composition=comp))


@settings(max_examples=150, deadline=None)
@given(system, st.data())
def test_validate_matches_loop_on_corrupted_tables(g, data):
    ts, evs = list(g.transitions), list(g.events)
    kind = data.draw(st.sampled_from(
        ["inverse", "unit", "result", "drop", "add", "source", "target",
         "order"]))
    t = data.draw(st.sampled_from(ts))
    label = data.draw(st.sampled_from(ts + ["bogus"]))
    comp = dict(g.composition)
    key = data.draw(st.sampled_from(sorted(comp)))
    if kind == "inverse":
        bad = copy_of(g, inverse={**g.inverse, t: label})
    elif kind == "unit":
        x = data.draw(st.sampled_from(evs))
        bad = copy_of(g, unit_of={**g.unit_of, x: label})
    elif kind == "result":
        bad = copy_of(g, composition={**comp, key: label})
    elif kind == "drop":
        del comp[key]
        bad = copy_of(g, composition=comp)
    elif kind == "add":
        inner = data.draw(st.sampled_from(ts))
        bad = copy_of(g, composition={**comp, (t, inner): label})
    elif kind in ("source", "target"):
        x = data.draw(st.sampled_from(evs + ["nowhere"]))
        table = dict(getattr(g, kind))
        table[t] = x
        bad = copy_of(g, **{kind: table})
    else:  # a non-canonical transition order
        bad = copy_of(g, transitions=tuple(data.draw(st.permutations(ts))))
    assert_same_validation(bad)


LABEL_TABLES = ("source", "target", "unit_of", "inverse", "composition")


@settings(max_examples=150, deadline=None)
@given(any_system, st.data())
def test_keyword_constructor_round_trips_its_tables(g, data):
    """The keyword constructor encodes each entry to an int once and keeps
    no label table.  On tables with entries dropped, set to a label that
    names nothing (None among them) or added under an operand that is no
    transition, and the composition reordered: each view gives back its
    table over its keys, a dropped entry as None; ``composition`` is the
    given dict, in its order, and `composition_index` its rows of
    transitions; in the index arrays an entry that names no event or
    transition reads len(events) or the order or more, and any other its
    index."""
    tables = {name: dict(getattr(g, name)) for name in LABEL_TABLES}
    labels = ["bogus", None, "*", "1_"] + list(g.events) + list(g.transitions)
    for _ in range(data.draw(st.integers(1, 4))):
        table = tables[data.draw(st.sampled_from(LABEL_TABLES))]
        if not table:
            continue
        key = data.draw(st.sampled_from(list(table)))
        fault = data.draw(st.sampled_from(["drop", "label", "operand"]))
        label = data.draw(st.sampled_from(labels))
        if fault == "drop":
            del table[key]
        elif fault == "operand" and isinstance(key, tuple):
            table[(label, key[1])] = key[0]
        else:
            table[key] = label
    tables["composition"] = dict(data.draw(st.permutations(
        list(tables["composition"].items()))))
    h = FiniteGroupoid(events=g.events, transitions=g.transitions, **tables)

    keys = {"source": g.transitions, "target": g.transitions,
            "unit_of": g.events, "inverse": g.transitions}
    for name, index, codes in zip(
            ("source", "target", "inverse", "unit_of"),
            (h.event_index, h.event_index, h.transition_index,
             h.transition_index), h.index_arrays()):
        assert getattr(h, name) == {k: tables[name].get(k)
                                    for k in keys[name]}
        for key, code in zip(keys[name], codes.tolist()):
            label = tables[name].get(key)
            assert code == index[label] if label in index else (
                code >= len(index))
    comp, ix = tables["composition"], h.transition_index
    assert list(h.composition.items()) == list(comp.items())
    assert np.transpose(h.composition_index()).tolist() == [
        [ix[o], ix[i], ix[r]] for (o, i), r in comp.items()
        if {o, i, r} <= ix.keys()]


def cayley_groupoid(table):
    el = ["h%d" % k for k in range(len(table))]
    return group_as_groupoid(el, {(el[a], el[b]): el[c]
                                  for a, row in enumerate(table)
                                  for b, c in enumerate(row)}, el[0])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GROUPS).map(cayley_groupoid) | any_system,
       st.integers(1, 9), st.data())
def test_validate_in_parts_matches_one_pass(g, part, data):
    """`validate` checks associativity in parts of `CHECK_PART` triples;
    parts of a few pairs give the same violations, in the same order, and
    the same check count as one pass, on the groups of ``GROUPS``,
    composite groupoids and their tables with 0 to 3 results
    overwritten, which mostly breaks associativity."""
    comp = dict(g.composition)
    for _ in range(data.draw(st.integers(0, 3))):
        comp[data.draw(st.sampled_from(sorted(comp)))] = data.draw(
            st.sampled_from(g.transitions))
    bad = copy_of(g, composition=comp)
    whole = validate(bad)
    with mock.patch.object(gqm.groupoid, "CHECK_PART", part):
        parts = validate(bad)
    assert (parts.violations, parts.checks) == (whole.violations,
                                                whole.checks)


def test_orbits_match_loop():
    """Orbits in the order of their first events, also where an orbit's
    first event is an arrow's target and where events carry no arrow."""
    isolated = from_quiver(QuiverSpec(
        ["a", "b", "c", "d", "e", "f"],
        [("f", "c", "a"), ("h", "e", "e"), ("k", "f", "c")]))
    for g in systems() + [isolated]:
        assert g.orbits() == orbits_loop(g)
        assert g.is_connected() == (len(orbits_loop(g)) == 1)
    assert isolated.orbits() == [frozenset("acf"), frozenset("b"),
                                 frozenset("d"), frozenset("e")]


def random_values(g, rng):
    return rng.normal(size=g.order) + 1j * rng.normal(size=g.order)


@settings(max_examples=60, deadline=None)
@given(any_system, st.integers(0, 2**32 - 1))
def test_queries_and_amplitudes_match_loops(g, seed):
    """The structural queries, read as masks over the index arrays, give
    the label loops' sets on every event and event pair, and the
    amplitudes, read from the fundamental representation, their sums over
    the hom set in label order."""
    rng = np.random.default_rng(seed)
    phi = CharacteristicFunction(g, random_values(g, rng))
    f = AlgebraElement(g, random_values(g, rng))
    f = f + f.star()
    scale = max(1.0, float(np.max(np.abs(f.coeffs))),
                float(np.max(np.abs(phi.values))))
    ix = g.transition_index
    for x in g.events:
        assert g.g_plus(x) == g_plus_loop(g, x)
        assert g.g_minus(x) == g_minus_loop(g, x)
        assert g.isotropy(x) == isotropy_loop(g, x)
        assert g.orbit(x) == orbit_loop(g, x)
        plus, iso = spray_char(g, x).coeffs, isotropy_char(g, x).coeffs
        assert np.flatnonzero(plus).tolist() == sorted(
            ix[t] for t in g_plus_loop(g, x))
        assert np.flatnonzero(iso).tolist() == sorted(
            ix[t] for t in isotropy_loop(g, x))
        for y in g.events:
            assert g.hom_set(x, y) == hom_set_loop(g, x, y)
            assert abs(transition_amplitude(phi, x, y)
                       - transition_amplitude_loop(phi, x, y)) <= 1e-12 * scale
            assert abs(observable_amplitude(f, y, x)
                       - observable_amplitude_loop(f, y, x)) <= 1e-12 * scale
    x = g.events[0]
    for query in (g.g_plus, g.g_minus, g.isotropy, g.orbit,
                  lambda y: g.hom_set(x, y), lambda y: g.hom_set(y, x),
                  lambda y: transition_amplitude(phi, x, y)):
        with pytest.raises(GqmInputError):
            query("nowhere")


@settings(max_examples=40, deadline=None)
@given(any_system, st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["none", "homomorphism", "star", "unit"]),
       st.sampled_from([1, 3, None]))
def test_rep_check_matches_loop(g, seed, gns, law, part):
    """`RepMatrices.check`, batched over the composition triples, raises
    the message the pair-by-pair loop gives, on the fundamental matrices
    or the GNS matrices of a random state, intact or with one law broken:
    one matrix moved, every matrix conjugated by one invertible matrix
    that is not unitary, or a zero row and column added.  ``part`` triples
    per part of the check, or the default part size, so that the first
    failure is also found past a part boundary."""
    rng = np.random.default_rng(seed)
    if gns and g.order <= 36:
        rep = gns_matrices(gns_build(random_state(g, rng)))
    else:
        rep = fundamental_matrices(g)
    mats = np.array(rep.matrices)
    d = mats.shape[1]
    if law == "homomorphism":
        mats[rng.integers(g.order)] += 0.1 * (
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    elif law == "star":
        s = np.eye(d) + 0.3 / np.sqrt(d) * rng.normal(size=(d, d))
        mats = s @ mats @ np.linalg.inv(s)
    elif law == "unit":
        mats = np.pad(mats, ((0, 0), (0, 1), (0, 1)))
    broken = RepMatrices(g, mats)
    expected = rep_check_loop(broken, 1e-10)
    size = gqm.groupoid.CHECK_PART if part is None else part * mats[0].size
    with mock.patch.object(gqm.groupoid, "CHECK_PART", size):
        if expected is None:
            assert law in ("none", "star")
            broken.check()
        else:
            assert expected.startswith({
                "homomorphism": "not a homomorphism", "star": "star-",
                "unit": "unit transitions"}[law])
            with pytest.raises(MathPropertyError) as err:
                broken.check()
            assert str(err.value) == expected


# the generated kinds, pair groupoids and quivers (loops and parallel
# arrows among their arrows), each with the triples the loop lists
generated = (st.integers(1, 7).map(lambda n: pair_groupoid(
    ["e%d" % k for k in range(n)])) | generator_actions().map(
    lambda drawn: drawn[0])).map(lambda g: (g, generated_triples_loop(g)))
# the kinds of tables, each with the triples it was given
given_kinds = (st.sampled_from(GROUPS).map(cayley_groupoid)
               | composite_groupoids()).map(
    lambda g: (g, np.array(g.composition_index())))


@settings(max_examples=60, deadline=None)
@given(generated | given_kinds, st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_composition_parts_cover_the_pairs(drawn, part, seed):
    """At ``part`` entries per part and one per pair, the parts of
    `composition_parts`, joined, are the composition triples in their
    order, ``part`` pairs a part but the last: a generated kind's as the
    loop lists them pair by pair, the tables' as given.  `is_invariant`
    reads the orbit stacks at ``part`` entries per part as the loop reads
    all."""
    g, triples = drawn
    rng = np.random.default_rng(seed)
    d = decoherence_from_characteristic(random_state(g, rng))
    d.matrix[tuple(rng.integers(g.order, size=2))] += 1e-9
    with mock.patch.object(gqm.groupoid, "CHECK_PART", part):
        parts = [np.array(p) for p in g.composition_parts(1)]
        assert is_invariant(d) == is_invariant_loop(d, 1e-10)
    assert np.array_equal(np.hstack(parts), triples)
    sizes = [p.shape[1] for p in parts]
    assert all(size == part for size in sizes[:-1]) and sizes[-1] <= part


@settings(max_examples=40, deadline=None)
@given(system, st.integers(0, 2**32 - 1))
def test_kernels_match_loops(g, seed):
    rng = np.random.default_rng(seed)
    """The kernels give the loops' numbers bit for bit, but the product,
    which sums each slot by matrix products, in another order than the
    loop: it is held to the rounding bound of its sums."""
    a = AlgebraElement(g, random_values(g, rng))
    b = AlgebraElement(g, random_values(g, rng))
    # magnitudes far apart, so a different summation order would show
    c = AlgebraElement(g, random_values(g, rng)
                       * 10.0 ** rng.uniform(-8, 8, g.order))
    for x, y in ((a, b), (c, a)):
        assert np.all(np.abs(multiply(x, y).coeffs - multiply_loop(x, y))
                      <= product_rounding_loop(x, y))
    for x in (a, c):
        assert np.array_equal(involution(x).coeffs, involution_loop(x))
        assert np.array_equal(fundamental_rep(x), fundamental_rep_loop(x))
    phi = CharacteristicFunction(g, random_values(g, rng))
    assert np.array_equal(invariance_matrix(phi), invariance_matrix_loop(phi))

    s = ActionFunction(g, rng.normal(size=g.order))
    assert is_action(s) == is_action_loop(s, 1e-10)
    if g.is_pair_groupoid():
        s = action_from_potential(g, dict(zip(g.events,
                                              rng.normal(size=len(g.events)))))
        assert is_action(s) == is_action_loop(s, 1e-10) == (True, [])
        s.values[rng.integers(g.order)] += 0.5
        assert is_action(s) == is_action_loop(s, 1e-10)


@settings(max_examples=80, deadline=None)
@given(system, st.integers(0, 2**32 - 1))
def test_invariance_matches_loop(g, seed):
    """A state's functional, which is invariant, and the same with one
    entry moved by about the tolerance, mostly inside a target block."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    d = decoherence_from_characteristic(random_state(g, rng))
    moved = d.matrix.copy()
    i = rng.integers(g.order)
    tgt = g.index_arrays()[1]
    block = np.flatnonzero(tgt == tgt[i])
    j = rng.choice(block) if rng.random() < 0.8 else rng.integers(g.order)
    moved[i, j] += 10.0 ** rng.uniform(-11, -9) * np.exp(2j * np.pi
                                                        * rng.random())
    for mat in (d.matrix, moved):
        e = DecoherenceFunctional(g, mat)
        verdict = is_invariant(e, tol)
        assert verdict == is_invariant_loop(e, tol)
        if verdict:
            assert np.array_equal(characteristic_from_bivariate(e, tol).values,
                                  bivariate_values_loop(e))
        else:
            with pytest.raises(MathPropertyError):
                characteristic_from_bivariate(e, tol)


@settings(max_examples=80, deadline=None)
@given(system, st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 3))
def test_target_check_matches_loop(g, seed, arrows, rank):
    """Hermitian PSD matrices: a state's functional (or zero, over arrow
    labels) plus V V^H for a sparse V with entries near the tolerance, so
    the first entry across target blocks above it is the first violation
    check_decoherence_axioms reports."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    if arrows and g.aliases:
        labels = tuple(sorted(g.aliases))
        base = np.zeros((len(labels), len(labels)), dtype=complex)
    else:
        labels = g.transitions
        base = decoherence_from_characteristic(random_state(g, rng)).matrix
    n = len(labels)
    v = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))) * (
        10.0 ** rng.uniform(-6, -4, (n, rank)) * (rng.random((n, rank)) < 0.4))
    e = DecoherenceFunctional(g, base + v @ v.conj().T, labels=labels)
    first = target_block_violation_loop(e, tol)
    if first is None:
        check_decoherence_axioms(e, tol)
    else:
        with pytest.raises(MathPropertyError) as err:
            check_decoherence_axioms(e, tol)
        assert str(err.value) == ("entries with different targets must "
                                  "vanish: (%r, %r)" % first)


@settings(max_examples=60, deadline=None)
@given(any_system, st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-3, 0.5]))
def test_psd_matches_full_matrix(g, seed, noise):
    rng = np.random.default_rng(seed)
    values = random_state(g, rng).values + noise * random_values(g, rng)
    phi = CharacteristicFunction(g, values)
    check = is_positive_semidefinite(phi)
    ok, hermitian, eigvals = psd_full(phi, 1e-10)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    assert (check.ok, check.hermitian) == (ok, hermitian)
    assert abs(check.min_eigenvalue - eigvals[0]) <= 1e-12 * scale
    if check.witness is not None:
        vec = np.zeros(g.order, dtype=complex)
        for label, z in check.witness:
            vec[g.transition_index[label]] = z
        mat = invariance_matrix_loop(phi)
        sym = 0.5 * (mat + mat.conj().T)
        residual = sym @ vec - check.min_eigenvalue * vec
        assert np.max(np.abs(residual)) <= 1e-12 * scale


def blocks_of_mixed_sizes():
    """Besides ``systems()``: a quiver with components of 2, 3, 2 and 4
    events and two isolated events, interleaved in event order so that
    blocks of one size are not adjacent, and the pair groupoid on 9
    events."""
    return [from_quiver(QuiverSpec(
        ["a", "c", "x", "f", "h", "b", "d", "g", "e", "y", "i", "j", "k"],
        [("p", "a", "b"), ("q", "c", "d"), ("r", "d", "e"), ("s", "g", "f"),
         ("t", "h", "i"), ("u", "j", "i"), ("v", "k", "j")])),
        pair_groupoid(["e%d" % k for k in range(9)])]


def orbit_spans(stack):
    """(j, first, end) of each orbit j of an `OrbitStack`: its events are
    ``events[first:end]``, the representative first."""
    first = np.searchsorted(stack.orbit, np.arange(len(stack.gather)))
    return zip(range(first.size), first.tolist(),
               [*first[1:].tolist(), stack.events.size])


def assert_orbit_table_matches_loop(g):
    """The orbit table holds one stack per block size, ascending, and each
    field of each stack is, in dtype, shape and value, the one built orbit
    by orbit and the one read from the slot table of every composable pair,
    and read-only for good.  Read orbit by orbit, the stacks
    hold the events, translated rows and products a^-1 ∘ b of the label
    loop; every block, read in translated order, is its representative's
    block byte for byte, and holds the event's whole target block."""
    table = g.orbit_table()
    for stack, fields, slots in zip(table, orbit_table_loop(g),
                                    orbit_table_slots(g), strict=True):
        for got, want, ref in zip(stack_fields(stack), fields, slots):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert np.array_equal(got, want) and np.array_equal(got, ref)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got.setflags(write=True)
    ix = g.transition_index
    loop = {g.event_index[events[0]]: (events, rows)
            for events, rows in orbit_blocks_loop(g)}
    phi = CharacteristicFunction(g, random_values(g, np.random.default_rng(
        g.order)))
    mat = invariance_matrix_loop(phi)
    tgt = g.index_arrays()[1]
    firsts = []
    for stack in table:
        for j, a, b in orbit_spans(stack):
            firsts.append(int(stack.events[a]))
            events, rows = loop[firsts[-1]]
            assert stack.events[a:b].tolist() == [g.event_index[x]
                                                  for x in events]
            assert stack.rows[a:b].tolist() == [[ix[t] for t in r]
                                                for r in rows]
            assert stack.gather[j].tolist() == [
                [ix[g.composition[(g.inverse[p], q)]] for q in rows[0]]
                for p in rows[0]]
            first = mat[np.ix_(stack.rows[a], stack.rows[a])].tobytes()
            for x, r in zip(stack.events[a:b], stack.rows[a:b]):
                assert sorted(r) == np.flatnonzero(tgt == x).tolist()
                assert mat[np.ix_(r, r)].tobytes() == first
    assert sorted(firsts) == sorted(loop)
    sizes = [stack.gather.shape[1] for stack in table]
    assert sizes == sorted(set(sizes))


def test_orbit_table_matches_loop_on_systems():
    for g in systems() + blocks_of_mixed_sizes():
        assert_orbit_table_matches_loop(g)


@settings(max_examples=60, deadline=None)
@given(composite_groupoids())
def test_orbit_table_matches_loop(g):
    assert_orbit_table_matches_loop(g)


def test_generated_kinds_form_no_pair():
    """A generated groupoid's orbit table comes with it, and the product
    reads the stacks: with `composition_parts` made to raise, pair(64) and
    a quiver with components of 5, 2 and 3 events (in the order of their
    first events) build their orbit tables and multiply, and the quiver
    also gives its regular representation and a random state; pair(64)'s
    would hold a |G| x |G| array, 256 MiB.  Read after, their stacks are
    those of the slot table, and the quiver's products are within the
    rounding bound of the loop's."""
    rng = np.random.default_rng(0)
    events = ["c0", "a0", "c1", "b0", "c2", "a1", "b1", "c3", "b2", "c4"]
    quiver = from_quiver(QuiverSpec(events, [
        ("p%s" % y, x, y) for x, y in zip(sorted(events), sorted(events)[1:])
        if x[0] == y[0]]))
    pair64 = pair_groupoid(["e%d" % k for k in range(64)])
    elements = {}
    with mock.patch.object(FiniteGroupoid, "composition_parts",
                           side_effect=AssertionError("a pair was formed")):
        for g in (pair64, quiver):
            assert g.orbit_table()
            a, b = (AlgebraElement(g, random_values(g, rng)) for _ in "ab")
            elements[g] = a, b, multiply(a, b)
        rep = regular_rep(elements[quiver][0])
        state = random_state(quiver, rng)
    assert np.array_equal(rep, regular_rep_loop(elements[quiver][0]))
    assert is_positive_semidefinite(state).ok
    assert [s.gather.shape[1] for s in quiver.orbit_table()] == [2, 3, 5]
    assert_orbit_table_matches_loop(quiver)
    for stack, slots in zip(pair64.orbit_table(), orbit_table_slots(pair64),
                            strict=True):
        for got, ref in zip(stack_fields(stack), slots):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
    a, b, product = elements[quiver]
    assert np.all(np.abs(product.coeffs - multiply_loop(a, b))
                  <= product_rounding_loop(a, b))


@pytest.mark.parametrize("build, sizes", [
    pytest.param(functools.partial(chain_quiver, 2000, 3), [3],
                 id="chain-2000x3"),
    pytest.param(lambda: blocks_of_mixed_sizes()[0], [1, 2, 3, 4],
                 id="mixed-sizes")])
def test_block_kernels_match_orbit_loop(build, sizes):
    """On 2000 orbits of one block size (|G| = 18,000, one stack), and on
    orbits of three block sizes beside isolated events, the kernels that
    read the stacks give, bit for bit, what the same arithmetic gives
    orbit by orbit: on a function that is not Hermitian and on its
    Hermitian part."""
    g = build()
    assert [s.gather.shape[1] for s in g.orbit_table()] == sizes
    values = random_values(g, np.random.default_rng(g.order))
    values = np.stack([values,
                       0.5 * (values + values[g.index_arrays()[2]].conj())])
    defect, least, deviation, norm, spectra = block_kernels_loop(g, values)
    fast_defect, fast_least, stacks = psd_spectra(g, values)
    assert fast_defect.tobytes() == defect.tobytes()
    assert fast_least.tobytes() == least.tobytes()
    assert reproducing_deviations(g, values).tobytes() == deviation.tobytes()
    assert [operator_norm(AlgebraElement(g, v)) for v in values] == [
        float(n) for n in norm]
    # the loop's orbits of one size, in event order, are that size's stack
    by_size = {}
    for vals, vecs in spectra:
        by_size.setdefault(vals.shape[1], []).append((vals, vecs))
    for _, vals, vecs in stacks:
        want = by_size.pop(vals.shape[2])
        assert vals.tobytes() == np.stack([v for v, _ in want], 1).tobytes()
        assert vecs.tobytes() == np.stack([v for _, v in want], 1).tobytes()
    assert by_size == {}


def function_of_kind(g, rng, kind):
    """A random state, a Hermitian function that is not PSD, or a function
    that is not Hermitian."""
    values = random_state(g, rng).values
    noise = random_values(g, rng)
    if kind == "indefinite":  # phi(t^-1) = conj(phi(t)) keeps M Hermitian
        values = values + 0.25 * (noise + noise[g.index_arrays()[2]].conj())
    elif kind == "non-hermitian":
        values = values + 1e-3 * noise
    return values


kinds = st.sampled_from(["state", "indefinite", "non-hermitian"])


@settings(max_examples=80, deadline=None)
@given(st.deferred(lambda: st.sampled_from(systems()
                                           + blocks_of_mixed_sizes()))
       | composite_groupoids(), st.integers(0, 2**32 - 1), kinds)
def test_psd_matches_block_loop(g, seed, kind):
    """One ``eigh`` per block size over the orbits' representative blocks
    gives, bit for bit, what one ``eigh`` per orbit gives: verdicts,
    minimum and witness, and in each stack each orbit's translated rows,
    eigenvalues and eigenvectors, on states, on Hermitian functions that
    are not PSD and on functions that are not Hermitian.  On states the
    GNS basis is the one built from the assembled eigendecomposition."""
    phi = CharacteristicFunction(g, function_of_kind(
        g, np.random.default_rng(seed), kind))
    fast = is_positive_semidefinite(phi)
    slow, spectra = psd_orbits_loop(phi, 1e-10)
    assert (fast.ok, fast.hermitian, fast.min_eigenvalue, fast.witness) == (
        slow.ok, slow.hermitian, slow.min_eigenvalue, slow.witness)
    ix = g.transition_index
    by_first = {g.event_index[events[0]]: (rows, vals, vecs)
                for events, rows, vals, vecs in spectra}
    covered = []
    for stack, vals, vecs in fast.blocks:
        m, s = stack.gather.shape[:2]
        assert vals.shape == (m, s)
        assert vecs.shape == (m, s, s)
        spans = list(orbit_spans(stack))
        firsts = [int(stack.events[a]) for _, a, _ in spans]
        assert firsts == sorted(firsts)  # orbits in event order
        for j, a, b in spans:
            rows, slow_vals, slow_vecs = by_first[firsts[j]]
            assert stack.rows[a:b].tolist() == [[ix[t] for t in r]
                                                for r in rows]
            assert vals[j].tobytes() == slow_vals.tobytes()
            assert vecs[j].tobytes() == slow_vecs.tobytes()
        covered += firsts
    assert sorted(covered) == sorted(by_first)
    if kind == "state":
        fast_basis = gns_basis(gns_build(phi).space)
        slow_basis = gns_basis_loop(*assembled(g, spectra), RANK_TOL)
        assert (fast_basis.shape, fast_basis.tobytes()) == (
            slow_basis.shape, slow_basis.tobytes())


@settings(max_examples=40, deadline=None)
@given(any_system, st.integers(0, 2**32 - 1), st.integers(1, 4), kinds)
def test_stacked_kernels_match_stack_of_one(g, seed, trials, kind):
    """The kernels that take a leading stack axis give each row, bit for
    bit, what the object API gives for that row alone."""
    rng = np.random.default_rng(seed)
    values = np.stack([function_of_kind(g, rng, kind)
                       for _ in range(trials)])
    defect, least, stacks = psd_spectra(g, values)
    deviations = reproducing_deviations(g, values)
    for t in range(trials):
        phi = CharacteristicFunction(g, values[t])
        check = is_positive_semidefinite(phi)
        assert check.hermitian == (defect[t] <= 0.5e-10)
        assert least[t].tobytes() == np.float64(check.min_eigenvalue).tobytes()
        for (stack, vals, vecs), one in zip(stacks, check.blocks):
            assert stack is one[0]
            assert vals[t].tobytes() == one[1].tobytes()
            assert vecs[t].tobytes() == one[2].tobytes()
        assert deviations[t] == reproducing_deviations(g, phi.values[None])[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUPS).map(cayley_groupoid) | any_system,
       st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_reproducing_deviations_match_convolution(g, seed, trials, delta):
    """The orbit-block kernel gives, row by row, max |phi * phi - phi| of
    the convolution over every composable pair, within rounding of its
    terms, on random complex stacks of scales 1e-3 to 1e3, far from
    reproducing, with the first row possibly a delta state, which is
    reproducing."""
    rng = np.random.default_rng(seed)
    values = np.stack([random_values(g, rng) * 10.0 ** rng.uniform(-3, 3)
                       for _ in range(trials)])
    if delta:
        values[0] = delta_state(g, g.events[rng.integers(len(g.events))]
                                ).values
    deviations = reproducing_deviations(g, values)
    block = max(stack.gather.shape[1] for stack in g.orbit_table())
    for row, deviation in zip(values, deviations):
        bound = 1e-12 * max(1.0, block * np.max(np.abs(row)) ** 2)
        assert abs(deviation - reproducing_deviation_loop(g, row)) <= bound
    if delta:
        assert deviations[0] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_sweep_stack_matches_trials(n, trials, seed):
    """`is_reproducing_sweep_trial` on a stack of potentials gives each
    trial's least eigenvalue and reproducing deviation bit for bit as the
    object API does trial by trial, where `dynamical_state` checks the
    action laws."""
    g = pair_groupoid(["e%d" % k for k in range(n)])
    u = np.random.default_rng(seed).normal(size=(trials, n))
    least, deviation = is_reproducing_sweep_trial(g, u)
    for t in range(trials):
        phi = dynamical_state(action_from_potential(
            g, dict(zip(g.events, u[t]))), "idempotent")
        assert least[t] == is_positive_semidefinite(phi).min_eigenvalue
        assert deviation[t] == reproducing_deviations(g, phi.values[None])[0]


@settings(max_examples=40, deadline=None)
@given(composite_groupoids(), st.integers(0, 2**32 - 1), st.booleans())
def test_gns_dimension_is_rank_on_composites(g, seed, delta):
    """The GNS dimension is the rank of the whole invariance matrix, for
    random states and for the delta state of an event, whose GNS space is
    spanned by its spray."""
    rng = np.random.default_rng(seed)
    if delta:
        x = g.events[rng.integers(len(g.events))]
        phi = delta_state(g, x)
        assert gns_build(phi).space.dim == len(g.g_plus(x))
    else:
        phi = random_state(g, rng)
    assert gns_build(phi).space.dim == gns_dim_full(phi, RANK_TOL)


@settings(max_examples=30, deadline=None)
@given(system, st.integers(0, 2**32 - 1))
def test_gns_matches_dense_products(g, seed):
    phi = random_state(g, np.random.default_rng(seed))
    rep = gns_build(phi)
    assert rep.space.dim == gns_dim_full(phi, RANK_TOL)
    dense = gns_matrices_dense(rep.space)
    matrices = gns_matrices(rep).matrices
    for t in g.transitions:
        assert np.max(np.abs(matrices[g.transition_index[t]] - dense[t]),
                      initial=0.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(system, st.integers(0, 2**32 - 1))
def test_gns_report_matches_dense_reconstruction(g, seed):
    """The product in ``gns_report`` against <0|pi(t)|0> from the dense
    matrices of every transition."""
    phi = random_state(g, np.random.default_rng(seed))
    rep = gns_build(phi)
    dense = gns_matrices_dense(rep.space)
    errors = [abs(rep.ground.conj() @ dense[t] @ rep.ground - phi.value(t))
              for t in g.transitions]
    scale = max(1.0, float(np.max(np.abs(phi.values))))
    assert abs(gns_report(phi)["reconstruction_max_error"]
               - max(errors)) <= 1e-12 * scale


def state_of_kind(g, rng, kind):
    """A random state, the delta state of a random event, or the dynamical
    state of a random potential's action u(t(a)) - u(s(a))."""
    if kind == "random":
        return random_state(g, rng)
    if kind == "delta":
        return delta_state(g, g.events[rng.integers(len(g.events))])
    src, tgt = g.index_arrays()[:2]
    u = rng.normal(size=len(g.events))
    return dynamical_state(ActionFunction(g, u[tgt] - u[src]))


@settings(max_examples=60, deadline=None)
@given(any_system, st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "delta", "action"]))
def test_gns_projector_matches_dense_product(g, seed, kind):
    """The projector in closed form, (basis lambda)^H, against the product
    basis^H M with the whole Gram form: they differ by basis^H (M - H),
    H the Hermitian part, and by rounding."""
    phi = state_of_kind(g, np.random.default_rng(seed), kind)
    space = gns_build(phi).space
    check = is_positive_semidefinite(phi)
    top = max(float(np.max(vals)) for _, vals, _ in check.blocks)
    mat = invariance_matrix_loop(phi)
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    dense = gns_projector_dense(phi, gns_basis(space))
    projector = gns_projector(space)
    assert projector.shape == dense.shape
    assert np.max(np.abs(projector - dense), initial=0.0) <= (
        1e-12 * max(1.0, top) + defect)


@settings(max_examples=60, deadline=None)
@given(any_system, st.integers(0, 2**32 - 1))
def test_operator_norm_matches_dense_regular_rep(g, seed):
    """The largest 2-norm of the orbit blocks a[gather] is the 2-norm of
    the whole regular representation."""
    a = AlgebraElement(g, random_values(g, np.random.default_rng(seed)))
    dense = np.linalg.norm(regular_rep_loop(a), 2)
    assert abs(operator_norm(a) - dense) <= 1e-12 * dense


def frame_of_kind(n, rng, kind):
    """An n x n unitary: random, a permutation, or a random unitary on a
    random subset of the events beside one on the rest, so that it has
    exact zeros wherever n > 1."""
    def random_unitary(m):
        q, _ = np.linalg.qr(rng.normal(size=(m, m))
                            + 1j * rng.normal(size=(m, m)))
        return q

    if kind == "random":
        return random_unitary(n)
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    cut = int(rng.integers(1, n)) if n > 1 else 1
    u = np.zeros((n, n), dtype=complex)
    u[:cut, :cut], u[cut:, cut:] = random_unitary(cut), random_unitary(n - cut)
    return u[rng.permutation(n)][:, rng.permutation(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "permutation", "zeros"]))
def test_transformation_function_matches_loop(n, seed, kind):
    """|U[b, a]|^2 from one entry of U is, bit for bit, the simple state
    at ``a`` on the whole transported unit of ``b``, and the amplitude is
    the same real number, within 1e-15 of the vdot over the spray."""
    g = pair_groupoid(["e%d" % k for k in range(n)])
    fc = FrameChange(frame_of_kind(n, np.random.default_rng(seed), kind))
    unit = g.index_arrays()[3]
    for b in g.events:
        moved = frame_transported_unit(g, fc, b).coeffs[unit]
        assert moved.imag.tobytes() == np.zeros(n).tobytes()  # +0.0
        for a in g.events:
            res = transformation_function(g, fc, a, b)
            value, amplitude = transformation_loop(g, fc, a, b)
            assert np.float64(res.value).tobytes() == value.tobytes()
            assert res.amplitude == complex(res.value, 0.0)
            assert abs(res.amplitude - amplitude) <= 1e-15


@pytest.mark.parametrize("k", range(3), ids=["g0", "g1", "g2"])
def test_gns_rank_deficient_dimension(k):
    """A unit-supported state: most of the Gram matrix is null."""
    g = systems()[k]
    phi = CharacteristicFunction.from_dict(g, {g.units()[0]: 1.0})
    assert gns_build(phi).space.dim == gns_dim_full(phi, RANK_TOL)


@settings(max_examples=80, deadline=None)
@given(generator_actions(),
       st.sampled_from(["none", "unit-events", "idempotent",
                        "per-transition"]))
def test_quiver_decoherence_matches_loop(drawn, normalization):
    """The same-target mask against the double loop over the arrows, bit
    for bit, on random quivers."""
    g, arrows, ga = drawn
    d = quiver_decoherence(g, ga, normalization)
    labels, mat = quiver_decoherence_loop(g, arrows, ga.values,
                                          normalization)
    assert d.labels == labels
    assert d.matrix.tobytes() == mat.tobytes()
