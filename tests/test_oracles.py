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

import gqm.action
import gqm.gns
from gqm.action import (
    ActionFunction,
    action_from_potential,
    action_violations,
    dynamical_state,
    is_action,
    is_reproducing_sweep_trial,
    quiver_decoherence,
)
from gqm.algebra import (
    AlgebraElement,
    convolve,
    fundamental_rep,
    involution,
    isotropy_char,
    multiply,
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
    RepMatrices,
    fundamental_matrices,
    gns_build,
    gns_matrices,
    gns_report,
)
from gqm.groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    from_explicit,
    from_quiver,
    pair_groupoid,
    validate,
)
from gqm.specio import parse_groupoid_text
from gqm.states import (
    CharacteristicFunction,
    delta_state,
    invariance_matrix,
    is_positive_semidefinite,
    observable_amplitude,
    psd_spectra,
    random_state,
    reproducing_deviation,
    reproducing_deviations,
    transition_amplitude,
)
from groupoids import (
    GROUPS,
    composite_groupoids,
    composite_specs,
    generator_actions,
)
from oracles import (
    assembled,
    bivariate_values_loop,
    fundamental_rep_loop,
    g_minus_loop,
    g_plus_loop,
    gns_basis_loop,
    gns_dim_full,
    gns_matrices_dense,
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
    orbits_loop,
    pair_tables_loop,
    psd_full,
    psd_orbits_loop,
    quiver_decoherence_loop,
    quiver_tables_loop,
    rep_check_loop,
    target_block_violation_loop,
    transition_amplitude_loop,
    validate_loop,
)


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


def assert_same_arrays(g, h):
    """Bit-identical transitions, index arrays, composition triples (in
    order), target blocks and orbit tables."""
    assert g.transitions == h.transitions
    for view in ("index_arrays", "composition_index", "target_blocks"):
        for a, b in zip(getattr(g, view)(), getattr(h, view)(), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(g.orbit_table(), h.orbit_table(), strict=True):
        for x, y in zip((a.events, a.rows, a.gather),
                        (b.events, b.rows, b.gather)):
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
    generates the groupoid of the explicit spec: the same events, orbits
    and target block sizes."""
    explicit, quiver = (parse_groupoid_text(json.dumps(doc))
                        for doc in specs)
    assert quiver.events == explicit.events
    assert quiver.orbits() == explicit.orbits()
    assert ([b.size for b in quiver.target_blocks()]
            == [b.size for b in explicit.target_blocks()])
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
    size = gqm.gns.CHECK_PART if part is None else part * mats[0].size
    with mock.patch.object(gqm.gns, "CHECK_PART", size):
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


@settings(max_examples=40, deadline=None)
@given(system, st.integers(0, 2**32 - 1))
def test_kernels_match_loops(g, seed):
    rng = np.random.default_rng(seed)
    a = AlgebraElement(g, random_values(g, rng))
    b = AlgebraElement(g, random_values(g, rng))
    assert np.array_equal(multiply(a, b).coeffs, multiply_loop(a, b))
    # magnitudes far apart, so a different summation order would show
    c = AlgebraElement(g, random_values(g, rng)
                       * 10.0 ** rng.uniform(-8, 8, g.order))
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
    block = next(b for b in g.target_blocks() if i in b)
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


@settings(max_examples=60, deadline=None)
@given(any_system)
def test_orbit_table_matches_loop(g):
    """The orbit table holds each orbit's events, the translated rows of
    each of its events and the representative's products a^-1 ∘ b; every
    block, read in translated order, is its representative's block byte
    for byte, and holds the event's whole target block."""
    ix = g.transition_index
    table = g.orbit_table()
    loop = orbit_blocks_loop(g)
    assert len(table) == len(loop)
    phi = CharacteristicFunction(g, random_values(g, np.random.default_rng(
        g.order)))
    mat = invariance_matrix_loop(phi)
    tgt = g.index_arrays()[1]
    for o, (events, rows) in zip(table, loop):
        assert o.events.tolist() == [g.event_index[x] for x in events]
        assert o.rows.tolist() == [[ix[t] for t in r] for r in rows]
        block = rows[0]
        assert o.gather.tolist() == [
            [ix[g.composition[(g.inverse[a], b)]] for b in block]
            for a in block]
        first = mat[np.ix_(o.rows[0], o.rows[0])].tobytes()
        for x, r in zip(o.events, o.rows):
            assert sorted(r) == np.flatnonzero(tgt == x).tolist()
            assert mat[np.ix_(r, r)].tobytes() == first
    with pytest.raises(ValueError):
        table[0].rows[0, 0] = 0


def blocks_of_mixed_sizes():
    """Besides ``systems()``: a quiver with components of 2, 3 and 2
    events, interleaved in event order so that blocks of one size are not
    adjacent, and the pair groupoid on 9 events."""
    return [from_quiver(QuiverSpec(["a", "c", "f", "b", "d", "g", "e"],
                                   [("p", "a", "b"), ("q", "c", "d"),
                                    ("r", "d", "e"), ("s", "g", "f")])),
            pair_groupoid(["e%d" % k for k in range(9)])]


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
    for orbits, vals, vecs in fast.blocks:
        s = orbits[0].rows.shape[1]
        assert vals.shape == (len(orbits), s)
        assert vecs.shape == (len(orbits), s, s)
        firsts = [int(o.events[0]) for o in orbits]
        assert firsts == sorted(firsts)  # orbits in event order
        for j, o in enumerate(orbits):
            rows, slow_vals, slow_vecs = by_first[firsts[j]]
            assert o.rows.tolist() == [[ix[t] for t in r] for r in rows]
            assert vals[j].tobytes() == slow_vals.tobytes()
            assert vecs[j].tobytes() == slow_vecs.tobytes()
            covered.append(firsts[j])
    assert sorted(covered) == sorted(by_first)
    if kind == "state":
        fast_basis = gns_build(phi).space.basis
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
    other = np.stack([random_values(g, rng) for _ in range(trials)])
    products = convolve(g, values, other)
    actions = rng.normal(size=(trials, g.order))
    actions[0] = 0.0  # the zero action satisfies every law
    violations = action_violations(g, actions)
    for t in range(trials):
        phi = CharacteristicFunction(g, values[t])
        check = is_positive_semidefinite(phi)
        assert check.hermitian == (defect[t] <= 0.5e-10)
        assert least[t].tobytes() == np.float64(check.min_eigenvalue).tobytes()
        for (orbits, vals, vecs), one in zip(stacks, check.blocks):
            assert orbits == one[0]
            assert vals[t].tobytes() == one[1].tobytes()
            assert vecs[t].tobytes() == one[2].tobytes()
        assert deviations[t] == reproducing_deviation(phi)
        assert products[t].tobytes() == multiply(
            AlgebraElement(g, values[t]),
            AlgebraElement(g, other[t])).coeffs.tobytes()
        assert (not violations[t], violations[t]) == is_action(
            ActionFunction(g, actions[t]))
    assert violations[0] == []


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.booleans())
def test_sweep_stack_matches_trials(n, trials, seed, parts):
    """`is_reproducing_sweep_trial` on a stack of potentials, whole or in
    parts of one trial, gives each trial's least eigenvalue and reproducing
    deviation bit for bit as the object API does trial by trial."""
    g = pair_groupoid(["e%d" % k for k in range(n)])
    u = np.random.default_rng(seed).normal(size=(trials, n))
    limit = gqm.action.SWEEP_PART
    gqm.action.SWEEP_PART = 1 if parts else limit
    try:
        least, deviation = is_reproducing_sweep_trial(g, u)
    finally:
        gqm.action.SWEEP_PART = limit
    for t in range(trials):
        phi = dynamical_state(action_from_potential(
            g, dict(zip(g.events, u[t]))), "idempotent")
        assert least[t] == is_positive_semidefinite(phi).min_eigenvalue
        assert deviation[t] == reproducing_deviation(phi)


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
    """The scatter in ``gns_report`` against <0|pi(t)|0> from the dense
    matrices of every transition."""
    phi = random_state(g, np.random.default_rng(seed))
    rep = gns_build(phi)
    dense = gns_matrices_dense(rep.space)
    errors = [abs(rep.ground.conj() @ dense[t] @ rep.ground - phi.value(t))
              for t in g.transitions]
    scale = max(1.0, float(np.max(np.abs(phi.values))))
    assert abs(gns_report(phi)["reconstruction_max_error"]
               - max(errors)) <= 1e-12 * scale


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
