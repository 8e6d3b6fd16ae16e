"""The vectorized kernels against the plain loop versions in ``oracles``.

Validation must give the same violations, in the same order, and the same
check count; products, involutions, representations, invariance matrices,
action and decoherence checks and their first violations must agree
exactly; eigen-derived numbers within 1e-12 of their scale.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqm.action import ActionFunction, action_from_potential, is_action
from gqm.algebra import AlgebraElement, fundamental_rep, involution, multiply
from gqm.decoherence import (
    DecoherenceFunctional,
    characteristic_from_bivariate,
    check_decoherence_axioms,
    decoherence_from_characteristic,
    is_invariant,
)
from gqm.errors import MathPropertyError
from gqm.examples import corpus_groupoids
from gqm.gns import RANK_TOL, gns_build, gns_matrices, gns_report
from gqm.groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    from_explicit,
    from_quiver,
    pair_groupoid,
    validate,
)
from gqm.states import (
    CharacteristicFunction,
    invariance_matrix,
    is_positive_semidefinite,
    random_state,
)
from oracles import (
    bivariate_values_loop,
    fundamental_rep_loop,
    gns_dim_full,
    gns_matrices_dense,
    invariance_matrix_loop,
    involution_loop,
    is_action_loop,
    is_invariant_loop,
    multiply_loop,
    orbits_loop,
    psd_blocks_loop,
    psd_full,
    target_block_violation_loop,
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
@given(system, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3, 0.5]))
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
        sym = 0.5 * (check.matrix + check.matrix.conj().T)
        residual = sym @ vec - check.min_eigenvalue * vec
        assert np.max(np.abs(residual)) <= 1e-12 * scale


def blocks_of_mixed_sizes():
    """Besides ``systems()``: a quiver with components of 2, 3 and 2
    events, interleaved in event order so that blocks of one size are not
    adjacent, and the pair groupoid on 9 events."""
    return [from_quiver(QuiverSpec(["a", "c", "f", "b", "d", "g", "e"],
                                   [("p", "a", "b"), ("q", "c", "d"),
                                    ("r", "d", "e"), ("s", "g", "f")])),
            pair_groupoid(["e%d" % k for k in range(9)])]


@settings(max_examples=80, deadline=None)
@given(st.deferred(lambda: st.sampled_from(systems()
                                           + blocks_of_mixed_sizes())),
       st.integers(0, 2**32 - 1),
       st.sampled_from(["state", "indefinite", "non-hermitian"]))
def test_psd_matches_block_loop(g, seed, kind):
    """One ``eigh`` per block size gives, bit for bit, what one ``eigh``
    per block gave: verdicts, minimum, witness and the assembled
    eigendecomposition, on states, on Hermitian functions that are not
    PSD and on functions that are not Hermitian."""
    rng = np.random.default_rng(seed)
    values = random_state(g, rng).values
    noise = random_values(g, rng)
    if kind == "indefinite":  # phi(t^-1) = conj(phi(t)) keeps M Hermitian
        values = values + 0.25 * (noise + noise[g.index_arrays()[2]].conj())
    elif kind == "non-hermitian":
        values = values + 1e-3 * noise
    phi = CharacteristicFunction(g, values)
    fast, slow = is_positive_semidefinite(phi), psd_blocks_loop(phi, 1e-10)
    assert (fast.ok, fast.hermitian, fast.min_eigenvalue, fast.witness) == (
        slow.ok, slow.hermitian, slow.min_eigenvalue, slow.witness)
    assert np.array_equal(fast.eigh[0], slow.eigh[0])
    assert np.array_equal(fast.eigh[1], slow.eigh[1])


@settings(max_examples=30, deadline=None)
@given(system, st.integers(0, 2**32 - 1))
def test_gns_matches_dense_products(g, seed):
    phi = random_state(g, np.random.default_rng(seed))
    rep = gns_build(phi)
    assert rep.space.dim == gns_dim_full(phi, RANK_TOL)
    dense = gns_matrices_dense(rep.space)
    matrices = gns_matrices(rep).matrices
    for t in g.transitions:
        assert np.max(np.abs(matrices[t] - dense[t]),
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
