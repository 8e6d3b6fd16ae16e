import tracemalloc
import warnings

import numpy as np
import pytest

from gqm.action import action_from_potential, dynamical_state
from gqm.algebra import AlgebraElement, multiply
from gqm.decoherence import decoherence_from_characteristic
from gqm.errors import GqmInputError, MathPropertyError
from gqm.examples import cyclic_group_groupoid, qubit_state
from gqm.gns import (
    FrameChange,
    RepMatrices,
    frame_compose,
    fundamental_matrices,
    gns_build,
    gns_matrices,
    gns_report,
    smeared_character,
    transformation_function,
)
from gqm.groupoid import pair_groupoid
from gqm.states import (
    CharacteristicFunction,
    assert_state,
    delta_state,
    invariance_matrix,
    random_state,
)
from groupoids import chain_quiver
from oracles import frame_transported_unit, gns_basis


def random_unitary(n, rng):
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(w)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reconstruction_error(phi):
    return gns_report(phi)["reconstruction_max_error"]


def gram_matrix(phi):
    """The Gram form of a state: its invariance matrix."""
    assert_state(phi)
    return invariance_matrix(phi)


def test_gram_matrix_delta(pair4):
    m = gram_matrix(delta_state(pair4, "b"))
    expected = np.zeros((16, 16))
    for t in pair4.g_plus("b"):
        i = pair4.transition_index[t]
        expected[i, i] = 1.0
    assert np.allclose(m, expected)


def test_gram_matrix_qubit_blocks(qubit):
    phi = qubit_state(qubit, 0.8)
    m = gram_matrix(phi)
    # two 2x2 rank-one blocks, one per target
    for target in ("+", "-"):
        idx = [qubit.transition_index[t] for t in sorted(
            qubit.g_minus(target), key=qubit.transition_index.get)]
        block = m[np.ix_(idx, idx)]
        assert np.linalg.matrix_rank(block, tol=1e-10) == 1


def assert_row_layout(space):
    """Row t of the stored basis holds each column that lives on t's
    target block once, and is padded with column dim, entry 0."""
    basis = gns_basis(space)
    tgt = space.groupoid.index_arrays()[1]
    pad = space.columns == space.dim
    assert not np.any(space.entries[pad])
    for t in range(space.groupoid.order):
        on_block = np.any(basis[tgt == tgt[t]] != 0, axis=0)
        assert sorted(space.columns[t, ~pad[t]].tolist()) == (
            np.flatnonzero(on_block).tolist())


def test_gns_dimensions(qubit, pair4):
    for x in pair4.events:
        rep = gns_build(delta_state(pair4, x))
        assert rep.space.dim == len(pair4.g_plus(x)) == 4
        assert_row_layout(rep.space)
    assert gns_build(qubit_state(qubit, 1.2)).space.dim == 2


def test_gns_dimension_unit_indicator(pair3):
    # gram of the unit-indicator state is (1/n) times the identity on all
    # of G, so the GNS space has dimension |G|
    phi = CharacteristicFunction.from_dict(
        pair3, {u: 1.0 / 3 for u in pair3.units()}
    )
    assert np.allclose(gram_matrix(phi), np.eye(9) / 3)
    assert gns_build(phi).space.dim == 9


def test_gns_structure(corpus, rng):
    for g in corpus:
        phi = random_state(g, rng)
        rep = gns_build(phi)
        space = rep.space
        # basis orthonormal under the gram inner product
        basis = gns_basis(space)
        overlaps = basis.conj().T @ gram_matrix(phi) @ basis
        assert np.max(np.abs(overlaps - np.eye(space.dim))) <= 1e-10
        assert_row_layout(space)
        # ground vector has unit norm
        assert np.linalg.norm(rep.ground) == pytest.approx(1.0, abs=1e-12)
        # representation property on all composable pairs
        matrices = gns_matrices(rep).matrices
        ix = g.transition_index
        for (o, i), r in g.composition.items():
            dev = matrices[ix[o]] @ matrices[ix[i]] - matrices[ix[r]]
            assert np.max(np.abs(dev)) <= 1e-10
        for t in g.transitions:
            dev = matrices[ix[g.inverse[t]]] - matrices[ix[t]].conj().T
            assert np.max(np.abs(dev)) <= 1e-10
            assert np.array_equal(rep.matrix_of(AlgebraElement.basis(g, t)),
                                  matrices[ix[t]])
        a, b = (AlgebraElement(g, rng.normal(size=g.order)
                               + 1j * rng.normal(size=g.order))
                for _ in range(2))
        dev = (rep.matrix_of(multiply(a, b))
               - rep.matrix_of(a) @ rep.matrix_of(b))
        assert np.max(np.abs(dev)) <= 1e-9


def test_reconstruction(corpus, qubit, rng):
    assert reconstruction_error(qubit_state(qubit, 2.2)) <= 1e-10
    for g in corpus:
        for x in g.events:
            assert reconstruction_error(delta_state(g, x)) <= 1e-12
        for _ in range(3):
            assert reconstruction_error(random_state(g, rng)) <= 1e-9


def trace_state(g):
    """1/|events| on every unit: each block is a multiple of the identity,
    so the GNS dimension is |G|."""
    values = np.zeros(g.order, dtype=complex)
    values[g.index_arrays()[3]] = 1.0 / len(g.events)
    return CharacteristicFunction(g, values)


def test_gns_report_memory_is_linear_in_orbits():
    """The GNS space stores each basis row as the entries at its target's
    columns, and forms no |G| x dim or |events| x dim array: on chain
    quivers of 1000 and 2000 components of 3 events with the trace state
    (dim = |G| = 9000 and 18,000), the traced peak of `gns_report` grows
    at most linearly (x2.2 for twice the orbits), the groupoid's caches
    built beforehand."""
    peaks = []
    for n in (1000, 2000):
        phi = trace_state(chain_quiver(n, 3))
        report = gns_report(phi)
        assert report["dim"] == phi.groupoid.order
        assert report["reconstruction_max_error"] <= 1e-15
        tracemalloc.start()
        try:
            gns_report(phi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.2 * peaks[0]
    assert peaks[1] < 32 << 20


def test_gns_rows_are_as_wide_as_the_columns_an_event_keeps():
    """An action state has rank one on every block, so each event keeps
    one column and the stored rows are one entry wide, not as wide as the
    block: on pair(128) with a seed-0 action state (dim 128, one block of
    128), the traced peak of `gns_build` stays under 8 MiB (65 MiB with
    rows as wide as the block), the groupoid's caches built beforehand."""
    g = pair_groupoid(["e%d" % k for k in range(128)])
    u = np.random.default_rng(0).normal(size=128)
    phi = dynamical_state(action_from_potential(g, dict(zip(g.events, u))))
    gns_build(phi)
    tracemalloc.start()
    try:
        rep = gns_build(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert rep.space.columns.shape == (g.order, 1)


def test_matrix_of_reads_the_pairs_in_parts(rng):
    """pi(a) sums its pairs over the parts of `composition_parts`, each of
    about `CHECK_PART` entries: for a dense element on pair(16) with the
    full-rank trace state (dim = |G| = 256, 4096 pairs), the traced peak
    of `matrix_of` stays under 12 MiB, the representation built
    beforehand."""
    g = pair_groupoid(["e%d" % k for k in range(16)])
    rep = gns_build(trace_state(g))
    assert rep.space.dim == 256
    a = AlgebraElement(g, rng.normal(size=256) + 1j)
    tracemalloc.start()
    try:
        rep.matrix_of(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


def test_matrix_of_rejects_foreign_elements(pair3, rng):
    """pi(a) needs a on the represented groupoid: an element of a smaller
    groupoid, or of one of the same order, is an input error."""
    rep = gns_build(delta_state(pair3, "a"))
    for other in (pair_groupoid(["a", "b"]), cyclic_group_groupoid(9)):
        a = AlgebraElement(other, rng.normal(size=other.order))
        with pytest.raises(GqmInputError):
            rep.matrix_of(a)


def test_gns_rejects_non_state(qubit):
    bad = CharacteristicFunction.from_dict(qubit, {"1_+": 2.0})
    with pytest.raises(MathPropertyError):
        gns_build(bad)


def test_smeared_character_rank_one(pair3, rng):
    rep = fundamental_matrices(pair3)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    phi = smeared_character(rep, np.outer(psi, psi.conj()))
    for t in pair3.transitions:
        mat = rep.matrices[pair3.index(t)]
        assert phi.value(t) == pytest.approx(np.vdot(psi, mat @ psi))


def test_smeared_character_identity_density(qubit):
    rep = fundamental_matrices(qubit)
    phi = smeared_character(rep, np.eye(2) / 2)
    assert phi.value("1_+") == pytest.approx(0.5)
    assert phi.value("1_-") == pytest.approx(0.5)
    assert phi.value("alpha") == 0
    assert phi.value("alpha^-1") == 0


def test_smeared_character_random_densities(pair3, rng):
    rep = fundamental_matrices(pair3)
    for _ in range(20):
        w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        density = w @ w.conj().T
        density /= np.trace(density).real
        smeared_character(rep, density)  # PSD re-check happens inside


def test_smeared_character_input_checks(qubit):
    rep = fundamental_matrices(qubit)
    with pytest.raises(GqmInputError):
        smeared_character(rep, np.eye(3) / 3)
    with pytest.raises(GqmInputError):
        smeared_character(rep, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(GqmInputError):
        smeared_character(rep, np.eye(2))  # trace 2
    stack = np.array(rep.matrices)
    stack[qubit.index("alpha")] = np.eye(2)
    with pytest.raises(MathPropertyError):
        smeared_character(RepMatrices(qubit, stack), np.eye(2) / 2)


def test_smeared_character_rejects_an_indefinite_density(qubit):
    """A Hermitian density of trace 1 with a negative eigenvalue."""
    with pytest.raises(GqmInputError, match="^density matrix is not PSD$"):
        smeared_character(fundamental_matrices(qubit),
                          np.diag([1.5, -0.5]))


def test_smeared_character_overflowing_trace(qubit):
    """An all-1e308 density is Hermitian and PSD as read from halves; its
    trace overflows to inf, without a warning, and is not 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GqmInputError,
                           match="^density matrix trace must be 1$"):
            smeared_character(fundamental_matrices(qubit),
                              np.full((2, 2), 1e308))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_density_or_vector_is_input_error(qubit, bad):
    """A NaN or infinite density or vector is named in one input error,
    after a wrong shape and before any arithmetic: no warning, no NaN
    read on as a characteristic value."""
    rep = fundamental_matrices(qubit)
    density = np.array([[bad, 0.0], [0.0, 0.5]])
    with pytest.raises(GqmInputError,
                       match="^density matrix entries must be finite$"):
        smeared_character(rep, density)
    with pytest.raises(GqmInputError,
                       match="^density matrix dimension mismatch$"):
        smeared_character(rep, np.full((3, 3), bad))
    with pytest.raises(GqmInputError, match="^vector entries must be finite$"):
        rep.apply(["1_+"], [bad, 1.0])
    with pytest.raises(GqmInputError, match="^vector dimension does not "
                       "match the representation$"):
        rep.apply(["1_+"], [bad])


def test_rep_matrices_stack(qubit):
    """A stack passed in is copied, every stack is read-only, and one of
    another shape than (|G|, d, d) with d >= 1 is an input error."""
    stack = np.array(fundamental_matrices(qubit).matrices)
    rep = RepMatrices(qubit, stack)
    stack[0] = 0.0
    assert rep.matrices[0, 0, 0] == 1.0
    built = gns_matrices(gns_build(qubit_state(qubit, 2.2)))
    for mats in (rep.matrices, fundamental_matrices(qubit).matrices,
                 built.matrices):
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 2.0
    for shape in ((3, 2, 2), (5, 2, 2), (4, 2, 3), (4, 2), (4, 0, 0)):
        with pytest.raises(GqmInputError):
            RepMatrices(qubit, np.zeros(shape))


def test_vector_valued_measure(qubit, pair3, rng):
    rep = fundamental_matrices(qubit)
    psi = np.array([1.0, 0.0])
    assert np.allclose(rep.apply(["1_+"], psi), [1, 0])
    assert np.allclose(rep.apply([], psi), 0)

    rep3 = fundamental_matrices(pair3)
    psi3 = rng.normal(size=3) + 1j * rng.normal(size=3)
    a, b = ["1_a", "a->b"], ["1_b"]
    nu_union = rep3.apply(a + b, psi3)
    nu_sum = rep3.apply(a, psi3) + rep3.apply(b, psi3)
    assert np.allclose(nu_union, nu_sum, atol=0)
    assert np.vdot(nu_union, nu_union).real >= 0


def test_vector_measure_recovers_decoherence(pair3, rng):
    rep = fundamental_matrices(pair3)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    phi = smeared_character(rep, np.outer(psi, psi.conj()))
    d = decoherence_from_characteristic(phi, "none")
    sets = (["1_a"], ["a->b", "1_b"], ["c->a"])
    for a_set in sets:
        for b_set in sets:
            inner = np.vdot(rep.apply(a_set, psi), rep.apply(b_set, psi))
            block = sum(d.entry(x, y) for x in a_set for y in b_set)
            assert inner == pytest.approx(block)


def test_gns_matrices_check(qubit, rng):
    rep = gns_matrices(gns_build(random_state(qubit, rng)))
    rep.check()


def test_frame_change_validation():
    with pytest.raises(GqmInputError):
        FrameChange(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(GqmInputError):
        FrameChange(np.ones((2, 3)))


@pytest.mark.parametrize("unitary, message", [
    ([[np.nan]], "frame matrix entries must be finite"),
    ([[1.0, 0.0], [0.0, np.inf]], "frame matrix entries must be finite"),
    (np.array(1.0), "frame matrix must be square and non-empty"),
    (np.zeros((0, 0)), "frame matrix must be square and non-empty"),
], ids=["nan", "inf", "scalar", "empty"])
def test_frame_change_rejects_non_finite_and_empty(unitary, message):
    """A NaN frame would pass the unitarity test (``> tol`` is never true
    of NaN); a 0-d or empty array is not a frame.  Each is one input
    error."""
    with pytest.raises(GqmInputError, match="^%s$" % message):
        FrameChange(unitary)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rep_matrices_reject_non_finite_entries(bad):
    """An all-NaN stack would pass every law of `RepMatrices.check`: it
    is bad input when the representation is built."""
    g = pair_groupoid(["p", "q"])
    with pytest.raises(GqmInputError,
                       match="^representation matrices must be finite$"):
        RepMatrices(g, np.full((g.order, 2, 2), bad, dtype=complex))


def test_rep_matrices_check_overflowing_product(qubit):
    """Finite matrices near 1e308 whose products overflow fail the
    homomorphism law on the first pair, with an inf defect and no
    warning: an overflowing complex product can read NaN, and the check
    counts a defect that is not <= tol as a failure."""
    huge = RepMatrices(qubit, 1e308 * fundamental_matrices(qubit).matrices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MathPropertyError, match=r"^not a homomorphism "
                           r"on \('1_\+', '1_\+'\): defect inf$"):
            huge.check()


def test_transformation_input_errors_in_order(z3, pair3):
    """A groupoid that is not a pair groupoid is reported first, then a
    frame of the wrong size, then an unknown ``b``, then an unknown
    ``a``."""
    cases = [(z3, np.eye(2), "x", "y", "connected pair groupoid"),
             (pair3, np.eye(2), "x", "y", "frame dimension"),
             (pair3, np.eye(3), "x", "y", "unknown event label 'y'"),
             (pair3, np.eye(3), "x", "a", "unknown event label 'x'")]
    for g, u, a, b, message in cases:
        with pytest.raises(GqmInputError, match=message):
            transformation_function(g, FrameChange(u), a, b)


def test_transformation_identity_frame(pair3):
    fc = FrameChange(np.eye(3))
    for a in pair3.events:
        for b in pair3.events:
            res = transformation_function(pair3, fc, a, b)
            assert res.value == pytest.approx(1.0 if a == b else 0.0)


def test_transformation_hadamard():
    g = pair_groupoid(["p", "q"])
    fc = FrameChange(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    for a in g.events:
        for b in g.events:
            assert transformation_function(g, fc, a, b).value == (
                pytest.approx(0.5)
            )


def test_transformation_duality_and_symmetry(rng):
    for n in (2, 3, 4):
        g = pair_groupoid(["e%d" % k for k in range(n)])
        for _ in range(5):
            fc = FrameChange(random_unitary(n, rng))
            back = fc.adjoint()
            for a in g.events:
                for b in g.events:
                    fwd = transformation_function(g, fc, a, b)
                    rev = transformation_function(g, back, b, a)
                    assert fwd.value == pytest.approx(rev.value, abs=1e-10)
                    assert fwd.amplitude == pytest.approx(
                        np.conj(rev.amplitude), abs=1e-10
                    )


def test_transformation_requires_pair_groupoid(z3, double_slit):
    fc = FrameChange(np.eye(1))
    with pytest.raises(GqmInputError):
        transformation_function(z3, fc, z3.events[0], z3.events[0])


def test_frame_compose(pair3, rng):
    f1 = FrameChange(random_unitary(3, rng))
    f2 = FrameChange(random_unitary(3, rng))
    f3 = FrameChange(random_unitary(3, rng))
    left = frame_compose(frame_compose(f1, f2), f3)
    right = frame_compose(f1, frame_compose(f2, f3))
    assert np.allclose(left.unitary, right.unitary)

    ident = frame_compose(f1, f1.adjoint())
    assert np.allclose(ident.unitary, np.eye(3))

    # composing frames commutes with transporting the unit
    from gqm.algebra import fundamental_rep

    composite = frame_compose(f1, f2)
    for b in pair3.events:
        stepwise = frame_transported_unit(pair3, f1, b)
        mat = (f2.unitary.conj().T @ fundamental_rep(stepwise)
               @ f2.unitary)
        direct = frame_transported_unit(pair3, composite, b)
        assert np.allclose(fundamental_rep(direct), mat, atol=1e-10)

    with pytest.raises(GqmInputError):
        frame_compose(f1, FrameChange(np.eye(2)))


def test_delta_gns_dimension(corpus):
    for g in corpus:
        for x in g.events:
            assert gns_build(delta_state(g, x)).space.dim == len(g.g_plus(x))
