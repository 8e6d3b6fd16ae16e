import numpy as np
import pytest

from gqm.algebra import AlgebraElement, multiply
from gqm.decoherence import decoherence_from_characteristic
from gqm.errors import GqmInputError, MathPropertyError
from gqm.examples import qubit_state
from gqm.gns import (
    FrameChange,
    RepMatrices,
    frame_compose,
    frame_transported_unit,
    fundamental_matrices,
    gns_build,
    gns_matrices,
    gram_matrix,
    smeared_character,
    transformation_function,
    vector_valued_measure,
    verify_reconstruction,
)
from gqm.groupoid import pair_groupoid
from gqm.states import (
    CharacteristicFunction,
    delta_state,
    random_state,
)


def random_unitary(n, rng):
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(w)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def test_gns_dimensions(qubit, pair4):
    for x in pair4.events:
        rep = gns_build(delta_state(pair4, x))
        assert rep.space.dim == len(pair4.g_plus(x)) == 4
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
        overlaps = space.basis.conj().T @ space.gram @ space.basis
        assert np.max(np.abs(overlaps - np.eye(space.dim))) <= 1e-10
        # ground vector has unit norm
        assert np.linalg.norm(rep.ground) == pytest.approx(1.0, abs=1e-12)
        # representation property on all composable pairs
        matrices = gns_matrices(rep).matrices
        for (o, i), r in g.composition.items():
            dev = matrices[o] @ matrices[i] - matrices[r]
            assert np.max(np.abs(dev)) <= 1e-10
        for t in g.transitions:
            dev = matrices[g.inverse[t]] - matrices[t].conj().T
            assert np.max(np.abs(dev)) <= 1e-10
            assert np.array_equal(
                rep.matrix_of(AlgebraElement.basis(g, t)), matrices[t])
        a, b = (AlgebraElement(g, rng.normal(size=g.order)
                               + 1j * rng.normal(size=g.order))
                for _ in range(2))
        dev = (rep.matrix_of(multiply(a, b))
               - rep.matrix_of(a) @ rep.matrix_of(b))
        assert np.max(np.abs(dev)) <= 1e-9


def test_reconstruction(corpus, qubit, rng):
    assert verify_reconstruction(qubit_state(qubit, 2.2)) <= 1e-10
    for g in corpus:
        for x in g.events:
            assert verify_reconstruction(delta_state(g, x)) <= 1e-12
        for _ in range(3):
            assert verify_reconstruction(random_state(g, rng)) <= 1e-9


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
        mat = rep.matrices[t]
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
    broken = RepMatrices(qubit, dict(rep.matrices), 2)
    broken.matrices["alpha"] = np.eye(2)
    with pytest.raises(MathPropertyError):
        smeared_character(broken, np.eye(2) / 2)


def test_vector_valued_measure(qubit, pair3, rng):
    rep = fundamental_matrices(qubit)
    psi = np.array([1.0, 0.0])
    assert np.allclose(vector_valued_measure(rep, psi, ["1_+"]), [1, 0])
    assert np.allclose(vector_valued_measure(rep, psi, []), 0)

    rep3 = fundamental_matrices(pair3)
    psi3 = rng.normal(size=3) + 1j * rng.normal(size=3)
    a, b = ["1_a", "a->b"], ["1_b"]
    nu_union = vector_valued_measure(rep3, psi3, a + b)
    nu_sum = (vector_valued_measure(rep3, psi3, a)
              + vector_valued_measure(rep3, psi3, b))
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
            inner = np.vdot(vector_valued_measure(rep, psi, a_set),
                            vector_valued_measure(rep, psi, b_set))
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
    from gqm.gns import delta_gns_dimension

    for g in corpus:
        for x in g.events:
            assert delta_gns_dimension(g, x) == len(g.g_plus(x))
