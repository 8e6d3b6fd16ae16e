import warnings
from itertools import combinations

import numpy as np
import pytest

from gqm.action import GeneratorAction, quiver_decoherence
from gqm.decoherence import (
    DecoherenceFunctional,
    characteristic_from_bivariate,
    check_decoherence_axioms,
    decoherence_from_characteristic,
    MAX_INTERFERENCE_ORDER,
    interference,
    is_invariant,
    normalization_scale,
    quantum_measure,
)
from gqm.errors import GqmInputError, MathPropertyError
from gqm.examples import double_slit_decoherence, qubit_decoherence
from gqm.groupoid import QuiverSpec, from_quiver
from gqm.states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    delta_state,
    random_state,
)
from oracles import interference_recursive_check


def test_qubit_matrix_golden(qubit):
    S = 1.1
    d = qubit_decoherence(qubit, S)
    z = np.exp(1j * S) / 4
    expected = np.array([
        [0.25, 0, z, 0],
        [0, 0.25, 0, np.conj(z)],
        [np.conj(z), 0, 0.25, 0],
        [0, z, 0, 0.25],
    ])
    assert np.max(np.abs(d.matrix - expected)) <= 1e-12
    check_decoherence_axioms(d)


def test_delta_state_matrix(qubit):
    d = decoherence_from_characteristic(delta_state(qubit, "+"),
                                        "per-transition")
    expected = np.diag([0.25, 0, 0, 0.25])  # G_+(+) = {1_+, alpha^-1}
    assert np.allclose(d.matrix, expected)


def test_block_structure(corpus, rng):
    for g in corpus:
        d = decoherence_from_characteristic(random_state(g, rng))
        for a in g.transitions:
            for b in g.transitions:
                if g.target[a] != g.target[b]:
                    assert d.entry(a, b) == 0


def test_rejects_non_psd(qubit):
    phi = CharacteristicFunction.from_dict(
        qubit, {"1_+": 0.5, "1_-": 0.5, "alpha": 2.0, "alpha^-1": 2.0}
    )
    with pytest.raises(MathPropertyError) as err:
        decoherence_from_characteristic(phi)
    assert err.value.witness


def test_normalization_scales(qubit):
    assert normalization_scale("none", qubit) == 1.0
    assert normalization_scale("unit-events", qubit) == 0.5
    assert normalization_scale("idempotent", qubit) == 0.5
    assert normalization_scale("per-transition", qubit) == 0.25
    with pytest.raises(GqmInputError):
        normalization_scale("bogus", qubit)


def test_global_normalization(qubit, rng):
    phi = random_state(qubit, rng)
    d = decoherence_from_characteristic(phi, "global")
    assert np.sum(d.matrix).real == pytest.approx(1.0)
    assert abs(np.sum(d.matrix).imag) <= 1e-10


def test_invariance(corpus, rng):
    for g in corpus:
        d = decoherence_from_characteristic(random_state(g, rng))
        assert is_invariant(d)
    with pytest.raises(GqmInputError):
        is_invariant(double_slit_decoherence(0.3))


def test_invariance_broken_by_perturbation(qubit, rng):
    d = decoherence_from_characteristic(random_state(qubit, rng))
    mat = d.matrix.copy()
    i = qubit.transition_index["1_+"]
    j = qubit.transition_index["alpha"]
    mat[i, j] += 0.5
    perturbed = DecoherenceFunctional(qubit, mat)
    assert not is_invariant(perturbed)
    with pytest.raises(MathPropertyError):
        characteristic_from_bivariate(perturbed)


def test_characteristic_roundtrip(corpus, rng):
    for g in corpus:
        phi = random_state(g, rng)
        d = decoherence_from_characteristic(phi, "none")
        back = characteristic_from_bivariate(d)
        assert np.max(np.abs(back.values - phi.values)) <= 1e-12
        # the two defining expressions agree
        for t in g.transitions:
            lhs = d.entry(g.unit_of[g.target[t]], t)
            rhs = d.entry(g.inverse[t], g.unit_of[g.source[t]])
            assert lhs == pytest.approx(rhs)


def test_measure_basics(qubit):
    d = qubit_decoherence(qubit, 0.6)
    assert quantum_measure(d, []).value == 0.0
    assert quantum_measure(d, ["alpha"]).value == pytest.approx(0.25)
    # duplicated labels count once
    rep = quantum_measure(d, ["alpha", "alpha"])
    assert rep.members == ("alpha",)
    with pytest.raises(GqmInputError):
        quantum_measure(d, ["nope"])


def test_measure_clamps_roundoff(qubit):
    mat = np.zeros((4, 4), dtype=complex)
    mat[2, 2] = -1e-12
    d = DecoherenceFunctional(qubit, mat)
    rep = quantum_measure(d, ["alpha"])
    assert rep.value == 0.0
    assert rep.raw_value == pytest.approx(-1e-12)


def test_interference_order_two(qubit):
    S = 0.8
    d = qubit_decoherence(qubit, S)
    val = interference(d, [["1_+"], ["alpha"]])
    assert val == pytest.approx(np.cos(S) / 2)


def test_interference_diagonal_is_additive(qubit):
    d = DecoherenceFunctional(qubit, np.diag([0.1, 0.2, 0.3, 0.4]))
    assert interference(d, [["1_+"], ["alpha"]]) == pytest.approx(0.0)
    assert interference(d, [["1_+", "1_-"], ["alpha"]]) == pytest.approx(0.0)


def test_i3_vanishes_exhaustively(corpus, rng):
    for g in corpus:
        d = decoherence_from_characteristic(random_state(g, rng))
        for triple in combinations(g.transitions, 3):
            val = interference(d, [[t] for t in triple])
            assert abs(val) <= 1e-9


def test_recursive_identity(qubit, rng):
    d = decoherence_from_characteristic(random_state(qubit, rng))
    assert interference_recursive_check(d, [["1_+"], ["1_-"], ["alpha"]])
    # n = 1 case: the definition of I_2
    a, b = ["1_+"], ["alpha"]
    i2 = interference(d, [a, b])
    mu = lambda s: quantum_measure(d, s).raw_value
    assert i2 == pytest.approx(mu(a + b) - mu(a) - mu(b))


def test_interference_input_checks(qubit, rng):
    d = decoherence_from_characteristic(random_state(qubit, rng))
    with pytest.raises(GqmInputError):
        interference(d, [["1_+"], ["1_+"]])  # overlap
    with pytest.raises(GqmInputError):
        interference(d, [])
    with pytest.raises(GqmInputError):
        interference(d, [["1_+"]] * 7)


def test_interference_accepts_its_largest_order(pair3, rng):
    """Order `MAX_INTERFERENCE_ORDER`, six disjoint sets, runs, and the
    value is 0 within the tolerance: the interference of a state's
    functional vanishes from order 3 on (grade two)."""
    d = decoherence_from_characteristic(random_state(pair3, rng))
    sets = [[t] for t in pair3.transitions[:MAX_INTERFERENCE_ORDER]]
    assert len(sets) == 6
    assert abs(interference(d, sets)) <= DEFAULT_TOL


def test_measure_of_a_non_hermitian_functional_is_not_real(qubit):
    """D(A, A) with an imaginary part beyond the tolerance is a property
    error, not a clamped real value."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 2] = 1j
    d = DecoherenceFunctional(qubit, mat)
    with pytest.raises(MathPropertyError, match="^measure value is not "
                       r"real: 1j \(matrix is not Hermitian\?\)$"):
        quantum_measure(d, [qubit.transitions[0], qubit.transitions[2]])


def test_axioms_reject_non_hermitian(qubit):
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 2] = 1.0  # no conjugate partner
    with pytest.raises(MathPropertyError):
        check_decoherence_axioms(DecoherenceFunctional(qubit, mat))


def test_axioms_pass_an_empty_functional(qubit):
    """A functional with no rows is vacuously Hermitian and PSD: given
    directly, or over the arrows of a quiver that has none."""
    check_decoherence_axioms(DecoherenceFunctional(qubit, np.zeros((0, 0)),
                                                   labels=()))
    d = quiver_decoherence(from_quiver(QuiverSpec(["a", "b"], [])),
                           GeneratorAction({}))
    assert d.matrix.shape == (0, 0)
    check_decoherence_axioms(d)


@pytest.mark.parametrize("scale", [1e308, 1e-308])
def test_axioms_take_the_hermitian_part_from_halves(qubit, scale):
    """A PSD functional whose (1_+, alpha) block is all 1e308 passes, as
    the same matrix times 1e-308 does: its Hermitian part is taken as
    0.5 m + 0.5 m^H, which does not overflow where m + m^H would."""
    rows = [qubit.index("1_+"), qubit.index("alpha")]
    mat = np.zeros((4, 4), dtype=complex)
    mat[np.ix_(rows, rows)] = scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_decoherence_axioms(DecoherenceFunctional(qubit, mat))


def test_axioms_take_the_hermiticity_defect_from_halves(qubit):
    """m[0, 2] = 1e308 against m[2, 0] = -1e308 is not Hermitian: the
    defect max|m - m^H|/2 is read from halves, so it is 1e308, and no
    warning is raised where m - m^H would overflow."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 2], mat[2, 0] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MathPropertyError,
                           match="^decoherence matrix is not Hermitian$"):
            check_decoherence_axioms(DecoherenceFunctional(qubit, mat))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_functional_rejects_non_finite_entries(qubit, bad):
    """An all-NaN matrix would pass `is_invariant` and break the axiom
    check with a LinAlgError: it is bad input, named in one line."""
    with pytest.raises(GqmInputError,
                       match="^decoherence matrix entries must be finite$"):
        DecoherenceFunctional(qubit, np.full((4, 4), bad, dtype=complex))
