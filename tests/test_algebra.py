import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_element
from oracles import regular_rep_loop
from gqm.action import (
    ActionFunction,
    action_from_potential,
    is_reproducing_sweep_trial,
)
from gqm.algebra import (
    AlgebraElement,
    fundamental_rep,
    fundamental_rep_inverse,
    incidence_element,
    involution,
    isotropy_char,
    multiply,
    operator_norm,
    regular_rep,
    spray_char,
    unit_element,
)
from gqm.errors import GqmInputError
from gqm.gns import FrameChange, RepMatrices, fundamental_matrices
from gqm.states import CharacteristicFunction


def brute_force_product(g, a, b):
    """Oracle: enumerate every factorization outer∘inner = gamma directly."""
    out = np.zeros(g.order, dtype=complex)
    for outer in g.transitions:
        for inner in g.transitions:
            if (outer, inner) in g.composition:
                gamma = g.composition[(outer, inner)]
                out[g.transition_index[gamma]] += (
                    a.coeff(outer) * b.coeff(inner)
                )
    return out


def test_multiply_matches_brute_force(corpus, rng):
    for g in corpus:
        a = random_element(g, rng)
        b = random_element(g, rng)
        expected = brute_force_product(g, a, b)
        assert np.allclose(multiply(a, b).coeffs, expected, atol=0)


def test_unit_law(corpus, rng):
    for g in corpus:
        a = random_element(g, rng)
        e = unit_element(g)
        assert np.allclose(multiply(e, a).coeffs, a.coeffs)
        assert np.allclose(multiply(a, e).coeffs, a.coeffs)


def test_incidence_square(pair3):
    inc = incidence_element(pair3)
    sq = multiply(inc, inc)
    assert np.allclose(sq.coeffs, 3 * inc.coeffs)


def test_alpha_squared_is_zero(qubit):
    alpha = AlgebraElement.basis(qubit, "alpha")
    assert np.allclose(multiply(alpha, alpha).coeffs, 0)


def test_multiply_associative_on_basis(corpus):
    for g in corpus:
        if g.order > 9:
            continue
        basis = [AlgebraElement.basis(g, t) for t in g.transitions]
        for a in basis:
            for b in basis:
                ab = multiply(a, b)
                for c in basis:
                    lhs = multiply(ab, c)
                    rhs = multiply(a, multiply(b, c))
                    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=0)


def test_multiply_rejects_mismatched_groupoids(qubit, pair3, rng):
    with pytest.raises(GqmInputError):
        multiply(random_element(qubit, rng), random_element(pair3, rng))


def test_involution(qubit, rng):
    e = unit_element(qubit)
    assert np.allclose(involution(e).coeffs, e.coeffs)
    ia = AlgebraElement.from_dict(qubit, {"alpha": 1j})
    assert involution(ia).coeff("alpha^-1") == pytest.approx(-1j)
    a = random_element(qubit, rng)
    b = random_element(qubit, rng)
    lhs = involution(multiply(a, b))
    rhs = multiply(involution(b), involution(a))
    assert np.allclose(lhs.coeffs, rhs.coeffs)
    assert np.allclose(involution(involution(a)).coeffs, a.coeffs)


def test_distinguished_elements(qubit, pair3):
    assert list(unit_element(qubit).coeffs) == [1, 1, 0, 0]
    inc = incidence_element(pair3)
    assert np.allclose(involution(inc).coeffs, inc.coeffs)
    assert np.allclose(
        isotropy_char(pair3, "a").coeffs,
        AlgebraElement.basis(pair3, "1_a").coeffs,
    )
    assert spray_char(qubit, "-", "+").coeff("alpha") == 1
    assert spray_char(qubit, "+", "-").coeff("alpha") == 1
    with pytest.raises(GqmInputError):
        spray_char(qubit, "+", "x")


def test_fundamental_rep_qubit_basis(qubit):
    # basis order (+, -); alpha: - -> + lands in row +, column -
    assert np.array_equal(
        fundamental_rep(AlgebraElement.basis(qubit, "1_+")),
        np.array([[1, 0], [0, 0]]),
    )
    assert np.array_equal(
        fundamental_rep(AlgebraElement.basis(qubit, "1_-")),
        np.array([[0, 0], [0, 1]]),
    )
    m_alpha = fundamental_rep(AlgebraElement.basis(qubit, "alpha"))
    m_inv = fundamental_rep(AlgebraElement.basis(qubit, "alpha^-1"))
    assert np.array_equal(m_alpha, np.array([[0, 1], [0, 0]]))
    assert np.array_equal(m_inv, m_alpha.conj().T)


def test_fundamental_rep_homomorphism(corpus, rng):
    for g in corpus:
        for _ in range(20):
            a = random_element(g, rng)
            b = random_element(g, rng)
            lhs = fundamental_rep(multiply(a, b))
            rhs = fundamental_rep(a) @ fundamental_rep(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            star = fundamental_rep(involution(a))
            assert np.max(np.abs(star - fundamental_rep(a).conj().T)) <= 1e-12


def test_fundamental_rep_special_values(qubit, pair3):
    assert np.allclose(fundamental_rep(unit_element(qubit)), np.eye(2))
    assert np.allclose(fundamental_rep(incidence_element(pair3)),
                       np.ones((3, 3)))


def test_fundamental_rep_inverse_roundtrip(pair3, rng):
    a = random_element(pair3, rng)
    mat = fundamental_rep(a)
    back = fundamental_rep_inverse(pair3, mat)
    assert np.allclose(back.coeffs, a.coeffs)


def test_fundamental_rep_inverse_needs_pair(z3):
    with pytest.raises(GqmInputError):
        fundamental_rep_inverse(z3, np.eye(1))


def test_fundamental_rep_inverse_names_a_wrong_shape(pair3):
    with pytest.raises(GqmInputError, match=r"^matrix of shape \(2, 2\) does "
                       r"not match \|events\| = 3$"):
        fundamental_rep_inverse(pair3, np.eye(2))


def test_regular_rep(corpus, rng):
    for g in corpus:
        assert np.allclose(regular_rep(unit_element(g)), np.eye(g.order))
        for t in g.transitions:
            basis = AlgebraElement.basis(g, t)
            assert np.array_equal(regular_rep(basis), regular_rep_loop(basis))
        for _ in range(10):
            a = random_element(g, rng)
            b = random_element(g, rng)
            assert np.array_equal(regular_rep(a), regular_rep_loop(a))
            lhs = regular_rep(multiply(a, b))
            rhs = regular_rep(a) @ regular_rep(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            star = regular_rep(involution(a))
            assert np.max(np.abs(star - regular_rep(a).conj().T)) <= 1e-12


def test_multiply_pair128_takes_linear_memory():
    """The product of two dense elements on pair(128) (|G| = 16,384,
    2,097,152 composable pairs) is one 128 x 128 matrix product: its
    traced peak stays under 3 MiB, the groupoid and its orbit table built
    beforehand.  Forming the pairs part by part took 6.8 MiB."""
    from gqm.groupoid import pair_groupoid

    g = pair_groupoid(["e%d" % k for k in range(128)])
    g.orbit_table()
    a, b = (random_element(g, np.random.default_rng(k)) for k in range(2))
    tracemalloc.start()
    try:
        multiply(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_regular_rep_z2_swap():
    from gqm.examples import cyclic_group_groupoid

    g = cyclic_group_groupoid(2)
    flip = AlgebraElement.basis(g, "g1")
    assert np.array_equal(regular_rep(flip), np.array([[0, 1], [1, 0]]))


def test_operator_norm(qubit):
    assert operator_norm(unit_element(qubit)) == pytest.approx(1.0)
    assert operator_norm(AlgebraElement.basis(qubit, "1_+")) == pytest.approx(1.0)
    assert operator_norm(AlgebraElement.basis(qubit, "alpha")) == pytest.approx(1.0)


def test_operator_norm_overflow_is_input_error():
    """A norm past the float range is bad input, in one line, as a product
    or an eigenvalue past it is: not inf."""
    from gqm.groupoid import pair_groupoid

    a = AlgebraElement(pair_groupoid(["a", "b"]), np.full(4, 1e308))
    with pytest.raises(GqmInputError, match="^the operator norm is too "
                       "large for floating point$"):
        operator_norm(a)


def test_fundamental_rep_overflow_is_input_error():
    """Four coefficients of 1e308 summed into the one entry of Z_4's
    fundamental representation pass the float range: bad input, in one
    line, through each function that reads that matrix."""
    from gqm.examples import cyclic_group_groupoid
    from gqm.states import (
        CharacteristicFunction,
        observable_amplitude,
        transition_amplitude_matrix,
    )

    g = cyclic_group_groupoid(4)
    a = AlgebraElement(g, np.full(4, 1e308))
    for call in (lambda: fundamental_rep(a),
                 lambda: observable_amplitude(a, "*", "*"),
                 lambda: transition_amplitude_matrix(
                     CharacteristicFunction(g, a.coeffs))):
        with pytest.raises(GqmInputError, match="^the fundamental "
                           "representation has an entry too large for "
                           "floating point$"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_element_rejects_non_finite_coefficients(qubit, bad):
    """A NaN or infinite coefficient is bad input, named in one line."""
    coeffs = np.zeros(qubit.order, dtype=complex)
    coeffs[1] = bad
    with pytest.raises(GqmInputError,
                       match="^algebra coefficients must be finite$"):
        AlgebraElement(qubit, coeffs)


def test_sum_overflow_is_input_error(qubit):
    """Two elements whose sum passes the float range: bad input, in one
    line, and no overflow warning."""
    a = AlgebraElement(qubit, np.full(qubit.order, 1e308))
    with pytest.raises(GqmInputError,
                       match="^algebra coefficients must be finite$"):
        a + a


@pytest.mark.parametrize("values, message", [
    (np.ones(3), "{} length 3 does not match |G| = 4"),
    (np.ones((2, 2, 1)), "{} of shape (2, 2, 1) does not match |G| = 4"),
    (np.ones((1, 4)), "{} of shape (1, 4) does not match |G| = 4"),
    (np.complex128(1), "{} of shape () does not match |G| = 4"),
    (np.full((2, 2), np.nan), "{} of shape (2, 2) does not match |G| = 4"),
], ids=["length", "rank-3", "row", "scalar", "nan-matrix"])
@pytest.mark.parametrize("carrier, vector", [
    (AlgebraElement, "coefficient vector"),
    (CharacteristicFunction, "value vector"),
], ids=["element", "state"])
def test_vector_carriers_name_a_wrong_shape(qubit, carrier, vector, values,
                                            message):
    """A vector of the wrong length is named by its length, an array of
    another rank by its shape, before any entry is read."""
    with pytest.raises(GqmInputError) as err:
        carrier(qubit, values)
    assert str(err.value) == message.format(vector)


@pytest.mark.parametrize("build, message", [
    (lambda g: ActionFunction(g, [1j] * 4),
     "action values are not float numbers"),
    (lambda g: ActionFunction(g, [10 ** 400] * 4),
     "action values are not float numbers"),
    (lambda g: AlgebraElement(g, [[1, 2], [3]]),
     "algebra coefficients are not complex numbers"),
    (lambda g: CharacteristicFunction(g, ["x"] * 4),
     "characteristic function values are not complex numbers"),
    (lambda g: CharacteristicFunction.from_dict(g, {"alpha": "x"}),
     "value of 'alpha' is not a complex number"),
    (lambda g: AlgebraElement.from_dict(g, {"alpha": [1, 2]}),
     "value of 'alpha' is not a complex number"),
    (lambda g: AlgebraElement.from_dict(g, {"alpha": 10 ** 400}),
     "value of 'alpha' is not a complex number"),
    (lambda g: ActionFunction.from_dict(g, {"alpha": 1j}),
     "value of 'alpha' is not a float number"),
    (lambda g: ActionFunction(g, np.array([1j] * 4)),
     "action values are not float numbers"),
    (lambda g: ActionFunction(g, ["1", "0", "0", "0"]),
     "action values are not float numbers"),
    (lambda g: CharacteristicFunction.from_dict(g, {"1_+": "1"}),
     "value of '1_+' is not a complex number"),
    (lambda g: CharacteristicFunction.from_dict(g, {"1_+": None}),
     "value of '1_+' is not a complex number"),
    (lambda g: RepMatrices(g, [[1], [2, 3]]),
     "representation matrices are not complex numbers"),
    (lambda g: FrameChange([["x"]]),
     "frame matrix entries are not complex numbers"),
    (lambda g: FrameChange([[1, 0], [0]]),
     "frame matrix entries are not complex numbers"),
    (lambda g: fundamental_rep_inverse(g, [["x", "y"], ["z", "w"]]),
     "matrix entries are not complex numbers"),
    (lambda g: is_reproducing_sweep_trial(g, [[np.nan, 0.0]]),
     "potentials must be finite"),
    (lambda g: is_reproducing_sweep_trial(g, [[np.inf, 0.0]]),
     "potentials must be finite"),
    (lambda g: is_reproducing_sweep_trial(g, np.array([[1j, 0]])),
     "potentials are not float numbers"),
    (lambda g: is_reproducing_sweep_trial(g, [[1e308, -1e308]]),
     "the action on 'alpha' overflows: u(target) - u(source) is not "
     "finite"),
    (lambda g: action_from_potential(g, {"+": "1", "-": 0}),
     "potential at '+' must be a real number"),
    (lambda g: action_from_potential(g, {"+": 1j, "-": 0}),
     "potential at '+' must be a real number"),
], ids=["complex-action", "huge-action", "ragged", "strings", "label-string",
        "label-list", "label-huge", "label-complex-action",
        "complex-array-action", "numeric-text-action", "label-numeric-text",
        "label-none", "ragged-rep", "text-frame", "ragged-frame",
        "text-matrix", "nan-potential", "inf-potential", "complex-potential",
        "overflowing-potential", "text-potential-map",
        "complex-potential-map"])
def test_values_that_are_not_numbers_are_named(qubit, build, message):
    """Values that are not numbers of the dtype an array or a map takes
    are one input error naming them, and no warning: the values, or the
    label or event they stand at in a map.  Text is never parsed, and a
    complex value for a real one is never cast."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GqmInputError) as err:
            build(qubit)
    assert str(err.value) == message


def test_numbers_keep_their_values(qubit):
    """Bools, unsigned ints and ints past int64 are numbers, and keep
    their values.  A carrier takes an array of its dtype as it is, not a
    copy; `RepMatrices` copies its stack, so freezing it leaves the
    caller's array writeable."""
    assert ActionFunction(qubit, [10 ** 30, 0, 0, 0]).values.tolist() == [
        1e30, 0.0, 0.0, 0.0]
    assert isotropy_char(qubit, "+").coeffs.tolist() == [1, 0, 0, 0]
    assert ActionFunction(qubit, np.arange(4, dtype=np.uint8)).value(
        "alpha^-1") == 3.0
    values = np.arange(4, dtype=complex)
    assert CharacteristicFunction(qubit, values).values is values
    stack = fundamental_matrices(qubit).matrices.copy()
    rep = RepMatrices(qubit, stack)
    assert stack.flags.writeable
    assert not np.shares_memory(stack, rep.matrices)
    assert np.array_equal(stack, rep.matrices)


def test_action_and_decoherence_shape_messages(qubit):
    """The action and decoherence carriers keep their one shape message
    for every wrong shape, and check it before the entries."""
    from gqm.action import ActionFunction
    from gqm.decoherence import DecoherenceFunctional

    for values in (np.ones(3), np.full((2, 2), np.nan)):
        with pytest.raises(GqmInputError, match=r"^action vector length "
                           r"does not match \|G\|$"):
            ActionFunction(qubit, values)
    for matrix in (np.ones(16), np.full((4, 3), np.nan)):
        with pytest.raises(GqmInputError,
                           match="^decoherence matrix must be 4 x 4$"):
            DecoherenceFunctional(qubit, matrix)
