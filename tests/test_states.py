import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element
from gqm.algebra import (
    AlgebraElement,
    incidence_element,
    multiply,
    unit_element,
)
from gqm.errors import GqmInputError, MathPropertyError
from gqm.examples import build_qubit, qubit_phase, qubit_state
from gqm.groupoid import pair_groupoid
from gqm.states import (
    CharacteristicFunction,
    assert_state,
    delta_state,
    is_positive_semidefinite,
    observable_amplitude,
    random_state,
    reproducing_deviations,
    state_eval,
    transition_amplitude,
    transition_amplitude_matrix,
)
from oracles import regular_rep_loop


def unit_indicator_state(g):
    return CharacteristicFunction.from_dict(
        g, {u: 1.0 / len(g.events) for u in g.units()}
    )


def test_unit_indicator_is_state(corpus):
    for g in corpus:
        check = assert_state(unit_indicator_state(g))
        assert check.ok


@settings(max_examples=25, deadline=None)
@given(st.floats(-10, 10, allow_nan=False))
def test_qubit_phase_is_psd(S):
    g = build_qubit()
    assert is_positive_semidefinite(qubit_phase(g, S)).ok


def test_non_psd_witness(qubit):
    phi = CharacteristicFunction.from_dict(
        qubit, {"1_+": 0.5, "1_-": 0.5, "alpha": 2.0, "alpha^-1": 2.0}
    )
    check = is_positive_semidefinite(phi)
    assert not check.ok
    assert check.min_eigenvalue < -1e-10
    assert check.witness  # offending eigenvector reported
    with pytest.raises(MathPropertyError):
        assert_state(phi)


def test_psd_rejects_bad_tolerance(qubit):
    with pytest.raises(GqmInputError):
        is_positive_semidefinite(delta_state(qubit, "+"), tol=0)


def test_state_eval_basics(qubit, rng):
    phi = qubit_state(qubit, 0.4)
    assert state_eval(phi, unit_element(qubit)) == pytest.approx(1.0)
    for u in qubit.units():
        assert state_eval(phi, AlgebraElement.basis(qubit, u)) == (
            pytest.approx(phi.value(u))
        )
    for _ in range(50):
        a = random_element(qubit, rng)
        val = state_eval(phi, multiply(a.star(), a))
        assert val.real >= -1e-10
        assert abs(val.imag) <= 1e-10


def test_state_eval_rejects_a_foreign_element(qubit, pair3):
    with pytest.raises(GqmInputError, match="^element and state live on "
                       "different groupoids$"):
        state_eval(qubit_state(qubit, 0.4), unit_element(pair3))


def test_delta_state(qubit, pair4, rng):
    for g, x in ((qubit, "-"), (pair4, "a")):
        d = delta_state(g, x)
        assert_state(d)
        assert state_eval(d, unit_element(g)) == pytest.approx(1.0)
        for _ in range(20):
            a = random_element(g, rng)
            val = state_eval(d, multiply(a.star(), a))
            expected = sum(abs(a.coeff(t)) ** 2 for t in g.g_plus(x))
            assert val == pytest.approx(expected)


def test_delta_state_qubit_alpha(qubit):
    alpha = AlgebraElement.basis(qubit, "alpha")
    sq = multiply(alpha.star(), alpha)
    assert state_eval(delta_state(qubit, "-"), sq) == pytest.approx(1.0)
    assert state_eval(delta_state(qubit, "+"), sq) == pytest.approx(0.0)


def test_transition_amplitude_matrix_identity(pair3, rng):
    phi = random_state(pair3, rng)
    mat = transition_amplitude_matrix(phi)
    for a in pair3.events:
        for b in pair3.events:
            entry = mat[pair3.event_index[b], pair3.event_index[a]]
            assert transition_amplitude(phi, a, b) == pytest.approx(entry)


def test_chapman_kolmogorov_for_reproducing(pair4):
    from gqm.action import action_from_potential, dynamical_state

    u = {x: 0.3 * k for k, x in enumerate(pair4.events)}
    phi = dynamical_state(action_from_potential(pair4, u), "idempotent")
    assert reproducing_deviations(pair4, phi.values[None])[0] <= 1e-10
    for a in pair4.events:
        for b in pair4.events:
            direct = transition_amplitude(phi, a, b)
            chained = sum(
                transition_amplitude(phi, m, b) * transition_amplitude(phi, a, m)
                for m in pair4.events
            )
            assert abs(direct - chained) <= 1e-10


def test_observable_amplitude(qubit, pair3):
    one = unit_element(pair3)
    for a in pair3.events:
        for b in pair3.events:
            expected = 1.0 if a == b else 0.0
            assert observable_amplitude(one, b, a) == pytest.approx(expected)
    inc = incidence_element(pair3)
    assert observable_amplitude(inc, "b", "a") == pytest.approx(1.0)
    phi = qubit_state(qubit, 0.9)
    # PSD functions are self-adjoint, so they qualify as observables
    observable_amplitude(phi.as_algebra_element(), "+", "-")
    with pytest.raises(MathPropertyError):
        observable_amplitude(AlgebraElement.basis(qubit, "alpha"), "+", "-")


def test_observable_amplitude_deviation_from_halves(qubit):
    """alpha = 1e308 against alpha^-1 = -1e308 is not self-adjoint: the
    deviation is read as |a*/2 - a/2|, which cannot overflow, and its
    first largest entry is named."""
    f = AlgebraElement.from_dict(qubit, {"alpha": 1e308, "alpha^-1": -1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MathPropertyError, match=r"^element is not "
                           r"self-adjoint \(largest deviation at 'alpha'\)$"):
            observable_amplitude(f, "+", "-")


def test_is_reproducing(qubit):
    units, phase, state = reproducing_deviations(qubit, np.stack([phi.values
        for phi in (CharacteristicFunction.from_dict(qubit, {"1_+": 1.0,
                                                             "1_-": 1.0}),
                    qubit_phase(qubit, 0.7),
                    qubit_state(qubit, 0.7, "idempotent"))]))
    assert units <= 1e-10 < phase and state <= 1e-10


def test_reproducing_deviation_overflow_is_input_error(pair3):
    """phi * phi past the float range is bad input, not inf or NaN."""
    phi = CharacteristicFunction(pair3, np.full(pair3.order, 1e160 + 1e160j))
    with pytest.raises(GqmInputError, match="too large for floating point"):
        reproducing_deviations(pair3, phi.values[None])


def test_reproducing_deviations_read_blocks_only(rng):
    """On 8 pair32 states the reproducing check holds a few 8 x 32 x 32
    blocks, not arrays of 8 x |composable pairs| (16 MiB for a
    convolution): under 2 MiB of traced peak, the groupoid's caches
    built beforehand."""
    g = pair_groupoid(["e%d" % k for k in range(32)])
    values = rng.normal(size=(8, g.order)) + 1j * rng.normal(size=(8, g.order))
    reproducing_deviations(g, values[:1])
    tracemalloc.start()
    try:
        reproducing_deviations(g, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_random_state_is_state(corpus, rng):
    for g in corpus:
        for _ in range(5):
            assert_state(random_state(g, rng))


def test_random_state_is_its_smeared_character(corpus):
    """`random_state` is Tr(rho L_t) with rho = w w^H / Tr(w w^H), w its
    draws and L_t the dense left multiplication by t of
    `oracles.regular_rep_loop`: within 1e-12 on every corpus groupoid."""
    for seed, g in enumerate(corpus):
        phi = random_state(g, np.random.default_rng(seed))
        rng, n = np.random.default_rng(seed), g.order
        w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = w @ w.conj().T
        rho /= np.trace(rho).real
        expected = np.array([
            np.trace(rho @ regular_rep_loop(AlgebraElement.basis(g, t)))
            for t in g.transitions])
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(phi.values - expected)) <= 1e-12 * scale


def test_value_vector_length_checked(qubit):
    with pytest.raises(GqmInputError):
        CharacteristicFunction(qubit, np.zeros(3))
