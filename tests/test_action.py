import numpy as np
import pytest

from gqm.action import (
    ActionFunction,
    GeneratorAction,
    action_from_potential,
    dynamical_state,
    extend_generator_action,
    is_action,
    is_factorizable,
    quiver_decoherence,
    recover_potential,
)
from gqm.decoherence import check_decoherence_axioms, quantum_measure
from gqm.errors import ActionInconsistencyError, GqmInputError
from gqm.examples import (
    double_slit_action,
    double_slit_decoherence,
    double_slit_groupoid,
    qubit_action,
)
from gqm.groupoid import QuiverSpec, from_quiver, pair_groupoid
from gqm.states import delta_state, is_positive_semidefinite, is_reproducing


def test_qubit_action_from_potential(qubit):
    s = qubit_action(qubit, 2.5)
    assert s.value("alpha") == pytest.approx(2.5)
    assert s.value("alpha^-1") == pytest.approx(-2.5)
    assert s.value("1_+") == 0.0
    assert s.value("1_-") == 0.0


def test_random_potentials_are_actions(pair4, rng):
    for _ in range(10):
        u = dict(zip(pair4.events, rng.normal(size=4)))
        ok, violations = is_action(action_from_potential(pair4, u))
        assert ok, violations


def test_action_from_potential_requires_pair(z3):
    with pytest.raises(GqmInputError):
        action_from_potential(z3, {z3.events[0]: 0.0})


def test_is_action_detects_broken_sign(qubit):
    s = ActionFunction.from_dict(qubit, {"alpha": 1.0, "alpha^-1": 1.0})
    ok, violations = is_action(s)
    assert not ok
    assert any("alpha" in v for v in violations)


def test_z3_admits_only_zero_action(z3, rng):
    zero = ActionFunction(z3, np.zeros(3))
    assert is_action(zero)[0]
    s = ActionFunction(z3, rng.normal(size=3))
    assert not is_action(s)[0]


def test_extension_consistent_at_delta_zero(double_slit):
    ga = double_slit_action(0.0, S1=1.0, S2=2.0)
    s = extend_generator_action(double_slit, ga)
    assert is_action(s)[0]
    assert s.value("alpha") == pytest.approx(1.0)
    assert s.value("beta_bar") == pytest.approx(2.0)
    assert s.value("B->A") == pytest.approx(0.0)  # the gamma_BA transition


def test_extension_fails_at_nonzero_delta(double_slit):
    delta = 0.37
    with pytest.raises(ActionInconsistencyError) as err:
        extend_generator_action(double_slit, double_slit_action(delta))
    assert err.value.signed_sum == pytest.approx(delta, abs=1e-12)
    # the reported cycle really sums to delta
    ga = double_slit_action(delta)
    total = sum(sign * ga.values[label] for label, sign in err.value.cycle)
    assert total == pytest.approx(delta, abs=1e-12)


def test_extension_tree_quiver_always_consistent():
    q = QuiverSpec(["x", "y"], [("f", "x", "y")])
    g = from_quiver(q)
    s = extend_generator_action(g, GeneratorAction(q, {"f": 5.0}))
    assert s.value("f") == pytest.approx(5.0)


def test_extension_rejects_foreign_groupoid(pair3):
    q = QuiverSpec(["x", "y"], [("f", "x", "y")])
    with pytest.raises(GqmInputError):
        extend_generator_action(pair3, GeneratorAction(q, {"f": 1.0}))


def test_generator_action_validation():
    q = QuiverSpec(["x", "y"], [("f", "x", "y")])
    with pytest.raises(GqmInputError):
        GeneratorAction(q, {}).validate()
    with pytest.raises(GqmInputError):
        GeneratorAction(q, {"f": 1.0, "g": 2.0}).validate()


def test_dynamical_state_qubit(qubit):
    S = 1.7
    phi = dynamical_state(qubit_action(qubit, S), "unit-events")
    assert phi.value("1_+") == pytest.approx(0.5)
    assert phi.value("alpha") == pytest.approx(np.exp(1j * S) / 2)
    assert is_positive_semidefinite(phi).ok


def test_dynamical_state_idempotent_uniform(pair4):
    u = {x: 0.0 for x in pair4.events}
    phi = dynamical_state(action_from_potential(pair4, u), "idempotent")
    assert np.allclose(phi.values, 0.25)
    assert is_reproducing(phi)


def test_dynamical_state_rejects_invalid_action(qubit):
    from gqm.errors import MathPropertyError

    s = ActionFunction.from_dict(qubit, {"alpha": 1.0, "alpha^-1": 1.0})
    with pytest.raises(MathPropertyError):
        dynamical_state(s)


def test_theorem_sweep_sample(rng):
    for n in range(2, 7):
        g = pair_groupoid(["e%d" % k for k in range(n)])
        for _ in range(5):
            u = dict(zip(g.events, rng.normal(size=n)))
            phi = dynamical_state(action_from_potential(g, u), "idempotent")
            assert is_positive_semidefinite(phi).min_eigenvalue >= -1e-10
            assert is_reproducing(phi)


def test_is_factorizable(qubit):
    phi = dynamical_state(qubit_action(qubit, 0.9), "idempotent")
    report = is_factorizable(phi)
    assert report.ok
    assert report.unit_modulus

    from gqm.states import CharacteristicFunction

    bad = CharacteristicFunction.from_dict(
        qubit, {"1_+": 1.0, "1_-": 1.0, "alpha": 2.0, "alpha^-1": 0.5}
    )
    report = is_factorizable(bad)
    assert not report.unit_modulus

    assert not is_factorizable(delta_state(qubit, "+")).ok


def test_quiver_decoherence_golden():
    delta = 0.61
    d = double_slit_decoherence(delta)
    assert d.labels == ("alpha", "beta", "alpha_bar", "beta_bar")
    z = np.exp(-1j * delta)
    expected = np.array([
        [1, z, 0, 0],
        [np.conj(z), 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ]) / 16
    assert np.max(np.abs(d.matrix - expected)) <= 1e-12


def test_quiver_decoherence_delta_zero():
    d = double_slit_decoherence(0.0, normalization="none")
    block = np.ones((2, 2))
    assert np.allclose(d.matrix[:2, :2], block)
    assert np.allclose(d.matrix[2:, 2:], block)


def test_quiver_decoherence_psd():
    for delta in (0.0, 0.3, np.pi, 2.2):
        d = double_slit_decoherence(delta)
        eigvals = np.linalg.eigvalsh(d.matrix)
        assert eigvals[0] >= -1e-12
        check_decoherence_axioms(d)


def test_dark_fringe():
    d = double_slit_decoherence(np.pi)
    dark = quantum_measure(d, ["alpha", "beta"])
    assert dark.value == 0.0
    assert abs(dark.raw_value) <= 1e-12
    bright = quantum_measure(d, ["alpha_bar", "beta_bar"])
    assert bright.value == pytest.approx(0.25)


def test_recover_potential_roundtrip(pair4, rng):
    u = dict(zip(pair4.events, rng.normal(size=4)))
    s = action_from_potential(pair4, u)
    recovered = recover_potential(s)
    s2 = action_from_potential(pair4, recovered)
    assert np.allclose(s.values, s2.values, atol=0)
