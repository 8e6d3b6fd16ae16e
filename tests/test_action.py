import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from gqm.action import (
    ActionFunction,
    GeneratorAction,
    action_from_potential,
    dynamical_state,
    extend_generator_action,
    is_action,
    is_factorizable,
    is_reproducing_sweep_trial,
    quiver_decoherence,
    recover_potential,
)
from gqm.decoherence import check_decoherence_axioms, quantum_measure
from gqm.errors import ActionInconsistencyError, GqmInputError
from gqm.examples import (
    double_slit_action,
    double_slit_decoherence,
    qubit_action,
)
from gqm.groupoid import QuiverSpec, from_quiver, pair_groupoid
from gqm.states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    delta_state,
    is_positive_semidefinite,
    reproducing_deviations,
)
from groupoids import generator_actions


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


def test_is_action_reports_overflowing_laws():
    """s = 1e308 on both non-unit transitions of a pair groupoid: the
    inversion sums overflow to inf and the additivity deviations to -inf,
    each a violation, with no warning."""
    g = pair_groupoid(["a", "b"])
    s = ActionFunction.from_dict(g, {"a->b": 1e308, "b->a": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, violations = is_action(s)
    assert not ok and len(violations) == 4
    assert violations[0] == "inversion law fails: s('b->a') + s('a->b') = inf"
    assert [v.rsplit(" ", 1)[1] for v in violations[2:]] == ["-inf", "-inf"]
    assert all(v.startswith("additivity fails") for v in violations[2:])


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
    g = from_quiver(QuiverSpec(["x", "y"], [("f", "x", "y")]))
    s = extend_generator_action(g, GeneratorAction({"f": 5.0}))
    assert s.value("f") == pytest.approx(5.0)


def test_extension_rejects_foreign_groupoid(pair3):
    with pytest.raises(GqmInputError, match="unknown arrows: f"):
        extend_generator_action(pair3, GeneratorAction({"f": 1.0}))


@pytest.mark.parametrize("arrows, values, message", [
    ([("f", "x", "y"), ("g", "y", "z")], {"f": 1e308, "g": 1e308},
     "the potential at 'z' overflows"),
    ([("f", "x", "y"), ("g", "x", "z")], {"f": 1e308, "g": -1e308},
     "the action on 'z->y' overflows: u(target) - u(source) is not finite"),
])
def test_extension_rejects_overflow(arrows, values, message):
    """A consistent tree quiver whose potential or action overflows is bad
    input, not an inconsistent cycle, and raises no warning."""
    g = from_quiver(QuiverSpec(["x", "y", "z"], arrows))
    with warnings.catch_warnings(), pytest.raises(GqmInputError) as err:
        warnings.simplefilter("error")
        extend_generator_action(g, GeneratorAction(values))
    assert str(err.value) == message


@settings(max_examples=80, deadline=None)
@given(generator_actions())
def test_extension_is_an_action_or_a_cycle(drawn):
    """On a random quiver, the extension is an action that reproduces
    every arrow value, or the reported cycle is a closed signed walk over
    the arrows whose values add up to its signed sum."""
    g, arrows, ga = drawn
    try:
        s = extend_generator_action(g, ga)
    except ActionInconsistencyError as err:
        ends = {label: (x, y) for label, x, y in arrows}
        # (from, to) of each step: a sign of -1 walks the arrow backwards
        steps = [ends[label][::sign] for label, sign in err.cycle]
        assert [b for a, b in steps] == [a for a, b in steps[1:] + steps[:1]]
        total = sum(sign * ga.values[label] for label, sign in err.cycle)
        size = sum(abs(ga.values[label]) for label, _ in err.cycle)
        assert err.signed_sum > DEFAULT_TOL
        assert abs(total - err.signed_sum) <= 1e-9 * max(1.0, size)
        return
    assert is_action(s)[0]
    for label, value in ga.values.items():
        assert abs(s.value(label) - value) <= 1e-9 * max(1.0, abs(value))


CHAIN = QuiverSpec(["a", "b", "c"], [("f", "a", "b"), ("h", "b", "c")])
PARALLEL = QuiverSpec(["a", "b"], [("f", "a", "b"), ("k", "a", "b")])


@pytest.mark.parametrize("quiver, values, use, message", [
    (CHAIN, {"f": np.nan, "h": 1.0}, extend_generator_action,
     "action on 'f' must be finite"),
    (CHAIN, {"f": np.nan, "h": 1.0}, quiver_decoherence,
     "action on 'f' must be finite"),
    (PARALLEL, {"f": np.inf, "k": 1.0}, quiver_decoherence,
     "action on 'f' must be finite"),
    (PARALLEL, {"f": "x", "k": 1.0}, quiver_decoherence,
     "action on 'f' must be a real number"),
], ids=["nan-extend", "nan-decoherence", "inf-decoherence", "string"])
def test_generator_action_rejects_bad_values(quiver, values, use, message):
    """A value that is no finite real number is named, with its arrow, in
    the parser's words, instead of an overflowing potential, a non-finite
    action difference or a ValueError further on."""
    g = from_quiver(quiver)
    with pytest.raises(GqmInputError) as err:
        use(g, GeneratorAction(values))
    assert str(err.value) == message


def test_generator_action_validation():
    g = from_quiver(QuiverSpec(["y", "x"], [("f", "x", "y"),
                                           ("e", "y", "y")]))
    labels, src, tgt = GeneratorAction({"e": 0.0, "f": 1.0}).arrows(g)
    assert labels == ("f", "e")
    assert (src.tolist(), tgt.tolist()) == ([1, 0], [0, 0])
    with pytest.raises(GqmInputError, match="misses arrows: e, f"):
        GeneratorAction({}).arrows(g)
    with pytest.raises(GqmInputError, match="unknown arrows: g"):
        GeneratorAction({"e": 0.0, "f": 1.0, "g": 2.0}).arrows(g)


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
    assert reproducing_deviations(pair4, phi.values[None])[0] <= 1e-10


def test_dynamical_state_rejects_invalid_action(qubit):
    from gqm.errors import MathPropertyError

    s = ActionFunction.from_dict(qubit, {"alpha": 1.0, "alpha^-1": 1.0})
    with pytest.raises(MathPropertyError):
        dynamical_state(s)


def test_dynamical_state_global_is_one_line_input_error():
    """'global' scales by D(G, G), which needs a decoherence matrix; a
    dynamical state has none, so the tag is an input error that names
    it, not a TypeError."""
    g = pair_groupoid(["a", "b"])
    s = action_from_potential(g, {"a": 0.0, "b": 0.3})
    with pytest.raises(GqmInputError) as info:
        dynamical_state(s, "global")
    message = str(info.value)
    assert "'global'" in message and "\n" not in message


def test_theorem_sweep_sample(rng):
    for n in range(2, 7):
        g = pair_groupoid(["e%d" % k for k in range(n)])
        for _ in range(5):
            u = dict(zip(g.events, rng.normal(size=n)))
            phi = dynamical_state(action_from_potential(g, u), "idempotent")
            assert is_positive_semidefinite(phi).min_eigenvalue >= -1e-10
            assert reproducing_deviations(g, phi.values[None])[0] <= 1e-10


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


@pytest.mark.parametrize("units, rest, factorizable", [
    (1e-300, 1e300, False), (1e-320, 1e-320, True)])
def test_factorizability_rescales_without_overflow(units, rest,
                                                   factorizable):
    """The values are rescaled by the unit phase and the real unit modulus,
    with no complex quotient: 1e300 over units of 1e-300 passes the float
    range, a deviation that is not finite, which is a violation; 1e-320
    everywhere rescales to exactly 1, where numpy's complex division by
    1e-320 overflows."""
    g = pair_groupoid(["a", "b"])
    values = np.full(g.order, rest, dtype=complex)
    values[g.index_arrays()[3]] = units
    report = is_factorizable(CharacteristicFunction(g, values))
    assert report.ok == report.unit_modulus == factorizable
    assert bool(report.violations) != factorizable


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


def test_recover_potential_needs_a_pair_groupoid(z3):
    with pytest.raises(GqmInputError, match="^potential recovery needs a "
                       "pair groupoid$"):
        recover_potential(ActionFunction(z3, np.zeros(z3.order)))


@pytest.mark.parametrize("events, potentials, message", [
    (None, np.zeros((1, 1)),
     "potentials define actions on pair groupoids only"),
    (["a", "b"], np.zeros((1, 3)), "each potential needs one value per event"),
    (["a", "b"], np.zeros(2), "each potential needs one value per event"),
])
def test_sweep_trial_input_checks(z3, events, potentials, message):
    """The stacked sweep kernel takes a (T, |events|) array on a pair
    groupoid, and names either fault in one line."""
    g = z3 if events is None else pair_groupoid(events)
    with pytest.raises(GqmInputError) as err:
        is_reproducing_sweep_trial(g, potentials)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_action_function_rejects_non_finite_values(bad):
    """`is_action` compares with ``> tol``, which NaN never satisfies, so
    an all-NaN action would pass it: such values are bad input."""
    g = pair_groupoid(["p", "q"])
    with pytest.raises(GqmInputError, match="^action values must be finite$"):
        ActionFunction(g, np.full(g.order, bad))


def test_factorizability_names_each_overflowing_value_once():
    """A value whose rescaling overflows is named once, and no law is read
    on it: 1_a∘(b->a) = b->a holds exactly, so no factorization pair with
    a deviation of inf - inf = nan is listed; the verdict stays False."""
    g = pair_groupoid(["a", "b"])
    values = np.full(g.order, 1e300, dtype=complex)
    values[g.index_arrays()[3]] = 1e-300
    report = is_factorizable(CharacteristicFunction(g, values))
    assert not report.ok and not report.unit_modulus
    assert report.violations == ["phi('b->a') is not finite when rescaled",
                                 "phi('a->b') is not finite when rescaled"]


@pytest.mark.parametrize("bad", [np.nan, complex(np.inf, 0)])
def test_factorizability_never_sees_non_finite_values(bad):
    """`is_factorizable` on NaN values would report ``ok``: the
    characteristic function that carries them is rejected first."""
    g = pair_groupoid(["p", "q"])
    values = np.ones(g.order, dtype=complex)
    values[2] = bad
    with pytest.raises(GqmInputError,
                       match="^characteristic function values must be "
                             "finite$"):
        CharacteristicFunction(g, values)
