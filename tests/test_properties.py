"""The paper's statements as properties of drawn inputs.

Theorem 5.2: on a pair groupoid the idempotent dynamical state of any
potential is a state and reproducing.  The decoherence functional of a
state is Hermitian, positive semi-definite, zero between different
targets and invariant, and gives back its characteristic function up to
the normalization scale; its order-3 interference vanishes (grade two).
A function and its decoherence matrix are positive together: the PSD
check and the decoherence axioms reach one verdict at every scale.  The
factorizable states are the phases c exp(i s) of actions s, and a state
turned at one transition fails only on the laws that read it.  Each law
check reports a deviation of 10 tol and passes one of tol / 10.

States and actions are functions on the groupoid, complex and real: every
array or label -> value map the package takes gives back finite numbers
or one package error, whatever its values.
"""

import ast
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gqm.action import (
    ActionFunction,
    GeneratorAction,
    action_from_potential,
    coboundaries,
    dynamical_state,
    extend_generator_action,
    is_action,
    is_factorizable,
    is_reproducing_sweep_trial,
)
from gqm.algebra import AlgebraElement, fundamental_rep_inverse
from gqm.decoherence import (
    DecoherenceFunctional,
    characteristic_from_bivariate,
    check_decoherence_axioms,
    decoherence_from_characteristic,
    interference,
    is_invariant,
    normalization_scale,
    quantum_measure,
)
from gqm.examples import corpus_groupoids
from gqm.groupoid import QuiverSpec, beyond, from_quiver, pair_groupoid
from gqm.errors import GqmError, MathPropertyError
from gqm.gns import (
    FrameChange,
    RepMatrices,
    fundamental_matrices,
    smeared_character,
)
from gqm.states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    assert_state,
    delta_state,
    invariance_matrix,
    is_positive_semidefinite,
    observable_amplitude,
    random_state,
    reproducing_deviations,
)
from groupoids import composite_groupoids

groupoids = (st.deferred(lambda: st.sampled_from(corpus_groupoids()))
             | composite_groupoids())
# every tag but "global", whose D(G, G) may vanish on a drawn state
tags = st.sampled_from(["none", "unit-events", "idempotent",
                        "per-transition"])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.lists(
    st.floats(-100, 100), min_size=n, max_size=n)))
def test_thm52_idempotent_dynamical_state_is_reproducing(potential):
    g = pair_groupoid(["e%d" % k for k in range(len(potential))])
    phi = dynamical_state(action_from_potential(
        g, dict(zip(g.events, potential))), "idempotent")
    assert_state(phi)
    assert reproducing_deviations(g, phi.values[None])[0] <= DEFAULT_TOL


@settings(max_examples=30, deadline=None)
@given(groupoids, st.integers(0, 2**32 - 1), st.booleans(), tags)
def test_decoherence_of_a_state_is_a_decoherence_functional(g, seed, delta,
                                                            tag):
    """Axioms, invariance, and the characteristic function c phi read
    back from it, for random and delta states."""
    rng = np.random.default_rng(seed)
    phi = (delta_state(g, g.events[rng.integers(len(g.events))]) if delta
           else random_state(g, rng))
    d = decoherence_from_characteristic(phi, tag)
    check_decoherence_axioms(d)
    assert is_invariant(d)
    back = characteristic_from_bivariate(d).values
    assert np.array_equal(back, normalization_scale(tag, g) * phi.values)


@settings(max_examples=30, deadline=None)
@given(groupoids, st.integers(0, 2**32 - 1))
def test_order_three_interference_vanishes(g, seed):
    """I_3 of three disjoint sets, drawn by giving each transition one of
    the sets or none, is 0 within the tolerance."""
    rng = np.random.default_rng(seed)
    d = decoherence_from_characteristic(random_state(g, rng))
    which = rng.integers(4, size=g.order)
    sets = [[t for t, k in zip(g.transitions, which) if k == s]
            for s in range(3)]
    assert abs(interference(d, sets)) <= DEFAULT_TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(),
       st.none() | st.integers(-60, 23), st.integers(-1000, 1000))
@example(2, 0, False, 23, 1000)  # there B - B^H overflows
def test_psd_check_and_decoherence_axioms_agree(n, seed, gram, skew, k):
    """B = 2^k (P + P^H + 2^skew K), with P a Gram matrix or not, and K
    anti-Hermitian with largest component 1 or absent, read on pair(n) as
    phi(y -> x) = B[x, y], is each block of its own invariance matrix.
    `is_positive_semidefinite` passes phi, or finds it not Hermitian or
    not PSD, as `check_decoherence_axioms` passes its decoherence matrix
    or raises that error, without a warning.  Draws whose defect or least
    eigenvalue lies within 10x of the tolerance, or within rounding of
    it, are skipped."""
    rng = np.random.default_rng(seed)
    a, c = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    p = a @ a.conj().T if gram else a
    base = p + p.conj().T  # Hermitian to the bit
    if skew is not None:
        anti = c - c.conj().T
        base = base + 2.0**skew * anti / np.max(np.abs(anti.view(float)))
    # the verdicts of B read at the scale of base, where nothing overflows
    tol = math.ldexp(DEFAULT_TOL, -k)
    half = 0.5 * base
    defect = np.max(np.abs(half - half.conj().T))
    herm = half + half.conj().T
    least = np.linalg.eigvalsh(herm)[0]
    assume(defect <= tol / 20 or defect >= 5 * tol)
    assume(least >= -tol / 10 or least <= -10 * tol)
    assume(abs(least + tol) >= 1e-9 * n * np.max(np.abs(herm)))
    want = ("ok" if defect <= tol / 2 and least >= -tol else
            "not PSD" if defect <= tol / 2 else "not Hermitian")

    g = pair_groupoid(["e%d" % x for x in range(n)])
    src, tgt = g.index_arrays()[:2]
    phi = CharacteristicFunction(g, (2.0**k * base)[tgt, src])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = is_positive_semidefinite(phi)
        try:
            check_decoherence_axioms(DecoherenceFunctional(
                g, invariance_matrix(phi)))
            axioms = "ok"
        except MathPropertyError as exc:
            axioms = str(exc).split(" (")[0].removeprefix(
                "decoherence matrix is ")
    psd = ("ok" if check.ok else "not PSD" if check.hermitian
           else "not Hermitian")
    assert psd == axioms == want


@settings(max_examples=30, deadline=None)
@given(composite_groupoids(), st.integers(0, 2**32 - 1), st.floats(1e-6, 3))
def test_factorizable_states_are_the_phases_of_actions(g, seed, eps):
    """c exp(i s), s the coboundary of a potential, is factorizable with
    unit modulus.  Turned by exp(i eps) at one non-unit transition t, it
    fails, and each violation it names involves t: a factorization one as
    the outer, the inner or their composite, a unitarity one at t or
    t^-1."""
    assume(g.order > len(g.events))  # units come first
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-3, 3) * np.exp(
        1j * coboundaries(g, rng.uniform(-10, 10, len(g.events))))
    report = is_factorizable(CharacteristicFunction(g, values))
    assert report.ok and report.unit_modulus
    k = rng.integers(len(g.events), g.order)
    values[k] *= np.exp(1j * eps)
    report = is_factorizable(CharacteristicFunction(g, values))
    assert not report.ok
    t = g.transitions[k]
    for message in report.violations:
        law, at = message.split(": ")[0].split(" fails ")
        named = ast.literal_eval(at.split(" ", 1)[1])
        if law == "factorization":
            assert t in (*named, g.compose(*named))
        else:
            assert law == "unitarity" and named in (t, g.inverse[t])


# -- each law check at its tolerance -------------------------------------

def moved_action(delta, at):
    """The coboundary of the potential (0, 1, 3) on pair(a, b, c), with
    ``delta`` added at the transition ``at``."""
    g = pair_groupoid(["a", "b", "c"])
    values = coboundaries(g, np.array([0.0, 1.0, 3.0]))
    values[g.index(at)] += delta
    return ActionFunction(g, values)


def turned_phase(delta, turn):
    """The idempotent phase exp(i s) / 3 of `moved_action`'s coboundary,
    its value at a -> b times ``turn(delta)``."""
    s = moved_action(0.0, "1_a")
    values = np.exp(1j * s.values) / 3
    values[s.groupoid.index("a->b")] *= turn(delta)
    return CharacteristicFunction(s.groupoid, values)


def action_laws(s, **tol):
    return is_action(s, **tol)[1]


def factorizability(phi, **tol):
    report = is_factorizable(phi, **tol)
    return report.violations + ([] if report.unit_modulus else
                                ["unit_modulus is false"])


def moved_entry(delta):
    """pair(a, b, c)'s fundamental matrices, the entry of a -> b moved."""
    mats = np.array(fundamental_matrices(pair_groupoid(["a", "b", "c"]))
                    .matrices)
    mats[1, 1, 0] += delta  # a -> b, the first non-unit: E[b, a]
    return mats


def conjugated(delta):
    """pair(a, b, c)'s fundamental matrices conjugated by diag(e^x, 1, 1):
    a homomorphism whose star defect is 2 sinh(x) = ``delta``."""
    scale = np.array([np.exp(np.arcsinh(delta / 2)), 1.0, 1.0])
    mats = np.array(fundamental_matrices(pair_groupoid(["a", "b", "c"]))
                    .matrices)
    return scale[:, None] * mats / scale


def angled_units(delta):
    """Two lone events, their units the projections onto e_0 and onto v at
    an angle to e_1: a homomorphism and star-compatible, the largest entry
    of the unit sum minus I is v_0 v_1 = ``delta``, v_0 = ``delta`` to
    O(delta^3)."""
    v = np.array([delta, np.sqrt(1 - delta**2)])
    return np.array([np.diag([1.0, 0.0]), np.outer(v, v)])


def raised(check, *args, **tol):
    """The message of the property error ``check`` raises, or none."""
    try:
        check(*args, **tol)
    except MathPropertyError as exc:
        return [str(exc)]
    return []


def representation_check(mats, g=None, **tol):
    return raised(RepMatrices(g or pair_groupoid(["a", "b", "c"]), mats).check,
                  **tol)


def moved_decoherence(delta):
    """The decoherence functional of `turned_phase`'s unturned state, its
    entry (a -> b, c -> b) moved: (b -> c) ∘ each differs from it by
    ``delta``."""
    d = decoherence_from_characteristic(turned_phase(0.0, np.exp))
    i, j = map(d.groupoid.index, ("a->b", "c->b"))
    d.matrix[i, j] += delta
    return d


def deviations_beyond(dev, tol=DEFAULT_TOL):
    return ["beyond at %d" % k for k in beyond(dev, tol)]


def lowered_units(delta):
    """The delta state at a on pair(a, b, c), rank-deficient, with
    ``delta`` taken from each unit: each block of its invariance matrix
    is diag(1, 0, 0) - delta I, its least eigenvalue -delta."""
    phi = delta_state(pair_groupoid(["a", "b", "c"]), "a")
    phi.values[phi.groupoid.index_arrays()[3]] -= delta
    return phi


def skewed(delta):
    """phi = 1 at the units of pair(a, b, c) and 1/4 elsewhere, so each
    block of its invariance matrix is 3/4 I + 1/4 J, positive definite,
    with ``delta`` added at a -> b: one entry of each block, whose
    hermiticity defect is delta / 2."""
    g = pair_groupoid(["a", "b", "c"])
    values = np.full(g.order, 0.25 + 0j)
    values[g.index_arrays()[3]] = 1.0
    values[g.index("a->b")] += delta
    return CharacteristicFunction(g, values)


def functional(phi):
    return DecoherenceFunctional(phi.groupoid, invariance_matrix(phi))


def crossed_targets(delta):
    """The functional of `skewed`'s unmoved state, ``delta`` at (a -> b,
    a -> c) and at (a -> c, a -> b), whose targets differ: still Hermitian
    and positive definite."""
    d = functional(skewed(0.0))
    i, j = map(d.groupoid.index, ("a->b", "a->c"))
    d.matrix[[i, j], [j, i]] = delta
    return d


def diagonal(value):
    """The functional on pair(a, b) that is ``value`` at (1_a, 1_a) and
    zero elsewhere."""
    g = pair_groupoid(["a", "b"])
    matrix = np.zeros((g.order, g.order), dtype=complex)
    matrix[0, 0] = value
    return DecoherenceFunctional(g, matrix)


def axioms(d, **tol):
    return raised(check_decoherence_axioms, d, **tol)


def psd_verdict(phi, **tol):
    check = is_positive_semidefinite(phi, **tol)
    return ([] if check.ok else ["not Hermitian"] if not check.hermitian
            else ["not PSD: %r" % check.min_eigenvalue])


def measure_of_1a(d, **tol):
    """The error of mu({1_a}), or a negative value it reports."""
    try:
        value = quantum_measure(d, ["1_a"], **tol).value
    except MathPropertyError as exc:
        return [str(exc)]
    return ["negative value %r" % value] if value < 0 else []


def heavier(delta):
    """The delta state at a on pair(a, b, c), times 1 + ``delta``: PSD,
    its unit mass 1 + delta."""
    phi = delta_state(pair_groupoid(["a", "b", "c"]), "a")
    phi.values *= 1 + delta
    return phi


def uneven(delta):
    """The incidence element of pair(a, b), self-adjoint, ``delta`` added
    at a -> b: it differs from its adjoint by delta there and at b -> a."""
    g = pair_groupoid(["a", "b"])
    coeffs = np.ones(g.order, dtype=complex)
    coeffs[g.index("a->b")] += delta
    return AlgebraElement(g, coeffs)


def character(density, **tol):
    """The error of the smeared character of ``density`` on pair(a, b,
    c)'s fundamental matrices, or none."""
    try:
        smeared_character(fundamental_matrices(pair_groupoid(["a", "b", "c"])),
                          density, **tol)
    except GqmError as exc:
        return [str(exc)]
    return []


def frame(unitary):
    """The error of the frame change by ``unitary``, or none."""
    try:
        FrameChange(unitary)
    except GqmError as exc:
        return [str(exc)]
    return []


def cycle_of(delta):
    """The generator action on two parallel arrows a -> b, 0 on one and
    ``delta`` on the other: its cycle sums to delta."""
    return GeneratorAction({"f": 0.0, "h": delta})


def extended(ga):
    """The error of extending ``ga`` over the quiver of `cycle_of`, or
    none."""
    return raised(extend_generator_action, from_quiver(QuiverSpec(
        ["a", "b"], [("f", "a", "b"), ("h", "a", "b")])), ga)


def global_scale(raw, **tol):
    """The error of the global normalization of ``raw`` on pair(a), or
    none."""
    return raised(normalization_scale, "global", pair_groupoid(["a"]), raw,
                  **tol)


# marks the row of a zero test, whose fault is a value within the
# tolerance of zero: reported at tol / 10, passing at 10 tol
ZERO_TEST = "zero test"

# marks the row of a comparison with the fixed `DEFAULT_TOL`, which no
# tolerance argument reaches: it is checked at the default only
FIXED_TOL = "fixed tolerance"

# row -> (the function whose comparison it pins, the input at deviation
# delta, the violations a check of it reports, how the row's own law
# begins its message and, where they apply, `ZERO_TEST` and `FIXED_TOL`)
BOUNDARY_ROWS = {
    "action unit": (
        "action.is_action", lambda delta: moved_action(delta, "1_a"),
        action_laws, "unit value"),
    "action inversion": (
        "action.is_action", lambda delta: moved_action(delta, "a->b"),
        action_laws, "inversion law"),
    "action additivity": (
        "action.is_action", lambda delta: moved_action(delta, "a->b"),
        action_laws, "additivity"),
    "factorization": (
        "action.is_factorizable",
        lambda delta: turned_phase(delta, lambda x: np.exp(1j * x)),
        factorizability, "factorization"),
    "unitarity": (
        "action.is_factorizable",
        lambda delta: turned_phase(delta, lambda x: np.exp(1j * x)),
        factorizability, "unitarity"),
    "unit modulus": (
        "action.is_factorizable",
        lambda delta: turned_phase(delta, lambda x: 1 + x),
        factorizability, "unit_modulus"),
    "representation homomorphism": (
        "gns.RepMatrices.check", moved_entry, representation_check,
        "not a homomorphism"),
    "representation star": (
        "gns.RepMatrices.check", conjugated, representation_check,
        "star-compatibility"),
    "representation units": (
        "gns.RepMatrices.check", angled_units,
        lambda mats, **tol: representation_check(
            mats, from_quiver(QuiverSpec(["a", "b"], [])), **tol),
        "unit transitions"),
    "invariance": (
        "decoherence.is_invariant", moved_decoherence,
        lambda d, **tol: [] if is_invariant(d, **tol) else ["not invariant"],
        "not invariant"),
    "violation helper": (
        "groupoid.beyond", lambda delta: np.array([0.0, delta]),
        deviations_beyond, "beyond"),
    "PSD hermiticity": (
        "states.is_positive_semidefinite", skewed, psd_verdict,
        "not Hermitian"),
    "PSD least eigenvalue": (
        "states.is_positive_semidefinite", lowered_units, psd_verdict,
        "not PSD"),
    "axioms hermiticity": (
        "decoherence.check_decoherence_axioms",
        lambda delta: functional(skewed(delta)), axioms,
        "decoherence matrix is not Hermitian"),
    "axioms least eigenvalue": (
        "decoherence.check_decoherence_axioms",
        lambda delta: functional(lowered_units(delta)), axioms,
        "decoherence matrix is not PSD"),
    "axioms other targets": (
        "decoherence.check_decoherence_axioms", crossed_targets, axioms,
        "entries with different targets must vanish"),
    "measure real": (
        "decoherence._block_sum", lambda delta: diagonal(1j * delta),
        measure_of_1a, "measure value is not real"),
    "measure clamp": (
        "decoherence.quantum_measure", lambda delta: diagonal(-delta),
        measure_of_1a, "negative value"),
    "state unit mass": (
        "states.assert_state", heavier,
        lambda phi, **tol: raised(assert_state, phi, **tol),
        "characteristic function is not normalized"),
    "observable self-adjoint": (
        "states.observable_amplitude", uneven,
        lambda f, **tol: raised(observable_amplitude, f, "b", "a", **tol),
        "element is not self-adjoint"),
    "density hermiticity": (
        "gns.smeared_character",
        lambda delta: np.eye(3) / 3 + np.diag([delta, 0.0], 1), character,
        "density matrix is not Hermitian"),
    "density least eigenvalue": (
        "gns.smeared_character", lambda delta: np.diag([1 + delta, -delta, 0]),
        character, "density matrix is not PSD"),
    "density trace": (
        "gns.smeared_character", lambda delta: np.diag([1 + delta, 0, 0]),
        character, "density matrix trace must be 1"),
    "global normalization": (
        "decoherence.normalization_scale", lambda delta: np.diag([delta, 0]),
        global_scale, "global normalization impossible", ZERO_TEST),
    "frame unitarity": (
        "gns.FrameChange.__post_init__",
        lambda delta: np.eye(2) + np.diag([delta], 1), frame,
        "frame matrix is not unitary", FIXED_TOL),
    "frame entry modulus": (
        "gns.FrameChange.__post_init__", lambda delta: np.diag([1 + delta, 1]),
        frame, "frame matrix is not unitary", FIXED_TOL),
    "generator action cycle": (
        "action.extend_generator_action", cycle_of, extended,
        "generator action is inconsistent", FIXED_TOL),
}


@pytest.mark.parametrize("row, tol", [
    pytest.param(row, tol, id="%s-%s" % (row, tol))
    for row in sorted(BOUNDARY_ROWS) for tol in (None, 1e-6)
    if tol is None or FIXED_TOL not in BOUNDARY_ROWS[row]])
def test_each_law_check_flips_at_its_tolerance(row, tol):
    """A deviation of 10 tol is reported by the row's own law, and one of
    tol / 10 passes every law, at the default tolerance and, unless the
    tolerance is fixed, at 1e-6; for a zero test the other way round."""
    _, make, check, law, *marks = BOUNDARY_ROWS[row]
    given_tol = {} if tol is None else {"tol": tol}
    tol = tol or DEFAULT_TOL
    fault, fine = (tol / 10, 10 * tol) if ZERO_TEST in marks else (
        10 * tol, tol / 10)
    assert any(m.startswith(law) for m in check(make(fault), **given_tol))
    assert check(make(fine), **given_tol) == []


def test_nan_and_inf_are_beyond_any_tolerance():
    dev = np.array([np.nan, 0.0, np.inf, 1e300])
    assert beyond(dev, 1e300).tolist() == [0, 2]


# -- every array and map the package takes -------------------------------

def square(g):
    return (len(g.events),) * 2


# callable -> (the dtype of its values, their layout on g: a shape, or
# the list of keys of a map, and the call, returning the numbers it made)
INTAKE_ROWS = {
    "AlgebraElement": (complex, lambda g: (g.order,),
                       lambda g, v: AlgebraElement(g, v).coeffs),
    "AlgebraElement.from_dict": (
        complex, lambda g: list(g.transitions),
        lambda g, v: AlgebraElement.from_dict(g, v).coeffs),
    "CharacteristicFunction": (
        complex, lambda g: (g.order,),
        lambda g, v: CharacteristicFunction(g, v).values),
    "CharacteristicFunction.from_dict": (
        complex, lambda g: list(g.transitions),
        lambda g, v: CharacteristicFunction.from_dict(g, v).values),
    "ActionFunction": (float, lambda g: (g.order,),
                       lambda g, v: ActionFunction(g, v).values),
    "ActionFunction.from_dict": (
        float, lambda g: list(g.transitions),
        lambda g, v: ActionFunction.from_dict(g, v).values),
    "DecoherenceFunctional": (
        complex, lambda g: (g.order, g.order),
        lambda g, v: DecoherenceFunctional(g, v).matrix),
    "GeneratorAction": (float, lambda g: list(g.transitions),
                        lambda g, v: list(GeneratorAction(v).values.values())),
    "RepMatrices": (complex, lambda g: (g.order, *square(g)),
                    lambda g, v: RepMatrices(g, v).matrices),
    "RepMatrices.apply": (
        complex, lambda g: (len(g.events),),
        lambda g, v: fundamental_matrices(g).apply(g.transitions, v)),
    "FrameChange": (complex, square, lambda g, v: FrameChange(v).unitary),
    "smeared_character": (
        complex, square,
        lambda g, v: smeared_character(fundamental_matrices(g), v).values),
    "fundamental_rep_inverse": (
        complex, square, lambda g, v: fundamental_rep_inverse(g, v).coeffs),
    "is_reproducing_sweep_trial": (
        float, lambda g: (2, len(g.events)),
        lambda g, v: np.concatenate(is_reproducing_sweep_trial(g, v))),
    "action_from_potential": (
        float, lambda g: list(g.events),
        lambda g, v: action_from_potential(g, v).values),
}


def nest(flat, shape):
    """The list ``flat`` as nested lists of ``shape``."""
    for n in reversed(shape[1:]):
        flat = [flat[k:k + n] for k in range(0, len(flat), n)]
    return flat


@st.composite
def intake_values(draw, dtype, layout):
    """Values laid out as ``layout``, a shape or the list of keys of a
    map: finite numbers of ``dtype``, from two to eight draws in [-1, 1],
    each scaled by 2^k for a k from -1074 to 1023, and repeated to fill
    the layout; or these with one fault, an entry that is text, None, a
    list (a ragged array) or, for real values, complex, or an array one
    rank short or long."""
    keyed = isinstance(layout, list)
    size = len(layout) if keyed else math.prod(layout)
    # the extremes more often: that is where sums overflow
    mantissa = st.sampled_from([-1.0, 1.0]) | st.floats(-1, 1)
    scale = st.sampled_from([-1074, 1023]) | st.integers(-1074, 1023)
    drawn = draw(st.lists(st.builds(math.ldexp, mantissa, scale),
                          min_size=2, max_size=8)) * size
    flat = ([complex(x, y) for x, y in zip(drawn[::2], drawn[1::2])]
            if dtype is complex else drawn)[:size]
    bad = {"text": "1", "None": None, "list": [1.0, 2.0]}
    if dtype is float:
        bad["complex"] = 1j
    fault = draw(st.none() | st.sampled_from(
        [*bad, *([] if keyed else ["short", "long"])]))
    if fault == "short":
        return nest(flat, layout)[0]
    if fault == "long":
        return [nest(flat, layout)]
    if fault is not None:
        flat[draw(st.integers(0, size - 1))] = bad[fault]
    return dict(zip(layout, flat)) if keyed else nest(flat, layout)


@pytest.mark.parametrize("name", sorted(INTAKE_ROWS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), g=composite_groupoids() | st.integers(1, 4).map(
    lambda n: pair_groupoid(["e%d" % k for k in range(n)])))
def test_every_intake_gives_finite_numbers_or_one_error(name, data, g):
    """Each row of `INTAKE_ROWS`, on a composite groupoid or a pair
    groupoid (some rows take only those), returns finite numbers or
    raises one package error, and no warning, for numbers at every binary
    scale and for values that are not numbers of its dtype or not of its
    shape."""
    dtype, layout, call = INTAKE_ROWS[name]
    values = data.draw(intake_values(dtype, layout(g)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(g, values)
        except GqmError:
            return
    assert np.all(np.isfinite(out))
