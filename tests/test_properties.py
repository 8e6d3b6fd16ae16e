"""The paper's statements as properties of drawn inputs.

Theorem 5.2: on a pair groupoid the idempotent dynamical state of any
potential is a state and reproducing.  The decoherence functional of a
state is Hermitian, positive semi-definite, zero between different
targets and invariant, and gives back its characteristic function up to
the normalization scale; its order-3 interference vanishes (grade two).
A function and its decoherence matrix are positive together: the PSD
check and the decoherence axioms reach one verdict at every scale.
"""

import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gqm.action import action_from_potential, dynamical_state
from gqm.decoherence import (
    DecoherenceFunctional,
    characteristic_from_bivariate,
    check_decoherence_axioms,
    decoherence_from_characteristic,
    interference,
    is_invariant,
    normalization_scale,
)
from gqm.examples import corpus_groupoids
from gqm.groupoid import pair_groupoid
from gqm.errors import MathPropertyError
from gqm.states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    assert_state,
    delta_state,
    invariance_matrix,
    is_positive_semidefinite,
    random_state,
    reproducing_deviation,
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
    assert reproducing_deviation(phi) <= DEFAULT_TOL


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
