"""The paper's statements as properties of drawn inputs.

Theorem 5.2: on a pair groupoid the idempotent dynamical state of any
potential is a state and reproducing.  The decoherence functional of a
state is Hermitian, positive semi-definite, zero between different
targets and invariant, and gives back its characteristic function up to
the normalization scale; its order-3 interference vanishes (grade two).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gqm.action import action_from_potential, dynamical_state
from gqm.decoherence import (
    characteristic_from_bivariate,
    check_decoherence_axioms,
    decoherence_from_characteristic,
    interference,
    is_invariant,
    normalization_scale,
)
from gqm.examples import corpus_groupoids
from gqm.groupoid import pair_groupoid
from gqm.states import (
    DEFAULT_TOL,
    assert_state,
    delta_state,
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
