"""Built-in example systems: the two-level system and the two-slit quiver.

Both are generated in code through the ordinary construction path rather
than shipped as data, so using them exercises validation, action handling,
and the decoherence pipeline end to end.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import action, decoherence, states
from .errors import GqmInputError
from .groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    from_explicit,
    from_quiver,
    group_as_groupoid,
    pair_groupoid,
)


def build_qubit() -> FiniteGroupoid:
    """The two-event system: events + and -, one non-unit transition
    alpha: - -> + and its inverse.  Entered as explicit tables."""
    events = ["+", "-"]
    transitions = ["1_+", "1_-", "alpha", "alpha^-1"]
    source = {"1_+": "+", "1_-": "-", "alpha": "-", "alpha^-1": "+"}
    target = {"1_+": "+", "1_-": "-", "alpha": "+", "alpha^-1": "-"}
    unit_of = {"+": "1_+", "-": "1_-"}
    inverse = {"1_+": "1_+", "1_-": "1_-",
               "alpha": "alpha^-1", "alpha^-1": "alpha"}
    composition = {
        ("1_+", "1_+"): "1_+",
        ("1_-", "1_-"): "1_-",
        ("1_+", "alpha"): "alpha",
        ("alpha", "1_-"): "alpha",
        ("1_-", "alpha^-1"): "alpha^-1",
        ("alpha^-1", "1_+"): "alpha^-1",
        ("alpha", "alpha^-1"): "1_+",
        ("alpha^-1", "alpha"): "1_-",
    }
    return from_explicit(events, transitions, source, target, unit_of,
                         inverse, composition)


def qubit_action(g: FiniteGroupoid, S) -> action.ActionFunction:
    """s(alpha) = S from the potential u(+) = S, u(-) = 0."""
    return action.action_from_potential(g, {"+": float(S), "-": 0.0})


def qubit_phase(g: FiniteGroupoid, S) -> states.CharacteristicFunction:
    """The unnormalized pure phase e^{is} on the qubit."""
    s = qubit_action(g, S)
    return states.CharacteristicFunction(g, np.exp(1j * s.values))


def qubit_state(g: FiniteGroupoid, S, normalization="unit-events"
                ) -> states.CharacteristicFunction:
    return action.dynamical_state(qubit_action(g, S), normalization)


def qubit_decoherence(g: FiniteGroupoid, S, normalization="per-transition"
                      ) -> decoherence.DecoherenceFunctional:
    """D(a, b) = c e^{i(s(b) - s(a))} on target-matching pairs; with the
    per-transition tag, c = 1/4."""
    return decoherence.decoherence_from_characteristic(qubit_phase(g, S),
                                                       normalization)


def double_slit_quiver() -> QuiverSpec:
    """Two sources A, B and two detectors D, Dbar with one arrow from each
    source to each detector."""
    return QuiverSpec(
        events=["A", "B", "D", "Dbar"],
        arrows=[
            ("alpha", "A", "D"),
            ("beta", "B", "D"),
            ("alpha_bar", "A", "Dbar"),
            ("beta_bar", "B", "Dbar"),
        ],
    )


def double_slit_groupoid() -> FiniteGroupoid:
    """The order-16 pair groupoid the two-slit quiver generates."""
    return from_quiver(double_slit_quiver())


def double_slit_action(delta, S1=0.0, S2=0.0) -> action.GeneratorAction:
    """Arrow values s(alpha) = S1, s(beta) = S1 - delta, and S2 on both
    barred arrows; delta is the phase difference at the detector D."""
    return action.GeneratorAction({
        "alpha": float(S1),
        "beta": float(S1) - float(delta),
        "alpha_bar": float(S2),
        "beta_bar": float(S2),
    })


def double_slit_decoherence(delta, S1=0.0, S2=0.0,
                            normalization="per-transition"
                            ) -> decoherence.DecoherenceFunctional:
    """The decoherence functional over the arrows, a 4x4 matrix in order
    (alpha, beta, alpha_bar, beta_bar); with the per-transition tag the
    prefactor is 1/16."""
    return action.quiver_decoherence(double_slit_groupoid(),
                                     double_slit_action(delta, S1, S2),
                                     normalization)


def cyclic_group_groupoid(n) -> FiniteGroupoid:
    """Z_n as a single-event groupoid; supplies nontrivial isotropy."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise GqmInputError("Z_n needs an integer n >= 1, got %r" % (n,))
    elements = ["g%d" % k for k in range(n)]
    table = {
        (elements[i], elements[j]): elements[(i + j) % n]
        for i in range(n) for j in range(n)
    }
    return group_as_groupoid(elements, table, elements[0])


def corpus_groupoids() -> list[FiniteGroupoid]:
    """Small systems the property sweeps run over (all with |G| <= 16)."""
    return [
        build_qubit(),
        pair_groupoid(["a", "b", "c"]),
        pair_groupoid(["a", "b", "c", "d"]),
        cyclic_group_groupoid(2),
        cyclic_group_groupoid(3),
        double_slit_groupoid(),
    ]
