"""Finite groupoids, their *-algebras, states, quantum measures, and GNS
representations.

``gqm.gns`` and ``gqm.examples`` are in ``sys.modules`` from the start, but
their code runs on first use, so that a command which needs neither does
not load them; the names this package takes from ``gqm.gns`` resolve on
first access.
"""

import importlib.util
import sys

from .action import (
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
from .algebra import (
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
from .decoherence import (
    NORMALIZATIONS,
    DecoherenceFunctional,
    QuantumMeasureReport,
    characteristic_from_bivariate,
    check_decoherence_axioms,
    decoherence_from_characteristic,
    interference,
    is_invariant,
    quantum_measure,
)
from .errors import (
    ActionInconsistencyError,
    GqmError,
    GqmInputError,
    GroupoidValidationError,
    MathPropertyError,
)
from .groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    ValidationReport,
    from_explicit,
    from_quiver,
    group_as_groupoid,
    pair_groupoid,
    validate,
)
from .states import (
    CharacteristicFunction,
    PsdCheck,
    assert_state,
    delta_state,
    is_positive_semidefinite,
    observable_amplitude,
    random_state,
    state_eval,
    transition_amplitude,
    transition_amplitude_matrix,
)

__version__ = "0.1.0"


def _lazy(name):
    """The submodule ``name``, registered in ``sys.modules``; its code runs
    when an attribute of it is first read."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, name))
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gns = _lazy("gns")
examples = _lazy("examples")

_FROM_GNS = frozenset({
    "FrameChange", "GnsRepresentation", "GnsSpace", "RepMatrices",
    "frame_compose", "fundamental_matrices", "gns_build", "gns_matrices",
    "smeared_character", "transformation_function"})


def __getattr__(name):
    if name in _FROM_GNS:
        return getattr(gns, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
