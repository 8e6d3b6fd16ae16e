"""Finite groupoids, their *-algebras, states, quantum measures, and GNS
representations."""

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
    interference_recursive_check,
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
from .gns import (
    FrameChange,
    GnsRepresentation,
    GnsSpace,
    RepMatrices,
    frame_compose,
    fundamental_matrices,
    gns_build,
    gns_matrices,
    gram_matrix,
    smeared_character,
    transformation_function,
    vector_valued_measure,
    verify_reconstruction,
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
    is_reproducing,
    observable_amplitude,
    random_state,
    state_eval,
    transition_amplitude,
    transition_amplitude_matrix,
)

__version__ = "0.1.0"
