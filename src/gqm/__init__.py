"""Finite groupoids, their *-algebras, states, quantum measures, and GNS
representations.

Importing ``gqm`` runs none of its modules.  Each submodule but
``gqm.cli`` is in ``sys.modules`` from the start as a lazy module, whose
code runs when an attribute of it is first read; the names of
``__all__`` resolve on first access, each from its home module in
``_EXPORTS``.  This is the package's one way to load lazily: a module
binds a sibling that only some of its functions call as that module
object (``from . import algebra``, then ``algebra.multiply(...)``), and
no function imports.  So ``from gqm import gns_build`` loads ``gqm.gns``
and the modules it needs at import, a ``gqm`` command runs only the
modules whose functions it calls, and ``gqm --help`` loads no numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the scaling tags of a decoherence functional: defined here, not in
# ``gqm.decoherence``, so that the CLI parser lists them without numpy
NORMALIZATIONS = ("none", "unit-events", "idempotent", "per-transition",
                  "global")

# exported name -> home module
_EXPORTS = {name: home for home, names in (
    ("action", """ActionFunction GeneratorAction action_from_potential
        dynamical_state extend_generator_action is_action is_factorizable
        quiver_decoherence recover_potential"""),
    ("algebra", """AlgebraElement fundamental_rep fundamental_rep_inverse
        incidence_element involution isotropy_char multiply operator_norm
        regular_rep spray_char unit_element"""),
    ("decoherence", """DecoherenceFunctional QuantumMeasureReport
        characteristic_from_bivariate check_decoherence_axioms
        decoherence_from_characteristic interference is_invariant
        quantum_measure"""),
    ("errors", """ActionInconsistencyError GqmError GqmInputError
        GroupoidValidationError MathPropertyError"""),
    ("groupoid", """FiniteGroupoid QuiverSpec ValidationReport from_explicit
        from_quiver group_as_groupoid pair_groupoid validate"""),
    ("states", """CharacteristicFunction PsdCheck assert_state delta_state
        is_positive_semidefinite observable_amplitude random_state
        state_eval transition_amplitude transition_amplitude_matrix"""),
    ("gns", """FrameChange GnsRepresentation GnsSpace RepMatrices
        frame_compose fundamental_matrices gns_build gns_matrices
        smeared_character transformation_function"""),
) for name in names.split()}

__all__ = ["NORMALIZATIONS", *_EXPORTS]


def _lazy(name):
    """Register the submodule ``name`` in ``sys.modules`` and bind it here;
    its code runs when an attribute of it is first read."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, name))
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


# not ``cli``: ``python -m gqm.cli`` would find it in ``sys.modules``
for _home in (*dict.fromkeys(_EXPORTS.values()), "specio", "examples"):
    _lazy(_home)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_EXPORTS})
