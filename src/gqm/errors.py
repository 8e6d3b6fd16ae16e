"""Exception types shared across the package.

The CLI maps these onto exit codes: GqmInputError -> 1,
MathPropertyError -> 2, I/O problems -> 3.
"""


def first_of(messages):
    """One line for a non-empty list: the first message, and how many
    follow it."""
    more = len(messages) - 1
    return messages[0] + (" (and %d more)" % more if more else "")


class GqmError(Exception):
    """Base class for all package errors."""


class GqmInputError(GqmError):
    """Malformed input: bad spec documents, unknown labels, broken axioms."""


class GroupoidValidationError(GqmInputError):
    """A groupoid axiom failed; the message names the first violation and
    how many follow, ``violations`` holds them all."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("groupoid validation failed: "
                         + first_of(self.violations))


class MathPropertyError(GqmError):
    """A mathematical property that should hold does not (e.g. PSD failure)."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ActionInconsistencyError(MathPropertyError):
    """A generator action admits no consistent extension to the groupoid.

    ``cycle`` is a list of (arrow_label, sign) pairs; ``signed_sum`` is the
    net action value around the cycle (nonzero, which is the obstruction).
    """

    def __init__(self, cycle, signed_sum):
        self.cycle = list(cycle)
        self.signed_sum = signed_sum
        path = " ".join(
            ("%s%s" % ("+" if sign > 0 else "-", label)) for label, sign in cycle
        )
        super().__init__(
            "generator action is inconsistent on cycle [%s]: signed sum %.17g"
            % (path, signed_sum)
        )
