"""Decoherence functionals, quantum measures, and the interference hierarchy.

A decoherence functional is stored as the Hermitian |G| x |G| matrix of its
values on singletons; set evaluation is biadditive.  Because the source
literature mixes several scalings of the same matrix, the scaling is always
an explicit tag:

  none            c = 1
  unit-events     c = 1/|events|            (unit values sum to 1)
  idempotent      c = |events|/|G|          (reproducing-state convention)
  per-transition  c = 1/|G|
  global          c such that D(G, G) = 1
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GqmInputError, MathPropertyError
from .groupoid import FiniteGroupoid, group_indices
from .states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    is_positive_semidefinite,
)


def _finite_sum(values, what):
    """complex(np.sum(values)); an input error, not a warning, when the sum
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(np.sum(values))
    if not np.isfinite(total):
        raise GqmInputError("%s is too large for floating point" % what)
    return total


NORMALIZATIONS = ("none", "unit-events", "idempotent", "per-transition",
                  "global")


def normalization_scale(tag, g: FiniteGroupoid, raw_matrix=None):
    if tag == "none":
        return 1.0
    if tag == "unit-events":
        return 1.0 / len(g.events)
    if tag == "idempotent":
        return len(g.events) / g.order
    if tag == "per-transition":
        return 1.0 / g.order
    if tag == "global":
        total = _finite_sum(raw_matrix, "D(G, G)")
        if abs(total) <= DEFAULT_TOL:
            raise MathPropertyError(
                "global normalization impossible: D(G, G) = 0"
            )
        return 1.0 / total.real
    raise GqmInputError("unknown normalization tag %r (choose from %s)"
                        % (tag, ", ".join(NORMALIZATIONS)))


@dataclass(eq=False)
class DecoherenceFunctional:
    """The matrix of D on singletons, rows and columns indexed by
    ``labels``: by default every transition in canonical order; the
    arrow-level functional of a quiver uses its arrow labels."""

    groupoid: FiniteGroupoid
    matrix: np.ndarray  # len(labels) x len(labels) complex
    normalization: str = "none"
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self.labels = tuple(self.groupoid.transitions if self.labels is None
                            else self.labels)
        self._row = {lab: k for k, lab in enumerate(self.labels)}
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = len(self.labels)
        if self.matrix.shape != (n, n):
            raise GqmInputError("decoherence matrix must be %d x %d" % (n, n))

    def index(self, label):
        """Row of ``label``, looked up as given, then through
        `FiniteGroupoid.resolve`."""
        row = self._row.get(label)
        if row is None:
            row = self._row.get(self.groupoid.resolve(label))
        if row is None:
            raise GqmInputError(
                "label %r does not index this decoherence functional" % label
            )
        return row

    def entry(self, a, b):
        return complex(self.matrix[self.index(a), self.index(b)])


@dataclass
class QuantumMeasureReport:
    members: tuple[str, ...]
    value: float       # clamped to 0 when within tolerance below it
    raw_value: float
    normalization: str
    tolerance: float


def decoherence_from_characteristic(phi, normalization="none",
                                    tol=DEFAULT_TOL) -> DecoherenceFunctional:
    """D(alpha, beta) = c delta(t(alpha), t(beta)) phi(alpha^-1 ∘ beta)."""
    check = is_positive_semidefinite(phi, tol)
    if not check.ok:
        raise MathPropertyError(
            "cannot build a decoherence functional from a non-PSD function "
            "(min eigenvalue %.3e)" % check.min_eigenvalue,
            witness=check.witness,
        )
    raw = check.matrix
    scale = normalization_scale(normalization, phi.groupoid, raw)
    with np.errstate(over="ignore"):
        matrix = scale * raw
    if not np.all(np.isfinite(matrix)):
        raise GqmInputError("the %s-normalized decoherence matrix is too "
                            "large for floating point" % normalization)
    return DecoherenceFunctional(phi.groupoid, matrix, normalization)


def is_invariant(d: DecoherenceFunctional, tol=DEFAULT_TOL) -> bool:
    """Exhaustive check of D(alpha∘beta, alpha∘beta') = D(beta, beta')."""
    g = d.groupoid
    if d.labels != g.transitions:
        raise GqmInputError("invariance needs a decoherence functional over "
                            "all transitions")
    m = d.matrix
    outer, inner, result = g.composition_index()
    for k in group_indices(outer, g.order):  # every beta after one alpha
        beta, ab = inner[k], result[k]
        if np.any(np.abs(m[np.ix_(ab, ab)] - m[np.ix_(beta, beta)]) > tol):
            return False
    return True


def characteristic_from_bivariate(d: DecoherenceFunctional,
                                  tol=DEFAULT_TOL) -> CharacteristicFunction:
    """Recover phi(alpha) = D(1_{t(alpha)}, alpha); requires invariance."""
    if not is_invariant(d, tol):
        raise MathPropertyError(
            "decoherence functional is not invariant; no characteristic "
            "function exists"
        )
    g = d.groupoid
    _, tgt, _, unit = g.index_arrays()
    return CharacteristicFunction(g, d.matrix[unit[tgt], np.arange(g.order)])


def _resolve_set(d, members):
    """The labels of ``members`` as rows of ``d``, repeats counted once."""
    return tuple(d.labels[k] for k in dict.fromkeys(map(d.index, members)))


def quantum_measure(d: DecoherenceFunctional, members,
                    tol=DEFAULT_TOL) -> QuantumMeasureReport:
    """mu(A) = D(A, A): the diagonal block sum, clamped at zero."""
    labels = _resolve_set(d, members)
    idx = [d.index(lab) for lab in labels]
    total = _finite_sum(d.matrix[np.ix_(idx, idx)], "the measure value")
    if abs(total.imag) > tol:
        raise MathPropertyError(
            "measure value is not real: %r (matrix is not Hermitian?)" % total
        )
    raw = total.real
    value = raw
    if -tol <= value < 0.0:
        value = 0.0
    return QuantumMeasureReport(
        members=labels, value=value, raw_value=raw,
        normalization=d.normalization, tolerance=tol,
    )


MAX_INTERFERENCE_ORDER = 6


def _check_disjoint(d, sets):
    resolved = [_resolve_set(d, s) for s in sets]
    seen = {}
    for k, labels in enumerate(resolved):
        for lab in labels:
            if lab in seen:
                raise GqmInputError(
                    "interference sets %d and %d overlap on %r"
                    % (seen[lab], k, lab)
                )
            seen[lab] = k
    return resolved


def interference(d: DecoherenceFunctional, sets, tol=DEFAULT_TOL) -> float:
    """The order-n inclusion-exclusion interference of pairwise disjoint
    sets: sum over non-empty subfamilies S of (-1)^(n-|S|) mu(union of S)."""
    n = len(sets)
    if not 1 <= n <= MAX_INTERFERENCE_ORDER:
        raise GqmInputError(
            "interference order must be between 1 and %d"
            % MAX_INTERFERENCE_ORDER
        )
    resolved = _check_disjoint(d, sets)
    total = 0.0
    for k in range(1, n + 1):
        sign = (-1.0) ** (n - k)
        for combo in combinations(range(n), k):
            union = [lab for i in combo for lab in resolved[i]]
            total += sign * quantum_measure(d, union, tol).raw_value
    if not np.isfinite(total):
        raise GqmInputError("the interference value is too large for "
                            "floating point")
    return total


def interference_recursive_check(d, sets, tol=1e-9) -> bool:
    """Self-test of the inclusion-exclusion implementation: I_{n+1} computed
    directly must equal the recursive combination of I_n terms."""
    if len(sets) < 2:
        raise GqmInputError("recursive check needs at least two sets")
    resolved = _check_disjoint(d, sets)
    a0, a1, rest = resolved[0], resolved[1], list(resolved[2:])
    direct = interference(d, resolved, tol)
    merged = interference(d, [tuple(a0) + tuple(a1)] + rest, tol)
    drop0 = interference(d, [a0] + rest, tol)
    drop1 = interference(d, [a1] + rest, tol)
    return abs(direct - (merged - drop0 - drop1)) <= tol


def check_decoherence_axioms(d: DecoherenceFunctional, tol=DEFAULT_TOL):
    """Re-check hermiticity, positivity and target-block structure; raises
    MathPropertyError on the first violation."""
    g = d.groupoid
    m = d.matrix
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise MathPropertyError("decoherence matrix is not Hermitian")
    eigvals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if eigvals[0] < -tol:
        raise MathPropertyError(
            "decoherence matrix is not PSD (min eigenvalue %.3e)" % eigvals[0]
        )
    target = g.index_arrays()[1][[g.index(lab) for lab in d.labels]]
    bad = np.argwhere((target[:, None] != target) & (np.abs(m) > tol))
    if bad.size:  # the first in row-major order
        i, j = bad[0]
        raise MathPropertyError(
            "entries with different targets must vanish: "
            "(%r, %r)" % (d.labels[i], d.labels[j])
        )
