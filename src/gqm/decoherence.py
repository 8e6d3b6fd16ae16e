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

from . import NORMALIZATIONS, groupoid
from .errors import GqmInputError, MathPropertyError
from .groupoid import FiniteGroupoid, beyond, finite, intake
from .states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    assert_psd,
    hermitian_part,
    invariance_matrix,
)


def _finite_sum(values, what):
    """complex(np.sum(values)); an input error, not a warning, when the sum
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(np.sum(values))
    return finite(total, what, "is too large for floating point")


def normalization_scale(tag, g: FiniteGroupoid, raw_matrix=None,
                        tol=DEFAULT_TOL):
    """c of ``tag`` on ``g``; 'global' needs |sum of raw_matrix| > tol."""
    if tag == "none":
        return 1.0
    if tag == "unit-events":
        return 1.0 / len(g.events)
    if tag == "idempotent":
        return len(g.events) / g.order
    if tag == "per-transition":
        return 1.0 / g.order
    if tag == "global":
        if raw_matrix is None:
            raise GqmInputError("normalization tag 'global' needs a "
                                "decoherence matrix to sum")
        total = _finite_sum(raw_matrix, "D(G, G)")
        if abs(total) <= tol:
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
        n = len(self.labels)
        self.matrix = intake(self.matrix, complex, (n, n),
                             "decoherence matrix must be %d x %d" % (n, n),
                             "decoherence matrix entries")

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
    assert_psd(phi, tol, "cannot build a decoherence functional from a "
               "non-PSD function")
    matrix = invariance_matrix(phi)  # scaled in place: one |G| x |G| array
    with np.errstate(over="ignore"):
        matrix *= normalization_scale(normalization, phi.groupoid, matrix,
                                      tol)
    finite(matrix, "the %s-normalized decoherence matrix" % normalization,
           "is too large for floating point")
    return DecoherenceFunctional(phi.groupoid, matrix, normalization)


def is_invariant(d: DecoherenceFunctional, tol=DEFAULT_TOL) -> bool:
    """Exhaustive check of D(alpha∘beta, alpha∘beta') = D(beta, beta') on
    the orbit stacks: alpha = rows[k, p]^-1, out of ``events[k]``, sends
    ``rows[k]`` to ``gather[orbit[k], p]``; in parts of CHECK_PART // b^2."""
    g, m = d.groupoid, d.matrix
    if d.labels != g.transitions:
        raise GqmInputError("invariance needs a decoherence functional over "
                            "all transitions")
    for s in g.orbit_table():
        alphas, b = s.rows.size, s.rows[0].size  # (k, p) is alpha k b + p
        step = max(1, groupoid.CHECK_PART // b**2)
        for a in range(0, alphas, step):
            k, p = np.divmod(np.arange(a, min(a + step, alphas)), b)
            beta = s.rows[k][:, :, None]
            ab = s.gather[s.orbit[k], p][:, :, None]
            dev = m[ab, ab.swapaxes(1, 2)] - m[beta, beta.swapaxes(1, 2)]
            if beyond(np.abs(dev), tol).size:
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


def _block_sum(d, rows, tol):
    """D(A, A) over the rows ``rows`` of ``d``: a real number, or an error."""
    total = _finite_sum(d.matrix[np.ix_(rows, rows)], "the measure value")
    if abs(total.imag) > tol:
        raise MathPropertyError(
            "measure value is not real: %r (matrix is not Hermitian?)" % total
        )
    return total.real


def quantum_measure(d: DecoherenceFunctional, members,
                    tol=DEFAULT_TOL) -> QuantumMeasureReport:
    """mu(A) = D(A, A): the diagonal block sum, clamped at zero."""
    rows = list(dict.fromkeys(map(d.index, members)))
    raw = _block_sum(d, rows, tol)
    return QuantumMeasureReport(
        members=tuple(map(d.labels.__getitem__, rows)),
        value=0.0 if -tol <= raw < 0.0 else raw, raw_value=raw,
        normalization=d.normalization, tolerance=tol)


MAX_INTERFERENCE_ORDER = 6


def interference(d: DecoherenceFunctional, sets, tol=DEFAULT_TOL) -> float:
    """The order-n inclusion-exclusion interference of pairwise disjoint
    sets: sum over non-empty subfamilies S of (-1)^(n-|S|) mu(union of S)."""
    n = len(sets)
    if not 1 <= n <= MAX_INTERFERENCE_ORDER:
        raise GqmInputError(
            "interference order must be between 1 and %d"
            % MAX_INTERFERENCE_ORDER
        )
    rows = [list(dict.fromkeys(map(d.index, s))) for s in sets]
    owner = {}  # the set each row is in
    for k, block in enumerate(rows):
        for row in block:
            if owner.setdefault(row, k) != k:
                raise GqmInputError("interference sets %d and %d overlap on "
                                    "%r" % (owner[row], k, d.labels[row]))
    total = 0.0
    for k in range(1, n + 1):
        sign = (-1.0) ** (n - k)
        for combo in combinations(range(n), k):
            union = [row for i in combo for row in rows[i]]
            total += sign * _block_sum(d, union, tol)
    return finite(total, "the interference value",
                  "is too large for floating point")


def check_decoherence_axioms(d: DecoherenceFunctional, tol=DEFAULT_TOL):
    """Re-check hermiticity, positivity and target-block structure; raises
    MathPropertyError on the first violation."""
    g = d.groupoid
    m = d.matrix
    if not m.size:  # no rows: vacuously Hermitian and PSD
        return
    herm, defect = hermitian_part(m)
    if defect > 0.5 * tol:
        raise MathPropertyError("decoherence matrix is not Hermitian")
    eigvals = np.linalg.eigvalsh(herm)
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
