"""States as positive semi-definite functions on a groupoid.

A characteristic function assigns a complex value to every transition.  It
qualifies as a state when it is normalized (values at units sum to 1) and
positive semi-definite, which for a finite groupoid is fully captured by
one |G| x |G| Gram-type matrix: M(alpha, beta) = phi(alpha^-1 ∘ beta) when
the targets agree, 0 otherwise.  That matrix is block diagonal by target,
one block per orbit up to a permutation, and the PSD test solves only
those.  The kernels take a leading stack axis, so that many functions on
one groupoid go through them at once; the object API is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .errors import GqmInputError, MathPropertyError
from .groupoid import FiniteGroupoid, finite, intake

DEFAULT_TOL = 1e-10


@dataclass(eq=False)
class CharacteristicFunction:
    groupoid: FiniteGroupoid
    values: np.ndarray  # complex, canonical transition order

    def __post_init__(self):
        n = self.groupoid.order
        self.values = intake(self.values, complex, (n,), "value vector {} "
                             "does not match |G| = %d" % n,
                             "characteristic function values")

    @classmethod
    def from_dict(cls, g, values):
        return cls(g, g.vector(values, complex))

    def value(self, label):
        return complex(self.values[self.groupoid.index(label)])

    def unit_mass(self):
        """Sum of the unit values, in event order; inf, never a warning,
        when it overflows."""
        mass = 0j
        for v in self.values[self.groupoid.index_arrays()[3]].tolist():
            mass += v
        return mass

    def as_algebra_element(self):
        return algebra.AlgebraElement(self.groupoid, self.values.copy())


@dataclass
class PsdCheck:
    """Result of the PSD test; on failure ``witness`` pairs transition
    labels with the coefficients of the offending eigenvector.

    ``blocks`` is the eigendecomposition of the Hermitian part of the
    invariance matrix, kept so callers that go on to use it need not
    recompute it.  The blocks of one orbit are one matrix with permuted
    rows and columns, so ``blocks`` holds one ``(stack, eigenvalues,
    eigenvectors)`` per `gqm.groupoid.OrbitStack` of the orbit table:
    ``eigenvalues[j]`` ascends, and column p of ``eigenvectors[j]`` is the
    eigenvector of ``eigenvalues[j, p]`` over ``stack.rows[k]``, for the
    block of every event k of orbit j."""

    ok: bool
    hermitian: bool
    min_eigenvalue: float
    witness: list[tuple[str, complex]] | None = None
    blocks: list | None = field(default=None, repr=False, compare=False)


def invariance_matrix(phi: CharacteristicFunction) -> np.ndarray:
    """The |G| x |G| matrix M(a, b) = delta(t(a), t(b)) phi(a^-1 ∘ b),
    filled block by block: the block of event k of a stack is its orbit's
    phi[gather] over the rows and columns ``rows[k]``."""
    g = phi.groupoid
    mat = np.zeros((g.order, g.order), dtype=complex)
    for s in g.orbit_table():
        rows = s.rows[:, :, None]
        mat[rows, rows.swapaxes(1, 2)] = phi.values[s.gather][s.orbit]
    return mat


def hermitian_part(blocks):
    """H = B/2 + B^H/2 and the defect max|B - B^H|/2 of each square B of a
    stack, both from halves, so that finite entries cannot overflow."""
    half = 0.5 * blocks
    half_h = half.conj().swapaxes(-1, -2)
    return half + half_h, np.max(np.abs(half - half_h), axis=(-2, -1))


def psd_spectra(g: FiniteGroupoid, values):
    """The eigensolve of the PSD test for a (T, |G|) stack of functions:
    the hermiticity defect and the least eigenvalue of each, and stacks as
    in `PsdCheck.blocks` with a leading trial axis: one ``eigh`` call on
    the representative blocks of each `FiniteGroupoid.orbit_table` stack."""
    stacks, defect = [], 0.0
    for stack in g.orbit_table():
        herm, off = hermitian_part(values[:, stack.gather])
        defect = np.maximum(defect, off.max(axis=1))
        stacks.append((stack, *np.linalg.eigh(herm)))
    for _, vals, _ in stacks:
        finite(vals, "the invariance matrix has an eigenvalue",
               "too large for floating point")
    # eigh's eigenvalues ascend, so a block's least comes first
    least = np.min([vals[:, :, 0].min(axis=1) for _, vals, _ in stacks],
                   axis=0)
    return defect, least, stacks


def is_positive_semidefinite(phi, tol=DEFAULT_TOL) -> PsdCheck:
    """Complete PSD check: every finite family's Gram matrix is a principal
    submatrix (with duplications) of the full matrix, so checking the full
    matrix suffices.  The matrix is block diagonal by target, and the
    blocks of one orbit are one matrix with rows and columns permuted,
    since (gamma a)^-1 ∘ (gamma b) = a^-1 ∘ b: so one eigensolve per orbit
    decides, and `psd_spectra` makes one ``eigh`` call per block size."""
    if tol <= 0:
        raise GqmInputError("tolerance must be positive")
    g = phi.groupoid
    defect, least, stacks = psd_spectra(g, phi.values[None])
    herm = float(defect[0]) <= 0.5 * tol
    min_eig = float(least[0])
    ok = herm and min_eig >= -tol
    witness = None
    if not ok:  # over the first orbit in event order with that eigenvalue
        firsts = []
        for s, vals, vecs in stacks:  # k: that orbit's first event
            k = np.flatnonzero(vals[0, s.orbit, 0] == min_eig)[:1]
            firsts += zip(s.events[k], s.rows[k], vecs[0, s.orbit[k], :, 0])
        _, rows, vec = min(firsts, key=lambda c: c[0])
        witness = [(g.transitions[i], complex(vec[p]))
                   for p, i in enumerate(rows.tolist())
                   if abs(vec[p]) > 1e-14]
    return PsdCheck(ok=ok, hermitian=herm, min_eigenvalue=min_eig,
                    witness=witness,
                    blocks=[(stack, vals[0], vecs[0])
                            for stack, vals, vecs in stacks])


def assert_state(phi, tol=DEFAULT_TOL):
    """Raise unless phi is normalized and positive semi-definite."""
    mass = phi.unit_mass()
    if abs(mass - 1.0) > tol:
        raise MathPropertyError(
            "characteristic function is not normalized: unit mass %r" % mass
        )
    return assert_psd(phi, tol)


def assert_psd(phi, tol=DEFAULT_TOL,
               fault="characteristic function is not positive semi-definite"):
    """The `PsdCheck` of phi if it is positive semi-definite, else the
    property error "``fault`` (min eigenvalue ...)" with the witness."""
    check = is_positive_semidefinite(phi, tol)
    if not check.ok:
        raise MathPropertyError(
            "%s (min eigenvalue %.3e)" % (fault, check.min_eigenvalue),
            witness=check.witness,
        )
    return check


def state_eval(phi, a: algebra.AlgebraElement, tol=DEFAULT_TOL) -> complex:
    """The positive linear functional: sum of a_alpha phi(alpha)."""
    assert_state(phi, tol)
    if a.groupoid is not phi.groupoid:
        raise GqmInputError("element and state live on different groupoids")
    return complex(np.dot(a.coeffs, phi.values))


def delta_state(g: FiniteGroupoid, x) -> CharacteristicFunction:
    """The simple state supported on the unit at x."""
    unit = g.index_arrays()[3]
    values = np.zeros(g.order, dtype=complex)
    values[unit[g.require_event(x)]] = 1.0
    return CharacteristicFunction(g, values)


def transition_amplitude(phi, a, b) -> complex:
    """Sum of phi over transitions a -> b, read off the amplitude matrix."""
    g = phi.groupoid
    x, y = g.require_event(a), g.require_event(b)
    return complex(transition_amplitude_matrix(phi)[y, x])


def transition_amplitude_matrix(phi) -> np.ndarray:
    """All amplitudes at once: equals the fundamental-representation matrix
    of phi read as an algebra element (rows = 'to', columns = 'from')."""
    return algebra.fundamental_rep(phi.as_algebra_element())


def observable_amplitude(f: algebra.AlgebraElement, a_to, a_from,
                         tol=DEFAULT_TOL) -> complex:
    """<a_to; f; a_from> for a self-adjoint f."""
    g = f.groupoid
    dev = np.abs(0.5 * f.star().coeffs - 0.5 * f.coeffs)  # cannot overflow
    if np.max(dev) > 0.5 * tol:
        worst = g.transitions[int(np.argmax(dev))]
        raise MathPropertyError(
            "element is not self-adjoint (largest deviation at %r)" % worst
        )
    x, y = g.require_event(a_from), g.require_event(a_to)
    return complex(algebra.fundamental_rep(f)[y, x])


def reproducing_deviations(g: FiniteGroupoid, values):
    """Max entrywise |phi * phi - phi| of each row of a (T, |G|) stack, 0
    where phi is reproducing, read on the orbit stacks F = phi[gather], one
    matmul each: phi * phi is F @ F, as a -> a[gather[j]] is a
    *-homomorphism and F[j] holds all of orbit j."""
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.max([np.max(np.abs(f @ f - f), axis=(1, 2, 3)) for f
                            in (values[:, s.gather] for s in g.orbit_table())],
                           axis=0)
    return finite(deviation, "the product has a coefficient",
                  "too large for floating point")


def random_state(g: FiniteGroupoid, rng) -> CharacteristicFunction:
    """Random normalized PSD function: the smeared character of the regular
    representation against the random density w w^H / |w|^2."""
    n = g.order
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # Tr(w_k w_k^H L_t) sums conj(w_k[t∘i]) w_k[i] over the i composable
    # with t: the product of conj(w_k) and w_k∘inv, as (t∘i)∘i^-1 = t
    inv = g.index_arrays()[2]
    values = sum(algebra.multiply(algebra.AlgebraElement(g, w[:, k].conj()),
                                  algebra.AlgebraElement(g, w[inv, k])).coeffs
                 for k in range(n))
    return CharacteristicFunction(g, values / np.linalg.norm(w) ** 2)
