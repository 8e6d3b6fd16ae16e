"""States as positive semi-definite functions on a groupoid.

A characteristic function assigns a complex value to every transition.  It
qualifies as a state when it is normalized (values at units sum to 1) and
positive semi-definite, which for a finite groupoid is fully captured by
one |G| x |G| Gram-type matrix: M(alpha, beta) = phi(alpha^-1 ∘ beta) when
the targets agree, 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, fundamental_rep, multiply, scatter_add
from .errors import GqmInputError, MathPropertyError
from .groupoid import FiniteGroupoid

DEFAULT_TOL = 1e-10


@dataclass(eq=False)
class CharacteristicFunction:
    groupoid: FiniteGroupoid
    values: np.ndarray  # complex, canonical transition order

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.groupoid.order,):
            raise GqmInputError(
                "value vector length %d does not match |G| = %d"
                % (self.values.size, self.groupoid.order)
            )

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
        return AlgebraElement(self.groupoid, self.values.copy())


@dataclass
class PsdCheck:
    """Result of the PSD test; on failure ``witness`` pairs transition
    labels with the coefficients of the offending eigenvector.

    ``matrix`` is the invariance matrix that was tested and ``eigh`` the
    (eigenvalues, eigenvectors) of its Hermitian part, kept so callers
    that go on to use them need not recompute either.  They come from one
    ``eigh`` call per block size, on the target blocks of that size
    stacked, and are put together at full size in event order: block x
    holds the next |G^x| columns, each eigenvector is zero outside its
    block, and eigenvalues ascend within a block."""

    ok: bool
    hermitian: bool
    min_eigenvalue: float
    witness: list[tuple[str, complex]] | None = None
    matrix: np.ndarray | None = field(default=None, repr=False,
                                      compare=False)
    eigh: tuple | None = field(default=None, repr=False, compare=False)


def invariance_matrix(phi: CharacteristicFunction) -> np.ndarray:
    """The |G| x |G| matrix M(a, b) = delta(t(a), t(b)) phi(a^-1 ∘ b)."""
    g = phi.groupoid
    inv = g.index_arrays()[2]
    # each composable outer∘inner is a^-1 ∘ b with a = outer^-1, b = inner
    outer, inner, result = g.composition_index()
    mat = np.zeros((g.order, g.order), dtype=complex)
    mat[inv[outer], inner] = phi.values[result]
    return mat


def is_positive_semidefinite(phi, tol=DEFAULT_TOL) -> PsdCheck:
    """Complete PSD check: every finite family's Gram matrix is a principal
    submatrix (with duplications) of the full matrix, so checking the full
    matrix suffices.  The matrix is block diagonal by target, so each
    target block is tested on its own: the blocks of one size are stacked
    and go through one ``eigh`` call, so a pair groupoid makes one."""
    if tol <= 0:
        raise GqmInputError("tolerance must be positive")
    g = phi.groupoid
    mat = invariance_matrix(phi)
    eigvals = np.zeros(g.order)
    eigvecs = np.zeros((g.order, g.order), dtype=complex)
    defect = 0.0
    blocks = g.target_blocks()
    sizes = [idx.size for idx in blocks]
    starts = np.cumsum(sizes) - sizes
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for size in sorted(set(sizes)):
        ks = [k for k, s in enumerate(sizes) if s == size]
        # rows[j] holds block ks[j]'s transitions, cols[j] its columns of
        # the assembled eigendecomposition
        rows = np.stack([blocks[k] for k in ks])
        cols = starts[ks, None] + np.arange(size)
        # halves first, so that huge finite entries cannot overflow
        half = 0.5 * mat[rows[:, :, None], rows[:, None, :]]
        half_h = half.conj().transpose(0, 2, 1)
        defect = max(defect, float(np.max(np.abs(half - half_h))))
        eigvals[cols], eigvecs[rows[:, :, None], cols[:, None, :]] = (
            np.linalg.eigh(half + half_h))
    if not np.all(np.isfinite(eigvals)):
        raise GqmInputError("the invariance matrix has an eigenvalue too "
                            "large for floating point")
    herm = defect <= 0.5 * tol
    k = int(np.argmin(eigvals))
    min_eig = float(eigvals[k])
    ok = herm and min_eig >= -tol
    witness = None
    if not ok:
        vec = eigvecs[:, k]
        witness = [
            (g.transitions[i], complex(vec[i]))
            for i in range(g.order)
            if abs(vec[i]) > 1e-14
        ]
    return PsdCheck(ok=ok, hermitian=herm, min_eigenvalue=min_eig,
                    witness=witness, matrix=mat, eigh=(eigvals, eigvecs))


def assert_state(phi, tol=DEFAULT_TOL):
    """Raise unless phi is normalized and positive semi-definite."""
    mass = phi.unit_mass()
    if abs(mass - 1.0) > tol:
        raise MathPropertyError(
            "characteristic function is not normalized: unit mass %r" % mass
        )
    check = is_positive_semidefinite(phi, tol)
    if not check.ok:
        raise MathPropertyError(
            "characteristic function is not positive semi-definite "
            "(min eigenvalue %.3e)" % check.min_eigenvalue,
            witness=check.witness,
        )
    return check


def state_eval(phi, a: AlgebraElement, tol=DEFAULT_TOL) -> complex:
    """The positive linear functional: sum of a_alpha phi(alpha)."""
    assert_state(phi, tol)
    if a.groupoid is not phi.groupoid:
        raise GqmInputError("element and state live on different groupoids")
    return complex(np.dot(a.coeffs, phi.values))


def delta_state(g: FiniteGroupoid, x) -> CharacteristicFunction:
    """The simple state supported on the unit at x."""
    unit = g.index_arrays()[3]
    values = np.zeros(g.order, dtype=complex)
    values[unit[g.event_index[g.require_event(x)]]] = 1.0
    return CharacteristicFunction(g, values)


def transition_amplitude(phi, a, b) -> complex:
    """Sum of phi over transitions a -> b."""
    g = phi.groupoid
    return complex(sum(phi.value(t) for t in sorted(g.hom_set(a, b))))


def transition_amplitude_matrix(phi) -> np.ndarray:
    """All amplitudes at once: equals the fundamental-representation matrix
    of phi read as an algebra element (rows = 'to', columns = 'from')."""
    return fundamental_rep(phi.as_algebra_element())


def observable_amplitude(f: AlgebraElement, a_to, a_from,
                         tol=DEFAULT_TOL) -> complex:
    """<a_to; f; a_from> for a self-adjoint f."""
    g = f.groupoid
    dev = np.abs(f.star().coeffs - f.coeffs)
    if np.max(dev) > tol:
        worst = g.transitions[int(np.argmax(dev))]
        raise MathPropertyError(
            "element is not self-adjoint (largest deviation at %r)" % worst
        )
    return complex(sum(f.coeff(t) for t in sorted(g.hom_set(a_from, a_to))))


def reproducing_deviation(phi) -> float:
    """Max entrywise |phi * phi - phi| under convolution."""
    elem = phi.as_algebra_element()
    return float(np.max(np.abs(multiply(elem, elem).coeffs - elem.coeffs)))


def is_reproducing(phi, tol=DEFAULT_TOL) -> bool:
    """Idempotency under convolution: phi * phi == phi."""
    return reproducing_deviation(phi) <= tol


def random_state(g: FiniteGroupoid, rng) -> CharacteristicFunction:
    """Random normalized PSD function: the smeared character of the regular
    representation against a random density matrix."""
    n = g.order
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    density = w @ w.conj().T
    density /= np.trace(density).real
    # Tr(density L_t), with L_t the left multiplication by t
    outer, inner, result = g.composition_index()
    terms = density[inner, result]
    return CharacteristicFunction(g, scatter_add(outer, terms.real,
                                                 terms.imag, n))
