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

from .algebra import AlgebraElement, fundamental_rep, multiply, regular_rep
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
        vec = np.zeros(g.order, dtype=complex)
        for label, value in values.items():
            vec[g.transition_index[g.resolve(label)]] = value
        return cls(g, vec)

    def value(self, label):
        g = self.groupoid
        return complex(self.values[g.transition_index[g.resolve(label)]])

    def unit_mass(self):
        g = self.groupoid
        return complex(
            sum(self.values[g.transition_index[u]] for u in g.units())
        )

    def as_algebra_element(self):
        return AlgebraElement(self.groupoid, self.values.copy())


@dataclass
class PsdCheck:
    """Result of the PSD test; on failure ``witness`` pairs transition
    labels with the coefficients of the offending eigenvector.

    ``matrix`` is the invariance matrix that was tested and ``eigh`` the
    (eigenvalues, eigenvectors) of its Hermitian part, kept so callers
    that go on to use them need not recompute either."""

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
    n = g.order
    mat = np.zeros((n, n), dtype=complex)
    for a in g.transitions:
        ia = g.transition_index[a]
        inv_a = g.inverse[a]
        for b in g.transitions:
            if g.target[a] != g.target[b]:
                continue
            ib = g.transition_index[b]
            comp = g.composition[(inv_a, b)]
            mat[ia, ib] = phi.values[g.transition_index[comp]]
    return mat


def is_positive_semidefinite(phi, tol=DEFAULT_TOL) -> PsdCheck:
    """Complete PSD check: every finite family's Gram matrix is a principal
    submatrix (with duplications) of the full matrix, so checking the full
    matrix suffices."""
    if tol <= 0:
        raise GqmInputError("tolerance must be positive")
    mat = invariance_matrix(phi)
    herm = bool(np.max(np.abs(mat - mat.conj().T)) <= tol)
    sym = 0.5 * (mat + mat.conj().T)  # suppress roundoff asymmetry
    eigvals, eigvecs = np.linalg.eigh(sym)
    min_eig = float(eigvals[0])
    ok = herm and min_eig >= -tol
    witness = None
    if not ok:
        g = phi.groupoid
        vec = eigvecs[:, 0]
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
    g.require_event(x)
    return CharacteristicFunction.from_dict(g, {g.unit_of[x]: 1.0})


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


def is_reproducing(phi, tol=DEFAULT_TOL) -> bool:
    """Idempotency under convolution: phi * phi == phi."""
    elem = phi.as_algebra_element()
    square = multiply(elem, elem)
    return bool(np.max(np.abs(square.coeffs - elem.coeffs)) <= tol)


def random_state(g: FiniteGroupoid, rng) -> CharacteristicFunction:
    """Random normalized PSD function: the smeared character of the regular
    representation against a random density matrix."""
    n = g.order
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    density = w @ w.conj().T
    density /= np.trace(density).real
    values = np.array([
        np.trace(density @ regular_rep(AlgebraElement.basis(g, t)))
        for t in g.transitions
    ])
    return CharacteristicFunction(g, values)
