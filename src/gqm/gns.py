"""GNS construction, smeared characters, vector-valued measures, and frame
changes.

From a state the construction yields: the Gram matrix of the state-induced
inner product on coefficient vectors, the null space (Gelfand ideal), an
orthonormal basis of the quotient Hilbert space, representation matrices by
left multiplication, and the ground vector (the class of the algebra unit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    fundamental_rep,
    fundamental_rep_inverse,
    regular_rep,
    scatter_add,
    unit_element,
)
from .errors import GqmInputError, MathPropertyError
from .groupoid import FiniteGroupoid
from .states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    assert_state,
    delta_state,
    is_positive_semidefinite,
)

RANK_TOL = 1e-10


def gram_matrix(phi: CharacteristicFunction, tol=DEFAULT_TOL) -> np.ndarray:
    """M(alpha, beta) = delta(t(alpha), t(beta)) phi(alpha^-1 ∘ beta); the
    inner product of basis-transition classes."""
    return assert_state(phi, tol).matrix


@dataclass(eq=False)
class GnsSpace:
    groupoid: FiniteGroupoid
    dim: int
    basis: np.ndarray       # |G| x dim, columns are coset representatives
    gram: np.ndarray        # |G| x |G|
    projector: np.ndarray   # dim x |G|: raw coordinates -> quotient coords


@dataclass(eq=False)
class GnsRepresentation:
    space: GnsSpace
    ground: np.ndarray  # quotient coordinates of [1]

    def matrix_of(self, a: AlgebraElement) -> np.ndarray:
        """pi(a): left multiplication by ``a``, in quotient coordinates."""
        return self.space.projector @ regular_rep(a) @ self.space.basis


def gns_build(phi: CharacteristicFunction, tol=DEFAULT_TOL) -> GnsRepresentation:
    """Quotient by the Gelfand ideal (null eigenvectors of the Gram form),
    orthonormalize the rest, and represent by left multiplication."""
    g = phi.groupoid
    check = assert_state(phi, tol)
    gram = check.matrix
    eigvals, eigvecs = check.eigh
    cutoff = RANK_TOL * max(float(np.max(eigvals)), 1.0)
    keep = [k for k in range(len(eigvals)) if eigvals[k] > cutoff]
    keep.sort(key=lambda k: -eigvals[k])

    basis = np.zeros((g.order, len(keep)), dtype=complex)
    for col, k in enumerate(keep):
        v = eigvecs[:, k]
        nz = np.flatnonzero(np.abs(v) > 1e-10)
        if nz.size:  # deterministic phase: first sizable coordinate > 0
            v = v * (np.abs(v[nz[0]]) / v[nz[0]])
        basis[:, col] = v / np.sqrt(eigvals[k])

    projector = basis.conj().T @ gram
    space = GnsSpace(groupoid=g, dim=len(keep), basis=basis, gram=gram,
                     projector=projector)
    return GnsRepresentation(space=space,
                             ground=projector @ unit_element(g).coeffs)


def verify_reconstruction(phi: CharacteristicFunction,
                          tol=DEFAULT_TOL) -> float:
    """Max over transitions of |<0| pi(alpha) |0> - phi(alpha)|."""
    return gns_report(phi, tol)["reconstruction_max_error"]


# -- representations given as explicit matrices --------------------------


@dataclass(eq=False)
class RepMatrices:
    """A unitary representation presented by one matrix per transition."""

    groupoid: FiniteGroupoid
    matrices: dict[str, np.ndarray]
    dim: int

    def check(self, tol=DEFAULT_TOL):
        g = self.groupoid
        ts = g.transitions
        for t in ts:
            m = self.matrices.get(t)
            if m is None or m.shape != (self.dim, self.dim):
                raise GqmInputError("representation misses transition %r" % t)
        mats = [self.matrices[t] for t in ts]
        for o, i, r in zip(*g.composition_index()):
            dev = np.max(np.abs(mats[o] @ mats[i] - mats[r]))
            if dev > tol:
                raise MathPropertyError(
                    "not a homomorphism on (%r, %r): defect %.3e"
                    % (ts[o], ts[i], dev)
                )
        inv, unit = g.index_arrays()[2:]
        for t, m, k in zip(ts, mats, inv):
            dev = np.max(np.abs(mats[k] - m.conj().T))
            if dev > tol:
                raise MathPropertyError(
                    "star-compatibility fails at %r: defect %.3e" % (t, dev)
                )
        unit_sum = sum(mats[u] for u in unit)
        if np.max(np.abs(unit_sum - np.eye(self.dim))) > tol:
            raise MathPropertyError("unit transitions do not sum to identity")

    def apply(self, members, psi):
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.dim,):
            raise GqmInputError("vector dimension does not match the "
                                "representation")
        out = np.zeros(self.dim, dtype=complex)
        for m in members:
            out += self.matrices[self.groupoid.resolve(m)] @ psi
        return out


def fundamental_matrices(g: FiniteGroupoid) -> RepMatrices:
    mats = {
        t: fundamental_rep(AlgebraElement.basis(g, t)) for t in g.transitions
    }
    return RepMatrices(groupoid=g, matrices=mats, dim=len(g.events))


def gns_matrices(rep: GnsRepresentation) -> RepMatrices:
    """pi(t) for every transition t, tabulated from ``rep.matrix_of``."""
    g = rep.space.groupoid
    mats = {t: rep.matrix_of(AlgebraElement.basis(g, t))
            for t in g.transitions}
    return RepMatrices(groupoid=g, matrices=mats, dim=rep.space.dim)


def smeared_character(rep: RepMatrices, density,
                      tol=DEFAULT_TOL) -> CharacteristicFunction:
    """phi(alpha) = Tr(density . pi(alpha)); PSD by construction, which is
    re-checked before returning."""
    rep.check(tol)
    density = np.asarray(density, dtype=complex)
    if density.shape != (rep.dim, rep.dim):
        raise GqmInputError("density matrix dimension mismatch")
    if np.max(np.abs(density - density.conj().T)) > tol:
        raise GqmInputError("density matrix is not Hermitian")
    eigvals = np.linalg.eigvalsh(0.5 * (density + density.conj().T))
    if eigvals[0] < -tol:
        raise GqmInputError("density matrix is not PSD")
    if abs(np.trace(density).real - 1.0) > tol:
        raise GqmInputError("density matrix trace must be 1")

    g = rep.groupoid
    values = np.array([
        np.trace(density @ rep.matrices[t]) for t in g.transitions
    ])
    phi = CharacteristicFunction(g, values)
    check = is_positive_semidefinite(phi, tol)
    if not check.ok:
        raise MathPropertyError(
            "smeared character failed the PSD re-check "
            "(min eigenvalue %.3e)" % check.min_eigenvalue
        )
    return phi


def vector_valued_measure(rep: RepMatrices, psi, members) -> np.ndarray:
    """nu(A) = sum over alpha in A of pi(alpha) psi; finitely additive."""
    return rep.apply(members, psi)


# -- frame changes -------------------------------------------------------


@dataclass(eq=False)
class FrameChange:
    """A unitary on the event space, realizing an algebra automorphism of a
    connected pair groupoid through its fundamental representation."""

    unitary: np.ndarray

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=complex)
        n = self.unitary.shape[0]
        if self.unitary.shape != (n, n):
            raise GqmInputError("frame matrix must be square")
        if np.max(np.abs(self.unitary.conj().T @ self.unitary
                         - np.eye(n))) > DEFAULT_TOL:
            raise GqmInputError("frame matrix is not unitary")

    @property
    def dim(self):
        return self.unitary.shape[0]

    def adjoint(self):
        return FrameChange(self.unitary.conj().T)


def frame_compose(first: FrameChange, second: FrameChange) -> FrameChange:
    """The frame change realizing 'apply ``first``, then ``second``'."""
    if first.dim != second.dim:
        raise GqmInputError("frame dimensions do not match")
    return FrameChange(first.unitary @ second.unitary)


@dataclass
class TransformationResult:
    value: float                       # rho_a applied to the moved projector
    amplitude: complex                 # the GNS inner product <b|a> in H_a
    gns_basis: tuple[str, ...]         # transitions spanning H_a
    gns_vector: np.ndarray             # coordinates of |b> in that basis


def frame_transported_unit(g: FiniteGroupoid, fc: FrameChange,
                           b) -> AlgebraElement:
    """The algebra element whose fundamental matrix is U^dagger P_b U."""
    # one transition per ordered event pair: a pair groupoid is connected
    if not g.is_pair_groupoid():
        raise GqmInputError(
            "frame changes require a connected pair groupoid"
        )
    if fc.dim != len(g.events):
        raise GqmInputError("frame dimension does not match |events|")
    g.require_event(b)
    n = len(g.events)
    proj = np.zeros((n, n), dtype=complex)
    bi = g.event_index[b]
    proj[bi, bi] = 1.0
    mat = fc.unitary.conj().T @ proj @ fc.unitary
    return fundamental_rep_inverse(g, mat)


def transformation_function(g: FiniteGroupoid, fc: FrameChange, a,
                            b) -> TransformationResult:
    """Statistical link between outcome ``b`` in the moved frame and the
    simple state at ``a``: evaluates delta_state(a) on the transported unit
    of ``b`` and exposes the corresponding vector in the GNS space of a."""
    moved = frame_transported_unit(g, fc, b)
    x = g.event_index[g.require_event(a)]
    src, _, _, unit = g.index_arrays()

    # evaluate rho_a: the coefficient of the unit at a
    value = complex(moved.coeffs[unit[x]])
    if abs(value.imag) > DEFAULT_TOL:
        raise MathPropertyError("transported projector has non-real "
                                "diagonal: %r" % value)

    # H_a is the space of functions on the spray at a; the class of any
    # element is its coefficient restriction to that spray
    spray = np.flatnonzero(src == x)
    vec = moved.coeffs[spray]
    ground = (spray == unit[x]).astype(complex)
    amplitude = complex(np.vdot(vec, ground))
    return TransformationResult(
        value=value.real,
        amplitude=amplitude,
        gns_basis=tuple(g.transitions[k] for k in spray),
        gns_vector=vec,
    )


def gns_report(phi: CharacteristicFunction, tol=DEFAULT_TOL) -> dict:
    """The summary emitted by the CLI: dimension, tolerance, reconstruction
    error and ground norm."""
    rep = gns_build(phi, tol)
    space, g = rep.space, phi.groupoid
    # <0|pi(t)|0> sums left[t∘inner] right[inner] over the inner composable
    # with t, since left multiplication by t sends inner to t∘inner
    left = rep.ground.conj() @ space.projector
    right = space.basis @ rep.ground
    outer, inner, result = g.composition_index()
    terms = left[result] * right[inner]
    amps = scatter_add(outer, terms.real, terms.imag, g.order)
    return {
        "dim": space.dim,
        "gram_rank_tolerance": RANK_TOL,
        "reconstruction_max_error": float(np.max(np.abs(amps - phi.values))),
        "ground_norm": float(np.linalg.norm(rep.ground)),
    }


def delta_gns_dimension(g: FiniteGroupoid, x) -> int:
    """dim of the GNS space of the simple state at x (equals |spray(x)|)."""
    rep = gns_build(delta_state(g, x))
    return rep.space.dim
