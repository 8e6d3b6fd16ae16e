"""GNS construction, smeared characters, vector-valued measures, and frame
changes.

From a state the construction yields: the null space of the state-induced
inner product on coefficient vectors (the Gelfand ideal), an orthonormal
basis of the quotient Hilbert space, representation matrices by left
multiplication, and the ground vector (the class of the algebra unit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import GqmInputError, MathPropertyError
from .groupoid import FiniteGroupoid, beyond, finite, intake, read_only
from .states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    assert_psd,
    assert_state,
    hermitian_part,
)

RANK_TOL = 1e-10


@dataclass(eq=False)
class GnsSpace:
    groupoid: FiniteGroupoid
    dim: int
    # the |G| x dim basis of coset representatives by rows: row t holds
    # entries[t] at columns[t], its target's columns, padded by (dim, 0)
    columns: np.ndarray
    entries: np.ndarray
    eigenvalues: np.ndarray  # dim, the Gram eigenvalue of each column


def _rows(space: GnsSpace, ts) -> np.ndarray:
    """Row i sums the basis rows ``ts[i]``, dense: (len(ts), dim)."""
    out = np.zeros((len(ts), space.dim + 1), dtype=complex)
    np.add.at(out, (np.arange(len(ts))[:, None, None], space.columns[ts]),
              space.entries[ts])
    return out[:, :-1]


@dataclass(eq=False)
class GnsRepresentation:
    space: GnsSpace
    ground: np.ndarray  # quotient coordinates of [1]

    def matrix_of(self, a: algebra.AlgebraElement) -> np.ndarray:
        """pi(a): left multiplication by ``a``, in quotient coordinates.  It
        sends the inner of each composable pair to the result, weighted by
        a's coefficient at the outer, in the parts of `composition_parts`."""
        space, g, mat = self.space, a.groupoid, None
        if g is not space.groupoid:
            raise GqmInputError("element and representation live on "
                                "different groupoids")
        # a part with no nonzero outer adds nothing, and the first part's
        # product starts the sum: a zeroed accumulator per call doubled
        # the time of `gns_matrices`
        for outer, inner, result in g.composition_parts(max(1, space.dim)):
            k = np.flatnonzero(a.coeffs[outer])[:, None]
            if k.size:
                left = _rows(space, result[k]) * space.eigenvalues
                term = left.conj().T @ (a.coeffs[outer[k]]
                                        * _rows(space, inner[k]))
                mat = term if mat is None else mat + term
        return np.zeros((space.dim,) * 2, complex) if mat is None else mat


def gns_build(phi: CharacteristicFunction, tol=DEFAULT_TOL) -> GnsRepresentation:
    """Quotient by the Gelfand ideal (null eigenvectors of the Gram form
    M(a, b) = delta(t(a), t(b)) phi(a^-1 ∘ b)), orthonormalize the rest,
    and represent by left multiplication."""
    g = phi.groupoid
    check = assert_state(phi, tol)
    top = max(float(np.max(vals)) for _, vals, _ in check.blocks)
    cutoff = RANK_TOL * max(top, 1.0)
    # kept eigenvector p of event k's b-block, the orbit's eigenvector p
    # over the event's translated rows: a column, at slot p - b + width of
    # each of its rows; `eigh` ascends, so the kept ones come last
    width = max(int(np.max(np.sum(vals > cutoff, axis=1)))
                for _, vals, _ in check.blocks)  # the most any event keeps
    kept = np.zeros((len(g.events), width))  # the eigenvalue of each column
    columns = np.full((g.order, width), -1)  # k * width + slot; -1: padding
    entries = np.zeros((g.order, width), dtype=complex)
    for s, vals, vecs in check.blocks:
        k, p = np.nonzero(vals[s.orbit] > cutoff)
        j, rows, vec = s.orbit[k], s.rows[k], vecs[s.orbit[k], :, p]
        slot = p - vals.shape[1] + width
        # phase: the first coordinate above 1e-10, in transition order, > 0
        first = np.where(np.abs(vec) > 1e-10, rows, g.order).argmin(axis=1)
        z = vec[np.arange(k.size), first, None]
        kept[s.events[k], slot] = vals[j, p]
        columns[rows, slot[:, None]] = (s.events[k] * width + slot)[:, None]
        # b^H M is lambda b^H: b = v/sqrt(lambda), M v = lambda v
        entries[rows, slot[:, None]] = vec * (np.abs(z) / z) / np.sqrt(
            vals[j, p, None])
    # by descending eigenvalue, ties in event order and then slot
    event, slot = np.nonzero(kept)
    order = np.lexsort((slot, event, -kept[event, slot]))
    number = np.full(kept.size + 1, order.size)  # padding: column dim
    number[(event * width + slot)[order]] = np.arange(order.size)
    space = GnsSpace(groupoid=g, dim=order.size, columns=number[columns],
                     entries=entries, eigenvalues=kept[event, slot][order])
    # [1] sums the units' rows
    return GnsRepresentation(space=space, ground=space.eigenvalues * _rows(
        space, g.index_arrays()[3][None])[0].conj())


# -- representations given as explicit matrices --------------------------

@dataclass(eq=False)
class RepMatrices:
    """A unitary representation presented by one matrix per transition:
    ``matrices[k]`` is pi of the k-th transition in canonical order, in
    one read-only (|G|, d, d) stack; a stack passed in is copied."""

    groupoid: FiniteGroupoid
    matrices: np.ndarray

    @classmethod
    def _own(cls, g: FiniteGroupoid, mats: np.ndarray) -> RepMatrices:
        """Wrap a (|G|, d, d) complex stack built here, without a copy."""
        rep = cls.__new__(cls)
        rep.groupoid, rep.matrices = g, read_only(mats)
        return rep

    def __post_init__(self):
        self.matrices = read_only(intake(
            self.matrices, complex, (self.groupoid.order, None, None),
            "a representation needs one d x d matrix per transition, not a "
            "stack {}", "representation matrices").copy())

    def check(self, tol=DEFAULT_TOL):
        """Raise on the first pair in `composition_index` order with
        pi(outer) pi(inner) != pi(outer∘inner), then on the first t with
        pi(t^-1) != pi(t)^H, then unless the units sum to the identity."""
        g, mats = self.groupoid, self.matrices
        ts = g.transitions
        inv, unit = g.index_arrays()[2:]
        # a product or sum of finite entries past the float range reads
        # inf or nan, and both are `beyond` any tolerance
        with np.errstate(over="ignore", invalid="ignore"):
            for o, i, r in g.composition_parts(mats[0].size):
                dev = np.max(np.abs(mats[o] @ mats[i] - mats[r]), axis=(1, 2))
                for j in beyond(dev, tol)[:1]:  # first in composition order
                    raise MathPropertyError(
                        "not a homomorphism on (%r, %r): defect %.3e"
                        % (ts[o[j]], ts[i[j]], dev[j]))
            dev = np.max(np.abs(mats[inv] - mats.conj().swapaxes(1, 2)),
                         axis=(1, 2))
            for t in beyond(dev, tol)[:1]:
                raise MathPropertyError(
                    "star-compatibility fails at %r: defect %.3e"
                    % (ts[t], dev[t]))
            identity = np.eye(mats.shape[1])
            if beyond(np.abs(mats[unit].sum(axis=0) - identity), tol).size:
                raise MathPropertyError(
                    "unit transitions do not sum to identity")

    def apply(self, members, psi):
        """nu(A) psi, the vector-valued measure of the set ``members``: the
        sum of pi(t) psi over its transitions; finitely additive."""
        psi = intake(psi, complex, self.matrices.shape[1:2], "vector "
                     "dimension does not match the representation",
                     "vector entries")
        at = [self.groupoid.index(m) for m in members]
        with np.errstate(over="ignore", invalid="ignore"):
            return finite(np.sum(self.matrices[at] @ psi, axis=0),
                          "nu(A) psi", "is too large for floating point")


def fundamental_matrices(g: FiniteGroupoid) -> RepMatrices:
    """The matrix unit E[t(a), s(a)] of every transition a."""
    src, tgt = g.index_arrays()[:2]
    n = len(g.events)
    mats = np.zeros((g.order, n, n), dtype=complex)
    mats[np.arange(g.order), tgt, src] = 1.0
    return RepMatrices._own(g, mats)


def gns_matrices(rep: GnsRepresentation) -> RepMatrices:
    """pi(t) of every transition t, by `matrix_of`."""
    g, dim = rep.space.groupoid, rep.space.dim
    mats = np.empty((g.order, dim, dim), dtype=complex)
    for t in range(g.order):
        mats[t] = rep.matrix_of(algebra.AlgebraElement(
            g, np.arange(g.order) == t))
    return RepMatrices._own(g, mats)


def smeared_character(rep: RepMatrices, density,
                      tol=DEFAULT_TOL) -> CharacteristicFunction:
    """phi(alpha) = Tr(density . pi(alpha)); PSD by construction, which is
    re-checked before returning."""
    rep.check(tol)
    density = intake(density, complex, rep.matrices.shape[1:],
                     "density matrix dimension mismatch",
                     "density matrix entries")
    herm, defect = hermitian_part(density)
    if defect > 0.5 * tol:
        raise GqmInputError("density matrix is not Hermitian")
    if np.linalg.eigvalsh(herm)[0] < -tol:
        raise GqmInputError("density matrix is not PSD")
    with np.errstate(over="ignore"):  # a trace that overflows is inf
        if abs(np.trace(density).real - 1.0) > tol:
            raise GqmInputError("density matrix trace must be 1")

    phi = CharacteristicFunction(rep.groupoid, np.einsum(
        "ij,tji->t", density, rep.matrices))
    assert_psd(phi, tol, "smeared character failed the PSD re-check")
    return phi


# -- frame changes -------------------------------------------------------


@dataclass(eq=False)
class FrameChange:
    """A unitary on the event space, realizing an algebra automorphism of a
    connected pair groupoid through its fundamental representation."""

    unitary: np.ndarray

    def __post_init__(self):
        u = self.unitary = intake(self.unitary, complex, (None, None),
                                  "frame matrix must be square and non-empty",
                                  "frame matrix entries")
        # |u_ij| <= 1 for a unitary: u^H u cannot overflow
        if np.max(np.abs(u)) > 1 + DEFAULT_TOL or np.max(
                np.abs(u.conj().T @ u - np.eye(self.dim))) > DEFAULT_TOL:
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
    value: float        # rho_a applied to the moved projector: |U[b, a]|^2
    amplitude: complex  # the GNS inner product <b|a> in H_a, the same number


def _frame_row(g: FiniteGroupoid, fc: FrameChange, b) -> np.ndarray:
    """Row ``b`` of U, once ``fc`` is known to act on ``g``."""
    # one transition per ordered event pair: a pair groupoid is connected
    if not g.is_pair_groupoid():
        raise GqmInputError("frame changes require a connected pair "
                            "groupoid")
    if fc.dim != len(g.events):
        raise GqmInputError("frame dimension does not match |events|")
    return fc.unitary[g.require_event(b)]


def transformation_function(g: FiniteGroupoid, fc: FrameChange, a,
                            b) -> TransformationResult:
    """Statistical link between outcome ``b`` in the moved frame and the
    simple state at ``a``: delta_state(a) on the transported unit of ``b``,
    its coefficient at the unit of ``a``, conj(U[b, a]) U[b, a].  In the GNS
    space of ``a`` (functions on the spray of ``a``), the class of that
    element against the ground vector is the same real number."""
    z = _frame_row(g, fc, b)[g.require_event(a)]
    value = float(z.real * z.real + z.imag * z.imag)
    return TransformationResult(value=value, amplitude=complex(value, 0.0))


def gns_report(phi: CharacteristicFunction, tol=DEFAULT_TOL) -> dict:
    """The summary emitted by the CLI: dimension, tolerance, reconstruction
    error and ground norm."""
    rep = gns_build(phi, tol)
    space, g = rep.space, phi.groupoid
    # basis @ (lambda ground) and basis @ ground, row by row
    left, right = (np.sum(space.entries * np.append(v, 0)[space.columns],
                          axis=1) for v in (space.eigenvalues * rep.ground,
                                            rep.ground))
    # <0|pi(t)|0> sums conj(left[t∘i]) right[i] over the i composable
    # with t: the product of left and right∘inv, as (t∘i)∘i^-1 = t
    inv = g.index_arrays()[2]
    amps = algebra.multiply(algebra.AlgebraElement(g, left.conj()),
                            algebra.AlgebraElement(g, right[inv])).coeffs
    return {
        "dim": space.dim,
        "gram_rank_tolerance": RANK_TOL,
        "reconstruction_max_error": float(np.max(np.abs(amps - phi.values))),
        "ground_norm": float(np.linalg.norm(rep.ground)),
    }

