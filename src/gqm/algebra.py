"""The complex groupoid algebra and its matrix representations.

Elements are dense complex coefficient vectors over the canonical
transition ordering.  The same carrier serves the function algebra: for
finite groupoids the convolution product coincides coefficient-wise with
the formal linear-combination product.

Matrix conventions: the fundamental representation is an |events| x
|events| matrix with rows indexed by *target* and columns by *source*, so
that matrix products realize the algebra product (pi(a.b) = pi(a)pi(b)) and
pi(a*) is the conjugate transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GqmInputError
from .groupoid import FiniteGroupoid


@dataclass(eq=False)
class AlgebraElement:
    groupoid: FiniteGroupoid
    coeffs: np.ndarray  # complex, canonical transition order

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.groupoid.order,):
            raise GqmInputError(
                "coefficient vector length %d does not match |G| = %d"
                % (self.coeffs.size, self.groupoid.order)
            )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dict(cls, g, values):
        """Build from {label: complex}; omitted labels are zero."""
        return cls(g, g.vector(values, complex))

    @classmethod
    def basis(cls, g, label):
        return cls.from_dict(g, {label: 1.0})

    @classmethod
    def zero(cls, g):
        return cls(g, np.zeros(g.order, dtype=complex))

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement(self.groupoid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same(other)
        return AlgebraElement(self.groupoid, self.coeffs - other.coeffs)

    def scale(self, scalar):
        return AlgebraElement(self.groupoid, scalar * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    __rmul__ = scale

    def coeff(self, label):
        return complex(self.coeffs[self.groupoid.index(label)])

    def _check_same(self, other):
        if other.groupoid is not self.groupoid:
            raise GqmInputError("algebra elements live on different groupoids")

    def star(self):
        return involution(self)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution / formal product: (a.b)(gamma) = sum over
    outer∘inner = gamma of a(outer) b(inner)."""
    a._check_same(b)
    g = a.groupoid
    outer, inner, result = g.composition_index()
    x, y = a.coeffs[outer], b.coeffs[inner]
    # the textbook complex product, term by term: numpy's vectorized one
    # may fuse multiply-adds and round differently
    with np.errstate(over="ignore", invalid="ignore"):
        out = scatter_add(result, x.real * y.real - x.imag * y.imag,
                          x.real * y.imag + x.imag * y.real, g.order)
    if not np.all(np.isfinite(out)):
        raise GqmInputError("the product has a coefficient too large for "
                            "floating point")
    return AlgebraElement(g, out)


def scatter_add(index, re, im, n):
    """Complex vector of length n with (re + i im)[k] added at index[k],
    in the order of k."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(index, re, minlength=n)
    out.imag = np.bincount(index, im, minlength=n)
    return out


def involution(a: AlgebraElement) -> AlgebraElement:
    """a* = sum of conj(a_alpha) alpha^-1."""
    g = a.groupoid
    inv = g.index_arrays()[2]  # an involution, so a*[k] = conj(a[inv[k]])
    return AlgebraElement(g, np.conj(a.coeffs[inv]))


# -- distinguished elements ---------------------------------------------


def unit_element(g: FiniteGroupoid) -> AlgebraElement:
    coeffs = np.zeros(g.order, dtype=complex)
    coeffs[g.index_arrays()[3]] = 1.0
    return AlgebraElement(g, coeffs)


def incidence_element(g: FiniteGroupoid) -> AlgebraElement:
    return AlgebraElement(g, np.ones(g.order, dtype=complex))


def isotropy_char(g: FiniteGroupoid, a) -> AlgebraElement:
    return AlgebraElement.from_dict(g, {t: 1.0 for t in g.isotropy(a)})


def spray_char(g: FiniteGroupoid, a, sign="+") -> AlgebraElement:
    if sign not in ("+", "-"):
        raise GqmInputError("spray sign must be '+' or '-'")
    members = g.g_plus(a) if sign == "+" else g.g_minus(a)
    return AlgebraElement.from_dict(g, {t: 1.0 for t in members})


# -- representations ----------------------------------------------------


def fundamental_rep(a: AlgebraElement) -> np.ndarray:
    """|events| x |events| matrix M[t(alpha), s(alpha)] += a_alpha."""
    g = a.groupoid
    src, tgt = g.index_arrays()[:2]
    n = len(g.events)
    mat = np.zeros((n, n), dtype=complex)
    np.add.at(mat, (tgt, src), a.coeffs)  # in canonical order, as a loop
    return mat


def fundamental_rep_inverse(g: FiniteGroupoid, mat) -> AlgebraElement:
    """Inverse of `fundamental_rep` on a pair groupoid, where it is a
    *-isomorphism onto the full matrix algebra."""
    if not g.is_pair_groupoid():
        raise GqmInputError("fundamental representation is only invertible "
                            "on pair groupoids")
    mat = np.asarray(mat, dtype=complex)
    n = len(g.events)
    if mat.shape != (n, n):
        raise GqmInputError("matrix shape %r does not match |events| = %d"
                            % (mat.shape, n))
    src, tgt = g.index_arrays()[:2]
    return AlgebraElement(g, mat[tgt, src])


def regular_rep(a: AlgebraElement) -> np.ndarray:
    """|G| x |G| matrix of left multiplication on coefficient vectors."""
    g = a.groupoid
    outer, inner, result = g.composition_index()
    mat = np.zeros((g.order, g.order), dtype=complex)
    # each (result, inner) cell comes from exactly one composable pair
    mat[result, inner] = a.coeffs[outer]
    return mat


def operator_norm(a: AlgebraElement) -> float:
    """C* norm via the (always faithful) regular representation."""
    return float(np.linalg.norm(regular_rep(a), 2))
