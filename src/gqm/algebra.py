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
from .groupoid import FiniteGroupoid, finite, intake


@dataclass(eq=False)
class AlgebraElement:
    groupoid: FiniteGroupoid
    coeffs: np.ndarray  # complex, canonical transition order

    def __post_init__(self):
        self.coeffs = intake(self.coeffs, complex, (self.groupoid.order,),
                             "coefficient vector {} does not match |G| = %d"
                             % self.groupoid.order, "algebra coefficients")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dict(cls, g, values):
        """Build from {label: complex}; omitted labels are zero."""
        return cls(g, g.vector(values, complex))

    @classmethod
    def basis(cls, g, label):
        return cls.from_dict(g, {label: 1.0})

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        """The sum; an input error, not a warning, when it overflows."""
        self._check_same(other)
        with np.errstate(over="ignore"):
            return AlgebraElement(self.groupoid, self.coeffs + other.coeffs)

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
    return AlgebraElement(a.groupoid, convolve(a.groupoid, a.coeffs, b.coeffs))


def convolve(g: FiniteGroupoid, a, b):
    """`multiply` on coefficient vectors of length |G|, one matrix product
    per orbit, as the algebra of an orbit is M_m(C[H]): a -> a[gather[j]]
    is multiplicative (as `reproducing_deviations` reads it), so c[gather]
    = a[gather] @ b[gather], one batched product per stack.  Event k's
    block rows[k] is its orbit's row p with gather[j, p, 0] = rows[k, 0]."""
    out = np.empty(g.order, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in g.orbit_table():
            p = np.argmax(s.gather[s.orbit, :, 0] == s.rows[:, :1], axis=1)
            out[s.rows] = (a[s.gather] @ b[s.gather])[s.orbit, p]
    return finite(out, "the product has a coefficient",
                  "too large for floating point")


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
    src, tgt = g.index_arrays()[:2]
    x = g.require_event(a)
    return AlgebraElement(g, (src == x) & (tgt == x))


def spray_char(g: FiniteGroupoid, a, sign="+") -> AlgebraElement:
    if sign not in ("+", "-"):
        raise GqmInputError("spray sign must be '+' or '-'")
    ends = g.index_arrays()[0 if sign == "+" else 1]
    return AlgebraElement(g, ends == g.require_event(a))


# -- representations ----------------------------------------------------


def fundamental_rep(a: AlgebraElement) -> np.ndarray:
    """|events| x |events| matrix M[t(alpha), s(alpha)] += a_alpha."""
    g = a.groupoid
    src, tgt = g.index_arrays()[:2]
    n = len(g.events)
    # summed in canonical order, as a loop, with no floating-point warning
    at, mat = tgt * n + src, np.empty(n * n, dtype=complex)
    mat.real = np.bincount(at, a.coeffs.real, minlength=n * n)
    mat.imag = np.bincount(at, a.coeffs.imag, minlength=n * n)
    return finite(mat.reshape(n, n), "the fundamental representation has "
                  "an entry", "too large for floating point")


def fundamental_rep_inverse(g: FiniteGroupoid, mat) -> AlgebraElement:
    """Inverse of `fundamental_rep` on a pair groupoid, where it is a
    *-isomorphism onto the full matrix algebra."""
    if not g.is_pair_groupoid():
        raise GqmInputError("fundamental representation is only invertible "
                            "on pair groupoids")
    mat = intake(mat, complex, (len(g.events),) * 2, "matrix {} does not "
                 "match |events| = %d" % len(g.events), "matrix entries")
    src, tgt = g.index_arrays()[:2]
    return AlgebraElement(g, mat[tgt, src])


def regular_rep(a: AlgebraElement) -> np.ndarray:
    """|G| x |G| matrix of left multiplication: a dense view for tests,
    its column i the product of ``a`` and the basis element i."""
    g = a.groupoid
    return np.stack([convolve(g, a.coeffs, e)
                     for e in np.eye(g.order, dtype=complex)], axis=1)


def operator_norm(a: AlgebraElement) -> float:
    """C* norm: the largest 2-norm of a[gather] over the orbits, the
    faithful regular representation on one source block of each."""
    norms = [np.linalg.norm(a.coeffs[s.gather], 2, axis=(1, 2))
             for s in a.groupoid.orbit_table()]
    return float(finite(np.concatenate(norms), "the operator norm",
                        "is too large for floating point").max())
