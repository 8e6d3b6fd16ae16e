import numpy as np
import pytest

from conftest import random_element
from oracles import regular_rep_loop
from gqm.algebra import (
    AlgebraElement,
    fundamental_rep,
    fundamental_rep_inverse,
    incidence_element,
    involution,
    isotropy_char,
    multiply,
    operator_norm,
    regular_rep,
    spray_char,
    unit_element,
)
from gqm.errors import GqmInputError


def brute_force_product(g, a, b):
    """Oracle: enumerate every factorization outer∘inner = gamma directly."""
    out = np.zeros(g.order, dtype=complex)
    for outer in g.transitions:
        for inner in g.transitions:
            if (outer, inner) in g.composition:
                gamma = g.composition[(outer, inner)]
                out[g.transition_index[gamma]] += (
                    a.coeff(outer) * b.coeff(inner)
                )
    return out


def test_multiply_matches_brute_force(corpus, rng):
    for g in corpus:
        a = random_element(g, rng)
        b = random_element(g, rng)
        expected = brute_force_product(g, a, b)
        assert np.allclose(multiply(a, b).coeffs, expected, atol=0)


def test_unit_law(corpus, rng):
    for g in corpus:
        a = random_element(g, rng)
        e = unit_element(g)
        assert np.allclose(multiply(e, a).coeffs, a.coeffs)
        assert np.allclose(multiply(a, e).coeffs, a.coeffs)


def test_incidence_square(pair3):
    inc = incidence_element(pair3)
    sq = multiply(inc, inc)
    assert np.allclose(sq.coeffs, 3 * inc.coeffs)


def test_alpha_squared_is_zero(qubit):
    alpha = AlgebraElement.basis(qubit, "alpha")
    assert np.allclose(multiply(alpha, alpha).coeffs, 0)


def test_multiply_associative_on_basis(corpus):
    for g in corpus:
        if g.order > 9:
            continue
        basis = [AlgebraElement.basis(g, t) for t in g.transitions]
        for a in basis:
            for b in basis:
                ab = multiply(a, b)
                for c in basis:
                    lhs = multiply(ab, c)
                    rhs = multiply(a, multiply(b, c))
                    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=0)


def test_multiply_rejects_mismatched_groupoids(qubit, pair3, rng):
    with pytest.raises(GqmInputError):
        multiply(random_element(qubit, rng), random_element(pair3, rng))


def test_involution(qubit, rng):
    e = unit_element(qubit)
    assert np.allclose(involution(e).coeffs, e.coeffs)
    ia = AlgebraElement.from_dict(qubit, {"alpha": 1j})
    assert involution(ia).coeff("alpha^-1") == pytest.approx(-1j)
    a = random_element(qubit, rng)
    b = random_element(qubit, rng)
    lhs = involution(multiply(a, b))
    rhs = multiply(involution(b), involution(a))
    assert np.allclose(lhs.coeffs, rhs.coeffs)
    assert np.allclose(involution(involution(a)).coeffs, a.coeffs)


def test_distinguished_elements(qubit, pair3):
    assert list(unit_element(qubit).coeffs) == [1, 1, 0, 0]
    inc = incidence_element(pair3)
    assert np.allclose(involution(inc).coeffs, inc.coeffs)
    assert np.allclose(
        isotropy_char(pair3, "a").coeffs,
        AlgebraElement.basis(pair3, "1_a").coeffs,
    )
    assert spray_char(qubit, "-", "+").coeff("alpha") == 1
    assert spray_char(qubit, "+", "-").coeff("alpha") == 1
    with pytest.raises(GqmInputError):
        spray_char(qubit, "+", "x")


def test_fundamental_rep_qubit_basis(qubit):
    # basis order (+, -); alpha: - -> + lands in row +, column -
    assert np.array_equal(
        fundamental_rep(AlgebraElement.basis(qubit, "1_+")),
        np.array([[1, 0], [0, 0]]),
    )
    assert np.array_equal(
        fundamental_rep(AlgebraElement.basis(qubit, "1_-")),
        np.array([[0, 0], [0, 1]]),
    )
    m_alpha = fundamental_rep(AlgebraElement.basis(qubit, "alpha"))
    m_inv = fundamental_rep(AlgebraElement.basis(qubit, "alpha^-1"))
    assert np.array_equal(m_alpha, np.array([[0, 1], [0, 0]]))
    assert np.array_equal(m_inv, m_alpha.conj().T)


def test_fundamental_rep_homomorphism(corpus, rng):
    for g in corpus:
        for _ in range(20):
            a = random_element(g, rng)
            b = random_element(g, rng)
            lhs = fundamental_rep(multiply(a, b))
            rhs = fundamental_rep(a) @ fundamental_rep(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            star = fundamental_rep(involution(a))
            assert np.max(np.abs(star - fundamental_rep(a).conj().T)) <= 1e-12


def test_fundamental_rep_special_values(qubit, pair3):
    assert np.allclose(fundamental_rep(unit_element(qubit)), np.eye(2))
    assert np.allclose(fundamental_rep(incidence_element(pair3)),
                       np.ones((3, 3)))


def test_fundamental_rep_inverse_roundtrip(pair3, rng):
    a = random_element(pair3, rng)
    mat = fundamental_rep(a)
    back = fundamental_rep_inverse(pair3, mat)
    assert np.allclose(back.coeffs, a.coeffs)


def test_fundamental_rep_inverse_needs_pair(z3):
    with pytest.raises(GqmInputError):
        fundamental_rep_inverse(z3, np.eye(1))


def test_regular_rep(corpus, rng):
    for g in corpus:
        assert np.allclose(regular_rep(unit_element(g)), np.eye(g.order))
        for t in g.transitions:
            basis = AlgebraElement.basis(g, t)
            assert np.array_equal(regular_rep(basis), regular_rep_loop(basis))
        for _ in range(10):
            a = random_element(g, rng)
            b = random_element(g, rng)
            assert np.array_equal(regular_rep(a), regular_rep_loop(a))
            lhs = regular_rep(multiply(a, b))
            rhs = regular_rep(a) @ regular_rep(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            star = regular_rep(involution(a))
            assert np.max(np.abs(star - regular_rep(a).conj().T)) <= 1e-12


def test_regular_rep_z2_swap():
    from gqm.examples import cyclic_group_groupoid

    g = cyclic_group_groupoid(2)
    flip = AlgebraElement.basis(g, "g1")
    assert np.array_equal(regular_rep(flip), np.array([[0, 1], [1, 0]]))


def test_operator_norm(qubit):
    assert operator_norm(unit_element(qubit)) == pytest.approx(1.0)
    assert operator_norm(AlgebraElement.basis(qubit, "1_+")) == pytest.approx(1.0)
    assert operator_norm(AlgebraElement.basis(qubit, "alpha")) == pytest.approx(1.0)
