"""End-to-end acceptance checks.

Each test prints one pass/fail line so a plain pytest run doubles as an
acceptance report (run with -s to see the lines live).
"""

import time
from itertools import combinations

import numpy as np
import pytest

from gqm.action import (
    action_from_potential,
    dynamical_state,
    extend_generator_action,
)
from gqm.algebra import AlgebraElement, fundamental_rep, involution, \
    multiply, regular_rep
from gqm.decoherence import decoherence_from_characteristic, interference, \
    interference_recursive_check, quantum_measure
from gqm.errors import ActionInconsistencyError
from gqm.examples import (
    build_qubit,
    corpus_groupoids,
    double_slit_action,
    double_slit_decoherence,
    double_slit_groupoid,
    qubit_decoherence,
    qubit_state,
)
from gqm.gns import FrameChange, frame_compose, gns_build, \
    transformation_function, verify_reconstruction
from gqm.groupoid import pair_groupoid
from gqm.states import delta_state, is_positive_semidefinite, \
    is_reproducing, random_state, transition_amplitude


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "criterion %d [%s] %s" % (number, status, label)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def random_element(g, rng):
    re = rng.uniform(-1, 1, size=g.order)
    im = rng.uniform(-1, 1, size=g.order)
    return AlgebraElement(g, re + 1j * im)


def test_criterion_1_qubit_matrix():
    start = time.perf_counter()
    g = build_qubit()
    worst = 0.0
    for S in (0.0, 0.4, 1.9, np.pi, -2.6):
        d = qubit_decoherence(g, S, "per-transition")
        # reference matrix per the published display; the library phase
        # convention is the mirror image, so compare at the negated angle
        Sp = -S
        z = np.exp(-1j * Sp) / 4
        expected = np.array([
            [0.25, 0, z, 0],
            [0, 0.25, 0, np.conj(z)],
            [np.conj(z), 0, 0.25, 0],
            [0, z, 0, 0.25],
        ])
        worst = max(worst, float(np.max(np.abs(d.matrix - expected))))
    elapsed = time.perf_counter() - start
    report(1, "qubit decoherence matrix", worst <= 1e-12 and elapsed < 0.1,
           "max dev %.2e, %.3fs" % (worst, elapsed))


def test_criterion_2_double_slit():
    start = time.perf_counter()
    delta = np.pi
    d = double_slit_decoherence(delta)
    mu = quantum_measure(d, ["alpha", "beta"])
    value, raw = mu.value, mu.raw_value
    z = np.exp(-1j * delta)
    expected = np.array([
        [1, z, 0, 0],
        [np.conj(z), 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ]) / 16
    dev = float(np.max(np.abs(d.matrix - expected)))
    ok = (d.labels == ("alpha", "beta", "alpha_bar", "beta_bar")
          and abs(raw) <= 1e-12 and value == 0.0 and dev <= 1e-12)
    elapsed = time.perf_counter() - start
    report(2, "double-slit dark fringe", ok and elapsed < 0.1,
           "mu=%.2e, matrix dev %.2e, %.3fs" % (raw, dev, elapsed))


def test_criterion_3_theorem_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(52)
    worst_eig = 0.0
    worst_rep = 0.0
    for k in range(100):
        n = 2 + k % 5
        g = pair_groupoid(["e%d" % j for j in range(n)])
        u = dict(zip(g.events, rng.normal(size=n)))
        phi = dynamical_state(action_from_potential(g, u), "idempotent")
        worst_eig = min(worst_eig,
                        is_positive_semidefinite(phi).min_eigenvalue)
        elem = phi.as_algebra_element()
        square = multiply(elem, elem)
        worst_rep = max(worst_rep,
                        float(np.max(np.abs(square.coeffs - elem.coeffs))))
    elapsed = time.perf_counter() - start
    ok = worst_eig >= -1e-10 and worst_rep <= 1e-10 and elapsed < 5.0
    report(3, "dynamical-state sweep (100 potentials)", ok,
           "min eig %.2e, max idempotency dev %.2e, %.2fs"
           % (worst_eig, worst_rep, elapsed))


def reproducing_corpus():
    from gqm.states import CharacteristicFunction

    rng = np.random.default_rng(4)
    states = []
    for n in range(2, 7):
        g = pair_groupoid(["e%d" % j for j in range(n)])
        u = dict(zip(g.events, rng.normal(size=n)))
        states.append(dynamical_state(action_from_potential(g, u),
                                      "idempotent"))
        states.append(CharacteristicFunction.from_dict(
            g, {x: 1.0 for x in g.units()}
        ))
    return states


def test_criterion_4_chapman_kolmogorov():
    worst = 0.0
    for phi in reproducing_corpus():
        assert is_reproducing(phi)
        g = phi.groupoid
        for a in g.events:
            for b in g.events:
                direct = transition_amplitude(phi, a, b)
                chained = sum(
                    transition_amplitude(phi, m, b)
                    * transition_amplitude(phi, a, m)
                    for m in g.events
                )
                worst = max(worst, abs(direct - chained))
    report(4, "Chapman-Kolmogorov for reproducing states", worst <= 1e-10,
           "max dev %.2e" % worst)


def test_criterion_5_grade_two():
    rng = np.random.default_rng(5)
    worst = 0.0
    recursive_ok = True
    for g in corpus_groupoids():
        d = decoherence_from_characteristic(random_state(g, rng))
        for triple in combinations(g.transitions, 3):
            worst = max(worst, abs(interference(d, [[t] for t in triple])))
        labels = list(g.transitions)
        if len(labels) >= 3:
            recursive_ok &= interference_recursive_check(
                d, [[labels[0]], [labels[1]], [labels[2]]]
            )
    # 1000 random disjoint triples of larger sets on the order-16 groupoid
    g = double_slit_groupoid()
    d = decoherence_from_characteristic(random_state(g, rng))
    labels = list(g.transitions)
    for _ in range(1000):
        picks = rng.permutation(len(labels))
        sizes = rng.integers(1, 4, size=3)
        cuts = np.concatenate([[0], np.cumsum(sizes)])
        sets = [[labels[i] for i in picks[cuts[k]:cuts[k + 1]]]
                for k in range(3)]
        worst = max(worst, abs(interference(d, sets)))
    report(5, "third-order interference vanishes",
           worst <= 1e-9 and recursive_ok,
           "max |I3| %.2e" % worst)


def test_criterion_6_reconstruction():
    rng = np.random.default_rng(6)
    worst = 0.0
    dims_ok = True
    for g in corpus_groupoids():
        for x in g.events:
            worst = max(worst, verify_reconstruction(delta_state(g, x)))
            rep = gns_build(delta_state(g, x))
            dims_ok &= rep.space.dim == len(g.g_plus(x))
    qb = build_qubit()
    for S in (0.3, 1.2, -2.0):
        worst = max(worst, verify_reconstruction(qubit_state(qb, S)))
    corpus = corpus_groupoids()
    for k in range(50):
        g = corpus[k % len(corpus)]
        worst = max(worst, verify_reconstruction(random_state(g, rng)))
    report(6, "GNS reconstruction", worst <= 1e-9 and dims_ok,
           "max error %.2e" % worst)


def test_criterion_7_representations():
    rng = np.random.default_rng(7)
    worst = 0.0
    for g in corpus_groupoids():
        for _ in range(100):
            a = random_element(g, rng)
            b = random_element(g, rng)
            for rep in (fundamental_rep, regular_rep):
                worst = max(worst, float(np.max(np.abs(
                    rep(multiply(a, b)) - rep(a) @ rep(b)
                ))))
                worst = max(worst, float(np.max(np.abs(
                    rep(involution(a)) - rep(a).conj().T
                ))))
    qb = build_qubit()
    m_alpha = fundamental_rep(AlgebraElement.basis(qb, "alpha"))
    m_inv = fundamental_rep(AlgebraElement.basis(qb, "alpha^-1"))
    basis_ok = (
        np.array_equal(fundamental_rep(AlgebraElement.basis(qb, "1_+")),
                       np.array([[1, 0], [0, 0]]))
        and np.array_equal(fundamental_rep(AlgebraElement.basis(qb, "1_-")),
                           np.array([[0, 0], [0, 1]]))
        and np.array_equal(m_inv, m_alpha.conj().T)
        and int(np.sum(np.abs(m_alpha))) == 1
    )
    report(7, "representation homomorphisms",
           worst <= 1e-12 and basis_ok, "max dev %.2e" % worst)


def test_criterion_8_transformation_duality():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (2, 3, 4):
        g = pair_groupoid(["e%d" % j for j in range(n)])
        for _ in range(20):
            w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, r = np.linalg.qr(w)
            fc = FrameChange(q * (np.diag(r) / np.abs(np.diag(r))))
            back = fc.adjoint()
            for a in g.events:
                for b in g.events:
                    fwd = transformation_function(g, fc, a, b)
                    rev = transformation_function(g, back, b, a)
                    worst = max(worst, abs(fwd.value - rev.value))
                    worst = max(worst,
                                abs(fwd.amplitude - np.conj(rev.amplitude)))
        # composition: tau_BC o tau_AB = tau_AC at the amplitude level
        f1 = FrameChange(np.eye(n))
        w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(w)
        f2 = FrameChange(q * (np.diag(r) / np.abs(np.diag(r))))
        composite = frame_compose(f1, f2)
        for a in g.events:
            for b in g.events:
                direct = transformation_function(g, composite, a, b)
                viaf2 = transformation_function(g, f2, a, b)
                worst = max(worst, abs(direct.value - viaf2.value))
                worst = max(worst,
                            abs(direct.amplitude - viaf2.amplitude))
    report(8, "transformation-function duality", worst <= 1e-10,
           "max dev %.2e" % worst)


def test_criterion_9_inconsistency_detected():
    delta = 1.234
    g = double_slit_groupoid()
    ga = double_slit_action(delta)
    try:
        extend_generator_action(g, ga)
    except ActionInconsistencyError as err:
        cycle_sum = sum(sign * ga.values[label]
                        for label, sign in err.cycle)
        ok = (abs(err.signed_sum - delta) <= 1e-12
              and abs(cycle_sum - delta) <= 1e-12)
        report(9, "double-slit action inconsistency detected", ok,
               "signed sum %.15g" % err.signed_sum)
        return
    report(9, "double-slit action inconsistency detected", False,
           "extension unexpectedly succeeded")


def test_criterion_2_cli_path(capsys):
    # the same dark fringe through the command-line surface
    from gqm.cli import main

    code = main(["example", "double-slit", "--delta",
                 "3.141592653589793", "--set", "alpha,beta"])
    out = capsys.readouterr().out
    import json

    assert code == 0
    assert json.loads(out)["measure"]["value"] == 0.0
