"""Plain loop versions of the vectorized kernels in ``gqm``: the oracles
the property tests in ``test_oracles.py`` compare them with.

Each one follows the definition directly, over labels and dicts, and reads
nothing the kernel it checks computes (the GNS products take the basis and
projector of the space they check).
"""

import numpy as np

from gqm.action import action_from_potential, dynamical_state
from gqm.groupoid import ValidationReport, pair_groupoid
from gqm.states import DEFAULT_TOL, PsdCheck, reproducing_deviation


def validate_loop(g):
    """Every groupoid axiom checked label by label, in loop order."""
    rep = ValidationReport()

    def bad(msg):
        rep.violations.append(msg)

    tset = set(g.transitions)
    for t in g.transitions:
        rep.checks += 1
        if g.source.get(t) not in g.event_index:
            bad("transition %r has invalid source %r" % (t, g.source.get(t)))
        if g.target.get(t) not in g.event_index:
            bad("transition %r has invalid target %r" % (t, g.target.get(t)))
        if g.inverse.get(t) not in tset:
            bad("transition %r has no inverse" % t)
    if rep.violations:
        return rep

    for x in g.events:
        rep.checks += 1
        u = g.unit_of.get(x)
        if u not in tset:
            bad("event %r has no unit transition" % x)
        elif g.source[u] != x or g.target[u] != x:
            bad("unit %r of event %r is not a loop at it" % (u, x))
    if rep.violations:
        return rep

    # composition domain: defined iff composable
    for o in g.transitions:
        for i in g.transitions:
            rep.checks += 1
            defined = (o, i) in g.composition
            should = g.composable(o, i)
            if defined and not should:
                bad("compose(%r, %r) defined but endpoints mismatch" % (o, i))
            elif should and not defined:
                bad("compose(%r, %r) missing" % (o, i))
            elif defined:
                r = g.composition[(o, i)]
                if r not in tset:
                    bad("compose(%r, %r) = %r is not a transition" % (o, i, r))
                elif (g.source[r] != g.source[i]) or (g.target[r] != g.target[o]):
                    bad(
                        "compose(%r, %r) = %r has wrong endpoints" % (o, i, r)
                    )
    if rep.violations:
        return rep

    # unit laws
    for a in g.transitions:
        rep.checks += 2
        if g.composition[(a, g.unit_of[g.source[a]])] != a:
            bad("right unit law fails at %r" % a)
        if g.composition[(g.unit_of[g.target[a]], a)] != a:
            bad("left unit law fails at %r" % a)

    # inverse laws
    for a in g.transitions:
        rep.checks += 3
        inv = g.inverse[a]
        if g.source[inv] != g.target[a] or g.target[inv] != g.source[a]:
            bad("inverse of %r has wrong endpoints" % a)
            continue
        if g.composition[(inv, a)] != g.unit_of[g.source[a]]:
            bad("inverse law fails: %r^-1 o %r != unit at source" % (a, a))
        if g.composition[(a, inv)] != g.unit_of[g.target[a]]:
            bad("inverse law fails: %r o %r^-1 != unit at target" % (a, a))
        if g.inverse[inv] != a:
            bad("inverse is not involutive at %r" % a)

    # associativity on all composable triples
    for c in g.transitions:
        for b in g.transitions:
            if not g.composable(b, c):
                continue
            bc = g.composition[(b, c)]
            for a in g.transitions:
                if not g.composable(a, b):
                    continue
                rep.checks += 1
                ab = g.composition[(a, b)]
                if g.composition[(a, bc)] != g.composition[(ab, c)]:
                    bad(
                        "associativity fails on triple (%r, %r, %r)" % (a, b, c)
                    )
    return rep


def orbits_loop(g):
    """The orbits, each grown from the first event not yet placed."""
    remaining = set(g.events)
    parts = []
    for x in g.events:
        if x in remaining:
            orb = g.orbit(x)
            parts.append(orb)
            remaining -= orb
    return parts


def invariance_matrix_loop(phi):
    """M(a, b) = delta(t(a), t(b)) phi(a^-1 ∘ b), entry by entry."""
    g = phi.groupoid
    mat = np.zeros((g.order, g.order), dtype=complex)
    for a in g.transitions:
        for b in g.transitions:
            if g.target[a] == g.target[b]:
                comp = g.composition[(g.inverse[a], b)]
                mat[g.transition_index[a], g.transition_index[b]] = (
                    phi.values[g.transition_index[comp]])
    return mat


def psd_full(phi, tol):
    """(ok, hermitian, eigenvalues) from one eigensolve of the whole
    invariance matrix."""
    mat = invariance_matrix_loop(phi)
    herm = bool(np.max(np.abs(mat - mat.conj().T)) <= tol)
    eigvals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    return herm and eigvals[0] >= -tol, herm, eigvals


def psd_blocks_loop(phi, tol):
    """The PSD check with one ``eigh`` call per target block, block after
    block in event order, assembled at full size as `PsdCheck` lays it
    out: block x takes the next |G^x| columns."""
    g = phi.groupoid
    mat = invariance_matrix_loop(phi)
    eigvals = np.zeros(g.order)
    eigvecs = np.zeros((g.order, g.order), dtype=complex)
    defect = 0.0
    start = 0
    for x in g.events:
        idx = np.array([g.transition_index[t] for t in g.transitions
                        if g.target[t] == x])
        half = 0.5 * mat[np.ix_(idx, idx)]
        half_h = half.conj().T
        defect = max(defect, float(np.max(np.abs(half - half_h))))
        cols = slice(start, start + idx.size)
        eigvals[cols], eigvecs[idx, cols] = np.linalg.eigh(half + half_h)
        start += idx.size
    herm = defect <= 0.5 * tol
    k = int(np.argmin(eigvals))
    ok = herm and eigvals[k] >= -tol
    witness = None
    if not ok:
        witness = [(t, complex(eigvecs[i, k]))
                   for i, t in enumerate(g.transitions)
                   if abs(eigvecs[i, k]) > 1e-14]
    return PsdCheck(ok=ok, hermitian=herm, min_eigenvalue=float(eigvals[k]),
                    witness=witness, matrix=mat, eigh=(eigvals, eigvecs))


def sweep_loop(n, trials, seed, tol):
    """``gqm sweep thm52`` trial by trial, each on a freshly built pair
    groupoid: (min eigenvalue, max reproducing deviation, ok)."""
    rng = np.random.default_rng(seed)
    worst_eig, worst_rep = np.inf, -np.inf
    for k in range(trials):
        n_events = 2 + k % (n - 1)
        g = pair_groupoid(["e%d" % j for j in range(n_events)])
        u = dict(zip(g.events, rng.normal(size=n_events).tolist()))
        phi = dynamical_state(action_from_potential(g, u), "idempotent")
        worst_eig = min(worst_eig,
                        psd_blocks_loop(phi, DEFAULT_TOL).min_eigenvalue)
        worst_rep = max(worst_rep, reproducing_deviation(phi))
    return worst_eig, worst_rep, worst_eig >= -tol and worst_rep <= tol


def gns_dim_full(phi, rank_tol):
    """GNS dimension: eigenvalues of the whole Gram matrix above
    ``rank_tol`` times max(largest eigenvalue, 1)."""
    eigvals = psd_full(phi, 1.0)[2]
    return int(np.sum(eigvals > rank_tol * max(eigvals[-1], 1.0)))


def regular_rep_loop(a):
    """M[r, i] summed over every composable pair o∘i = r."""
    g = a.groupoid
    ix = g.transition_index
    mat = np.zeros((g.order, g.order), dtype=complex)
    for (o, i), r in g.composition.items():
        mat[ix[r], ix[i]] += a.coeffs[ix[o]]
    return mat


def gns_matrices_dense(space):
    """projector @ L_t @ basis for every transition t, with L_t the dense
    regular representation of t."""
    from gqm.algebra import AlgebraElement

    g = space.groupoid
    return {t: space.projector
            @ regular_rep_loop(AlgebraElement.basis(g, t)) @ space.basis
            for t in g.transitions}


def multiply_loop(a, b):
    """(a.b)(r) accumulated over the composition table in its order."""
    g = a.groupoid
    ix = g.transition_index
    out = np.zeros(g.order, dtype=complex)
    for (o, i), r in g.composition.items():
        out[ix[r]] += a.coeffs[ix[o]] * b.coeffs[ix[i]]
    return out


def is_action_loop(s, tol):
    """(ok, violations) of the unit, inversion and additivity laws."""
    g = s.groupoid
    violations = []
    for x in g.events:
        v = s.value(g.unit_of[x])
        if abs(v) > tol:
            violations.append("unit value s(%r) = %.17g != 0"
                              % (g.unit_of[x], v))
    for t in g.transitions:
        v = s.value(t) + s.value(g.inverse[t])
        if abs(v) > tol:
            violations.append(
                "inversion law fails: s(%r) + s(%r) = %.17g"
                % (t, g.inverse[t], v)
            )
    ix = g.transition_index
    for (o, i), r in g.composition.items():
        dev = s.values[ix[r]] - s.values[ix[o]] - s.values[ix[i]]
        if abs(dev) > tol:
            violations.append(
                "additivity fails on (%r, %r): deviation %.17g" % (o, i, dev)
            )
    return (not violations), violations


def involution_loop(a):
    """a*: conj(a_t) placed at t^-1, transition by transition."""
    g = a.groupoid
    out = np.zeros(g.order, dtype=complex)
    for t in g.transitions:
        i = g.transition_index[t]
        out[g.transition_index[g.inverse[t]]] = np.conj(a.coeffs[i])
    return out


def fundamental_rep_loop(a):
    """M[t(alpha), s(alpha)] += a_alpha, in canonical order."""
    g = a.groupoid
    n = len(g.events)
    mat = np.zeros((n, n), dtype=complex)
    for t in g.transitions:
        i = g.transition_index[t]
        mat[g.event_index[g.target[t]], g.event_index[g.source[t]]] += (
            a.coeffs[i])
    return mat


def is_invariant_loop(d, tol):
    """D(alpha∘beta, alpha∘beta') = D(beta, beta') over every alpha and
    every pair beta, beta' composable with it."""
    g = d.groupoid
    ix = g.transition_index
    for alpha in g.transitions:
        for beta in g.transitions:
            if not g.composable(alpha, beta):
                continue
            ab = g.composition[(alpha, beta)]
            for beta2 in g.transitions:
                if not g.composable(alpha, beta2):
                    continue
                ab2 = g.composition[(alpha, beta2)]
                if abs(d.matrix[ix[ab], ix[ab2]]
                       - d.matrix[ix[beta], ix[beta2]]) > tol:
                    return False
    return True


def bivariate_values_loop(d):
    """phi(alpha) = D(1_{t(alpha)}, alpha), transition by transition."""
    g = d.groupoid
    values = np.zeros(g.order, dtype=complex)
    for t in g.transitions:
        values[g.transition_index[t]] = d.entry(g.unit_of[g.target[t]], t)
    return values


def target_block_violation_loop(d, tol):
    """The first pair of labels, in row-major order, whose targets differ
    and whose entry exceeds ``tol``; None if there is none."""
    g = d.groupoid
    m = d.matrix
    target = [g.target[g.resolve(lab)] for lab in d.labels]
    for i, a in enumerate(d.labels):
        for j, b in enumerate(d.labels):
            if target[i] != target[j] and abs(m[i, j]) > tol:
                return a, b
    return None
