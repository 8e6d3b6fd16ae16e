"""Plain loop versions of the vectorized kernels in ``gqm``: the oracles
the property tests in ``test_oracles.py`` compare them with.

Each one follows the definition directly, over labels and dicts, and reads
nothing the kernel it checks computes (the GNS products take the basis and
projector of the space they check).  `interference_recursive_check`
recombines lower interference orders instead.
"""

from collections import deque

import numpy as np

from gqm.action import action_from_potential, dynamical_state
from gqm.decoherence import interference, normalization_scale
from gqm.errors import GqmInputError
from gqm.groupoid import (
    ValidationReport,
    pair_groupoid,
    pair_label,
    unit_label,
)
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


def pair_tables_loop(components):
    """The label tables of the disjoint union of the pair groupoids on
    ``components`` (lists of events), filled pair by pair: (transitions,
    source, target, unit_of, inverse, composition), transitions in
    generation order and composition keyed (outer, inner) by component,
    then x, y, w for (x -> y)∘(w -> x).  A generated label that repeats
    an earlier one is an input error naming both event pairs."""
    source, target, unit_of, inverse, composition = {}, {}, {}, {}, {}
    for comp in components:
        by_pair = {}
        for x in comp:
            for y in comp:
                lab = unit_label(x) if x == y else pair_label(x, y)
                if lab in source:
                    raise GqmInputError(
                        "event pairs %r and %r both generate the label %r"
                        % ((source[lab], target[lab]), (x, y), lab))
                source[lab], target[lab] = x, y
                by_pair[(x, y)] = lab
        for x in comp:
            unit_of[x] = by_pair[(x, x)]
        for (x, y), lab in by_pair.items():
            inverse[lab] = by_pair[(y, x)]
        for (x, y), outer in by_pair.items():
            for w in comp:
                composition[(outer, by_pair[(w, x)])] = by_pair[(w, y)]
    return list(source), source, target, unit_of, inverse, composition


def quiver_tables_loop(events, arrows):
    """`pair_tables_loop` on the (undirected) components of a quiver,
    found breadth first, in the order of their first events, plus the
    arrow aliases; an arrow label that names a different transition is an
    input error."""
    adjacency = {x: set() for x in events}
    for _, src, tgt in arrows:
        adjacency[src].add(tgt)
        adjacency[tgt].add(src)
    components, remaining = [], set(events)
    for x in events:
        if x not in remaining:
            continue
        comp, queue = [], deque([x])
        remaining.discard(x)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in sorted(adjacency[v]):
                if w in remaining:
                    remaining.discard(w)
                    queue.append(w)
        components.append(sorted(comp, key=events.index))
    tables = pair_tables_loop(components)
    aliases = {}
    for label, src, tgt in arrows:
        pair = unit_label(src) if src == tgt else pair_label(src, tgt)
        if label in tables[1] and label != pair:
            raise GqmInputError(
                "arrow label %r collides with a different transition" % label)
        aliases[label] = pair
    return tables + (aliases,)


def g_plus_loop(g, x):
    """The transitions out of x."""
    return frozenset(t for t in g.transitions if g.source[t] == x)


def g_minus_loop(g, y):
    """The transitions into y."""
    return frozenset(t for t in g.transitions if g.target[t] == y)


def isotropy_loop(g, x):
    return g_plus_loop(g, x) & g_minus_loop(g, x)


def hom_set_loop(g, x, y):
    """The transitions x -> y."""
    return frozenset(t for t in g.transitions
                     if g.source[t] == x and g.target[t] == y)


def orbit_loop(g, x):
    """The targets of the transitions out of x."""
    return frozenset(g.target[t] for t in g.transitions if g.source[t] == x)


def transition_amplitude_loop(phi, a, b):
    """Sum of phi over the transitions a -> b, in label order."""
    return complex(sum(phi.value(t)
                       for t in sorted(hom_set_loop(phi.groupoid, a, b))))


def observable_amplitude_loop(f, a_to, a_from):
    """Sum of the coefficients of f over a_from -> a_to, in label order."""
    return complex(sum(f.coeff(t)
                       for t in sorted(hom_set_loop(f.groupoid, a_from, a_to))))


def orbits_loop(g):
    """The orbits, each grown from the first event not yet placed."""
    remaining = set(g.events)
    parts = []
    for x in g.events:
        if x in remaining:
            orb = orbit_loop(g, x)
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


def orbit_blocks_loop(g):
    """Per orbit, in the order of first events: its events in event order
    and, for each event y, the labels of its target block in translated
    order: gamma ∘ a for a over the first event's block in canonical
    order, with gamma the first transition from the first event to y in
    canonical order."""
    parts = []
    for orb in orbits_loop(g):
        events = [x for x in g.events if x in orb]
        block = [t for t in g.transitions if g.target[t] == events[0]]
        rows = []
        for y in events:
            gamma = next(t for t in g.transitions
                         if g.source[t] == events[0] and g.target[t] == y)
            rows.append([g.composition[(gamma, a)] for a in block])
        parts.append((events, rows))
    return parts


def psd_orbits_loop(phi, tol):
    """The PSD check with one ``eigh`` call per orbit, on the block of its
    first event, orbit after orbit: the `PsdCheck` without its blocks, and
    per orbit (events, translated rows, eigenvalues, eigenvectors) as in
    `orbit_blocks_loop`.  The witness is the eigenvector of the least
    eigenvalue of the first orbit that has it."""
    g = phi.groupoid
    mat = invariance_matrix_loop(phi)
    ix = g.transition_index
    defect = 0.0
    spectra = []
    for events, rows in orbit_blocks_loop(g):
        idx = [ix[t] for t in rows[0]]
        half = 0.5 * mat[np.ix_(idx, idx)]
        half_h = half.conj().T
        defect = max(defect, float(np.max(np.abs(half - half_h))))
        spectra.append((events, rows, *np.linalg.eigh(half + half_h)))
    herm = defect <= 0.5 * tol
    least = min(vals[0] for _, _, vals, _ in spectra)
    ok = herm and least >= -tol
    witness = None
    if not ok:
        _, rows, _, vecs = next(s for s in spectra if s[2][0] == least)
        witness = [(t, complex(vecs[p, 0])) for p, t in enumerate(rows[0])
                   if abs(vecs[p, 0]) > 1e-14]
    check = PsdCheck(ok=ok, hermitian=herm, min_eigenvalue=float(least),
                     witness=witness)
    return check, spectra


def assembled(g, spectra):
    """The eigendecomposition of the whole matrix from `psd_orbits_loop`
    spectra: block x takes the next |G^x| columns, in event order, and
    its orbit's eigenvectors over its translated rows."""
    ix = g.transition_index
    block_of = {x: (rows, vals, vecs) for events, all_rows, vals, vecs
                in spectra for x, rows in zip(events, all_rows)}
    eigvals = np.zeros(g.order)
    eigvecs = np.zeros((g.order, g.order), dtype=complex)
    start = 0
    for x in g.events:
        rows, vals, vecs = block_of[x]
        cols = slice(start, start + len(rows))
        eigvals[cols] = vals
        eigvecs[[ix[t] for t in rows], cols] = vecs
        start += len(rows)
    return eigvals, eigvecs


def gns_basis_loop(eigvals, eigvecs, rank_tol):
    """The GNS basis from the assembled eigendecomposition: the columns
    above ``rank_tol`` times max(largest eigenvalue, 1), by descending
    eigenvalue (ties in column order), each with its first coordinate
    above 1e-10 made positive and scaled to unit Gram norm."""
    cutoff = rank_tol * max(float(np.max(eigvals)), 1.0)
    keep = sorted((k for k in range(len(eigvals)) if eigvals[k] > cutoff),
                  key=lambda k: -eigvals[k])
    basis = np.zeros((len(eigvals), len(keep)), dtype=complex)
    for col, k in enumerate(keep):
        v = eigvecs[:, k]
        nz = np.flatnonzero(np.abs(v) > 1e-10)
        if nz.size:
            v = v * (np.abs(v[nz[0]]) / v[nz[0]])
        basis[:, col] = v / np.sqrt(eigvals[k])
    return basis


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
                        psd_orbits_loop(phi, DEFAULT_TOL)[0].min_eigenvalue)
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


def rep_check_loop(rep, tol):
    """The message of the first law of a `RepMatrices` that fails: the
    homomorphism law pair by pair in the order of the composition table,
    then the star law transition by transition, then the unit sum; None
    when all hold."""
    g = rep.groupoid
    mats = {t: rep.matrices[g.transition_index[t]] for t in g.transitions}
    for (o, i), r in g.composition.items():
        dev = np.max(np.abs(mats[o] @ mats[i] - mats[r]))
        if dev > tol:
            return "not a homomorphism on (%r, %r): defect %.3e" % (o, i, dev)
    for t in g.transitions:
        dev = np.max(np.abs(mats[g.inverse[t]] - mats[t].conj().T))
        if dev > tol:
            return "star-compatibility fails at %r: defect %.3e" % (t, dev)
    unit_sum = sum(mats[g.unit_of[x]] for x in g.events)
    if np.max(np.abs(unit_sum - np.eye(len(unit_sum)))) > tol:
        return "unit transitions do not sum to identity"
    return None


def interference_recursive_check(d, sets, tol=1e-9):
    """The order-n interference of disjoint sets computed directly equals
    the recursive combination I(A0 ∪ A1, ...) - I(A0, ...) - I(A1, ...) of
    lower-order terms."""
    a0, a1, *rest = [list(s) for s in sets]
    direct = interference(d, sets, tol)
    merged = interference(d, [a0 + a1] + rest, tol)
    drop0 = interference(d, [a0] + rest, tol)
    drop1 = interference(d, [a1] + rest, tol)
    return abs(direct - (merged - drop0 - drop1)) <= tol


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


def quiver_decoherence_loop(g, arrows, values, normalization):
    """(labels, matrix) of the arrow-level decoherence functional, entry by
    entry: the (label, source, target) ``arrows`` sorted by (target index,
    source index, label), and entry (a, b) = c exp(i (s(b) - s(a))) where
    a and b share their target, else 0."""
    ev_ix = {x: i for i, x in enumerate(g.events)}
    arrows = sorted(arrows, key=lambda a: (ev_ix[a[2]], ev_ix[a[1]], a[0]))
    scale = normalization_scale(normalization, g)
    mat = np.zeros((len(arrows), len(arrows)), dtype=complex)
    for i, (la, _, ta) in enumerate(arrows):
        for j, (lb, _, tb) in enumerate(arrows):
            if ta == tb:
                mat[i, j] = scale * np.exp(1j * (values[lb] - values[la]))
    return tuple(a[0] for a in arrows), mat
