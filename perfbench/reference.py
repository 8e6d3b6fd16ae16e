"""Plain-numpy reference model of the gqm definitions.

The benchmark checks every gqm report against values computed here from
the definitions and the conventions the README documents (labels, canonical
transition order, normalization tags), never from gqm itself.

Tolerances: a report number passes when it lies within ``TOL`` times
``max(1, scale)`` of the reference, where ``scale`` is the size of the
quantity it is read from (the largest eigenvalue, the largest matrix entry).
So a change in the last digits passes; a verdict (an exit code, ``ok``,
``hermitian``, a GNS dimension) must match exactly.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np

TOL = 1e-8
CLI_TOL = 1e-10  # the CLI's default --tolerance, which decides its verdicts
RANK_CUTOFF = 1e-8  # inputs keep a spectral gap far wider than any cutoff


class Groupoid:
    """Finite groupoid held as integer tables in canonical transition order:
    units in event order, then non-units by (target, source, label)."""

    def __init__(self, events, transitions, unit_of, inverse, compose,
                 aliases=None):
        """``transitions``: (label, source, target) triples;
        ``compose(outer, inner)`` maps two composable triples to the label
        of outer∘inner (inner first)."""
        ev = {x: k for k, x in enumerate(events)}
        by_label = {t[0]: t for t in transitions}
        units = [unit_of[x] for x in events]
        unit_set = set(units)
        rest = sorted((t for t in transitions if t[0] not in unit_set),
                      key=lambda t: (ev[t[2]], ev[t[1]], t[0]))
        order = [by_label[u] for u in units] + rest
        self.events = list(events)
        self.labels = [t[0] for t in order]
        self.index = {lab: k for k, lab in enumerate(self.labels)}
        self.src = np.array([ev[t[1]] for t in order])
        self.tgt = np.array([ev[t[2]] for t in order])
        self.inv = np.array([self.index[inverse[lab]] for lab in self.labels])
        n = len(order)
        self.comp = np.full((n, n), -1)  # comp[outer, inner], -1: undefined
        for o in range(n):
            for i in np.flatnonzero(self.tgt == self.src[o]):
                self.comp[o, i] = self.index[compose(order[o], order[i])]
        self.aliases = dict(aliases or {})

    @property
    def order(self):
        return len(self.labels)

    def resolve(self, label):
        return self.index[self.aliases.get(label, label)]

    def n_orbits(self):
        ev = self.events
        return len(components(ev, [(ev[s], ev[t]) for s, t in
                                   zip(self.src.tolist(), self.tgt.tolist())]))

    def vector(self, values):
        """Coefficient vector from {label or alias: complex}."""
        vec = np.zeros(self.order, dtype=complex)
        for label, z in values.items():
            vec[self.resolve(label)] = z
        return vec


# -- constructors, mirroring the spec kinds ------------------------------


def pair_label(x, y):
    return "1_%s" % x if x == y else "%s->%s" % (x, y)


def _pair_compose(outer, inner):
    return pair_label(inner[1], outer[2])


def pair(events):
    trans = [(pair_label(x, y), x, y) for x in events for y in events]
    return Groupoid(events, trans, {x: pair_label(x, x) for x in events},
                    {pair_label(x, y): pair_label(y, x)
                     for x in events for y in events}, _pair_compose)


def components(events, edges):
    """Connected components of an undirected graph, in event order."""
    adjacency = {x: set() for x in events}
    for s, t in edges:
        adjacency[s].add(t)
        adjacency[t].add(s)
    comps, seen = [], set()
    for x in events:
        if x in seen:
            continue
        comp, queue = {x}, deque([x])
        while queue:
            for w in adjacency[queue.popleft()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append([e for e in events if e in comp])
    return comps


def quiver_components(events, arrows):
    return components(events, [(s, t) for _, s, t in arrows])


def quiver(events, arrows):
    """The pair groupoid of each component; arrow labels become aliases."""
    trans, inverse = [], {}
    for comp in quiver_components(events, arrows):
        for x in comp:
            for y in comp:
                trans.append((pair_label(x, y), x, y))
                inverse[pair_label(x, y)] = pair_label(y, x)
    return Groupoid(events, trans, {x: pair_label(x, x) for x in events},
                    inverse, _pair_compose,
                    {a: pair_label(s, t) for a, s, t in arrows})


def group(elements, product, identity):
    """One-event groupoid; ``product(left, right)`` is outer∘inner."""
    inverse = {a: next(b for b in elements if product(a, b) == identity)
               for a in elements}
    return Groupoid(["*"], [(a, "*", "*") for a in elements],
                    {"*": identity}, inverse,
                    lambda outer, inner: product(outer[0], inner[0]))


def explicit(doc):
    """From an explicit-kind spec document."""
    table = {(c["outer"], c["inner"]): c["result"] for c in doc["compose"]}
    return Groupoid(doc["events"],
                    [(t, doc["source"][t], doc["target"][t])
                     for t in doc["transitions"]],
                    doc["units"], doc["inverse"],
                    lambda outer, inner: table[(outer[0], inner[0])])


# -- the definitions -------------------------------------------------------


def invariance_matrix(g, phi):
    """M(a, b) = [t(a) = t(b)] phi(a^-1 ∘ b)."""
    same = g.tgt[:, None] == g.tgt[None, :]
    return np.where(same, phi[g.comp[g.inv]], 0)


def psd(m):
    """(hermitian verdict, ascending eigenvalues of the Hermitian part)."""
    hermitian = bool(np.max(np.abs(m - m.conj().T)) <= CLI_TOL)
    return hermitian, np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def rank(m):
    eig = psd(m)[1]
    return int(np.sum(eig > RANK_CUTOFF * max(eig[-1], 1.0)))


def scale(tag, n_events, order, raw=None):
    return {
        "none": lambda: 1.0,
        "unit-events": lambda: 1.0 / n_events,
        "idempotent": lambda: n_events / order,
        "per-transition": lambda: 1.0 / order,
        "global": lambda: 1.0 / np.sum(raw).real,
    }[tag]()


def convolve(g, a, b):
    """(a.b)(r) = sum over outer∘inner = r of a(outer) b(inner)."""
    o, i = np.nonzero(g.comp >= 0)
    out = np.zeros(g.order, dtype=complex)
    np.add.at(out, g.comp[o, i], a[o] * b[i])
    return out


def measure(d, idx):
    """(clamped value, raw value) of mu(A) = D(A, A)."""
    idx = list(dict.fromkeys(idx))
    raw = float(np.sum(d[np.ix_(idx, idx)]).real) if idx else 0.0
    return (0.0 if -CLI_TOL <= raw < 0.0 else raw), raw


def interference(d, index_sets):
    """Inclusion-exclusion over the non-empty subfamilies."""
    n = len(index_sets)
    total = 0.0
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            union = [i for c in combo for i in index_sets[c]]
            total += (-1.0) ** (n - k) * measure(d, union)[1]
    return total


def arrow_decoherence(events, arrows, values, tag):
    """(arrow order, matrix) with D(a, b) = c [t(a) = t(b)] e^{i(s(b)-s(a))}."""
    ev = {x: k for k, x in enumerate(events)}
    arrows = sorted(arrows, key=lambda a: (ev[a[2]], ev[a[1]], a[0]))
    order = sum(len(c) ** 2 for c in quiver_components(events, arrows))
    c = scale(tag, len(events), order)
    s = np.array([values[a[0]] for a in arrows])
    t = np.array([ev[a[2]] for a in arrows])
    mat = np.where(t[:, None] == t[None, :],
                   c * np.exp(1j * (s[None, :] - s[:, None])), 0)
    return [a[0] for a in arrows], mat


def action_phase(g, potential):
    """The unnormalized pure phase e^{i(u(target) - u(source))}."""
    u = np.array([potential[x] for x in g.events])
    return np.exp(1j * (u[g.tgt] - u[g.src]))


def transported_unit_value(unitary, a, b):
    """rho_a(U^dagger P_b U): the diagonal entry (a, a) of U^dagger P_b U."""
    proj = np.zeros(unitary.shape, dtype=complex)
    proj[b, b] = 1.0
    return (unitary.conj().T @ proj @ unitary)[a, a]


def sweep_thm52(n, trials, seed):
    """(worst min eigenvalue, worst |phi*phi - phi|) over the trial list the
    sweep draws: trial k has 2 + k % (n - 1) events and a standard-normal
    potential, in draw order from numpy's default_rng(seed)."""
    rng = np.random.default_rng(seed)
    groupoids = {}
    worst_eig, worst_dev = np.inf, 0.0
    for k in range(trials):
        size = 2 + k % (n - 1)
        potential = rng.normal(size=size)
        if size not in groupoids:
            groupoids[size] = pair(["e%d" % j for j in range(size)])
        g = groupoids[size]
        phi = scale("idempotent", size, g.order) * action_phase(
            g, dict(zip(g.events, potential)))
        worst_eig = min(worst_eig, psd(invariance_matrix(g, phi))[1][0])
        worst_dev = max(worst_dev,
                        float(np.max(np.abs(convolve(g, phi, phi) - phi))))
    return float(worst_eig), worst_dev
