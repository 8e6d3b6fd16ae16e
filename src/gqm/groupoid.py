"""Finite groupoids: construction, validation, and structural queries.

A groupoid here is a finite set of labelled transitions between labelled
events, with a partial composition, units and inverses.  Composition uses
the function-style convention: ``compose(outer, inner)`` is defined exactly
when ``target(inner) == source(outer)`` and realizes "inner first, then
outer".

Every constructor validates the axioms exhaustively before returning, so an
invalid groupoid cannot circulate.  Canonical transition ordering is: units
first (in event order), then non-units sorted by (target index, source
index, label).  This ordering is what makes matrix layouts reproducible and
matches the natural block structure of decoherence matrices (transitions
grouped by target).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GqmInputError, GroupoidValidationError


def _check_labels(labels, what):
    seen = set()
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise GqmInputError("%s labels must be non-empty strings" % what)
        if lab in seen:
            raise GqmInputError("duplicate %s label %r" % (what, lab))
        seen.add(lab)


@dataclass
class QuiverSpec:
    """Events plus labelled arrows; generates a groupoid via `from_quiver`."""

    events: list[str]
    arrows: list[tuple[str, str, str]]  # (label, source, target)

    def validate(self):
        _check_labels(self.events, "event")
        _check_labels([a[0] for a in self.arrows], "arrow")
        evset = set(self.events)
        for label, src, tgt in self.arrows:
            if src not in evset or tgt not in evset:
                raise GqmInputError(
                    "arrow %r references undeclared event (%r -> %r)"
                    % (label, src, tgt)
                )


@dataclass
class ValidationReport:
    """Outcome of the exhaustive axiom check; empty violations means valid."""

    violations: list[str] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self):
        return not self.violations


@dataclass(eq=False)
class FiniteGroupoid:
    """Immutable-by-convention carrier of the groupoid structure.

    ``aliases`` maps external labels (e.g. quiver arrow names) onto
    transition labels; they are accepted anywhere a transition label is.
    """

    events: tuple[str, ...]
    transitions: tuple[str, ...]
    source: dict[str, str]
    target: dict[str, str]
    unit_of: dict[str, str]
    inverse: dict[str, str]
    composition: dict[tuple[str, str], str]  # (outer, inner) -> result
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.event_index = {x: i for i, x in enumerate(self.events)}
        self.transition_index = {t: i for i, t in enumerate(self.transitions)}
        self._arrays = None

    # -- label handling -------------------------------------------------

    def resolve(self, label):
        """Map a transition label or alias to the canonical label."""
        if label in self.transition_index:
            return label
        if label in self.aliases:
            return self.aliases[label]
        raise GqmInputError("unknown transition label %r" % label)

    def index(self, label):
        """Canonical index of a transition label or alias."""
        return self.transition_index[self.resolve(label)]

    def vector(self, values, dtype):
        """Vector over the canonical order from {label: value}; omitted
        labels are zero, and of two labels naming one transition the
        later one wins (numpy leaves the order of repeated indices in a
        fancy assignment unspecified)."""
        vec = np.zeros(self.order, dtype=dtype)
        for label, value in values.items():
            vec[self.index(label)] = value
        return vec

    def require_event(self, x):
        if x not in self.event_index:
            raise GqmInputError("unknown event label %r" % x)
        return x

    @property
    def order(self):
        return len(self.transitions)

    # -- composition ----------------------------------------------------

    def composable(self, outer, inner):
        return self.target[inner] == self.source[outer]

    def compose(self, outer, inner):
        """outer∘inner; raises if target(inner) != source(outer)."""
        try:
            return self.composition[(outer, inner)]
        except KeyError:
            raise GqmInputError(
                "transitions not composable: %r after %r" % (outer, inner)
            ) from None

    def index_arrays(self):
        """(src, tgt, inv, unit) int arrays in canonical order: the event
        index of each transition's source and target, the transition index
        of its inverse, and the transition index of each event's unit."""
        if self._arrays is None:
            ev, tx = self.event_index, self.transition_index
            ts = self.transitions
            self._arrays = (
                np.array([ev[self.source[t]] for t in ts], dtype=np.intp),
                np.array([ev[self.target[t]] for t in ts], dtype=np.intp),
                np.array([tx[self.inverse[t]] for t in ts], dtype=np.intp),
                np.array([tx[self.unit_of[x]] for x in self.events],
                         dtype=np.intp),
            )
        return self._arrays

    @cached_property
    def _composition_rows(self):
        """One (outer, inner, result) index row per `composition` entry, in
        its order; an operand that is not a transition is -1, a result -2."""
        tx = self.transition_index
        return np.array([(tx.get(o, -1), tx.get(i, -1), tx.get(r, -2))
                         for (o, i), r in self.composition.items()],
                        dtype=np.intp).reshape(-1, 3)

    def composition_index(self):
        """Every defined outer∘inner, one per composable pair, as three int
        arrays (outer, inner, result) in the order of `composition`.
        Computed once per groupoid; the arrays are shared by every caller,
        so they are read-only."""
        return self._triples

    @cached_property
    def _triples(self):
        rows = self._composition_rows
        triples = rows[np.all(rows >= 0, axis=1)].T.copy()
        triples.setflags(write=False)
        return tuple(triples)

    def target_blocks(self):
        """Transition indices grouped by target, one ascending array per
        event in event order."""
        return group_indices(self.index_arrays()[1], len(self.events))

    # -- structural queries ---------------------------------------------

    def g_plus(self, x):
        self.require_event(x)
        return frozenset(t for t in self.transitions if self.source[t] == x)

    def g_minus(self, y):
        self.require_event(y)
        return frozenset(t for t in self.transitions if self.target[t] == y)

    def isotropy(self, x):
        return self.g_plus(x) & self.g_minus(x)

    def hom_set(self, x, y):
        """Transitions x -> y (the set G(y, x))."""
        self.require_event(x)
        self.require_event(y)
        return frozenset(
            t
            for t in self.transitions
            if self.source[t] == x and self.target[t] == y
        )

    def orbit(self, x):
        self.require_event(x)
        return frozenset(self.target[t] for t in self.transitions
                         if self.source[t] == x)

    def orbits(self):
        """Frozensets of event labels, in the order of their first events:
        y is filed under the least source of the transitions into it."""
        src, tgt = self.index_arrays()[:2]
        n = len(self.events)
        root = np.full(n, n)
        np.minimum.at(root, tgt, src)
        return [frozenset(self.events[k] for k in block)
                for block in group_indices(root, n) if block.size]

    def is_connected(self):
        return len(self.orbits()) == 1

    def is_pair_groupoid(self):
        """True iff there is exactly one transition per ordered event pair."""
        n = len(self.events)
        if self.order != n * n:
            return False
        src, tgt = self.index_arrays()[:2]
        return bool(np.all(np.bincount(tgt * n + src, minlength=n * n) == 1))

    def units(self):
        return tuple(self.unit_of[x] for x in self.events)


def group_indices(keys, n):
    """The positions of ``keys`` (ints in 0..n-1) grouped by key: one
    ascending array per key value."""
    counts = np.bincount(keys, minlength=n)
    return np.split(np.argsort(keys, kind="stable"), np.cumsum(counts)[:-1])


# ---------------------------------------------------------------------------
# validation


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustively check every groupoid axiom; violations carry witnesses.
    The composition is held in one slot per composable pair, not |G|^2."""
    rep = ValidationReport()
    bad = rep.violations.append

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

    src, tgt, inv, unit = g.index_arrays()
    n = g.order
    ts = g.transitions
    idx = np.arange(n)

    # one slot per composable pair (o, i), row-major, at off[o] + rank[i]
    blocks = g.target_blocks()
    rank = np.empty(n, dtype=np.intp)  # the place in the target block
    for cs in blocks:
        rank[cs] = np.arange(cs.size)
    width = np.bincount(tgt, minlength=len(g.events))[src]
    off = np.cumsum(width) - width
    outer = np.repeat(idx, width)
    inner = np.concatenate([idx[:0]] + [blocks[x] for x in src])

    # composition domain: defined iff composable, with the right endpoints
    rep.checks += n * n
    rows = g._composition_rows
    o, i, r = rows[(rows[:, 0] >= 0) & (rows[:, 1] >= 0)].T
    should = tgt[i] == src[o]
    comp = np.full(outer.size, -1, dtype=np.intp)  # -1: missing
    comp[off[o[should]] + rank[i[should]]] = r[should]
    s = np.maximum(comp, 0)  # endpoints are read only where comp >= 0
    wrong = (comp >= 0) & ((src[s] != src[inner]) | (tgt[s] != tgt[outer]))
    code = np.select([comp == -1, comp == -2, wrong], [2, 3, 4])
    k = np.flatnonzero(code)
    found = [(a, b, 1) for a, b in zip(o[~should], i[~should])]
    found += zip(outer[k], inner[k], code[k])
    for a, b, c in sorted(found):  # row-major
        args = (ts[a], ts[b])
        if c >= 3:
            args += (g.composition[args],)
        bad(_DOMAIN_MESSAGES[c] % args)
    if rep.violations:
        return rep

    # unit laws
    rep.checks += 2 * n
    right = comp[off + rank[unit[src]]] != idx
    left = comp[off[unit[tgt]] + rank] != idx
    for a in np.flatnonzero(right | left):
        if right[a]:
            bad("right unit law fails at %r" % ts[a])
        if left[a]:
            bad("left unit law fails at %r" % ts[a])

    # inverse laws; slot 0 stands in for the pairs that `ends` makes
    # uncomposable, where only the endpoints are reported
    rep.checks += 3 * n
    ends = (src[inv] != tgt) | (tgt[inv] != src)
    first = comp[np.where(ends, 0, off[inv] + rank)] != unit[src]
    second = comp[np.where(ends, 0, off + rank[inv])] != unit[tgt]
    involutive = inv[inv] == idx
    for a in np.flatnonzero(ends | first | second | ~involutive):
        if ends[a]:
            bad("inverse of %r has wrong endpoints" % ts[a])
            continue
        if first[a]:
            bad("inverse law fails: %r^-1 o %r != unit at source"
                % (ts[a], ts[a]))
        if second[a]:
            bad("inverse law fails: %r o %r^-1 != unit at target"
                % (ts[a], ts[a]))
        if not involutive[a]:
            bad("inverse is not involutive at %r" % ts[a])

    # associativity a∘(b∘c) = (a∘b)∘c on all composable triples: for
    # each event x, the c with target x against every a∘b with source x
    fails = []
    sources = group_indices(src, len(g.events))  # ascending, like blocks
    by_src = group_indices(src[inner], len(g.events))
    for cs, bs, k in zip(blocks, sources, by_src):
        a, b, ab = outer[k], inner[k], comp[k]
        bc = comp[off[bs, None] + np.arange(cs.size)]  # bs[m]∘cs[j]
        lhs = comp[off[a, None] + rank[bc][np.searchsorted(bs, b)]]
        rep.checks += lhs.size
        p, j = np.nonzero(lhs != bc[np.searchsorted(bs, ab)])
        fails += zip(cs[j], b[p], a[p])
    for c, b, a in sorted(fails):  # in (c, b, a) order
        bad("associativity fails on triple (%r, %r, %r)"
            % (ts[a], ts[b], ts[c]))
    return rep


_DOMAIN_MESSAGES = {
    1: "compose(%r, %r) defined but endpoints mismatch",
    2: "compose(%r, %r) missing",
    3: "compose(%r, %r) = %r is not a transition",
    4: "compose(%r, %r) = %r has wrong endpoints",
}


def _canonical_order(events, transitions, source, target, units):
    """Units first in event order, then by (target idx, source idx, label)."""
    ev_ix = {x: i for i, x in enumerate(events)}
    unit_set = set(units)
    non_units = [t for t in transitions if t not in unit_set]
    non_units.sort(key=lambda t: (ev_ix[target[t]], ev_ix[source[t]], t))
    return tuple(list(units) + non_units)


def _build(events, transitions, source, target, unit_of, inverse, composition,
           aliases=None):
    if not events:
        raise GqmInputError("a groupoid needs at least one event")
    try:
        order = _canonical_order(
            tuple(events), transitions, source, target,
            [unit_of[x] for x in events],
        )
    except KeyError:  # incomplete tables, which `validate` reports
        order = tuple(transitions)
    g = FiniteGroupoid(
        events=tuple(events),
        transitions=order,
        source=dict(source),
        target=dict(target),
        unit_of=dict(unit_of),
        inverse=dict(inverse),
        composition=dict(composition),
        aliases=dict(aliases or {}),
    )
    rep = validate(g)
    if not rep.ok:
        raise GroupoidValidationError(rep.violations)
    return g


# ---------------------------------------------------------------------------
# constructors


def unit_label(event):
    return "1_%s" % event


def pair_label(src, tgt):
    return "%s->%s" % (src, tgt)


def _pair_tables(components):
    """Tables of the disjoint union of the pair groupoids on ``components``
    (lists of events): (transitions, source, target, unit_of, inverse,
    composition), composition keyed (outer, inner) in outer-major order."""
    source, target, unit_of, inverse, composition = {}, {}, {}, {}, {}
    transitions = []
    for comp in components:
        by_pair = {}
        for x in comp:
            for y in comp:
                lab = unit_label(x) if x == y else pair_label(x, y)
                transitions.append(lab)
                source[lab], target[lab] = x, y
                by_pair[(x, y)] = lab
        for x in comp:
            unit_of[x] = by_pair[(x, x)]
        for (x, y), lab in by_pair.items():
            inverse[lab] = by_pair[(y, x)]
        for (x, y), outer in by_pair.items():
            for w in comp:  # inner: w -> x
                composition[(outer, by_pair[(w, x)])] = by_pair[(w, y)]
    return transitions, source, target, unit_of, inverse, composition


def pair_groupoid(events) -> FiniteGroupoid:
    """The groupoid of ordered pairs over ``events``: |G| = |events|^2."""
    events = list(events)
    if not events:
        raise GqmInputError("pair groupoid needs at least one event")
    _check_labels(events, "event")
    return _build(events, *_pair_tables([events]))


def group_as_groupoid(elements, table, identity, event="*") -> FiniteGroupoid:
    """Single-event groupoid from a finite group multiplication table.

    ``table`` maps (left, right) -> product; compose(outer, inner) is
    table[(outer, inner)].  Group axioms are re-checked by `validate`.
    """
    elements = list(elements)
    _check_labels(elements, "group element")
    if identity not in elements:
        raise GqmInputError("identity %r is not a listed element" % identity)
    elset = set(elements)
    for pair, res in table.items():
        if len(pair) != 2 or set(pair) - elset or res not in elset:
            raise GqmInputError("table entry %r -> %r is out of range"
                               % (pair, res))
    missing = [
        (a, b) for a in elements for b in elements if (a, b) not in table
    ]
    if missing:
        raise GqmInputError("multiplication table is incomplete: %r" % missing)

    inverse = {}
    for a in elements:
        invs = [b for b in elements if table[(a, b)] == identity]
        if len(invs) != 1 or table[(invs[0], a)] != identity:
            raise GqmInputError("element %r has no unique inverse" % a)
        inverse[a] = invs[0]

    source = {a: event for a in elements}
    target = {a: event for a in elements}
    try:
        return _build([event], elements, source, target, {event: identity},
                      inverse, dict(table))
    except GroupoidValidationError as exc:
        # an invalid table (e.g. broken associativity) is an input error
        raise GqmInputError(str(exc)) from None


def from_quiver(q: QuiverSpec) -> FiniteGroupoid:
    """Groupoid generated by a quiver: the pair groupoid of each connected
    component (undirected), disjointly unioned.

    All cycles the free construction would create are collapsed, so each
    ordered pair of events in one component carries exactly one transition.
    Arrow labels become aliases for their pair transitions.
    """
    q.validate()

    adjacency = {x: set() for x in q.events}
    for _, src, tgt in q.arrows:
        adjacency[src].add(tgt)
        adjacency[tgt].add(src)

    components = []
    remaining = set(q.events)
    for x in q.events:  # deterministic component order
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
        components.append(sorted(comp, key=q.events.index))

    tables = _pair_tables(components)
    aliases = {}
    tset = set(tables[0])
    for label, src, tgt in q.arrows:
        pair = unit_label(src) if src == tgt else pair_label(src, tgt)
        if label in tset and label != pair:
            raise GqmInputError(
                "arrow label %r collides with a different transition" % label
            )
        aliases[label] = pair
    return _build(q.events, *tables, aliases)


def from_explicit(events, transitions, source, target, unit_of, inverse,
                  composition) -> FiniteGroupoid:
    """Groupoid from fully explicit tables; rejects any axiom violation."""
    _check_labels(events, "event")
    _check_labels(transitions, "transition")
    tset = set(transitions)
    for pair in composition:
        if not set(pair) <= tset:
            raise GqmInputError("composition entry %r names an unknown "
                                "transition" % (pair,))
    return _build(events, list(transitions), source, target, unit_of, inverse,
                  composition)
