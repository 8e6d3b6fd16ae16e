"""Finite groupoids: construction, validation, and structural queries.

A groupoid here is a finite set of labelled transitions between labelled
events, with a partial composition, units and inverses.  Composition uses
the function-style convention: ``compose(outer, inner)`` is defined exactly
when ``target(inner) == source(outer)`` and realizes "inner first, then
outer".

No invalid groupoid can circulate.  The constructors from tables
(`from_explicit`, `group_as_groupoid`) validate the axioms exhaustively
before returning.  The generated kinds (`pair_groupoid`, `from_quiver`)
build their index arrays by arithmetic, whose axioms hold by construction
and are proven in the tests, so they check only what their input can
break: labels, arrow endpoints and labels that collide.

Canonical transition ordering is: units first (in event order), then
non-units sorted by (target index, source index, label).  This ordering is
what makes matrix layouts reproducible and matches the natural block
structure of decoherence matrices (transitions grouped by target).
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Orbit:
    """The target blocks of one orbit, read through its representative,
    the orbit's first event.

    ``events`` lists the orbit's events in event order, the representative
    first.  ``rows[0]`` is the representative's target block, ascending,
    and ``rows[k]`` is the block of ``events[k]`` in translated order:
    ``rows[k, q] = gamma ∘ rows[0, q]``, gamma the first representative ->
    ``events[k]`` transition in canonical order.  ``gather[p, q]`` is the
    index of ``rows[0, p]^-1 ∘ rows[0, q]``, and since (gamma a)^-1 ∘
    (gamma b) = a^-1 ∘ b, also that of ``rows[k, p]^-1 ∘ rows[k, q]``."""

    events: np.ndarray
    rows: np.ndarray
    gather: np.ndarray


class FiniteGroupoid:
    """Immutable-by-convention carrier of the groupoid structure.

    The keyword constructor takes label tables: ``source`` and ``target``
    (transition -> event), ``unit_of`` (event -> transition), ``inverse``
    and ``composition`` ((outer, inner) -> result); the index arrays are
    derived from them on first read.  `_indexed` builds a groupoid the
    other way round, from its index arrays, and its label tables are then
    derived on first read, ``composition`` in the order of the triples.

    ``aliases`` maps external labels (e.g. quiver arrow names) onto
    transition labels; they are accepted anywhere a transition label is.
    """

    def __init__(self, events, transitions, source, target, unit_of, inverse,
                 composition, aliases=None):
        self.source, self.target, self.unit_of = source, target, unit_of
        self.inverse, self.composition = inverse, composition
        self._label(events, transitions, aliases)

    @classmethod
    def _indexed(cls, events, transitions, arrays, triples):
        """From the (src, tgt, inv, unit) arrays of `index_arrays` and a
        (3, m) array of composition triples, both trusted."""
        g = cls.__new__(cls)
        g._arrays = tuple(read_only(a) for a in arrays)
        g._triples = tuple(read_only(triples))
        g._composition_rows = triples.T
        g._label(events, transitions, None)
        return g

    def _label(self, events, transitions, aliases):
        self.events, self.transitions = events, transitions
        self.aliases = {} if aliases is None else aliases
        self.event_index = {x: i for i, x in enumerate(self.events)}
        self.transition_index = {t: i for i, t in enumerate(self.transitions)}

    # the label tables of an index-built groupoid, derived on first read
    source = cached_property(lambda g: g._labelled(g.transitions, g.events, 0))
    target = cached_property(lambda g: g._labelled(g.transitions, g.events, 1))
    inverse = cached_property(
        lambda g: g._labelled(g.transitions, g.transitions, 2))
    unit_of = cached_property(lambda g: g._labelled(g.events, g.transitions, 3))

    def _labelled(self, keys, labels, k):
        return dict(zip(keys, map(labels.__getitem__,
                                  self.index_arrays()[k].tolist())))

    @cached_property
    def composition(self):
        ts = self.transitions
        o, i, r = (a.tolist() for a in self.composition_index())
        return {(ts[a], ts[b]): ts[c] for a, b, c in zip(o, i, r)}

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
        """Position of the event label ``x`` in event order."""
        if x not in self.event_index:
            raise GqmInputError("unknown event label %r" % x)
        return self.event_index[x]

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
        of its inverse, and the transition index of each event's unit.
        Computed once per groupoid and shared, so they are read-only."""
        return self._arrays

    @cached_property
    def _arrays(self):
        ev, tx, ts = self.event_index, self.transition_index, self.transitions
        return tuple(read_only(np.array(a, dtype=np.intp)) for a in (
            [ev[self.source[t]] for t in ts], [ev[self.target[t]] for t in ts],
            [tx[self.inverse[t]] for t in ts],
            [tx[self.unit_of[x]] for x in self.events]))

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
        return tuple(read_only(rows[np.all(rows >= 0, axis=1)].T.copy()))

    def target_blocks(self):
        """Transition indices grouped by target, one ascending array per
        event in event order; computed once per groupoid, read-only."""
        return self._blocks

    @cached_property
    def _blocks(self):
        return tuple(group_indices(self.index_arrays()[1], len(self.events)))

    def orbit_table(self):
        """One `Orbit` per orbit, in the order of their first events;
        computed once per groupoid from `composition_index`, read-only."""
        return self._orbit_table

    @cached_property
    def _orbit_table(self):
        src, tgt, inv = self.index_arrays()[:3]
        outer, inner, result = self.composition_index()
        n = len(self.events)
        keys = outer * self.order + inner
        # the sort `group_indices` uses: numpy's default sort is other,
        # large machine code, ~0.3 MiB more resident in every process
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]

        def compose(o, i):  # outer∘inner for composable index arrays
            at = np.searchsorted(sorted_keys, o * self.order + i)
            return read_only(result[by_key[at]])

        rep = self._representatives
        # the first rep(y) -> y transition of each y; units come first
        gamma = np.full(n, self.order)
        hops = np.flatnonzero(src == rep[tgt])
        np.minimum.at(gamma, tgt[hops], hops)
        table = []
        for events in group_indices(rep, n):
            if events.size:
                block = self.target_blocks()[events[0]]
                table.append(Orbit(events=events,
                                   rows=compose(gamma[events, None], block),
                                   gather=compose(inv[block, None], block)))
        return tuple(table)

    # -- structural queries: masks over the index arrays ----------------

    def _members(self, mask):
        """The labels of the transitions where ``mask`` is true."""
        return frozenset(self.transitions[k] for k in np.flatnonzero(mask))

    def g_plus(self, x):
        return self._members(self.index_arrays()[0] == self.require_event(x))

    def g_minus(self, y):
        return self._members(self.index_arrays()[1] == self.require_event(y))

    def isotropy(self, x):
        src, tgt = self.index_arrays()[:2]
        k = self.require_event(x)
        return self._members((src == k) & (tgt == k))

    def hom_set(self, x, y):
        """Transitions x -> y (the set G(y, x))."""
        src, tgt = self.index_arrays()[:2]
        return self._members((src == self.require_event(x))
                             & (tgt == self.require_event(y)))

    def orbit(self, x):
        src, tgt = self.index_arrays()[:2]
        return frozenset(self.events[k]
                         for k in tgt[src == self.require_event(x)].tolist())

    def orbits(self):
        """Frozensets of event labels, in the order of their first events."""
        return [frozenset(self.events[k] for k in block)
                for block in group_indices(self._representatives,
                                           len(self.events)) if block.size]

    @cached_property
    def _representatives(self):
        """The first event of each event's orbit: the least source of the
        transitions into it."""
        src, tgt = self.index_arrays()[:2]
        rep = np.full(len(self.events), len(self.events))
        np.minimum.at(rep, tgt, src)
        return read_only(rep)

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


def read_only(a):
    """Make ``a`` read-only and return a view of it: neither that view nor
    any view taken of it can be written or made writeable again."""
    a.setflags(write=False)
    return a.view()


def group_indices(keys, n):
    """The positions of ``keys`` (ints in 0..n-1) grouped by key: one
    ascending, read-only array per key value."""
    counts = np.bincount(keys, minlength=n)
    return np.split(read_only(np.argsort(keys, kind="stable")),
                    np.cumsum(counts)[:-1])


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


def _build(events, transitions, source, target, unit_of, inverse, composition):
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


def _pair_components(events, components):
    """The disjoint union of the pair groupoids on ``components``, ascending
    arrays of event indices in the order of their first events, built by
    index arithmetic: (x -> y)∘(w -> x) = (w -> y).  The triples run by
    component, then over x, y and w in event order.  A generated label
    that repeats an earlier one, in that order, is an input error."""
    n = len(events)
    into = np.zeros(n, dtype=np.intp)  # the non-units into each event
    for c in components:
        into[c] = c.size - 1
    first = n + np.cumsum(into) - into  # units first, then by target
    triples = np.empty((3, sum(c.size ** 3 for c in components)),
                       dtype=np.intp)
    done, labels, parts = 0, [], []
    for c in components:
        m = c.size
        i, j = np.indices((m, m))  # c[i] -> c[j], sources ascending
        idx = np.where(i == j, c[i], first[c[j]] + i - (i > j))
        names = [events[k] for k in c.tolist()]
        labels += [unit_label(x) if x == y else pair_label(x, y)
                   for x in names for y in names]
        parts.append((c[i].ravel(), c[j].ravel(), idx.T.ravel(), idx.ravel()))
        cube = triples[:, done:done + m ** 3].reshape(3, m, m, m)  # a view
        cube[0], cube[1], cube[2] = idx[:, :, None], idx.T[:, None], idx.T
        done += m ** 3
    src, tgt, inv, place = (np.concatenate(p) for p in zip(*parts))
    seen = {}
    for k, lab in enumerate(labels):
        if seen.setdefault(lab, k) != k:
            q = seen[lab]
            raise GqmInputError(
                "event pairs %r and %r both generate the label %r"
                % ((events[src[q]], events[tgt[q]]),
                   (events[src[k]], events[tgt[k]]), lab))
    # generated -> canonical order; stable, the sort of `group_indices`
    order = np.argsort(place, kind="stable")
    return FiniteGroupoid._indexed(
        tuple(events), tuple(map(labels.__getitem__, order.tolist())),
        [src[order], tgt[order], inv[order], np.arange(n)], triples)


def pair_groupoid(events) -> FiniteGroupoid:
    """The groupoid of ordered pairs over ``events``: |G| = |events|^2."""
    events = list(events)
    if not events:
        raise GqmInputError("pair groupoid needs at least one event")
    _check_labels(events, "event")
    return _pair_components(events, [np.arange(len(events))])


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
    if not q.events:
        raise GqmInputError("a groupoid needs at least one event")
    # the (undirected) components by union-find, each root the least
    # event index of its component
    index = {x: k for k, x in enumerate(q.events)}
    root = list(range(len(q.events)))

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]  # path halving
        return k

    for _, src, tgt in q.arrows:
        low, high = sorted((find(index[src]), find(index[tgt])))
        root[high] = low
    roots = np.array([find(k) for k in range(len(root))])
    g = _pair_components(q.events, [c for c in group_indices(
        roots, len(root)) if c.size])
    for label, src, tgt in q.arrows:
        pair = unit_label(src) if src == tgt else pair_label(src, tgt)
        if label in g.transition_index and label != pair:
            raise GqmInputError(
                "arrow label %r collides with a different transition" % label
            )
        g.aliases[label] = pair
    return g


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
