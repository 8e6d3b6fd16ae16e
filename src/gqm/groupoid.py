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

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
class OrbitStack:
    """The m orbits whose target blocks have b transitions, through their
    representatives, the orbits' first events.  ``events`` holds their
    events orbit by orbit, in event order, and ``orbit[k]`` numbers the
    orbit of ``events[k]``.  ``rows[k, q] = gamma ∘ r[q]``, r the ascending
    block of its representative and gamma the first representative ->
    ``events[k]`` transition.  ``gather[j, p, q]`` is the index of
    ``r[p]^-1 ∘ r[q]`` for orbit j, and since (gamma a)^-1 ∘ (gamma b) =
    a^-1 ∘ b, also that of ``rows[k, p]^-1 ∘ rows[k, q]``."""

    gather: np.ndarray  # (m, b, b)
    events: np.ndarray  # (n_b,)
    orbit: np.ndarray   # (n_b,)
    rows: np.ndarray    # (n_b, b)


CHECK_PART = 1 << 16  # entries a `FiniteGroupoid.composition_parts` part reads


class FiniteGroupoid:
    """Immutable-by-convention carrier of the groupoid structure, stored as
    index arrays only.  The keyword constructor encodes its label tables,
    ``source`` and ``target`` (transition -> event), ``unit_of`` (event ->
    transition), ``inverse`` and ``composition`` ((outer, inner) ->
    result), by `_encode`; `_indexed` takes trusted arrays.  The label
    tables are views derived on first read, which quote each entry as it
    came, ``composition`` in its order.

    ``aliases`` maps quiver arrow names, set by `from_quiver`, onto
    transition labels; they are accepted anywhere a transition label is.
    """

    def __init__(self, events, transitions, source, target, unit_of, inverse,
                 composition):
        self._label(events, transitions)
        if not ({*map(type, composition)} <= {tuple}
                and {*map(len, composition)} <= {2}):
            key = next(filter(lambda k: type(k) is not tuple or len(k) != 2,
                              composition))
            raise GqmInputError("composition key %r is not an (outer, inner) "
                                "pair" % (key,))
        ts, k = transitions, len(composition)
        ends, evs = _encode([*map(source.get, ts), *map(target.get, ts)],
                            self.event_index, events)
        codes, txs = _encode(
            [*map(inverse.get, ts), *map(unit_of.get, events),
             *chain.from_iterable(composition), *composition.values()],
            self.transition_index, ts)
        inv, unit, pairs, result = np.split(
            codes, np.cumsum([len(ts), len(events), 2 * k]))
        rows = np.vstack([pairs.reshape(k, 2).T, result])
        self._names, self._rows = (evs, txs), read_only(rows)
        self._arrays = tuple(map(read_only, (*np.split(ends, 2), inv, unit)))
        self._triples = tuple(read_only(rows[:, np.all(rows < len(ts), 0)]))

    @classmethod
    def _indexed(cls, events, transitions, arrays, table=None):
        """From trusted `index_arrays` and a generated kind's orbit table."""
        g = cls.__new__(cls)
        g._label(events, transitions)
        g._arrays = tuple(map(read_only, arrays))
        if table:  # then it holds the composition
            g._orbit_table, g._generated = table, True
        return g

    def _label(self, events, transitions):
        self.events, self.transitions = events, transitions
        self._names = events, transitions
        self.aliases, self._generated = {}, False
        self.event_index = {x: i for i, x in enumerate(self.events)}
        self.transition_index = {t: i for i, t in enumerate(self.transitions)}

    # the label tables, derived on first read
    source = cached_property(lambda g: g._labelled(g.transitions, 0))
    target = cached_property(lambda g: g._labelled(g.transitions, 1))
    inverse = cached_property(lambda g: g._labelled(g.transitions, 2))
    unit_of = cached_property(lambda g: g._labelled(g.events, 3))

    def _labelled(self, keys, k):
        names = self._names[k > 1]  # event names for sources and targets
        return dict(zip(keys, map(names.__getitem__,
                                  self._arrays[k].tolist())))

    @cached_property
    def composition(self):
        o, i, r = (map(self._names[1].__getitem__, a)
                   for a in self._rows.tolist())
        return dict(zip(zip(o, i), r))

    @cached_property
    def _rows(self):  # a generated kind's, joined from its parts
        return read_only(np.hstack([*map(np.stack,
                                         self.composition_parts(1))]))
    _triples = cached_property(lambda g: tuple(g._rows))

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
        fancy assignment unspecified).  A value that is neither an int or a
        float (not a bool) nor, for a complex vector, a complex is an input
        error naming its label, as is an int past the float range."""
        vec = np.zeros(self.order, dtype=dtype)
        for label, value in values.items():
            at = self.index(label)
            try:
                if not (is_number(value) or isinstance(value, dtype)):
                    raise TypeError
                vec[at] = value
            except (TypeError, OverflowError):
                raise GqmInputError("value of %r is not a %s number"
                                    % (label, dtype.__name__))
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
        of its inverse and of each event's unit, or past the last where an
        entry is missing or names none.  Shared by every caller, read-only."""
        return self._arrays

    def composition_index(self):
        """Every defined outer∘inner, one per composable pair, as three int
        arrays (outer, inner, result) in the order of `composition`: its
        rows of transitions only.  Shared by every caller, so read-only."""
        return self._triples

    def composition_parts(self, cost):
        """`composition_index` in (outer, inner, result) parts of
        max(1, `CHECK_PART` // ``cost``) pairs, in its order: every kernel
        that sums or checks over composable pairs reads them so.  A
        generated kind reads them off its stacks in turn, event k by event:
        inv[rows[k, p]]∘rows[k, q] = gather[orbit[k], p, q] over (p, q)."""
        step = max(1, CHECK_PART // cost)
        if not self._generated:
            given = self.composition_index()
            for a in range(0, max(1, given[0].size), step):
                yield tuple(x[a:a + step] for x in given)
            return
        inv, stacks = self.index_arrays()[2], self.orbit_table()
        total = sum(s.rows.size * s.rows.shape[1] for s in stacks)
        for a in range(0, total, step):
            part, lo = [], a
            for s in stacks:  # lo counted from the stack's first pair
                n, b, at = *s.rows.shape, max(lo, 0)
                k = np.arange(at // b // b, min(n, -(-(lo + step) // b // b)))
                cut = slice(at % (b * b), at % (b * b) + lo + step - at)
                part.append((np.repeat(inv[s.rows[k]], b, 1).reshape(-1)[cut],
                             np.tile(s.rows[k], b).reshape(-1)[cut],
                             s.gather[s.orbit[k]].reshape(-1)[cut]))
                lo -= n * b * b
            yield tuple(map(np.concatenate, zip(*part)))

    def orbit_table(self):
        """One `OrbitStack` per block size, ascending, read-only: a generated
        kind is built with it, any other places it from `composition_parts`."""
        return self._orbit_table

    @cached_property
    def _orbit_table(self):
        src, tgt, inv = self.index_arrays()[:3]
        rep, rank = self._representatives, self._rank
        # the first rep(y) -> y transition of each y; units come first
        gamma = np.full_like(rep, self.order)
        hops = np.flatnonzero(src == rep[tgt])
        np.minimum.at(gamma, tgt[hops], hops)
        size = np.bincount(tgt)  # of each event's target block
        # each representative's table r[p]^-1 ∘ r[q], r its ascending block;
        # lead[o] starts the row of o = r[p]^-1, -1 if s(o) is none
        area = np.where(rep == np.arange(rep.size), size ** 2, 0)
        at, flat = np.cumsum(area) - area, np.empty(area.sum(), np.intp)
        lead = np.where(area[src] > 0, at[src] + size[src] * rank[inv], -1)
        for o, i, r in self.composition_parts(1):
            k = np.flatnonzero(lead[o] >= 0)
            flat[lead[o[k]] + rank[i[k]]] = r[k]
        # the events orbit by orbit, each orbit in event order
        order = np.sort(rep * rep.size + np.arange(rep.size)) % rep.size
        table = []
        for b in np.flatnonzero(np.bincount(size)).tolist():
            x, events = np.flatnonzero(area == b * b), order[size[order] == b]
            gather = flat[at[x, None, None] + np.arange(b * b).reshape(b, b)]
            orbit = np.cumsum(rep[events] == events) - 1
            rows = gather[orbit, rank[inv[gamma[events]]]]
            table.append(OrbitStack(*map(read_only,
                                         (gather, events, orbit, rows))))
        return tuple(table)

    @cached_property
    def _rank(self):
        """The place of each transition in its ascending target block."""
        tgt = self.index_arrays()[1]
        rank, size = np.empty_like(tgt), np.bincount(tgt)
        rank[np.argsort(tgt, kind="stable")] = np.arange(tgt.size)
        return read_only(rank - (np.cumsum(size) - size)[tgt])

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
        return bool(np.all(self._representatives == 0))

    def is_pair_groupoid(self):
        """True iff there is exactly one transition per ordered event pair:
        one orbit, whose representative's block holds one transition from
        each event."""
        (stack, *more), n = self.orbit_table(), len(self.events)
        return not more and stack.gather.shape == (1, n, n)

    def units(self):
        return tuple(self.unit_of[x] for x in self.events)


def read_only(a):
    """Make ``a`` read-only and return a view of it: neither that view nor
    any view taken of it can be written or made writeable again."""
    a.setflags(write=False)
    return a.view()


def _encode(labels, index, names):
    """(codes, names): each label's place in ``names`` through ``index``;
    each label it lacks or cannot hold takes the next place past them and
    joins the names."""
    try:
        return np.array(list(map(index.get, labels)), dtype=np.intp), names
    except TypeError:  # a None from `get`, or an unhashable label
        codes, more = [], []
        for x in labels:
            try:
                codes.append(index[x])
            except (KeyError, TypeError):
                codes.append(len(names) + len(more))
                more.append(x)
        return np.array(codes, dtype=np.intp), (*names, *more)


def finite(a, what, fault="must be finite"):
    """``a``, unless an entry is NaN or infinite: then the input error
    "``what`` ``fault``"."""
    if not np.all(np.isfinite(a)):
        raise GqmInputError("%s %s" % (what, fault))
    return a


def beyond(dev, tol):
    """Where ``dev`` is not within ``tol``: NaN and +inf are beyond it."""
    return np.flatnonzero(~(dev <= tol))


def intake(values, dtype, shape, mismatch, what):
    """``values`` as an array of ``dtype`` and ``shape``, not copied where
    it is one.  Entries of bool, int and float type are numbers of either
    dtype, complex ones of ``complex`` only; any other, and a ragged list,
    is "``what`` are not ``dtype`` numbers", found before any cast.  A
    ``None`` in ``shape`` is one positive length, the same at each; another
    shape is the error ``mismatch``, its ``{}`` "length n" for a vector
    and "of shape s" otherwise.  Then `finite` with ``what``."""
    try:
        a = np.asarray(values)
        # an object array holds Python values: each is read by its type
        found = set(map(type, a.flat)) if a.dtype == object else {a.dtype}
        if not all(np.can_cast(t, dtype, "same_kind") for t in found):
            raise TypeError
        with np.errstate(over="ignore"):  # a huge long double reads inf
            a = a.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):  # ragged; a huge int
        raise GqmInputError("%s are not %s numbers" % (what, dtype.__name__))
    n = next((k for k, w in zip(a.shape, shape) if w is None), None)
    if n == 0 or a.shape != tuple(n if w is None else w for w in shape):
        got = ("length %d" % a.size if a.ndim == len(shape) == 1
               else "of shape %r" % (a.shape,))
        raise GqmInputError(mismatch.format(got))
    return finite(a, what)


def is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float))


def real(value, what):
    """float(value) for an int or a float, not a bool, that is finite as a
    float; anything else is an input error naming ``what``."""
    if not is_number(value):
        raise GqmInputError("%s must be a real number" % what)
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the range of a float
        pass
    raise GqmInputError("%s must be finite" % what)


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
    Each law is a gather from one slot table of the given triples;
    associativity reads its pairs through `FiniteGroupoid.composition_parts`,
    a pair's cost the widest target block."""
    rep = ValidationReport()
    bad = rep.violations.append
    src, tgt, inv, unit = g.index_arrays()  # past the end names nothing
    n, m, ts, evs = g.order, unit.size, g.transitions, g.events
    idx = np.arange(n)

    rep.checks += n
    for a in np.flatnonzero((src >= m) | (tgt >= m) | (inv >= n)):
        t = ts[a]
        if src[a] >= m:
            bad("transition %r has invalid source %r" % (t, g.source[t]))
        if tgt[a] >= m:
            bad("transition %r has invalid target %r" % (t, g.target[t]))
        if inv[a] >= n:
            bad("transition %r has no inverse" % t)
    if rep.violations:
        return rep

    rep.checks += m
    # the event each unit loops at, else -1, also where there is no unit
    at = np.append(np.where(src == tgt, src, -1), -1)[np.minimum(unit, n)]
    for x in np.flatnonzero(at != np.arange(m)):
        if unit[x] >= n:
            bad("event %r has no unit transition" % evs[x])
        else:
            bad("unit %r of event %r is not a loop at it"
                % (ts[unit[x]], evs[x]))
    if rep.violations:
        return rep

    # composition domain: defined iff composable, with the right endpoints
    rep.checks += n * n
    o, i, r = g._rows[:, np.all(g._rows[:2] < n, axis=0)]
    should = tgt[i] == src[o]
    # the slot table: o∘i is comp[off[o] + rank[i]], -1 where none is
    size, rank = np.bincount(tgt, minlength=m), g._rank
    start, width = np.cumsum(size) - size, size[src]
    off, comp = np.cumsum(width) - width, np.full(width.sum(), -1, np.intp)
    comp[off[o[should]] + rank[i[should]]] = r[should]
    # each slot's outer o and inner, read at its rank in the block of s(o)
    outer, blocks = np.repeat(idx, width), np.argsort(tgt, kind="stable")
    inner = blocks[np.arange(comp.size) + (start[src] - off)[outer]]
    s = np.clip(comp, 0, n - 1)  # `select` codes the slots out of range first
    wrong = (src[s] != src[inner]) | (tgt[s] != tgt[outer])
    code = np.select([comp < 0, comp >= n, wrong], [2, 3, 4])
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

    # associativity a∘(b∘c) = (a∘b)∘c on all composable triples, the pairs
    # (a, b) read in parts and stacked by the number w of transitions c
    # into s(b): the slot row of b holds b∘c, and that of a∘b (a∘b)∘c
    fails, ranked = [], rank[comp]
    views = {w: (sliding_window_view(comp, w), sliding_window_view(ranked, w))
             for w in np.flatnonzero(np.bincount(width)).tolist()}
    for a, b, ab in g.composition_parts(width.max(initial=1)):
        for w in np.flatnonzero(np.bincount(width[b])).tolist():
            (rows, ranks), at = views[w], width[b] == w
            a_w, b_w = a[at], b[at]
            lhs = comp[off[a_w, None] + ranks[off[b_w]]]
            rep.checks += lhs.size
            p, j = np.divmod(np.flatnonzero(lhs != rows[off[ab[at]]]), w)
            fails += zip(inner[off[b_w[p]] + j], b_w[p], a_w[p])
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


# ---------------------------------------------------------------------------
# constructors


def unit_label(event):
    return "1_%s" % event


def pair_label(src, tgt):
    return "%s->%s" % (src, tgt)


def _pair_components(events, roots):
    """The disjoint union of the pair groupoids on the components of
    ``events``, ``roots[k]`` the first event of the component of event k,
    with its orbit table, by index arithmetic in one step per component
    size.  On a component c, in event order, idx[i, j] indexes c[i] -> c[j];
    its representative is c[0], so gather[p, q] = c[q] -> c[p] = idx[q, p],
    and row p of gather is the block of c[p].  A generated label that
    repeats an earlier one, by component in the order of their first
    events and then by source and target, is an input error."""
    n = len(events)
    # components numbered by first event; np.unique would sort with
    # numpy's default sort, ~3 MiB more resident in every process
    roots = np.asarray(roots)
    component = (np.cumsum(roots == np.arange(n)) - 1)[roots]
    sizes = np.bincount(component)
    members = np.argsort(component, kind="stable")  # by component
    into = sizes[component] - 1  # the non-units into each event
    first = n + np.cumsum(into) - into  # units first, then by target
    start = np.cumsum(sizes) - sizes  # each component's first member
    src, tgt, inv = (np.empty((sizes ** 2).sum(), dtype=np.intp)
                     for _ in range(3))
    stacks = []
    for m in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.flatnonzero(sizes == m)
        c = members[start[which, None] + np.arange(m)]
        i, j = np.indices((m, m))  # c[i] -> c[j], sources ascending
        idx = np.where(i == j, c[:, i], first[c[:, j]] + i - (i > j))
        gather = idx.transpose(0, 2, 1).copy()
        src[idx], tgt[idx], inv[idx] = c[:, i], c[:, j], gather
        stacks.append(OrbitStack(*map(read_only, (
            gather, c.flatten(), np.repeat(np.arange(which.size), m),
            gather.reshape(-1, m)))))
    labels = [unit_label(events[x]) if x == y else
              pair_label(events[x], events[y])
              for x, y in zip(src.tolist(), tgt.tolist())]
    if len(set(labels)) < len(labels):  # then find the first repeat
        seen = {}
        for k in np.lexsort((tgt, src, component[src])).tolist():
            if seen.setdefault(labels[k], k) != k:
                q = seen[labels[k]]
                raise GqmInputError(
                    "event pairs %r and %r both generate the label %r"
                    % ((events[src[q]], events[tgt[q]]),
                       (events[src[k]], events[tgt[k]]), labels[k]))
    return FiniteGroupoid._indexed(tuple(events), tuple(labels), [
        src, tgt, inv, np.arange(n)], tuple(stacks))


def pair_groupoid(events) -> FiniteGroupoid:
    """The groupoid of ordered pairs over ``events``: |G| = |events|^2."""
    events = list(events)
    if not events:
        raise GqmInputError("pair groupoid needs at least one event")
    _check_labels(events, "event")
    return _pair_components(events, np.zeros(len(events), dtype=np.intp))


def group_as_groupoid(elements, table, identity, event="*") -> FiniteGroupoid:
    """Single-event groupoid from a finite group multiplication table.

    ``table`` maps (left, right) -> product; compose(outer, inner) is
    table[(outer, inner)].  Group axioms are re-checked by `validate`.
    """
    _check_labels([event], "event")
    elements = list(elements)
    _check_labels(elements, "group element")
    if identity not in elements:
        raise GqmInputError("identity %r is not a listed element" % identity)
    order = [identity] + sorted(x for x in elements if x != identity)
    n = len(order)
    place = dict(zip(order, range(n)))
    cells = dict(zip(product(order, order), range(n * n)))  # (a, b): a·n + b
    pairs = _encode(table, cells, cells)[0]  # past n·n: no pair of elements
    result = _encode(table.values(), place, order)[0]  # past n: no element
    bad = np.flatnonzero((pairs >= n * n) | (result >= n))
    if bad.size:
        raise GqmInputError("table entry %r -> %r is out of range"
                            % next(islice(table.items(), bad[0], None)))
    triples = np.stack([*np.divmod(pairs, n), result])
    times = np.full((n, n), -1)  # by (left, right), -1 where missing
    times[triples[0], triples[1]] = result
    given = _encode(elements, place, order)[0]  # messages follow it
    missing = np.argwhere(times[np.ix_(given, given)] < 0).tolist()
    if missing:
        raise GqmInputError("multiplication table is incomplete: %r"
                            % [(elements[i], elements[j]) for i, j in missing])

    # the inverse of a is the one b with a.b = e, and b.a = e must follow
    ones = times == 0
    inverse = ones.argmax(axis=1)
    unique = (ones.sum(axis=1) == 1) & (times[inverse, np.arange(n)] == 0)
    for k in np.flatnonzero(~unique[given]):
        raise GqmInputError("element %r has no unique inverse" % elements[k])

    zeros = np.zeros(n, dtype=np.intp)  # the one event and its unit
    g = FiniteGroupoid._indexed((event,), tuple(order),
                                [zeros, zeros, inverse, zeros[:1]])
    g._rows = read_only(triples)
    report = validate(g)
    if not report.ok:  # an invalid table (e.g. broken associativity)
        raise GqmInputError(str(GroupoidValidationError(report.violations)))
    return g


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
    g = _pair_components(q.events, [find(k) for k in range(len(root))])
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
    ev_ix = {x: i for i, x in enumerate(events)}
    units = [unit_of.get(x) for x in events]
    try:  # units first in event order, then by (target, source, label)
        order = tuple(units + sorted(tset.difference(units), key=lambda t: (
            ev_ix[target[t]], ev_ix[source[t]], t)))
    except KeyError:  # incomplete tables, which `validate` reports
        order = ()
    if len(order) != len(tset):  # or units that repeat or are no transition
        order = tuple(transitions)
    g = FiniteGroupoid(tuple(events), order, source, target, unit_of,
                       inverse, composition)
    unknown = np.flatnonzero(np.any(g._rows[:2] >= len(order), axis=0))
    if unknown.size:  # the first in table order
        raise GqmInputError("composition entry %r names an unknown transition"
                            % (next(islice(composition, unknown[0], None)),))
    if not events:
        raise GqmInputError("a groupoid needs at least one event")
    rep = validate(g)
    if not rep.ok:
        raise GroupoidValidationError(rep.violations)
    return g
