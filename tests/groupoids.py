"""Finite groupoids with isotropy and several orbits, and quivers with
generator actions, as Hypothesis strategies.

A connected finite groupoid is isomorphic to pair(O) x H, with O its
events and H the isotropy group of any of them, and every finite groupoid
is a disjoint union of connected ones.  `composite_specs` draws
⊔ pair(O_i) x H_i with each H_i one of the group tables below, shuffles
the events of all components together, names the transitions at random
(which decides their canonical order within a (target, source) pair) and
writes it as an ``explicit`` spec document, or on one event possibly as a
``group`` spec, and where every H_i is trivial also as a ``quiver`` spec.
`composite_groupoids` builds the first of these through ``specio``.
`chain_quiver` builds many small orbits of one block size.
"""

import json

from hypothesis import strategies as st

from gqm.groupoid import QuiverSpec, from_quiver
from gqm.specio import bind_generator_action, parse_state_doc
from specdocs import parse_groupoid_text


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# Cayley tables, row a and column b holding the index of a.b; element 0
# is the identity
KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
# the permutations of (0, 1, 2) in lexicographic order, a.b = a∘b
S3 = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
      [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]
# 1, i, j, k, -1, -i, -j, -k
Q8 = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 4, 3, 6, 5, 0, 7, 2],
      [2, 7, 4, 1, 6, 3, 0, 5], [3, 2, 5, 4, 7, 6, 1, 0],
      [4, 5, 6, 7, 0, 1, 2, 3], [5, 0, 7, 2, 1, 4, 3, 6],
      [6, 3, 0, 5, 2, 7, 4, 1], [7, 6, 1, 0, 3, 2, 5, 4]]
GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), KLEIN, S3, Q8]


def pair_times_group_doc(components, events, order, names):
    """The explicit spec of ⊔ pair(O) x H over ``components``, a list of
    (O, table) pairs, with the events listed as ``events``; transitions
    are listed in ``order`` (a permutation of their count) and named
    ``names[k]``."""
    arrows = [(x, y, h, table) for orbit, table in components
              for x in orbit for y in orbit for h in range(len(table))]
    label = {a[:3]: names[k] for k, a in enumerate(arrows)}
    inverse = {}
    compose = []
    for x, y, h, table in arrows:
        inverse[label[x, y, h]] = label[y, x, table[h].index(0)]
        for z, k in ((z, k) for z, w, k, _ in arrows if w == x):
            # (x -> y, h) after (z -> x, k) is (z -> y, h.k)
            compose.append({"outer": label[x, y, h], "inner": label[z, x, k],
                            "result": label[z, y, table[h][k]]})
    return {
        "kind": "explicit",
        "events": events,
        "transitions": [names[k] for k in order],
        "source": {label[a[:3]]: a[0] for a in arrows},
        "target": {label[a[:3]]: a[1] for a in arrows},
        "units": {x: label[x, x, 0] for orbit, _ in components
                  for x in orbit},
        "inverse": inverse,
        "compose": compose,
    }


@st.composite
def composite_specs(draw, max_components=3, groups=GROUPS):
    """⊔ pair(O_i) x H_i with 1 to ``max_components`` components, H_i
    drawn from ``groups``, orbits of 1 to 3 events (at most 2 when |H_i| >
    4), events shuffled across components.  Returns its explicit spec, or
    on one event either that or a ``group`` spec (table entries in drawn
    order), and, where every H_i is trivial, a quiver spec on the same
    events, one spanning path per orbit in shuffled order, its arrows in
    drawn directions (else None)."""
    components = []
    count = 0
    for _ in range(draw(st.integers(1, max_components))):
        table = draw(st.sampled_from(groups))
        size = draw(st.integers(1, 3 if len(table) <= 4 else 2))
        components.append((count + size, table))
        count += size
    events = ["v%d" % k for k in range(count)]
    parts, first = [], 0
    for end, table in components:
        parts.append((events[first:end], table))
        first = end
    total = sum(len(ev) ** 2 * len(table) for ev, table in parts)
    shuffled = draw(st.permutations(events))
    doc = pair_times_group_doc(
        parts, shuffled, draw(st.permutations(range(total))),
        draw(st.permutations(["t%d" % k for k in range(total)])))
    if count == 1 and draw(st.booleans()):
        doc = {"kind": "group", "events": events,
               "elements": doc["transitions"],
               "identity": doc["units"][events[0]],
               "table": [{"left": c["outer"], "right": c["inner"],
                          "result": c["result"]}
                         for c in draw(st.permutations(doc["compose"]))]}
    if any(len(table) > 1 for _, table in parts):
        return doc, None
    arrows = []
    for orbit, _ in parts:
        path = [x for x in shuffled if x in orbit]
        for x, y in zip(path, path[1:]):
            x, y = draw(st.sampled_from([(x, y), (y, x)]))
            arrows.append({"label": "p%d" % len(arrows), "source": x,
                           "target": y})
    return doc, {"kind": "quiver", "events": shuffled, "arrows": arrows}


def composite_groupoids(max_components=3):
    """The groupoids of `composite_specs`, built from their explicit or
    group specs through ``specio``."""
    return composite_specs(max_components).map(
        lambda specs: parse_groupoid_text(json.dumps(specs[0])))


@st.composite
def generator_actions(draw):
    """A quiver on 1 to 8 shuffled events with up to 12 random arrows,
    self-loops and parallel arrows among them, random labels and random
    arrow values of at most 1e3, +-0.0 included; half of the draws take
    their values from a potential, so that they extend to an action.  The
    quiver and the generator-action spec go through ``specio``.  Returns
    (groupoid, arrows, action) with ``arrows`` the (label, source,
    target) triples in arrow order."""
    count = draw(st.integers(1, 8))
    events = draw(st.permutations(["v%d" % k for k in range(count)]))
    ends = draw(st.lists(st.tuples(st.sampled_from(events),
                                   st.sampled_from(events)), max_size=12))
    labels = draw(st.lists(st.text("abcdef_", min_size=1, max_size=3),
                           min_size=len(ends), max_size=len(ends),
                           unique=True))
    real = st.floats(-1e3, 1e3)
    if draw(st.booleans()):
        u = dict(zip(events, draw(st.lists(real, min_size=count,
                                           max_size=count))))
        values = [u[y] - u[x] for x, y in ends]
    else:
        values = draw(st.lists(real, min_size=len(ends),
                               max_size=len(ends)))
    arrows = [(label, x, y) for label, (x, y) in zip(labels, ends)]
    g = parse_groupoid_text(json.dumps({
        "kind": "quiver", "events": events,
        "arrows": [{"label": a, "source": x, "target": y}
                   for a, x, y in arrows]}))
    ga = parse_state_doc(json.loads(json.dumps({
        "type": "generator-action", "values": dict(zip(labels, values))})),
        g)
    return g, arrows, bind_generator_action(ga, g)


def chain_quiver(n, k):
    """n components, each a path of k events and k - 1 arrows."""
    events = ["v%d_%d" % (c, i) for c in range(n) for i in range(k)]
    return from_quiver(QuiverSpec(events, [
        ("p%d_%d" % (c, i), "v%d_%d" % (c, i), "v%d_%d" % (c, i + 1))
        for c in range(n) for i in range(k - 1)]))
