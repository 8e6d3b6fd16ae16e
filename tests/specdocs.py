"""Spec documents written from objects, and groupoid specs read from
text: the inverses of the ``gqm.specio`` parsers that only the tests use.
"""

from gqm.specio import algebra_to_doc, load_json, parse_groupoid_doc


def parse_groupoid_text(text):
    return parse_groupoid_doc(load_json(text.encode(), "groupoid spec"))


def state_to_doc(phi):
    """The characteristic state spec of ``phi``: its nonzero values."""
    return {"type": "characteristic",
            "values": algebra_to_doc(phi.as_algebra_element())["coeffs"]}


def groupoid_to_doc(g):
    """Explicit-kind document; re-parsing gives back an equal groupoid."""
    return {
        "kind": "explicit",
        "events": list(g.events),
        "transitions": list(g.transitions),
        "source": {t: g.source[t] for t in g.transitions},
        "target": {t: g.target[t] for t in g.transitions},
        "units": {x: g.unit_of[x] for x in g.events},
        "inverse": {t: g.inverse[t] for t in g.transitions},
        "compose": [
            {"inner": i, "outer": o, "result": r}
            for (o, i), r in sorted(g.composition.items())
        ],
    }
