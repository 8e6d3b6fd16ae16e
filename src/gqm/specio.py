"""Strict parsing and deterministic serialization of spec documents.

All external documents are UTF-8 JSON.  Parsing is strict: unknown fields
are rejected, complex numbers are always [re, im] pairs, angles are
radians.  Serialization renders every float with 17 significant digits so
repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .action import GeneratorAction
from .algebra import AlgebraElement
from .errors import GqmInputError
from .groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    from_explicit,
    from_quiver,
    group_as_groupoid,
    pair_groupoid,
)
from .states import CharacteristicFunction, delta_state

GROUPOID_KINDS = ("pair", "quiver", "explicit", "group")


def _require_object(doc, what):
    if not isinstance(doc, dict):
        raise GqmInputError("%s must be a JSON object" % what)
    return doc


def _take(doc, names, what):
    """Strict field extraction: exactly the keys ``names``, nothing else."""
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise GqmInputError(
            "unknown field(s) in %s: %s" % (what, ", ".join(unknown))
        )
    missing = sorted(set(names) - set(doc))
    if missing:
        raise GqmInputError(
            "missing field(s) in %s: %s" % (what, ", ".join(missing))
        )
    return doc


def _string_list(value, what):
    if not isinstance(value, list) or not all(
        isinstance(x, str) for x in value
    ):
        raise GqmInputError("%s must be an array of strings" % what)
    return list(value)


def _string(value, what):
    if not isinstance(value, str):
        raise GqmInputError("%s must be a string" % what)
    return value


def _records(value, key, what, names):
    """Yield each object of the array ``value`` (the field ``key``) as the
    tuple of its fields ``names``, which must be exactly its fields and
    all strings; ``what`` names one object in messages."""
    if not isinstance(value, list):
        raise GqmInputError("'%s' must be an array" % key)
    for k, entry in enumerate(value):
        label = "%s %d" % (what, k)
        row = _take(_require_object(entry, label), names, label)
        yield tuple(_string(row[f], "%s %s" % (label, f)) for f in names)


def _binary_table(value, key, what, names):
    """{(first, second): third} over `_records`; a repeated pair is an
    input error."""
    table = {}
    for first, second, third in _records(value, key, what, names):
        if (first, second) in table:
            raise GqmInputError("duplicate %s for %r"
                                % (what, (first, second)))
        table[(first, second)] = third
    return table


def _string_map(value, what):
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise GqmInputError("%s must map strings to strings" % what)
    return dict(value)


def _is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _finite(value, what):
    """float(value), rejecting numbers that overflow to infinity."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise GqmInputError("%s must be finite" % what)
    return x


def _real(value, what):
    if not _is_number(value):
        raise GqmInputError("%s must be a real number" % what)
    return _finite(value, what)


def parse_complex(value, what="complex value"):
    if (not isinstance(value, list) or len(value) != 2
            or not all(map(_is_number, value))):
        raise GqmInputError("%s must be a [re, im] pair" % what)
    return complex(_finite(value[0], what), _finite(value[1], what))


def load_json(text, what):
    """Parse JSON text; malformed text and the non-standard NaN and
    Infinity literals are input errors naming ``what``."""
    def reject(literal):
        raise GqmInputError("%s has a non-finite number: %s"
                            % (what, literal))
    try:
        return json.loads(text, parse_constant=reject)
    except ValueError as exc:  # JSONDecodeError, or an integer too long
        raise GqmInputError("%s is not valid JSON: %s" % (what, exc))


def parse_groupoid_doc(doc) -> FiniteGroupoid:
    doc = _require_object(doc, "groupoid spec")
    kind = doc.get("kind")
    if kind not in GROUPOID_KINDS:
        raise GqmInputError(
            "groupoid spec 'kind' must be one of %s" % ", ".join(GROUPOID_KINDS)
        )
    if kind == "pair":
        fields = _take(doc, ("kind", "events"), "pair groupoid spec")
        return pair_groupoid(_string_list(fields["events"], "'events'"))
    if kind == "quiver":
        return from_quiver(parse_quiver_doc(doc))
    if kind == "group":
        fields = _take(doc, ("kind", "events", "elements", "identity", "table"),
                       "group spec")
        events = _string_list(fields["events"], "'events'")
        if len(events) != 1:
            raise GqmInputError("a group spec declares exactly one event")
        table = _binary_table(fields["table"], "table", "table entry",
                              ("left", "right", "result"))
        return group_as_groupoid(
            _string_list(fields["elements"], "'elements'"),
            table, _string(fields["identity"], "'identity'"),
            event=events[0],
        )
    # kind == "explicit"
    fields = _take(
        doc,
        ("kind", "events", "transitions", "source", "target", "units",
         "inverse", "compose"),
        "explicit groupoid spec",
    )
    composition = _binary_table(fields["compose"], "compose", "compose entry",
                                ("outer", "inner", "result"))
    return from_explicit(
        _string_list(fields["events"], "'events'"),
        _string_list(fields["transitions"], "'transitions'"),
        _string_map(fields["source"], "'source'"),
        _string_map(fields["target"], "'target'"),
        _string_map(fields["units"], "'units'"),
        _string_map(fields["inverse"], "'inverse'"),
        composition,
    )


def parse_quiver_doc(doc) -> QuiverSpec:
    """The events and arrows of a quiver-kind groupoid spec."""
    fields = _take(_require_object(doc, "groupoid spec"),
                   ("kind", "events", "arrows"), "quiver spec")
    arrows = list(_records(fields["arrows"], "arrows", "arrow",
                           ("label", "source", "target")))
    return QuiverSpec(_string_list(fields["events"], "'events'"), arrows)


def parse_groupoid_text(text) -> FiniteGroupoid:
    return parse_groupoid_doc(load_json(text, "groupoid spec"))


STATE_TYPES = ("characteristic", "delta", "action", "generator-action")


def parse_state_doc(doc, g: FiniteGroupoid):
    """Returns a CharacteristicFunction for 'characteristic'/'delta', a
    potential dict for 'action', and a GeneratorAction payload dict for
    'generator-action' (the caller binds it to its quiver)."""
    doc = _require_object(doc, "state spec")
    kind = doc.get("type")
    if kind not in STATE_TYPES:
        raise GqmInputError(
            "state spec 'type' must be one of %s" % ", ".join(STATE_TYPES)
        )
    if kind == "characteristic":
        fields = _take(doc, ("type", "values"), "characteristic state spec")
        values = _require_object(fields["values"], "'values'")
        return CharacteristicFunction.from_dict(g, {
            label: parse_complex(v, "value of %r" % label)
            for label, v in values.items()
        })
    if kind == "delta":
        fields = _take(doc, ("type", "event"), "delta state spec")
        return delta_state(g, _string(fields["event"], "'event'"))
    if kind == "action":
        fields = _take(doc, ("type", "potential"), "action state spec")
        pot = _require_object(fields["potential"], "'potential'")
        return {
            "type": "action",
            "potential": {x: _real(v, "potential at %r" % x)
                          for x, v in pot.items()},
        }
    fields = _take(doc, ("type", "values"), "generator-action state spec")
    values = _require_object(fields["values"], "'values'")
    return {
        "type": "generator-action",
        "values": {label: _real(v, "action on %r" % label)
                   for label, v in values.items()},
    }


def bind_generator_action(payload, quiver: QuiverSpec) -> GeneratorAction:
    ga = GeneratorAction(quiver, dict(payload["values"]))
    ga.validate()
    return ga


def parse_unitary_doc(doc) -> np.ndarray:
    doc = _require_object(doc, "frame spec")
    fields = _take(doc, ("unitary",), "frame spec")
    rows = fields["unitary"]
    if not isinstance(rows, list) or not rows:
        raise GqmInputError("'unitary' must be a non-empty array of rows")
    mat = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows):
            raise GqmInputError("unitary row %d has wrong length" % i)
        mat.append([parse_complex(c, "unitary entry (%d, %d)" % (i, j))
                    for j, c in enumerate(row)])
    return np.array(mat, dtype=complex)


def parse_algebra_doc(doc, g: FiniteGroupoid) -> AlgebraElement:
    doc = _require_object(doc, "algebra element spec")
    fields = _take(doc, ("coeffs",), "algebra element spec")
    coeffs = _require_object(fields["coeffs"], "'coeffs'")
    return AlgebraElement.from_dict(g, {
        label: parse_complex(v, "coefficient of %r" % label)
        for label, v in coeffs.items()
    })


# -- serialization -------------------------------------------------------


def format_real(x) -> float:
    """Round-trippable float for JSON: emitted via a 17-significant-digit
    decimal so identical runs give identical bytes."""
    return float("%.17g" % float(x))


def complex_pair(z):
    z = complex(z)
    return [format_real(z.real), format_real(z.imag)]


def matrix_to_json(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": int(mat.shape[0]),
        "rows": [[complex_pair(z) for z in row] for row in mat],
    }


def matrix_to_csv(mat) -> str:
    mat = np.asarray(mat, dtype=complex)
    lines = []
    for row in mat:
        cells = []
        for z in row:
            re, im = format_real(z.real), format_real(z.imag)
            cells.append("%.17g%+.17gj" % (re, im))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _nonzero_entries(g: FiniteGroupoid, vec) -> dict:
    """{transition label: [re, im]} of the nonzero entries of ``vec``."""
    return {g.transitions[k]: complex_pair(vec[k])
            for k in np.flatnonzero(vec)}


def algebra_to_doc(a: AlgebraElement) -> dict:
    return {"coeffs": _nonzero_entries(a.groupoid, a.coeffs)}


def state_to_doc(phi: CharacteristicFunction) -> dict:
    return {"type": "characteristic",
            "values": _nonzero_entries(phi.groupoid, phi.values)}


def groupoid_to_doc(g: FiniteGroupoid) -> dict:
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


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, stable separators, newline at EOF."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=2) + "\n"
