"""Strict parsing and deterministic serialization of spec documents.

All external documents are UTF-8 JSON.  Parsing is strict: unknown fields
are rejected, complex numbers are always [re, im] pairs, angles are
radians.  Serialization is deterministic, so repeated runs produce
byte-identical reports: JSON prints each float as its shortest
round-tripping ``repr``, and CSV cells print each part with ``%.17g``,
which round-trips as well.
"""

from __future__ import annotations

import json

import numpy as np

from . import action, algebra, states
from .errors import GqmInputError
from .groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    from_explicit,
    from_quiver,
    group_as_groupoid,
    is_number,
    pair_groupoid,
    real,
)

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
    fields = frozenset(names)
    for k, entry in enumerate(value):
        if not (isinstance(entry, dict) and entry.keys() == fields
                and all(isinstance(x, str) for x in entry.values())):
            label = "%s %d" % (what, k)  # a failing record: one check raises
            row = _take(_require_object(entry, label), names, label)
            for f in names:
                _string(row[f], "%s %s" % (label, f))
        yield tuple(map(entry.get, names))


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


def parse_complex(value, what="complex value"):
    if (not isinstance(value, list) or len(value) != 2
            or not all(map(is_number, value))):
        raise GqmInputError("%s must be a [re, im] pair" % what)
    return complex(real(value[0], what), real(value[1], what))


def load_json(data, what):
    """Parse UTF-8 JSON bytes: undecodable, malformed or too deeply nested
    text and the NaN and Infinity literals are input errors naming ``what``."""
    def reject(literal):
        raise GqmInputError("%s has a non-finite number: %s"
                            % (what, literal))
    try:
        return json.loads(data.decode("utf-8"), parse_constant=reject)
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON
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


STATE_TYPES = ("characteristic", "delta", "action", "generator-action")


def parse_state_doc(doc, g: FiniteGroupoid):
    """The state a state spec defines on ``g``: a CharacteristicFunction
    for 'characteristic', 'delta' and 'action' (the unnormalized pure
    phase e^{is} of the potential's action s), and an unbound
    GeneratorAction for 'generator-action', which `bind_generator_action`
    checks against the quiver that generated ``g``."""
    doc = _require_object(doc, "state spec")
    kind = doc.get("type")
    if kind not in STATE_TYPES:
        raise GqmInputError(
            "state spec 'type' must be one of %s" % ", ".join(STATE_TYPES)
        )
    if kind == "characteristic":
        fields = _take(doc, ("type", "values"), "characteristic state spec")
        values = _require_object(fields["values"], "'values'")
        return states.CharacteristicFunction.from_dict(g, {
            label: parse_complex(v, "value of %r" % label)
            for label, v in values.items()
        })
    if kind == "delta":
        fields = _take(doc, ("type", "event"), "delta state spec")
        return states.delta_state(g, _string(fields["event"], "'event'"))
    if kind == "action":
        fields = _take(doc, ("type", "potential"), "action state spec")
        pot = _require_object(fields["potential"], "'potential'")
        s = action.action_from_potential(
            g, {x: real(v, "potential at %r" % x) for x, v in pot.items()})
        return states.CharacteristicFunction(g, np.exp(1j * s.values))
    fields = _take(doc, ("type", "values"), "generator-action state spec")
    return action.GeneratorAction(
        _require_object(fields["values"], "'values'"))


def bind_generator_action(ga, g: FiniteGroupoid):
    """``ga`` once it names exactly the arrows of the quiver that
    generated ``g``."""
    ga.arrows(g)
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


def parse_algebra_doc(doc, g: FiniteGroupoid):
    doc = _require_object(doc, "algebra element spec")
    fields = _take(doc, ("coeffs",), "algebra element spec")
    coeffs = _require_object(fields["coeffs"], "'coeffs'")
    return algebra.AlgebraElement.from_dict(g, {
        label: parse_complex(v, "coefficient of %r" % label)
        for label, v in coeffs.items()
    })


# -- serialization -------------------------------------------------------


def complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": int(mat.shape[0]),
        "rows": [[[z.real, z.imag] for z in row.tolist()] for row in mat],
    }


def matrix_to_csv(mat) -> str:
    mat = np.asarray(mat, dtype=complex)
    return "\n".join(",".join("%.17g%+.17gj" % (z.real, z.imag)
                              for z in row.tolist()) for row in mat) + "\n"


def algebra_to_doc(a) -> dict:
    """{transition label: [re, im]} of the nonzero coefficients."""
    return {"coeffs": {a.groupoid.transitions[k]: complex_pair(a.coeffs[k])
                       for k in np.flatnonzero(a.coeffs)}}


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, stable separators, newline at EOF."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=2) + "\n"
