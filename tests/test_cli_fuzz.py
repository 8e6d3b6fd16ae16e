"""Random and mutated spec documents fed to the CLI.

Whatever the documents hold, a run ends in a report or a clean exit: an
exit code in {0, 1, 2, 3}, at most one stderr line and no traceback or
warning, and stdout that is strict JSON (no NaN or Infinity).
"""

import json
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gqm.cli import main
from gqm.examples import build_qubit
from gqm.specio import groupoid_to_doc

LABELS = ["a", "b", "c", "1_a", "1_b", "a->b", "b->a", "b->c", "e", "g1",
          "alpha", "beta", "+", "-", "1_+", "alpha^-1", "x", ""]
KEYS = ["kind", "events", "arrows", "label", "source", "target", "type",
        "values", "event", "potential", "coeffs", "unitary", "elements",
        "identity", "table", "left", "right", "result", "transitions",
        "units", "inverse", "compose", "inner", "outer", "junk"]

QUIVER = {"kind": "quiver", "events": ["a", "b", "c"],
          "arrows": [{"label": "alpha", "source": "a", "target": "b"},
                     {"label": "beta", "source": "c", "target": "b"}]}
GROUPOIDS = [
    {"kind": "pair", "events": ["a", "b", "c"]},
    QUIVER,
    {"kind": "group", "events": ["*"], "elements": ["e", "g1"],
     "identity": "e",
     "table": [{"left": x, "right": y, "result": "e" if x == y else "g1"}
               for x in ("e", "g1") for y in ("e", "g1")]},
    groupoid_to_doc(build_qubit()),
]
STATES = [
    {"type": "characteristic",
     "values": {"1_a": [0.5, 0], "1_b": [0.5, 0], "a->b": [0.25, 0.1],
                "b->a": [0.25, -0.1]}},
    {"type": "delta", "event": "a"},
    {"type": "action", "potential": {"a": 0.0, "b": 1.5, "c": -2.0}},
    {"type": "generator-action", "values": {"alpha": 0.3, "beta": -1.0}},
]
ELEMENT = {"coeffs": {"a->b": [1, 0], "1_a": [0, 2], "e": [1, 1]}}
UNITARY = {"unitary": [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]],
                       [[0, 0], [0, 0], [1, 0]]]}

scalars = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([1e308, -1e308, 5e-324, 0.0])
           | st.sampled_from(LABELS))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS + LABELS), inner,
                                     max_size=4)),
    max_leaves=8)


@st.composite
def mutated(draw, doc):
    """``doc`` with one node replaced, removed or added, or a random
    document in its place."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        keys = list(range(len(node))) if isinstance(node, list) else \
            sorted(node)
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["replace", "remove", "add"]))
        if action == "replace":
            node[key] = draw(json_values)
        elif action == "remove":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(KEYS + LABELS))] = draw(json_values)
        else:
            node.append(draw(json_values))
        return doc


COMMANDS = [
    (["validate", "G"], ()),
    (["algebra-mult", "G", "A", "B"], ()),
    (["psd-check", "G", "S"], ()),
    (["decoherence", "G", "S", "--normalization"],
     ("none", "unit-events", "idempotent", "per-transition", "global")),
    (["measure", "G", "S", "--set"], ("a->b,1_a", "alpha", "1_b,e")),
    (["interference", "G", "S", "--order", "2", "--sets"],
     ("1_a;a->b", "alpha;beta")),
    (["gns", "G", "S"], ()),
    (["frame", "G", "--unitary", "U"], ()),
]


def strict_json(text):
    def reject(literal):
        raise ValueError("non-finite literal %s" % literal)
    return json.loads(text, parse_constant=reject)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_survives_mutated_documents(tmp_path, capsys, data):
    argv, options = data.draw(st.sampled_from(COMMANDS))
    docs = {"G": data.draw(st.sampled_from(GROUPOIDS)),
            "S": data.draw(st.sampled_from(STATES)),
            "A": ELEMENT, "B": ELEMENT, "U": UNITARY}
    target = data.draw(st.sampled_from([a for a in argv if a in docs]))
    docs[target] = data.draw(mutated(docs[target]))
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    if options:
        argv.append(data.draw(st.sampled_from(options)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err
    if code == 0 or out:
        strict_json(out)
