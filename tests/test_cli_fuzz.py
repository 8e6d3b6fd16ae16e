"""Random, mutated and valid spec documents, and raw files that are no
JSON document, fed to the CLI.

Whatever the documents hold, a run ends in a report or a clean exit: an
exit code in {0, 1, 2, 3}, at most one stderr line and no traceback or
warning, and stdout that is strict JSON (no NaN or Infinity).  Valid
documents, of groupoids with isotropy and several orbits, run every
subcommand on every state type, so that each branch of a command runs.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gqm import NORMALIZATIONS
from gqm.cli import main
from gqm.examples import build_qubit
from gqm.states import random_state
from groupoids import GROUPS, composite_specs
from specdocs import groupoid_to_doc, parse_groupoid_text, state_to_doc

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


GROUPOID_TEXT = json.dumps({"kind": "pair", "events": ["é", "b"]},
                           ensure_ascii=False)


@pytest.mark.parametrize("raw", [
    pytest.param(b"\xff\xfe{}", id="invalid-utf8"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="deep-arrays"),
    pytest.param(b'{"a": ' * 100000 + b"0" + b"}" * 100000,
                 id="deep-objects"),
    pytest.param(b"\xef\xbb\xbf" + GROUPOID_TEXT.encode(), id="utf8-bom"),
    pytest.param(GROUPOID_TEXT.encode()[:-4], id="truncated"),
    pytest.param(GROUPOID_TEXT.encode()[:30], id="truncated-in-a-character"),
])
@pytest.mark.parametrize("target", ["G", "S"])
def test_cli_rejects_raw_files(tmp_path, capsys, raw, target):
    """A groupoid or state file that is not UTF-8 JSON text, is nested too
    deeply to parse, starts with a byte order mark or is cut short ends
    in exit 1 with one stderr line and no traceback."""
    files = {"G": GROUPOID_TEXT.encode(), "S": b'{"type": "delta", '
             b'"event": "b"}'}
    files[target] = raw
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["psd-check", str(tmp_path / "G"), str(tmp_path / "S")])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(
        "error: %s is not valid JSON: " % (tmp_path / target)), err
    assert "Traceback" not in err


unit_reals = st.floats(-1, 1)


@st.composite
def valid_run(draw):
    """(argv, documents) of one run of a drawn command on valid documents:
    a groupoid of `composite_specs`, as its explicit or group spec or,
    where it has one, its quiver spec; a characteristic (random or PSD),
    delta, action or generator-action state; two algebra elements; a
    random unitary on the events; and transition labels and arrow names
    for the sets.  Action states, generator actions (on quiver specs) and
    ``frame`` (on one component) draw pair components."""
    command = draw(st.sampled_from([
        "validate", "psd-check", "decoherence", "decoherence-csv", "measure",
        "interference", "gns", "algebra-mult", "frame"]))
    kind = draw(st.sampled_from(["characteristic", "psd", "delta", "action",
                                 "generator-action"]))
    explicit, quiver = draw(composite_specs(
        max_components=1 if command == "frame" else 2,
        groups=GROUPS[:1] if command == "frame" or "action" in kind
        else GROUPS))
    spec = quiver if quiver is not None and (
        kind == "generator-action" or draw(st.booleans())) else explicit
    g = parse_groupoid_text(json.dumps(spec))
    labels = list(g.transitions) + list(g.aliases)
    rng = np.random.default_rng(draw(st.integers(0, 99)))

    def values(field):
        chosen = draw(st.lists(st.sampled_from(labels), unique=True))
        return {field: {lab: [draw(unit_reals), draw(unit_reals)]
                        for lab in chosen}}

    if kind == "characteristic":
        state = {"type": kind, **values("values")}
    elif kind == "psd":
        state = state_to_doc(random_state(g, rng))
    elif kind == "delta":
        state = {"type": kind, "event": draw(st.sampled_from(g.events))}
    elif kind == "action":
        state = {"type": kind, "potential": {
            x: draw(st.floats(-10, 10)) for x in g.events}}
    else:
        u = {x: draw(st.floats(-10, 10)) for x in g.events}
        noise = draw(st.sampled_from([0.0, 0.0, 1.0]))
        state = {"type": kind, "values": {
            a["label"]: u[a["target"]] - u[a["source"]]
            + noise * draw(unit_reals) for a in spec["arrows"]}}
    n = len(g.events)
    q = np.linalg.qr(rng.normal(size=(n, 2 * n)).view(complex))[0]
    docs = {"G": spec, "S": state, "A": values("coeffs"),
            "B": values("coeffs"),
            "U": {"unitary": [[[z.real, z.imag] for z in row]
                              for row in q.tolist()]}}

    def labelset():
        return ",".join(draw(st.lists(st.sampled_from(labels), min_size=1,
                                      max_size=3, unique=True)))

    normalization = ["--normalization", draw(st.sampled_from(
        NORMALIZATIONS))]
    order = draw(st.integers(1, 3))
    argv = {
        "validate": ["validate", "G"],
        "psd-check": ["psd-check", "G", "S"],
        "decoherence": ["decoherence", "G", "S", *normalization],
        "decoherence-csv": ["--format", "csv", "decoherence", "G", "S",
                            *normalization],
        "measure": ["measure", "G", "S", "--set", labelset(),
                    *normalization],
        "interference": ["interference", "G", "S", "--order", str(order),
                         "--sets", ";".join(labelset()
                                            for _ in range(order)),
                         *normalization],
        "gns": ["gns", "G", "S"],
        "algebra-mult": ["algebra-mult", "G", "A", "B"],
        "frame": ["frame", "G", "--unitary", "U"],
    }[command]
    return argv, docs


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(valid_run())
def test_cli_runs_every_command_on_valid_documents(tmp_path, capsys, run):
    argv, docs = run
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / a) if a in docs else a for a in argv]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert err == "" or (err.startswith("error: ")
                         and err.count("\n") == 1), err
    if "csv" in argv:
        assert not any(w in out.lower() for w in ("nan", "inf")), out
    elif code == 0 or out:
        strict_json(out)
