import json

import numpy as np
import pytest

from gqm.algebra import AlgebraElement
from gqm.errors import GqmInputError
from gqm.examples import build_qubit, double_slit_quiver
from gqm.specio import (
    algebra_to_doc,
    bind_generator_action,
    complex_pair,
    dump_json,
    groupoid_to_doc,
    matrix_to_csv,
    matrix_to_json,
    parse_algebra_doc,
    parse_complex,
    parse_groupoid_doc,
    parse_groupoid_text,
    parse_state_doc,
    parse_unitary_doc,
    state_to_doc,
)
from gqm.states import CharacteristicFunction, random_state


def test_parse_pair_doc():
    g = parse_groupoid_doc({"kind": "pair", "events": ["x", "y"]})
    assert g.order == 4


def test_parse_quiver_doc():
    q = double_slit_quiver()
    doc = {
        "kind": "quiver",
        "events": q.events,
        "arrows": [{"label": l, "source": s, "target": t}
                   for l, s, t in q.arrows],
    }
    g = parse_groupoid_doc(doc)
    assert g.order == 16
    assert g.resolve("alpha") == "A->D"


def test_parse_group_doc():
    doc = {
        "kind": "group",
        "events": ["pt"],
        "elements": ["e", "g"],
        "identity": "e",
        "table": [
            {"left": "e", "right": "e", "result": "e"},
            {"left": "e", "right": "g", "result": "g"},
            {"left": "g", "right": "e", "result": "g"},
            {"left": "g", "right": "g", "result": "e"},
        ],
    }
    g = parse_groupoid_doc(doc)
    assert g.events == ("pt",)
    assert g.order == 2


def test_parse_rejects_unknown_fields():
    with pytest.raises(GqmInputError) as err:
        parse_groupoid_doc({"kind": "pair", "events": ["x"], "extra": 1})
    assert "extra" in str(err.value)
    with pytest.raises(GqmInputError):
        parse_state_doc({"type": "delta", "event": "x", "oops": 0},
                        build_qubit())


def test_parse_rejects_bad_kind_and_shape():
    with pytest.raises(GqmInputError):
        parse_groupoid_doc({"kind": "mystery", "events": []})
    with pytest.raises(GqmInputError):
        parse_groupoid_doc([1, 2, 3])
    with pytest.raises(GqmInputError):
        parse_groupoid_text("not json")
    with pytest.raises(GqmInputError):
        parse_groupoid_doc({"kind": "pair", "events": [1]})


def test_parse_rejects_non_finite_literals():
    for literal in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(GqmInputError, match="non-finite number"):
            parse_groupoid_text('{"kind": "pair", "events": ["x"], '
                                '"junk": %s}' % literal)


def test_groupoid_roundtrip():
    for g in (build_qubit(),):
        doc = groupoid_to_doc(g)
        back = parse_groupoid_doc(json.loads(dump_json(doc)))
        assert back.events == g.events
        assert back.transitions == g.transitions
        assert back.composition == g.composition


def test_state_docs(qubit):
    phi = parse_state_doc(
        {"type": "characteristic", "values": {"1_+": [0.5, 0],
                                              "alpha": [0, 0.25]}},
        qubit,
    )
    assert phi.value("alpha") == 0.25j
    delta = parse_state_doc({"type": "delta", "event": "+"}, qubit)
    assert delta.value("1_+") == 1.0
    action = parse_state_doc(
        {"type": "action", "potential": {"+": 1.0, "-": 0.0}}, qubit
    )
    assert action["potential"]["+"] == 1.0
    payload = parse_state_doc(
        {"type": "generator-action", "values": {"alpha": 0.5, "beta": 0.1,
                                                "alpha_bar": 0.0,
                                                "beta_bar": 0.0}},
        qubit,
    )
    ga = bind_generator_action(payload, double_slit_quiver())
    assert ga.values["alpha"] == 0.5
    with pytest.raises(GqmInputError):
        parse_state_doc({"type": "nope"}, qubit)
    for bad in ("x", float("inf"), float("nan"), 10 ** 400):
        with pytest.raises(GqmInputError):
            parse_state_doc({"type": "action", "potential": {"+": bad}},
                            qubit)


def test_state_roundtrip(qubit, rng):
    phi = random_state(qubit, rng)
    doc = json.loads(dump_json(state_to_doc(phi)))
    back = parse_state_doc(doc, qubit)
    assert isinstance(back, CharacteristicFunction)
    assert np.max(np.abs(back.values - phi.values)) <= 1e-16


def test_complex_parsing():
    assert parse_complex([1.5, -2.0]) == 1.5 - 2j
    for bad in (1.5, [1], [1, 2, 3], ["a", 0], [True, 0],
                [float("inf"), 0], [0, float("nan")], [10 ** 400, 0]):
        with pytest.raises(GqmInputError):
            parse_complex(bad)


def test_unitary_doc():
    u = parse_unitary_doc({"unitary": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]})
    assert u[0, 1] == 0j
    assert u[0, 0] == 1j
    with pytest.raises(GqmInputError):
        parse_unitary_doc({"unitary": [[[0, 0]], [[0, 0], [0, 0]]]})
    with pytest.raises(GqmInputError):
        parse_unitary_doc({"wrong": []})


def test_algebra_roundtrip(qubit):
    a = AlgebraElement.from_dict(qubit, {"alpha": 1 + 2j, "1_-": -0.5})
    doc = algebra_to_doc(a)
    back = parse_algebra_doc(doc, qubit)
    assert np.array_equal(back.coeffs, a.coeffs)


def test_matrix_formats():
    mat = np.array([[1 + 2j, 0], [0, -1.25]])
    doc = matrix_to_json(mat)
    assert doc["dim"] == 2
    assert doc["rows"][0][0] == [1.0, 2.0]
    csv = matrix_to_csv(mat)
    lines = csv.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "1+2j"
    assert lines[1].split(",")[1] == "-1.25+0j"
    # deterministic output
    assert matrix_to_csv(mat) == csv
    assert dump_json(doc) == dump_json(matrix_to_json(mat))


def test_complex_pair_precision():
    val = complex_pair(np.pi + 1j / 3)
    assert val[0] == pytest.approx(np.pi, abs=0)
    assert val[1] == pytest.approx(1 / 3, abs=0)
