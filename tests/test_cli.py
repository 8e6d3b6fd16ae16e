import json
import warnings

import numpy as np
import pytest

from gqm.cli import main


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair3_file(tmp_path):
    return write(tmp_path / "pair3.json",
                 {"kind": "pair", "events": ["a", "b", "c"]})


@pytest.fixture
def quiver_file(tmp_path):
    return write(tmp_path / "quiver.json", {
        "kind": "quiver",
        "events": ["A", "B", "D", "Dbar"],
        "arrows": [
            {"label": "alpha", "source": "A", "target": "D"},
            {"label": "beta", "source": "B", "target": "D"},
            {"label": "alpha_bar", "source": "A", "target": "Dbar"},
            {"label": "beta_bar", "source": "B", "target": "Dbar"},
        ],
    })


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_rejected(capsys, argv):
    """Exit 1 with a one-line message on stderr, no warnings, no report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.fixture
def ga_file(tmp_path):
    return write(tmp_path / "ga.json", {
        "type": "generator-action",
        "values": {"alpha": 0.0, "beta": -np.pi, "alpha_bar": 0.0,
                   "beta_bar": 0.0},
    })


def test_validate(capsys, pair3_file):
    code, out = run(capsys, ["validate", pair3_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["order"] == 9


def test_validate_rejects_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1

    unknown = write(tmp_path / "u.json",
                    {"kind": "pair", "events": ["x"], "junk": 1})
    assert main(["validate", unknown]) == 1


def test_missing_file_is_io_error(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 3


def test_algebra_mult(capsys, pair3_file, tmp_path):
    a = write(tmp_path / "a.json", {"coeffs": {"a->b": [1, 0]}})
    b = write(tmp_path / "b.json", {"coeffs": {"b->c": [0, 1]}})
    code, out = run(capsys, ["algebra-mult", pair3_file, b, a])
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == {"a->c": [0.0, 1.0]}


def test_psd_check(capsys, pair3_file, tmp_path):
    good = write(tmp_path / "good.json", {"type": "delta", "event": "a"})
    code, out = run(capsys, ["psd-check", pair3_file, good])
    assert code == 0
    assert json.loads(out)["ok"] is True

    bad = write(tmp_path / "bad.json", {
        "type": "characteristic",
        "values": {"1_a": [0.5, 0], "1_b": [0.5, 0],
                   "a->b": [2, 0], "b->a": [2, 0]},
    })
    code, out = run(capsys, ["psd-check", pair3_file, bad])
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False and "witness" in doc


def test_decoherence_formats(capsys, pair3_file, tmp_path):
    state = write(tmp_path / "s.json",
                  {"type": "action", "potential": {"a": 0.0, "b": 1.0,
                                                   "c": 2.0}})
    code, out = run(capsys, ["decoherence", pair3_file, state])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 9

    code, out = run(capsys, ["--format", "csv", "decoherence", pair3_file,
                             state])
    assert code == 0
    assert len(out.strip().split("\n")) == 9


def test_measure_dark_fringe(capsys, quiver_file, tmp_path):
    state = write(tmp_path / "ga.json", {
        "type": "generator-action",
        "values": {"alpha": 0.0, "beta": -np.pi, "alpha_bar": 0.0,
                   "beta_bar": 0.0},
    })
    code, out = run(capsys, ["measure", quiver_file, state,
                             "--set", "alpha,beta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 0.0
    assert abs(doc["raw_value"]) <= 1e-12


def test_interference(capsys, pair3_file, tmp_path):
    state = write(tmp_path / "s.json",
                  {"type": "action", "potential": {"a": 0.0, "b": 0.7,
                                                   "c": 0.0}})
    code, out = run(capsys, ["interference", pair3_file, state,
                             "--order", "3",
                             "--sets", "1_a;a->b;b->a"])
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 1e-9

    assert main(["interference", pair3_file, state,
                 "--order", "2", "--sets", "1_a;1_a"]) == 1


def test_gns(capsys, pair3_file, tmp_path):
    state = write(tmp_path / "d.json", {"type": "delta", "event": "b"})
    code, out = run(capsys, ["gns", pair3_file, state])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert doc["reconstruction_max_error"] <= 1e-9
    assert doc["ground_norm"] == pytest.approx(1.0)


def test_frame(capsys, tmp_path):
    g = write(tmp_path / "g.json", {"kind": "pair", "events": ["p", "q"]})
    h = 1 / np.sqrt(2)
    u = write(tmp_path / "u.json",
              {"unitary": [[[h, 0], [h, 0]], [[h, 0], [-h, 0]]]})
    code, out = run(capsys, ["frame", g, "--unitary", u])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 4
    for pair in doc["pairs"]:
        assert pair["value"] == pytest.approx(0.5)

    bad = write(tmp_path / "bad.json",
                {"unitary": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]})
    assert main(["frame", g, "--unitary", bad]) == 1


def test_example_qubit(capsys):
    code, out = run(capsys, ["example", "qubit", "--S",
                             "3.141592653589793"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == ["1_+", "1_-", "alpha", "alpha^-1"]
    rows = doc["matrix"]["rows"]
    assert rows[0][0] == [0.25, 0.0]
    assert rows[0][2][0] == pytest.approx(-0.25)  # e^{i pi}/4


def test_example_double_slit(capsys):
    code, out = run(capsys, ["example", "double-slit", "--delta",
                             "3.141592653589793", "--set", "alpha,beta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == ["alpha", "beta", "alpha_bar", "beta_bar"]
    assert doc["measure"]["value"] == 0.0


def test_sweep_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("GQM_THREADS", "2")
    code, first = run(capsys, ["sweep", "thm52", "--n", "4",
                               "--trials", "12", "--seed", "7"])
    assert code == 0
    code, second = run(capsys, ["sweep", "thm52", "--n", "4",
                                "--trials", "12", "--seed", "7"])
    assert code == 0
    assert first == second
    doc = json.loads(first)
    assert doc["ok"] is True
    assert doc["min_eigenvalue"] >= -1e-10


def test_sweep_rejects_bad_threads(monkeypatch):
    monkeypatch.setenv("GQM_THREADS", "zero")
    assert main(["sweep", "thm52", "--trials", "1"]) == 1


def test_gns_rejects_zero_unit_mass(capsys, pair3_file, tmp_path):
    state = write(tmp_path / "z.json", {
        "type": "characteristic",
        "values": {"a->b": [0.5, 0], "b->a": [0.5, 0]},
    })
    run_rejected(capsys, ["gns", pair3_file, state])


def test_non_finite_spec_numbers_rejected(capsys, pair3_file, tmp_path):
    nan = tmp_path / "nan.json"
    nan.write_text('{"type": "characteristic", '
                   '"values": {"1_a": [NaN, 0], "1_b": [0.5, 0]}}',
                   encoding="utf-8")
    assert "NaN" in run_rejected(capsys, ["psd-check", pair3_file, str(nan)])
    inf = tmp_path / "inf.json"
    inf.write_text('{"kind": "pair", "events": ["a"], "x": -Infinity}',
                   encoding="utf-8")
    run_rejected(capsys, ["validate", str(inf)])
    for name, text in (
            ("big.json", '{"type": "characteristic", '
                         '"values": {"1_a": [1e999, 0]}}'),
            ("pot.json", '{"type": "action", '
                         '"potential": {"a": 0, "b": -1e999, "c": 0}}')):
        (tmp_path / name).write_text(text, encoding="utf-8")
        run_rejected(capsys, ["psd-check", pair3_file, str(tmp_path / name)])


def test_non_finite_options_rejected(capsys):
    run_rejected(capsys, ["--tolerance", "nan", "sweep", "thm52", "--n", "3",
                          "--trials", "2"])
    run_rejected(capsys, ["example", "qubit", "--S", "inf"])
    run_rejected(capsys, ["example", "double-slit", "--delta=-inf"])
    with pytest.raises(SystemExit) as exc:
        main(["example", "qubit", "--S", "abc"])
    assert exc.value.code == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def test_unknown_arrow_labels_rejected(capsys, quiver_file, ga_file):
    run_rejected(capsys, ["example", "double-slit", "--set", "foo"])
    run_rejected(capsys, ["measure", quiver_file, ga_file, "--set", "A->D"])
    run_rejected(capsys, ["measure", quiver_file, ga_file, "--set",
                          "alpha,foo"])


def test_repeated_labels_count_once(capsys, quiver_file, ga_file):
    code, once = run(capsys, ["example", "double-slit", "--set", "alpha"])
    assert code == 0
    code, twice = run(capsys, ["example", "double-slit", "--set",
                               "alpha,alpha"])
    assert code == 0
    assert json.loads(twice)["measure"] == json.loads(once)["measure"]
    assert json.loads(once)["measure"]["value"] == 0.0625

    code, once = run(capsys, ["measure", quiver_file, ga_file,
                              "--set", "alpha"])
    assert code == 0
    code, twice = run(capsys, ["measure", quiver_file, ga_file,
                               "--set", "alpha,alpha"])
    assert code == 0
    assert twice == once


def test_global_normalization_rejected_on_arrows(capsys, quiver_file,
                                                 ga_file):
    line = run_rejected(capsys, ["measure", quiver_file, ga_file, "--set",
                                 "alpha", "--normalization", "global"])
    assert "global" in line
