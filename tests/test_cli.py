import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import gqm.cli
from conftest import run_capped
from gqm.cli import main
from gqm.groupoid import QuiverSpec, pair_groupoid
from oracles import sweep_loop


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


def test_sweep_deterministic(capsys):
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


@pytest.mark.parametrize("n, trials", [(5, 13), (12, 4), (2, 3)])
def test_sweep_builds_one_groupoid_per_size(capsys, monkeypatch, n, trials):
    """Trial k runs on 2 + k % (n - 1) events; each size is built and
    validated once, also when there are fewer trials than sizes."""
    built = []

    def counting(events):
        built.append(len(events))
        return pair_groupoid(events)

    monkeypatch.setattr(gqm.cli, "pair_groupoid", counting)
    code, _ = run(capsys, ["sweep", "thm52", "--n", str(n),
                           "--trials", str(trials)])
    assert code == 0
    assert built == sorted({2 + k % (n - 1) for k in range(trials)})


@pytest.mark.parametrize("n, trials, seed", [(6, 17, 0), (9, 40, 3),
                                             (2, 5, 11), (12, 7, 5)])
def test_sweep_matches_fresh_build_loop(capsys, n, trials, seed):
    """The per-size sweep reports exactly what building a groupoid for
    every trial and running the trials in order reports."""
    code, out = run(capsys, ["sweep", "thm52", "--n", str(n), "--trials",
                             str(trials), "--seed", str(seed)])
    doc = json.loads(out)
    eig, rep, ok = sweep_loop(n, trials, seed, 1e-10)
    assert (doc["min_eigenvalue"], doc["max_reproducing_deviation"],
            doc["ok"]) == (eig, rep, ok)
    assert code == (0 if ok else 2)


@pytest.mark.parametrize("argv", [
    ["sweep", "thm52", "--trials", "0"],
    ["sweep", "thm52", "--trials", "-3"],
    ["sweep", "thm52", "--seed", "-1"],
    ["example", "qubit", "--set", ""],
    ["example", "double-slit", "--set", ""],
])
def test_bad_option_values_exit_cleanly(capsys, argv):
    run_rejected(capsys, argv)


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


def test_quiver_read_once(capsys, monkeypatch, quiver_file, ga_file):
    """A generator-action op checks the quiver once, when it builds the
    groupoid; the action is then checked against that groupoid."""
    calls = []
    check = QuiverSpec.validate
    monkeypatch.setattr(QuiverSpec, "validate",
                        lambda q: calls.append(q) or check(q))
    code, _ = run(capsys, ["decoherence", quiver_file, ga_file])
    assert (code, len(calls)) == (0, 1)


def test_global_normalization_rejected_on_arrows(capsys, quiver_file,
                                                 ga_file):
    line = run_rejected(capsys, ["measure", quiver_file, ga_file, "--set",
                                 "alpha", "--normalization", "global"])
    assert "global" in line


def test_validation_error_is_one_line(capsys, tmp_path):
    """A Latin square that is no group: 36 associativity failures, one
    stderr line."""
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    spec = write(tmp_path / "loop5.json", {
        "kind": "group", "events": ["*"],
        "elements": ["h%d" % k for k in range(5)], "identity": "h0",
        "table": [{"left": "h%d" % i, "right": "h%d" % j,
                   "result": "h%d" % loop[i][j]}
                  for i in range(5) for j in range(5)]})
    line = run_rejected(capsys, ["validate", spec])
    assert line == ("error: groupoid validation failed: associativity fails "
                    "on triple ('h2', 'h1', 'h1') (and 35 more)")


def test_foreign_result_is_one_line(capsys, tmp_path):
    """A one-transition groupoid whose only composition is no transition."""
    spec = write(tmp_path / "one.json", {
        "kind": "explicit", "events": ["x"], "transitions": ["e"],
        "source": {"e": "x"}, "target": {"e": "x"}, "units": {"x": "e"},
        "inverse": {"e": "e"},
        "compose": [{"outer": "e", "inner": "e", "result": "zzz"}]})
    line = run_rejected(capsys, ["validate", spec])
    assert line == ("error: groupoid validation failed: compose('e', 'e') = "
                    "'zzz' is not a transition")


def test_empty_groupoid_rejected(capsys, tmp_path):
    empty = write(tmp_path / "empty.json",
                  {"kind": "quiver", "events": [], "arrows": []})
    assert "at least one event" in run_rejected(capsys, ["validate", empty])


HUGE = {
    "units": {"1_a": [1e308, 0], "1_b": [1e308, 0]},
    "all": {"1_a": [1e308, 0], "1_b": [1e308, 0], "a->b": [1e308, 0],
            "b->a": [1e308, 0]},
}


@pytest.mark.parametrize("values, argv, code", [
    ("units", ["psd-check"], 0),
    ("all", ["psd-check"], 1),
    ("units", ["decoherence"], 0),
    ("units", ["decoherence", "--normalization", "global"], 1),
    ("all", ["decoherence"], 1),
    ("units", ["measure", "--set", "1_a,1_b,a->b"], 0),
    ("units", ["measure", "--set", "1_a,1_b", "--normalization", "none"], 1),
    ("all", ["measure", "--set", "1_a"], 1),
    ("units", ["interference", "--order", "2", "--sets", "1_a;1_b",
               "--normalization", "none"], 1),
    ("all", ["interference", "--order", "1", "--sets", "1_a"], 1),
    ("units", ["gns"], 1),
    ("all", ["gns"], 1),
])
def test_huge_finite_values_never_give_nan(capsys, tmp_path, values, argv,
                                           code):
    """Values of 1e308 overflow inside the math: that is bad input (exit 1,
    one line), or a report with finite numbers only; never a warning."""
    g = write(tmp_path / "g.json", {"kind": "pair", "events": ["a", "b"]})
    state = write(tmp_path / "s.json",
                  {"type": "characteristic", "values": HUGE[values]})
    argv = argv[:1] + [g, state] + argv[1:]
    if code == 1:
        run_rejected(capsys, argv)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    json.loads(captured.out, parse_constant=pytest.fail)


@pytest.mark.parametrize("argv", [
    ["psd-check"], ["decoherence"], ["measure", "--set", "a->b"],
    ["interference", "--order", "1", "--sets", "1_a"], ["gns"],
])
def test_overflowing_action_rejected(capsys, tmp_path, argv):
    """A potential of +-1e308 has u(a) - u(b) = inf: bad input, named in
    one line, never a warning."""
    g = write(tmp_path / "g.json", {"kind": "pair", "events": ["a", "b"]})
    state = write(tmp_path / "s.json", {
        "type": "action", "potential": {"a": 1e308, "b": -1e308}})
    line = run_rejected(capsys, argv[:1] + [g, state] + argv[1:])
    assert line == ("error: the action on 'b->a' overflows: u(target) - "
                    "u(source) is not finite")


@pytest.mark.parametrize("argv", [
    ["decoherence"], ["measure", "--set", "f"],
])
def test_overflowing_generator_action_rejected(capsys, tmp_path, argv):
    """Two parallel arrows valued +-1e308: their phase difference is not
    finite, which is bad input rather than NaN in the report."""
    q = write(tmp_path / "q.json", {
        "kind": "quiver", "events": ["x", "y"],
        "arrows": [{"label": "f", "source": "x", "target": "y"},
                   {"label": "g", "source": "x", "target": "y"}]})
    ga = write(tmp_path / "ga.json", {
        "type": "generator-action", "values": {"f": 1e308, "g": -1e308}})
    line = run_rejected(capsys, argv[:1] + [q, ga] + argv[1:])
    assert line == ("error: the action difference s('g') - s('f') is not "
                    "finite")


def pair_files(tmp_path, n):
    """A pair groupoid on n events and its unit-indicator state, whose Gram
    matrix is the identity over n: a full-rank state, GNS dimension n^2."""
    events = ["e%d" % k for k in range(n)]
    g = write(tmp_path / "pair.json", {"kind": "pair", "events": events})
    state = write(tmp_path / "units.json", {
        "type": "characteristic",
        "values": {"1_%s" % x: [1.0 / n, 0] for x in events}})
    return g, state


def test_out_of_memory_is_one_line(tmp_path):
    """decoherence on pair64 forms the dense 4096 x 4096 complex invariance
    matrix, 256 MiB on its own, which cannot fit under a 256 MiB cap: bad
    input, one line, no traceback."""
    g, _ = pair_files(tmp_path, 64)
    state = write(tmp_path / "action.json", {
        "type": "action",
        "potential": {"e%d" % k: 0.1 * k for k in range(64)}})
    code, out, err = run_capped(["decoherence", g, state], 256)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


def test_psd_check_pair64_fits_in_memory(tmp_path):
    """The PSD check solves one 64 x 64 block for the one orbit of pair64
    and forms no 4096 x 4096 array, so psd-check fits under 256 MiB, where
    the dense invariance matrix alone would not."""
    g, _ = pair_files(tmp_path, 64)
    state = write(tmp_path / "action.json", {
        "type": "action",
        "potential": {"e%d" % k: 0.1 * k for k in range(64)}})
    code, out, err = run_capped(["psd-check", g, state], 256)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["ok"] is True and doc["hermitian"] is True


def test_validate_pair64_fits_in_memory(tmp_path):
    """A pair groupoid holds its composition one triple per composable
    pair: on pair64 that is 64^3 = 262,144 triples, where a dense
    |G| x |G| table would be 2^24 cells (128 MiB), so it fits under
    256 MiB."""
    g, _ = pair_files(tmp_path, 64)
    code, out, err = run_capped(["validate", g], 256)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"ok": True, "events": 64, "order": 4096,
                               "connected": True}


def test_validate_pair128_fits_in_memory(tmp_path):
    """pair128 is built by index arithmetic, 128^3 = 2,097,152 triples
    (48 MiB) and no label-keyed table, and not validated again, so a cold
    `validate` fits under 256 MiB; label tables for its 2.1M composition
    entries would not."""
    g, _ = pair_files(tmp_path, 128)
    code, out, err = run_capped(["validate", g], 256)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"ok": True, "events": 128, "order": 16384,
                               "connected": True}


@pytest.mark.parametrize("doc, message", [
    ({"kind": "pair",
      "events": ["d", "e->f", "a", "b->c", "a->b", "c", "d->e", "f"]},
     "event pairs ('a', 'b->c') and ('a->b', 'c') both generate the label "
     "'a->b->c'"),
    ({"kind": "pair",
      "events": ["d->e", "f", "a->b", "c", "d", "e->f", "a", "b->c"]},
     "event pairs ('d->e', 'f') and ('d', 'e->f') both generate the label "
     "'d->e->f'"),
    ({"kind": "quiver", "events": ["a", "b->c", "a->b", "c"],
      "arrows": [{"label": "f", "source": "c", "target": "a->b"},
                 {"label": "g", "source": "b->c", "target": "a"}]},
     "event pairs ('a', 'b->c') and ('a->b', 'c') both generate the label "
     "'a->b->c'"),
    ({"kind": "quiver", "events": ["a", "b", "c"],
      "arrows": [{"label": "f", "source": "a", "target": "b"},
                 {"label": "c->a", "source": "a", "target": "b"},
                 {"label": "1_b", "source": "b", "target": "c"}]},
     "arrow label 'c->a' collides with a different transition"),
])
def test_first_collision_reported(tmp_path, capsys, doc, message):
    """Of two collisions the first is reported: generated labels pair by
    pair, by component, then source, then target in event order; arrow
    labels in arrow order."""
    g = write(tmp_path / "g.json", doc)
    assert run_rejected(capsys, ["validate", g]) == "error: " + message


def test_gns_full_rank_fits_in_memory(tmp_path):
    """A GNS report without |G| dim x dim matrices: on pair24 at full rank
    they would take 576^3 complex doubles, about 3 GB."""
    code, out, err = run_capped(["gns", *pair_files(tmp_path, 24)], 512)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["dim"] == 576
    assert doc["reconstruction_max_error"] <= 1e-12


def test_output_independent_of_hash_seed(tmp_path):
    """Reports are byte-identical across interpreter hash seeds."""
    import os
    import subprocess
    import sys

    import gqm

    quiver = write(tmp_path / "q.json", {
        "kind": "quiver", "events": ["a", "b", "c", "d"],
        "arrows": [{"label": "f", "source": "a", "target": "b"},
                   {"label": "h", "source": "c", "target": "b"},
                   {"label": "k", "source": "d", "target": "d"}]})
    units = {"1_a": [0.3, 0], "1_b": [0.3, 0], "1_c": [0.3, 0],
             "1_d": [0.1, 0]}
    psd = write(tmp_path / "psd.json", {
        "type": "characteristic",
        "values": {**units, "a->b": [0.1, 0.05], "b->a": [0.1, -0.05],
                   "c->b": [0.1, 0], "b->c": [0.1, 0]}})
    indefinite = write(tmp_path / "indefinite.json", {
        "type": "characteristic",
        "values": {**units, "a->b": [0.5, 0.2], "b->a": [0.5, -0.2]}})
    script = ("from gqm.cli import main\n"
              "for argv in %r:\n    assert main(argv) in (0, 2)\n" % ([
                  ["decoherence", quiver, psd],
                  ["psd-check", quiver, psd],
                  ["psd-check", quiver, indefinite],
                  ["sweep", "thm52", "--n", "4", "--trials", "6"]],))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.dirname(os.path.dirname(gqm.__file__)))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            check=True).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b'"rows"') == outputs[0].count(b'"witness"') == 1


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv, code", [
    ("psd-check", ["psd-check", "blocks.json", "indefinite.json"], 2),
    ("gns", ["gns", "blocks.json", "state.json"], 0),
    ("gns-action", ["gns", "pair4.json", "action.json"], 0),
    ("decoherence-json", ["decoherence", "blocks.json", "state.json"], 0),
    ("decoherence-csv", ["--format", "csv", "decoherence", "blocks.json",
                         "state.json"], 0),
    ("measure", ["measure", "blocks.json", "state.json",
                 "--set", "1_a,f,c->b,b->c,e->d"], 0),
])
def test_reports_match_golden_bytes(capsys, name, argv, code):
    """Reports on full-precision inputs, byte for byte.  ``blocks.json``
    is a quiver with target blocks of sizes 3 and 2 in interleaved event
    order; ``indefinite.json`` fails the PSD check with a witness.  The
    ``gns`` reports were recorded with one eigensolve per orbit; the
    others are as the CLI printed them when each target block had its
    own."""
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    assert run(capsys, argv) == (code, (GOLDEN / (name + ".out")).read_text(
        encoding="utf-8"))


@pytest.mark.parametrize("factor", [-1, 1j], ids=["negated", "times-i"])
def test_gns_rescales_by_a_real_positive_mass_only(capsys, tmp_path, factor):
    """The unit mass of a PSD function is real and positive, so gns
    normalizes only by such a mass: -phi and i phi of a state are not
    PSD, and gns rejects them with the PSD check's message (exit 2)
    instead of dividing them by their mass -1 or i into a state."""
    doc = json.loads((GOLDEN / "state.json").read_text(encoding="utf-8"))
    doc["values"] = {label: [(factor * complex(*z)).real,
                             (factor * complex(*z)).imag]
                     for label, z in doc["values"].items()}
    g, state = str(GOLDEN / "blocks.json"), write(tmp_path / "s.json", doc)
    assert main(["psd-check", g, state]) == 2
    check = json.loads(capsys.readouterr().out)
    assert main(["gns", g, state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: characteristic function is not positive semi-definite "
        "(min eigenvalue %.3e)\n" % check["min_eigenvalue"])
