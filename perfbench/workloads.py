"""The benchmark's workloads: seeded spec files, the cold gqm ops that read
them, and what each op must report.

Every op is one ``gqm`` command line. Its expected exit code and report are
computed by ``reference`` from the same seeded data the spec files hold,
the first time the op is checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

import reference as ref
from reference import CLI_TOL, TOL

# -- what an op must print ---------------------------------------------------


def _is_number(x):
    return not isinstance(x, bool) and isinstance(x, (int, float))


class Approx:
    """A number within TOL * max(1, |value|, scale) of the reference."""

    def __init__(self, value, scale=0.0):
        self.value = float(value)
        self.bound = TOL * max(1.0, abs(self.value), float(scale))

    def mismatch(self, got):
        if not _is_number(got):
            return "%r is not a number" % (got,)
        if abs(got - self.value) > self.bound:
            return "%.17g, reference %.17g" % (got, self.value)
        return None


class Where:
    """Any value the predicate accepts."""

    def __init__(self, what, accept):
        self.what, self.accept = what, accept

    def mismatch(self, got):
        try:
            return None if self.accept(got) else "%.80r is not %s" % (
                got, self.what)
        except (TypeError, ValueError, KeyError, IndexError):
            return "%.80r is not %s" % (got, self.what)


def _close_array(got, want):
    return (got.shape == want.shape and np.max(np.abs(got - want), initial=0.0)
            <= TOL * max(1.0, np.max(np.abs(want), initial=0.0)))


class Matrix:
    """A {"dim", "rows"} matrix of [re, im] pairs equal to the reference."""

    def __init__(self, matrix):
        self.matrix = matrix

    def mismatch(self, got):
        try:
            cells = np.array(got["rows"], dtype=float)
            dim = got["dim"]
        except (TypeError, ValueError, KeyError):
            return "not a {dim, rows} matrix"
        if dim != len(self.matrix) or cells.shape[-1:] != (2,):
            return "matrix of dim %r, expected %d" % (dim, len(self.matrix))
        if not _close_array(cells[..., 0] + 1j * cells[..., 1], self.matrix):
            return "matrix differs from the reference"
        return None


class CsvMatrix(Matrix):
    """The same matrix as comma-separated re+imj cells, one row a line."""

    def mismatch(self, got):
        try:
            rows = [[complex(c) for c in line.split(",")]
                    for line in got.splitlines()]
            mat = np.array(rows, dtype=complex)
        except ValueError:
            return "not a CSV matrix of complex cells"
        if not _close_array(mat, self.matrix):
            return "CSV matrix differs from the reference"
        return None


class Coeffs:
    """An algebra element {label: [re, im]} equal to the reference vector."""

    def __init__(self, g, vector):
        self.g, self.vector = g, vector

    def mismatch(self, got):
        try:
            vec = self.g.vector({lab: complex(*z) for lab, z in got.items()})
        except (AttributeError, KeyError, TypeError):
            return "not a coefficient map over the groupoid's labels"
        return None if _close_array(vec, self.vector) else (
            "coefficients differ from the reference")


EMPTY = "empty stdout"
ANY = "empty stdout or strict JSON"


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def compare(got, want, path="report"):
    """First difference between a parsed report and its pattern, or None."""
    if hasattr(want, "mismatch"):
        problem = want.mismatch(got)
        return problem and "%s: %s" % (path, problem)
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return "%s: keys %s, expected %s" % (
                path, sorted(got) if isinstance(got, dict) else got,
                sorted(want))
        for key, sub in want.items():
            problem = compare(got[key], sub, "%s.%s" % (path, key))
            if problem:
                return problem
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return "%s: not a list of %d" % (path, len(want))
        for k, (g, w) in enumerate(zip(got, want)):
            problem = compare(g, w, "%s[%d]" % (path, k))
            if problem:
                return problem
        return None
    if type(got) is not type(want) or got != want:
        return "%s: %.80r, expected %.80r" % (path, got, want)
    return None


def check_stdout(text, pattern):
    if pattern is EMPTY:
        return None if text == "" else "unexpected stdout"
    if isinstance(pattern, CsvMatrix):
        return pattern.mismatch(text)
    if pattern is ANY and text == "":
        return None
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return "stdout is not strict JSON: %s" % exc
    return None if pattern is ANY else compare(doc, pattern)


@dataclass
class Expect:
    codes: tuple
    stdout: object = EMPTY


@dataclass(eq=False)
class Op:
    """One cold ``gqm`` process. ``defect`` names the ROADMAP item-5 defect
    the op exposes; such an op fails until that defect is fixed."""

    argv: list
    expect: Callable[[], Expect]
    defect: str | None = None

    @property
    def name(self):
        return " ".join(self.argv)

    @cached_property
    def expected(self):
        return self.expect()


# -- seeded inputs ------------------------------------------------------------


@dataclass(eq=False)
class GroupoidInput:
    path: str
    g: ref.Groupoid
    arrows: list | None = None  # (label, source, target) for quiver specs


@dataclass(eq=False)
class StateInput:
    path: str
    gi: GroupoidInput
    phi: np.ndarray | None = None  # characteristic-style values
    arrow_values: dict | None = None  # generator actions

    @cached_property
    def matrix(self):
        return ref.invariance_matrix(self.gi.g, self.phi)

    @cached_property
    def spectrum(self):
        return ref.psd(self.matrix)

    @property
    def psd_ok(self):
        hermitian, eig = self.spectrum
        return bool(hermitian and eig[0] >= -CLI_TOL)

    def decoherence(self, tag):
        """(labels, matrix) of the decoherence functional the CLI builds."""
        g = self.gi.g
        if self.phi is None:
            return ref.arrow_decoherence(g.events, self.gi.arrows,
                                         self.arrow_values, tag)
        c = ref.scale(tag, len(g.events), g.order, self.matrix)
        return g.labels, c * self.matrix


def _pair_values(events, f):
    """phi(x -> y) = F[y, x]: the invariance matrix repeats F per target."""
    return {ref.pair_label(x, y): f[j, i]
            for i, x in enumerate(events) for j, y in enumerate(events)}


def _cpair(z):
    return [float(z.real), float(z.imag)]


class Lab:
    """Writes seeded spec files into the work directory."""

    def __init__(self, workdir, seed):
        self.dir = workdir
        self.rng = np.random.default_rng(seed)

    def write(self, name, doc):
        path = self.dir / name
        assert not path.exists(), name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return name

    # groupoids

    def pair(self, n):
        events = ["e%d" % k for k in range(n)]
        return GroupoidInput(
            self.write("pair%d.json" % n, {"kind": "pair", "events": events}),
            ref.pair(events))

    def cyclic(self, n):
        el = ["g%d" % k for k in range(n)]
        doc = {"kind": "group", "events": ["*"], "elements": el,
               "identity": el[0],
               "table": [{"left": el[i], "right": el[j],
                          "result": el[(i + j) % n]}
                         for i in range(n) for j in range(n)]}
        index = {x: k for k, x in enumerate(el)}
        return GroupoidInput(
            self.write("z%d.json" % n, doc),
            ref.group(el, lambda a, b: el[(index[a] + index[b]) % n], el[0]))

    def quiver(self, name, events, arrows):
        doc = {"kind": "quiver", "events": events,
               "arrows": [{"label": a, "source": s, "target": t}
                          for a, s, t in arrows]}
        return GroupoidInput(self.write(name + ".json", doc),
                             ref.quiver(events, arrows), arrows)

    def pair_z2(self):
        """Explicit tables of pair({p, q}) x Z_2: isotropy Z_2 at both
        events; (x -> y, k) then (y -> z, m) compose to (x -> z, k + m)."""
        events = ["p", "q"]

        def label(x, y, k):
            return "1_%s" % x if (x, k) == (y, 0) else "%s%s%d" % (x, y, k)

        trans = [(x, y, k) for x in events for y in events for k in (0, 1)]
        doc = {
            "kind": "explicit", "events": events,
            "transitions": [label(*t) for t in trans],
            "source": {label(*t): t[0] for t in trans},
            "target": {label(*t): t[1] for t in trans},
            "units": {x: label(x, x, 0) for x in events},
            "inverse": {label(x, y, k): label(y, x, k) for x, y, k in trans},
            "compose": [{"inner": label(*i), "outer": label(*o),
                         "result": label(i[0], o[1], (i[2] + o[2]) % 2)}
                        for o in trans for i in trans if i[1] == o[0]],
        }
        return GroupoidInput(self.write("pair-z2.json", doc),
                             ref.explicit(doc)), label

    # states

    def action(self, gi):
        u = dict(zip(gi.g.events, self.rng.normal(size=len(gi.g.events))))
        path = self.write(gi.path[:-5] + "-action.json",
                          {"type": "action", "potential": u})
        return StateInput(path, gi, phi=ref.action_phase(gi.g, u))

    def characteristic(self, gi, name, values):
        doc = {"type": "characteristic",
               "values": {lab: _cpair(z) for lab, z in values.items()}}
        return StateInput(self.write("%s-%s.json" % (gi.path[:-5], name), doc),
                          gi, phi=gi.g.vector(values))

    def delta(self, gi, event):
        path = self.write(gi.path[:-5] + "-delta.json",
                          {"type": "delta", "event": event})
        phi = np.zeros(gi.g.order, dtype=complex)
        phi[gi.g.events.index(event)] = 1.0  # units lead, in event order
        return StateInput(path, gi, phi=phi)

    def generator(self, gi):
        values = {a: float(v) for (a, _, _), v in
                  zip(gi.arrows, self.rng.normal(size=len(gi.arrows)))}
        path = self.write(gi.path[:-5] + "-generator.json",
                          {"type": "generator-action", "values": values})
        return StateInput(path, gi, arrow_values=values)

    def element(self, gi, name):
        labels = gi.g.labels
        pick = self.rng.permutation(len(labels))[: max(1, len(labels) // 2)]
        values = {labels[k]: complex(*self.rng.normal(size=2)) for k in pick}
        path = self.write("%s-%s.json" % (gi.path[:-5], name),
                          {"coeffs": {lab: _cpair(z)
                                      for lab, z in values.items()}})
        return path, gi.g.vector(values)

    def unitary(self, gi):
        n = len(gi.g.events)
        q, _ = np.linalg.qr(self.rng.normal(size=(n, n))
                            + 1j * self.rng.normal(size=(n, n)))
        path = self.write(gi.path[:-5] + "-frame.json",
                          {"unitary": [[_cpair(z) for z in row] for row in q]})
        return path, q

    # random PSD data

    def density(self, n, rank=None):
        """Trace-one PSD matrix; its non-zero eigenvalues stay far above
        any rank cutoff."""
        v = self.rng.normal(size=(n, rank or n)) + 1j * self.rng.normal(
            size=(n, rank or n))
        f = v @ v.conj().T
        if rank is None:
            f += np.trace(f).real / n * np.eye(n)
        return f / np.trace(f).real

    def indefinite(self, n):
        """Trace-one Hermitian matrix with one clearly negative eigenvalue."""
        q, _ = np.linalg.qr(self.rng.normal(size=(n, n))
                            + 1j * self.rng.normal(size=(n, n)))
        lam = self.rng.uniform(0.5, 1.5, size=n)
        lam[0] = -1.0
        lam /= lam.sum()
        return (q * lam) @ q.conj().T

    def positive_definite_function(self, n, zeros):
        """phi(g_k) = sum_j p_j e^{2 pi i jk/n} on Z_n (PSD by Bochner), with
        ``zeros`` vanishing weights p_j, never p_0 (so D(G, G) != 0)."""
        p = self.rng.uniform(0.2, 1.0, size=n)
        p[1 + self.rng.permutation(n - 1)[:zeros]] = 0.0
        p /= p.sum()
        k = np.arange(n)
        return {"g%d" % j: z for j, z in
                enumerate(np.exp(2j * np.pi * np.outer(k, k) / n) @ p)}


# -- op builders -------------------------------------------------------------


def _formatted(fmt, argv):
    return (["--format", "csv"] if fmt == "csv" else []) + argv


def validate(gi):
    g = gi.g
    return Op(["validate", gi.path], lambda: Expect((0,), {
        "ok": True, "events": len(g.events), "order": g.order,
        "connected": g.n_orbits() == 1}))


def algebra_mult(gi, left, right):
    (lpath, a), (rpath, b) = left, right
    return Op(["algebra-mult", gi.path, lpath, rpath], lambda: Expect(
        (0,), {"coeffs": Coeffs(gi.g, ref.convolve(gi.g, a, b))}))


def _rayleigh_matches(st, witness):
    vec = st.gi.g.vector({lab: complex(*z) for lab, z in witness.items()})
    q = (vec.conj() @ st.matrix @ vec).real / (vec.conj() @ vec).real
    eig = st.spectrum[1]
    return abs(q - eig[0]) <= TOL * max(1.0, np.max(np.abs(eig)))


def psd_check(st):
    def expect():
        hermitian, eig = st.spectrum
        want = {"ok": st.psd_ok, "hermitian": hermitian,
                "min_eigenvalue": Approx(eig[0], np.max(np.abs(eig))),
                "tolerance": Approx(CLI_TOL)}
        if not st.psd_ok:
            want["witness"] = Where(
                "an eigenvector of the minimum eigenvalue",
                lambda w: _rayleigh_matches(st, w))
        return Expect((0,) if st.psd_ok else (2,), want)
    return Op(["psd-check", st.gi.path, st.path], expect)


def _needs_psd(st, expect):
    """Ops that build a decoherence functional exit 2 on a non-PSD state."""
    def wrapped():
        if st.phi is not None and not st.psd_ok:
            return Expect((2,))
        return expect()
    return wrapped


def decoherence(st, tag="per-transition", fmt="json"):
    pattern = CsvMatrix if fmt == "csv" else Matrix
    return Op(_formatted(fmt, ["decoherence", st.gi.path, st.path,
                               "--normalization", tag]),
              _needs_psd(st, lambda: Expect(
                  (0,), pattern(st.decoherence(tag)[1]))))


def measure(st, labels, tag="per-transition"):
    def expect():
        order, d = st.decoherence(tag)
        index = ({lab: k for k, lab in enumerate(order)}
                 if st.phi is None else None)
        idx = [index[lab] if index else st.gi.g.resolve(lab)
               for lab in labels]
        value, raw = ref.measure(d, idx)
        return Expect((0,), {"value": Approx(value), "raw_value": Approx(raw),
                             "normalization": tag,
                             "tolerance": Approx(CLI_TOL)})
    return Op(["measure", st.gi.path, st.path, "--set", ",".join(labels),
               "--normalization", tag], _needs_psd(st, expect))


def interference(st, sets, tag="per-transition"):
    def expect():
        d = st.decoherence(tag)[1]
        idx = [[st.gi.g.resolve(lab) for lab in s] for s in sets]
        return Expect((0,), {"order": len(sets),
                             "value": Approx(ref.interference(d, idx)),
                             "normalization": tag,
                             "tolerance": Approx(CLI_TOL)})
    return Op(["interference", st.gi.path, st.path, "--order",
               str(len(sets)), "--sets", ";".join(",".join(s) for s in sets),
               "--normalization", tag], _needs_psd(st, expect))


def gns(st):
    def expect():
        # rescaling to unit mass keeps the rank and the PSD verdict
        return Expect((0,), {
            "dim": ref.rank(st.matrix),
            "gram_rank_tolerance": Where("a positive number",
                                         lambda x: _is_number(x) and x > 0),
            "reconstruction_max_error": Where(
                "a number in [0, %g]" % TOL,
                lambda x: _is_number(x) and 0 <= x <= TOL),
            # after the CLI rescales the state to unit mass, the class of
            # the algebra unit has squared norm phi(1) = 1
            "ground_norm": Approx(1.0)})
    return Op(["gns", st.gi.path, st.path], _needs_psd(st, expect))


def frame(gi, unitary):
    path, u = unitary
    ev = gi.g.events

    def expect():
        pairs = []
        for i, a in enumerate(ev):
            for j, b in enumerate(ev):
                v = ref.transported_unit_value(u, i, j)
                pairs.append({"from": a, "to": b, "value": Approx(v.real),
                              "amplitude": [Approx(v.real), Approx(-v.imag)]})
        return Expect((0,), {"pairs": pairs})
    return Op(["frame", gi.path, "--unitary", path], expect)


def _qubit():
    """The documented two-level system: alpha: - -> +, s(alpha) = S."""
    label = {("+", "+"): "1_+", ("-", "-"): "1_-", ("-", "+"): "alpha",
             ("+", "-"): "alpha^-1"}
    return ref.Groupoid(
        ["+", "-"], [(lab, s, t) for (s, t), lab in label.items()],
        {"+": "1_+", "-": "1_-"},
        {lab: label[(t, s)] for (s, t), lab in label.items()},
        lambda outer, inner: label[(inner[1], outer[2])])


def example_qubit(S, fmt="json", members=None):
    def expect():
        g = _qubit()
        d = ref.invariance_matrix(g, ref.action_phase(g, {"+": S, "-": 0.0}))
        d = ref.scale("per-transition", 2, g.order) * d
        if fmt == "csv":
            return Expect((0,), CsvMatrix(d))
        want = {"system": "qubit", "S": Approx(S),
                "normalization": "per-transition", "order": g.labels,
                "matrix": Matrix(d)}
        if members:
            labels = list(dict.fromkeys(members))
            want["measure"] = {"set": labels, "value": Approx(ref.measure(
                d, [g.resolve(x) for x in labels])[0])}
        return Expect((0,), want)
    argv = ["example", "qubit", "--S", repr(S)]
    if members:
        argv += ["--set", ",".join(members)]
    return Op(_formatted(fmt, argv), expect)


DOUBLE_SLIT = (["A", "B", "D", "Dbar"],
               [("alpha", "A", "D"), ("beta", "B", "D"),
                ("alpha_bar", "A", "Dbar"), ("beta_bar", "B", "Dbar")])


def example_double_slit(delta, fmt="json", members=None, defect=None):
    def expect():
        if defect:
            return Expect((1,), ANY)
        events, arrows = DOUBLE_SLIT
        order, d = ref.arrow_decoherence(
            events, arrows, {"alpha": 0.0, "beta": -delta, "alpha_bar": 0.0,
                             "beta_bar": 0.0}, "per-transition")
        if fmt == "csv":
            return Expect((0,), CsvMatrix(d))
        want = {"system": "double-slit", "delta": Approx(delta),
                "normalization": "per-transition", "order": order,
                "matrix": Matrix(d)}
        if members:
            value, raw = ref.measure(d, [order.index(x) for x in members])
            want["measure"] = {"set": list(members), "value": Approx(value),
                               "raw_value": Approx(raw)}
        return Expect((0,), want)
    argv = ["example", "double-slit", "--delta", repr(delta)]
    if members:
        argv += ["--set", ",".join(members)]
    return Op(_formatted(fmt, argv), expect, defect)


def sweep(n, trials, seed):
    def expect():
        eig, dev = ref.sweep_thm52(n, trials, seed)
        ok = eig >= -CLI_TOL and dev <= CLI_TOL
        return Expect((0,) if ok else (2,), {
            "target": "thm52", "trials": trials, "seed": seed,
            "min_eigenvalue": Approx(eig), "max_reproducing_deviation":
            Approx(dev), "tolerance": Approx(CLI_TOL), "ok": ok})
    return Op(["sweep", "thm52", "--n", str(n), "--trials", str(trials),
               "--seed", str(seed)], expect)


# -- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    """``round_ops(r)`` lists the ops of round r, run in order; ``repeat``
    names round-0 ops run once more after the timed rounds, whose stdout
    must match byte for byte."""

    round_ops: Callable[[int], list]
    repeat: list


def ladder_small(lab):
    rng = lab.rng
    p4, p8, p16 = lab.pair(4), lab.pair(8), lab.pair(16)
    z8, z16, z32 = lab.cyclic(8), lab.cyclic(16), lab.cyclic(32)
    e = ["e%d" % k for k in range(6)]
    # zigzag chain: e1 and e3 are each the target of two arrows
    zigzag = lab.quiver("zigzag6", e, [
        ("a0", "e0", "e1"), ("a1", "e2", "e1"), ("a2", "e2", "e3"),
        ("a3", "e4", "e3"), ("a4", "e4", "e5")])
    cycle = lab.quiver("cycle5", e[:5], [
        ("c%d" % k, "e%d" % k, "e%d" % ((k + 1) % 5)) for k in range(5)])
    multi = lab.quiver("multi3", ["e0", "e1", "e2", "f0", "f1", "f2", "f3",
                                  "h0"], [
        ("m0", "e0", "e1"), ("m1", "e1", "e2"), ("m2", "f0", "f1"),
        ("m3", "f2", "f1"), ("m4", "f2", "f3")])
    ex, ex_label = lab.pair_z2()

    char4 = lab.characteristic(p4, "rank2",
                               _pair_values(p4.g.events, lab.density(4, 2)))
    char8 = lab.characteristic(p8, "char",
                               _pair_values(p8.g.events, lab.density(8)))
    f, c = lab.density(2), rng.uniform(-0.8, 0.8)
    char_ex = lab.characteristic(ex, "char", {
        ex_label(x, y, k): f[j, i] * (1.0 if k == 0 else c)
        for i, x in enumerate("pq") for j, y in enumerate("pq")
        for k in (0, 1)})
    char_z8 = lab.characteristic(z8, "char",
                                 lab.positive_definite_function(8, 3))
    char_z16 = lab.characteristic(z16, "char",
                                  lab.positive_definite_function(16, 0))
    act4, act8, act16 = lab.action(p4), lab.action(p8), lab.action(p16)
    gen_zigzag, gen_cycle = lab.generator(zigzag), lab.generator(cycle)
    gen_multi = lab.generator(multi)
    delta_cycle = lab.delta(cycle, "e2")

    # rejected inputs
    non_psd = lab.characteristic(
        p8, "indefinite", _pair_values(p8.g.events, lab.indefinite(8)))
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]  # a Latin square, no group
    t = np.array(loop)
    a, b, c = np.ix_(range(5), range(5), range(5))
    associative = np.array_equal(t[t[a, b], c], t[a, t[b, c]])
    loop_path = lab.write("loop5.json", {
        "kind": "group", "events": ["*"],
        "elements": ["h%d" % k for k in range(5)], "identity": "h0",
        "table": [{"left": "h%d" % i, "right": "h%d" % j,
                   "result": "h%d" % loop[i][j]}
                  for i in range(5) for j in range(5)]})
    # the item-5 defects
    zero_mass = lab.characteristic(p4, "zero-mass",
                                   {"e0->e1": 0.5, "e1->e0": 0.5})
    nan_path = lab.write("pair4-nan.json", {
        "type": "characteristic",
        "values": {"1_e0": [float("nan"), 0.0], "1_e1": [0.5, 0.0]}})

    z8_decoherence = decoherence(char_z8, "global")
    qubit_csv = example_qubit(float(rng.uniform(0, 2 * np.pi)), fmt="csv")
    validate_p16 = validate(p16)
    ops = [
        example_qubit(float(rng.uniform(0, 2 * np.pi)), members=["alpha"]),
        qubit_csv,
        example_double_slit(float(rng.uniform(0, 2 * np.pi)),
                            members=["alpha", "beta"]),
        example_double_slit(float(rng.uniform(0, 2 * np.pi)), fmt="csv"),
        validate(p4), validate(p8), validate_p16, validate(z8), validate(z32),
        validate(zigzag), validate(cycle), validate(multi), validate(ex),
        algebra_mult(p8, lab.element(p8, "left"), lab.element(p8, "right")),
        algebra_mult(z16, lab.element(z16, "left"),
                     lab.element(z16, "right")),
        algebra_mult(ex, lab.element(ex, "left"), lab.element(ex, "right")),
        psd_check(char8), psd_check(char_z16), psd_check(act16),
        psd_check(char_ex),
        decoherence(act4, "unit-events"), z8_decoherence,
        decoherence(gen_zigzag),
        decoherence(gen_multi, "idempotent", fmt="csv"),
        measure(act8, ["1_e0", "e1->e0", "e2->e0", "e3->e5"]),
        measure(char_z16, ["g0", "g3", "g5", "g11"], "none"),
        measure(gen_zigzag, ["a0", "a1"]),
        interference(char8, [["1_e0", "e1->e0"], ["e2->e0"],
                             ["e3->e1", "1_e1"]]),
        interference(char_ex, [["1_p", ex_label("q", "p", 1)],
                               [ex_label("p", "p", 1)]]),
        gns(char4), gns(act8), gns(char_z8), gns(delta_cycle),
        frame(p4, lab.unitary(p4)), frame(zigzag, lab.unitary(zigzag)),
        measure(gen_cycle, ["c0", "c2"], "idempotent"),
        psd_check(non_psd),
        Op(["validate", loop_path],
           lambda: Expect((0,) if associative else (1,))),
        Op(["measure", p4.path, act4.path, "--set", "e0->e9"],
           lambda: Expect((1,))),
        Op(["gns", p4.path, zero_mass.path], lambda: Expect((1, 2), ANY),
           "gns on a state of unit mass 0 crashes with a traceback"),
        Op(["psd-check", p4.path, nan_path], lambda: Expect((1,), ANY),
           "a NaN in a spec is accepted: exit 2 and NaN in the report"),
        example_double_slit(0.0, members=["foo"],
                            defect="example double-slit --set with an "
                                   "unknown label crashes with a traceback"),
    ]
    return Workload(lambda r: ops, [validate_p16, z8_decoherence, qubit_csv])


def ladder_top(lab):
    p16, p24, p32 = lab.pair(16), lab.pair(24), lab.pair(32)
    z128 = lab.cyclic(128)
    events, arrows = [], []
    for c in range(4):
        chain = ["c%d_%d" % (c, k) for k in range(12)]
        events += chain
        arrows += [("q%d_%d" % (c, k), chain[k], chain[k + 1])
                   for k in range(11)]
    chains = lab.quiver("chains4x12", events, arrows)
    blocks = {}
    for c in range(4):
        blocks.update(_pair_values(events[12 * c: 12 * c + 12],
                                   lab.density(12) / 4))
    act24 = lab.action(p24)
    decoherence24 = decoherence(act24)
    ops = [
        psd_check(lab.action(p32)),
        validate(p24),
        measure(act24, ["1_e0", "e1->e0", "e2->e0", "e7->e0", "e3->e5"]),
        interference(act24, [["1_e0"], ["e1->e0"], ["e2->e0"],
                             ["e3->e1", "1_e1"], ["e4->e5"], ["e7->e8"]]),
        gns(act24),
        decoherence24,
        gns(lab.characteristic(p16, "full-rank",
                               _pair_values(p16.g.events, lab.density(16)))),
        psd_check(lab.characteristic(z128, "char",
                                     lab.positive_definite_function(128, 40))),
        psd_check(lab.characteristic(chains, "blocks", blocks)),
    ]
    return Workload(lambda r: ops, [decoherence24])


def sweep_thm52(lab):
    base = int(lab.rng.integers(2**31))
    ops = {}

    def round_ops(r):
        if r not in ops:
            seed = np.random.SeedSequence([base, r]).generate_state(1)[0]
            ops[r] = sweep(12, 200, int(seed % 2**31))
        return [ops[r]]

    return Workload(round_ops, round_ops(0))


WORKLOADS = {
    "ladder-small": ladder_small,
    "ladder-top": ladder_top,
    "sweep-thm52": sweep_thm52,
}


def build(name, workdir, seed):
    return WORKLOADS[name](Lab(workdir, seed))
