"""Command-line interface: spec-file parsing, dispatch, report emission.

Exit codes: 0 success, 1 malformed input or validation failure, 2 violated
mathematical property (e.g. a PSD check), 3 I/O failure.  All numeric
output uses 17 significant digits; complex numbers are [re, im] pairs;
angles are radians.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .action import (
    GeneratorAction,
    action_from_potential,
    is_reproducing_sweep_trial,
    quiver_decoherence,
)
from .algebra import multiply
from .decoherence import (
    NORMALIZATIONS,
    decoherence_from_characteristic,
    interference,
    quantum_measure,
)
from .errors import GqmError, GqmInputError, MathPropertyError
from .examples import (
    double_slit_decoherence,
    build_qubit,
    qubit_decoherence,
)
from .gns import FrameChange, gns_report, transformation_function
from .groupoid import pair_groupoid
from .specio import (
    algebra_to_doc,
    bind_generator_action,
    complex_pair,
    dump_json,
    format_real,
    load_json,
    matrix_to_csv,
    matrix_to_json,
    parse_algebra_doc,
    parse_groupoid_doc,
    parse_quiver_doc,
    parse_state_doc,
    parse_unitary_doc,
)
from .states import CharacteristicFunction, is_positive_semidefinite


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _IoFailure("cannot read %s: %s" % (path, exc))
    return load_json(text, path)


class _IoFailure(Exception):
    pass


def _load_groupoid(path):
    doc = _read_json(path)
    g = parse_groupoid_doc(doc)
    return g, parse_quiver_doc(doc) if doc["kind"] == "quiver" else None


def _load_state(path, g, quiver):
    """Returns a CharacteristicFunction or a GeneratorAction.

    Action specs are turned into the unnormalized pure phase e^{is};
    generator actions stay at the arrow level so the pairwise decoherence
    path remains available when no global extension exists.
    """
    parsed = parse_state_doc(_read_json(path), g)
    if isinstance(parsed, CharacteristicFunction):
        return parsed
    if parsed["type"] == "action":
        s = action_from_potential(g, parsed["potential"])
        return CharacteristicFunction(g, np.exp(1j * s.values))
    if quiver is None:
        raise GqmInputError(
            "generator-action states need a quiver-kind groupoid spec"
        )
    return bind_generator_action(parsed, quiver)


def _characteristic(state, message):
    """``state`` if it is defined on the whole groupoid, else an input
    error with ``message``."""
    if isinstance(state, GeneratorAction):
        raise GqmInputError(message)
    return state


def _emit(text):
    sys.stdout.write(text)


def _emit_matrix(args, mat):
    if args.format == "csv":
        _emit(matrix_to_csv(mat))
    else:
        _emit(dump_json(matrix_to_json(mat)))


def _parse_set(text):
    labels = [s for s in (p.strip() for p in text.split(",")) if s]
    if not labels:
        raise GqmInputError("the set must contain at least one label")
    return labels


def _parse_sets(text):
    return [_parse_set(part) for part in text.split(";") if part.strip()]


# -- subcommands ---------------------------------------------------------


def cmd_validate(args):
    g, _ = _load_groupoid(args.groupoid)
    _emit(dump_json({
        "ok": True,
        "events": len(g.events),
        "order": g.order,
        "connected": g.is_connected(),
    }))
    return 0


def cmd_algebra_mult(args):
    g, _ = _load_groupoid(args.groupoid)
    a = parse_algebra_doc(_read_json(args.left), g)
    b = parse_algebra_doc(_read_json(args.right), g)
    _emit(dump_json(algebra_to_doc(multiply(a, b))))
    return 0


def cmd_psd_check(args):
    g, quiver = _load_groupoid(args.groupoid)
    state = _characteristic(_load_state(args.state, g, quiver),
                            "psd-check needs a characteristic-style state")
    check = is_positive_semidefinite(state, args.tolerance)
    doc = {
        "ok": check.ok,
        "hermitian": check.hermitian,
        "min_eigenvalue": format_real(check.min_eigenvalue),
        "tolerance": format_real(args.tolerance),
    }
    if check.witness is not None:
        doc["witness"] = {lab: complex_pair(z) for lab, z in check.witness}
    _emit(dump_json(doc))
    return 0 if check.ok else 2


def _decoherence(args):
    g, quiver = _load_groupoid(args.groupoid)
    state = _load_state(args.state, g, quiver)
    if isinstance(state, GeneratorAction):
        return quiver_decoherence(g, state, args.normalization)
    return decoherence_from_characteristic(state, args.normalization,
                                           args.tolerance)


def cmd_decoherence(args):
    _emit_matrix(args, _decoherence(args).matrix)
    return 0


def cmd_measure(args):
    d = _decoherence(args)
    rep = quantum_measure(d, _parse_set(args.set), args.tolerance)
    _emit(dump_json({
        "value": format_real(rep.value),
        "raw_value": format_real(rep.raw_value),
        "normalization": args.normalization,
        "tolerance": format_real(args.tolerance),
    }))
    return 0


def cmd_interference(args):
    g, quiver = _load_groupoid(args.groupoid)
    state = _characteristic(
        _load_state(args.state, g, quiver),
        "interference needs a state defined on the whole groupoid")
    d = decoherence_from_characteristic(state, args.normalization,
                                        args.tolerance)
    sets = _parse_sets(args.sets)
    if len(sets) != args.order:
        raise GqmInputError(
            "--order %d but %d sets were given" % (args.order, len(sets))
        )
    value = interference(d, sets, args.tolerance)
    _emit(dump_json({
        "order": args.order,
        "value": format_real(value),
        "normalization": args.normalization,
        "tolerance": format_real(args.tolerance),
    }))
    return 0


def cmd_gns(args):
    g, quiver = _load_groupoid(args.groupoid)
    state = _characteristic(_load_state(args.state, g, quiver),
                            "gns needs a characteristic-style state")
    mass = state.unit_mass()
    if not np.isfinite(mass):
        raise GqmInputError(
            "gns needs a state of finite unit mass, got %r" % mass
        )
    if abs(mass) <= args.tolerance:
        raise GqmInputError(
            "gns needs a state of nonzero unit mass, got %r" % mass
        )
    if abs(mass - 1.0) > args.tolerance:
        # pure phases from action specs are normalized here
        with np.errstate(over="ignore", invalid="ignore"):
            values = state.values / mass
        if not np.all(np.isfinite(values)):
            raise GqmInputError(
                "state values overflow when divided by the unit mass %r"
                % mass)
        state = CharacteristicFunction(g, values)
    report = gns_report(state, args.tolerance)
    report["gram_rank_tolerance"] = format_real(report["gram_rank_tolerance"])
    report["reconstruction_max_error"] = format_real(
        report["reconstruction_max_error"]
    )
    report["ground_norm"] = format_real(report["ground_norm"])
    _emit(dump_json(report))
    return 0


def cmd_frame(args):
    g, _ = _load_groupoid(args.groupoid)
    fc = FrameChange(parse_unitary_doc(_read_json(args.unitary)))
    pairs = []
    for a in g.events:
        for b in g.events:
            res = transformation_function(g, fc, a, b)
            pairs.append({
                "from": a,
                "to": b,
                "value": format_real(res.value),
                "amplitude": complex_pair(res.amplitude),
            })
    _emit(dump_json({"pairs": pairs}))
    return 0


def cmd_example(args):
    if args.system == "qubit":
        d = qubit_decoherence(build_qubit(), args.S, args.normalization)
        doc = {"system": "qubit", "S": format_real(args.S)}
    else:
        d = double_slit_decoherence(args.delta,
                                    normalization=args.normalization)
        doc = {"system": "double-slit", "delta": format_real(args.delta)}
    doc.update(normalization=args.normalization, order=list(d.labels),
               matrix=matrix_to_json(d.matrix))
    if args.set is not None:
        rep = quantum_measure(d, _parse_set(args.set), args.tolerance)
        doc["measure"] = {"set": list(rep.members),
                          "value": format_real(rep.value)}
        if args.system == "double-slit":
            doc["measure"]["raw_value"] = format_real(rep.raw_value)
    if args.format == "csv":
        _emit_matrix(args, d.matrix)
    else:
        _emit(dump_json(doc))
    return 0


def cmd_sweep(args):
    if args.n < 2:
        raise GqmInputError("--n must be at least 2")
    if args.trials < 1:
        raise GqmInputError("--trials must be at least 1")
    if args.seed < 0:
        raise GqmInputError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    sizes = [2 + k % (args.n - 1) for k in range(args.trials)]
    potentials = [rng.normal(size=n_events).tolist() for n_events in sizes]

    # min and max do not depend on the order of the trials, so they run
    # size by size on one validated groupoid, one groupoid alive at a time
    results = []
    for n_events in sorted(set(sizes)):
        g = pair_groupoid(["e%d" % k for k in range(n_events)])
        results += [is_reproducing_sweep_trial(g, u)
                    for n, u in zip(sizes, potentials) if n == n_events]
        del g

    worst_eig = min(r[0] for r in results)
    worst_rep = max(r[1] for r in results)
    ok = worst_eig >= -args.tolerance and worst_rep <= args.tolerance
    _emit(dump_json({
        "target": "thm52",
        "trials": args.trials,
        "seed": args.seed,
        "min_eigenvalue": format_real(worst_eig),
        "max_reproducing_deviation": format_real(worst_rep),
        "tolerance": format_real(args.tolerance),
        "ok": ok,
    }))
    return 0 if ok else 2


# -- argument parsing ----------------------------------------------------


def _finite_float(text):
    """argparse type of the real-valued options: NaN and infinities are
    input errors (exit 1), not usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    if not math.isfinite(value):
        raise GqmInputError("option value %r is not a finite number" % text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gqm",
        description="Finite groupoids, states, quantum measures, and GNS "
                    "representations.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tolerance", type=_finite_float, default=1e-10)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a groupoid spec file")
    p.add_argument("groupoid")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("algebra-mult", help="convolution product")
    p.add_argument("groupoid")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_algebra_mult)

    p = sub.add_parser("psd-check", help="positive semi-definiteness")
    p.add_argument("groupoid")
    p.add_argument("state")
    p.set_defaults(func=cmd_psd_check)

    for name, fn in (("decoherence", cmd_decoherence),
                     ("measure", cmd_measure)):
        p = sub.add_parser(name)
        p.add_argument("groupoid")
        p.add_argument("state")
        p.add_argument("--normalization", choices=NORMALIZATIONS,
                       default="per-transition")
        if name == "measure":
            p.add_argument("--set", required=True,
                           help="comma-separated transition labels")
        p.set_defaults(func=fn)

    p = sub.add_parser("interference")
    p.add_argument("groupoid")
    p.add_argument("state")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--sets", required=True,
                   help="semicolon-separated comma lists")
    p.add_argument("--normalization", choices=NORMALIZATIONS,
                   default="per-transition")
    p.set_defaults(func=cmd_interference)

    p = sub.add_parser("gns", help="GNS construction report")
    p.add_argument("groupoid")
    p.add_argument("state")
    p.set_defaults(func=cmd_gns)

    p = sub.add_parser("frame", help="transformation functions")
    p.add_argument("groupoid")
    p.add_argument("--unitary", required=True)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("example", help="built-in systems")
    p.add_argument("system", choices=("qubit", "double-slit"))
    p.add_argument("--S", type=_finite_float, default=0.0)
    p.add_argument("--delta", type=_finite_float, default=0.0)
    p.add_argument("--normalization", choices=NORMALIZATIONS,
                   default="per-transition")
    p.add_argument("--set", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("sweep", help="randomized property sweeps")
    p.add_argument("target", choices=("thm52",))
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.tolerance <= 0:
            parser.error("--tolerance must be positive")
        return args.func(args)
    except MathPropertyError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except _IoFailure as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except GqmError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except MemoryError as exc:
        # an input too large for this machine is bad input, not a crash
        sys.stderr.write("error: out of memory: %s\n"
                         % (str(exc) or "allocation failed"))
        return 1


if __name__ == "__main__":
    sys.exit(main())
