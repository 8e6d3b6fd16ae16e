"""Command-line interface: spec-file parsing, dispatch, report emission.

Exit codes: 0 success, 1 malformed input or validation failure, 2 violated
mathematical property (e.g. a PSD check), 3 I/O failure.  JSON prints
each float as its shortest round-tripping ``repr``, CSV with ``%.17g``;
complex numbers are [re, im] pairs; angles are radians.

The sibling modules are bound as the lazy modules that ``gqm`` registers,
so a command runs only the modules whose functions it calls, and
``gqm --help`` loads no numpy.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import (NORMALIZATIONS, action, algebra, decoherence, examples, gns,
               groupoid, specio, states)
from .errors import GqmError, GqmInputError, MathPropertyError


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _IoFailure("cannot read %s: %s" % (path, exc))
    return specio.load_json(data, path)


class _IoFailure(Exception):
    pass


def _load_groupoid(path):
    doc = _read_json(path)
    return specio.parse_groupoid_doc(doc), doc["kind"] == "quiver"


def _load_state(path, g, is_quiver, message=None):
    """A CharacteristicFunction, or a GeneratorAction bound to ``g``: it
    stays at the arrow level, where no global extension need exist.  Given
    ``message``, the state must be defined on the whole groupoid, and a
    GeneratorAction is an input error with that message."""
    state = specio.parse_state_doc(_read_json(path), g)
    if isinstance(state, states.CharacteristicFunction):
        return state
    if not is_quiver:
        raise GqmInputError("generator-action states need a quiver-kind "
                            "groupoid spec")
    state = specio.bind_generator_action(state, g)
    if message is not None:
        raise GqmInputError(message)
    return state


def _emit(doc):
    """Write the report ``doc`` as canonical JSON."""
    sys.stdout.write(specio.dump_json(doc))


def _emit_matrix(args, mat):
    if args.format == "csv":
        sys.stdout.write(specio.matrix_to_csv(mat))
    else:
        _emit(specio.matrix_to_json(mat))


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
    _emit({
        "ok": True,
        "events": len(g.events),
        "order": g.order,
        "connected": g.is_connected(),
    })
    return 0


def cmd_algebra_mult(args):
    g, _ = _load_groupoid(args.groupoid)
    a = specio.parse_algebra_doc(_read_json(args.left), g)
    b = specio.parse_algebra_doc(_read_json(args.right), g)
    _emit(specio.algebra_to_doc(algebra.multiply(a, b)))
    return 0


def cmd_psd_check(args):
    g, is_quiver = _load_groupoid(args.groupoid)
    state = _load_state(args.state, g, is_quiver,
                        "psd-check needs a characteristic-style state")
    check = states.is_positive_semidefinite(state, args.tolerance)
    doc = {
        "ok": check.ok,
        "hermitian": check.hermitian,
        "min_eigenvalue": check.min_eigenvalue,
        "tolerance": args.tolerance,
    }
    if check.witness is not None:
        doc["witness"] = {t: specio.complex_pair(z) for t, z in check.witness}
    _emit(doc)
    return 0 if check.ok else 2


def _decoherence(args, message=None):
    g, is_quiver = _load_groupoid(args.groupoid)
    state = _load_state(args.state, g, is_quiver, message)
    if isinstance(state, states.CharacteristicFunction):
        return decoherence.decoherence_from_characteristic(
            state, args.normalization, args.tolerance)
    return action.quiver_decoherence(g, state, args.normalization)


def cmd_decoherence(args):
    _emit_matrix(args, _decoherence(args).matrix)
    return 0


def cmd_measure(args):
    d = _decoherence(args)
    rep = decoherence.quantum_measure(d, _parse_set(args.set), args.tolerance)
    _emit({
        "value": rep.value,
        "raw_value": rep.raw_value,
        "normalization": args.normalization,
        "tolerance": args.tolerance,
    })
    return 0


def cmd_interference(args):
    d = _decoherence(
        args, "interference needs a state defined on the whole groupoid")
    sets = _parse_sets(args.sets)
    if len(sets) != args.order:
        raise GqmInputError(
            "--order %d but %d sets were given" % (args.order, len(sets))
        )
    value = decoherence.interference(d, sets, args.tolerance)
    _emit({
        "order": args.order,
        "value": value,
        "normalization": args.normalization,
        "tolerance": args.tolerance,
    })
    return 0


def cmd_gns(args):
    import numpy as np

    g, is_quiver = _load_groupoid(args.groupoid)
    state = _load_state(args.state, g, is_quiver,
                        "gns needs a characteristic-style state")
    mass = state.unit_mass()
    groupoid.finite(mass, "gns needs a state of finite unit mass,",
                    "got %r" % mass)
    if abs(mass) <= args.tolerance:
        raise GqmInputError("gns needs a state of nonzero unit mass, got %r"
                            % mass)
    if abs(mass - 1.0) > args.tolerance:
        # the unit mass of a PSD function is real and positive, so only
        # such a mass may normalize; pure phases from action specs need it
        if abs(mass.imag) > args.tolerance or mass.real <= 0:
            states.assert_psd(state, args.tolerance)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                values = state.values / mass
            state = states.CharacteristicFunction(g, groupoid.finite(
                values, "state values overflow when divided by the unit "
                "mass", "%r" % mass))
    _emit(gns.gns_report(state, args.tolerance))
    return 0


def cmd_frame(args):
    g, _ = _load_groupoid(args.groupoid)
    fc = gns.FrameChange(specio.parse_unitary_doc(_read_json(args.unitary)))
    pairs = []
    for a in g.events:
        for b in g.events:
            res = gns.transformation_function(g, fc, a, b)
            pairs.append({
                "from": a,
                "to": b,
                "value": res.value,
                "amplitude": specio.complex_pair(res.amplitude),
            })
    _emit({"pairs": pairs})
    return 0


def cmd_example(args):
    if args.system == "qubit":
        d = examples.qubit_decoherence(examples.build_qubit(), args.S,
                                       args.normalization)
        doc = {"system": "qubit", "S": args.S}
    else:
        d = examples.double_slit_decoherence(
            args.delta, normalization=args.normalization)
        doc = {"system": "double-slit", "delta": args.delta}
    if args.set is not None:  # before any output: a bad set prints nothing
        rep = decoherence.quantum_measure(d, _parse_set(args.set),
                                          args.tolerance)
        doc["measure"] = {"set": list(rep.members), "value": rep.value}
        if args.system == "double-slit":
            doc["measure"]["raw_value"] = rep.raw_value
    if args.format == "csv":
        _emit_matrix(args, d.matrix)
    else:
        _emit({**doc, "normalization": args.normalization,
               "order": list(d.labels),
               "matrix": specio.matrix_to_json(d.matrix)})
    return 0


def cmd_sweep(args):
    import numpy as np

    if args.n < 2:
        raise GqmInputError("--n must be at least 2")
    if args.trials < 1:
        raise GqmInputError("--trials must be at least 1")
    if args.seed < 0:
        raise GqmInputError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    sizes = [2 + k % (args.n - 1) for k in range(args.trials)]
    potentials = [rng.normal(size=n_events) for n_events in sizes]

    # min and max do not depend on the order of the trials, so they run
    # size by size, as one stack on one pair groupoid, one groupoid alive
    # at a time
    worst_eig, worst_rep = math.inf, -math.inf
    for n_events in sorted(set(sizes)):
        g = groupoid.pair_groupoid(["e%d" % k for k in range(n_events)])
        eig, rep = action.is_reproducing_sweep_trial(g, np.stack(
            [u for n, u in zip(sizes, potentials) if n == n_events]))
        worst_eig = min(worst_eig, float(eig.min()))
        worst_rep = max(worst_rep, float(rep.max()))
        del g

    ok = worst_eig >= -args.tolerance and worst_rep <= args.tolerance
    _emit({
        "target": "thm52",
        "trials": args.trials,
        "seed": args.seed,
        "min_eigenvalue": worst_eig,
        "max_reproducing_deviation": worst_rep,
        "tolerance": args.tolerance,
        "ok": ok,
    })
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
