"""Traced entry point for one gqm op.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- <gqm arguments>

Wraps gqm's layer-boundary functions, runs ``gqm.cli.main(argv)`` as
``python -m gqm.cli`` would, and writes the recorded spans and counters to
SPANS.json when the process exits. Spans stay in memory until then.

Each wrapper replaces the function object in every ``gqm.*`` module
namespace that holds it, because modules bind each other's functions with
``from .x import y``. A span records its id, parent span, name, thread, and
four (clock, sequence) stamps: entering the wrapper, calling the function,
its return, and leaving the wrapper. The stamps outside the call are the
tracer's own accounting. The sequence number keeps stamps of one thread in
program order when the clock ties.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# per-layer time metric -> (module, boundary functions); a metric's time is
# the self time of its functions' spans
LAYERS = {
    "cli.self_s": ("gqm.cli", [
        "main", "build_parser", "cmd_validate", "cmd_algebra_mult",
        "cmd_psd_check", "cmd_decoherence", "cmd_measure",
        "cmd_interference", "cmd_gns", "cmd_frame", "cmd_example",
        "cmd_sweep"]),
    "specio.parse_s": ("gqm.specio", [
        "parse_groupoid_doc", "parse_state_doc", "parse_algebra_doc",
        "parse_unitary_doc", "bind_generator_action"]),
    "specio.serialize_s": ("gqm.specio", [
        "dump_json", "matrix_to_json", "matrix_to_csv"]),
    "groupoid.build_s": ("gqm.groupoid", [
        "pair_groupoid", "from_quiver", "group_as_groupoid",
        "from_explicit"]),
    "groupoid.validate_s": ("gqm.groupoid", ["validate"]),
    "algebra.multiply_s": ("gqm.algebra", ["multiply"]),
    "algebra.rep_s": ("gqm.algebra", [
        "fundamental_rep", "fundamental_rep_inverse", "regular_rep"]),
    "states.invariance_matrix_s": ("gqm.states", ["invariance_matrix"]),
    "states.psd_s": ("gqm.states", ["is_positive_semidefinite"]),
    "decoherence.build_s": ("gqm.decoherence", [
        "decoherence_from_characteristic"]),
    "decoherence.measure_s": ("gqm.decoherence", [
        "quantum_measure", "interference"]),
    "action.state_s": ("gqm.action", [
        "action_from_potential", "dynamical_state"]),
    "action.is_action_s": ("gqm.action", ["is_action"]),
    "action.quiver_s": ("gqm.action", [
        "quiver_decoherence", "extend_generator_action"]),
    "action.sweep_trial_s": ("gqm.action", ["is_reproducing_sweep_trial"]),
    "gns.build_s": ("gqm.gns", ["gns_build"]),
    "gns.verify_s": ("gqm.gns", ["gns_report"]),
    "gns.frame_s": ("gqm.gns", ["transformation_function"]),
    "examples.self_s": ("gqm.examples", [
        "build_qubit", "qubit_action", "qubit_phase", "qubit_state",
        "qubit_decoherence", "double_slit_quiver", "double_slit_groupoid",
        "double_slit_action", "double_slit_decoherence",
        "cyclic_group_groupoid", "corpus_groupoids"]),
}

SWEEP_TRIAL = "gqm.action.is_reproducing_sweep_trial"
SWEEP_COMMAND = "gqm.cli.cmd_sweep"


def _one(args, result):
    return 1


_BUILD = [("groupoid.builds", _one),
          ("groupoid.transitions_built", lambda args, result: result.order)]

# counters recorded at the same boundaries: function -> [(counter,
# increment(args, result))], applied when the function returns
COUNTERS = {
    "gqm.groupoid.pair_groupoid": _BUILD,
    "gqm.groupoid.from_quiver": _BUILD,
    "gqm.groupoid.group_as_groupoid": _BUILD,
    "gqm.groupoid.from_explicit": _BUILD,
    "gqm.groupoid.validate": [
        ("groupoid.checks", lambda args, result: result.checks)],
    "gqm.algebra.multiply": [("algebra.multiply_calls", _one)],
    "gqm.states.is_positive_semidefinite": [("states.psd_calls", _one)],
    "gqm.states.invariance_matrix": [
        ("states.matrix_cells",
         lambda args, result: args[0].groupoid.order ** 2)],
    "gqm.decoherence.quantum_measure": [("decoherence.measure_calls", _one)],
    SWEEP_TRIAL: [("action.sweep_trials", _one)],
    "gqm.gns.gns_build": [
        ("gns.dim_total", lambda args, result: result.space.dim)],
}

ERROR_COUNTS = ["errors.input", "errors.property", "errors.crash"]
COUNT_NAMES = sorted({name for hooks in COUNTERS.values()
                      for name, _ in hooks} | set(ERROR_COUNTS))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._seq = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack
                if threading.get_ident() == self._main_thread else [])
        return stack

    def _stamp(self):
        return time.perf_counter(), next(self._seq)

    def wrap(self, qualname, fn):
        hooks = COUNTERS.get(qualname, ())
        is_command = qualname.startswith("gqm.cli.cmd_")
        errors = sys.modules["gqm.errors"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = self._stamp()
            stack = self._stack()
            # a worker thread's outermost span hangs off the main thread's
            # innermost open span: the main thread is the only submitter
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = 0
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = self._stamp()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = self._stamp()
                if is_command and isinstance(exc, Exception):
                    if isinstance(exc, errors.GqmInputError):
                        kind = "errors.input"
                    elif isinstance(exc, errors.MathPropertyError):
                        kind = "errors.property"
                    elif isinstance(exc, errors.GqmError):
                        kind = None
                    else:
                        kind = "errors.crash"
                    if kind:
                        with self._lock:
                            self.counts[kind] += 1
                raise
            else:
                end = self._stamp()
                if hooks:
                    with self._lock:
                        for name, increment in hooks:
                            self.counts[name] += increment(args, result)
                return result
            finally:
                cpu = time.thread_time() - cpu0
                stack.pop()
                leave = self._stamp()
                self.spans.append((span_id, parent, qualname,
                                   threading.get_ident(), *enter, *start,
                                   *end, *leave, cpu))

        return traced

    def install(self):
        """Replace every boundary function in all gqm module namespaces."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gqm" or name.startswith("gqm.")]
        for module_name, functions in LAYERS.values():
            module = sys.modules[module_name]
            for name in functions:
                original = getattr(module, name)
                wrapper = self.wrap("%s.%s" % (module_name, name), original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def dump(self, path, import_s):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "import_s": import_s}, fh)


def main():
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <gqm arguments>")
    spans_path, gqm_argv = argv[0], argv[2:]
    start = time.perf_counter()
    import gqm.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        code = gqm.cli.main(gqm_argv)
    finally:
        tracer.dump(spans_path, import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
