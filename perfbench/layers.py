"""Per-layer numbers from the spans one traced op wrote.

Self time: at each instant inside the root span (``gqm.cli.main``) the time
goes to the innermost open span of each thread, except a span that waits on
an open span of another thread (``cmd_sweep`` while its pool runs). When
several threads hold such spans, they share the instant equally. On one
thread this is the span's duration minus the part its children cover; with
the sweep's worker threads it splits the time the way the interpreter lock
shares it. The stretches between entering a wrapper and calling the
function, and between its return and leaving the wrapper, go to
``trace.accounting_s``. The self times and the accounting of one op
therefore add up to the root span's wall time; ``check`` verifies that.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import COUNT_NAMES, LAYERS, SWEEP_COMMAND, SWEEP_TRIAL

SELF_CHECK_SHARE = 0.01  # |root wall - sum of self times| / root wall
ROOT = "gqm.cli.main"

METRIC_OF = {"%s.%s" % (module, fn): metric
             for metric, (module, functions) in LAYERS.items()
             for fn in functions}
TIME_METRICS = list(LAYERS) + ["trace.accounting_s"]

# span tuple fields, as tracer.Tracer.wrap writes them
(ID, PARENT, NAME, THREAD, ENTER, ENTER_SEQ, START, START_SEQ, END, END_SEQ,
 LEAVE, LEAVE_SEQ, CPU) = range(13)


def attribute(spans):
    """(self time by span id, accounting time) over the whole trace."""
    by_id = {s[ID]: s for s in spans}
    events = []
    for s in spans:
        events += [(s[ENTER], s[ENTER_SEQ], "enter", s),
                   (s[START], s[START_SEQ], "start", s),
                   (s[END], s[END_SEQ], "end", s),
                   (s[LEAVE], s[LEAVE_SEQ], "leave", s)]
    events.sort(key=lambda e: (e[0], e[1]))
    stacks = defaultdict(list)  # thread -> [(in_call, span)]
    waiting_on = defaultdict(int)  # span id -> open spans of other threads
    self_time = defaultdict(float)
    accounting = 0.0
    previous = None
    for t, _, kind, s in events:
        if previous is not None and t > previous:
            holders = [stack[-1] for stack in stacks.values() if stack
                       and not (stack[-1][0] and waiting_on[stack[-1][1][ID]])]
            share = (t - previous) / len(holders) if holders else 0.0
            for in_call, span in holders:
                if in_call:
                    self_time[span[ID]] += share
                else:
                    accounting += share
        previous = t
        stack = stacks[s[THREAD]]
        parent = by_id.get(s[PARENT])
        cross = parent is not None and parent[THREAD] != s[THREAD]
        if kind == "enter":
            stack.append((False, s))
            if cross:
                waiting_on[parent[ID]] += 1
        elif kind == "start":
            stack[-1] = (True, s)
        elif kind == "end":
            stack[-1] = (False, s)
        else:
            stack.pop()
            if cross:
                waiting_on[parent[ID]] -= 1
    return self_time, accounting


def analyse(doc):
    """Layer times, counters and trace bookkeeping of one traced op."""
    spans = [tuple(s) for s in doc["spans"]]
    self_time, accounting = attribute(spans)
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for s in spans:
        out[METRIC_OF[s[NAME]]] += self_time[s[ID]]
    out["trace.accounting_s"] = accounting
    for name in COUNT_NAMES:
        out[name] = doc["counts"][name]
    out["cli.import_s"] = doc["import_s"]
    roots = [s for s in spans if s[NAME] == ROOT]
    root_wall = sum(s[LEAVE] - s[ENTER] for s in roots)
    out["root_wall_s"] = root_wall
    out["self_check_error"] = (
        abs(root_wall - sum(out[m] for m in TIME_METRICS)) / root_wall
        if root_wall > 0 else 1.0)
    out["sweep_wall_s"] = sum(s[END] - s[START] for s in spans
                              if s[NAME] == SWEEP_COMMAND)
    out["sweep_trial_cpu_s"] = sum(s[CPU] for s in spans
                                   if s[NAME] == SWEEP_TRIAL)
    return out


def check(analysis):
    """Failure reason when the op's self times do not add up, else None."""
    if analysis["root_wall_s"] <= 0:
        return "trace has no root span"
    if analysis["self_check_error"] > SELF_CHECK_SHARE:
        return ("self times miss the root span's wall time by %.3g, more "
                "than %g of it" % (analysis["self_check_error"],
                                   SELF_CHECK_SHARE))
    return None
