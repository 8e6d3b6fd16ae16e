"""gqm benchmark: cold ``gqm`` processes on seeded inputs, every report
checked against a plain-numpy reference.

    python3 perfbench/run.py                # every workload, untraced then traced
    python3 perfbench/run.py --workload ladder-top --seed 3 --seconds 30 --trace 0

An op is one cold ``python -m gqm.cli`` process, run in a closed loop with
one client: the next op starts when the previous one has exited. A run
repeats whole rounds of its workload's ops while another round still fits
in ``--seconds`` (at least one round), so every run measures the same mix.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
again as a fresh traced process (``tracer.py``) and prints the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. ``correct`` is false when an
op fails other than by a known ROADMAP item-5 defect; ``failed`` counts
every failed op, those defects included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 4  # before the timed rounds, and as many after them
OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # no op runs past this point of a run
TAIL_BEYOND = 10
THREAD_VARS = ("GQM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
TRACEBACK = b"Traceback (most recent call last)"
NON_FINITE = re.compile(rb"(?<![A-Za-z_])(NaN|Infinity|nan|inf)(?![A-Za-z_])")


@dataclass(eq=False)
class Result:
    op: workloads.Op
    wall: float
    cpu: float
    rss_kib: int
    code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    trace: dict | None = None


def child_env():
    """PYTHONPATH to the checkout's sources; the sweep pool times BLAS
    threads stays within the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               GQM_THREADS=str(nproc), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return env, nproc


class Runner:
    """Spawns ops in the work directory and reaps each with ``wait4``."""

    def __init__(self, workdir, env):
        self.dir = workdir
        self.env = env
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def out_of_time(self):
        return time.perf_counter() >= self.deadline

    def spawn(self, cmd):
        """(wall s, rusage, exit code, timed out, stdout, stderr)."""
        out_path, err_path = self.dir / "op.stdout", self.dir / "op.stderr"
        timeout = max(0.0, min(OP_TIMEOUT_S,
                               self.deadline - time.perf_counter()))
        lock, state = threading.Lock(), {"exited": False, "killed": False}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.dir, env=self.env)

            def kill():
                with lock:
                    if not state["exited"]:
                        state["killed"] = True
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            # wait without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage, proc.returncode, state["killed"],
                out_path.read_bytes(), err_path.read_bytes())

    def run(self, op, traced=False):
        if traced:
            spans = self.dir / "op.spans.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                   str(spans), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "gqm.cli", *op.argv]
        wall, usage, code, killed, out, err = self.spawn(cmd)
        result = Result(op, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss, code, killed, out, err)
        if traced and spans.exists():
            result.trace = layers.analyse(json.loads(spans.read_text()))
        return result


def verify(result):
    """Why the op failed, or None."""
    if result.timed_out:
        return "timeout"
    if TRACEBACK in result.stderr:
        return "traceback on stderr"
    if NON_FINITE.search(result.stdout):
        return "NaN or Infinity in stdout"
    expected = result.op.expected
    if result.code not in expected.codes:
        return "exit code %d, expected %s" % (
            result.code, " or ".join(map(str, expected.codes)))
    return workloads.check_stdout(result.stdout.decode("utf-8", "replace"),
                                  expected.stdout)


def run_rounds(workload, seconds, runner, run_op):
    """Whole rounds while another one fits in ``seconds``: a list of
    (results, wall s) per round; a round the deadline cut is dropped."""
    rounds, start = [], time.perf_counter()
    while True:
        round_start = time.perf_counter()
        ops = workload.round_ops(len(rounds))
        results = []
        for op in ops:
            if runner.out_of_time():
                break
            results.append(run_op(op))
        now = time.perf_counter()
        if len(results) == len(ops) or not rounds:
            rounds.append((results, now - round_start))
        if (now - start) + (now - round_start) > seconds or runner.out_of_time():
            return rounds


def setup_times(runner, n=SETUP_RUNS):
    """Wall times of ``n`` cold ``gqm --help`` processes."""
    walls = []
    for _ in range(n):
        wall, _, code, _, out, _ = runner.spawn(
            [sys.executable, "-m", "gqm.cli", "--help"])
        if code != 0 or b"usage: gqm" not in out:
            raise SystemExit("perfbench: `gqm --help` failed (exit %d)" % code)
        walls.append(wall)
    return walls


class Tally:
    """Failed ops: reasons, and whether each is a known defect."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (op, reason)

    def add(self, op, reason):
        self.attempted += 1
        if reason:
            self.failures.append((op, reason))

    @property
    def correct(self):
        return all(op.defect for op, _ in self.failures)

    def lines(self):
        seen = Counter((op.name, reason, op.defect)
                       for op, reason in self.failures)
        for (name, reason, defect), n in seen.items():
            yield "  FAILED x%d  gqm %.100s: %s%s" % (
                n, name, reason,
                "  [known defect: %s]" % defect if defect else "")


def tail(walls):
    """(value, percentile) at the highest percentile that leaves
    TAIL_BEYOND ops beyond it, or None for too few ops."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(walls)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_end_to_end(workload, seconds, runner, tally, out):
    setup_walls = setup_times(runner)
    rounds = run_rounds(workload, seconds, runner, runner.run)
    if not runner.out_of_time():
        setup_walls += setup_times(runner)
    setup = statistics.median(setup_walls)
    results = [r for ops, _ in rounds for r in ops]
    first = {}
    for res in results:
        tally.add(res.op, verify(res))
        first.setdefault(res.op.name, res.stdout)
    for op in workload.repeat:
        if runner.out_of_time():
            break
        again = runner.run(op)
        reason = verify(again)
        if not reason and again.stdout != first[op.name]:
            reason = "stdout differs from the first run of the same op"
        tally.add(op, reason)

    # throughput and CPU are medians over whole rounds, which all run the
    # same mix of ops, so one round slowed by other load moves them less
    walls = [r.wall for r in results]
    metrics = {
        "setup_s": setup,
        "ops_per_s": statistics.median(len(ops) / wall
                                       for ops, wall in rounds),
        "op_p50_s": statistics.median(walls),
        "cpu_per_op_s": statistics.median(sum(r.cpu for r in ops) / len(ops)
                                          for ops, _ in rounds),
        "peak_rss_mb": max(r.rss_kib for r in results) / 1024.0,
    }
    t = tail(walls)
    out += [
        ("setup_s", setup, "s", "median of %d cold `gqm --help`, half "
         "before and half after the rounds (%s)" % (
             len(setup_walls), " ".join("%.3f" % w for w in setup_walls))),
        ("ops_per_s", metrics["ops_per_s"], "1/s",
         "median over %d round(s) of %d ops; closed loop, 1 client"
         % (len(rounds), len(rounds[0][0]))),
        ("op_p50_s", metrics["op_p50_s"], "s", "p50 of %d ops" % len(walls)),
        ("op_tail_s", t[0], "s", "p%.1f of %d ops, %d beyond" % (
            t[1], len(walls), TAIL_BEYOND)) if t else (
            "op_tail_s", None, "s", "omitted: %d ops, need more than %d" % (
                len(walls), TAIL_BEYOND)),
        ("cpu_per_op_s", metrics["cpu_per_op_s"], "s",
         "user+system CPU of the op processes; median over rounds"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB",
         "largest max RSS of any op process (wait4)"),
    ]
    return metrics


def measure_layers(workload, seconds, runner, tally, out):
    def run_pair(op):
        return runner.run(op), runner.run(op, traced=True)

    rounds = run_rounds(workload, seconds, runner, run_pair)
    pairs = [pair for ops, _ in rounds for pair in ops]
    traces = []
    for plain, traced in pairs:
        reason = verify(plain)
        if not reason:
            if traced.timed_out or traced.trace is None:
                reason = "traced op left no spans"
            elif traced.stdout != plain.stdout or traced.code != plain.code:
                reason = "traced op printed another report than untraced"
            else:
                reason = layers.check(traced.trace)
        tally.add(plain.op, reason)
        if traced.trace is not None:
            traces.append((plain, traced))

    # totals per round, so a count reads as what one pass of the workload
    # does; the overhead is the median over ops of traced - untraced wall
    metrics = {}
    per_round = 1.0 / len(rounds)
    for name in layers.TIME_METRICS + layers.COUNT_NAMES + ["cli.import_s"]:
        metrics[name] = per_round * sum(t.trace[name] for _, t in traces)
    metrics["specio.bytes_out"] = per_round * sum(len(t.stdout)
                                                  for _, t in traces)
    sweep_wall = sum(t.trace["sweep_wall_s"] for _, t in traces)
    metrics["cli.sweep_overlap"] = (
        sum(t.trace["sweep_trial_cpu_s"] for _, t in traces) / sweep_wall
        if sweep_wall else 0.0)
    metrics["trace.overhead_s"] = statistics.median(
        [t.wall - p.wall for p, t in traces]) if traces else 0.0
    worst = max((t.trace["self_check_error"] for _, t in traces), default=0)
    out.append(("traced ops", len(traces), "",
                "%d round(s); totals per round below; self times add up to the "
                "root span within %.2g (limit %g)"
                % (len(rounds), worst, layers.SELF_CHECK_SHARE)))
    return metrics


def provenance(env, nproc, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("python %s, numpy %s, BLAS %s %s, nproc %d, load %s, %s, "
            "PYTHONPATH=<checkout>/src, seed %d, %d s, trace %d" % (
                platform.python_version(), np.__version__, blas.get("name"),
                blas.get("version"), nproc,
                " ".join("%.2f" % x for x in os.getloadavg()),
                " ".join("%s=%s" % (k, env[k]) for k in THREAD_VARS),
                args.seed, args.seconds, args.trace))


def run_one(name, args, spec, env, nproc, opsdir):
    """Run one workload in one mode; prints its report, returns
    (tally, {metric: {"value", "unit"}})."""
    opsdir.mkdir()
    runner = Runner(opsdir, env)
    workload = workloads.build(name, opsdir, args.seed)
    tally, out = Tally(), []
    if args.trace:
        wanted = spec["per_layer"]
        values = measure_layers(workload, args.seconds, runner, tally, out)
    else:
        wanted = spec["end_to_end"]
        values = measure_end_to_end(workload, args.seconds, runner, tally,
                                    out)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("== %s: %s" % (name, provenance(env, nproc, args)))
    for metric, value, unit, note in out:
        shown = "-" if value is None else "%.6g" % value
        print("  %-28s %12s %-5s %s" % (metric, shown, unit, note))
    if args.trace:
        for metric in sorted(metrics):
            print("  %-28s %12.6g %s" % (metric, metrics[metric]["value"],
                                         metrics[metric]["unit"]))
    print("  %-28s %12.6g %-5s %d failed / %d attempted" % (
        "fail_ratio", len(tally.failures) / max(1, tally.attempted), "",
        len(tally.failures), tally.attempted))
    for line in tally.lines():
        print(line)
    return tally, metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gqm" / "cli.py").is_file():
        sys.exit("perfbench: no gqm sources under %s" % (ROOT / "src"))

    env, nproc = child_env()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        # the first process compiles the byte code; it is not measured
        setup_times(Runner(workdir, env), 1)
        if args.workload == "all":
            runs = [(n, t) for n in names for t in (0, 1)]
        else:
            runs = [(args.workload, args.trace)]
        tallies, metrics = [], {}
        for name, trace in runs:
            args.trace = trace
            tally, m = run_one(name, args, spec, env, nproc,
                               workdir / ("%s-%d" % (name, trace)))
            tallies.append(tally)
            metrics.update(m if len(runs) == 1 else {
                "%s/%s" % (name, k): v for k, v in m.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({
        "correct": all(t.correct for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(len(t.failures) for t in tallies),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
