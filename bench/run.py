"""End-to-end benchmark of the splicemult command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the program from its
`src/` directory.  One single-threaded client calls `splicemult.cli.main`
in-process, one command after the other (a closed loop); stdout is
captured and every answer is checked (see workloads.py).  After an untimed
warm-up pass, passes over the workload's command list repeat for about S
seconds.  Every time is scaled to the nominal CPU speed (see Speedometer).

--trace 0 reports the end-to-end metrics, with no wrappers installed:
  wall_s       median time of one pass (the time to solution)
  cmd_s.p50    median time of one command: the Harrell-Davis median over
               the commands of each command's median time over the passes
  cmd_s.p90    90th percentile of the same
  setup_s      median of 9 set-ups: import splicemult, make the inputs from
               the seed and write them
  peak_rss_mb  peak resident memory of the process
--trace 1 alternates untraced passes with passes traced by tracing.py and
reports per-layer self times and counters (see BENCHMARK.json).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it say what was run and
break failures down by kind.  `failed` counts every command that did not
answer, including the program's known cap failures; `correct` is false on
any wrong answer, any failure other than a known one, or counters that do
not repeat between traced passes.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 9
MIN_PASSES = 3  # untraced; a traced run makes at least 2 of each kind


class ProgramMissing(Exception):
    pass


def import_program():
    """Import splicemult afresh from this checkout's src/, never from an
    installed copy, and return its cli module."""
    if not os.path.isfile(os.path.join(SRC, "splicemult", "__init__.py")):
        raise ProgramMissing(f"no splicemult package under {SRC}")
    for name in [n for n in sys.modules
                 if n == "splicemult" or n.startswith("splicemult.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("splicemult.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"imported {cli.__file__}, not the checkout's")
    return cli


def invoke(cli, argv):
    """Run one command in-process: (exit code, stdout, stderr).  The exit
    code is None when main raised, -1 when it called exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit:
            rc = -1
        except Exception:  # a crash is a result to report
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


# The host's CPUs are shared with other tenants: the speed of a fixed
# computation changed by up to a factor of two from one minute to the next,
# in CPU time as much as in wall time.  Every reported time is therefore
# scaled by the speed of reference(), measured around and during the same
# command (see Speedometer).  Unscaled, the median pass time of one input
# set spread by 29% between runs; scaled, by 5%.
REFERENCE_S = 0.0055  # reference() on an idle 2-vCPU Xeon VM, Python 3.11
SAMPLE_S = 0.1


def reference():
    """Gauss-Jordan inverse of a fixed 10 x 10 rational matrix: the
    benchmark's own code, with the Fraction arithmetic and list work of the
    program."""
    n = 10
    m = [[Fraction((3 * i + 7 * j) % 11 + (n if i == j else 0))
          for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return m


class Speedometer:
    """Times calls scaled to the nominal CPU speed.

    reference() is timed before and after every call, and every SAMPLE_S
    seconds during it from a SIGALRM handler, which Python runs between
    the program's bytecodes.  `clock` leaves out the handler's time, and a
    call's time on that clock is scaled by the mean of the speeds.
    """

    def __init__(self):
        self._speeds = []
        self._paused = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """perf_counter() less the time spent in the sampling handler."""
        return time.perf_counter() - self._paused

    def _sample(self):
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self._speeds.append(REFERENCE_S / elapsed)
        return elapsed

    def _on_alarm(self, signum, frame):
        self._paused += self._sample()

    def time(self, fn, *args):
        """(fn(*args), scaled seconds, unscaled seconds)."""
        self._speeds = self._speeds[-1:]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = self.clock()
        try:
            result = fn(*args)
        finally:
            seconds = self.clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        return result, seconds * statistics.fmean(self._speeds), seconds


def _set_up_once(workload, seed, directory):
    cli = import_program()
    os.makedirs(directory)
    return cli, workloads.build(workload, seed, directory,
                                workloads.load_corpus())


def set_up(workload, seed, directory, speedometer):
    """Import, build the inputs and write them into `directory`; setup_s is
    the median of SETUP_REPEATS set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        (cli, commands), seconds, _ = speedometer.time(
            _set_up_once, workload, seed, directory)
        times.append(seconds)
    return statistics.median(times), cli, commands


class Tally:
    """Outcomes of every command run."""

    def __init__(self):
        self.attempted = 0
        self.kinds = Counter()
        self.unexpected = Counter()  # (label, kind, message)

    def record(self, cmd, kind, message):
        self.attempted += 1
        if kind == "ok":
            return
        self.kinds[kind] += 1
        if kind != cmd.known_defect:
            self.unexpected[(cmd.label, kind, message)] += 1

    @property
    def failed(self):
        return sum(self.kinds.values())


class Pass:
    """One pass over the command list: unscaled and scaled command times,
    and with a tracer, the scaled self times and the counters."""

    def __init__(self, cli, commands, tally, speedometer, tracer=None):
        self.raw, self.times = [], []
        for cmd in commands:
            if tracer is not None:
                tracer.install()
            try:
                (rc, out, err), seconds, raw = speedometer.time(
                    invoke, cli, cmd.argv)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.raw.append(raw)
            self.times.append(seconds)
            tally.record(cmd, *cmd.outcome(rc, out, err))
        self.wall = sum(self.times)
        self.factor = self.wall / sum(self.raw)
        if tracer is not None:
            self.self_s = {k: v * self.factor
                           for k, v in tracer.self_s.items()}
            self.counts = dict(tracer.counts)


def measure(cli, commands, seconds, traced, speedometer):
    """Warm-up, then passes until `seconds` have gone.  With `traced`,
    untraced and traced passes alternate."""
    tally = Tally()
    Pass(cli, commands, tally, speedometer)
    plain, spans = [], []
    deadline = time.perf_counter() + seconds
    step = 0.0  # duration of the last round, to stop near the deadline
    minimum = 2 if traced else MIN_PASSES
    while len(plain) < minimum or time.perf_counter() + step / 2 < deadline:
        start = time.perf_counter()
        plain.append(Pass(cli, commands, tally, speedometer))
        if traced:
            spans.append(Pass(cli, commands, tally, speedometer,
                              tracing.Tracer(speedometer.clock)))
        step = time.perf_counter() - start
    return tally, plain, spans


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass on
    [(i-1)/n, i/n] (midpoint rule).  A single order statistic jumps when
    the seed swaps one input for another of different cost; this does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t)
                                    + (b - 1) * math.log(1 - t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(plain, setup_s):
    """wall_s is the median pass; cmd_s.* are quantiles over the commands
    of each command's median time over the passes."""
    per_command = [statistics.median(ts)
                   for ts in zip(*(p.times for p in plain))]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "cmd_s.p50": (harrell_davis(per_command, 0.5), "s"),
        "cmd_s.p90": (harrell_davis(per_command, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(plain, spans):
    """Per-layer metrics from the traced passes, whether the counters
    repeated exactly in every traced pass, and each span's share of the
    traced pass time."""
    counts = spans[0].counts
    repeat = all(s.counts == counts for s in spans)
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.s"] = (statistics.median(s.self_s.get(name, 0.0)
                                              for s in spans), "s")
    out["pipeline.self_s"] = out.pop("pipeline.run_pipeline.s")
    out["cli.self_s"] = out.pop("cli.main.s")
    for key in tracing.COUNTER_NAMES:
        out[key] = (counts.get(key, 0), "count")
    out["pipeline.rounds"] = out.pop("pipeline.run_pipeline.rounds")
    box = counts.get("monomial.hilbert_basis.box_points", 0)
    gens = counts.get("monomial.hilbert_basis.generators", 0)
    out["monomial.hilbert_basis.yield"] = (gens / box if box else 0.0,
                                           "ratio")
    out["trace.overhead_s"] = (statistics.median(s.wall for s in spans)
                               - statistics.median(p.wall for p in plain),
                               "s")
    shares = {name: statistics.median(s.self_s.get(name, 0.0) / s.wall
                                      for s in spans)
              for name in tracing.SPAN_NAMES}
    return out, repeat, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    directory = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    speedometer = Speedometer()
    try:
        setup_s, cli, commands = set_up(args.workload, args.seed, directory,
                                        speedometer)
        tally, plain, spans = measure(cli, commands, args.seconds,
                                      bool(args.trace), speedometer)
    except ProgramMissing as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    finally:
        speedometer.close()
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    correct = not tally.unexpected
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"commands/pass {len(commands)}  untraced passes {len(plain)}  "
          f"command samples {len(commands) * len(plain)}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    factors = [p.factor for p in plain]
    print(f"# unscaled median pass "
          f"{statistics.median(sum(p.raw) for p in plain):.4f} s  speed "
          f"factor median {statistics.median(factors):.3f} "
          f"range {min(factors):.3f}-{max(factors):.3f}")
    print(f"# fail_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}  by kind "
          + json.dumps(dict(sorted(tally.kinds.items()))))
    for (label, kind, message), n in sorted(tally.unexpected.items()):
        print(f"# UNEXPECTED {kind} x{n}: {label}: {message}")
    if args.trace:
        metrics, repeat, shares = per_layer(plain, spans)
        correct = correct and repeat
        print(f"# traced passes {len(spans)}  counters repeat: {repeat}")
        print("# traced self-time shares " + json.dumps(
            {k: round(v, 4) for k, v in
             sorted(shares.items(), key=lambda kv: -kv[1])}))
    else:
        metrics = end_to_end(plain, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
