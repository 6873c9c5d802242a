"""One benchmark process: set up one workload, then run the timed loop.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE START [--setup-only]

run.py starts it from the root of a checkout.  START is run.py's
``time.perf_counter()`` just before it started the process; on Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so set-up is timed from
there.  Set-up covers interpreter start, imports, input generation and, on
the exact workloads, one warm-up sum per polytope; the warm-up's check runs
after it.  The loop is closed: one call at a time, the next input only after
the previous call and its check.  It runs until the calls have taken SECONDS
of timed wall time and at least MIN_CALLS calls ran.  Checks run outside the
timed region.  The last stdout line is one JSON object with the raw
measurements.

A call is a fixed sequence of steps: one exact sum per polytope, one CLI
process per command, or one smooth verification.  After each step, and after
each stage of set-up, outside the timed region, the worker times a fixed
kernel (`speed_probe`).  A segment's time divided by the kernel's time
around it gives its cost in kernel units, which run.py rescales to a nominal
machine speed.

Peak memory is read once MIN_CALLS calls are done, so that it covers the
same work whatever the speed of the program and the machine.

With TRACE=1, odd-numbered calls run under the wrappers of tracing.py and
even-numbered calls without them, so the traced run also gives the tracing
overhead on the same kind of inputs.  Set-up is traced as call id -1.
"""

import gc
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import inputs
import tracing

perf_counter = time.perf_counter

SPANS_DIR = ".bench_out"
SMOOTH_K = 1
SMOOTH_TOL = 1e-7
SMOOTH_DEFECT_MAX = 1e-6
SMOOTH_RADIUS = 4.0
SMOOTH_WIDTH = 0.9
CLI_TIMEOUT_S = 120
PROBE_REPS = 9
MIN_CALLS = 3  # also the call after which peak memory is read


def speed_probe() -> float:
    """Mean of PROBE_REPS timings of a fixed interpreter-bound kernel, in seconds.

    Other tenants of a shared machine slow it by up to a half for seconds to
    minutes, and CPU time slows with wall time.  The kernel, timed just
    before and just after a step, tells how fast the machine ran meanwhile.
    The machine's speed also flips between two levels within milliseconds;
    a step averages over those flips, so the probe takes the mean of its
    timings, not the best.  Over 15 sums per exact-groups polytope, the mean
    of 9 timings left 0.04-0.12 of spread (coefficient of variation) in the
    rescaled sum times, the best of 3 0.07-0.15, and wall time 0.13-0.19.
    The collector is off while it runs, so that the program's heap does not
    change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(PROBE_REPS):
            acc, seen = Fraction(0), {}
            for i in range(1, 1500):
                acc += Fraction(i % 97, i % 13 + 1)
                seen[i % 50] = seen.get(i % 50, 0) + i
        return (perf_counter() - start) / PROBE_REPS
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Wall time and kernel units of timed segments, probing speed after each.

    A segment's kernel units are its wall time over the mean of the probe
    times just before and just after it; the first segment has only the
    probe after it.  With an active tracer the probe is a span of its own.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.before = None

    def lap(self, start: float) -> tuple:
        """(wall seconds, kernel units) of the segment from `start` to now."""
        t = perf_counter() - start
        on = self.tracer is not None and self.tracer.active
        span = self.tracer.open(tracing.PROBE, "speed_probe") if on else None
        after = speed_probe()
        if on:
            self.tracer.close(span)
        before = after if self.before is None else self.before
        self.before = after
        return t, t / ((before + after) / 2)


def _import_latticesum(tracer):
    """Import the package the way the CLI does, timing sympy's share."""
    start = perf_counter()
    import sympy  # noqa: F401
    sympy_s = perf_counter() - start
    import latticesum.cli  # noqa: F401
    if tracer is not None:
        tracer.add_span("cli.import", "import latticesum.cli", start, perf_counter())
        tracer.count("cli.import_sympy_s", sympy_s)


class Exact:
    """Exact sums of seeded polynomials over a fixed list of polytopes."""

    warm_up = True

    def __init__(self, polytopes):
        from latticesum.polytope import HPolytope

        self.polytopes = {name: HPolytope(*data) for name, data in polytopes.items()}

    def prepare(self, item):
        from latticesum.multipoly import MultiPoly

        return {
            name: MultiPoly(self.polytopes[name].dim,
                            {tuple(e): Fraction(c) for e, c in terms})
            for name, terms in item.items()
        }

    def steps(self, polys):
        from latticesum.emcore import weighted_sum_polynomial

        return [lambda H=self.polytopes[name], p=p: weighted_sum_polynomial(H, p)
                for name, p in polys.items()]

    def check(self, polys, sums) -> bool:
        from latticesum.polytope import weighted_sum_bruteforce

        return all(s == weighted_sum_bruteforce(self.polytopes[name], p)
                   for (name, p), s in zip(polys.items(), sums))


class Smooth:
    """verify_main_theorem on the x3 triangle for one Gaussian bump per call."""

    warm_up = False

    def __init__(self):
        from latticesum.polytope import HPolytope

        self.H = HPolytope(*inputs.SMOOTH_TRIANGLE)

    def prepare(self, center):
        from latticesum.remainder import gaussian_bump

        return gaussian_bump(2, tuple(center), SMOOTH_RADIUS, width=SMOOTH_WIDTH)

    def steps(self, f):
        from latticesum.remainder import verify_main_theorem

        return [lambda: verify_main_theorem(self.H, f, k=SMOOTH_K, seeds=(0,), tol=SMOOTH_TOL)[0]]

    def check(self, f, reports) -> bool:
        return reports[0].defect < SMOOTH_DEFECT_MAX


class Cli:
    """A sequence of fresh `python -m latticesum.cli` processes, one at a time."""

    warm_up = False

    def __init__(self, tracer):
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH="src")
        self.run(inputs.CLI_WARMUP)  # compiles the modules; untimed

    def prepare(self, order):
        return order

    def run(self, args):
        args = [*args, "--format", "json"]
        tracer = self.tracer
        if tracer is None or not tracer.active:
            cmd = [sys.executable, "-m", "latticesum.cli", *args]
            return subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, timeout=CLI_TIMEOUT_S)
        path = os.path.join(SPANS_DIR, f"cli-{os.getpid()}.json")
        cmd = [sys.executable, "-X", "importtime", "bench/tracing.py",
               path, str(tracer.call_id), *args]
        span = tracer.open("cli.process", " ".join(args[:2]))
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, timeout=CLI_TIMEOUT_S)
        finally:
            tracer.close(span)
        tracer.merge(path, span)
        os.remove(path)
        tracer.count("cli.import_sympy_s", tracing.sympy_import_seconds(proc.stderr))
        return proc

    def steps(self, order):
        return [lambda args=inputs.CLI_COMMANDS[name][0]: self.run(args) for name in order]

    def check(self, order, procs) -> bool:
        ok = True
        for name, proc in zip(order, procs):
            want = inputs.CLI_COMMANDS[name][1]
            try:
                got = json.loads(proc.stdout)
            except json.JSONDecodeError:
                got = {}
            if proc.returncode != 0 or any(got.get(k) != v for k, v in want.items()):
                print(f"cli {name}: exit {proc.returncode}, output {proc.stdout!r}",
                      file=sys.stderr)
                ok = False
        return ok


def make(workload: str, tracer):
    if workload == "exact-sweep":
        return Exact(inputs.SWEEP_POLYTOPES)
    if workload == "exact-groups":
        return Exact(inputs.GROUP_POLYTOPES)
    if workload == "smooth-verify":
        return Smooth()
    return Cli(tracer)


def run(workload: str, seed: int, seconds: float, trace: bool, start: float,
        setup_only: bool) -> dict:
    tracer = None
    if trace:
        tracer = tracing.Tracer(wrap=workload != "cli-cold")
        os.makedirs(SPANS_DIR, exist_ok=True)
    stream = inputs.stream(workload, seed)
    digest = inputs.Digest()
    clock = Clock(tracer)
    stages = [clock.lap(start)]  # interpreter start and the benchmark's modules
    failures = ()  # exceptions that count as a failed call
    mark = perf_counter()
    if workload != "cli-cold":
        _import_latticesum(tracer)
        from latticesum.errors import LatticeSumError

        failures = LatticeSumError
    stages.append(clock.lap(mark))
    setup_root = tracer.begin(-1, tracing.UNATTRIBUTED, "setup") if tracer else None
    try:
        mark = perf_counter()
        w = make(workload, tracer)
        warm_ok = None
        if w.warm_up:
            item = next(stream)
            digest.add(item)
            x = w.prepare(item)
            stages.append(clock.lap(mark))
            sums = []
            for step in w.steps(x):
                mark = perf_counter()
                sums.append(step())
                stages.append(clock.lap(mark))
            warm_ok = w.check(x, sums)
        else:
            stages.append(clock.lap(mark))
    finally:
        if tracer is not None:
            tracer.end(setup_root)
    result = {"setup_wall": sum(t for t, _ in stages),
              "setup_units": sum(u for _, u in stages)}
    if setup_only:
        return result

    durations, kernel_units, traced, failed = [], [], [], 0
    timed = 0.0
    clock.before = speed_probe()
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    while timed < seconds or len(durations) < MIN_CALLS:
        i = len(durations)
        item = next(stream)
        digest.add(item)
        x = w.prepare(item)
        on = tracer is not None and i % 2 == 1
        root = tracer.begin(i) if on else None
        outs, dt, units = [], 0.0, 0.0
        try:
            for step in w.steps(x):
                mark = perf_counter()
                outs.append(step())
                t, u = clock.lap(mark)
                dt += t
                units += u
            out = outs
        except failures as exc:  # a failed call; the run goes on
            out = exc
        if on:
            tracer.close(root)
            root = tracer.open(tracing.CHECK, "check")
        ok = not isinstance(out, Exception) and w.check(x, out)
        if on:
            tracer.end(root)
        if not ok:
            failed += 1
            print(f"call {i} failed: {out!r}"[:500], file=sys.stderr)
        durations.append(dt)
        kernel_units.append(units)
        traced.append(on)
        timed += dt
        if len(durations) == MIN_CALLS:
            peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    result.update({
        "durations": durations,
        "kernel_units": kernel_units,
        "traced": traced,
        "failed": failed,
        "warm_up_ok": warm_ok,
        "inputs": digest.count,
        "digest": digest.hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "rss_calls": MIN_CALLS,
        "end_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    })
    if tracer is not None:
        ids = {i for i, on in enumerate(traced) if on}
        layers = tracing.aggregate(tracer.spans, tracer.counters, ids, len(ids))
        setup = tracing.aggregate(tracer.spans, tracer.counters, {-1}, 1)
        layers.update({f"setup.{k}": v for k, v in setup.items()})
        result["layers"] = layers
        tracer.dump(os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.json"))
    return result


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    start = float(argv[4])
    # One CPU for the worker and the CLI processes it starts, so that the
    # speed probe times the CPU that ran the step.  One BLAS thread to go
    # with it: OpenBLAS otherwise starts one thread per core, and they spin
    # on that same CPU.  That made a k = 1 smooth call take 1.2 s, not 0.5 s,
    # and the probes after a call read up to 4 times slow.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, "src")
    result = run(workload, seed, seconds, trace, start, "--setup-only" in argv[5:])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
