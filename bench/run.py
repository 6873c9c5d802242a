"""latticesum benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

Run from the root of a checkout.  Each run starts bench/worker.py in fresh
processes to measure set-up (the median is ``setup_s``), and the last of them
goes on to the timed loop: at least SETUPS_MIN and at most SETUPS_MAX of
them, as many as SETUP_BUDGET_S of set-up wall time allows.  Every worker of a run is killed
once the run has taken ``--seconds`` plus RUN_MARGIN_S.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run.  Metric
names and units come from BENCHMARK.json.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The gated timings ``setup_s`` and ``norm_*`` are set-up and call times
rescaled to a nominal machine speed with the worker's speed probe; the wall
times of set-up, ``calls_per_s`` and ``latency_ms.p50`` are printed in the
report above them.

Correctness: every call's output is checked (see worker.py), and the digest
of the inputs the run drew must be the same when they are regenerated under
PYTHONHASHSEED 0 and 1.  The exit code is 0 whenever a result is printed.
"""

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import tomllib

from inputs import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
# Set-ups per run.  The short set-ups (under a second) are the noisiest, so
# they are sampled more often.
SETUPS_MIN, SETUPS_MAX = 3, 9
SETUP_BUDGET_S = 4.0
P90_MIN_CALLS = 100  # at least ten samples beyond the 90th percentile
# speed_probe's time on an idle machine (2 cores, Python 3.11.7): the speed
# to which setup_s and the norm_* metrics rescale wall times.
PROBE_NOMINAL_S = 0.0031
# Time a run may take beyond --seconds: the set-ups (up to about 15 s on
# exact-groups), the last call's overrun, the checks and the input digests.
RUN_MARGIN_S = 150


def _run_worker(workload, seed, seconds, trace, deadline, setup_only=False):
    """The result dict of one worker process, killed at `deadline`."""
    start = time.perf_counter()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed),
           str(seconds), str(int(trace)), repr(start)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 and time.perf_counter() >= deadline:
        raise RuntimeError(f"worker for {workload} killed: the run took longer than "
                           f"--seconds {seconds:g} plus {RUN_MARGIN_S} s")
    if code != 0:
        raise RuntimeError(f"worker for {workload} failed (exit {code})")
    return json.loads(out.strip().splitlines()[-1])


def _hash_seed_digests(workload, seed, count):
    """Input digests regenerated in fresh interpreters under two hash seeds."""
    out = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "inputs.py"), workload, str(seed), str(count)],
            capture_output=True, text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        out.append(proc.stdout.strip())
    return out


def repo_shape() -> dict:
    """Source lines, public exports and runtime dependencies of the package."""
    src = os.path.join("src", "latticesum")
    loc = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                loc += sum(1 for line in fh if line.strip())
    with open(os.path.join(src, "__init__.py")) as fh:
        exports = next(
            ast.literal_eval(node.value) for node in ast.parse(fh.read()).body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__")
    with open("pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {"repo.src_loc": loc, "repo.exports": len(exports),
            "repo.runtime_deps": len(deps)}


def run(workload, seed, seconds, trace):
    """Measure one workload; returns (result line, report lines)."""
    deadline = time.perf_counter() + seconds + RUN_MARGIN_S
    setups = []
    if not trace:
        while len(setups) + 1 < SETUPS_MIN or (
                len(setups) + 1 < SETUPS_MAX
                and sum(s["setup_wall"] for s in setups) < SETUP_BUDGET_S):
            setups.append(_run_worker(workload, seed, seconds, trace, deadline, setup_only=True))
    res = _run_worker(workload, seed, seconds, trace, deadline)
    setups.append(res)
    durations = res["durations"]
    n = len(durations)
    digests = _hash_seed_digests(workload, seed, res["inputs"])
    same_inputs = all(d == res["digest"] for d in digests)

    if trace:
        traced = [d for d, on in zip(durations, res["traced"]) if on]
        plain = [d for d, on in zip(durations, res["traced"]) if not on]
        metrics = dict(res["layers"])
        metrics.update(repo_shape())
        metrics["trace.calls"] = len(traced)
        metrics["trace.call_s"] = statistics.fmean(traced)
        metrics["trace.overhead_frac"] = statistics.fmean(traced) / statistics.fmean(plain) - 1
        predicted = sum(metrics[k] for k in PREDICTED[workload])
        metrics["trace.predicted_share"] = predicted / metrics["trace.call_s"]
    else:
        norm = [u * PROBE_NOMINAL_S for u in res["kernel_units"]]
        metrics = {
            "setup_s": statistics.median(s["setup_units"] for s in setups) * PROBE_NOMINAL_S,
            "norm_calls_per_s": n / sum(norm),
            "norm_latency_ms.p50": statistics.median(norm) * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    warm = res["warm_up_ok"]
    report = [
        f"{workload}: seed {seed}, {n} calls, {res['failed']} failed "
        f"(fail_frac {res['failed'] / n:.4g}), "
        + ("no warm-up" if warm is None else f"warm-up {'ok' if warm else 'FAILED'}"),
        f"  inputs: {res['inputs']} drawn, sha256 {res['digest'][:16]}, "
        f"{'same' if same_inputs else 'DIFFERENT'} under PYTHONHASHSEED 0 and 1",
    ]
    if not trace:
        walls = ", ".join(f"{s['setup_wall']:.3f}" for s in setups)
        setup_norm = ", ".join(f"{s['setup_units'] * PROBE_NOMINAL_S:.3f}" for s in setups)
        p90 = (f"latency_ms.p90 {statistics.quantiles(durations, n=10)[8] * 1e3:.6g} ms"
               if n >= P90_MIN_CALLS else f"no p90 (fewer than {P90_MIN_CALLS} calls)")
        report += [
            f"  set-ups: wall {walls} s, normalized {setup_norm} s",
            f"  wall time: calls_per_s {n / sum(durations):.6g} 1/s, latency_ms.p50 "
            f"{statistics.median(durations) * 1e3:.6g} ms over {n} samples, {p90}",
            f"  machine speed: kernel {1e3 * sum(durations) / sum(res['kernel_units']):.3f} ms"
            f" on average (nominal {PROBE_NOMINAL_S * 1e3:.1f} ms)",
            f"  memory: peak_rss_mb {res['peak_rss_mb']:.6g} MB after call {res['rss_calls']}, "
            f"{res['end_rss_mb']:.6g} MB after call {n}",
        ]
    correct = res["failed"] == 0 and warm is not False and same_inputs
    return {"correct": correct, "attempted": n, "failed": res["failed"], "metrics": metrics}, report


# Per workload, the layer metrics that should carry most of a call's self time.
PREDICTED = {
    "exact-sweep": ("emcore.integral_s",),
    "exact-groups": ("emcore.assemble_s", "emcore.apply_s"),
    "smooth-verify": ("remainder.derive_s", "remainder.lambdify_s", "remainder.deriv_eval_s",
                      "remainder.main_s", "remainder.rem_s", "remainder.lhs_s"),
    "cli-cold": ("cli.import_s",),
}


def select(metrics: dict, declared: list) -> dict:
    """The declared metrics, with their units; a missing one is an error."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (os.path.isfile("BENCHMARK.json")
            and os.path.isfile(os.path.join("src", "latticesum", "__init__.py"))):
        print("run from the root of a latticesum checkout (BENCHMARK.json, "
              "src/latticesum)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, report = run(name, args.seed, seconds, args.trace)
        result["metrics"] = select(result["metrics"], declared)
        results[name] = result
        print("\n".join(report))
        for key, m in result["metrics"].items():
            print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
