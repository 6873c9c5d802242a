"""Smoke check of the benchmark harness, with a tiny run length.

    python3 bench/smoke.py        # from the root of the checkout, about 3 minutes

For every workload of BENCHMARK.json, in both modes, it asserts that the run
exits 0 and that its last line holds exactly the result keys and exactly the
declared metrics with their units, with every call correct.  In the traced
run the layer the workload was chosen for must carry most of a call's self
time.  Last, in a directory that holds only BENCHMARK.json and bench/, the
benchmark must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

SECONDS = "0.5"
OUT = ".bench_out"


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(".", w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in declared}, got
            if trace:
                share = res["metrics"]["trace.predicted_share"]["value"]
                assert share > 0.5, f"{w['name']}: predicted layer share {share:.3f}"
            print(f"ok  {w['name']:<14} trace {trace}: {res['attempted']} calls", flush=True)

    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=OUT)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("bench", os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  without the program: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
