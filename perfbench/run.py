"""Benchmark of `epu`: train, score and explain, each driven through `epu.cli.main`.

    python3 perfbench/run.py --workload train|score|explain --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root. A run starts fresh single-threaded processes:
five that set the workload up from the seed (synthetic images, and for
score and explain a fixture checkpoint), then one that times operations for
S seconds. With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer metrics named in BENCHMARK.json. The last line of
standard output is the JSON result; the lines before it repeat the metrics
for reading. --smoke runs every part at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("EPU_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # no .pyc files in the checkout: every run compiles epu the same way
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(argv, deadline) -> dict:
    """Run worker.py to completion and return its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, argv)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "score", "explain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; finishes in seconds")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "epu" / "cli.py").is_file():
        print(f"no epu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = scratch / "traces" / f"{args.workload}-seed{args.seed}.spans"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--work", work, "--seed", args.seed,
              "--size", "smoke" if args.smoke else "full"]
    try:
        setups = [run_worker(["setup", *common], deadline) for _ in range(SETUP_REPEATS)]
        result = run_worker(
            ["measure", *common, "--seconds", args.seconds, "--trace", args.trace, "--trace-out", trace_out],
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # checkpoints of one code version at one seed must be byte-identical
    distinct = len(set(h for run in setups + [result] for h in run["hashes"]))
    values = dict(result["values"])
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    values["train.distinct_checkpoint_hashes"] = distinct
    if distinct > 1:
        print(f"check failed: {distinct} distinct checkpoint hashes", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} operations = {result['attempted']}, failed = {result['failed']}")
    if not args.trace:
        print(f"{args.workload} latency_p50_ms = {values['latency_p50_ms']:.6g} ms (not a gated metric)")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"] and distinct <= 1,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
