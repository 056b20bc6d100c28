"""Run the benchmark on several seeds and summarise it.

    python3 perfbench/baseline.py --runs 10 [--out FILE]

Runs every workload untraced once per seed (seeds 1..runs, workloads
interleaved), then traced once per workload at seed 1. Prints, per workload
and end-to-end metric, the median, the quartiles and the quartile spread as
a share of the median against the metric's bound in BENCHMARK.json. With
--out it also writes that summary, the traced per-layer values (their
`overhead.*` rows are the tracing overhead), the op table with computed conv
FLOPs and im2col bytes, and the machine it ran on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from optable import CONV_SHAPES, TRAIN_BATCH, conv_computed  # noqa: E402
from run import child_env  # noqa: E402


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def source_digest():
    """sha256 over the package sources, to name the code that was measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine():
    probe = (
        "import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas['name'] + ' ' + blas['version']}))"
    )
    versions = json.loads(subprocess.run([sys.executable, "-c", probe], env=child_env(), stdout=subprocess.PIPE,
                                         text=True, check=True).stdout)
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions,
            "EPU_THREADS": child_env()["EPU_THREADS"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            runs[w].append(bench(w, seed, seconds, 0))
            values = {k: round(m["value"], 4) for k, m in runs[w][-1]["metrics"].items()}
            print(f"seed {seed} {w} {values}", flush=True)

    out = {"machine": machine(), "src_sha256": source_digest(), "run_seconds": seconds, "runs_per_workload": args.runs, "workloads": {}}
    for w in workloads:
        table = {}
        for metric in spec["end_to_end"]:
            s = summary([r["metrics"][metric["name"]]["value"] for r in runs[w]])
            table[metric["name"]] = {"unit": metric["unit"], **s}
            verdict = "ok" if s["spread"] <= metric["bound"] / 3 else "WIDE" if s["spread"] <= metric["bound"] else "OVER"
            print(f"{w:8s} {metric['name']:16s} median {s['median']:11.4f} q1 {s['q1']:11.4f} q3 {s['q3']:11.4f}"
                  f" spread {s['spread']:.4f} bound {metric['bound']} {verdict}")
        out["workloads"][w] = {"end_to_end": table, "operations": [r["attempted"] for r in runs[w]]}
        traced = bench(w, 1, seconds, 1)
        out["workloads"][w]["per_layer_seed1"] = {k: m["value"] for k, m in traced["metrics"].items()}
    out["conv_computed"] = {
        f"tensor.op.conv2d.c{cin}x{cout}s{side}.b{batch}": conv_computed(cin, cout, side, batch)
        for cin, cout, side in CONV_SHAPES for batch in (TRAIN_BATCH, 1)
    }
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
