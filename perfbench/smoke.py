"""Smoke check of the benchmark itself, at a size that finishes in seconds.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the limits the result format relies on, runs
every workload untraced and traced (which includes the op table) under two
seeds, and checks each result line. Last, it runs the benchmark in a copy
that holds only BENCHMARK.json and perfbench/, where it must fail without
printing a result. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


class SmokeFailure(Exception):
    pass


def require(ok, message="") -> None:
    if not ok:
        raise SmokeFailure(message)


def check_spec(spec):
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "top-level keys")
    require(1 <= spec["run_seconds"] <= 60 and 2 <= len(spec["workloads"]) <= 8, "run_seconds or workload count")
    require(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128, "metric counts")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    require(len(names) == len(set(names)) and all(NAME.match(n) for n in names), "bad or repeated name")
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w)
    for m in spec["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m)
    for m in spec["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, m)
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s metric")
    require(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s needs the largest bound")


def check_run(spec, workload, seed, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    require(proc.returncode == 0, f"exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    require(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    require(got == wanted, f"metric names or units differ: {set(got) ^ set(wanted)}")
    require(all(math.isfinite(m["value"]) for m in result["metrics"].values()), "non-finite metric")
    return result


def check_bare():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                               "--seconds", "1", "--trace", "0", "--smoke"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the program's sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_spec(spec)
        for seed in SEEDS:
            for workload in (w["name"] for w in spec["workloads"]):
                for trace in (0, 1):
                    result = check_run(spec, workload, seed, trace)
                    print(f"ok  seed {seed} {workload} trace {trace}: {result['attempted']} operations", flush=True)
        check_bare()
        print("ok  no result without the program's sources")
    except (SmokeFailure, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"FAILED: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
