"""One fresh benchmark process: either set up a workload or measure it.

Started by run.py with the thread variables already pinned. Prints one JSON
object as its last line of standard output.

  setup:   build the workload's inputs; report seconds from the first line
           of this file (interpreter start-up excluded) to the end of set-up.
  measure: run timed operations for --seconds. With --trace 1 every second
           operation runs traced, then the op table runs.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, call_cli  # noqa: E402  (numpy and epu load here)


def percentile(values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Phase:
    """Timed operations of one closed loop with a single client.

    With a tracer, odd-numbered operations run traced and even-numbered ones
    untraced, so both halves see the same machine load.
    """

    def __init__(self, workload, seconds, tracer=None):
        self.latencies = {False: [], True: []}
        self.items = {False: 0, True: 0}
        self.failed = 0
        i, deadline = 0, time.perf_counter() + seconds
        minimum = 1 if tracer is None else 2
        while workload.has_op(i) and (i < minimum or time.perf_counter() < deadline):
            traced = tracer is not None and i % 2 == 1
            workload.begin(i)
            if traced:
                tracer.install()
            try:
                rc, seconds_taken, out, err = call_cli(workload.argv(i))
            finally:
                if traced:
                    tracer.uninstall()
            problems = [f"exit {rc}: {err.strip()[-300:]}"] if rc != 0 else checked(workload.check, i, out)
            if problems:
                self.failed += 1
                print(f"operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
            self.latencies[traced].append(seconds_taken)
            self.items[traced] += workload.items(i)
            i += 1
        self.attempted = i

    def metrics(self, traced=False):
        latencies = self.latencies[traced]
        return {
            "items_per_s": self.items[traced] / sum(latencies),
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        }


def checked(check, *args):
    """Run an output check; an exception inside it is a failed check."""
    try:
        return check(*args)
    except Exception:
        return [traceback.format_exc(limit=-1).strip()]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span_values(tracer, ops):
    """Per-operation calls and self seconds of every wrapped name."""
    calls, self_s, root_s = tracer.totals()
    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = calls[name] / ops
        values[f"{name}.self_s"] = self_s[name] / ops
    for name, samples in tracer.samples.items():
        values[f"{name}.samples_per_call"] = samples / calls[name]
    problems = []
    if tracer.roots() != {"cli.main"}:
        problems.append(f"top spans {sorted(tracer.roots())}, want cli.main only")
    if abs(sum(self_s.values()) - root_s) > 1e-6 * root_s:
        problems.append(f"self times sum to {sum(self_s.values())} s, top spans to {root_s} s")
    return values, problems


def forward_batch_size(args, kwargs):
    """Samples in one `EpuModel.forward_batch(stacks, ...)` call."""
    stacks = args[1] if len(args) > 1 else kwargs["stacks"]
    return 1 if hasattr(stacks, "maps") else len(stacks)


def measure(args, workload):
    workload.prepare()
    if not args.trace:
        phase = Phase(workload, args.seconds)
        peak = peak_rss_mb()
        problems = checked(workload.finish)
        values = {**phase.metrics(), "peak_rss_mb": peak}
        return phase.attempted, phase.failed + bool(problems), values, problems

    import epu
    import optable
    from tracer import LAYERS, Tracer

    tracer = Tracer(
        {name: getattr(epu, name) for name in LAYERS},
        batch_sizes={"model.forward_batch": forward_batch_size},
        on_exit=workload.trace_hooks(),
    )
    workload.tracer = tracer
    phase = Phase(workload, args.seconds, tracer)
    tracer.write(args.trace_out)
    problems = checked(workload.finish)
    values, trace_problems = span_values(tracer, len(phase.latencies[True]))
    plain, traced = phase.metrics(False), phase.metrics(True)
    values.update({f"overhead.{k}": traced[k] - plain[k] for k in plain})
    values.update(optable.time_ops(args.seed, smoke=args.size == "smoke"))
    return phase.attempted, phase.failed + bool(problems), values, problems + trace_problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--size", default="full")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.work, args.seed, args.size)
    if args.phase == "setup":
        workload.setup()
        result = {"setup_s": time.perf_counter() - START, "hashes": workload.hashes}
    else:
        attempted, failed, values, problems = measure(args, workload)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        result = {"attempted": attempted, "failed": failed, "values": values,
                  "hashes": workload.hashes, "problems": problems}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
