"""Every per-layer metric the benchmark reports names a function it can trace.

`perfbench/run.py --trace 1` looks up one value per per-layer metric of
BENCHMARK.json, and a metric whose function was renamed or removed raises
`KeyError` there. This test resolves the same names through the benchmark's
tracer, reading its files without running it.
"""

import importlib.util
import json

import epu
from conftest import TESTS_DIR

ROOT = TESTS_DIR.parent
# metrics that do not come from a traced function
NOT_SPANS = ("overhead.", "tensor.op.", "train.distinct_checkpoint_hashes")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_layer_metrics_resolve_to_traced_functions():
    tracer = _tracer_module()
    spans = {name for name, *_ in tracer._targets({m: getattr(epu, m) for m in tracer.LAYERS})}
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    wanted = {m.rsplit(".", 1)[0] for m in metrics if not m.startswith(NOT_SPANS)}
    assert wanted
    assert sorted(wanted - spans) == []
