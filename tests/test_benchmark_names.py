"""Every per-layer metric the benchmark reports names a function it can trace,
and every `epu` name the benchmark's files use exists.

`perfbench/run.py --trace 1` looks up one value per per-layer metric of
BENCHMARK.json, and a metric whose function was renamed or removed raises
`KeyError` there. This test resolves the same names through the benchmark's
tracer, reading its files without running it.
"""

import ast
import importlib
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


def _epu_references(tree):
    """(module, name) pairs a benchmark file uses: `T.<name>` (T being
    `epu.tensor`), `epu.<module>.<name>` and `from epu.<module> import <name>`."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("epu"):
            module = node.module.partition(".")[2]
            refs += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "T":
            refs.append(("tensor", node.attr))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "epu"
        ):
            refs.append((node.value.attr, node.attr))
    return refs


def test_benchmark_uses_only_names_that_exist():
    # the op table and the workloads call into epu directly; a renamed or
    # deleted name would otherwise surface only when the benchmark runs
    refs = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs += [(path.name, *ref) for ref in _epu_references(ast.parse(path.read_text(), str(path)))]
    assert any(module == "tensor" for _, module, _ in refs)
    missing = []
    for fname, module, name in refs:
        owner = importlib.import_module(f"epu.{module}" if module else "epu")
        if not hasattr(owner, name):
            missing.append(f"{fname}: epu.{module}.{name}" if module else f"{fname}: epu.{name}")
    assert missing == []
