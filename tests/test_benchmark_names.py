"""Every per-layer metric the benchmark reports names a function it can trace,
every `epu` name the benchmark's files use exists, and every call they make
into `epu` fits the callee's current signature.

`perfbench/run.py --trace 1` looks up one value per per-layer metric of
BENCHMARK.json, and a metric whose function was renamed or removed raises
`KeyError` there. This test resolves the same names through the benchmark's
tracer, reading its files without running it.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _epu_target(node):
    """(module, name) when `node` is `T.<name>` (T being `epu.tensor`) or
    `epu.<module>.<name>`, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "T":
        return ("tensor", node.attr)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "epu"
    ):
        return (node.value.attr, node.attr)
    return None


def _epu_imports(tree):
    """{local name: (module, name)} of a file's `from epu[.<module>] import <name>`."""
    return {
        alias.asname or alias.name: (node.module.partition(".")[2], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("epu")
        for alias in node.names
    }


def _epu_references(tree):
    """(module, name) pairs a benchmark file uses: `T.<name>`,
    `epu.<module>.<name>` and `from epu.<module> import <name>`."""
    refs = list(_epu_imports(tree).values())
    return refs + [t for t in map(_epu_target, ast.walk(tree)) if t is not None]


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


def _epu_calls(tree):
    """(module, name, call) for each call a benchmark file makes to
    `T.<name>`, `epu.<module>.<name>` or a name from `from epu.<module> import`."""
    imported = _epu_imports(tree)
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            target = imported.get(func.id) if isinstance(func, ast.Name) else _epu_target(func)
            if target is not None:
                calls.append((*target, node))
    return calls


def test_benchmark_calls_bind_to_current_signatures():
    # a removed or renamed parameter would otherwise surface only when the
    # benchmark runs; calls that pass *args or **kwargs cannot be checked
    bound, unbound = set(), []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for module, name, call in _epu_calls(ast.parse(path.read_text(), str(path))):
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                continue
            callee = getattr(importlib.import_module(f"epu.{module}"), name)
            try:
                inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                unbound.append(f"{path.name}:{call.lineno}: epu.{module}.{name}: {exc}")
            else:
                bound.add(f"{module}.{name}")
    assert unbound == []
    assert {"tensor.conv2d", "tensor.maxpool2d", "tensor.batchnorm2d", "cli.main"} <= bound


def _hooked_names():
    """Span names the benchmark hooks by name: the keys of every dict in a
    workload's `trace_hooks` and of worker.py's `batch_sizes` argument."""
    names = set()
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for fn in ast.walk(workloads):
        if isinstance(fn, ast.FunctionDef) and fn.name == "trace_hooks":
            names |= {k.value for d in ast.walk(fn) if isinstance(d, ast.Dict) for k in d.keys}
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    for kw in ast.walk(worker):
        if isinstance(kw, ast.keyword) and kw.arg == "batch_sizes" and isinstance(kw.value, ast.Dict):
            names |= {k.value for k in kw.value.keys}
    return names


def test_hooked_names_resolve_to_traced_functions():
    # a renamed `train_epoch` would leave the traced `train` run's epoch hook
    # unfired, and every span would be labelled `<op>:0`
    tracer = _tracer_module()
    spans = {name for name, *_ in tracer._targets({m: getattr(epu, m) for m in tracer.LAYERS})}
    hooked = _hooked_names()
    assert {"train.train_epoch", "model.forward_batch"} <= hooked
    assert sorted(hooked - spans) == []
