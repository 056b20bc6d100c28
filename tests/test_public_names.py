"""Every public top-level name of `src/epu` has a caller outside the tests.

A name that only tests reach is a feature no user can reach: it should go,
or be named here with the reason the tests need it.
"""

import ast
import json

import pytest

from conftest import SRC_DIR, TESTS_DIR

ROOT = TESTS_DIR.parent
MODULES = sorted(p.stem for p in (SRC_DIR / "epu").glob("*.py") if p.stem != "__init__")

# reference implementations that tests compare the package against
TEST_REFERENCES = {
    # a_int's per-row reference: `interpretability_accuracy` must equal
    # jaccard_signed(predicted_interp(row), ground_truth_interp(y, n)) row by row
    ("metrics", "jaccard_signed"),
    ("metrics", "predicted_interp"),
    ("metrics", "ground_truth_interp"),
    # C03's synthesis: the inverse transform that `dwt2_level` must round-trip
    ("pfm", "idwt2_level"),
}


def _top_level_names(body):
    """{public name: index of the top-level statement that binds it}."""
    public = {}
    for n, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        public.update((name, n) for name in names if not name.startswith("_"))
    return public


def _names_taken_from(tree, module):
    """Names that a file takes from `epu.<module>`: imported from it, or read
    as attributes of a name the file binds to it, or of `epu.<module>`."""
    used, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, f"epu.{module}"):
                used.update(a.name for a in node.names)
            elif node.module in (None, "epu"):
                aliases.update(a.asname or a.name for a in node.names if a.name == module)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            used.add(node.attr)
        elif (
            isinstance(owner, ast.Attribute)
            and owner.attr == module
            and isinstance(owner.value, ast.Name)
            and owner.value.id == "epu"
        ):
            used.add(node.attr)
    return used


def _benchmark_spans(module):
    """Names of `module` that BENCHMARK.json's per-layer metrics trace by name."""
    spans = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        parts = metric["name"].rsplit(".", 1)[0].split(".")
        if len(parts) == 2 and parts[0] == module:
            spans.add(parts[1])
    return spans


@pytest.mark.parametrize("owner,name", sorted(TEST_REFERENCES))
def test_every_test_reference_is_used_by_a_test(owner, name):
    # an allow-list entry lasts only as long as a test that compares against it
    users = [
        path.name
        for path in TESTS_DIR.glob("*.py")
        if path.name != "test_public_names.py" and name in _names_taken_from(ast.parse(path.read_text()), owner)
    ]
    assert users, f"no test takes {owner}.{name}"


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller_outside_the_tests(module):
    # a caller is another top-level statement of the module, another module
    # of the package, a file of the benchmark, or a per-layer span of
    # BENCHMARK.json; `cli.main` dispatches to `cmd_*` through `globals()`
    source = SRC_DIR / "epu" / f"{module}.py"
    body = ast.parse(source.read_text()).body
    public = _top_level_names(body)
    used = set()
    for n, node in enumerate(body):
        used.update(
            v.id for v in ast.walk(node) if isinstance(v, ast.Name) and public.get(v.id, n) != n
        )
    others = [p for p in (SRC_DIR / "epu").glob("*.py") if p != source]
    others += (ROOT / "perfbench").glob("*.py")
    for path in others:
        used |= _names_taken_from(ast.parse(path.read_text()), module)
    used |= _benchmark_spans(module)
    if module == "cli":
        used |= {name for name in public if name.startswith("cmd_")}
    references = {name for owner, name in TEST_REFERENCES if owner == module}
    assert references <= set(public)
    assert public
    assert sorted(set(public) - used - references) == []
