"""Checks on the package source itself."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import twistedcubes
from twistedcubes import cli, harness
from twistedcubes.cli import build_parser

from oracles import KERNELS, load_twist_data, record_kernel_calls, workload_data

MODULES = sorted(Path(twistedcubes.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
GEN = PERFBENCH / "gen.py"
WORKLOADS = PERFBENCH / "workloads.py"
README = Path(__file__).parent.parent / "README.md"

# Public names kept although nothing in the package reads them.
API_ENTRIES = {
    "signed_count": "the census totals without the point list, for library callers",
    "is_lambda_walk": "the lambda-walk predicate for library callers; the hesitant one checks its slice inline",
    "is_hesitant_lambda_walk": "the hesitant-lambda-walk predicate for library callers; the sweep runs its kernel",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert; library invariants must raise TwistedCubeError.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    # An import inside a function hides a dependency cycle between modules.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert lines == [], f"{path.name} imports inside a function at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_deferred_imports_load_only_the_standard_library(path):
    # importlib.import_module defers a costly standard-library module to the
    # one path that needs it (multiprocessing, for a sweep with several
    # jobs); a package module loaded that way would hide a cycle, as an
    # import inside a function would.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
    ]
    bad = [
        ast.unparse(name)
        for name in names
        if not (
            isinstance(name, ast.Constant)
            and name.value.partition(".")[0] in sys.stdlib_module_names
        )
    ]
    assert bad == [], f"{path.name} defers imports of {bad}"


def test_frozen_dataclasses_hold_no_mutable_containers():
    # A frozen object with a dict, list or set in a field can still be
    # changed through it, and a second store kept beside another can go out
    # of step with it.
    found = [
        f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"
        for path in MODULES
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        and any(ast.unparse(dec) == "dataclass(frozen=True)" for dec in cls.decorator_list)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and any(
            isinstance(name, ast.Name) and name.id in ("dict", "list", "set")
            for name in ast.walk(node.annotation)
        )
    ]
    assert found == []


def _test_module_imports(path):
    """The line and name of each import of a test_* module in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.rpartition(".")[2].startswith("test_"):
                yield node.lineno, name


def test_no_test_file_imports_another():
    # The builders the test files share live in tests/oracles.py alone, so
    # that no test file depends on what another one defines.
    found = {path.name: list(_test_module_imports(path)) for path in TESTS}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # __init__.py is left out: its imports are the package's re-exports.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def _public_top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node.lineno


def _loaded_names(paths):
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_all_lists_no_submodule():
    # A submodule is an attribute of the package once imported, not an API name.
    api = {name: getattr(twistedcubes, name) for name in twistedcubes.__all__}
    assert [name for name, value in api.items() if inspect.ismodule(value)] == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unreferenced_public_names(path):
    # A public name that nothing in the package reads is dead code, or a test
    # helper that belongs in tests/; a re-export in __init__.py is not a read.
    # The traced benchmark's targets and the named API entries stay.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kept = _loaded_names(MODULES) | {attr for _, attr in _tracing_targets()} | API_ENTRIES.keys()
    unread = {name: line for name, line in _public_top_level_names(tree) if name not in kept}
    assert unread == {}, f"{path.name} defines public names nothing in src/ reads: {unread}"


def _tracing_targets():
    # Read without importing: the traced benchmark patches these names, and
    # its install() fails on the first one that is gone.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTERS")
    }
    targets = [target for group in tables["SPANS"].values() for target in group]
    return targets + list(tables["COUNTERS"].values())


@pytest.mark.parametrize(
    "module,attr", [pytest.param(*t, id=".".join(t)) for t in _tracing_targets()]
)
def test_traced_benchmark_targets_exist(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module} has no {attr}"


def _generator_targets():
    # Read without importing, as for the tracer: every name the benchmark
    # generator imports from the package, and every attribute it reads off
    # a package module it imported by name (harness.verify_equivalence).
    tree = ast.parse(GEN.read_text(encoding="utf-8"), filename=str(GEN))
    targets, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("twistedcubes"):
            for alias in node.names:
                targets.append((node.module, alias.name))
                if node.module == "twistedcubes":
                    modules[alias.asname or alias.name] = f"twistedcubes.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                targets.append((modules[node.value.id], node.attr))
    return sorted(set(targets))


@pytest.mark.parametrize("module,attr", _generator_targets(), ids=str)
def test_benchmark_generator_targets_exist(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module} has no {attr}"


def test_benchmark_generator_reproduces_its_committed_expectations(monkeypatch):
    # The imports above are not all the generator reads: it also reads
    # result.m.m, census.signed_count and d.c.  Its expect helpers, run on one
    # instance of each kind, must give back what its data holds.  Loading it
    # puts src/ on sys.path, which the fresh list below takes back.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("benchmark_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    twisted = workload_data("check-twisted")["fixed_tail"][0]
    untwisted = workload_data("check-untwisted")["fixed"][0]
    warmup = workload_data("census")["warmup"]
    block = next(b for b in workload_data("sweep")["blocks"] if b["name"] == "g2-w01")
    assert gen._check_expect(twisted) == twisted["expect"]
    assert gen._check_expect(untwisted) == untwisted["expect"]
    assert gen._census_expect(load_twist_data(warmup)) == warmup["expect"]
    assert gen._sweep_expect(block) == block["expect"]
    assert gen._twisted_cost(gen._derived(twisted), twisted["expect"]["sigma"]) > 0


def test_the_benchmark_smoke_check_passes():
    # A tiny run of every workload, untraced and traced, against its
    # committed outputs: a library change that breaks a traced span or a
    # workload's output check fails here, not in the next benchmark run.
    smoke = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke.py")],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr[-2_000:]


# The kernels that one op of each workload must reach, after the per-layer
# table of perfbench/README.md: the criterion on both check workloads and
# the sweep, and its failure path through _compute_m and bound wherever a
# word is twisted; the detector and its minimality check on check-twisted;
# derive_twist_data under load_instance and on the sweep; both witness
# round trips on the sweep; the census descent on census and the sweep.
# check-untwisted's first op is an A3 word at lambda = 0, which never reads
# the bound kernel.
WORKLOAD_KERNELS = {
    "check-untwisted": {"derive_twist_data", "is_untwisted"},
    "check-twisted": {
        "derive_twist_data", "is_untwisted", "_compute_m", "bound", "hesitant_walk", "hesitant"
    },
    "sweep": {name for _, name in KERNELS},
    "census": {"derive_twist_data", "census_buckets", "bound"},
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_KERNELS))
def test_each_workload_reaches_its_kernels(workload, monkeypatch, tmp_path, capsys):
    # A refactor that moves the hot path off a kernel leaves the benchmark's
    # span on it reading 0; this fails in that refactor's own change.  The
    # first op of seed 1 runs in-process, its input files written under
    # tmp_path, and must still give its expected output.
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up by name while it is built.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    ops, _ = workloads.build(workload, 1, tmp_path)
    op = ops[0]
    calls = record_kernel_calls(monkeypatch)
    code = cli.main(op.argv)
    assert workloads.failed_ops(op, code, capsys.readouterr().out) == 0
    reached = {name for (_, name), lists in calls.items() if any(lists)}
    assert WORKLOAD_KERNELS[workload] - reached == set()


def test_cli_leaves_integer_checks_to_the_value_types():
    # require_int also matches require_ints.
    source = (Path(twistedcubes.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert "require_int" not in source


def _is_rank(node) -> bool:
    """Whether an operand reads a rank: x.rank, a name rank, or
    len(x.coefficients), a weight's rank."""
    if isinstance(node, ast.Call):
        return ast.unparse(node.func) == "len" and any(
            isinstance(arg, ast.Attribute) and arg.attr == "coefficients" for arg in node.args
        )
    return (isinstance(node, ast.Attribute) and node.attr == "rank") or (
        isinstance(node, ast.Name) and node.id == "rank"
    )


def _rank_comparisons(node, scope: str) -> list[str]:
    """The scope, as module.Class.function, of each comparison below node
    with two operands that read a rank."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            found += _rank_comparisons(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Compare) and sum(map(_is_rank, [child.left, *child.comparators])) >= 2:
            found.append(scope)
        found += _rank_comparisons(child, scope)
    return found


def test_only_the_weight_compares_its_rank_with_a_type_s():
    # Every entry that reads a (type, word, weight) triple calls
    # DominantWeight.validate_for, so a weight of the wrong rank raises one
    # error with one message wherever it is passed.
    found = [
        scope
        for path in MODULES
        for scope in _rank_comparisons(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert found == ["weightword.DominantWeight.validate_for"]


def test_sweep_spec_from_json_checks_only_the_json_shape():
    # SweepSpec's constructor holds every rule on a field's value; from_json
    # raises only for a block that is not an object or that lacks a key.
    source = inspect.getsource(harness.SweepSpec.from_json)
    tree = ast.parse(textwrap.dedent(source))
    guards = [ast.unparse(node.test) for node in ast.walk(tree) if isinstance(node, ast.If)]
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert guards == ["not isinstance(obj, dict)", "missing"]
    assert len(raises) == 2


def _readme_synopsis() -> dict[str, dict[str, bool]]:
    """Each `twistedcubes <command>` line of README's Commands block, as
    {command: {option: required}}: an option inside brackets is optional."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Commands:\n\n```sh\n(.*?)```", text, re.S).group(1)
    synopsis = {}
    for line in block.splitlines():
        line = line.partition("#")[0]
        command = line.split()[1]
        synopsis[command] = {
            m.group(): line[: m.start()].count("[") == line[: m.start()].count("]")
            for m in re.finditer(r"--[a-z-]+", line)
        }
    return synopsis


def _parser_options() -> dict[str, dict[str, bool]]:
    """{command: {option: required}} of cli.build_parser(), without -h."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        command: {
            action.option_strings[-1]: action.required
            for action in parser._actions
            if action.option_strings and "-h" not in action.option_strings
        }
        for command, parser in subparsers.choices.items()
    }


def test_readme_synopsis_names_each_commands_options():
    # Renaming, adding or dropping an option, or changing whether it is
    # required, must be written into README's command synopsis too.
    synopsis = _readme_synopsis()
    assert len(synopsis) == 4
    assert synopsis == _parser_options()
