"""The package surface: `h1flow.__all__` against what `h1flow` imports, and
the names that the benchmark's workloads read from it."""
import ast
import inspect
from pathlib import Path

import pytest

import h1flow
import h1flow as h
import h1flow.errors


def test_every_export_resolves():
    missing = [name for name in h1flow.__all__ if not hasattr(h1flow, name)]
    assert missing == []


def test_no_export_repeats():
    assert len(h1flow.__all__) == len(set(h1flow.__all__))


def test_no_module_or_private_name_is_exported():
    # __all__ is derived from the package namespace, which also binds the
    # submodules and private helpers
    assert [name for name in h1flow.__all__
            if name.startswith("_") or inspect.ismodule(getattr(h1flow, name))] == []


def test_every_public_function_and_class_is_exported():
    public = {
        name for name, value in vars(h1flow).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public - set(h1flow.__all__) == set()


@pytest.mark.parametrize("make", [
    lambda: h.circle(1.0, 8),
    lambda: h.arc_data(h.circle(1.0, 8)),
    lambda: h.CurvePath(frames=(h.circle(1.0, 8), h.circle(2.0, 8))),
    lambda: h.run_flow(h.circle(1.0, 8), h.FlowConfig(dt=0.1, t1=0.1)),
    lambda: h.flow_velocity(h.circle(1.0, 8)),
], ids=["PolyCurve", "ArcData", "CurvePath", "Trajectory", "VelocityField"])
def test_array_holders_compare_by_identity(make):
    # a comparison of their arrays would be ambiguous and raise, and would
    # leave them unhashable
    a, b = make(), make()
    assert a == a and a in [a]
    assert a != b and a not in [b]
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_every_error_is_a_usage_error_or_a_runtime_failure():
    # no class is both, and only usage errors are ValueErrors, so the CLI's
    # exit code cannot depend on the order of its except clauses
    usage, runtime = h1flow.UsageError, h1flow.RuntimeFailure
    classes = [cls for cls in vars(h1flow.errors).values() if inspect.isclass(cls)]
    assert len(classes) == 4
    for cls in classes:
        assert issubclass(cls, ValueError) == issubclass(cls, usage), cls
        if cls not in (usage, runtime):
            assert issubclass(cls, usage) != issubclass(cls, runtime), cls


def test_every_name_the_workloads_read_exists():
    # benchmarks/workloads.py, parsed read-only: each h.<name> it reads, with
    # h the name it binds to h1flow, resolves, so removing an export cannot
    # break benchmarks/run.py unnoticed
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    tree = ast.parse(path.read_text())
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "h1flow"}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert aliases and read
    assert sorted(name for name in read if not hasattr(h1flow, name)) == []
