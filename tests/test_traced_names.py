"""Every lapspec name the benchmark looks up still exists.

``perfbench/run.py`` names the functions and methods it traces in
``LAYER_FUNCTIONS`` and ``LAYER_METHODS`` and its tracer looks each one up
by name, so a rename breaks traced runs.  The two tuples are read from the
source with ``ast``; the benchmark is neither imported nor run here.  Its
``clear_memo`` empties ``enumeration._memo`` and skips a missing name, so a
renamed memo would only show as a failed cold gate in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

from lapspec import enumeration
from lapspec.enumeration import EnumerationTask, enumerate_graphs

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced(name: str) -> tuple:
    """The literal value assigned to the top-level name in run.py."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {RUN}")


@pytest.mark.parametrize("module, name", traced("LAYER_FUNCTIONS"))
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"lapspec.{module}"), name))


@pytest.mark.parametrize("module, dotted", traced("LAYER_METHODS"))
def test_traced_method_exists(module, dotted):
    cls_name, attr = dotted.split(".")
    cls = getattr(importlib.import_module(f"lapspec.{module}"), cls_name)
    assert callable(cls.__dict__[attr])


def test_pool_memo_is_named_memo():
    task = EnumerationTask(5, 6, connected=True)
    enumerate_graphs(task)
    assert task in enumeration._memo
