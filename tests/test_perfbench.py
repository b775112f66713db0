"""The benchmark's tracer names library functions by module and attribute:
each must still resolve, or every traced run fails at install."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """``perfbench/spans.py`` as a module, without putting it on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("name", list(TARGETS))
def test_every_traced_name_resolves_to_a_callable(name):
    """Each target, ``TwoSidedComplex.build`` style dotted ones included,
    is a callable attribute of its ``bicox`` module."""
    module_name, attr, _ = TARGETS[name]
    assert module_name == "bicox" or module_name.startswith("bicox.")
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module_name))
    assert callable(target), name
