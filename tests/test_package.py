"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import flipmatch

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(flipmatch.__path__, prefix="flipmatch.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


def test_every_name_the_benchmark_calls_resolves():
    # bench/workloads.py reads the library as ``fm.<name>`` at call time
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    names = sorted(set(re.findall(r"\bfm\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8"))))
    assert names
    missing = [n for n in names if not hasattr(flipmatch, n)]
    assert not missing, f"the benchmark calls flipmatch.{missing}, which the package lacks"
