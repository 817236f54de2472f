"""The declared public surface resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pencildae

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pencildae.__path__))

# what the benchmark harness (perfbench/) imports or wraps; "" is the package
HARNESS_NAMES = {
    "": ("Mesh", "SolverConfig", "Method", "get_preset", "method1_solve",
         "method2_solve", "projectors_algebraic"),
    "cli": ("load_config", "solve", "_resolve_model"),
    "diagnostics": ("solve", "empirical_order"),
    "pencil": ("regularity_probe", "projectors_algebraic", "projectors_residue",
               "validate_decomposition", "MatrixPencil"),
    "dae_model": ("consistent_initialize", "SemilinearDAE"),
    "model_library": ("get_preset", "CircuitParams", "odd_power",
                      "circuit_consistency_check"),
}


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"pencildae.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_public_names_of_their_module():
    tree = ast.parse(Path(pencildae.__file__).read_text(encoding="utf-8"))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"pencildae.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(pencildae, name) is getattr(module, name)


def test_benchmark_harness_names_exist():
    for module_name, names in HARNESS_NAMES.items():
        module = importlib.import_module(
            f"pencildae.{module_name}" if module_name else "pencildae")
        assert [n for n in names if not hasattr(module, n)] == [], module_name
    params = inspect.signature(pencildae.pencil.regularity_probe).parameters
    assert {"sample_count", "seed"} <= set(params)
