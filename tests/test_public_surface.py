"""The declared public surface resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pencildae
from pencildae import cli, pencil
from pencildae.dae_model import (NoConvergenceError, NonFiniteJacobianError,
                                 SingularNewtonMatrixError)
from pencildae.diagnostics import LadderSolveError
from pencildae.integrators import SolveOutcome

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
    # each name is read, on first use, from the module the package's table names
    assert pencildae.__all__ == list(pencildae._MODULE_OF)
    for name, module_name in pencildae._MODULE_OF.items():
        module = importlib.import_module(f"pencildae.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(pencildae, name) is getattr(module, name)
    star: dict = {}
    exec("from pencildae import *", star)
    assert set(star) - {"__builtins__"} == set(pencildae.__all__) <= set(dir(pencildae))


def test_benchmark_harness_names_exist():
    for module_name, names in HARNESS_NAMES.items():
        module = importlib.import_module(
            f"pencildae.{module_name}" if module_name else "pencildae")
        assert [n for n in names if not hasattr(module, n)] == [], module_name
    params = inspect.signature(pencildae.pencil.regularity_probe).parameters
    assert {"sample_count", "seed"} <= set(params)


def exported_exceptions(module_name: str) -> list[type]:
    module = importlib.import_module(f"pencildae.{module_name}")
    return [obj for obj in map(module.__dict__.get, module.__all__)
            if isinstance(obj, type) and issubclass(obj, BaseException)]


def exit_row(cls: type):
    """The ``_EXITS`` row of the first class in the MRO that has one, as main takes it."""
    return next((cli._EXITS[k] for k in map(cli._key, cls.__mro__) if k in cli._EXITS), None)


def test_every_pencil_exception_is_a_pencil_error_that_exits_2():
    exceptions = exported_exceptions("pencil")
    assert pencil.PencilError in exceptions and len(exceptions) > 1
    for cls in exceptions:
        assert issubclass(cls, pencil.PencilError), cls
        assert exit_row(cls) == (cli.EXIT_PENCIL, "pencil error: " + cli._NAMED), cls


def test_every_solve_outcome_has_an_exit_row():
    # a command names its outcome by value, so the table imports no layer
    assert [o for o in SolveOutcome if o.value not in cli._EXITS] == []


# cmd_converge handles LadderSolveError itself: it exits with the ladder's
# outcome; the Newton failures end a solve as corrector_failed and reach
# consistent_initialize's callers as an InconsistentInitialStateError
HANDLED = (LadderSolveError, NoConvergenceError, NonFiniteJacobianError,
           SingularNewtonMatrixError)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_exception_has_an_exit_row(name):
    for cls in exported_exceptions(name):
        assert cls in HANDLED or exit_row(cls) is not None, cls


def test_each_input_rule_is_written_once():
    # every count and every positive-finite refusal goes through pencil._count
    # and pencil._positive_finite; cli._number walks the JSON config on its own.
    # A hand-written "must be positive", "must be between" or "must lie in" an
    # interval is a second rule ("z0 must lie in X1" names a subspace, not a range)
    helpers = {"_count", "_positive_finite"}
    found = []
    for path in sorted(Path(pencildae.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        exempt = [(node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and (node.name in helpers and path.name == "pencil.py"
                       or node.name == "_number" and path.name == "cli.py")]
        for lineno, line in enumerate(source.splitlines(), 1):
            if any(first <= lineno <= last for first, last in exempt):
                continue
            for rule in ("operator.index(", ".is_integer()", "must be positive",
                         "must be between", "must be an integer", "must lie in (",
                         "must lie in ["):
                if rule in line:
                    found.append(f"{path.name}:{lineno}: {rule}")
    assert found == []


def test_each_vector_norm_is_taken_by_one_rule():
    # every norm of a vector goes through integrators._norm and _row_norms, which
    # neither overflow nor underflow. Exempt by name: X2Newton.correct's stop test,
    # kept on the hot path for speed, and the constant _SQRT_TINY. A matrix 2-norm,
    # np.linalg.norm(m, 2), is another quantity
    exempt_names = {"integrators.py": {"_norm", "_row_norms", "_SQRT_TINY"},
                    "dae_model.py": {"correct"}}
    found = []
    for path in sorted(Path(pencildae.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = exempt_names.get(path.name, set())
        exempt = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name in names
                  or isinstance(node, ast.Assign) and any(
                      isinstance(t, ast.Name) and t.id in names for t in node.targets)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or any(
                    first <= node.lineno <= last for first, last in exempt):
                continue
            name = ast.unparse(node.func)
            matrix_2_norm = len(node.args) > 1 and ast.unparse(node.args[1]) == "2"
            if name.rpartition(".")[2] == "sqrt" or name.endswith("linalg.norm") \
                    and not matrix_2_norm:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
