"""The declared public surface resolves, so a deletion cannot leave a stale export."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
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
    # perfbench/traced_cli.py sums the ndarray fields of each solved trajectory
    preset = pencildae.get_preset("sec5_cubic")
    traj = pencildae.method1_solve(preset.dae, pencildae.projectors_algebraic(preset.dae.pencil),
                                   pencildae.Mesh(0.0, 1.0, 10), preset.x0)
    arrays = [field.name for field in dataclasses.fields(traj)
              if isinstance(getattr(traj, field.name), np.ndarray)]
    assert arrays == ["z_history", "coords", "x2_basis", "residuals"]
    assert sum(getattr(traj, name).nbytes for name in arrays) \
        == (3 + 1 + 1) * 8 * len(traj) + traj.x2_basis.nbytes


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


def exempt_lines(path: Path, tree: ast.Module, exempt_names: dict) -> set[int]:
    """The lines of the functions and assignments that ``exempt_names``
    (file name -> names) exempts in ``path``."""
    names = exempt_names.get(path.name, set())
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in names
            or isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in names for t in node.targets)
            for line in range(node.lineno, node.end_lineno + 1)}


def test_each_input_rule_is_written_once():
    # every count and every positive-finite refusal goes through pencil._count
    # and pencil._positive_finite; cli._number walks the JSON config on its own.
    # A hand-written "must be positive", "must be between" or "must lie in" an
    # interval is a second rule ("z0 must lie in X1" names a subspace, not a range)
    exempt_names = {"pencil.py": {"_count", "_positive_finite"}, "cli.py": {"_number"}}
    found = []
    for path in sorted(Path(pencildae.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        exempt = exempt_lines(path, ast.parse(source), exempt_names)
        for lineno, line in enumerate(source.splitlines(), 1):
            if lineno in exempt:
                continue
            for rule in ("operator.index(", ".is_integer()", "must be positive",
                         "must be between", "must be an integer", "must lie in (",
                         "must lie in ["):
                if rule in line:
                    found.append(f"{path.name}:{lineno}: {rule}")
    assert found == []


def test_the_mesh_rule_is_written_once():
    # pencildae._check_mesh is the one mesh rule, and Mesh, empirical_order (for its
    # finest level) and the CLI walk each call it. A float spacing, an order of t0 and
    # t_end, or a largest step count anywhere else (sys.maxsize but in the generic count
    # defaults of pencil._count and cli._number) is a second rule
    exempt_names = {"__init__.py": {"_check_mesh"}, "pencil.py": {"_count"},
                    "cli.py": {"_number"}}
    callers = {"__post_init__", "empirical_order", "load_config"}
    found, calling = [], []
    for path in sorted(Path(pencildae.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        exempt = exempt_lines(path, tree, exempt_names)
        for lineno, line in enumerate(source.splitlines(), 1):
            for rule in ("sys.maxsize", "MAX_STEPS", "ulp(", "spacing(", "nextafter(",
                         "t_end > ", "must exceed"):
                if rule in line and lineno not in exempt:
                    found.append(f"{path.name}:{lineno}: {rule}")
        calling += [node.name for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name in callers
                    and "_check_mesh(" in ast.unparse(node)]
    assert found == []
    assert sorted(calling) == sorted(callers)


def test_each_vector_norm_is_taken_by_one_rule():
    # every norm of one vector is math.hypot and every norm of a block of rows is
    # integrators._row_norms; neither overflows nor underflows. Exempt by name: only
    # _row_norms and the constant _SQRT_TINY. A sqrt, a vector norm of numpy's or a
    # self-dot v.dot(v) (the squared norm, which over- and underflows) elsewhere is a
    # second rule. A matrix 2-norm, np.linalg.norm(m, 2), is another quantity
    exempt_names = {"integrators.py": {"_row_norms", "_SQRT_TINY"}}
    found = []
    for path in sorted(Path(pencildae.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = exempt_lines(path, tree, exempt_names)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or node.lineno in exempt:
                continue
            name = ast.unparse(node.func)
            matrix_2_norm = len(node.args) > 1 and ast.unparse(node.args[1]) == "2"
            self_dot = isinstance(node.func, ast.Attribute) and node.func.attr == "dot" \
                and [ast.unparse(arg) for arg in node.args] == [ast.unparse(node.func.value)]
            if name.rpartition(".")[2] == "sqrt" or self_dot or name.endswith("linalg.norm") \
                    and not matrix_2_norm:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_each_outcome_is_built_in_one_place():
    # integrators._run decides how a run ends: the completed status of its last block,
    # the blow-up in the step and the corrector failure in the step's one except
    built = {outcome.name: [] for outcome in SolveOutcome}
    for path in sorted(Path(pencildae.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for name in re.findall(r"SolveStatus\(SolveOutcome\.(\w+)", line):
                built.setdefault(name, []).append(f"{path.name}:{lineno}")
    assert {name: len(lines) for name, lines in built.items()} == dict.fromkeys(built, 1), built
