"""pencildae: semilinear DAE solver via spectral-projector reduction.

Solves d/dt[A x] + B x = f(t, x) for regular matrix pencils lambda*A + B of
index at most 1.  The pencil is split by spectral projectors into a pure ODE
for the differential component and a pure algebraic equation for the rest;
two combined schemes (first- and second-order) integrate the pair.  A name of
``__all__`` is read from its module (``_EXPORTS``) when first used (PEP 562).
"""

import importlib
import sys

__version__ = "0.1.0"
MAX_NODE_COUNT = 2 ** 16  # pencil.projectors_residue's, here for the CLI's config walk
MAX_STEPS = sys.maxsize // 16  # a Mesh's most steps: its node times (8 bytes each) fit one array

_EXPORTS = {
    "dae_model": "InconsistentInitialStateError NoConvergenceError NonFiniteJacobianError "
                 "SemilinearDAE SingularNewtonMatrixError consistent_initialize jacobian",
    "diagnostics": "ComponentOrder DegenerateFitError LadderSolveError OrderEstimate "
                   "StabilityReport empirical_order stability_report windowed_deviation",
    "integrators": "Mesh Method SolveOutcome SolverConfig SolveStatus Trajectory "
                   "method1_solve method2_solve solve",
    "model_library": "CircuitParams ModelPreset Nonlinearity PRESET_IDS VoltageWaveform "
                     "build_circuit_dae circuit_consistency_check get_preset",
    "pencil": "ContourSolveFailedError DecompositionFailedError IndexTooHighError "
              "MatrixPencil NotRegularError PencilError PencilIndex PoleOnContourError "
              "SpectralDecomposition ValidationReport classify_index projectors_algebraic "
              "projectors_residue regularity_probe validate_decomposition",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)  # a submodule is bound here by its import
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    return value if module == name else globals().setdefault(name, getattr(value, name))


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
