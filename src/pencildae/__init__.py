"""pencildae: semilinear DAE solver via spectral-projector reduction.

Solves d/dt[A x] + B x = f(t, x) for regular matrix pencils lambda*A + B of
index at most 1.  The pencil is split by spectral projectors into a pure ODE
for the differential component and a pure algebraic equation for the rest;
two combined schemes (first- and second-order) integrate the pair.  A name of
``__all__`` is read from its module (``_EXPORTS``) when first used (PEP 562).
"""

import importlib
import math

__version__ = "0.1.0"
MAX_NODE_COUNT = 2 ** 16  # pencil.projectors_residue's, here for the CLI's config walk

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


def _check_mesh(t0, t_end, n_steps: int, refinements: int = 0) -> None:
    """Refuse (ValueError) n_steps 2**refinements steps on [t0, t_end] unless their step h is
    finite and >= 1e6 ulp(max(|t0|, |t_end|)): consecutive node times then differ from h by
    <= 3e-6 h, and a mesh has < 2**54/1e6 ~ 1.8e10 steps, so 2**refinements is never formed."""
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    try:  # an int beyond the float range has no ulp, and its step no float
        least = 1e6 * math.ulp(max(abs(t0), abs(t_end)))
        h = (t_end - t0) / (int(n_steps) << min(refinements, 64))
    except OverflowError:
        least = h = math.inf
    if not least <= h < math.inf:
        raise ValueError(f"the step {'of the finest level ' if refinements else ''}must be "
                         f"finite and at least 1e6 ulp(max(|t0|, |t_end|)) = {least:.6g}")


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)  # a submodule is bound here by its import
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    return value if module == name else globals().setdefault(name, getattr(value, name))


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
