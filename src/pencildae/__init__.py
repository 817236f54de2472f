"""pencildae: semilinear DAE solver via spectral-projector reduction.

Solves d/dt[A x] + B x = f(t, x) for regular matrix pencils lambda*A + B of
index at most 1.  The pencil is split by spectral projectors into a pure ODE
for the differential component and a pure algebraic equation for the rest;
two combined schemes (first- and second-order) integrate the pair.
"""

from .dae_model import (NoConvergenceError, NonFiniteJacobianError, SemilinearDAE,
                        SingularNewtonMatrixError, consistent_initialize, jacobian)
from .diagnostics import (ComponentOrder, DegenerateFitError, LadderSolveError,
                          OrderEstimate, StabilityReport, empirical_order,
                          stability_report, windowed_deviation)
from .integrators import (InconsistentInitialStateError, Mesh, Method, SolveOutcome,
                          SolverConfig, SolveStatus, Trajectory, method1_solve,
                          method2_solve, solve)
from .model_library import (CircuitParams, ModelPreset, Nonlinearity, PRESET_IDS,
                            VoltageWaveform, build_circuit_dae,
                            circuit_consistency_check, get_preset)
from .pencil import (ContourSolveFailedError, DecompositionFailedError,
                     IndexTooHighError, MatrixPencil, NotRegularError, PencilIndex,
                     PoleOnContourError, SpectralDecomposition, ValidationReport,
                     classify_index, contour_radius, projectors_algebraic,
                     projectors_residue, regularity_probe, validate_decomposition)

__version__ = "0.1.0"
