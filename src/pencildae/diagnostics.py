"""Empirical convergence orders, stability coefficients and deviation metrics.

These are the measurement tools that back the solver's accuracy and stability
claims: mesh-refinement order estimation (factor-2 ladders, so coarse nodes
are exact subsets of fine ones), the stability coefficients
g(h) = ||I - h Ginv B|| + h M1 and 1 + 2h(||Ginv B|| + M1) of the two
schemes, and a windowed deviation metric for comparing late-time oscillation
against a reference run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .dae_model import SemilinearDAE, jacobian
from .integrators import Mesh, Method, SolverConfig, SolveStatus, Trajectory, solve
from .pencil import SpectralDecomposition

__all__ = [
    "DegenerateFitError",
    "LadderSolveError",
    "ComponentOrder",
    "OrderEstimate",
    "StabilityReport",
    "empirical_order",
    "stability_report",
    "windowed_deviation",
]

#: errors below this are considered roundoff noise and refuse an order fit
DEGENERATE_ERROR_FLOOR = 1e-13


class DegenerateFitError(Exception):
    """An error in the refinement ladder underflowed the measurable floor."""


class LadderSolveError(Exception):
    """A refinement-ladder solve terminated early (blow-up or corrector failure).

    ``status`` is that solve's status and ``h`` its step size.
    """

    def __init__(self, message: str, status: SolveStatus, h: float):
        super().__init__(message)
        self.status = status
        self.h = h


@dataclass(frozen=True)
class ComponentOrder:
    """Order data for one solution component (z or u)."""

    errors: tuple
    pairwise_orders: tuple
    asymptotic_order: float

    def to_json(self) -> dict:
        return {
            "errors": list(self.errors),
            "pairwise_orders": list(self.pairwise_orders),
            "asymptotic_order": self.asymptotic_order,
        }


@dataclass(frozen=True)
class OrderEstimate:
    """Refinement-ladder errors and fitted orders, separately for z and u.

    ``u`` is None for index-0 problems, whose algebraic component is
    identically zero.
    """

    step_sizes: tuple
    z: ComponentOrder
    u: ComponentOrder | None

    def to_json(self) -> dict:
        return {
            "step_sizes": list(self.step_sizes),
            "z": self.z.to_json(),
            "u": self.u.to_json() if self.u is not None else None,
        }


def _max_node_error(values: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(values - reference, axis=1).max())


def _fit_orders(step_sizes, errors) -> ComponentOrder:
    errs = np.asarray(errors, dtype=float)
    if np.any(errs < DEGENERATE_ERROR_FLOOR):
        raise DegenerateFitError(
            f"errors {errs} underflow the measurable floor {DEGENERATE_ERROR_FLOOR:g}"
        )
    pairwise = tuple(float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1))
    slope = float(np.polyfit(np.log(step_sizes), np.log(errs), 1)[0])
    return ComponentOrder(errors=tuple(float(e) for e in errs),
                          pairwise_orders=pairwise, asymptotic_order=slope)


def _check_external_reference(reference: Trajectory, mesh_base: Mesh):
    ref_mesh = reference.mesh
    if abs(ref_mesh.t0 - mesh_base.t0) > 1e-12 * (1 + abs(mesh_base.t0)) or \
       abs(ref_mesh.t_end - mesh_base.t_end) > 1e-12 * (1 + abs(mesh_base.t_end)):
        raise ValueError("external reference must cover the same interval")
    if ref_mesh.n_steps % mesh_base.n_steps:
        raise ValueError("external reference nodes must contain the base nodes")
    if not reference.status.completed:
        raise ValueError("external reference trajectory is incomplete")


def empirical_order(dae: SemilinearDAE, decomp: SpectralDecomposition, method: Method,
                    mesh_base: Mesh, x0, refinements: int = 4,
                    reference: Trajectory | None = None,
                    config: SolverConfig | None = None) -> OrderEstimate:
    """Estimate the convergence order by solving on h, h/2, ..., h/2^refinements.

    Errors are discrete max norms over the base-mesh nodes (shared exactly by
    every level).  With the default self-refined reference, the finest mesh
    serves as reference and the fitted levels stop two refinements above it;
    with an external reference every level is fitted.

    Raises
    ------
    LadderSolveError
        If any ladder run terminates early.
    DegenerateFitError
        If an error drops below 1e-13 and the fit would chase roundoff.
    """
    if operator.index(refinements) < 3:
        raise ValueError("refinements must be at least 3")
    base_config = replace(config or SolverConfig(), method=method)

    self_referenced = reference is None
    measured_levels = refinements - 1 if self_referenced else refinements + 1
    run_levels = refinements + 1 if self_referenced else measured_levels

    trajectories = []
    for level in range(run_levels):
        mesh = mesh_base.refined(2 ** level)
        traj = solve(dae, decomp, mesh, x0, base_config)
        if not traj.status.completed:
            raise LadderSolveError(
                f"ladder solve at h={mesh.h:g} ended with {traj.status.outcome.value}",
                traj.status, mesh.h)
        trajectories.append(traj)

    if self_referenced:
        ref = trajectories[-1]
    else:
        _check_external_reference(reference, mesh_base)
        ref = reference

    base_nodes = np.arange(mesh_base.n_steps + 1)
    ref_stride = ref.mesh.n_steps // mesh_base.n_steps
    ref_idx = base_nodes * ref_stride
    z_ref = ref.z_history[ref_idx]
    u_ref = ref.u_history[ref_idx]

    step_sizes, errs_z, errs_u = [], [], []
    for level in range(measured_levels):
        traj = trajectories[level]
        idx = base_nodes * 2 ** level
        step_sizes.append(traj.mesh.h)
        errs_z.append(_max_node_error(traj.z_history[idx], z_ref))
        errs_u.append(_max_node_error(traj.u_history[idx], u_ref))

    z_fit = _fit_orders(step_sizes, errs_z)
    u_fit = _fit_orders(step_sizes, errs_u) if decomp.algebraic_dim else None
    return OrderEstimate(step_sizes=tuple(step_sizes), z=z_fit, u=u_fit)


@dataclass(frozen=True)
class StabilityReport:
    """Sampled stability coefficients of the two schemes at step size h.

    ``m1_estimate`` samples ||Ginv Q1 df/dx|| along the trajectory, a lower
    estimate of the supremum entering the error recursions.  ``ghat_norm``
    (the leapfrog coefficient) always dominates ``g_of_h``.
    """

    norm_ginv_b: float
    m1_estimate: float
    h: float
    g_norm_part: float  # ||I - h Ginv B||

    @property
    def g_of_h(self) -> float:
        return self.g_norm_part + self.h * self.m1_estimate

    @property
    def ghat_norm(self) -> float:
        return 1.0 + 2.0 * self.h * (self.norm_ginv_b + self.m1_estimate)

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "norm_ginv_b": self.norm_ginv_b,
            "m1_estimate": self.m1_estimate,
            "g_of_h": self.g_of_h,
            "ghat_norm": self.ghat_norm,
        }


def stability_report(dae: SemilinearDAE, decomp: SpectralDecomposition,
                     trajectory: Trajectory, h: float,
                     max_samples: int = 2000) -> StabilityReport:
    """Evaluate the stability coefficients along a computed trajectory.

    At most ``max_samples`` states are sampled (uniform stride) when the
    trajectory is long.
    """
    if len(trajectory) == 0:
        raise ValueError("trajectory is empty")
    ginv_b = decomp.g_inv @ dae.pencil.b
    ginv_q1 = decomp.g_inv @ decomp.q1
    stride = max(1, len(trajectory) // max_samples)
    m1 = 0.0
    for i in range(0, len(trajectory), stride):
        jac = jacobian(dae, float(trajectory.times[i]), trajectory.states[i])
        m1 = max(m1, float(np.linalg.norm(ginv_q1 @ jac, 2)))
    return StabilityReport(
        norm_ginv_b=float(np.linalg.norm(ginv_b, 2)),
        m1_estimate=m1,
        h=h,
        g_norm_part=float(np.linalg.norm(np.eye(dae.n) - h * ginv_b, 2)),
    )


def windowed_deviation(trajectory: Trajectory, reference: Trajectory,
                       window_fraction: float = 0.25) -> float:
    """Late-window amplitude of the deviation from a reference run.

    Max over the shared nodes of the trailing ``window_fraction`` of the
    interval of the sup-norm componentwise difference.  Both trajectories must
    be complete and one mesh must refine the other by an integer factor.
    """
    if not (0.0 < window_fraction <= 1.0):
        raise ValueError("window_fraction must lie in (0, 1]")
    if not (trajectory.status.completed and reference.status.completed):
        raise ValueError("windowed_deviation needs two complete trajectories")
    n_a, n_b = trajectory.mesh.n_steps, reference.mesh.n_steps
    if n_b % n_a == 0:
        coarse, fine, ratio = trajectory, reference, n_b // n_a
    elif n_a % n_b == 0:
        coarse, fine, ratio = reference, trajectory, n_a // n_b
    else:
        raise ValueError("meshes do not share nodes (non-integer refinement ratio)")
    if abs(coarse.mesh.t0 - fine.mesh.t0) > 1e-12 or \
       abs(coarse.mesh.t_end - fine.mesh.t_end) > 1e-12 * (1 + abs(coarse.mesh.t_end)):
        raise ValueError("trajectories cover different intervals")

    n_nodes = coarse.mesh.n_steps
    start = int(np.ceil((1.0 - window_fraction) * n_nodes))
    idx_coarse = np.arange(start, n_nodes + 1)
    diff = coarse.states[idx_coarse] - fine.states[idx_coarse * ratio]
    return float(np.abs(diff).max())

