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


def _check_external_reference(reference: Trajectory, mesh_base: Mesh) -> int:
    ref_mesh = reference.mesh
    if abs(ref_mesh.t0 - mesh_base.t0) > 1e-12 * (1 + abs(mesh_base.t0)) or \
       abs(ref_mesh.t_end - mesh_base.t_end) > 1e-12 * (1 + abs(mesh_base.t_end)):
        raise ValueError("external reference must cover the same interval")
    if ref_mesh.n_steps % mesh_base.n_steps:
        raise ValueError("external reference nodes must contain the base nodes")
    if not reference.status.completed:
        raise ValueError("external reference trajectory is incomplete")
    return ref_mesh.n_steps // mesh_base.n_steps  # the stride of the base nodes in it


def empirical_order(dae: SemilinearDAE, decomp: SpectralDecomposition, method: Method,
                    mesh_base: Mesh, x0, refinements: int = 4,
                    reference: Trajectory | None = None,
                    config: SolverConfig | None = None) -> OrderEstimate:
    """Estimate the convergence order on the ladder h, h/2, ..., h/2^refinements.

    Errors are discrete max norms over the base-mesh nodes (shared exactly by
    every level).  With the default self-refined reference, the finest mesh
    h/2^refinements serves as reference and the fitted levels stop two
    refinements above it, so the level in between is never read and never
    solved: the solves are levels 0..refinements-2 in ascending order, then
    the finest.  With an external reference every level is solved and fitted.

    Raises
    ------
    LadderSolveError
        If a ladder solve terminates early; it names the first such level
        among those solved (a failure the skipped level would have had is
        never seen).
    DegenerateFitError
        If an error drops below 1e-13 and the fit would chase roundoff.
    """
    if operator.index(refinements) < 3:
        raise ValueError("refinements must be at least 3")
    base_config = replace(config or SolverConfig(), method=method)

    def base_samples(level: int):  # (h, z, u) at the base nodes; the trajectory is freed
        mesh = mesh_base.refined(2 ** level)
        traj = solve(dae, decomp, mesh, x0, base_config)
        if not traj.status.completed:
            raise LadderSolveError(
                f"ladder solve at h={mesh.h:g} ended with {traj.status.outcome.value}",
                traj.status, mesh.h)
        nodes = slice(None, None, 2 ** level)
        return mesh.h, traj.z_history[nodes].copy(), traj.u_rows(nodes)

    if reference is None:
        samples = [base_samples(level) for level in [*range(refinements - 1), refinements]]
        _, z_ref, u_ref = samples.pop()
    else:
        samples = [base_samples(level) for level in range(refinements + 1)]
        nodes = slice(None, None, _check_external_reference(reference, mesh_base))
        z_ref, u_ref = reference.z_history[nodes], reference.u_rows(nodes)
    step_sizes, z_levels, u_levels = zip(*samples)
    z_fit = _fit_orders(step_sizes, [_max_node_error(z, z_ref) for z in z_levels])
    u_fit = _fit_orders(step_sizes, [_max_node_error(u, u_ref) for u in u_levels]) \
        if decomp.algebraic_dim else None
    return OrderEstimate(step_sizes=step_sizes, z=z_fit, u=u_fit)


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
    nodes = slice(None, None, max(1, len(trajectory) // max_samples))
    m1 = max(float(np.linalg.norm(ginv_q1 @ jacobian(dae, t, x), 2))
             for t, x in zip(trajectory.times[nodes].tolist(), trajectory.state_rows(nodes)))
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
    diff = (coarse.state_rows(slice(start, None))
            - fine.state_rows(slice(start * ratio, None, ratio)))
    return float(np.abs(diff).max())

