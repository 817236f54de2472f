"""Empirical convergence orders, stability coefficients and deviation metrics.

These are the measurement tools that back the solver's accuracy and stability
claims: mesh-refinement order estimation (factor-2 ladders, so coarse nodes
are exact subsets of fine ones), the stability coefficients
g(h) = ||I - h Ginv B|| + h M1 and 1 + 2h(||Ginv B|| + M1) of the two
schemes, and a windowed deviation metric for comparing late-time oscillation
against a reference run.
"""

from __future__ import annotations

import numpy as np

from . import MAX_STEPS
from .dae_model import SemilinearDAE, jacobian
from .integrators import Mesh, SolverConfig, SolveStatus, Trajectory, _in_child, _row_norms, solve
from .pencil import SpectralDecomposition, _count, _positive_finite, _Record

__all__ = [
    "DegenerateFitError", "LadderSolveError", "ComponentOrder", "OrderEstimate",
    "StabilityReport", "empirical_order", "stability_report", "windowed_deviation",
]

#: an error at most this times the reference's largest base-node norm is roundoff
#: noise and refuses an order fit (for a reference that is 0 throughout: an error of 0)
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


class ComponentOrder(_Record):
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


class OrderEstimate(_Record):
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
    return float(_row_norms(values - reference).max())


def _fit_orders(step_sizes, errors, floor: float) -> ComponentOrder:
    errs = np.asarray(errors, dtype=float)
    if np.any(errs <= floor):
        raise DegenerateFitError(f"errors {errs} underflow the measurable floor {floor:g}")
    pairwise = tuple(float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1))
    slope = float(np.polyfit(np.log(step_sizes), np.log(errs), 1)[0])
    return ComponentOrder(errors=tuple(float(e) for e in errs),
                          pairwise_orders=pairwise, asymptotic_order=slope)


def empirical_order(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh_base: Mesh,
                    x0, refinements: int = 4, reference: Trajectory | None = None,
                    config: SolverConfig | None = None) -> OrderEstimate:
    """Estimate the convergence order on the ladder h, h/2, ..., h/2^refinements.

    Every level is solved with ``config`` (default ``SolverConfig()``).  Errors
    are discrete max norms over the base-mesh nodes (shared exactly by every
    level).  With the default self-refined reference, the finest mesh
    h/2^refinements serves as reference and the fitted levels stop two
    refinements above it, so the level in between is never read and never
    solved; a forked child solves the finest level while the caller solves the
    others in ascending order.  With an external reference every level is solved and fitted;
    one that fails :meth:`Mesh.stride_in` or did not complete is refused before any solve.

    Raises
    ------
    LadderSolveError
        If a ladder solve terminates early; it names the first such level
        among those solved (a failure the skipped level would have had is
        never seen).
    DegenerateFitError
        If an error is at most ``DEGENERATE_ERROR_FLOOR`` times the reference's
        largest base-node norm, so the fit would chase roundoff.
    """
    refinements = _count("refinements", refinements, low=3)
    # n 2**R steps must make a Mesh; for R past MAX_STEPS' bits any n >= 1 is over, so the
    # shift is capped there and 2**R is never formed
    if int(mesh_base.n_steps) << min(refinements, MAX_STEPS.bit_length()) > MAX_STEPS:
        raise ValueError(f"refinements must keep n_steps * 2**refinements at most {MAX_STEPS}")
    config = config or SolverConfig()
    if reference is not None:
        ref_nodes = slice(None, None, mesh_base.stride_in(reference.mesh))  # the base nodes
        if not reference.status.completed:
            raise ValueError("external reference trajectory is incomplete")

    def base_samples(level: int):  # (h, z, u) at the base nodes; the trajectory is freed
        mesh = mesh_base.refined(2 ** level)
        traj = solve(dae, decomp, mesh, x0, config)
        if not traj.status.completed:
            raise LadderSolveError(
                f"ladder solve at h={mesh.h:g} ended with {traj.status.outcome.value}",
                traj.status, mesh.h)
        nodes = slice(None, None, 2 ** level)
        return mesh.h, traj.z_history[nodes].copy(), traj.u_rows(nodes)

    with _in_child(lambda: base_samples(refinements)) as finest:
        coarse = refinements - 1 if reference is None else refinements
        samples = [*map(base_samples, range(coarse)), finest()]
    if reference is None:
        _, z_ref, u_ref = samples.pop()
    else:
        z_ref, u_ref = reference.z_history[ref_nodes], reference.u_rows(ref_nodes)
    floor = DEGENERATE_ERROR_FLOOR * float(_row_norms(z_ref + u_ref).max())
    step_sizes, z_levels, u_levels = zip(*samples)
    z_fit = _fit_orders(step_sizes, [_max_node_error(z, z_ref) for z in z_levels], floor)
    u_fit = _fit_orders(step_sizes, [_max_node_error(u, u_ref) for u in u_levels], floor) \
        if decomp.algebraic_dim else None
    return OrderEstimate(step_sizes=step_sizes, z=z_fit, u=u_fit)


class StabilityReport(_Record):
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
                     trajectory: Trajectory, max_samples: int = 2000) -> StabilityReport:
    """Evaluate the stability coefficients along a computed trajectory at its step h.

    At most ``max_samples`` states are sampled (uniform stride) when the
    trajectory is long.
    """
    if len(trajectory) == 0:
        raise ValueError("trajectory is empty")
    _count("max_samples", max_samples)
    ginv_b = decomp.g_inv @ dae.pencil.b
    ginv_q1 = decomp.g_inv @ decomp.q1
    h = trajectory.mesh.h
    nodes = slice(None, None, -(-len(trajectory) // max_samples))  # ceil: <= max_samples
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
    be complete and one mesh must refine the other (:meth:`Mesh.stride_in`).
    """
    _positive_finite("window_fraction", window_fraction)
    if window_fraction > 1.0:
        raise ValueError("window_fraction must not exceed 1")
    if not (trajectory.status.completed and reference.status.completed):
        raise ValueError("windowed_deviation needs two complete trajectories")
    coarse, fine = sorted((trajectory, reference), key=lambda traj: traj.mesh.n_steps)
    ratio = coarse.mesh.stride_in(fine.mesh)

    n_nodes = coarse.mesh.n_steps
    start = int(np.ceil((1.0 - window_fraction) * n_nodes))
    diff = (coarse.state_rows(slice(start, None))
            - fine.state_rows(slice(start * ratio, None, ratio)))
    return float(np.abs(diff).max())

