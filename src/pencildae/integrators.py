"""Time integration of semilinear DAEs on a uniform mesh.

Two combined schemes share the same Newton-like update of the algebraic
component u and differ in the update of the differential component z:

* method 1 advances z by an explicit forward-difference (Euler) step and has
  first-order accuracy;
* method 2 advances z by a centered-difference (leapfrog) step after an Euler
  starter and has second-order accuracy, at the price of a weaker stability
  coefficient on long intervals.

A single solve is strictly sequential; distinct solves share the immutable
problem objects and may run concurrently.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dae_model import SemilinearDAE, X2Newton, jacobian
from .pencil import SpectralDecomposition

__all__ = [
    "Mesh",
    "Method",
    "SingleStep",
    "IterateToTol",
    "SolverConfig",
    "SolveOutcome",
    "SolveStatus",
    "Trajectory",
    "InconsistentInitialStateError",
    "method1_solve",
    "method2_solve",
    "solve",
    "algebraic_update",
]


class InconsistentInitialStateError(Exception):
    """The initial point violates the constraint manifold beyond tolerance."""


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh t_i = t0 + i*h, i = 0..n_steps, h = (t_end - t0)/n_steps.

    Nodes are always formed as t0 + i*h (never by accumulation) so that
    refined meshes share their coarse nodes exactly.
    """

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")

    @property
    def h(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    def node(self, i: int) -> float:
        return self.t0 + i * self.h

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.h

    def refined(self, factor: int) -> "Mesh":
        return Mesh(self.t0, self.t_end, self.n_steps * factor)


class Method(Enum):
    METHOD1 = "method1"
    METHOD2 = "method2"


@dataclass(frozen=True)
class SingleStep:
    """Exactly one Newton-like correction of u per time step; this is the
    update the convergence orders are stated for."""


@dataclass(frozen=True)
class IterateToTol:
    """Repeat the u-correction with refreshed Jacobian until the fixed-point
    residual ||u - Ginv Q2 f|| drops below ``tol`` (or ``max_iter`` is hit)."""

    tol: float
    max_iter: int = 50

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


Corrector = SingleStep | IterateToTol


@dataclass(frozen=True)
class SolverConfig:
    method: Method = Method.METHOD1
    corrector: Corrector = field(default_factory=SingleStep)
    blow_up_threshold: float = 1e6

    def __post_init__(self):
        if self.blow_up_threshold <= 0.0:
            raise ValueError("blow_up_threshold must be positive")


class SolveOutcome(Enum):
    COMPLETED = "completed"
    BLOW_UP = "blow_up"
    CORRECTOR_FAILED = "corrector_failed"


@dataclass(frozen=True)
class SolveStatus:
    outcome: SolveOutcome
    blow_up_time: float | None = None
    failed_step: int | None = None

    @property
    def completed(self) -> bool:
        return self.outcome is SolveOutcome.COMPLETED

    def to_json(self) -> dict:
        out: dict = {"outcome": self.outcome.value}
        if self.blow_up_time is not None:
            out["blow_up_time"] = self.blow_up_time
        if self.failed_step is not None:
            out["failed_step"] = self.failed_step
        return out


@dataclass(frozen=True)
class Trajectory:
    """Mesh values of an approximate solution x_i = z_i + u_i.

    On early termination the arrays are truncated at the offending node
    (never padded); ``status`` records why.
    """

    times: np.ndarray
    states: np.ndarray
    z_history: np.ndarray
    u_history: np.ndarray
    residuals: np.ndarray
    status: SolveStatus
    mesh: Mesh

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def max_norm(self) -> float:
        return float(np.linalg.norm(self.states, axis=1).max())

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _corrector_params(corrector: Corrector) -> tuple[float | None, int]:
    """(tol, max_updates) of :meth:`X2Newton.correct` for a corrector."""
    if isinstance(corrector, IterateToTol):
        return corrector.tol, corrector.max_iter
    if isinstance(corrector, SingleStep):
        return None, 1
    raise TypeError(f"unknown corrector {corrector!r}")


def algebraic_update(dae: SemilinearDAE, decomp: SpectralDecomposition,
                     t_next: float, z_next, u_prev,
                     corrector: Corrector = SingleStep()) -> np.ndarray:
    """One algebraic-component update shared by both methods.

    Single-step mode performs exactly one linearized correction
    u+ = u - [I - Ginv d(Q2 f)/dx]^-1 (u - Ginv Q2 f) restricted to X2;
    iterate mode repeats it until the fixed-point residual meets the
    tolerance.  Affine constraints are solved exactly in one step.
    """
    newton = X2Newton(decomp)
    c, error = newton.correct(dae.f, lambda t, x: jacobian(dae, t, x), t_next,
                              np.asarray(z_next, dtype=float),
                              newton.basis.T @ np.asarray(u_prev, dtype=float),
                              *_corrector_params(corrector))
    if error is not None:
        raise error
    return newton.basis @ c


@dataclass(frozen=True)
class StepPlan:
    """The constant matrices of one solve with step h, built once per solve.

    ``euler`` = I - h Ginv B and ``drive`` = h Ginv Q1 make the Euler z-step
    (method 1 and the method-2 starter); ``leap_drive`` = 2h Ginv Q1 and
    ``leap_decay`` = 2h Ginv B make the leapfrog z-step; ``newton`` corrects u.
    """

    euler: np.ndarray
    drive: np.ndarray
    leap_drive: np.ndarray
    leap_decay: np.ndarray
    newton: X2Newton

    @classmethod
    def build(cls, b: np.ndarray, decomp: SpectralDecomposition, h: float) -> "StepPlan":
        ginv_b = decomp.g_inv @ b
        drive = h * (decomp.g_inv @ decomp.q1)
        return cls(euler=np.eye(decomp.n) - h * ginv_b, drive=drive,
                   leap_drive=2.0 * drive, leap_decay=(2.0 * h) * ginv_b,
                   newton=X2Newton(decomp))


# what a model's f or Jacobian raises where it cannot be evaluated (overflow,
# a pole, a math domain error)
_MODEL_ERRORS = (ArithmeticError, ValueError)


def _node_residuals(b: np.ndarray, q2: np.ndarray, states: np.ndarray,
                    f_values: np.ndarray) -> np.ndarray:
    """Constraint residuals ||Q2 (B x_i - f_i)|| of a block of nodes.

    Stacked matrix-vector and dot products round each node as the single
    products would.
    """
    r = np.matmul(q2, np.matmul(b, states[:, :, None]) - f_values[:, :, None])
    return np.sqrt(np.matmul(r.transpose(0, 2, 1), r)[:, 0, 0])


def _integrate(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh,
               x0, config: SolverConfig, leapfrog: bool,
               init_residual_rtol: float = 1e-8) -> Trajectory:
    n = dae.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
    if leapfrog and mesh.n_steps < 2:
        raise ValueError("method 2 needs at least 2 steps")

    b_mat = dae.pencil.b
    q2 = decomp.q2
    f = dae.f
    if dae.jac_f is not None:  # a non-finite Jacobian fails the Newton step itself
        jac = dae.jac_f
    else:
        def jac(t, x):
            return jacobian(dae, t, x)
    n_steps = mesh.n_steps
    # squared once; capped so that an infinite state still fails the test
    thr2 = min(config.blow_up_threshold * config.blow_up_threshold, sys.float_info.max)
    tol, max_updates = _corrector_params(config.corrector)
    plan = StepPlan.build(b_mat, decomp, mesh.h)
    euler, drive = plan.euler.dot, plan.drive.dot
    leap_drive, leap_decay = plan.leap_drive.dot, plan.leap_decay.dot
    newton = plan.newton
    correct, basis = newton.correct, newton.basis.dot

    times = mesh.times()
    node_t = times.tolist()
    states = np.empty((n_steps + 1, n))
    z_hist = np.empty((n_steps + 1, n))
    coords = np.empty((n_steps + 1, newton.k))   # u_i = N c_i
    f_values = np.empty((n_steps + 1, n))        # f(t_i, x_i) of the z-steps

    z = decomp.p1 @ x0
    c = newton.basis.T @ (decomp.p2 @ x0)
    x = z + basis(c)
    states[0], z_hist[0], coords[0] = x, z, c

    # the split initial point must lie on the constraint manifold
    fi = f_values[0] = f(mesh.t0, x)
    res0 = float(_node_residuals(b_mat, q2, x[None], f_values[:1])[0])
    init_tol = init_residual_rtol * (1.0 + np.linalg.norm(b_mat, 2)) * \
        (1.0 + float(np.linalg.norm(x0)))
    if not res0 <= init_tol:
        raise InconsistentInitialStateError(
            f"initial constraint residual {res0:.3e} exceeds tolerance {init_tol:.3e}")

    status = SolveStatus(SolveOutcome.COMPLETED)
    last = n_steps                                # the last node computed
    known = 1                                     # leading nodes with their f stored
    z_prev = None
    try:
        for i in range(n_steps):
            if not x.dot(x) <= thr2:  # also catches NaN states
                status = SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=node_t[i])
                last = i
                break
            if i:
                fi = f_values[i] = f(node_t[i], x)
                known = i + 1
            if leapfrog and i:
                z_next = z_prev + leap_drive(fi) - leap_decay(z)
            else:
                z_next = euler(z) + drive(fi)
            c, error = correct(f, jac, node_t[i + 1], z_next, c, tol, max_updates)
            if error is not None:
                status = SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i + 1)
                last = i
                break
            z_prev, z = z, z_next
            x = z + basis(c)
            states[i + 1], z_hist[i + 1], coords[i + 1] = x, z, c
        else:
            if not x.dot(x) <= thr2:
                status = SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=node_t[n_steps])
    except _MODEL_ERRORS:  # f or its Jacobian could not be evaluated in step i + 1
        status = SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i + 1)
        last = i

    if known == last:
        try:  # f may overflow at an exploded state; its residual is then inf
            f_values[last] = f(node_t[last], states[last])
            known += 1
        except _MODEL_ERRORS:
            pass
    residuals = np.full(last + 1, np.inf)
    residuals[:known] = _node_residuals(b_mat, q2, states[:known], f_values[:known])
    if last < n_steps:  # truncated at the offending node, never padded
        times, states, z_hist = (a[:last + 1].copy() for a in (times, states, z_hist))
    return Trajectory(times=times, states=states, z_history=z_hist,
                      u_history=np.matmul(newton.basis, coords[:last + 1, :, None])[:, :, 0],
                      residuals=residuals, status=status, mesh=mesh)


def method1_solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh,
                  x0, config: SolverConfig | None = None) -> Trajectory:
    """First-order combined scheme: explicit Euler on z, one u-correction per step.

    On an index-0 problem this reduces exactly to the classical explicit Euler
    method for dx/dt = A^-1 (f(t, x) - B x).
    """
    config = config or SolverConfig(method=Method.METHOD1)
    return _integrate(dae, decomp, mesh, x0, config, leapfrog=False)


def method2_solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh,
                  x0, config: SolverConfig | None = None) -> Trajectory:
    """Second-order combined scheme: Euler starter, then leapfrog on z.

    The u-update is identical to method 1.  The leapfrog step carries a
    parasitic mode whose amplification grows with the stability coefficient
    1 + 2h(||Ginv B|| + M1); prefer method 1 on long intervals.
    """
    config = config or SolverConfig(method=Method.METHOD2)
    return _integrate(dae, decomp, mesh, x0, config, leapfrog=True)


def solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh, x0,
          config: SolverConfig) -> Trajectory:
    """Dispatch on ``config.method``."""
    if config.method is Method.METHOD1:
        return method1_solve(dae, decomp, mesh, x0, config)
    return method2_solve(dae, decomp, mesh, x0, config)
