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

import math
import operator
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dae_model import _MODEL_ERRORS, SemilinearDAE, X2Newton, jacobian_function
from .pencil import SpectralDecomposition

__all__ = [
    "Mesh",
    "Method",
    "SolverConfig",
    "SolveOutcome",
    "SolveStatus",
    "Trajectory",
    "InconsistentInitialStateError",
    "method1_solve",
    "method2_solve",
    "solve",
]


class InconsistentInitialStateError(Exception):
    """The initial point is not finite, violates the constraint manifold beyond
    tolerance, or f cannot be evaluated there."""


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
        if operator.index(self.n_steps) < 1:
            raise ValueError("n_steps must be a positive integer")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if not np.isfinite(self.h):
            raise ValueError("the step (t_end - t0)/n_steps must be finite")
        if self.n_steps >= sys.maxsize:  # numpy cannot index so many nodes
            raise ValueError(f"n_steps must be below {sys.maxsize}")

    @property
    def h(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.h

    def refined(self, factor: int) -> "Mesh":
        return Mesh(self.t0, self.t_end, self.n_steps * factor)


class Method(Enum):
    METHOD1 = "method1"
    METHOD2 = "method2"


@dataclass(frozen=True)
class SolverConfig:
    """How a solve runs: the scheme, the u-correction and the blow-up test.

    With ``tol=None`` each step makes exactly one Newton-like correction of u,
    the update the convergence orders are stated for.  With a ``tol`` the
    correction repeats, with refreshed Jacobian, until the fixed-point residual
    ||c - W f|| drops below it, at most ``max_iter`` times (read only then).
    """

    method: Method = Method.METHOD1
    tol: float | None = None
    max_iter: int = 50
    blow_up_threshold: float = 1e6

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if operator.index(self.max_iter) < 1:
            raise ValueError("max_iter must be a positive integer")
        if not self.blow_up_threshold > 0.0:
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
    """Mesh values of an approximate solution x_i = z_i + N c_i, stored as z and c.

    On early termination the arrays are truncated at the offending node
    (never padded); ``status`` records why.
    """

    times: np.ndarray
    z_history: np.ndarray
    coords: np.ndarray      # (nodes, k)
    x2_basis: np.ndarray    # N, (n, k)
    residuals: np.ndarray
    status: SolveStatus
    mesh: Mesh

    def __len__(self) -> int:
        return self.times.shape[0]

    def u_rows(self, rows=slice(None)) -> np.ndarray:
        """u_i = N c_i of the nodes ``rows`` (a slice or an index array)."""
        return np.matmul(self.x2_basis, self.coords[rows, :, None])[:, :, 0]

    def state_rows(self, rows=slice(None)) -> np.ndarray:
        """x_i = z_i + N c_i of the nodes ``rows``, rounded alike for any rows."""
        return self.z_history[rows] + self.u_rows(rows)

    states, u_history = property(state_rows), property(u_rows)  # formed on each access

    @property
    def max_norm(self) -> float:
        return float(max(_row_norms(self.state_rows(rows)).max() for rows in _blocks(len(self))))

    @property
    def final_state(self) -> np.ndarray:
        return self.state_rows([-1])[0]


_BLOCK = 4096  # nodes per block of a pass over a run (residuals, norms, CSV rows)


def _blocks(count: int):  # slices of at most _BLOCK nodes covering nodes 0..count-1
    return (slice(start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK))


# the split initial point may miss the constraint by this much, relative to
# (1 + ||B||)(1 + ||x0||)
_INIT_RESIDUAL_RTOL = 1e-8


def _node_residuals(b: np.ndarray, q2: np.ndarray, states: np.ndarray,
                    f_values: np.ndarray) -> np.ndarray:
    """Constraint residuals ||Q2 (B x_i - f_i)|| of a block of nodes.

    Stacked matrix-vector and dot products round each node as the single
    products would.
    """
    r = np.matmul(q2, np.matmul(b, states[:, :, None]) - f_values[:, :, None])
    return np.sqrt(np.matmul(r.transpose(0, 2, 1), r)[:, 0, 0])


def _norm(x: np.ndarray) -> float:
    """||x|| as m ||x / m||, m = max |x_i| (as dnrm2): x.dot(x) may overflow."""
    m = float(np.abs(x).max())
    return m * float(np.sqrt((x / m).dot(x / m))) if 0.0 < m < np.inf else m


_SQRT_TINY = math.sqrt(sys.float_info.min)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """||x|| of each row x: numpy's where it lies in [sqrt(tiny), inf), else
    :func:`_norm`'s, since a square of an entry over- or underflowed there
    (numpy's warning about it is silenced: the re-pass repairs those rows)."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    # an all-zero row has norm 0 either way
    redo = ~((norms >= _SQRT_TINY) & (norms < np.inf)) & rows.any(axis=1)
    norms[redo] = [_norm(x) for x in rows[redo]]
    return norms


def _stopped(x: np.ndarray, i: int, node_t: memoryview) -> tuple[SolveStatus, int]:
    """(status, last node kept) of a run whose node i failed the norm test: a
    finite state blew up, a non-finite one fails the step that made it."""
    if np.isfinite(x).all():
        return SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=node_t[i]), i
    return SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i), i - 1


def solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh, x0,
          config: SolverConfig) -> Trajectory:
    """Integrate from ``x0`` on ``mesh`` by the scheme of ``config.method``."""
    leapfrog = config.method is Method.METHOD2
    n = dae.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.isfinite(x0).all():  # NaN would pass no tolerance test, inf makes it inf
        raise InconsistentInitialStateError("x0 must be finite")
    if leapfrog and mesh.n_steps < 2:
        raise ValueError("method 2 needs at least 2 steps")

    b_mat = dae.pencil.b
    q2 = decomp.q2
    f = dae.f
    jac = jacobian_function(dae)
    n_steps = mesh.n_steps
    # squared once; capped so that an infinite state still fails the test
    thr2 = min(config.blow_up_threshold * config.blow_up_threshold, sys.float_info.max)
    tol, max_iter = config.tol, config.max_iter
    # the Euler z-step (method 1, method-2 starter) is (I - h Ginv B) z + h Ginv Q1 f,
    # the leapfrog step z_prev + 2h Ginv Q1 f - 2h Ginv B z
    h = mesh.h
    ginv_b = decomp.g_inv @ b_mat
    drive_mat = h * (decomp.g_inv @ decomp.q1)
    euler, drive = (np.eye(n) - h * ginv_b).dot, drive_mat.dot
    leap_drive, leap_decay = (2.0 * drive_mat).dot, ((2.0 * h) * ginv_b).dot
    newton = X2Newton(decomp)
    correct, lift = newton.correct, newton.lift

    times = mesh.times()
    node_t = memoryview(times)                    # its items are Python floats
    z_hist = np.empty((n_steps + 1, n))
    coords = np.empty(n_steps + 1 if newton.scalar else (n_steps + 1, newton.k))
    f_values = np.empty((n_steps + 1, n))        # f(t_i, x_i) of the z-steps

    z = decomp.p1 @ x0
    c = newton.basis.T @ (decomp.p2 @ x0)
    u = lift(c)                                   # N c of the newest node, None if not formed
    x = z + u
    z_hist[0], coords[0] = z, c

    # the split initial point must lie on the constraint manifold
    try:
        fi = f_values[0] = f(mesh.t0, x)
    except _MODEL_ERRORS as exc:
        raise InconsistentInitialStateError(
            f"f cannot be evaluated at the initial point: {type(exc).__name__}: {exc}"
        ) from exc
    res0 = float(_node_residuals(b_mat, q2, x[None], f_values[:1])[0])
    init_tol = _INIT_RESIDUAL_RTOL * (1.0 + np.linalg.norm(b_mat, 2)) * \
        (1.0 + float(_row_norms(x0[None])[0]))
    if not res0 <= init_tol:
        raise InconsistentInitialStateError(
            f"initial constraint residual {res0:.3e} exceeds tolerance {init_tol:.3e}")

    status = SolveStatus(SolveOutcome.COMPLETED)
    last = n_steps                                # the last node computed
    known = 1                                     # leading nodes with their f stored
    z_prev = fc = None                            # fc: f at the newest node, if known
    # a singular k > 1 Newton matrix sets the invalid flag (its NaN step fails the step)
    with np.errstate(invalid="ignore"):
        try:
            for i in range(n_steps):
                if not x.dot(x) <= thr2 and not _norm(x) <= config.blow_up_threshold:
                    status, last = _stopped(x, i, node_t)
                    break
                if i:
                    fi = f_values[i] = f(node_t[i], x) if fc is None else fc
                    known = i + 1
                if leapfrog and i:
                    z_next = z_prev + leap_drive(fi) - leap_decay(z)
                else:
                    z_next = euler(z) + drive(fi)
                c, error, fc, xc = correct(f, jac, node_t[i + 1], z_next, c, tol, max_iter, u)
                if error is not None:
                    status = SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i + 1)
                    last = i
                    break
                z_prev, z = z, z_next
                if xc is None:
                    u = lift(c)
                    x = z + u
                else:  # iterate mode: the corrector's converged point
                    x, u = xc, None
                z_hist[i + 1], coords[i + 1] = z, c
            else:
                if not x.dot(x) <= thr2 and not _norm(x) <= config.blow_up_threshold:
                    status, last = _stopped(x, n_steps, node_t)
        except _MODEL_ERRORS:  # f could not be evaluated at node i
            status = SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i + 1)
            last = i

    if last < n_steps:  # truncated at the offending node, never padded
        times, z_hist, coords = (a[:last + 1].copy() for a in (times, z_hist, coords))
    traj = Trajectory(times, z_hist, coords.reshape(last + 1, newton.k), decomp.x2_basis,
                      np.full(last + 1, np.inf), status, mesh)
    if known == last:
        try:  # f may overflow at an exploded state; its residual is then inf
            f_values[last] = f(node_t[last], traj.final_state) if fc is None else fc
            known += 1
        except _MODEL_ERRORS:
            pass
    for rows in _blocks(known):
        traj.residuals[rows] = _node_residuals(b_mat, q2, traj.state_rows(rows), f_values[rows])
    return traj


def method1_solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh,
                  x0, config: SolverConfig | None = None) -> Trajectory:
    """First-order combined scheme: explicit Euler on z, one u-correction per step.

    On an index-0 problem this reduces exactly to the classical explicit Euler
    method for dx/dt = A^-1 (f(t, x) - B x).
    """
    return solve(dae, decomp, mesh, x0, replace(config or SolverConfig(), method=Method.METHOD1))


def method2_solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh,
                  x0, config: SolverConfig | None = None) -> Trajectory:
    """Second-order combined scheme: Euler starter, then leapfrog on z.

    The u-update is identical to method 1.  The leapfrog step carries a
    parasitic mode whose amplification grows with the stability coefficient
    1 + 2h(||Ginv B|| + M1); prefer method 1 on long intervals.
    """
    return solve(dae, decomp, mesh, x0, replace(config or SolverConfig(), method=Method.METHOD2))
