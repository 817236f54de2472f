"""Semilinear DAE problems d/dt[A x] + B x = f(t, x) and their state splitting.

A state is split as x = z + u with z = P1 x (differential part) and u = P2 x
(algebraic part).  Consistency means the point lies on the constraint manifold
Q2[B x - f(t, x)] = 0; Newton-based initialization solves for the algebraic
part given the differential one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pencil import MatrixPencil, SpectralDecomposition

__all__ = [
    "SemilinearDAE",
    "SplitState",
    "NonFiniteJacobianError",
    "SingularNewtonMatrixError",
    "NoConvergenceError",
    "split_state",
    "constraint_residual",
    "jacobian",
    "check_jacobian",
    "consistent_initialize",
    "X2Newton",
]

RhsFunc = Callable[[float, np.ndarray], np.ndarray]
JacFunc = Callable[[float, np.ndarray], np.ndarray]


class NonFiniteJacobianError(Exception):
    """The Jacobian evaluation produced NaN or Inf entries."""


class SingularNewtonMatrixError(Exception):
    """[I - Ginv * d(Q2 f)/dx] restricted to X2 is numerically singular."""


class NoConvergenceError(Exception):
    """Newton iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class SemilinearDAE:
    """A pencil together with the nonlinear right-hand side f(t, x).

    ``jac_f``, when provided, is the analytic state Jacobian df/dx; otherwise a
    forward difference with step ``fd_step`` is used.  Both callables must be
    pure: the solvers evaluate them concurrently across independent runs.
    """

    pencil: MatrixPencil
    f: RhsFunc
    jac_f: JacFunc | None = None
    fd_step: float = 1e-7

    def __post_init__(self):
        if self.fd_step <= 0.0:
            raise ValueError("fd_step must be positive")

    @property
    def n(self) -> int:
        return self.pencil.n

    @property
    def analytic_jacobian(self) -> bool:
        return self.jac_f is not None


@dataclass(frozen=True)
class SplitState:
    """x = z + u with z in X1 and u in X2, tagged with its time."""

    z: np.ndarray
    u: np.ndarray
    t: float

    @property
    def x(self) -> np.ndarray:
        return self.z + self.u


def split_state(decomp: SpectralDecomposition, x, t: float = 0.0) -> SplitState:
    """Project a state onto the differential/algebraic subspaces."""
    x = np.asarray(x, dtype=float)
    if x.shape != (decomp.n,):
        raise ValueError(f"state must have shape ({decomp.n},), got {x.shape}")
    return SplitState(z=decomp.p1 @ x, u=decomp.p2 @ x, t=t)


def constraint_residual(dae: SemilinearDAE, decomp: SpectralDecomposition,
                        t: float, x) -> tuple[np.ndarray, float]:
    """Residual Q2[B x - f(t, x)] and its Euclidean norm.

    Zero (up to tolerance) exactly when (t, x) lies on the constraint
    manifold; identically zero for index-0 problems where Q2 = 0.
    """
    x = np.asarray(x, dtype=float)
    vec = decomp.q2 @ (dae.pencil.b @ x - dae.f(t, x))
    return vec, float(np.linalg.norm(vec))


def jacobian(dae: SemilinearDAE, t: float, x) -> np.ndarray:
    """State Jacobian df/dx, analytic or columnwise forward difference."""
    x = np.asarray(x, dtype=float)
    if dae.jac_f is not None:
        jac = np.asarray(dae.jac_f(t, x), dtype=float)
    else:
        step = dae.fd_step
        f0 = np.asarray(dae.f(t, x), dtype=float)
        jac = np.empty((x.size, x.size))
        for j in range(x.size):
            xp = x.copy()
            xp[j] += step
            jac[:, j] = (np.asarray(dae.f(t, xp), dtype=float) - f0) / step
    if not np.all(np.isfinite(jac)):
        raise NonFiniteJacobianError(f"Jacobian non-finite at t={t}")
    return jac


def check_jacobian(dae: SemilinearDAE, t: float, xs) -> float:
    """Self-test: max entrywise gap between analytic and FD Jacobians.

    ``xs`` is an iterable of probe states.  Only meaningful when an analytic
    Jacobian is attached.
    """
    if dae.jac_f is None:
        raise ValueError("check_jacobian needs an analytic jac_f to compare against")
    fd = SemilinearDAE(pencil=dae.pencil, f=dae.f, jac_f=None, fd_step=dae.fd_step)
    worst = 0.0
    for x in xs:
        gap = np.abs(jacobian(dae, t, x) - jacobian(fd, t, x)).max()
        worst = max(worst, float(gap))
    return worst


def _in_subspace(vec: np.ndarray, projector: np.ndarray, tol: float) -> bool:
    return np.abs(projector @ vec - vec).max() <= tol * (1.0 + np.abs(vec).max())


class X2Newton:
    """The restricted Newton correction of the algebraic part u = N c.

    With ``basis`` N of X2 and ``coeff`` W = N^T Ginv Q2, one correction is
    c <- c - [I - W f_x N]^-1 (c - W f(t, z + N c)), the Newton step on the
    constraint u = Ginv Q2 f(t, z + u) written in the k coordinates of X2 (the
    full-space operator is singular on X1).  Consistent initialization and the
    u-update of both integration schemes are this one routine.
    """

    def __init__(self, decomp: SpectralDecomposition):
        self.basis = decomp.x2_basis
        self.k = self.basis.shape[1]
        self.coeff = self.basis.T @ (decomp.g_inv @ decomp.q2)
        self._eye = np.eye(self.k)

    def correct(self, f: RhsFunc, jac: JacFunc, t: float, z: np.ndarray,
                c: np.ndarray, tol: float | None = None, max_updates: int = 1):
        """Correct the coordinates ``c`` at (t, z); returns ``(c, error)``.

        With ``tol=None`` exactly one correction is made.  Otherwise corrections
        repeat until ||c - W f|| <= ``tol``, at most ``max_updates`` times.
        ``error`` is None on success; on failure it is the exception, not
        raised, that describes it: SingularNewtonMatrixError for a singular
        matrix or a non-finite step, NoConvergenceError when ``tol`` is missed.
        """
        if not self.k:
            return c, None
        basis = self.basis
        coeff = self.coeff.dot
        updates = 0
        while True:
            x = z + basis.dot(c)
            r = c - coeff(f(t, x))
            if tol is not None:
                last = math.sqrt(r.dot(r))
                if last <= tol:
                    return c, None
                if updates == max_updates:
                    return c, NoConvergenceError(
                        f"restricted Newton stalled at residual {last:.3e} "
                        f"after {max_updates} corrections", last_residual=last)
            newton = self._eye - coeff(jac(t, x).dot(basis))
            if self.k == 1:  # a division costs a tenth of np.linalg.solve
                pivot = float(newton[0, 0])
                step = r / pivot if pivot != 0.0 and math.isfinite(pivot) else None
            else:
                try:
                    step = np.linalg.solve(newton, r)
                except np.linalg.LinAlgError:
                    step = None
            # per-entry math.isfinite is cheaper than np.isfinite for k-vectors
            if step is None or not all(map(math.isfinite, step.tolist())):
                return c, SingularNewtonMatrixError(
                    f"restricted Newton step singular or non-finite at t={t}")
            c = c - step
            if tol is None:
                return c, None
            updates += 1


def consistent_initialize(dae: SemilinearDAE, decomp: SpectralDecomposition,
                          t0: float, z0, u_guess=None, tol: float = 1e-12,
                          max_iter: int = 50) -> np.ndarray:
    """Solve the consistency condition B u = Q2 f(t0, z0 + u) for u in X2.

    Newton iteration on F(u) = u - Ginv Q2 f(t0, z0 + u) by
    :meth:`X2Newton.correct`.  The returned root depends on ``u_guess`` if
    the constraint admits several solutions.

    Raises
    ------
    SingularNewtonMatrixError
        If the restricted Newton matrix is numerically singular.
    NoConvergenceError
        If ``max_iter`` iterations do not reach ``tol``.
    """
    z0 = np.asarray(z0, dtype=float)
    if not _in_subspace(z0, decomp.p1, 1e-8):
        raise ValueError("z0 must lie in X1 (apply P1 first)")
    newton = X2Newton(decomp)
    if newton.k == 0:
        return np.zeros(decomp.n)
    if u_guess is None:
        u_guess = np.zeros(decomp.n)
    u_guess = np.asarray(u_guess, dtype=float)
    if not _in_subspace(u_guess, decomp.p2, 1e-8):
        raise ValueError("u_guess must lie in X2 (apply P2 first)")
    c, error = newton.correct(dae.f, lambda t, x: jacobian(dae, t, x), t0, z0,
                              newton.basis.T @ u_guess, tol=tol, max_updates=max_iter)
    if error is not None:
        raise error
    return newton.basis @ c
