"""Semilinear DAE problems d/dt[A x] + B x = f(t, x) and their constraint.

A state is x = z + u with z = P1 x (differential part) and u = P2 x
(algebraic part).  Consistency means the point lies on the constraint manifold
Q2[B x - f(t, x)] = 0; Newton-based initialization solves for the algebraic
part given the differential one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1  # np.linalg.solve's LAPACK gesv

from .pencil import MatrixPencil, SpectralDecomposition

__all__ = [
    "SemilinearDAE",
    "NonFiniteJacobianError",
    "SingularNewtonMatrixError",
    "NoConvergenceError",
    "jacobian",
    "jacobian_function",
    "consistent_initialize",
    "X2Newton",
]

RhsFunc = Callable[[float, np.ndarray], np.ndarray]
JacFunc = Callable[[float, np.ndarray], np.ndarray]

# what a model's f or Jacobian raises where it cannot be evaluated (overflow,
# a pole, a math domain error, a non-finite Jacobian)
_MODEL_ERRORS = (ArithmeticError, ValueError)


class NonFiniteJacobianError(ArithmeticError):
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
        if not 0.0 < self.fd_step < math.inf:
            raise ValueError("fd_step must be positive and finite")

    @property
    def n(self) -> int:
        return self.pencil.n


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


def jacobian_function(dae: SemilinearDAE) -> JacFunc:
    """df/dx as a callable of (t, x): ``jac_f`` itself (no added call layer),
    else the checked forward difference of :func:`jacobian`."""
    return dae.jac_f if dae.jac_f is not None else partial(jacobian, dae)


class X2Newton:
    """The restricted Newton correction of the algebraic part u = N c.

    With ``basis`` N of X2 and ``coeff`` W = N^T Ginv Q2, one correction is
    c <- c - [I - W f_x N]^-1 (c - W f(t, z + N c)), the Newton step on the
    constraint u = Ginv Q2 f(t, z + u) written in the k coordinates of X2 (the
    full-space operator is singular on X1).  Consistent initialization and the
    u-update of both integration schemes are this one routine.  For k = 1 (every
    circuit preset) ``c`` is a float, N and W are n-vectors and the step is
    r / (1 - W f_x N), with no solve; for k > 1 it is LAPACK ``gesv`` through
    numpy's solve gufunc.  ``lift`` maps c to u = N c.
    """

    def __init__(self, decomp: SpectralDecomposition):
        self.k = decomp.x2_basis.shape[1]
        self.scalar = self.k == 1
        self.basis = decomp.x2_basis[:, 0] if self.scalar else decomp.x2_basis
        self.coeff = self.basis.T @ (decomp.g_inv @ decomp.q2)
        self._coeff_dot = self.coeff.dot
        self.lift = self.basis.__mul__ if self.scalar else self.basis.dot
        self._eye = 1.0 if self.scalar else np.eye(self.k)

    def correct(self, f: RhsFunc, jac: JacFunc, t: float, z: np.ndarray,
                c: float | np.ndarray, tol: float | None = None, max_iter: int = 50,
                u: np.ndarray | None = None):
        """Correct the coordinates ``c`` at (t, z); returns ``(c, error, fx, x)``.

        ``u``, when given, is ``lift(c)`` already formed by the caller; the
        first correction then starts from x = z + u without forming N c again.

        With ``tol=None`` exactly one correction is made.  Otherwise corrections
        repeat until ||c - W f|| <= ``tol``, at most ``max_iter`` times.
        ``error`` is None on success; on failure it is the exception, not
        raised, that describes it: SingularNewtonMatrixError for a singular
        matrix or a non-finite step, NoConvergenceError when ``tol`` is missed,
        or what ``f`` or ``jac`` raised (one of ``_MODEL_ERRORS``).  Where the
        converged ``tol`` test evaluated f, ``x`` is the point z + N c of the
        returned c and ``fx`` is f(t, x); otherwise both are None.
        A singular k > 1 matrix gives a NaN step and sets numpy's invalid flag:
        call this inside ``np.errstate(invalid="ignore")`` to keep it silent.
        """
        if not self.k:
            return c, None, None, None
        basis, lift, scalar, coeff = self.basis, self.lift, self.scalar, self._coeff_dot
        if u is None:
            u = lift(c)
        updates = 0
        try:
            while True:
                x = z + u
                fx = f(t, x)
                r = c - coeff(fx)
                if tol is not None:
                    last = abs(r) if scalar else math.sqrt(r.dot(r))
                    if last <= tol:
                        return c, None, fx, x
                    if updates >= max_iter:
                        return c, NoConvergenceError(
                            f"restricted Newton stalled at residual {last:.3e} "
                            f"after {updates} corrections", last_residual=last), None, None
                newton = self._eye - coeff(jac(t, x).dot(basis))
                if scalar:  # a finite pivot and a finite quotient
                    step = r / newton if newton and math.isfinite(newton) else math.nan
                    finite = math.isfinite(step)
                else:  # NaN if singular; per-entry math.isfinite beats np.isfinite here
                    step = _solve1(newton, r)
                    finite = all(map(math.isfinite, step.tolist()))
                if not finite:
                    return c, SingularNewtonMatrixError(
                        f"restricted Newton step singular or non-finite at t={t}"), None, None
                c = c - step
                if tol is None:
                    return c, None, None, None
                u = lift(c)
                updates += 1
        except _MODEL_ERRORS as exc:  # f or jac could not be evaluated at x
            return c, exc, None, None


def consistent_initialize(dae: SemilinearDAE, decomp: SpectralDecomposition,
                          t0: float, z0, tol: float = 1e-12,
                          max_iter: int = 50) -> np.ndarray:
    """Solve the consistency condition B u = Q2 f(t0, z0 + u) for u in X2.

    Newton iteration on F(u) = u - Ginv Q2 f(t0, z0 + u) from u = 0 by
    :meth:`X2Newton.correct`, with numpy's invalid flag silenced.

    Raises
    ------
    SingularNewtonMatrixError
        If the restricted Newton matrix is numerically singular.
    NoConvergenceError
        If ``max_iter`` iterations do not reach ``tol``.
    ArithmeticError, ValueError
        What ``f`` or its Jacobian raised; ValueError also for a ``tol`` that
        is not positive (NaN included), a ``max_iter`` below 1, and a
        non-finite ``z0`` or one not in X1.
    TypeError
        For a non-integral ``max_iter``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if operator.index(max_iter) < 1:
        raise ValueError("max_iter must be a positive integer")
    z0 = np.asarray(z0, dtype=float)
    if not np.isfinite(z0).all():
        raise ValueError("z0 must be finite")
    if not np.abs(decomp.p1 @ z0 - z0).max() <= 1e-8 * (1.0 + np.abs(z0).max()):
        raise ValueError("z0 must lie in X1 (apply P1 first)")
    newton = X2Newton(decomp)
    if newton.k == 0:
        return np.zeros(decomp.n)
    c0 = 0.0 if newton.scalar else np.zeros(newton.k)
    with np.errstate(invalid="ignore"):
        c, error, _, _ = newton.correct(dae.f, jacobian_function(dae), t0, z0, c0,
                                        tol=tol, max_iter=max_iter)
    if error is not None:
        raise error
    return newton.lift(c)
