"""Semilinear DAE problems d/dt[A x] + B x = f(t, x) and their constraint.

A state is x = z + u with z = P1 x (differential part) and u = P2 x
(algebraic part).  Consistency means the point lies on the constraint manifold
Q2[B x - f(t, x)] = 0; Newton-based initialization solves for the algebraic
part given the differential one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1  # np.linalg.solve's LAPACK gesv

from .pencil import MatrixPencil, SpectralDecomposition, _count, _positive_finite

__all__ = [
    "SemilinearDAE", "NonFiniteJacobianError", "SingularNewtonMatrixError",
    "NoConvergenceError", "InconsistentInitialStateError", "jacobian", "jacobian_function",
    "consistent_initialize", "X2Newton",
]

RhsFunc = Callable[[float, np.ndarray], np.ndarray]
JacFunc = Callable[[float, np.ndarray], np.ndarray]


class NonFiniteJacobianError(ArithmeticError):
    """The Jacobian evaluation produced NaN or Inf entries."""


class SingularNewtonMatrixError(Exception):
    """[I - Ginv * d(Q2 f)/dx] restricted to X2 is numerically singular."""


class NoConvergenceError(Exception):
    """Newton iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


class InconsistentInitialStateError(Exception):
    """The initial point is not finite or not consistent, or none is found from z0."""


# what a model's f or Jacobian raises where it cannot be evaluated (overflow,
# a pole, a math domain error, a non-finite Jacobian)
_MODEL_ERRORS = (ArithmeticError, ValueError)
# what X2Newton.correct raises: each fails the step it was called for
_STEP_ERRORS = (SingularNewtonMatrixError, NoConvergenceError) + _MODEL_ERRORS


# the messages of a missed tol (the residual, the corrections made) and of a step that
# is singular or not finite (t), in X2Newton.correct and in integrators' plain step
_STALLED = "restricted Newton stalled at residual {:.3e} after {} corrections"
_SINGULAR = "restricted Newton step singular or non-finite at t={}"


def _initial_failure(exc: Exception) -> InconsistentInitialStateError:
    """One of ``_STEP_ERRORS`` met at the initial point, as the error to raise from it."""
    return InconsistentInitialStateError(
        f"f cannot be evaluated at the initial point: {type(exc).__name__}: {exc}"
        if isinstance(exc, _MODEL_ERRORS) else str(exc))


@dataclass(frozen=True)
class SemilinearDAE:
    """A pencil together with the nonlinear right-hand side f(t, x).

    ``jac_f``, when provided, is the analytic state Jacobian df/dx; otherwise a
    forward difference of :func:`jacobian` is used.  Both callables must be
    pure: the solvers evaluate them concurrently across independent runs.
    """

    pencil: MatrixPencil
    f: RhsFunc
    jac_f: JacFunc | None = None

    @property
    def n(self) -> int:
        return self.pencil.n


def _on_floats(pencil: MatrixPencil, f, jac) -> SemilinearDAE:
    """The model of ``pencil`` whose f and Jacobian are written on Python floats:
    ``f(t, x1, ..., xn)`` returns the n entries of f, ``jac(t, x1, ..., xn)`` the n * n
    of df/dx in row-major order.  Its ``f`` and ``jac_f`` are their ndarray forms, made of
    the same floats, and keep them as ``_floats`` for the small-system step."""
    n, xs = pencil.n, "".join(f"x{i}, " for i in range(pencil.n))
    forms = {"f": f, "jac": jac, "array": np.array}  # x unpacked into names: f(t, *x) costs more
    exec(f"def f_array(t, x):\n    {xs}= x.tolist()\n    return array(f(t, {xs}))\n"
         f"def jac_array(t, x):\n    {xs}= x.tolist()\n"
         f"    return array(jac(t, {xs})).reshape({n}, {n})\n", forms)
    forms["f_array"]._floats, forms["jac_array"]._floats = f, jac
    return SemilinearDAE(pencil, forms["f_array"], forms["jac_array"])


# the forward difference steps x_j by this times max(1, |x_j|), sqrt(eps) relative to a
# typical size 1 (Dennis & Schnabel, Numerical Methods for Unconstrained Optimization, 5.4)
_FD_STEP = 2.0 ** -26


def jacobian(dae: SemilinearDAE, t: float, x) -> np.ndarray:
    """State Jacobian df/dx, analytic or columnwise forward difference, each
    column divided by its step as rounded."""
    x = np.asarray(x, dtype=float)
    if dae.jac_f is not None:
        jac = np.asarray(dae.jac_f(t, x), dtype=float)
    else:
        f0 = np.asarray(dae.f(t, x), dtype=float)
        jac = np.empty((x.size, x.size))
        for j in range(x.size):
            xp = x.copy()
            xp[j] += _FD_STEP * max(1.0, abs(x[j]))
            jac[:, j] = (np.asarray(dae.f(t, xp), dtype=float) - f0) / (xp[j] - x[j])
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
                c: float | np.ndarray, u: np.ndarray, tol: float | None = None,
                max_iter: int = 50):
        """Correct the coordinates ``c`` at (t, z); returns ``(c, u, x, fx)``.

        ``u`` is ``lift(c)`` of the given c, formed by the caller.  With
        ``tol=None`` exactly one correction is made.  Otherwise corrections
        repeat until ||c - W f|| <= ``tol``, at most ``max_iter`` times.  The
        returned c is the corrected one, u = lift(c) and x = z + u; ``fx`` is
        f(t, x) where the converged ``tol`` test evaluated it, else None.

        Raises SingularNewtonMatrixError for a singular matrix or a non-finite
        step, NoConvergenceError when ``tol`` is missed, or what ``f`` or
        ``jac`` raised (one of ``_MODEL_ERRORS``).
        A singular k > 1 matrix gives a NaN step and sets numpy's invalid flag:
        call this inside ``np.errstate(invalid="ignore")`` to keep it silent.
        """
        if not self.k:
            return c, u, z + u, None
        basis, lift, scalar, coeff = self.basis, self.lift, self.scalar, self._coeff_dot
        updates = 0
        while True:
            x = z + u
            fx = f(t, x)
            r = c - coeff(fx)
            if tol is not None:
                last = abs(r) if scalar else math.hypot(*r.tolist())
                if last <= tol:
                    return c, u, x, fx
                if updates >= max_iter:
                    raise NoConvergenceError(_STALLED.format(last, updates), last_residual=last)
            newton = self._eye - coeff(jac(t, x).dot(basis))
            if scalar:  # a finite pivot and a finite quotient
                step = r / newton if newton and math.isfinite(newton) else math.nan
                finite = math.isfinite(step)
            else:  # NaN if singular; per-entry math.isfinite beats np.isfinite here
                step = _solve1(newton, r)
                finite = all(map(math.isfinite, step.tolist()))
            if not finite:
                raise SingularNewtonMatrixError(_SINGULAR.format(t))
            c = c - step
            u = lift(c)
            if tol is None:
                return c, u, z + u, None
            updates += 1


def consistent_initialize(dae: SemilinearDAE, decomp: SpectralDecomposition,
                          t0: float, z0, tol: float = 1e-12,
                          max_iter: int = 50) -> np.ndarray:
    """Solve the consistency condition B u = Q2 f(t0, z0 + u) for u in X2.

    Newton iteration on F(u) = u - Ginv Q2 f(t0, z0 + u) from u = 0 by
    :meth:`X2Newton.correct`, with numpy's invalid flag silenced.

    Raises
    ------
    InconsistentInitialStateError
        For a non-finite ``z0`` or one not in X1, or from what failed the
        Newton iteration: f or its Jacobian (worded as by ``solve`` at x0), a
        singular restricted Newton matrix, or ``tol`` missed in ``max_iter``.
    ValueError
        For a ``tol`` that is not positive and finite, or a bad ``max_iter``.
    """
    _positive_finite("tol", tol)
    _count("max_iter", max_iter)
    z0 = np.asarray(z0, dtype=float)
    if not np.isfinite(z0).all():
        raise InconsistentInitialStateError("z0 must be finite")
    if not np.abs(decomp.p1 @ z0 - z0).max() <= 1e-8 * (1.0 + np.abs(z0).max()):
        raise InconsistentInitialStateError("z0 must lie in X1 (apply P1 first)")
    newton = X2Newton(decomp)
    c0 = 0.0 if newton.scalar else np.zeros(newton.k)
    try:
        with np.errstate(invalid="ignore"):
            return newton.correct(dae.f, jacobian_function(dae), t0, z0, c0, newton.lift(c0),
                                  tol, max_iter)[1]
    except _STEP_ERRORS as exc:
        raise _initial_failure(exc) from exc
