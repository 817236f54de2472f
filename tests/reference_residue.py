"""Node-by-node form of the residue projectors, an oracle for the batched one.

The generalized eigenvalues come from ``scipy.linalg.eig`` (QZ on the pair
(A, -B)), and each quadrature node inverts A + mu B on its own and adds
R A and A R to the running sums.  Nothing is shared with the library's
stacked route apart from the radius rule and the tolerances.
"""

import numpy as np
import scipy.linalg

from pencildae import ContourSolveFailedError, PoleOnContourError
from pencildae.pencil import _radius


def reference_moduli(pencil) -> np.ndarray:
    """Moduli of the finite mu-roots of det(A + mu*B) = 0, by QZ."""
    mus = scipy.linalg.eig(pencil.a, -pencil.b, right=False)
    return np.abs(mus[np.isfinite(mus)])


def reference_residue(pencil, radius=None, node_count=64):
    """(p1, q1) by the trapezoidal rule, one inverse per node."""
    mags = reference_moduli(pencil)
    if radius is None:
        radius = _radius(pencil, mags)
    near = mags[np.abs(mags - radius) < 0.1 * radius]
    if near.size:
        raise PoleOnContourError(
            f"generalized eigenvalue modulus {near[0]:.6g} within 10% of radius {radius:.6g}")

    n = pencil.n
    p_acc = np.zeros((n, n), dtype=complex)
    q_acc = np.zeros((n, n), dtype=complex)
    for j in range(node_count):
        mu = radius * np.exp(2j * np.pi * j / node_count)
        try:
            resolvent = np.linalg.inv(pencil.a + mu * pencil.b)
        except np.linalg.LinAlgError as exc:
            raise ContourSolveFailedError(f"(A + mu B) singular at node {j}") from exc
        if not np.all(np.isfinite(resolvent)):
            raise ContourSolveFailedError(f"resolvent non-finite at node {j}")
        p_acc += resolvent @ pencil.a
        q_acc += pencil.a @ resolvent
    p_acc /= node_count
    q_acc /= node_count

    imag_tol = 1e-9 * pencil.norm_scale()
    imag_max = max(np.abs(p_acc.imag).max(), np.abs(q_acc.imag).max())
    if imag_max > imag_tol:
        raise ContourSolveFailedError(
            f"imaginary residue {imag_max:.3e} exceeds tolerance {imag_tol:.3e}")
    return p_acc.real, q_acc.real
