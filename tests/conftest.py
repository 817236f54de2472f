import math

import numpy as np
import pytest

from pencildae import (MatrixPencil, Mesh, SemilinearDAE, SolveOutcome, SolveStatus,
                       Trajectory, VoltageWaveform, get_preset, jacobian, projectors_algebraic)


def constraint_residual(dae, decomp, t, x) -> tuple[np.ndarray, float]:
    """Residual Q2[B x - f(t, x)] and its Euclidean norm: zero exactly when
    (t, x) lies on the constraint manifold, identically zero where Q2 = 0."""
    x = np.asarray(x, dtype=float)
    vec = decomp.q2 @ (dae.pencil.b @ x - dae.f(t, x))
    return vec, float(np.linalg.norm(vec))


def trajectory_from_states(mesh: Mesh, states, decomp, residuals=None,
                           status=SolveStatus(SolveOutcome.COMPLETED)) -> Trajectory:
    """Wrap exact (or externally computed) states at the first len(states)
    nodes of ``mesh`` as a Trajectory, split as z = P1 x and c = N^T P2 x.
    Only a run that did not complete may stop short of the last node."""
    states = np.asarray(states, dtype=float)
    nodes = len(states)
    full = mesh.n_steps + 1
    if states.ndim != 2 or states.shape[1] != decomp.n or not 0 < nodes <= full \
            or (status.completed and nodes != full):
        raise ValueError(f"states must have shape ({full}, {decomp.n}), or (m, {decomp.n}) "
                         f"with 0 < m < {full} if the run did not complete")
    basis = decomp.x2_basis
    return Trajectory(times=mesh.times()[:nodes], z_history=states @ decomp.p1.T,
                      coords=states @ decomp.p2.T @ basis, x2_basis=basis,
                      residuals=np.zeros(nodes) if residuals is None else np.asarray(residuals),
                      status=status, mesh=mesh)


def exponential(beta: float = 1.0, alpha: float = 1.0) -> VoltageWaveform:
    return VoltageWaveform(value=lambda t: beta * math.exp(-alpha * t))


def gaussian(beta: float = 1.0, alpha: float = 0.0, sigma: float = 1.0) -> VoltageWaveform:
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")
    return VoltageWaveform(value=lambda t: beta * math.exp(-((t - alpha) / sigma) ** 2))


def check_jacobian(dae, t, xs) -> float:
    """Max entrywise gap between the analytic and the forward-difference
    Jacobian of ``dae`` over the probe states ``xs``."""
    if dae.jac_f is None:
        raise ValueError("check_jacobian needs an analytic jac_f to compare against")
    fd = SemilinearDAE(pencil=dae.pencil, f=dae.f, fd_step=dae.fd_step)
    return max((float(np.abs(jacobian(dae, t, x) - jacobian(fd, t, x)).max()) for x in xs),
               default=0.0)


def derivative_gap(nl, xs, step: float = 1e-7) -> float:
    """Max |forward difference - analytic derivative| of a Nonlinearity over
    the probe points ``xs``."""
    return max((abs((nl.value(x + step) - nl.value(x)) / step - nl.derivative(x))
                for x in xs), default=0.0)


def random_orthogonal(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def random_conditioned(n, rng, spread=(0.5, 2.0)):
    """Random invertible matrix with singular values inside ``spread``."""
    return random_orthogonal(n, rng) @ np.diag(rng.uniform(*spread, n)) @ \
        random_orthogonal(n, rng)


def random_index1_pencil(rng, n=None, k=None):
    """Regular pencil of index <= 1 with known projector closed forms.

    Built as U * diag(A1, 0) * V + U * diag(B1, B2) * V with invertible A1 and
    B2, so P2 = V^-1 diag(0, I_k) V and Q2 = U diag(0, I_k) U^-1 exactly.
    Returns (pencil, k, p2_exact, q2_exact).
    """
    if n is None:
        n = int(rng.integers(2, 9))
    if k is None:
        k = int(rng.integers(0, n))
    d = n - k
    a_block = np.zeros((n, n))
    a_block[:d, :d] = random_conditioned(d, rng) if d else np.zeros((0, 0))
    b_block = np.zeros((n, n))
    if d:
        b_block[:d, :d] = rng.standard_normal((d, d))
    if k:
        b_block[d:, d:] = random_conditioned(k, rng)
    u = random_conditioned(n, rng)
    v = random_conditioned(n, rng)
    pencil = MatrixPencil(a=u @ a_block @ v, b=u @ b_block @ v)
    selector = np.zeros((n, n))
    selector[d:, d:] = np.eye(k)
    p2_exact = np.linalg.inv(v) @ selector @ v
    q2_exact = u @ selector @ np.linalg.inv(u)
    return pencil, k, p2_exact, q2_exact


def weierstrass_pencil(rng, n, k):
    """A = T diag(I_d, 0) S and B = T diag(M, I_k) S with d = n - k: index <= 1.

    M is upper triangular with diagonal in [0.5, 2] and T, S are random
    well-conditioned matrices, so the finite mu-roots are -1/M_ii.
    """
    d = n - k
    a_core = np.diag(np.r_[np.ones(d), np.zeros(k)])
    b_core = np.eye(n)
    b_core[:d, :d] = (np.diag(rng.uniform(0.5, 2.0, d))
                      + np.triu(rng.uniform(-0.3, 0.3, (d, d)), 1))
    t, s = random_conditioned(n, rng), random_conditioned(n, rng)
    return MatrixPencil(a=t @ a_core @ s, b=t @ b_core @ s)


@pytest.fixture(scope="session")
def sec5_preset():
    return get_preset("sec5_cubic")


@pytest.fixture(scope="session")
def sec5_decomp(sec5_preset):
    return projectors_algebraic(sec5_preset.dae.pencil)
