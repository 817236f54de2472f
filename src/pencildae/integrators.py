"""Time integration of semilinear DAEs on a uniform mesh.

Two combined schemes share the same Newton-like update of the algebraic
component u and differ in the update of the differential component z:

* method 1 advances z by an explicit forward-difference (Euler) step and has
  first-order accuracy;
* method 2 advances z by a centered-difference (leapfrog) step after an Euler
  starter and has second-order accuracy, at the price of a weaker stability
  coefficient on long intervals.

A single solve is strictly sequential; distinct solves share the immutable
problem objects and may run concurrently: ``_in_child`` runs one of them in a
forked child (on Linux, with one Python thread; else, or on failure, in process).
A solve steps through its mesh in blocks of ``_BLOCK`` nodes and hands each block
that closes before the run's end to its ``on_block`` hook, so a caller can work on
the finished rows (the CLI has a child format them) while the steps go on.
"""

from __future__ import annotations

import _thread
import contextlib
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import MAX_STEPS
from .dae_model import (_MODEL_ERRORS, _STEP_ERRORS, InconsistentInitialStateError,
                        SemilinearDAE, X2Newton, _initial_failure, jacobian_function)
from .pencil import SpectralDecomposition, _count, _positive_finite, _Record

__all__ = [
    "Mesh", "Method", "SolverConfig", "SolveOutcome", "SolveStatus", "Trajectory",
    "InconsistentInitialStateError", "method1_solve", "method2_solve", "solve",
]


class Mesh(_Record):
    """Uniform mesh t_i = t0 + i*h, i = 0..n_steps, h = (t_end - t0)/n_steps,
    1 <= n_steps <= ``pencildae.MAX_STEPS``.

    Nodes are always formed as t0 + i*h (never by accumulation) so that
    refined meshes share their coarse nodes exactly.
    """

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        _count("n_steps", self.n_steps, high=MAX_STEPS + 1)
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if not np.isfinite(self.h):
            raise ValueError("the step (t_end - t0)/n_steps must be finite")

    @property
    def h(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.h

    def refined(self, factor: int) -> "Mesh":
        return Mesh(self.t0, self.t_end, self.n_steps * factor)

    def stride_in(self, finer: "Mesh") -> int:
        """The stride of this mesh's nodes among ``finer``'s: both cover one interval,
        to 1e-12 (1 + |t|) at each end, and ``finer`` refines this one by an integer."""
        ends = (self.t0, finer.t0), (self.t_end, finer.t_end)
        if finer.n_steps % self.n_steps or any(abs(t - u) > 1e-12 * (1 + abs(t)) for t, u in ends):
            raise ValueError("meshes share no nodes: not one interval refined by an integer")
        return finer.n_steps // self.n_steps


class Method(Enum):
    METHOD1 = "method1"
    METHOD2 = "method2"


class SolverConfig(_Record):
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
        if self.tol is not None:
            _positive_finite("tol", self.tol)
        _count("max_iter", self.max_iter)
        _positive_finite("blow_up_threshold", self.blow_up_threshold)


class SolveOutcome(Enum):
    COMPLETED = "completed"
    BLOW_UP = "blow_up"
    CORRECTOR_FAILED = "corrector_failed"


class SolveStatus(_Record, eq=True):
    outcome: SolveOutcome
    blow_up_time: float | None = None
    failed_step: int | None = None

    @property
    def completed(self) -> bool:
        return self.outcome is SolveOutcome.COMPLETED

    def to_json(self) -> dict:  # the fields that are set, the outcome by its value
        return {**{name: value for name, value in vars(self).items() if value is not None},
                "outcome": self.outcome.value}


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


_BLOCK = 4096  # nodes per block of a run: of its steps, residuals, norms and CSV rows


def _blocks(count: int):  # slices of at most _BLOCK nodes covering nodes 0..count-1
    return (slice(start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK))


@contextlib.contextmanager
def _in_child(work):
    """``with _in_child(work) as result:`` runs ``work()`` in a forked child during the block;
    ``result()`` returns the value the child pickled, else (no fork: off Linux or a second
    Python thread; or no value) runs ``work()`` here, so errors surface as without a child."""
    pid = None
    if sys.platform == "linux" and not _thread._count():  # fork copies no other thread
        import os, pickle, signal, tempfile, warnings  # noqa: E401
        with contextlib.suppress(OSError), warnings.catch_warnings():
            warnings.filterwarnings("ignore", r".* use of fork\(\)", DeprecationWarning)  # 3.12+
            out = tempfile.TemporaryFile()  # unlinked
            pid = os.fork()
    if pid is None:
        yield work
        return
    if not pid:  # the child exits 0 once its value is written, 1 on any failure
        try:
            pickle.dump(work(), out, pickle.HIGHEST_PROTOCOL)
            out.flush()
            os._exit(0)
        finally:
            os._exit(1)

    def result():
        with contextlib.suppress(Exception):  # raised, crashed, killed or unreadable
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0:
                out.seek(0)
                return pickle.load(out)
        return work()
    try:
        with out:
            yield result
    finally:  # leaving the block before result() kills the child
        with contextlib.suppress(ChildProcessError):  # reaped by result()
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# the split initial point may miss the constraint by this much, relative to
# (1 + ||B||)(1 + ||x0||)
_INIT_RESIDUAL_RTOL = 1e-8


def _node_residuals(b: np.ndarray, q2: np.ndarray, states: np.ndarray,
                    f_values: np.ndarray) -> np.ndarray:
    """Constraint residuals ||Q2 (B x_i - f_i)|| of a block of nodes, normed by
    :func:`_row_norms` as every per-node norm the program reports.

    Stacked matrix-vector products round each node as the single products would.
    """
    r = np.matmul(q2, np.matmul(b, states[:, :, None]) - f_values[:, :, None])
    return _row_norms(r[:, :, 0])


_SQRT_TINY = math.sqrt(sys.float_info.min)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """||x|| of each row x: numpy's where it is NaN or in [sqrt(tiny), inf), else
    ``math.hypot``'s, since a square of an entry over- or underflowed there (numpy's
    warning about it is silenced: the re-pass repairs those rows; NaN rows stay NaN)."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    # an all-zero row has norm 0 either way
    redo = ((norms < _SQRT_TINY) | (norms == np.inf)) & rows.any(axis=1)
    norms[redo] = [math.hypot(*x) for x in rows[redo].tolist()]
    return norms


def _stopped(x: np.ndarray, i: int, node_t: memoryview) -> tuple[SolveStatus, int]:
    """(status, last node kept) of a run whose node i failed the norm test: a
    finite state blew up, a non-finite one fails the step that made it."""
    if np.isfinite(x).all():
        return SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=node_t[i]), i
    return SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i), i - 1


def solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh, x0,
          config: SolverConfig, *, on_block=None) -> Trajectory:
    """Integrate from ``x0`` on ``mesh`` by the scheme of ``config.method``.

    The norm of each new node, ``math.hypot`` of its entries (it neither overflows nor
    underflows), is tested against ``config.blow_up_threshold`` (a finite node above it
    is the last kept, a non-finite one fails its step), and f is evaluated once at each
    node kept: the last node's residual is inf where f fails there.

    The steps run in blocks of ``_BLOCK`` nodes, and a block's residuals are formed
    when it closes.  ``on_block(traj, rows)``, if given, is then called with each
    block that closes while the run goes on: every row of ``traj`` (over the run's
    arrays, its ``status`` not yet known) before ``rows.stop`` is final, and the rows
    after the last block handed on are final once ``solve`` returns.  What the hook
    raises propagates unchanged.  An ``x0`` that is not finite, lies off the constraint
    or exceeds ``config.blow_up_threshold`` raises InconsistentInitialStateError.
    """
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
    nodes = n_steps + 1
    thr, tol, max_iter = config.blow_up_threshold, config.tol, config.max_iter
    # the Euler z-step (method 1, method-2 starter) is (I - h Ginv B) z + h Ginv Q1 f,
    # the leapfrog step z_prev + 2h Ginv Q1 f - 2h Ginv B z
    h = mesh.h
    ginv_b = decomp.g_inv @ b_mat
    drive_mat = h * (decomp.g_inv @ decomp.q1)
    euler, drive = (np.eye(n) - h * ginv_b).dot, drive_mat.dot
    leap_drive, leap_decay = (2.0 * drive_mat).dot, ((2.0 * h) * ginv_b).dot
    newton = X2Newton(decomp)
    correct = newton.correct

    times = mesh.times()
    node_t = memoryview(times)                    # its items are Python floats
    z_hist = np.empty((nodes, n))
    coords = np.empty(nodes if newton.scalar else (nodes, newton.k))
    f_block = np.empty((min(_BLOCK, nodes), n))   # f(t_i, x_i) of the open block's z-steps
    status = SolveStatus(SolveOutcome.COMPLETED)  # provisional: the hook sees it
    traj = Trajectory(times, z_hist, coords.reshape(nodes, newton.k), decomp.x2_basis,
                      np.full(nodes, np.inf), status, mesh)

    z = decomp.p1 @ x0
    c = newton.basis.T @ (decomp.p2 @ x0)
    u = newton.lift(c)                            # N c of the newest node
    x = z + u
    z_hist[0], coords[0] = z, c

    # the split initial point must lie on the constraint manifold
    try:
        fc = f_block[0] = f(mesh.t0, x)           # fc: f at the newest node, if known
    except _MODEL_ERRORS as exc:
        raise _initial_failure(exc) from exc
    res0 = float(_node_residuals(b_mat, q2, x[None], f_block[:1])[0])
    init_tol = _INIT_RESIDUAL_RTOL * (1.0 + dae.pencil.b_norm) * (1.0 + math.hypot(*x0.tolist()))
    if not res0 <= init_tol:
        raise InconsistentInitialStateError(
            f"initial constraint residual {res0:.3e} exceeds tolerance {init_tol:.3e}")
    norm0 = math.hypot(*x.tolist())
    if not norm0 <= thr:  # as at each node
        raise InconsistentInitialStateError(
            f"initial state norm {norm0:.6g} exceeds blow_up_threshold {thr:.6g}")

    last = n_steps                                # the last node kept
    z_prev = None
    for rows in _blocks(nodes):
        start = rows.start
        # a singular k > 1 Newton matrix sets the invalid flag (its NaN step fails the step)
        with np.errstate(invalid="ignore"):
            try:
                for j, i in enumerate(range(start, min(rows.stop, last + 1))):
                    fi = f_block[j] = f(node_t[i], x) if fc is None else fc
                    known = i + 1                 # leading nodes with their f stored
                    if i == last:
                        break
                    if leapfrog and i:
                        z_next = z_prev + leap_drive(fi) - leap_decay(z)
                    else:
                        z_next = euler(z) + drive(fi)
                    c, u, x, fc = correct(f, jac, node_t[i + 1], z_next, c, u, tol, max_iter)
                    z_prev, z = z, z_next
                    z_hist[i + 1], coords[i + 1] = z, c
                    if not math.hypot(*x.tolist()) <= thr:
                        status, last = _stopped(x, i + 1, node_t)
                        if last == i:
                            break
            except _STEP_ERRORS:  # at the last node only f can fail: its residual stays inf
                if i < last:  # the step to node i + 1 failed; node i is kept
                    status = SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i + 1)
                    last = i
        if last < rows.stop:  # the run ended in this block
            break
        traj.residuals[rows] = _node_residuals(b_mat, q2, traj.state_rows(rows), f_block)
        if on_block is not None:
            on_block(traj, rows)

    rows = slice(start, known)                    # the open block, closed once
    traj.residuals[rows] = _node_residuals(b_mat, q2, traj.state_rows(rows),
                                           f_block[:known - start])
    if last < n_steps:  # truncated at the offending node, never padded
        traj = replace(traj, **{name: getattr(traj, name)[:last + 1].copy()
                                for name in ("times", "z_history", "coords", "residuals")})
    return replace(traj, status=status)


def method1_solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh,
                  x0, config: SolverConfig | None = None) -> Trajectory:
    """First-order combined scheme: explicit Euler on z, one u-correction per step.

    On an index-0 problem this reduces exactly to the classical explicit Euler
    method for dx/dt = A^-1 (f(t, x) - B x).
    """
    fields = vars(config or SolverConfig())
    return solve(dae, decomp, mesh, x0, SolverConfig(**dict(fields, method=Method.METHOD1)))


def method2_solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh,
                  x0, config: SolverConfig | None = None) -> Trajectory:
    """Second-order combined scheme: Euler starter, then leapfrog on z.

    The u-update is identical to method 1.  The leapfrog step carries a
    parasitic mode whose amplification grows with the stability coefficient
    1 + 2h(||Ginv B|| + M1); prefer method 1 on long intervals.
    """
    fields = vars(config or SolverConfig())
    return solve(dae, decomp, mesh, x0, SolverConfig(**dict(fields, method=Method.METHOD2)))
