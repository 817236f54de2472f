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
The step loop ``_run`` yields the run in blocks of ``_BLOCK`` nodes, each with arrays
of its own: ``solve`` copies them into one ``Trajectory``, and the CLI formats each
block (in a child) and keeps none, while the steps go on.
"""

from __future__ import annotations

import _thread
import contextlib
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _check_mesh
from .dae_model import (_MODEL_ERRORS, _STEP_ERRORS, InconsistentInitialStateError,
                        SemilinearDAE, X2Newton, _initial_failure, jacobian_function)
from .pencil import SpectralDecomposition, _count, _positive_finite, _Record

__all__ = [
    "Mesh", "Method", "SolverConfig", "SolveOutcome", "SolveStatus", "Trajectory",
    "InconsistentInitialStateError", "method1_solve", "method2_solve", "solve",
]


class Mesh(_Record):
    """Uniform mesh t_i = t0 + i*h, i = 0..n_steps, h = (t_end - t0)/n_steps, whose
    node times resolve h (``pencildae._check_mesh``).

    Nodes are always formed as t0 + i*h (never by accumulation) so that
    refined meshes share their coarse nodes exactly.
    """

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        _check_mesh(self.t0, self.t_end, _count("n_steps", self.n_steps))

    @property
    def h(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    def times(self, rows=slice(None)) -> np.ndarray:
        """t0 + i*h of the nodes i in the slice ``rows`` alone: ``times()[rows]``."""
        return self.t0 + np.arange(*rows.indices(self.n_steps + 1)) * self.h

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


class SolveStatus(_Record):
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
    (never padded); ``status`` records why.  Node times are formed from ``mesh``.
    """

    z_history: np.ndarray
    coords: np.ndarray      # (nodes, k)
    x2_basis: np.ndarray    # N, (n, k)
    residuals: np.ndarray
    status: SolveStatus
    mesh: Mesh

    def __len__(self) -> int:
        return self.z_history.shape[0]

    def u_rows(self, rows=slice(None)) -> np.ndarray:
        """u_i = N c_i of the nodes ``rows`` (a slice or an index array)."""
        return _lift(self.x2_basis, self.coords[rows])

    def state_rows(self, rows=slice(None)) -> np.ndarray:
        """x_i = z_i + N c_i of the nodes ``rows``, rounded alike for any rows."""
        return self.z_history[rows] + self.u_rows(rows)

    states, u_history = property(state_rows), property(u_rows)  # formed on each access

    @property
    def times(self) -> np.ndarray:  # formed on each access
        return self.mesh.times(slice(len(self)))

    @property
    def max_norm(self) -> float:
        return float(max(_row_norms(self.state_rows(rows)).max() for rows in _blocks(len(self))))


def _lift(basis: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """u_i = N c_i of each row c_i of ``coords``, rounded alike for any rows."""
    return np.matmul(basis, coords[:, :, None])[:, :, 0]


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


def _run(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh, x0,
         config: SolverConfig):
    """The step loop: yields each block of at most ``_BLOCK`` nodes when it closes, as
    ``(first, z, c, residuals, status)``: its first node's index, arrays of this block
    alone (c is (nodes, k)), and the run's status in its last block, else None.

    The norm of each new node, ``math.hypot`` of its entries (it neither overflows nor
    underflows), is tested against ``config.blow_up_threshold`` (a finite node above it
    is the last kept, a non-finite one fails its step), and f is evaluated once at each
    node kept: the last node's residual is inf where f fails there.  An ``x0`` that is
    not finite, lies off the constraint or exceeds ``config.blow_up_threshold`` raises
    InconsistentInitialStateError before the first block.
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
    f_block = np.empty((min(_BLOCK, n_steps + 1), n))  # f(t_i, x_i) of the open block's z-steps

    z = decomp.p1 @ x0
    c = newton.basis.T @ (decomp.p2 @ x0)
    u = newton.lift(c)                            # N c of the newest node
    x = z + u

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
    z_prev = status = None
    for rows in _blocks(n_steps + 1):
        start, size = rows.start, rows.stop - rows.start
        z_block = np.empty((size, n))
        c_block = np.empty(size if newton.scalar else (size, newton.k))
        node_t = mesh.times(slice(start, rows.stop + 1)).tolist()  # + the node after the block
        known = 0                                 # the block's leading nodes with f stored
        # a singular k > 1 Newton matrix sets the invalid flag (its NaN step fails the step)
        with np.errstate(invalid="ignore"):
            try:
                for j, i in enumerate(range(start, min(rows.stop, last + 1))):
                    z_block[j], c_block[j] = z, c
                    fi = f_block[j] = f(node_t[j], x) if fc is None else fc
                    known = j + 1
                    if i == last:
                        break
                    if leapfrog and i:
                        z_next = z_prev + leap_drive(fi) - leap_decay(z)
                    else:
                        z_next = euler(z) + drive(fi)
                    c, u, x, fc = correct(f, jac, node_t[j + 1], z_next, c, u, tol, max_iter)
                    z_prev, z = z, z_next
                    if not math.hypot(*x.tolist()) <= thr:
                        if not np.isfinite(x).all():  # fails the step that made it
                            raise FloatingPointError("non-finite node")
                        status = SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=node_t[j + 1])
                        last = i + 1              # a finite node blew up: the last kept
            except _STEP_ERRORS:  # at the last node only f can fail: its residual stays inf
                if i < last:  # the step to node i + 1 failed; node i is kept
                    status = SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i + 1)
                    last = i
        kept = min(rows.stop, last + 1) - start   # truncated at the offending node, never padded
        z_block, c_block = z_block[:kept], c_block.reshape(size, newton.k)[:kept]
        residuals = np.full(kept, np.inf)         # this block's, formed once
        residuals[:known] = _node_residuals(b_mat, q2, z_block[:known] + _lift(
            decomp.x2_basis, c_block[:known]), f_block[:known])
        if last < rows.stop:  # the run ended in this block
            yield start, z_block, c_block, residuals, status or SolveStatus(SolveOutcome.COMPLETED)
            return
        yield start, z_block, c_block, residuals, None


def solve(dae: SemilinearDAE, decomp: SpectralDecomposition, mesh: Mesh, x0,
          config: SolverConfig) -> Trajectory:
    """Integrate from ``x0`` on ``mesh`` by the scheme of ``config.method``: ``_run``'s
    blocks (its rules and errors hold), copied into the run's arrays, which the first
    block allocates (a run too large to hold raises MemoryError there)."""
    for first, *block, status in _run(dae, decomp, mesh, x0, config):
        if not first:  # z, c and the residuals of the whole run
            run = [np.empty((mesh.n_steps + 1, *part.shape[1:])) for part in block]
        kept = first + len(block[0])
        for whole, part in zip(run, block):
            whole[first:kept] = part
    # a truncated run is copied: its arrays end at the offending node, never padded
    z, c, residuals = (whole if kept == len(whole) else whole[:kept].copy() for whole in run)
    return Trajectory(z, c, decomp.x2_basis, residuals, status, mesh)


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
