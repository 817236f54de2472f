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
block (in a child) and keeps none, while the steps go on.  Its node loop is chosen by
the problem's shape: on Python floats for k <= 1 and n <= 3, which calls the model on
floats where it is written so (every preset), else numpy's.
"""

from __future__ import annotations

import _thread
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _check_mesh
from .dae_model import (_MODEL_ERRORS, _SINGULAR, _STALLED, _STEP_ERRORS,
                        InconsistentInitialStateError, NoConvergenceError, SemilinearDAE,
                        SingularNewtonMatrixError, X2Newton, _initial_failure, jacobian_function)
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
    pid = out = None
    if sys.platform == "linux" and not _thread._count():  # fork copies no other thread
        import os, pickle, signal, tempfile, warnings  # noqa: E401
        with contextlib.suppress(OSError), warnings.catch_warnings():
            warnings.filterwarnings("ignore", r".* use of fork\(\)", DeprecationWarning)  # 3.12+
            out = tempfile.TemporaryFile()  # unlinked
            pid = os.fork()
    if pid is None:
        if out is not None:  # made, but the fork failed
            out.close()
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


# the step on Python floats is taken for k <= 1 up to this n: on inline affine k = 1
# models its prototype cost 0.62 of numpy's step at n = 2, 0.86 at n = 3, 0.97 at
# n = 4, 1.11 at n = 5 and 1.82 at n = 8 (its terms grow as n^2, numpy's dispatch not)
_PLAIN_MAX_N = 3

# _run's node loop, as _node_loop fills it in for a form: ``nodes`` stores each node of a
# block (z, c and f there), makes the next by the form's step and tests it, and returns
# the state after the block, its nodes with f stored, the last node kept and the status;
# the rules of how a run ends are these lines alone
_NODE_LOOP = """\
def make(f, jac, tol, max_iter, thr, leapfrog, consts):
    {consts} = consts
    def nodes(times, first, stop, last, status, state, zs, cs, fs):
        {state} = state
        i, known = first, 0
        try:
            for j, i in enumerate(range(first, min(stop, last + 1))):
{store}
                known = j + 1
                if i == last:
                    break
                t = times[j + 1]
{step}
                if not hypot({x}) <= thr:
                    if not all(map(isfinite, ({x},))):  # fails the step that made it
                        raise FloatingPointError("non-finite node")
                    status = SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=t)
                    last = i + 1  # a finite node blew up: the last kept
        except STEP_ERRORS:  # at the last node only f can fail: its residual stays inf
            if i < last:  # the step to node i + 1 failed; node i is kept
                status = SolveStatus(SolveOutcome.CORRECTOR_FAILED, failed_step=i + 1)
                last = i
        return ({state}), known, last, status
    return nodes
"""

# the numpy form: ndarray nodes stored in the block's arrays, the numpy z-step and
# X2Newton.correct
_NUMPY_FORM = dict(consts="euler, drive, leap_drive, leap_decay, correct",
                   state="z, p, c, u, x, fc", x="*x.tolist()", store="""\
                zs[j], cs[j] = z, c
                fi = fs[j] = f(times[j], x) if fc is None else fc""", step="""\
                y = p + leap_drive(fi) - leap_decay(z) if leapfrog and i else euler(z) + drive(fi)
                c, u, x, fc = correct(f, jac, t, y, c, u, tol, max_iter)
                p, z = z, y""")

# the plain forms: a node's entries are floats, kept from step to step and appended to
# flat lists; the z-step and X2Newton.correct's correction are written out for k <= 1
# (for k = 0 its loop never runs), so a non-finite value fails the step as there
_PLAIN_FORM = dict(store="""\
                zs += ({z},)
                cs.append(c)
                [{f}] = fc if fc is not None else {f_at}
                fs += ({f},)""", step="""\
                if leapfrog and i:
                    {leapfrog}
                else:
                    {euler}
                fc, updates = None, 0
                while {k}:
                    {x_of_y}
                    [{f}] = fx = {f_call}
                    r = c - {Wf}
                    if tol is not None:
                        res = abs(r)
                        if res <= tol:
                            fc = fx
                            break
                        if updates >= max_iter:
                            raise NoConvergenceError(STALLED.format(res, updates),
                                                     last_residual=res)
                    [{J}] = {jac_call}
                    newton = 1.0 - ({WJN})
                    delta = r / newton if newton and isfinite(newton) else nan
                    if not isfinite(delta):
                        raise SingularNewtonMatrixError(SINGULAR.format(t))
                    c = c - delta
                    {lift}
                    if tol is None:
                        break
                    updates += 1
                {p} = {z}
                {z} = {y}
                {x_of_z}""")


@functools.cache
def _node_loop(form: str, n: int = 0, k: int = 0):
    """``make`` of ``_NODE_LOOP`` for a form, compiled once per form and shape: "numpy",
    or for n entries and k <= 1 "floats", which calls the model's f and Jacobian on the
    node's floats (``dae_model._on_floats``), or "ndarray", which calls them on an array
    of them.  Its step keeps every term of numpy's, with the flat Euler, drive, leapfrog
    drive and decay matrices, W and N bound as closure values."""
    fields = _NUMPY_FORM
    if form != "numpy":
        def each(text, sep=", "):  # text.format(i=i) for each entry i
            return sep.join(text.format(i=i) for i in range(n))

        def row(v):  # the names v0, ..., of a vector or (v holding {i}) of a matrix row
            return ", ".join(f"{v}{j}" for j in range(n))

        def dot(v, w):  # the vector (or matrix row) v times the vector w
            return "(" + " + ".join(f"{v}{j} * {w}{j}" for j in range(n)) + ")"
        line = "\n                    "
        x = row("x")
        on_array = form == "ndarray"  # the model is called on an array, its result read back
        arg, tail = ("xa", ".tolist()") if on_array else (x, "")
        plain = {v: row(v) for v in "fzpy"} | dict(
            k=k, x=x, Wf=dot("W", "f"), WJN=each("W{i} * " + dot("j{i}_", "N"), " + "),
            J=each("[" + row("j{i}_") + "]" if on_array else row("j{i}_")),
            f_at=f"f(times[j], {f'array(({x},))' if on_array else x}){tail}",
            f_call=f"f(t, {arg}){tail}", jac_call=f"jac(t, {arg}){tail}",
            # the correction's f and Jacobian share one array
            x_of_y=each("x{i} = y{i} + u{i}", line) + (f"{line}xa = array(({x},))" * on_array),
            x_of_z=each("x{i} = z{i} + u{i}", line[:-4]),
            lift=each("u{i} = N{i} * c", line),
            leapfrog=each("y{i} = p{i} + " + dot("L{i}_", "f") + " - " + dot("K{i}_", "z"), line),
            euler=each("y{i} = " + dot("E{i}_", "z") + " + " + dot("D{i}_", "f"), line))
        fields = {name: text.format(**plain) for name, text in _PLAIN_FORM.items()} | dict(
            x=x, consts=", ".join(f"[{m}]" for m in (*(each(row(m + "{i}_")) for m in "EDLK"),
                                                      row("W") * k, row("N") * k)),
            state=", ".join((row("z"), row("p"), "c", row("u"), x, "fc")))
    scope = {"array": np.array, "hypot": math.hypot, "isfinite": math.isfinite,
             "nan": math.nan, "NoConvergenceError": NoConvergenceError, "STALLED": _STALLED,
             "SingularNewtonMatrixError": SingularNewtonMatrixError, "SINGULAR": _SINGULAR,
             "SolveStatus": SolveStatus, "SolveOutcome": SolveOutcome, "STEP_ERRORS": _STEP_ERRORS}
    exec(_NODE_LOOP.format(**fields), scope)
    return scope["make"]


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
    mats = np.eye(n) - h * ginv_b, drive_mat, 2.0 * drive_mat, (2.0 * h) * ginv_b
    newton = X2Newton(decomp)
    f_block = np.empty((min(_BLOCK, n_steps + 1), n))  # f at x0; at the block's nodes (numpy)

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

    # the node loop, chosen by the shape (n, k) and the model: on Python floats for k <= 1
    # and n <= 3, calling f and the Jacobian on floats where the model has them, else numpy's
    if newton.k <= 1 and n <= _PLAIN_MAX_N:
        floats = getattr(f, "_floats", None), getattr(jac, "_floats", None)
        form, shape = "ndarray" if None in floats else "floats", (n, newton.k)
        f, jac = (f, jac) if None in floats else floats
        consts = [m.ravel().tolist() for m in (*mats, newton.coeff, newton.basis)]
        state = (*z.tolist(), *z.tolist(), c.tolist(), *u.tolist(), *x.tolist(),
                 f_block[0].tolist())
    else:
        form, shape, consts = "numpy", (), (*(m.dot for m in mats), newton.correct)
        state = z, None, c, u, x, fc
    nodes = _node_loop(form, *shape)(f, jac, tol, max_iter, thr, leapfrog, consts)

    last, status = n_steps, None                  # the last node kept
    for rows in _blocks(n_steps + 1):
        start, size = rows.start, rows.stop - rows.start
        zs, cs, fs = ([], [], []) if form != "numpy" else (  # flat lists, else arrays
            np.empty((size, n)), np.empty(size if newton.scalar else (size, newton.k)), f_block)
        node_t = mesh.times(slice(start, rows.stop + 1)).tolist()  # + the node after the block
        # a singular k > 1 Newton matrix sets the invalid flag (its NaN step fails the step)
        with np.errstate(invalid="ignore"):
            state, known, last, status = nodes(node_t, start, rows.stop, last, status, state,
                                               zs, cs, fs)
        kept = min(rows.stop, last + 1) - start   # truncated at the offending node, never padded
        z_block = np.asarray(zs, dtype=float).reshape(-1, n)[:kept]
        c_block = np.asarray(cs, dtype=float).reshape(len(cs), newton.k)[:kept]
        residuals = np.full(kept, np.inf)         # this block's, formed once
        residuals[:known] = _node_residuals(b_mat, q2, z_block[:known] + _lift(
            decomp.x2_basis, c_block[:known]), np.asarray(fs, dtype=float).reshape(-1, n)[:known])
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
