"""Seeded workload generators and the independent checks of their outputs.

A workload is a fixed round of CLI operations built from ``--seed``.  The
generators use only ``random.Random`` and plain float arithmetic, so one seed
gives byte-identical config files on every machine.  The checks never import
``pencildae``: they compare the CLI's files with references written here from
the model equations (a reduced ODE integrated by ``solve_ivp``, closed-form
projectors, the expected convergence order).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("circuit_solve", "affine_ladder", "cli_short")

# circuit_solve: the sec5_cubic preset in computation units (L, C scaled by 1e6)
CIRCUIT_L, CIRCUIT_C, CIRCUIT_R, CIRCUIT_G = 500.0, 0.5, 2.0, 0.2
CIRCUIT_T_END, CIRCUIT_STEPS = 50.0, 50_000
CIRCUIT_SAMPLES = 101            # nodes compared against the reference ODE
# method 1 is first order: over this box of initial states its worst node error
# is at most 0.41 h (halving h halves it), so 2 h leaves a 5x margin while an
# O(1) mistake in the trajectory (amplitudes ~0.5) still fails
CIRCUIT_ERR_PER_H = 2.0

LADDER_N, LADDER_K = 8, 3
LADDER_T_END, LADDER_BASE_STEPS, LADDER_REFINEMENTS = 2.0, 200, 5
ORDER_RANGE = (1.7, 2.3)

RESIDUE_AGREEMENT_MAX = 1e-8
CLOSED_FORM_TOL = 1e-9
SHORT_ERR_PER_H = 2.0            # toy_index1 / linear_index0, method 1
SHORT_STEPS = 1000               # fixed, so every seed does the same work


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    """One CLI invocation and what a correct run of it produces."""

    command: str
    config: str                      # file name under the workload's config dir
    expect_exit: int
    steps: int                       # mesh steps the operation integrates
    check: Callable[[Path, str], float] | None = None  # (out_dir, stdout) -> deviation
    outputs: tuple[str, ...] = ()    # files the operation must write


@dataclass
class Workload:
    config_dir: Path
    ops: list[Op]                    # one round, run in order
    setup_configs: list[str]         # configs whose set-up calls setup_s times
    deviations: dict = field(default_factory=dict)  # check name -> worst deviation

    def record(self, key: str, value: float) -> float:
        self.deviations[key] = max(self.deviations.get(key, 0.0), value)
        return value


# --------------------------------------------------------------------------
# deterministic generators


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _matmul(a, b):
    return [[math.fsum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _near_identity(n: int, rng: random.Random) -> list:
    # ||E||_2 <= ||E||_F <= 0.25 sqrt(n) < 1 for n <= 8, so I + E is invertible
    # with condition number below 6
    scale = 0.25 / math.sqrt(n)
    return [[(1.0 if i == j else 0.0) + rng.uniform(-scale, scale) for j in range(n)]
            for i in range(n)]


def _weierstrass_pencil(rng: random.Random, n: int, k: int, nilpotent: bool = False):
    """A = T diag(I_d, N) S and B = T diag(M, I_k) S with d = n - k.

    M is upper triangular with diagonal in [0.5, 2], so the finite dynamics
    decay.  N = 0 gives index <= 1 with P2 = S^-1 diag(0, I_k) S; a single
    Jordan block N (k = 2) gives index 2.  Returns (A, B, S).
    """
    d = n - k
    core_a = [[0.0] * n for _ in range(n)]
    core_b = [[0.0] * n for _ in range(n)]
    for i in range(d):
        core_a[i][i] = 1.0
        core_b[i][i] = rng.uniform(0.5, 2.0)
        for j in range(i + 1, d):
            core_b[i][j] = rng.uniform(-0.3, 0.3)
    for i in range(d, n):
        core_b[i][i] = 1.0
    if nilpotent:
        core_a[d][d + 1] = 1.0
    t = _near_identity(n, rng)
    s = _near_identity(n, rng)
    return _matmul(_matmul(t, core_a), s), _matmul(_matmul(t, core_b), s), s


def _circuit_x0(rng: random.Random) -> list:
    """Consistent x0: x1, x2 from a box, x3 from the scalar constraint."""
    x1 = rng.uniform(-1.0, 1.0)
    x2 = rng.uniform(-1.0, 1.0)
    return [x1, x2, circuit_x3(x1, x2)]


def circuit_x3(x1: float, x2: float) -> float:
    """Root of x2 + r x3 = (x1 - x3)^3 - x3^3, which is strictly decreasing in x3."""
    def g(x3):
        return (x1 - x3) ** 3 - x3 ** 3 - CIRCUIT_R * x3 - x2
    lo, hi = -1.0, 1.0
    while g(lo) < 0.0:
        lo *= 2.0
    while g(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(g(lo)) <= abs(g(hi)) else hi


def write_config(config_dir: Path, name: str, payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    (config_dir / name).write_text(text, encoding="utf-8")
    return name


def _solve_outputs(payload: dict) -> dict:
    payload["outputs"] = {"trajectory_csv": "trajectory.csv",
                          "summary_json": "summary.json"}
    return payload


def make_workload(name: str, seed: int, config_dir: Path) -> Workload:
    """Write the workload's configs into ``config_dir`` and return its round."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    config_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(name, seed)
    wl = Workload(config_dir=config_dir, ops=[], setup_configs=[])
    {"circuit_solve": _circuit_solve, "affine_ladder": _affine_ladder,
     "cli_short": _cli_short}[name](wl, rng)
    return wl


def _circuit_solve(wl: Workload, rng: random.Random) -> None:
    x0 = _circuit_x0(rng)
    cfg = write_config(wl.config_dir, "circuit.json", _solve_outputs({
        "model": "sec5_cubic", "method": "method1",
        "mesh": {"t0": 0.0, "t_end": CIRCUIT_T_END, "n_steps": CIRCUIT_STEPS},
        "initial_state": {"x0": x0},
        "corrector": {"mode": "single_step"},
    }))
    ref = CircuitReference(x0, CIRCUIT_T_END, CIRCUIT_STEPS)
    wl.ops.append(Op("solve", cfg, 0, CIRCUIT_STEPS,
                     check=lambda out, _: wl.record("circuit_vs_ode", ref.check(out)),
                     outputs=("trajectory.csv", "summary.json")))
    wl.setup_configs.append(cfg)


def ladder_steps(base_steps: int, refinements: int) -> int:
    """Mesh steps of one self-referenced ladder: levels 0..refinements."""
    return base_steps * (2 ** (refinements + 1) - 1)


def _affine_ladder(wl: Workload, rng: random.Random) -> None:
    n, k = LADDER_N, LADDER_K
    a, b, _ = _weierstrass_pencil(rng, n, k)
    scale = 0.2 / n
    cfg = write_config(wl.config_dir, "ladder.json", {
        "model": {"a": a, "b": b,
                  "f_const": [rng.uniform(-1.0, 1.0) for _ in range(n)],
                  "f_matrix": [[rng.uniform(-scale, scale) for _ in range(n)]
                               for _ in range(n)]},
        "method": "method2",
        "mesh": {"t0": 0.0, "t_end": LADDER_T_END, "n_steps": LADDER_BASE_STEPS},
        "initial_state": {"z0": [rng.uniform(-1.0, 1.0) for _ in range(n)]},
        "corrector": {"mode": "iterate", "tol": 1e-10, "max_iter": 50},
        "study": {"refinements": LADDER_REFINEMENTS},
        "outputs": {"summary_json": "study.json"},
    })
    wl.ops.append(Op("converge", cfg, 0,
                     ladder_steps(LADDER_BASE_STEPS, LADDER_REFINEMENTS),
                     check=lambda out, _: wl.record("order_offset", check_orders(out)),
                     outputs=("study.json",)))
    wl.setup_configs.append(cfg)


def _cli_short(wl: Workload, rng: random.Random) -> None:
    d = wl.config_dir
    proj_out = {"summary_json": "projectors.json"}
    ops = wl.ops

    # short solves: toy_index1 (k = 1) from z0, so the consistent initialisation
    # runs (it lands on the preset's x0 = (1, 0.4)), and linear_index0 (k = 0)
    for preset, state in (("toy_index1", {"z0": [1.0, 0.0]}),
                          ("linear_index0", "preset_default")):
        t_end = round(rng.uniform(1.0, 4.0), 3)
        steps = SHORT_STEPS
        cfg = write_config(d, f"solve_{preset}.json", _solve_outputs({
            "model": preset, "method": "method1",
            "mesh": {"t0": 0.0, "t_end": t_end, "n_steps": steps},
            "initial_state": state,
        }))
        ref = ShortReference(preset, t_end, steps)
        ops.append(Op("solve", cfg, 0, steps,
                      check=lambda out, _, ref=ref: wl.record("short_solve_vs_ode",
                                                              ref.check(out)),
                      outputs=("trajectory.csv", "summary.json")))
        wl.setup_configs.append(cfg)

    ops.append(Op("validate", "solve_toy_index1.json", 0, 0,
                  check=lambda _, stdout: check_validate(stdout)))

    cfg = write_config(d, "proj_sec5_cubic.json", {"model": "sec5_cubic",
                                                   "outputs": proj_out})
    circuit_p2 = np.zeros((3, 3))
    circuit_p2[2] = (0.0, 1.0 / CIRCUIT_R, 1.0)
    ops.append(Op("projectors", cfg, 0, 0,
                  check=lambda out, _: wl.record("p2_closed_form",
                                                 check_projectors(out, circuit_p2)),
                  outputs=("projectors.json",)))
    wl.setup_configs.append(cfg)

    for i in range(6):
        n = rng.randrange(2, 9)
        k = rng.randrange(0, n)
        a, b, s = _weierstrass_pencil(rng, n, k)
        cfg = write_config(d, f"proj_inline_{i}.json", {
            "model": {"a": a, "b": b}, "outputs": proj_out,
            "seed": rng.randrange(0, 1000)})
        p2 = closed_form_p2(s, k)
        ops.append(Op("projectors", cfg, 0, 0,
                      check=lambda out, _, p2=p2: wl.record(
                          "p2_closed_form", check_projectors(out, p2)),
                      outputs=("projectors.json",)))
        if i == 0:
            wl.setup_configs.append(cfg)
            ops.append(Op("validate", cfg, 0, 0,
                          check=lambda _, stdout: check_validate(stdout)))

    n = rng.randrange(3, 6)
    a, b, _ = _weierstrass_pencil(rng, n, 2, nilpotent=True)
    cfg = write_config(d, "proj_index2.json", {"model": {"a": a, "b": b},
                                                "outputs": proj_out})
    ops.append(Op("projectors", cfg, 2, 0))


# --------------------------------------------------------------------------
# references and checks


def closed_form_p2(s, k: int) -> np.ndarray:
    """P2 = S^-1 diag(0, I_k) S for the generator's Weierstrass form."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    sel = np.zeros((n, n))
    sel[n - k:, n - k:] = np.eye(k)
    return np.linalg.solve(s, sel @ s)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def check_validate(stdout: str) -> float:
    if "config OK" not in stdout:
        raise CheckFailed(f"validate printed {stdout!r}")
    return 0.0


def check_projectors(out_dir: Path, p2_expected: np.ndarray) -> float:
    """passed, residue agreement and P2 against its closed form."""
    payload = _load_json(out_dir / "projectors.json")
    if payload.get("passed") is not True:
        raise CheckFailed(f"projectors not passed: {payload.get('validation')}")
    if not payload["residue_agreement"] <= RESIDUE_AGREEMENT_MAX:
        raise CheckFailed(f"residue agreement {payload['residue_agreement']:.3e}")
    dev = float(np.abs(np.asarray(payload["p2"]) - p2_expected).max())
    if not dev <= CLOSED_FORM_TOL * (1.0 + float(np.abs(p2_expected).max())):
        raise CheckFailed(f"P2 differs from its closed form by {dev:.3e}")
    return dev


def check_orders(out_dir: Path) -> float:
    """Both fitted orders of method 2 lie in ORDER_RANGE; returns max |order - 2|."""
    payload = _load_json(out_dir / "study.json")
    if len(payload.get("step_sizes", ())) != LADDER_REFINEMENTS - 1:
        raise CheckFailed(f"ladder has step sizes {payload.get('step_sizes')}")
    worst = 0.0
    for comp in ("z", "u"):
        order = payload[comp]["asymptotic_order"]
        if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
            raise CheckFailed(f"{comp} order {order} outside {ORDER_RANGE}")
        worst = max(worst, abs(order - 2.0))
    return worst


def _read_trajectory(out_dir: Path, n: int, steps: int) -> np.ndarray:
    """Parse the trajectory CSV; check header, row count, finiteness, status."""
    summary = _load_json(out_dir / "summary.json")
    if summary.get("status", {}).get("outcome") != "completed":
        raise CheckFailed(f"summary status {summary.get('status')}")
    path = out_dir / "trajectory.csv"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    expected = "t," + ",".join(f"x{i + 1}" for i in range(n)) + \
        ",z_norm,u_norm,constraint_residual"
    if header != expected:
        raise CheckFailed(f"CSV header {header!r}")
    if rows.shape != (steps + 1, n + 4):
        raise CheckFailed(f"CSV shape {rows.shape}, expected {(steps + 1, n + 4)}")
    if not np.all(np.isfinite(rows)):
        raise CheckFailed("CSV holds non-finite values")
    return rows


class CircuitReference:
    """sec5_cubic reduced to an ODE in (x1, x2); x3 from the scalar constraint.

    L x1' = e(t) - x1^3 - psi(x1 - x3),  C x2' = -x2^3 - g x2 + x3,
    x2 + r x3 = (x1 - x3)^3 - x3^3,  e(t) = sin t.
    """

    def __init__(self, x0, t_end: float, steps: int):
        self.x0 = [float(v) for v in x0]
        self.t_end = t_end
        self.steps = steps
        self.stride = steps // (CIRCUIT_SAMPLES - 1)
        self._states = None

    def states(self) -> np.ndarray:
        """Reference states at the sampled nodes, computed once."""
        if self._states is None:
            from scipy.integrate import solve_ivp
            h = self.t_end / self.steps
            t_eval = np.arange(0, self.steps + 1, self.stride) * h

            def rhs(t, y):
                x1, x2 = y
                x3 = circuit_x3(x1, x2)
                return ((math.sin(t) - x1 ** 3 - (x1 - x3) ** 3) / CIRCUIT_L,
                        (-x2 ** 3 - CIRCUIT_G * x2 + x3) / CIRCUIT_C)

            sol = solve_ivp(rhs, (0.0, t_eval[-1]), self.x0[:2], method="DOP853",
                            t_eval=t_eval, rtol=1e-11, atol=1e-13)
            if not sol.success:
                raise RuntimeError(f"reference ODE failed: {sol.message}")
            x3 = [circuit_x3(a, b) for a, b in sol.y.T]
            self._states = np.column_stack([sol.y.T, x3])
        return self._states

    def check(self, out_dir: Path) -> float:
        rows = _read_trajectory(out_dir, 3, self.steps)
        ref = self.states()
        dev = float(np.abs(rows[::self.stride, 1:4] - ref).max())
        tol = CIRCUIT_ERR_PER_H * (self.t_end / self.steps)
        if not dev <= tol:
            raise CheckFailed(f"circuit deviates from the reference ODE by {dev:.3e} "
                              f"> {tol:.3e}")
        return dev


class ShortReference:
    """toy_index1 and linear_index0 as explicit ODEs, checked at every node."""

    def __init__(self, preset: str, t_end: float, steps: int):
        self.preset = preset
        self.t_end = t_end
        self.steps = steps
        self._states = None

    def states(self) -> np.ndarray:
        if self._states is None:
            from scipy.integrate import solve_ivp
            # the mesh nodes i * h; the last can differ from t_end by roundoff
            t_eval = np.arange(self.steps + 1) * (self.t_end / self.steps)
            span = (0.0, t_eval[-1])
            if self.preset == "toy_index1":
                # x1' + x1 = -0.2 x1 + 0.5 x2 + sin t,  0.75 x2 = 0.5 sin t + 0.3 x1
                def x2_of(t, x1):
                    return (0.5 * math.sin(t) + 0.3 * x1) / 0.75

                sol = solve_ivp(lambda t, y: (-1.2 * y[0] + 0.5 * x2_of(t, y[0])
                                              + math.sin(t),),
                                span, [1.0], method="DOP853",
                                t_eval=t_eval, rtol=1e-11, atol=1e-13)
                x2 = [x2_of(t, x1) for t, x1 in zip(t_eval, sol.y[0])]
                states = np.column_stack([sol.y[0], x2])
            else:
                a = np.array([[2.0, 0.3], [0.1, 1.0]])
                b = np.array([[0.5, -0.2], [0.1, 0.4]])

                def rhs(t, x):
                    f = np.array((math.sin(t) - 0.1 * x[1], math.cos(t) + 0.05 * x[0]))
                    return np.linalg.solve(a, f - b @ x)

                sol = solve_ivp(rhs, span, [1.0, -0.5], method="DOP853",
                                t_eval=t_eval, rtol=1e-11, atol=1e-13)
                states = sol.y.T
            if not sol.success:
                raise RuntimeError(f"reference ODE failed: {sol.message}")
            self._states = states
        return self._states

    def check(self, out_dir: Path) -> float:
        rows = _read_trajectory(out_dir, 2, self.steps)
        dev = float(np.abs(rows[:, 1:3] - self.states()).max())
        tol = SHORT_ERR_PER_H * (self.t_end / self.steps)
        if not dev <= tol:
            raise CheckFailed(f"{self.preset} deviates from its reference ODE by "
                              f"{dev:.3e} > {tol:.3e}")
        return dev
