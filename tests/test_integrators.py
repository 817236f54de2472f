import itertools
import math
import os
import re
import signal
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencildae import (PRESET_IDS, InconsistentInitialStateError, MatrixPencil, Mesh,
                       Method, NoConvergenceError, SemilinearDAE, SingularNewtonMatrixError,
                       SolveOutcome, SolverConfig, VoltageWaveform, consistent_initialize,
                       get_preset, jacobian, method1_solve, method2_solve,
                       projectors_algebraic, solve)
from pencildae import cli, integrators
from pencildae.dae_model import X2Newton, _on_floats
from pencildae.integrators import _in_child, _row_norms

from conftest import random_index1_pencil
from reference_stepper import reference_solve
from test_dae_model import affine_problem, bisect_circuit_constraint, singular_k2_problem


def scalar_problem(a, b, f, jac=None):
    pencil = MatrixPencil(a=np.array([[a]]), b=np.array([[b]]))
    dae = SemilinearDAE(pencil=pencil, f=f, jac_f=jac)
    return dae, projectors_algebraic(pencil)


class TestMesh:
    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Mesh(1.0, 1.0, 10)
        with pytest.raises(ValueError, match="finite"):
            Mesh(-1e308, 1e308, 4)          # t_end - t0 overflows
        # more nodes than numpy can index; 2.5 steps would put a node past t_end
        for n_steps in (10**19, 2.5, 4.0, True, 2.0, 10**400):
            with pytest.raises(ValueError, match="^n_steps must be an integer in \\[1, "):
                Mesh(0.0, 1.0, n_steps)
        assert Mesh(0.0, 1.0, np.int64(4)).times()[-1] == 1.0

    def test_nodes_are_not_accumulated(self):
        mesh = Mesh(0.0, 1.0, 3)
        times = mesh.times()
        for i in range(4):
            assert times[i] == mesh.t0 + i * mesh.h

    @pytest.mark.parametrize("rows", [slice(None), slice(2, 9, 3), slice(5, 40), slice(11, None),
                                      slice(8, 12)])
    def test_times_of_some_rows(self, rows):
        # only the nodes asked for are formed, bit for bit as in the whole-run array
        mesh = Mesh(0.1, 1.3, 10)
        assert mesh.times(rows).tobytes() == mesh.times()[rows].tobytes()

    def test_refined_shares_coarse_nodes(self):
        coarse, fine = Mesh(0.0, 2.0, 10), Mesh(0.0, 2.0, 10).refined(4)
        np.testing.assert_array_equal(coarse.times(), fine.times()[::4])

    # t0 = 0 or +-m 10**e up to 1e15; h = 10**q float spacings at t0 (at 1e-9 for t0 = 0)
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(t0=st.one_of(st.just(0.0), st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
                                                st.floats(1.0, 9.99), st.integers(-3, 14),
                                                st.sampled_from([-1.0, 1.0]))),
           n_steps=st.integers(1, 10**6), q=st.floats(5.5, 12.0))
    def test_accepted_node_times_resolve_the_step(self, t0, n_steps, q):
        # the rule's promise: t0 + i*h rounds (twice) within 1.5 ulp(M) of its exact value,
        # M = max(|t0|, |t_end|), so consecutive nodes are h apart to 3 ulp(M) <= 3e-6 h
        t_end = t0 + n_steps * 10.0 ** q * math.ulp(t0 or 1e-9)
        spacing = math.ulp(max(abs(t0), abs(t_end)))
        if not (t_end - t0) / n_steps >= 1e6 * spacing:
            with pytest.raises(ValueError, match="^the step must be finite and at least 1e6 "):
                Mesh(t0, t_end, n_steps)
            return
        mesh = Mesh(t0, t_end, n_steps)
        steps = np.diff(mesh.times())
        assert steps.min() > 0.0                # distinct and increasing
        assert np.abs(steps - mesh.h).max() <= 3.0 * spacing <= 3e-6 * mesh.h

    @pytest.mark.parametrize("t0, t_end, n_steps", [
        (1e15, 1e15 + 1.0, 1000),     # h = 1e-3 where floats are 0.125 apart: 9 distinct times
        (1e6, 1e6 + 1.0, 100 * 2**20),  # steps 9.43e-9 to 9.55e-9 around h = 9.54e-9
        (2.0**23, 2.0**23 + 1.0, 1000),  # at h = 1e-3 the rule admits |t| < 2**23 only
    ])
    def test_unresolved_node_times_are_refused(self, t0, t_end, n_steps):
        with pytest.raises(ValueError, match="^the step must be finite and at least 1e6 ulp"):
            Mesh(t0, t_end, n_steps)
        assert Mesh(2.0**23 - 2.0, 2.0**23 - 1.0, 1000).h == 1e-3


class TestSolverConfig:
    def test_tol_must_be_a_positive_number(self):
        for tol in (math.nan, 0.0, -1e-12, math.inf, True, 0):
            with pytest.raises(ValueError, match="^tol must be positive and finite$"):
                SolverConfig(tol=tol)
        assert SolverConfig(tol=1e-12).tol == 1e-12

    def test_blow_up_threshold_must_be_a_positive_number(self):
        # a NaN threshold would report every run as a blow-up at t0
        for threshold in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="blow_up_threshold"):
                SolverConfig(blow_up_threshold=threshold)

    def test_max_iter_must_be_a_positive_integer(self):
        for max_iter in (0, 2.5, True, 2.0, 10**400):
            with pytest.raises(ValueError, match="^max_iter must be an integer in \\[1, "):
                SolverConfig(tol=1e-300, max_iter=max_iter)
        assert SolverConfig(tol=1e-3, max_iter=np.int64(3)).max_iter == 3

    def test_scheme_wrappers_set_the_method(self, sec5_preset, sec5_decomp):
        # method1_solve/method2_solve keep the rest of a config but not its method
        dae, decomp, mesh, x0 = sec5_preset.dae, sec5_decomp, Mesh(0.0, 0.5, 50), sec5_preset.x0
        for wrapper, method, other in ((method1_solve, Method.METHOD1, Method.METHOD2),
                                       (method2_solve, Method.METHOD2, Method.METHOD1)):
            got = wrapper(dae, decomp, mesh, x0, SolverConfig(other, tol=1e-12, max_iter=5))
            want = solve(dae, decomp, mesh, x0, SolverConfig(method, tol=1e-12, max_iter=5))
            np.testing.assert_array_equal(got.states, want.states)


class TestScalarExamples:
    def test_method1_growth(self):
        # d/dt x = x: reduces to explicit Euler, x1 = 1.1
        dae, decomp = scalar_problem(1.0, 0.0, lambda t, x: x,
                                     lambda t, x: np.eye(1))
        traj = method1_solve(dae, decomp, Mesh(0.0, 0.1, 1), np.array([1.0]))
        assert traj.states[1, 0] == pytest.approx(1.1, rel=1e-15)

    def test_method1_decay(self):
        # d/dt x + x = 0: x1 = 0.9
        dae, decomp = scalar_problem(1.0, 1.0, lambda t, x: np.zeros(1),
                                     lambda t, x: np.zeros((1, 1)))
        traj = method1_solve(dae, decomp, Mesh(0.0, 0.1, 1), np.array([1.0]))
        assert traj.states[1, 0] == pytest.approx(0.9, rel=1e-15)

    def test_method2_decay_starter_and_leapfrog(self):
        dae, decomp = scalar_problem(1.0, 1.0, lambda t, x: np.zeros(1),
                                     lambda t, x: np.zeros((1, 1)))
        traj = method2_solve(dae, decomp, Mesh(0.0, 0.2, 2), np.array([1.0]))
        assert traj.states[1, 0] == pytest.approx(0.9, rel=1e-15)
        assert traj.states[2, 0] == pytest.approx(0.82, rel=1e-14)

    def test_method2_growth(self):
        dae, decomp = scalar_problem(1.0, 0.0, lambda t, x: x,
                                     lambda t, x: np.eye(1))
        traj = method2_solve(dae, decomp, Mesh(0.0, 0.2, 2), np.array([1.0]))
        assert traj.states[1, 0] == pytest.approx(1.1, rel=1e-15)
        assert traj.states[2, 0] == pytest.approx(1.22, rel=1e-14)

    def test_method2_needs_two_steps(self):
        dae, decomp = scalar_problem(1.0, 0.0, lambda t, x: x)
        with pytest.raises(ValueError):
            method2_solve(dae, decomp, Mesh(0.0, 0.1, 1), np.array([1.0]))


UNIT = 1e6


def hand_circuit_solve(method, L, C, r, g, e, t0, t_end, n_steps, x0):
    """Independent stepping oracle for the cubic circuit, written out in the
    scalar coordinates of the hand-derived semi-explicit form.

    Uses the closed forms Ginv Q1 f = ((f1-f3)/L, (f2+f3/r)/C, -(f2+f3/r)/(C r)),
    the z-eigenvalue (g + 1/r)/C and the scalar Newton update on the third
    coordinate; no library linear algebra.
    """
    Lc, Cc = L * UNIT, C * UNIT
    h = (t_end - t0) / n_steps
    x1, x2, x3 = x0
    z1, z2 = x1, x2
    v = x3 + x2 / r  # algebraic coordinate: u = (0, 0, v)
    lam = (g + 1.0 / r) / Cc
    out = [(z1, z2, -z2 / r + v)]
    zp = None
    for i in range(n_steps):
        t = t0 + i * h
        X1, X2, X3 = z1, z2, -z2 / r + v
        f1 = e(t) - X1 ** 3 - X3 ** 3
        f2 = -X2 ** 3
        f3 = (X1 - X3) ** 3 - X3 ** 3
        a = (f1 - f3) / Lc
        b = (f2 + f3 / r) / Cc
        if method == 1 or i == 0:
            nz1 = z1 + h * a
            nz2 = z2 - h * lam * z2 + h * b
        else:
            pz1, pz2 = zp
            nz1 = pz1 + 2 * h * a
            nz2 = pz2 + 2 * h * (b - lam * z2)
        X1e = nz1
        X3e = -nz2 / r + v
        fv = v - ((X1e - X3e) ** 3 - X3e ** 3) / r
        jn = 1.0 + (3 * (X1e - X3e) ** 2 + 3 * X3e ** 2) / r
        v = v - fv / jn
        zp = (z1, z2)
        z1, z2 = nz1, nz2
        out.append((z1, z2, -z2 / r + v))
    return np.array(out)


class TestCircuitAgainstHandOracle:
    @pytest.mark.parametrize("method", [1, 2])
    def test_matches_hand_specialized_stepping(self, method, sec5_preset, sec5_decomp):
        mesh = Mesh(0.0, 1.0, 1000)
        solver = method1_solve if method == 1 else method2_solve
        traj = solver(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0)
        oracle = hand_circuit_solve(method, 5e-4, 5e-7, 2.0, 0.2, math.sin,
                                    0.0, 1.0, 1000, (0.0, 0.0, 0.0))
        assert traj.status.completed
        assert np.abs(traj.states - oracle).max() <= 1e-9

    def test_matches_oracle_from_nonzero_start(self, sec5_preset, sec5_decomp):
        x0 = np.array([0.5, -0.5, 0.25])  # consistent: x2 + 2 x3 = 0 = psi - phi
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 500), x0)
        oracle = hand_circuit_solve(1, 5e-4, 5e-7, 2.0, 0.2, math.sin,
                                    0.0, 1.0, 500, (0.5, -0.5, 0.25))
        assert np.abs(traj.states - oracle).max() <= 1e-9


class TestIndex0Equivalence:
    def test_method1_equals_explicit_euler(self):
        preset = get_preset("linear_index0")
        decomp = projectors_algebraic(preset.dae.pencil)
        mesh = Mesh(0.0, 1.0, 2000)
        traj = method1_solve(preset.dae, decomp, mesh, preset.x0)
        a_inv = np.linalg.inv(preset.dae.pencil.a)
        b = preset.dae.pencil.b
        x = preset.x0.copy()
        h = mesh.h
        for i in range(mesh.n_steps):
            t = mesh.t0 + i * h
            x = x + h * (a_inv @ (preset.dae.f(t, x) - b @ x))
            gap = np.abs(traj.states[i + 1] - x).max()
            assert gap <= 1e-12 * (1.0 + np.abs(x).max())


def correct_u(dae, decomp, t_next, z_next, u_prev, tol=None, max_iter=1):
    """The u-update of both schemes, by X2Newton.correct, in full coordinates."""
    newton = X2Newton(decomp)
    c = newton.basis.T @ u_prev
    return newton.correct(dae.f, lambda t, x: jacobian(dae, t, x), t_next, z_next,
                          c, newton.lift(c), tol, max_iter)[1]


class TestAlgebraicUpdate:
    def test_affine_constraint_exact_in_one_step(self, sec5_preset, sec5_decomp):
        # constant f: Newton is exact on affine maps, u+ = Ginv Q2 c
        c = np.array([0.3, -0.7, 1.1])
        dae = SemilinearDAE(pencil=sec5_preset.dae.pencil, f=lambda t, x: c,
                            jac_f=lambda t, x: np.zeros((3, 3)))
        u_prev = sec5_decomp.p2 @ np.array([0.0, 0.0, 5.0])
        u_next = correct_u(dae, sec5_decomp, 0.0, np.zeros(3), u_prev)
        expected = sec5_decomp.g_inv @ sec5_decomp.q2 @ c
        np.testing.assert_allclose(u_next, expected, atol=1e-14)

    def test_origin_is_fixed_point_without_drive(self, sec5_decomp):
        from pencildae import build_circuit_dae, CircuitParams
        from pencildae.model_library import odd_power
        cubic = odd_power(1.0, 3)
        dae = build_circuit_dae(CircuitParams(5e-4, 5e-7, 2.0, 0.2),
                                cubic, cubic, cubic, cubic,
                                VoltageWaveform(value=lambda t: 0.0))
        u_next = correct_u(dae, sec5_decomp, 3.0, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(u_next, 0.0, atol=1e-15)

    def test_iterated_update_matches_bisection_oracle(self, sec5_preset, sec5_decomp):
        z_next = sec5_decomp.p1 @ np.array([1.0, 1.0, 0.0])
        u_next = correct_u(sec5_preset.dae, sec5_decomp, 0.0, z_next, np.zeros(3),
                           tol=1e-13, max_iter=50)
        c_oracle = bisect_circuit_constraint(z_next)
        assert u_next[2] == pytest.approx(c_oracle, abs=1e-10)

    def test_index0_update_is_zero(self):
        dae, decomp = scalar_problem(1.0, 0.0, lambda t, x: x)
        u = correct_u(dae, decomp, 0.0, np.array([2.0]), np.array([0.0]))
        np.testing.assert_array_equal(u, 0.0)


class TestTrajectoryInvariants:
    def test_projector_confinement(self, sec5_preset, sec5_decomp):
        x0 = np.array([0.5, -0.5, 0.25])
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 2.0, 2000), x0)
        p1, p2 = sec5_decomp.p1, sec5_decomp.p2
        z_leak = np.abs(traj.z_history @ p1.T - traj.z_history).max()
        u_leak = np.abs(traj.u_history @ p2.T - traj.u_history).max()
        assert z_leak <= 1e-11
        assert u_leak <= 1e-11

    def test_lengths_consistent(self, sec5_preset, sec5_decomp):
        traj = method2_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 0.5, 100),
                             sec5_preset.x0)
        assert len(traj) == 101
        assert traj.states.shape == (101, 3)
        assert traj.residuals.shape == (101,)

    @staticmethod
    def stored_bytes(traj) -> int:
        """Bytes of the buffers behind the per-node arrays (a view keeps its base alive)."""
        arrays = (traj.z_history, traj.coords, traj.residuals)
        return sum(a.nbytes if a.base is None else a.base.nbytes for a in arrays)

    @pytest.mark.parametrize("problem", ["k1", "k3", "k1_truncated"])
    def test_stores_z_and_c_only(self, sec5_preset, sec5_decomp, problem):
        if problem == "k3":
            dae, decomp, x0 = affine_cubic_problem()
            traj = method2_solve(dae, decomp, Mesh(0.0, 1.0, 500), x0)
        elif problem == "k1":
            dae, decomp = sec5_preset.dae, sec5_decomp
            traj = method1_solve(dae, decomp, Mesh(0.0, 2.0, 500), np.array([0.5, -0.5, 0.25]))
        else:
            preset = get_preset("sec6_blowup")
            dae, decomp = preset.dae, projectors_algebraic(preset.dae.pencil)
            traj = method1_solve(dae, decomp, Mesh(0.0, 2.0, 2000), preset.x0)
            assert traj.status.outcome is SolveOutcome.BLOW_UP and len(traj) < 2001
        n, k = decomp.n, decomp.algebraic_dim
        assert traj.coords.shape == (len(traj), k) and traj.x2_basis is decomp.x2_basis
        assert self.stored_bytes(traj) <= (n + k + 1) * 8 * len(traj)
        # the node times are formed from the mesh on each access
        assert traj.times.tobytes() == traj.mesh.times()[:len(traj)].tobytes()
        assert traj.times is not traj.times
        # states and u_history are formed on access, the same bytes as node by node
        u = np.array([decomp.x2_basis @ c for c in traj.coords])
        assert traj.u_history.tobytes() == u.tobytes()
        assert traj.states.tobytes() == (traj.z_history + u).tobytes()
        assert traj.states is not traj.states

    def test_inconsistent_initial_state_rejected(self, sec5_preset, sec5_decomp):
        with pytest.raises(InconsistentInitialStateError):
            method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 10),
                          np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("x0", [[1e155, 1e150], [1e150, 1e145]])
    def test_initial_tolerance_does_not_overflow(self, x0):
        # ||x0||^2 overflows for the first state; both miss the constraint x2 = 0
        # by the same relative margin and are both refused
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.zeros(2),
                            jac_f=lambda t, x: np.zeros((2, 2)))
        with pytest.raises(InconsistentInitialStateError, match="exceeds tolerance"):
            method1_solve(dae, projectors_algebraic(pencil), Mesh(0.0, 1.0, 4),
                          np.array(x0), SolverConfig(blow_up_threshold=1e300))

    def test_non_finite_initial_state_rejected(self, sec5_preset, sec5_decomp):
        # refused before the consistency test, whose residual and tolerance
        # a non-finite x0 would turn into NaN or inf
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InconsistentInitialStateError, match="x0 must be finite"):
                method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 10),
                              np.array([bad, 0.0, 0.0]))


class TestBlowUp:
    def test_blow_up_preset_terminates_early(self):
        preset = get_preset("sec6_blowup")
        decomp = projectors_algebraic(preset.dae.pencil)
        traj = method1_solve(preset.dae, decomp, Mesh(0.0, 2.0, 2000), preset.x0)
        assert traj.status.outcome is SolveOutcome.BLOW_UP
        assert traj.status.blow_up_time < 0.5
        assert len(traj) < 2001

    def test_threshold_monotonicity(self):
        preset = get_preset("sec6_blowup")
        decomp = projectors_algebraic(preset.dae.pencil)
        mesh = Mesh(0.0, 2.0, 2000)
        low = method1_solve(preset.dae, decomp, mesh, preset.x0,
                            SolverConfig(blow_up_threshold=1e3))
        high = method1_solve(preset.dae, decomp, mesh, preset.x0,
                             SolverConfig(blow_up_threshold=1e6))
        assert len(low) <= len(high)
        np.testing.assert_array_equal(low.states, high.states[:len(low)])

    def test_huge_threshold(self, sec5_preset, sec5_decomp):
        # the squared threshold overflows to inf; it is capped, not an error
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 100),
                             sec5_preset.x0, SolverConfig(blow_up_threshold=1e200))
        assert traj.status.completed

    @pytest.mark.parametrize("x0, outcome, norm", [
        ([1e200], SolveOutcome.COMPLETED, 1e200),
        ([3e200, -4e200], SolveOutcome.COMPLETED, 5e200),
        ([-3e304, 4e304], SolveOutcome.BLOW_UP, 1.125e305),
    ])
    def test_norm_test_does_not_overflow(self, x0, outcome, norm):
        # a squared norm overflows above ~1.34e154; the node test's norm must not,
        # nor warn: a finite state below the threshold runs on, one that grows
        # above it (x 1.5 a step) blows up at t = 0.5, and max_norm stays finite
        n = len(x0)
        b = -2.0 * np.eye(n) if outcome is SolveOutcome.BLOW_UP else np.zeros((n, n))
        dae = SemilinearDAE(pencil=MatrixPencil(a=np.eye(n), b=b),
                            f=lambda t, x: np.zeros(n), jac_f=lambda t, x: np.zeros((n, n)))
        traj = method1_solve(dae, projectors_algebraic(dae.pencil), Mesh(0.0, 1.0, 4),
                             np.array(x0), SolverConfig(blow_up_threshold=1e305))
        assert traj.status.outcome is outcome
        assert len(traj) == (5 if outcome is SolveOutcome.COMPLETED else 3)
        assert traj.max_norm == pytest.approx(norm, rel=1e-15)

    @pytest.mark.parametrize("x0, threshold, norm", [([-3e305, 4e305], 1e300, "5e+305"),
                                                     ([2e6, 0.0], 1e6, "2e+06")])
    def test_x0_above_the_threshold_is_refused(self, x0, threshold, norm):
        # not a blow-up at t = 0: the input is refused, and its norm neither
        # overflows nor warns
        dae = SemilinearDAE(pencil=MatrixPencil(a=np.eye(2), b=np.array([[1.0, 0.3], [0, 2]])),
                            f=lambda t, x: np.zeros(2), jac_f=lambda t, x: np.zeros((2, 2)))
        message = f"initial state norm {norm} exceeds blow_up_threshold {threshold:.6g}"
        with pytest.raises(InconsistentInitialStateError, match=f"^{re.escape(message)}$"):
            solve(dae, projectors_algebraic(dae.pencil), Mesh(0.0, 1.0, 4), np.array(x0),
                  SolverConfig(blow_up_threshold=threshold))

    def test_residuals_of_huge_finite_states_are_finite(self):
        # Euler multiplies x1 by 1.5 a step, to ~1e176; x2 = 0.4 x1 / 0.9 on the
        # constraint. Each residual is the row norm of Q2 (B x - f) at its node:
        # no square of a residual overflows to inf, and no node test warns
        f_mat = np.array([[0.0, 0.0], [0.7, 0.1]])
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.array([[-50.0, 0.0], [0.3, 1.0]]))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: f_mat @ x, jac_f=lambda t, x: f_mat)
        decomp = projectors_algebraic(pencil)
        traj = solve(dae, decomp, Mesh(0.0, 10.0, 1000), np.array([1.0, 0.4 / 0.9]),
                     SolverConfig(blow_up_threshold=1e300))
        assert traj.status.completed and traj.max_norm > 1e176
        want = _row_norms(np.array([decomp.q2 @ (pencil.b @ x - f_mat @ x)
                                    for x in traj.states]))
        assert np.isfinite(traj.residuals).all()
        np.testing.assert_array_equal(traj.residuals, want)

    def test_max_norm_of_a_tiny_state(self):
        # 1e-200 squared underflows to 0; the norm must not
        dae = SemilinearDAE(pencil=MatrixPencil(a=np.eye(1), b=np.zeros((1, 1))),
                            f=lambda t, x: np.zeros(1), jac_f=lambda t, x: np.zeros((1, 1)))
        traj = method1_solve(dae, projectors_algebraic(dae.pencil), Mesh(0.0, 1.0, 4),
                             np.array([1e-200]))
        assert traj.status.completed and traj.max_norm == 1e-200

    def test_bounded_run_completes(self, sec5_preset, sec5_decomp):
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 5.0, 5000),
                             sec5_preset.x0)
        assert traj.status.completed

    def test_zero_problem_completes_at_zero(self):
        pencil = MatrixPencil(a=np.eye(2), b=np.zeros((2, 2)))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.zeros(2),
                            jac_f=lambda t, x: np.zeros((2, 2)))
        decomp = projectors_algebraic(pencil)
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.zeros(2))
        assert traj.status.completed
        assert traj.max_norm == 0.0


class TestCorrectorFailure:
    def test_singular_restricted_newton_truncates(self):
        # constraint x2 = f2 with df2/dx2 = 1 makes [I - Ginv dQ2f/dx] vanish on X2
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil,
                            f=lambda t, x: np.array([0.0, x[1]]),
                            jac_f=lambda t, x: np.array([[0.0, 0.0], [0.0, 1.0]]))
        decomp = projectors_algebraic(pencil)
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0, 0.0]))
        assert traj.status.outcome is SolveOutcome.CORRECTOR_FAILED
        assert traj.status.failed_step == 1
        assert len(traj) == 1  # truncated, never padded

    def test_non_finite_node_fails_the_step_that_made_it(self):
        # node 1 is finite (norm 2.5e149, below the threshold); f overflows
        # there, so step 2 makes a NaN node: a failure, not a blow-up
        pencil = MatrixPencil(a=np.array([[1.0, -1.0], [0.0, 1.0]]), b=np.eye(2))
        f_mat = np.array([[0.0, 1e300], [0.0, -1e300]])
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: f_mat @ x,
                            jac_f=lambda t, x: f_mat)
        decomp = projectors_algebraic(pencil)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 4), np.array([1e-150, 1e-150]),
                                 SolverConfig(blow_up_threshold=1e300))
        assert traj.status.outcome is SolveOutcome.CORRECTOR_FAILED
        assert traj.status.failed_step == 2 and traj.status.blow_up_time is None
        np.testing.assert_array_equal(traj.times, [0.0, 0.25])
        assert np.all(np.isfinite(traj.states)) and traj.max_norm == 2.5e149

    def test_iterate_corrector_residual_enforced(self, sec5_preset, sec5_decomp):
        config = SolverConfig(tol=1e-12, max_iter=50)
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 200),
                             np.array([0.5, -0.5, 0.25]), config)
        assert traj.status.completed
        norm_b = np.linalg.norm(sec5_preset.dae.pencil.b, 2)
        assert traj.residuals.max() <= 1e-12 * (1.0 + norm_b) * 10


def test_row_norms():
    # numpy's value in [sqrt(tiny), inf), the scaled one outside it
    rng = np.random.default_rng(3)
    rows = rng.uniform(-2.0, 2.0, (200, 3)) * 10.0 ** rng.integers(-150, 150, (200, 1))
    np.testing.assert_array_equal(_row_norms(rows), np.linalg.norm(rows, axis=1))
    # the squares of the first two over- and underflow inside numpy's norm; a
    # library caller sees the repaired values and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _row_norms(np.array([[3e200, 4e200], [3e-200, -4e-200], [0.0, -0.0],
                                     [np.inf, 1.0], [np.nan, 1.0]]))
    np.testing.assert_allclose(norms[:2], [5e200, 5e-200], rtol=1e-15)
    assert norms[2] == 0.0 and norms[3] == np.inf and np.isnan(norms[4])


def test_node_residuals_take_the_row_norms():
    # r^T r of (2e154, 0, 0) overflows to inf and that of (1e-170, 0, 0)
    # underflows to 0; the row norms keep both, and warn of neither
    states = np.array([[2e154, 0.0, 0.0], [1e-170, 0.0, 0.0], [3.0, -4.0, 0.0]])
    residuals = integrators._node_residuals(np.eye(3), np.eye(3), states, np.zeros((3, 3)))
    np.testing.assert_array_equal(residuals, [2e154, 1e-170, 5.0])


def test_solve_dispatches_on_method(sec5_preset, sec5_decomp):
    mesh = Mesh(0.0, 0.5, 100)
    t1 = solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0,
               SolverConfig(method=Method.METHOD1))
    t1_direct = method1_solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0)
    np.testing.assert_array_equal(t1.states, t1_direct.states)
    t2 = solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0,
               SolverConfig(method=Method.METHOD2))
    t2_direct = method2_solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0)
    np.testing.assert_array_equal(t2.states, t2_direct.states)


def affine_cubic_problem(seed=7, n=8, k=3):
    """Seeded n x n index-1 pencil with f = c + F x + 0.05 x^3 (entrywise)."""
    rng = np.random.default_rng(seed)
    pencil, _, _, _ = random_index1_pencil(rng, n=n, k=k)
    f_const = rng.uniform(-1.0, 1.0, n)
    f_mat = rng.uniform(-0.2 / n, 0.2 / n, (n, n))
    dae = SemilinearDAE(pencil=pencil,
                        f=lambda t, x: f_const + f_mat @ x + 0.05 * x ** 3,
                        jac_f=lambda t, x: f_mat + np.diag(0.15 * x ** 2))
    decomp = projectors_algebraic(pencil)
    z0 = decomp.p1 @ rng.uniform(-1.0, 1.0, n)
    return dae, decomp, z0 + consistent_initialize(dae, decomp, 0.0, z0)


SHAPES = {"n1_k1": dict(n=1, k=1), "n3_k1": dict(n=3, k=1), "n4_k1": dict(n=4, k=1),
          "n8_k3": dict(n=8, k=3)}


def assert_matches_reference(traj, ref, outcome, detail=None):
    """Every row of the kernel's trajectory agrees with the oracle's to 1e-12."""
    times, states, zs, us, residuals, ref_outcome, ref_detail = ref
    assert traj.status.outcome.value == ref_outcome == outcome
    if outcome == "blow_up":
        assert traj.status.blow_up_time == ref_detail
    if outcome == "corrector_failed":
        assert traj.status.failed_step == ref_detail == detail
    assert len(traj) == len(times)
    np.testing.assert_array_equal(traj.times, times)
    scale = 1.0 + np.abs(states).max(axis=1)       # per row
    for got, want in ((traj.states, states), (traj.z_history, zs), (traj.u_history, us)):
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * scale)
    assert np.all(np.abs(traj.residuals - residuals) <= 1e-12 * (scale + residuals))


class TestKernelEquivalence:
    """The kernel against the plain per-step oracle in ``reference_stepper``."""

    CORRECTORS = {"single": (None, 1), "iterate": (1e-12, 20)}

    @pytest.mark.parametrize("corrector", ["single", "iterate"])
    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    # n1_k1 and n3_k1 take the step on Python floats, n4_k1 and n8_k3 the numpy step
    @pytest.mark.parametrize("problem", ["linear_index0", "sec5_cubic", "n1_k1", "n3_k1",
                                         "n4_k1", "n8_k3"])
    def test_matches_reference(self, problem, method, corrector):
        if problem in SHAPES:
            dae, decomp, x0 = affine_cubic_problem(**SHAPES[problem])
        else:
            preset = get_preset(problem)
            dae, decomp = preset.dae, projectors_algebraic(preset.dae.pencil)
            x0 = preset.x0 if problem == "linear_index0" else np.array([0.5, -0.5, 0.25])
        tol, max_iter = self.CORRECTORS[corrector]
        mesh = Mesh(0.0, 1.0, 400)
        traj = solve(dae, decomp, mesh, x0, SolverConfig(method=method, tol=tol,
                                                         max_iter=max_iter))
        ref = reference_solve(dae, decomp, mesh, x0, leapfrog=method is Method.METHOD2,
                              tol=tol, max_iter=max_iter)
        assert_matches_reference(traj, ref, "completed")

    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    def test_blow_up_rows(self, method):
        preset = get_preset("sec6_blowup")
        decomp = projectors_algebraic(preset.dae.pencil)
        mesh = Mesh(0.0, 2.0, 2000)
        traj = solve(preset.dae, decomp, mesh, preset.x0, SolverConfig(method=method))
        ref = reference_solve(preset.dae, decomp, mesh, preset.x0,
                              leapfrog=method is Method.METHOD2)
        assert_matches_reference(traj, ref, "blow_up")
        assert np.all(np.isfinite(traj.residuals))

    @staticmethod
    def late_jacobian_rows(method, late_df2dx2, tol=None, max_iter=1):
        """A linear constraint x2 = 0.3 x1 + 0.25 x2 + 0.1 cos t whose Jacobian
        entry df2/dx2 is exact before t = 0.5 and ``late_df2dx2`` from then on,
        solved by the kernel and the oracle on 100 steps of [0, 1]."""
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.array([[0.5, 0.0], [0.0, 1.0]]))

        def jac(t, x):
            return np.array([[0.0, 0.0], [0.3, 0.25 if t < 0.5 else late_df2dx2]])

        dae = SemilinearDAE(pencil=pencil,
                            f=lambda t, x: np.array([math.sin(t), 0.3 * x[0] + 0.25 * x[1]
                                                     + 0.1 * math.cos(t)]),
                            jac_f=jac)
        decomp = projectors_algebraic(pencil)
        x0 = np.array([1.0, (0.3 + 0.1) / 0.75])
        mesh = Mesh(0.0, 1.0, 100)
        traj = solve(dae, decomp, mesh, x0, SolverConfig(method=method, tol=tol,
                                                         max_iter=max_iter))
        ref = reference_solve(dae, decomp, mesh, x0, leapfrog=method is Method.METHOD2,
                              tol=tol, max_iter=max_iter)
        return traj, ref

    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    def test_corrector_failure_rows(self, method):
        # the Jacobian turns non-finite from t = 0.5 on, so step 50 fails
        traj, ref = self.late_jacobian_rows(method, np.nan)
        assert_matches_reference(traj, ref, "corrector_failed", detail=50)
        assert len(traj) == 50

    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    def test_missed_tolerance_rows(self, method):
        # from t = 0.5 on the Newton pivot is 7.5 for a true 0.75: each
        # correction shrinks the residual by 0.9 only, so 20 corrections miss
        # 1e-12 and step 50 fails with NoConvergenceError
        tol, max_iter = self.CORRECTORS["iterate"]
        traj, ref = self.late_jacobian_rows(method, -6.5, tol, max_iter)
        assert_matches_reference(traj, ref, "corrector_failed", detail=50)
        assert len(traj) == 50

    @pytest.mark.parametrize("corrector", ["single", "iterate"])
    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    def test_singular_k2_newton_matrix_fails_the_step(self, method, corrector):
        # the 2 x 2 Newton matrix is exactly singular from t = 0.55 on, so the
        # correction at t = 0.6 (step 6) fails, with no warning
        dae, decomp, x0 = singular_k2_problem(t_singular=0.55)
        tol, max_iter = self.CORRECTORS[corrector]
        mesh = Mesh(0.0, 1.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve(dae, decomp, mesh, x0, SolverConfig(method=method, tol=tol,
                                                             max_iter=max_iter))
        ref = reference_solve(dae, decomp, mesh, x0, leapfrog=method is Method.METHOD2,
                              tol=tol, max_iter=max_iter)
        assert_matches_reference(traj, ref, "corrector_failed", detail=6)
        assert len(traj) == 6

    def test_model_arithmetic_error_fails_the_step(self):
        # f raises like a Python-float power that overflows; the run stops at
        # the step whose state it was evaluated at instead of raising
        def f(t, x):
            if t > 0.25:
                raise OverflowError("(34, 'Numerical result out of range')")
            return np.array([0.0, 0.5 * x[0]])

        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=f,
                            jac_f=lambda t, x: np.array([[0.0, 0.0], [0.5, 0.0]]))
        decomp = projectors_algebraic(pencil)
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0, 0.5]))
        assert traj.status.outcome is SolveOutcome.CORRECTOR_FAILED
        assert traj.status.failed_step == 3   # the correction at t = 0.3 raised
        assert len(traj) == 3
        assert np.all(np.isfinite(traj.residuals))

    def test_non_finite_forward_difference_fails_the_step(self):
        # without jac_f the forward difference of f overflows at x1 = 700; the
        # run ends as corrector_failed, as a non-finite analytic Jacobian does
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.array(
            [10.0 * x[0], 0.5 * x[1] + 1e-300 * np.exp(x[0])]))
        decomp = projectors_algebraic(pencil)
        x0 = np.array([700.0, 2e-300 * np.exp(700.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 50), x0,
                                 SolverConfig(blow_up_threshold=1e308))
        assert traj.status.outcome is SolveOutcome.CORRECTOR_FAILED
        assert traj.status.failed_step == 1
        assert len(traj) == 1

    def test_model_error_at_the_initial_point_is_inconsistent(self):
        # f has a pole at t = 0; the initial point cannot be checked
        def f(t, x):
            return np.array([0.0, x[1] + 1.0 / t])

        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        decomp = projectors_algebraic(pencil)
        with pytest.raises(InconsistentInitialStateError, match="ZeroDivisionError"):
            method1_solve(SemilinearDAE(pencil=pencil, f=f), decomp, Mesh(0.0, 1.0, 4),
                          np.array([1.0, 0.0]))


def blocks_problem(name):
    """(dae, decomp, mesh, x0, config) of a run that ends as ``name`` says, early or late."""
    if name == "non-finite-node":   # node 2 is NaN: the run keeps nodes 0 and 1
        pencil = MatrixPencil(a=np.array([[1.0, -1.0], [0.0, 1.0]]), b=np.eye(2))
        f_mat = np.array([[0.0, 1e300], [0.0, -1e300]])
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: f_mat @ x, jac_f=lambda t, x: f_mat)
        return (dae, projectors_algebraic(pencil), Mesh(0.0, 1.0, 4),
                np.array([1e-150, 1e-150]), SolverConfig(blow_up_threshold=1e300))
    preset = get_preset("sec6_blowup" if name in ("blow-up", "corrector-failure")
                        else "sec5_cubic")
    decomp = projectors_algebraic(preset.dae.pencil)
    if name in ("blow-up", "corrector-failure"):   # at node ~40 of 100
        return (preset.dae, decomp, Mesh(0.0, 0.2, 100), preset.x0,
                SolverConfig(tol=1e-10 if name == "corrector-failure" else None))
    method = Method.METHOD2 if name == "method2-iterate" else Method.METHOD1
    return (preset.dae, decomp, Mesh(0.0, 1.0, 40), np.array([0.5, -0.5, 0.25]),
            SolverConfig(method=method, tol=1e-12 if name == "method2-iterate" else None))


class TestBlocks:
    """The step loop's blocks of ``_BLOCK`` nodes, as ``integrators._run`` yields them."""

    OUTCOMES = {"method1": "completed", "method2-iterate": "completed", "blow-up": "blow_up",
                "corrector-failure": "corrector_failed", "non-finite-node": "corrector_failed"}

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(OUTCOMES))
    def test_blocks_own_their_arrays_and_make_up_the_run(self, monkeypatch, name, block):
        with np.errstate(over="ignore", invalid="ignore"):
            want = solve(*blocks_problem(name))   # in blocks of 4096
            monkeypatch.setattr(integrators, "_BLOCK", block)
            blocks = list(integrators._run(*blocks_problem(name)))
        assert want.status.outcome.value == self.OUTCOMES[name]
        # contiguous from node 0, full but the last, the status in the last alone
        firsts = [first for first, *_ in blocks]
        assert firsts == list(range(0, block * len(blocks), block))
        assert [len(z) for _, z, *_ in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert [status for *_, status in blocks[:-1]] == [None] * (len(blocks) - 1)
        assert blocks[-1][-1].to_json() == want.status.to_json()
        # no two blocks share memory
        for (i, *one), (j, *other) in itertools.combinations(blocks, 2):
            assert not any(np.shares_memory(a, b) for a in one[:3] for b in other[:3]), (i, j)
        # their arrays, concatenated, are the run's bit for bit
        for part, whole in zip(zip(*(b[1:4] for b in blocks)),
                               (want.z_history, want.coords, want.residuals)):
            assert np.concatenate(part).shape == whole.shape
            assert np.concatenate(part).tobytes() == whole.tobytes()

    def test_a_library_solve_forks_nothing(self, monkeypatch, sec5_preset, sec5_decomp):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        traj = solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 9000), sec5_preset.x0,
                     SolverConfig())
        assert traj.status.completed and forks == []


class TestEndPaths:
    """Runs whose f raises at a kept node's own evaluation: the second call at that
    node's time (the first is the correction's).  The node is kept with residual inf,
    and f is not called again."""

    @staticmethod
    def run(g, mesh, fail_node, threshold):
        # x1' = (g - 1) x1 and x2 = 0.5 x1, from a consistent x0
        calls, fail_t = {}, mesh.times()[fail_node]

        def f(t, x):
            calls[t] = calls.get(t, 0) + 1
            if t == fail_t and calls[t] == 2:
                raise ZeroDivisionError("float division by zero")
            return np.array([g * x[0], 0.5 * x[0]])

        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=f,
                            jac_f=lambda t, x: np.array([[g, 0.0], [0.5, 0.0]]))
        traj = method1_solve(dae, projectors_algebraic(pencil), mesh, np.array([1.0, 0.5]),
                             SolverConfig(blow_up_threshold=threshold))
        return traj, calls

    @pytest.mark.parametrize("g, mesh, fail_node, threshold, status", [
        (0.5, Mesh(0.0, 1.0, 8), 5, 1e6, {"outcome": "corrector_failed", "failed_step": 6}),
        (0.5, Mesh(0.0, 1.0, 8), 8, 1e6, {"outcome": "completed"}),
        (3.0, Mesh(0.0, 4.0, 32), 18, 60.0, {"outcome": "blow_up", "blow_up_time": 2.25}),
    ], ids=["before-the-end", "at-the-end", "at-the-blow-up"])
    def test_f_failing_at_a_kept_node(self, monkeypatch, g, mesh, fail_node, threshold, status):
        runs = []
        for block in (1, 2, 3, 4096):
            monkeypatch.setattr(integrators, "_BLOCK", block)
            traj, calls = self.run(g, mesh, fail_node, threshold)
            assert traj.status.to_json() == status
            assert len(traj) == fail_node + 1 and traj.residuals[-1] == np.inf
            assert np.isfinite(traj.residuals[:-1]).all()
            # once at t0, twice at each later node time up to the failing one, then never
            times = mesh.times().tolist()
            assert calls == {t: 1 if i == 0 else 2 for i, t in enumerate(times[:fail_node + 1])}
            runs.append([a.tobytes() for a in (traj.z_history, traj.coords, traj.residuals)])
        assert runs[1:] == runs[:1] * 3


def node_loop_forms(monkeypatch) -> list:
    """The forms of the node loops that ``integrators._run`` takes from now on, in order."""
    forms, node_loop = [], integrators._node_loop
    monkeypatch.setattr(integrators, "_node_loop",
                        lambda form, *shape: forms.append(form) or node_loop(form, *shape))
    return forms


def call_form_problem(name):
    """(dae, decomp, mesh, x0, config) of a run whose model has a float form and that ends
    as ``name`` says; each call makes the model anew."""
    if name == "non-finite-node":   # TestBlocks' run on floats: node 2 is NaN
        pencil = MatrixPencil(a=np.array([[1.0, -1.0], [0.0, 1.0]]), b=np.eye(2))
        dae = _on_floats(pencil, lambda t, x1, x2: (1e300 * x2, -1e300 * x2),
                         lambda t, x1, x2: (0.0, 1e300, 0.0, -1e300))
        return (dae, projectors_algebraic(pencil), Mesh(0.0, 1.0, 4),
                np.array([1e-150, 1e-150]), SolverConfig(blow_up_threshold=1e300))
    if name.startswith("f-fails"):   # TestEndPaths' runs on floats: f fails at the last node
        g, mesh, fail_node, threshold = ((3.0, Mesh(0.0, 4.0, 32), 18, 60.0)
                                         if name == "f-fails-at-the-blow-up"
                                         else (0.5, Mesh(0.0, 1.0, 8), 8, 1e6))
        calls, fail_t = {}, mesh.times()[fail_node]

        def f(t, x1, x2):
            calls[t] = calls.get(t, 0) + 1
            if t == fail_t and calls[t] == 2:
                raise ZeroDivisionError("float division by zero")
            return g * x1, 0.5 * x1

        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        return (_on_floats(pencil, f, lambda t, x1, x2: (g, 0.0, 0.5, 0.0)),
                projectors_algebraic(pencil), mesh, np.array([1.0, 0.5]),
                SolverConfig(blow_up_threshold=threshold))
    if name in TestBlocks.OUTCOMES:
        return blocks_problem(name)
    preset_id, method, corrector = name.split()   # "<preset> <method> <corrector>"
    preset = get_preset(preset_id)
    tol, max_iter = TestKernelEquivalence.CORRECTORS[corrector]
    return (preset.dae, projectors_algebraic(preset.dae.pencil), Mesh(0.0, 1.0, 40), preset.x0,
            SolverConfig(method=Method(method), tol=tol, max_iter=max_iter))


class TestCallForms:
    """A model with a float form (``dae_model._on_floats``) against the same model on the
    ndarray boundary, its f and Jacobian wrapped in plain callables as the benchmark's
    tracer wraps them: the same blocks and statuses, bit for bit."""

    OUTCOMES = {**TestBlocks.OUTCOMES, "f-fails-at-the-end": "completed",
                "f-fails-at-the-blow-up": "blow_up",
                **{f"{preset_id} {method} {corrector}": "completed"
                   for preset_id in ("sec5_cubic", "linear_index0", "toy_index1")
                   for method in ("method1", "method2") for corrector in ("single", "iterate")}}

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 4096])
    @pytest.mark.parametrize("name", sorted(OUTCOMES))
    def test_both_forms_give_the_same_blocks(self, monkeypatch, name, block):
        forms = node_loop_forms(monkeypatch)
        monkeypatch.setattr(integrators, "_BLOCK", block)
        runs = []
        for wrapped in (False, True):
            dae, *problem = call_form_problem(name)
            if wrapped:
                dae = SemilinearDAE(dae.pencil, lambda t, x, f=dae.f: f(t, x),
                                    lambda t, x, jac=dae.jac_f: jac(t, x))
            with np.errstate(over="ignore", invalid="ignore"):
                runs.append([(first, z.tobytes(), c.tobytes(), residuals.tobytes(),
                              status and status.to_json())
                             for first, z, c, residuals, status in integrators._run(dae, *problem)])
        assert forms == ["floats", "ndarray"]
        assert runs[0][-1][-1]["outcome"] == self.OUTCOMES[name]
        assert runs[1] == runs[0]


class TestEvaluationCounts:
    @staticmethod
    def counted(dae):
        counts = {"f": 0, "jac": 0}

        def f(t, x):
            counts["f"] += 1
            return dae.f(t, x)

        def jac(t, x):
            counts["jac"] += 1
            return dae.jac_f(t, x)

        return SemilinearDAE(pencil=dae.pencil, f=f, jac_f=jac), counts

    def test_method1_single_step_index1(self, sec5_preset, sec5_decomp):
        # 2 f and 1 Jacobian per step, plus f at the final node for its residual
        dae, counts = self.counted(sec5_preset.dae)
        n_steps = 500
        traj = method1_solve(dae, sec5_decomp, Mesh(0.0, 1.0, n_steps),
                             np.array([0.5, -0.5, 0.25]))
        assert traj.status.completed
        assert counts == {"f": 2 * n_steps + 1, "jac": n_steps}

    @pytest.mark.parametrize("tol", [None, 1e-10], ids=["single", "iterate"])
    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    @pytest.mark.parametrize("n, k", [(3, 1), (8, 3)], ids=["plain-step", "numpy-step"])
    def test_each_step_takes_2_f_and_1_jacobian(self, n, k, method, tol):
        # affine f: with a tol, one correction, then the converged test, whose f the
        # next z-step and the final residual reuse: 2 f per step plus f(t0, x0), as
        # with one correction a step
        dae, decomp = affine_problem(np.random.default_rng(3), n=n, k=k)
        z0 = decomp.p1 @ np.linspace(-1.0, 1.0, n)
        x0 = z0 + consistent_initialize(dae, decomp, 0.0, z0)
        dae, counts = self.counted(dae)
        n_steps = 200
        traj = solve(dae, decomp, Mesh(0.0, 1.0, n_steps), x0,
                     SolverConfig(method=method, tol=tol))
        assert traj.status.completed
        assert counts == {"f": 2 * n_steps + 1, "jac": n_steps}

    def test_method1_index0(self):
        preset = get_preset("linear_index0")
        dae, counts = self.counted(preset.dae)
        traj = method1_solve(dae, projectors_algebraic(dae.pencil), Mesh(0.0, 1.0, 300),
                             preset.x0)
        assert traj.status.completed
        assert counts == {"f": 301, "jac": 0}


class TestStepChoice:
    """The step is chosen by the problem's shape: on Python floats for k <= 1 and n <= 3,
    else numpy's z-step and ``X2Newton.correct``; the float step calls the model on floats
    where it has a float form, else on ndarrays."""

    @staticmethod
    def corrections(monkeypatch, dae, decomp, x0, n_steps=20):
        """(calls of X2Newton.correct, forms of the node loop taken) of a run."""
        calls, correct = [], X2Newton.correct
        monkeypatch.setattr(X2Newton, "correct",
                            lambda *args, **kwargs: calls.append(1) or correct(*args, **kwargs))
        forms = node_loop_forms(monkeypatch)
        traj = solve(dae, decomp, Mesh(0.0, 0.02, n_steps), x0, SolverConfig())
        assert traj.status.completed
        return len(calls), forms

    @pytest.mark.parametrize("preset_id", PRESET_IDS)
    def test_every_preset_takes_the_plain_step(self, monkeypatch, preset_id):
        preset = get_preset(preset_id)
        decomp = projectors_algebraic(preset.dae.pencil)
        assert decomp.x2_basis.shape[1] <= 1 and preset.dae.n <= integrators._PLAIN_MAX_N
        assert self.corrections(monkeypatch, preset.dae, decomp, preset.x0) == (0, ["floats"])

    @pytest.mark.parametrize("problem", ["cli-inline", "n1_k1", "n3_k1"])
    def test_a_small_model_on_ndarrays_takes_the_plain_step(self, monkeypatch, problem):
        if problem == "cli-inline":   # a config's inline model, n = 2 and k = 1
            pencil, f, jac = cli._inline_model({"a": [[1, 0], [0, 0]], "b": [[-1, 1], [1, 1]],
                                                "f_const": [0.5, 0.0]})
            dae, decomp, x0 = (SemilinearDAE(pencil, f, jac), projectors_algebraic(pencil),
                               np.array([1.0, -1.0]))
        else:
            dae, decomp, x0 = affine_cubic_problem(**SHAPES[problem])
        assert self.corrections(monkeypatch, dae, decomp, x0) == (0, ["ndarray"])

    @pytest.mark.parametrize("problem", ["n4_k1", "n8_k3"])
    def test_larger_shapes_take_the_numpy_step(self, monkeypatch, problem):
        dae, decomp, x0 = affine_cubic_problem(**SHAPES[problem])
        assert self.corrections(monkeypatch, dae, decomp, x0) == (20, ["numpy"])


class TestPlainStep:
    """The plain node loop's correction against ``X2Newton.correct`` at one point: with the
    identity for its Euler matrix and no drive its z-step keeps z, so both correct the
    same (t, z, c).  The loop is compiled to catch no error, so each raises its own."""

    @staticmethod
    def outcomes(monkeypatch, dae, decomp, t, z, c, tol=None, max_iter=50):
        newton, n = X2Newton(decomp), dae.n
        u = newton.lift(c)
        monkeypatch.setattr(integrators, "_STEP_ERRORS", ())
        nodes = integrators._node_loop.__wrapped__("ndarray", n, 1)(
            dae.f, dae.jac_f, tol, max_iter, math.inf, False,
            [np.eye(n).ravel().tolist(), *[[0.0] * (n * n)] * 3, newton.coeff.tolist(),
             newton.basis.tolist()])

        def one_step():  # (c, u, x, fx) of node 1, made from node 0 at time t
            state = nodes([0.0, t], 0, 2, 1, None, (*z.tolist(), *z.tolist(), c,
                                                     *u.tolist(), *(z + u).tolist(), [0.0] * n),
                          [], [], [])[0]
            return state[2 * n], list(state[2 * n + 1:3 * n + 1]), state[3 * n + 1:-1], state[-1]
        seen = []
        for call in (lambda: newton.correct(dae.f, dae.jac_f, t, z, c, u, tol, max_iter),
                     one_step):
            try:
                seen.append(call())
            except Exception as exc:
                seen.append((type(exc), str(exc), getattr(exc, "last_residual", None)))
        return seen

    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_the_results_are_the_correction(self, monkeypatch, tol):
        dae, decomp, x0 = affine_cubic_problem(n=3, k=1)
        z = decomp.p1 @ (x0 + 0.1)
        (c, u, x, fx), (c_p, u_p, x_p, fx_p) = self.outcomes(monkeypatch, dae, decomp, 0.3, z,
                                                             0.2, tol)
        assert type(c_p) is float and {type(v) for v in (*u_p, *x_p)} == {float}
        assert abs(c_p - c) <= 1e-15
        np.testing.assert_allclose(np.array([u_p, x_p]), np.array([u, x]), rtol=0, atol=1e-15)
        if tol is None:
            assert fx is None and fx_p is None
        else:
            np.testing.assert_allclose(fx_p, fx, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("df2dx2, c, tol, max_iter, error", [
        (np.nan, 0.25, None, 50, SingularNewtonMatrixError),     # a non-finite Jacobian
        (1.0, 0.25, None, 50, SingularNewtonMatrixError),        # a zero pivot
        (1.0 - 2.0 ** -52, 1e300, None, 50, SingularNewtonMatrixError),  # an infinite step
        (-6.5, 0.25, 1e-12, 3, NoConvergenceError),              # tol missed 3 times
        ("raise", 0.25, None, 50, OverflowError),                # what f raised
    ], ids=["nan-jacobian", "zero-pivot", "infinite-step", "missed-tol", "f-raises"])
    def test_the_failures_are_the_correction(self, monkeypatch, df2dx2, c, tol, max_iter, error):
        # the constraint x2 = 0.25 x2 + 0.3 x1 + 0.1, with the given df2/dx2
        def f(t, x):
            if df2dx2 == "raise":
                raise OverflowError("(34, 'Numerical result out of range')")
            return np.array([0.0, 0.3 * x[0] + 0.25 * x[1] + 0.1])

        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=f,
                            jac_f=lambda t, x: np.array([[0.0, 0.0], [0.3, df2dx2]]))
        z = np.array([1.0, 0.0])
        with np.errstate(all="ignore"):
            numpy_seen, plain_seen = self.outcomes(monkeypatch, dae, projectors_algebraic(pencil),
                                                   0.5, z, c, tol, max_iter)
        assert numpy_seen[0] is plain_seen[0] is error
        assert numpy_seen[1] == plain_seen[1]   # the message
        assert plain_seen[2] == pytest.approx(numpy_seen[2], rel=1e-12)   # last_residual


class TestInChild:
    """``_in_child``: a forked child's value, else the caller's own work."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_child_value_is_the_in_process_value(self):
        work = lambda: (os.getpid(), np.linspace(0.0, 1.0, 7) / 3.0)  # noqa: E731
        with _in_child(work) as result:
            caller_pid, own = work()
            child_pid, value = result()
        assert child_pid != caller_pid == os.getpid()
        assert value.tobytes() == own.tobytes()
        self.assert_no_child_left()

    @pytest.mark.parametrize("in_child", [
        lambda: 1 / 0,
        lambda: os._exit(3),
        lambda: os.kill(os.getpid(), signal.SIGKILL),
        lambda: lambda: None,   # a value that cannot be pickled
    ], ids=["raises", "exit3", "sigkill", "unpicklable"])
    @pytest.mark.parametrize("caller_raises", [False, True])
    def test_a_child_without_a_value_leaves_the_work_to_the_caller(
            self, capfd, in_child, caller_raises):
        parent = os.getpid()

        def work():
            if os.getpid() != parent:
                return in_child()
            if caller_raises:
                raise LookupError("the caller's own error")
            return "the caller's own value"

        with _in_child(work) as result:
            if caller_raises:
                with pytest.raises(LookupError, match="^the caller's own error$"):
                    result()
            else:
                assert result() == "the caller's own value"
        self.assert_no_child_left()
        assert capfd.readouterr() == ("", "")   # the child printed no traceback

    def slow_in_child(self):
        parent = os.getpid()
        return lambda: time.sleep(60) if os.getpid() != parent else "caller"

    def test_leaving_the_block_by_an_exception_kills_the_child(self):
        start = time.monotonic()
        with pytest.raises(RuntimeError):
            with _in_child(self.slow_in_child()):
                raise RuntimeError
        self.assert_no_child_left()
        assert time.monotonic() - start < 30

    def test_an_interrupt_while_joining_kills_the_child(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        start, previous = time.monotonic(), signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(KeyboardInterrupt):
                with _in_child(self.slow_in_child()) as result:
                    result()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.assert_no_child_left()
        assert time.monotonic() - start < 30

    def test_a_failed_fork_closes_the_temp_file(self, monkeypatch):
        made, temporary_file = [], tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda: made.append(temporary_file()) or made[-1])

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        with _in_child(os.getpid) as result:
            assert result() == os.getpid()   # the work, run in process
        assert len(made) == 1 and made[0].closed

    def test_no_child_with_a_second_thread(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with _in_child(os.getpid) as result:
                assert result() == os.getpid()
        finally:
            release.set()
            thread.join()
        with _in_child(os.getpid) as result:   # the thread is gone: a child again
            assert result() != os.getpid()
