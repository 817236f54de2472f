import math
import os
import re
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from pencildae import (InconsistentInitialStateError, MatrixPencil, Mesh, Method,
                       SemilinearDAE, SolveOutcome, SolverConfig, VoltageWaveform,
                       consistent_initialize, get_preset, jacobian, method1_solve,
                       method2_solve, projectors_algebraic, solve)
from pencildae import integrators
from pencildae.dae_model import X2Newton
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

    def test_refined_shares_coarse_nodes(self):
        coarse, fine = Mesh(0.0, 2.0, 10), Mesh(0.0, 2.0, 10).refined(4)
        np.testing.assert_array_equal(coarse.times(), fine.times()[::4])


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
        arrays = (traj.times, traj.z_history, traj.coords, traj.residuals)
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
        assert self.stored_bytes(traj) <= (n + k + 2) * 8 * len(traj)
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
    @pytest.mark.parametrize("problem", ["linear_index0", "sec5_cubic", "n8_k3"])
    def test_matches_reference(self, problem, method, corrector):
        if problem == "n8_k3":
            dae, decomp, x0 = affine_cubic_problem()
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
    """The step loop's blocks of ``_BLOCK`` nodes and the ``on_block`` hook."""

    OUTCOMES = {"method1": "completed", "method2-iterate": "completed", "blow-up": "blow_up",
                "corrector-failure": "corrector_failed", "non-finite-node": "corrector_failed"}

    @staticmethod
    def rows_before(traj, stop):
        return [a[:stop].tobytes() for a in (traj.times, traj.z_history, traj.coords,
                                             traj.residuals)]

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(OUTCOMES))
    def test_block_size_changes_no_output(self, monkeypatch, name, block):
        with np.errstate(over="ignore", invalid="ignore"):
            want = solve(*blocks_problem(name))
            monkeypatch.setattr(integrators, "_BLOCK", block)
            seen = []
            got = solve(*blocks_problem(name), on_block=lambda traj, rows: seen.append(
                (rows, self.rows_before(traj, rows.stop))))
        assert got.status == want.status and got.status.outcome.value == self.OUTCOMES[name]
        assert self.rows_before(got, None) == self.rows_before(want, None)
        # each block that closed before the run's end, in order, with its rows final
        assert [rows for rows, _ in seen] == [slice(i * block, (i + 1) * block)
                                              for i in range(len(seen))]
        assert 0 <= len(got) - len(seen) * block <= block
        for rows, before in seen:
            assert before == self.rows_before(got, rows.stop)

    def test_an_error_of_the_hook_propagates_unchanged(self, sec5_preset, sec5_decomp):
        # raised outside the step's except: not a corrector failure
        def hook(traj, rows):
            raise ValueError("I/O operation on closed file.")
        with pytest.raises(ValueError, match=r"^I/O operation on closed file\.$"):
            solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 9000), sec5_preset.x0,
                  SolverConfig(), on_block=hook)

    def test_no_hook_forks_nothing(self, monkeypatch, sec5_preset, sec5_decomp):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        traj = solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 9000), sec5_preset.x0,
                     SolverConfig())
        assert traj.status.completed and forks == []


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

    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    def test_iterate_reuses_the_converged_f(self, method):
        # affine f: one correction, then the converged test, whose f the next
        # z-step and the final residual reuse: 2 f per step plus f(t0, x0)
        dae, decomp = affine_problem(np.random.default_rng(3), n=8, k=3)
        z0 = decomp.p1 @ np.linspace(-1.0, 1.0, 8)
        x0 = z0 + consistent_initialize(dae, decomp, 0.0, z0)
        dae, counts = self.counted(dae)
        n_steps = 200
        traj = solve(dae, decomp, Mesh(0.0, 1.0, n_steps), x0,
                     SolverConfig(method=method, tol=1e-10))
        assert traj.status.completed
        assert counts == {"f": 2 * n_steps + 1, "jac": n_steps}

    def test_method1_index0(self):
        preset = get_preset("linear_index0")
        dae, counts = self.counted(preset.dae)
        traj = method1_solve(dae, projectors_algebraic(dae.pencil), Mesh(0.0, 1.0, 300),
                             preset.x0)
        assert traj.status.completed
        assert counts == {"f": 301, "jac": 0}


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
