import math

import numpy as np
import pytest

from pencildae import (InconsistentInitialStateError, IterateToTol, MatrixPencil,
                       Mesh, Method, SemilinearDAE, SingleStep, SolveOutcome,
                       SolverConfig, algebraic_update, consistent_initialize, get_preset,
                       method1_solve, method2_solve, projectors_algebraic, solve)

from conftest import random_index1_pencil
from reference_stepper import reference_solve
from test_dae_model import bisect_circuit_constraint


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

    def test_nodes_are_not_accumulated(self):
        mesh = Mesh(0.0, 1.0, 3)
        times = mesh.times()
        for i in range(4):
            assert times[i] == mesh.t0 + i * mesh.h

    def test_refined_shares_coarse_nodes(self):
        coarse, fine = Mesh(0.0, 2.0, 10), Mesh(0.0, 2.0, 10).refined(4)
        np.testing.assert_array_equal(coarse.times(), fine.times()[::4])


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


class TestAlgebraicUpdate:
    def test_affine_constraint_exact_in_one_step(self, sec5_preset, sec5_decomp):
        # constant f: Newton is exact on affine maps, u+ = Ginv Q2 c
        c = np.array([0.3, -0.7, 1.1])
        dae = SemilinearDAE(pencil=sec5_preset.dae.pencil, f=lambda t, x: c,
                            jac_f=lambda t, x: np.zeros((3, 3)))
        u_prev = sec5_decomp.p2 @ np.array([0.0, 0.0, 5.0])
        u_next = algebraic_update(dae, sec5_decomp, 0.0, np.zeros(3), u_prev,
                                  SingleStep())
        expected = sec5_decomp.g_inv @ sec5_decomp.q2 @ c
        np.testing.assert_allclose(u_next, expected, atol=1e-14)

    def test_origin_is_fixed_point_without_drive(self, sec5_decomp):
        from pencildae import build_circuit_dae, CircuitParams
        from pencildae.model_library import odd_power, custom_waveform
        cubic = odd_power(1.0, 3)
        dae = build_circuit_dae(CircuitParams(5e-4, 5e-7, 2.0, 0.2),
                                cubic, cubic, cubic, cubic,
                                custom_waveform(lambda t: 0.0, kind="zero"))
        u_next = algebraic_update(dae, sec5_decomp, 3.0, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(u_next, 0.0, atol=1e-15)

    def test_iterated_update_matches_bisection_oracle(self, sec5_preset, sec5_decomp):
        z_next = sec5_decomp.p1 @ np.array([1.0, 1.0, 0.0])
        u_next = algebraic_update(sec5_preset.dae, sec5_decomp, 0.0, z_next,
                                  np.zeros(3), IterateToTol(tol=1e-13, max_iter=50))
        c_oracle = bisect_circuit_constraint(z_next)
        assert u_next[2] == pytest.approx(c_oracle, abs=1e-10)

    def test_index0_update_is_zero(self):
        dae, decomp = scalar_problem(1.0, 0.0, lambda t, x: x)
        u = algebraic_update(dae, decomp, 0.0, np.array([2.0]), np.array([0.0]))
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

    def test_inconsistent_initial_state_rejected(self, sec5_preset, sec5_decomp):
        with pytest.raises(InconsistentInitialStateError):
            method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 10),
                          np.array([0.0, 1.0, 0.0]))

    def test_non_finite_initial_state_rejected(self, sec5_preset, sec5_decomp):
        # NaN compares false with any tolerance; it must not pass as consistent
        with pytest.raises(InconsistentInitialStateError):
            method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 10),
                          np.array([np.nan, 0.0, 0.0]))


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

    def test_bounded_run_completes(self, sec5_preset, sec5_decomp):
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 5.0, 5000),
                             sec5_preset.x0)
        assert traj.status.completed


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

    def test_iterate_corrector_residual_enforced(self, sec5_preset, sec5_decomp):
        config = SolverConfig(corrector=IterateToTol(tol=1e-12, max_iter=50))
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 200),
                             np.array([0.5, -0.5, 0.25]), config)
        assert traj.status.completed
        norm_b = np.linalg.norm(sec5_preset.dae.pencil.b, 2)
        assert traj.residuals.max() <= 1e-12 * (1.0 + norm_b) * 10


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

    CORRECTORS = {"single": (SingleStep(), None, 1),
                  "iterate": (IterateToTol(tol=1e-12, max_iter=20), 1e-12, 20)}

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
        lib_corrector, tol, max_iter = self.CORRECTORS[corrector]
        mesh = Mesh(0.0, 1.0, 400)
        traj = solve(dae, decomp, mesh, x0, SolverConfig(method=method,
                                                         corrector=lib_corrector))
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

    @pytest.mark.parametrize("method", [Method.METHOD1, Method.METHOD2])
    def test_corrector_failure_rows(self, method):
        # the Jacobian turns non-finite from t = 0.5 on, so step 51 fails
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.array([[0.5, 0.0], [0.0, 1.0]]))

        def jac(t, x):
            return np.array([[0.0, 0.0], [0.3, 0.25 if t < 0.5 else np.nan]])

        dae = SemilinearDAE(pencil=pencil,
                            f=lambda t, x: np.array([math.sin(t), 0.3 * x[0] + 0.25 * x[1]
                                                     + 0.1 * math.cos(t)]),
                            jac_f=jac)
        decomp = projectors_algebraic(pencil)
        x0 = np.array([1.0, (0.3 + 0.1) / 0.75])
        mesh = Mesh(0.0, 1.0, 100)
        traj = solve(dae, decomp, mesh, x0, SolverConfig(method=method))
        ref = reference_solve(dae, decomp, mesh, x0, leapfrog=method is Method.METHOD2)
        assert_matches_reference(traj, ref, "corrector_failed", detail=50)
        assert len(traj) == 50

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

    def test_method1_index0(self):
        preset = get_preset("linear_index0")
        dae, counts = self.counted(preset.dae)
        traj = method1_solve(dae, projectors_algebraic(dae.pencil), Mesh(0.0, 1.0, 300),
                             preset.x0)
        assert traj.status.completed
        assert counts == {"f": 301, "jac": 0}
