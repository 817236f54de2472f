import math
import warnings

import numpy as np
import pytest

from pencildae import (InconsistentInitialStateError, MatrixPencil, NonFiniteJacobianError,
                       SemilinearDAE, consistent_initialize, get_preset, jacobian,
                       projectors_algebraic)
from pencildae.dae_model import _FD_STEP, X2Newton, jacobian_function
from pencildae.model_library import PRESET_IDS

from conftest import check_jacobian, constraint_residual, random_index1_pencil


@pytest.fixture(scope="module")
def index0_problem():
    pencil = MatrixPencil(a=np.eye(2), b=np.array([[1.0, 0.0], [0.0, 2.0]]))
    dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.zeros(2),
                        jac_f=lambda t, x: np.zeros((2, 2)))
    return dae, projectors_algebraic(pencil)


@pytest.fixture(scope="module")
def sine_circuit():
    preset = get_preset("sec6_sine_powerdecay")
    return preset, projectors_algebraic(preset.dae.pencil)


class TestSplitState:
    def test_index0_split_is_trivial(self, index0_problem):
        dae, decomp = index0_problem
        x = np.array([3.0, -1.0])
        np.testing.assert_allclose(decomp.p1 @ x, x)
        np.testing.assert_allclose(decomp.p2 @ x, 0.0)

    def test_circuit_pure_algebraic_direction(self, sec5_decomp):
        x = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(sec5_decomp.p2 @ x, [0.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(sec5_decomp.p1 @ x, 0.0, atol=1e-14)

    def test_circuit_pure_differential_direction(self, sec5_decomp):
        x = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(sec5_decomp.p1 @ x, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(sec5_decomp.p2 @ x, 0.0, atol=1e-14)

    def test_recombination_identity(self, sec5_decomp):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(3) * rng.uniform(0.1, 100.0)
            z, u = sec5_decomp.p1 @ x, sec5_decomp.p2 @ x
            assert np.abs(z + u - x).max() <= 1e-12 * (1.0 + np.abs(x).max())

    def test_components_stay_in_subspaces(self, sec5_decomp):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        z, u = sec5_decomp.p1 @ x, sec5_decomp.p2 @ x
        assert np.abs(sec5_decomp.p1 @ z - z).max() < 1e-13
        assert np.abs(sec5_decomp.p2 @ u - u).max() < 1e-13


class TestConstraintResidual:
    def test_index0_residual_is_zero(self, index0_problem):
        dae, decomp = index0_problem
        _, norm = constraint_residual(dae, decomp, 0.3, np.array([5.0, -7.0]))
        assert norm == 0.0

    def test_circuit_origin_consistent(self, sec5_preset, sec5_decomp):
        _, norm = constraint_residual(sec5_preset.dae, sec5_decomp, 0.0, np.zeros(3))
        assert norm == 0.0

    def test_sine_circuit_paper_point_consistent(self, sine_circuit):
        preset, decomp = sine_circuit
        # x2 + r*x3 = -10 + 10 = 0 = sin(5) - sin(5)
        _, norm = constraint_residual(preset.dae, decomp, 0.0,
                                      np.array([10.0, -10.0, 5.0]))
        assert norm <= 1e-14

    def test_inconsistent_point_detected(self, sec5_preset, sec5_decomp):
        _, norm = constraint_residual(sec5_preset.dae, sec5_decomp, 0.0,
                                      np.array([0.0, 1.0, 0.0]))
        assert norm > 0.5


class TestJacobian:
    def test_linear_rhs_exact(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        pencil = MatrixPencil(a=np.eye(2), b=np.zeros((2, 2)))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: b @ x, jac_f=lambda t, x: b)
        np.testing.assert_array_equal(jacobian(dae, 0.0, np.ones(2)), b)

    def test_circuit_cubic_entry(self, sec5_preset):
        # d(-x1^3)/dx1 at x1 = 1
        jac = jacobian(sec5_preset.dae, 0.0, np.array([1.0, 0.0, 1.0]))
        assert jac[0, 0] == pytest.approx(-3.0)

    @pytest.mark.parametrize("x", [2.0, 1.0, 1e3, 1e6, 1e9, 1e10])
    def test_forward_difference_scalar_square(self, x):
        # a fixed absolute step is swamped by rounding at large |x|, and lost
        # where x + step == x; one relative to max(1, |x|) keeps ~1e-8
        pencil = MatrixPencil(a=np.eye(1), b=np.zeros((1, 1)))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: x * x)
        assert jacobian(dae, 0.0, np.array([x]))[0, 0] == pytest.approx(2.0 * x, rel=1e-7)

    def test_fd_matches_analytic_at_reference_point(self, sec5_preset):
        assert check_jacobian(sec5_preset.dae, 0.7, [np.array([1.0, 0.0, 1.0])]) <= 1e-6

    def test_fd_matches_analytic_on_circuit(self, sec5_preset):
        rng = np.random.default_rng(5)
        probes = rng.uniform(-2.0, 2.0, size=(100, 3))
        # second derivatives of the cubic circuit f reach 6*(|x1|+2|x3|) <= 36
        # on this probe box, so the FD truncation allowance is 10*step*36 with
        # the largest step on it, at |x_j| = 2
        curvature_bound = 36.0
        step = _FD_STEP * 2.0
        assert check_jacobian(sec5_preset.dae, 0.7, probes) <= 10 * step * curvature_bound

    @pytest.mark.parametrize("preset_id", PRESET_IDS)
    def test_fd_matches_analytic_on_every_preset(self, preset_id):
        # probes around each preset's x0 reach its sine, square and neg_square
        # nonlinearities; the FD truncation and rounding measure below 4e-8
        # relative to the largest Jacobian entry, a wrong entry far above it
        preset = get_preset(preset_id)
        dae, x0 = preset.dae, preset.x0
        probes = x0 + np.random.default_rng(7).uniform(-2.0, 2.0, size=(50, x0.size))
        scale = 1.0 + max(float(np.abs(jacobian(dae, 0.7, x)).max()) for x in probes)
        assert check_jacobian(dae, 0.7, probes) <= 1e-6 * scale

    def test_non_finite_jacobian_raises(self):
        pencil = MatrixPencil(a=np.eye(1), b=np.zeros((1, 1)))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: x,
                            jac_f=lambda t, x: np.array([[np.nan]]))
        with pytest.raises(NonFiniteJacobianError):
            jacobian(dae, 0.0, np.zeros(1))
        # a non-finite Jacobian is an arithmetic failure of the model
        assert issubclass(NonFiniteJacobianError, ArithmeticError)

    def test_jacobian_function(self, sec5_preset):
        # the analytic Jacobian is used as is; without one, the checked forward
        # difference of jacobian()
        assert jacobian_function(sec5_preset.dae) is sec5_preset.dae.jac_f
        fd_only = SemilinearDAE(pencil=sec5_preset.dae.pencil, f=sec5_preset.dae.f)
        x = np.array([1.0, 0.0, 1.0])
        np.testing.assert_array_equal(jacobian_function(fd_only)(0.7, x),
                                      jacobian(fd_only, 0.7, x))

    def test_check_jacobian_needs_analytic(self, index0_problem):
        dae, _ = index0_problem
        fd_only = SemilinearDAE(pencil=dae.pencil, f=dae.f)
        with pytest.raises(ValueError):
            check_jacobian(fd_only, 0.0, [np.zeros(2)])


def bisect_circuit_constraint(z0, r=2.0, lo=-5.0, hi=5.0, tol=1e-14):
    """Scalar oracle for the cubic circuit: root of the consistency condition
    x2 + r*x3 = psi(x1 - x3) - phi(x3) in the algebraic coordinate."""
    z1, z2 = z0[0], z0[1]

    def g(c):
        # u = c*e3 on top of z0 = (z1, z2, -z2/r)
        x3 = -z2 / r + c
        return z2 + r * x3 - (z1 - x3) ** 3 + x3 ** 3

    glo, ghi = g(lo), g(hi)
    assert glo * ghi < 0, "oracle bracket must straddle the root"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def affine_problem(rng, n=8, k=3):
    """Seeded n x n index-1 pencil with affine f = g + F x: (dae, decomp)."""
    pencil, _, _, _ = random_index1_pencil(rng, n=n, k=k)
    g = rng.uniform(-1.0, 1.0, n)
    f_mat = rng.uniform(-0.2 / n, 0.2 / n, (n, n))
    dae = SemilinearDAE(pencil=pencil, f=lambda t, x: g + f_mat @ x,
                        jac_f=lambda t, x: f_mat)
    return dae, projectors_algebraic(pencil)


def singular_k2_problem(t_singular):
    """x1' + x1 = sin t with X2 = span(e2, e3): u = (cos t, 0.5) before ``t_singular``,
    then a coupling that makes the restricted Newton matrix [[1, 1], [1, 1]].

    Returns (dae, decomp, x0) with x0 consistent at t = 0.
    """
    coupling = np.array([[0.0, -1.0], [-1.0, 0.0]])

    def block(t):
        return coupling if t >= t_singular else np.zeros((2, 2))

    def f(t, x):
        return np.r_[math.sin(t), block(t) @ x[1:] + [math.cos(t), 0.5]]

    def jac(t, x):
        out = np.zeros((3, 3))
        out[1:, 1:] = block(t)
        return out

    pencil = MatrixPencil(a=np.diag([1.0, 0.0, 0.0]), b=np.eye(3))
    return (SemilinearDAE(pencil=pencil, f=f, jac_f=jac), projectors_algebraic(pencil),
            np.array([1.0, 1.0, 0.5]))


class TestConsistentInitialize:
    def test_index0_returns_zero(self, index0_problem):
        dae, decomp = index0_problem
        u0 = consistent_initialize(dae, decomp, 0.0, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(u0, 0.0)

    def test_circuit_origin_fixed_point(self, sec5_preset, sec5_decomp):
        u0 = consistent_initialize(sec5_preset.dae, sec5_decomp, 0.0, np.zeros(3))
        np.testing.assert_allclose(u0, 0.0, atol=1e-14)

    def test_matches_bisection_oracle(self, sec5_preset, sec5_decomp):
        z0 = sec5_decomp.p1 @ np.array([1.0, 1.0, 0.0])
        u0 = consistent_initialize(sec5_preset.dae, sec5_decomp, 0.0, z0, tol=1e-13)
        c_oracle = bisect_circuit_constraint(z0)
        # u = c*e3: the third component carries the algebraic coordinate
        assert u0[2] == pytest.approx(c_oracle, abs=1e-10)
        assert abs(u0[0]) < 1e-14 and abs(u0[1]) < 1e-14

    def test_result_is_fixed_point(self, sec5_preset, sec5_decomp):
        dae, decomp = sec5_preset.dae, sec5_decomp
        z0 = decomp.p1 @ np.array([0.4, -0.3, 0.0])
        tol = 1e-12
        u0 = consistent_initialize(dae, decomp, 0.0, z0, tol=tol)
        fixed = decomp.g_inv @ decomp.q2 @ dae.f(0.0, z0 + u0)
        assert np.linalg.norm(u0 - fixed) <= tol

    def test_constraint_satisfied_after_init(self, sec5_preset, sec5_decomp):
        dae, decomp = sec5_preset.dae, sec5_decomp
        z0 = decomp.p1 @ np.array([2.0, 1.0, 0.0])
        u0 = consistent_initialize(dae, decomp, 0.0, z0, tol=1e-13)
        _, norm = constraint_residual(dae, decomp, 0.0, z0 + u0)
        assert norm <= 1e-12 * (1.0 + np.linalg.norm(dae.pencil.b, 2))

    def test_no_convergence_reports_last_residual(self, sec5_preset, sec5_decomp):
        from pencildae import NoConvergenceError
        z0 = sec5_decomp.p1 @ np.array([1.0, 1.0, 0.0])
        with pytest.raises(InconsistentInitialStateError, match="stalled") as excinfo:
            consistent_initialize(sec5_preset.dae, sec5_decomp, 0.0, z0,
                                  tol=1e-13, max_iter=1)
        assert isinstance(excinfo.value.__cause__, NoConvergenceError)
        assert excinfo.value.__cause__.last_residual > 1e-13

    def test_singular_newton_detected(self):
        from pencildae import SingularNewtonMatrixError
        # constraint x2 = x2 + 1: the restricted Newton matrix is exactly zero
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.array([0.0, x[1] + 1.0]),
                            jac_f=lambda t, x: np.array([[0.0, 0.0], [0.0, 1.0]]))
        decomp = projectors_algebraic(pencil)
        with pytest.raises(InconsistentInitialStateError, match="singular") as excinfo:
            consistent_initialize(dae, decomp, 0.0, np.array([1.0, 0.0]))
        assert isinstance(excinfo.value.__cause__, SingularNewtonMatrixError)

    def test_singular_k2_newton_detected(self):
        # the 2 x 2 Newton matrix [[1, 1], [1, 1]] is exactly singular
        from pencildae import SingularNewtonMatrixError
        dae, decomp, _ = singular_k2_problem(t_singular=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentInitialStateError) as excinfo:
                consistent_initialize(dae, decomp, 0.6, np.array([1.0, 0.0, 0.0]))
        assert isinstance(excinfo.value.__cause__, SingularNewtonMatrixError)

    def test_rejects_non_finite_z0(self, sec5_preset, sec5_decomp):
        # named as non-finite, not as a point outside X1
        for bad in (math.nan, math.inf):
            with pytest.raises(InconsistentInitialStateError, match="z0 must be finite"):
                consistent_initialize(sec5_preset.dae, sec5_decomp, 0.0,
                                      np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf, True, 0])
    def test_rejects_a_tol_that_is_not_positive(self, sec5_preset, sec5_decomp, tol):
        # refused as bad input, not run to a stall at "residual 0.000e+00"
        z0 = sec5_decomp.p1 @ np.array([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            consistent_initialize(sec5_preset.dae, sec5_decomp, 0.0, z0, tol=tol)

    def test_rejects_a_max_iter_below_one_or_fractional(self, sec5_preset, sec5_decomp):
        # 2.5 used to be accepted and stall "after 3 corrections"
        z0 = sec5_decomp.p1 @ np.array([1.0, 1.0, 0.0])
        for max_iter in (0, 2.5, True, 2.0, 10**400):
            with pytest.raises(ValueError, match="^max_iter must be an integer in \\[1, "):
                consistent_initialize(sec5_preset.dae, sec5_decomp, 0.0, z0, max_iter=max_iter)

    def test_rejects_z0_outside_x1(self, sec5_preset, sec5_decomp):
        with pytest.raises(InconsistentInitialStateError, match="z0 must lie in X1"):
            consistent_initialize(sec5_preset.dae, sec5_decomp, 0.0,
                                  np.array([0.0, 0.0, 1.0]))

    def test_model_error_is_raised(self):
        # f overflows like a Python-float power: the caller gets the line solve
        # gives such an x0, raised from the overflow
        def f(t, x):
            return np.array([0.0, x[1] + math.exp(1000.0 * x[0])])

        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=f)
        decomp = projectors_algebraic(pencil)
        with pytest.raises(InconsistentInitialStateError,
                           match="^f cannot be evaluated at the initial point: OverflowError: "
                           ) as excinfo:
            consistent_initialize(dae, decomp, 0.0, np.array([1.0, 0.0]))
        assert isinstance(excinfo.value.__cause__, OverflowError)


class TestX2Newton:
    @pytest.mark.parametrize("raising", ["f", "jac"])
    def test_model_error_is_raised(self, raising):
        # what f or the Jacobian raises fails the correction, as a singular
        # step does
        def f(t, x):
            if raising == "f":
                raise ZeroDivisionError("pole")
            return np.array([0.0, 0.5 * x[1]])

        def jac(t, x):
            raise ValueError("math domain error")

        decomp = projectors_algebraic(MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2)))
        newton = X2Newton(decomp)
        with pytest.raises(ZeroDivisionError if raising == "f" else ValueError):
            newton.correct(f, jac, 0.0, np.array([1.0, 0.0]), 0.25, newton.lift(0.25))

    # the k = 1 form: constraint x2 = f2(x) on the pencil diag(1, 0), I, so
    # X2 = span(e2) and the pivot 1 - W f_x N is 1 - df2/dx2
    @staticmethod
    def constraint(f2, df2):
        decomp = projectors_algebraic(MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2)))
        return (X2Newton(decomp), lambda t, x: np.array([0.0, f2(x)]),
                lambda t, x: np.array([[0.0, 0.0], [0.0, df2(x)]]))

    def test_overflowing_quotient_is_singular(self):
        # a tiny finite pivot 2**-53 under a residual ~1e300: the step is inf
        from pencildae import SingularNewtonMatrixError
        newton, f, jac = self.constraint(lambda x: 1e300, lambda x: 1.0 - 2.0 ** -53)
        assert newton.scalar
        with np.errstate(over="ignore"), pytest.raises(SingularNewtonMatrixError):
            newton.correct(f, jac, 0.0, np.array([1.0, 0.0]), 0.25, newton.lift(0.25))

    def test_nan_pivot_is_singular(self):
        from pencildae import SingularNewtonMatrixError
        newton, f, jac = self.constraint(lambda x: 0.5 * x[1], lambda x: math.nan)
        with pytest.raises(SingularNewtonMatrixError):
            newton.correct(f, jac, 0.0, np.array([1.0, 0.0]), 0.25, newton.lift(0.25))

    def test_stall_reports_the_absolute_residual(self):
        # the residual after max_iter corrections: that of the c the same
        # number of single corrections reaches
        from pencildae import NoConvergenceError
        newton, f, jac = self.constraint(lambda x: 1.0 + x[1] ** 3, lambda x: 3.0 * x[1] ** 2)
        z = np.array([1.0, 0.0])
        with pytest.raises(NoConvergenceError) as info:
            newton.correct(f, jac, 0.0, z, 0.25, newton.lift(0.25), tol=1e-300, max_iter=2)
        c, u = 0.25, newton.lift(0.25)
        for _ in range(2):
            c, u, _, _ = newton.correct(f, jac, 0.0, z, c, u)
        assert info.value.last_residual == abs(c - newton.coeff.dot(f(0.0, z + u)))
        assert info.value.last_residual > 0.0

    @pytest.mark.parametrize("v", [2e154, 1e-170])
    def test_matrix_stop_test_neither_overflows_nor_underflows(self, v):
        # k = 2 with W = [e3, e2]^T, so c = 0 and f = (0, -v, 0) leave the residual
        # (0, v): its norm is v, where r.dot(r) would overflow to inf or underflow
        # to 0 (and pass the tol of 1e-300)
        from pencildae import NoConvergenceError
        newton = X2Newton(projectors_algebraic(MatrixPencil(a=np.diag([1.0, 0.0, 0.0]),
                                                            b=np.eye(3))))
        assert newton.k == 2
        c = np.zeros(2)
        with pytest.raises(NoConvergenceError) as info:
            newton.correct(lambda t, x: np.array([0.0, -v, 0.0]), lambda t, x: np.zeros((3, 3)),
                           0.0, np.zeros(3), c, newton.lift(c), tol=1e-300, max_iter=0)
        assert info.value.last_residual == v

    def test_fractional_max_iter_stops(self):
        # the update count passes 2.5 without ever equalling it
        from pencildae import NoConvergenceError
        newton, f, jac = self.constraint(lambda x: 1.0 + x[1] ** 3, lambda x: 3.0 * x[1] ** 2)
        with pytest.raises(NoConvergenceError, match="after 3 corrections"):
            newton.correct(f, jac, 0.0, np.array([1.0, 0.0]), 0.25, newton.lift(0.25),
                           tol=1e-300, max_iter=2.5)

    def test_scalar_step_agrees_with_linear_solve(self, sec5_preset, sec5_decomp):
        # the same correction in (n, 1) matrices with np.linalg.solve
        dae, decomp = sec5_preset.dae, sec5_decomp
        newton = X2Newton(decomp)
        basis = decomp.x2_basis
        coeff = basis.T @ decomp.g_inv @ decomp.q2
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = decomp.p1 @ rng.uniform(-2.0, 2.0, 3)
            c_vec = basis.T @ (decomp.p2 @ rng.uniform(-2.0, 2.0, 3))
            x = z + basis @ c_vec
            matrix = np.eye(1) - coeff @ dae.jac_f(0.3, x) @ basis
            want = c_vec - np.linalg.solve(matrix, c_vec - coeff @ dae.f(0.3, x))
            c0 = float(c_vec[0])
            c, _, _, _ = newton.correct(dae.f, dae.jac_f, 0.3, z, c0, newton.lift(c0))
            assert isinstance(c, float)
            assert abs(c - want[0]) <= 1e-15 * abs(want[0])

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matrix_step_is_bit_identical_to_linear_solve(self, k):
        # the k x k step calls numpy's solve gufunc directly; np.linalg.solve
        # wraps the same LAPACK gesv, so the corrected c agrees to the bit
        n = k + 2
        rng = np.random.default_rng(100 + k)
        pencil, _, _, _ = random_index1_pencil(rng, n=n, k=k)
        decomp = projectors_algebraic(pencil)
        newton = X2Newton(decomp)
        for _ in range(50):
            g, f_mat = rng.standard_normal(n), rng.standard_normal((n, n))
            z = decomp.p1 @ rng.uniform(-2.0, 2.0, n)
            c = rng.uniform(-2.0, 2.0, k)
            r = c - newton.coeff.dot(g + f_mat.dot(z + newton.lift(c)))
            matrix = np.eye(k) - newton.coeff.dot(f_mat.dot(newton.basis))
            want = c - np.linalg.solve(matrix, r)
            got, _, _, fx = newton.correct(lambda t, x: g + f_mat.dot(x),
                                           lambda t, x: f_mat, 0.0, z, c, newton.lift(c))
            assert fx is None
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_converged_correction_hands_back_its_f(self, k):
        # the converged tol test evaluated f at the returned c; the caller reuses it
        rng = np.random.default_rng(5)
        dae, decomp = affine_problem(rng, n=k + 2, k=k)
        newton = X2Newton(decomp)
        z = decomp.p1 @ rng.uniform(-1.0, 1.0, k + 2)
        c0 = 0.0 if newton.scalar else np.zeros(k)
        c, _, x, fx = newton.correct(dae.f, dae.jac_f, 0.5, z, c0, newton.lift(c0), tol=1e-10)
        assert fx.tobytes() == dae.f(0.5, z + newton.lift(c)).tobytes()
        assert x.tobytes() == (z + newton.lift(c)).tobytes()

    @pytest.mark.parametrize("tol", [None, 1e-10])
    @pytest.mark.parametrize("k", [1, 3])
    def test_handed_lift_is_bit_identical(self, k, tol):
        # the u and x handed back (and handed on by solve) are lift(c) and
        # z + lift(c) of the returned c
        rng = np.random.default_rng(11)
        dae, decomp = affine_problem(rng, n=k + 2, k=k)
        newton = X2Newton(decomp)

        def f(t, x):
            return dae.f(t, x) + 0.3 * np.tanh(x)

        def jac(t, x):
            return dae.jac_f(t, x) + np.diag(0.3 / np.cosh(x) ** 2)

        for _ in range(10):
            z = decomp.p1 @ rng.uniform(-1.0, 1.0, k + 2)
            c = rng.uniform(-1.0, 1.0) if newton.scalar else rng.uniform(-1.0, 1.0, k)
            c, u, x, fx = newton.correct(f, jac, 0.5, z, c, newton.lift(c), tol)
            assert u.tobytes() == newton.lift(c).tobytes()
            assert x.tobytes() == (z + newton.lift(c)).tobytes()
            assert (fx is None) == (tol is None)
