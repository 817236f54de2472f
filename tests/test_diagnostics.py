import json

import numpy as np
import pytest

from conftest import trajectory_from_states
from pencildae import (DegenerateFitError, LadderSolveError, MatrixPencil, Mesh,
                       Method, SemilinearDAE, SolveOutcome, SolverConfig, SolveStatus,
                       diagnostics, empirical_order, get_preset,
                       method1_solve, projectors_algebraic, solve, stability_report,
                       windowed_deviation)


@pytest.fixture(scope="module")
def scalar_decay():
    # d/dt x + x = 0, x(0) = 1, exact solution e^{-t}
    pencil = MatrixPencil(a=np.eye(1), b=np.eye(1))
    dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.zeros(1),
                        jac_f=lambda t, x: np.zeros((1, 1)))
    return dae, projectors_algebraic(pencil)


def euler_decay_error_oracle(base_n, refinements):
    """Closed-form ladder errors for explicit Euler on d/dt x = -x, [0, 1],
    measured at the base-mesh nodes against the self-refined reference."""
    levels = refinements - 1
    ref_n = base_n * 2 ** refinements
    base_nodes = np.arange(base_n + 1)
    h_ref = 1.0 / ref_n
    x_ref = (1.0 - h_ref) ** (base_nodes * 2 ** refinements)
    errors, hs = [], []
    for level in range(levels):
        n = base_n * 2 ** level
        h = 1.0 / n
        x_h = (1.0 - h) ** (base_nodes * 2 ** level)
        errors.append(np.abs(x_h - x_ref).max())
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return np.array(errors), float(slope)


@pytest.fixture
def ladder_steps(monkeypatch):
    """The step counts of the meshes empirical_order solves, in order."""
    steps = []

    def counting_solve(dae, decomp, mesh, x0, config):
        steps.append(mesh.n_steps)
        return solve(dae, decomp, mesh, x0, config)

    monkeypatch.setattr(diagnostics, "solve", counting_solve)
    return steps


class TestEmpiricalOrder:
    def test_euler_on_decay_matches_closed_form_oracle(self, scalar_decay):
        # the self-referenced ladder has a known fixed-offset bias: the oracle
        # slope here is ~1.185, not 1.0, because the reference is itself an
        # Euler run two levels below the finest fitted mesh
        dae, decomp = scalar_decay
        estimate = empirical_order(dae, decomp, Method.METHOD1, Mesh(0.0, 1.0, 10),
                                   np.array([1.0]), refinements=4)
        oracle_errors, oracle_slope = euler_decay_error_oracle(10, 4)
        np.testing.assert_allclose(estimate.z.errors, oracle_errors, rtol=1e-9)
        assert estimate.z.asymptotic_order == pytest.approx(oracle_slope, abs=1e-9)
        assert 0.8 <= estimate.z.asymptotic_order <= 1.3
        assert estimate.u is None  # index-0: no algebraic component to fit

    def test_method2_against_exact_external_reference(self, scalar_decay):
        dae, decomp = scalar_decay
        base = Mesh(0.0, 1.0, 10)
        exact = np.exp(-base.times())[:, None]
        reference = trajectory_from_states(base, exact, decomp)
        estimate = empirical_order(dae, decomp, Method.METHOD2, base,
                                   np.array([1.0]), refinements=4,
                                   reference=reference)
        assert estimate.z.asymptotic_order == pytest.approx(2.0, abs=0.2)

    def test_circuit_orders_both_components(self, sec5_preset, sec5_decomp):
        x0 = np.array([0.5, -0.5, 0.25])
        est1 = empirical_order(sec5_preset.dae, sec5_decomp, Method.METHOD1,
                               Mesh(0.0, 1.0, 100), x0, refinements=4)
        assert 0.8 <= est1.z.asymptotic_order <= 1.2
        assert 0.8 <= est1.u.asymptotic_order <= 1.2
        est2 = empirical_order(sec5_preset.dae, sec5_decomp, Method.METHOD2,
                               Mesh(0.0, 1.0, 100), x0, refinements=4)
        assert 1.7 <= est2.z.asymptotic_order <= 2.3
        assert 1.7 <= est2.u.asymptotic_order <= 2.3

    def test_errors_monotone_after_coarsest(self, sec5_preset, sec5_decomp):
        est = empirical_order(sec5_preset.dae, sec5_decomp, Method.METHOD1,
                              Mesh(0.0, 1.0, 100), np.array([0.5, -0.5, 0.25]),
                              refinements=5)
        errs = np.array(est.z.errors)
        assert np.all(np.diff(errs[1:]) <= 0.0)

    def test_degenerate_fit_on_exactly_solved_problem(self):
        # d/dt x = 0 is reproduced exactly at every step size
        pencil = MatrixPencil(a=np.eye(1), b=np.zeros((1, 1)))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.zeros(1),
                            jac_f=lambda t, x: np.zeros((1, 1)))
        decomp = projectors_algebraic(pencil)
        with pytest.raises(DegenerateFitError):
            empirical_order(dae, decomp, Method.METHOD1, Mesh(0.0, 1.0, 10),
                            np.array([1.0]), refinements=3)

    def test_ladder_blow_up_propagates(self):
        preset = get_preset("sec6_blowup")
        decomp = projectors_algebraic(preset.dae.pencil)
        with pytest.raises(LadderSolveError) as info:
            empirical_order(preset.dae, decomp, Method.METHOD1, Mesh(0.0, 1.0, 100),
                            preset.x0, refinements=3)
        assert info.value.h == 0.01     # the first level already blows up
        assert info.value.status.outcome is SolveOutcome.BLOW_UP

    @pytest.mark.parametrize("refinements", [3, 4])
    @pytest.mark.parametrize("tol", [None, 1e-10])
    def test_self_referenced_ladder_skips_the_unread_level(
            self, sec5_preset, sec5_decomp, ladder_steps, refinements, tol):
        # levels 0..R-2 are fitted against level R, so level R-1 is never solved,
        # and the estimate is the one built from those solves alone
        dae, decomp = sec5_preset.dae, sec5_decomp
        base, x0 = Mesh(0.0, 1.0, 20), np.array([0.5, -0.5, 0.25])
        config = SolverConfig(method=Method.METHOD2, tol=tol)
        estimate = empirical_order(dae, decomp, Method.METHOD2, base, x0,
                                   refinements=refinements, config=config)
        levels = [*range(refinements - 1), refinements]
        assert ladder_steps == [20 * 2 ** level for level in levels]

        nodes = np.arange(21)
        ref = solve(dae, decomp, base.refined(2 ** refinements), x0, config)
        z_ref = ref.z_history[nodes * 2 ** refinements]
        u_ref = ref.u_history[nodes * 2 ** refinements]
        hs, errs_z, errs_u = [], [], []
        for level in range(refinements - 1):
            traj = solve(dae, decomp, base.refined(2 ** level), x0, config)
            idx = nodes * 2 ** level
            hs.append(traj.mesh.h)
            errs_z.append(float(np.linalg.norm(traj.z_history[idx] - z_ref, axis=1).max()))
            errs_u.append(float(np.linalg.norm(traj.u_history[idx] - u_ref, axis=1).max()))

        def fit(errs):
            return {"errors": errs,
                    "pairwise_orders": [float(np.log2(errs[i] / errs[i + 1]))
                                        for i in range(len(errs) - 1)],
                    "asymptotic_order": float(np.polyfit(np.log(hs), np.log(errs), 1)[0])}

        want = {"step_sizes": hs, "z": fit(errs_z), "u": fit(errs_u)}
        assert json.dumps(estimate.to_json()) == json.dumps(want)

    def test_external_reference_solves_every_level(self, scalar_decay, ladder_steps):
        dae, decomp = scalar_decay
        base = Mesh(0.0, 1.0, 10)
        reference = trajectory_from_states(base, np.exp(-base.times())[:, None], decomp)
        estimate = empirical_order(dae, decomp, Method.METHOD1, base, np.array([1.0]),
                                   refinements=4, reference=reference)
        assert ladder_steps == [10, 20, 40, 80, 160]
        assert len(estimate.step_sizes) == 5

    def test_blow_up_at_the_finest_level_names_its_h(self, ladder_steps):
        # f kicks the state past the threshold at t = 1/80, a node of level 3 alone
        pencil = MatrixPencil(a=np.eye(1), b=np.eye(1))
        dae = SemilinearDAE(pencil=pencil,
                            f=lambda t, x: np.array([1e12 if t == 0.0125 else 0.0]),
                            jac_f=lambda t, x: np.zeros((1, 1)))
        with pytest.raises(LadderSolveError) as info:
            empirical_order(dae, projectors_algebraic(pencil), Method.METHOD1,
                            Mesh(0.0, 1.0, 10), np.array([1.0]), refinements=3)
        assert ladder_steps == [10, 20, 80]
        assert info.value.h == 1.0 / 80
        assert info.value.status.outcome is SolveOutcome.BLOW_UP

    def test_refinements_floor(self, scalar_decay):
        dae, decomp = scalar_decay
        with pytest.raises(ValueError):
            empirical_order(dae, decomp, Method.METHOD1, Mesh(0.0, 1.0, 10),
                            np.array([1.0]), refinements=2)
        with pytest.raises(TypeError):
            empirical_order(dae, decomp, Method.METHOD1, Mesh(0.0, 1.0, 10),
                            np.array([1.0]), refinements=3.5)

    def test_json_serialization(self, scalar_decay):
        dae, decomp = scalar_decay
        est = empirical_order(dae, decomp, Method.METHOD1, Mesh(0.0, 1.0, 10),
                              np.array([1.0]), refinements=4)
        payload = json.loads(json.dumps(est.to_json()))
        assert len(payload["step_sizes"]) == len(payload["z"]["errors"])
        assert payload["u"] is None


class TestStabilityReport:
    def test_linear_problem_m1_zero(self, scalar_decay):
        dae, decomp = scalar_decay
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]))
        report = stability_report(dae, decomp, traj, h=0.1)
        assert report.m1_estimate == 0.0
        assert report.g_of_h == pytest.approx(
            np.linalg.norm(np.eye(1) - 0.1 * decomp.g_inv @ dae.pencil.b, 2))

    def test_leapfrog_coefficient_dominates(self, sec5_preset, sec5_decomp):
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 2.0, 2000),
                             sec5_preset.x0)
        report = stability_report(sec5_preset.dae, sec5_decomp, traj, h=1e-3)
        assert report.ghat_norm > report.g_of_h
        assert report.ghat_norm >= 1.0

    def test_larger_r_smaller_g_improves_leapfrog_coefficient(self, sec5_preset,
                                                              sec5_decomp):
        relaxed = get_preset("sec5_r4_g01")
        relaxed_decomp = projectors_algebraic(relaxed.dae.pencil)
        mesh = Mesh(0.0, 2.0, 2000)
        base_traj = method1_solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0)
        relaxed_traj = method1_solve(relaxed.dae, relaxed_decomp, mesh, relaxed.x0)
        base = stability_report(sec5_preset.dae, sec5_decomp, base_traj, 1e-3)
        better = stability_report(relaxed.dae, relaxed_decomp, relaxed_traj, 1e-3)
        assert better.ghat_norm < base.ghat_norm

    def test_json(self, scalar_decay):
        dae, decomp = scalar_decay
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]))
        payload = stability_report(dae, decomp, traj, 0.1).to_json()
        assert set(payload) == {"h", "norm_ginv_b", "m1_estimate", "g_of_h", "ghat_norm"}


class TestWindowedDeviation:
    def test_zero_for_identical_runs(self, sec5_preset, sec5_decomp):
        mesh = Mesh(0.0, 1.0, 200)
        a = method1_solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0)
        b = method1_solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0)
        assert windowed_deviation(a, b) == 0.0

    def test_refined_reference_alignment(self, sec5_preset, sec5_decomp):
        coarse = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 100),
                               sec5_preset.x0)
        fine = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 400),
                             sec5_preset.x0)
        dev = windowed_deviation(coarse, fine, window_fraction=0.5)
        assert 0.0 < dev < 1e-4

    def test_incompatible_meshes_rejected(self, sec5_preset, sec5_decomp):
        a = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 100),
                          sec5_preset.x0)
        b = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 150),
                          sec5_preset.x0)
        with pytest.raises(ValueError):
            windowed_deviation(a, b)


def test_trajectory_from_states_splits_consistently(sec5_decomp):
    mesh = Mesh(0.0, 1.0, 4)
    states = np.outer(np.linspace(0.0, 1.0, 5), np.array([1.0, -1.0, 0.5]))
    ref = trajectory_from_states(mesh, states, sec5_decomp)
    np.testing.assert_allclose(ref.z_history + ref.u_history, states, atol=1e-14)
    assert ref.status.completed


def test_trajectory_from_states_refuses_a_short_completed_run(sec5_decomp):
    mesh = Mesh(0.0, 1.0, 4)
    states = np.ones((3, 3))
    with pytest.raises(ValueError, match="did not complete"):
        trajectory_from_states(mesh, states, sec5_decomp)
    stopped = SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=0.5)
    assert len(trajectory_from_states(mesh, states, sec5_decomp, status=stopped)) == 3
