import json
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import trajectory_from_states
from pencildae import (DegenerateFitError, LadderSolveError, MatrixPencil, Mesh,
                       Method, SemilinearDAE, SolveOutcome, SolverConfig, SolveStatus,
                       Trajectory, consistent_initialize, diagnostics, empirical_order,
                       get_preset, integrators, method1_solve, projectors_algebraic, solve,
                       stability_report, windowed_deviation)


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
def ladder_steps(monkeypatch, tmp_path):
    """A function that returns the (step count, process id) of each mesh
    empirical_order has solved, sorted: the solves append to a file, so a
    forked child's are seen too."""
    log = tmp_path / "ladder_steps.txt"
    log.touch()

    def counting_solve(dae, decomp, mesh, x0, config):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{mesh.n_steps} {os.getpid()}\n")
        return solve(dae, decomp, mesh, x0, config)

    monkeypatch.setattr(diagnostics, "solve", counting_solve)
    return lambda: sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())


class TestEmpiricalOrder:
    def test_euler_on_decay_matches_closed_form_oracle(self, scalar_decay):
        # the self-referenced ladder has a known fixed-offset bias: the oracle
        # slope here is ~1.185, not 1.0, because the reference is itself an
        # Euler run two levels below the finest fitted mesh
        dae, decomp = scalar_decay
        estimate = empirical_order(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]),
                                   refinements=4)
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
        estimate = empirical_order(dae, decomp, base, np.array([1.0]), refinements=4,
                                   reference=reference, config=SolverConfig(Method.METHOD2))
        assert estimate.z.asymptotic_order == pytest.approx(2.0, abs=0.2)

    def test_circuit_orders_both_components(self, sec5_preset, sec5_decomp):
        x0 = np.array([0.5, -0.5, 0.25])
        est1 = empirical_order(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 100), x0,
                               refinements=4)
        assert 0.8 <= est1.z.asymptotic_order <= 1.2
        assert 0.8 <= est1.u.asymptotic_order <= 1.2
        est2 = empirical_order(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 100), x0,
                               refinements=4, config=SolverConfig(Method.METHOD2))
        assert 1.7 <= est2.z.asymptotic_order <= 2.3
        assert 1.7 <= est2.u.asymptotic_order <= 2.3

    def test_errors_monotone_after_coarsest(self, sec5_preset, sec5_decomp):
        est = empirical_order(sec5_preset.dae, sec5_decomp, Mesh(0.0, 1.0, 100),
                              np.array([0.5, -0.5, 0.25]), refinements=5)
        errs = np.array(est.z.errors)
        assert np.all(np.diff(errs[1:]) <= 0.0)

    def test_degenerate_fit_on_exactly_solved_problem(self):
        # d/dt x = 0 is reproduced exactly at every step size; from x0 = 0 the
        # reference is 0 throughout, so the floor is 0 and refuses the errors of 0
        pencil = MatrixPencil(a=np.eye(1), b=np.zeros((1, 1)))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.zeros(1),
                            jac_f=lambda t, x: np.zeros((1, 1)))
        decomp = projectors_algebraic(pencil)
        for x0, floor in ((1.0, "1e-13"), (0.0, "0")):
            with pytest.raises(DegenerateFitError, match=f"measurable floor {floor}$"):
                empirical_order(dae, decomp, Mesh(0.0, 1.0, 10), np.array([x0]), refinements=3)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("method", list(Method))
    def test_orders_do_not_depend_on_the_scale_of_the_solution(self, index, method):
        # f = M x is linear and autonomous, so the solution and every error scale
        # with x0: the roundoff floor scales with the reference and the fit stays
        if index == 0:
            a, b, m = np.eye(2), np.array([[1.0, 0.3], [0.0, 2.0]]), np.zeros((2, 2))
        else:
            a, m = np.diag([1.0, 1.0, 0.0]), np.full((3, 3), 0.1)
            b = np.array([[1.0, 0.3, 0.0], [0.0, 2.0, 1.0], [0.5, 0.0, 1.0]])
        pencil = MatrixPencil(a, b)
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: m @ x, jac_f=lambda t, x: m)
        decomp = projectors_algebraic(pencil)
        z0 = decomp.p1 @ np.ones(len(a))
        x0 = z0 + consistent_initialize(dae, decomp, 0.0, z0)

        def orders(scale):
            config = SolverConfig(method, blow_up_threshold=1e6 * max(1.0, scale))
            est = empirical_order(dae, decomp, Mesh(0.0, 1.0, 50), scale * x0,
                                  refinements=4, config=config)
            return [est.z.asymptotic_order] + ([est.u.asymptotic_order] if index else [])

        at_one = orders(1.0)
        assert at_one == pytest.approx([2.04] * len(at_one) if method is Method.METHOD2
                                       else [1.17] * len(at_one), abs=0.01)
        for scale in (1e-12, 1e-9, 1e-6, 1e9):
            assert orders(scale) == pytest.approx(at_one, abs=1e-3), scale

    def test_ladder_blow_up_propagates(self):
        preset = get_preset("sec6_blowup")
        decomp = projectors_algebraic(preset.dae.pencil)
        with pytest.raises(LadderSolveError) as info:
            empirical_order(preset.dae, decomp, Mesh(0.0, 1.0, 100), preset.x0,
                            refinements=3)
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
        estimate = empirical_order(dae, decomp, base, x0, refinements=refinements,
                                   config=config)
        # the finest level is solved once, in a forked child, the others in the caller
        levels = [*range(refinements - 1), refinements]
        solved = ladder_steps()
        assert [steps for steps, _ in solved] == [20 * 2 ** level for level in levels]
        assert [pid == os.getpid() for _, pid in solved] == [True] * (refinements - 1) + [False]

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

    @pytest.mark.parametrize("mesh, nodes, message", [
        (Mesh(0.0, 2.0, 20), 21, "meshes share no nodes"),              # another interval
        (Mesh(0.0, 1.0, 15), 16, "meshes share no nodes"),              # a stride of 1.5
        (Mesh(0.0, 1.0, 20), 5, "external reference trajectory is incomplete"),
    ], ids=["interval", "stride", "incomplete"])
    def test_external_reference_refused_before_any_solve(self, scalar_decay, ladder_steps,
                                                         mesh, nodes, message):
        dae, decomp = scalar_decay
        status = SolveStatus(SolveOutcome.COMPLETED) if nodes == mesh.n_steps + 1 \
            else SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=0.2)
        reference = trajectory_from_states(mesh, np.exp(-mesh.times()[:nodes, None]), decomp,
                                           status=status)
        with pytest.raises(ValueError, match=f"^{message}"):
            empirical_order(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]), refinements=4,
                            reference=reference)
        assert ladder_steps() == []

    def test_external_reference_solves_every_level(self, scalar_decay, ladder_steps):
        dae, decomp = scalar_decay
        base = Mesh(0.0, 1.0, 10)
        reference = trajectory_from_states(base, np.exp(-base.times())[:, None], decomp)
        estimate = empirical_order(dae, decomp, base, np.array([1.0]), refinements=4,
                                   reference=reference)
        assert [steps for steps, _ in ladder_steps()] == [10, 20, 40, 80, 160]
        assert len(estimate.step_sizes) == 5

    @staticmethod
    def kicked_ladder(kick: float):
        """A refinements=3 ladder on [0, 1] from 10 steps whose f kicks the state
        past the blow-up threshold at t = ``kick``; returns its LadderSolveError."""
        pencil = MatrixPencil(a=np.eye(1), b=np.eye(1))
        dae = SemilinearDAE(pencil=pencil,
                            f=lambda t, x: np.array([1e12 if t == kick else 0.0]),
                            jac_f=lambda t, x: np.zeros((1, 1)))
        with pytest.raises(LadderSolveError) as info:
            empirical_order(dae, projectors_algebraic(pencil), Mesh(0.0, 1.0, 10),
                            np.array([1.0]), refinements=3)
        assert info.value.status.outcome is SolveOutcome.BLOW_UP
        return info.value

    def test_blow_up_at_the_finest_level_names_its_h(self, ladder_steps):
        # t = 1/80 is a node of level 3 alone: the child's solve of it fails,
        # so the caller solves it again and raises that failure
        assert self.kicked_ladder(0.0125).h == 1.0 / 80
        solved = ladder_steps()
        assert [steps for steps, pid in solved if pid == os.getpid()] == [10, 20, 80]
        assert [steps for steps, pid in solved if pid != os.getpid()] == [80]

    def test_blow_up_at_a_coarse_level_is_named_first(self, ladder_steps):
        # t = 1/20 is a node of levels 1 to 3: level 1 fails in the caller, which
        # names it and kills the child before the finest level is read
        assert self.kicked_ladder(0.05).h == 1.0 / 20
        solved = ladder_steps()
        assert [steps for steps, pid in solved if pid == os.getpid()] == [10, 20]
        assert [steps for steps, pid in solved if pid != os.getpid()] in ([], [80])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_refinements_floor(self, scalar_decay):
        dae, decomp = scalar_decay
        for refinements in (2, 3.5, True, 2.5, 2.0, 10**400):
            with pytest.raises(ValueError, match="^refinements must be an integer in \\[3, "):
                empirical_order(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]),
                                refinements=refinements)

    # on [0, 1] the mesh rule admits at most 4503599627 steps (h >= 1e6 ulp(1) = 1e6 2**-52)
    @pytest.mark.parametrize("n_steps, refinements, refused", [
        (10, 10**18, True),
        (10, 29, True),     # 10 * 2**29 steps: the smallest refused, as by the CLI
        (10, 28, False),    # 10 * 2**28: the largest accepted
        (562949954, 3, True),
        (562949953, 3, False),
        (4503599627, 3, True),  # the largest Mesh on [0, 1] has no finer level
    ])
    def test_refinements_past_the_largest_mesh(self, scalar_decay, monkeypatch, ladder_steps,
                                               n_steps, refinements, refused):
        # refused before any solve or fork; an accepted ladder gets as far as its
        # first solve, which is stopped here (it would need far too much memory)
        dae, decomp = scalar_decay
        monkeypatch.setattr(integrators, "X2Newton", lambda decomp: pytest.fail("solved"))
        expected = (pytest.raises(ValueError, match="^the step of the finest level must be ")
                    if refused else pytest.raises(pytest.fail.Exception, match="^solved$"))
        with expected:
            empirical_order(dae, decomp, Mesh(0.0, 1.0, n_steps), np.array([1.0]),
                            refinements=refinements)
        assert (ladder_steps() == []) == refused
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_json_serialization(self, scalar_decay):
        dae, decomp = scalar_decay
        est = empirical_order(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]),
                              refinements=4)
        payload = json.loads(json.dumps(est.to_json()))
        assert len(payload["step_sizes"]) == len(payload["z"]["errors"])
        assert payload["u"] is None


class TestStabilityReport:
    def test_linear_problem_m1_zero(self, scalar_decay):
        dae, decomp = scalar_decay
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]))
        report = stability_report(dae, decomp, traj)
        assert report.h == traj.mesh.h == 0.1   # the step of the trajectory's own mesh
        assert report.m1_estimate == 0.0
        assert report.g_of_h == pytest.approx(
            np.linalg.norm(np.eye(1) - 0.1 * decomp.g_inv @ dae.pencil.b, 2))

    def test_leapfrog_coefficient_dominates(self, sec5_preset, sec5_decomp):
        traj = method1_solve(sec5_preset.dae, sec5_decomp, Mesh(0.0, 2.0, 2000),
                             sec5_preset.x0)
        report = stability_report(sec5_preset.dae, sec5_decomp, traj)
        assert report.ghat_norm > report.g_of_h
        assert report.ghat_norm >= 1.0

    def test_larger_r_smaller_g_improves_leapfrog_coefficient(self, sec5_preset,
                                                              sec5_decomp):
        relaxed = get_preset("sec5_r4_g01")
        relaxed_decomp = projectors_algebraic(relaxed.dae.pencil)
        mesh = Mesh(0.0, 2.0, 2000)
        base_traj = method1_solve(sec5_preset.dae, sec5_decomp, mesh, sec5_preset.x0)
        relaxed_traj = method1_solve(relaxed.dae, relaxed_decomp, mesh, relaxed.x0)
        base = stability_report(sec5_preset.dae, sec5_decomp, base_traj)
        better = stability_report(relaxed.dae, relaxed_decomp, relaxed_traj)
        assert better.ghat_norm < base.ghat_norm

    def test_json(self, scalar_decay):
        dae, decomp = scalar_decay
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]))
        payload = stability_report(dae, decomp, traj).to_json()
        assert set(payload) == {"h", "norm_ginv_b", "m1_estimate", "g_of_h", "ghat_norm"}

    def test_samples_at_most_max_samples_states(self, sec5_preset, sec5_decomp):
        # 3999 nodes: a floor stride of 3999 // 2000 = 1 would sample them all
        calls = []

        def counted(t, x):
            calls.append(t)
            return sec5_preset.dae.jac_f(t, x)

        dae = replace(sec5_preset.dae, jac_f=counted)
        traj = method1_solve(dae, sec5_decomp, Mesh(0.0, 4.0, 3998), sec5_preset.x0)
        for max_samples in (2000, 3999, 1):
            calls.clear()
            stability_report(dae, sec5_decomp, traj, max_samples=max_samples)
            assert 0 < len(calls) <= max_samples, (max_samples, len(calls))
        assert len(calls) == 1 and calls[0] == 0.0

    @pytest.mark.parametrize("max_samples", [1, 7, 2000, 10**6])
    def test_forms_only_the_sampled_times(self, monkeypatch, sec5_preset, sec5_decomp,
                                          max_samples):
        # a completed and a blown-up (truncated) run: with Trajectory.times failing,
        # the report is unchanged and the Jacobian is taken at the sampled nodes' times
        blow_up = get_preset("sec6_blowup")
        for preset, decomp, mesh in [
                (sec5_preset, sec5_decomp, Mesh(0.0, 4.0, 3998)),
                (blow_up, projectors_algebraic(blow_up.dae.pencil), Mesh(0.0, 0.2, 100))]:
            calls = []

            def counted(t, x, jac=preset.dae.jac_f):
                calls.append(t)
                return jac(t, x)

            dae = SemilinearDAE(pencil=preset.dae.pencil, f=preset.dae.f, jac_f=counted)
            traj = method1_solve(preset.dae, decomp, mesh, preset.x0)
            want = stability_report(dae, decomp, traj, max_samples=max_samples).to_json()
            with monkeypatch.context() as patched:
                patched.setattr(Trajectory, "times", property(
                    lambda traj: pytest.fail("formed every node time")))
                calls.clear()
                got = stability_report(dae, decomp, traj, max_samples=max_samples).to_json()
            assert got == want
            stride = -(-len(traj) // max_samples)
            assert calls == mesh.times()[:len(traj):stride].tolist()
        assert traj.status.outcome is SolveOutcome.BLOW_UP and len(traj) < mesh.n_steps + 1

    @pytest.mark.parametrize("max_samples", [0, -1, True, 2.5, 2.0,
                                             pytest.param(10**400, id="10**400")])
    def test_max_samples_below_one_is_refused(self, scalar_decay, max_samples):
        dae, decomp = scalar_decay
        traj = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]))
        with pytest.raises(ValueError, match="^max_samples must be an integer in \\[1, "):
            stability_report(dae, decomp, traj, max_samples=max_samples)


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

    def test_ends_compared_relative_to_their_size(self, scalar_decay):
        # on [5, 6] a t0 that differs by 1e-12 of itself is the same interval
        dae, decomp = scalar_decay
        run = method1_solve(dae, decomp, Mesh(5.0, 6.0, 10), np.array([1.0]))
        shifted = method1_solve(dae, decomp, Mesh(5.0 * (1 + 1e-12), 6.0, 20), np.array([1.0]))
        assert windowed_deviation(run, shifted) == windowed_deviation(shifted, run) > 0.0

    @pytest.mark.parametrize("fraction, message", [
        (True, "must be positive and finite"), (0.0, "must be positive and finite"),
        (float("nan"), "must be positive and finite"), (float("inf"), "must be positive and finite"),
        (1.5, "must not exceed 1"),
    ])
    def test_window_fraction_refusals(self, scalar_decay, fraction, message):
        # a bool is not a fraction: True once ran as 1.0
        dae, decomp = scalar_decay
        run = method1_solve(dae, decomp, Mesh(0.0, 1.0, 10), np.array([1.0]))
        with pytest.raises(ValueError, match=f"^window_fraction {message}$"):
            windowed_deviation(run, run, window_fraction=fraction)
        assert windowed_deviation(run, run, window_fraction=1) == 0.0

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
