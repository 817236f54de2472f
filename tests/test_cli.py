import json
from pathlib import Path

import numpy as np
import pytest

from pencildae import cli


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_solve_config(tmp_path: Path, **overrides) -> dict:
    config = {
        "model": "sec5_cubic",
        "method": "method1",
        "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 200},
        "outputs": {
            "trajectory_csv": str(tmp_path / "traj.csv"),
            "summary_json": str(tmp_path / "summary.json"),
        },
    }
    config.update(overrides)
    return config


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        path = write_config(tmp_path, base_solve_config(tmp_path))
        assert cli.main(["validate", path]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_zero_steps_names_field(self, tmp_path, capsys):
        cfg = base_solve_config(tmp_path)
        cfg["mesh"]["n_steps"] = 0
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", path]) == 1
        assert "n_steps" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = base_solve_config(tmp_path)
        cfg["surprise"] = 1
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", path]) == 1
        assert "surprise" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1


class TestSolve:
    def test_bounded_preset_run(self, tmp_path):
        cfg = base_solve_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 0
        csv_lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert csv_lines[0] == "t,x1,x2,x3,z_norm,u_norm,constraint_residual"
        assert len(csv_lines) == 202
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"]["outcome"] == "completed"
        assert summary["max_norm"] < 1.0
        assert len(summary["final_state"]) == 3

    def test_csv_bit_stable(self, tmp_path):
        cfg = base_solve_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 0
        first = (tmp_path / "traj.csv").read_bytes()
        assert cli.main(["solve", path, "--quiet"]) == 0
        assert (tmp_path / "traj.csv").read_bytes() == first

    def test_blow_up_exit_code(self, tmp_path):
        cfg = base_solve_config(tmp_path, model="sec6_blowup",
                                mesh={"t0": 0.0, "t_end": 2.0, "n_steps": 2000})
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"]["outcome"] == "blow_up"

    def test_inline_linear_model(self, tmp_path):
        cfg = base_solve_config(
            tmp_path,
            model={"a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0, 0.0], [0.0, 2.0]]},
            initial_state={"x0": [1.0, 1.0]},
        )
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        # pure decay from (1, 1)
        assert summary["max_norm"] == pytest.approx(np.sqrt(2.0))

    def test_inline_model_needs_initial_state(self, tmp_path, capsys):
        cfg = base_solve_config(
            tmp_path, model={"a": [[1.0, 0.0], [0.0, 1.0]],
                             "b": [[0.0, 0.0], [0.0, 0.0]]})
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 1
        assert "initial_state" in capsys.readouterr().err

    def test_non_regular_inline_pencil(self, tmp_path, capsys):
        cfg = base_solve_config(
            tmp_path,
            model={"a": [[1.0, 0.0], [0.0, 0.0]], "b": [[0.0, 0.0], [0.0, 0.0]]},
            initial_state={"x0": [0.0, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 2
        assert "pencil error" in capsys.readouterr().err

    def test_inconsistent_x0_is_config_error(self, tmp_path):
        cfg = base_solve_config(tmp_path, initial_state={"x0": [0.0, 1.0, 0.0]})
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 1

    def test_z0_mode_consistent_initialization(self, tmp_path):
        cfg = base_solve_config(tmp_path, initial_state={"z0": [1.0, 1.0, 0.0]},
                                mesh={"t0": 0.0, "t_end": 0.1, "n_steps": 50})
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"]["outcome"] == "completed"

    def test_out_dir_redirect(self, tmp_path):
        cfg = base_solve_config(tmp_path)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "results"
        assert cli.main(["solve", path, "--out-dir", str(out), "--quiet"]) == 0
        assert (out / "traj.csv").exists()
        assert (out / "summary.json").exists()

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        path = write_config(tmp_path, base_solve_config(tmp_path))
        cli.main(["solve", path, "--quiet"])
        assert capsys.readouterr().out == ""

    def test_iterate_corrector_config(self, tmp_path):
        cfg = base_solve_config(
            tmp_path, corrector={"mode": "iterate", "tol": 1e-10, "max_iter": 50})
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 0
        csv_lines = (tmp_path / "traj.csv").read_text().splitlines()
        residuals = [float(line.rsplit(",", 1)[1]) for line in csv_lines[1:]]
        assert max(residuals) <= 1e-8

    def test_blow_up_threshold_config(self, tmp_path):
        # a tiny threshold turns a bounded run into an early blow-up report
        cfg = base_solve_config(tmp_path, model="sec6_sine_powerdecay",
                                blow_up_threshold=5.0,
                                mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 1000})
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 3


@pytest.mark.slow
def test_solve_long_interval_bounded(tmp_path):
    cfg = base_solve_config(tmp_path, mesh={"t0": 0.0, "t_end": 50.0, "n_steps": 50000})
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", path, "--quiet"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"]["outcome"] == "completed"
    assert summary["max_norm"] < 1.0


class TestConverge:
    def test_index0_linear_preset(self, tmp_path):
        cfg = {
            "model": "linear_index0",
            "method": "method1",
            "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 10},
            "study": {"refinements": 4},
            "outputs": {"summary_json": str(tmp_path / "study.json")},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["converge", path, "--quiet"]) == 0
        study = json.loads((tmp_path / "study.json").read_text())
        assert 0.8 <= study["z"]["asymptotic_order"] <= 1.3
        assert study["u"] is None

    def test_index1_toy_method2(self, tmp_path):
        cfg = {
            "model": "toy_index1",
            "method": "method2",
            "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 20},
            "study": {"refinements": 4},
            "outputs": {"summary_json": str(tmp_path / "study.json")},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["converge", path, "--quiet"]) == 0
        study = json.loads((tmp_path / "study.json").read_text())
        assert 1.7 <= study["z"]["asymptotic_order"] <= 2.3

    def test_circuit_method2_order_via_cli(self, tmp_path):
        # preset-default x0 = 0 leaves the algebraic component at roundoff
        # scale, so the study starts from a consistent nonzero point
        cfg = {
            "model": "sec5_cubic",
            "method": "method2",
            "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 100},
            "initial_state": {"x0": [0.5, -0.5, 0.25]},
            "study": {"refinements": 4},
            "outputs": {"summary_json": str(tmp_path / "study.json")},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["converge", path, "--quiet"]) == 0
        study = json.loads((tmp_path / "study.json").read_text())
        assert 1.7 <= study["z"]["asymptotic_order"] <= 2.3
        assert 1.7 <= study["u"]["asymptotic_order"] <= 2.3

    def test_non_smooth_preset_skipped(self, tmp_path):
        cfg = {
            "model": "sec6_triangular",
            "method": "method1",
            "mesh": {"t0": 0.0, "t_end": 10.0, "n_steps": 1000},
            "study": {"refinements": 4},
            "outputs": {"summary_json": str(tmp_path / "study.json")},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["converge", path, "--quiet"]) == 0
        study = json.loads((tmp_path / "study.json").read_text())
        assert study["skipped_reason"] == "non-smooth input"
        assert "z" not in study

    def test_study_required(self, tmp_path, capsys):
        path = write_config(tmp_path, base_solve_config(tmp_path))
        assert cli.main(["converge", path, "--quiet"]) == 1
        assert "study" in capsys.readouterr().err


class TestProjectors:
    def test_circuit_projectors(self, tmp_path):
        cfg = {"model": "sec5_cubic",
               "outputs": {"summary_json": str(tmp_path / "proj.json")}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["projectors", path, "--quiet"]) == 0
        payload = json.loads((tmp_path / "proj.json").read_text())
        assert payload["index"] == "index1"
        assert payload["passed"] is True
        np.testing.assert_allclose(payload["p2"][2], [0.0, 0.5, 1.0], atol=1e-12)
        assert payload["residue_agreement"] <= 1e-8
        assert payload["det_g"] == pytest.approx(500.0)
        assert payload["validation"]["passed"] is True

    def test_identity_inline_pencil(self, tmp_path):
        cfg = {"model": {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [[0.0, 0.0], [0.0, 0.0]]},
               "outputs": {"summary_json": str(tmp_path / "proj.json")}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["projectors", path, "--quiet"]) == 0
        payload = json.loads((tmp_path / "proj.json").read_text())
        assert payload["index"] == "index0"
        np.testing.assert_allclose(payload["p1"], np.eye(2))

    def test_non_regular_pencil_exit_2(self, tmp_path):
        cfg = {"model": {"a": [[1.0, 0.0], [0.0, 0.0]], "b": [[0.0, 0.0], [0.0, 0.0]]}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["projectors", path, "--quiet"]) == 2


def test_unknown_preset_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"model": "sec5_qubic"})
    assert cli.main(["projectors", path, "--quiet"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def per_value_csv(path, traj):
    """The trajectory CSV written one formatted value at a time."""
    fmt = lambda value: format(float(value), ".17g")  # noqa: E731
    n = traj.states.shape[1]
    z_norms = np.linalg.norm(traj.z_history, axis=1)
    u_norms = np.linalg.norm(traj.u_history, axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(n))
                 + ",z_norm,u_norm,constraint_residual\n")
        for i in range(len(traj)):
            row = [fmt(traj.times[i])] + [fmt(v) for v in traj.states[i]]
            row += [fmt(z_norms[i]), fmt(u_norms[i]), fmt(traj.residuals[i])]
            fh.write(",".join(row) + "\n")


class TestTrajectoryCsv:
    def assert_same_bytes(self, tmp_path, traj):
        cli._write_trajectory_csv(tmp_path / "new.csv", traj)
        per_value_csv(tmp_path / "old.csv", traj)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_extreme_values(self, tmp_path):
        from pencildae import Mesh, SolveOutcome, SolveStatus, Trajectory
        states = np.array([[-1.5, 1e-300, -0.0], [1e300, -2.5e-308, 1.0 / 3.0],
                           [-7.0, 123456789.125, -1e-17], [np.inf, -np.inf, np.nan]])
        traj = Trajectory(times=np.array([0.0, 0.1, 0.2, 0.30000000000000004]),
                          states=states, z_history=0.5 * states, u_history=-0.5 * states,
                          residuals=np.array([0.0, 1e-300, 4.2e-16, np.inf]),
                          status=SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=0.3),
                          mesh=Mesh(0.0, 0.4, 4))
        self.assert_same_bytes(tmp_path, traj)

    def test_truncated_blow_up_run(self, tmp_path):
        from pencildae import Mesh, get_preset, method1_solve, projectors_algebraic
        preset = get_preset("sec6_blowup")
        traj = method1_solve(preset.dae, projectors_algebraic(preset.dae.pencil),
                             Mesh(0.0, 2.0, 2000), preset.x0)
        assert not traj.status.completed and len(traj) < 2001
        self.assert_same_bytes(tmp_path, traj)


class TestBoundary:
    def test_nan_initial_state_is_config_error(self, tmp_path, capsys):
        cfg = base_solve_config(tmp_path, initial_state={"x0": [float("nan"), 0.0, 0.0]})
        path = write_config(tmp_path, cfg)   # json.dumps writes a bare NaN
        assert cli.main(["solve", path, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "initial_state/x0/0" in err
        assert not (tmp_path / "summary.json").exists()

    def test_out_of_range_literal_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        text = json.dumps(base_solve_config(tmp_path)).replace('"t_end": 1.0', '"t_end": 1e400')
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mesh/t_end" in err

    def test_infinite_inline_coefficient_is_config_error(self, tmp_path, capsys):
        cfg = base_solve_config(
            tmp_path, model={"a": [[1.0]], "b": [[1.0]], "f_const": [float("inf")]},
            initial_state={"x0": [1.0]})
        assert cli.main(["solve", write_config(tmp_path, cfg), "--quiet"]) == 1
        assert "model/f_const/0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "converge"])
    def test_method2_single_step_mesh_is_config_error(self, tmp_path, capsys, command):
        cfg = base_solve_config(tmp_path, method="method2",
                                mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 1},
                                study={"refinements": 3})
        assert cli.main([command, write_config(tmp_path, cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mesh/n_steps" in err

    def test_json_is_strict(self, tmp_path):
        payload = {"max_norm": float("nan"), "final_state": [1.0, float("inf")],
                   "nested": {"x": -float("inf"), "ok": 2.5}, "count": 3}
        cli._write_json(tmp_path / "out.json", payload)

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        parsed = json.loads((tmp_path / "out.json").read_text(), parse_constant=refuse)
        assert parsed == {"max_norm": None, "final_state": [1.0, None],
                          "nested": {"x": None, "ok": 2.5}, "count": 3}


def test_solve_does_not_import_scipy(tmp_path):
    # scipy.linalg serves only the residue projectors; a solve must not pay for it
    import os
    import subprocess
    import sys

    import pencildae
    path = write_config(tmp_path, base_solve_config(tmp_path))
    code = ("import sys, pencildae.cli as c; "
            f"assert c.main(['solve', {path!r}, '--quiet']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(pencildae.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "[]"
