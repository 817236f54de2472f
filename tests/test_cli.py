import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pencildae import PRESET_IDS, cli, get_preset
from pencildae.integrators import _BLOCK, _row_norms


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def strict_json(path: Path):
    """Parse a JSON file, refusing NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


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

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"model": "sec5_cubic\xff"}')
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_ragged_inline_matrix(self, tmp_path, capsys):
        cfg = base_solve_config(tmp_path, model={"a": [[1.0, 0.0], [1.0]], "b": [[1.0]]},
                                initial_state={"x0": [1.0]})
        assert cli.main(["solve", write_config(tmp_path, cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: inline model: ") and err.count("\n") == 1


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

    def test_csv_norm_of_a_huge_state(self, tmp_path):
        # ||x||^2 overflows at 1e155; the z_norm column stays finite
        cfg = base_solve_config(tmp_path, model={"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]]},
                                initial_state={"x0": [1e155, 0]}, blow_up_threshold=1e300,
                                mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 4})
        assert cli.main(["solve", write_config(tmp_path, cfg), "--quiet"]) == 0
        rows = (tmp_path / "traj.csv").read_text().splitlines()
        assert rows[1] == "0,1e+155,0,1e+155,0,0"


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

    def test_failed_ladder_writes_its_json(self, tmp_path):
        cfg = {
            "model": "sec6_blowup",
            "method": "method1",
            "mesh": {"t0": 0.0, "t_end": 0.2, "n_steps": 50},
            "study": {"refinements": 3},
            "outputs": {"summary_json": str(tmp_path / "study.json")},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["converge", path, "--quiet"]) == 3

        study = strict_json(tmp_path / "study.json")
        failure = study.pop("ladder_failure")
        assert study == {"model": "sec6_blowup", "method": "method1", "base_h": 0.2 / 50,
                         "refinements": 3}
        assert failure["h"] == 0.2 / 50       # the first level already blows up
        assert failure["status"]["outcome"] == "blow_up"
        assert 0.0 < failure["status"]["blow_up_time"] < 0.2

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
        # the 32-node rule's error at radius/pole ratio 1/2 is about 0.5**32
        assert payload["residue_quadrature_error"] == pytest.approx(0.5 ** 32, rel=0.1)
        assert payload["det_g"] == pytest.approx(500.0)
        assert payload["validation"]["passed"] is True

    def test_odd_node_count_has_no_error_estimate(self, tmp_path):
        cfg = {"model": "sec5_cubic", "projector_node_count": 63,
               "outputs": {"summary_json": str(tmp_path / "proj.json")}}
        assert cli.main(["projectors", write_config(tmp_path, cfg), "--quiet"]) == 0
        payload = strict_json(tmp_path / "proj.json")
        assert payload["residue_quadrature_error"] is None
        assert payload["residue_agreement"] <= 1e-13

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
    """The trajectory CSV written one formatted value at a time (the row norms
    are the library's, checked on their own in test_integrators)."""
    fmt = lambda value: format(float(value), ".17g")  # noqa: E731
    n = traj.states.shape[1]
    z_norms = _row_norms(traj.z_history)
    u_norms = _row_norms(traj.u_history)
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
        states = np.array([[-1.5, 1e-300, 0.0], [1e300, -2.5e-308, 1.0 / 3.0],
                           [-7.0, 123456789.125, -1e-17], [np.inf, -np.inf, np.nan],
                           [np.inf, np.inf, np.inf], [1e300, 1e300, 1e300]])
        # built by hand: splitting x by the projectors would spread inf and NaN
        # over every column. With N = (1, 1, 1)^T, u_i = (c_i, c_i, c_i), and a c
        # of -0.0 or one below z's ulp leaves x = z bit for bit, except that
        # N c sums from +0.0, so -0.0 + N(-0.0) is +0.0: the residuals carry -0.0
        z = states.copy()
        z[0, 2], z[4], z[5] = -0.0, [1.0, -2.0, 0.5], [0.0, -0.0, 0.0]
        traj = Trajectory(times=np.array([0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]),
                          z_history=z, coords=np.array([[-0.0], [-0.0], [2.5e-308], [-0.0],
                                                        [np.inf], [1e300]]),
                          x2_basis=np.ones((3, 1)),
                          residuals=np.array([0.0, 1e-300, 4.2e-16, np.inf, np.nan, -0.0]),
                          status=SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=0.5),
                          mesh=Mesh(0.0, 0.6, 6))
        assert traj.states.tobytes() == states.tobytes()
        norms = np.column_stack((_row_norms(traj.z_history), _row_norms(traj.u_history)))
        assert np.isnan(norms[3, 0]) and norms[4, 1] == np.inf and norms[5, 0] == 0.0
        assert 0.0 < norms[2, 1] < 1e-307 and np.isfinite(norms[1]).all()
        self.assert_same_bytes(tmp_path, traj)

    def test_truncated_blow_up_run(self, tmp_path):
        from pencildae import Mesh, get_preset, method1_solve, projectors_algebraic
        preset = get_preset("sec6_blowup")
        traj = method1_solve(preset.dae, projectors_algebraic(preset.dae.pencil),
                             Mesh(0.0, 2.0, 2000), preset.x0)
        assert not traj.status.completed and len(traj) < 2001
        self.assert_same_bytes(tmp_path, traj)

    @pytest.mark.parametrize("n_steps", [4095, 4096])
    def test_block_boundaries(self, tmp_path, n_steps):
        # exactly one full block of integrators._BLOCK rows, then one row more
        from pencildae import Mesh, get_preset, method1_solve, projectors_algebraic
        preset = get_preset("sec5_cubic")
        traj = method1_solve(preset.dae, projectors_algebraic(preset.dae.pencil),
                             Mesh(0.0, 1.0, n_steps), preset.x0)
        assert len(traj) == n_steps + 1 and _BLOCK == 4096
        self.assert_same_bytes(tmp_path, traj)

    def test_truncated_blow_up_run_across_a_block_boundary(self, tmp_path):
        from pencildae import Mesh, get_preset, method1_solve, projectors_algebraic
        preset = get_preset("sec6_blowup")
        traj = method1_solve(preset.dae, projectors_algebraic(preset.dae.pencil),
                             Mesh(0.0, 0.2, 20000), preset.x0)
        assert traj.status.outcome.value == "blow_up"
        assert _BLOCK < len(traj) < 2 * _BLOCK
        self.assert_same_bytes(tmp_path, traj)

    def test_single_row(self, tmp_path):
        # a singular first correction keeps the initial node only
        from pencildae import (Mesh, MatrixPencil, SemilinearDAE, method1_solve,
                               projectors_algebraic)
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))
        dae = SemilinearDAE(pencil=pencil, f=lambda t, x: np.array([0.0, x[1]]),
                            jac_f=lambda t, x: np.array([[0.0, 0.0], [0.0, 1.0]]))
        traj = method1_solve(dae, projectors_algebraic(pencil), Mesh(0.0, 1.0, 10),
                             np.array([-1.0 / 3.0, 0.0]))
        assert len(traj) == 1
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

    def test_integer_past_the_digit_limit_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"   # json.dumps cannot write this integer
        path.write_text('{"model": "sec5_cubic", "seed": 1' + "0" * 5000 + "}",
                        encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

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

        parsed = strict_json(tmp_path / "out.json")
        assert parsed == {"max_norm": None, "final_state": [1.0, None],
                          "nested": {"x": None, "ok": 2.5}, "count": 3}


def modules_left_by(tmp_path, runs, packages) -> list:
    """Run each (command, config) in a fresh interpreter; return, per run, the
    loaded modules that are one of ``packages`` or inside one."""
    import os
    import subprocess
    import sys

    import pencildae
    src = str(Path(pencildae.__file__).resolve().parents[1])
    found = []
    for i, (command, cfg) in enumerate(runs):
        path = write_config(tmp_path, cfg, name=f"config{i}.json")
        code = ("import sys, pencildae.cli as c; "
                f"assert c.main([{command!r}, {path!r}, '--quiet']) == 0; "
                "print(sorted(m for m in sys.modules "
                f"if any(m == p or m.startswith(p + '.') for p in {tuple(packages)!r})))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True)
        found.append((command, out.stdout.strip()))
    return found


def test_no_command_imports_scipy(tmp_path):
    # scipy serves only the tests and the benchmark's references, and no
    # command pays for a schema library either; each runs in a fresh process
    inline = {"model": {"a": [[1, 0], [0, 0]], "b": [[-1, 1], [1, 1]]},
              "outputs": {"summary_json": str(tmp_path / "inline.json")}}
    runs = [("solve", base_solve_config(tmp_path)),
            ("converge", base_solve_config(tmp_path, study={"refinements": 3})),
            ("projectors", {"model": "sec5_cubic",
                            "outputs": {"summary_json": str(tmp_path / "proj.json")}}),
            ("projectors", inline),
            ("validate", base_solve_config(tmp_path))]
    for command, modules in modules_left_by(tmp_path, runs, ("scipy", "jsonschema")):
        assert modules == "[]", (command, modules)


def test_no_command_imports_numpy_random(tmp_path):
    # the regularity probe's points are a closed-form sequence: numpy.random
    # (with hashlib and secrets) would cost each command ~6 MB and ~15 ms
    inline = base_solve_config(tmp_path, study={"refinements": 3}, initial_state={"x0": [1, 1]},
                               model={"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]],
                                      "f_matrix": [[0, 0], [1, 0]]})  # x2 = x1
    proj = {"summary_json": str(tmp_path / "proj.json")}
    runs = [(command, cfg) for cfg in (base_solve_config(tmp_path, study={"refinements": 3}),
                                       inline)
            for command in ("solve", "converge")]
    runs += [("projectors", {"model": "sec5_cubic", "outputs": proj}),
             ("projectors", dict(inline, outputs=proj))]
    for command, modules in modules_left_by(tmp_path, runs, ("numpy.random",)):
        assert modules == "[]", (command, modules)


def test_blow_up_verdict_depends_on_the_corrector(tmp_path):
    # one diverging trajectory, two verdicts: the single-step corrector runs on
    # until the norm crosses the 1e6 threshold, while iterate misses its Newton
    # tolerance first, near a norm of 1e4
    mesh = {"t0": 0.0, "t_end": 0.2, "n_steps": 2000}
    for method in ("method1", "method2"):
        got, err = run_cli("solve", {"model": "sec6_blowup", "method": method,
                                     "mesh": mesh}, tmp_path)
        assert (got, err.split(":")[0]) == (3, "blow-up"), err
        got, err = run_cli("solve", {"model": "sec6_blowup", "method": method, "mesh": mesh,
                                     "corrector": {"mode": "iterate", "tol": 1e-10}},
                           tmp_path)
        assert (got, err.split(":")[0]) == (4, "corrector failure"), err
        assert float(err.rsplit("max norm ", 1)[1]) < 1e6


# ---------------------------------------------------------------------------
# the exit-code contract: every config ends in exit 0-4, exit 0 with nothing
# on stderr, any other exit with exactly one stderr line, never a traceback

PRESETS = (*PRESET_IDS, "lagrange_unstable")
PRESET_DIMS = {preset_id: get_preset(preset_id).dae.n for preset_id in PRESETS}
STATE_VALUES = (0.0, 1.0, -1.0, 1e50, 1e103, -1e103, 1e154, 1e200, 1e300, -1e300)
PENCIL_ENTRIES = (0.0, 1.0, -1.0, 2.0, 1e-14, 1e14)
F_ENTRIES = (*PENCIL_ENTRIES, 1e150, -1e300, 1e300)


def run_cli(command: str, config: dict, out_dir: Path) -> tuple[int, str]:
    """(exit code, stderr) of one run; a warning would be a stray stderr line."""
    path = write_config(out_dir, config)
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([command, path, "--out-dir", str(out_dir)])
    return code, err.getvalue()


def assert_contract(code: int, err: str, out_dir: Path) -> None:
    assert code in range(5)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    for path in out_dir.glob("*.json"):
        if path.name != "config.json":
            strict_json(path)


@st.composite
def cli_runs(draw):
    """(command, config) over presets, inline pencils, meshes, states, correctors."""
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    command = pick(("solve", "converge", "projectors", "validate"))
    if draw(st.booleans()):
        model = pick(PRESETS)
        n = PRESET_DIMS[model]
    else:
        n = draw(st.integers(1, 3))

        def matrix(entries):
            return [[pick(entries) for _ in range(n)] for _ in range(n)]

        model = {"a": matrix(PENCIL_ENTRIES), "b": matrix(PENCIL_ENTRIES)}
        if draw(st.booleans()):
            model["f_const"] = [pick(F_ENTRIES) for _ in range(n)]
        if draw(st.booleans()):
            model["f_matrix"] = matrix(F_ENTRIES)
    config = {"model": model, "method": pick(("method1", "method2"))}
    if command != "projectors" or draw(st.booleans()):
        config["mesh"] = {"t0": pick((0.0, -5.0, 1e300)), "t_end": pick((0.5, 1.0, 1e301)),
                          "n_steps": draw(st.integers(1, 8))}
    state = pick(("default", "x0", "z0", "absent"))
    if state == "default":
        config["initial_state"] = "preset_default"
    elif state != "absent":
        size = n + draw(st.sampled_from((0, 0, 0, 1)))   # now and then the wrong length
        config["initial_state"] = {state: [pick(STATE_VALUES) for _ in range(size)]}
    # tol and max_iter may each be left out; single_step ignores them
    corrector = config["corrector"] = {"mode": pick(("iterate", "single_step"))}
    if draw(st.booleans()):
        corrector["tol"] = pick((1e-300, 1e-12, 1e-3))
    if draw(st.booleans()):
        corrector["max_iter"] = draw(st.integers(1, 5))
    if draw(st.booleans()):
        config["blow_up_threshold"] = pick((1e-3, 1e6, 1e300))
    if not draw(st.integers(0, 19)):   # now and then a non-finite number
        config["blow_up_threshold"] = pick((float("nan"), float("inf")))
    if command == "converge" and draw(st.integers(0, 9)):
        config["study"] = {"refinements": 3}
    if not draw(st.integers(0, 4)):   # now and then past the node cap
        config["projector_node_count"] = pick((8, 64, 2**16 + 1, 10**18))
    if not draw(st.integers(0, 2)):   # now and then malformed structure
        mutation = pick(("value", "unknown key", "seed", "x0 and z0"))
        if mutation == "value":
            container, key = pick(list(slots(config)))
            container[key] = pick(MALFORMED)
        elif mutation == "unknown key":
            pick([node for node, _ in slots(config) if isinstance(node, dict)])["surprise"] = 1
        elif mutation == "seed":
            config["seed"] = pick((-1, -2.0, 0, 3.0, 2.5, True))
        else:
            config["initial_state"] = {"x0": [0.0] * n, "z0": [0.0] * n}
    return command, config


# wrong types, booleans, empty arrays, an integer beyond the float range, a
# negative and a fractional number, a float-valued integer
MALFORMED = (True, False, None, "x", [], [[]], {}, 10**400, -(10**400), -1, 2.5, 4.0)


def slots(node):
    """(container, key) of every value in a parsed config, the root's included."""
    for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from slots(child)


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_runs())
def test_exit_code_contract(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli(command, config, Path(tmp))
        assert_contract(code, err, Path(tmp))
    if command == "validate" and code:   # refused by the walk, never a later stage
        assert err.startswith("config error: config field '"), err


MESH = {"t0": 0.0, "t_end": 1.0, "n_steps": 4}


@pytest.mark.parametrize("command, config, code, prefix", [
    # f overflows at the initial point
    ("solve", {"model": "sec5_cubic", "mesh": MESH, "initial_state": {"x0": [1e200, 0, 0]}},
     1, "initial-state error: f cannot be evaluated at the initial point: OverflowError"),
    # f overflows inside the consistent initialisation
    ("solve", {"model": "sec5_cubic", "mesh": MESH, "initial_state": {"z0": [1e200, 0, 0]}},
     1, "initial-state error: OverflowError"),
    # the drive (2t + 10)^-2 has its pole at t0
    ("solve", {"model": "sec6_sine_powerdecay",
               "mesh": {"t0": -5.0, "t_end": 1.0, "n_steps": 2}},
     1, "initial-state error: f cannot be evaluated at the initial point: ZeroDivisionError"),
    # t^2 overflows at t0
    ("solve", {"model": "sec6_polynomial",
               "mesh": {"t0": 1e300, "t_end": 1e301, "n_steps": 2}},
     1, "initial-state error: f cannot be evaluated at the initial point: OverflowError"),
    # an ill-conditioned P1 leaves P1 z0 outside X1
    ("solve", {"model": {"a": [[2, 1e14], [0, 0]], "b": [[-1, 1e-14], [3, -1]]}, "mesh": MESH,
               "initial_state": {"z0": [1e50, -3]}},
     1, "initial-state error: ValueError: z0 must lie in X1"),
    # the resolvent (1e-310 I)^-1 overflows at every node of the contour
    ("projectors", {"model": {"a": [[1e-310, 0], [0, 1e-310]], "b": [[0, 0], [0, 0]]}},
     2, "pencil error: ContourSolveFailedError: "),
    # the algebraic projectors fail their identity or residue check
    ("projectors", {"model": {"a": [[1, -1, -1], [2, 0, 1e-14], [-1, 2, 0]],
                              "b": [[1e14, 2, 0], [1e-14, 2, 0], [0, 2, 1]]}},
     2, "pencil error: DecompositionFailedError: projectors of <inline> failed their check"),
    # the errors of a study from the origin underflow the measurable floor
    ("converge", {"model": "sec5_cubic", "method": "method2",
                  "mesh": {"t0": 0.0, "t_end": 0.5, "n_steps": 50},
                  "study": {"refinements": 3}},
     1, "study error: errors "),
    ("solve", {"model": "sec6_blowup", "mesh": {"t0": 0.0, "t_end": 2.0, "n_steps": 2000}},
     3, "blow-up: solve sec6_blowup stopped at t=0.083, max norm 2.4711e+07"),
    ("solve", {"model": "sec6_blowup", "mesh": {"t0": 0.0, "t_end": 0.2, "n_steps": 2000},
               "corrector": {"mode": "iterate", "tol": 1e-10, "max_iter": 50}},
     4, "corrector failure: solve sec6_blowup stopped at t=0.0799, max norm 10139.1"),
    ("converge", {"model": "sec6_blowup", "mesh": {"t0": 0.0, "t_end": 0.2, "n_steps": 50},
                  "study": {"refinements": 3}},
     3, "blow-up: converge sec6_blowup: ladder solve at h=0.004 ended with blow_up"),
    # JSON integers beyond the float range, a negative seed, a method-2 mesh of one step
    ("solve", {"model": "sec5_cubic", "mesh": dict(MESH, n_steps=10**400)},
     1, "config error: config field 'mesh/n_steps': not a finite number"),
    ("solve", {"model": "sec5_cubic", "mesh": dict(MESH, t_end=10**400)},
     1, "config error: config field 'mesh/t_end': not a finite number"),
    ("projectors", {"model": "sec5_cubic", "projector_node_count": 10**400},
     1, "config error: config field 'projector_node_count': not a finite number"),
    ("projectors", {"model": "sec5_cubic", "seed": -1},
     1, "config error: config field 'seed': must be >= 0"),
    ("validate", {"model": "sec5_cubic", "method": "method2", "mesh": dict(MESH, n_steps=1)},
     1, "config error: config field 'mesh/n_steps': method2 needs at least 2 steps"),
    # f_matrix @ x overflows to -inf and the next z-step to NaN: the step that
    # made the NaN node fails, and the run keeps the nodes before it
    ("solve", {"model": {"a": [[1, -1], [0, 1]], "b": [[1, 0], [0, 1]],
                         "f_matrix": [[0, 1e300], [0, -1e300]]},
               "mesh": MESH, "initial_state": {"x0": [1e-150, 1e-150]},
               "blow_up_threshold": 1e300},
     4, "corrector failure: solve <inline> stopped at t=0.25, max norm 2.5e+149"),
    # (t_end - t0) overflows to inf
    ("solve", {"model": "sec5_cubic", "mesh": {"t0": -1e308, "t_end": 1e308, "n_steps": 4}},
     1, "config error: config field 'mesh': the step (t_end - t0)/n_steps must be finite"),
    # meshes no machine can allocate or numpy index
    ("solve", {"model": "sec5_cubic", "mesh": dict(MESH, n_steps=10**18)},
     1, "config error: Unable to allocate"),
    ("solve", {"model": "sec5_cubic", "mesh": dict(MESH, n_steps=10**19)},
     1, "config error: config field 'mesh': n_steps must be below"),
    # more residue nodes than the cap: refused, not looped over for ever
    ("projectors", {"model": "sec5_cubic", "projector_node_count": 10**18},
     1, "config error: config field 'projector_node_count': must be <= 65536"),
])
def test_failure_ends_in_one_stderr_line(tmp_path, command, config, code, prefix):
    got, err = run_cli(command, config, tmp_path)
    assert got == code
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert_contract(got, err, tmp_path)


def test_unwritable_output_is_config_error(tmp_path, capsys):
    cfg = base_solve_config(tmp_path, outputs={
        "trajectory_csv": str(tmp_path / "missing" / "traj.csv")})
    assert cli.main(["solve", write_config(tmp_path, cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [Errno 2] No such file or directory")
    assert err.count("\n") == 1


def test_failure_line_is_written_without_quiet_too(tmp_path, capsys):
    cfg = base_solve_config(tmp_path, model="sec6_blowup",
                            mesh={"t0": 0.0, "t_end": 2.0, "n_steps": 2000})
    assert cli.main(["solve", write_config(tmp_path, cfg)]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("solve sec6_blowup: blow_up, max norm")
    assert err.startswith("blow-up: ") and err.count("\n") == 1
