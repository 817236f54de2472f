import ast
import contextlib
import importlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pencildae import PRESET_IDS, cli, diagnostics, get_preset, integrators
from pencildae.integrators import _BLOCK, _row_norms
from pencildae.integrators import _in_child as cli_in_child


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

    def test_huge_finite_residuals_are_written_finite(self, tmp_path):
        # states grow to ~1e176; r^T r of a residual would overflow to inf
        cfg = base_solve_config(
            tmp_path,
            model={"a": [[1, 0], [0, 0]], "b": [[-50, 0], [0.3, 1]],
                   "f_matrix": [[0, 0], [0.7, 0.1]]},
            mesh={"t0": 0.0, "t_end": 10.0, "n_steps": 1000},
            initial_state={"x0": [1.0, 0.4 / 0.9]}, blow_up_threshold=1e300,
        )
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 0
        rows = (tmp_path / "traj.csv").read_text().splitlines()[1:]
        residuals = [float(row.rpartition(",")[2]) for row in rows]
        assert len(residuals) == 1001 and np.isfinite(residuals).all()

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
        # a tiny threshold turns a bounded run into an early blow-up report: from
        # x0 = 0 the sec5_cubic norm reaches 9.2e-4 on [0, 1], and 5e-4 lies between
        cfg = base_solve_config(tmp_path, blow_up_threshold=5e-4,
                                mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 1000})
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", path, "--quiet"]) == 3
        status = json.loads((tmp_path / "summary.json").read_text())["status"]
        assert status["outcome"] == "blow_up" and 0.0 < status["blow_up_time"] < 1.0
        rows = (tmp_path / "traj.csv").read_text().splitlines()[1:]
        assert len(rows) == round(status["blow_up_time"] * 1000) + 1

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

    @pytest.mark.parametrize("model, code", [("toy_index1", 0), ("sec6_blowup", 3)])
    def test_output_is_the_one_process_output(self, tmp_path, monkeypatch, model, code):
        # the finest level solved in a forked child changes no byte of the study
        cfg = {"model": model, "method": "method2",
               "mesh": {"t0": 0.0, "t_end": 0.2, "n_steps": 50}, "study": {"refinements": 4}}
        written = []
        for out_dir in (tmp_path / "forked", tmp_path / "in_process"):
            path = write_config(tmp_path, cfg)
            assert cli.main(["converge", path, "--out-dir", str(out_dir), "--quiet"]) == code
            written.append((out_dir / "summary.json").read_bytes())
            monkeypatch.setattr(diagnostics, "_in_child", contextlib.nullcontext)
        assert written[0] == written[1]

    def test_study_required(self, tmp_path, capsys):
        path = write_config(tmp_path, base_solve_config(tmp_path))
        assert cli.main(["converge", path, "--quiet"]) == 1
        assert "study" in capsys.readouterr().err


def rotated_nilpotent() -> list:
    """Q J Q^T, J a 3x3 Jordan block at 0, Q a seeded random orthogonal matrix."""
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    return (q @ np.diag([1.0, 1.0], 1) @ q.T).tolist()


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

    @pytest.mark.parametrize("a, b", [
        # the spurious moduli (~4e5) of B's infinite root put the uncapped
        # contour where the resolvent loses every digit
        (np.eye(3).tolist(), rotated_nilpotent()),
        # ||B|| = 1e14: the uncapped contour left an agreement of 1e-7
        ([[1, -1, -1], [2, 0, 1e-14], [-1, 2, 0]], [[1e14, 2, 0], [1e-14, 2, 0], [0, 2, 1]]),
    ], ids=["rotated_nilpotent_b", "b_norm_1e14"])
    def test_capped_radius_passes(self, tmp_path, a, b):
        cfg = {"model": {"a": a, "b": b},
               "outputs": {"summary_json": str(tmp_path / "proj.json")}}
        assert cli.main(["projectors", write_config(tmp_path, cfg), "--quiet"]) == 0
        payload = strict_json(tmp_path / "proj.json")
        assert payload["passed"] is True
        assert payload["residue_agreement"] <= 1e-13

    def test_non_regular_pencil_exit_2(self, tmp_path):
        cfg = {"model": {"a": [[1.0, 0.0], [0.0, 0.0]], "b": [[0.0, 0.0], [0.0, 0.0]]}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["projectors", path, "--quiet"]) == 2


def test_unknown_preset_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"model": "sec5_qubic"})
    assert cli.main(["projectors", path, "--quiet"]) == 1
    assert capsys.readouterr().err == ("config error: unknown preset 'sec5_qubic'; "
                                       f"known: {', '.join(PRESET_IDS)}\n")


def per_value_csv(path, traj):
    """The trajectory CSV written one formatted value at a time (the row norms
    are the library's, checked on their own in test_integrators)."""
    fmt = lambda value: format(float(value), ".17g")  # noqa: E731
    states = traj.states  # formed on each access
    n = states.shape[1]
    z_norms = _row_norms(traj.z_history)
    u_norms = _row_norms(traj.u_history)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(n))
                 + ",z_norm,u_norm,constraint_residual\n")
        for i in range(len(traj)):
            row = [fmt(traj.times[i])] + [fmt(v) for v in states[i]]
            row += [fmt(z_norms[i]), fmt(u_norms[i]), fmt(traj.residuals[i])]
            fh.write(",".join(row) + "\n")


def children_of(pid: int) -> list:
    """The ids of the processes, zombies included, whose parent is ``pid``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc") if os.path.isdir("/proc") else ()):
        with contextlib.suppress(OSError):   # the name may hold ") ": ppid follows the last
            if int(Path(f"/proc/{entry}/stat").read_bytes().rsplit(b")", 1)[1].split()[1]) == pid:
                found.append(int(entry))
    return found


def solve_in_process(tmp_path, monkeypatch, **config):
    """Run the ``solve`` command in process; check its CSV against ``per_value_csv`` of a
    library ``solve`` of the same config and that no child is left.  Returns the exit
    code, that trajectory and, for each formatter child, how many children the command
    had right after forking it."""
    alive = []

    @contextlib.contextmanager
    def in_child(work):
        with cli_in_child(work) as result:
            alive.append(len(children_of(os.getpid())))
            yield result
    monkeypatch.setattr(integrators, "_in_child", in_child)
    path = write_config(tmp_path, base_solve_config(tmp_path, **config))
    code = cli.main(["solve", path, "--quiet"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with np.errstate(all="ignore"):   # as main runs a command
        preset, decomp, mesh, solver_config, x0 = cli._set_up(cli.load_config(path))
        traj = integrators.solve(preset.dae, decomp, mesh, x0, solver_config)
    per_value_csv(tmp_path / "old.csv", traj)
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    return code, traj, alive


class TestTrajectoryCsv:
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
        traj = Trajectory(z_history=z, coords=np.array([[-0.0], [-0.0], [2.5e-308], [-0.0],
                                                        [np.inf], [1e300]]),
                          x2_basis=np.ones((3, 1)),
                          residuals=np.array([0.0, 1e-300, 4.2e-16, np.inf, np.nan, -0.0]),
                          status=SolveStatus(SolveOutcome.BLOW_UP, blow_up_time=0.5),
                          mesh=Mesh(0.0, 1.0, 10))   # its first 6 nodes; 3 * 0.1 rounds up
        assert traj.times.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]
        assert traj.states.tobytes() == states.tobytes()
        norms = np.column_stack((_row_norms(traj.z_history), _row_norms(traj.u_history)))
        assert np.isnan(norms[3, 0]) and norms[4, 1] == np.inf and norms[5, 0] == 0.0
        assert 0.0 < norms[2, 1] < 1e-307 and np.isfinite(norms[1]).all()
        # the rows of one block at node 0, formatted with the layers main binds for solve
        for name in cli._COMMANDS["solve"][2]:
            getattr(cli, name)
        rows = cli._csv_rows(traj.mesh, traj.x2_basis, 0, traj.z_history, traj.coords,
                             traj.residuals)
        per_value_csv(tmp_path / "old.csv", traj)
        assert rows == (tmp_path / "old.csv").read_bytes().split(b"\n", 1)[1]

    def test_truncated_blow_up_run(self, tmp_path, monkeypatch):
        code, traj, alive = solve_in_process(tmp_path, monkeypatch, model="sec6_blowup",
                                             mesh={"t0": 0.0, "t_end": 2.0, "n_steps": 2000})
        assert code == 3 and not traj.status.completed and len(traj) < 2001 and alive == []

    @pytest.mark.parametrize("n_steps", [4095, 4096, 8192, 50000])
    def test_block_boundaries(self, tmp_path, monkeypatch, n_steps):
        # exactly one full block of integrators._BLOCK rows, then one row more
        # (two blocks), three blocks and the 13 blocks of a 50 000-step run: a
        # child formats each block but the last, one child alive at a time
        code, traj, alive = solve_in_process(tmp_path, monkeypatch,
                                             mesh={"t0": 0.0, "t_end": 1.0, "n_steps": n_steps})
        assert code == 0 and len(traj) == n_steps + 1 and _BLOCK == 4096
        assert alive == [1] * (n_steps // _BLOCK)

    def test_truncated_blow_up_run_across_a_block_boundary(self, tmp_path, monkeypatch):
        code, traj, alive = solve_in_process(tmp_path, monkeypatch, model="sec6_blowup",
                                             mesh={"t0": 0.0, "t_end": 0.2, "n_steps": 20000})
        assert code == 3 and traj.status.outcome.value == "blow_up"
        assert _BLOCK < len(traj) < 2 * _BLOCK and alive == [1]

    def test_corrector_failure_across_a_block_boundary(self, tmp_path, monkeypatch):
        code, traj, alive = solve_in_process(
            tmp_path, monkeypatch, model="sec6_blowup",
            mesh={"t0": 0.0, "t_end": 0.2, "n_steps": 20000},
            corrector={"mode": "iterate", "tol": 1e-10, "max_iter": 50})
        assert code == 4 and traj.status.outcome.value == "corrector_failed"
        assert _BLOCK < len(traj) < 2 * _BLOCK and alive == [1]

    def test_dozens_of_blocks_keep_one_child_alive(self, tmp_path, monkeypatch):
        # 3001 nodes in blocks of 64: 46 children, each forked once the one
        # before it is reaped, so never more than 2 (in fact 1) alive
        monkeypatch.setattr(integrators, "_BLOCK", 64)
        code, _, alive = solve_in_process(tmp_path, monkeypatch,
                                          mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 3000})
        assert code == 0 and alive == [1] * 46

    @pytest.mark.parametrize("failure", ["raises", "sigkill"])
    def test_a_child_without_rows_leaves_them_to_the_command(self, tmp_path, monkeypatch,
                                                             capfd, failure):
        parent, csv_rows = os.getpid(), cli._csv_rows

        def rows_or_no_value(*block):
            if os.getpid() != parent:
                if failure == "raises":
                    raise MemoryError
                os.kill(os.getpid(), signal.SIGKILL)
            return csv_rows(*block)
        monkeypatch.setattr(cli, "_csv_rows", rows_or_no_value)
        code, _, alive = solve_in_process(tmp_path, monkeypatch,
                                          mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 9000})
        assert code == 0 and alive == [1, 1]
        assert capfd.readouterr() == ("", "")   # no child printed a traceback

    def test_single_row(self, tmp_path, monkeypatch):
        # a singular first correction keeps the initial node only
        code, traj, alive = solve_in_process(
            tmp_path, monkeypatch, initial_state={"x0": [-1.0 / 3.0, 0.0]},
            model={"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]], "f_matrix": [[0, 0], [0, 1]]},
            mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 10})
        assert code == 4 and len(traj) == 1 and alive == []

    def test_the_command_holds_no_whole_run(self, tmp_path):
        # its memory does not grow with the interval: an in-process solve peaks alike
        # (tracemalloc, numpy's arrays included) at 10 000 and at 100 000 steps
        def peak(n_steps):
            path = write_config(tmp_path, base_solve_config(
                tmp_path, mesh={"t0": 0.0, "t_end": 50.0, "n_steps": n_steps}))
            tracemalloc.start()
            try:
                assert cli.main(["solve", path, "--quiet"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(10)   # the layers load outside the traced runs
        small, large = peak(10_000), peak(100_000)
        assert abs(large - small) <= 2**19, (small, large)


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


def fresh_python(args, env=(), **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this pencildae;
    ``env`` overrides variables of the environment, and a None value unsets one."""
    env = {**os.environ, **dict(env), "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], **kwargs,
                          env={key: value for key, value in env.items() if value is not None})


def modules_left_by(tmp_path, runs, packages) -> list:
    """Run each (command, config) in a fresh interpreter; return, per run, the
    loaded modules that are one of ``packages`` or inside one."""
    found = []
    for i, (command, cfg) in enumerate(runs):
        path = write_config(tmp_path, cfg, name=f"config{i}.json")
        code = ("import sys, pencildae.cli as c; "
                f"assert c.main([{command.split()[0]!r}, {path!r}, '--quiet']) == 0; "
                "print(sorted(m for m in sys.modules "
                f"if any(m == p or m.startswith(p + '.') for p in {tuple(packages)!r})))")
        out = fresh_python(["-c", code], capture_output=True, text=True, check=True)
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


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    # importing pencildae.cli loads no numpy and no layer; main imports a command's;
    # only the three dataclasses (in dae_model, integrators, model_library) load dataclasses;
    # the usual command line is read without argparse (and the gettext and locale it loads)
    proj = {"model": "sec5_cubic", "outputs": {"summary_json": str(tmp_path / "proj.json")}}
    inline = {"model": {"a": [[1, 0], [0, 0]], "b": [[-1, 1], [1, 1]]},
              "outputs": {"summary_json": str(tmp_path / "inline.json")}}
    runs = [("validate", base_solve_config(tmp_path)), ("projectors", proj),
            ("projectors <inline>", inline), ("solve", base_solve_config(tmp_path)),
            ("converge", base_solve_config(tmp_path, study={"refinements": 3}))]
    found = {command: {m for m in ast.literal_eval(modules) if not m.startswith("numpy.")}
             for command, modules in modules_left_by(tmp_path, runs,
                                                     ("pencildae", "numpy", "dataclasses",
                                                      "argparse", "gettext", "locale"))}
    pencil = {"pencildae", "pencildae.cli", "numpy", "pencildae.pencil"}
    layers = pencil | {"pencildae.dae_model", "pencildae.model_library", "dataclasses"}
    assert found == {"validate": {"pencildae", "pencildae.cli"}, "projectors": layers,
                     "projectors <inline>": pencil,
                     "solve": layers | {"pencildae.integrators"},
                     "converge": layers | {"pencildae.integrators", "pencildae.diagnostics"}}


@pytest.mark.parametrize("model, initial_state", [
    ("sec5_cubic", {"z0": [0.1, 0.2, 0.0]}),
    ({"a": [[1, 0], [0, 0]], "b": [[-1, 1], [1, 1]], "f_const": [0.5, 0.0]}, {"x0": [1.0, 0.0]}),
], ids=["preset", "inline"])
def test_a_run_is_set_up_in_a_fresh_interpreter_before_main(tmp_path, model, initial_state):
    # a tool that sets a run up as the CLI does, with no command run first: each helper
    # binds the layers it reads
    config = base_solve_config(tmp_path, model=model, initial_state=initial_state)
    path = write_config(tmp_path, config)
    code = "import sys, pencildae.cli as c; print(c._set_up(c.load_config(sys.argv[1]))[4].tolist())"
    out = fresh_python(["-c", code, path], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"{cli._set_up(cli.load_config(path))[4].tolist()}\n"


def test_a_sigint_while_a_command_imports_its_layers_exits_130(tmp_path, monkeypatch, capsys):
    imported = []

    def interrupt(name, package=None):
        imported.append(name)
        raise KeyboardInterrupt
    monkeypatch.setattr(importlib, "import_module", interrupt)
    path = write_config(tmp_path, base_solve_config(tmp_path))
    assert cli.main(["solve", path, "--quiet"]) == 130
    assert (capsys.readouterr(), imported) == (("", "interrupted\n"), ["numpy"])


def test_a_sigint_while_argparse_loads_exits_130(tmp_path, monkeypatch, capsys):
    real_import = __import__

    def interrupt(name, *args, **kwargs):
        if name == "argparse":
            raise KeyboardInterrupt
        return real_import(name, *args, **kwargs)
    monkeypatch.setattr("builtins.__import__", interrupt)
    path = write_config(tmp_path, base_solve_config(tmp_path))
    assert cli.main(["solve", path, "--q"]) == 130   # an abbreviation: argparse reads it
    assert capsys.readouterr() == ("", "interrupted\n")


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
    # f overflows inside the consistent initialisation: the same line as for x0
    ("solve", {"model": "sec5_cubic", "mesh": MESH, "initial_state": {"z0": [1e200, 0, 0]}},
     1, "initial-state error: f cannot be evaluated at the initial point: OverflowError"),
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
     1, "initial-state error: z0 must lie in X1"),
    # G is ill-conditioned (1e6): the contour integral keeps an imaginary
    # residue of 4.8e-7
    ("projectors", {"model": {"a": [[1, 1], [0, 0]], "b": [[1, 1], [1, 1 + 1e-6]]}},
     2, "pencil error: ContourSolveFailedError: "),
    # the algebraic projectors fail their identity check (G^-1 of norm 1e6)
    ("projectors", {"model": {"a": [[1, 0], [0, 0]], "b": [[0, 1], [1, 1e-6]]}},
     2, "pencil error: DecompositionFailedError: projectors of <inline> failed their check"),
    # every step size solves x' = 0 exactly: errors of 0 are at the measurable floor
    ("converge", {"model": {"a": [[1.0]], "b": [[0.0]]}, "initial_state": {"x0": [1.0]},
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
     1, "config error: config field 'mesh': the step must be finite and at least "
        "1e6 ulp(max(|t0|, |t_end|)) = 1.99584e+298"),
    # a count past the library's largest, and a mesh finer than its node times
    # resolve (at most 4503599627 steps on [0, 1])
    ("solve", {"model": "sec5_cubic", "mesh": dict(MESH, n_steps=10**19)},
     1, "config error: config field 'mesh/n_steps': must be <= 9223372036854775806"),
    # more residue nodes than the cap: refused, not looped over for ever
    ("projectors", {"model": "sec5_cubic", "projector_node_count": 10**18},
     1, "config error: config field 'projector_node_count': must be <= 65536"),
    # an index-0 pencil whose G^-1 = (1e-310 I)^-1 overflows, refused as index 1 is
    ("solve", {"model": {"a": [[1e-310, 0], [0, 1e-310]], "b": [[0, 0], [0, 0]]},
               "mesh": MESH, "initial_state": {"x0": [1, 0]}},
     2, "pencil error: DecompositionFailedError: G inverse is non-finite"),
    # the constraint x2 = x2 + 1: the Newton iteration for u0 has a zero pivot
    ("solve", {"model": {"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]],
                         "f_const": [0, 1], "f_matrix": [[0, 0], [0, 1]]},
               "mesh": MESH, "initial_state": {"z0": [1, 0]}},
     1, "initial-state error: restricted Newton step singular or non-finite at t=0"),
    ("solve", {"model": "sec5_cubic", "mesh": dict(MESH, n_steps=4503599628)},
     1, "config error: config field 'mesh': the step must be finite and at least "
        "1e6 ulp(max(|t0|, |t_end|)) = 2.22045e-10"),
    # a count the library refuses (sys.maxsize and up) is refused by the walk
    ("validate", {"model": "sec5_cubic", "study": {"refinements": 2**63}},
     1, "config error: config field 'study/refinements': must be <= 9223372036854775806"),
    # pencils whose norm overflows, refused before any decomposition
    ("projectors", {"model": {"a": [[1, 0], [0, 0]], "b": [[1e308, 1e308], [1e308, 1e308]]}},
     1, "config error: inline model: 1 + ||A||_2 + ||B||_2 overflows"),
    ("projectors", {"model": {"a": [[1e308, 1e308], [1e308, 1e308]], "b": [[1, 0], [0, 1]]}},
     1, "config error: inline model: 1 + ||A||_2 + ||B||_2 overflows"),
    ("projectors", {"model": {"a": [[1e308, 0], [0, 0]], "b": [[1e308, 0], [0, 1e308]]}},
     1, "config error: inline model: 1 + ||A||_2 + ||B||_2 overflows"),
    # a ladder whose finest level Mesh refuses, refused before 2**refinements is
    # formed; on [0, 1], 10 * 2**29 and 4 * 2**31 steps are the smallest such
    ("converge", {"model": "sec5_cubic", "mesh": dict(MESH, n_steps=10),
                  "study": {"refinements": 10**18}},
     1, "config error: config field 'study/refinements': the step of the finest level must "
        "be finite and at least 1e6 ulp(max(|t0|, |t_end|)) = 2.22045e-10"),
    ("converge", {"model": "sec5_cubic", "mesh": dict(MESH, n_steps=10),
                  "study": {"refinements": 29}},
     1, "config error: config field 'study/refinements': the step of the finest level "),
    ("validate", {"model": "sec5_cubic", "mesh": MESH, "study": {"refinements": 31}},
     1, "config error: config field 'study/refinements': the step of the finest level "),
    # an x0 above the blow-up threshold is refused, not reported as a blow-up at t0
    *[(command, {"model": {"a": [[1, 0], [0, 1]], "b": [[1, 0.3], [0, 2]]}, "mesh": MESH,
                 "initial_state": {"x0": [2e6, 0]}, "study": {"refinements": 3}},
       1, "initial-state error: initial state norm 2e+06 exceeds blow_up_threshold 1e+06\n")
      for command in ("solve", "converge")],
])
def test_failure_ends_in_one_stderr_line(tmp_path, command, config, code, prefix):
    got, err = run_cli(command, config, tmp_path)
    assert got == code
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert_contract(got, err, tmp_path)


@pytest.mark.parametrize("study, mesh", [({"refinements": 28}, {"n_steps": 10}),
                                         ({"refinements": 30.0}, {}),
                                         ({"refinements": 10**18}, None)])
def test_the_largest_refinements_accepted(tmp_path, capsys, study, mesh):
    # 10 * 2**28 and 4 * 2**30 steps are at most 4503599627, the most on [0, 1]; a study
    # without a mesh has no interval to refine (converge then needs the mesh)
    cfg = {"model": "sec5_cubic", "study": study}
    if mesh is not None:
        cfg["mesh"] = dict(MESH, **mesh)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr() == ("config OK\n", "")


@pytest.mark.parametrize("config, line", [
    ({"mesh": {"t0": 1.0, "t_end": 0.0, "n_steps": 4}}, "'mesh': t_end must exceed t0"),
    ({"mesh": {"t0": -1e308, "t_end": 1e308, "n_steps": 4}},
     "'mesh': the step must be finite and at least 1e6 ulp(max(|t0|, |t_end|)) = 1.99584e+298"),
    # h = 1e-3 where floats are 0.125 apart: the 1001 nodes would take 9 distinct times
    ({"mesh": {"t0": 1e15, "t_end": 1e15 + 1, "n_steps": 1000}},
     "'mesh': the step must be finite and at least 1e6 ulp(max(|t0|, |t_end|)) = 125000"),
    # one step of 2.5e5 resolves there, the finest of a 3-refinement ladder does not
    ({"mesh": {"t0": 1e15, "t_end": 1e15 + 2.5e5, "n_steps": 1}, "study": {"refinements": 3}},
     "'study/refinements': the step of the finest level must be finite and at least "
     "1e6 ulp(max(|t0|, |t_end|)) = 125000"),
])
def test_validate_refuses_each_mesh_that_a_run_refuses(tmp_path, config, line):
    # the walk holds a mesh and a study's finest level to Mesh's own rule, so validate,
    # solve and converge end alike, before any layer is loaded
    cfg = {"model": "toy_index1", "initial_state": {"z0": [1.0, 0.0]}, **config}
    runs = {command: run_cli(command, cfg, tmp_path) for command in ("validate", "solve",
                                                                      "converge")}
    assert runs == dict.fromkeys(runs, (1, f"config error: config field {line}\n"))


def test_a_study_level_too_large_to_allocate_is_config_error(tmp_path):
    # the rule admits 5e8 steps on [0, 0.75], refined 3 times; the base level's run arrays
    # take ~19 GiB, beyond the 4 GiB of address space the command is given here, so they
    # fail when its first block closes (a CLI solve holds no whole run: see the interrupt tests)
    path = write_config(tmp_path, {"model": "sec5_cubic", "study": {"refinements": 3},
                                   "mesh": {"t0": 0.0, "t_end": 0.75, "n_steps": 5 * 10**8}})
    limit = 4 * 2**30
    fresh = fresh_python(["-m", "pencildae.cli", "converge", path, "--out-dir", str(tmp_path)],
                         stderr=subprocess.PIPE, text=True, preexec_fn=lambda:
                         resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert fresh.returncode == 1
    assert fresh.stderr.startswith("config error: Unable to allocate"), fresh.stderr
    assert fresh.stderr.count("\n") == 1


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


@pytest.mark.parametrize("model, n_steps, code", [("sec5_cubic", 10000, 0),
                                                 ("sec6_blowup", 2000, 3)])
def test_solve_forms_no_whole_run_times(tmp_path, monkeypatch, capsys, model, n_steps, code):
    # each CSV block takes its node times from the mesh, and the summary and the
    # stop line the last node's alone: with Trajectory.times failing, a run ends as before
    out_dir = tmp_path / "out"
    argv = ["solve", write_config(tmp_path, {"model": model, "mesh": {
        "t0": 0.0, "t_end": 2.0, "n_steps": n_steps}}), "--out-dir", str(out_dir)]
    assert cli.main(argv) == code
    want = take_output_files(out_dir), capsys.readouterr()
    monkeypatch.setattr(integrators.Trajectory, "times",
                        property(lambda traj: pytest.fail("whole-run times formed")))
    assert cli.main(argv) == code
    assert (take_output_files(out_dir), capsys.readouterr()) == want
    assert set(want[0]) == {"summary.json", "trajectory.csv"}


# ---------------------------------------------------------------------------
# the process entry point: ``run`` flushes stdout and stderr and ends with
# os._exit, without interpreter teardown; a fresh ``python -m pencildae.cli``
# must end exactly as ``main`` does in process

def take_output_files(out_dir: Path) -> dict:
    """Remove the files a run wrote and return them as {name: bytes}, with the
    summary's wall time (the one field that differs between two runs) masked."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = re.sub(rb'"wall_time": [^\n]*', b'"wall_time": -', path.read_bytes())
        path.unlink()
    return files


SOLVE_FILES = ["summary.json", "trajectory.csv"]


@pytest.mark.parametrize("argv, config, code, written", [
    (["solve"], {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 200}},
     0, SOLVE_FILES),
    (["validate"], {"model": "sec5_cubic", "seed": -1}, 1, []),
    (["projectors"], {"model": {"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 0]]}}, 2, []),
    (["converge"], {"model": "sec6_blowup", "study": {"refinements": 3},
                    "mesh": {"t0": 0.0, "t_end": 0.2, "n_steps": 50}}, 3, ["summary.json"]),
    (["solve"], {"model": "sec6_blowup", "mesh": {"t0": 0.0, "t_end": 0.2, "n_steps": 2000},
                 "corrector": {"mode": "iterate", "tol": 1e-10}}, 4, SOLVE_FILES),
    (["solve", "--no-such-flag"], {"model": "sec5_cubic"}, 1, []),   # an argparse usage error
    (["solve", "--help"], {"model": "sec5_cubic"}, 0, []),
    (["solve", "--q"], {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 200}},
     0, SOLVE_FILES),   # an abbreviation of --quiet
], ids=["exit0", "exit1", "exit2", "exit3", "exit4", "usage", "help", "abbreviation"])
def test_fresh_process_ends_as_main_does(tmp_path, monkeypatch, argv, config, code, written):
    monkeypatch.setenv("COLUMNS", "80")   # the help's width, in process and in the fresh one
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = [argv[0], write_config(tmp_path, config), "--out-dir", str(out_dir), *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            got = cli.main(args)
        except SystemExit as exc:
            got = exc.code
    files = take_output_files(out_dir)
    fresh = fresh_python(["-m", "pencildae.cli", *args], capture_output=True)
    assert (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()) == \
        (got, out.getvalue(), err.getvalue()) and got == code
    assert take_output_files(out_dir) == files and list(files) == written


def test_fresh_process_skips_interpreter_teardown(tmp_path):
    # an atexit handler runs at teardown, so it runs after main() returns
    # normally but never after run()
    path = write_config(tmp_path, {"model": "sec5_cubic"})
    prologue = ("import atexit, sys; atexit.register(print, 'teardown'); "
                f"sys.argv = ['pencildae', 'validate', {path!r}]; ")
    entry = fresh_python(["-c", prologue + "import runpy; "
                          "runpy.run_module('pencildae.cli', run_name='__main__')"],
                         capture_output=True, text=True)
    assert (entry.returncode, entry.stdout, entry.stderr) == (0, "config OK\n", "")
    plain = fresh_python(["-c", prologue + "import pencildae.cli as c; sys.exit(c.main())"],
                         capture_output=True, text=True)
    assert (plain.returncode, plain.stdout, plain.stderr) == (0, "config OK\nteardown\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_that_cannot_be_flushed_is_config_error(tmp_path, buffered):
    # buffered, the write fails only in run()'s final flush; unbuffered,
    # inside the command: both end in exit 1 and one stderr line
    path = write_config(tmp_path, {"model": "sec5_cubic"})
    with open("/dev/full", "w") as full:
        fresh = fresh_python(["-m", "pencildae.cli", "validate", path], stdout=full,
                             stderr=subprocess.PIPE, text=True,
                             env={"PYTHONUNBUFFERED": None if buffered else "1"})
    assert fresh.returncode == 1
    assert fresh.stderr == "config error: [Errno 28] No space left on device\n"


def test_closed_stdout_exits_0(tmp_path):
    path = write_config(tmp_path, {"model": "sec5_cubic"})
    fresh = fresh_python(["-m", "pencildae.cli", "validate", path], stderr=subprocess.PIPE,
                         text=True, preexec_fn=lambda: os.close(1))
    assert (fresh.returncode, fresh.stderr) == (0, "")


def test_closed_stderr_keeps_the_failure_off_stdout(tmp_path):
    path = write_config(tmp_path, {"model": "sec5_cubic", "seed": -1})
    fresh = fresh_python(["-m", "pencildae.cli", "validate", path], stdout=subprocess.PIPE,
                         text=True, preexec_fn=lambda: os.close(2))
    assert (fresh.returncode, fresh.stdout) == (1, "")


def test_help_lists_each_command_with_its_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")   # one line per command
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name, text in [
        ("solve", "integrate a model and emit trajectory CSV + summary JSON"),
        ("converge", "run a mesh-refinement convergence study"),
        ("projectors", "emit projectors, validation report and residue agreement"),
        ("validate", "check a config file against its contract and exit"),
    ]:
        assert re.search(rf"^ +{name} +{re.escape(text)}$", out, re.MULTILINE), out
    assert "{solve,converge,projectors,validate}" in out


ARGV_TOKENS = [*cli._COMMANDS, "c.json", "", "-1", "--", "-h", "--help", "--quiet", "--q",
               "--out-dir", "--out-dir=d", "d", "extra"]


def reads(parse, argv) -> tuple:
    """(result, stdout, stderr) of ``parse(argv)``, the result being its return value,
    its config error's line or its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except cli.ConfigError as exc:
            result = f"config error: {exc}\n"
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def main_reads(argv) -> tuple:
    """``reads`` of ``main(argv)``, the result being the (command, config path, out_dir,
    quiet) handed to the command that ran, or the exit code."""
    ran = []
    commands = {name: (lambda *args, name=name: ran.append((name, *args)) or cli._DONE, text, ())
                for name, (_, text, _) in cli._COMMANDS.items()}
    with mock.patch.object(cli, "load_config", str), mock.patch.dict(cli._COMMANDS, commands):
        code, out, err = reads(cli.main, argv)
    return (ran[0] if ran else code), out, err


# the usual form: a command and a config, then --quiet and --out-dir in any order
USUAL_ARGV = st.builds(lambda command, options: [command, "c.json", *sum(options, [])],
                       st.sampled_from(list(cli._COMMANDS)),
                       st.lists(st.sampled_from([["--quiet"], ["--out-dir", "d"],
                                                 ["--out-dir", ""]]), max_size=3))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6), USUAL_ARGV,
                 st.builds(lambda usual, tail: usual + tail, USUAL_ARGV,
                           st.lists(st.sampled_from(ARGV_TOKENS), min_size=1, max_size=2))))
def test_main_reads_every_command_line_as_argparse_does(argv):
    parsed = reads(cli._parsed, argv)
    usual = cli._usual(argv)
    if usual is not None:   # read without argparse only where argparse reads the same
        assert parsed == (usual, "", "")
    result, out, err = parsed
    if isinstance(result, str):   # a usage error: exit 1 and its one stderr line
        result, err = 1, err + result
    assert main_reads(argv) == (result, out, err)


def test_console_script_is_the_process_entry_point():
    # a text check: Python 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^pencildae = "pencildae\.cli:run"$', pyproject, re.MULTILINE)


# ---------------------------------------------------------------------------
# converge forks one child, and a solve one per closed CSV block; none outlives
# the command, whatever way the command ends

def processes_of(marker: str) -> list:
    """The ids of the live processes whose command line holds ``marker`` (a
    forked child keeps its parent's command line)."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):
            if marker.encode() in Path(f"/proc/{entry}/cmdline").read_bytes():
                found.append(int(entry))
    return found


LADDER = {"model": {"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]],
                    "f_matrix": [[0, 0], [1, 0]]},   # x2 = x1
          "initial_state": {"x0": [1, 1]}, "method": "method2",
          "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 20}, "study": {"refinements": 4}}


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("command, config", [
    ("converge", LADDER),
    ("solve", {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 9000}}),
    ("solve", {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 50000}}),
    ("validate", {"model": "sec5_cubic"}),
    ("projectors", {"model": "sec5_cubic"}),
], ids=["converge", "solve-3-blocks", "solve-13-blocks", "validate", "projectors"])
def test_fresh_process_with_warnings_as_errors(tmp_path, command, config):
    # Python >= 3.12 warns of a fork in a process with a second OS thread (numpy's
    # BLAS pool); that warning alone is silenced, around the fork
    path = write_config(tmp_path, config)
    fresh = fresh_python(["-W", "error", "-m", "pencildae.cli", command, path,
                          "--out-dir", str(tmp_path), "--quiet"], capture_output=True)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, b"", b"")
    assert processes_of(path) == []


BLOW_UP_MESH = {"t0": 0.0, "t_end": 0.2, "n_steps": 20000}   # stops after node 4096


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("command, config, code, line", [
    # both CSV rows fail while the solve runs, with the line of a failed write after it
    ("solve", {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 9000},
               "outputs": {"trajectory_csv": "missing/traj.csv"}},
     1, "config error: [Errno 2] No such file or directory: 'missing/traj.csv'\n"),
    ("solve", {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 9000},
               "outputs": {"trajectory_csv": "/dev/full"}},
     1, "config error: [Errno 28] No space left on device\n"),
    ("converge", {"model": {"a": [[1.0]], "b": [[0.0]]}, "initial_state": {"x0": [1.0]},
                  "study": {"refinements": 4},
                  "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 100}}, 1, None),   # study error
    ("projectors", {"model": {"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 0]]}}, 2, None),
    ("converge", {"model": "sec6_blowup", "study": {"refinements": 3},
                  "mesh": {"t0": 0.0, "t_end": 0.2, "n_steps": 50}}, 3, None),
    ("solve", {"model": "sec6_blowup", "mesh": BLOW_UP_MESH}, 3, None),
    ("solve", {"model": "sec6_blowup", "mesh": BLOW_UP_MESH,
               "corrector": {"mode": "iterate", "tol": 1e-10}}, 4, None),
], ids=["unwritable-csv", "full-disk-csv", "study-error", "pencil", "ladder-blow-up",
        "blow-up", "corrector-failure"])
def test_no_exit_path_leaves_a_child(tmp_path, command, config, code, line):
    if config.get("outputs", {}).get("trajectory_csv") == "/dev/full" \
            and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    path = write_config(tmp_path, config)
    fresh = fresh_python(["-m", "pencildae.cli", command, path, "--quiet"], cwd=tmp_path,
                         capture_output=True, text=True)   # relative outputs land in tmp_path
    assert fresh.returncode == code and fresh.stderr.count("\n") == 1, fresh.stderr
    assert "Traceback" not in fresh.stderr and line in (None, fresh.stderr)
    assert processes_of(path) == []


def interrupt_once_forked(tmp_path, command, config, ready=None, address_space=None):
    """Run ``command`` in a fresh process (with at most ``address_space`` bytes of it, if
    given), send it one SIGINT once ``ready()`` holds, by default once a forked child of
    it runs, and return its exit code and stderr."""
    path = write_config(tmp_path, config)
    ready = ready or (lambda: len(processes_of(path)) >= 2)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def preexec():  # SIGINT handled even where the suite runs with it ignored
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    proc = subprocess.Popen([sys.executable, "-m", "pencildae.cli", command, path,
                             "--out-dir", str(tmp_path), "--quiet"], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            preexec_fn=preexec)
    try:
        deadline = time.monotonic() + 60
        while not ready():
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.005)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert processes_of(path) == []
    return proc.returncode, err


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_an_interrupted_study_leaves_no_child(tmp_path):
    # SIGINT to the command alone, once its child solves the finest level
    config = dict(LADDER, mesh={"t0": 0.0, "t_end": 1.0, "n_steps": 4000},
                  study={"refinements": 6})
    assert interrupt_once_forked(tmp_path, "converge", config) == (130, "interrupted\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_an_interrupted_solve_leaves_no_child(tmp_path):
    # SIGINT to the command alone, once a child formats a block of its CSV
    config = {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 200000}}
    assert interrupt_once_forked(tmp_path, "solve", config) == (130, "interrupted\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_solve_too_large_to_hold_runs_until_interrupted(tmp_path):
    # the rule admits 6e9 steps on [0, 0.75]; their nodes would take ~134 GiB, beyond the
    # 4 GiB of address space the command is given here, yet it holds two blocks at a time
    # and writes their rows until one SIGINT ends it
    config = {"model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 0.75, "n_steps": 6 * 10**9}}
    csv = tmp_path / "trajectory.csv"
    written = lambda: csv.exists() and csv.stat().st_size > 2**20   # noqa: E731 (2 blocks)
    assert interrupt_once_forked(tmp_path, "solve", config, ready=written,
                                 address_space=4 * 2**30) == (130, "interrupted\n")
    lines = csv.read_bytes().split(b"\n")
    assert lines[0] == b"t,x1,x2,x3,z_norm,u_norm,constraint_residual"
    assert len(lines) > 2 * _BLOCK and lines[1].startswith(b"0,")
