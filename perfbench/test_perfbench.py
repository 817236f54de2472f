"""Self-tests of the benchmark: generators, references, failure counting, metrics.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run as bench
import workloads
from pencildae import (Mesh, SolverConfig, Method, get_preset, method1_solve,
                       method2_solve, projectors_algebraic)
from pencildae.model_library import CircuitParams, circuit_consistency_check, odd_power

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TUNING_SEEDS = range(10)
HOLD_OUT_SEEDS = (1000, 1001)


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(tmp_path, name):
    first = workloads.make_workload(name, 7, tmp_path / "a")
    workloads.make_workload(name, 7, tmp_path / "b")
    workloads.make_workload(name, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first.ops and first.setup_configs


@pytest.mark.parametrize("seed", [*TUNING_SEEDS, *HOLD_OUT_SEEDS])
def test_every_circuit_x0_is_consistent_and_completes(tmp_path, seed):
    wl = workloads.make_workload("circuit_solve", seed, tmp_path)
    config = json.loads((tmp_path / wl.ops[0].config).read_text())
    x0 = np.array(config["initial_state"]["x0"])
    cubic = odd_power(1.0, 3)
    ok, _ = circuit_consistency_check(CircuitParams(5e-4, 5e-7, 2.0, 0.2), cubic, cubic, x0)
    assert ok
    preset = get_preset("sec5_cubic")
    decomp = projectors_algebraic(preset.dae.pencil)
    mesh = Mesh(0.0, workloads.CIRCUIT_T_END, workloads.CIRCUIT_STEPS)
    assert method1_solve(preset.dae, decomp, mesh, x0).status.completed


def _circuit_x0(seed):
    return workloads._circuit_x0(workloads._rng("circuit_solve", seed))


@pytest.mark.parametrize("seed", [3, HOLD_OUT_SEEDS[0]])
def test_circuit_reference_ode_matches_method2_at_a_fine_mesh(seed):
    # a short interval: method 2's parasitic mode grows on long ones
    x0 = _circuit_x0(seed)
    ref = workloads.CircuitReference(x0, 1.0, 20_000)
    preset = get_preset("sec5_cubic")
    decomp = projectors_algebraic(preset.dae.pencil)
    traj = method2_solve(preset.dae, decomp, Mesh(0.0, 1.0, 20_000), np.array(x0))
    assert traj.status.completed
    assert np.abs(traj.states[::ref.stride] - ref.states()).max() <= 5e-7


@pytest.mark.parametrize("preset_id", ["toy_index1", "linear_index0"])
def test_short_reference_odes_match_method2_at_a_fine_mesh(preset_id):
    ref = workloads.ShortReference(preset_id, 2.0, 20_000)
    preset = get_preset(preset_id)
    decomp = projectors_algebraic(preset.dae.pencil)
    traj = method2_solve(preset.dae, decomp, Mesh(0.0, 2.0, 20_000), preset.x0,
                         SolverConfig(method=Method.METHOD2))
    assert np.abs(traj.states - ref.states()).max() <= 2e-7


@pytest.mark.parametrize("seed", [*range(21), *HOLD_OUT_SEEDS])
def test_short_references_cover_every_generated_mesh(tmp_path, seed):
    wl = workloads.make_workload("cli_short", seed, tmp_path)
    for op in wl.ops:
        config = json.loads((tmp_path / op.config).read_text())
        if op.command == "solve":
            mesh = config["mesh"]
            ref = workloads.ShortReference(config["model"], mesh["t_end"], mesh["n_steps"])
            assert ref.states().shape == (mesh["n_steps"] + 1, 2)


def _runner(tmp_path, name="cli_short", seed=0):
    wl = workloads.make_workload(name, seed, tmp_path / "configs")
    return bench.Runner(wl, tmp_path)


def test_wrong_expected_exit_code_counts_as_failed(tmp_path):
    runner = _runner(tmp_path)
    index2 = next(i for i, op in enumerate(runner.wl.ops) if op.expect_exit == 2)
    assert runner.run_op(index2).ok
    runner.wl.ops[index2].expect_exit = 0
    result = runner.run_op(index2)
    assert not result.ok and "exit 2, expected 0" in result.error
    assert bench.outcome_counts(runner.results) == (2, 1)


def test_output_that_fails_its_check_counts_as_failed(tmp_path):
    runner = _runner(tmp_path)
    index = next(i for i, op in enumerate(runner.wl.ops)
                 if op.config == "proj_sec5_cubic.json")
    assert runner.run_op(index).ok
    runner.wl.ops[index].check = lambda out, _: workloads.check_projectors(out, np.eye(3))
    result = runner.run_op(index)
    assert not result.ok and "closed form" in result.error


def test_traced_spans_account_for_the_operation(tmp_path):
    config = workloads.write_config(tmp_path, "c.json", workloads._solve_outputs({
        "model": "sec5_cubic", "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 1000},
        "initial_state": {"x0": _circuit_x0(0)}}))
    spans_path = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(bench.BENCH_DIR / "traced_cli.py"), str(spans_path),
                    "5", "solve", str(tmp_path / config), "--out-dir", str(tmp_path),
                    "--quiet"], env=bench.child_env(), check=True)
    spans = json.loads(spans_path.read_text())
    assert {s["op"] for s in spans} == {5}
    op = layers.operation_metrics(spans)
    assert op["integrators.steps"] == 1000
    assert op["solve_f_calls"] == 2 * 1000 + 2      # z-step + corrector, plus both ends
    assert op["solve_jac_calls"] == 1000
    main = next(s for s in spans if s["name"] == "cli.main")
    children = [s for s in spans if s["parent"] == main["id"]]
    covered = sum(s["end"] - s["start"] for s in children) + op["cli.self_s"]
    assert covered == pytest.approx(main["end"] - main["start"], rel=1e-9)
    assert {s["name"] for s in children} >= {"cli.load_config", "model_library.get_preset",
                                             "pencil.regularity_probe",
                                             "pencil.projectors_algebraic",
                                             "integrators.solve"}


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       713 |     250073 |         scipy.linalg\n"
            "import time:       458 |     379167 |   pencildae\n"
            "import time:      4483 |     468900 | pencildae.cli\n")
    assert bench.parse_importtime(text) == (0.4689, 0.250073)


def test_gated_times_are_scaled_by_the_host_slowdown(tmp_path):
    runner = _runner(tmp_path, "circuit_solve")
    steps = runner.wl.ops[0].steps
    measured = [bench.OpResult(0, s, 80.0, ok=True) for s in (2.0, 3.0, 4.0)]
    raw = bench.end_to_end(runner, measured, [0.5, 0.6, 0.7], 1.0)
    assert raw["steps_per_s"][0] == pytest.approx(3 * steps / 9.0)
    assert raw["setup_s"][0] == pytest.approx(0.6)
    slowdown = bench.host_slowdown([bench.GAUGE_REF_MS * 1.5] * 4)
    assert slowdown == pytest.approx(1.5)
    scaled = bench.end_to_end(runner, measured, [0.5, 0.6, 0.7], slowdown)
    for name in ("op_p90_s", "setup_s"):
        assert scaled[name][0] == pytest.approx(raw[name][0] / 1.5)
    assert scaled["steps_per_s"][0] == pytest.approx(raw["steps_per_s"][0] * 1.5)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(trace, section):
    out = subprocess.run([sys.executable, str(bench.BENCH_DIR / "run.py"),
                          "--workload", "affine_ladder", "--seed", "0", "--seconds", "0",
                          "--trace", str(trace)],
                         capture_output=True, text=True, check=True)
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert name in out.stdout


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(layers.UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_short",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
