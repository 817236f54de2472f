"""Config-driven command line: solve runs, convergence studies, projector checks.

All behaviour is determined by a single JSON config file (no environment
variables are read), so a run is reproducible from the file alone.
Trajectories are written as CSV with 17-significant-digit floats and LF line
endings; summaries and studies as JSON.

Exit codes: 0 success, 1 config error, 2 pencil error (non-regular or index
too high), 3 blow-up, 4 corrector failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import dae_model, diagnostics, model_library, pencil
from .integrators import (InconsistentInitialStateError, IterateToTol, Mesh, Method,
                          SingleStep, SolveOutcome, SolverConfig, solve)

__all__ = ["main", "load_config", "CONFIG_SCHEMA"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PENCIL = 2
EXIT_BLOW_UP = 3
EXIT_CORRECTOR = 4

_MATRIX = {"type": "array", "minItems": 1,
           "items": {"type": "array", "minItems": 1, "items": {"type": "number"}}}
_VECTOR = {"type": "array", "minItems": 1, "items": {"type": "number"}}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["model"],
    "properties": {
        "model": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["a", "b"],
                    "properties": {
                        "a": _MATRIX,
                        "b": _MATRIX,
                        # inline right-hand sides are restricted to affine
                        # f(t, x) = f_const + f_matrix @ x for config-file safety
                        "f_const": _VECTOR,
                        "f_matrix": _MATRIX,
                    },
                },
            ]
        },
        "method": {"enum": ["method1", "method2"]},
        "mesh": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t0", "t_end", "n_steps"],
            "properties": {
                "t0": {"type": "number"},
                "t_end": {"type": "number"},
                "n_steps": {"type": "integer", "minimum": 1},
            },
        },
        "initial_state": {
            "oneOf": [
                {"enum": ["preset_default"]},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"x0": _VECTOR, "z0": _VECTOR},
                    "minProperties": 1,
                    "maxProperties": 1,
                },
            ]
        },
        "corrector": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mode"],
            "properties": {
                "mode": {"enum": ["single_step", "iterate"]},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
            },
        },
        "blow_up_threshold": {"type": "number", "exclusiveMinimum": 0},
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trajectory_csv": {"type": "string"},
                "summary_json": {"type": "string"},
            },
        },
        "study": {
            "type": "object",
            "additionalProperties": False,
            "required": ["refinements"],
            "properties": {"refinements": {"type": "integer", "minimum": 3}},
        },
        "seed": {"type": "integer"},
        "projector_node_count": {"type": "integer", "minimum": 8},
    },
}


class ConfigError(Exception):
    pass


def load_config(path: str) -> dict:
    """Read and schema-validate a config file; unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "<root>"
        raise ConfigError(f"config field '{where}': {first.message}")
    for where, value in _numbers(config):
        if not math.isfinite(value):
            raise ConfigError(f"config field '{where}': non-finite number {value}")
    return config


def _numbers(node, where: str = ""):
    """(path, value) of every float in a parsed JSON document.

    Python's json module reads NaN, Infinity and out-of-range literals such as
    1e400 as non-finite floats; the schema's "number" type accepts them.
    """
    if isinstance(node, float):
        yield where or "<root>", node
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _numbers(child, f"{where}/{key}" if where else str(key))


def _build_inline_model(model_spec: dict) -> model_library.ModelPreset:
    a = np.asarray(model_spec["a"], dtype=float)
    b = np.asarray(model_spec["b"], dtype=float)
    try:
        pen = pencil.MatrixPencil(a=a, b=b)
    except ValueError as exc:
        raise ConfigError(f"inline model: {exc}") from exc
    n = pen.n
    f_const = np.asarray(model_spec.get("f_const", np.zeros(n)), dtype=float)
    f_matrix = np.asarray(model_spec.get("f_matrix", np.zeros((n, n))), dtype=float)
    if f_const.shape != (n,) or f_matrix.shape != (n, n):
        raise ConfigError("inline model: f_const/f_matrix shapes must match the pencil")

    def f(t, x):
        return f_const + f_matrix @ x

    def jac(t, x):
        return f_matrix

    dae = dae_model.SemilinearDAE(pencil=pen, f=f, jac_f=jac)
    return model_library.ModelPreset(preset_id="<inline>", dae=dae,
                                     x0=np.zeros(n), smooth=True,
                                     description="inline affine model")


def _resolve_model(config: dict) -> model_library.ModelPreset:
    model_spec = config["model"]
    if isinstance(model_spec, str):
        try:
            return model_library.get_preset(model_spec)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    return _build_inline_model(model_spec)


class PencilRejected(Exception):
    pass


def _decompose(preset: model_library.ModelPreset, config: dict):
    pen = preset.dae.pencil
    try:
        pencil.regularity_probe(pen, sample_count=32, seed=int(config.get("seed", 0)))
        return pencil.projectors_algebraic(pen)
    except (pencil.NotRegularError, pencil.IndexTooHighError,
            pencil.DecompositionFailedError) as exc:
        raise PencilRejected(f"{type(exc).__name__}: {exc}") from exc


def _initial_state(config: dict, preset, decomp) -> np.ndarray:
    choice = config.get("initial_state", "preset_default")
    if choice == "preset_default":
        if preset.preset_id == "<inline>":
            raise ConfigError("inline models need an explicit initial_state")
        return preset.x0
    if "x0" in choice:
        x0 = np.asarray(choice["x0"], dtype=float)
        if x0.shape != (decomp.n,):
            raise ConfigError(f"initial_state/x0 must have {decomp.n} entries")
        return x0
    z0 = np.asarray(choice["z0"], dtype=float)
    if z0.shape != (decomp.n,):
        raise ConfigError(f"initial_state/z0 must have {decomp.n} entries")
    z0 = decomp.p1 @ z0
    u0 = dae_model.consistent_initialize(preset.dae, decomp, _mesh(config).t0, z0)
    return z0 + u0


def _mesh(config: dict) -> Mesh:
    if "mesh" not in config:
        raise ConfigError("config field 'mesh' is required for this command")
    m = config["mesh"]
    if config.get("method") == "method2" and m["n_steps"] < 2:
        raise ConfigError("config field 'mesh/n_steps': method2 needs at least 2 steps")
    try:
        return Mesh(t0=float(m["t0"]), t_end=float(m["t_end"]), n_steps=int(m["n_steps"]))
    except ValueError as exc:
        raise ConfigError(f"config field 'mesh': {exc}") from exc


def _solver_config(config: dict) -> SolverConfig:
    method = Method(config.get("method", "method1"))
    corr_spec = config.get("corrector", {"mode": "single_step"})
    if corr_spec["mode"] == "single_step":
        corrector = SingleStep()
    else:
        corrector = IterateToTol(tol=float(corr_spec.get("tol", 1e-10)),
                                 max_iter=int(corr_spec.get("max_iter", 50)))
    return SolverConfig(method=method, corrector=corrector,
                        blow_up_threshold=float(config.get("blow_up_threshold", 1e6)))


def _output_paths(config: dict, out_dir: str | None):
    outputs = config.get("outputs", {})
    csv_path = Path(outputs.get("trajectory_csv", "trajectory.csv"))
    json_path = Path(outputs.get("summary_json", "summary.json"))
    if out_dir is not None:
        base = Path(out_dir)
        base.mkdir(parents=True, exist_ok=True)
        csv_path = base / csv_path.name
        json_path = base / json_path.name
    return csv_path, json_path


def _write_trajectory_csv(path: Path, traj) -> None:
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + \
        ",z_norm,u_norm,constraint_residual"
    table = np.column_stack((traj.times, traj.states,
                             np.linalg.norm(traj.z_history, axis=1),
                             np.linalg.norm(traj.u_history, axis=1), traj.residuals))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _finite_or_none(node):
    """``node`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {key: _finite_or_none(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_finite_or_none(value) for value in node]
    return node


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite_or_none(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _exit_for_status(status) -> int:
    if status.outcome is SolveOutcome.BLOW_UP:
        return EXIT_BLOW_UP
    if status.outcome is SolveOutcome.CORRECTOR_FAILED:
        return EXIT_CORRECTOR
    return EXIT_OK


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_solve(config: dict, out_dir: str | None, quiet: bool) -> int:
    preset = _resolve_model(config)
    decomp = _decompose(preset, config)
    mesh = _mesh(config)
    solver_config = _solver_config(config)
    x0 = _initial_state(config, preset, decomp)
    csv_path, json_path = _output_paths(config, out_dir)

    start = time.perf_counter()
    traj = solve(preset.dae, decomp, mesh, x0, solver_config)
    wall = time.perf_counter() - start

    _write_trajectory_csv(csv_path, traj)
    summary = {
        "model": preset.preset_id,
        "method": solver_config.method.value,
        "status": traj.status.to_json(),
        "max_norm": traj.max_norm,
        "final_state": [float(v) for v in traj.final_state],
        "final_time": float(traj.times[-1]),
        "n_nodes": len(traj),
        "wall_time": wall,
    }
    _write_json(json_path, summary)
    _say(quiet, f"solve {preset.preset_id}: {traj.status.outcome.value}, "
                f"max norm {traj.max_norm:.6g}, wrote {csv_path} and {json_path}")
    return _exit_for_status(traj.status)


def cmd_converge(config: dict, out_dir: str | None, quiet: bool) -> int:
    if "study" not in config:
        raise ConfigError("config field 'study' is required for converge")
    preset = _resolve_model(config)
    decomp = _decompose(preset, config)
    mesh = _mesh(config)
    solver_config = _solver_config(config)
    x0 = _initial_state(config, preset, decomp)
    _, json_path = _output_paths(config, out_dir)

    payload: dict = {"model": preset.preset_id, "method": solver_config.method.value,
                     "base_h": mesh.h, "refinements": config["study"]["refinements"]}
    if not preset.smooth:
        # order claims assume a smooth right-hand side; a non-smooth drive
        # still converges but need not show its nominal rate
        payload["skipped_reason"] = "non-smooth input"
        _write_json(json_path, payload)
        _say(quiet, f"converge {preset.preset_id}: skipped (non-smooth input)")
        return EXIT_OK

    try:
        estimate = diagnostics.empirical_order(
            preset.dae, decomp, solver_config.method, mesh, x0,
            refinements=int(config["study"]["refinements"]), config=solver_config)
    except diagnostics.LadderSolveError as exc:
        _say(quiet, f"converge {preset.preset_id}: ladder failed ({exc})")
        return _exit_for_status(exc.status)
    payload.update(estimate.to_json())
    _write_json(json_path, payload)
    _say(quiet, f"converge {preset.preset_id}: z order "
                f"{estimate.z.asymptotic_order:.3f}, wrote {json_path}")
    return EXIT_OK


def cmd_projectors(config: dict, out_dir: str | None, quiet: bool) -> int:
    preset = _resolve_model(config)
    decomp = _decompose(preset, config)
    pen = preset.dae.pencil
    tol = 1e-10 * pen.norm_scale()
    report = pencil.validate_decomposition(pen, decomp, tol)
    node_count = int(config.get("projector_node_count", 64))
    p1_res, q1_res = pencil.projectors_residue(pen, node_count=node_count)
    agreement = max(float(np.abs(p1_res - decomp.p1).max()),
                    float(np.abs(q1_res - decomp.q1).max()))
    _, json_path = _output_paths(config, out_dir)
    passed = report.passed and agreement <= 1e-8
    payload = {
        "model": preset.preset_id,
        "index": decomp.index.value,
        "p1": decomp.p1.tolist(),
        "p2": decomp.p2.tolist(),
        "q1": decomp.q1.tolist(),
        "q2": decomp.q2.tolist(),
        "g": decomp.g.tolist(),
        "det_g": float(np.linalg.det(decomp.g)),
        "validation": report.to_json(),
        "residue_agreement": agreement,
        "passed": passed,
    }
    _write_json(json_path, payload)
    _say(quiet, f"projectors {preset.preset_id}: index {decomp.index.value}, "
                f"validation {'pass' if report.passed else 'FAIL'}, "
                f"residue agreement {agreement:.3e}")
    return EXIT_OK if passed else EXIT_PENCIL


def cmd_validate(config: dict, out_dir: str | None, quiet: bool) -> int:
    _say(quiet, "config OK")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "projectors": cmd_projectors,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pencildae",
        description="Semilinear DAE solver with spectral-projector reduction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "integrate a model and emit trajectory CSV + summary JSON"),
        ("converge", "run a mesh-refinement convergence study"),
        ("projectors", "emit projectors, validation report and residue agreement"),
        ("validate", "schema-check a config file and exit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out-dir", default=None, help="redirect output files here")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](config, args.out_dir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PencilRejected as exc:
        print(f"pencil error: {exc}", file=sys.stderr)
        return EXIT_PENCIL
    except (dae_model.NoConvergenceError, dae_model.SingularNewtonMatrixError,
            InconsistentInitialStateError) as exc:
        print(f"initial-state error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except diagnostics.DegenerateFitError as exc:
        print(f"study error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
