"""Config-driven command line: solve runs, convergence studies, projector checks.

All behaviour is determined by a single JSON config file (no environment
variables are read), so a run is reproducible from the file alone.
``load_config`` holds its whole input contract, the walk ``_CONFIG`` plus two
cross-field rules: it refuses, naming the field, a wrong type or range, an unknown
key, a non-finite number (over-range integers too), a negative seed, a method-2 mesh
under 2 steps, or a mesh or a study's finest level that ``Mesh`` would refuse.
Trajectories are CSV, 17-significant-digit floats and LF line ends; the rest is JSON.

Every run ends in one row of ``_EXITS``: exit 0 writes nothing to stderr,
any other exit exactly one line and no traceback.  Exit 1: a config error (the
contract, a command-line usage error, an inline pencil whose norm overflows, a
study level too large to allocate), an initial state that is not consistent, above the
blow-up threshold, or from which none is found (``InconsistentInitialStateError``),
or a study whose errors underflow the measurable floor; 2: a pencil that is not
regular, has index > 1, or whose projectors fail; 3: blow-up of a finite state; 4:
corrector failure or a non-finite state; 130: a SIGINT (``KeyboardInterrupt``).
Exits 3 and 4 write their outputs, then their line.  Importing this module loads the
standard library only; ``main`` imports numpy and the layers a command runs (``_LAZY``):
none for ``validate``, ``pencil`` alone for ``projectors`` of an inline pencil.  It
reads the usual command line itself (``_usual``) and imports argparse only for any
other, so ``--help`` and every usage message stay argparse's own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

from . import MAX_NODE_COUNT, _check_mesh

__all__ = ["main", "run", "load_config"]

# name: module or "module:attribute", a global bound here on first use (PEP 562);
# no command calls ``solve``, which stays for the benchmark's tracer (ROADMAP item 12)
_LAZY = {"np": "numpy", "pencil": ".pencil", "dae_model": ".dae_model",
         "model_library": ".model_library", "integrators": ".integrators",
         "diagnostics": ".diagnostics", "solve": ".integrators:solve"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attribute = _LAZY[name].partition(":")
    value = importlib.import_module(module, __package__)
    return globals().setdefault(name, getattr(value, attribute) if attribute else value)


def _bind(*names: str) -> None:
    """Bind the ``_LAZY`` globals ``names``: a helper that reads them calls this first,
    so it runs when called before ``main`` has bound them."""
    for name in names:
        __getattr__(name)


class ConfigError(Exception):
    pass


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PENCIL = 2
EXIT_BLOW_UP = 3
EXIT_CORRECTOR = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

_NAMED = "{0.__class__.__name__}: {0}"
_key = "{0.__module__}.{0.__qualname__}".format  # an exception class's key in _EXITS
# How every way a run can end is reported: (exit code, stderr line formatted with the
# exception or the command's detail).  An exception takes the row of the first class
# in its MRO whose ``_key`` has one (a library class is named, not imported); a command
# that returns names the value of its solve outcome.
_EXITS = {
    "completed": (EXIT_OK, None),
    _key(ConfigError): (EXIT_CONFIG, "config error: {0}"),
    _key(OSError): (EXIT_CONFIG, "config error: {0}"),  # an output path that cannot be written
    _key(MemoryError): (EXIT_CONFIG, "config error: {0}"),  # a study level too large to hold
    "pencildae.dae_model.InconsistentInitialStateError": (EXIT_CONFIG, "initial-state error: {0}"),
    "pencildae.diagnostics.DegenerateFitError": (EXIT_CONFIG, "study error: {0}"),
    "pencildae.pencil.PencilError": (EXIT_PENCIL, "pencil error: " + _NAMED),
    "blow_up": (EXIT_BLOW_UP, "blow-up: {0}"),
    "corrector_failed": (EXIT_CORRECTOR, "corrector failure: {0}"),
    _key(KeyboardInterrupt): (EXIT_INTERRUPTED, "interrupted"),  # SIGINT
}
_DONE = ("completed", None)


def _fail(where: str, reason: str):
    raise ConfigError(f"config field '{where or '<root>'}': {reason}")


def _number(low=None, integer=False, strict=False, high=None):
    """A number (not a boolean) that converts to a finite float, integral if
    ``integer`` (4.0 counts), >= ``low``, or > ``low`` if ``strict``, and <=
    ``high`` (for an integer, by default sys.maxsize - 1, the library's largest count)."""
    high = sys.maxsize - 1 if integer and high is None else high

    def walk(value, where):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(where, "expected an integer" if integer else "expected a number")
        try:  # Python's json reads NaN, Infinity and 1e400 as floats, 10**400 as an int
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            _fail(where, "not a finite number")
        if integer and isinstance(value, float) and not value.is_integer():
            _fail(where, "expected an integer")
        if low is not None and (value <= low if strict else value < low):
            _fail(where, f"must be {'>' if strict else '>='} {low}")
        if high is not None and value > high:
            _fail(where, f"must be <= {high}")
    return walk


def _string(*options):
    """A string, and one of ``options`` if any are given."""
    def walk(value, where):
        if not isinstance(value, str) or options and value not in options:
            _fail(where, "expected " + ("one of " + ", ".join(options) if options else "a string"))
    return walk


def _array(item):
    """A non-empty array of ``item``."""
    def walk(value, where):
        if not isinstance(value, list) or not value:
            _fail(where, "expected a non-empty array")
        for i, child in enumerate(value):
            item(child, f"{where}/{i}")
    return walk


def _object(fields: dict, required=(), exactly_one=False, string=None):
    """An object with keys from ``fields``, all of ``required``, or exactly one
    key if ``exactly_one``; an unknown key is refused by name.  With ``string``,
    a string that ``string`` accepts will do instead."""
    def walk(value, where):
        if string is not None and isinstance(value, str):
            return string(value, where)
        if not isinstance(value, dict):
            _fail(where, "expected " + ("a string or " if string else "") + "an object")
        path = lambda key: f"{where}/{key}" if where else key  # noqa: E731
        for key in value:
            if key not in fields:
                _fail(path(key), "unknown key")
        for key in required:
            if key not in value:
                _fail(path(key), "required")
        if exactly_one and len(value) != 1:
            _fail(where, "needs exactly one of " + ", ".join(fields))
        for key, child in value.items():
            fields[key](child, path(key))
    return walk


_MATRIX = _array(_array(_number()))
_VECTOR = _array(_number())
_CONFIG = _object({
    "model": _object({"a": _MATRIX, "b": _MATRIX, "f_const": _VECTOR, "f_matrix": _MATRIX},
                     required=("a", "b"), string=_string()),
    "method": _string("method1", "method2"),
    "mesh": _object({"t0": _number(), "t_end": _number(),
                     "n_steps": _number(1, integer=True)},
                    required=("t0", "t_end", "n_steps")),
    "initial_state": _object({"x0": _VECTOR, "z0": _VECTOR}, exactly_one=True,
                             string=_string("preset_default")),
    "corrector": _object({"mode": _string("single_step", "iterate"),
                          "tol": _number(0, strict=True), "max_iter": _number(1, integer=True)},
                         required=("mode",)),
    "blow_up_threshold": _number(0, strict=True),
    "outputs": _object({"trajectory_csv": _string(), "summary_json": _string()}),
    "study": _object({"refinements": _number(3, integer=True)}, required=("refinements",)),
    "seed": _number(0, integer=True),
    "projector_node_count": _number(8, integer=True, high=MAX_NODE_COUNT),
}, required=("model",))


def load_config(path: str) -> dict:
    """Read a config file and walk it with ``_CONFIG``."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _CONFIG(config, "")
    if config.get("method") == "method2" and config.get("mesh", {}).get("n_steps", 2) < 2:
        _fail("mesh/n_steps", "method2 needs at least 2 steps")
    if "mesh" in config:  # the mesh, then a study's finest level, by Mesh's own rule
        m, refinements = config["mesh"], int(config.get("study", {}).get("refinements", 0))
        for where, levels in ("mesh", 0), ("study/refinements", refinements):
            try:
                _check_mesh(float(m["t0"]), float(m["t_end"]), int(m["n_steps"]), levels)
            except ValueError as exc:
                _fail(where, str(exc))
    return config


def _inline_model(model_spec: dict):
    """``(pencil, f, jac)`` of an inline model, its shapes checked: f(t, x) is
    f_const + f_matrix @ x, affine for config-file safety."""
    _bind("np", "pencil")
    try:  # a ragged matrix fails in asarray, a non-square one in MatrixPencil
        pen = pencil.MatrixPencil(a=np.asarray(model_spec["a"], dtype=float),
                                  b=np.asarray(model_spec["b"], dtype=float))
        n = pen.n
        f_const = np.asarray(model_spec.get("f_const", np.zeros(n)), dtype=float)
        f_matrix = np.asarray(model_spec.get("f_matrix", np.zeros((n, n))), dtype=float)
    except ValueError as exc:
        raise ConfigError(f"inline model: {exc}") from exc
    if f_const.shape != (n,) or f_matrix.shape != (n, n):
        raise ConfigError("inline model: f_const/f_matrix shapes must match the pencil")

    def f(t, x):  # .dot: the same BLAS product as @, with less call overhead
        return f_const + f_matrix.dot(x)

    def jac(t, x):
        return f_matrix
    return pen, f, jac


def _resolve_model(config: dict) -> model_library.ModelPreset:
    _bind("np", "dae_model", "model_library")
    model_spec = config["model"]
    if isinstance(model_spec, str):
        try:
            return model_library.get_preset(model_spec)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
    pen, f, jac = _inline_model(model_spec)
    return model_library.ModelPreset(preset_id="<inline>",
                                     dae=dae_model.SemilinearDAE(pencil=pen, f=f, jac_f=jac),
                                     x0=np.zeros(pen.n), smooth=True)


def _decompose(pen: pencil.MatrixPencil, config: dict):
    _bind("pencil")
    pencil.regularity_probe(pen, sample_count=32, seed=int(config.get("seed", 0)))
    return pencil.projectors_algebraic(pen)


def _initial_state(config: dict, preset, decomp, mesh: integrators.Mesh) -> np.ndarray:
    _bind("np", "dae_model")
    choice = config.get("initial_state", "preset_default")
    if choice == "preset_default":
        if preset.preset_id == "<inline>":
            raise ConfigError("inline models need an explicit initial_state")
        return preset.x0
    (key, values), = choice.items()   # x0 or z0, as the config contract allows
    state = np.asarray(values, dtype=float)
    if state.shape != (decomp.n,):
        _fail(f"initial_state/{key}", f"must have {decomp.n} entries")
    if key == "x0":
        return state
    z0 = decomp.p1 @ state
    return z0 + dae_model.consistent_initialize(preset.dae, decomp, mesh.t0, z0)


def _solver_config(config: dict) -> integrators.SolverConfig:
    _bind("integrators")
    corr_spec = config.get("corrector", {"mode": "single_step"})
    iterate = corr_spec["mode"] == "iterate"   # single_step ignores tol and max_iter
    return integrators.SolverConfig(method=integrators.Method(config.get("method", "method1")),
                                    tol=float(corr_spec.get("tol", 1e-10)) if iterate else None,
                                    max_iter=int(corr_spec.get("max_iter", 50)),
                                    blow_up_threshold=float(config.get("blow_up_threshold", 1e6)))


def _set_up(config: dict):
    """(preset, decomposition, mesh, solver config, x0) of a run, validated in
    this order, so every command reports the same first error."""
    _bind("integrators")
    preset = _resolve_model(config)
    decomp = _decompose(preset.dae.pencil, config)
    if "mesh" not in config:
        _fail("mesh", "required for this command")
    m = config["mesh"]  # load_config has held it to Mesh's own rule
    mesh = integrators.Mesh(float(m["t0"]), float(m["t_end"]), int(m["n_steps"]))
    solver_config = _solver_config(config)
    return preset, decomp, mesh, solver_config, _initial_state(config, preset, decomp, mesh)


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


def _csv_rows(mesh, basis, first, z, c, residuals, status=None) -> bytes:
    """The CSV rows of a block of ``integrators._run``, ASCII: one %-format per block."""
    u, norms = integrators._lift(basis, c), integrators._row_norms
    times = mesh.times(slice(first, first + len(z)))
    block = np.column_stack((times, z + u, norms(z), norms(u), residuals))
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * len(block) % tuple(block.ravel().tolist())).encode()


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


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_solve(config: dict, out_dir: str | None, quiet: bool):
    preset, decomp, mesh, solver_config, x0 = _set_up(config)
    csv_path, json_path = _output_paths(config, out_dir)
    csv_rows = functools.partial(_csv_rows, mesh, decomp.x2_basis)
    start = time.perf_counter()
    blocks = integrators._run(preset.dae, decomp, mesh, x0, solver_config)
    block, max_norm, rest = next(blocks), -math.inf, None  # an initial-state error: no file
    with open(csv_path, "wb") as fh:  # ASCII: its bytes are its UTF-8 with LF line ends
        fh.write(("t," + ",".join(f"x{i + 1}" for i in range(decomp.n))
                  + ",z_norm,u_norm,constraint_residual\n").encode())
        while True:  # the max norm (of finite states) and the last state, block by block
            first, z, c, _, status = block
            states = z + integrators._lift(decomp.x2_basis, c)
            max_norm = max(max_norm, float(integrators._row_norms(states).max()))
            if status is not None:
                break
            # a child formats each block but the last while the steps go on: one at a time
            with integrators._in_child(functools.partial(csv_rows, *block)) as text:
                block = next(blocks)
                rest = csv_rows(*block) if block[-1] is not None else None  # as the child runs
                fh.write(text())
        wall = time.perf_counter() - start
        fh.write(csv_rows(*block) if rest is None else rest)
    nodes = first + len(z)
    summary = {
        "model": preset.preset_id,
        "method": solver_config.method.value,
        "status": status.to_json(),
        "max_norm": max_norm,
        "final_state": [float(v) for v in states[-1]],
        "final_time": float(mesh.times(slice(nodes - 1, nodes))[0]),
        "n_nodes": nodes,
        "wall_time": wall,
    }
    _write_json(json_path, summary)
    _say(quiet, f"solve {preset.preset_id}: {status.outcome.value}, "
                f"max norm {max_norm:.6g}, wrote {csv_path} and {json_path}")
    return status.outcome.value, (f"solve {preset.preset_id} stopped at "
                                  f"t={summary['final_time']:.6g}, max norm {max_norm:.6g}")


def cmd_converge(config: dict, out_dir: str | None, quiet: bool):
    if "study" not in config:
        _fail("study", "required for converge")
    preset, decomp, mesh, solver_config, x0 = _set_up(config)
    _, json_path = _output_paths(config, out_dir)

    payload: dict = {"model": preset.preset_id, "method": solver_config.method.value,
                     "base_h": mesh.h, "refinements": config["study"]["refinements"]}
    if not preset.smooth:
        # order claims assume a smooth right-hand side; a non-smooth drive
        # still converges but need not show its nominal rate
        payload["skipped_reason"] = "non-smooth input"
        _write_json(json_path, payload)
        _say(quiet, f"converge {preset.preset_id}: skipped (non-smooth input)")
        return _DONE

    try:
        estimate = diagnostics.empirical_order(
            preset.dae, decomp, mesh, x0, refinements=int(config["study"]["refinements"]),
            config=solver_config)
    except diagnostics.LadderSolveError as exc:
        payload["ladder_failure"] = {"h": exc.h, "status": exc.status.to_json()}
        _write_json(json_path, payload)
        _say(quiet, f"converge {preset.preset_id}: ladder failed ({exc}), wrote {json_path}")
        return exc.status.outcome.value, f"converge {preset.preset_id}: {exc}"
    payload.update(estimate.to_json())
    _write_json(json_path, payload)
    _say(quiet, f"converge {preset.preset_id}: z order "
                f"{estimate.z.asymptotic_order:.3f}, wrote {json_path}")
    return _DONE


def cmd_projectors(config: dict, out_dir: str | None, quiet: bool):
    if isinstance(config["model"], str):
        preset = _resolve_model(config)
        model_id, pen = preset.preset_id, preset.dae.pencil
    else:  # the pencil alone: no model layer is imported
        model_id, pen = "<inline>", _inline_model(config["model"])[0]
    decomp = _decompose(pen, config)
    tol = 1e-10 * pen.norm_scale()
    report = pencil.validate_decomposition(pen, decomp, tol)
    node_count = int(config.get("projector_node_count", 64))
    residue = pencil.projectors_residue(pen, node_count=node_count)
    p1_res, q1_res = residue
    agreement = max(float(np.abs(p1_res - decomp.p1).max()),
                    float(np.abs(q1_res - decomp.q1).max()))
    _, json_path = _output_paths(config, out_dir)
    passed = report.passed and agreement <= 1e-8
    payload = {
        "model": model_id,
        "index": decomp.index.value,
        "p1": decomp.p1.tolist(),
        "p2": decomp.p2.tolist(),
        "q1": decomp.q1.tolist(),
        "q2": decomp.q2.tolist(),
        "g": decomp.g.tolist(),
        "det_g": float(np.linalg.det(decomp.g)),
        "validation": report.to_json(),
        "residue_agreement": agreement,
        "residue_quadrature_error": residue.quadrature_error,
        "passed": passed,
    }
    _write_json(json_path, payload)
    check = f"validation {'pass' if report.passed else 'FAIL'}, residue agreement {agreement:.3e}"
    _say(quiet, f"projectors {model_id}: index {decomp.index.value}, {check}")
    if not passed:
        raise pencil.DecompositionFailedError(
            f"projectors of {model_id} failed their check: {check}")
    return _DONE


def cmd_validate(config: dict, out_dir: str | None, quiet: bool):
    _say(quiet, "config OK")
    return _DONE


# name: (command, help string, the _LAZY names it runs), read by the parser and dispatch
_COMMANDS = {
    "solve": (cmd_solve, "integrate a model and emit trajectory CSV + summary JSON",
              ("np", "pencil", "dae_model", "model_library", "integrators")),
    "converge": (cmd_converge, "run a mesh-refinement convergence study", tuple(_LAZY)),
    "projectors": (cmd_projectors, "emit projectors, validation report and residue agreement",
                   ("np", "pencil")),
    "validate": (cmd_validate, "check a config file against its contract and exit", ()),
}


def _usual(argv) -> tuple | None:
    """(command, config, out_dir, quiet) of ``<command> <config>`` then ``--out-dir DIR``
    and ``--quiet`` in any order, each spelled in full; None for any other line (``--help``,
    an abbreviation, ``--out-dir=DIR``, an option first, an argument missing or extra)."""
    if len(argv) < 2 or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    out_dir, quiet, options = None, False, iter(argv[2:])
    for option in options:  # a DIR that is missing or looks like an option is argparse's
        if option == "--quiet":
            quiet = True
        elif option != "--out-dir" or (out_dir := next(options, "-")).startswith("-"):
            return None
    return argv[0], argv[1], out_dir, quiet


def _parsed(argv) -> tuple:
    """(command, config, out_dir, quiet) as argparse reads ``argv``; a usage error (a
    missing config, an unknown flag) is a config error, and ``--help`` exits 0."""
    import argparse

    class Parser(argparse.ArgumentParser):  # the subcommand parsers are of this class too
        def error(self, message):
            raise ConfigError(message)
    parser = Parser(prog="pencildae",
                    description="Semilinear DAE solver with spectral-projector reduction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out-dir", default=None, help="redirect output files here")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    return args.command, args.config, args.out_dir, args.quiet


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # in the try, so a SIGINT while argparse or a layer loads exits 130
        chosen, path, out_dir, quiet = _usual(argv) or _parsed(argv)
        command, _, names = _COMMANDS[chosen]
        config = load_config(path)
        for name in names:
            __getattr__(name)
        # overflow and invalid-value warnings would add stray stderr lines; the
        # library's own finiteness checks decide every outcome
        with np.errstate(all="ignore") if names else contextlib.nullcontext():
            outcome, detail = command(config, out_dir, quiet)
    except BaseException as exc:
        outcome = next((key for key in map(_key, type(exc).__mro__) if key in _EXITS), None)
        if outcome is None:
            raise
        detail = exc
    code, line = _EXITS[outcome]
    if line is not None and sys.stderr is not None:  # None: closed by 2>&-
        print(line.format(detail), file=sys.stderr)
    return code


def run() -> None:
    """``main``, then flush stdout and stderr and ``os._exit``: no interpreter
    teardown (module clearing, final collections); main closes every file."""
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed by >&-
            stream.flush()
    except OSError as exc:  # an unwritable output: a full disk or a closed pipe
        code = EXIT_CONFIG
        with contextlib.suppress(OSError):  # exit 1 silently if stderr fails too
            if sys.stderr is not None:
                print(_EXITS[_key(OSError)][1].format(exc), file=sys.stderr, flush=True)
    os._exit(code)


if __name__ == "__main__":
    run()
