"""Run the pencildae CLI with spans recorded around each layer's entry points.

    python traced_cli.py <spans.json> <op-id> <cli arguments...>

The wrappers are installed from outside, at the names the callers look up
(``cli.load_config``, ``cli.solve``, ``diagnostics.solve``, ...), so the
package itself is unchanged.  Each span records its name, start, end, parent
and operation id; calls of the model's ``f`` and ``jac_f`` are counted and
timed into the innermost open span instead of getting spans of their own.
The spans are kept in memory and written to ``spans.json`` when the CLI
returns.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from time import perf_counter

import numpy as np

from pencildae import cli, dae_model, diagnostics, model_library, pencil


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "op": self.op_id,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": perf_counter(), "end": None,
                "f_calls": 0, "f_s": 0.0, "jac_calls": 0, "jac_s": 0.0}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a version that records a span per call."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, result)
            return result

        setattr(owner, attr, traced)

    def counted(self, fn, kind: str):
        """``fn`` with its calls and time added to the innermost open span."""
        stack = self.stack
        calls, seconds = f"{kind}_calls", f"{kind}_s"

        def wrapper(t, x):
            start = perf_counter()
            value = fn(t, x)
            span = stack[-1]
            span[seconds] += perf_counter() - start
            span[calls] += 1
            return value

        return wrapper


def _trajectory_stats(span: dict, traj) -> None:
    span["steps"] = len(traj) - 1
    span["bytes"] = sum(getattr(traj, f.name).nbytes for f in dataclasses.fields(traj)
                        if isinstance(getattr(traj, f.name), np.ndarray))


def install(tracer: Tracer) -> None:
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "solve", "integrators.solve", after=_trajectory_stats)
    tracer.wrap(diagnostics, "solve", "integrators.solve", after=_trajectory_stats)
    tracer.wrap(diagnostics, "empirical_order", "diagnostics.empirical_order")
    for name in ("regularity_probe", "projectors_algebraic", "projectors_residue",
                 "validate_decomposition"):
        tracer.wrap(pencil, name, f"pencil.{name}")
    tracer.wrap(dae_model, "consistent_initialize", "dae_model.consistent_initialize")
    tracer.wrap(model_library, "get_preset", "model_library.get_preset")

    resolve = cli._resolve_model

    def resolve_counted(config):
        preset = resolve(config)
        dae = preset.dae
        jac = tracer.counted(dae.jac_f, "jac") if dae.jac_f is not None else None
        dae = dataclasses.replace(dae, f=tracer.counted(dae.f, "f"), jac_f=jac)
        return dataclasses.replace(preset, dae=dae)

    cli._resolve_model = resolve_counted


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(op_id)
    install(tracer)
    span = tracer.open("cli.main")
    try:
        return cli.main(cli_args)
    finally:
        tracer.close(span)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
