"""In-process cost of a step of the step loop, ``integrators._run``, in each source tree.

    python tools/step_cost.py [--rounds K] <tree>...

Each tree is a checkout of this repository (its ``src/`` is put on PYTHONPATH).  The
configs come from ``perfbench/workloads.make_workload`` of the checkout this script sits
in, seed 3: the ``circuit_solve`` solve, once more with the preset's f and Jacobian
wrapped as plain callables (the ndarray boundary that a user's model and the benchmark's
tracer take), the two ``cli_short`` solves and the ``affine_ladder`` study's finest level
(its mesh refined ``2**refinements`` times).  A round starts one fresh interpreter per
tree, in turn, which sets each run up as the CLI does (``cli._set_up``) and times one pass
over ``_run``'s blocks.  After K rounds
(default 5) it prints the best µs/step of each config in each tree, and each tree's
ratio to the first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import make_workload  # noqa: E402

SEED = 3

# runs in the child: argv[1] is a JSON list of (name, config path, refinement factor,
# whether the model's f and Jacobian are wrapped)
_CHILD = """
import dataclasses, json, sys, time
import numpy as np
from pencildae import cli, integrators
costs = {}
for name, path, factor, wrapped in json.loads(sys.argv[1]):
    preset, decomp, mesh, solver_config, x0 = cli._set_up(cli.load_config(path))
    dae, mesh = preset.dae, mesh.refined(factor)
    if wrapped:
        dae = dataclasses.replace(dae, f=lambda t, x, f=dae.f: f(t, x),
                                  jac_f=lambda t, x, jac=dae.jac_f: jac(t, x))
    for _ in range(3):
        start = time.perf_counter()
        with np.errstate(all="ignore"):  # as the CLI runs a command
            for _ in integrators._run(dae, decomp, mesh, x0, solver_config):
                pass
        cost = (time.perf_counter() - start) / mesh.n_steps * 1e6
        costs[name] = min(cost, costs.get(name, cost))
print(json.dumps(costs))
"""


def runs(config_root: Path) -> list:
    """(name, config path, refinement factor, wrapped) of each timed run, its config written."""
    specs = []
    for workload, names in (("circuit_solve", ("circuit.json",)),
                            ("cli_short", ("solve_toy_index1.json", "solve_linear_index0.json")),
                            ("affine_ladder", ("ladder.json",))):
        config_dir = config_root / workload
        make_workload(workload, SEED, config_dir)
        for name in names:
            path = config_dir / name
            study = json.loads(path.read_text(encoding="utf-8")).get("study")
            factor = 2 ** study["refinements"] if study else 1
            run = f"{workload} {Path(name).stem}" + (" finest" if study else "")
            specs.append((run, str(path), factor, False))
            if workload == "circuit_solve":
                specs.append((run + " ndarray model", str(path), factor, True))
    return specs


def step_costs(tree: Path, specs: list) -> dict:
    """µs/step of each run, timed in one fresh interpreter with ``tree``'s library."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(specs)], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rounds = 5
    if argv[:1] == ["--rounds"] and len(argv) > 1 and argv[1].isdigit() and int(argv[1]):
        rounds, argv = int(argv[1]), argv[2:]
    if not argv or any(arg.startswith("-") for arg in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv]
    best = [{} for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        specs = runs(Path(tmp))
        for _ in range(rounds):  # the trees alternate, so a drift of the host hits each alike
            for seen, tree in zip(best, trees):
                for name, cost in step_costs(tree, specs).items():
                    seen[name] = min(cost, seen.get(name, cost))
    width = max(len(name) for name, *_ in specs)
    print(f"{'µs/step, best of ' + str(rounds):<{width}}"
          + "".join(f"  {'tree ' + str(i + 1):>8}" for i in range(len(trees)))
          + "".join(f"  {str(i + 1) + '/1':>6}" for i in range(1, len(trees))))
    for name, *_ in specs:
        costs = [seen[name] for seen in best]
        print(f"{name:<{width}}" + "".join(f"  {cost:8.2f}" for cost in costs)
              + "".join(f"  {cost / costs[0]:6.3f}" for cost in costs[1:]))
    for i, tree in enumerate(trees):
        print(f"tree {i + 1}: {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
