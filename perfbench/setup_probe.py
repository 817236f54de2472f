"""Do exactly a workload's set-up calls in a fresh process, then exit.

    python setup_probe.py <config.json>

Import pencildae, load and validate the config, build the preset or inline
model, probe regularity, build the algebraic projectors and, for a ``z0``
initial state, run the consistent initialisation.  ``run.py`` times this
process from spawn to exit as ``setup_s``.
"""

from __future__ import annotations

import sys

import numpy as np

from pencildae import cli, dae_model, model_library, pencil


def main(path: str) -> int:
    config = cli.load_config(path)
    spec = config["model"]
    if isinstance(spec, str):
        dae = model_library.get_preset(spec).dae
    else:
        pen = pencil.MatrixPencil(a=np.asarray(spec["a"], dtype=float),
                                  b=np.asarray(spec["b"], dtype=float))
        f_const = np.asarray(spec.get("f_const", np.zeros(pen.n)), dtype=float)
        f_matrix = np.asarray(spec.get("f_matrix", np.zeros((pen.n, pen.n))), dtype=float)
        dae = dae_model.SemilinearDAE(pencil=pen, f=lambda t, x: f_const + f_matrix @ x,
                                      jac_f=lambda t, x: f_matrix)
    pencil.regularity_probe(dae.pencil, sample_count=32, seed=int(config.get("seed", 0)))
    decomp = pencil.projectors_algebraic(dae.pencil)
    state = config.get("initial_state")
    if isinstance(state, dict) and "z0" in state:
        z0 = decomp.p1 @ np.asarray(state["z0"], dtype=float)
        dae_model.consistent_initialize(dae, decomp, float(config["mesh"]["t0"]), z0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
