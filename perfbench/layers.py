"""Per-layer metrics derived from the spans that ``traced_cli.py`` records.

A span's self time is its duration minus the time covered by its child spans
and by the ``f``/``jac_f`` calls counted into it.  Each time or count below is
the mean over the traced operations that entered that layer (0 when none
did); the per-step figures divide totals over the run by the run's steps.
"""

from __future__ import annotations

from collections import defaultdict

# metric name -> span name whose duration, per operation, it reports
SPAN_TIMES = {
    "dae_model.consistent_initialize_s": "dae_model.consistent_initialize",
    "model_library.get_preset_s": "model_library.get_preset",
    "diagnostics.empirical_order_s": "diagnostics.empirical_order",
    "pencil.regularity_probe_s": "pencil.regularity_probe",
    "pencil.projectors_algebraic_s": "pencil.projectors_algebraic",
    "pencil.projectors_residue_s": "pencil.projectors_residue",
    "pencil.validate_decomposition_s": "pencil.validate_decomposition",
    "cli.load_config_s": "cli.load_config",
    "cli.main_s": "cli.main",
}

UNITS = {
    "integrators.solve_s": "s",
    "integrators.steps": "count",
    "integrators.us_per_step": "us",
    "integrators.self_us_per_step": "us",
    "integrators.f_calls_per_step": "count",
    "integrators.corrections_per_step": "count",
    "integrators.trajectory_bytes": "B",
    "dae_model.f_calls": "count",
    "dae_model.jac_calls": "count",
    "dae_model.f_self_s": "s",
    "dae_model.jac_self_s": "s",
    **{name: "s" for name in SPAN_TIMES},
    "diagnostics.ladder_solves": "count",
    "diagnostics.self_s": "s",
    "cli.import_s": "s",
    "pencil.import_scipy_linalg_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.overhead_frac": "ratio",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list[dict]) -> float:
    return _duration(span) - sum(_duration(c) for c in children) - span["f_s"] - span["jac_s"]


def operation_metrics(spans: list[dict]) -> dict:
    """Layer figures of one traced operation, only for the layers it entered."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    out = {metric: sum(_duration(s) for s in by_name[name])
           for metric, name in SPAN_TIMES.items() if by_name[name]}
    solves = by_name["integrators.solve"]
    if solves:
        out["integrators.solve_s"] = sum(_duration(s) for s in solves)
        out["integrators.steps"] = sum(s["steps"] for s in solves)
        out["integrators.trajectory_bytes"] = sum(s["bytes"] for s in solves)
        out["solve_f_calls"] = sum(s["f_calls"] for s in solves)
        out["solve_jac_calls"] = sum(s["jac_calls"] for s in solves)
        out["solve_self_s"] = sum(self_time(s, children[s["id"]]) for s in solves)
    f_calls = sum(s["f_calls"] for s in spans)
    if f_calls:
        out["dae_model.f_calls"] = f_calls
        out["dae_model.f_self_s"] = sum(s["f_s"] for s in spans)
    jac_calls = sum(s["jac_calls"] for s in spans)
    if jac_calls:
        out["dae_model.jac_calls"] = jac_calls
        out["dae_model.jac_self_s"] = sum(s["jac_s"] for s in spans)
    studies = by_name["diagnostics.empirical_order"]
    if studies:
        out["diagnostics.ladder_solves"] = sum(len(children[s["id"]]) for s in studies)
        out["diagnostics.self_s"] = sum(self_time(s, children[s["id"]]) for s in studies)
    for main in by_name["cli.main"]:
        out["cli.self_s"] = self_time(main, children[main["id"]])
    return out


def _by_op(spans: list[dict]) -> dict:
    by_op = defaultdict(list)
    for span in spans:
        by_op[span["op"]].append(span)
    return dict(sorted(by_op.items()))


def main_accounting(spans: list[dict]) -> tuple[float, float, float]:
    """(cli.main, its direct child spans, its self time), summed over the run."""
    totals = [0.0, 0.0, 0.0]
    for op_spans in _by_op(spans).values():
        for main in (s for s in op_spans if s["name"] == "cli.main"):
            kids = [s for s in op_spans if s["parent"] == main["id"]]
            totals[0] += _duration(main)
            totals[1] += sum(_duration(c) for c in kids)
            totals[2] += self_time(main, kids)
    return totals[0], totals[1], totals[2]


def per_layer(spans: list[dict], results, csv_bytes: dict, imports: dict) -> dict:
    """name -> (value, unit) for every per-layer metric of a traced run.

    ``results`` are the timed operations, traced and untraced; ``csv_bytes``
    maps a traced operation id to the size of the CSV it wrote.
    """
    ops = [operation_metrics(s) for s in _by_op(spans).values()]

    def mean(key: str) -> float:
        values = [op[key] for op in ops if key in op]
        return sum(values) / len(values) if values else 0.0

    def total(key: str) -> float:
        return sum(op.get(key, 0.0) for op in ops)

    steps = total("integrators.steps")

    def per_step(key: str, scale: float = 1.0) -> float:
        return scale * total(key) / steps if steps else 0.0

    values = {
        "integrators.solve_s": mean("integrators.solve_s"),
        "integrators.steps": mean("integrators.steps"),
        "integrators.us_per_step": per_step("integrators.solve_s", 1e6),
        "integrators.self_us_per_step": per_step("solve_self_s", 1e6),
        "integrators.f_calls_per_step": per_step("solve_f_calls"),
        "integrators.corrections_per_step": per_step("solve_jac_calls"),
        "integrators.trajectory_bytes": mean("integrators.trajectory_bytes"),
        "dae_model.f_calls": mean("dae_model.f_calls"),
        "dae_model.jac_calls": mean("dae_model.jac_calls"),
        "dae_model.f_self_s": mean("dae_model.f_self_s"),
        "dae_model.jac_self_s": mean("dae_model.jac_self_s"),
        **{metric: mean(metric) for metric in SPAN_TIMES},
        "diagnostics.ladder_solves": mean("diagnostics.ladder_solves"),
        "diagnostics.self_s": mean("diagnostics.self_s"),
        **imports,
        "cli.self_s": mean("cli.self_s"),
        "cli.csv_bytes": sum(csv_bytes.values()) / len(csv_bytes) if csv_bytes else 0.0,
    }
    traced = sum(r.seconds for r in results if r.traced)
    untraced = sum(r.seconds for r in results if not r.traced)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: (values[name], UNITS[name]) for name in UNITS}
