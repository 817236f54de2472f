"""End-to-end benchmark of the pencildae CLI.

    python3 perfbench/run.py --workload circuit_solve --seed 1 --seconds 30 --trace 0

Every operation is a fresh ``python -m pencildae.cli <command> <config>``
process with ``src`` on ``PYTHONPATH``, run closed-loop by one client, one at a
time, so each operation pays the import cost a CLI user pays.  The workload's
configs are generated from ``--seed`` (see ``workloads.py``); every output is
checked against an independent reference, and an operation fails when its exit
code differs from the expected one or its output fails the check.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation once untraced and once through ``traced_cli.py`` and reports the
per-layer metrics derived from the recorded spans.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Files go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import main_accounting, per_layer
from workloads import WORKLOADS, CheckFailed, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

SETUP_REPS = 7        # fresh set-up processes per run; setup_s is their median
IMPORT_REPS = 3       # -X importtime processes per traced run
OP_TIMEOUT_S = 60     # an operation running longer is killed and counted failed
GAUGE_SHARE = 0.1     # after each operation, run the host gauge for this share of its time
GAUGE_REF_MS = 12.0   # the gauge loop's time on an uncontended core of the reference host


@dataclass
class OpResult:
    op_index: int
    seconds: float
    rss_mb: float
    ok: bool
    error: str = ""
    traced: bool = False


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[float, int, float]:
    """Run ``argv`` to completion; return (wall seconds, exit code, peak RSS in MB).

    The child is started with ``posix_spawn`` and reaped with ``wait4`` so the
    wall time spans exactly spawn to exit and the rusage is the child's own.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    return seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Spawns and checks the operations of one workload run."""

    def __init__(self, wl, run_dir: Path):
        self.wl = wl
        self.env = child_env()
        self.out_dir = run_dir / "out"
        self.spans_dir = run_dir / "spans"
        self.log_dir = run_dir / "log"
        for d in (self.out_dir, self.spans_dir, self.log_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.results: list[OpResult] = []
        self.spans: list[dict] = []
        self.csv_bytes: dict[int, int] = {}
        self.host_ms: list[float] = []

    def run_op(self, index: int, traced: bool = False) -> OpResult:
        op = self.wl.ops[index]
        for name in op.outputs:
            (self.out_dir / name).unlink(missing_ok=True)
        op_id = len(self.results)
        config = str(self.wl.config_dir / op.config)
        cli_args = [op.command, config, "--out-dir", str(self.out_dir)]
        if traced:
            spans_path = self.spans_dir / f"{op_id}.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                    str(op_id)] + cli_args
        else:
            argv = [sys.executable, "-m", "pencildae.cli"] + cli_args
        stdout, stderr = self.log_dir / "stdout.txt", self.log_dir / "stderr.txt"
        seconds, code, rss = spawn(argv, self.env, stdout, stderr)
        result = OpResult(index, seconds, rss, ok=True, traced=traced)
        if code != op.expect_exit:
            result.ok = False
            result.error = (f"exit {code}, expected {op.expect_exit}: "
                            f"{stderr.read_text(errors='replace').strip()[-300:]}")
        elif op.check is not None:
            try:
                op.check(self.out_dir, stdout.read_text(errors="replace"))
            except CheckFailed as exc:
                result.ok = False
                result.error = str(exc)
        if traced:
            self._collect_spans(op_id, spans_path)
            csv = self.out_dir / "trajectory.csv"
            if "trajectory.csv" in op.outputs and csv.exists():
                self.csv_bytes[op_id] = csv.stat().st_size
        self.results.append(result)
        return result

    def _collect_spans(self, op_id: int, path: Path) -> None:
        try:
            spans = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            spans = []
        for span in spans:
            span["op"] = op_id
        self.spans.extend(spans)
        path.unlink(missing_ok=True)

    def rounds(self, seconds: float, paired: bool, between=None) -> None:
        """Run whole rounds of the workload until ``seconds`` have passed.

        ``paired`` runs each operation untraced, then traced.  ``between`` is
        called after each operation with the fraction of ``seconds`` used so
        far; the time it takes does not count towards ``seconds``.
        """
        used = 0.0
        while True:
            for index in range(len(self.wl.ops)):
                start = time.perf_counter()
                op_s = self.run_op(index).seconds
                if paired:
                    op_s += self.run_op(index, traced=True).seconds
                self.gauge(op_s)
                used += time.perf_counter() - start
                if between is not None:
                    between(used / seconds if seconds > 0 else 1.0)
            if used >= seconds:
                return

    def gauge(self, op_seconds: float) -> None:
        """Sample the host's speed for ``GAUGE_SHARE`` of an operation's time,
        so that the samples weight the run's moments as the operations do."""
        end = time.perf_counter() + GAUGE_SHARE * op_seconds
        self.host_ms.append(host_loop_ms())
        while time.perf_counter() < end:
            self.host_ms.append(host_loop_ms())


def host_loop_ms() -> float:
    """Wall time of a fixed pure-Python loop: a gauge of the host's current speed."""
    start = time.perf_counter()
    total = 0.0
    for i in range(200_000):
        total += i * 0.5
    return (time.perf_counter() - start) * 1e3


def host_slowdown(host_ms: list[float]) -> float:
    """How much slower than the reference host the run's host was, on average."""
    return statistics.fmean(host_ms) / GAUGE_REF_MS


class SetupProbe:
    """Times fresh processes doing only the workload's set-up calls.

    The probes are spread evenly over the run (probe i once a fraction
    i / SETUP_REPS of it has passed), so that they see the same machine
    state as the operations.
    """

    def __init__(self, wl, env: dict, log_dir: Path):
        self.wl, self.env, self.log_dir = wl, env, log_dir
        self.times: list[float] = []

    def __call__(self, fraction: float) -> None:
        while len(self.times) < SETUP_REPS and len(self.times) <= fraction * SETUP_REPS:
            self.probe()

    def probe(self) -> None:
        config = self.wl.config_dir / self.wl.setup_configs[
            len(self.times) % len(self.wl.setup_configs)]
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config)]
        err = self.log_dir / "setup.err"
        seconds, code, _ = spawn(argv, self.env, self.log_dir / "setup.out", err)
        if code != 0:
            raise RuntimeError(f"set-up probe failed on {config.name}: "
                               f"{err.read_text()[-500:]}")
        self.times.append(seconds)


def import_times(env: dict, log_dir: Path) -> tuple[float, float]:
    """Median (pencildae.cli, scipy.linalg) cumulative import seconds, from
    ``-X importtime`` in fresh processes."""
    cli_s, linalg_s = [], []
    err = log_dir / "importtime.err"
    for _ in range(IMPORT_REPS):
        argv = [sys.executable, "-X", "importtime", "-c", "import pencildae.cli"]
        _, code, _ = spawn(argv, env, log_dir / "importtime.out", err)
        if code != 0:
            raise RuntimeError(f"import failed: {err.read_text()[-500:]}")
        total, linalg = parse_importtime(err.read_text())
        cli_s.append(total)
        linalg_s.append(linalg)
    return statistics.median(cli_s), statistics.median(linalg_s)


def parse_importtime(text: str) -> tuple[float, float]:
    """Seconds of the top-level pencildae imports and of scipy.linalg."""
    total = linalg = 0.0
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1]) / 1e6
        except ValueError:
            continue          # the header line
        name = parts[2][1:]
        if name.startswith("pencildae"):
            total += cumulative
        elif name.strip() == "scipy.linalg":
            linalg += cumulative
    return total, linalg


def _read_git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(workload: str, seed: int, load_start: float,
                   host_ms: list[float]) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "host_loop_ms_mean": statistics.fmean(host_ms) if host_ms else None,
        "host_loop_ms_median": statistics.median(host_ms) if host_ms else None,
        "host_loop_ms_min": min(host_ms, default=None),
        "host_loop_samples": len(host_ms),
        "git_commit": _read_git_commit(),
        "workload": workload,
        "seed": seed,
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(runner: Runner, measured: list[OpResult], setup: list[float],
               slowdown: float) -> dict:
    """The gated metrics.  Times are scaled to the reference host's speed:
    the host's speed drifts by a third over minutes (see README.md), and
    dividing by the gauge's slowdown over the same run takes that drift out."""
    latencies = [r.seconds for r in measured]
    steps = sum(runner.wl.ops[r.op_index].steps for r in measured)
    return {
        "op_p90_s": (p90(latencies) / slowdown, "s"),
        "steps_per_s": (steps / sum(latencies) * slowdown, "1/s"),
        "setup_s": (statistics.median(setup) / slowdown, "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in measured), "MB"),
    }


def outcome_counts(results: list[OpResult]) -> tuple[int, int]:
    """(attempted, failed) over every operation run, warm-up included."""
    return len(results), sum(not r.ok for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pencildae" / "cli.py").is_file():
        print(f"error: {SRC / 'pencildae'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    run_dir = WORK / f"{args.workload}_{args.seed}_trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    wl = make_workload(args.workload, args.seed, run_dir / "configs")
    runner = Runner(wl, run_dir)

    # one warm-up operation writes the .pyc files; it is checked and counted
    # but its time is discarded
    runner.run_op(0)
    warm = len(runner.results)

    raw = {}
    slowdown = 1.0
    if args.trace:
        import_s, linalg_s = import_times(runner.env, runner.log_dir)
        runner.rounds(args.seconds, paired=True)
        measured = runner.results[warm:]
        metrics = per_layer(runner.spans, measured, runner.csv_bytes,
                            {"cli.import_s": import_s,
                             "pencil.import_scipy_linalg_s": linalg_s})
        (run_dir / "spans.json").write_text(json.dumps(runner.spans), encoding="utf-8")
    else:
        setup = SetupProbe(wl, runner.env, runner.log_dir)
        runner.rounds(args.seconds, paired=False, between=setup)
        setup(1.0)
        measured = runner.results[warm:]
        slowdown = host_slowdown(runner.host_ms)
        metrics = end_to_end(runner, measured, setup.times, slowdown)
        raw = end_to_end(runner, measured, setup.times, 1.0)

    attempted, n_failed = outcome_counts(runner.results)
    failed = [r for r in runner.results if not r.ok]
    record = machine_record(args.workload, args.seed, load_start, runner.host_ms)
    report = {
        "machine": record,
        "samples": len(measured),
        "host_slowdown": slowdown,
        "op_p50_s": statistics.median(r.seconds for r in measured),
        "op_min_s": min(r.seconds for r in measured),
        "latencies_s": [r.seconds for r in measured],
        "fail_frac": n_failed / attempted,
        "check_deviation": wl.deviations,
        "failures": [f"op {r.op_index} ({wl.ops[r.op_index].command} "
                     f"{wl.ops[r.op_index].config}): {r.error}" for r in failed[:10]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(measured)} timed "
          f"operations, one client, closed loop")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if raw:
        print(f"  host slowdown {slowdown:.4g} (gauge mean / {GAUGE_REF_MS} ms); "
              f"as measured, before scaling:")
        for name, (value, unit) in raw.items():
            print(f"  {name + ' (raw, not gated)':<34} {value:>14.6g} {unit}")
    for name in ("op_p50_s", "op_min_s"):
        print(f"  {name + ' (not gated)':<34} {report[name]:>14.6g} s")
    print(f"  {'fail_frac':<34} {report['fail_frac']:>14.6g} "
          f"({n_failed}/{attempted})")
    if args.trace:
        main_s, child_s, self_s = main_accounting(runner.spans)
        print(f"  in-process cli.main {main_s:.6g} s = child spans {child_s:.6g} s "
              f"+ cli self {self_s:.6g} s + f/jac outside spans "
              f"{main_s - child_s - self_s:.3g} s")
    for key, value in sorted(wl.deviations.items()):
        print(f"  check {key:<28} {value:>14.3e} worst deviation")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print("machine " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
