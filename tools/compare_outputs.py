"""Run the benchmark's workload operations from two source trees and diff their outputs.

    python tools/compare_outputs.py <tree-a> <tree-b>

Each tree is a checkout of this repository (its ``src/`` is put on PYTHONPATH).  The
configs come from ``perfbench/workloads.make_workload`` of the checkout this script sits
in, for seeds 3 and 1000: 14 operations a seed, 28 in all.  Both trees run each
operation in turn, in one output directory, so the paths they print are the same.
Every difference in exit code, stdout, stderr or an output file is reported; the
summary's ``wall_time`` is masked.  Exits 0 when no operation differs, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, make_workload  # noqa: E402

SEEDS = (3, 1000)
_WALL_TIME = re.compile(rb'("wall_time": )[^,\n}]+')


def run(tree: Path, argv: list[str], out_dir: Path) -> dict:
    """Exit code, stdout, stderr and every file of ``out_dir`` after one CLI run."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pencildae.cli", *argv, "--out-dir",
                           str(out_dir)], env=env, capture_output=True)
    seen = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
            "stderr": proc.stderr}
    for path in sorted(out_dir.iterdir()):
        seen[f"file {path.name}"] = _WALL_TIME.sub(rb"\1<masked>", path.read_bytes())
    return seen


def first_difference(a: bytes, b: bytes) -> str:
    """Where ``a`` and ``b`` first differ: the line number and its first 80 bytes in each."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    line = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                min(len(lines_a), len(lines_b)))
    shown = [lines[line][:80] if line < len(lines) else None for lines in (lines_a, lines_b)]
    return f"line {line + 1} of {len(lines_a)} vs {len(lines_b)}: {shown[0]!r} vs {shown[1]!r}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv]
    differing = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name in WORKLOADS:
                wl = make_workload(name, seed, Path(tmp) / f"{name}-{seed}")
                for index, op in enumerate(wl.ops):
                    command = [op.command, str(wl.config_dir / op.config)]
                    a, b = (run(tree, command, Path(tmp) / "out") for tree in trees)
                    total += 1
                    diffs = [key for key in {**a, **b} if a.get(key) != b.get(key)]
                    differing += bool(diffs)
                    for key in diffs:
                        where = (first_difference(a[key], b[key]) if key in a and key in b
                                 else f"only in {trees[0] if key in a else trees[1]}")
                        print(f"{name} seed {seed} op {index} ({op.command} {op.config}): "
                              f"{key} differs, {where}")
    print(f"{differing} of {total} operations differ")
    return int(differing > 0)


if __name__ == "__main__":
    sys.exit(main())
