"""Peak memory of the CLI ``solve`` command, read in the process that runs it.

    python tools/peak_rss.py <tree> <n_steps>...

For each count, a fresh interpreter with ``<tree>/src`` on PYTHONPATH runs the
``solve`` command of ``sec5_cubic`` (method 1, on [0, 50], from the preset's x0)
with that many steps through ``pencildae.cli.main``, then reads its own
``ru_maxrss``.  This script imports no numpy and holds little, so each child starts
small: on Linux a child's ``ru_maxrss`` starts from its parent's peak, which is why
the benchmark's ``peak_rss_mb`` reads the harness, not the command.  It prints one
line per count: the steps, the exit code and the peak in MB (``ru_maxrss`` / 1024,
as the benchmark reports it).  The outputs go to a temporary directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# runs in the child: the command, then the peak of the process that ran it
_CHILD = """
import resource, sys
from pencildae import cli
code = cli.main(["solve", sys.argv[1], "--out-dir", sys.argv[2], "--quiet"])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak(tree: Path, n_steps: int) -> tuple[int, float]:
    """(exit code, peak in MB) of one ``solve`` of ``n_steps`` steps run from ``tree``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"model": "sec5_cubic", "method": "method1",
                                      "mesh": {"t0": 0.0, "t_end": 50.0, "n_steps": n_steps}}))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run([sys.executable, "-c", _CHILD, str(config), tmp], env=env,
                             capture_output=True, text=True, check=True).stdout
    code, kib = out.split()
    return int(code), int(kib) / 1024.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or not all(arg.isdigit() for arg in argv[1:]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    for n_steps in map(int, argv[1:]):
        code, mb = peak(tree, n_steps)
        print(f"{n_steps} steps: exit {code}, peak {mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
