"""tools/compare_outputs.py, the output diff of two source trees, and tools/peak_rss.py."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare_outputs",
                                              ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_a_run_is_seen_whole_with_its_wall_time_masked(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "toy_index1",
                                  "mesh": {"t0": 0.0, "t_end": 1.0, "n_steps": 10}}))
    seen = [compare_outputs.run(ROOT, ["solve", str(config), "--quiet"], tmp_path / "out")
            for _ in range(2)]
    assert seen[0] == seen[1]
    assert sorted(seen[0]) == ["exit code", "file summary.json", "file trajectory.csv",
                               "stderr", "stdout"]
    assert seen[0]["exit code"] == b"0"
    assert b'"wall_time": <masked>' in seen[0]["file summary.json"]


def test_the_first_difference_is_named_by_line():
    assert compare_outputs.first_difference(b"a\nb\nc\n", b"a\nB\nc\n") \
        == "line 2 of 3 vs 3: b'b' vs b'B'"
    assert compare_outputs.first_difference(b"a\n", b"a\nb\n") == "line 2 of 1 vs 2: None vs b'b'"


def test_peak_rss_reads_the_peak_in_a_child_of_a_process_without_numpy():
    # the tool's own process stays small, so the child's ru_maxrss is the command's
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import peak_rss; "
            "peak_rss.main([sys.argv[2], '10']); print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools"), str(ROOT)],
                         capture_output=True, text=True, check=True).stdout
    line, imported = out.splitlines()
    assert re.fullmatch(r"10 steps: exit 0, peak \d+\.\d MB", line) and imported == "False"
    assert 5 < float(line.split()[-2]) < 1000
