"""tools/compare_outputs.py, the output diff of two source trees, tools/peak_rss.py and
tools/step_cost.py."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # a difference past the first 80 bytes is shown with the 40 bytes before it
    head = b"0123456789" * 10
    assert compare_outputs.first_difference(head + b"x\n", head + b"y\n") \
        == f"line 1 of 1 vs 1: {head[60:] + b'x'!r} vs {head[60:] + b'y'!r}"


def test_peak_rss_reads_the_peak_in_a_child_of_a_process_without_numpy():
    # the tool's own process stays small, so the child's ru_maxrss is the command's
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import peak_rss; "
            "peak_rss.main([sys.argv[2], '10']); print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools"), str(ROOT)],
                         capture_output=True, text=True, check=True).stdout
    line, imported = out.splitlines()
    assert re.fullmatch(r"10 steps: exit 0, peak \d+\.\d MB", line) and imported == "False"
    assert 5 < float(line.split()[-2]) < 1000


def test_a_difference_in_numbers_alone_is_sized():
    size = compare_outputs.numeric_difference
    assert size(b"t,x1\n0.5,-1.25e-3\n", b"t,x1\n0.5,-1.2500000000000002e-3\n") \
        == abs(-1.25e-3 - -1.2500000000000002e-3)
    assert size(b'{"max_norm": 2.0, "n": 7}', b'{"max_norm": 2.5, "n": 9}') == 2.0
    assert size(b"0,inf,nan\n", b"0,inf,nan\n") == 0.0
    assert size(b"1,inf\n", b"1,5\n") == float("inf")
    assert size(b"a,1\n", b"b,1\n") is None        # other text
    assert size(b"1,2\n", b"1,2,3\n") is None      # another count of numbers


def test_step_cost_times_each_run_in_each_tree(capsys):
    spec = importlib.util.spec_from_file_location("step_cost", ROOT / "tools" / "step_cost.py")
    step_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_cost)
    assert step_cost.main(["--rounds", "1", str(ROOT), str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["µs/step,", "best", "of", "1", "tree", "1", "tree", "2", "2/1"]
    names = ["circuit_solve circuit", "cli_short solve_toy_index1",
             "cli_short solve_linear_index0", "affine_ladder ladder finest"]
    for name, line in zip(names, lines[1:5]):
        assert line.startswith(name)
        first, second, ratio = map(float, line[len(name):].split())
        assert 0 < first < 1000 and 0 < second < 1000
        # the ratio of the unrounded costs, so within the rounding of the three figures
        rounding = 5e-4 + 1.01 * (second / first) * (0.005 / first + 0.005 / second)
        assert ratio == pytest.approx(second / first, abs=rounding)
    assert lines[5:] == [f"tree {i}: {ROOT}" for i in (1, 2)]
    assert step_cost.main(["--rounds", "0", str(ROOT)]) == 2
    assert step_cost.main([]) == 2
