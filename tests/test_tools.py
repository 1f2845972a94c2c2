"""The tools under ``tools/`` run against this tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fit_compare_finds_this_tree_bitwise_equal_to_itself():
    # two processes fit all 504 cases bitwise alike, and a rename in src/ or
    # tests/support.py that breaks the tool fails here
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "fit_compare.py"),
                          str(ROOT / "src")], capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == (
        "summary: 504 fits; bitwise equal 504/504; labels equal 504/504; "
        "removals equal 504/504; worst relative trace difference 0; "
        "iteration counts differ on 0 fits, 0 of them with epsilon = 0")
