"""The tools under ``tools/`` run against this tree."""

import os
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


def test_the_names_the_timing_tools_rebind_exist_in_this_tree():
    # fit_ab and fit_memory wrap solver functions by attribute name, and a name
    # that is gone reads "-" or 0.00 without a word; both tools set BLAS
    # variables at import, so the check runs in a process of its own
    check = ("import fit_ab, fit_memory\n"
             "from mvclust import amvfcm\n"
             "print([k for k in fit_ab.KERNELS if not hasattr(amvfcm, k)],\n"
             "      [p for p, (names, _) in fit_memory.PHASES.items()\n"
             "       if not any(hasattr(amvfcm, a) for a in names)])\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")])}
    run = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[] []\n"


def test_trial_threads_measures_one_cell_and_its_rebound_name_exists():
    # the tool lowers harness.POOL_MIN_CELLS by name: a rename would leave the
    # real bound in place and time one thread on both sides
    from mvclust import harness
    assert hasattr(harness, "POOL_MIN_CELLS")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "trial_threads.py"),
                          "--cell", "3", "6", "300", "2", "--repeats", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split()[:4] == ["c", "D", "n", "trials"]
    assert len(rows) == 1 and rows[0].split()[:4] == ["3", "6", "300", "2"]
    assert rows[0].endswith("one thread")
