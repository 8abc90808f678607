"""The traced benchmark child runs each workload's kind of command.

bench/child.py wraps private library names from outside the library, so a
refactor that renames one breaks the traced benchmark without failing any
library test.  This runs the child as bench/run.py does, with tracing on.
The table's 2 000-point theta grid is several blocks of the constant chain,
which run one after the other in _k_table while the spans are recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Wrap targets that no longer exist in the library; every other layer the
# traced run wraps must still be found.
STALE_TARGETS = {"critline.roots._bisect_vec", "critline.roots.solve_bracketed"}


@pytest.mark.parametrize("argv", [
    ["table", "--theta-grid", "2000"],
    ["detect", "--t-lo", "9900", "--t-hi", "9902"],
    ["constants", "--theta", "0.3"],
], ids=["table", "detect", "constants"])
def test_traced_child_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"),
         json.dumps({"argv": argv, "trace": True})],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    spans = result["spans"]
    assert spans
    assert set(result["missing"]) <= STALE_TARGETS
    for span in spans:      # each child span lies inside its parent
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
