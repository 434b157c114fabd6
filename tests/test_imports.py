"""Import-footprint guard: no ``repro`` entry point loads ``scipy.stats``.

``scipy.stats`` costs most of a second to import, and every CLI call,
spawned queue worker and benchmark repetition would pay it.  The MBPTA
p-values come from ``scipy.special`` instead (see
``repro.mbpta.stats_tests``).  The check runs a fresh interpreter and
inspects module names only, never timings, so it cannot flake.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import repro, repro.campaigns, repro.backends, repro.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_entry_points_do_not_import_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    modules = json.loads(completed.stdout)
    assert "repro.mbpta.stats_tests" in modules
    assert [
        name for name in modules
        if name == "scipy.stats" or name.startswith("scipy.stats.")
    ] == []
