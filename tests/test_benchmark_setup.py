"""The benchmark's set-up probe still runs against the package.

`perfbench/setup_probe.py` imports sqglab names and builds each workload's
grids, banks and tableaux in a fresh process.  A change that deletes or
renames a name it uses fails here, before the benchmark runs.  The probe is
only read: it runs without writing bytecode.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["march", "verify", "grid512", "quadrature"])
def test_setup_probe_prints_positive_seconds(workload):
    probe = ROOT / "perfbench" / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, "-B", str(probe), str(ROOT / "src"), workload],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0.0
