"""The benchmark's self-check (every workload at a tiny size, traced run
included) runs against these sources, so a change under src/ that breaks
a name the benchmark imports or wraps fails here first."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-check passed" in proc.stdout
