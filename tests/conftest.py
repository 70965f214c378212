import os
from pathlib import Path

import pytest

# The bundled solver runs as `python -m mtlmon.refsolver` in a child
# process; from a source checkout the child needs src/ on its path too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def criterion_line(request):
    """Emit one visible pass/fail line per acceptance criterion, even when
    pytest captures stdout."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    lines = []

    def emit(number: int, ok: bool, detail: str):
        text = f"CRITERION {number} [{'PASS' if ok else 'FAIL'}] {detail}"
        lines.append(text)
        if reporter is not None:
            reporter.write_line(text)
        else:
            print(text)

    yield emit
