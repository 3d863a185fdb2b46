import subprocess
import sys

import pytest


@pytest.fixture
def spawned(monkeypatch):
    """Every training worker started during the test, in start order."""
    started = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance scorecard after capture is torn down."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "SCORECARD", None)
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.line(line)
