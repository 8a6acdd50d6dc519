"""Shared pytest configuration.

Tests marked acceptance(num, label) feed a summary section that prints one
PASS or FAIL line per acceptance criterion at the end of the run.  The
fresh_python fixture runs code in a new interpreter that imports the
spectral_risk under test, for what only a fresh process shows: the modules
a command loads and the page faults of a process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_risk

_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, label): marks a test as covering one acceptance criterion",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        num, label = marker.args
        if report.when == "call":
            _RESULTS[num] = (label, report.passed)
        elif report.failed or report.skipped:
            # setup or teardown trouble means the criterion was not shown
            _RESULTS[num] = (label, False)
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS, key=int):
        label, ok = _RESULTS[num]
        tag = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{tag}] criterion {num}: {label}")


@pytest.fixture
def fresh_python():
    """run(code) runs code in a fresh interpreter and returns its stdout;
    the run must exit 0."""
    path = [str(Path(spectral_risk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def run(code: str) -> str:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
