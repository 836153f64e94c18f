"""Shared fixtures plus the acceptance summary printer.

Acceptance tests record one line per criterion; the terminal-summary
hook prints them after the run so the pass/fail ledger is visible even
when pytest captures stdout.
"""

import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def time_limit():
    """A context manager that raises TimeoutError in a block that runs past
    its seconds, so a computation that does not end fails the test rather
    than hanging the run."""

    def expire(signum, frame):
        raise TimeoutError("time limit exceeded")

    @contextmanager
    def limit(seconds):
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
