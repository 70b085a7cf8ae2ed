"""Shared pytest wiring: the ``--run-slow`` opt-in for exhaustive sweeps and
the ``wall_clock_limit`` fixture for tests of code that could hang.

Tests marked ``@pytest.mark.slow`` (the full differential-harness sweep,
large randomized property runs) are skipped by default so the tier-1 suite
stays fast; ``pytest --run-slow`` runs everything.
"""

import signal
from contextlib import contextmanager

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (full differential sweeps)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: exhaustive sweep, skipped unless --run-slow is given"
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: "list[pytest.Item]"
) -> None:
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow sweep; opt in with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def wall_clock_limit():
    """``with wall_clock_limit(seconds):`` fails the test when the block is
    still running after ``seconds`` of wall time — for code whose failure
    mode is a hang.  The alarm interrupts the main thread wherever it is,
    a wait on a worker pool included."""

    @contextmanager
    def limit(seconds: float):
        def expired(signum, frame):
            raise AssertionError(f"still running after {seconds} s of wall time")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
