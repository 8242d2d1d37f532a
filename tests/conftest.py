"""A time bound per test, so a runaway test fails alone."""

import signal

import pytest

#: Seconds one test may run; the slowest takes about 6 s on two cores.
TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def _time_bound():
    """Fail a test that runs past TEST_SECONDS with TimeoutError, where the
    platform has interval timers, instead of letting it stall the run."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
