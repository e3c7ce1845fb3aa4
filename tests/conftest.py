import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started running (a pool not shut down)."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


@pytest.fixture
def within_bounds():
    """A check of an MDF report: every bound it states holds within 4 standard errors of its empirical moment."""
    return lambda report: all(
        r.theoretical is None or r.empirical <= r.theoretical + 4.0 * r.stderr for r in report.rows
    )
