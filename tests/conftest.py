import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process running: a process pool must be
    shut down, and its workers joined, whether the code under test returns or
    raises."""
    yield
    left = multiprocessing.active_children()
    for p in left:
        p.terminate()
        p.join()
    if left:
        pytest.fail(f"test left {len(left)} child process(es) running: {left}")
