import multiprocessing
import threading
import time

import pytest

from poseattn.verify import TinyDims, run_gradcheck


@pytest.fixture(scope="session")
def default_gradcheck():
    """The default ``run_gradcheck(TinyDims())`` report and its wall seconds,
    built once per session for every test that only reads it."""
    t0 = time.monotonic()
    cells = run_gradcheck(TinyDims())
    return cells, time.monotonic() - t0


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process or a thread running: a process
    pool must be shut down, and its workers joined, and a helper thread
    joined, whether the code under test returns or raises."""
    threads_before = set(threading.enumerate())
    yield
    left = multiprocessing.active_children()
    for p in left:
        p.terminate()
        p.join()
    if left:
        pytest.fail(f"test left {len(left)} child process(es) running: {left}")
    threads_left = [t for t in threading.enumerate() if t not in threads_before]
    if threads_left:
        pytest.fail(f"test left {len(threads_left)} thread(s) running: {threads_left}")
