import multiprocessing
import threading
import time

import pytest

from poseattn.training import ModelDims, RunConfig
from poseattn.verify import TinyDims, run_gradcheck


def build_stream(cls, rng, base: dict, **overrides):
    """A ``cls`` (``RgbStream`` or ``PoseStream``) built as training builds
    it, from the fields of ``base`` with ``overrides`` laid over them: the
    dataset's ``pose_dim`` and ``n_classes``, and ``RunConfig`` fields, whose
    ``feat_dim`` and ``clip_len`` also size the stream (``ModelDims``)."""
    fields = {**base, **overrides}
    pose_dim, n_classes = fields.pop("pose_dim"), fields.pop("n_classes")
    config = RunConfig(**fields)
    return cls(config, ModelDims(pose_dim, n_classes, config.feat_dim, config.clip_len), rng)


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
