"""Tests of the benchmark's own instruments and checks.

    python3 -m pytest perfbench -q -p no:cacheprovider

They are kept out of the repository's test suite (pytest collects only
``tests/`` by default) because they test the benchmark, not the program.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import instrument  # noqa: E402
from poseattn import model, nn, tensor, training  # noqa: E402
from poseattn.data import save_dataset  # noqa: E402
from poseattn.synth import SyntheticSpec, generate  # noqa: E402
from poseattn.training import RunConfig, run_train  # noqa: E402
from workloads import SMALL_MODEL, Tally, _attempt  # noqa: E402

TINY = dict(SMALL_MODEL, rgb_hidden=8, attn_hidden=8, temporal_hidden=4, pose_hidden=8, pose_layers=2)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfbench") / "tiny.bin"
    save_dataset(path, generate(SyntheticSpec(kind="combined", counts=(40, 10, 10), seed=3)))
    return path


def _config(path, **kw) -> RunConfig:
    return RunConfig(dataset=str(path), seed=3, **{**TINY, "max_epochs": 2, "patience": 2, **kw})


def _package_state() -> dict:
    mods = instrument._package_modules()
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    for cls in (model.RgbStream, model.PoseStream, nn.Mlp, tensor.Tape):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def test_recorder_removes_every_wrapper(dataset_path):
    before = _package_state()
    with instrument.Recorder(trace=True):
        assert training.train_stream is not before[("poseattn.training", "train_stream")]
        assert model.cross_entropy is nn.cross_entropy  # the alias is wrapped too
        run_train(_config(dataset_path, variant="two_stream"))
    assert _package_state() == before


@pytest.mark.parametrize("trace", [False, True])
def test_counts_match_the_run(dataset_path, trace):
    config = _config(dataset_path, variant="two_stream")
    with instrument.Recorder(trace=trace) as rec:
        result = run_train(config)
    manifest = result.dataset.manifest
    n_train, n_val = len(manifest.split_ids("train")), len(manifest.split_ids("val"))
    n_test = len(manifest.split_ids("test_seeds")) + len(manifest.split_ids("test_pool"))
    streams = 2
    assert rec.train_windows == streams * config.max_epochs * n_train
    steps = streams * config.max_epochs * -(-n_train // config.batch_size)
    assert rec.steps_attempted == rec.steps_done == steps
    # Per-epoch validation of each stream alone, then the fused test splits.
    assert rec.eval_windows == rec.eval_windows_expected == 5 * (streams * config.max_epochs * n_val + streams * n_test)
    assert rec.train_s > 0 and rec.eval_s > 0
    if trace:
        layer = rec.per_layer(rounds=1)
        assert layer["data.load_calls"] == (1.0, "count")
        assert layer["nn.adam_ms"][0] > 0 and layer["model.pose_forward_ms"][0] > 0
        assert layer["tensor.nodes_per_batch"][0] > 0
        assert layer["tensor.op.concat.count"] == (0.0, "count")  # pose conditioning never concatenates
        spans = rec.spans
        assert all(s[1] <= s[2] for s in spans)
        assert all(p < i for i, (_, _, _, p) in enumerate(spans))


def test_setup_is_timed_once_per_run_train(dataset_path):
    with instrument.Recorder(trace=False) as rec:
        training.run_train(_config(dataset_path, variant="two_stream"))  # pose, then rgb
        training.run_train(_config(dataset_path, variant="rgb", max_epochs=1, patience=1))
    assert len(rec.setup_s) == 2
    assert all(0 < s < rec.train_s for s in rec.setup_s)


def test_a_call_that_raises_counts_its_operations_failed(dataset_path, monkeypatch):
    real = training.adam_step
    calls = []

    def fails_on_second_step(*args):
        calls.append(1)
        if len(calls) == 2:
            raise tensor.NumericError("injected")
        real(*args)

    for module in (nn, training):  # the recorder wraps every alias of one function
        monkeypatch.setattr(module, "adam_step", fails_on_second_step)
    config = _config(dataset_path, variant="rgb")
    tally = Tally()
    with instrument.Recorder(trace=False) as rec:
        assert _attempt(tally, "run_train", 0, lambda: training.run_train(config)) is None
        assert _attempt(tally, "a gradcheck cell", 1, lambda: 1 / 0) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.problems[0].startswith("run_train raised") and "injected" in tally.problems[0]
    assert tally.problems[1].startswith("a gradcheck cell raised ZeroDivisionError")
    assert rec.steps_done == 1 and rec.steps_attempted > 1


def test_directional_check_catches_a_wrong_adjoint(dataset_path, monkeypatch):
    result = run_train(_config(dataset_path, variant="rgb", max_epochs=1, patience=1))
    stream = result.streams["rgb"].stream
    batch = checks.first_window_batch(result.prepared, result.dataset.manifest.split_ids("train")[:8], 20)
    assert checks.directional_gradient("ok", stream, batch, np.random.default_rng(0)) == []

    real_tanh = tensor.tanh

    def wrong_tanh(a):
        out = real_tanh(a)
        tape = tensor.active_tape()
        if tape is not None and tape._nodes and tape._nodes[-1][0] is out:
            node_out, parents, _ = tape._nodes[-1]
            tape._nodes[-1] = (node_out, parents, (lambda g: 1.1 * g * (1.0 - node_out.data**2),))
        return out

    monkeypatch.setattr(tensor, "tanh", wrong_tanh)
    assert checks.directional_gradient("bad", stream, batch, np.random.default_rng(0))


def test_held_bytes_counts_shared_buffers_once():
    a = tensor.Tensor(np.ones((4, 8)), requires_grad=True)
    with tensor.Tape() as tape:
        v = tensor.reshape(a, (8, 4))  # a view of a's buffer
        loss = tensor.sum_axis(v)
    nodes = list(tape._nodes)
    tape.backward(loss)
    # a.data (shared with v) + v.grad + a.grad + loss.data + loss.grad
    assert instrument._held_bytes(nodes) == 8 * (32 + 32 + 32 + 1 + 1)
