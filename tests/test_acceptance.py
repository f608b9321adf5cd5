"""End-to-end acceptance suite.

One test per criterion, named so that ``pytest -v`` prints a pass/fail line
for each.  Criteria that need trained models share module-scoped fixtures;
synthetic datasets and training seeds are pinned throughout.  The heavier
criteria print their measured numbers (visible with ``-s`` or on failure).
"""
import json
import os
import time

import numpy as np
import pytest

from poseattn.ablation import mean_accuracies, run_ablation
from poseattn.cli import main as cli_main
from poseattn.data import save_dataset
from poseattn.model import RgbStream, WindowBatch
from poseattn.synth import SyntheticSpec, generate
from poseattn.training import (
    RunConfig,
    dump_attention,
    evaluate,
    load_checkpoint,
    predict_logits,
    run_train,
)
from poseattn.verify import format_report

SMALL_MODEL = dict(
    feat_dim=16,
    rgb_hidden=48,
    attn_hidden=48,
    temporal_hidden=32,
    pose_hidden=64,
    pose_layers=3,
    lr=2e-3,
    batch_size=32,
    dropout=0.0,
    stack_dropout=False,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def combined_path(workdir):
    path = workdir / "combined.bin"
    save_dataset(path, generate(SyntheticSpec(kind="combined", counts=(1200, 300, 300), seed=0)))
    return str(path)


@pytest.fixture(scope="module")
def combined_grid(combined_path, workdir):
    """The five ablation cells needed by criteria 6 and 7, three seeds each."""
    base = RunConfig(dataset=combined_path, max_epochs=18, patience=18, seed=0, **SMALL_MODEL)
    rows = ["sum", "sa_hidden", "sa_pose", "ta", "sta_pose"]
    results = run_ablation(
        base,
        seeds=[0, 1, 2],
        out_dir=workdir / "grid",
        rows=rows,
        attention_dumps=False,
        workers=os.cpu_count(),
    )
    return base, results


def mean_acc(test_acc: dict) -> float:
    return sum(test_acc.values()) / len(test_acc)


def test_criterion_1_gradient_exactness(default_gradcheck):
    cells, elapsed = default_gradcheck  # run_gradcheck(TinyDims()) at its eps and tol of 1e-5
    print(format_report(cells))
    print(f"criterion 1: {len(cells)} cells, worst {max(c.max_rel_error for c in cells):.3e}, "
          f"{elapsed:.1f}s")
    assert len(cells) == 11  # 5 conditionings x TA on/off, plus the pose stream
    assert all(c.passed for c in cells), format_report(cells)
    assert elapsed < 120.0


def _attention_stream(rng, cond, ta, n_frames=10):
    stream = RgbStream(
        rng=rng,
        conditioning=cond,
        use_temporal=ta,
        n_frames=n_frames,
        feat_dim=6,
        pose_aug_dim=18,
        hidden_dim=7,
        n_classes=3,
        attn_hidden=8,
        temporal_hidden=5,
        dropout_rate=0.0,
    )
    return stream


def _random_batch(rng, b, t):
    return WindowBatch(
        pose_raw=rng.normal(size=(b * t, 6)),
        pose_aug=rng.normal(size=(b * t, 18)),
        motion=np.abs(rng.normal(size=(b * t, 2))),
        hand_mask=np.ones((b * t, 4)),
        frames=np.arange(b * t).reshape(b, t),
        labels=rng.integers(0, 3, size=b),
        features=rng.normal(size=(b * t, 4, 6)),
    )


def test_criterion_2_attention_simplex_invariants():
    t = 10
    for cond in ("hidden", "pose", "both"):
        stream = _attention_stream(np.random.default_rng(1), cond, ta=True, n_frames=t)
        # Randomize every parameter, including the zero-init heads, at a large
        # scale: the simplex property must hold for any parameters.
        shake = np.random.default_rng(2)
        for p in stream.parameters().values():
            p.data = 8.0 * shake.normal(size=p.data.shape)
        data_rng = np.random.default_rng(3)
        windows = 0
        for _ in range(20):
            out = stream.forward(_random_batch(data_rng, 50, t))
            p_t = out.spatial_attention.data
            p_prime = out.temporal_attention.data
            assert (p_t >= 0).all()
            assert np.abs(p_t.sum(axis=-1) - 1.0).max() < 1e-6
            assert (p_prime >= 0).all()
            assert np.abs(p_prime.sum(axis=-1) - 1.0).max() < 1e-6
            windows += 50
        assert windows == 1000

    # Equal-attention initialization is exact.
    for cond in ("hidden", "pose", "both"):
        stream = _attention_stream(np.random.default_rng(4), cond, ta=True, n_frames=t)
        out = stream.forward(_random_batch(np.random.default_rng(5), 8, t))
        assert np.array_equal(out.spatial_attention.data, np.full((8, t, 4), 0.25))
        assert np.array_equal(out.temporal_attention.data, np.full((8, t), 1.0 / t))
    print("criterion 2: simplex on 1000 windows x 3 conditionings; equal init exact")


def test_criterion_3_conditioning_independence():
    stream = _attention_stream(np.random.default_rng(6), "pose", ta=True)
    shake = np.random.default_rng(7)
    for p in stream.parameters().values():
        p.data = shake.normal(size=p.data.shape)
    batch = _random_batch(np.random.default_rng(8), 16, 10)
    p1 = stream.forward(batch).spatial_attention.data.copy()
    batch.features = batch.features + 100.0 * np.random.default_rng(9).normal(
        size=batch.features.shape
    )
    p2 = stream.forward(batch).spatial_attention.data
    assert np.array_equal(p1, p2)
    print("criterion 3: pose-conditioned attention bitwise invariant to feature perturbation")


def test_criterion_4_spatial_mechanism_efficacy(workdir):
    t0 = time.monotonic()
    path = workdir / "active_hand.bin"
    dataset = generate(
        SyntheticSpec(kind="active_hand", n_classes=4, clip_len=20, feat_dim=16,
                      counts=(2000, 500, 500), seed=0)
    )
    rates = dataset.manifest.provenance["sum_bayes_rate"]
    assert all(r <= 0.25 + 0.1 for r in rates.values())  # verified ambiguous
    save_dataset(path, dataset)

    base = dict(dataset=str(path), max_epochs=30, patience=30, seed=0, **SMALL_MODEL)
    sa = run_train(RunConfig(variant="rgb", conditioning="pose", use_temporal=False, **base))
    sum_rgb = run_train(RunConfig(variant="rgb", conditioning="sum", use_temporal=False, **base))

    ids = sa.dataset.manifest.split_ids("test_seeds")
    records = dump_attention(
        [sa.streams["rgb"].stream], sa.prepared, ids, 20, sa.test_logits["test_seeds"],
        out_path=workdir / "ah_attention.jsonl",
    )
    masses = []
    for rec in records:
        p = np.asarray(rec["p"])
        slots = np.asarray(rec["gt_active_slot"])
        masses.append(p[np.arange(len(slots)), slots].mean())
    mass = float(np.mean(masses))

    elapsed = time.monotonic() - t0
    print(
        f"criterion 4: SA(pose) {sa.test_acc}, Sum {sum_rgb.test_acc}, "
        f"attention mass {mass:.3f}, {elapsed:.0f}s"
    )
    assert all(acc >= 0.95 for acc in sa.test_acc.values())
    assert all(acc <= 0.40 for acc in sum_rgb.test_acc.values())
    assert mass > 0.5
    assert elapsed < 600.0


def test_criterion_5_temporal_mechanism_efficacy(workdir):
    path = workdir / "temporal_event.bin"
    save_dataset(
        path,
        generate(SyntheticSpec(kind="temporal_event", event_width=4, clip_len=20,
                               counts=(800, 200, 200), seed=0)),
    )
    base = dict(variant="rgb", conditioning="sum", dataset=str(path),
                max_epochs=15, patience=15, seed=0, **SMALL_MODEL)
    ta = run_train(RunConfig(use_temporal=True, **base))
    avg = run_train(RunConfig(use_temporal=False, pooling="average", **base))
    last = run_train(RunConfig(use_temporal=False, pooling="last", **base))
    acc = {name: mean_acc(r.test_acc) for name, r in [("ta", ta), ("avg", avg), ("last", last)]}

    ids = ta.dataset.manifest.split_ids("test_seeds")
    records = dump_attention([ta.streams["rgb"].stream], ta.prepared, ids, 20, ta.test_logits["test_seeds"])
    window_mass = float(
        np.mean(
            [np.asarray(r["p_prime"])[r["gt_window"][0] : r["gt_window"][1]].sum() for r in records]
        )
    )
    print(f"criterion 5: {acc}, window p' mass {window_mass:.3f}")
    assert acc["ta"] >= acc["avg"] + 0.05
    assert acc["ta"] >= acc["last"] + 0.05
    assert window_mass > 0.5


def test_criterion_6_ablation_ordering(combined_grid):
    _, results = combined_grid
    assert all(c.status == "ok" for c in results), [c.status for c in results]
    means = {row: entry["avg"] for row, entry in mean_accuracies(results).items()}
    print("criterion 6 mean accuracies over 3 seeds x 2 splits:",
          {k: round(100 * v, 1) for k, v in means.items()})
    gap = 0.01
    assert means["sta_pose"] >= means["sa_pose"] + gap
    assert means["sa_pose"] >= means["sa_hidden"] + gap
    assert means["sa_hidden"] >= means["sum"] + gap
    assert means["sta_pose"] >= means["ta"] + gap
    assert means["ta"] >= means["sum"] + gap


def test_criterion_7_fusion_monotonicity(combined_grid, workdir):
    base, _ = combined_grid
    pose = run_train(
        RunConfig(variant="pose", dataset=base.dataset, max_epochs=18, patience=18,
                  seed=0, **SMALL_MODEL)
    )
    _, _, sta = load_checkpoint(workdir / "grid" / "sta_pose-seed0" / "checkpoint.bin")
    _, _, sum_rgb = load_checkpoint(workdir / "grid" / "sum-seed0" / "checkpoint.bin")

    prepared = pose.prepared
    manifest = pose.dataset.manifest
    accs = {}
    for name, models in [
        ("pose", [pose.streams["pose"].stream]),
        ("sta", [sta["rgb"]["stream"]]),
        ("two_stream", [pose.streams["pose"].stream, sta["rgb"]["stream"]]),
        ("sum_plus_pose", [pose.streams["pose"].stream, sum_rgb["rgb"]["stream"]]),
    ]:
        accs[name] = np.mean(
            [evaluate(models, prepared, manifest.split_ids(s), 20)
             for s in ("test_seeds", "test_pool")]
        )
    print("criterion 7:", {k: round(100 * v, 1) for k, v in accs.items()})
    assert accs["two_stream"] >= accs["pose"] - 0.005
    assert accs["two_stream"] >= accs["sta"] - 0.005
    assert accs["two_stream"] > accs["sum_plus_pose"]


class _ProtocolSpy:
    """Fake stream recording the evaluation windows it is shown."""

    def __init__(self):
        self.window_starts = []
        self.calls = 0

    def forward(self, batch, training=False, rng=None):
        from poseattn.model import StreamOutput
        from poseattn.tensor import Tensor

        self.calls += 1
        starts = batch.pose_raw[batch.frames[:, 0], 0]
        self.window_starts.extend(int(s) for s in starts)
        logits = np.zeros((len(starts), 4))
        logits[:, 0] = starts
        return StreamOutput(
            logits=Tensor(logits), hidden_states=Tensor(np.zeros((len(starts), 1, 1)))
        )


def test_criterion_8_protocol_conformance():
    from poseattn.training import PreparedSequence

    length = 68
    pose = np.zeros((length, 2))
    pose[:, 0] = np.arange(length)
    prepared = {
        "s0": PreparedSequence(
            seq_id="s0", label=0, length=length, pose_raw=pose,
            pose_aug=np.zeros((length, 6)), motion=np.zeros((length, 2)),
            features=np.zeros((length, 4, 2)), hand_mask=np.ones((length, 4)),
        )
    }
    spy = _ProtocolSpy()
    logits = predict_logits([spy], prepared, ["s0"], clip_len=20)
    expected_starts = [round(k * (length - 20) / 4) for k in range(5)]
    assert spy.window_starts == expected_starts  # exactly 5 evenly spaced windows
    assert logits[0, 0] == np.mean(expected_starts)  # logits averaged across windows
    print(f"criterion 8: eval uses windows {expected_starts} with logit averaging")


def test_criterion_9_determinism(workdir):
    dataset = workdir / "det.bin"
    code = cli_main([
        "synth", "--kind", "active_hand", "--out", str(dataset),
        "--counts", "60", "16", "16", "--seed", "0",
    ])
    assert code == 0
    run_dir = workdir / "det_run"
    argv = [
        "train", "--dataset", str(dataset), "--out", str(run_dir),
        "--conditioning", "pose", "--no-temporal", "--feat-dim", "16",
        "--rgb-hidden", "16", "--attn-hidden", "16", "--lr", "0.002",
        "--dropout", "0.5", "--max-epochs", "2", "--batch-size", "16", "--seed", "1",
    ]
    artifacts = []
    for _ in range(2):
        assert cli_main(argv) == 0
        artifacts.append(
            (
                (run_dir / "metrics.csv").read_bytes(),
                (run_dir / "checkpoint.bin").read_bytes(),
                (run_dir / "result.json").read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]

    grid_dir = workdir / "det_grid"
    grid_argv = [
        "ablate", "--dataset", str(dataset), "--out", str(grid_dir),
        "--rows", "sum,sa_pose", "--seeds", "0", "--no-dumps",
        "--feat-dim", "16", "--rgb-hidden", "12", "--attn-hidden", "12",
        "--max-epochs", "1", "--dropout", "0", "--batch-size", "16",
    ]
    grids = []
    for _ in range(2):
        assert cli_main(grid_argv) == 0
        grids.append((grid_dir / "grid.csv").read_bytes())
    assert grids[0] == grids[1]
    print("criterion 9: train and ablate reruns bitwise identical")
