import builtins
import dataclasses
import errno
import io
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import poseattn.ablation as ablation
import poseattn.data
import poseattn.training as training
from poseattn.ablation import (
    GRID_ROWS,
    CellResult,
    cell_config,
    format_table,
    mean_accuracies,
    run_ablation,
)
from poseattn.data import dataset_content_hash, load_dataset, save_dataset
from poseattn.synth import SyntheticSpec, generate
from poseattn.training import RunConfig


@pytest.fixture(scope="module")
def tiny_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "combined.bin"
    save_dataset(path, generate(SyntheticSpec(kind="combined", seed=0, counts=(40, 10, 10))))
    return str(path)


def base_config(path, **kw):
    defaults = dict(
        feat_dim=16, rgb_hidden=10, attn_hidden=10, temporal_hidden=6,
        pose_hidden=8, pose_layers=2, lr=2e-3, batch_size=16, dropout=0.0,
        max_epochs=1, patience=2, seed=0, dataset=path,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_grid_has_exactly_the_nine_reference_rows():
    names = [name for name, _, _ in GRID_ROWS]
    assert names == [
        "sum", "concat", "sa_hidden", "sa_pose", "sa_both",
        "ta", "sta_hidden", "sta_pose", "sta_both",
    ]
    specs = {name: (cond, ta) for name, cond, ta in GRID_ROWS}
    assert specs["ta"] == ("sum", True)
    assert specs["sta_pose"] == ("pose", True)
    assert sum(1 for _, _, ta in GRID_ROWS if ta) == 4


def test_sum_and_concat_cells_differ_only_in_context_path(tiny_dataset_path):
    base = base_config(tiny_dataset_path)
    a = cell_config(base, "sum", seed=3)
    b = cell_config(base, "concat", seed=3)
    diff = {
        f.name
        for f in dataclasses.fields(RunConfig)
        if getattr(a, f.name) != getattr(b, f.name)
    }
    assert diff == {"conditioning"}


def test_sa_and_sta_cells_differ_only_in_temporal_flag(tiny_dataset_path):
    base = base_config(tiny_dataset_path)
    a = cell_config(base, "sa_pose", seed=0)
    b = cell_config(base, "sta_pose", seed=0)
    diff = {
        f.name
        for f in dataclasses.fields(RunConfig)
        if getattr(a, f.name) != getattr(b, f.name)
    }
    assert diff == {"use_temporal"}


def test_unknown_row_rejected(tiny_dataset_path):
    with pytest.raises(ValueError, match="row"):
        cell_config(base_config(tiny_dataset_path), "nope", seed=0)


def test_small_grid_runs_and_writes_outputs(tiny_dataset_path, tmp_path):
    base = base_config(tiny_dataset_path)
    results = run_ablation(
        base, seeds=[0], out_dir=tmp_path / "grid", rows=["sum", "sa_pose"],
        attention_dumps=True,
    )
    assert len(results) == 2
    assert all(c.status == "ok" for c in results)
    assert all(set(c.acc) == {"test_seeds", "test_pool"} for c in results)
    assert (tmp_path / "grid" / "grid.csv").exists()
    assert (tmp_path / "grid" / "grid.txt").exists()
    assert (tmp_path / "grid" / "sa_pose-seed0" / "checkpoint.bin").exists()
    assert (tmp_path / "grid" / "sa_pose-seed0" / "attention.jsonl").exists()
    csv = (tmp_path / "grid" / "grid.csv").read_text().splitlines()
    assert csv[0] == "row,seed,status,acc_test_seeds,acc_test_pool,avg"
    assert len(csv) == 3


def test_failed_cell_recorded_and_grid_continues(tiny_dataset_path, tmp_path):
    base = base_config(tiny_dataset_path, feat_dim=99)  # mismatch: every cell fails
    results = run_ablation(
        base, seeds=[0], out_dir=tmp_path / "grid", rows=["sum", "sa_pose"],
        attention_dumps=False,
    )
    assert len(results) == 2
    assert all(c.status.startswith("failed") for c in results)
    csv = (tmp_path / "grid" / "grid.csv").read_text()
    assert "failed" in csv
    cells = json.loads((tmp_path / "grid" / "grid.json").read_text())
    assert len(cells) == 2
    assert all("DatasetError" in c["trace"] and "Traceback" in c["trace"] for c in cells)


@pytest.mark.parametrize("two_stream", [False, True])
def test_parallel_workers_match_sequential(tiny_dataset_path, tmp_path, two_stream):
    base = base_config(tiny_dataset_path)
    seq = run_ablation(
        base, seeds=[0], out_dir=tmp_path / "seq", rows=["sum", "sa_pose"],
        two_stream=two_stream, attention_dumps=True,
    )
    par = run_ablation(
        base, seeds=[0], out_dir=tmp_path / "par", rows=["sum", "sa_pose"],
        two_stream=two_stream, workers=2, attention_dumps=True,
    )
    assert [(c.row, c.seed, c.status, c.acc) for c in seq] == [
        (c.row, c.seed, c.status, c.acc) for c in par
    ]
    for cell in ("sum-seed0", "sa_pose-seed0"):  # the workers write the dumps
        dump = (tmp_path / "seq" / cell / "attention.jsonl").read_bytes()
        assert dump and dump == (tmp_path / "par" / cell / "attention.jsonl").read_bytes(), cell
    if two_stream:  # the pose run trains in a worker too
        for name in ("metrics.csv", "result.json"):
            pose = [(tmp_path / side / "pose-seed0" / name).read_bytes() for side in ("seq", "par")]
            assert pose[0] == pose[1], name


def test_pool_workers_train_on_the_parents_dataset(tiny_dataset_path, tmp_path, monkeypatch):
    def no_second_load(path):
        raise AssertionError(f"{path} loaded again in a cell")

    monkeypatch.setattr(training, "load_dataset", no_second_load)  # forked workers inherit it
    results = run_ablation(
        base_config(tiny_dataset_path), seeds=[0], out_dir=tmp_path / "grid", rows=["sum", "sa_pose"],
        workers=2, attention_dumps=False,
    )
    assert [c.status for c in results] == ["ok", "ok"]


def test_an_empty_test_seeds_split_dumps_an_empty_file(tmp_path):
    path = tmp_path / "no_test_seeds.bin"
    save_dataset(path, generate(SyntheticSpec(kind="combined", seed=0, counts=(40, 0, 10))))
    results = run_ablation(
        base_config(str(path)), seeds=[0], out_dir=tmp_path / "grid", rows=["sum"], attention_dumps=True,
    )
    assert [c.status for c in results] == ["ok"]
    assert set(results[0].acc) == {"test_pool"}
    assert (tmp_path / "grid" / "sum-seed0" / "attention.jsonl").read_text() == ""


def test_two_stream_mode_fuses_with_shared_pose(tiny_dataset_path, tmp_path, monkeypatch):
    loads = []
    for module in (ablation, training):
        real = module.load_dataset
        monkeypatch.setattr(
            module, "load_dataset", lambda path, real=real: loads.append(path) or real(path)
        )
    base = base_config(tiny_dataset_path)
    results = run_ablation(
        base, seeds=[0], out_dir=tmp_path / "grid2", rows=["sum", "sa_pose"],
        two_stream=True, attention_dumps=True,
    )
    assert [c.status for c in results] == ["ok", "ok"]
    assert (tmp_path / "grid2" / "pose-seed0" / "checkpoint.bin").exists()
    assert (tmp_path / "grid2" / "sa_pose-seed0" / "attention.jsonl").exists()
    assert loads == [tiny_dataset_path]  # serial cells, fusion and dumps share one load


def test_a_failed_pose_run_fails_only_the_cells_of_its_seed(tiny_dataset_path, tmp_path, monkeypatch):
    real_run_train = ablation.run_train

    def pose_seed0_raises(config, dataset=None):
        if config.variant == "pose" and config.seed == 0:
            raise training.NumericError("pose went wrong")
        return real_run_train(config, dataset=dataset)

    base = base_config(tiny_dataset_path)
    fused = run_ablation(
        base, seeds=[0, 1], out_dir=tmp_path / "fused", rows=["sum", "ta"], two_stream=True, attention_dumps=False,
    )
    monkeypatch.setattr(ablation, "run_train", pose_seed0_raises)
    out = tmp_path / "grid"
    results = run_ablation(
        base, seeds=[0, 1], out_dir=out, rows=["sum", "ta"], two_stream=True, attention_dumps=False,
    )
    failed = "failed: pose stream NumericError: pose went wrong"
    assert [(c.row, c.seed, c.status) for c in results] == [
        ("sum", 0, failed), ("sum", 1, "ok"), ("ta", 0, failed), ("ta", 1, "ok"),
    ]
    assert [c.acc for c in results if c.seed == 1] == [c.acc for c in fused if c.seed == 1]
    cells = json.loads((out / "grid.json").read_text())
    assert [c["status"] for c in cells] == [c.status for c in results]
    for cell in cells:
        if cell["seed"] == 0:
            assert "pose went wrong" in cell["trace"] and "pose_seed0_raises" in cell["trace"]
        else:
            assert "trace" not in cell
    csv = (out / "grid.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in csv[1:]] == [failed, "ok", failed, "ok"]
    assert "ta" in (out / "grid.txt").read_text()


def test_two_stream_grid_scores_the_pose_stream_once_per_split(tiny_dataset_path, tmp_path, monkeypatch):
    from poseattn.model import PoseStream, RgbStream

    pose_scored = []  # split ids of every predict_logits call that runs a pose stream
    rgb_scored = []  # (stream, split ids) per RGB stream a predict_logits call runs; keeps each alive
    real = training.predict_logits

    def counting(streams, prepared, ids, clip_len, chunk=training.EVAL_CHUNK):
        if any(isinstance(s, PoseStream) for s in streams):
            pose_scored.append(tuple(ids))
        rgb_scored.extend((s, tuple(ids)) for s in streams if isinstance(s, RgbStream))
        return real(streams, prepared, ids, clip_len, chunk=chunk)

    loaded = []
    real_load = training.load_checkpoint
    for module in (ablation, training):  # the module's own name and any imported alias
        monkeypatch.setattr(module, "predict_logits", counting, raising=False)
        monkeypatch.setattr(
            module, "load_checkpoint", lambda path: loaded.append(path) or real_load(path), raising=False
        )
    base = base_config(tiny_dataset_path)
    results = run_ablation(
        base, seeds=[0], out_dir=tmp_path / "grid", rows=["sum", "ta"],
        two_stream=True, attention_dumps=True,
    )
    assert [c.status for c in results] == ["ok", "ok"]
    manifest = training.load_dataset(tiny_dataset_path).manifest
    for split in ablation.TEST_SPLITS:
        ids = tuple(manifest.split_ids(split))
        # Only by the pose run's own test evaluation: fusion reuses those logits.
        assert pose_scored.count(ids) == 1, split
        # Only by each cell's own test evaluation: its dump reuses those logits.
        per_rgb = Counter(id(stream) for stream, scored in rgb_scored if scored == ids)
        assert sorted(per_rgb.values()) == [1, 1], split
    assert loaded == []  # fusion and dumps use the streams held in memory


@pytest.mark.parametrize("workers", [1, 2])
def test_a_grid_prepares_its_dataset_once_before_any_cell(tiny_dataset_path, tmp_path, monkeypatch, workers):
    calls = tmp_path / "prepare_calls.txt"  # one line per call, by the pid that made it
    real = poseattn.data.prepare_sequences

    def counting(dataset):
        with open(calls, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(dataset)

    monkeypatch.setattr(poseattn.data, "prepare_sequences", counting)  # forked workers inherit it
    results = run_ablation(
        base_config(tiny_dataset_path), seeds=[0], out_dir=tmp_path / "grid", rows=["sum", "sa_pose"],
        two_stream=True, workers=workers, attention_dumps=True,
    )
    assert [c.status for c in results] == ["ok", "ok"]
    assert calls.read_text().split() == [str(os.getpid())]


def test_two_stream_grid_fuses_exactly_the_reloaded_streams(tiny_dataset_path, tmp_path):
    base = base_config(tiny_dataset_path)
    out = tmp_path / "grid"
    results = run_ablation(
        base, seeds=[0], out_dir=out, rows=["sum", "sta_pose"], two_stream=True, attention_dumps=False,
    )
    assert [c.status for c in results] == ["ok", "ok"]
    dataset = load_dataset(tiny_dataset_path)
    prepared = training.prepare_sequences(dataset)
    pose = training.load_checkpoint(out / "pose-seed0" / "checkpoint.bin")[2]["pose"]["stream"]
    for cell in results:
        rgb = training.load_checkpoint(out / f"{cell.row}-seed0" / "checkpoint.bin")[2]["rgb"]["stream"]
        assert set(cell.acc) == set(ablation.TEST_SPLITS)
        for split in ablation.TEST_SPLITS:
            ids = dataset.manifest.split_ids(split)
            fused = training.predict_logits([pose, rgb], prepared, ids, base.clip_len)
            assert np.array_equal(cell.logits[split], fused), (cell.row, split)
            assert cell.acc[split] == training.accuracy(fused, prepared, ids), (cell.row, split)


def test_failed_dump_fails_only_its_cell(tiny_dataset_path, tmp_path, monkeypatch):
    real = ablation.dump_attention

    def dump_or_raise(streams, prepared, ids, clip_len, logits, out_path=None):
        if Path(out_path).parent.name == "sa_pose-seed0":
            raise ValueError("dump went wrong")
        return real(streams, prepared, ids, clip_len, logits, out_path=out_path)

    monkeypatch.setattr(ablation, "dump_attention", dump_or_raise)
    out = tmp_path / "grid"
    results = run_ablation(
        base_config(tiny_dataset_path), seeds=[0], out_dir=out, rows=["sum", "sa_pose", "ta"],
        attention_dumps=True,
    )
    assert [c.status for c in results] == ["ok", "failed: ValueError: dump went wrong", "ok"]
    assert [c.row for c in results if (out / f"{c.row}-seed0" / "attention.jsonl").exists()] == ["sum", "ta"]
    csv = (out / "grid.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in csv[1:]] == [c.status for c in results]
    cells = json.loads((out / "grid.json").read_text())
    assert [c["status"] for c in cells] == [c.status for c in results]
    assert "dump went wrong" in cells[1]["trace"] and "Traceback" in cells[1]["trace"]
    assert "trace" not in cells[0] and "trace" not in cells[2]


def test_mean_accuracies_and_table_formatting():
    results = [
        CellResult(row="sum", seed=0, status="ok", acc={"test_seeds": 0.5, "test_pool": 0.3}),
        CellResult(row="sum", seed=1, status="ok", acc={"test_seeds": 0.7, "test_pool": 0.5}),
        CellResult(row="ta", seed=0, status="failed: boom", acc={}),
    ]
    means = mean_accuracies(results)
    assert means["sum"]["test_seeds"] == pytest.approx(0.6)
    assert means["sum"]["avg"] == pytest.approx(0.5)
    assert means["ta"] == {}
    table = format_table(results, ["sum", "ta"])
    assert "sum" in table and "failed" in table


def _disk_full_on(monkeypatch, name: str) -> None:
    """Writes to any file whose name starts with ``name`` store half their
    text, then fail as a full disk does."""
    real_open = builtins.open

    class HalfWritten:
        def __init__(self, f):
            self._f = f

        def write(self, text):
            self._f.write(text[: len(text) // 2])
            self._f.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

        def __getattr__(self, attr):
            return getattr(self._f, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if "w" in mode and isinstance(file, (str, Path)) and Path(file).name.startswith(name):
            return HalfWritten(f)
        return f

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)


def test_grid_records_the_hash_of_the_bytes_it_trained_on(tiny_dataset_path, tmp_path, monkeypatch):
    path = tmp_path / "combined.bin"
    shutil.copyfile(tiny_dataset_path, path)
    original = dataset_content_hash(path)
    assert load_dataset(path).content_hash == original
    other = generate(SyntheticSpec(kind="combined", seed=1, counts=(40, 10, 10)))
    real_run_train = ablation.run_train

    def run_train_then_rewrite(config, dataset=None):
        result = real_run_train(config, dataset=dataset)
        save_dataset(path, other)  # the file changes under the grid, between its cells
        return result

    monkeypatch.setattr(ablation, "run_train", run_train_then_rewrite)
    out = tmp_path / "grid"
    run_ablation(
        base_config(str(path)), seeds=[0], out_dir=out, rows=["sum", "concat"],
        two_stream=True, attention_dumps=False,
    )
    assert dataset_content_hash(path) != original
    hashes = {p.parent.name: p.read_text().strip() for p in out.glob("*/dataset_hash.txt")}
    assert sorted(hashes) == ["concat-seed0", "pose-seed0", "sum-seed0"]
    assert set(hashes.values()) == {original}


def test_failed_write_keeps_the_previous_metrics_and_grid(tiny_dataset_path, tmp_path, monkeypatch):
    base = base_config(tiny_dataset_path)
    grid, run = tmp_path / "grid", tmp_path / "run"
    run_ablation(base, seeds=[0], out_dir=grid, rows=["sum"], attention_dumps=False)
    training.run_train(dataclasses.replace(base, out_dir=str(run)))
    before = {p: p.read_bytes() for p in (grid / "grid.json", run / "metrics.csv")}
    with monkeypatch.context() as m:
        _disk_full_on(m, "grid.json")
        with pytest.raises(OSError, match="No space"):
            run_ablation(base, seeds=[0], out_dir=grid, rows=["sum"], attention_dumps=False)
    with monkeypatch.context() as m:
        _disk_full_on(m, "metrics.csv")
        with pytest.raises(OSError, match="No space"):
            training.run_train(dataclasses.replace(base, out_dir=str(run)))
    for path, content in before.items():
        assert path.read_bytes() == content, path.name
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
