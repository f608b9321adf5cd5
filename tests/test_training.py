import dataclasses
import json
import os
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import poseattn.data
import poseattn.tensor as T
import poseattn.training as training
from poseattn import cli
from poseattn.data import ChecksumError, DatasetError, dataset_content_hash, load_dataset, save_dataset
from poseattn.model import CONDITIONINGS, RgbStream, StreamOutput
from poseattn.pose import eval_window_starts, window_indices
from poseattn.synth import SyntheticSpec, generate
from poseattn.tensor import NumericError, Tensor
from poseattn.training import (
    ConfigError,
    ModelDims,
    PreparedSequence,
    RunConfig,
    evaluate,
    load_checkpoint,
    predict_logits,
    prepare_sequences,
    run_train,
)

TINY = dict(counts=(40, 10, 10))


@pytest.fixture(scope="module")
def tiny_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.bin"
    save_dataset(path, generate(SyntheticSpec(kind="active_hand", seed=0, **TINY)))
    return str(path)


@pytest.fixture(scope="module")
def featureless_dataset_path(tmp_path_factory):
    """The tiny dataset saved without hand features (manifest has_features
    false, feature_dim 0)."""
    dataset = generate(SyntheticSpec(kind="active_hand", seed=0, **TINY))
    dataset.manifest.has_features = False
    dataset.manifest.feature_dim = 0
    for seq in dataset.sequences.values():
        seq.features = None
    path = tmp_path_factory.mktemp("data") / "featureless.bin"
    save_dataset(path, dataset)
    return str(path)


def tiny_config(path, **kw):
    base = dict(
        variant="rgb",
        conditioning="pose",
        use_temporal=False,
        feat_dim=16,
        rgb_hidden=12,
        attn_hidden=12,
        temporal_hidden=8,
        pose_hidden=8,
        pose_layers=2,
        lr=2e-3,
        batch_size=16,
        dropout=0.0,
        max_epochs=2,
        patience=5,
        seed=0,
        dataset=path,
    )
    base.update(kw)
    return RunConfig(**base)


class RecordingStub:
    """Stream stand-in that records the windows it was shown and returns
    logits keyed on the window start frame."""

    def __init__(self, n_classes=4):
        self.n_classes = n_classes
        self.batches = []

    def forward(self, batch, training=False, rng=None):
        self.batches.append(batch)
        starts = batch.pose_raw[batch.frames[:, 0], 0]  # frame index planted in the fixture
        logits = np.zeros((len(starts), self.n_classes))
        logits[:, 0] = starts
        return StreamOutput(logits=Tensor(logits), hidden_states=Tensor(np.zeros((len(starts), 1, 1))))


def planted_sequences(lengths, n_classes=4):
    prepared = {}
    for i, length in enumerate(lengths):
        # pose_raw[t, 0] stores t so the stub can report which frames it saw
        pose = np.zeros((length, 2))
        pose[:, 0] = np.arange(length)
        prepared[f"s{i}"] = PreparedSequence(
            seq_id=f"s{i}",
            label=i % n_classes,
            length=length,
            pose_raw=pose,
            pose_aug=np.zeros((length, 6)),
            motion=np.zeros((length, 2)),
            features=np.zeros((length, 4, 2)),
            hand_mask=np.ones((length, 4)),
        )
    return prepared


class TestEvalProtocol:
    def test_five_evenly_spaced_windows_and_mean_aggregation(self):
        # The protocol contract: exactly 5 windows at starts round(k*(L-T)/4),
        # logits averaged per stream across those windows.
        stub = RecordingStub()
        prepared = planted_sequences([100])
        logits = predict_logits([stub], prepared, ["s0"], clip_len=20)
        batch = stub.batches[0]
        assert batch.batch_size == 5  # five windows, one sequence
        starts = batch.pose_raw[batch.frames[:, 0], 0].tolist()
        assert starts == [0, 20, 40, 60, 80]
        assert logits[0, 0] == np.mean([0, 20, 40, 60, 80])

    def test_degenerate_length_gives_identical_windows(self):
        stub = RecordingStub()
        prepared = planted_sequences([20])
        predict_logits([stub], prepared, ["s0"], clip_len=20)
        batch = stub.batches[0]
        assert batch.pose_raw[batch.frames[:, 0], 0].tolist() == [0, 0, 0, 0, 0]

    def test_streams_fused_by_logit_sum(self):
        a, b = RecordingStub(), RecordingStub()
        prepared = planted_sequences([100])
        fused = predict_logits([a, b], prepared, ["s0"], clip_len=20)
        single = predict_logits([RecordingStub()], prepared, ["s0"], clip_len=20)
        assert np.allclose(fused, 2 * single)

    def test_accuracy_argmax(self):
        stub = RecordingStub()
        prepared = planted_sequences([40, 40], n_classes=4)
        # starts average > 0 so argmax is class 0; labels are 0 and 1
        acc = evaluate([stub], prepared, ["s0", "s1"], clip_len=20)
        assert acc == 0.5


class TestTraining:
    def test_lr_zero_train_loss_constant(self, tmp_path):
        # Sequences of exactly clip length: every epoch sees the same windows,
        # so with lr=0 the loss can only move by summation reordering.
        path = tmp_path / "flat.bin"
        save_dataset(
            path,
            generate(
                SyntheticSpec(kind="temporal_event", seed=1, counts=(30, 6, 6))
            ),
        )
        config = tiny_config(str(path), lr=0.0, max_epochs=3, use_temporal=True, conditioning="sum")
        result = run_train(config)
        losses = [r.train_loss for r in result.streams["rgb"].rows]
        assert max(losses) - min(losses) < 1e-9

    def test_bitwise_determinism_across_runs(self, tiny_dataset_path, tmp_path):
        out = tmp_path / "run"
        config = tiny_config(tiny_dataset_path, dropout=0.5, max_epochs=2, out_dir=str(out))
        outs, metrics, ckpts = [], [], []
        for _ in range(2):
            outs.append(run_train(config))
            metrics.append((out / "metrics.csv").read_bytes())
            ckpts.append((out / "checkpoint.bin").read_bytes())
        rows_a = [(r.epoch, r.train_loss, r.val_acc) for r in outs[0].streams["rgb"].rows]
        rows_b = [(r.epoch, r.train_loss, r.val_acc) for r in outs[1].streams["rgb"].rows]
        assert rows_a == rows_b
        assert outs[0].test_acc == outs[1].test_acc
        assert metrics[0] == metrics[1]
        assert ckpts[0] == ckpts[1]

    def test_early_stopping_restores_best(self, tiny_dataset_path):
        config = tiny_config(tiny_dataset_path, max_epochs=6, patience=2)
        result = run_train(config)
        trained = result.streams["rgb"]
        best_from_rows = max(r.val_acc for r in trained.rows)
        assert trained.best_val_acc == best_from_rows
        val_ids = result.dataset.manifest.split_ids("val")
        acc = evaluate([trained.stream], result.prepared, val_ids, config.clip_len)
        assert acc == trained.best_val_acc

    def test_early_stopping_patience_bounds_epochs(self, tiny_dataset_path):
        config = tiny_config(tiny_dataset_path, lr=0.0, max_epochs=50, patience=3)
        result = run_train(config)
        # lr=0: no improvement after the first epoch, so 1 + patience epochs run.
        assert len(result.streams["rgb"].rows) == 4

    def test_two_stream_trains_both_separately(self, tiny_dataset_path):
        config = tiny_config(tiny_dataset_path, variant="two_stream", max_epochs=1)
        result = run_train(config)
        assert set(result.streams) == {"pose", "rgb"}
        assert "test_seeds" in result.test_acc

    def test_feat_dim_mismatch_rejected(self, tiny_dataset_path):
        config = tiny_config(tiny_dataset_path, feat_dim=32)
        with pytest.raises(DatasetError, match="feat_dim"):
            run_train(config)

    def test_featureless_dataset_trains_the_pose_stream(self, featureless_dataset_path):
        # The config's feat_dim (16) is not the file's (0): a pose run reads no features.
        result = run_train(tiny_config(featureless_dataset_path, variant="pose", max_epochs=1))
        assert "test_seeds" in result.test_acc
        samples = list(result.prepared.values())[:2]
        assert training.make_batch(samples, [np.arange(5)] * 2).features is None

    @pytest.mark.parametrize("variant", ["rgb", "two_stream"])
    def test_featureless_dataset_rejects_rgb_runs_naming_the_file(self, featureless_dataset_path, variant):
        with pytest.raises(DatasetError, match=rf"{re.escape(featureless_dataset_path)}.*hand features"):
            run_train(tiny_config(featureless_dataset_path, variant=variant))

    def test_nan_gradient_aborts_preserving_checkpoint(
        self, tiny_dataset_path, tmp_path, monkeypatch, capsys
    ):
        calls = {"n": 0}
        real = training.adam_step

        def poisoned(state, params, grads):
            calls["n"] += 1
            if calls["n"] == 3:
                grads = dict(grads)
                name = next(iter(grads))
                grads[name] = np.full_like(grads[name], np.nan)
            return real(state, params, grads)

        monkeypatch.setattr(training, "adam_step", poisoned)
        out_dir = tmp_path / "nanrun"
        config = tiny_config(tiny_dataset_path, max_epochs=3, out_dir=str(out_dir))
        with pytest.raises(NumericError):
            run_train(config)
        assert not (out_dir / "checkpoint.bin").exists()  # died before epoch 1 finished

        # Poison after the first epoch completed: the best-so-far checkpoint
        # must be preserved.
        late = {"n": 0}

        def late_poison(state, params, grads):
            late["n"] += 1
            if late["n"] == 5:  # 3 batches per epoch, so this is epoch 2
                bad = {k: np.full_like(v, np.nan) for k, v in grads.items()}
                return real(state, params, bad)
            return real(state, params, grads)

        monkeypatch.setattr(training, "adam_step", late_poison)
        with pytest.raises(NumericError):
            run_train(config)
        checkpoint = out_dir / "checkpoint.bin"
        _, _, streams = load_checkpoint(checkpoint)
        assert "rgb" in streams and streams["rgb"]["partial"]

        # eval and dump-attention score it, naming it partial in one stderr line.
        note = f"note: checkpoint {checkpoint} is partial"
        flags = ["--checkpoint", str(checkpoint), "--dataset", tiny_dataset_path]
        dump = ["--out", str(tmp_path / "attn.jsonl")]
        capsys.readouterr()
        for argv in (["eval"] + flags, ["dump-attention"] + flags + dump):
            assert cli.main(argv) == 0
            assert [line for line in capsys.readouterr().err.splitlines() if "partial" in line] == [
                f"{note}: training stopped on a numeric failure"
            ]
        # A complete checkpoint gets no such line.
        monkeypatch.setattr(training, "adam_step", real)
        run_train(config)
        assert not load_checkpoint(checkpoint)[2]["rgb"]["partial"]
        capsys.readouterr()
        for argv in (["eval"] + flags, ["dump-attention"] + flags + dump):
            assert cli.main(argv) == 0
            assert "partial" not in capsys.readouterr().err

    def test_run_dir_contains_config_and_dataset_hash(self, tiny_dataset_path, tmp_path):
        out = tmp_path / "run"
        run_train(tiny_config(tiny_dataset_path, max_epochs=1, out_dir=str(out)))
        config = json.loads((out / "config.json").read_text())
        assert config["dataset"] == tiny_dataset_path
        digest = (out / "dataset_hash.txt").read_text().strip()
        assert len(digest) == 64
        assert (out / "metrics.csv").exists()
        assert (out / "result.json").exists()
        assert (out / "timing.json").exists()

    def test_timing_records_the_blas_setup_outside_the_compared_files(
        self, tiny_dataset_path, tmp_path, monkeypatch
    ):
        runs = []
        for omp in (None, "3"):
            for var in training.THREAD_ENV:
                monkeypatch.delenv(var, raising=False)
            if omp is not None:
                monkeypatch.setenv("OMP_NUM_THREADS", omp)
            out = tmp_path / "run"  # the checkpoint header holds out_dir
            run_train(tiny_config(tiny_dataset_path, max_epochs=1, out_dir=str(out)))
            timing = json.loads((out / "timing.json").read_text())
            assert set(timing) == {
                "train_seconds", "blas", "blas_threads", "thread_env", "numpy_loaded_before_pin", "cpus",
            }
            assert set(timing["blas"]) == {"name", "version"}
            assert timing["blas"]["name"] and timing["blas"]["version"]
            # The pin holds: numpy loaded after it, and its OpenBLAS runs one thread.
            assert timing["numpy_loaded_before_pin"] is False
            assert timing["blas_threads"] == 1
            assert timing["thread_env"] == {
                "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": omp, "MKL_NUM_THREADS": None,
            }
            assert timing["cpus"] == len(os.sched_getaffinity(0))
            runs.append({name: (out / name).read_bytes() for name in ("metrics.csv", "result.json", "checkpoint.bin")})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("conditioning", ["pose", "both"])
    def test_an_acceptance_scale_run_on_two_cpus_starts_no_helper(
        self, conditioning, tiny_dataset_path, tmp_path, monkeypatch
    ):
        # Criterion 9's dimensions, as a two-stream run; the pose stream's GRU
        # is the acceptance suite's 3 x 64.  Under "pose" the RGB stream runs
        # gru_scan, under "both" attend_scan.
        monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0, 1})
        blocks, helpers = [], []
        gemms, two_cpus = T._gemms, T.TwoCpus

        def counted_gemms(m, k, n):
            blocks.append((m, k, n))
            return gemms(m, k, n)

        class Counted(two_cpus):
            def __enter__(self):
                helpers.append(self)
                return super().__enter__()

        monkeypatch.setattr(T, "_gemms", counted_gemms)
        monkeypatch.setattr(T, "TwoCpus", Counted)
        run_train(tiny_config(
            tiny_dataset_path, variant="two_stream", conditioning=conditioning, use_temporal=True,
            rgb_hidden=16, attn_hidden=16, pose_hidden=64, pose_layers=3, dropout=0.5, out_dir=str(tmp_path / "run"),
        ))
        # Both streams' scans, whose blocks are (B, H) @ (H, 2H), reached the
        # gate, and no block reached the split size.
        assert {16, 64} <= {k for _, k, n in blocks if n == 2 * k}
        assert all(m * k * n < T.MM_SPLIT_MIN for m, k, n in blocks)
        assert helpers == []

    def test_run_train_opens_the_dataset_file_once(self, tiny_dataset_path, tmp_path, monkeypatch):
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(poseattn.data, "open", counting_open, raising=False)
        out = tmp_path / "run"
        run_train(tiny_config(tiny_dataset_path, max_epochs=1, out_dir=str(out)))
        assert opened.count(tiny_dataset_path) == 1
        digest = (out / "dataset_hash.txt").read_text().strip()
        assert digest == dataset_content_hash(tiny_dataset_path)


class TestCheckpoint:
    def test_round_trip_restores_parameters_and_accuracy(self, tiny_dataset_path, tmp_path):
        config = tiny_config(tiny_dataset_path, max_epochs=2, out_dir=str(tmp_path / "ck"))
        result = run_train(config)
        loaded_config, dims, streams = load_checkpoint(tmp_path / "ck" / "checkpoint.bin")
        assert loaded_config == config
        orig = result.streams["rgb"].stream.parameters()
        back = streams["rgb"]["stream"].parameters()
        assert sorted(orig) == sorted(back)
        for name in orig:
            assert np.array_equal(orig[name].data, back[name].data)
        ids = result.dataset.manifest.split_ids("test_seeds")
        acc = evaluate([streams["rgb"]["stream"]], result.prepared, ids, config.clip_len)
        assert acc == result.test_acc["test_seeds"]

    def test_failed_save_keeps_previous_checkpoint(self, tiny_dataset_path, tmp_path, monkeypatch):
        out = tmp_path / "ck"
        config = tiny_config(tiny_dataset_path, max_epochs=1, out_dir=str(out))
        result = run_train(config)
        path = out / "checkpoint.bin"
        good = path.read_bytes()

        class TornWrite:
            """File whose fifth write (the first payload block) stops halfway with an error."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    self.f.write(data[: len(data) // 2])
                    raise OSError("injected: disk full")
                return self.f.write(data)

        # Checkpoints are written through data.replacing, which opens the file.
        monkeypatch.setattr(poseattn.data, "open", lambda *a, **k: TornWrite(open(*a, **k)), raising=False)
        dims = ModelDims.from_dataset(result.dataset, config)
        with pytest.raises(OSError, match="injected"):
            training.save_checkpoint(path, config, dims, result)
        assert path.read_bytes() == good
        assert sorted(p.name for p in out.iterdir() if "checkpoint" in p.name) == ["checkpoint.bin"]

    def test_file_is_header_then_one_block_per_parameter(self, tiny_dataset_path, tmp_path):
        # The layout, rebuilt here from the trained streams: magic, u64 header
        # length, JSON header, its u32 CRC32; then per stream every parameter
        # in name order as raw f64, each listed in the header with its shape
        # and CRC32.
        out = tmp_path / "ck"
        config = tiny_config(tiny_dataset_path, variant="two_stream", max_epochs=1, out_dir=str(out))
        result = run_train(config)
        blob = (out / "checkpoint.bin").read_bytes()
        n = int.from_bytes(blob[8:16], "little")
        meta = json.loads(blob[16 : 16 + n])
        assert blob[:8] == training.CHECKPOINT_MAGIC and meta["version"] == 4
        assert list(meta["streams"]) == ["pose", "rgb"]
        expected = bytearray(blob[: 16 + n]) + zlib.crc32(blob[16 : 16 + n]).to_bytes(4, "little")
        n_values = 0
        for name, smeta in meta["streams"].items():
            params = result.streams[name].stream.parameters()
            assert list(smeta["params"]) == sorted(params)
            for k, stored in smeta["params"].items():
                block = params[k].data.astype("<f8").tobytes()
                assert stored == {"shape": list(params[k].data.shape), "crc32": zlib.crc32(block)}
                expected += block
                n_values += params[k].data.size
        assert blob == bytes(expected)
        assert len(blob) == 16 + n + 4 + 8 * n_values

    def test_truncated_checkpoint_names_file_and_parameter(self, tiny_dataset_path, tmp_path):
        out = tmp_path / "ck"
        run_train(tiny_config(tiny_dataset_path, max_epochs=1, out_dir=str(out)))
        blob = (out / "checkpoint.bin").read_bytes()
        header_end = 16 + int.from_bytes(blob[8:16], "little")
        cut = tmp_path / "cut.bin"
        for size, field in (
            (header_end + 10, r"attn\.l0\.W"),  # first parameter, in name order
            (len(blob) - 1, r"head\.b"),  # last block
            (header_end - 5, "header"),
        ):
            cut.write_bytes(blob[:size])
            with pytest.raises(DatasetError, match=rf"cut\.bin.*{field}"):
                load_checkpoint(cut)

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_checkpoint_rejected_with_retrain(self, tiny_dataset_path, tmp_path, version):
        # Version 2 had no header checksum and held Adam's moments; version 3
        # recorded the sha256 of the whole dataset file as its dataset_hash.
        out = tmp_path / "ck"
        run_train(tiny_config(tiny_dataset_path, max_epochs=1, out_dir=str(out)))
        blob = (out / "checkpoint.bin").read_bytes()
        header_end = 16 + int.from_bytes(blob[8:16], "little")
        meta = json.loads(blob[16:header_end])
        header = json.dumps({**meta, "version": version}, sort_keys=True).encode()
        old = tmp_path / f"v{version}.bin"
        old.write_bytes(blob[:8] + len(header).to_bytes(8, "little") + header + blob[header_end + 4 :])
        with pytest.raises(DatasetError, match=rf"v{version}\.bin.*version {version} != 4.*retrain"):
            load_checkpoint(old)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage!" * 4)
        with pytest.raises(DatasetError, match="checkpoint"):
            load_checkpoint(path)


@pytest.fixture(scope="module", params=["rgb", "two_stream"])
def checkpoint_blob(request, tiny_dataset_path, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    run_train(tiny_config(tiny_dataset_path, variant=request.param, max_epochs=1, out_dir=str(out)))
    return (out / "checkpoint.bin").read_bytes()


def checkpoint_layout(blob):
    """The header, where it ends, and (stream, parameter, start, end) of every block."""
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    meta = json.loads(blob[16:header_end])
    pos, blocks = header_end + 4, []
    for name, smeta in sorted(meta["streams"].items()):
        for pname, stored in sorted(smeta["params"].items()):
            nbytes = 8 * int(np.prod(stored["shape"]))
            blocks.append((name, pname, pos, pos + nbytes))
            pos += nbytes
    assert pos == len(blob)
    return meta, header_end, blocks


class TestCorruptCheckpoint:
    """Seeded corruptions of real checkpoints.  Each must raise a DatasetError
    naming the file, so none loads and none surfaces as a numpy or JSON error."""

    def rejected(self, path, blob, match=""):
        path.write_bytes(blob)
        with pytest.raises(DatasetError, match=re.escape(str(path)) + ".*" + match) as caught:
            load_checkpoint(path)
        return caught.value

    def test_truncation_at_every_boundary_and_inside_the_header(self, checkpoint_blob, tmp_path):
        rng = np.random.default_rng(1)
        _, header_end, blocks = checkpoint_layout(checkpoint_blob)
        path = tmp_path / "cut.bin"
        for size in (0, 8, 16, *rng.integers(17, header_end, 5), header_end, header_end + 2):
            self.rejected(path, checkpoint_blob[:size])
        for name, pname, lo, hi in blocks:
            self.rejected(path, checkpoint_blob[:lo], rf"{name} stream parameter {re.escape(pname)}")
            self.rejected(path, checkpoint_blob[: rng.integers(lo + 1, hi)], re.escape(pname))

    def test_flipped_byte_in_the_header_and_in_every_block(self, checkpoint_blob, tmp_path):
        rng = np.random.default_rng(2)
        _, header_end, blocks = checkpoint_layout(checkpoint_blob)
        path = tmp_path / "flipped.bin"

        def flipped(pos):
            blob = bytearray(checkpoint_blob)
            blob[pos] ^= int(rng.integers(1, 256))
            return bytes(blob)

        for pos in (*rng.integers(16, header_end, 5), header_end + 3):
            assert isinstance(self.rejected(path, flipped(pos), "header checksum"), ChecksumError)
        for name, pname, lo, hi in blocks:
            what = rf"{name} stream parameter {re.escape(pname)}"
            error = self.rejected(path, flipped(rng.integers(lo, hi)), what)
            assert isinstance(error, ChecksumError) and "checksum" in str(error)

    def test_header_missing_a_parameter(self, checkpoint_blob, tmp_path):
        # The header and its checksum are rewritten without one parameter, and
        # its block is dropped: only the comparison with the stream catches it.
        rng = np.random.default_rng(3)
        meta, header_end, blocks = checkpoint_layout(checkpoint_blob)
        for name, pname, lo, hi in (blocks[i] for i in rng.permutation(len(blocks))[:3]):
            params = {k: v for k, v in meta["streams"][name]["params"].items() if k != pname}
            smeta = {**meta["streams"][name], "params": params}
            header = json.dumps({**meta, "streams": {**meta["streams"], name: smeta}}, sort_keys=True).encode()
            blob = (
                checkpoint_blob[:8] + len(header).to_bytes(8, "little") + header
                + zlib.crc32(header).to_bytes(4, "little")
                + checkpoint_blob[header_end + 4 : lo] + checkpoint_blob[hi:]
            )
            missing = rf"{name} stream lacks parameters \['{re.escape(pname)}'\]"
            self.rejected(tmp_path / "missing.bin", blob, missing)

    def test_appended_byte(self, checkpoint_blob, tmp_path):
        self.rejected(tmp_path / "long.bin", checkpoint_blob + b"\0", "1 trailing bytes")


class TestConfig:
    def test_json_round_trip(self):
        config = RunConfig(conditioning="both", seed=9, dropout=0.25)
        assert RunConfig.from_json(config.to_json()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config"):
            RunConfig.from_json({**RunConfig().to_json(), "rate": 3})

    def test_version_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            RunConfig.from_json({**RunConfig().to_json(), "config_version": 2})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0), ("batch_size", 1.5), ("clip_len", 0), ("feat_dim", 0),
            ("rgb_hidden", 0), ("pose_hidden", 0), ("pose_layers", 0), ("attn_hidden", 0),
            ("temporal_hidden", 0), ("max_epochs", 0), ("patience", 0),
            ("dropout", 1.0), ("dropout", -0.1), ("dropout", "0.5"),
            ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
            ("variant", "both"), ("conditioning", "hands"), ("pooling", "max"),
            ("use_temporal", "false"), ("mask_absent", 1), ("stack_dropout", "no"),
            ("batch_size", True), ("lr", True), ("dropout", False), ("seed", -1), ("seed", 2.0),
        ],
    )
    def test_out_of_range_field_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"config {field}:"):
            RunConfig(**{field: value})
        with pytest.raises(ConfigError, match=f"config {field}:"):
            RunConfig.from_json({**RunConfig().to_json(), field: value})

    def test_file_load_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(RunConfig(seed=1).to_json()))
        config = RunConfig.load(path, {"seed": 7, "conditioning": "sum"})
        assert config.seed == 7
        assert config.conditioning == "sum"

    def test_defaults_match_reference_recipe(self):
        config = RunConfig()
        assert dataclasses.asdict(config) | {} == {
            **dataclasses.asdict(config),
            "clip_len": 20,
            "feat_dim": 2048,
            "rgb_hidden": 1024,
            "pose_hidden": 150,
            "pose_layers": 3,
            "attn_hidden": 256,
            "temporal_hidden": 32,
            "lr": 1e-4,
            "batch_size": 32,
            "dropout": 0.5,
            "max_epochs": 100,
        }


class TestPrepare:
    def test_prepared_shapes(self, tiny_dataset_path):
        from poseattn.data import load_dataset

        dataset = load_dataset(tiny_dataset_path)
        prepared = prepare_sequences(dataset)
        sample = next(iter(prepared.values()))
        length = sample.length
        assert sample.pose_raw.shape == (length, 48)
        assert sample.pose_aug.shape == (length, 144)
        assert sample.motion.shape == (length, 2)
        assert sample.features.shape == (length, 4, 16)
        assert sample.hand_mask.shape == (length, 4)

    def test_prepared_table_is_read_only_and_shares_the_features(self, tiny_dataset_path):
        dataset = load_dataset(tiny_dataset_path)
        prepared = dataset.prepared
        assert prepared is dataset.prepared
        for seq_id, sample in prepared.items():
            assert sample.features is dataset.sequences[seq_id].features
            for name in ("pose_raw", "pose_aug", "motion", "features", "hand_mask"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(sample, name)[0] += 1
        with pytest.raises(ValueError, match="read-only"):
            dataset.sequences[seq_id].features[:] = 0.0

    def test_runs_on_one_dataset_prepare_once_and_match_separate_loads(
        self, tiny_dataset_path, tmp_path, monkeypatch
    ):
        calls = []
        real = poseattn.data.prepare_sequences
        monkeypatch.setattr(poseattn.data, "prepare_sequences", lambda d: calls.append(d) or real(d))
        # The checkpoint header holds out_dir, so both sides write to the same one.
        configs = [
            tiny_config(tiny_dataset_path, variant=variant, max_epochs=1, out_dir=str(tmp_path / variant))
            for variant in ("rgb", "two_stream")
        ]
        files = ("metrics.csv", "result.json", "checkpoint.bin")

        def outputs(config):
            return [(Path(config.out_dir) / name).read_bytes() for name in files]

        shared = load_dataset(tiny_dataset_path)
        on_shared = []
        for config in configs:
            run_train(config, dataset=shared)
            on_shared.append(outputs(config))
        assert len(calls) == 1 and calls[0] is shared
        for config, expected in zip(configs, on_shared):
            run_train(config)  # loads and prepares a copy of its own
            assert outputs(config) == expected, config.variant
        assert len(calls) == 3

    def test_dims_from_dataset(self, tiny_dataset_path):
        from poseattn.data import load_dataset

        dataset = load_dataset(tiny_dataset_path)
        dims = ModelDims.from_dataset(dataset, tiny_config(tiny_dataset_path))
        assert dims.pose_dim == 48
        assert dims.n_classes == 4
        assert dims.feat_dim == 16


def _off_uniform_rgb_stream(config, dims, seed):
    """An RGB stream whose attention networks are off their uniform init."""
    stream = RgbStream(config, dims, np.random.default_rng(seed))
    shake = np.random.default_rng([seed, 1])
    for mlp in (stream.attn, stream.temporal):
        for layer in mlp.layers if mlp is not None else []:
            layer.W.data = shake.normal(size=layer.W.data.shape)
    return stream


class TestFrameTable:
    def test_distinct_frames_give_one_row_per_window_position(self):
        prepared = planted_sequences([30, 40])
        samples = [prepared["s0"], prepared["s1"]]
        windows = [np.arange(3, 13), np.arange(20, 30)]
        batch = training.make_batch(samples, windows)
        assert np.array_equal(batch.frames, np.arange(20).reshape(2, 10))
        for name in ("pose_raw", "pose_aug", "motion", "hand_mask", "features"):
            per_window = np.stack([getattr(s, name)[w] for s, w in zip(samples, windows)])
            assert np.array_equal(getattr(batch, name)[batch.frames], per_window), name
        assert batch.labels.tolist() == [0, 1]

    def test_overlapping_windows_share_rows_in_order_of_first_appearance(self):
        prepared = planted_sequences([12, 12])
        a, b = prepared["s0"], prepared["s1"]
        windows = [np.arange(0, 4), np.arange(0, 4), np.arange(2, 6), np.array([9, 10, 11, 11])]
        batch = training.make_batch([a, b, a, b], windows)
        # Rows: a0..a3, b0..b3, a4, a5, b9..b11; the clamp-repeated b11 is one row.
        assert batch.frames.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [2, 3, 8, 9], [10, 11, 12, 12]]
        assert batch.pose_raw[:, 0].tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 9, 10, 11]
        assert batch.batch_size == 4 and batch.n_frames == 4

    def test_window_frame_outside_its_sequence_rejected(self):
        prepared = planted_sequences([12, 30])
        samples = [prepared["s0"], prepared["s1"]]
        for bad in (np.arange(10, 14), np.arange(-1, 3)):  # s0 has frames 0..11
            with pytest.raises(IndexError, match="outside its sequence"):
                training.make_batch(samples, [bad, np.arange(4)])

    @pytest.mark.parametrize("cond", CONDITIONINGS)
    @pytest.mark.parametrize("ta", [False, True])
    def test_shared_rows_give_the_logits_of_unshared_rows(self, tiny_dataset_path, cond, ta):
        config = tiny_config(tiny_dataset_path, conditioning=cond, use_temporal=ta)
        dataset = load_dataset(tiny_dataset_path)
        prepared = prepare_sequences(dataset)
        dims = ModelDims.from_dataset(dataset, config)
        stream = _off_uniform_rgb_stream(config, dims, 5)
        ids = dataset.manifest.split_ids("test_seeds")
        shared = predict_logits([stream], prepared, ids, config.clip_len)
        # The same five windows per sequence, each over rows of its own.
        samples, windows = [], []
        for i in ids:
            s = prepared[i]
            for start in eval_window_starts(s.length, config.clip_len):
                samples.append(dataclasses.replace(s))
                windows.append(window_indices(s.length, start, config.clip_len))
        batch = training.make_batch(samples, windows)
        assert batch.pose_raw.shape[0] == len(windows) * config.clip_len
        logits = stream.forward(batch).logits.data
        unshared = logits.reshape(len(ids), -1, logits.shape[-1]).mean(axis=1)
        np.testing.assert_allclose(shared, unshared, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cond, ta", [("hidden", False), ("pose", True)])
    def test_batched_attention_dump_matches_one_window_forwards(self, tiny_dataset_path, cond, ta):
        config = tiny_config(tiny_dataset_path, conditioning=cond, use_temporal=ta)
        dataset = load_dataset(tiny_dataset_path)
        prepared = prepare_sequences(dataset)
        stream = _off_uniform_rgb_stream(config, ModelDims.from_dataset(dataset, config), 6)
        ids = dataset.manifest.split_ids("test_seeds") + dataset.manifest.split_ids("test_pool")
        assert len(ids) > training.EVAL_CHUNK  # the dump crosses a chunk boundary
        logits = predict_logits([stream], prepared, ids, config.clip_len)
        records = training.dump_attention([stream], prepared, ids, config.clip_len, logits)
        assert [rec["predicted"] for rec in records] == logits.argmax(axis=1).tolist()
        with pytest.raises(ValueError, match="9 logit rows for 10 sequences"):
            training.dump_attention([stream], prepared, ids[:10], config.clip_len, logits[:9])
        for seq_id, rec in zip(ids, records):
            s = prepared[seq_id]
            window = np.array(rec["frames"])
            out = stream.forward(training.make_batch([s], [window]))
            assert rec["sequence_id"] == seq_id
            np.testing.assert_allclose(rec["p"], out.spatial_attention.data[0], rtol=0, atol=1e-12)
            if ta:
                np.testing.assert_allclose(rec["p_prime"], out.temporal_attention.data[0], rtol=0, atol=1e-12)
            else:
                assert rec["p_prime"] is None
