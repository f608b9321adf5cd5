"""Training and evaluation harness.

One epoch presents one freshly sampled window per training sequence,
shuffled.  Validation and test use the fixed protocol: five evenly spaced
windows per sequence, logits averaged per stream, streams fused by summing,
then argmax.  Early stopping keeps the parameters of the best validation
epoch.  Every derived random stream hangs off the config seed, so a rerun
with the same config reproduces metrics bitwise.
"""
from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import NUMPY_LOADED_BEFORE_PIN, THREAD_ENV

# prepare_sequences is imported for callers of this module: the table lives
# with Dataset, which reads it through ``Dataset.prepared``.
from .data import (  # noqa: F401
    Dataset, DatasetError, PreparedSequence, header_field, load_dataset, prepare_sequences, read_framed,
    replacing, write_framed,
)
from .model import CONDITIONINGS, PoseStream, RgbStream, WindowBatch, fuse_logits
from .nn import AdamState, adam_step, collect_grads, zero_grads
from .pose import eval_window_starts, sample_window, window_indices
from .tensor import NumericError, Tape, usable_cpus

CONFIG_VERSION = 1

CONFIG_CHOICES = {
    "variant": ("rgb", "pose", "two_stream"),
    "conditioning": CONDITIONINGS,
    "pooling": ("average", "last"),
}
_CONFIG_FLAGS = ("use_temporal", "mask_absent", "stack_dropout")
# Integer fields and their least value.
_CONFIG_MINIMUM = dict.fromkeys((
    "clip_len", "feat_dim", "rgb_hidden", "pose_hidden", "pose_layers",
    "attn_hidden", "temporal_hidden", "batch_size", "max_epochs", "patience",
), 1) | {"seed": 0}
# lo <= value < hi.  lr = 0 is a valid frozen-parameter run; a negative rate would ascend.
_CONFIG_RANGES = {"dropout": (0.0, 1.0), "lr": (0.0, float("inf"))}


class ConfigError(ValueError):
    """A run config field is out of range or not one of its choices."""


@dataclass
class RunConfig:
    """Run description; defaults follow the reference training recipe."""

    variant: str = "rgb"  # "rgb" | "pose" | "two_stream"
    conditioning: str = "pose"  # "hidden" | "pose" | "both" | "sum" | "concat"
    use_temporal: bool = True
    pooling: str = "average"  # per-step pooling when temporal attention is off
    clip_len: int = 20
    feat_dim: int = 2048
    rgb_hidden: int = 1024
    pose_hidden: int = 150
    pose_layers: int = 3
    attn_hidden: int = 256
    temporal_hidden: int = 32
    lr: float = 1e-4
    batch_size: int = 32
    dropout: float = 0.5
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    dataset: str = ""
    out_dir: str = ""
    mask_absent: bool = False
    stack_dropout: bool = True
    config_version: int = CONFIG_VERSION

    def __post_init__(self) -> None:
        for name, choices in CONFIG_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"config {name}: {getattr(self, name)!r} is not one of {choices}")
        for name in ("dataset", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"config {name}: must be a path string, got {getattr(self, name)!r}")
        for name in _CONFIG_FLAGS:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"config {name}: must be true or false, got {getattr(self, name)!r}")
        # bool is an int subclass, but True is no batch size, seed or rate.
        for name, least in _CONFIG_MINIMUM.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"config {name}: must be an integer >= {least}, got {value!r}")
        for name, (lo, hi) in _CONFIG_RANGES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not lo <= value < hi:
                raise ConfigError(f"config {name}: must be a number in [{lo}, {hi}), got {value!r}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        version = d.get("config_version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"config version {version} != supported {CONFIG_VERSION}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def load(cls, path: str | Path, overrides: dict | None = None) -> "RunConfig":
        """The config in the JSON file ``path`` with ``overrides`` laid over
        it.  A file that is not such a config raises a ``ConfigError`` naming it."""
        try:
            d = json.loads(Path(path).read_bytes())
            return cls.from_json({**d, **overrides} if isinstance(d, dict) and overrides else d)
        except ValueError as e:  # not JSON, or a ConfigError
            raise ConfigError(f"config file {path}: {e}") from None


def make_batch(samples: list[PreparedSequence], windows: list[np.ndarray]) -> WindowBatch:
    """Windows of frame indices into their samples, over a table of distinct frames.

    Each distinct (sample, frame) is copied into the f64 table once, in order
    of first appearance, so a batch whose frames are all distinct gets
    ``frames == arange(B*T).reshape(B, T)``.  ``features`` stays None when
    the samples have none.
    """
    distinct_samples = list({id(s): s for s in samples}.values())  # in order of first appearance
    number = {id(s): i for i, s in enumerate(distinct_samples)}
    windows = np.asarray(windows)
    if windows.min() < 0 or (windows >= np.array([[s.length] for s in samples])).any():
        raise IndexError("make_batch: a window frame lies outside its sequence")
    longest = max(s.length for s in distinct_samples)
    keys = np.array([number[id(s)] for s in samples])[:, None] * longest + windows
    distinct, first, inverse = np.unique(keys.reshape(-1), return_index=True, return_inverse=True)
    order = np.argsort(first)
    row = np.empty_like(order)
    row[order] = np.arange(order.size)
    seq_of, frame_of = np.divmod(distinct[order], longest)
    # Each run of consecutive frames of one sample is copied as one slice.
    breaks = (np.diff(seq_of) != 0) | (np.diff(frame_of) != 1)
    cuts = [0, *(np.flatnonzero(breaks) + 1), order.size]

    def table(name: str) -> np.ndarray:
        out = np.empty((order.size, *getattr(samples[0], name).shape[1:]))
        for lo, hi in zip(cuts, cuts[1:]):
            start = frame_of[lo]
            out[lo:hi] = getattr(distinct_samples[seq_of[lo]], name)[start : start + hi - lo]
        return out

    return WindowBatch(
        pose_raw=table("pose_raw"),
        pose_aug=table("pose_aug"),
        motion=table("motion"),
        hand_mask=table("hand_mask"),
        frames=row[inverse.reshape(-1)].reshape(keys.shape),
        labels=np.array([s.label for s in samples]),
        features=table("features") if samples[0].features is not None else None,
    )


@dataclass
class ModelDims:
    pose_dim: int
    n_classes: int
    feat_dim: int
    clip_len: int

    @classmethod
    def from_dataset(cls, dataset: Dataset, config: RunConfig) -> "ModelDims":
        """The sizes of ``config``'s streams on ``dataset``.  Runs that read
        hand features (``rgb``, ``two_stream``) need the dataset to have them
        at ``config.feat_dim``; a ``pose`` run reads none."""
        manifest = dataset.manifest
        if config.variant != "pose":
            if not manifest.has_features:
                raise DatasetError(
                    f"dataset {config.dataset!r} has no hand features, needed by {config.variant} runs"
                )
            if config.feat_dim != manifest.feature_dim:
                raise DatasetError(
                    f"dataset {config.dataset!r}: config feat_dim {config.feat_dim} "
                    f"!= dataset feature dim {manifest.feature_dim}"
                )
        return cls(
            pose_dim=2 * manifest.n_joints * 3,
            n_classes=manifest.n_classes,
            feat_dim=manifest.feature_dim,
            clip_len=config.clip_len,
        )


def build_rgb_stream(config: RunConfig, dims: ModelDims, rng: np.random.Generator | None) -> RgbStream:
    return RgbStream(
        rng=rng,
        conditioning=config.conditioning,
        use_temporal=config.use_temporal,
        n_frames=dims.clip_len,
        feat_dim=dims.feat_dim,
        pose_aug_dim=3 * dims.pose_dim,
        hidden_dim=config.rgb_hidden,
        n_classes=dims.n_classes,
        attn_hidden=config.attn_hidden,
        temporal_hidden=config.temporal_hidden,
        pooling=config.pooling,
        dropout_rate=config.dropout,
        mask_absent=config.mask_absent,
    )


def build_pose_stream(config: RunConfig, dims: ModelDims, rng: np.random.Generator | None) -> PoseStream:
    return PoseStream(
        rng=rng,
        pose_dim=dims.pose_dim,
        hidden_dim=config.pose_hidden,
        n_layers=config.pose_layers,
        n_classes=dims.n_classes,
        dropout_rate=config.dropout,
        stack_dropout=config.stack_dropout,
    )


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


_STREAM_TAG = {"rgb": 11, "pose": 13}
# The held-out splits every run is scored on.
TEST_SPLITS = ("test_seeds", "test_pool")
# Sequences per eval forward: five windows each in predict_logits, one in dump_attention.
EVAL_CHUNK = 16


def _fresh_stream(name: str, config: RunConfig, dims: ModelDims, drawn: bool = True):
    """Stream ``name`` ("pose" or "rgb") at its seeded initial parameters, or
    with ``drawn`` False at zeros: a skeleton for a checkpoint to fill."""
    build = build_pose_stream if name == "pose" else build_rgb_stream
    return build(config, dims, _rng(config.seed, _STREAM_TAG[name], 0) if drawn else None)


def evaluate(
    streams: list,
    prepared: dict[str, PreparedSequence],
    ids: list[str],
    clip_len: int,
    chunk: int = EVAL_CHUNK,
) -> float:
    """Top-1 accuracy under the fixed multi-window protocol."""
    return accuracy(predict_logits(streams, prepared, ids, clip_len, chunk=chunk), prepared, ids)


def accuracy(logits: np.ndarray, prepared: dict[str, PreparedSequence], ids: list[str]) -> float:
    """Top-1 accuracy of sequence logits (one row per id, in order)."""
    labels = np.array([prepared[i].label for i in ids])
    return float((logits.argmax(axis=1) == labels).mean())


def predict_logits(
    streams: list,
    prepared: dict[str, PreparedSequence],
    ids: list[str],
    clip_len: int,
    chunk: int = EVAL_CHUNK,
) -> np.ndarray:
    """Fused sequence logits: per stream, average logits over the five eval
    windows; then sum streams.  No ids give a (0, n_classes) array."""
    if not ids:
        return np.empty((0, streams[0].n_classes))
    fused_rows: list[np.ndarray] = []
    for lo in range(0, len(ids), chunk):
        batch_ids = ids[lo : lo + chunk]
        samples: list[PreparedSequence] = []
        windows: list[np.ndarray] = []
        for i in batch_ids:
            s = prepared[i]
            starts = eval_window_starts(s.length, clip_len)
            for st in starts:
                samples.append(s)
                windows.append(window_indices(s.length, st, clip_len))
        batch = make_batch(samples, windows)
        per_stream: list[np.ndarray] = []
        for stream in streams:
            out = stream.forward(batch, training=False)
            logits = out.logits.data.reshape(len(batch_ids), -1, out.logits.shape[-1])
            per_stream.append(logits.mean(axis=1))
        fused = per_stream[0]
        for extra in per_stream[1:]:
            fused = fuse_logits(fused, extra)
        fused_rows.append(fused)
    return np.concatenate(fused_rows, axis=0)


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_acc: float


@dataclass
class TrainedStream:
    name: str
    stream: object
    rows: list[EpochRow]
    best_epoch: int
    best_val_acc: float


class TrainingAborted(NumericError):
    """Numeric failure during training; carries the best state reached so far."""

    def __init__(self, message: str, partial: "TrainedStream | None"):
        super().__init__(message)
        self.partial = partial


def train_stream(
    name: str,
    stream,
    config: RunConfig,
    prepared: dict[str, PreparedSequence],
    train_ids: list[str],
    val_ids: list[str],
) -> TrainedStream:
    params = stream.parameters()
    adam = AdamState(lr=config.lr)
    tag = _STREAM_TAG[name]
    best_val = -1.0
    best_epoch = -1
    best_snapshot: dict[str, np.ndarray] = {}
    stall = 0
    rows: list[EpochRow] = []

    def restore_best() -> None:
        # The snapshot is private to this call, so its arrays become the parameters.
        for k, p in params.items():
            p.data = best_snapshot[k]

    try:
        for epoch in range(config.max_epochs):
            rng = _rng(config.seed, tag, 1, epoch)
            order = rng.permutation(len(train_ids))
            total_loss = 0.0
            total_n = 0
            for lo in range(0, len(order), config.batch_size):
                batch_ids = [train_ids[j] for j in order[lo : lo + config.batch_size]]
                samples = [prepared[i] for i in batch_ids]
                windows = [sample_window(s.length, config.clip_len, rng) for s in samples]
                batch = make_batch(samples, windows)
                with Tape() as tape:
                    out = stream.forward(batch, training=True, rng=rng)
                    loss = stream.loss(out, batch.labels)
                tape.backward(loss)
                grads = collect_grads(params)
                zero_grads(params)
                adam_step(adam, params, grads)
                del grads  # not held through the next step's forward and backward
                total_loss += loss.item() * len(batch_ids)
                total_n += len(batch_ids)
            val_acc = evaluate([stream], prepared, val_ids, config.clip_len)
            rows.append(EpochRow(epoch=epoch, train_loss=total_loss / total_n, val_acc=val_acc))
            if val_acc > best_val:
                best_val = val_acc
                best_epoch = epoch
                best_snapshot = {k: p.data.copy() for k, p in params.items()}
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    break
    except NumericError as e:
        partial = None
        if best_snapshot:
            restore_best()
            partial = TrainedStream(name, stream, rows, best_epoch, best_val)
        raise TrainingAborted(str(e), partial) from e
    restore_best()
    return TrainedStream(name, stream, rows, best_epoch, best_val)


@dataclass
class TrainResult:
    config: RunConfig
    streams: dict[str, TrainedStream]
    dataset: Dataset
    test_acc: dict[str, float] = field(default_factory=dict)  # per non-empty split
    test_logits: dict[str, np.ndarray] = field(default_factory=dict)  # per split, one row per id

    @property
    def prepared(self) -> dict[str, PreparedSequence]:
        return self.dataset.prepared

    def stream_models(self) -> list:
        return [t.stream for t in self.streams.values()]


def blas_setup() -> dict:
    """The BLAS numpy was built with, the thread count it runs (None when it
    cannot be read), the thread variables this process sees (None when
    unset), whether numpy had loaded before the package set them (the pin
    then did nothing) and the CPUs it may run on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "numpy_loaded_before_pin": NUMPY_LOADED_BEFORE_PIN,
        "cpus": usable_cpus(),
    }


def _openblas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy's wheels bundle under
    ``numpy.libs/``, read from the loaded library; None when numpy has no
    such library."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        try:
            query = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.argtypes, query.restype = [], ctypes.c_int
        return query()
    return None


def run_train(config: RunConfig, dataset: Dataset | None = None) -> TrainResult:
    """Train the configured variant end to end and score it on the test splits,
    keeping each split's logits in ``test_logits``.

    The model inputs come from ``dataset.prepared``, so runs handed one
    ``Dataset`` object prepare it once between them; without ``dataset`` the
    run loads ``config.dataset`` and prepares its own.  Writes config,
    dataset hash (``dataset.content_hash``: of the manifest header loaded,
    "" for a dataset built in memory), per-epoch metrics, results, the best
    checkpoint, and wall time with the BLAS setup (``timing.json``) into
    ``config.out_dir`` when it is set.  On a numeric failure the best
    checkpoint so far is preserved before the error propagates.
    """
    if dataset is None:
        dataset = load_dataset(config.dataset)
    dims = ModelDims.from_dataset(dataset, config)
    prepared = dataset.prepared
    train_ids = dataset.manifest.split_ids("train")
    val_ids = dataset.manifest.split_ids("val")
    if not train_ids or not val_ids:
        raise DatasetError("dataset needs non-empty train and val splits")

    result = TrainResult(config=config, streams={}, dataset=dataset)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        with replacing(out_dir / "config.json") as f:
            f.write(json.dumps(config.to_json(), indent=2, sort_keys=True))
        with replacing(out_dir / "dataset_hash.txt") as f:
            f.write(dataset.content_hash + "\n")

    t0 = time.monotonic()
    try:
        # Streams are trained separately, then fused only at evaluation time.
        for name in ("pose", "rgb"):
            if config.variant in (name, "two_stream"):
                stream = _fresh_stream(name, config, dims)
                result.streams[name] = train_stream(name, stream, config, prepared, train_ids, val_ids)
    except NumericError as e:
        # Preserve the best state reached before the numeric failure.
        if isinstance(e, TrainingAborted) and e.partial is not None:
            result.streams[e.partial.name] = e.partial
        if out_dir and result.streams:
            save_checkpoint(out_dir / "checkpoint.bin", config, dims, result, partial=True)
        raise
    wall = time.monotonic() - t0

    models = result.stream_models()
    for split in TEST_SPLITS:
        ids = dataset.manifest.split_ids(split)
        result.test_logits[split] = predict_logits(models, prepared, ids, config.clip_len)
        if ids:
            result.test_acc[split] = accuracy(result.test_logits[split], prepared, ids)

    if out_dir:
        _write_metrics(out_dir / "metrics.csv", result)
        best = {k: {"epoch": t.best_epoch, "val_acc": t.best_val_acc} for k, t in result.streams.items()}
        with replacing(out_dir / "result.json") as f:
            f.write(json.dumps({"test_acc": result.test_acc, "best": best}, indent=2, sort_keys=True))
        # Wall-clock lives outside metrics.csv so reruns stay bitwise comparable.
        with replacing(out_dir / "timing.json") as f:
            f.write(json.dumps({"train_seconds": wall} | blas_setup()))
        save_checkpoint(out_dir / "checkpoint.bin", config, dims, result)
    return result


def _write_metrics(path: Path, result: TrainResult) -> None:
    lines = ["stream,epoch,train_loss,val_acc"]
    for name, trained in result.streams.items():
        for row in trained.rows:
            lines.append(f"{name},{row.epoch},{row.train_loss!r},{row.val_acc!r}")
    for split, acc in result.test_acc.items():
        lines.append(f"final,{split},," + repr(acc))
    with replacing(path) as f:
        f.write("\n".join(lines) + "\n")


CHECKPOINT_MAGIC = b"POSECKP1"
CHECKPOINT_VERSION = 4


def save_checkpoint(
    path: str | Path, config: RunConfig, dims: ModelDims, result: TrainResult, partial: bool = False
) -> None:
    """Write the streams' parameters, which are the best epoch's once
    ``train_stream`` has returned, with what it takes to rebuild them.

    The file is framed by ``data.write_framed``: the header lists each
    parameter's shape and the CRC32 of its block, and the blocks are raw
    little-endian f64, per stream in name order, each parameter in name order.
    """
    arrays = {
        name: {k: np.ascontiguousarray(p.data, dtype="<f8") for k, p in sorted(t.stream.parameters().items())}
        for name, t in sorted(result.streams.items())
    }
    header = {
        "version": CHECKPOINT_VERSION,
        "partial": partial,
        "config": config.to_json(),
        "dims": dataclasses.asdict(dims),
        "dataset_hash": result.dataset.content_hash,
        "streams": {
            name: {
                "params": {k: {"shape": list(a.shape), "crc32": zlib.crc32(a)} for k, a in arrays[name].items()},
                "best_epoch": trained.best_epoch,
                "best_val_acc": trained.best_val_acc,
            }
            for name, trained in result.streams.items()
        },
    }
    # A failed save leaves the previous checkpoint (the preserved best) untouched.
    write_framed(path, CHECKPOINT_MAGIC, header, (a for blocks in arrays.values() for a in blocks.values()))


def _typed(header: dict, key: str, kind: type):
    """``header[key]``, which must be a ``kind``: a bool is not a number."""
    value = header[key]
    if type(value) is not kind:
        raise TypeError(f"field {key!r} is {value!r}, not {kind.__name__}")
    return value


def load_checkpoint(path: str | Path) -> tuple[RunConfig, ModelDims, dict[str, dict]]:
    """Rebuild the stream models a checkpoint holds, each with its best epoch,
    its validation accuracy and the header's ``dataset_hash`` and ``partial``
    flag (set when training stopped on a numeric failure).  Every header
    field must be there with its type, the header must list exactly each
    stream's parameters at their shapes, every block must match its CRC32,
    and the file must end there; else a ``DatasetError`` names the file."""
    advice = "retrain the model to write one"
    with read_framed(path, CHECKPOINT_MAGIC, "checkpoint", "version", CHECKPOINT_VERSION, advice) as (meta, block):
        with header_field(path, "checkpoint config"):
            config = RunConfig.from_json(meta["config"])
        with header_field(path, "checkpoint"):
            dims = _typed(meta, "dims", dict)
            dims = {f.name: _typed(dims, f.name, int) for f in dataclasses.fields(ModelDims)}
            if min(dims.values()) < 0:
                raise ValueError(f"field 'dims' is {dims}, with a size below 0")
            dims, dataset_hash = ModelDims(**dims), _typed(meta, "dataset_hash", str)
            if not re.fullmatch(r"([0-9a-f]{64})?", dataset_hash):
                raise ValueError(f"field 'dataset_hash' is {dataset_hash!r}, not \"\" or 64 lowercase hex digits")
            partial = _typed(meta, "partial", bool)
            stored_streams = sorted(_typed(meta, "streams", dict).items())
            if not stored_streams:
                raise ValueError("field 'streams' is empty")
        streams: dict[str, dict] = {}
        for name, smeta in stored_streams:
            with header_field(path, f"checkpoint {name} stream"):
                if name not in _STREAM_TAG:
                    raise ValueError(f"field 'streams' names a stream other than {sorted(_STREAM_TAG)}")
                listed = _typed(smeta, "params", dict)
                stored = {k: (_typed(p, "shape", list), _typed(p, "crc32", int)) for k, p in listed.items()}
                best = {key: _typed(smeta, key, kind) for key, kind in (("best_epoch", int), ("best_val_acc", float))}
                if best["best_epoch"] < 0:
                    raise ValueError(f"field 'best_epoch' is {best['best_epoch']}, below 0")
                stream = _fresh_stream(name, config, dims, drawn=False)
            params = stream.parameters()
            if set(params) != set(stored):
                raise DatasetError(
                    f"{path}: checkpoint {name} stream lacks parameters {sorted(set(params) - set(stored))} "
                    f"and has unknown ones {sorted(set(stored) - set(params))}"
                )
            for pname in sorted(params):
                what = f"{name} stream parameter {pname}"
                arr = params[pname].data  # zeros of its own, read into in place
                shape, crc32 = stored[pname]
                if tuple(shape) != arr.shape:
                    raise DatasetError(f"{path}: checkpoint {what}: shape {shape} != {arr.shape}")
                block(what, arr.nbytes, crc32, into=arr)
            streams[name] = {"stream": stream, **best, "dataset_hash": dataset_hash, "partial": partial}
    return config, dims, streams


def dump_attention(
    streams: list,
    prepared: dict[str, PreparedSequence],
    ids: list[str],
    clip_len: int,
    logits: np.ndarray,
    out_path: str | Path | None = None,
) -> list[dict]:
    """Per-sequence attention record over the first eval window, plus the
    prediction from ``logits``: the caller's full-protocol logits of
    ``streams``, one row per id, as ``predict_logits`` returns them.
    JSON-lines when ``out_path`` is set."""
    rgb = next((s for s in streams if isinstance(s, RgbStream)), None)
    if rgb is None:
        raise ValueError("attention dumps need an RGB stream")
    if len(logits) != len(ids):
        raise ValueError(f"dump_attention: {len(logits)} logit rows for {len(ids)} sequences")
    records = []
    for lo in range(0, len(ids), EVAL_CHUNK):
        chunk_ids = ids[lo : lo + EVAL_CHUNK]
        samples = [prepared[i] for i in chunk_ids]
        starts = [eval_window_starts(s.length, clip_len)[0] for s in samples]
        windows = [window_indices(s.length, st, clip_len) for s, st in zip(samples, starts)]
        out = rgb.forward(make_batch(samples, windows), training=False)
        p, p_prime = out.spatial_attention, out.temporal_attention
        for k, (seq_id, s, start, window) in enumerate(zip(chunk_ids, samples, starts, windows)):
            records.append({
                "sequence_id": seq_id,
                "window_start": int(start),
                "frames": [int(i) for i in window],
                "p": p.data[k].tolist() if p is not None else None,
                "p_prime": p_prime.data[k].tolist() if p_prime is not None else None,
                "predicted": int(logits[lo + k].argmax()),
                "true": int(s.label),
                "gt_active_slot": s.gt_slot[window].tolist() if s.gt_slot is not None else None,
                "gt_window": s.gt_window.tolist() if s.gt_window is not None else None,
            })
    if out_path is not None:
        with replacing(out_path) as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
    return records
