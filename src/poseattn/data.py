"""Binary dataset container: versioned manifest header plus per-sequence blocks.

Layout (little-endian): 8-byte magic, u64 manifest length, UTF-8 JSON
manifest, then the payload region.  Each record block packs, in order:
joints3d f32, hands2d f32, subject flags u8, label i32, optional per-hand
features f32, optional ground-truth attention targets i32.  Storage is f32;
compute is f64.  Round-trips are bitwise.
"""
from __future__ import annotations

import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .pose import PoseSequence

MAGIC = b"POSEDS01"
FORMAT_VERSION = 1

SPLITS = ("train", "val", "test_seeds", "test_pool")


class DatasetError(Exception):
    """Base class for container format failures."""


class VersionError(DatasetError):
    """Magic or format version does not match this reader."""


class TruncationError(DatasetError):
    """A record block extends past the end of the file."""


class ChecksumError(DatasetError):
    """A record block's CRC32 does not match its manifest entry."""


@dataclass
class SequenceRecord:
    seq_id: str
    label: int
    split: str
    subjects: int
    n_frames: int
    offset: int = 0
    nbytes: int = 0
    crc32: int = 0

    def to_json(self) -> dict:
        return {
            "id": self.seq_id,
            "label": self.label,
            "split": self.split,
            "subjects": self.subjects,
            "n_frames": self.n_frames,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "crc32": self.crc32,
        }

    @classmethod
    def from_json(cls, d: dict) -> "SequenceRecord":
        return cls(
            seq_id=d["id"],
            label=int(d["label"]),
            split=d["split"],
            subjects=int(d["subjects"]),
            n_frames=int(d["n_frames"]),
            offset=int(d["offset"]),
            nbytes=int(d["nbytes"]),
            crc32=int(d["crc32"]),
        )


@dataclass
class DatasetManifest:
    n_classes: int
    feature_dim: int
    n_joints: int
    spine_joint: int = 1
    has_features: bool = True
    has_gt_slot: bool = False
    has_gt_window: bool = False
    provenance: dict = field(default_factory=dict)
    records: list[SequenceRecord] = field(default_factory=list)
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        ids = [r.seq_id for r in self.records]
        if len(ids) != len(set(ids)):
            raise DatasetError("manifest contains duplicate sequence ids")

    def split_ids(self, split: str) -> list[str]:
        return [r.seq_id for r in self.records if r.split == split]

    def record(self, seq_id: str) -> SequenceRecord:
        for r in self.records:
            if r.seq_id == seq_id:
                return r
        raise KeyError(seq_id)

    def to_json(self) -> dict:
        return {
            "format_version": self.format_version,
            "n_classes": self.n_classes,
            "feature_dim": self.feature_dim,
            "n_joints": self.n_joints,
            "spine_joint": self.spine_joint,
            "has_features": self.has_features,
            "has_gt_slot": self.has_gt_slot,
            "has_gt_window": self.has_gt_window,
            "provenance": self.provenance,
            "records": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, d: dict) -> "DatasetManifest":
        if d.get("format_version") != FORMAT_VERSION:
            raise VersionError(
                f"manifest format version {d.get('format_version')} != supported {FORMAT_VERSION}"
            )
        return cls(
            n_classes=int(d["n_classes"]),
            feature_dim=int(d["feature_dim"]),
            n_joints=int(d["n_joints"]),
            spine_joint=int(d["spine_joint"]),
            has_features=bool(d["has_features"]),
            has_gt_slot=bool(d["has_gt_slot"]),
            has_gt_window=bool(d["has_gt_window"]),
            provenance=d.get("provenance", {}),
            records=[SequenceRecord.from_json(r) for r in d["records"]],
        )


@dataclass
class SequenceData:
    """One decoded sequence: pose, optional features and attention targets."""

    seq: PoseSequence
    features: np.ndarray | None = None  # (T, 4, D) f32
    gt_slot: np.ndarray | None = None  # (T,) i32, -1 when absent
    gt_window: np.ndarray | None = None  # (2,) i32 [start, stop), (-1, -1) when absent


@dataclass
class Dataset:
    manifest: DatasetManifest
    sequences: dict[str, SequenceData]

    def split_items(self, split: str) -> list[tuple[SequenceRecord, SequenceData]]:
        return [(r, self.sequences[r.seq_id]) for r in self.manifest.records if r.split == split]


def _encode_record(manifest: DatasetManifest, record: SequenceRecord, data: SequenceData) -> bytes:
    t = data.seq.n_frames
    j = manifest.n_joints
    parts = [
        np.ascontiguousarray(data.seq.joints3d, dtype="<f4").tobytes(),
        np.ascontiguousarray(data.seq.hands2d, dtype="<f4").tobytes(),
        np.ascontiguousarray(data.seq.subject_present, dtype=np.uint8).tobytes(),
        np.int32(record.label).astype("<i4").tobytes(),
    ]
    if manifest.has_features:
        if data.features is None:
            raise DatasetError(f"record {record.seq_id}: manifest promises features, none given")
        if data.features.shape != (t, 4, manifest.feature_dim):
            raise DatasetError(
                f"record {record.seq_id}: feature shape {data.features.shape} != "
                f"({t}, 4, {manifest.feature_dim})"
            )
        parts.append(np.ascontiguousarray(data.features, dtype="<f4").tobytes())
    if manifest.has_gt_slot:
        slot = data.gt_slot if data.gt_slot is not None else np.full(t, -1, dtype=np.int32)
        parts.append(np.ascontiguousarray(slot, dtype="<i4").tobytes())
    if manifest.has_gt_window:
        win = data.gt_window if data.gt_window is not None else np.array([-1, -1], dtype=np.int32)
        parts.append(np.ascontiguousarray(win, dtype="<i4").tobytes())
    if data.seq.joints3d.shape != (t, 2, j, 3):
        raise DatasetError(
            f"record {record.seq_id}: joints shape {data.seq.joints3d.shape} != ({t}, 2, {j}, 3)"
        )
    return b"".join(parts)


def _decode_record(manifest: DatasetManifest, record: SequenceRecord, blob: bytes) -> SequenceData:
    t = record.n_frames
    j = manifest.n_joints
    pos = 0

    def take(count: int, dtype: str) -> np.ndarray:
        nonlocal pos
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
        pos += arr.nbytes
        return arr

    joints = take(t * 2 * j * 3, "<f4").reshape(t, 2, j, 3).astype(np.float64)
    hands = take(t * 4 * 2, "<f4").reshape(t, 4, 2).astype(np.float64)
    present = take(2, np.uint8).astype(bool)
    label = int(take(1, "<i4")[0])
    if label != record.label:
        raise ChecksumError(
            f"record {record.seq_id}: payload label {label} != manifest label {record.label}"
        )
    seq = PoseSequence(
        joints3d=joints,
        hands2d=hands,
        subject_present=present,
        label=label,
        seq_id=record.seq_id,
    )
    features = None
    if manifest.has_features:
        features = take(t * 4 * manifest.feature_dim, "<f4").reshape(t, 4, manifest.feature_dim)
        features = features.astype(np.float32)
    gt_slot = take(t, "<i4").copy() if manifest.has_gt_slot else None
    gt_window = take(2, "<i4").copy() if manifest.has_gt_window else None
    return SequenceData(seq=seq, features=features, gt_slot=gt_slot, gt_window=gt_window)


@contextmanager
def replacing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A file to write in place of ``path``: a sibling temp file, renamed over
    ``path`` when the block ends.  If the block raises, the temp file is
    removed and ``path`` keeps its previous contents."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    manifest = dataset.manifest
    blobs: list[bytes] = []
    offset = 0
    for record in manifest.records:
        blob = _encode_record(manifest, record, dataset.sequences[record.seq_id])
        record.offset = offset
        record.nbytes = len(blob)
        record.crc32 = zlib.crc32(blob)
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps(manifest.to_json(), sort_keys=True).encode()
    with replacing(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def load_manifest(path: str | Path) -> tuple[DatasetManifest, int]:
    """Read the manifest; returns it plus the byte offset of the payload region."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise VersionError(f"bad magic {magic!r}; not a dataset file or wrong version")
        raw = f.read(8)
        if len(raw) < 8:
            raise TruncationError("file ends inside the manifest length field")
        header_len = int.from_bytes(raw, "little")
        header = f.read(header_len)
        if len(header) < header_len:
            raise TruncationError("file ends inside the manifest header")
        manifest = DatasetManifest.from_json(json.loads(header.decode()))
        return manifest, len(MAGIC) + 8 + header_len


def read_record(
    path: str | Path, manifest: DatasetManifest, payload_offset: int, record: SequenceRecord
) -> SequenceData:
    with open(path, "rb") as f:
        f.seek(payload_offset + record.offset)
        blob = f.read(record.nbytes)
    if len(blob) < record.nbytes:
        raise TruncationError(
            f"record {record.seq_id}: expected {record.nbytes} bytes, file truncated"
        )
    if zlib.crc32(blob) != record.crc32:
        raise ChecksumError(f"record {record.seq_id}: checksum mismatch")
    return _decode_record(manifest, record, blob)


def load_dataset(path: str | Path) -> Dataset:
    manifest, payload_offset = load_manifest(path)
    sequences = {
        r.seq_id: read_record(path, manifest, payload_offset, r) for r in manifest.records
    }
    return Dataset(manifest=manifest, sequences=sequences)


def export_manifest_json(path: str | Path, out_path: str | Path) -> None:
    manifest, _ = load_manifest(path)
    with replacing(out_path) as f:
        f.write(json.dumps(manifest.to_json(), indent=2, sort_keys=True))


def dataset_content_hash(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def assign_validation(records: list[SequenceRecord], frac: float, rng: np.random.Generator) -> None:
    """Relabel a reproducible fraction of the train pool as the validation split.

    Stratified greedily by label (always drawing from the currently largest
    class), so both resulting splits keep class priors uniform within one
    sample.
    """
    train = [r for r in records if r.split == "train"]
    if not train:
        return
    n_val = max(1, round(frac * len(train)))
    by_class: dict[int, list[SequenceRecord]] = {}
    for r in train:
        by_class.setdefault(r.label, []).append(r)
    for label in sorted(by_class):
        members = by_class[label]
        by_class[label] = [members[i] for i in rng.permutation(len(members))]
    for _ in range(n_val):
        label = max(sorted(by_class), key=lambda c: len(by_class[c]))
        by_class[label].pop().split = "val"
