"""Binary dataset container: versioned manifest header plus per-sequence blocks.

Datasets and checkpoints share one framing, written by ``write_framed`` and
read by ``read_framed`` (little-endian): an 8-byte magic, the u64 length of
a UTF-8 JSON header, the header, its u32 CRC32, then raw blocks whose sizes
and CRC32s the header gives, with nothing after the last.

A dataset file (format 3) has the manifest as its header and one block per
manifest record, in manifest order.  The format is written down once: the
header's fields are those of ``DatasetManifest`` and ``SequenceRecord``,
each read as its declared type (``typed``), and ``block_layout`` gives
the arrays a block packs.  Storage is f32; compute is f64.  Round-trips
are bitwise.

A loaded ``Dataset`` is identified by the sha256 of its manifest header
(``Dataset.content_hash``): the header holds every block's size and CRC32,
so it fixes every byte a load accepts, up to a CRC32 collision.  It also
carries its model inputs, prepared once on first use (``Dataset.prepared``)
and shared, read-only, by every run on it.
"""
# No ``from __future__ import annotations``: the header readers check each
# value against its dataclass field's type, which must be a class.
import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .pose import PoseSequence, augment_pose, motion_stats, normalize_pose

MAGIC = b"POSEDS01"
FORMAT_VERSION = 3

SPLITS = ("train", "val", "test_seeds", "test_pool")


class DatasetError(Exception):
    """Base class for container format failures."""


class VersionError(DatasetError):
    """Magic or format version does not match this reader."""


class TruncationError(DatasetError):
    """The file ends inside its header or a block: a dataset record or a
    checkpoint parameter."""


class ChecksumError(DatasetError):
    """Stored bytes do not match the CRC32 kept for them: a header, a dataset
    record block (or its label, against the manifest) or a checkpoint
    parameter block."""


class ManifestError(DatasetError):
    """The header is not a JSON object with a version, or the manifest lacks
    a field, holds one of the wrong type, has a record out of range or sizes
    a block wrongly."""


def typed(header: dict, key: str, kind: type):
    """``header[key]``, which must be a ``kind``: a bool is not a number."""
    value = header[key]
    if type(value) is not kind:
        raise TypeError(f"field {key!r} is {value!r}, not {kind.__name__}")
    return value


def _to_header(obj) -> dict:
    """``obj``'s dataclass fields, each under its header key: its ``key``
    metadata, else its name."""
    return {f.metadata.get("key", f.name): getattr(obj, f.name) for f in fields(obj)}


def _from_header(cls, header: dict, **given):
    """A ``cls`` of the fields ``given``, and every other field read from
    ``header`` under its header key as its declared type."""
    read = {f.name: typed(header, f.metadata.get("key", f.name), f.type) for f in fields(cls) if f.name not in given}
    return cls(**read, **given)


@dataclass
class SequenceRecord:
    seq_id: str = field(metadata={"key": "id"})
    label: int
    split: str
    subjects: int
    n_frames: int
    nbytes: int = 0
    crc32: int = 0

    def to_json(self) -> dict:
        return _to_header(self)

    @classmethod
    def from_json(cls, d: dict) -> "SequenceRecord":
        return _from_header(cls, d)


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

    def __post_init__(self) -> None:
        ids = [r.seq_id for r in self.records]
        if len(ids) != len(set(ids)):
            raise DatasetError("manifest contains duplicate sequence ids")
        for r in self.records:
            if not 0 <= r.label < self.n_classes:
                raise ManifestError(f"record {r.seq_id}: label {r.label} outside [0, {self.n_classes})")
            if r.split not in SPLITS:
                raise ManifestError(f"record {r.seq_id}: split {r.split!r} is not one of {SPLITS}")

    def split_ids(self, split: str) -> list[str]:
        return [r.seq_id for r in self.records if r.split == split]

    def to_json(self) -> dict:
        records = [r.to_json() for r in self.records]
        return {**_to_header(self), "format_version": FORMAT_VERSION, "records": records}

    @classmethod
    def from_json(cls, d: dict) -> "DatasetManifest":
        """The manifest of a header whose version ``read_framed`` has checked."""
        return _from_header(cls, d, records=[SequenceRecord.from_json(r) for r in typed(d, "records", list)])


@dataclass
class SequenceData:
    """One decoded sequence: pose, optional features and attention targets."""

    seq: PoseSequence
    features: np.ndarray | None = None  # (T, 4, D) f32
    gt_slot: np.ndarray | None = None  # (T,) i32, -1 when absent
    gt_window: np.ndarray | None = None  # (2,) i32 [start, stop), (-1, -1) when absent


@dataclass
class PreparedSequence:
    """One sequence with all model inputs precomputed on the full length.
    Every array is read-only: one table is shared by every run on a dataset."""

    seq_id: str
    label: int
    length: int
    pose_raw: np.ndarray  # (L, P)
    pose_aug: np.ndarray  # (L, 3P)
    motion: np.ndarray  # (L, 2)
    features: np.ndarray | None  # (L, 4, D) the dataset's own f32 array, or None; batches widen to f64
    hand_mask: np.ndarray  # (L, 4) f64
    gt_slot: np.ndarray | None = None
    gt_window: np.ndarray | None = None


@dataclass
class Dataset:
    manifest: DatasetManifest
    sequences: dict[str, SequenceData]
    content_hash: str = ""  # sha256 of the manifest header it was loaded with; "" when built in memory

    @cached_property
    def prepared(self) -> dict[str, PreparedSequence]:
        """``prepare_sequences`` of this dataset, computed on first use and kept
        for the dataset's lifetime: every run on this object shares it, and a
        forked pool worker inherits it."""
        return prepare_sequences(self)


def prepare_sequences(dataset: Dataset) -> dict[str, PreparedSequence]:
    """Normalize, augment, and flatten every sequence once up front.

    The arrays are marked read-only, the dataset's own ``features``,
    ``gt_slot`` and ``gt_window`` with them, so that no caller can change
    what another run reads."""
    spine = dataset.manifest.spine_joint
    out: dict[str, PreparedSequence] = {}
    for record in dataset.manifest.records:
        seqdata = dataset.sequences[record.seq_id]
        seq = normalize_pose(seqdata.seq, spine_joint=spine)
        mask = seq.hand_mask().astype(np.float64)
        length = seq.n_frames
        prepared = PreparedSequence(
            seq_id=record.seq_id,
            label=record.label,
            length=length,
            pose_raw=seq.pose_vectors(),
            pose_aug=augment_pose(seq),
            motion=motion_stats(seq),
            features=seqdata.features,
            hand_mask=np.broadcast_to(mask, (length, 4)).copy(),
            gt_slot=seqdata.gt_slot,
            gt_window=seqdata.gt_window,
        )
        for value in vars(prepared).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        out[record.seq_id] = prepared
    return out


def block_layout(manifest: DatasetManifest, n_frames: int) -> np.dtype:
    """The record block of ``n_frames`` frames under the manifest's flags: a
    packed structured dtype of one ``(name, dtype, shape)`` per array, in
    stored order, whose ``itemsize`` is the block's size."""
    t = n_frames
    arrays = [("joints3d", "<f4", (t, 2, manifest.n_joints, 3)), ("subject_present", "u1", (2,)), ("label", "<i4", ())]
    if manifest.has_features:
        arrays.append(("features", "<f4", (t, 4, manifest.feature_dim)))
    if manifest.has_gt_slot:
        arrays.append(("gt_slot", "<i4", (t,)))
    if manifest.has_gt_window:
        arrays.append(("gt_window", "<i4", (2,)))
    return np.dtype(arrays)


def _encode_record(manifest: DatasetManifest, record: SequenceRecord, data: SequenceData) -> bytes:
    t = record.n_frames
    arrays = {
        "joints3d": data.seq.joints3d,
        "subject_present": data.seq.subject_present,
        "label": record.label,
        "features": data.features,
        "gt_slot": np.full(t, -1) if data.gt_slot is None else data.gt_slot,
        "gt_window": np.array([-1, -1]) if data.gt_window is None else data.gt_window,
    }
    layout = block_layout(manifest, t)
    block = np.zeros((), layout)
    for name in layout.names:
        value = arrays[name]
        if value is None:
            raise DatasetError(f"record {record.seq_id}: manifest promises {name}, none given")
        if np.shape(value) != layout[name].shape:
            raise DatasetError(f"record {record.seq_id}: {name} shape {np.shape(value)} != {layout[name].shape}")
        block[name] = value
    return block.tobytes()


def _decode_record(path: str | Path, layout: np.dtype, record: SequenceRecord, blob: bytes) -> SequenceData:
    block = np.frombuffer(blob, layout)[0]
    label = int(block["label"])
    if label != record.label:
        raise ChecksumError(
            f"{path}: record {record.seq_id}: payload label {label} != manifest label {record.label}"
        )
    joints, present = block["joints3d"].astype(np.float64), block["subject_present"].astype(bool)
    seq = PoseSequence(joints3d=joints, subject_present=present, label=label, seq_id=record.seq_id)
    names = layout.names
    # A copy, not a view of the block: the features start 6 bytes past a
    # 4-byte boundary (joints, 2 presence bytes, label), so a view would
    # be misaligned for every batch that reads it.
    features = block["features"].astype(np.float32) if "features" in names else None
    gt_slot = block["gt_slot"].copy() if "gt_slot" in names else None
    gt_window = block["gt_window"].copy() if "gt_window" in names else None
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


def write_framed(path: str | Path, magic: bytes, header: dict, blocks: Iterable) -> None:
    """Write ``path`` through ``replacing``, in the framing ``read_framed``
    reads: ``magic``, the u64 length of the JSON ``header``, the header, its
    u32 CRC32, then each of ``blocks`` (bytes, or C-contiguous arrays) as is."""
    raw = json.dumps(header, sort_keys=True).encode()
    with replacing(path, "wb") as f:
        f.write(magic)
        f.write(len(raw).to_bytes(8, "little"))
        f.write(raw)
        f.write(zlib.crc32(raw).to_bytes(4, "little"))
        for block in blocks:
            f.write(block)


@contextmanager
def read_framed(
    path: str | Path, magic: bytes, kind: str, version_key: str, version: int, advice: str
) -> Iterator[tuple[dict, Callable]]:
    """The header of a file ``write_framed`` wrote, and ``block(what, nbytes,
    crc32, into=None)``, which returns its next block once the block is
    ``nbytes`` bytes matching ``crc32`` (read straight into the C-contiguous
    array ``into`` when given).  The header must hold ``version`` under
    ``version_key``; it is checked before the header's checksum, so an older
    file fails with a ``VersionError`` ending in ``advice``.  A ``with``
    block that ends without an error checks that nothing follows the last
    block.  Each error is a ``DatasetError`` that names the file and the
    field, ``kind`` ("dataset", "checkpoint") naming the file's header.
    """
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size

        def read(n: int, what: str, into: np.ndarray | None = None) -> bytes | memoryview:
            if n > end - f.tell():
                raise TruncationError(f"{path}: file ends inside {what}")
            if into is None:
                return f.read(n)
            f.readinto(blob := memoryview(into).cast("B"))
            return blob

        def block(what: str, nbytes: int, crc32: int, into: np.ndarray | None = None) -> bytes | memoryview:
            blob = read(nbytes, what, into)
            if zlib.crc32(blob) != crc32:
                raise ChecksumError(f"{path}: {what}: checksum mismatch")
            return blob

        got = read(len(magic), "the magic")
        if got != magic:
            raise VersionError(f"{path}: bad magic {got!r}; not a {kind} file")
        raw = read(int.from_bytes(read(8, f"the {kind} header length field"), "little"), f"the {kind} header")
        try:
            header = json.loads(raw)
            found = header.get(version_key)
        except (ValueError, AttributeError):  # not JSON, or not an object: the checksum rejects it
            found = None
        if found is not None and found != version:
            raise VersionError(f"{path}: {kind} {version_key} {found} != {version}; {advice}")
        if zlib.crc32(raw) != int.from_bytes(read(4, f"the {kind} header checksum"), "little"):
            raise ChecksumError(f"{path}: {kind} header checksum mismatch")
        if found is None:
            raise ManifestError(f"{path}: {kind} header is not a JSON object with a {version_key}")
        yield header, block
        if f.tell() != end:
            raise DatasetError(f"{path}: {end - f.tell()} trailing bytes after the last block")


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write the dataset file: the manifest as header, then one block per record.

    The header holds each block's size and checksum, so every block is
    encoded twice: once to measure it, and again as it is written.  At most
    one block is held at a time.
    """
    manifest = dataset.manifest

    def blocks() -> Iterator[bytes]:
        for record in manifest.records:
            yield _encode_record(manifest, record, dataset.sequences[record.seq_id])

    for record, blob in zip(manifest.records, blocks()):
        record.nbytes = len(blob)
        record.crc32 = zlib.crc32(blob)
    write_framed(path, MAGIC, manifest.to_json(), blocks())


@contextmanager
def header_field(path: str | Path, field: str) -> Iterator[None]:
    """Raise what the block raises while it reads ``field`` of a file's
    header as a ``DatasetError`` that names the file and the field."""
    try:
        yield
    except DatasetError as e:  # duplicate ids
        raise type(e)(f"{path}: {e}") from None
    except KeyError as e:
        raise ManifestError(f"{path}: {field} field {e} is missing") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as e:  # a field of the wrong type
        raise ManifestError(f"{path}: {field}: {e}") from None


def load_dataset(path: str | Path) -> Dataset:
    """Read, check and decode a dataset file in one sequential pass, holding
    one record block at a time besides the decoded arrays.

    ``content_hash`` is the sha256 of the manifest header as stored.  The
    header lists every block's size and CRC32, and the load rejects a block
    that does not match them, so the header identifies all the data loaded.
    """
    advice = "regenerate the file with `poseattn synth`"
    with read_framed(path, MAGIC, "dataset", "format_version", FORMAT_VERSION, advice) as (header, block):
        # write_framed stored exactly this serialization of the header.
        content_hash = hashlib.sha256(json.dumps(header, sort_keys=True).encode()).hexdigest()
        with header_field(path, "manifest"):
            manifest = DatasetManifest.from_json(header)
        sequences, layouts = {}, {}
        for record in manifest.records:
            # One layout per distinct frame count: building one costs more
            # than checking and decoding a small block.
            layout = layouts.get(record.n_frames)
            if layout is None:
                with header_field(path, f"record {record.seq_id}"):
                    layout = layouts[record.n_frames] = block_layout(manifest, record.n_frames)
            if record.nbytes != layout.itemsize:
                raise ManifestError(
                    f"{path}: record {record.seq_id}: stored nbytes {record.nbytes} != {layout.itemsize} "
                    f"expected from n_frames {record.n_frames} and the manifest flags"
                )
            blob = block(f"record {record.seq_id}", record.nbytes, record.crc32)
            sequences[record.seq_id] = _decode_record(path, layout, record, blob)
    return Dataset(manifest=manifest, sequences=sequences, content_hash=content_hash)


def export_manifest_json(manifest: DatasetManifest, out_path: str | Path) -> None:
    with replacing(out_path) as f:
        f.write(json.dumps(manifest.to_json(), indent=2, sort_keys=True))


def dataset_content_hash(path: str | Path) -> str:
    """The ``content_hash`` of the dataset file at ``path``, which must load."""
    return load_dataset(path).content_hash


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
