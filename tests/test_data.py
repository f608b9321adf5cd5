import hashlib
import json
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from poseattn.data import (
    MAGIC,
    ChecksumError,
    Dataset,
    DatasetError,
    DatasetManifest,
    ManifestError,
    SequenceData,
    SequenceRecord,
    TruncationError,
    VersionError,
    assign_validation,
    dataset_content_hash,
    export_manifest_json,
    load_dataset,
    save_dataset,
)
from poseattn.pose import PoseSequence


def tiny_dataset(n=4, t=5, j=3, d=4, with_gt=True):
    rng = np.random.default_rng(0)
    records, sequences = [], {}
    for i in range(n):
        seq_id = f"seq-{i:03d}"
        label = i % 2
        seq = PoseSequence(
            joints3d=rng.normal(size=(t, 2, j, 3)).astype(np.float32).astype(np.float64),
            subject_present=np.array([True, i % 2 == 0]),
            label=label,
            seq_id=seq_id,
        )
        sequences[seq_id] = SequenceData(
            seq=seq,
            features=rng.normal(size=(t, 4, d)).astype(np.float32),
            gt_slot=np.full(t, i % 4, dtype=np.int32) if with_gt else None,
            gt_window=np.array([1, 3], dtype=np.int32) if with_gt else None,
        )
        records.append(
            SequenceRecord(
                seq_id=seq_id,
                label=label,
                split="train" if i < n - 1 else "test_seeds",
                subjects=2,
                n_frames=t,
            )
        )
    manifest = DatasetManifest(
        n_classes=2, feature_dim=d, n_joints=j, spine_joint=0,
        has_features=True, has_gt_slot=with_gt, has_gt_window=with_gt,
        records=records,
    )
    return Dataset(manifest=manifest, sequences=sequences)


def test_round_trip_is_bitwise(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "tiny.bin"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.manifest.n_classes == 2
    for rec in ds.manifest.records:
        a, b = ds.sequences[rec.seq_id], back.sequences[rec.seq_id]
        assert np.array_equal(a.seq.joints3d, b.seq.joints3d)
        assert np.array_equal(a.seq.subject_present, b.seq.subject_present)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.gt_slot, b.gt_slot)
        assert np.array_equal(a.gt_window, b.gt_window)
    # Saving the loaded dataset reproduces the file byte for byte.
    path2 = tmp_path / "tiny2.bin"
    save_dataset(path2, back)
    assert path.read_bytes() == path2.read_bytes()
    assert back.content_hash == dataset_content_hash(path)
    assert ds.content_hash == ""


def saved(tmp_path, **kw):
    path = tmp_path / "tiny.bin"
    save_dataset(path, tiny_dataset(**kw))
    return path


def split_file(path):
    """(manifest dict, payload bytes) of a saved dataset file: the payload
    starts after the manifest header's 4-byte CRC32."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16 : 16 + n]), blob[16 + n + 4 :]


def write_file(path, manifest, payload, checksum=True):
    """A dataset file of ``manifest`` (a dict, or raw header bytes) and
    ``payload``, with the header's CRC32 unless ``checksum`` is False, as
    formats 1 and 2 wrote it."""
    header = manifest if isinstance(manifest, bytes) else json.dumps(manifest, sort_keys=True).encode()
    crc = zlib.crc32(header).to_bytes(4, "little") if checksum else b""
    path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header + crc + payload)


def rewrite_manifest(path, edit):
    manifest, payload = split_file(path)
    edit(manifest)
    write_file(path, manifest, payload)


def test_truncation_names_failing_record(tmp_path):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(TruncationError, match=f"{re.escape(str(path))}: file ends inside record seq-003"):
        load_dataset(path)


@pytest.mark.parametrize(
    "keep, where", [(12, "the dataset header length field"), (40, "the dataset header")]
)
def test_truncated_header_names_the_file(tmp_path, keep, where):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(TruncationError, match=f"{re.escape(str(path))}: file ends inside {where}"):
        load_dataset(path)


def test_checksum_failure_detected(tmp_path):
    path = saved(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError, match=f"{re.escape(str(path))}: record seq-003: checksum"):
        load_dataset(path)


def test_bad_magic_is_version_error(tmp_path):
    path = saved(tmp_path)
    path.write_bytes(b"NOTADATA" + path.read_bytes()[8:])
    with pytest.raises(VersionError, match=f"{re.escape(str(path))}: bad magic"):
        load_dataset(path)


@pytest.mark.parametrize("header", [b"#{}", b"[3]", b'{"n_classes": 2}'], ids=["not-json", "list", "no-version"])
def test_header_that_is_not_a_versioned_object_names_the_file(tmp_path, header):
    # The header's checksum matches, so only the reader's check of its content catches it.
    path = saved(tmp_path)
    write_file(path, header, split_file(path)[1])
    with pytest.raises(
        ManifestError, match=f"{re.escape(str(path))}: dataset header is not a JSON object with a format_version"
    ):
        load_dataset(path)


def test_a_changed_header_byte_is_a_checksum_error(tmp_path):
    path = saved(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[16] = ord("#")  # the manifest's opening brace
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError, match=f"{re.escape(str(path))}: dataset header checksum mismatch"):
        load_dataset(path)


def test_missing_manifest_field_names_the_file_and_field(tmp_path):
    path = saved(tmp_path)
    rewrite_manifest(path, lambda m: m.pop("n_classes"))
    with pytest.raises(ManifestError, match=f"{re.escape(str(path))}: manifest field 'n_classes' is missing"):
        load_dataset(path)


def test_frame_count_that_disagrees_with_the_block_size(tmp_path):
    path = saved(tmp_path)
    nbytes = split_file(path)[0]["records"][0]["nbytes"]

    def more_frames(m):
        m["records"][0]["n_frames"] += 1

    rewrite_manifest(path, more_frames)
    # 5 frames of 3 joints, 4-dim features, gt slot and window: 5 * 140 + 14 bytes.
    assert nbytes == 714
    with pytest.raises(
        ManifestError, match=f"{re.escape(str(path))}: record seq-000: stored nbytes 714 != 854 expected"
    ):
        load_dataset(path)


def test_trailing_bytes_name_the_file(tmp_path):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DatasetError, match=f"{re.escape(str(path))}: 1 trailing bytes"):
        load_dataset(path)


def write_version_1(path, ds):
    """The file format 1 wrote: a hands2d block (T, 4, 2) f32 after the joints
    of each record, and each record's payload offset in the manifest."""
    save_dataset(path, ds)
    manifest, payload = split_file(path)
    manifest["format_version"] = 1
    blocks, pos, offset = [], 0, 0
    for rec in manifest["records"]:
        block = payload[pos : pos + rec["nbytes"]]
        pos += rec["nbytes"]
        joints = rec["n_frames"] * 2 * manifest["n_joints"] * 3 * 4
        hands = np.zeros((rec["n_frames"], 4, 2), dtype="<f4").tobytes()
        block = block[:joints] + hands + block[joints:]
        rec.update(offset=offset, nbytes=len(block), crc32=zlib.crc32(block))
        offset += len(block)
        blocks.append(block)
    write_file(path, manifest, b"".join(blocks), checksum=False)


def write_version_2(path, ds):
    """The file format 2 wrote: format 3 without the header's CRC32."""
    save_dataset(path, ds)
    manifest, payload = split_file(path)
    manifest["format_version"] = 2
    write_file(path, manifest, payload, checksum=False)


@pytest.mark.parametrize("version, write", [(1, write_version_1), (2, write_version_2)])
def test_old_format_file_must_be_regenerated(tmp_path, version, write):
    path = tmp_path / f"v{version}.bin"
    write(path, tiny_dataset())
    with pytest.raises(VersionError) as err:
        load_dataset(path)
    message = str(err.value)
    assert message.startswith(f"{path}: dataset format_version {version} != 3")
    assert "poseattn synth" in message


def test_wrong_format_version_rejected(tmp_path):
    path = saved(tmp_path)
    rewrite_manifest(path, lambda m: m.update(format_version=99))
    with pytest.raises(VersionError, match=f"{re.escape(str(path))}: dataset format_version 99 != 3"):
        load_dataset(path)


def test_duplicate_ids_rejected():
    ds = tiny_dataset()
    records = ds.manifest.records
    with pytest.raises(DatasetError, match="duplicate"):
        DatasetManifest(
            n_classes=2, feature_dim=4, n_joints=3,
            records=[records[0], records[0]],
        )


def test_manifest_label_payload_consistency(tmp_path):
    path = saved(tmp_path)

    def flip_label(m):
        m["records"][0]["label"] = 1 - m["records"][0]["label"]

    rewrite_manifest(path, flip_label)
    with pytest.raises(
        ChecksumError, match=f"{re.escape(str(path))}: record seq-000: payload label 0 != manifest label 1"
    ):
        load_dataset(path)


def test_validation_split_reproducible():
    def records():
        return [
            SequenceRecord(seq_id=f"s{i}", label=0, split="train", subjects=2, n_frames=4)
            for i in range(100)
        ]

    a, b = records(), records()
    assign_validation(a, 0.05, np.random.default_rng(7))
    assign_validation(b, 0.05, np.random.default_rng(7))
    val_a = [r.seq_id for r in a if r.split == "val"]
    val_b = [r.seq_id for r in b if r.split == "val"]
    assert val_a == val_b
    assert len(val_a) == 5


def test_manifest_export(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "tiny.bin"
    save_dataset(path, ds)
    out = tmp_path / "manifest.json"
    export_manifest_json(ds.manifest, out)
    parsed = json.loads(out.read_text())
    assert parsed == split_file(path)[0]
    assert parsed["n_classes"] == 2
    assert len(parsed["records"]) == 4


def test_content_hash_changes_with_content(tmp_path):
    ds = tiny_dataset()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(p1, ds)
    save_dataset(p2, ds)
    assert dataset_content_hash(p1) == dataset_content_hash(p2)
    ds.sequences["seq-002"].features[3, 1, 2] += 1.0
    save_dataset(p2, ds)
    assert dataset_content_hash(p1) != dataset_content_hash(p2)
    blob = bytearray(p1.read_bytes())
    blob[-1] ^= 1
    p1.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError, match=f"{re.escape(str(p1))}: record seq-003: checksum mismatch"):
        load_dataset(p1)


def test_content_hash_is_the_sha256_of_the_stored_header(tmp_path):
    path = saved(tmp_path)
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    assert load_dataset(path).content_hash == hashlib.sha256(blob[16 : 16 + n]).hexdigest()


def test_save_holds_one_encoded_block_at_a_time(tmp_path):
    dataset = tiny_dataset(n=16, t=20, d=512)  # 20 x 4 x 512 f4 features: about 160 kB a block
    block = 20 * 4 * 512 * 4
    tracemalloc.start()
    try:
        save_dataset(tmp_path / "d.bin", dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Encoding one block takes about three block-sized buffers; holding
    # every block would peak above 16 of them.
    assert peak < 6 * block, peak


def test_load_holds_few_blocks(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(path, tiny_dataset(n=16, t=20, d=512))  # 20 x 4 x 512 f4 features: about 160 kB a block
    block = 20 * 4 * 512 * 4
    tracemalloc.start()
    try:
        dataset = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(
        a.nbytes
        for s in dataset.sequences.values()
        for a in (s.seq.joints3d, s.seq.subject_present, s.features, s.gt_slot, s.gt_window)
    )
    # One block being read and decoded; holding every block would peak 16
    # blocks above the arrays kept.
    assert peak - kept < 4 * block, (peak - kept) / block


# Seeded corruptions of a real multi-record file.  Each case loads the
# corrupt bytes; an exception that is not a DatasetError fails the test.
CORRUPTION_SEED = 20170


def section_bounds(path):
    """Offsets at which the magic, the length field, the header, its
    checksum and each record block start, then the file's end."""
    manifest, payload = split_file(path)
    first_block = path.stat().st_size - len(payload)
    bounds = [0, len(MAGIC), len(MAGIC) + 8, first_block - 4, first_block]
    for rec in manifest["records"]:
        bounds.append(bounds[-1] + rec["nbytes"])
    return bounds


def load_corrupt(path, blob):
    """``load_dataset`` of ``blob`` written at ``path``: the Dataset, or None
    when it raised a DatasetError, whose message must name the file."""
    path.write_bytes(blob)
    try:
        return load_dataset(path)
    except DatasetError as e:
        assert str(path) in str(e), e
        return None


def flipped(blob, bit):
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.fixture
def corruptible(tmp_path):
    """A saved six-record file, its bytes, its section bounds and a path for corrupt copies."""
    path = saved(tmp_path, n=6)
    whole = path.read_bytes()
    bounds = section_bounds(path)
    assert bounds[-1] == len(whole)
    return whole, bounds, tmp_path / "corrupt.bin"


def test_every_truncation_names_the_file(corruptible):
    whole, bounds, path = corruptible
    rng = np.random.default_rng(CORRUPTION_SEED)
    cuts = set(bounds[:-1]) | {b - 1 for b in bounds[1:]} | set(rng.integers(0, len(whole), 64).tolist())
    for cut in sorted(cuts):
        path.write_bytes(whole[:cut])
        with pytest.raises(TruncationError, match=f"{re.escape(str(path))}: file ends inside"):
            load_dataset(path)


def test_every_flipped_bit_in_the_magic_or_length_field_names_the_file(corruptible):
    whole, bounds, path = corruptible
    for bit in range(8 * bounds[2]):
        assert load_corrupt(path, flipped(whole, bit)) is None, bit


def test_a_flipped_bit_in_every_block_is_a_checksum_error(corruptible):
    whole, bounds, path = corruptible
    rng = np.random.default_rng(CORRUPTION_SEED)
    ids = [r["id"] for r in json.loads(whole[bounds[2] : bounds[3]])["records"]]
    for seq_id, lo, hi in zip(ids, bounds[4:], bounds[5:]):
        for bit in rng.integers(8 * lo, 8 * hi, 8):
            path.write_bytes(flipped(whole, bit))
            with pytest.raises(ChecksumError, match=f"{re.escape(str(path))}: record {seq_id}: checksum"):
                load_dataset(path)


def test_a_flipped_bit_in_the_header_or_its_checksum_fails(corruptible):
    whole, bounds, path = corruptible
    rng = np.random.default_rng(CORRUPTION_SEED)
    for bit in rng.integers(8 * bounds[2], 8 * bounds[4], 400):
        assert load_corrupt(path, flipped(whole, bit)) is None, bit


def set_field(key, value):
    def edit(m):
        m["records"][2][key] = value
    return edit


@pytest.mark.parametrize(
    "edit, error",
    [
        (set_field("nbytes", 715), ManifestError),
        (set_field("crc32", 0), ChecksumError),
        (lambda m: m["records"][2].pop("crc32"), ManifestError),
        (set_field("n_frames", "five"), ManifestError),
        (set_field("n_frames", float("inf")), ManifestError),
        (set_field("label", [0]), ManifestError),
        (lambda m: m.update(records={"seq-000": {}}), ManifestError),
        (lambda m: m.update(has_gt_slot=None), ManifestError),
    ],
    ids=[
        "nbytes", "crc32", "missing-crc32", "n_frames-str", "n_frames-inf", "label-list",
        "records-object", "has_gt_slot-null",
    ],
)
def test_a_manifest_edit_names_the_file(corruptible, edit, error):
    # Edits of n_frames, label and a top-level field have tests of their own above.
    whole, _, path = corruptible
    path.write_bytes(whole)
    rewrite_manifest(path, edit)
    with pytest.raises(error, match=re.escape(str(path))):
        load_dataset(path)
