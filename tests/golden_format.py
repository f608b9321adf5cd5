"""Golden digests of the dataset file format.

``digests()`` saves a small dataset of each synthetic kind, and one saved
without hand features, and returns the sha256 of each file's bytes and its
loaded ``content_hash``.  ``tests/test_data.py`` compares them with
``golden_format.json``, so any change to the bytes a dataset file holds
fails Tier-1.  After a deliberate format change, rewrite the digests with

    PYTHONPATH=src python tests/golden_format.py --write
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from poseattn.data import load_dataset, save_dataset
from poseattn.synth import KINDS, SyntheticSpec, generate

GOLDEN = Path(__file__).with_name("golden_format.json")
SMALL = dict(n_classes=2, feat_dim=8, clip_len=4, event_width=2, counts=(6, 3, 3), seed=7)


def datasets() -> dict:
    """Name -> a small in-memory dataset: one per synthetic kind, and the
    ``combined`` one without hand features."""
    out = {kind: generate(SyntheticSpec(kind=kind, **SMALL)) for kind in KINDS}
    featureless = generate(SyntheticSpec(kind="combined", **SMALL))
    featureless.manifest.has_features = False
    featureless.manifest.feature_dim = 0
    for seq in featureless.sequences.values():
        seq.features = None
    out["featureless"] = featureless
    return out


def digests() -> dict:
    """Name -> {"file": sha256 of the saved bytes, "content_hash": of its load}."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, dataset in datasets().items():
            path = Path(tmp) / f"{name}.bin"
            save_dataset(path, dataset)
            out[name] = {
                "file": hashlib.sha256(path.read_bytes()).hexdigest(),
                "content_hash": load_dataset(path).content_hash,
            }
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {GOLDEN.name})")
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
