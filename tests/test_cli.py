import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import poseattn
from poseattn.cli import _config_from_args, build_parser, main
from poseattn.data import DatasetError, dataset_content_hash, load_dataset, save_dataset
from poseattn.synth import SyntheticSpec
from poseattn.training import THREAD_ENV, RunConfig, load_checkpoint


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ah.bin"
    code = main([
        "synth", "--kind", "active_hand", "--out", str(out),
        "--counts", "40", "10", "10", "--seed", "0",
        "--manifest-out", str(out.with_suffix(".json")),
    ])
    assert code == 0
    return out


TRAIN_FLAGS = [
    "--conditioning", "pose", "--no-temporal", "--feat-dim", "16",
    "--rgb-hidden", "10", "--attn-hidden", "10", "--lr", "0.002",
    "--dropout", "0", "--max-epochs", "1", "--batch-size", "16", "--seed", "0",
]


@pytest.mark.parametrize("counts, rate", [(["40", "5", "10"], 0.4), (["40", "0", "10"], None)])
def test_synth_accepts_a_split_whose_labels_are_not_balanced_or_that_is_empty(tmp_path, counts, rate):
    # 5 test sequences of 4 classes: the slot-sum predicts the label at the
    # split's label prior, 0.4, above chance.  An empty split has no rate.
    out = tmp_path / "ah.bin"
    assert main(["synth", "--kind", "active_hand", "--out", str(out), "--counts", *counts]) == 0
    assert load_dataset(out).manifest.provenance["sum_bayes_rate"].get("test_seeds") == rate


def test_synth_writes_dataset_and_manifest(dataset_path):
    assert dataset_path.exists()
    manifest = json.loads(dataset_path.with_suffix(".json").read_text())
    assert manifest["n_classes"] == 4
    assert len(manifest["records"]) == 60


def test_train_eval_and_dump_attention(dataset_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = main(
        ["train", "--dataset", str(dataset_path), "--out", str(run_dir)] + TRAIN_FLAGS
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "test accuracy" in out
    assert (run_dir / "checkpoint.bin").exists()

    code = main([
        "eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
        "--dataset", str(dataset_path), "--split", "test_seeds",
    ])
    assert code == 0
    assert "accuracy" in capsys.readouterr().out

    dump = tmp_path / "attn.jsonl"
    code = main([
        "dump-attention", "--checkpoint", str(run_dir / "checkpoint.bin"),
        "--dataset", str(dataset_path), "--split", "test_seeds",
        "--out", str(dump), "--limit", "5",
    ])
    assert code == 0
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(records) == 5
    for rec in records:
        assert len(rec["p"]) == 20 and len(rec["p"][0]) == 4
        assert {"sequence_id", "predicted", "true", "gt_active_slot"} <= set(rec)
        np.testing.assert_allclose(np.sum(rec["p"], axis=1), 1.0, atol=1e-9)


def test_cli_determinism_bitwise(dataset_path, tmp_path):
    run_dir = tmp_path / "det"
    argv = ["train", "--dataset", str(dataset_path), "--out", str(run_dir)] + TRAIN_FLAGS
    assert main(argv) == 0
    first = (run_dir / "metrics.csv").read_bytes()
    first_ckpt = (run_dir / "checkpoint.bin").read_bytes()
    assert main(argv) == 0
    assert (run_dir / "metrics.csv").read_bytes() == first
    assert (run_dir / "checkpoint.bin").read_bytes() == first_ckpt


def test_ablate_subset(dataset_path, tmp_path, capsys):
    code = main([
        "ablate", "--dataset", str(dataset_path), "--out", str(tmp_path / "grid"),
        "--rows", "sum,sa_pose", "--seeds", "0", "--no-dumps",
        "--feat-dim", "16", "--rgb-hidden", "8", "--attn-hidden", "8",
        "--max-epochs", "1", "--dropout", "0", "--batch-size", "16",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sa_pose" in out
    assert (tmp_path / "grid" / "grid.csv").exists()


def test_ablate_writes_the_same_bits_with_the_thread_variables_unset_or_one(dataset_path, tmp_path):
    # poseattn pins BLAS and OpenMP to one thread unless the caller set them.
    # Unpinned, OpenBLAS would run one thread per CPU, and the gradient of
    # gru.U over a 20-window batch, (96, 400) @ (400, 48), would change bits.
    src = str(Path(poseattn.__file__).resolve().parent.parent)
    grid = tmp_path / "grid"  # the checkpoint header holds out_dir
    runs = []
    for value in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if value is not None:
            env.update(dict.fromkeys(THREAD_ENV, value))
        subprocess.run([
            sys.executable, "-m", "poseattn.cli", "ablate", "--dataset", str(dataset_path), "--out", str(grid),
            "--rows", "sa_pose", "--seeds", "0", "--no-dumps", "--feat-dim", "16", "--rgb-hidden", "48",
            "--attn-hidden", "8", "--max-epochs", "2", "--dropout", "0", "--batch-size", "20",
        ], env=env, check=True, capture_output=True)
        cell = grid / "sa_pose-seed0"
        timing = json.loads((cell / "timing.json").read_text())
        assert timing["thread_env"] == dict.fromkeys(THREAD_ENV, "1")
        assert timing["numpy_loaded_before_pin"] is False
        runs.append({name: (cell / name).read_bytes() for name in ("metrics.csv", "result.json", "checkpoint.bin")})
        shutil.rmtree(grid)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("rows, seed", [("sum,bogus", "0"), ("sum", "-1")])
def test_bad_grid_cell_fails_before_any_cell_trains(dataset_path, tmp_path, capsys, rows, seed):
    grid = tmp_path / "grid"
    code = main([
        "ablate", "--dataset", str(dataset_path), "--out", str(grid), "--rows", rows,
        "--seeds", seed, "--no-dumps", "--feat-dim", "16", "--rgb-hidden", "8",
        "--max-epochs", "1", "--dropout", "0", "--batch-size", "16",
    ])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert not grid.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_workers_is_usage_error_before_any_file_is_read(tmp_path, capsys, workers):
    grid = tmp_path / "grid"
    code = main([
        "ablate", "--dataset", str(tmp_path / "missing.bin"), "--out", str(grid),
        "--rows", "sum", "--seeds", "0", "--workers", workers,
    ])
    assert code == 1  # not 2: the missing dataset is never opened
    assert "--workers" in capsys.readouterr().err
    assert not grid.exists()


def test_negative_dump_limit_is_usage_error_before_any_file_is_read(tmp_path, capsys):
    out = tmp_path / "attn.jsonl"
    code = main([
        "dump-attention", "--checkpoint", str(tmp_path / "missing.ckpt"),
        "--dataset", str(tmp_path / "missing.bin"), "--out", str(out), "--limit", "-1",
    ])
    assert code == 1  # not 2: neither missing file is opened
    assert "--limit" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_against_other_feature_dim_is_data_error(dataset_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset_path), "--out", str(run_dir)] + TRAIN_FLAGS) == 0
    other = tmp_path / "other.bin"
    assert main([
        "synth", "--kind", "active_hand", "--out", str(other), "--feat-dim", "24",
        "--counts", "8", "4", "4", "--seed", "1",
    ]) == 0
    capsys.readouterr()
    ckpt = ["--checkpoint", str(run_dir / "checkpoint.bin"), "--dataset", str(other)]
    assert main(["eval"] + ckpt) == 2
    assert "feature dim" in capsys.readouterr().err
    assert main(["dump-attention"] + ckpt + ["--out", str(tmp_path / "attn.jsonl")]) == 2
    assert "feature dim" in capsys.readouterr().err
    assert not (tmp_path / "attn.jsonl").exists()


def test_checkpoint_against_other_dataset_is_data_error_unless_allowed(dataset_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset_path), "--out", str(run_dir)] + TRAIN_FLAGS) == 0
    other = tmp_path / "other.bin"  # same dimensions and splits, another seed
    assert main([
        "synth", "--kind", "active_hand", "--out", str(other),
        "--counts", "40", "10", "10", "--seed", "1",
    ]) == 0
    capsys.readouterr()
    ckpt = ["--checkpoint", str(run_dir / "checkpoint.bin"), "--dataset", str(other)]
    dump = ["--out", str(tmp_path / "attn.jsonl"), "--limit", "3"]
    trained_on = (run_dir / "dataset_hash.txt").read_text().strip()
    for argv in (["eval"] + ckpt, ["dump-attention"] + ckpt + dump):
        assert main(argv) == 2
        err = capsys.readouterr().err
        for name in ("checkpoint.bin", "other.bin", trained_on, dataset_content_hash(other)):
            assert name in err
        assert not (tmp_path / "attn.jsonl").exists()
    assert main(["eval"] + ckpt + ["--allow-other-dataset"]) == 0
    assert main(["dump-attention"] + ckpt + dump + ["--allow-other-dataset"]) == 0
    assert len((tmp_path / "attn.jsonl").read_text().splitlines()) == 3


def test_featureless_dataset_trains_pose_and_rejects_rgb_as_data_error(dataset_path, tmp_path, capsys):
    dataset = load_dataset(dataset_path)
    dataset.manifest.has_features = False
    dataset.manifest.feature_dim = 0
    for seq in dataset.sequences.values():
        seq.features = None
    bare = tmp_path / "bare.bin"
    save_dataset(bare, dataset)
    run_dir = tmp_path / "run"
    argv = ["train", "--dataset", str(bare), "--out", str(run_dir), "--pose-hidden", "8"] + TRAIN_FLAGS
    assert main(argv + ["--variant", "pose"]) == 0
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--dataset", str(bare)]) == 0
    capsys.readouterr()
    assert main(argv + ["--variant", "rgb"]) == 2
    assert str(bare) in capsys.readouterr().err
    # An RGB checkpoint is refused on it too, before any stream reads features.
    rgb_dir = tmp_path / "rgb"
    assert main(["train", "--dataset", str(dataset_path), "--out", str(rgb_dir)] + TRAIN_FLAGS) == 0
    capsys.readouterr()
    ckpt = ["--checkpoint", str(rgb_dir / "checkpoint.bin"), "--dataset", str(bare), "--allow-other-dataset"]
    assert main(["eval"] + ckpt) == 2
    assert f"dataset '{bare}' has no hand features" in capsys.readouterr().err


def test_every_config_flag_sets_its_field(tmp_path):
    flags = {
        "--dataset": "d.bin", "--variant": "pose", "--conditioning": "both", "--pooling": "last",
        "--clip-len": "7", "--feat-dim": "9", "--rgb-hidden": "3", "--pose-hidden": "4",
        "--pose-layers": "2", "--attn-hidden": "5", "--temporal-hidden": "6", "--lr": "0.5",
        "--batch-size": "2", "--dropout": "0.25", "--max-epochs": "8", "--patience": "3", "--seed": "11",
    }
    argv = ["train", *(x for pair in flags.items() for x in pair), "--no-temporal", "--out", str(tmp_path)]
    config = _config_from_args(build_parser().parse_args(argv)).to_json()
    default = RunConfig().to_json()
    assert {k for k in config if config[k] != default[k]} == {
        "dataset", "variant", "conditioning", "use_temporal", "pooling", "clip_len", "feat_dim",
        "rgb_hidden", "pose_hidden", "pose_layers", "attn_hidden", "temporal_hidden", "lr",
        "batch_size", "dropout", "max_epochs", "patience", "seed", "out_dir",
    }
    assert config["out_dir"] == str(tmp_path) and config["lr"] == 0.5 and config["clip_len"] == 7


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all cells pass" in out
    assert "seconds" in out.splitlines()[0]
    assert re.search(r"^11 cells on \d+ worker\(s\) in \d+\.\d\d s$", out, re.MULTILINE)


def test_usage_error_exit_code_1():
    assert main(["train", "--no-such-flag"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize(
    "flag, value", [("--batch-size", "0"), ("--dropout", "1.0"), ("--lr", "-1"), ("--seed", "-1")]
)
def test_out_of_range_config_is_usage_error(dataset_path, tmp_path, capsys, flag, value):
    argv = ["train", "--dataset", str(dataset_path), "--out", str(tmp_path / "run")]
    assert main(argv + TRAIN_FLAGS + [flag, value]) == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[1]", "config must be a JSON object, got list"),
        ('{"no_such_field": 1}', "unknown config fields: ['no_such_field']"),
        ('{"config_version": 2}', "config version 2 != supported 1"),
        ('{"lr": ', "Expecting value"),
        ('{"lr": -1}', "config lr: must be a number"),
    ],
    ids=["list", "unknown-field", "other-version", "not-json", "out-of-range"],
)
def test_config_file_that_is_no_config_is_usage_error_naming_it(tmp_path, capsys, text, reason):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--seed", "7", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"usage error: config file {path}: {reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def checkpoint_path(dataset_path, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("ckpt") / "run"
    assert main(["train", "--dataset", str(dataset_path), "--out", str(run_dir)] + TRAIN_FLAGS) == 0
    return run_dir / "checkpoint.bin"


def rewrite_header(src, dst, edit) -> None:
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its JSON
    header, and the header's checksum recomputed."""
    blob = src.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    meta = json.loads(blob[16:header_end])
    edit(meta)
    header = json.dumps(meta, sort_keys=True).encode()
    dst.write_bytes(
        blob[:8] + len(header).to_bytes(8, "little") + header + zlib.crc32(header).to_bytes(4, "little")
        + blob[header_end + 4 :]
    )


def test_checkpoint_with_an_invalid_config_is_data_error(dataset_path, checkpoint_path, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    rewrite_header(checkpoint_path, bad, lambda meta: meta["config"].update(batch_size=0))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_path)]) == 2
    assert f"{bad}: checkpoint config: config batch_size:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda meta: meta.pop("dims"), "'dims'"),
        (lambda meta: meta["dims"].update(clip_len=-1), "clip_len"),
        (lambda meta: meta.update(streams=[1]), "'streams'"),
        (lambda meta: meta.update(streams={}), "'streams'"),
        (lambda meta: meta.update(dataset_hash=None), "'dataset_hash'"),
        (lambda meta: meta.update(dataset_hash="x"), "'dataset_hash'"),
        (lambda meta: meta.update(dataset_hash="0" * 63), "'dataset_hash'"),
        (lambda meta: meta.update(partial="x"), "'partial'"),
        (lambda meta: meta["streams"]["rgb"].update(params=[1]), "'params'"),
        (lambda meta: meta["streams"]["rgb"]["params"]["head.b"].pop("crc32"), "'crc32'"),
        (lambda meta: meta["streams"]["rgb"].pop("best_epoch"), "'best_epoch'"),
        (lambda meta: meta["streams"]["rgb"].update(best_epoch=-1), "'best_epoch'"),
        (lambda meta: meta["streams"]["rgb"].update(best_val_acc="x"), "'best_val_acc'"),
        (lambda meta: meta["streams"].update(video=meta["streams"].pop("rgb")), "'streams'"),
    ],
    ids=[
        "no dims", "negative clip_len", "streams a list", "no streams", "null dataset_hash", "dataset_hash x",
        "dataset_hash of 63 digits", "partial a string", "params a list",
        "no crc32", "no best_epoch", "negative best_epoch", "best_val_acc a string", "stream of another name",
    ],
)
def test_bad_checkpoint_header_field_is_data_error_naming_file_and_field(
    dataset_path, checkpoint_path, tmp_path, capsys, edit, field
):
    bad = tmp_path / "bad.bin"
    rewrite_header(checkpoint_path, bad, edit)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: checkpoint" in err and field in err
    assert "Traceback" not in err


def _header_fields(node, path=()):
    """The path of every field of a JSON header, containers and their members."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _header_fields(value, path + (key,))


def _mutate(meta, path, how):
    *parents, key = path
    for p in parents:
        meta = meta[p]
    if how == "dropped":
        del meta[key]
    else:
        meta[key] = how


def test_no_mutation_of_a_checkpoint_header_escapes_as_a_bare_error(dataset_path, tmp_path):
    run = tmp_path / "run"
    flags = ["--variant", "two_stream", "--pose-hidden", "4", "--pose-layers", "2"]
    assert main(["train", "--dataset", str(dataset_path), "--out", str(run)] + TRAIN_FLAGS + flags) == 0
    good = run / "checkpoint.bin"
    blob = good.read_bytes()
    fields = list(_header_fields(json.loads(blob[16 : 16 + int.from_bytes(blob[8:16], "little")])))
    assert len(fields) > 80
    bad, outcomes, escaped = tmp_path / "bad.bin", [], []
    for path in fields:
        for how in ("dropped", "x", None, [1], -1):
            rewrite_header(good, bad, lambda meta: _mutate(meta, path, how))
            try:
                load_checkpoint(bad)
                outcomes.append("loaded")
            except DatasetError as e:
                assert str(bad) in str(e)
                outcomes.append("rejected")
            except Exception as e:
                escaped.append(f"{'.'.join(path)} = {how!r}: {type(e).__name__}: {e}")
    assert not escaped, escaped
    assert outcomes.count("rejected") > outcomes.count("loaded")


@pytest.mark.parametrize("field, value", [("dataset", ["x"]), ("dataset", 3), ("out_dir", 7)])
def test_a_config_path_that_is_no_string_is_usage_error_naming_the_field(tmp_path, capsys, field, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({field: value}))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: config file {path}: config {field}: must be a path string, got {value!r}" in err


@pytest.mark.parametrize("rows, seeds, repeat", [("sum,sum", ["0"], "row 'sum'"), ("sum", ["0", "0"], "seed 0")])
def test_repeated_grid_row_or_seed_is_usage_error_before_any_cell(dataset_path, tmp_path, capsys, rows, seeds, repeat):
    grid = tmp_path / "grid"
    code = main([
        "ablate", "--dataset", str(dataset_path), "--out", str(grid), "--rows", rows, "--seeds", *seeds,
        "--two-stream", "--no-dumps", "--feat-dim", "16", "--rgb-hidden", "8", "--max-epochs", "1",
    ])
    assert code == 1
    assert f"usage error: grid {repeat} is given more than once" in capsys.readouterr().err
    assert not grid.exists()


def test_bare_synth_records_the_spec_defaults(tmp_path):
    out = tmp_path / "te.bin"
    assert main(["synth", "--kind", "temporal_event", "--out", str(out)]) == 0
    spec = dataclasses.asdict(SyntheticSpec(kind="temporal_event"))
    assert load_dataset(out).manifest.provenance["spec"] == {
        k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()
    }


@pytest.mark.parametrize(
    "flag, value",
    [("--eps", "0.1"), ("--eps", "nan"), ("--tol", "0"), ("--tol", "nan"), ("--seed", "-1")],
)
def test_bad_gradcheck_flag_is_usage_error_before_any_cell(monkeypatch, capsys, flag, value):
    import poseattn.cli

    ran = []
    monkeypatch.setattr(poseattn.cli, "run_gradcheck", lambda *a, **kw: ran.append(a) or [])
    assert main(["gradcheck", flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not ran


def test_data_error_exit_code_2(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "missing.bin")]) == 2
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a dataset")
    assert main(["eval", "--checkpoint", str(bad), "--dataset", str(bad)]) == 2


def test_numeric_failure_exit_code_3(monkeypatch):
    import poseattn.cli
    from poseattn.verify import GradCheckCell

    def failing(*args, **kwargs):
        return [
            GradCheckCell(
                name="pose", passed=False, max_rel_error=0.5,
                worst_param="gru.W_c", n_params=1, failures=[("gru.W_c", 0.5)],
            )
        ]

    monkeypatch.setattr(poseattn.cli, "run_gradcheck", failing)
    assert main(["gradcheck"]) == 3


def test_output_root_env_var(dataset_path, tmp_path, monkeypatch):
    monkeypatch.setenv("POSEATTN_OUTPUT_ROOT", str(tmp_path))
    code = main(["train", "--dataset", str(dataset_path), "--out", "rooted"] + TRAIN_FLAGS)
    assert code == 0
    assert (tmp_path / "rooted" / "checkpoint.bin").exists()
