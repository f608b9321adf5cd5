"""Command-line harness.

Subcommands: ``synth`` (generate a dataset), ``train``, ``eval``,
``ablate``, ``gradcheck``, ``dump-attention``.  Configuration comes from a
versioned JSON file with flag overrides; ``POSEATTN_OUTPUT_ROOT`` anchors
relative output paths.  Exit codes: 0 success, 1 usage (bad flags or
config values), 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from time import perf_counter

from .ablation import GRID_ROWS, format_table, run_ablation
from .data import SPLITS, DatasetError, export_manifest_json, load_dataset, save_dataset
from .gradcheck import EPS_RANGE
from .synth import KINDS, SyntheticSpec, generate
from .tensor import GraphError, NumericError, ShapeError
from .training import (
    CONFIG_CHOICES,
    ConfigError,
    ModelDims,
    RunConfig,
    dump_attention,
    evaluate,
    load_checkpoint,
    predict_logits,
    run_train,
)
from .verify import TinyDims, format_report, gradcheck_workers, run_gradcheck

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _out_path(path: str) -> Path:
    root = os.environ.get("POSEATTN_OUTPUT_ROOT")
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags below override it")
    p.add_argument("--dataset", help="dataset file")
    p.add_argument("--out", help="output directory")
    for name, choices in CONFIG_CHOICES.items():
        p.add_argument(f"--{name}", choices=choices)
    ta = p.add_mutually_exclusive_group()
    ta.add_argument("--temporal", dest="use_temporal", action="store_true", default=None)
    ta.add_argument("--no-temporal", dest="use_temporal", action="store_false", default=None)
    # One flag per number in the config, in field order: --clip-len ... --seed.
    for f in fields(RunConfig):
        if type(f.default) in (int, float) and f.name != "config_version":
            p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default))


def _add_checkpoint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test_seeds")
    p.add_argument(
        "--allow-other-dataset", action="store_true",
        help="use a dataset other than the one the checkpoint was trained on",
    )


def _given(args: argparse.Namespace, cls: type) -> dict:
    """The given flags that name a field of the dataclass ``cls``, lists as tuples."""
    names = {f.name for f in fields(cls)}
    return {k: tuple(v) if isinstance(v, list) else v for k, v in vars(args).items() if k in names and v is not None}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with every given flag that names a
    ``RunConfig`` field laid over it, and ``--out`` as ``out_dir``."""
    overrides = _given(args, RunConfig)
    if getattr(args, "out", None):
        overrides["out_dir"] = str(_out_path(args.out))
    if args.config:
        return RunConfig.load(args.config, overrides)
    return RunConfig.from_json({**RunConfig().to_json(), **overrides})


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(**_given(args, SyntheticSpec))  # flags not given keep their defaults
    try:
        spec.validate()
    except ValueError as e:
        raise ConfigError(f"synth: {e}") from None
    dataset = generate(spec)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(out, dataset)
    if args.manifest_out:
        export_manifest_json(dataset.manifest, _out_path(args.manifest_out))
    counts = {s: len(dataset.manifest.split_ids(s)) for s in SPLITS}
    print(f"wrote {out} ({counts})")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.dataset:
        raise DatasetError("train needs --dataset or a config with one")
    result = run_train(config)
    for name, trained in result.streams.items():
        print(
            f"{name}: best val acc {trained.best_val_acc:.4f} at epoch {trained.best_epoch} "
            f"({len(trained.rows)} epochs run)"
        )
    for split, acc in result.test_acc.items():
        print(f"test accuracy [{split}]: {acc:.4f}")
    return EXIT_OK


def _load_for_eval(args: argparse.Namespace):
    """The checkpoint's config and streams, the prepared dataset and the split's ids."""
    config, _, streams = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.dataset)
    # The checks training made of its dataset, made of this one.
    ModelDims.from_dataset(dataset, replace(config, dataset=args.dataset))
    first = next(iter(streams.values()))
    trained_on = first["dataset_hash"]
    given = dataset.content_hash
    if trained_on != given and not args.allow_other_dataset:
        raise DatasetError(
            f"checkpoint {args.checkpoint} was trained on dataset hash {trained_on or '(none recorded)'}, "
            f"but dataset {args.dataset} hashes to {given}; pass --allow-other-dataset to use it anyway"
        )
    ids = dataset.manifest.split_ids(args.split)
    if not ids:
        raise DatasetError(f"split {args.split!r} is empty")
    if first["partial"]:
        print(f"note: checkpoint {args.checkpoint} is partial: training stopped on a numeric failure", file=sys.stderr)
    models = [s["stream"] for s in streams.values()]
    return config, models, dataset.prepared, ids


def _cmd_eval(args: argparse.Namespace) -> int:
    config, models, prepared, ids = _load_for_eval(args)
    acc = evaluate(models, prepared, ids, config.clip_len)
    print(f"accuracy [{args.split}]: {acc:.4f}")
    return EXIT_OK


def _cmd_ablate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers {args.workers} must be >= 1")
    base = _config_from_args(args)
    if not base.dataset:
        raise DatasetError("ablate needs --dataset or a config with one")
    out = _out_path(args.out) if args.out else Path(base.out_dir or "ablation")
    base = replace(base, out_dir="")
    rows = args.rows.split(",") if args.rows else None
    results = run_ablation(
        base,
        seeds=args.seeds,
        out_dir=out,
        two_stream=args.two_stream,
        workers=args.workers,
        rows=rows,
        attention_dumps=not args.no_dumps,
    )
    print(format_table(results, rows or [name for name, _, _ in GRID_ROWS]))
    failed = [c for c in results if c.status != "ok"]
    for c in failed:
        print(f"cell {c.row}/seed{c.seed}: {c.status}", file=sys.stderr)
    return EXIT_OK


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    # Checked before any cell runs.  NaN fails every comparison, so each
    # range test also rejects it.
    lo, hi = EPS_RANGE
    if not lo <= args.eps <= hi:
        raise ConfigError(f"--eps {args.eps} must be in [{lo:g}, {hi:g}]")
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol {args.tol} must be finite and > 0")
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed} must be >= 0")
    t0 = perf_counter()
    cells = run_gradcheck(TinyDims(), eps=args.eps, tol=args.tol, seed=args.seed)
    wall = perf_counter() - t0
    print(format_report(cells))
    print(f"{len(cells)} cells on {gradcheck_workers()} worker(s) in {wall:.2f} s")
    if all(c.passed for c in cells):
        print("all cells pass")
        return EXIT_OK
    return EXIT_NUMERIC


def _cmd_dump_attention(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit {args.limit} must be >= 0 (0 dumps the whole split)")
    config, models, prepared, ids = _load_for_eval(args)
    if args.limit:
        ids = ids[: args.limit]
    out = _out_path(args.out)
    logits = predict_logits(models, prepared, ids, config.clip_len)
    dump_attention(models, prepared, ids, config.clip_len, logits, out_path=out)
    print(f"wrote {len(ids)} records to {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="poseattn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", dest="n_classes", type=int)
    p.add_argument("--feat-dim", type=int)
    p.add_argument("--clip-len", type=int)
    p.add_argument("--seq-len", type=int)
    p.add_argument("--event-width", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--distractor", type=float)
    p.add_argument("--template-scale", type=float)
    p.add_argument("--motion-amp", type=float)
    p.add_argument("--slot-amp", dest="slot_motion_amp", type=float)
    p.add_argument("--counts", type=int, nargs=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--kind-mix", type=float, nargs=3)
    p.add_argument("--fake-events", type=int)
    p.add_argument("--fix-window-at-end", action="store_true", default=None)
    p.add_argument("--equal-slots", action="store_true", default=None)
    p.add_argument("--manifest-out")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train a model variant")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_checkpoint_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="run the conditioning ablation grid")
    _add_config_flags(p)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--two-stream", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--rows", help="comma-separated subset of grid rows")
    p.add_argument("--no-dumps", action="store_true")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every variant")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("dump-attention", help="write per-sequence attention records")
    _add_checkpoint_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=0)
    p.set_defaults(fn=_cmd_dump_attention)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (NumericError,) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, ShapeError, GraphError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
