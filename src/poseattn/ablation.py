"""Ablation grid over attention conditioning variants.

Nine RGB-stream rows: sum and concat integration baselines, spatial
attention under three conditionings, temporal attention alone (over sum
integration), and the three spatio-temporal combinations.  Every cell
trains with the same budget and per-seed identical initial conditions and
is evaluated on the two held-out splits.  The grid loads and prepares the
dataset once, before any cell runs, and every cell (and each pool worker,
which inherits it) trains on that one prepared table.  A cell hands back the
test logits its run computed and writes its attention dump from the stream
it trained in memory, with each sequence's prediction taken from those
logits, so the grid reads no checkpoint back and scores each stream once per
split.  In two-stream mode each seed's pose run is one more job, queued
first, and is fused with every cell of its seed at the logit level: each
cell's logits plus the pose run's, the same sums that scoring both streams
together gives.  A failed pose run fails every cell of its seed.
"""
from __future__ import annotations

import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import Dataset, load_dataset, replacing
from .model import fuse_logits
from .training import (
    TEST_SPLITS,
    ConfigError,
    RunConfig,
    TrainResult,
    accuracy,
    dump_attention,
    run_train,
)

# row name -> (conditioning, temporal attention)
GRID_ROWS: tuple[tuple[str, str, bool], ...] = (
    ("sum", "sum", False),
    ("concat", "concat", False),
    ("sa_hidden", "hidden", False),
    ("sa_pose", "pose", False),
    ("sa_both", "both", False),
    ("ta", "sum", True),
    ("sta_hidden", "hidden", True),
    ("sta_pose", "pose", True),
    ("sta_both", "both", True),
)


def cell_config(base: RunConfig, row: str, seed: int, out_dir: str | Path | None = None) -> RunConfig:
    """Cells differ from the base config only in conditioning, pooling and seed."""
    spec = {name: (cond, ta) for name, cond, ta in GRID_ROWS}
    if row not in spec:
        raise ConfigError(f"unknown grid row {row!r}; rows are {', '.join(spec)}")
    cond, ta = spec[row]
    return replace(
        base,
        variant="rgb",
        conditioning=cond,
        use_temporal=ta,
        seed=seed,
        out_dir=str(out_dir) if out_dir else "",
    )


@dataclass
class CellResult:
    row: str
    seed: int
    status: str  # "ok" or "failed: ..."
    acc: dict[str, float]
    trace: str = ""  # traceback of a failed cell
    # Test logits per split, one row per id; fused with the pose stream's in two-stream mode.
    logits: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def avg(self) -> float:
        return sum(self.acc.values()) / len(self.acc) if self.acc else float("nan")


# A pool worker's copy of the grid's dataset, handed over once by ``_use_dataset``.
_worker_dataset: Dataset | None = None


def _use_dataset(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_cell(payload: dict, dataset: Dataset | None = None) -> dict:
    """Train one grid job (a cell, or a pose run) and write its attention
    dump if it asks for one; module-level so a process pool can pickle it.

    Pool workers pass no ``dataset`` and use the one their initializer got.
    """
    cell = {"row": payload["row"], "seed": payload["seed"]}
    try:
        result = run_train(RunConfig.from_json(payload["config"]), dataset=dataset or _worker_dataset)
        if payload["dumps"]:
            _write_dumps(result)
        return {**cell, "status": "ok", "acc": result.test_acc, "logits": result.test_logits}
    except Exception as e:  # a failed cell must not sink the grid
        return {
            **cell,
            "status": f"failed: {type(e).__name__}: {e}",
            "acc": {},
            "trace": traceback.format_exc(),
        }


def run_ablation(
    base: RunConfig,
    seeds: list[int],
    out_dir: str | Path,
    two_stream: bool = False,
    workers: int = 1,
    rows: list[str] | None = None,
    attention_dumps: bool = True,
) -> list[CellResult]:
    out_dir = Path(out_dir)
    row_names = rows if rows is not None else [name for name, _, _ in GRID_ROWS]
    for what, given in (("row", row_names), ("seed", seeds)):
        for i, x in enumerate(given):
            if x in given[:i]:
                raise ConfigError(f"grid {what} {x!r} is given more than once")
    # Every job's config is checked before any job trains.  The pose runs,
    # the longest jobs, go first: the pool submits in list order.
    jobs = [("pose", seed, replace(base, variant="pose", seed=seed), False) for seed in seeds if two_stream]
    jobs += [(row, seed, cell_config(base, row, seed), attention_dumps) for row in row_names for seed in seeds]
    payloads = [
        {"row": r, "seed": s, "config": replace(c, out_dir=str(out_dir / f"{r}-seed{s}")).to_json(), "dumps": d}
        for r, s, c, d in jobs
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(base.dataset)
    dataset.prepared  # prepared here, once: serial jobs share it, forked workers inherit it
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_use_dataset, initargs=(dataset,)) as pool:
            raw = list(pool.map(_run_cell, payloads))
    else:
        raw = [_run_cell(p, dataset) for p in payloads]
    results = [CellResult(**r) for r in raw]

    if two_stream:
        results = _fuse_with_pose(dataset, results[: len(seeds)], results[len(seeds) :])
    _write_grid(out_dir, results, row_names, seeds)
    return results


def _fuse_with_pose(dataset: Dataset, poses: list[CellResult], cells: list[CellResult]) -> list[CellResult]:
    """Fuse every completed cell with its seed's pose run: the cell's test
    logits plus the pose run's, as ``predict_logits`` over both streams would
    give.  A failed pose run fails every cell of its seed."""
    pose_by_seed = {pose.seed: pose for pose in poses}
    fused: list[CellResult] = []
    for cell in cells:
        pose = pose_by_seed[cell.seed]
        if cell.status != "ok":
            fused.append(cell)
        elif pose.status != "ok":
            status = "failed: pose stream " + pose.status.removeprefix("failed: ")
            fused.append(replace(cell, status=status, acc={}, logits={}, trace=pose.trace))
        else:
            logits = {split: fuse_logits(pose.logits[split], rgb) for split, rgb in cell.logits.items()}
            ids = dataset.manifest.split_ids
            acc = {split: accuracy(logits[split], dataset.prepared, ids(split)) for split in cell.acc}
            fused.append(replace(cell, acc=acc, logits=logits))
    return fused


def _write_dumps(result: TrainResult) -> None:
    """Attention records of the first 50 ``test_seeds`` sequences, from the
    RGB stream the cell just trained, into its run directory.  Predictions
    come from the test logits the cell's run already computed."""
    ids = result.dataset.manifest.split_ids("test_seeds")[:50]
    dump_attention(
        [result.streams["rgb"].stream],
        result.dataset.prepared,
        ids,
        result.config.clip_len,
        result.test_logits["test_seeds"][: len(ids)],
        out_path=Path(result.config.out_dir) / "attention.jsonl",
    )


def _write_grid(out_dir: Path, results: list[CellResult], rows: list[str], seeds: list[int]) -> None:
    lines = ["row,seed,status," + ",".join(f"acc_{split}" for split in TEST_SPLITS) + ",avg"]
    for cell in sorted(results, key=lambda c: (rows.index(c.row), c.seed)):
        accs = ",".join(repr(cell.acc.get(split, float("nan"))) for split in TEST_SPLITS)
        lines.append(f"{cell.row},{cell.seed},{cell.status},{accs},{cell.avg!r}")
    cells = [
        {"row": c.row, "seed": c.seed, "status": c.status, "acc": c.acc}
        | ({"trace": c.trace} if c.status != "ok" else {})
        for c in results
    ]
    for name, text in (
        ("grid.csv", "\n".join(lines) + "\n"),
        ("grid.txt", format_table(results, rows) + "\n"),
        ("grid.json", json.dumps(cells, indent=2)),
    ):
        with replacing(out_dir / name) as f:
            f.write(text)


def mean_accuracies(results: list[CellResult]) -> dict[str, dict[str, float]]:
    """Per-row mean accuracy over seeds, per split and averaged; failed cells excluded."""
    table: dict[str, dict[str, float]] = {}
    rows = {c.row for c in results}
    for row in rows:
        ok = [c for c in results if c.row == row and c.status == "ok"]
        if not ok:
            table[row] = {}
            continue
        entry = {
            split: sum(c.acc[split] for c in ok) / len(ok)
            for split in ok[0].acc
        }
        entry["avg"] = sum(c.avg for c in ok) / len(ok)
        table[row] = entry
    return table


def format_table(results: list[CellResult], rows: list[str]) -> str:
    means = mean_accuracies(results)
    failed = {
        c.row for c in results if c.status != "ok"
    }
    out = [f"{'row':<12}{'test_seeds':>12}{'test_pool':>12}{'avg':>12}"]
    for row in rows:
        entry = means.get(row, {})
        if not entry:
            out.append(f"{row:<12}{'failed':>12}{'failed':>12}{'failed':>12}")
            continue
        a = entry.get("test_seeds", float("nan"))
        b = entry.get("test_pool", float("nan"))
        mark = " *" if row in failed else ""
        out.append(f"{row:<12}{100*a:>11.1f}%{100*b:>11.1f}%{100*entry['avg']:>11.1f}%{mark}")
    return "\n".join(out)
