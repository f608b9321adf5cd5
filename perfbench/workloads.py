"""The benchmark's two workloads.

Each workload makes its inputs from the seed (untimed), warms up, and then
runs whole rounds of program calls until ``seconds`` have passed, at least
one round, with a ``Recorder`` installed.  A program call that raises is
counted as failed operations and the round goes on with the calls that do
not depend on it.  The checks run after the timed rounds, with the Recorder
removed, so their calls are neither timed nor counted.
"""
from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from instrument import Recorder
# Program calls go through module attributes, so that the Recorder's
# wrappers see the calls made from here too.
from poseattn import ablation, data, gradcheck, synth, training, verify
from poseattn.model import N_HAND_SLOTS

# The acceptance-scale model of the Tier-1 suite.
SMALL_MODEL = dict(
    feat_dim=16, rgb_hidden=48, attn_hidden=48, temporal_hidden=32, pose_hidden=64,
    pose_layers=3, lr=2e-3, batch_size=32, dropout=0.0, stack_dropout=False,
)
GRID_COUNTS = (300, 80, 80)  # train (5% of it becomes val), test_seeds, test_pool
GRID_EPOCHS = 3
WARM_COUNTS = (40, 10, 10)

PAPER_COUNTS = (64, 16, 16)
PAPER_EPOCHS = 1
# The paper-scale gradcheck covers two parameter groups small enough to
# check coordinate by coordinate (n_classes + 4 coordinates): each costs two
# paper-scale forwards, on top of one taped backward for the whole check.
PAPER_GRADCHECK = ("head.b", "attn.l1.b")
PAPER_GRADCHECK_WINDOWS = 2


@dataclass
class Tally:
    """Operations attempted and failed outside the Recorder's own counts, and
    the problems the checks found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _rounds(seconds: float, body) -> int:
    start = perf_counter()
    n = 0
    while True:
        body()
        n += 1
        if perf_counter() - start >= seconds:
            return n


def _attempt(tally: Tally, what: str, ops: int, call):
    """Makes one program call of ``ops`` operations and returns its result,
    or None if it raised: then the exception is a problem and the ``ops``
    operations failed.  Training steps and eval batches inside the call are
    counted by the Recorder, so they are not part of ``ops``."""
    tally.attempted += ops
    try:
        return call()
    except Exception as e:
        tally.failed += ops
        tally.problems.append(f"{what} raised {type(e).__name__}: {e}")
        return None


def _checked(tally: Tally, check) -> None:
    """Runs a check after the rounds; a check that raises is a problem too."""
    try:
        tally.problems += check()
    except Exception as e:
        tally.problems.append(f"check raised {type(e).__name__}: {e}")


def _load(path: Path, config: training.RunConfig) -> tuple[object, dict, training.ModelDims]:
    dataset = data.load_dataset(path)
    return dataset, training.prepare_sequences(dataset), training.ModelDims.from_dataset(dataset, config)


def _result(rec: Recorder, tally: Tally, e2e: dict, rounds: int) -> dict:
    if rec.eval_windows != rec.eval_windows_expected:
        tally.problems.append(
            f"windows scored {rec.eval_windows} != 5 x sequences x streams = {rec.eval_windows_expected}"
        )
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted + rec.steps_attempted + rec.eval_batches_attempted,
        "failed": tally.failed + (rec.steps_attempted - rec.steps_done) + rec.eval_batches_failed,
        "problems": tally.problems,
        "end_to_end": e2e,
        "per_layer": rec.per_layer(rounds) if rec.trace else {},
        "recorder": rec,
    }


def _rates(rec: Recorder, run_s: list[float], gc_coords: int, gc_s: float) -> dict:
    # A call that raised before its first unit of work leaves a figure with
    # nothing to measure; it reads 0, next to the problem that says why.
    def per(n: float, s: float) -> float:
        return n / s if s > 0 else 0.0

    return {
        "setup_s": (statistics.median(rec.setup_s) if rec.setup_s else 0.0, "s"),
        "train_windows_per_s": (per(rec.train_windows, rec.train_s), "windows/s"),
        "eval_windows_per_s": (per(rec.eval_windows, rec.eval_s), "windows/s"),
        "gradcheck_coords_per_s": (per(gc_coords, gc_s), "coords/s"),
        "run_s": (statistics.median(run_s), "s"),
    }


def ablation_grid(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """``run_ablation`` over the nine rows, two-stream, with attention dumps,
    between two runs of ``run_gradcheck`` over the 11 tiny cells: the calls
    that take most of the Tier-1 suite's time."""
    path, warm_path, grid_dir = work / "combined.bin", work / "warm.bin", work / "grid"
    for file, counts in ((path, GRID_COUNTS), (warm_path, WARM_COUNTS)):
        data.save_dataset(file, synth.generate(synth.SyntheticSpec(kind="combined", counts=counts, seed=seed)))
    base = training.RunConfig(
        dataset=str(path), max_epochs=GRID_EPOCHS, patience=GRID_EPOCHS, seed=seed, **SMALL_MODEL
    )
    tally = Tally()
    dataset, prepared, dims = _load(path, base)
    split_ids = dataset.manifest.split_ids

    # Attention at initialization, one fresh stream per row; also a warm-up.
    init_batch = checks.first_window_batch(prepared, split_ids("test_seeds")[:8], base.clip_len)
    for row, cond, ta in ablation.GRID_ROWS:
        config = ablation.cell_config(base, row, seed)
        out = training.build_rgb_stream(config, dims, np.random.default_rng(seed)).forward(init_batch)
        tally.problems += checks.expects_attention(cond, ta, out)
        tally.problems += checks.uniform_attention(row, out, base.clip_len)
    warm = ablation.cell_config(replace(base, dataset=str(warm_path)), "sta_both", seed, work / "warm")
    training.run_train(replace(warm, variant="two_stream"))
    verify.check_rgb_cell("both", True, verify.TinyDims(), seed=seed)

    rec = Recorder(trace)
    run_s: list[float] = []
    gc_coords, gc_s = 0, 0.0
    results, cells = [], []

    def check_gradients() -> None:
        nonlocal cells, gc_coords, gc_s
        t0 = perf_counter()
        got = _attempt(
            tally, "run_gradcheck", len(_tiny_cells()), lambda: verify.run_gradcheck(verify.TinyDims(), seed=seed)
        )
        gc_s += perf_counter() - t0
        if got is not None:
            cells = got
            gc_coords += sum(c.n_params for c in cells)
            tally.failed += sum(not c.passed for c in cells)

    def round_() -> None:
        # The gradient check runs before and after the grid, so its rate is
        # sampled at both ends of the round rather than in one block.
        nonlocal results
        rec.trained.clear()
        t0 = perf_counter()
        check_gradients()
        got = _attempt(
            tally, "run_ablation", len(ablation.GRID_ROWS),
            lambda: ablation.run_ablation(base, seeds=[seed], out_dir=grid_dir, two_stream=True, attention_dumps=True),
        )
        if got is not None:
            results = got
            tally.failed += sum(c.status != "ok" for c in results)
        check_gradients()
        run_s.append(perf_counter() - t0)

    with rec:
        rounds = _rounds(seconds, round_)
    e2e = _rates(rec, run_s, gc_coords, gc_s)
    _checked(tally, lambda: _check_grid(base, seed, grid_dir, split_ids, prepared, rec, results))
    _checked(tally, lambda: _check_tiny_gradcheck(cells))
    return _result(rec, tally, e2e, rounds)


def _check_grid(
    base: training.RunConfig, seed: int, grid_dir: Path, split_ids, prepared: dict, rec: Recorder, results
) -> list[str]:
    problems: list[str] = []
    clip = base.clip_len
    rng = np.random.default_rng([seed, 17])
    ids = {s: split_ids(s) for s in ablation.TEST_SPLITS}
    labels = {s: np.array([prepared[i].label for i in ids[s]]) for s in ablation.TEST_SPLITS}
    grad_batch = checks.first_window_batch(prepared, split_ids("train")[:16], clip)
    test_batch = checks.first_window_batch(prepared, ids["test_seeds"][:16], clip)
    n_dump = min(50, len(ids["test_seeds"]))

    first = ids["test_seeds"][:16]  # one eval chunk: its logits match a longer call's bitwise

    trained = {(c.conditioning, c.use_temporal) if n == "rgb" else n: t.stream for n, c, t in rec.trained}
    if len(trained) != len(ablation.GRID_ROWS) + 1:
        return [f"{len(trained)} streams trained in the last round, expected {len(ablation.GRID_ROWS) + 1}"]

    def logits(streams: list, seq_ids: list[str]) -> np.ndarray:
        return training.predict_logits(streams, prepared, seq_ids, clip)

    pose = training.load_checkpoint(grid_dir / f"pose-seed{seed}" / "checkpoint.bin")[2]["pose"]["stream"]
    pose_logits = {s: logits([pose], ids[s]) for s in ablation.TEST_SPLITS}
    problems += checks.bitwise("pose checkpoint", logits([trained["pose"]], first), pose_logits["test_seeds"][:16])
    problems += checks.directional_gradient("pose", trained["pose"], grad_batch, rng)

    by_row = {c.row: c for c in results}
    for row, cond, ta in ablation.GRID_ROWS:
        cell = by_row.get(row)
        if cell is None or cell.status != "ok":
            continue  # counted as a failed operation
        cell_dir = grid_dir / f"{row}-seed{seed}"
        rgb = training.load_checkpoint(cell_dir / "checkpoint.bin")[2]["rgb"]["stream"]
        rgb_logits = {s: logits([rgb], ids[s]) for s in ablation.TEST_SPLITS}
        for s in ablation.TEST_SPLITS:
            acc = checks.accuracy(pose_logits[s] + rgb_logits[s], labels[s])
            if acc != cell.acc.get(s):
                problems.append(f"{row}: {s} accuracy {cell.acc.get(s)!r} != {acc!r} recomputed")
        if row == "sta_both":
            for s in ablation.TEST_SPLITS:
                fused = logits([pose, rgb], ids[s])
                problems += checks.bitwise(f"{row} two-stream vs sum ({s})", fused, pose_logits[s] + rgb_logits[s])
        stream = trained[(cond, ta)]
        problems += checks.bitwise(f"{row} checkpoint", logits([stream], first), rgb_logits["test_seeds"][:16])
        problems += checks.directional_gradient(row, stream, grad_batch, rng)
        out = stream.forward(test_batch, training=False)
        problems += checks.expects_attention(cond, ta, out) + checks.trained_attention(row, out)
        problems += checks.attention_dump(cell_dir / "attention.jsonl", n_dump, cond, ta, clip)
    return problems


def _tiny_cells() -> dict[str, int]:
    """The cells of ``run_gradcheck(TinyDims())`` and the parameter count of
    each, derived here from the architecture."""
    d = verify.TinyDims()
    own = {
        cond + ("+ta" if ta else ""): checks.rgb_param_count(
            cond, ta, feat=d.feat_dim, hidden=d.rgb_hidden, pose_aug=3 * d.pose_dim,
            attn=d.attn_hidden, temporal=d.temporal_hidden, frames=d.n_frames, classes=d.n_classes,
        )
        for cond in ("hidden", "pose", "both", "sum", "concat")
        for ta in (False, True)
    }
    own["pose_stream"] = checks.pose_param_count(
        pose=d.pose_dim, hidden=d.pose_hidden, layers=3, classes=d.n_classes
    )
    return own


def _check_tiny_gradcheck(cells) -> list[str]:
    own = _tiny_cells()
    problems = []
    if sorted(c.name for c in cells) != sorted(own):
        problems.append(f"gradcheck cells {sorted(c.name for c in cells)} != {sorted(own)}")
    for c in cells:
        if not (c.passed and c.max_rel_error < checks.GRADCHECK_TOL):
            problems.append(f"gradcheck {c.name}: max rel err {c.max_rel_error:.2e} ({c.worst_param})")
        if c.name in own and c.n_params != own[c.name]:
            problems.append(f"gradcheck {c.name}: {c.n_params} coordinates checked, {own[c.name]} parameters")
    return problems


def paper_scale(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """``run_train`` of the RGB stream with the paper recipe (the RunConfig
    defaults) for a few steps, with its test evaluation and checkpoint save;
    then the checkpoint is loaded back, the gradient checker runs over the
    stream's small parameter groups, and the reloaded stream is evaluated on
    the test splits as ``poseattn eval`` does."""
    path, run_dir = work / "paper.bin", work / "paper"
    spec = synth.SyntheticSpec(kind="combined", feat_dim=2048, counts=PAPER_COUNTS, seed=seed)
    data.save_dataset(path, synth.generate(spec))
    config = training.RunConfig(
        dataset=str(path), out_dir=str(run_dir), max_epochs=PAPER_EPOCHS, patience=PAPER_EPOCHS, seed=seed
    )
    tally = Tally()
    dataset, prepared, dims = _load(path, config)

    # Attention at initialization on a fresh stream; also the warm-up.
    batch = checks.first_window_batch(prepared, dataset.manifest.split_ids("test_seeds")[:4], config.clip_len)
    out = training.build_rgb_stream(config, dims, np.random.default_rng(seed)).forward(batch)
    tally.problems += checks.expects_attention(config.conditioning, config.use_temporal, out)
    tally.problems += checks.uniform_attention("paper-scale", out, config.clip_len)
    del batch, out, dataset, prepared

    rec = Recorder(trace)
    run_s: list[float] = []
    gc_coords, gc_s = 0, 0.0
    result = loaded = gc = None
    reloaded_acc: dict[str, float] = {}

    def reload_and_check() -> dict:
        nonlocal loaded, gc_s
        loaded = training.load_checkpoint(run_dir / "checkpoint.bin")[2]["rgb"]["stream"]
        ids = result.dataset.manifest.split_ids("test_seeds")[:PAPER_GRADCHECK_WINDOWS]
        batch = checks.first_window_batch(result.prepared, ids, config.clip_len)
        params = {k: loaded.parameters()[k] for k in PAPER_GRADCHECK}
        t0 = perf_counter()
        try:
            return gradcheck.grad_check_params(
                lambda: loaded.loss(loaded.forward(batch, training=False), batch.labels),
                params, eps=1e-5, tol=1e-5,
            )
        finally:
            gc_s += perf_counter() - t0

    def round_() -> None:
        # One gradcheck cell per round; it and the reloaded stream's
        # evaluation need the checkpoint that run_train writes.
        nonlocal result, loaded, gc, gc_coords
        result = loaded = gc = None
        reloaded_acc.clear()
        t0 = perf_counter()
        result = _attempt(tally, "run_train", 0, lambda: training.run_train(config))
        if result is not None:
            gc = _attempt(tally, "load_checkpoint and grad_check_params", 1, reload_and_check)
        else:
            tally.attempted += 1
            tally.failed += 1
        if gc is not None:
            gc_coords += sum(r.n_coords for r in gc.values())
            tally.failed += not all(r.passed for r in gc.values())
            for split in ablation.TEST_SPLITS:
                ids = result.dataset.manifest.split_ids(split)
                acc = _attempt(
                    tally, f"evaluate on {split}", 0,
                    lambda: training.evaluate([loaded], result.prepared, ids, config.clip_len),
                )
                if acc is not None:
                    reloaded_acc[split] = acc
        run_s.append(perf_counter() - t0)

    with rec:
        rounds = _rounds(seconds, round_)
    e2e = _rates(rec, run_s, gc_coords, gc_s)
    if gc is not None:  # otherwise the round's failure is already a problem
        _checked(tally, lambda: _check_paper(config, seed, result, loaded, reloaded_acc, gc))
    return _result(rec, tally, e2e, rounds)


def _check_paper(
    config: training.RunConfig, seed: int, result, loaded, reloaded_acc: dict, gc
) -> list[str]:
    problems: list[str] = []
    clip = config.clip_len
    prepared = result.prepared
    trained = result.streams["rgb"].stream
    ids = result.dataset.manifest.split_ids("test_seeds")
    labels = np.array([prepared[i].label for i in ids])

    logits = training.predict_logits([loaded], prepared, ids, clip)
    acc = checks.accuracy(logits, labels)
    if acc != reloaded_acc.get("test_seeds"):
        problems.append(f"test_seeds accuracy {reloaded_acc.get('test_seeds')!r} != {acc!r} recomputed")
    problems += checks.bitwise("checkpoint", training.predict_logits([trained], prepared, ids, clip), logits)
    if reloaded_acc != result.test_acc:
        problems.append(f"reloaded checkpoint scores {reloaded_acc}, trained stream {result.test_acc}")

    out = trained.forward(checks.first_window_batch(prepared, ids[:4], clip), training=False)
    problems += checks.expects_attention(config.conditioning, config.use_temporal, out)
    problems += checks.trained_attention("rgb", out)

    batch = checks.first_window_batch(prepared, result.dataset.manifest.split_ids("train")[:4], clip)
    problems += checks.directional_gradient("rgb", trained, batch, np.random.default_rng([seed, 17]))

    n_classes = result.dataset.manifest.n_classes
    own = {"head.b": n_classes, "attn.l1.b": N_HAND_SLOTS}
    for name, r in gc.items():
        if not (r.passed and r.max_rel_error < checks.GRADCHECK_TOL):
            problems.append(f"gradcheck {name}: max rel err {r.max_rel_error:.2e}")
        if r.n_coords != own[name]:
            problems.append(f"gradcheck {name}: {r.n_coords} coordinates checked, {own[name]} parameters")
    return problems


WORKLOADS = {"ablation-grid": ablation_grid, "paper-scale": paper_scale}
