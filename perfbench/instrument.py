"""Timers and tracing wrapped around poseattn's functions from outside the package.

``Recorder(trace=False)`` installs only what the end-to-end metrics need:
wrappers on ``run_train``, ``train_stream``, ``predict_logits``, the two
stream forwards and ``adam_step``.  Each of them wraps about a millisecond of work or more,
so the two clock reads per call stay far below the run-to-run noise.

``Recorder(trace=True)`` also wraps the public functions of every module on
the measured path (data, training, model, nn, tensor, gradcheck, verify,
ablation).  It keeps one span per wrapped call in memory and writes them
when the run ends.  Tensor primitives and their VJPs are too small and too
many for a span each; they are aggregated into per-op counts and times.

Wrappers replace the module attribute and every ``from ... import`` alias
of it inside the package, and are removed again on exit.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from poseattn import ablation, data, gradcheck, model, nn, tensor, training, verify

# Every primitive that the two workloads call.  ``slice_axis`` (pooling
# "last") and ``absolute`` are never reached by them.
OPS = (
    "add", "subtract", "multiply", "scale", "matmul", "transpose", "reshape",
    "sum_axis", "mean_axis", "concat", "stack", "sigmoid", "tanh", "relu",
    "log", "softmax",
)

# (owner, attribute, span name) for calls that only need timing and a span.
_TIMED = (
    (data, "load_dataset", "data.load_dataset"),
    (data, "dataset_content_hash", "data.dataset_content_hash"),
    (training, "prepare_sequences", "training.prepare_sequences"),
    (training, "make_batch", "training.make_batch"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (training, "dump_attention", "training.dump_attention"),
    (model, "spatial_attention_weights", "model.spatial_attention_weights"),
    (nn, "gru_cell_step", "nn.gru_cell_step"),
    (nn, "cross_entropy", "nn.cross_entropy"),
    (verify, "run_gradcheck", "verify.run_gradcheck"),
    (verify, "check_rgb_cell", "verify.check_cell"),
    (verify, "check_pose_cell", "verify.check_cell"),
    (ablation, "run_ablation", "ablation.run_ablation"),
    (ablation, "_run_cell", "ablation.cell"),
    (ablation, "_fuse_with_pose", "ablation.fuse_with_pose"),
    (ablation, "_write_dumps", "ablation.write_dumps"),
)

# Spans of the model and nn layers are not kept inside the finite-difference
# checker: its thousands of tiny forwards have metrics of their own.
_MODEL_LAYERS = ("model.", "nn.")


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "poseattn" or name.startswith("poseattn.")]


class Recorder:
    """Counts and times calls into poseattn while installed (``with`` block)."""

    def __init__(self, trace: bool):
        self.trace = trace
        self._undo: list[tuple[object, str, object]] = []
        self.phase = "other"  # "train" | "eval" | "gradcheck" | "other"

        # End-to-end counters.
        self.train_s = 0.0  # inside train_stream, minus its nested predict_logits
        self.train_windows = 0  # windows through training-mode forwards
        self.eval_s = 0.0  # inside predict_logits
        self.eval_windows = 0  # windows through forwards inside predict_logits
        self.eval_windows_expected = 0  # 5 x sequences x streams, from the arguments
        self.setup_s: list[float] = []  # per run_train call: entry to its first train_stream call
        self._run_train_t0: float | None = None
        self.steps_attempted = 0
        self.steps_done = 0
        self.eval_batches_attempted = 0
        self.eval_batches_failed = 0
        self.trained: list[tuple[str, object, object]] = []  # (stream name, config, TrainedStream)

        # Traced run only.
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.op_calls: dict[str, int] = defaultdict(int)
        self.op_fwd_s: dict[str, float] = defaultdict(float)
        self.vjp_calls: dict[str, int] = defaultdict(int)
        self.vjp_s: dict[str, float] = defaultdict(float)
        self.vjp_total_s = 0.0
        self.backward: list[tuple[float, float, int, int]] = []  # (s, vjp s, nodes, bytes held)
        self.checkpoint_bytes: list[int] = []
        self.gc_forward_calls = 0
        self.gc_forward_s = 0.0
        self._current_op = ""
        self._temporal: dict[int, object] = {}  # id -> temporal-attention Mlp

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Recorder":
        self._hook(training, "run_train", self._wrap_run_train)
        self._hook(training, "train_stream", self._wrap_train_stream)
        self._hook(training, "predict_logits", self._wrap_predict_logits)
        self._hook(model.RgbStream, "forward", self._wrap_forward)
        self._hook(model.PoseStream, "forward", self._wrap_forward)
        self._hook(nn, "adam_step", self._wrap_adam_step)
        if self.trace:
            for owner, attr, name in _TIMED:
                self._hook(owner, attr, functools.partial(self._wrap_timed, name))
            self._hook(training, "save_checkpoint", self._wrap_save_checkpoint)
            self._hook(nn.Mlp, "__call__", self._wrap_mlp)
            self._hook(gradcheck, "grad_check_params", self._wrap_grad_check_params)
            self._hook(tensor.Tape, "backward", self._wrap_backward)
            self._hook(tensor, "_make", self._wrap_make)
            for op in OPS:
                self._hook(tensor, op, functools.partial(self._wrap_op, op))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _hook(self, owner, attr: str, make_wrapper) -> None:
        orig = getattr(owner, attr)
        wrapper = functools.wraps(orig)(make_wrapper(orig))
        targets = [owner] if isinstance(owner, type) else [
            m for m in _package_modules() if vars(m).get(attr) is orig
        ]
        for target in targets:
            self._undo.append((target, attr, orig))
            setattr(target, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str, t0: float) -> int:
        if not self.trace:
            return -1
        idx = len(self.spans)
        self.spans.append([name, t0, t0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _end(self, idx: int, name: str, t0: float, t1: float) -> None:
        if idx < 0:
            return
        self.spans[idx][2] = t1
        self._open.pop()
        self.calls[name] += 1
        self.busy[name] += t1 - t0

    def _quiet(self, name: str) -> bool:
        return self.phase == "gradcheck" and name.startswith(_MODEL_LAYERS)

    # -- wrappers every run installs --------------------------------------

    def _wrap_run_train(self, orig):
        def wrapper(config, dataset=None):
            t0 = perf_counter()
            self._run_train_t0 = t0
            span = self._begin("training.run_train", t0)
            try:
                return orig(config, dataset=dataset)
            finally:
                self._end(span, "training.run_train", t0, perf_counter())
                self._run_train_t0 = None

        return wrapper

    def _wrap_train_stream(self, orig):
        def wrapper(name, stream, config, prepared, train_ids, val_ids):
            if self._run_train_t0 is not None:  # the first stream of this run_train
                self.setup_s.append(perf_counter() - self._run_train_t0)
                self._run_train_t0 = None
            # Patience >= max_epochs in both workloads, so every epoch runs.
            self.steps_attempted += config.max_epochs * math.ceil(len(train_ids) / config.batch_size)
            outer, self.phase = self.phase, "train"
            eval_before = self.eval_s
            t0 = perf_counter()
            span = self._begin("training.train_stream", t0)
            try:
                trained = orig(name, stream, config, prepared, train_ids, val_ids)
            finally:
                t1 = perf_counter()
                self._end(span, "training.train_stream", t0, t1)
                self.phase = outer
                self.train_s += (t1 - t0) - (self.eval_s - eval_before)
            self.trained.append((name, config, trained))
            return trained

        return wrapper

    def _wrap_predict_logits(self, orig):
        def wrapper(streams, prepared, ids, clip_len, chunk=16):
            batches = math.ceil(len(ids) / chunk)
            self.eval_batches_attempted += batches
            self.eval_windows_expected += 5 * len(ids) * len(streams)
            outer, self.phase = self.phase, "eval"
            t0 = perf_counter()
            span = self._begin("training.predict_logits", t0)
            try:
                return orig(streams, prepared, ids, clip_len, chunk=chunk)
            except BaseException:
                self.eval_batches_failed += batches
                raise
            finally:
                t1 = perf_counter()
                self._end(span, "training.predict_logits", t0, t1)
                self.phase = outer
                self.eval_s += t1 - t0

        return wrapper

    def _wrap_forward(self, orig):
        def wrapper(stream, batch, training=False, rng=None):
            if self.phase == "eval":
                self.eval_windows += batch.batch_size
                name = "model.eval_forward"
            elif training:
                self.train_windows += batch.batch_size
                name = "model.rgb_forward" if isinstance(stream, model.RgbStream) else "model.pose_forward"
            else:
                name = "model.other_forward"
            if not self.trace or self._quiet(name):
                return orig(stream, batch, training=training, rng=rng)
            temporal = getattr(stream, "temporal", None)
            if temporal is not None:
                self._temporal[id(temporal)] = temporal
            t0 = perf_counter()
            span = self._begin(name, t0)
            try:
                return orig(stream, batch, training=training, rng=rng)
            finally:
                self._end(span, name, t0, perf_counter())

        return wrapper

    def _wrap_adam_step(self, orig):
        def wrapper(state, params, grads):
            t0 = perf_counter()
            span = self._begin("nn.adam_step", t0)
            try:
                orig(state, params, grads)
            finally:
                self._end(span, "nn.adam_step", t0, perf_counter())
            self.steps_done += 1

        return wrapper

    # -- traced run only ---------------------------------------------------

    def _wrap_timed(self, name: str, orig):
        def wrapper(*args, **kwargs):
            if self._quiet(name):
                return orig(*args, **kwargs)
            t0 = perf_counter()
            span = self._begin(name, t0)
            try:
                return orig(*args, **kwargs)
            finally:
                self._end(span, name, t0, perf_counter())

        return wrapper

    def _wrap_save_checkpoint(self, orig):
        def wrapper(path, *args, **kwargs):
            t0 = perf_counter()
            span = self._begin("training.save_checkpoint", t0)
            try:
                orig(path, *args, **kwargs)
            finally:
                self._end(span, "training.save_checkpoint", t0, perf_counter())
            self.checkpoint_bytes.append(os.path.getsize(path))

        return wrapper

    def _wrap_mlp(self, orig):
        def wrapper(mlp, x, *args, **kwargs):
            if self._quiet("nn.mlp"):
                return orig(mlp, x, *args, **kwargs)
            name = "model.temporal_attention" if id(mlp) in self._temporal else "nn.mlp"
            t0 = perf_counter()
            span = self._begin(name, t0)
            try:
                return orig(mlp, x, *args, **kwargs)
            finally:
                t1 = perf_counter()
                self._end(span, name, t0, t1)
                if name != "nn.mlp":
                    self.calls["nn.mlp"] += 1
                    self.busy["nn.mlp"] += t1 - t0

        return wrapper

    def _wrap_grad_check_params(self, orig):
        def wrapper(f, params, *args, **kwargs):
            def counted():
                t0 = perf_counter()
                out = f()
                self.gc_forward_s += perf_counter() - t0
                self.gc_forward_calls += 1
                return out

            outer, self.phase = self.phase, "gradcheck"
            t0 = perf_counter()
            span = self._begin("gradcheck.grad_check_params", t0)
            try:
                return orig(counted, params, *args, **kwargs)
            finally:
                self._end(span, "gradcheck.grad_check_params", t0, perf_counter())
                self.phase = outer

        return wrapper

    def _wrap_backward(self, orig):
        def wrapper(tape, loss):
            if self.phase != "train":
                return orig(tape, loss)
            nodes = list(tape._nodes)
            vjp_before = self.vjp_total_s
            t0 = perf_counter()
            span = self._begin("tensor.backward", t0)
            try:
                orig(tape, loss)
            finally:
                t1 = perf_counter()
                self._end(span, "tensor.backward", t0, t1)
            self.backward.append((t1 - t0, self.vjp_total_s - vjp_before, len(nodes), _held_bytes(nodes)))

        return wrapper

    def _wrap_make(self, orig):
        def wrapper(out_data, op, parents, vjps):
            if tensor.active_tape() is not None:
                name = self._current_op
                vjps = tuple(None if v is None else self._timed_vjp(name, v) for v in vjps)
            return orig(out_data, op, parents, vjps)

        return wrapper

    def _timed_vjp(self, name: str, vjp):
        def timed(g):
            t0 = perf_counter()
            out = vjp(g)
            dt = perf_counter() - t0
            self.vjp_s[name] += dt
            self.vjp_calls[name] += 1
            self.vjp_total_s += dt
            return out

        return timed

    def _wrap_op(self, op: str, orig):
        def wrapper(*args, **kwargs):
            # Primitives never call each other, so the op that reaches
            # ``_make`` is the one set here.
            self._current_op = op
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.op_fwd_s[op] += perf_counter() - t0
                self.op_calls[op] += 1

        return wrapper

    # -- results -------------------------------------------------------------

    def per_layer(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times are means per call, counts are per round."""

        def mean(name: str, scale: float) -> float:
            n = self.calls.get(name, 0)
            return scale * self.busy[name] / n if n else 0.0

        def per_round(n: int) -> float:
            return n / rounds

        bw = self.backward
        bw_n = len(bw)
        m: dict[str, tuple[float, str]] = {
            "data.load_s": (mean("data.load_dataset", 1.0), "s"),
            "data.hash_s": (mean("data.dataset_content_hash", 1.0), "s"),
            "data.load_calls": (per_round(self.calls.get("data.load_dataset", 0)), "count"),
            "training.prepare_s": (mean("training.prepare_sequences", 1.0), "s"),
            "training.make_batch_ms": (mean("training.make_batch", 1e3), "ms"),
            "training.checkpoint_save_s": (mean("training.save_checkpoint", 1.0), "s"),
            "training.checkpoint_load_s": (mean("training.load_checkpoint", 1.0), "s"),
            "training.checkpoint_mb": (
                sum(self.checkpoint_bytes) / len(self.checkpoint_bytes) / 1e6
                if self.checkpoint_bytes else 0.0,
                "MB",
            ),
            "model.rgb_forward_ms": (mean("model.rgb_forward", 1e3), "ms"),
            "model.pose_forward_ms": (mean("model.pose_forward", 1e3), "ms"),
            "model.spatial_attention_ms": (mean("model.spatial_attention_weights", 1e3), "ms"),
            "model.temporal_attention_ms": (mean("model.temporal_attention", 1e3), "ms"),
            "model.eval_forward_ms": (mean("model.eval_forward", 1e3), "ms"),
            "nn.gru_step_ms": (mean("nn.gru_cell_step", 1e3), "ms"),
            "nn.gru_steps": (per_round(self.calls.get("nn.gru_cell_step", 0)), "count"),
            "nn.mlp_ms": (mean("nn.mlp", 1e3), "ms"),
            "nn.cross_entropy_ms": (mean("nn.cross_entropy", 1e3), "ms"),
            "nn.adam_ms": (mean("nn.adam_step", 1e3), "ms"),
            "tensor.nodes_per_batch": (sum(b[2] for b in bw) / bw_n if bw_n else 0.0, "count"),
            "tensor.backward_ms": (1e3 * sum(b[0] for b in bw) / bw_n if bw_n else 0.0, "ms"),
            "tensor.vjp_ms": (1e3 * sum(b[1] for b in bw) / bw_n if bw_n else 0.0, "ms"),
            "tensor.accumulate_ms": (1e3 * sum(b[0] - b[1] for b in bw) / bw_n if bw_n else 0.0, "ms"),
            "tensor.backward_peak_mb": (max((b[3] for b in bw), default=0) / 1e6, "MB"),
        }
        for op in OPS:
            n, nv = self.op_calls.get(op, 0), self.vjp_calls.get(op, 0)
            m[f"tensor.op.{op}.count"] = (per_round(n), "count")
            m[f"tensor.op.{op}.fwd_ms"] = (1e3 * self.op_fwd_s[op] / n if n else 0.0, "ms")
            m[f"tensor.op.{op}.vjp_ms"] = (1e3 * self.vjp_s[op] / nv if nv else 0.0, "ms")
        gc_n = self.gc_forward_calls
        m["gradcheck.forward_calls"] = (per_round(gc_n), "count")
        m["gradcheck.forward_us"] = (1e6 * self.gc_forward_s / gc_n if gc_n else 0.0, "us")
        m["verify.cell_s"] = (mean("verify.check_cell", 1.0), "s")
        m["ablation.cell_s"] = (mean("ablation.cell", 1.0), "s")
        m["ablation.fuse_s"] = (mean("ablation.fuse_with_pose", 1.0), "s")
        m["ablation.dump_s"] = (mean("ablation.write_dumps", 1.0), "s")
        return m

    def write_spans(self, path: Path) -> None:
        """One JSON object per line: name, start and end (s), parent line or -1."""
        with open(path, "w") as f:
            for name, t0, t1, parent in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent}) + "\n")


def _held_bytes(nodes: list) -> int:
    """Bytes of the distinct buffers behind the outputs, inputs and gradients of
    a tape's nodes: what the tape holds at the end of its backward sweep."""
    seen: set[int] = set()
    total = 0
    for out, parents, _ in nodes:
        for t in (out, *parents):
            for arr in (t.data, t.grad):
                if arr is None:
                    continue
                while isinstance(arr.base, type(arr)):
                    arr = arr.base
                if id(arr) not in seen:
                    seen.add(id(arr))
                    total += arr.nbytes
    return total
