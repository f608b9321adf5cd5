"""Dense float64 tensors on a reverse-mode autodiff tape.

The core is deliberately small: a ``Tensor`` wraps a numpy array, each
primitive computes its result eagerly and, when a tape is active and any
input tracks gradients, appends a node holding per-input vector-Jacobian
callbacks.  ``Tape.backward`` sweeps the node list once in reverse append
order, which is a valid topological order by construction.

Elementwise binary ops take operands of equal shape.  Everything is
float64: the gradient checker drives the test suite and needs the headroom.
"""
from __future__ import annotations

import contextlib
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested primitive."""


class NumericError(FloatingPointError):
    """A value or primitive output contains NaN or Inf."""


class GraphError(RuntimeError):
    """Tape misuse: non-scalar loss, detached loss, or repeated backward."""


class _Tapes(threading.local):
    """Each thread's stack of active tapes."""

    def __init__(self) -> None:
        self.stack: list[Tape] = []


_TLS = _Tapes()


def active_tape() -> "Tape | None":
    stack = _TLS.stack
    return stack[-1] if stack else None


class Tensor:
    """Dense array, immutable by convention once created.

    Only ``grad`` buffers and optimizer-owned leaf parameters are ever
    mutated in place.  ``requires_grad`` on a leaf marks it as a target for
    gradient accumulation; on intermediates it is set by the recording
    machinery.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor created with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)


_Node = tuple  # (out: Tensor, parents: tuple[Tensor, ...], vjps: tuple[Callable|None, ...])


class Tape:
    """Append-only record of primitive applications for one forward pass.

    Confined to a single thread; independent tapes may run concurrently.
    A tape is consumed by ``backward`` and cannot be swept twice.
    """

    __slots__ = ("_nodes", "_out_ids", "_consumed")

    def __init__(self) -> None:
        self._nodes: list[_Node] = []
        self._out_ids: set[int] = set()
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TLS.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _TLS.stack
        if not stack or stack[-1] is not self:
            raise GraphError("tape context exited out of order")
        stack.pop()

    def _record(self, out: Tensor, parents: tuple, vjps: tuple) -> None:
        self._nodes.append((out, parents, vjps))
        self._out_ids.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

        Every ``grad`` it sets is private to its tensor.  A parent's first
        contribution becomes its ``grad`` as it is when it is a writeable,
        C-contiguous float64 array of the parent's shape that shares no
        memory with ``g``, the output gradient it was computed from: VJPs
        return either such a fresh array or a view of ``g`` (``reshape``,
        ``transpose``, ``concat``, in-order ``gather_rows``, ``add``, and
        ``subtract`` for its first input).  Any other first contribution is
        copied once, and later ones are added into the ``grad`` in place.
        A kept contribution may hold -0.0 where adding it to zeros gave +0.0.
        """
        if self._consumed:
            raise GraphError("backward already ran on this tape; re-record the graph first")
        if loss.data.shape != ():
            raise GraphError(f"loss must be a scalar, got shape {loss.data.shape}")
        if id(loss) not in self._out_ids:
            raise GraphError("loss is detached from this tape")
        self._consumed = True
        loss.grad = np.ones((), dtype=np.float64)
        for out, parents, vjps in reversed(self._nodes):
            g = out.grad
            if g is None:
                continue
            for parent, vjp in zip(parents, vjps):
                if vjp is None or not parent.requires_grad:
                    continue
                contrib = vjp(g)
                if parent.grad is not None:
                    parent.grad += contrib
                elif (
                    contrib.dtype == np.float64
                    and contrib.shape == parent.data.shape
                    and contrib.flags.writeable
                    and contrib.flags.c_contiguous
                    and not np.may_share_memory(contrib, g)
                ):
                    parent.grad = contrib
                else:
                    parent.grad = np.empty(parent.data.shape)
                    parent.grad[...] = contrib
        self._nodes.clear()
        self._out_ids.clear()


def _make(out_data: Array, op: str, parents: Sequence[Tensor], vjps: Sequence[Callable | None]) -> Tensor:
    """Wrap a primitive result, validating finiteness and recording on the tape."""
    if not np.isfinite(out_data).all():
        raise NumericError(f"{op}: non-finite values in output")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = False
    stack = _TLS.stack
    if stack and any(p.requires_grad for p in parents):
        out.requires_grad = True
        stack[-1]._record(out, tuple(parents), tuple(vjps))
    return out


class TwoCpus:
    """A helper thread for the jobs of one ``with`` block: entering the block
    starts it, each ``run`` wakes it through a semaphore for one job, and
    leaving the block joins it, whether the body returns or raises.  numpy's
    loops and BLAS calls release the GIL, so a job on the helper and one on
    the calling thread run on two CPUs.  A block that runs one job costs a
    thread start and join, about 0.1 ms; a scan opens one block for all of
    its steps."""

    def __init__(self) -> None:
        self._job: Callable[[], object] | None = None
        self._failed: list[BaseException] = []
        self._wake = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._serve, name="poseattn-helper", daemon=True)

    def __enter__(self) -> "TwoCpus":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._job = None  # tells the helper to return
        self._wake.release()
        self._thread.join()

    def _serve(self) -> None:
        while True:
            self._wake.acquire()
            job = self._job
            if job is None:
                return
            try:
                job()
            except BaseException as e:  # re-raised on the calling thread
                self._failed.append(e)
            self._done.release()

    def run(self, here: Callable[[], object], there: Callable[[], object]) -> None:
        """Run ``here`` on this thread while ``there`` runs on the helper.
        Returns once both are done, also when ``here`` raises; an exception
        raised by ``there`` is re-raised here."""
        self._job = there
        self._wake.release()
        try:
            here()
        finally:
            self._done.acquire()
        if self._failed:
            raise self._failed.pop()

    @staticmethod
    def splits(n: int) -> bool:
        """Whether ``mm`` may split N columns: into halves of a multiple of 8, as
        OpenBLAS computes a call's N mod 8 last columns in another kernel."""
        return n % 16 == 0

    def mm(self, a: Array, b: Array, out: Array | None = None) -> Array:
        """``np.matmul(a, b, out=out)`` for matrices a (M, K) and b (K, N),
        the right half of C's columns computed on the helper when N is a
        multiple of 16 (``splits``) and M*N*K >= ``MM_SPLIT_MIN`` / 2.
        Bitwise equal to one whole ``np.matmul``: each column of C goes
        through the same K loop, in the same micro-kernel, whichever call
        computes it.  Others run whole: OpenBLAS can change bits on its
        small-matrix path (below about 2M multiply-adds)."""
        m, k = a.shape
        n = b.shape[1]
        if not self.splits(n) or 2 * m * n * k < MM_SPLIT_MIN:
            return np.matmul(a, b, out=out)
        if out is None:
            out = np.empty((m, n), np.result_type(a, b))
        h = n // 2
        self.run(lambda: np.matmul(a, b[:, :h], out=out[:, :h]), lambda: np.matmul(a, b[:, h:], out=out[:, h:]))
        return out


# A block of GEMMs whose largest has this many multiply-adds (M*N*K) gets a
# helper (``_gemms``): a thread start and join, about 0.1 ms, is under a
# tenth of the half of such a GEMM that ``TwoCpus.mm`` hands it.
MM_SPLIT_MIN = 1 << 26


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _gemms(m: int, k: int, n: int):
    """The GEMM to run a block of GEMMs with, the largest of them (m, k) @
    (k, n): ``TwoCpus.mm`` on one helper kept for the block when m*k*n >=
    ``MM_SPLIT_MIN`` and the process may use more than one CPU, else
    ``np.matmul``."""
    if m * k * n < MM_SPLIT_MIN or usable_cpus() < 2:
        yield np.matmul
        return
    with TwoCpus() as cpus:
        yield cpus.mm


def _mm(a: Array, b: Array, out: Array | None = None) -> Array:
    """``np.matmul(a, b, out=out)`` for matrices a (M, K) and b (K, N), as one
    GEMM block (``_gemms``).  Below ``MM_SPLIT_MIN``, or with N columns that
    ``TwoCpus.splits`` keeps whole, it is ``np.matmul`` and opens no helper."""
    m, k = a.shape
    n = b.shape[1]
    if m * k * n < MM_SPLIT_MIN or not TwoCpus.splits(n):
        return np.matmul(a, b, out=out)
    with _gemms(m, k, n) as mm:
        return mm(a, b, out=out)


def _check_same_shape(a: Array, b: Array, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a.data, b.data, "add")
    return _make(a.data + b.data, "add", (a, b), (lambda g: g, lambda g: g))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a.data, b.data, "subtract")
    return _make(a.data - b.data, "subtract", (a, b), (lambda g: g, lambda g: -g))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a.data, b.data, "multiply")
    ad, bd = a.data, b.data
    return _make(ad * bd, "multiply", (a, b), (lambda g: g * bd, lambda g: g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    return _make(a.data * s, "scale", (a,), (lambda g: g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched ``a @ b`` of a (n, i, k) and b (n, k, j)."""
    ad, bd = a.data, b.data
    if ad.ndim != 3 or bd.ndim != 3 or ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
        raise ShapeError(f"matmul: batched shapes do not conform: {ad.shape} @ {bd.shape}")
    return _make(
        ad @ bd, "matmul", (a, b),
        (lambda g: g @ bd.transpose(0, 2, 1), lambda g: ad.transpose(0, 2, 1) @ g),
    )


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ W.T (+ b)`` for x of shape (..., in) with rank 2 or 3 and W of shape (out, in).

    One node in place of transpose, matmul and add.  The weight gradient
    ``g.T @ x`` is built directly in W's own (out, in) layout.
    """
    xd, Wd = x.data, W.data
    bias_shape = None if b is None else b.data.shape
    if (
        Wd.ndim != 2
        or xd.ndim not in (2, 3)
        or xd.shape[-1] != Wd.shape[1]
        or bias_shape not in (None, Wd.shape[:1])
    ):
        bias = "" if b is None else f" + {bias_shape}"
        raise ShapeError(f"linear: {xd.shape} @ {Wd.shape}.T{bias} do not conform")
    n_out, n_in = Wd.shape
    x2 = xd.reshape(-1, n_in)
    out2 = _mm(x2, Wd.T)

    def vjp_x(g):
        return _mm(g.reshape(-1, n_out), Wd).reshape(xd.shape)

    def vjp_W(g):
        return _mm(g.reshape(-1, n_out).T, x2)

    def vjp_b(g):
        return g.reshape(-1, n_out).sum(axis=0)

    parents, vjps = (x, W), (vjp_x, vjp_W)
    if b is not None:
        out2 += b.data
        parents, vjps = (x, W, b), (vjp_x, vjp_W, vjp_b)
    return _make(out2.reshape(xd.shape[:-1] + (n_out,)), "linear", parents, vjps)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.data.shape}")
    return _make(a.data.T, "transpose", (a,), (lambda g: g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")
    old = a.data.shape
    return _make(a.data.reshape(shape), "reshape", (a,), (lambda g: g.reshape(old),))


def sum_axis(a: Tensor) -> Tensor:
    """The sum of every element of ``a``, as a scalar."""
    return _make(np.asarray(a.data.sum()), "sum", (a,), (lambda g: np.full(a.data.shape, g),))


def mean_axis(a: Tensor, axis: int) -> Tensor:
    _check_axis(a, axis, "mean")
    n = a.data.shape[axis]
    # What ndarray.mean computes (sum, then one true division), without its
    # Python-level wrapper.
    out = a.data.sum(axis=axis)
    out /= n
    return _make(
        out, "mean", (a,),
        (lambda g: np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape).copy(),),
    )


def _check_axis(a: Tensor, axis: int, op: str) -> None:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"{op}: axis {axis} out of range for shape {a.data.shape}")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one input")
    datas = [t.data for t in tensors]
    base = datas[0].shape
    ax = axis % len(base) if base else 0
    before, after = base[:ax], base[ax + 1 :]
    for d in datas[1:]:
        other = d.shape
        if len(other) != len(base) or other[:ax] != before or other[ax + 1 :] != after:
            raise ShapeError(f"concat: incompatible shapes {[d.shape for d in datas]} along axis {axis}")
    out = np.concatenate(datas, axis=axis)
    lead = (slice(None),) * ax
    vjps, lo = [], 0
    for d in datas:
        hi = lo + d.shape[axis]
        vjps.append(lambda g, index=lead + (slice(lo, hi),): g[index])
        lo = hi
    return _make(out, "concat", tuple(tensors), tuple(vjps))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    _check_axis(a, axis, "slice")
    extent = a.data.shape[axis]
    if not 0 <= start <= stop <= extent:
        raise ShapeError(f"slice: window [{start}, {stop}) outside axis {axis} of shape {a.data.shape}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return full

    return _make(a.data[index], "slice", (a,), (vjp,))


def gather_rows(a: Tensor, index: Array) -> Tensor:
    """``a[index]``: rows of ``a`` (n, ...) at an integer ``index`` of any shape.

    An index that takes every row once, in order, is a reshape: the result
    and its VJP are views.  Otherwise the VJP sums ``g`` back into the rows
    with ``np.add.at``.
    """
    index, shape = np.asarray(index), a.data.shape
    if (
        index.dtype.kind not in "iu"
        or not shape
        or (index.size and not 0 <= index.min() <= index.max() < shape[0])
    ):
        raise ShapeError(f"gather_rows: index {index.shape} ({index.dtype}) does not pick rows of {shape}")
    flat = index.reshape(-1)
    # n rows within [0, n) in strictly increasing order can only be 0..n-1.
    if index.size == shape[0] and (flat[1:] > flat[:-1]).all():
        return _make(a.data.reshape(index.shape + shape[1:]), "gather_rows", (a,), (lambda g: g.reshape(shape),))

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        return full

    return _make(a.data[index], "gather_rows", (a,), (vjp,))


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("stack: need at least one input")
    shape = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape != shape:
            raise ShapeError(f"stack: mismatched input shapes {shape} vs {t.data.shape}")
    out = np.stack([t.data for t in tensors], axis=axis)

    def make_vjp(i: int):
        return lambda g: np.take(g, i, axis=axis)

    return _make(out, "stack", tuple(tensors), tuple(make_vjp(i) for i in range(len(tensors))))


def sigmoid(a: Tensor) -> Tensor:
    # 0.5 * (1 + tanh(x / 2)): one transcendental, no overflow for any finite x.
    out = np.tanh(0.5 * a.data)
    out += 1.0
    out *= 0.5

    def vjp(g):
        return g * out * (1.0 - out)

    return _make(out, "sigmoid", (a,), (vjp,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def vjp(g):
        return g * (1.0 - out * out)

    return _make(out, "tanh", (a,), (vjp,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return g * mask

    return _make(np.where(mask, a.data, 0.0), "relu", (a,), (vjp,))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    ad = a.data

    def vjp(g):
        return g / ad

    return _make(out, "log", (a,), (vjp,))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return p * (g - (g * p).sum(axis=-1, keepdims=True))

    return _make(p, "softmax", (a,), (vjp,))


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis: ``z - logsumexp(z)`` after max subtraction.

    Finite for any finite input, where ``log(softmax(z))`` underflows to
    ``log(0)`` once logits differ by more than about 745.
    """
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    p = e / s

    def vjp(g):
        return g - p * g.sum(axis=-1, keepdims=True)

    return _make(z - np.log(s), "log_softmax", (a,), (vjp,))


def _gru_step(
    h: Array, xp_t: Array, U_zrT: Array, U_cT: Array, zr_t: Array, c_t: Array, h_t: Array, mm: Callable
) -> None:
    """One GRU step from state h (B, H) on a projected input xp_t (B, 3H),
    its GEMMs run by ``mm`` (``_gemms``).

    Writes the z, r gates into zr_t (B, 2H), the candidate into c_t (B, H)
    and the new state into h_t (B, H).  Floating-point addition commutes, so
    adding the input projection onto the GEMM output keeps every bit.
    """
    H = h.shape[1]
    mm(h, U_zrT, out=zr_t)
    zr_t += xp_t[:, : 2 * H]
    zr_t *= 0.5
    np.tanh(zr_t, out=zr_t)
    zr_t += 1.0
    zr_t *= 0.5
    z, r = zr_t[:, :H], zr_t[:, H:]
    mm(r * h, U_cT, out=c_t)
    c_t += xp_t[:, 2 * H :]
    np.tanh(c_t, out=c_t)
    np.multiply(1.0 - z, h, out=h_t)
    h_t += z * c_t


def _gru_step_back(
    dh: Array, zr_t: Array, c_t: Array, hp: Array, U_zr: Array, U_c: Array, d: Array, mm: Callable
) -> None:
    """Back through one ``_gru_step`` from state hp: writes the gradient of
    xp_t into d (B, 3H) and turns dh, the gradient of the new state, into
    that of hp, in place.  ``mm`` runs its GEMMs."""
    H = hp.shape[1]
    z, r = zr_t[:, :H], zr_t[:, H:]
    np.multiply(dh * z, 1.0 - c_t * c_t, out=d[:, 2 * H :])
    drh = mm(d[:, 2 * H :], U_c)
    np.multiply(dh * (c_t - hp), z * (1.0 - z), out=d[:, :H])
    np.multiply(drh * hp, r * (1.0 - r), out=d[:, H : 2 * H])
    dh *= 1.0 - z
    dh += drh * r
    dh += mm(d[:, : 2 * H], U_zr)


def _gru_dU(d_rows: Array, h_rows: Array, rh_rows: Array) -> Array:
    """Recurrent weight gradient (3H, H) from the rows of d xp (n, 3H), of the
    states the steps started from (n, H) and of r * h (n, H), in one block."""
    n, H = h_rows.shape
    dU = np.empty((3 * H, H))
    with _gemms(2 * H, n, H) as mm:
        mm(d_rows[:, : 2 * H].T, h_rows, out=dU[: 2 * H])
        mm(d_rows[:, 2 * H :].T, rh_rows, out=dU[2 * H :])
    return dU


def gru_scan(xp: Tensor, U: Tensor, h0: Tensor) -> Tensor:
    """GRU recurrence over a projected input sequence, as one node.

    ``xp`` (B, T, 3H) holds each step's input projection ``x W^T + b`` with
    the gates stacked in z, r, c order, ``U`` (3H, H) the recurrent weights
    stacked the same way and ``h0`` (B, H) the initial state.  Per step:
    ``z, r = sigmoid(xp_zr + h U_zr^T)``, ``c = tanh(xp_c + (r*h) U_c^T)``,
    ``h' = (1-z)*h + z*c``, with ``sigmoid`` as in :func:`sigmoid`.  Returns
    every ``h'`` as (B, T, H).

    The VJP sweeps the sequence backward once, shared by all three parents;
    the recurrent weight gradient is two GEMMs over the B*T saved rows.
    """
    xd, Ud, hd = xp.data, U.data, h0.data
    if (
        xd.ndim != 3
        or Ud.ndim != 2
        or xd.shape[1] == 0
        or Ud.shape[0] != 3 * Ud.shape[1]
        or xd.shape[2] != Ud.shape[0]
        or hd.shape != (xd.shape[0], Ud.shape[1])
    ):
        raise ShapeError(f"gru_scan: xp {xd.shape}, U {Ud.shape}, h0 {hd.shape} do not conform")
    B, n, _ = xd.shape
    H = Ud.shape[1]
    U_zr, U_c = Ud[: 2 * H], Ud[2 * H :]
    U_zrT, U_cT = U_zr.T, U_c.T
    # Gate values, saved for the sweep, are time-major: each step's GEMMs
    # write into one contiguous block.
    zr = np.empty((n, B, 2 * H))
    c = np.empty((n, B, H))
    hs = np.empty((B, n, H))
    h = hd
    with _gemms(B, H, 2 * H) as mm:
        for t in range(n):
            _gru_step(h, xd[:, t], U_zrT, U_cT, zr[t], c[t], hs[:, t], mm)
            h = hs[:, t]
    swept: list = [None, None]  # [g, (dxp, dh0)]: the first VJP called runs the sweep

    def sweep(g):
        if swept[0] is not g:
            dxp = np.empty((B, n, 3 * H))
            dh = np.zeros((B, H))
            with _gemms(B, H, 2 * H) as mm:
                for t in reversed(range(n)):
                    dh += g[:, t]
                    _gru_step_back(dh, zr[t], c[t], hs[:, t - 1] if t else hd, U_zr, U_c, dxp[:, t], mm)
            swept[:] = g, (dxp, dh)
        return swept[1]

    def vjp_xp(g):
        return sweep(g)[0]

    def vjp_U(g):
        h_prev = np.concatenate((hd[:, None], hs[:, :-1]), axis=1)
        rh = zr[:, :, H:].transpose(1, 0, 2) * h_prev
        return _gru_dU(sweep(g)[0].reshape(B * n, 3 * H), h_prev.reshape(B * n, H), rh.reshape(B * n, H))

    def vjp_h0(g):
        return sweep(g)[1]

    return _make(hs, "gru_scan", (xp, U, h0), (vjp_xp, vjp_U, vjp_h0))


def attend_scan(
    v: Tensor,
    mask: Tensor,
    pose: Tensor | None,
    bias: Tensor | None,
    drops: tuple[Array, Array] | None,
    W0: Tensor,
    b0: Tensor,
    W1: Tensor,
    b1: Tensor,
    W: Tensor,
    b: Tensor,
    U: Tensor,
) -> tuple[Tensor, Tensor]:
    """Soft attention that reads a GRU's state, and the GRU it feeds, as one node.

    ``v`` (B, T, K, D) holds the features of K slots per frame, ``mask``
    (B, T, K) their weights, ``pose`` (B, T, P) what the attention reads
    besides the state (or None) and ``bias`` (B, T, K) what it adds to its
    logits (or None).  Per frame t, from the state h before it (zeros at the
    first): ``u = relu([pose_t, h] W0^T + b0)``, ``p = softmax(u W1^T + b1 +
    bias_t)``, ``ctx = sum_k p_k mask_tk v_tk``, then one step of
    :func:`gru_scan` on ``ctx W^T + b`` with ``U``.  ``drops`` holds inverted
    dropout masks (T, B, A) for u and (T, B, D) for ctx, or None.

    It runs the array ops, on the same shapes and layouts, of the per-frame
    composition of ``concat``, ``linear``, ``relu``, ``softmax``,
    ``multiply``, ``matmul`` and one-step ``gru_scan`` nodes, so its values
    equal that composition's bit for bit.  Returns the states (B, T, H) on
    the tape, and the attention (B, T, K) as a constant.  As in
    ``gru_scan``, only the outputs are checked for finiteness.  The VJP
    sweeps the frames backward once; each weight gradient is one GEMM over
    the B*T saved rows.
    """
    vd, md, Ud = v.data, mask.data, U.data
    B, n, K, D = vd.shape if vd.ndim == 4 else (0, 0, 0, 0)
    A = W0.data.shape[0] if W0.data.ndim == 2 else -1
    H = Ud.shape[1] if Ud.ndim == 2 else -1
    P = 0 if pose is None else pose.data.shape[-1] if pose.data.ndim == 3 else -1
    n_in = P + H
    if (
        n == 0
        or md.shape != (B, n, K)
        or (pose is not None and pose.data.shape != (B, n, P))
        or (bias is not None and bias.data.shape != (B, n, K))
        or (drops is not None and (drops[0].shape, drops[1].shape) != ((n, B, A), (n, B, D)))
        or W0.data.shape != (A, n_in)
        or b0.data.shape != (A,)
        or W1.data.shape != (K, A)
        or b1.data.shape != (K,)
        or W.data.shape != (3 * H, D)
        or b.data.shape != (3 * H,)
        or Ud.shape != (3 * H, H)
    ):
        shapes = ", ".join(
            f"{name} {None if t is None else t.data.shape}"
            for name, t in (("v", v), ("mask", mask), ("pose", pose), ("bias", bias), ("W0", W0),
                            ("b0", b0), ("W1", W1), ("b1", b1), ("W", W), ("b", b), ("U", U))
        )
        drop_shapes = None if drops is None else tuple(d.shape for d in drops)
        raise ShapeError(f"attend_scan: {shapes}, drops {drop_shapes} do not conform")
    params = (W0, b0, W1, b1, W, b, U)
    W0d, W1d, Wd = W0.data, W1.data, W.data
    W0T, W1T, WT = W0d.T, W1d.T, Wd.T
    b0d, b1d, bd = b0.data, b1.data, b.data
    U_zr, U_c = Ud[: 2 * H], Ud[2 * H :]
    U_zrT, U_cT = U_zr.T, U_c.T
    drop_u, drop_ctx = (None, None) if drops is None else drops
    # Each frame makes fresh arrays, kept for the sweep only when this node
    # is recorded: scan-sized buffers, made and freed by every eval forward,
    # would cost a page fault per page touched.
    keep = bool(_TLS.stack) and any(t.requires_grad for t in params)
    hs = [np.zeros((B, H))]  # hs[t]: the state frame t starts from
    ps: list[Array] = []
    xs: list[Array] = []  # what the attention read
    lives: list[Array] = []  # where its ReLU passed
    us: list[Array] = []  # its hidden layer, after dropout
    ctxs: list[Array] = []  # the GRU inputs
    zrs: list[Array] = []  # the GRU gates
    cs: list[Array] = []  # the GRU candidates
    with _gemms(B, H, 2 * H) as mm:
        for t in range(n):
            h = hs[t]
            x = h if pose is None else np.concatenate((pose.data[:, t], h), axis=1)
            a = x @ W0T
            a += b0d
            live = a > 0
            u = np.where(live, a, 0.0)
            if drop_u is not None:
                u = u * drop_u[t]
            logits = u @ W1T
            logits += b1d
            logits = logits.reshape(B, 1, K)
            if bias is not None:
                logits = logits + bias.data[:, t : t + 1]
            # softmax's reductions, without the ndarray methods' Python wrappers
            e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
            p = e / np.add.reduce(e, axis=-1, keepdims=True)
            ctx = p * md[:, t : t + 1] @ vd[:, t]  # (B, 1, K) @ (B, K, D)
            if drop_ctx is not None:
                ctx = ctx * drop_ctx[t][:, None]
            xp = mm(ctx.reshape(B, D), WT)
            xp += bd
            zr, c, h_t = np.empty((B, 2 * H)), np.empty((B, H)), np.empty((B, H))
            _gru_step(h, xp, U_zrT, U_cT, zr, c, h_t, mm)
            hs.append(h_t)
            ps.append(p)
            if keep:
                xs.append(x)
                lives.append(live)
                us.append(u)
                ctxs.append(ctx.reshape(B, D))
                zrs.append(zr)
                cs.append(c)
    swept: list = [None, None]  # [g, (da, dl, dxp)]: the first VJP called runs the sweep

    def sweep(g):
        if swept[0] is not g:
            da, dl, dxp = np.empty((n, B, A)), np.empty((n, B, K)), np.empty((n, B, 3 * H))
            dh = np.zeros((B, H))
            W0h = W0d[:, P:]  # the columns that read the state
            with _gemms(B, H, 2 * H) as mm:
                for t in reversed(range(n)):
                    dh += g[:, t]
                    _gru_step_back(dh, zrs[t], cs[t], hs[t], U_zr, U_c, dxp[t], mm)
                    dctx = mm(dxp[t], Wd)
                    if drop_ctx is not None:
                        dctx *= drop_ctx[t]
                    dp = np.matmul(vd[:, t], dctx[:, :, None])[:, :, 0]
                    dp *= md[:, t]
                    p_t = ps[t][:, 0]
                    np.multiply(p_t, dp - np.add.reduce(dp * p_t, axis=-1, keepdims=True), out=dl[t])
                    du = dl[t] @ W1d
                    if drop_u is not None:
                        du *= drop_u[t]
                    np.multiply(du, lives[t], out=da[t])
                    if t:  # the first state is a constant
                        dh += da[t] @ W0h
            swept[:] = g, (da.reshape(n * B, A), dl.reshape(n * B, K), dxp.reshape(n * B, 3 * H))
        return swept[1]

    # Each weight gradient multiplies by the rows of all frames, time-major.
    def vjp_W0(g):
        return _mm(sweep(g)[0].T, np.concatenate(xs))

    def vjp_b0(g):
        return sweep(g)[0].sum(axis=0)

    def vjp_W1(g):
        return _mm(sweep(g)[1].T, np.concatenate(us))

    def vjp_b1(g):
        return sweep(g)[1].sum(axis=0)

    def vjp_W(g):
        return _mm(sweep(g)[2].T, np.concatenate(ctxs))

    def vjp_b(g):
        return sweep(g)[2].sum(axis=0)

    def vjp_U(g):
        h_rows = np.concatenate(hs[:-1])
        rh = np.concatenate(zrs)[:, H:] * h_rows
        return _gru_dU(sweep(g)[2], h_rows, rh)

    vjps = (vjp_W0, vjp_b0, vjp_W1, vjp_b1, vjp_W, vjp_b, vjp_U)
    return _make(np.stack(hs[1:], axis=1), "attend_scan", params, vjps), Tensor(np.concatenate(ps, axis=1))
