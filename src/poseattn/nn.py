"""Learnable layers and training math: linear/MLP, GRU, cross-entropy, Adam.

Weight matrices follow the (out, in) convention.  Initialization is
uniform Glorot except for attention output heads, which are zero-initialized
so the first softmax is exactly uniform.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import NumericError, ShapeError, Tensor


@dataclass
class Linear:
    """Affine map y = x W^T + b with W of shape (out, in)."""

    W: Tensor
    b: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.W, self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}


def glorot_uniform(
    rng: np.random.Generator | None, out_dim: int, in_dim: int, gates: int = 1
) -> np.ndarray:
    """``gates`` (out, in) Glorot draws, one after another, stacked as (gates*out, in).

    With ``rng`` None nothing is drawn and the weights are zeros: a skeleton
    whose parameters are about to be overwritten, as a checkpoint load does.
    """
    if rng is None:
        return np.zeros((gates * out_dim, in_dim))
    a = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-a, a, size=(gates, out_dim, in_dim)).reshape(gates * out_dim, in_dim)


def linear_init(rng: np.random.Generator | None, in_dim: int, out_dim: int) -> Linear:
    """A Glorot-drawn layer with zero bias; with ``rng`` None, all zeros."""
    return Linear(
        W=Tensor(glorot_uniform(rng, out_dim, in_dim), requires_grad=True),
        b=Tensor(np.zeros(out_dim), requires_grad=True),
    )


@dataclass
class Mlp:
    """ReLU-hidden multilayer perceptron with an identity output."""

    layers: list[Linear]

    def __call__(
        self,
        x: Tensor,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
        training: bool = False,
    ) -> Tensor:
        h = x
        for layer in self.layers[:-1]:
            h = T.relu(layer(h))
            h = dropout(h, dropout_rate, rng, training)
        return self.layers[-1](h)

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"{prefix}.l{i}"))
        return out


def mlp_init(
    rng: np.random.Generator | None, dims: Sequence[int], zero_output: bool = False
) -> Mlp:
    layers = [linear_init(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 2)]
    # An all-zero output layer gives an exactly uniform softmax.
    layers.append(linear_init(None if zero_output else rng, dims[-2], dims[-1]))
    return Mlp(layers=layers)


def dropout_mask(
    shape: tuple[int, ...], rate: float, rng: np.random.Generator | None, training: bool
) -> np.ndarray | None:
    """Inverted-dropout mask: 0 or 1/(1-rate) per element at train time, None at eval."""
    if not training or rate <= 0.0:
        return None
    if rng is None:
        raise ValueError("dropout at train time needs an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(
    x: Tensor, rate: float, rng: np.random.Generator | None, training: bool
) -> Tensor:
    """Inverted dropout: mask-multiply with 1/(1-rate) scale at train time, identity at eval."""
    mask = dropout_mask(x.shape, rate, rng, training)
    return x if mask is None else T.multiply(x, Tensor(mask))


@dataclass
class GruParams:
    """One GRU cell with its gates stacked in z, r, c order: W (3H, in), U (3H, H), b (3H).

    Convention: z = sigmoid(W_z x + U_z h + b_z), r likewise,
    c = tanh(W_c x + U_c (r*h) + b_c), h' = (1-z)*h + z*c.
    """

    W: Tensor
    U: Tensor
    b: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.U": self.U, f"{prefix}.b": self.b}

    def run(self, xs: Tensor, h0: Tensor | None = None, rows: np.ndarray | None = None) -> Tensor:
        """Hidden states (B, T, H) over inputs xs (B, T, in), from h0 (zeros by default).

        The input projection of every step is one GEMM over the B*T rows;
        only the recurrence runs step by step, inside ``gru_scan``.  With
        ``rows`` (B, T), xs is a table of inputs (n, in) and step t of
        sequence b reads row ``rows[b, t]``: each row is projected once.
        """
        xp = T.linear(xs, self.W, self.b)
        if rows is not None:
            xp = T.gather_rows(xp, rows)
        if h0 is None:
            h0 = Tensor(np.zeros((xp.shape[0], self.hidden_dim)))
        return T.gru_scan(xp, self.U, h0)


def gru_init(rng: np.random.Generator | None, input_dim: int, hidden_dim: int) -> GruParams:
    return GruParams(
        W=Tensor(glorot_uniform(rng, hidden_dim, input_dim, gates=3), requires_grad=True),
        U=Tensor(glorot_uniform(rng, hidden_dim, hidden_dim, gates=3), requires_grad=True),
        b=Tensor(np.zeros(3 * hidden_dim), requires_grad=True),
    )


def gru_cell_step(params: GruParams, h_prev: Tensor, x: Tensor) -> Tensor:
    """One step of the recurrence: ``run`` over a sequence of length 1."""
    if h_prev.shape[-1] != params.hidden_dim:
        raise ShapeError(
            f"gru_cell_step: hidden dim {h_prev.shape[-1]} != cell dim {params.hidden_dim}"
        )
    if x.shape[-1] != params.input_dim:
        raise ShapeError(f"gru_cell_step: input dim {x.shape[-1]} != cell dim {params.input_dim}")
    b = x.shape[0]
    out = params.run(T.reshape(x, (b, 1, params.input_dim)), h_prev)
    return T.reshape(out, (b, params.hidden_dim))


@dataclass
class GruStack:
    """Stacked GRU layers; layer l consumes layer l-1's hidden states."""

    cells: list[GruParams]

    def forward(
        self,
        xs: Tensor,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
        training: bool = False,
    ) -> Tensor:
        """Run the stack over xs (B, T, in), one layer at a time; returns the
        top layer's states (B, T, H)."""
        if xs.ndim != 3:
            raise ShapeError(f"gru_stack_forward: inputs must be (B, T, in), got {xs.shape}")
        if xs.shape[1] == 0:
            raise ShapeError("gru_stack_forward: empty input sequence")
        h = xs
        for layer, cell in enumerate(self.cells):
            if layer > 0:
                h = dropout(h, dropout_rate, rng, training)
            h = cell.run(h)
        return h

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, cell in enumerate(self.cells):
            out.update(cell.named(f"{prefix}.layer{i}"))
        return out


def gru_stack_init(
    rng: np.random.Generator | None, input_dim: int, hidden_dim: int, n_layers: int
) -> GruStack:
    cells = [
        gru_init(rng, input_dim if i == 0 else hidden_dim, hidden_dim)
        for i in range(n_layers)
    ]
    return GruStack(cells=cells)


def one_hot(targets: np.ndarray, n_classes: int) -> np.ndarray:
    targets = np.asarray(targets)
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValueError(
            f"class index outside [0, {n_classes}): {targets.min()}..{targets.max()}"
        )
    out = np.zeros((targets.size, n_classes))
    out[np.arange(targets.size), targets.reshape(-1)] = 1.0
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits)[target]."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be (batch, classes), got {logits.shape}")
    n, c = logits.shape
    targets = np.asarray(targets).reshape(-1)
    if targets.size != n:
        raise ShapeError(f"cross_entropy: {n} rows but {targets.size} targets")
    mask = Tensor(one_hot(targets, c))
    log_p = T.log_softmax(logits)
    return T.scale(T.sum_axis(T.multiply(log_p, mask)), -1.0 / n)


@dataclass
class AdamState:
    """Adam moments and hyperparameters; ``step`` counts applied updates."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


# Elements per block of Adam's update: a block of the parameter, its two
# moments, its gradient and two scratch blocks (3 MB) stay in cache through
# the update's passes.
ADAM_BLOCK = 1 << 16
# Updates of at least this many elements hand every other block to a helper
# thread, when the process may use more than one CPU: a thread start and
# join (about 0.2 ms) is then a few percent of the half it takes over.
ADAM_THREAD_MIN = 1 << 19


def adam_step(state: AdamState, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
    """Apply one Adam update in place; parameters without a gradient are untouched.

    Every gradient is checked (finite, the parameter's shape, a C-contiguous
    parameter) before anything is written, so a failed check leaves every
    parameter, moment and ``state.step`` as they were.  The update is
    elementwise, so it runs over flat blocks of ``ADAM_BLOCK`` elements, with
    the same operations in the same order for every element: its values do
    not depend on the block size or on which thread ran a block.
    """
    for name, g in grads.items():
        p = params[name].data
        if not np.isfinite(g).all():
            raise NumericError(f"adam_step: non-finite gradient for {name}")
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        if not p.flags.c_contiguous:
            # A flat view of it would be a copy, and the update would be lost.
            raise ShapeError(f"adam_step: parameter {name} is not C-contiguous")
    state.step += 1
    t = state.step
    blocks = []
    for name, g in grads.items():
        p = params[name].data
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros(p.shape)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros(p.shape)
        flat = (p.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1))
        blocks += [(flat, lo) for lo in range(0, g.size, ADAM_BLOCK)]
    coeffs = (state.lr, state.beta1, state.beta2, state.eps, 1.0 - state.beta1**t, 1.0 - state.beta2**t)
    if sum(g.size for g in grads.values()) < ADAM_THREAD_MIN or T.usable_cpus() < 2:
        _adam_blocks(blocks, coeffs)
    else:
        with T.TwoCpus() as cpus:
            cpus.run(lambda: _adam_blocks(blocks[::2], coeffs), lambda: _adam_blocks(blocks[1::2], coeffs))


def _adam_blocks(blocks: list, coeffs: tuple) -> None:
    """The Adam update of each block ``((p, m, v, g), lo)``: elements lo to
    lo + ADAM_BLOCK of the flat parameter, moments and gradient."""
    lr, beta1, beta2, eps, bc1, bc2 = coeffs
    scratch_a, scratch_b = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for (p, m, v, g), lo in blocks:
        hi = lo + ADAM_BLOCK
        p, m, v, g = p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi]
        a, b = scratch_a[: g.size], scratch_b[: g.size]
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), written into the
        # scratch blocks.
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.grad for name, p in params.items() if p.grad is not None}


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
