"""Candidate operations of the two search levels.

First level (unary, weight-free): Identity, Zero.  Second level (binary,
all mapping a pair of N x C x L tensors to N x C x L): Zero, Sum,
Attention (single-head scaled dot-product over the position axis),
LinearGLU, and ConcatFC.  Attention, LinearGLU, ConcatFC and
``channel_linear`` are one autodiff primitive each, with the arithmetic of
the transpose/reshape/matmul/... chain they replace; learnable weights are
owned by ``OpInstance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .gumbel import softmax

FIRST_LEVEL_OPS = ("identity", "zero")
SECOND_LEVEL_OPS = ("zero", "sum", "attention", "linear_glu", "concat_fc")


def _check_channels(x: Tensor, w: Tensor, op: str) -> None:
    if w.shape[0] != x.shape[1]:
        raise ShapeError(f"{op}: weight {w.shape} does not accept {x.shape[1]} channels")


def _mix(x: np.ndarray, w: np.ndarray):
    """Channel mixing of an (N, C, L) array: its (N * L, C) rows and the
    (N, C_out, L) view of their product with ``w``."""
    n, c, length = x.shape
    flat = x.transpose(0, 2, 1).reshape(n * length, c)
    return flat, (flat @ w).reshape(n, length, w.shape[1]).transpose(0, 2, 1)


def _mix_bw(g, x: Tensor, w: Tensor, flat) -> None:
    """Accumulate the gradients of ``_mix`` into w, then x, from its
    output's gradient ``g``, reading g's rows and writing x's gradient
    through views that mirror the forward's."""
    n, c, length = x.shape
    g_h = g.transpose(0, 2, 1).reshape(n * length, w.shape[1])
    if w.requires_grad:
        ad.accumulate(w, flat.swapaxes(-1, -2) @ g_h)
    if x.requires_grad:
        g_flat = g_h @ w.data.swapaxes(-1, -2)
        ad.accumulate(x, g_flat.reshape(n, length, c).transpose(0, 2, 1))


def channel_linear(x: Tensor, w: Tensor) -> Tensor:
    """Apply a channel-mixing matrix (C_in x C_out) at every batch position."""
    _check_channels(x, w, "channel_linear")
    flat, out = _mix(x.data, w.data)
    return ad.result(x.tape, out, (x, w), lambda g: _mix_bw(g, x, w, flat))


def _check_pair(x: Tensor, y: Tensor, op: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{op}: operand shapes {x.shape} and {y.shape} differ")


def op_identity(tape, x: Tensor) -> Tensor:
    return x


def op_zero(tape, x: Tensor, y: Tensor = None) -> Tensor:
    if y is not None:
        _check_pair(x, y, "zero")
    return ad.scale(x, 0.0)


def op_sum(tape, x: Tensor, y: Tensor) -> Tensor:
    _check_pair(x, y, "sum")
    return ad.add(x, y)


def op_attention(tape, x: Tensor, y: Tensor) -> Tensor:
    """Softmax(x^T y / sqrt(C)) attention; x supplies queries, y keys/values.

    Positions along L are the tokens, channels the feature dimension; the
    softmax normalizes over the key positions.
    """
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"attention: channel counts {x.shape} and {y.shape} differ")
    scale = 1.0 / math.sqrt(x.shape[1])
    queries = x.data.transpose(0, 2, 1)
    attn = softmax((queries @ y.data) * scale)  # (N, Lq, Lk), normalized over keys
    attn_t = attn.transpose(0, 2, 1)

    def bw(g):
        if y.requires_grad:
            ad.accumulate(y, g @ attn_t.swapaxes(-1, -2))
        g_attn = (y.data.swapaxes(-1, -2) @ g).transpose(0, 2, 1)
        # the product takes attn's layout, so each row sum reads contiguous rows
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) * scale
        if y.requires_grad:
            ad.accumulate(y, queries.swapaxes(-1, -2) @ g_scores)
        if x.requires_grad:
            ad.accumulate(x, (g_scores @ y.data.swapaxes(-1, -2)).transpose(0, 2, 1))

    return ad.result(tape, y.data @ attn_t, (x, y), bw)


def op_linear_glu(tape, x: Tensor, y: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """channel_linear(x, w1) gated by sigmoid(channel_linear(y, w2))."""
    _check_pair(x, y, "linear_glu")
    _check_channels(x, w1, "channel_linear")
    _check_channels(y, w2, "channel_linear")
    flat_x, lin = _mix(x.data, w1.data)
    flat_y, pre = _mix(y.data, w2.data)
    gate = ad.logistic(pre)

    def bw(g):
        if y.requires_grad or w2.requires_grad:
            _mix_bw(g * lin * gate * (1.0 - gate), y, w2, flat_y)
        if x.requires_grad or w1.requires_grad:
            _mix_bw(g * gate, x, w1, flat_x)

    return ad.result(tape, lin * gate, (x, y, w1, w2), bw)


def op_concat_fc(tape, x: Tensor, y: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """ReLU(W^T [x; y] + b) at every batch position."""
    _check_pair(x, y, "concat_fc")
    joint = np.concatenate([x.data, y.data], axis=1)  # (N, 2C, L)
    n, c2, length = joint.shape
    if w.shape[0] != c2:
        raise ShapeError(f"concat_fc: weight {w.shape} does not accept {c2} channels")
    rows = joint.transpose(0, 2, 1)
    flat = rows.reshape(n * length, c2)
    ones = np.ones((n * length, 1))  # the bias replicated over rows by a ones matmul
    pre = flat @ w.data + ones @ b.data.reshape((1, b.shape[0]))
    mask = pre > 0  # adjoint at exactly 0 is 0
    out_rows = (pre * mask).reshape((n, length, w.shape[1]))

    def bw(g):
        g_pre = g.transpose(0, 2, 1).reshape(pre.shape) * mask
        if b.requires_grad:
            ad.accumulate(b, (ones.swapaxes(-1, -2) @ g_pre).reshape(b.shape))
        if w.requires_grad:
            ad.accumulate(w, flat.swapaxes(-1, -2) @ g_pre)
        if x.requires_grad or y.requires_grad:
            g_joint = (g_pre @ w.data.swapaxes(-1, -2)).reshape(rows.shape).transpose(0, 2, 1)
            ad.accumulate(x, g_joint[:, : x.shape[1]])
            ad.accumulate(y, g_joint[:, x.shape[1] :])

    return ad.result(tape, out_rows.transpose(0, 2, 1), (x, y, w, b), bw)


@dataclass(frozen=True)
class OpDescriptor:
    """Name, search level, arity, and owned weight shapes of one candidate op."""

    name: str
    level: str
    arity: int
    weight_shapes: tuple
    fan_ins: tuple

    @property
    def param_count(self) -> int:
        return int(sum(np.prod(s) for s in self.weight_shapes))


def descriptor(name: str, channels: int, level: str = "second") -> OpDescriptor:
    c = channels
    if level == "first":
        if name not in FIRST_LEVEL_OPS:
            raise ValueError(f"{name!r} is not a first-level operation")
        return OpDescriptor(name, "first", 1, (), ())
    if name not in SECOND_LEVEL_OPS:
        raise ValueError(f"{name!r} is not a second-level operation")
    if name in ("zero", "sum", "attention"):
        return OpDescriptor(name, "second", 2, (), ())
    if name == "linear_glu":
        return OpDescriptor(name, "second", 2, ((c, c), (c, c)), (c, c))
    return OpDescriptor(name, "second", 2, ((2 * c, c), (c,)), (2 * c, 2 * c))


class OpInstance:
    """A candidate op plus its initialized weights (fan-in uniform, seeded)."""

    def __init__(self, desc: OpDescriptor, rng: np.random.Generator):
        self.descriptor = desc
        self.weights = [
            rng.uniform(-1.0 / math.sqrt(f), 1.0 / math.sqrt(f), size=s)
            for s, f in zip(desc.weight_shapes, desc.fan_ins)
        ]

    @property
    def param_count(self) -> int:
        return self.descriptor.param_count

    def forward(self, tape, x: Tensor, y: Tensor, weight_tensors):
        """The second-level op on (x, y); ``weight_tensors`` are leaves of ``weights``."""
        name = self.descriptor.name
        if name == "zero":
            return op_zero(tape, x, y)
        if name == "sum":
            return op_sum(tape, x, y)
        if name == "attention":
            return op_attention(tape, x, y)
        if name == "linear_glu":
            return op_linear_glu(tape, x, y, *weight_tensors)
        if name == "concat_fc":
            return op_concat_fc(tape, x, y, *weight_tensors)
        raise ValueError(f"unknown candidate operation {name!r}")
