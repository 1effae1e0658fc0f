"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

A ``Tape`` records primitive applications in execution order; backward
replays the adjoints in reverse, which is a valid reverse topological
order.  A tape replays once: backward consumes its entries and drops each
adjoint closure, with whatever only it holds, as soon as it has run, so
no closure -> tensor -> tape cycle outlives the replay and a step's arrays
are freed by reference count; a second backward raises ``ValueError``.
Tensors are float64 throughout, immutable once recorded, and there is no
broadcasting beyond scalar scaling: shape mismatches raise ``ShapeError``
carrying both shapes.

Custom primitives are built like the ones here: compute a forward value and
pass ``result`` an adjoint that takes the output's gradient and feeds the
inputs' through ``accumulate``, computing a product only for an input that
takes a gradient.  The fusion ops and the search's mixture weights, head
and loss are such primitives, one tape entry each, and their adjoints are
plain formulas.  Every ``.grad`` is laid out like its ``.data``: backward
seeds the loss's with ``ones_like``, a parameter group's leaves start from
zeroed views laid out like theirs (``search.ParamGroup``), and
``accumulate``, the only other writer, copies a first write into that
layout.  An adjoint thus gets its
output's gradient in the output's layout, and views of it that mirror the
forward's feed BLAS products and row sums the layouts the replaced chain's
stored gradients had, so they round the same.  Elementwise arithmetic
rounds the same in any layout, and the chain's copies only turned -0 into
+0, as ``accumulate`` still does.  Adjoints write nothing in place: their
views may alias ``g`` and forward arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gumbel import log_softmax, softmax

class ShapeError(ValueError):
    """Operand shapes incompatible for the requested primitive."""


class Tape:
    """Ordered record of primitive operations; replays adjoints in reverse."""

    def __init__(self):
        self._entries = []
        self._replayed = False

    def tensor(self, data, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.asarray(data, dtype=np.float64), self, requires_grad)

    def constant(self, data) -> "Tensor":
        return Tensor(np.asarray(data, dtype=np.float64), self, False)

    def record(self, backward_fn) -> None:
        """Append an adjoint closure; closures run once, in reverse order."""
        self._entries.append(backward_fn)

    def backward(self, loss: "Tensor") -> None:
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if loss.tape is not self:
            raise ValueError("loss was recorded on a different tape")
        if self._replayed:
            raise ValueError("backward already ran on this tape; a tape replays once")
        self._replayed = True
        entries, self._entries = self._entries, []
        loss.grad = np.ones_like(loss.data)
        while entries:
            entries.pop()()


class Tensor:
    """Dense float64 array with an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "tape", "requires_grad")

    def __init__(self, data: np.ndarray, tape: Tape, requires_grad: bool):
        self.data = data
        self.grad = None
        self.tape = tape
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def accumulate(t: Tensor, g: np.ndarray, at=...) -> None:
    """Add ``g`` into ``t.grad[at]``, the whole gradient by default.

    The one place a gradient is copied: a whole first write stores 0 + g
    laid out like ``t.data`` (a -0 is stored as +0), so ``t.grad`` never
    aliases ``g`` and has its tensor's layout.  Adding into a zeroed
    ``t.grad`` stores the same bits.
    """
    if not t.requires_grad:
        return
    if at is not ...:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[at] += g
    elif t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def result(tape: Tape, data: np.ndarray, inputs, backward) -> Tensor:
    """Wrap a forward value; ``backward(out.grad)`` runs on the way back, if
    any input takes a gradient and the output received one."""
    out = Tensor(data, tape, any(t.requires_grad for t in inputs))
    if out.requires_grad:
        tape.record(lambda: out.grad is None or backward(out.grad))
    return out


def _same_tape(*tensors) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and scalar primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def bw(g):
        accumulate(a, g)
        accumulate(b, g)

    return result(_same_tape(a, b), a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def bw(g):
        accumulate(a, g)
        accumulate(b, -g)

    return result(_same_tape(a, b), a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            accumulate(a, g * b.data)
        if b.requires_grad:
            accumulate(b, g * a.data)

    return result(_same_tape(a, b), a.data * b.data, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return result(a.tape, a.data * s, (a,), lambda g: accumulate(a, g * s))


def weighted_sum(terms, w: Tensor, row=...) -> Tensor:
    """sum_i w[row, i] * terms[i] over the terms that are not None.

    ``row`` picks a weight row of a matrix ``w``; the default takes a vector
    ``w`` whole.  One tape entry, with the arithmetic of scaling each term by
    its weight and adding the products in order.
    """
    weights = w.data[row]
    if weights.shape != (len(terms),):
        raise ShapeError(f"weighted_sum: {len(terms)} terms but weights of shape {weights.shape}")
    present = [(i, x) for i, x in enumerate(terms) if x is not None]
    for _, x in present[1:]:
        _require_same_shape(present[0][1], x, "weighted_sum")
    out = None
    for i, x in present:
        term = x.data * weights[i]
        out = term if out is None else out + term

    def bw(g):
        gw = np.zeros(len(terms))
        for i, x in reversed(present):
            if x.requires_grad:
                accumulate(x, g * weights[i])
            if w.requires_grad:
                # reduced in x's layout, as the product x * w was laid out
                gw[i] = np.multiply(g, x.data, out=np.empty_like(x.data)).sum()
        accumulate(w, gw, row)

    inputs = (w, *(x for _, x in present))
    return result(_same_tape(*inputs), out, inputs, bw)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) elementwise, without overflow: exp(-|x|) once."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    y = logistic(a.data)
    return result(a.tape, y, (a,), lambda g: accumulate(a, g * y * (1.0 - y)))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # adjoint at exactly 0 is 0
    return result(a.tape, a.data * mask, (a,), lambda g: accumulate(a, g * mask))


# ---------------------------------------------------------------------------
# linear algebra and shape primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    ok = (ad.ndim == 2 and bd.ndim == 2 and ad.shape[1] == bd.shape[0]) or (
        ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] == bd.shape[0] and ad.shape[2] == bd.shape[1]
    )
    if not ok:
        raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} incompatible")

    def bw(g):
        if a.requires_grad:
            accumulate(a, g @ bd.swapaxes(-1, -2))
        if b.requires_grad:
            accumulate(b, ad.swapaxes(-1, -2) @ g)

    return result(_same_tape(a, b), ad @ bd, (a, b), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return result(a.tape, a.data.transpose(axes), (a,), lambda g: accumulate(a, g.transpose(inv)))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    shape = tuple(shape)
    return result(a.tape, a.data.reshape(shape), (a,), lambda g: accumulate(a, g.reshape(old)))


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat: ranks {a.data.shape} and {b.data.shape} differ")
    for ax in range(a.data.ndim):
        if ax != axis % a.data.ndim and a.data.shape[ax] != b.data.shape[ax]:
            raise ShapeError(f"concat: shapes {a.data.shape} and {b.data.shape} differ off-axis")
    tape = _same_tape(a, b)
    split = a.data.shape[axis]

    def bw(g):
        sl_a = [slice(None)] * g.ndim
        sl_a[axis] = slice(0, split)
        sl_b = [slice(None)] * g.ndim
        sl_b[axis] = slice(split, None)
        accumulate(a, g[tuple(sl_a)])
        accumulate(b, g[tuple(sl_b)])

    return result(tape, np.concatenate([a.data, b.data], axis=axis), (a, b), bw)


# ---------------------------------------------------------------------------
# reductions and normalizations


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        accumulate(a, np.full_like(a.data, float(g)))

    return result(a.tape, np.asarray(a.data.sum()), (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    def bw(g):
        accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return result(a.tape, a.data.sum(axis=axis), (a,), bw)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    return scale(sum_axis(a, axis), 1.0 / a.data.shape[axis])


def softmax_last(a: Tensor) -> Tensor:
    s = softmax(a.data)

    def bw(g):
        accumulate(a, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return result(a.tape, s, (a,), bw)


def log_softmax_last(a: Tensor) -> Tensor:
    y = log_softmax(a.data)

    def bw(g):
        accumulate(a, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return result(a.tape, y, (a,), bw)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckResult:
    """Worst relative reverse-vs-central-difference error, kinks excluded."""

    max_rel_error: float
    checked: int
    excluded: list = field(default_factory=list)


def grad_check(fn, inputs, step: float = 1e-4) -> GradCheckResult:
    """Compare reverse-mode gradients of a scalar program against central
    finite differences, coordinate by coordinate.

    ``fn(tape, *tensors) -> Tensor`` must be deterministic and scalar-valued.
    Coordinates where the one-sided differences disagree (a nondifferentiable
    point such as a ReLU kink under the step) are excluded and reported, not
    failed.  The probes at x +- step take no gradients: they record no
    adjoints, and their forward values are the same.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]

    def evaluate(arrays, requires_grad):
        tape = Tape()
        tensors = [tape.tensor(x, requires_grad) for x in arrays]
        out = fn(tape, *tensors)
        if out.data.size != 1:
            raise ValueError(f"grad_check requires a scalar program, got shape {out.data.shape}")
        return tape, tensors, out

    tape, tensors, out = evaluate(inputs, True)
    tape.backward(out)
    f0 = out.item()
    ad_grads = [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]

    worst = 0.0
    checked = 0
    excluded = []
    for i, x in enumerate(inputs):
        flat = x.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = evaluate(inputs, False)[2].item()
            flat[j] = orig - step
            f_minus = evaluate(inputs, False)[2].item()
            flat[j] = orig
            fwd = (f_plus - f0) / step
            bwd = (f0 - f_minus) / step
            if abs(fwd - bwd) > 0.05 * (abs(fwd) + abs(bwd)) + 10.0 * step:
                excluded.append((i, j))
                continue
            fd = (f_plus - f_minus) / (2.0 * step)
            ad = ad_grads[i].reshape(-1)[j]
            rel = abs(ad - fd) / max(abs(ad) + abs(fd), 1.0)
            worst = max(worst, rel)
            checked += 1
    return GradCheckResult(max_rel_error=worst, checked=checked, excluded=excluded)
