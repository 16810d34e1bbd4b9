"""Dense float64 tensors with reverse-mode autodiff on a dynamic tape.

Every operation records a node on a module-level tape while gradients are
enabled and at least one input requires them. ``backward`` walks the tape in
reverse append order, accumulates gradients into the leaves, and consumes the
tape (one backward per recorded graph). Values are float64 throughout; the
checkpoint layer is the only place 32-bit precision appears.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

BCE_CLAMP = 1e-7

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operands have shapes incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Backward invoked on a missing, non-scalar, or already-consumed graph."""


class Tensor:
    """A dense n-dimensional float64 array with an optional gradient buffer.

    ``requires_grad`` marks trainable leaves; tensors produced by operations
    inherit it from their inputs. ``grad`` stays ``None`` until a backward
    pass deposits into it.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_epoch")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op: str | None = None  # tag of the producing operation, None for leaves
        self._epoch = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f", op={self.op!r}" if self.op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # Small amount of operator sugar so call sites read like the math.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return hadamard(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))


class _Node:
    __slots__ = ("tag", "inputs", "out", "backward")

    def __init__(self, tag: str, inputs: tuple[Tensor, ...], out: Tensor,
                 backward: Callable[[np.ndarray], None]):
        self.tag = tag
        self.inputs = inputs
        self.out = out
        self.backward = backward


class _TapeState(threading.local):
    """Per-thread recording state.

    Forward/backward of one graph stay on one thread (single-writer tape);
    worker threads doing no-grad inference each get their own flag and tape,
    so toggling grad mode in one thread never disturbs another.
    """

    def __init__(self):
        self.grad_enabled = True
        self.tape: list[_Node] = []
        self.epoch = 0
        self.mac_counter: MacCounter | None = None


_state = _TapeState()


class MacCounter:
    """Counts the multiply-accumulates of every matmul executed in scope."""

    def __init__(self):
        self.macs = 0


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / finite differences)."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


@contextlib.contextmanager
def count_macs():
    """Yield a :class:`MacCounter` accumulating matmul MACs executed in scope."""
    prev = _state.mac_counter
    counter = MacCounter()
    _state.mac_counter = counter
    try:
        yield counter
    finally:
        _state.mac_counter = prev


def reset_graph() -> None:
    """Drop any recorded-but-unconsumed tape (e.g. after an abandoned forward)."""
    _state.tape.clear()
    _state.epoch += 1


def _record(tag: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    needs = _state.grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        out.op = tag
        out._epoch = _state.epoch
        _state.tape.append(_Node(tag, inputs, out, backward))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def backward(loss: Tensor) -> None:
    """Reverse-sweep the tape from ``loss``, populating ``grad`` on leaves.

    The tape is consumed: a second backward on the same graph raises
    :class:`GraphError`, as does a non-scalar or unrecorded loss.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.op is None:
        raise GraphError("loss is a leaf tensor; no graph was recorded for it")
    tape = _state.tape
    if loss._epoch != _state.epoch or not tape:
        raise GraphError("graph already consumed; record a new forward pass first")

    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape):
        g = node.out.grad
        if g is None:
            continue  # side branch that does not feed the loss
        node.backward(g)
    for node in tape:
        node.out.grad = None  # free intermediates; leaves keep their grads
    tape.clear()
    _state.epoch += 1


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes broadcast.

    A 2-d right operand (a weight) multiplies every row of ``a`` as one GEMM
    over the flattened leading axes; its gradient is one GEMM as well.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs operands of at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul batch axes disagree: {a.shape} @ {b.shape}") from None
    n, k, m = a.shape[-2], a.shape[-1], b.shape[-1]
    if _state.mac_counter is not None:
        _state.mac_counter.macs += math.prod(lead) * n * k * m

    if b.data.ndim == 2:
        out_data = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (m,))

        def bwd(g: np.ndarray) -> None:
            g2 = g.reshape(-1, m)
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accum(b, a.data.reshape(-1, k).T @ g2)
    else:
        out_data = np.matmul(a.data, b.data)

        def bwd(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, _reduce_to(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
            if b.requires_grad:
                _accum(b, _reduce_to(np.matmul(a.data.swapaxes(-1, -2), g), b.shape))

    return _record("matmul", (a, b), out_data, bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for overflow safety.

    The output is the only array of the input's size that is allocated, which
    bounds attention memory to the scores and their softmax."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _record("softmax", (x,), y, bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    eps is small enough that unit-variance tokens come out with |var - 1|
    well under 1e-6, yet still guards the zero-variance (constant token) case.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match last axis {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bwd(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            _accum(x, inv * (gx - gx.mean(axis=-1, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return _record("layer_norm", (x, gain, bias), out_data, bwd)


def _bcast_shape(sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """Broadcast shape of two elementwise operands.

    Singleton axes broadcast, and an operand of lower rank broadcasts over the
    other's leading (batch) axes. Such an operand must be at least 2-d, so a
    vector never silently stretches across the rows of a matrix.
    """
    if len(sa) != len(sb) and min(len(sa), len(sb)) < 2:
        raise ShapeError(f"elementwise operands of unequal rank need the smaller "
                         f"to be at least 2-d: {sa} vs {sb}")
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"elementwise shapes incompatible: {sa} vs {sb}") from None


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` over the axes that broadcasting expanded."""
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, s in enumerate(shape)
                                      if s == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape) if axes else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; operands broadcast as in :func:`_bcast_shape`."""
    _bcast_shape(a.shape, b.shape)
    out_data = a.data + b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _reduce_to(g, a.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(g, b.shape))

    return _record("add", (a, b), out_data, bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; operands broadcast as in :func:`_bcast_shape`."""
    _bcast_shape(a.shape, b.shape)
    out_data = a.data * b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _reduce_to(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(g * a.data, b.shape))

    return _record("hadamard", (a, b), out_data, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (not differentiated through)."""
    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g * c)

    return _record("scale", (x,), x.data * c, bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = x.data * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out_data = x.data * cdf

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            xd = x.data
            slope = xd * xd
            slope *= -0.5
            np.exp(slope, out=slope)
            slope *= _INV_SQRT2PI
            slope *= xd
            slope += cdf
            slope *= g
            _accum(x, slope)

    return _record("gelu", (x,), out_data, bwd)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g * (x.data > 0.0))

    return _record("relu", (x,), out_data, bwd)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    y = np.where(x.data >= 0,
                 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                 np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g * y * (1.0 - y))

    return _record("sigmoid", (x,), y, bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; all other dimensions must agree."""
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    ndim = tensors[0].data.ndim
    axis = axis % ndim
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or any(r != o for i, (r, o) in enumerate(zip(ref, other)) if i != axis):
            raise ShapeError(f"concat shapes disagree off axis {axis}: "
                             f"{[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * ndim
                idx[axis] = slice(lo, hi)
                _accum(t, g[tuple(idx)])

    return _record("concat", tuple(tensors), out_data, bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice ``[start:stop)`` along ``axis``; gradient scatters back."""
    ndim = x.data.ndim
    axis = axis % ndim
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}) out of range for axis {axis} of {x.shape}")
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out_data = x.data[idx].copy()

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[idx] = g
            _accum(x, full)

    return _record("slice", (x,), out_data, bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} (size {x.size}) to {shape}")
    out_data = x.data.reshape(shape)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g.reshape(x.shape))

    return _record("reshape", (x,), out_data, bwd)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; by default swap the last two (a batch of matrix transposes)."""
    if axes is None:
        axes = tuple(range(x.data.ndim - 2)) + (x.data.ndim - 1, x.data.ndim - 2)
    axes = tuple(axes)
    inv = np.argsort(axes)
    out_data = x.data.transpose(axes)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g.transpose(inv))

    return _record("transpose", (x,), out_data, bwd)


_bilinear_cache: dict[int, np.ndarray] = {}


def _bilinear_matrix(n: int) -> np.ndarray:
    """(2n x n) row-interpolation matrix; output centers at (i+0.5)/2 - 0.5,
    edges clamped. Each row is convex, so values stay in the input hull."""
    mat = _bilinear_cache.get(n)
    if mat is None:
        mat = np.zeros((2 * n, n))
        coords = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
        lo = np.floor(coords).astype(int)
        hi = np.minimum(lo + 1, n - 1)
        frac = coords - lo
        mat[np.arange(2 * n), lo] += 1.0 - frac
        mat[np.arange(2 * n), hi] += frac
        _bilinear_cache[n] = mat
    return mat


def _rows_apply(mat: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(m, h) x (..., h, w, c) -> (..., m, w, c), one BLAS matmul per grid."""
    *lead, h, w, c = grid.shape
    return (mat @ grid.reshape(-1, h, w * c)).reshape(*lead, mat.shape[0], w, c)


def _cols_apply(mat: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(m, w) x (..., h, w, c) -> (..., h, m, c), one BLAS matmul per grid row;
    the output is contiguous, so the channel linear that follows needs no copy."""
    *lead, h, w, c = grid.shape
    return (mat @ grid.reshape(-1, w, c)).reshape(*lead, h, mat.shape[0], c)


def upsample2x_bilinear(x: Tensor) -> Tensor:
    """Bilinear 2x upsample of (..., h, w, c) grids.

    Separable: rows then columns through fixed interpolation matrices, so
    neighboring cells mix and downstream pointwise layers can resolve
    sub-cell structure. The adjoint applies the transposed matrices.
    """
    if x.data.ndim < 3:
        raise ShapeError(f"upsample2x_bilinear needs (..., h, w, c) grids, got shape {x.shape}")
    h, w, _ = x.shape[-3:]
    ry = _bilinear_matrix(h)
    rx = _bilinear_matrix(w)
    out_data = _cols_apply(rx, _rows_apply(ry, x.data))

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, _rows_apply(ry.T, _cols_apply(rx.T, g)))

    return _record("upsample2x_bilinear", (x,), out_data, bwd)


def bce(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy over every element, batch axes included (so
    a batch's loss is the mean of its samples' losses); predictions clamped to
    [1e-7, 1-1e-7]."""
    if pred.shape != target.shape:
        raise ShapeError(f"bce shapes disagree: {pred.shape} vs {target.shape}")
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    p = np.clip(pred.data, lo, hi)
    y = target.data
    n = p.size
    out_data = np.asarray(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / n)

    def bwd(g: np.ndarray) -> None:
        gs = float(g)
        if pred.requires_grad:
            inside = (pred.data > lo) & (pred.data < hi)
            _accum(pred, gs * inside * (p - y) / (p * (1.0 - p)) / n)
        if target.requires_grad:
            _accum(target, gs * (np.log1p(-p) - np.log(p)) / n)

    return _record("bce", (pred, target), out_data, bwd)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    out_data = np.asarray(x.data.sum())

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, np.full_like(x.data, float(g)))

    return _record("sum_all", (x,), out_data, bwd)
