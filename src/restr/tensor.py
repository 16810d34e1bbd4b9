"""Dense float64 tensors with reverse-mode autodiff on a dynamic tape.

Every operation records a node on a module-level tape while gradients are
enabled and at least one input requires them. ``backward`` walks the tape in
reverse append order, accumulates gradients into the leaves, and consumes the
tape (one backward per recorded graph).

The tape keeps only the arrays backward reads. A node holds no input or
output tensor. It holds its backward closure, which captures the arrays and
shapes its gradient formulas use, and the gradient slot of each input that
needs a gradient: the input's node, or the leaf itself. So an intermediate
that no backward reads, such as a matmul output that only a bias add
consumes, is freed as soon as the forward drops it. Intermediates never
carry ``.grad``: their gradients accumulate on their nodes during the sweep,
and only leaves keep one. ``backward`` and ``reset_graph`` release every
node they pass, so a loss or prediction the caller still holds does not pin
the graph. Under ``with new_tape():`` ops record on a fresh tape of their own,
so part of a graph can be back-propagated and freed before the rest, whose
backward then starts from the gradients that part's inputs received.

Values are float64 throughout. Data enters as float32 pixels and uint8
masks, widened when a batch becomes a tensor or, for masks, ``bce``'s
target array; checkpoints store float32 blobs.

Scoped collectors observe ops without changing them: inside ``with
count_macs() as counter:`` matmul and attention add their multiply-accumulates
to ``counter.macs``, and inside ``with attention_maps() as maps:`` each
attention call appends its row-stochastic (..., h, n, n) probabilities.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from typing import Callable, Sequence

import numpy as np


def _load_erf():
    """scipy's ``erf`` ufunc, loaded from the extension module that defines
    it without importing scipy.special, whose package import loads dozens of
    other scipy modules. ``find_spec`` locates scipy without importing it.
    Loading the extension enters it in ``sys.modules``; it is taken out
    again, so that a later ``import scipy.special`` loads it itself and binds
    it as the package's attribute, and ``scipy.special.erf`` is still this
    very ufunc. A module already in ``sys.modules`` is reused. A scipy
    without that module, or without ``erf`` in it, takes the plain import."""
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    scipy = importlib.util.find_spec("scipy")
    path = scipy and os.path.join(scipy.submodule_search_locations[0], "special",
                                  "_special_ufuncs" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if module is None and path and os.path.isfile(path):
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        sys.modules.pop(name, None)
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


erf = _load_erf()

_LN_EPS = 1e-8

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operands have shapes incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Backward invoked on a missing, non-scalar, or already-consumed graph."""


class Tensor:
    """A dense n-dimensional float64 array with an optional gradient buffer.

    ``requires_grad`` marks trainable leaves; tensors produced by operations
    inherit it from their inputs. A leaf's ``grad`` stays ``None`` until a
    backward pass deposits into it; an operation's output never carries one.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None  # the producing node, None for leaves

    @property
    def op(self) -> str | None:
        """Tag of the producing operation, None for leaves."""
        return None if self._node is None else self._node.tag

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f", op={self.op!r}" if self.op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


class _Node:
    """One recorded op. ``backward`` maps the output gradient to one gradient
    per input; ``slots`` holds, per input, where that gradient accumulates
    (None for an input that needs none); ``grad`` accumulates the output
    gradient during the sweep."""

    __slots__ = ("tag", "backward", "slots", "grad")

    def __init__(self, tag: str, backward: Callable[[np.ndarray], Sequence],
                 slots: tuple):
        self.tag = tag
        self.backward = backward
        self.slots = slots
        self.grad: np.ndarray | None = None

    def release(self) -> None:
        """Drop the closure, the slots and the gradient: a consumed node pins
        nothing, even while a caller still holds its output tensor."""
        self.backward = self.slots = self.grad = None


class _TapeState(threading.local):
    """Per-thread recording state.

    Forward/backward of one graph stay on one thread (single-writer tape).
    """

    def __init__(self):
        self.grad_enabled = True
        self.tape: list[_Node] = []
        self.mac_counter: MacCounter | None = None
        self.maps: list[np.ndarray] | None = None


_state = _TapeState()


class MacCounter:
    """Counts the multiply-accumulates of every matmul and attention op
    executed in scope."""

    def __init__(self):
        self.macs = 0


@contextlib.contextmanager
def _scoped(name: str, value):
    """Set ``_state.<name>`` to ``value`` in scope and yield ``value``; the
    previous setting comes back on exit, on an exception too."""
    prev = getattr(_state, name)
    setattr(_state, name, value)
    try:
        yield value
    finally:
        setattr(_state, name, prev)


def no_grad():
    """Disable tape recording inside the block (inference / finite differences)."""
    return _scoped("grad_enabled", False)


def count_macs():
    """Yield a :class:`MacCounter` accumulating the MACs executed in scope."""
    return _scoped("mac_counter", MacCounter())


def attention_maps():
    """Yield a list that receives the row-stochastic (..., h, n, n)
    probabilities of every :func:`attention` call in scope, in call order."""
    return _scoped("maps", [])


def reset_graph() -> None:
    """Drop any recorded-but-unconsumed tape (e.g. after an abandoned forward)."""
    for node in _state.tape:
        node.release()
    _state.tape.clear()


@contextlib.contextmanager
def new_tape():
    """Record into a fresh, empty tape in scope; the outer tape is left as
    it was. Whatever the scope leaves unconsumed on the inner tape is
    released on exit, on an exception too."""
    with _scoped("tape", []):
        try:
            yield
        finally:
            reset_graph()


def _records(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` records a node: gradients are enabled and
    some input requires one."""
    return _state.grad_enabled and any(t.requires_grad for t in inputs)


def _record(tag: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward: Callable[[np.ndarray], Sequence]) -> Tensor:
    """Wrap ``out_data`` and, when :func:`_records` holds, record a node.

    ``backward(g)`` returns one gradient per input, in input order; the entry
    of an input that needs no gradient is ignored and may be None. The
    closure must not capture the input tensors, only the arrays and shapes
    its formulas read."""
    out = Tensor(out_data)
    if _records(*inputs):
        out.requires_grad = True
        out._node = _Node(tag, backward, tuple((t._node or t) if t.requires_grad else None
                                               for t in inputs))
        _state.tape.append(out._node)
    return out


def _accum(slot: Tensor | _Node, g: np.ndarray) -> None:
    """Add ``g`` into the gradient of ``slot`` (a node, or a leaf tensor).

    The first gradient is stored by reference, and a later one makes a new
    array for the sum. So no gradient array is ever written in place: one
    array may be the gradient of several slots, or a view of another's, and
    a leaf's gradient from an earlier pass stays as the caller holds it."""
    slot.grad = g if slot.grad is None else slot.grad + g


def backward(loss: Tensor | None = None,
             seeds: Sequence[tuple[Tensor, np.ndarray]] = ()) -> None:
    """Reverse-sweep the tape from ``loss``, populating ``grad`` on leaves.

    The sweep also starts from ``seeds``, (recorded tensor, gradient of its
    shape) pairs, as if the loss held the sum of the inner products ⟨t, g⟩;
    seeds alone may stand in for the loss.

    Each node keeps only the arrays its backward reads. Its gradient,
    closure and slots are released right after its backward has run: every
    consumer of the output comes later on the tape, so nothing adds to the
    gradient again. The array itself lives on only where an input's gradient
    holds it by reference. No gradient array is ever written in place, so a
    gradient a caller holds from an earlier pass keeps its values. Leaves
    keep their gradients; intermediates never carry one. A loss the caller
    still holds after the pass does not pin the graph, since its node keeps
    nothing.

    The tape is consumed: a second backward on the same graph raises
    :class:`GraphError`, as does a non-scalar or unrecorded loss, a leaf or
    consumed seed, or neither a loss nor a seed.
    """
    starts = list(seeds)
    if loss is not None:
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
        starts.append((loss, np.ones_like(loss.data)))
    if not starts:
        raise GraphError("backward needs a loss or a seed")
    tape = _state.tape
    for t, g in starts:
        if t._node is None:
            raise GraphError(f"{'seed' if t is not loss else 'loss'} is a leaf tensor; "
                             "no graph was recorded for it")
        if t._node.backward is None or not tape:
            raise GraphError("graph already consumed; record a new forward pass first")
        if np.shape(g) != t.shape:
            raise ShapeError(f"seed gradient of shape {np.shape(g)} for a tensor "
                             f"of shape {t.shape}")
    for t, g in starts:
        _accum(t._node, g)

    for node in reversed(tape):
        g, grads_of, slots = node.grad, node.backward, node.slots
        node.release()
        if g is None:
            continue  # side branch that does not feed the loss
        for slot, gi in zip(slots, grads_of(g)):
            if slot is not None:
                _accum(slot, gi)
    tape.clear()


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

    shape_a, shape_b = a.shape, b.shape
    # Each operand is read only for the other's gradient.
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    if b.data.ndim == 2:
        out_data = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (m,))

        def bwd(g: np.ndarray) -> tuple:
            g2 = g.reshape(-1, m)
            return (None if bd is None else (g2 @ bd.T).reshape(shape_a),
                    None if ad is None else ad.reshape(-1, k).T @ g2)
    else:
        out_data = np.matmul(a.data, b.data)

        def bwd(g: np.ndarray) -> tuple:
            return (None if bd is None else _reduce_to(np.matmul(g, bd.swapaxes(-1, -2)), shape_a),
                    None if ad is None else _reduce_to(np.matmul(ad.swapaxes(-1, -2), g), shape_b))

    return _record("matmul", (a, b), out_data, bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for overflow safety; one
    array of the input's size is allocated."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g: np.ndarray) -> tuple:
        gx = g - (g * y).sum(axis=axis, keepdims=True)
        gx *= y
        return (gx,)

    return _record("softmax", (x,), y, bwd)


# Largest score bound at which ``attention`` skips the row-max shift. With
# |s| ≤ 64 every E entry lies in [e^−64, e^64] (about [1.6e-28, 6.2e27]): none
# is subnormal, every row sum is at least e^−64, and E·[v | 1] overflows only
# if n·max|v| exceeds about 1e280.
_SHIFT_FREE_SCORES = 64.0


def attention(qkv: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention, ``softmax(q kᵀ / sqrt(d_h)) v``, of every
    head at once. The input is token-major (..., n, 3·h·d_h), as ``matmul(z,
    w_qkv) + b_qkv`` returns it, each row [q of heads 0..h-1 | k of heads |
    v of heads]; the output is (..., n, h·d_h), the heads side by side. q, k,
    v, the output and the q/k/v gradient are (..., h, n, d_h) per-head
    layouts of these arrays, so no layout op surrounds the op. A recorded
    node keeps copies of q, k and [v | 1], never the input itself.

    The scores are written and exponentiated in place, giving E, then
    multiplied by [v | 1], v with a ones column appended. That one GEMM
    yields both E·v and the row sums of E, so normalisation happens after
    the value product: the (..., n, d_h) output is scaled by 1/rowsum and no
    pass divides the n×n scores. The (..., h, n, n) E is the call's one
    large array: it and the (..., h, n, 1) factors 1/rowsum are kept for
    backward when the node is recorded, and dropped on return otherwise.

    Softmax does not change when a row is shifted; the shift only keeps
    ``exp`` finite. So the call subtracts the row maxima only when the
    Cauchy–Schwarz bound |q_i·k_j| ≤ max_i ‖q_i‖·max_j ‖k_j‖ exceeds
    ``_SHIFT_FREE_SCORES`` (τ) or is not a number; the shifted rows then sum
    to at least 1. Unshifted, every score lies in [−τ, τ], so every row sum
    is at least e^−τ and 1/rowsum is finite.

    Inside :func:`attention_maps`, the call appends the row-stochastic
    probabilities E·(1/rowsum) as one (..., h, n, n) array. The MAC count is
    the model's 2·n²·d_h per matrix; the ones column is not counted.
    """
    if (qkv.data.ndim < 2 or heads < 1 or qkv.shape[-2] == 0
            or qkv.shape[-1] % (3 * heads)):
        raise ShapeError(f"attention needs (..., n ≥ 1, 3*{heads}*d_h) token-major q/k/v, "
                         f"got shape {qkv.shape}")
    h = heads
    *batch, n, width = qkv.shape
    dh = width // (3 * h)
    lead = (*batch, h)
    if _state.mac_counter is not None:
        _state.mac_counter.macs += 2 * math.prod(lead) * n * n * dh

    def by_head(x: np.ndarray) -> np.ndarray:  # (..., n, m·h·d_h) -> (..., m·h, n, d_h)
        return x.reshape(*batch, n, -1, dh).swapaxes(-3, -2)

    c = 1.0 / math.sqrt(dh)
    packed = by_head(qkv.data)
    q = packed[..., :h, :, :] * c
    k = packed[..., h:2 * h, :, :]
    v = packed[..., 2 * h:, :, :]
    qq, kk = (np.einsum("...d,...d->...", x, x) for x in (q, k))
    v1 = np.concatenate((v, np.ones(lead + (n, 1))), axis=-1)
    exps = np.matmul(q, k.swapaxes(-1, -2))
    if not (qq.max(axis=-1) * kk.max(axis=-1)).max() <= _SHIFT_FREE_SCORES ** 2:
        exps -= exps.max(axis=-1, keepdims=True)
    np.exp(exps, out=exps)
    acc = np.matmul(exps, v1)
    inv = 1.0 / acc[..., dh:]
    out_data = np.empty((*batch, n, h * dh))
    out = by_head(out_data)
    np.multiply(acc[..., :dh], inv, out=out)
    if _state.maps is not None:
        _state.maps.append(exps * inv)
    if _records(qkv):
        k = k.copy()  # backward reads k; a view would keep all of qkv alive

    def bwd(g: np.ndarray) -> tuple:
        gqkv = np.empty((*batch, n, width))
        gpacked = by_head(gqkv)
        # gi1 = [g·inv | −rowsum(g·inv ⊙ out)], so gi1·[v | 1]ᵀ is gi·vᵀ less the
        # row-dot term of the softmax gradient in one GEMM.
        gi1 = np.empty(lead + (n, dh + 1))
        gi = np.multiply(by_head(g), inv, out=gi1[..., :dh])
        np.negative((gi * out).sum(axis=-1, keepdims=True), out=gi1[..., dh:])
        np.matmul(exps.swapaxes(-1, -2), gi, out=gpacked[..., 2 * h:, :, :])
        ds = np.matmul(gi1, v1.swapaxes(-1, -2))
        ds *= exps
        np.matmul(ds, k, out=gpacked[..., :h, :, :])
        gpacked[..., :h, :, :] *= c
        np.matmul(ds.swapaxes(-1, -2), q, out=gpacked[..., h:2 * h, :, :])
        return (gqkv,)

    return _record("attention", (qkv,), out_data, bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    ``_LN_EPS`` is small enough that unit-variance tokens come out with
    |var - 1| well under 1e-6, yet still guards the zero-variance (constant
    token) case.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match last axis {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    gd = gain.data
    out_data = xhat * gd + bias.data

    def bwd(g: np.ndarray) -> tuple:
        gx = g * gd
        return (inv * (gx - gx.mean(axis=-1, keepdims=True)
                       - xhat * (gx * xhat).mean(axis=-1, keepdims=True)),
                (g * xhat).reshape(-1, d).sum(axis=0),
                g.reshape(-1, d).sum(axis=0))

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
    shape_a, shape_b = a.shape, b.shape
    return _record("add", (a, b), a.data + b.data,
                   lambda g: (_reduce_to(g, shape_a), _reduce_to(g, shape_b)))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; operands broadcast as in :func:`_bcast_shape`."""
    _bcast_shape(a.shape, b.shape)
    shape_a, shape_b = a.shape, b.shape
    # Each operand is read only for the other's gradient.
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bwd(g: np.ndarray) -> tuple:
        return (None if bd is None else _reduce_to(g * bd, shape_a),
                None if ad is None else _reduce_to(g * ad, shape_b))

    return _record("hadamard", (a, b), a.data * b.data, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (not differentiated through)."""
    return _record("scale", (x,), x.data * c, lambda g: (g * c,))


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU, x·Φ(x). A recorded call computes the
    derivative Φ(x) + x·φ(x) in the forward and keeps only that array, not
    x and Φ(x); its backward multiplies it by the output gradient in place,
    as a node's backward runs once."""
    xd = x.data
    cdf = xd * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if not _records(x):
        cdf *= xd
        return Tensor(cdf)
    slope = xd * xd
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= xd
    slope += cdf
    cdf *= xd
    return _record("gelu", (x,), cdf, lambda g: (np.multiply(slope, g, out=slope),))


def _logistic(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(x) from ``e = exp(-|x|)``, stable for either sign of x."""
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    y = _logistic(x.data, np.exp(-np.abs(x.data)))
    return _record("sigmoid", (x,), y, lambda g: (g * y * (1.0 - y),))


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
    lead = (slice(None),) * axis

    def bwd(g: np.ndarray) -> list:
        return [g[lead + (slice(lo, hi),)] for lo, hi in zip(offsets[:-1], offsets[1:])]

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
    shape = x.shape

    def bwd(g: np.ndarray) -> tuple:
        gx = np.zeros(shape)
        gx[idx] += g
        return (gx,)

    return _record("slice", (x,), out_data, bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} (size {x.size}) to {shape}")
    shape_x = x.shape
    return _record("reshape", (x,), x.data.reshape(shape), lambda g: (g.reshape(shape_x),))


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; by default swap the last two (a batch of matrix transposes)."""
    if axes is None:
        axes = tuple(range(x.data.ndim - 2)) + (x.data.ndim - 1, x.data.ndim - 2)
    axes = tuple(axes)
    inv = np.argsort(axes)
    return _record("transpose", (x,), x.data.transpose(axes), lambda g: (g.transpose(inv),))


def _bilinear_matrix(n: int) -> np.ndarray:
    """(2n x n) row-interpolation matrix; output centers at (i+0.5)/2 - 0.5,
    edges clamped. Each row is convex, so values stay in the input hull."""
    mat = np.zeros((2 * n, n))
    coords = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    frac = coords - lo
    mat[np.arange(2 * n), lo] += 1.0 - frac
    mat[np.arange(2 * n), hi] += frac
    return mat


# Output rows per band tile. A tile of the (2n x n) matrix reads about 18 input
# rows and one of its transpose about 66, so each tile's GEMM stays in cache.
_BAND_ROWS = 32

_band_cache: dict[tuple[int, bool], list[tuple[slice, slice, np.ndarray]]] = {}


def _bilinear_bands(n: int, adjoint: bool) -> list:
    """``_bilinear_matrix(n)``, or its transpose for the adjoint, cut into
    tiles of ``_BAND_ROWS`` output rows. Each tile is (output rows, input
    rows, block): the block holds the tile's entries over the contiguous
    band of input rows outside which the tile is zero."""
    key = (n, adjoint)
    bands = _band_cache.get(key)
    if bands is None:
        mat = _bilinear_matrix(n).T if adjoint else _bilinear_matrix(n)
        bands = []
        for r0 in range(0, mat.shape[0], _BAND_ROWS):
            tile = mat[r0:r0 + _BAND_ROWS]
            nonzero = np.flatnonzero(tile.any(axis=0))
            band = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
            bands.append((slice(r0, r0 + tile.shape[0]), band,
                          np.ascontiguousarray(tile[:, band])))
        _band_cache[key] = bands
    return bands


def _band_apply(bands: list, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` along axis -2 of (..., n, k) ``x``, for the matrix cut into
    ``bands``; one GEMM per tile and leading index, against the tile's band
    only. The (..., m, k) output is contiguous."""
    out = np.empty(x.shape[:-2] + (bands[-1][0].stop, x.shape[-1]))
    for rows, band, block in bands:
        np.matmul(block, x[..., band, :], out=out[..., rows, :])
    return out


def upsample2x_bilinear(x: Tensor) -> Tensor:
    """Bilinear 2x upsample of (..., h, w, c) grids.

    Separable: neighboring cells mix, so downstream pointwise layers can
    resolve sub-cell structure. Each interpolation matrix has two nonzeros
    per row, so it is applied in banded tiles (:func:`_band_apply`) rather
    than as a dense GEMM. Columns go first, on the (..., h, w, c) grid with
    half the output's rows, then rows, on the (..., h, 2w·c) result. The
    adjoint applies the transposed matrices' bands in the reverse order:
    rows, then columns.
    """
    if x.data.ndim < 3:
        raise ShapeError(f"upsample2x_bilinear needs (..., h, w, c) grids, got shape {x.shape}")
    *lead, h, w, c = x.shape
    cols = _band_apply(_bilinear_bands(w, False), x.data)
    out_data = _band_apply(_bilinear_bands(h, False), cols.reshape(*lead, h, 2 * w * c))
    out_data = out_data.reshape(*lead, 2 * h, 2 * w, c)

    def bwd(g: np.ndarray) -> tuple:
        rows = _band_apply(_bilinear_bands(h, True), g.reshape(*lead, 2 * h, 2 * w * c))
        return (_band_apply(_bilinear_bands(w, True), rows.reshape(*lead, h, 2 * w, c)),)

    return _record("upsample2x_bilinear", (x,), out_data, bwd)


def bce(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of ``sigmoid(logits)`` against ``target``
    over every element, batch axes included (so a batch's loss is the mean of
    its samples' losses). It takes the stable logits form
    ``max(x, 0) - x*y + log1p(exp(-|x|))``, whose gradient
    ``(sigmoid(x) - y) / n`` never vanishes on a wrong element. ``target`` is
    data, widened to float64; only ``logits`` receives a gradient."""
    y = np.asarray(target, dtype=np.float64)
    if logits.shape != y.shape:
        raise ShapeError(f"bce shapes disagree: {logits.shape} vs {y.shape}")
    x = logits.data
    e = np.exp(-np.abs(x))
    out_data = np.asarray((np.maximum(x, 0.0) - x * y + np.log1p(e)).sum() / x.size)
    return _record("bce", (logits,), out_data,
                   lambda g: (float(g) * (_logistic(x, e) - y) / x.size,))


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    shape = x.shape
    return _record("sum_all", (x,), np.asarray(x.data.sum()),
                   lambda g: (np.full(shape, float(g)),))
