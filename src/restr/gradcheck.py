"""Finite-difference verification of the autodiff engine.

Central differences at step ``EPS`` are compared against tape gradients,
elementwise, as relative errors; each check returns its worst error and the
caller holds the bound. ``check_all_ops`` (A1) sweeps every differentiable
operation over random shapes at seeds 0-4, bound 1e-4; ``check_model_gradients``
(A2) spot-checks 50 sampled parameters of a tiny network (seed 0, bound 1e-3)
through the gradients of a training step (``training.decoded_backward``) on a
two-sample batch.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

EPS = 1e-5
_REL_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    errors: dict[str, float]
    tol: float

    @property
    def max_rel_err(self) -> float:
        return max(self.errors.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def lines(self) -> list[str]:
        out = []
        for name, err in self.errors.items():
            mark = "ok" if err <= self.tol else "FAIL"
            out.append(f"{mark:4s} {name:40s} max_rel_err={err:.3e}")
        out.append(f"{'PASS' if self.passed else 'FAIL'} overall "
                   f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _rel_err(a: np.ndarray, n: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), _REL_FLOOR)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _central_difference(value: Callable[[], float], array: np.ndarray, index: int) -> float:
    """Central difference of ``value()`` in ``array.flat[index]``, which is
    restored afterwards."""
    keep = array.flat[index]
    array.flat[index] = keep + EPS
    up = value()
    array.flat[index] = keep - EPS
    down = value()
    array.flat[index] = keep
    return (up - down) / (2.0 * EPS)


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], weight_seed: int = 0) -> float:
    """Largest relative error, over every element of every input, between the
    tape gradients of ⟨f(inputs), w⟩, the backward seeded with ``w``, and
    central differences.

    A scalar output is checked as it is (w = 1). Any other output gets a fixed
    standard-normal ``w`` drawn from ``weight_seed``, so that transposed or
    mis-routed backward rules cannot cancel out. Every element of every input
    is perturbed by ``+-EPS``; ``f`` must be deterministic. Inputs are flagged
    ``requires_grad`` for the duration.
    """
    prior_flags = [t.requires_grad for t in inputs]
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    try:
        T.reset_graph()
        out = f(*inputs)
        w = np.ones(out.shape) if out.data.size == 1 else \
            np.random.default_rng(weight_seed).standard_normal(out.shape)
        T.backward(seeds=[(out, w)])
        analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                    for t in inputs]

        def value() -> float:
            return float((f(*inputs).data * w).sum())

        with T.no_grad():
            return max(_rel_err(a.ravel(), [_central_difference(value, t.data, i)
                                            for i in range(t.size)])
                       for t, a in zip(inputs, analytic))
    finally:
        for t, flag in zip(inputs, prior_flags):
            t.requires_grad = flag
            t.grad = None


def op_check_suite(seed: int) -> dict[str, float]:
    """One full sweep of per-operation finite-difference checks at ``seed``:
    each check's name and worst relative error."""
    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}

    def run(name: str, f, inputs):
        # crc32, unlike hash(), is not salted per process, so runs repeat exactly.
        errors[name] = grad_check(f, inputs, seed ^ zlib.crc32(name.encode()) & 0xFFFF)

    m, k, n = (int(v) for v in rng.integers(2, 8, size=3))
    run("matmul", lambda a, b: T.matmul(a, b),
        [Tensor(rng.standard_normal((m, k))), Tensor(rng.standard_normal((k, n)))])
    run("matmul(batch @ weight)", lambda a, b: T.matmul(a, b),
        [Tensor(rng.standard_normal((2, m, k))), Tensor(rng.standard_normal((k, n)))])
    run("matmul(batch of heads)", lambda a, b: T.matmul(a, b),
        [Tensor(rng.standard_normal((2, 2, m, k))), Tensor(rng.standard_normal((2, 2, k, n)))])

    run("softmax(axis=-1)", lambda x: T.softmax(x, axis=-1),
        [Tensor(rng.standard_normal((4, 6)) * 3.0)])
    run("softmax(axis=0)", lambda x: T.softmax(x, axis=0),
        [Tensor(rng.standard_normal((4, 6)) * 3.0)])
    run("softmax(4-d)", lambda x: T.softmax(x, axis=-1),
        [Tensor(rng.standard_normal((2, 2, 3, 4)) * 3.0)])

    d = int(rng.integers(3, 9))
    run("layer_norm", lambda x, g, b: T.layer_norm(x, g, b),
        [Tensor(rng.standard_normal((5, d))),
         Tensor(rng.standard_normal(d) * 0.5 + 1.0),
         Tensor(rng.standard_normal(d) * 0.1)])

    p, q = (int(v) for v in rng.integers(2, 6, size=2))
    run("add", lambda a, b: T.add(a, b),
        [Tensor(rng.standard_normal((p, q))), Tensor(rng.standard_normal((p, q)))])
    run("add(bias-broadcast)", lambda a, b: T.add(a, b),
        [Tensor(rng.standard_normal((p, q))), Tensor(rng.standard_normal((1, q)))])
    run("hadamard", lambda a, b: T.hadamard(a, b),
        [Tensor(rng.standard_normal((p, q))), Tensor(rng.standard_normal((p, q)))])
    run("hadamard(column-broadcast)", lambda a, b: T.hadamard(a, b),
        [Tensor(rng.standard_normal((p, q))), Tensor(rng.standard_normal((p, 1)))])

    run("gelu", lambda x: T.gelu(x), [Tensor(rng.standard_normal((3, 5)) * 2.0)])
    run("sigmoid", lambda x: T.sigmoid(x), [Tensor(rng.standard_normal((3, 5)) * 2.0)])

    r1, r2 = (int(v) for v in rng.integers(2, 5, size=2))
    cols = int(rng.integers(2, 5))
    run("concat", lambda a, b: T.concat([a, b], axis=0),
        [Tensor(rng.standard_normal((r1, cols))), Tensor(rng.standard_normal((r2, cols)))])
    rows = int(rng.integers(4, 8))
    start = int(rng.integers(0, rows - 2))
    stop = int(rng.integers(start + 1, rows))
    run("slice", lambda x: T.slice_axis(x, 0, start, stop),
        [Tensor(rng.standard_normal((rows, 3)))])
    run("concat(axis=-2, 3-d)", lambda a, b: T.concat([a, b], axis=-2),
        [Tensor(rng.standard_normal((2, r1, cols))), Tensor(rng.standard_normal((2, r2, cols)))])
    run("slice(axis=-2, 3-d)", lambda x: T.slice_axis(x, -2, start, stop),
        [Tensor(rng.standard_normal((2, rows, 3)))])
    run("reshape", lambda x: T.reshape(x, (6, 2)), [Tensor(rng.standard_normal((3, 4)))])
    run("transpose", lambda x: T.transpose(x), [Tensor(rng.standard_normal((3, 4)))])
    run("transpose(last two of 3-d)", lambda x: T.transpose(x),
        [Tensor(rng.standard_normal((2, 3, 4)))])

    h, w, c = (int(v) for v in rng.integers(1, 4, size=3))
    run("upsample2x_bilinear", lambda x: T.upsample2x_bilinear(x),
        [Tensor(rng.standard_normal((h + 1, w + 1, c)))])
    run("upsample2x_bilinear(batch)", lambda x: T.upsample2x_bilinear(x),
        [Tensor(rng.standard_normal((2, h + 1, w + 1, c)))])

    target = rng.integers(0, 2, size=(4, 3)).astype(float)
    run("bce", lambda x: T.bce(x, target), [Tensor(rng.uniform(-4, 4, size=(4, 3)))])

    run("scale", lambda x: T.scale(x, -1.7), [Tensor(rng.standard_normal((3, 3)))])
    run("sum_all", lambda x: T.sum_all(x),
        [Tensor(rng.standard_normal((3, 4)))])

    # Token-major (B, n, 3·h·d_h) q/k/v, as self_attention's qkv matmul gives it.
    heads, n_tok, dh = 2, int(rng.integers(3, 7)), int(rng.integers(2, 4))
    run("attention", lambda x: T.attention(x, heads),
        [Tensor(rng.standard_normal((2, n_tok, 3 * heads * dh)))])

    # q shifted by 16 along e_0 with no e_1 part, k by 16 along e_1 with no e_0 part:
    # the norm bound ‖q‖·‖k‖/sqrt(d_h) exceeds T._SHIFT_FREE_SCORES, so the row-max
    # shift runs, while q·k and the finite differences stay at the other entries' scale.
    dh = int(rng.integers(3, 6))
    shifted = rng.standard_normal((2, n_tok, 3, heads, dh))
    shifted[:, :, 0, :, 0] += 16.0
    shifted[:, :, 0, :, 1] = 0.0
    shifted[:, :, 1, :, 0] = 0.0
    shifted[:, :, 1, :, 1] += 16.0
    run("attention(shifted)", lambda x: T.attention(x, heads),
        [Tensor(shifted.reshape(2, n_tok, 3 * heads * dh))])

    return errors


def check_all_ops() -> GradCheckReport:
    """A1: :func:`op_check_suite` at seeds 0-4, each op's worst error against
    1e-4."""
    worst: dict[str, float] = {}
    for seed in range(5):
        for name, err in op_check_suite(seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return GradCheckReport(worst, tol=1e-4)


def check_model_gradients() -> GradCheckReport:
    """A2: spot-check the training step's gradients against finite differences.

    At a tiny geometry (seed 0), a batch of two samples whose expressions
    differ in length is back-propagated as ``train`` does it
    (:func:`restr.training.decoded_backward`: batched token stages, one
    decoder tape per sample, each weighted 1/B). 50 sampled scalar parameters
    across the whole network are compared elementwise with central
    differences of the batch-mean loss of the one-graph ``forward``, against
    1e-3.
    """
    from .decoder import forward, init_model
    from .encoders import ModelConfig
    from .training import decoded_backward, patch_labels, segmentation_loss

    cfg = ModelConfig(image_h=16, image_w=16, patch_size=4,
                      dim_vision=16, vision_layers=1,
                      dim_language=16, language_layers=1,
                      max_tokens=6, vocab_size=15,
                      dim_fusion=16, fusion_layers=2, heads=2)
    rng = np.random.default_rng(0)
    params = init_model(rng, cfg)
    images = rng.uniform(0.0, 1.0, size=(2, cfg.image_h, cfg.image_w, cfg.channels))
    ids = [[int(v) for v in rng.integers(2, cfg.vocab_size, size=n)] for n in (4, 2)]
    masks = (rng.uniform(size=(2, cfg.image_h, cfg.image_w, 1)) < 0.3).astype(float)
    y_p = np.stack([patch_labels(m, cfg.patch_size, tau=0.8) for m in masks])

    def loss_value() -> float:
        total, _, _ = segmentation_loss(forward(images, ids, params, cfg), y_p, masks, lam=0.1)
        return total.item()

    named = params.named_parameters()
    for _, t in named:
        t.grad = None
    T.reset_graph()
    decoded_backward(1, images, ids, y_p, masks, params, cfg, lam=0.1)

    # Deterministic sample of (tensor, element) pairs across all parameters.
    cum = np.cumsum([t.size for _, t in named])
    picks = np.sort(rng.choice(int(cum[-1]), size=50, replace=False))
    errors: dict[str, float] = {}
    with T.no_grad():
        for flat_pick in picks:
            pi = int(np.searchsorted(cum, flat_pick, side="right"))
            name, t = named[pi]
            j = int(flat_pick - (cum[pi - 1] if pi else 0))
            a = 0.0 if t.grad is None else float(t.grad.flat[j])
            errors[f"{name}[{j}]"] = _rel_err(a, _central_difference(loss_value, t.data, j))
    for _, t in named:
        t.grad = None
    return GradCheckReport(errors, tol=1e-3)
