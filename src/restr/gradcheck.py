"""Finite-difference verification of the autodiff engine.

Central differences at step ``eps`` are compared against tape gradients,
elementwise, as relative errors. ``check_all_ops`` sweeps every
differentiable operation over random shapes and seeds; ``check_model_gradients``
spot-checks sampled parameters of the full network through the training loss.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

_REL_FLOOR = 1e-6


@dataclass
class CheckEntry:
    name: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    entries: list[CheckEntry] = field(default_factory=list)
    tol: float = 1e-4

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            mark = "ok" if e.max_rel_err <= self.tol else "FAIL"
            out.append(f"{mark:4s} {e.name:40s} max_rel_err={e.max_rel_err:.3e}")
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


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor],
               eps: float = 1e-5, tol: float = 1e-4,
               names: Sequence[str] | None = None) -> GradCheckReport:
    """Compare tape gradients of scalar-valued ``f`` against central differences.

    Every element of every input is perturbed by ``+-eps``; ``f`` must be
    deterministic. Inputs are flagged ``requires_grad`` for the duration.
    """
    names = list(names) if names is not None else [f"input{i}" for i in range(len(inputs))]
    prior_flags = [t.requires_grad for t in inputs]
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    try:
        T.reset_graph()
        out = f(*inputs)
        T.backward(out)
        analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                    for t in inputs]

        report = GradCheckReport(tol=tol)
        with T.no_grad():
            for t, a, name in zip(inputs, analytic, names):
                numeric = np.zeros_like(t.data)
                for i in range(t.size):
                    keep = t.data.flat[i]
                    t.data.flat[i] = keep + eps
                    up = f(*inputs).item()
                    t.data.flat[i] = keep - eps
                    down = f(*inputs).item()
                    t.data.flat[i] = keep
                    numeric.flat[i] = (up - down) / (2.0 * eps)
                report.entries.append(CheckEntry(name, _rel_err(a, numeric)))
        return report
    finally:
        for t, flag in zip(inputs, prior_flags):
            t.requires_grad = flag
            t.grad = None


def scalarized(f_raw: Callable[..., Tensor], weight_seed: int) -> Callable[..., Tensor]:
    """Wrap a tensor-valued function into a deterministic weighted-sum scalar.

    Random (but fixed) weights make the output adjoint non-uniform, so
    transposed or mis-routed backward rules cannot cancel out.
    """
    cache: dict[str, Tensor] = {}

    def f(*inputs: Tensor) -> Tensor:
        out = f_raw(*inputs)
        if "w" not in cache:
            cache["w"] = Tensor(np.random.default_rng(weight_seed).standard_normal(out.shape))
        return T.sum_all(T.hadamard(out, cache["w"]))

    return f


def op_check_suite(seed: int, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """One full sweep of per-operation finite-difference checks at ``seed``."""
    rng = np.random.default_rng(seed)
    report = GradCheckReport(tol=tol)

    def run(name: str, f_raw, inputs, input_names=None, raw_scalar=False):
        # crc32, unlike hash(), is not salted per process, so runs repeat exactly.
        f = f_raw if raw_scalar else scalarized(f_raw, seed ^ zlib.crc32(name.encode()) & 0xFFFF)
        sub = grad_check(f, inputs, eps=eps, tol=tol, names=input_names)
        report.entries.append(CheckEntry(name, sub.max_rel_err))

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
         Tensor(rng.standard_normal(d) * 0.1)],
        ["x", "gain", "bias"])

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

    target = Tensor(rng.integers(0, 2, size=(4, 3)).astype(float))
    run("bce", lambda pr: T.bce(pr, target),
        [Tensor(rng.uniform(0.05, 0.95, size=(4, 3)))], ["pred"], raw_scalar=True)

    run("scale", lambda x: T.scale(x, -1.7), [Tensor(rng.standard_normal((3, 3)))])
    run("sum_all", lambda x: T.sum_all(x),
        [Tensor(rng.standard_normal((3, 4)))], raw_scalar=True)

    # Token-major (B, n, 3·h·d_h) q/k/v, as self_attention's qkv matmul gives it.
    heads, n_tok, dh = 2, int(rng.integers(3, 7)), int(rng.integers(2, 4))

    def attention_in_blocks(x: Tensor) -> Tensor:
        # Two query rows per block, so the blocked path runs at finite-difference sizes.
        budget = T._ATTENTION_BLOCK_SCORES
        T._ATTENTION_BLOCK_SCORES = 2 * 2 * heads * n_tok
        try:
            return T.attention(x, heads)
        finally:
            T._ATTENTION_BLOCK_SCORES = budget

    run("attention", lambda x: T.attention(x, heads),
        [Tensor(rng.standard_normal((2, n_tok, 3 * heads * dh)))])
    run("attention(multi-block)", attention_in_blocks,
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

    return report


def check_all_ops(seeds: Sequence[int] = (0, 1, 2, 3, 4),
                  eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Run :func:`op_check_suite` across ``seeds`` and merge per-op worst errors."""
    worst: dict[str, float] = {}
    for seed in seeds:
        for entry in op_check_suite(seed, eps=eps, tol=tol).entries:
            worst[entry.name] = max(worst.get(entry.name, 0.0), entry.max_rel_err)
    report = GradCheckReport(tol=tol)
    report.entries = [CheckEntry(name, err) for name, err in worst.items()]
    return report


def check_model_gradients(cfg=None, n_params: int = 50, seed: int = 0,
                          eps: float = 1e-5, tol: float = 1e-3) -> GradCheckReport:
    """Spot-check the full forward+loss against finite differences.

    Samples ``n_params`` scalar parameters across the whole network at a tiny
    geometry and compares their loss gradients elementwise.
    """
    from .decoder import forward, init_model
    from .encoders import ModelConfig
    from .training import patch_labels, segmentation_loss

    if cfg is None:
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4,
                          dim_vision=16, vision_layers=1,
                          dim_language=16, language_layers=1,
                          max_tokens=6, vocab_size=15,
                          dim_fusion=16, fusion_layers=2, heads=2)
    rng = np.random.default_rng(seed)
    params = init_model(rng, cfg)
    image = rng.uniform(0.0, 1.0, size=(1, cfg.image_h, cfg.image_w, cfg.channels))
    ids = [int(v) for v in rng.integers(2, cfg.vocab_size, size=4)]
    mask = (rng.uniform(size=(cfg.image_h, cfg.image_w, 1)) < 0.3).astype(float)
    y_p = patch_labels(mask, cfg.patch_size, tau=0.8)[None]

    def loss_value() -> Tensor:
        pred = forward(image, [ids], params, cfg)
        total, _, _ = segmentation_loss(pred, y_p, mask, lam=0.1)
        return total

    named = params.named_parameters()
    for _, t, _ in named:
        t.grad = None
    T.reset_graph()
    T.backward(loss_value())

    # Deterministic sample of (tensor, element) pairs across all parameters.
    sizes = np.array([t.size for _, t, _ in named])
    cum = np.cumsum(sizes)
    picks = np.sort(rng.choice(int(cum[-1]), size=min(n_params, int(cum[-1])),
                               replace=False))
    report = GradCheckReport(tol=tol)
    with T.no_grad():
        for flat_pick in picks:
            pi = int(np.searchsorted(cum, flat_pick, side="right"))
            name, t, _ = named[pi]
            j = int(flat_pick - (cum[pi - 1] if pi else 0))
            a = 0.0 if t.grad is None else float(t.grad.flat[j])
            keep = t.data.flat[j]
            t.data.flat[j] = keep + eps
            up = loss_value().item()
            t.data.flat[j] = keep - eps
            down = loss_value().item()
            t.data.flat[j] = keep
            numeric = (up - down) / (2.0 * eps)
            report.entries.append(CheckEntry(f"{name}[{j}]", _rel_err(a, numeric)))
    for _, t, _ in named:
        t.grad = None
    return report
