"""Training: patch label generation, composite loss, AdamW, LR schedule, loop.

Patch labels mark a patch foreground only when the ground-truth mask covers
strictly more than ``tau`` of it. The loss is
``lam * BCE(patch_probs, patch_labels) + BCE(sigmoid(pixel_logits), mask)``,
each term mean-reduced over its own elements. AdamW applies decoupled weight
decay to weight matrices only; biases, norm affines, positional tables, and
the class seed are exempt.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .decoder import PredictionPair, RestrParams, encode, forward
from .encoders import ModelConfig, patchify
from .transformer import ConfigError


class NonFiniteLossError(RuntimeError):
    """A loss term came out NaN or infinite; training stops before the step."""


@dataclass
class TrainConfig:
    """Optimization hyperparameters; defaults follow the reference recipe."""

    base_lr: float = 1e-5
    weight_decay: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    warmup_iters: int = 100
    total_iters: int = 2000
    poly_power: float = 0.9
    batch_size: int = 8
    tau: float = 0.8
    lam: float = 0.1
    seed: int = 0
    eval_every: int = 0  # 0 disables periodic evaluation
    log_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0, 1), got {self.tau}")
        # Each float check reads `not <valid range>`, so a NaN fails it.
        for name in ("base_lr", "weight_decay", "lam"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        for name in ("total_iters", "batch_size", "log_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("warmup_iters", "eval_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.warmup_iters > self.total_iters:
            raise ConfigError(f"warmup_iters {self.warmup_iters} exceeds "
                              f"total_iters {self.total_iters}")
        if not self.poly_power > 0.0:
            raise ConfigError(f"poly_power must be positive, got {self.poly_power}")


def patch_labels(mask: np.ndarray, patch_size: int, tau: float) -> np.ndarray:
    """Per-patch binary labels: 1 iff the mask mean over the patch exceeds tau.

    Patch order matches :func:`restr.encoders.patchify`. The comparison is
    strict, so a coverage of exactly ``tau`` yields 0.
    """
    if mask.ndim == 2:
        mask = mask[:, :, None]
    if not np.isin(mask, (0.0, 1.0)).all():
        raise ValueError("patch_labels needs a binary mask with entries in {0, 1}")
    means = patchify(mask, patch_size).mean(axis=1)
    return (means > tau).astype(float)[:, None]


def segmentation_loss(pred: PredictionPair, y_p: np.ndarray, mask: np.ndarray,
                      lam: float) -> tuple[Tensor, Tensor, Tensor]:
    """Returns (total, patch term, pixel term); only the total carries the lam weight.

    ``y_p`` has the shape of ``pred.patch_probs`` and ``mask`` the size of
    ``pred.pixel_logits``; each term is the mean over its batch's elements.
    """
    patch_term = T.bce(pred.patch_probs, Tensor(y_p))
    pixel_term = T.bce(T.sigmoid(pred.pixel_logits),
                       Tensor(np.reshape(mask, pred.pixel_logits.shape)))
    total = T.scale(patch_term, lam) + pixel_term
    return total, patch_term, pixel_term


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Linear ramp to ``base_lr`` over the warmup, then polynomial decay to 0."""
    if iteration <= cfg.warmup_iters:
        if cfg.warmup_iters == 0:
            return cfg.base_lr
        return cfg.base_lr * iteration / cfg.warmup_iters
    span = cfg.total_iters - cfg.warmup_iters
    remaining = 1.0 - (iteration - cfg.warmup_iters) / span
    return cfg.base_lr * remaining ** cfg.poly_power


class AdamW:
    """Decoupled-weight-decay Adam over (name, tensor, decay) triples."""

    def __init__(self, named_params: Sequence[tuple[str, Tensor, bool]],
                 cfg: TrainConfig):
        self.cfg = cfg
        self.params = list(named_params)
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for _, t, _ in self.params]
        self.v = [np.zeros_like(t.data) for _, t, _ in self.params]

    def zero_grad(self) -> None:
        for _, t, _ in self.params:
            t.grad = None

    def step(self, lr: float) -> float:
        """One update; returns the global L2 norm of the gradients it used."""
        cfg = self.cfg
        self.step_count += 1
        bc1 = 1.0 - cfg.beta1 ** self.step_count
        bc2 = 1.0 - cfg.beta2 ** self.step_count
        sq_norm = 0.0
        for (name, t, decay), m, v in zip(self.params, self.m, self.v):
            g = t.grad
            if g is None:
                g = np.zeros_like(t.data)
            sq_norm += float(np.vdot(g, g))
            if decay and cfg.weight_decay:
                t.data *= 1.0 - lr * cfg.weight_decay
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        return math.sqrt(sq_norm)

    def state(self) -> dict:
        return {"step": self.step_count, "m": self.m, "v": self.v}

    def load_state(self, state: dict) -> None:
        if len(state["m"]) != len(self.params):
            raise ValueError("optimizer state does not match the parameter list")
        self.step_count = int(state["step"])
        self.m = [np.asarray(a, dtype=np.float64).reshape(t.data.shape)
                  for a, (_, t, _) in zip(state["m"], self.params)]
        self.v = [np.asarray(a, dtype=np.float64).reshape(t.data.shape)
                  for a, (_, t, _) in zip(state["v"], self.params)]


@dataclass
class TrainLogRow:
    """One iteration. ``grad_norm`` is the gradients' global L2 norm before
    the step; ``wall_ms`` times the iteration from batch assembly to the end
    of the step, periodic evaluation excluded."""

    iteration: int
    lr: float
    loss_total: float
    loss_patch: float
    loss_pixel: float
    grad_norm: float
    wall_ms: float
    samples_per_s: float
    eval_iou: float | None = None


@dataclass
class TrainResult:
    rows: list[TrainLogRow] = field(default_factory=list)
    final_iou: float | None = None
    stopped_at: int | None = None

    def write_csv(self, path) -> None:
        """The training log. Its columns depend only on the data, the seed and
        the recipe, so identical runs write identical bytes."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "lr", "loss_total", "loss_patch",
                             "loss_pixel", "grad_norm", "eval_iou"])
            for r in self.rows:
                writer.writerow([r.iteration, f"{r.lr:.10g}", f"{r.loss_total:.10g}",
                                 f"{r.loss_patch:.10g}", f"{r.loss_pixel:.10g}",
                                 f"{r.grad_norm:.10g}",
                                 "" if r.eval_iou is None else f"{r.eval_iou:.10g}"])

    def write_timing_csv(self, path) -> None:
        """Wall time and throughput per logged iteration, kept apart from
        :meth:`write_csv` because they differ between identical runs."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "wall_ms", "samples_per_s"])
            for r in self.rows:
                writer.writerow([r.iteration, f"{r.wall_ms:.4f}", f"{r.samples_per_s:.4f}"])


def batch_indices(iteration: int, n_samples: int, batch_size: int,
                  seed: int) -> np.ndarray:
    """Sample indices of the 1-based ``iteration``-th batch.

    A pure function of (seed, iteration): each epoch's permutation is derived
    from (seed, epoch), so a resumed run sees exactly the batches the
    uninterrupted run would have seen.
    """
    per_epoch = (n_samples + batch_size - 1) // batch_size
    epoch, slot = divmod(iteration - 1, per_epoch)
    order = np.random.default_rng((seed, epoch)).permutation(n_samples)
    return order[slot * batch_size:(slot + 1) * batch_size]


def train(params: RestrParams, model_cfg: ModelConfig, cfg: TrainConfig,
          dataset: Sequence, stop_at_iou: float | None = None,
          stop_after: int | None = None,
          optimizer: AdamW | None = None,
          use_decoder: bool = True,
          on_log: Callable[[TrainLogRow], None] | None = None) -> TrainResult:
    """Seeded mini-batch training loop.

    ``dataset`` items carry ``.image``, ``.token_ids`` and ``.mask``. Batches
    follow the deterministic :func:`batch_indices` schedule; each batch is one
    forward graph, and gradients come from one backward pass over the
    batch-mean loss. Passing a resumed optimizer continues from its step count
    with the identical schedule.
    Periodic evaluation (cumulative IoU on the training set) runs every
    ``eval_every`` iterations; with ``stop_at_iou``, a threshold in (0, 1]
    that needs ``eval_every`` > 0, the loop exits early once reached.
    ``use_decoder=False`` trains and evaluates from the patch head alone
    (decoder-ablation mode). ``stop_after`` interrupts once the global
    iteration count reaches it, without altering the schedule (so a later
    resume continues the very same run).
    """
    from .metrics import cumulative_iou, predicted_masks

    if not dataset:
        raise ValueError("train needs a nonempty dataset")
    if stop_at_iou is not None:
        if not 0.0 < stop_at_iou <= 1.0:
            raise ValueError(f"stop_at_iou must lie in (0, 1], got {stop_at_iou}")
        if not cfg.eval_every:
            raise ValueError("stop_at_iou needs periodic evaluation; set eval_every > 0")

    def eval_iou() -> float:
        preds = predicted_masks(params, model_cfg, dataset, use_decoder=use_decoder)
        return cumulative_iou(preds, [np.asarray(s.mask).reshape(p.shape)
                                      for p, s in zip(preds, dataset)])

    opt = optimizer if optimizer is not None else AdamW(params.named_parameters(), cfg)
    labels = {id(s): patch_labels(np.asarray(s.mask), model_cfg.patch_size, cfg.tau)
              for s in dataset}

    result = TrainResult()
    iteration = opt.step_count
    last_iteration = cfg.total_iters if stop_after is None else \
        min(cfg.total_iters, stop_after)
    while iteration < last_iteration:
        iteration += 1
        started = time.perf_counter()
        batch = [dataset[i] for i in batch_indices(iteration, len(dataset),
                                                   cfg.batch_size, cfg.seed)]
        opt.zero_grad()
        T.reset_graph()
        images = np.stack([np.asarray(s.image) for s in batch])
        token_ids = [s.token_ids for s in batch]
        y_p = np.stack([labels[id(s)] for s in batch])
        if use_decoder:
            pred = forward(images, token_ids, params, model_cfg)
            masks = np.stack([np.asarray(s.mask) for s in batch])
            batch_loss, patch_term, pixel_term = segmentation_loss(pred, y_p, masks, cfg.lam)
            loss_pixel = pixel_term.item()
        else:
            _, _, patch_probs = encode(images, token_ids, params, model_cfg)
            batch_loss = patch_term = T.bce(patch_probs, Tensor(y_p))
            loss_pixel = 0.0
        loss_patch = patch_term.item()
        bad = [f"{name} term is {value}" for name, value
               in (("patch", loss_patch), ("pixel", loss_pixel)) if not np.isfinite(value)]
        if bad:
            raise NonFiniteLossError(f"non-finite loss at iteration {iteration}: "
                                     + ", ".join(bad))
        T.backward(batch_loss)
        lr = lr_at(iteration, cfg)
        grad_norm = opt.step(lr)
        wall_s = time.perf_counter() - started

        row = TrainLogRow(iteration=iteration, lr=lr,
                          loss_total=batch_loss.item(),
                          loss_patch=loss_patch,
                          loss_pixel=loss_pixel,
                          grad_norm=grad_norm,
                          wall_ms=1e3 * wall_s,
                          samples_per_s=len(batch) / wall_s)
        if cfg.eval_every and iteration % cfg.eval_every == 0:
            row.eval_iou = eval_iou()
            result.final_iou = row.eval_iou
        if iteration % cfg.log_every == 0 or row.eval_iou is not None:
            result.rows.append(row)
            if on_log is not None:
                on_log(row)
        if (stop_at_iou is not None and row.eval_iou is not None
                and row.eval_iou >= stop_at_iou):
            result.stopped_at = iteration
            return result
    if cfg.eval_every and result.final_iou is None:
        result.final_iou = eval_iou()
    return result
