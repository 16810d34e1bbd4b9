"""Training: patch label generation, composite loss, AdamW, LR schedule, loop.

Patch labels mark a patch foreground only when the ground-truth mask covers
strictly more than ``tau`` of it. The loss, on logits, is
``lam * BCE(patch_logits, patch_labels) + BCE(pixel_logits, mask)``, each
term mean-reduced over its own elements. AdamW applies decoupled weight
decay to a parameter when the last part of its name (its field path) starts
with ``w``, as weight matrices do, or is ``embed``; biases, norm affines, the
positional table ``pos`` and the class ``seed`` are exempt.

A training step records the token stages as one graph over the batch, and
the decoder and loss as one graph per sample (:func:`decoded_backward`).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import decoder, tensor as T
from .tensor import Tensor
from .decoder import PredictionPair, RestrParams, encode
from .encoders import ModelConfig, patchify
from .transformer import ConfigError


# Fixed by the reference recipe: AdamW's betas and epsilon, and the poly power.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
POLY_POWER = 0.9


class NonFiniteLossError(RuntimeError):
    """A loss term or a gradient came out NaN or infinite; training stops
    before the step writes any parameter or optimizer state."""


@dataclass
class TrainConfig:
    """Optimization hyperparameters; defaults follow the reference recipe.
    AdamW's betas and epsilon and the poly power are the constants above."""

    base_lr: float = 1e-5
    weight_decay: float = 5e-4
    warmup_iters: int = 100
    total_iters: int = 2000
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
        for name in ("total_iters", "batch_size", "log_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("warmup_iters", "eval_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.warmup_iters > self.total_iters:
            raise ConfigError(f"warmup_iters {self.warmup_iters} exceeds "
                              f"total_iters {self.total_iters}")


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

    ``y_p`` has the shape of ``pred.patch_logits`` and ``mask`` the size of
    ``pred.pixel_logits``; each term is the mean BCE on logits over its batch's
    elements. A uint8 mask batch becomes float64 only in the BCE target array.
    """
    patch_term = T.bce(pred.patch_logits, y_p)
    pixel_term = T.bce(pred.pixel_logits, np.reshape(mask, pred.pixel_logits.shape))
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
    return cfg.base_lr * remaining ** POLY_POWER


def decays(name: str) -> bool:
    """The weight-decay rule of the module docstring."""
    leaf = name.rpartition(".")[2]
    return leaf.startswith("w") or leaf == "embed"


class AdamW:
    """Decoupled-weight-decay Adam over (name, tensor) pairs; see :func:`decays`."""

    def __init__(self, named_params: Sequence[tuple[str, Tensor]], cfg: TrainConfig):
        self.cfg = cfg
        self.params = list(named_params)
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for _, t in self.params]
        self.v = [np.zeros_like(t.data) for _, t in self.params]

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self, lr: float) -> float:
        """One update; returns the global L2 norm of the gradients it used.
        A non-finite norm raises NonFiniteLossError before anything is written."""
        cfg = self.cfg
        sq_norms = [0.0 if t.grad is None else float(np.vdot(t.grad, t.grad))
                    for _, t in self.params]
        sq_norm = sum(sq_norms)
        if not math.isfinite(sq_norm):
            bad = next((name for (name, _), sq in zip(self.params, sq_norms)
                        if not math.isfinite(sq)), "global norm overflow")
            raise NonFiniteLossError(f"non-finite gradient at iteration "
                                     f"{self.step_count + 1}: {bad}")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for (name, t), m, v in zip(self.params, self.m, self.v):
            g = np.zeros_like(t.data) if t.grad is None else t.grad
            if cfg.weight_decay and decays(name):
                t.data *= 1.0 - lr * cfg.weight_decay
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        return math.sqrt(sq_norm)

    def state(self) -> dict:
        return {"step": self.step_count, "m": self.m, "v": self.v}

    def load_state(self, state: dict) -> None:
        if not len(state["m"]) == len(state["v"]) == len(self.params):
            raise ValueError("optimizer state does not match the parameter list")
        self.step_count = int(state["step"])
        self.m = [np.asarray(a, dtype=np.float64).reshape(t.data.shape)
                  for a, (_, t) in zip(state["m"], self.params)]
        self.v = [np.asarray(a, dtype=np.float64).reshape(t.data.shape)
                  for a, (_, t) in zip(state["v"], self.params)]


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


def check_finite_loss(iteration: int, loss_patch: float, loss_pixel: float) -> None:
    """Raise NonFiniteLossError naming each loss term that is NaN or infinite."""
    bad = [f"{name} term is {value}" for name, value
           in (("patch", loss_patch), ("pixel", loss_pixel)) if not np.isfinite(value)]
    if bad:
        raise NonFiniteLossError(f"non-finite loss at iteration {iteration}: "
                                 + ", ".join(bad))


def decoded_backward(iteration: int, images: np.ndarray, token_ids: Sequence,
                     y_p: np.ndarray, masks: np.ndarray, params: RestrParams,
                     model_cfg: ModelConfig, lam: float) -> list[float]:
    """Back-propagate a batch's mean :func:`segmentation_loss`, decoding one
    sample at a time; returns the batch means of (total, patch, pixel term).

    The token stages record one graph over the batch. Each sample's rows of
    their outputs, patch logits included, are leaves of a decoder-and-loss
    graph on a tape of its own, back-propagated from the seed 1/B and freed
    before the next sample is decoded; their gradients seed the token-stage
    backward. The samples of a dataset share one size, so the mean of their
    means is the batch mean: the gradients are the one-graph ones up to
    rounding."""
    outs = encode(images, token_ids, params, model_cfg)
    grads = [np.empty_like(t.data) for t in outs]
    terms = np.empty((len(images), 3))
    for i in range(len(images)):
        with T.new_tape():
            leaves = [Tensor(t.data[i:i + 1], requires_grad=True) for t in outs]
            pv, masked, patch_logits = leaves
            logits = decoder.decode_pixels(pv, masked, params.decoder, model_cfg)
            total, patch_term, pixel_term = segmentation_loss(
                PredictionPair(patch_logits=patch_logits, pixel_logits=logits),
                y_p[i:i + 1], masks[i:i + 1], lam)
            terms[i] = total.item(), patch_term.item(), pixel_term.item()
            check_finite_loss(iteration, terms[i, 1], terms[i, 2])
            T.backward(seeds=[(total, np.full((), 1.0 / len(images)))])
        for g, leaf in zip(grads, leaves):
            g[i] = leaf.grad[0]
    T.backward(seeds=list(zip(outs, grads)))
    return terms.mean(axis=0).tolist()


def check_stop_settings(stop_at_iou: float | None, stop_after: int | None,
                        cfg: TrainConfig) -> None:
    """Raise ValueError unless :func:`train` can honour both stop settings."""
    if stop_after is not None and stop_after < 1:
        raise ValueError(f"stop_after must be >= 1, got {stop_after}")
    if stop_at_iou is None:
        return
    if not 0.0 < stop_at_iou <= 1.0:
        raise ValueError(f"stop_at_iou must lie in (0, 1], got {stop_at_iou}")
    if not cfg.eval_every:
        raise ValueError("stop_at_iou needs periodic evaluation; set eval_every > 0")


def train(params: RestrParams, model_cfg: ModelConfig, cfg: TrainConfig,
          dataset: Sequence, stop_at_iou: float | None = None,
          stop_after: int | None = None,
          optimizer: AdamW | None = None,
          use_decoder: bool = True,
          on_log: Callable[[TrainLogRow], None] | None = None) -> TrainResult:
    """Seeded mini-batch training loop.

    ``dataset`` items carry ``.image``, ``.token_ids`` and ``.mask``. Batches
    follow the deterministic :func:`batch_indices` schedule. Gradients are
    those of the batch-mean loss: the token stages run over the batch as one
    graph, and the decoder and the loss on each sample alone
    (:func:`decoded_backward`). Passing a resumed optimizer continues from
    its step count with the identical schedule.
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
    check_stop_settings(stop_at_iou, stop_after, cfg)

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
            masks = np.stack([np.asarray(s.mask) for s in batch])
            loss_total, loss_patch, loss_pixel = decoded_backward(
                iteration, images, token_ids, y_p, masks, params, model_cfg, cfg.lam)
        else:
            _, _, patch_logits = encode(images, token_ids, params, model_cfg)
            patch_term = T.bce(patch_logits, y_p)
            loss_total = loss_patch = patch_term.item()
            loss_pixel = 0.0
            check_finite_loss(iteration, loss_patch, loss_pixel)
            T.backward(patch_term)
        lr = lr_at(iteration, cfg)
        grad_norm = opt.step(lr)
        wall_s = time.perf_counter() - started

        row = TrainLogRow(iteration=iteration, lr=lr,
                          loss_total=loss_total,
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
