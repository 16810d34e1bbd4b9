"""Evaluation protocol: cumulative IoU, Prec@X, and length-bucketed reporting.

Cumulative IoU divides the total intersection by the total union over all
samples; it is not the mean of per-sample IoUs. Prec@X is the fraction of
samples whose own IoU reaches the threshold.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .decoder import forward

PREC_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_BUCKETS = "1-2,3,4-5,6-20"


def worker_count() -> int:
    """Worker cap from RESTR_THREADS (default 1: fully serial)."""
    try:
        return max(1, int(os.environ.get("RESTR_THREADS", "1")))
    except ValueError:
        return 1


def binarize(pixel_logits: np.ndarray) -> np.ndarray:
    """Logits -> {0,1} mask; the sigmoid-0.5 boundary (logit 0) counts as 1."""
    grid = np.asarray(pixel_logits)
    if grid.ndim == 3:
        grid = grid[:, :, 0]
    return (grid >= 0.0).astype(np.uint8)


def intersection_union(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int]:
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes disagree: {pred.shape} vs {gt.shape}")
    p = np.asarray(pred, dtype=bool)
    g = np.asarray(gt, dtype=bool)
    return int((p & g).sum()), int((p | g).sum())


def sample_iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Per-sample IoU; the empty-vs-empty case counts as a perfect 1.0."""
    inter, union = intersection_union(pred, gt)
    return inter / union if union else 1.0


def cumulative_iou(preds: Sequence[np.ndarray], gts: Sequence[np.ndarray]) -> float:
    if len(preds) == 0 or len(preds) != len(gts):
        raise ValueError(f"need equal-length nonempty sequences, "
                         f"got {len(preds)} and {len(gts)}")
    totals = [intersection_union(p, g) for p, g in zip(preds, gts)]
    inter = sum(i for i, _ in totals)
    union = sum(u for _, u in totals)
    return inter / union if union else 1.0


def prec_at(ious: Sequence[float], threshold: float) -> float:
    if not len(ious):
        raise ValueError("prec_at needs at least one IoU value")
    return sum(1 for v in ious if v >= threshold) / len(ious)


def parse_buckets(spec: str) -> list[tuple[int, int]]:
    """Parse "1-2,3,4-5,6-20" into inclusive (lo, hi) ranges."""
    buckets = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            buckets.append((int(lo), int(hi)))
        else:
            buckets.append((int(part), int(part)))
    for lo, hi in buckets:
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid bucket range {lo}-{hi} in {spec!r}")
    return buckets


def bucket_by_length(lengths: Sequence[int],
                     inter_unions: Sequence[tuple[int, int]],
                     buckets: Sequence[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Cumulative IoU within each expression-length bucket."""
    sums = {b: [0, 0] for b in buckets}
    counts = {b: 0 for b in buckets}
    for length, (inter, union) in zip(lengths, inter_unions):
        homes = [b for b in buckets if b[0] <= length <= b[1]]
        if not homes:
            raise ValueError(f"expression length {length} not covered by {buckets}")
        b = homes[0]
        sums[b][0] += inter
        sums[b][1] += union
        counts[b] += 1
    return {b: (s[0] / s[1] if s[1] else 1.0)
            for b, s in sums.items() if counts[b] > 0}


@dataclass
class EvalReport:
    cumulative_iou: float
    ious: list[float]
    prec: dict[float, float]
    length_buckets: dict[tuple[int, int], float]
    n_samples: int
    inter_unions: list[tuple[int, int]] = field(default_factory=list)

    def csv_rows(self) -> list[str]:
        rows = ["metric,key,value",
                f"cumulative_iou,,{self.cumulative_iou:.6f}",
                f"samples,,{self.n_samples}"]
        for t in sorted(self.prec):
            rows.append(f"prec,{t:.1f},{self.prec[t]:.6f}")
        for (lo, hi), v in self.length_buckets.items():
            rows.append(f"bucket_iou,{lo}-{hi},{v:.6f}")
        return rows

    def text_table(self) -> str:
        lines = [f"samples          {self.n_samples}",
                 f"cumulative IoU   {self.cumulative_iou:.4f}"]
        for t in sorted(self.prec):
            lines.append(f"prec@{t:.1f}         {self.prec[t]:.4f}")
        for (lo, hi), v in self.length_buckets.items():
            lines.append(f"IoU len {lo}-{hi:<8d}{v:.4f}")
        return "\n".join(lines)


def _predict_mask(args) -> np.ndarray:
    params, cfg, sample, use_decoder = args
    with T.no_grad():
        pred = forward(np.asarray(sample.image)[None], [sample.token_ids], params, cfg,
                       with_pixels=use_decoder)
    if use_decoder:
        return binarize(pred.pixel_logits.data[0])
    gh, gw = cfg.patch_grid
    blocks = (pred.patch_probs.data.reshape(gh, gw) >= 0.5).astype(np.uint8)
    return np.repeat(np.repeat(blocks, cfg.patch_size, 0), cfg.patch_size, 1)


def predicted_masks(params, cfg, dataset: Sequence,
                    use_decoder: bool = True) -> list[np.ndarray]:
    """Binary masks for every sample; parallel when RESTR_THREADS > 1,
    aggregated in dataset order either way. Each sample is its own forward
    (a batch of one), which keeps peak memory at one sample's activations.
    Without the decoder, the mask is the thresholded patch prediction
    replicated to pixel resolution."""
    jobs = [(params, cfg, s, use_decoder) for s in dataset]
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_predict_mask, jobs))
    return [_predict_mask(j) for j in jobs]


def evaluate_model(params, cfg, dataset: Sequence,
                   thresholds: Sequence[float] = PREC_THRESHOLDS,
                   buckets: str | Sequence[tuple[int, int]] = DEFAULT_BUCKETS,
                   use_decoder: bool = True) -> EvalReport:
    """Run the model on ``dataset`` and assemble the full report."""
    if not dataset:
        raise ValueError("evaluate_model needs a nonempty dataset")
    if isinstance(buckets, str):
        buckets = parse_buckets(buckets)
    preds = predicted_masks(params, cfg, dataset, use_decoder=use_decoder)
    gts = [np.asarray(s.mask).reshape(p.shape).astype(np.uint8)
           for p, s in zip(preds, dataset)]
    ius = [intersection_union(p, g) for p, g in zip(preds, gts)]
    ious = [i / u if u else 1.0 for i, u in ius]
    lengths = [len(s.token_ids) for s in dataset]
    total_i = sum(i for i, _ in ius)
    total_u = sum(u for _, u in ius)
    return EvalReport(
        cumulative_iou=total_i / total_u if total_u else 1.0,
        ious=ious,
        prec={t: prec_at(ious, t) for t in thresholds},
        length_buckets=bucket_by_length(lengths, ius, buckets),
        n_samples=len(dataset),
        inter_unions=ius,
    )


def cumulative_iou_of_model(params, cfg, dataset: Sequence,
                            use_decoder: bool = True) -> float:
    preds = predicted_masks(params, cfg, dataset, use_decoder=use_decoder)
    gts = [np.asarray(s.mask)[:, :, 0] if np.asarray(s.mask).ndim == 3
           else np.asarray(s.mask) for s in dataset]
    return cumulative_iou(preds, gts)
