"""Evaluation protocol: cumulative IoU, Prec@X, and length-bucketed reporting.

Cumulative IoU divides the total intersection by the total union over all
samples; it is not the mean of per-sample IoUs. Prec@X is the fraction of
samples whose own IoU reaches the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import decoder
from . import tensor as T

PREC_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_BUCKETS = "1-2,3,4-5,6-20"


def binarize(logits: np.ndarray) -> np.ndarray:
    """Pixel or patch logits -> {0,1} mask; logit 0 (sigmoid 0.5) counts as 1."""
    grid = np.asarray(logits)
    if grid.ndim == 3:
        grid = grid[:, :, 0]
    return (grid >= 0.0).astype(np.uint8)


def intersection_union(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int]:
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes disagree: {pred.shape} vs {gt.shape}")
    p = np.asarray(pred, dtype=bool)
    g = np.asarray(gt, dtype=bool)
    return int((p & g).sum()), int((p | g).sum())


def _iou(inter: int, union: int) -> float:
    """Intersection over union; an empty union (empty vs empty) counts as a
    perfect 1.0."""
    return inter / union if union else 1.0


def cumulative_iou(preds: Sequence[np.ndarray], gts: Sequence[np.ndarray]) -> float:
    if len(preds) == 0 or len(preds) != len(gts):
        raise ValueError(f"need equal-length nonempty sequences, "
                         f"got {len(preds)} and {len(gts)}")
    totals = [intersection_union(p, g) for p, g in zip(preds, gts)]
    return _iou(sum(i for i, _ in totals), sum(u for _, u in totals))


def prec_at(ious: Sequence[float], threshold: float) -> float:
    if not len(ious):
        raise ValueError("prec_at needs at least one IoU value")
    return sum(1 for v in ious if v >= threshold) / len(ious)


def parse_buckets(spec: str) -> list[tuple[int, int]]:
    """Parse "1-2,3,4-5,6-20" into disjoint inclusive (lo, hi) ranges, in any order."""
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
    ranked = sorted(buckets)
    for (lo, hi), (lo2, hi2) in zip(ranked, ranked[1:]):
        if lo2 <= hi:
            raise ValueError(f"bucket ranges {lo}-{hi} and {lo2}-{hi2} overlap in {spec!r}")
    return buckets


def _bucket_of(length: int, buckets: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The bucket that holds ``length``."""
    for b in buckets:
        if b[0] <= length <= b[1]:
            return b
    raise ValueError(f"expression length {length} not covered by {list(buckets)}")


def bucket_by_length(lengths: Sequence[int],
                     inter_unions: Sequence[tuple[int, int]],
                     buckets: Sequence[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Cumulative IoU within each expression-length bucket."""
    sums = {b: [0, 0] for b in buckets}
    counts = {b: 0 for b in buckets}
    for length, (inter, union) in zip(lengths, inter_unions):
        b = _bucket_of(length, buckets)
        sums[b][0] += inter
        sums[b][1] += union
        counts[b] += 1
    return {b: _iou(*s) for b, s in sums.items() if counts[b] > 0}


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

    def iou_csv_rows(self) -> list[str]:
        """One row per sample, in dataset order: index, IoU, intersection, union."""
        return ["sample,iou,intersection,union"] + [
            f"{k},{iou:.6f},{inter},{union}"
            for k, (iou, (inter, union)) in enumerate(zip(self.ious, self.inter_unions))]

    def text_table(self) -> str:
        lines = [f"samples          {self.n_samples}",
                 f"cumulative IoU   {self.cumulative_iou:.4f}"]
        for t in sorted(self.prec):
            lines.append(f"prec@{t:.1f}         {self.prec[t]:.4f}")
        for (lo, hi), v in self.length_buckets.items():
            lines.append(f"IoU len {lo}-{hi:<8d}{v:.4f}")
        return "\n".join(lines)


# Fused-stack attention scores that one token-stage forward of ``predicted_masks``
# may hold: (heads · fused_len²) per sample gives 4 samples at the A5 geometry
# (4 heads, 85 tokens) and 1 at A8 (2 heads, 921 tokens).
_CHUNK_SCORES = 1 << 17


def _chunk_size(cfg) -> int:
    """Samples per token-stage forward of ``predicted_masks``."""
    return max(1, _CHUNK_SCORES // (cfg.heads * cfg.fused_len ** 2))


def _patch_mask(patch_logits: np.ndarray, cfg) -> np.ndarray:
    """Binarized patch logits replicated to pixel resolution."""
    blocks = binarize(patch_logits.reshape(cfg.patch_grid))
    return np.repeat(np.repeat(blocks, cfg.patch_size, 0), cfg.patch_size, 1)


def _chunk_masks(params, cfg, chunk: Sequence, use_decoder: bool) -> list[np.ndarray]:
    """Masks of consecutive samples: one token-stage forward over the chunk,
    then the decoder on each sample alone. A chunk of one passes the image
    as a view, not a copy. Nothing of the chunk outlives the call, and no
    sample's logits outlive its binarization."""
    images = (np.asarray(chunk[0].image)[None] if len(chunk) == 1
              else np.stack([np.asarray(s.image) for s in chunk]))
    pv, masked, logits = decoder.encode(images, [s.token_ids for s in chunk], params, cfg)
    if not use_decoder:
        return [_patch_mask(p, cfg) for p in logits.data]
    return [binarize(decoder.decode_pixels(T.Tensor(v), T.Tensor(m), params.decoder,
                                           cfg).data)
            for v, m in zip(pv.data, masked.data)]


def predicted_masks(params, cfg, dataset: Sequence,
                    use_decoder: bool = True) -> list[np.ndarray]:
    """Binary masks for every sample, in dataset order.

    Consecutive samples go through the token stages (``decoder.encode``) in
    chunks of ``_chunk_size(cfg)``; the decoder then runs on each sample of
    the chunk alone. Decoding holds the pixel grids, the bulk of a forward's
    memory, so peak memory stays near one sample's decode plus one chunk's
    token stages. Without the decoder, the mask is the thresholded patch
    prediction replicated to pixel resolution."""
    step = _chunk_size(cfg)
    with T.no_grad():
        return [mask for c0 in range(0, len(dataset), step)
                for mask in _chunk_masks(params, cfg, dataset[c0:c0 + step], use_decoder)]


def evaluate_model(params, cfg, dataset: Sequence, buckets: str = DEFAULT_BUCKETS,
                   use_decoder: bool = True) -> EvalReport:
    """Run the model on ``dataset`` and assemble the full report; the
    ``buckets`` spec string is read by :func:`parse_buckets`."""
    if not dataset:
        raise ValueError("evaluate_model needs a nonempty dataset")
    buckets = parse_buckets(buckets)
    # the model truncates longer expressions to max_tokens
    lengths = [min(len(s.token_ids), cfg.max_tokens) for s in dataset]
    for length in lengths:  # fail before the forward, not after it
        _bucket_of(length, buckets)
    preds = predicted_masks(params, cfg, dataset, use_decoder=use_decoder)
    gts = [np.asarray(s.mask).reshape(p.shape) for p, s in zip(preds, dataset)]
    ius = [intersection_union(p, g) for p, g in zip(preds, gts)]
    ious = [_iou(i, u) for i, u in ius]
    return EvalReport(
        cumulative_iou=_iou(sum(i for i, _ in ius), sum(u for _, u in ius)),
        ious=ious,
        prec={t: prec_at(ious, t) for t in PREC_THRESHOLDS},
        length_buckets=bucket_by_length(lengths, ius, buckets),
        n_samples=len(dataset),
        inter_unions=ius,
    )

