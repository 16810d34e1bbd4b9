"""Coarse-to-fine segmentation decoder and the full-model forward pass.

The adaptive classifier scores each patch with a logit (an inner product),
each logit's sigmoid gates the patch features, and ``log2(patch_size)``
blocks of {2x bilinear upsample, channel-halving linear, GELU} lift the
gated patch grid to pixel logits. The final linear produces one logit per
pixel; no activation follows it. Upsampling is bilinear rather than nearest:
nearest replication keeps every pixel of a patch identical through the
pointwise layers, which caps mask quality at patch granularity.

Each block runs its linear before the upsample, on the 4x smaller grid. In
exact arithmetic the two commute: the upsample mixes cells and the linear
mixes channels, and every bilinear row sums to 1, so the bias passes through
unchanged: ``upsample(x) @ w + b == upsample(x @ w + b)``. In float64 the
two orders agree to rounding. The upsample then carries half the channels.

Every stage takes a batch: token tensors are (..., tokens, dim), and
``forward`` runs B images with their expressions as one graph. ``encode``
wires the token stages, for ``forward`` and ``attention_probe`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoders import (LanguageParams, ModelConfig, VisionParams, init_language,
                       init_vision, language_encode, vision_encode)
from .fusion import (AttnStats, FusionParams, FusionVariant, LayerAttention, fuse,
                     init_fusion, project)
from .transformer import ConfigError, Linear, Params, _weight, _zeros


@dataclass
class PredictionPair:
    """Patch-level and pixel-level logits from one forward pass."""

    patch_logits: Tensor  # (B, n_patches, 1), unbounded
    pixel_logits: Tensor  # (B, H, W, 1), unbounded


@dataclass
class DecoderParams(Params):
    blocks: list[Linear]  # channel-halving, one per block
    final: Linear


def decoder_channel_chain(cfg: ModelConfig) -> list[int]:
    """Channel widths entering each block: 2D, D, D/2, ... down to 2D/2^K."""
    chain = [2 * cfg.dim_fusion]
    for _ in range(cfg.decoder_blocks):
        chain.append(chain[-1] // 2)
    return chain


def init_decoder(rng: np.random.Generator, cfg: ModelConfig) -> DecoderParams:
    chain = decoder_channel_chain(cfg)
    blocks = [Linear(w=_weight(rng, (c_in, c_in // 2)), b=_zeros((1, c_in // 2)))
              for c_in in chain[:-1]]
    return DecoderParams(blocks=blocks,
                         final=Linear(w=_weight(rng, (chain[-1], 1)), b=_zeros((1, 1))))


def patch_predict(z_v: Tensor, e_s: Tensor) -> Tensor:
    """Eq. 9's logits, the classifier inner product normalized by sqrt(D):
    (..., N, D) features and a (..., 1, D) classifier give (..., N, 1)."""
    if z_v.shape[-1] != e_s.shape[-1]:
        raise ConfigError(f"feature width {z_v.shape} vs classifier {e_s.shape}")
    d = z_v.shape[-1]
    return T.scale(T.matmul(z_v, T.transpose(e_s)), 1.0 / math.sqrt(d))


def mask_features(z_v: Tensor, probs: Tensor) -> Tensor:
    """Scale each patch feature row by its predicted probability."""
    if probs.shape != z_v.shape[:-1] + (1,):
        raise ConfigError(f"mask shape {probs.shape} does not match {z_v.shape}")
    return T.hadamard(z_v, probs)


def decode_pixels(z_v: Tensor, z_masked: Tensor, params: DecoderParams,
                  cfg: ModelConfig) -> Tensor:
    """(..., n_patches, D) x 2 -> (..., H, W, 1) logits via K
    upsample/halve/GELU blocks; the linears act on the last (channel) axis.

    Each block computes ``gelu(upsample(grid @ w + b))``, which equals the
    paper's ``gelu(upsample(grid) @ w + b)`` (see the module docstring) at a
    quarter of the linear's MACs."""
    if len(params.blocks) != cfg.decoder_blocks:
        raise ConfigError(f"decoder has {len(params.blocks)} blocks, "
                          f"config needs {cfg.decoder_blocks}")
    gh, gw = cfg.patch_grid
    x = T.concat([z_v, z_masked], axis=-1)
    grid = T.reshape(x, (*z_v.shape[:-2], gh, gw, 2 * cfg.dim_fusion))
    for blk in params.blocks:
        grid = T.gelu(T.upsample2x_bilinear(T.matmul(grid, blk.w) + blk.b))
    return T.matmul(grid, params.final.w) + params.final.b


@dataclass
class RestrParams(Params):
    """Every trainable parameter of the network, grouped by stage."""

    vision: VisionParams
    language: LanguageParams
    fusion: FusionParams
    decoder: DecoderParams


def init_model(rng: np.random.Generator, cfg: ModelConfig) -> RestrParams:
    return RestrParams(vision=init_vision(rng, cfg),
                       language=init_language(rng, cfg),
                       fusion=init_fusion(rng, cfg),
                       decoder=init_decoder(rng, cfg))


def encode(images: np.ndarray, token_ids: Sequence[Sequence[int]], params: RestrParams,
           cfg: ModelConfig) -> tuple[Tensor, Tensor, Tensor]:
    """The token stages on a batch of (B, H, W, C) images, one expression
    each: encode both modalities, fuse, classify patches. Returns the
    projected patches, the masked fused patches that ``decode_pixels`` takes
    beside them and the patch logits."""
    z_v = vision_encode(images, params.vision, cfg)
    z_l = language_encode(token_ids, params.language, cfg)
    pv, pl = project(z_v, z_l, params.fusion)
    z_v_fused, e_s = fuse(pv, pl, params.fusion)
    logits = patch_predict(z_v_fused, e_s)
    return pv, mask_features(z_v_fused, T.sigmoid(logits)), logits


def forward(images: np.ndarray, token_ids: Sequence[Sequence[int]], params: RestrParams,
            cfg: ModelConfig) -> PredictionPair:
    """Full pipeline on a batch of (B, H, W, C) images, one expression each:
    the token stages of ``encode``, then ``decode_pixels``."""
    pv, masked, patch_logits = encode(images, token_ids, params, cfg)
    return PredictionPair(patch_logits=patch_logits,
                          pixel_logits=decode_pixels(pv, masked, params.decoder, cfg))


def _seed_row_shares(attn: np.ndarray, n_v: int) -> np.ndarray:
    """(a_v-or-nan, a_l, a_self) of the last (seed) row of (..., H, N, N) attention
    whose first ``n_v`` tokens are visual, averaged over samples and heads."""
    seed = attn[..., -1, :].reshape(-1, attn.shape[-1])
    a_v = seed[:, :n_v].sum(axis=1).mean() if n_v else math.nan
    return np.array([a_v, seed[:, n_v:-1].sum(axis=1).mean(), seed[:, -1].mean()])


def attention_probe(params: RestrParams, cfg: ModelConfig,
                    samples: Iterable[tuple]) -> AttnStats:
    """Softmax mass of the class seed's row per fusion layer, split into
    visual / linguistic / self and averaged over heads and ``(image,
    token_ids)`` samples. Each sample runs ``encode`` alone, whose last
    attending stage is ``fuse``: VME reads all its maps, the other variants
    ``stack_b``'s half."""
    vme = params.fusion.variant is FusionVariant.VME
    n_maps, n_v = (cfg.fusion_layers, cfg.n_patches) if vme else (cfg.fusion_layers // 2, 0)
    totals, n_samples = np.zeros((n_maps, 3)), 0
    with T.no_grad():
        for n_samples, (image, ids) in enumerate(samples, 1):
            with T.attention_maps() as maps:
                encode(np.asarray(image)[None], [ids], params, cfg)
            totals += [_seed_row_shares(a, n_v) for a in maps[-n_maps:]]
    if not n_samples:
        raise ValueError("attention_probe needs at least one sample")
    return AttnStats(variant=params.fusion.variant, layers=[
        LayerAttention(layer=i, a_v=None if np.isnan(a_v) else float(a_v),
                       a_l=float(a_l), a_self=float(a_self))
        for i, (a_v, a_l, a_self) in enumerate(totals / n_samples)])
