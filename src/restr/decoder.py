"""Coarse-to-fine segmentation decoder and the full-model forward pass.

The adaptive classifier scores each patch (inner product, sigmoid), the
scores gate the patch features, and ``log2(patch_size)`` blocks of
{2x bilinear upsample, channel-halving linear, GELU} lift the gated patch
grid to pixel logits. The final linear produces one logit per pixel; no
activation follows it. Upsampling is bilinear rather than nearest: nearest
replication keeps every pixel of a patch identical through the pointwise
layers, which caps mask quality at patch granularity.

Each block runs its linear before the upsample, on the 4x smaller grid. In
exact arithmetic the two commute: the upsample mixes cells and the linear
mixes channels, and every bilinear row sums to 1, so the bias passes through
unchanged: ``upsample(x) @ w + b == upsample(x @ w + b)``. In float64 the
two orders agree to rounding. The upsample then carries half the channels.

Every stage takes a batch: token tensors are (..., tokens, dim), and
``forward`` runs B images with their expressions as one graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoders import (LanguageParams, ModelConfig, VisionParams, init_language,
                       init_vision, language_encode, vision_encode)
from .fusion import FusionParams, fuse, init_fusion, project
from .transformer import ConfigError, _weight, _zeros


@dataclass
class PredictionPair:
    """Patch-level probabilities and pixel-level logits from one forward pass."""

    patch_probs: Tensor  # (B, n_patches, 1), strictly inside (0, 1)
    pixel_logits: Tensor  # (B, H, W, 1), unbounded


@dataclass
class DecoderParams:
    blocks: list[tuple[Tensor, Tensor]]  # per block: channel-halving (w, b)
    w_final: Tensor
    b_final: Tensor

    def named_parameters(self):
        out = []
        for i, (w, b) in enumerate(self.blocks):
            out.append((f"blocks.{i}.w", w, True))
            out.append((f"blocks.{i}.b", b, False))
        out.append(("final.w", self.w_final, True))
        out.append(("final.b", self.b_final, False))
        return out


def decoder_channel_chain(cfg: ModelConfig) -> list[int]:
    """Channel widths entering each block: 2D, D, D/2, ... down to 2D/2^K."""
    chain = [2 * cfg.dim_fusion]
    for _ in range(cfg.decoder_blocks):
        chain.append(chain[-1] // 2)
    return chain


def init_decoder(rng: np.random.Generator, cfg: ModelConfig) -> DecoderParams:
    chain = decoder_channel_chain(cfg)
    blocks = [(_weight(rng, (c_in, c_in // 2)), _zeros((1, c_in // 2)))
              for c_in in chain[:-1]]
    return DecoderParams(blocks=blocks,
                         w_final=_weight(rng, (chain[-1], 1)),
                         b_final=_zeros((1, 1)))


def patch_predict(z_v: Tensor, e_s: Tensor) -> Tensor:
    """Sigmoid of the classifier inner product, normalized by sqrt(D):
    (..., N, D) features and a (..., 1, D) classifier give (..., N, 1)."""
    if z_v.shape[-1] != e_s.shape[-1]:
        raise ConfigError(f"feature width {z_v.shape} vs classifier {e_s.shape}")
    d = z_v.shape[-1]
    return T.sigmoid(T.scale(T.matmul(z_v, T.transpose(e_s)), 1.0 / math.sqrt(d)))


def mask_features(z_v: Tensor, patch_probs: Tensor) -> Tensor:
    """Scale each patch feature row by its predicted probability."""
    if patch_probs.shape != z_v.shape[:-1] + (1,):
        raise ConfigError(f"mask shape {patch_probs.shape} does not match {z_v.shape}")
    return T.hadamard(z_v, patch_probs)


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
    for w, b in params.blocks:
        grid = T.gelu(T.upsample2x_bilinear(T.matmul(grid, w) + b))
    return T.matmul(grid, params.w_final) + params.b_final


@dataclass
class RestrParams:
    """Every trainable parameter of the network, grouped by stage."""

    vision: VisionParams
    language: LanguageParams
    fusion: FusionParams
    decoder: DecoderParams

    def named_parameters(self) -> list[tuple[str, Tensor, bool]]:
        out = []
        for prefix, group in (("vision", self.vision), ("language", self.language),
                              ("fusion", self.fusion), ("decoder", self.decoder)):
            out.extend((f"{prefix}.{n}", t, d) for n, t, d in group.named_parameters())
        return out


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
    beside them and the patch probabilities."""
    z_v = vision_encode(images, params.vision, cfg)
    z_l = language_encode(token_ids, params.language, cfg)
    pv, pl = project(z_v, z_l, params.fusion)
    z_v_fused, e_s = fuse(pv, pl, params.fusion)
    patch_probs = patch_predict(z_v_fused, e_s)
    return pv, mask_features(z_v_fused, patch_probs), patch_probs


def forward(images: np.ndarray, token_ids: Sequence[Sequence[int]], params: RestrParams,
            cfg: ModelConfig) -> PredictionPair:
    """Full pipeline on a batch of (B, H, W, C) images, one expression each:
    the token stages of ``encode``, then ``decode_pixels``."""
    pv, masked, patch_probs = encode(images, token_ids, params, cfg)
    return PredictionPair(patch_probs=patch_probs,
                          pixel_logits=decode_pixels(pv, masked, params.decoder, cfg))
