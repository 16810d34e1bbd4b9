"""Vision and language encoders.

The vision side splits each image into non-overlapping patches, embeds each
with a linear projection, adds a learned positional table, and runs a
transformer stack. The language side embeds token ids, adds a fixed
sinusoidal positional table, and runs its own stack. Both stacks end with a
terminal layer norm. Both encoders take a batch and return (B, tokens, dim).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .transformer import (ConfigError, Linear, Params, StackParams, TransformerConfig,
                          _weight, _zeros, encoder_stack, init_stack, trunc_normal)
from .fusion import FusionVariant

PAD_ID = 0
UNK_ID = 1


@dataclass
class ModelConfig:
    """All architecture hyperparameters of the network."""

    image_h: int = 64
    image_w: int = 64
    channels: int = 3
    patch_size: int = 8
    dim_vision: int = 64
    vision_layers: int = 2
    dim_language: int = 64
    language_layers: int = 2
    max_tokens: int = 20
    vocab_size: int = 15
    dim_fusion: int = 64
    fusion_layers: int = 2
    heads: int = 4
    fusion_variant: FusionVariant = FusionVariant.CME

    def __post_init__(self):
        if isinstance(self.fusion_variant, str):
            self.fusion_variant = FusionVariant.parse(self.fusion_variant)
        for name in ("image_h", "image_w", "channels", "dim_vision", "vision_layers",
                     "dim_language", "language_layers", "dim_fusion", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        p = self.patch_size
        if p < 2 or (p & (p - 1)):
            raise ConfigError(f"patch_size must be a power of two >= 2, got {p}")
        if self.image_h % p or self.image_w % p:
            raise ConfigError(
                f"image {self.image_h}x{self.image_w} not divisible by patch_size {p}")
        if self.fusion_layers < 2 or self.fusion_layers % 2:
            raise ConfigError(f"fusion_layers must be even >= 2, got {self.fusion_layers}")
        for name, dim in (("dim_vision", self.dim_vision),
                          ("dim_language", self.dim_language),
                          ("dim_fusion", self.dim_fusion)):
            if dim % self.heads:
                raise ConfigError(f"{name} {dim} not divisible by heads {self.heads}")
        if self.dim_language % 2:
            raise ConfigError(f"dim_language must be even, got {self.dim_language}")
        k = self.decoder_blocks
        if self.dim_fusion % (1 << (k - 1)):
            raise ConfigError(
                f"dim_fusion {self.dim_fusion} must be divisible by 2^{k - 1} "
                f"for the {k}-block decoder channel chain")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.vocab_size < 3:
            raise ConfigError("vocab_size must cover PAD, UNK and at least one token, "
                              f"got {self.vocab_size}")

    @property
    def patch_grid(self) -> tuple[int, int]:
        return self.image_h // self.patch_size, self.image_w // self.patch_size

    @property
    def n_patches(self) -> int:
        gh, gw = self.patch_grid
        return gh * gw

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    @property
    def decoder_blocks(self) -> int:
        return int(round(math.log2(self.patch_size)))

    @property
    def fused_len(self) -> int:
        return self.n_patches + self.max_tokens + 1

    def vision_tfm(self) -> TransformerConfig:
        return TransformerConfig(self.vision_layers, self.dim_vision, self.heads)

    def language_tfm(self) -> TransformerConfig:
        return TransformerConfig(self.language_layers, self.dim_language, self.heads)

    def fusion_tfm(self) -> TransformerConfig:
        return TransformerConfig(self.fusion_layers // 2, self.dim_fusion, self.heads)


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """(..., H, W, C) -> (..., N, P*P*C) float64: row-major patch grid,
    row-major inside a patch; leading axes are a batch. The one copy that
    regroups the pixels also widens float32 images and uint8 masks."""
    *lead, h, w, c = image.shape
    p = patch_size
    if h % p or w % p:
        raise ConfigError(f"image {h}x{w} not divisible by patch size {p}")
    b = len(lead)
    grid = image.reshape(*lead, h // p, p, w // p, p, c)
    grid = grid.transpose(*range(b), b, b + 2, b + 1, b + 3, b + 4)
    return grid.astype(np.float64, order="C").reshape(*lead, h // p * (w // p), p * p * c)


@dataclass
class VisionParams(Params):
    patch: Linear
    pos: Tensor  # learned positional table, one row per patch
    stack: StackParams


@dataclass
class LanguageParams(Params):
    embed: Tensor
    stack: StackParams
    pos_table: np.ndarray = field(repr=False)  # sinusoidal, constant


def init_vision(rng: np.random.Generator, cfg: ModelConfig) -> VisionParams:
    return VisionParams(
        patch=Linear(w=_weight(rng, (cfg.patch_dim, cfg.dim_vision)),
                     b=_zeros((1, cfg.dim_vision))),
        pos=Tensor(trunc_normal(rng, (cfg.n_patches, cfg.dim_vision)), requires_grad=True),
        stack=init_stack(rng, cfg.vision_tfm()),
    )


def init_language(rng: np.random.Generator, cfg: ModelConfig) -> LanguageParams:
    return LanguageParams(
        embed=Tensor(trunc_normal(rng, (cfg.vocab_size, cfg.dim_language)),
                     requires_grad=True),
        stack=init_stack(rng, cfg.language_tfm()),
        pos_table=sinusoidal_table(cfg.max_tokens, cfg.dim_language),
    )


def vision_encode(images: np.ndarray, params: VisionParams, cfg: ModelConfig) -> Tensor:
    """(B, H, W, C) images in [0, 1] -> patch features (B, n_patches, dim_vision)."""
    expected = (cfg.image_h, cfg.image_w, cfg.channels)
    if images.ndim != 4 or images.shape[1:] != expected:
        raise ConfigError(f"image batch shape {images.shape} does not match "
                          f"config (B, {expected[0]}, {expected[1]}, {expected[2]})")
    if not ((images >= 0.0) & (images <= 1.0)).all():  # NaN fails both comparisons
        raise ValueError("image values must lie in [0, 1]")
    patches = Tensor(patchify(images, cfg.patch_size))
    emb = T.matmul(patches, params.patch.w) + params.patch.b
    return encoder_stack(emb + params.pos, params.stack)


def sinusoidal_table(n_pos: int, dim: int) -> np.ndarray:
    """Fixed table: column 2i is sin(pos / 10000^(2i/dim)), column 2i+1 the cosine."""
    if dim % 2:
        raise ConfigError(f"sinusoidal table needs an even dimension, got {dim}")
    pos = np.arange(n_pos)[:, None]
    freq = np.power(10000.0, -np.arange(0, dim, 2) / dim)[None, :]
    table = np.empty((n_pos, dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


def pad_token_ids(token_ids: Sequence[int], cfg: ModelConfig) -> list[int]:
    """Validate, truncate (with a warning), and pad to ``max_tokens``."""
    ids = [int(i) for i in token_ids]
    for i in ids:
        if not 0 <= i < cfg.vocab_size:
            raise ValueError(f"token id {i} outside vocabulary of size {cfg.vocab_size}")
    if len(ids) > cfg.max_tokens:
        warnings.warn(f"expression of {len(ids)} tokens truncated to {cfg.max_tokens}",
                      stacklevel=2)
        ids = ids[:cfg.max_tokens]
    return ids + [PAD_ID] * (cfg.max_tokens - len(ids))


def language_encode(token_ids: Sequence[Sequence[int]], params: LanguageParams,
                    cfg: ModelConfig) -> Tensor:
    """One id sequence per sample -> features (B, max_tokens, dim_language).

    Padding uses a learned PAD embedding; padded positions attend like any
    other token.
    """
    ids = np.array([pad_token_ids(seq, cfg) for seq in token_ids], dtype=np.int64)
    onehot = (ids[..., None] == np.arange(cfg.vocab_size)).astype(np.float64)
    emb = T.matmul(Tensor(onehot), params.embed)
    return encoder_stack(emb + Tensor(params.pos_table), params.stack)


def save_vocab(tokens: Sequence[str], path) -> None:
    """One token per line; the line number is the id (0 is PAD, 1 is UNK)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(tokens) + "\n")


def load_vocab(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh if line.strip()]
    if len(tokens) < 2:
        raise ValueError(f"vocabulary at {path} is missing the reserved PAD/UNK entries")
    return tokens


def tokenize(text: str, vocab: Sequence[str]) -> list[int]:
    """Whitespace tokenizer; unknown words map to UNK."""
    index = {tok: i for i, tok in enumerate(vocab)}
    return [index.get(word, UNK_ID) for word in text.split()]
