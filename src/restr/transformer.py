"""Multi-headed self-attention, the pre-norm transformer block, and stacks.

A stack is a sequence of residual blocks ``z + MSA(LN(z))`` followed by
``z + MLP(LN(z))``, closed with a terminal layer normalization. As in ViT,
one fused linear map ``w_qkv`` (d, 3d) gives the queries, keys and values of
every head, and the concatenated head outputs pass through a single output
projection. Tokens are (..., n, d): any leading axes are a batch.

Attention itself is one tape op, :func:`restr.tensor.attention`, applied to
the q/k/v projection as the matmul returns it; its docstring states the
layout, when the scores are shifted and what backward keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ConfigError(ValueError):
    """A configuration value violates a structural constraint."""


@dataclass
class TransformerConfig:
    """Shape of one encoder stack: depth, width, heads, MLP expansion."""

    layers: int
    dim: int
    heads: int

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.dim < 1 or self.heads < 1:
            raise ConfigError(f"dim/heads must be positive, got {self.dim}/{self.heads}")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def mlp_hidden(self) -> int:
        return 4 * self.dim


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal draw clipped to two standard deviations."""
    return np.clip(rng.normal(0.0, std, size=shape), -2.0 * std, 2.0 * std)


def _weight(rng, shape) -> Tensor:
    return Tensor(trunc_normal(rng, shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


@dataclass
class BlockParams:
    """Parameters of one pre-norm block: the fused q/k/v projection, the
    output projection, two layer norms, and the two-layer MLP.

    Columns of ``w_qkv`` are [q of head 0..H-1 | k of head 0..H-1 |
    v of head 0..H-1], ``head_dim`` columns per head.
    """

    heads: int
    w_qkv: Tensor
    b_qkv: Tensor
    w_out: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    w_mlp1: Tensor
    b_mlp1: Tensor
    w_mlp2: Tensor
    b_mlp2: Tensor

    def named_parameters(self):
        return [
            ("w_qkv", self.w_qkv, True), ("b_qkv", self.b_qkv, False),
            ("w_out", self.w_out, True),
            ("ln1.gain", self.ln1_gain, False), ("ln1.bias", self.ln1_bias, False),
            ("ln2.gain", self.ln2_gain, False), ("ln2.bias", self.ln2_bias, False),
            ("mlp.w1", self.w_mlp1, True), ("mlp.b1", self.b_mlp1, False),
            ("mlp.w2", self.w_mlp2, True), ("mlp.b2", self.b_mlp2, False),
        ]


@dataclass
class StackParams:
    """An encoder stack; repeated block references realize weight sharing."""

    blocks: list[BlockParams]
    ln_f_gain: Tensor
    ln_f_bias: Tensor

    def named_parameters(self):
        out, seen = [], set()
        for i, blk in enumerate(self.blocks):
            for name, t, decay in blk.named_parameters():
                if id(t) in seen:
                    continue
                seen.add(id(t))
                out.append((f"blocks.{i}.{name}", t, decay))
        out.append(("ln_f.gain", self.ln_f_gain, False))
        out.append(("ln_f.bias", self.ln_f_bias, False))
        return out


def init_block(rng: np.random.Generator, cfg: TransformerConfig) -> BlockParams:
    d, dh, hm = cfg.dim, cfg.head_dim, cfg.mlp_hidden
    # Each head draws its q, k, v in turn, so a seed gives the same weights
    # as independent per-head projections would.
    qkv = [[trunc_normal(rng, (d, dh)) for _ in range(3)] for _ in range(cfg.heads)]
    w_qkv = np.concatenate([head[j] for j in range(3) for head in qkv], axis=1)
    return BlockParams(
        heads=cfg.heads,
        w_qkv=Tensor(w_qkv, requires_grad=True), b_qkv=_zeros((1, 3 * d)),
        w_out=_weight(rng, (cfg.heads * dh, d)),
        ln1_gain=_ones(d), ln1_bias=_zeros(d),
        ln2_gain=_ones(d), ln2_bias=_zeros(d),
        w_mlp1=_weight(rng, (d, hm)), b_mlp1=_zeros((1, hm)),
        w_mlp2=_weight(rng, (hm, d)), b_mlp2=_zeros((1, d)),
    )


def init_stack(rng: np.random.Generator, cfg: TransformerConfig,
               share_weights: bool = False) -> StackParams:
    if share_weights:
        blk = init_block(rng, cfg)
        blocks = [blk] * cfg.layers
    else:
        blocks = [init_block(rng, cfg) for _ in range(cfg.layers)]
    return StackParams(blocks=blocks, ln_f_gain=_ones(cfg.dim), ln_f_bias=_zeros(cfg.dim))


def self_attention(z: Tensor, block: BlockParams) -> Tensor:
    """Scaled dot-product attention of every head at once: (..., n, d) tokens
    in, the heads' outputs concatenated to (..., n, d) out.

    One fused op, :func:`restr.tensor.attention`, computes every head from the
    token-major q/k/v projection; inside :func:`restr.tensor.attention_maps`
    it also yields the row-stochastic (..., H, n, n) attention.
    """
    return T.attention(T.matmul(z, block.w_qkv) + block.b_qkv, block.heads)


def msa(z: Tensor, block: BlockParams) -> Tensor:
    """Multi-headed self-attention: concatenated heads, one output projection."""
    return T.matmul(self_attention(z, block), block.w_out)


def transformer_block(z: Tensor, block: BlockParams) -> Tensor:
    zb = msa(T.layer_norm(z, block.ln1_gain, block.ln1_bias), block) + z
    hidden = T.gelu(T.matmul(T.layer_norm(zb, block.ln2_gain, block.ln2_bias),
                             block.w_mlp1) + block.b_mlp1)
    return T.matmul(hidden, block.w_mlp2) + block.b_mlp2 + zb


def encoder_stack(z: Tensor, params: StackParams) -> Tensor:
    """Run every block, then the terminal layer norm."""
    for block in params.blocks:
        z = transformer_block(z, block)
    return T.layer_norm(z, params.ln_f_gain, params.ln_f_bias)


def block_param_count(cfg: TransformerConfig) -> int:
    """Closed-form parameter count of one block (must match enumeration)."""
    d, hm = cfg.dim, cfg.mlp_hidden
    qkv = 3 * (d * d + d)
    out_proj = d * d
    norms = 4 * d
    mlp = d * hm + hm + hm * d + d
    return qkv + out_proj + norms + mlp


def block_mac_count(n_tokens: int, cfg: TransformerConfig) -> int:
    """Matrix-product MACs of one block forward on ``n_tokens`` tokens."""
    d, hm = cfg.dim, cfg.mlp_hidden
    qkv = 3 * n_tokens * d * d
    attn = 2 * n_tokens * n_tokens * d  # scores and value aggregation, all heads
    out_proj = n_tokens * d * d
    mlp = 2 * n_tokens * d * hm
    return qkv + attn + out_proj + mlp
