"""Multimodal fusion encoder: class seed embedding, variant topologies,
attention probing, and the params/MACs profiler.

All variants share the same two projected inputs and the same parameter
budget: two sub-encoders, ``stack_a`` and ``stack_b``, of ``fusion_layers/2``
blocks each. Token tensors are (..., tokens, dim); leading axes are a batch and
the seed is broadcast over it. The variants differ only in the tokens that
reach ``stack_b`` beside the seed, which is always its last token:

* CME: ``stack_a`` runs on [visual ++ linguistic]; ``stack_b`` on its
  visually-attended linguistic tokens ++ seed.
* CME_SHARED: CME with weights tied across the blocks of each sub-encoder.
* IME: ``stack_b`` runs on the *raw* projected linguistic tokens ++ seed, so
  the seed never interacts with visual content.
* VME: both sub-encoders run back-to-back over [visual ++ linguistic ++ seed],
  giving the seed direct visual access; the patch features come from
  ``stack_b``.

CME and IME take the patch features from ``stack_a``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .transformer import (ConfigError, StackParams, _weight, _zeros, _ones,
                          block_mac_count, block_param_count, encoder_stack,
                          init_stack, trunc_normal)

if TYPE_CHECKING:
    from .encoders import ModelConfig


class FusionVariant(enum.Enum):
    VME = "vme"
    IME = "ime"
    CME = "cme"
    CME_SHARED = "cme_shared"

    @classmethod
    def parse(cls, text: str) -> "FusionVariant":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown fusion variant {text!r}; expected one of "
                f"{[v.value for v in cls]}") from None


@dataclass
class FusionParams:
    """Seed embedding, per-modality projectors, and the two sub-encoders."""

    variant: FusionVariant
    seed: Tensor
    ln_v_gain: Tensor
    ln_v_bias: Tensor
    w_v: Tensor
    b_v: Tensor
    ln_l_gain: Tensor
    ln_l_bias: Tensor
    w_l: Tensor
    b_l: Tensor
    stack_a: StackParams  # visual-linguistic sub-encoder (VME: first half)
    stack_b: StackParams  # linguistic-seed sub-encoder (VME: second half)

    def named_parameters(self):
        out = [("seed", self.seed, False),
               ("proj_v.ln.gain", self.ln_v_gain, False),
               ("proj_v.ln.bias", self.ln_v_bias, False),
               ("proj_v.w", self.w_v, True), ("proj_v.b", self.b_v, False),
               ("proj_l.ln.gain", self.ln_l_gain, False),
               ("proj_l.ln.bias", self.ln_l_bias, False),
               ("proj_l.w", self.w_l, True), ("proj_l.b", self.b_l, False)]
        out.extend((f"stack_a.{n}", t, d) for n, t, d in self.stack_a.named_parameters())
        out.extend((f"stack_b.{n}", t, d) for n, t, d in self.stack_b.named_parameters())
        return out


def init_fusion(rng: np.random.Generator, cfg: "ModelConfig") -> FusionParams:
    share = cfg.fusion_variant is FusionVariant.CME_SHARED
    tfm = cfg.fusion_tfm()
    return FusionParams(
        variant=cfg.fusion_variant,
        seed=Tensor(trunc_normal(rng, (1, cfg.dim_fusion)), requires_grad=True),
        ln_v_gain=_ones(cfg.dim_vision), ln_v_bias=_zeros(cfg.dim_vision),
        w_v=_weight(rng, (cfg.dim_vision, cfg.dim_fusion)),
        b_v=_zeros((1, cfg.dim_fusion)),
        ln_l_gain=_ones(cfg.dim_language), ln_l_bias=_zeros(cfg.dim_language),
        w_l=_weight(rng, (cfg.dim_language, cfg.dim_fusion)),
        b_l=_zeros((1, cfg.dim_fusion)),
        stack_a=init_stack(rng, tfm, share_weights=share),
        stack_b=init_stack(rng, tfm, share_weights=share),
    )


def project(z_v: Tensor, z_l: Tensor, params: FusionParams) -> tuple[Tensor, Tensor]:
    """Normalize each modality and project it to the shared fusion width."""
    pv = T.matmul(T.layer_norm(z_v, params.ln_v_gain, params.ln_v_bias), params.w_v) + params.b_v
    pl = T.matmul(T.layer_norm(z_l, params.ln_l_gain, params.ln_l_bias), params.w_l) + params.b_l
    return pv, pl


def _seed_tokens(params: FusionParams, like: Tensor) -> Tensor:
    """The class seed as one token per sample of ``like``: (..., 1, D)."""
    return T.add(Tensor(np.zeros((*like.shape[:-2], 1, like.shape[-1]))), params.seed)


def fuse(z_v: Tensor, z_l: Tensor, params: FusionParams) -> tuple[Tensor, Tensor]:
    """(patch features, adaptive classifier) for every variant.

    ``stack_b`` runs on the tokens the module docstring routes to it; the
    classifier is the seed, which is always ``stack_b``'s last token. Inside
    :func:`restr.tensor.attention_maps`, each block appends its (..., H, n, n)
    attention, ``stack_a``'s blocks first.
    """
    n_v, n_l = z_v.shape[-2], z_l.shape[-2]
    vme = params.variant is FusionVariant.VME
    seed = _seed_tokens(params, z_l)
    joint = encoder_stack(T.concat([z_v, z_l, seed] if vme else [z_v, z_l], axis=-2),
                          params.stack_a)
    if vme:
        seeded = encoder_stack(joint, params.stack_b)
    else:
        words = (z_l if params.variant is FusionVariant.IME
                 else T.slice_axis(joint, -2, n_v, n_v + n_l))
        seeded = encoder_stack(T.concat([words, seed], axis=-2), params.stack_b)
    n_b = seeded.shape[-2]
    return (T.slice_axis(seeded if vme else joint, -2, 0, n_v),
            T.slice_axis(seeded, -2, n_b - 1, n_b))


# ---------------------------------------------------------------------------
# attention probe
# ---------------------------------------------------------------------------

@dataclass
class LayerAttention:
    """Seed-row attention mass per fusion layer, averaged over heads/samples.

    ``a_v`` is None for layers whose sequence carries no visual tokens
    (the linguistic-seed legs of CME and IME).
    """

    layer: int
    a_v: float | None
    a_l: float
    a_self: float


@dataclass
class AttnStats:
    variant: FusionVariant
    layers: list[LayerAttention]

    def csv_rows(self) -> list[str]:
        rows = ["layer,a_v,a_l,a_self"]
        for la in self.layers:
            av = "" if la.a_v is None else f"{la.a_v:.6f}"
            rows.append(f"f{la.layer + 1},{av},{la.a_l:.6f},{la.a_self:.6f}")
        return rows

    def __str__(self) -> str:
        return "\n".join(self.csv_rows())


def _seed_row_shares(attn: np.ndarray, n_v: int, n_l: int) -> np.ndarray:
    """(a_v-or-nan, a_l, a_self) of the seed row of (..., H, N, N) attention,
    averaged over every leading axis (samples and heads)."""
    seed = attn[..., n_v + n_l, :].reshape(-1, attn.shape[-1])
    a_v = seed[:, :n_v].sum(axis=1).mean() if n_v else math.nan
    return np.array([a_v, seed[:, n_v:n_v + n_l].sum(axis=1).mean(),
                     seed[:, n_v + n_l].mean()])


def attention_probe(params, cfg: "ModelConfig",
                    samples: Iterable[tuple]) -> AttnStats:
    """Measure where the class seed attends, per fusion layer.

    ``params`` is the full model parameter bundle; ``samples`` yield
    ``(image, token_ids)`` pairs. Scores are softmax mass from the seed row,
    split into visual / linguistic / self segments, averaged over heads and
    samples. Samples run one at a time, which bounds the memory of the
    attention arrays kept for the probe.
    """
    from .encoders import language_encode, vision_encode  # runtime import: encoders
    # imports FusionVariant from this module, so the top level must stay one-way

    fp: FusionParams = params.fusion
    totals: list[np.ndarray] | None = None
    n_samples = 0
    with T.no_grad():
        for image, ids in samples:
            z_v = vision_encode(np.asarray(image)[None], params.vision, cfg)
            z_l = language_encode([ids], params.language, cfg)
            pv, pl = project(z_v, z_l, fp)
            with T.attention_maps() as maps:
                fuse(pv, pl, fp)
            n_v, n_l = pv.shape[-2], pl.shape[-2]
            if fp.variant is FusionVariant.VME:
                shares = [_seed_row_shares(a, n_v, n_l) for a in maps]
            else:  # stack_b's blocks, the second half of the maps
                shares = [_seed_row_shares(a, 0, n_l) for a in maps[len(maps) // 2:]]
            totals = shares if totals is None else [t + s for t, s in zip(totals, shares)]
            n_samples += 1
    if totals is None:
        raise ValueError("attention_probe needs at least one sample")
    layers = []
    for i, acc in enumerate(totals):
        a_v, a_l, a_self = acc / n_samples
        layers.append(LayerAttention(layer=i, a_v=None if np.isnan(a_v) else float(a_v),
                                     a_l=float(a_l), a_self=float(a_self)))
    return AttnStats(variant=fp.variant, layers=layers)


# ---------------------------------------------------------------------------
# profiler
# ---------------------------------------------------------------------------

@dataclass
class ProfileResult:
    variant: FusionVariant
    param_count: int
    mac_count: int

    def csv_row(self) -> str:
        return f"{self.variant.value},{self.param_count},{self.mac_count}"


def profile(variant: FusionVariant, cfg: "ModelConfig") -> ProfileResult:
    """Closed-form parameters and forward MACs of the fusion transformer blocks.

    Counts cover the two sub-encoders' blocks only: the modality projectors,
    seed, and terminal norms are identical across variants and excluded, which
    is what makes the variant totals directly comparable. MACs count every
    matrix product, attention scores and value aggregation included.
    """
    tfm = cfg.fusion_tfm()
    half = cfg.fusion_layers // 2
    unique_blocks = 2 if variant is FusionVariant.CME_SHARED else cfg.fusion_layers
    params = unique_blocks * block_param_count(tfm)

    n_v, n_l = cfg.n_patches, cfg.max_tokens
    if variant is FusionVariant.VME:
        macs = cfg.fusion_layers * block_mac_count(n_v + n_l + 1, tfm)
    else:
        macs = (half * block_mac_count(n_v + n_l, tfm)
                + half * block_mac_count(n_l + 1, tfm))
    return ProfileResult(variant=variant, param_count=params, mac_count=macs)


def profile_all(cfg: "ModelConfig") -> list[ProfileResult]:
    return [profile(v, cfg) for v in FusionVariant]
