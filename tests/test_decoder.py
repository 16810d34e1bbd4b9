"""Segmentation decoder: patch classifier, feature gating, pixel decoding."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

import restr.tensor as T
from restr.decoder import (decode_pixels, decoder_channel_chain, encode, forward,
                           init_decoder, init_model, mask_features,
                           patch_predict)
from restr.encoders import ModelConfig
from restr.tensor import Tensor
from restr.transformer import ConfigError


def tiny_cfg(**kw):
    base = dict(image_h=16, image_w=16, patch_size=4,
                dim_vision=16, vision_layers=1,
                dim_language=16, language_layers=1,
                max_tokens=6, vocab_size=15,
                dim_fusion=16, fusion_layers=2, heads=2)
    base.update(kw)
    return ModelConfig(**base)


class TestPatchPredict:
    def test_zero_features_give_half(self):
        z = Tensor(np.zeros((7, 16)))
        e = Tensor(np.random.default_rng(0).standard_normal((1, 16)))
        npt.assert_array_equal(patch_predict(z, e).data, np.zeros((7, 1)))
        npt.assert_array_equal(T.sigmoid(patch_predict(z, e)).data, np.full((7, 1), 0.5))

    def test_aligned_row_analytic(self):
        d, s = 16, 1.3
        e = np.full((1, d), math.sqrt(s * math.sqrt(d) / d))  # |e|^2 = sqrt(d)*s
        z = np.zeros((3, d))
        z[1] = e[0]
        out = patch_predict(Tensor(z), Tensor(e)).data
        npt.assert_allclose(out[1, 0], s, rtol=1e-12)
        assert out[0, 0] == 0.0

    def test_scaling_classifier_moves_away_from_half(self):
        rng = np.random.default_rng(1)
        z = Tensor(rng.standard_normal((10, 16)))
        e = Tensor(rng.standard_normal((1, 16)))
        base = T.sigmoid(patch_predict(z, e)).data
        scaled = T.sigmoid(patch_predict(z, Tensor(e.data * 3.0))).data
        assert (np.abs(scaled - 0.5) >= np.abs(base - 0.5) - 1e-12).all()
        npt.assert_array_equal(np.sign(scaled - 0.5), np.sign(base - 0.5))

    def test_strictly_inside_unit_interval_and_logit_recovery(self):
        rng = np.random.default_rng(2)
        z = Tensor(rng.standard_normal((9, 16)) * 4)
        e = Tensor(rng.standard_normal((1, 16)) * 4)
        logits = patch_predict(z, e)
        probs = T.sigmoid(logits).data
        assert ((probs > 0) & (probs < 1)).all()
        npt.assert_allclose(logits.data, (z.data @ e.data.T) / math.sqrt(16), rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            patch_predict(Tensor(np.zeros((3, 8))), Tensor(np.zeros((1, 16))))


class TestMaskFeatures:
    def test_identity_mask(self):
        rng = np.random.default_rng(3)
        z = Tensor(rng.standard_normal((5, 8)))
        npt.assert_array_equal(mask_features(z, Tensor(np.ones((5, 1)))).data, z.data)

    def test_zero_mask_annihilates(self):
        z = Tensor(np.random.default_rng(4).standard_normal((5, 8)))
        npt.assert_array_equal(mask_features(z, Tensor(np.zeros((5, 1)))).data,
                               np.zeros((5, 8)))

    def test_row_scaling_elementwise(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((6, 4))
        p = rng.uniform(size=(6, 1))
        out = mask_features(Tensor(z), Tensor(p)).data
        for i in range(6):
            for j in range(4):
                assert out[i, j] == z[i, j] * p[i, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            mask_features(Tensor(np.zeros((5, 8))), Tensor(np.zeros((4, 1))))


class TestDecodePixels:
    def test_channel_chain_p16(self):
        cfg = ModelConfig(image_h=32, image_w=32, patch_size=16,
                          dim_vision=16, dim_language=16, dim_fusion=16,
                          vision_layers=1, language_layers=1,
                          max_tokens=5, fusion_layers=2, heads=2)
        assert cfg.decoder_blocks == 4
        assert decoder_channel_chain(cfg) == [32, 16, 8, 4, 2]
        params = init_decoder(np.random.default_rng(6), cfg)
        assert [blk.w.shape for blk in params.blocks] == [(32, 16), (16, 8), (8, 4), (4, 2)]
        assert params.final.w.shape == (2, 1)

    def test_three_blocks_p8(self):
        cfg = ModelConfig(image_h=64, image_w=64, patch_size=8, dim_fusion=64)
        assert cfg.decoder_blocks == 3
        assert decoder_channel_chain(cfg) == [128, 64, 32, 16]

    def test_end_to_end_shape(self):
        cfg = ModelConfig(image_h=64, image_w=64, patch_size=8,
                          dim_vision=32, dim_language=32, dim_fusion=32,
                          vision_layers=1, language_layers=1,
                          max_tokens=5, fusion_layers=2, heads=2)
        rng = np.random.default_rng(7)
        params = init_decoder(rng, cfg)
        z_v = Tensor(rng.standard_normal((cfg.n_patches, 32)))
        z_m = Tensor(rng.standard_normal((cfg.n_patches, 32)))
        assert decode_pixels(z_v, z_m, params, cfg).shape == (64, 64, 1)

    def test_block_count_validated(self):
        cfg = tiny_cfg()
        other = tiny_cfg(patch_size=8, image_h=32, image_w=32)
        params = init_decoder(np.random.default_rng(8), other)
        z = Tensor(np.zeros((cfg.n_patches, 16)))
        with pytest.raises(ConfigError):
            decode_pixels(z, z, params, cfg)

    def test_corner_patch_maps_to_corner_pixels(self):
        # Mark exactly one corner patch; its activation must land in the
        # matching corner of the pixel grid (grid reshape inverts patchify).
        cfg = tiny_cfg()
        rng = np.random.default_rng(9)
        params = init_decoder(rng, cfg)
        base = np.zeros((cfg.n_patches, 16))
        corners = {0: (0, 0), 3: (0, 12), 12: (12, 0), 15: (12, 12)}
        for patch_idx, (r, c) in corners.items():
            marked = base.copy()
            marked[patch_idx] = 10.0
            out_base = decode_pixels(Tensor(base), Tensor(base), params, cfg).data
            out = decode_pixels(Tensor(marked), Tensor(marked), params, cfg).data
            diff = np.abs(out - out_base)[:, :, 0]
            hot = np.unravel_index(np.argmax(diff), diff.shape)
            assert r <= hot[0] < r + 4 and c <= hot[1] < c + 4


def paper_order_decode(z_v, z_masked, params, cfg):
    """The paper's block order, upsample before the channel-halving linear."""
    gh, gw = cfg.patch_grid
    x = T.concat([z_v, z_masked], axis=-1)
    grid = T.reshape(x, (*z_v.shape[:-2], gh, gw, 2 * cfg.dim_fusion))
    for blk in params.blocks:
        grid = T.gelu(T.matmul(T.upsample2x_bilinear(grid), blk.w) + blk.b)
    return T.matmul(grid, params.final.w) + params.final.b


def max_rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestDecoderOrder:
    def test_bilinear_rows_sum_to_one(self):
        # Why the bias may move before the upsample.
        for n in range(1, 34):
            npt.assert_allclose(T._bilinear_matrix(n).sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("patch,size,blocks", [(4, 16, 2), (16, 32, 4)])
    def test_matches_paper_order(self, patch, size, blocks):
        cfg = tiny_cfg(patch_size=patch, image_h=size, image_w=size)
        assert cfg.decoder_blocks == blocks
        rng = np.random.default_rng(20 + patch)
        params = init_decoder(rng, cfg)
        for _, b in params.named_parameters():
            b.data = rng.standard_normal(b.shape)  # nonzero biases, too
        z_v = Tensor(rng.standard_normal((2, cfg.n_patches, 16)), requires_grad=True)
        z_m = Tensor(rng.standard_normal((2, cfg.n_patches, 16)), requires_grad=True)
        weights = Tensor(rng.standard_normal((2, size, size, 1)))
        leaves = [z_v, z_m] + [t for _, t in params.named_parameters()]
        results = []
        for decode in (decode_pixels, paper_order_decode):
            for t in leaves:
                t.grad = None
            out = decode(z_v, z_m, params, cfg)
            T.backward(T.sum_all(T.hadamard(out, weights)))
            results.append((out.data, [t.grad for t in leaves]))
        (out, grads), (ref, ref_grads) = results
        assert max_rel_err(out, ref) <= 1e-12
        for g, r in zip(grads, ref_grads):
            assert max_rel_err(g, r) <= 1e-12


class TestForward:
    def test_deterministic(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(10)
        params = init_model(rng, cfg)
        img = rng.uniform(size=(16, 16, 3))
        a = forward(img[None], [[2, 3, 4]], params, cfg)
        b = forward(img[None], [[2, 3, 4]], params, cfg)
        npt.assert_array_equal(a.patch_logits.data, b.patch_logits.data)
        npt.assert_array_equal(a.pixel_logits.data, b.pixel_logits.data)

    def test_shapes(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(11)
        params = init_model(rng, cfg)
        pred = forward(rng.uniform(size=(2, 16, 16, 3)), [[2], [3, 4]], params, cfg)
        assert pred.patch_logits.shape == (2, cfg.n_patches, 1)
        assert pred.pixel_logits.shape == (2, 16, 16, 1)

    def test_without_pixels(self):
        # the token stages alone give forward's patch logits
        cfg = tiny_cfg()
        rng = np.random.default_rng(12)
        params = init_model(rng, cfg)
        image = rng.uniform(size=(1, 16, 16, 3))
        pv, masked, logits = encode(image, [[2]], params, cfg)
        assert pv.shape == masked.shape == (1, cfg.n_patches, cfg.dim_fusion)
        assert logits.shape == (1, cfg.n_patches, 1)
        npt.assert_array_equal(logits.data, forward(image, [[2]], params, cfg).patch_logits.data)

    def test_variant_agnostic(self):
        rng = np.random.default_rng(13)
        img = rng.uniform(size=(16, 16, 3))
        for variant in ("vme", "ime", "cme", "cme_shared"):
            cfg = tiny_cfg(fusion_variant=variant)
            params = init_model(np.random.default_rng(14), cfg)
            pred = forward(img[None], [[2, 3]], params, cfg)
            assert pred.pixel_logits.shape == (1, 16, 16, 1)

    def test_parameters_do_not_fix_max_tokens(self):
        # A model built at 20 tokens runs at 30 and matches one built at 30.
        cfg20, cfg30 = tiny_cfg(max_tokens=20), tiny_cfg(max_tokens=30)
        params20 = init_model(np.random.default_rng(15), cfg20)
        params30 = init_model(np.random.default_rng(15), cfg30)
        for (name, a), (_, b) in zip(params20.named_parameters(),
                                     params30.named_parameters()):
            npt.assert_array_equal(a.data, b.data, err_msg=name)
        img = np.random.default_rng(16).uniform(size=(2, 16, 16, 3))
        ids = [[2, 3, 4], [5]]
        got = forward(img, ids, params20, dataclasses.replace(cfg20, max_tokens=30))
        want = forward(img, ids, params30, cfg30)
        assert np.array_equal(got.patch_logits.data, want.patch_logits.data)
        assert np.array_equal(got.pixel_logits.data, want.pixel_logits.data)
