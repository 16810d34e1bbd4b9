"""Modality encoders: patchify, positional tables, vision/language encoding."""

import numpy as np
import numpy.testing as npt
import pytest

from restr.encoders import (ModelConfig, load_vocab, language_encode, pad_token_ids,
                            patchify, save_vocab, sinusoidal_table, tokenize,
                            unpatchify, vision_encode, vision_param_count,
                            init_language, init_vision, PAD_ID, UNK_ID)
from restr.transformer import ConfigError, count_parameters


@pytest.fixture
def cfg():
    return ModelConfig(image_h=16, image_w=16, patch_size=4,
                       dim_vision=16, vision_layers=1,
                       dim_language=16, language_layers=1,
                       max_tokens=6, vocab_size=15,
                       dim_fusion=16, fusion_layers=2, heads=2)


class TestModelConfig:
    def test_derived_quantities(self, cfg):
        assert cfg.n_patches == 16
        assert cfg.patch_grid == (4, 4)
        assert cfg.decoder_blocks == 2
        assert cfg.fused_len == 16 + 6 + 1

    def test_reference_geometry(self):
        cfg = ModelConfig(image_h=480, image_w=480, patch_size=16,
                          dim_vision=16, dim_language=16, dim_fusion=64,
                          vision_layers=1, language_layers=1,
                          fusion_layers=2, heads=2, max_tokens=20)
        assert cfg.n_patches == 900
        assert cfg.decoder_blocks == 4

    def test_patch_size_must_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_h=50, image_w=64, patch_size=8)

    def test_patch_size_power_of_two(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_h=60, image_w=60, patch_size=6)

    def test_fusion_layers_even(self):
        with pytest.raises(ConfigError):
            ModelConfig(fusion_layers=3)

    def test_heads_divide_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim_vision=30, heads=4)

    def test_decoder_channel_chain_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_h=64, image_w=64, patch_size=16, dim_fusion=4, heads=2,
                        dim_vision=16, dim_language=16)

    def test_variant_parsed_from_string(self):
        from restr.fusion import FusionVariant
        cfg = ModelConfig(fusion_variant="ime")
        assert cfg.fusion_variant is FusionVariant.IME


class TestPatchify:
    def test_single_patch_is_flattened_image(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(4, 4, 3))
        out = patchify(img, 4)
        npt.assert_array_equal(out, img.reshape(1, 48))

    def test_reference_patch_count(self):
        img = np.zeros((480, 480, 3))
        assert patchify(img, 16).shape == (900, 16 * 16 * 3)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(24, 16, 3))
        npt.assert_array_equal(unpatchify(patchify(img, 8), 24, 16, 3), img)

    def test_row_major_patch_order(self):
        img = np.arange(16, dtype=float).reshape(4, 4, 1)
        out = patchify(img, 2)
        npt.assert_array_equal(out[0], [0, 1, 4, 5])   # top-left patch
        npt.assert_array_equal(out[1], [2, 3, 6, 7])   # top-right patch
        npt.assert_array_equal(out[2], [8, 9, 12, 13])  # bottom-left patch

    def test_divisibility_error(self):
        with pytest.raises(ConfigError):
            patchify(np.zeros((10, 10, 3)), 4)


class TestSinusoidalTable:
    def test_position_zero(self):
        table = sinusoidal_table(5, 8)
        npt.assert_array_equal(table[0, 0::2], np.zeros(4))
        npt.assert_array_equal(table[0, 1::2], np.ones(4))

    def test_range(self):
        table = sinusoidal_table(30, 16)
        assert table.min() >= -1.0 and table.max() <= 1.0

    def test_rows_pairwise_distinct(self):
        table = sinusoidal_table(20, 32)
        for i in range(20):
            for j in range(i + 1, 20):
                assert np.abs(table[i] - table[j]).max() > 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            sinusoidal_table(4, 7)


class TestVisionEncode:
    def test_output_shape(self, cfg):
        rng = np.random.default_rng(2)
        params = init_vision(rng, cfg)
        out = vision_encode(rng.uniform(size=(3, 16, 16, 3)), params, cfg)
        assert out.shape == (3, 16, 16)

    def test_zeroed_positions_swap_equivariance(self, cfg):
        rng = np.random.default_rng(3)
        params = init_vision(rng, cfg)
        params.pos.data[:] = 0.0
        img = rng.uniform(size=(16, 16, 3))
        # swap the first two patches of the top row
        swapped = img.copy()
        swapped[0:4, 0:4], swapped[0:4, 4:8] = (img[0:4, 4:8].copy(),
                                                img[0:4, 0:4].copy())
        out = vision_encode(img[None], params, cfg).data[0]
        out_swapped = vision_encode(swapped[None], params, cfg).data[0]
        reordered = out.copy()
        reordered[[0, 1]] = out[[1, 0]]
        npt.assert_allclose(out_swapped, reordered, atol=1e-9)

    def test_trained_positions_break_equivariance(self, cfg):
        rng = np.random.default_rng(4)
        params = init_vision(rng, cfg)
        img = rng.uniform(size=(16, 16, 3))
        swapped = img.copy()
        swapped[0:4, 0:4], swapped[0:4, 4:8] = (img[0:4, 4:8].copy(),
                                                img[0:4, 0:4].copy())
        out = vision_encode(img[None], params, cfg).data[0]
        out_swapped = vision_encode(swapped[None], params, cfg).data[0]
        reordered = out.copy()
        reordered[[0, 1]] = out[[1, 0]]
        assert np.abs(out_swapped - reordered).max() > 1e-6

    def test_range_check(self, cfg):
        params = init_vision(np.random.default_rng(5), cfg)
        with pytest.raises(ValueError):
            vision_encode(np.full((1, 16, 16, 3), 2.0), params, cfg)

    def test_nan_pixel_rejected(self, cfg):
        params = init_vision(np.random.default_rng(5), cfg)
        img = np.random.default_rng(6).uniform(size=(2, 16, 16, 3))
        img[1, 3, 5, 0] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            vision_encode(img, params, cfg)

    def test_param_count_closed_form(self, cfg):
        params = init_vision(np.random.default_rng(6), cfg)
        assert count_parameters(params.named_parameters()) == vision_param_count(cfg)


class TestLanguageEncode:
    def test_fixed_length_output(self, cfg):
        rng = np.random.default_rng(7)
        params = init_language(rng, cfg)
        for ids in ([2], [2, 3, 4], [2, 3, 4, 5, 6, 7]):
            assert language_encode([ids], params, cfg).shape == (1, 6, 16)

    def test_determinism(self, cfg):
        params = init_language(np.random.default_rng(8), cfg)
        a = language_encode([[3, 4, 5]], params, cfg).data
        b = language_encode([[3, 4, 5]], params, cfg).data
        npt.assert_array_equal(a, b)

    def test_single_token_change_changes_output(self, cfg):
        params = init_language(np.random.default_rng(9), cfg)
        a = language_encode([[3, 4, 5]], params, cfg).data
        b = language_encode([[3, 4, 6]], params, cfg).data
        assert np.abs(a - b).max() > 1e-8

    def test_out_of_range_id(self, cfg):
        params = init_language(np.random.default_rng(10), cfg)
        with pytest.raises(ValueError):
            language_encode([[99]], params, cfg)

    def test_truncation_warns(self, cfg):
        with pytest.warns(UserWarning, match="truncated"):
            ids = pad_token_ids([2] * 9, cfg)
        assert len(ids) == 6

    def test_padding_uses_pad_id(self, cfg):
        assert pad_token_ids([2, 3], cfg) == [2, 3, PAD_ID, PAD_ID, PAD_ID, PAD_ID]


class TestVocab:
    def test_round_trip(self, tmp_path):
        tokens = ["<pad>", "<unk>", "red", "square"]
        save_vocab(tokens, tmp_path / "vocab.txt")
        assert load_vocab(tmp_path / "vocab.txt") == tokens

    def test_tokenize_unknown_words(self):
        vocab = ["<pad>", "<unk>", "red", "square"]
        assert tokenize("red banana square", vocab) == [2, UNK_ID, 3]
