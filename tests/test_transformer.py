"""Transformer core: attention semantics, block residual structure, stacks."""

import numpy as np
import numpy.testing as npt
import pytest

import restr.tensor as T
from restr.gradcheck import grad_check, scalarized
from restr.tensor import Tensor
from restr.transformer import (ConfigError, TransformerConfig,
                               block_param_count, encoder_stack, init_block,
                               init_stack, msa, self_attention, transformer_block)


@pytest.fixture
def cfg():
    return TransformerConfig(layers=2, dim=8, heads=2)


def rand_tokens(rng, n, d):
    return Tensor(rng.standard_normal((n, d)))


def param_count(stack):
    return sum(t.size for _, t, _ in stack.named_parameters())


class TestConfig:
    def test_head_dim(self, cfg):
        assert cfg.head_dim == 4
        assert cfg.mlp_hidden == 32

    def test_dim_not_divisible(self):
        with pytest.raises(ConfigError):
            TransformerConfig(layers=1, dim=10, heads=3)

    def test_layers_positive(self):
        with pytest.raises(ConfigError):
            TransformerConfig(layers=0, dim=8, heads=2)


class TestSelfAttention:
    def test_single_token_attention_is_one(self, cfg):
        rng = np.random.default_rng(0)
        block = init_block(rng, cfg)
        with T.attention_maps() as maps:
            out = self_attention(rand_tokens(rng, 1, 8), block)
        npt.assert_allclose(maps[0], np.ones((2, 1, 1)))  # (heads, n, n)
        assert out.shape == (1, 8)

    def test_identical_tokens_uniform_attention(self, cfg):
        rng = np.random.default_rng(1)
        block = init_block(rng, cfg)
        z = Tensor(np.tile(rng.standard_normal(8), (5, 1)))
        with T.attention_maps() as maps:
            self_attention(z, block)
        npt.assert_allclose(maps[0], np.full((2, 5, 5), 0.2), atol=1e-12)

    def test_rows_sum_to_one(self):
        cfg = TransformerConfig(layers=1, dim=8, heads=2)
        rng = np.random.default_rng(2)
        block = init_block(rng, cfg)
        with T.attention_maps() as maps:
            self_attention(rand_tokens(rng, 5, 8), block)
        npt.assert_allclose(maps[0].sum(axis=-1), np.ones((2, 5)), atol=1e-9)

    def test_three_tape_nodes(self, cfg):
        rng = np.random.default_rng(20)
        block = init_block(rng, cfg)
        T.reset_graph()
        out = self_attention(Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True), block)
        assert out.shape == (2, 5, 8)
        assert [node.tag for node in T._state.tape] == ["matmul", "add", "attention"]
        T.reset_graph()

    def test_shape_mismatch(self, cfg):
        rng = np.random.default_rng(3)
        block = init_block(rng, cfg)
        with pytest.raises(Exception):
            self_attention(rand_tokens(rng, 4, 6), block)


class TestMsa:
    def test_single_head_identity_projection(self):
        cfg = TransformerConfig(layers=1, dim=4, heads=1)
        rng = np.random.default_rng(4)
        block = init_block(rng, cfg)
        block.w_out.data = np.eye(4)
        z = rand_tokens(rng, 3, 4)
        npt.assert_allclose(msa(z, block).data,
                            self_attention(z, block).data)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_output_shape(self, heads):
        cfg = TransformerConfig(layers=1, dim=8, heads=heads)
        rng = np.random.default_rng(5)
        block = init_block(rng, cfg)
        assert msa(rand_tokens(rng, 6, 8), block).shape == (6, 8)

    def test_end_to_end_gradient(self):
        cfg = TransformerConfig(layers=1, dim=8, heads=2)
        rng = np.random.default_rng(6)
        block = init_block(rng, cfg)
        rep = grad_check(scalarized(lambda z: msa(z, block), 7),
                         [Tensor(rng.standard_normal((3, 8)))], tol=1e-4)
        assert rep.passed, rep


class TestBlock:
    def test_zeroed_projections_make_identity(self, cfg):
        rng = np.random.default_rng(8)
        block = init_block(rng, cfg)
        block.w_out.data[:] = 0.0
        block.w_mlp2.data[:] = 0.0
        z = rand_tokens(rng, 5, 8)
        npt.assert_array_equal(transformer_block(z, block).data, z.data)

    def test_shape_preserved(self, cfg):
        rng = np.random.default_rng(9)
        block = init_block(rng, cfg)
        assert transformer_block(rand_tokens(rng, 4, 8), block).shape == (4, 8)

    def test_gradient(self):
        cfg = TransformerConfig(layers=1, dim=8, heads=2)
        rng = np.random.default_rng(10)
        block = init_block(rng, cfg)
        rep = grad_check(scalarized(lambda z: transformer_block(z, block), 11),
                         [Tensor(rng.standard_normal((4, 8)))], tol=1e-4)
        assert rep.passed, rep


class TestStack:
    def test_single_layer_equals_block_plus_ln(self):
        cfg = TransformerConfig(layers=1, dim=8, heads=2)
        rng = np.random.default_rng(12)
        stack = init_stack(rng, cfg)
        z = rand_tokens(rng, 4, 8)
        manual = T.layer_norm(transformer_block(z, stack.blocks[0]),
                              stack.ln_f_gain, stack.ln_f_bias)
        npt.assert_array_equal(encoder_stack(z, stack).data, manual.data)

    def test_two_layers_equal_manual_composition(self, cfg):
        rng = np.random.default_rng(13)
        stack = init_stack(rng, cfg)
        z = rand_tokens(rng, 4, 8)
        h = transformer_block(z, stack.blocks[0])
        h = transformer_block(h, stack.blocks[1])
        manual = T.layer_norm(h, stack.ln_f_gain, stack.ln_f_bias)
        npt.assert_array_equal(encoder_stack(z, stack).data, manual.data)

    def test_param_count_matches_enumeration(self):
        cfg = TransformerConfig(layers=1, dim=8, heads=2)
        stack = init_stack(np.random.default_rng(14), cfg)
        # hand count at D=8, k=2, M=1, mlp=32:
        # qkv 2*3*(8*4+4)=216, out 8*8=64, norms 4*8=32,
        # mlp 8*32+32+32*8+8=552, terminal ln 16 -> 880
        assert param_count(stack) == block_param_count(cfg) + 16 == 880

    def test_shared_stack_params_halve(self):
        cfg = TransformerConfig(layers=2, dim=8, heads=2)
        shared = init_stack(np.random.default_rng(15), cfg, share_weights=True)
        assert shared.blocks[0] is shared.blocks[1]
        assert param_count(shared) == block_param_count(cfg) + 16

    def test_permutation_equivariance(self, cfg):
        rng = np.random.default_rng(16)
        stack = init_stack(rng, cfg)
        z = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        out = encoder_stack(Tensor(z), stack).data
        out_perm = encoder_stack(Tensor(z[perm]), stack).data
        assert np.abs(out[perm] - out_perm).max() <= 1e-9

    def test_attention_rows_sum_to_one_every_layer_and_head(self, cfg):
        rng = np.random.default_rng(17)
        stack = init_stack(rng, cfg)
        with T.attention_maps() as maps:
            encoder_stack(rand_tokens(rng, 5, 8), stack)
        assert len(maps) == 2 and all(len(heads) == 2 for heads in maps)
        for heads in maps:
            for attn in heads:
                npt.assert_allclose(attn.sum(axis=-1), np.ones(5), atol=1e-9)

    def test_zeroed_projections_make_stack_pure_ln(self, cfg):
        rng = np.random.default_rng(18)
        stack = init_stack(rng, cfg)
        for block in stack.blocks:
            block.w_out.data[:] = 0.0
            block.w_mlp2.data[:] = 0.0
        z = rand_tokens(rng, 5, 8)
        expected = T.layer_norm(z, stack.ln_f_gain, stack.ln_f_bias)
        npt.assert_array_equal(encoder_stack(z, stack).data, expected.data)

    def test_shared_stack_gradient_accumulates_on_shared_weights(self):
        cfg = TransformerConfig(layers=2, dim=4, heads=1)
        rng = np.random.default_rng(19)
        stack = init_stack(rng, cfg, share_weights=True)
        z = Tensor(rng.standard_normal((3, 4)))
        T.backward(T.sum_all(encoder_stack(z, stack)))
        assert stack.blocks[0].w_out.grad is not None
