"""Fusion encoder: projection, variant topologies, attention probe, profiler."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import restr.tensor as T
from restr.decoder import attention_probe, init_model
from restr.encoders import ModelConfig, language_encode, vision_encode
from restr.fusion import (AttnStats, FusionVariant, LayerAttention, fuse, init_fusion,
                          profile, profile_all, project)
from restr.gradcheck import grad_check
from restr.tensor import Tensor
from restr.transformer import encoder_stack


def make_cfg(variant="cme", n_v_side=4, n_l=5, d=16, fusion_layers=2):
    return ModelConfig(image_h=4 * n_v_side, image_w=4 * n_v_side, patch_size=4,
                       dim_vision=d, vision_layers=1,
                       dim_language=d, language_layers=1,
                       max_tokens=n_l, vocab_size=15,
                       dim_fusion=d, fusion_layers=fusion_layers, heads=2,
                       fusion_variant=variant)


def projected_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    z_v = Tensor(rng.standard_normal((cfg.n_patches, cfg.dim_fusion)))
    z_l = Tensor(rng.standard_normal((cfg.max_tokens, cfg.dim_fusion)))
    return z_v, z_l


class TestProject:
    def test_identity_projection_reduces_to_layer_norm(self):
        cfg = make_cfg()
        rng = np.random.default_rng(1)
        params = init_fusion(rng, cfg)
        params.proj_v.w.data = np.eye(16)
        params.proj_l.w.data = np.eye(16)
        params.proj_v.b.data[:] = 0.0
        params.proj_l.b.data[:] = 0.0
        z_v = Tensor(rng.standard_normal((4, 16)))
        z_l = Tensor(rng.standard_normal((3, 16)))
        pv, pl = project(z_v, z_l, params)
        npt.assert_array_equal(
            pv.data, T.layer_norm(z_v, params.proj_v.ln.gain, params.proj_v.ln.bias).data)
        npt.assert_array_equal(
            pl.data, T.layer_norm(z_l, params.proj_l.ln.gain, params.proj_l.ln.bias).data)

    def test_output_shapes(self):
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4,
                          dim_vision=8, dim_language=12, dim_fusion=16,
                          vision_layers=1, language_layers=1,
                          max_tokens=5, fusion_layers=2, heads=2)
        rng = np.random.default_rng(2)
        params = init_fusion(rng, cfg)
        pv, pl = project(Tensor(rng.standard_normal((16, 8))),
                         Tensor(rng.standard_normal((5, 12))), params)
        assert pv.shape == (16, 16) and pl.shape == (5, 16)

    def test_gradient(self):
        cfg = make_cfg(d=8)
        rng = np.random.default_rng(3)
        params = init_fusion(rng, cfg)
        err = grad_check(
            lambda a, b: T.concat(list(project(a, b, params)), axis=0),
            [Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal((2, 8)))], 4)
        assert err <= 1e-4, err


class TestCme:
    def test_shapes(self):
        cfg = make_cfg()
        params = init_fusion(np.random.default_rng(5), cfg)
        z_v, z_l = projected_inputs(cfg)
        z_v_out, e_s = fuse(z_v, z_l, params)
        assert z_v_out.shape == (16, 16)
        assert e_s.shape == (1, 16)

    def test_visual_features_depend_on_language(self):
        cfg = make_cfg()
        params = init_fusion(np.random.default_rng(6), cfg)
        z_v, z_l = projected_inputs(cfg)
        base = fuse(z_v, z_l, params)[0].data
        bumped = Tensor(z_l.data.copy())
        bumped.data[2, 0] += 1.0  # single component: survives the block's LN
        changed = fuse(z_v, bumped, params)[0].data
        assert np.abs(base - changed).max() > 1e-8

    def test_zeroed_seed_stack_gives_ln_of_seed(self):
        cfg = make_cfg()
        params = init_fusion(np.random.default_rng(7), cfg)
        for block in params.stack_b.blocks:
            block.w_out.data[:] = 0.0
            block.mlp.w2.data[:] = 0.0
        z_v, z_l = projected_inputs(cfg)
        _, e_s = fuse(z_v, z_l, params)
        expected = T.layer_norm(params.seed, params.stack_b.ln_f.gain,
                                params.stack_b.ln_f.bias)
        npt.assert_array_equal(e_s.data, expected.data)

    def test_seed_depends_on_vision_only_through_attended_language(self):
        cfg = make_cfg()
        params = init_fusion(np.random.default_rng(8), cfg)
        for block in params.stack_a.blocks:
            block.w_out.data[:] = 0.0  # kill cross-modal mixing in the vl stack
        z_v, z_l = projected_inputs(cfg)
        other_v = Tensor(np.random.default_rng(9).standard_normal(z_v.shape))
        e1 = fuse(z_v, z_l, params)[1].data
        e2 = fuse(other_v, z_l, params)[1].data
        npt.assert_array_equal(e1, e2)


class TestVme:
    def test_sequence_length_and_shapes(self):
        cfg = make_cfg("vme")
        params = init_fusion(np.random.default_rng(10), cfg)
        z_v, z_l = projected_inputs(cfg)
        with T.attention_maps() as maps:
            z_v_out, e_s = fuse(z_v, z_l, params)
        assert z_v_out.shape == (16, 16) and e_s.shape == (1, 16)
        n = cfg.n_patches + cfg.max_tokens + 1
        for heads in maps:
            for attn in heads:
                assert attn.shape == (n, n)

    def test_reference_sequence_length(self):
        cfg = ModelConfig(image_h=480, image_w=480, patch_size=16,
                          dim_vision=16, dim_language=16, dim_fusion=16,
                          vision_layers=1, language_layers=1, max_tokens=20,
                          fusion_layers=2, heads=2, fusion_variant="vme")
        assert cfg.fused_len == 921


class TestIme:
    def test_seed_invariant_to_visual_perturbation(self):
        cfg = make_cfg("ime")
        params = init_fusion(np.random.default_rng(11), cfg)
        z_v, z_l = projected_inputs(cfg)
        rng = np.random.default_rng(12)
        e_ref = fuse(z_v, z_l, params)[1].data
        for _ in range(3):
            other = Tensor(rng.standard_normal(z_v.shape))
            e_other = fuse(other, z_l, params)[1].data
            npt.assert_array_equal(e_ref, e_other)  # exact, by topology

    def test_visual_branch_matches_cme(self):
        cfg = make_cfg("ime")
        params = init_fusion(np.random.default_rng(13), cfg)
        z_v, z_l = projected_inputs(cfg)
        as_cme = dataclasses.replace(params, variant=FusionVariant.CME)
        npt.assert_array_equal(fuse(z_v, z_l, params)[0].data,
                               fuse(z_v, z_l, as_cme)[0].data)

    def test_shapes(self):
        cfg = make_cfg("ime")
        params = init_fusion(np.random.default_rng(14), cfg)
        z_v, z_l = projected_inputs(cfg)
        z_v_out, e_s = fuse(z_v, z_l, params)
        assert z_v_out.shape == (16, 16) and e_s.shape == (1, 16)


def written_out_routing(z_v, z_l, params):
    """Each topology spelled out from the module docstring, op by op."""
    n_v, n_l = z_v.shape[-2], z_l.shape[-2]
    seed = T.add(Tensor(np.zeros((*z_l.shape[:-2], 1, z_l.shape[-1]))), params.seed)
    if params.variant is FusionVariant.VME:
        h = encoder_stack(T.concat([z_v, z_l, seed], axis=-2), params.stack_a)
        h = encoder_stack(h, params.stack_b)
        return T.slice_axis(h, -2, 0, n_v), T.slice_axis(h, -2, n_v + n_l, n_v + n_l + 1)
    joint = encoder_stack(T.concat([z_v, z_l], axis=-2), params.stack_a)
    z_v_out = T.slice_axis(joint, -2, 0, n_v)
    if params.variant is FusionVariant.IME:
        words = z_l
    else:
        words = T.slice_axis(joint, -2, n_v, n_v + n_l)
    seeded = encoder_stack(T.concat([words, seed], axis=-2), params.stack_b)
    return z_v_out, T.slice_axis(seeded, -2, n_l, n_l + 1)


class TestTopologyKept:
    @pytest.mark.parametrize("variant", list(FusionVariant))
    def test_fuse_equals_written_out_routing(self, variant):
        cfg = make_cfg(variant.value, fusion_layers=4)
        params = init_fusion(np.random.default_rng(28), cfg)
        rng = np.random.default_rng(29)
        z_v = rng.standard_normal((2, cfg.n_patches, cfg.dim_fusion))
        z_l = rng.standard_normal((2, cfg.max_tokens, cfg.dim_fusion))
        w_v = Tensor(rng.standard_normal((2, cfg.n_patches, cfg.dim_fusion)))
        w_e = Tensor(rng.standard_normal((2, 1, cfg.dim_fusion)))
        leaves = [t for _, t in params.named_parameters()]
        runs = []
        for route in (fuse, written_out_routing):
            inputs = [Tensor(z_v, requires_grad=True), Tensor(z_l, requires_grad=True)]
            for t in leaves:
                t.grad = None
            T.reset_graph()
            out_v, out_e = route(*inputs, params)
            T.backward(T.add(T.sum_all(T.hadamard(out_v, w_v)),
                             T.sum_all(T.hadamard(out_e, w_e))))
            runs.append([out_v.data, out_e.data]
                        + [t.grad.copy() for t in inputs + leaves if t.grad is not None])
        assert len(runs[0]) == len(runs[1])
        for got, want in zip(*runs):
            npt.assert_array_equal(got, want)


class TestDispatchAndSharing:
    def test_fuse_dispatch_matches_variants(self):
        for variant in FusionVariant:
            cfg = make_cfg(variant.value)
            params = init_fusion(np.random.default_rng(15), cfg)
            z_v, z_l = projected_inputs(cfg)
            z_v_out, e_s = fuse(z_v, z_l, params)
            assert z_v_out.shape == (cfg.n_patches, cfg.dim_fusion)
            assert e_s.shape == (1, cfg.dim_fusion)

    def test_cme_shared_ties_blocks(self):
        cfg = make_cfg("cme_shared", fusion_layers=4)
        params = init_fusion(np.random.default_rng(16), cfg)
        assert params.stack_a.blocks[0] is params.stack_a.blocks[1]
        assert params.stack_b.blocks[0] is params.stack_b.blocks[1]
        assert params.stack_a.blocks[0] is not params.stack_b.blocks[0]


def hand_wired_probe(params, cfg, samples):
    """The probe wired stage by stage: each sample's fusion maps alone,
    with the seed after ``n_v`` visual and ``n_l`` linguistic tokens."""
    vme = params.fusion.variant is FusionVariant.VME
    acc = 0.0
    with T.no_grad():
        for image, ids in samples:
            z_v = vision_encode(np.asarray(image)[None], params.vision, cfg)
            z_l = language_encode([ids], params.language, cfg)
            pv, pl = project(z_v, z_l, params.fusion)
            with T.attention_maps() as maps:
                fuse(pv, pl, params.fusion)
            n_v, n_l = (pv.shape[-2] if vme else 0), pl.shape[-2]
            shares = []
            for attn in (maps if vme else maps[len(maps) // 2:]):
                seed = attn[..., n_v + n_l, :].reshape(-1, attn.shape[-1])
                a_v = seed[:, :n_v].sum(axis=1).mean() if n_v else np.nan
                shares.append([a_v, seed[:, n_v:n_v + n_l].sum(axis=1).mean(),
                               seed[:, n_v + n_l].mean()])
            acc = acc + np.array(shares)
    return AttnStats(variant=params.fusion.variant, layers=[
        LayerAttention(layer=i, a_v=None if np.isnan(a_v) else float(a_v),
                       a_l=float(a_l), a_self=float(a_self))
        for i, (a_v, a_l, a_self) in enumerate(acc / len(samples))])


class TestAttentionProbe:
    @pytest.mark.parametrize("variant", [v.value for v in FusionVariant])
    def test_fuse_yields_one_map_per_layer_stack_a_first(self, variant):
        cfg = make_cfg(variant, fusion_layers=4)
        params = init_fusion(np.random.default_rng(23), cfg)
        z_v, z_l = projected_inputs(cfg, seed=24)
        with T.attention_maps() as maps:
            fuse(z_v, z_l, params)
        vme = variant == "vme"
        with T.attention_maps() as stack_a_maps:
            encoder_stack(T.concat([z_v, z_l, params.seed] if vme else [z_v, z_l], axis=-2),
                          params.stack_a)
        assert len(maps) == cfg.fusion_layers
        for got, want in zip(maps, stack_a_maps):
            npt.assert_array_equal(got, want)
        n_b = cfg.fused_len if vme else cfg.max_tokens + 1
        assert [m.shape for m in maps[2:]] == [(2, n_b, n_b)] * 2

    def test_uniform_attention_fractions(self):
        # Fresh init with tiny weights puts attention logits near zero, so the
        # seed row splits approximately by segment length.
        cfg = make_cfg("vme", n_v_side=6, n_l=4)
        params = init_fusion(np.random.default_rng(17), cfg)
        z_v, z_l = projected_inputs(cfg, seed=18)
        with T.attention_maps() as maps:
            fuse(z_v, z_l, params)
        n_v, n_l = cfg.n_patches, cfg.max_tokens
        seed_row = maps[0][0][n_v + n_l]
        expected_v = n_v / (n_v + n_l + 1)
        assert abs(seed_row[:n_v].sum() - expected_v) < 0.05

    def test_probe_segments_sum_to_one(self):
        cfg = make_cfg("vme")
        params = init_model(np.random.default_rng(19), cfg)
        rng = np.random.default_rng(20)
        samples = [(rng.uniform(size=(16, 16, 3)), [2, 3, 4]) for _ in range(3)]
        stats = attention_probe(params, cfg, samples)
        assert len(stats.layers) == cfg.fusion_layers
        for layer in stats.layers:
            assert layer.a_v is not None
            assert abs(layer.a_v + layer.a_l + layer.a_self - 1.0) < 1e-6

    def test_probe_cme_reports_no_visual_segment(self):
        cfg = make_cfg("cme")
        params = init_model(np.random.default_rng(21), cfg)
        rng = np.random.default_rng(22)
        stats = attention_probe(params, cfg,
                                [(rng.uniform(size=(16, 16, 3)), [2, 3])])
        assert len(stats.layers) == cfg.fusion_layers // 2
        for layer in stats.layers:
            assert layer.a_v is None
            assert abs(layer.a_l + layer.a_self - 1.0) < 1e-6

    def test_csv_rows(self):
        cfg = make_cfg("vme")
        params = init_model(np.random.default_rng(23), cfg)
        rng = np.random.default_rng(24)
        stats = attention_probe(params, cfg,
                                [(rng.uniform(size=(16, 16, 3)), [2])])
        rows = stats.csv_rows()
        assert rows[0] == "layer,a_v,a_l,a_self"
        assert rows[1].startswith("f1,")

    @pytest.mark.parametrize("variant", [v.value for v in FusionVariant])
    def test_probe_equals_hand_wired_stages(self, variant):
        cfg = make_cfg(variant, fusion_layers=4)
        params = init_model(np.random.default_rng(25), cfg)
        rng = np.random.default_rng(26)
        samples = [(rng.uniform(size=(16, 16, 3)), ids) for ids in ([2, 3, 4], [5], [6, 7])]
        stats = attention_probe(params, cfg, samples)
        assert len(stats.layers) == (4 if variant == "vme" else 2)
        assert stats == hand_wired_probe(params, cfg, samples)


class TestProfile:
    def test_param_equality_across_unshared_variants(self):
        cfg = make_cfg(fusion_layers=4)
        counts = {v: profile(v, cfg).param_count
                  for v in (FusionVariant.VME, FusionVariant.IME, FusionVariant.CME)}
        assert len(set(counts.values())) == 1

    def test_shared_params_exactly_half_at_four_layers(self):
        cfg = make_cfg(fusion_layers=4)
        cme = profile(FusionVariant.CME, cfg)
        shared = profile(FusionVariant.CME_SHARED, cfg)
        assert shared.param_count * 2 == cme.param_count
        assert shared.mac_count == cme.mac_count

    def test_mac_ordering(self):
        for n_side, n_l, layers in ((2, 3, 2), (4, 5, 2), (6, 4, 4)):
            cfg = make_cfg(n_v_side=n_side, n_l=n_l, fusion_layers=layers)
            macs = {v: profile(v, cfg).mac_count for v in FusionVariant}
            assert macs[FusionVariant.VME] > macs[FusionVariant.CME]
            assert macs[FusionVariant.CME] == macs[FusionVariant.IME]
            assert macs[FusionVariant.CME] == macs[FusionVariant.CME_SHARED]

    def test_param_count_matches_tensor_enumeration(self):
        cfg = make_cfg(fusion_layers=4)
        for variant in FusionVariant:
            cfg_v = make_cfg(variant.value, fusion_layers=4)
            params = init_fusion(np.random.default_rng(25), cfg_v)
            block_params = sum(
                t.size for name, t in (params.stack_a.named_parameters()
                                          + params.stack_b.named_parameters())
                if not name.startswith("ln_f"))
            assert block_params == profile(variant, cfg_v).param_count

    @pytest.mark.parametrize("variant", list(FusionVariant))
    def test_macs_match_instrumented_counter(self, variant):
        # toy geometry from the spec example: D=16, k=2, layers=2, N_v=16, N_l=5
        cfg = make_cfg(variant.value, n_v_side=4, n_l=5, d=16, fusion_layers=2)
        params = init_fusion(np.random.default_rng(26), cfg)
        z_v, z_l = projected_inputs(cfg, seed=27)
        with T.no_grad(), T.count_macs() as counter:
            fuse(z_v, z_l, params)
        assert counter.macs == profile(variant, cfg).mac_count

    def test_profile_all_covers_variants(self):
        results = profile_all(make_cfg())
        assert [r.variant for r in results] == list(FusionVariant)
        assert all("," in r.csv_row() for r in results)
