"""Checkpoint persistence and flat run-config parsing."""

import pathlib
import struct

import numpy as np
import numpy.testing as npt
import pytest

from restr.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from restr.decoder import forward, init_model
from restr.encoders import ModelConfig
from restr.fusion import FusionVariant
from restr.runconfig import (UsageError, build_configs, load_config_file,
                             model_config_from_text, parse_config_text,
                             serialize_model_config, serialize_train_config)
from restr.training import AdamW, TrainConfig, train
from restr.data import generate


def tiny_cfg(**kw):
    base = dict(image_h=16, image_w=16, patch_size=4,
                dim_vision=16, vision_layers=1, dim_language=16,
                language_layers=1, max_tokens=6, vocab_size=15,
                dim_fusion=16, fusion_layers=2, heads=2)
    base.update(kw)
    return ModelConfig(**base)


class TestRunConfig:
    def test_parse_comments_and_pairs(self):
        text = "# a comment\npatch_size = 8\nbase_lr = 1e-4  # inline\n\n"
        assert parse_config_text(text) == {"patch_size": "8", "base_lr": "1e-4"}

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown config key"):
            build_configs({"patchsize": "8"})

    def test_malformed_line(self):
        with pytest.raises(UsageError):
            parse_config_text("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(UsageError):
            parse_config_text("patch_size = 8\npatch_size = 4\n")

    def test_overrides_applied_and_typed(self):
        model, train_cfg = build_configs({"patch_size": "4", "image_h": "32",
                                          "image_w": "32", "dim_fusion": "16",
                                          "dim_vision": "16", "dim_language": "16",
                                          "base_lr": "0.002", "tau": "0.7",
                                          "fusion_variant": "ime"})
        assert model.patch_size == 4
        assert model.fusion_variant is FusionVariant.IME
        assert train_cfg.base_lr == 0.002
        assert train_cfg.tau == 0.7

    def test_defaults_documented_round_trip(self):
        model, train_cfg = build_configs({})
        text = serialize_model_config(model) + serialize_train_config(train_cfg)
        pairs = parse_config_text(text)
        model2, train2 = build_configs(pairs)
        assert model2 == model
        assert train2 == train_cfg

    def test_file_not_found(self):
        with pytest.raises(UsageError):
            load_config_file("/nonexistent/config.txt")

    def test_bad_value_type(self):
        with pytest.raises(UsageError):
            build_configs({"patch_size": "eight"})


class TestCheckpoint:
    def test_round_trip_within_f32(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model(np.random.default_rng(0), cfg)
        path = tmp_path / "model.rstr"
        save_checkpoint(path, cfg, params)
        cfg2, params2, opt = load_checkpoint(path)
        assert opt is None
        assert cfg2 == cfg
        for (n1, t1, _), (n2, t2, _) in zip(params.named_parameters(),
                                            params2.named_parameters()):
            assert n1 == n2
            denom = np.maximum(np.abs(t1.data), 1e-12)
            assert (np.abs(t1.data - t2.data) / denom).max() <= 1e-6

    def test_second_save_is_byte_stable(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model(np.random.default_rng(1), cfg)
        save_checkpoint(tmp_path / "a.rstr", cfg, params)
        cfg2, params2, _ = load_checkpoint(tmp_path / "a.rstr")
        save_checkpoint(tmp_path / "b.rstr", cfg2, params2)
        assert (tmp_path / "a.rstr").read_bytes() == (tmp_path / "b.rstr").read_bytes()

    def test_forward_agrees_after_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        rng = np.random.default_rng(2)
        params = init_model(rng, cfg)
        img = rng.uniform(size=(16, 16, 3))
        before = forward(img[None], [[2, 3]], params, cfg).pixel_logits.data
        save_checkpoint(tmp_path / "m.rstr", cfg, params)
        _, params2, _ = load_checkpoint(tmp_path / "m.rstr")
        after = forward(img[None], [[2, 3]], params2, cfg).pixel_logits.data
        npt.assert_allclose(after, before, rtol=1e-5, atol=1e-6)

    def test_optimizer_state_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        ds = generate(seed=3, count=4, h=32, w=32)
        cfg32 = tiny_cfg(image_h=32, image_w=32)
        params = init_model(np.random.default_rng(3), cfg32)
        tc = TrainConfig(base_lr=1e-4, warmup_iters=1, total_iters=3,
                         batch_size=2, seed=5)
        opt = AdamW(params.named_parameters(), tc)
        train(params, cfg32, tc, ds.samples, optimizer=opt)
        save_checkpoint(tmp_path / "m.rstr", cfg32, params, opt.state())
        _, params2, state = load_checkpoint(tmp_path / "m.rstr")
        assert state is not None and state["step"] == 3
        assert len(state["m"]) == len(params2.named_parameters())

    def test_unknown_version_rejected(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model(np.random.default_rng(4), cfg)
        path = tmp_path / "m.rstr"
        save_checkpoint(path, cfg, params)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_rejected_by_number(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "m.rstr"
        save_checkpoint(path, cfg, init_model(np.random.default_rng(4), cfg))
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    def test_fused_attention_names(self, tmp_path):
        names = {n for n, _, _ in init_model(np.random.default_rng(4),
                                             tiny_cfg()).named_parameters()}
        assert "vision.stack.blocks.0.w_qkv" in names
        assert "fusion.stack_b.blocks.0.b_qkv" in names
        assert not any(".heads." in n for n in names)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        path = tmp_path / "m.rstr"
        save_checkpoint(path, cfg, init_model(np.random.default_rng(4), cfg))
        before = path.read_bytes()

        def write_half_then_fail(self, data):
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, cfg, init_model(np.random.default_rng(5), cfg))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rstr"]

    def test_truncated_rejected(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model(np.random.default_rng(5), cfg)
        path = tmp_path / "m.rstr"
        save_checkpoint(path, cfg, params)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "absent.rstr")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rstr"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_shared_variant_round_trip(self, tmp_path):
        cfg = tiny_cfg(fusion_variant="cme_shared", fusion_layers=4)
        params = init_model(np.random.default_rng(6), cfg)
        save_checkpoint(tmp_path / "m.rstr", cfg, params)
        cfg2, params2, _ = load_checkpoint(tmp_path / "m.rstr")
        assert cfg2.fusion_variant is FusionVariant.CME_SHARED
        assert params2.fusion.stack_a.blocks[0] is params2.fusion.stack_a.blocks[1]

    def test_model_config_text_round_trip(self):
        cfg = tiny_cfg(fusion_variant="vme")
        assert model_config_from_text(serialize_model_config(cfg)) == cfg
