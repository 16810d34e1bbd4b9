"""Checkpoint persistence and flat run-config parsing."""

import hashlib
import pathlib
import re
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
                             serialize_model_config)
from restr.training import AdamW, TrainConfig, decays, train
from restr.data import generate

from conftest import A5


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
        model, _ = build_configs({})
        model2, _ = build_configs(parse_config_text(serialize_model_config(model)))
        assert model2 == model

    def test_file_not_found(self):
        with pytest.raises(UsageError):
            load_config_file("/nonexistent/config.txt")

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_bytes(b"heads = \xff\n")
        with pytest.raises(UsageError, match="UTF-8"):
            load_config_file(path)

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
        for (n1, t1), (n2, t2) in zip(params.named_parameters(),
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
        names = {n for n, _ in init_model(np.random.default_rng(4),
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

    @pytest.mark.parametrize("field", [b"image_h", b"vision.stack"])
    def test_invalid_utf8_rejected(self, tmp_path, field):
        # One byte of the config text or of a parameter name set to 0xff.
        cfg = tiny_cfg()
        path = tmp_path / "m.rstr"
        save_checkpoint(path, cfg, init_model(np.random.default_rng(4), cfg))
        blob = bytearray(path.read_bytes())
        blob[blob.index(field)] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not valid UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob,value", [("parameter", np.nan), ("parameter", -np.inf),
                                            ("m", np.inf), ("v", np.nan)])
    def test_non_finite_blob_rejected(self, tmp_path, blob, value):
        cfg = tiny_cfg()
        params = init_model(np.random.default_rng(4), cfg)
        named = params.named_parameters()
        state = {"step": 1, "m": [np.zeros(t.shape) for _, t in named],
                 "v": [np.ones(t.shape) for _, t in named]}
        name, t = named[7]
        (t.data if blob == "parameter" else state[blob][7]).flat[-1] = value
        save_checkpoint(tmp_path / "m.rstr", cfg, params, state)
        what = "parameter" if blob == "parameter" else f"AdamW {blob} of"
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{what} {name!r} holds a non-finite value")):
            load_checkpoint(tmp_path / "m.rstr")

    def test_repeated_parameter_name_rejected(self, tmp_path):
        # One byte of a name flipped so that blocks.1's name comes twice; this
        # loaded, with blocks.0.mlp.w1 left at its seed-0 init.
        cfg = tiny_cfg(vision_layers=2)
        path = tmp_path / "m.rstr"
        save_checkpoint(path, cfg, init_model(np.random.default_rng(4), cfg))
        blob, old = path.read_bytes(), b"vision.stack.blocks.0.mlp.w1"
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, b"vision.stack.blocks.1.mlp.w1"))
        with pytest.raises(CheckpointError,
                           match=re.escape("found parameter 'vision.stack.blocks.1.mlp.w1' "
                                           "where 'vision.stack.blocks.0.mlp.w1' belongs")):
            load_checkpoint(path)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_optimizer_flag_outside_0_1_rejected(self, tmp_path, flag):
        # The flag byte follows the parameters, so a save without optimizer
        # state ends with it; with state, any nonzero flag loaded as 1.
        cfg = tiny_cfg()
        params = init_model(np.random.default_rng(4), cfg)
        named = params.named_parameters()
        state = {"step": 3, "m": [np.zeros(t.shape) for _, t in named],
                 "v": [np.ones(t.shape) for _, t in named]}
        save_checkpoint(tmp_path / "bare.rstr", cfg, params)
        at = len((tmp_path / "bare.rstr").read_bytes()) - 1
        path = tmp_path / "m.rstr"
        save_checkpoint(path, cfg, params, state)
        blob = bytearray(path.read_bytes())
        assert blob[at] == 1
        blob[at] = flag
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"optimizer flag is {flag}, not 0 or 1"):
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


# sha256 of the (name, shape, decays) list and of the saved checkpoint (one
# AdamW step included) at the A5 geometry. The names are the checkpoint format,
# and a change in their order, shapes, decay or initial values shows here.
TREE_PINS = {
    ("cme", 2): ("49db4d6970294d8eb3880c6c13dc8001b0da502953ea772002002c45edda222e",
                "5557dfd7c9f74abeb94f200962126aece2022e378d030447402dcb2ad907025d"),
    ("cme", 4): ("d720e9ac1471e49d94fffe231b7c0bd4d1fd037de9073d20f9ecc289e938151c",
                "9b2151fbbf7ccae5053b34d6c95f0d2488c622a27bd00ba0c1781e115db1a0f9"),
    ("cme_shared", 2): ("49db4d6970294d8eb3880c6c13dc8001b0da502953ea772002002c45edda222e",
                       "40c2e7300d764765b03a1c53053c503f05f33269fe8bd7a5b521b3142ae01a6b"),
    ("cme_shared", 4): ("49db4d6970294d8eb3880c6c13dc8001b0da502953ea772002002c45edda222e",
                       "1be895b9562d4093edaff2adec2529c791f4f11dabf966cd99c141e01c25aed2"),
    ("ime", 2): ("49db4d6970294d8eb3880c6c13dc8001b0da502953ea772002002c45edda222e",
                "2a37cea4af4cdca3d67308bc8fa02703c825c5202328d637c49e78b2dc00cbfb"),
    ("ime", 4): ("d720e9ac1471e49d94fffe231b7c0bd4d1fd037de9073d20f9ecc289e938151c",
                "15d9dca3798b3382471a48f4ab76708377dd2014719f1cc7d8fd41a57104f888"),
    ("vme", 2): ("49db4d6970294d8eb3880c6c13dc8001b0da502953ea772002002c45edda222e",
                "a08deeaebc46d6d499fe2291c1fc12c97fdb08bc554e5c64c217a52ec2deb167"),
    ("vme", 4): ("d720e9ac1471e49d94fffe231b7c0bd4d1fd037de9073d20f9ecc289e938151c",
                "a9d1128ca2616727b8041cb1a5185b14da32dcc158232ef7f426205efc1413c9"),
}


class TestParameterTree:
    @pytest.mark.parametrize("variant,layers", sorted(TREE_PINS))
    def test_names_and_bytes_are_pinned(self, tmp_path, variant, layers):
        cfg = ModelConfig(**{**A5, "fusion_variant": variant, "fusion_layers": layers})
        params = init_model(np.random.default_rng(4), cfg)
        named = params.named_parameters()
        listing = repr([(n, t.data.shape, decays(n)) for n, t in named]).encode()
        opt = AdamW(named, TrainConfig(weight_decay=0.1))
        for _, t in named:
            t.grad = np.ones_like(t.data)
        opt.step(1e-2)
        save_checkpoint(tmp_path / "m.rstr", cfg, params, opt.state())
        digests = (hashlib.sha256(listing).hexdigest(),
                   hashlib.sha256((tmp_path / "m.rstr").read_bytes()).hexdigest())
        assert digests == TREE_PINS[variant, layers]

    def test_names_are_field_paths(self):
        params = init_model(np.random.default_rng(4), tiny_cfg(fusion_variant="cme_shared",
                                                               fusion_layers=4))
        named = dict(params.named_parameters())
        assert named["fusion.proj_v.ln.gain"] is params.fusion.proj_v.ln.gain
        assert named["vision.stack.blocks.0.mlp.w1"] is params.vision.stack.blocks[0].mlp.w1
        assert named["decoder.blocks.1.b"] is params.decoder.blocks[1].b
        # Shared blocks are listed once; constant tables are not parameters.
        assert not any(n.startswith("fusion.stack_a.blocks.1.") for n in named)
        assert not any("pos_table" in n for n in named)
