"""Loaders on corrupt input: truncated, bit-flipped and garbage files.

Each loader either returns or raises its own typed error, and the CLI exits
with that error's code: 2 for a dataset or checkpoint, 1 for a run config.
Any other exception escapes ``main`` and fails the test.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from restr.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from restr.cli import main
from restr.data import VOCABULARY, DataFormatError, generate, load, save
from restr.decoder import init_model
from restr.encoders import ModelConfig
from restr.runconfig import (UsageError, load_config_file, parse_config_text,
                             serialize_model_config)

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

CFG = ModelConfig(image_h=32, image_w=32, patch_size=8, dim_vision=16,
                  vision_layers=1, dim_language=16, language_layers=1,
                  max_tokens=8, vocab_size=len(VOCABULARY), dim_fusion=16,
                  fusion_layers=2, heads=2)

DATASET_FILES = ("index.txt", "vocab.txt", "0000.img", "0001.msk")


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """``blob`` truncated, with one bit flipped (often in its first 64
    bytes, where the headers are), or replaced by garbage."""
    kind = draw(st.sampled_from(("truncate", "flip", "garbage")))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        pos = draw(st.one_of(st.integers(0, min(63, len(blob) - 1)),
                             st.integers(0, len(blob) - 1)))
        out = bytearray(blob)
        out[pos] ^= 1 << draw(st.integers(0, 7))
        return bytes(out)
    return draw(st.binary(max_size=200))


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save(generate(seed=3, count=2, h=32, w=32), root / "data")
    params = init_model(np.random.default_rng(0), CFG)
    state = {"step": 1, "m": [np.zeros_like(t.data) for _, t in params.named_parameters()],
             "v": [np.ones_like(t.data) for _, t in params.named_parameters()]}
    save_checkpoint(root / "model.rstr", CFG, params, state)
    (root / "config.txt").write_text(serialize_model_config(CFG) + "base_lr = 0.001\n",
                                     encoding="utf-8")
    return root


@FUZZ
@given(data=st.data(), name=st.sampled_from(DATASET_FILES))
def test_dataset_loader(good, data, name):
    blob = (good / "data" / name).read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "data"
        shutil.copytree(good / "data", d)
        (d / name).write_bytes(data.draw(corrupted(blob)))
        try:
            load(d)
        except DataFormatError:
            assert main(["eval", "--ckpt", str(good / "model.rstr"),
                         "--data", str(d)]) == 2
        else:
            assert main(["eval", "--ckpt", str(good / "model.rstr"),
                         "--data", str(d)]) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_checkpoint_loader(good, data):
    blob = (good / "model.rstr").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.rstr"
        path.write_bytes(data.draw(corrupted(blob)))
        try:
            load_checkpoint(path)
        except CheckpointError:
            assert main(["eval", "--ckpt", str(path),
                         "--data", str(good / "data")]) == 2
        else:
            assert main(["eval", "--ckpt", str(path),
                         "--data", str(good / "data")]) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_config_loader(good, data):
    blob = (good / "config.txt").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.txt"
        path.write_bytes(data.draw(corrupted(blob)))
        try:
            load_config_file(path)
        except UsageError:
            assert main(["profile", "--config", str(path)]) == 1
        else:
            assert main(["profile", "--config", str(path)]) in (0, 1, 2)


@FUZZ
@given(text=st.text(max_size=200))
def test_config_parser_on_garbage_text(text):
    try:
        pairs = parse_config_text(text)
    except UsageError:
        return
    assert all(k and v for k, v in pairs.items())
