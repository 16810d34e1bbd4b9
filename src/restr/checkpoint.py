"""Binary checkpoint format: magic, version, model config, named float32 blobs,
optional optimizer state.

Layout (all integers little-endian):
    b"RSTR" | u32 version | u32 cfg_len | cfg utf-8 (flat key=value text)
    u32 n_params | n_params x { u32 name_len | name utf-8 | u32 ndim |
                                u32 dims[ndim] | f32 data[prod(dims)] }
    u8 has_opt | if 1: u64 step | per param f32 m blob | per param f32 v blob

Values are stored as float32; training computes in float64, so a round trip
is exact to one float32 rounding (<= ~6e-8 relative). Saving a just-loaded
model reproduces the file byte for byte. Version 2 stores each attention
block's fused ``w_qkv``/``b_qkv``; version-1 files (per-head projections) are
rejected. A save writes a temporary file and renames it over the target, so
an interrupted save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .decoder import RestrParams, init_model
from .encoders import ModelConfig
from .runconfig import model_config_from_text, serialize_model_config

MAGIC = b"RSTR"
VERSION = 2


class CheckpointError(RuntimeError):
    """Missing, truncated, or unknown-version checkpoint file."""


def _pack_blob(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def save_checkpoint(path, cfg: ModelConfig, params: RestrParams,
                    opt_state: dict | None = None) -> None:
    named = params.named_parameters()
    cfg_text = serialize_model_config(cfg).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", VERSION),
              struct.pack("<I", len(cfg_text)), cfg_text,
              struct.pack("<I", len(named))]
    for name, t, _ in named:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", t.data.ndim))
        chunks.append(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
        chunks.append(_pack_blob(t.data))
    if opt_state is None:
        chunks.append(struct.pack("<B", 0))
    else:
        chunks.append(struct.pack("<B", 1))
        chunks.append(struct.pack("<Q", int(opt_state["step"])))
        for m in opt_state["m"]:
            chunks.append(_pack_blob(m))
        for v in opt_state["v"]:
            chunks.append(_pack_blob(v))
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_bytes(b"".join(chunks))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint {self.path}: "
                                  f"needed {n} bytes at offset {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> tuple[ModelConfig, RestrParams, dict | None]:
    """Rebuild (config, parameters, optimizer state or None) from disk."""
    p = Path(path)
    if not p.is_file():
        raise CheckpointError(f"checkpoint not found: {p}")
    r = _Reader(p.read_bytes(), p)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{p} is not a checkpoint (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} in {p} "
                              f"(this build reads version {VERSION})")
    cfg = model_config_from_text(r.take(r.u32()).decode("utf-8"))

    # Structure comes from the config; blobs overwrite the fresh parameters.
    params = init_model(np.random.default_rng(0), cfg)
    named = params.named_parameters()
    n_params = r.u32()
    if n_params != len(named):
        raise CheckpointError(f"{p} holds {n_params} parameters, "
                              f"config implies {len(named)}")
    by_name = {name: t for name, t, _ in named}
    shapes: list[tuple[int, ...]] = []
    for _ in range(n_params):
        name = r.take(r.u32()).decode("utf-8")
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        data = np.frombuffer(r.take(4 * count), dtype="<f4").astype(np.float64)
        t = by_name.get(name)
        if t is None:
            raise CheckpointError(f"{p}: unexpected parameter {name!r}")
        if tuple(shape) != t.data.shape:
            raise CheckpointError(f"{p}: parameter {name!r} has shape {shape}, "
                                  f"config implies {t.data.shape}")
        t.data = data.reshape(shape)
        shapes.append(tuple(shape))

    has_opt = struct.unpack("<B", r.take(1))[0]
    opt_state = None
    if has_opt:
        step = struct.unpack("<Q", r.take(8))[0]
        m = [np.frombuffer(r.take(4 * int(np.prod(s, dtype=np.int64))),
                           dtype="<f4").astype(np.float64).reshape(s) for s in shapes]
        v = [np.frombuffer(r.take(4 * int(np.prod(s, dtype=np.int64))),
                           dtype="<f4").astype(np.float64).reshape(s) for s in shapes]
        opt_state = {"step": int(step), "m": m, "v": v}
    if r.pos != len(r.blob):
        raise CheckpointError(f"{p}: {len(r.blob) - r.pos} trailing bytes")
    return cfg, params, opt_state
