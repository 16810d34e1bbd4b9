"""Shared by the test modules: the benchmark geometries, a runner for
scripts whose bits must not depend on the BLAS thread count, and readers
that check what the package writes (PGM/PPM files, per-sample IoU)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import restr.tensor as T
from restr.metrics import cumulative_iou

# The A5 geometry of the benchmark's train_a5 and eval_a5 workloads and the A8
# geometry of eval_r480.
A5 = dict(image_h=64, image_w=64, patch_size=8, dim_vision=64, dim_language=64,
          dim_fusion=64, vision_layers=2, language_layers=2, fusion_layers=2,
          heads=4, fusion_variant="cme")
A8 = dict(image_h=480, image_w=480, patch_size=16, dim_vision=16, dim_language=16,
          dim_fusion=16, vision_layers=1, language_layers=1, fusion_layers=2,
          heads=2, fusion_variant="vme")


def run_with_blas_threads(script: str, blas_threads: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter with OpenBLAS held to
    ``blas_threads`` threads."""
    src = str(Path(T.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    blob = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} file, got {fields[0]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace after maxval
    data = np.frombuffer(blob, dtype=np.uint8, count=w * h * channels, offset=pos)
    shape = (h, w) if channels == 1 else (h, w, channels)
    return data.reshape(shape)


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5", 1)


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3)


def sample_iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Per-sample IoU of two binary masks: the cumulative IoU of one sample."""
    return cumulative_iou([pred], [gt])
