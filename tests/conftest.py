"""Shared by the test modules: the benchmark geometries and a runner for
scripts whose bits must not depend on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import restr.tensor as T

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
