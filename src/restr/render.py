"""PGM/PPM mask rendering: binary prediction, patch-level view, image overlay."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import tensor as T
from .decoder import forward
from .metrics import binarize

OVERLAY_COLOR = (255, 0, 255)  # magenta boundary


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary (P5) PGM, maxval 255."""
    arr = np.asarray(gray)
    if arr.ndim != 2:
        raise ValueError(f"PGM needs a 2-d array, got shape {arr.shape}")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary (P6) PPM, maxval 255."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PPM needs an h*w*3 array, got shape {arr.shape}")
    h, w, _ = arr.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with at least one 4-neighbor outside the mask."""
    m = np.asarray(mask, dtype=bool)
    interior = m.copy()
    interior[1:, :] &= m[:-1, :]
    interior[:-1, :] &= m[1:, :]
    interior[:, 1:] &= m[:, :-1]
    interior[:, :-1] &= m[:, 1:]
    return m & ~interior


def patch_grid_image(probs: np.ndarray, grid_hw: tuple[int, int],
                     patch_size: int) -> np.ndarray:
    """(n_patches, 1) probabilities -> grayscale image upscaled by the patch size."""
    gh, gw = grid_hw
    grid = np.asarray(probs).reshape(gh, gw)
    gray = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    return np.repeat(np.repeat(gray, patch_size, axis=0), patch_size, axis=1)


def render_sample(params, cfg, sample, out_dir, sample_id: int) -> dict[str, Path]:
    """Write mask PGM, patch-level PGM, and boundary-overlay PPM for one sample."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with T.no_grad():
        pred = forward(np.asarray(sample.image)[None], [sample.token_ids], params, cfg)
    mask = binarize(pred.pixel_logits.data[0])

    paths = {
        "mask": out / f"{sample_id:04d}_mask.pgm",
        "patch": out / f"{sample_id:04d}_patch.pgm",
        "overlay": out / f"{sample_id:04d}_overlay.ppm",
    }
    write_pgm(paths["mask"], mask * 255)
    write_pgm(paths["patch"], patch_grid_image(T.sigmoid(pred.patch_logits).data[0],
                                               cfg.patch_grid, cfg.patch_size))
    overlay = np.rint(np.asarray(sample.image, dtype=np.float64) * 255.0)
    overlay = np.clip(overlay, 0, 255).astype(np.uint8)
    overlay[mask_boundary(mask)] = OVERLAY_COLOR
    write_ppm(paths["overlay"], overlay)
    return paths
