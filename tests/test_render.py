"""PGM/PPM writers, boundary overlay, and render/eval consistency."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from restr.data import generate
from restr.decoder import init_model
from restr.encoders import ModelConfig
from restr.metrics import predicted_masks
from restr.render import mask_boundary, patch_grid_image, render_sample, write_pgm, write_ppm

from conftest import read_pgm, read_ppm


class TestNetpbm:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (7, 5)).astype(np.uint8)
        write_pgm(tmp_path / "x.pgm", img)
        npt.assert_array_equal(read_pgm(tmp_path / "x.pgm"), img)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (4, 6, 3)).astype(np.uint8)
        write_ppm(tmp_path / "x.ppm", img)
        npt.assert_array_equal(read_ppm(tmp_path / "x.ppm"), img)

    def test_header_format(self, tmp_path):
        write_pgm(tmp_path / "x.pgm", np.zeros((3, 9), dtype=np.uint8))
        blob = (tmp_path / "x.pgm").read_bytes()
        assert blob.startswith(b"P5\n9 3\n255\n")

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2)))


class TestBoundary:
    def test_solid_block_boundary_is_ring(self):
        mask = np.zeros((6, 6), dtype=np.uint8)
        mask[1:5, 1:5] = 1
        boundary = mask_boundary(mask)
        assert boundary[1, 1] and boundary[1, 4] and boundary[4, 4]
        assert not boundary[2, 2] and not boundary[3, 3]
        assert not boundary[0, 0]

    def test_canvas_edge_pixels_are_boundary_free_interior(self):
        mask = np.ones((4, 4), dtype=np.uint8)
        boundary = mask_boundary(mask)
        assert not boundary.any()  # no outside neighbors anywhere


class TestPatchGrid:
    def test_upscale_matches_nearest(self):
        probs = np.array([[0.0], [1.0], [0.25], [0.5]])
        img = patch_grid_image(probs, (2, 2), 4)
        assert img.shape == (8, 8)
        assert (img[0:4, 0:4] == 0).all()
        assert (img[0:4, 4:8] == 255).all()
        assert (img[4:8, 0:4] == 64).all()
        assert (img[4:8, 4:8] == 128).all()


@pytest.fixture(scope="module")
def trained_free_setup():
    cfg = ModelConfig(image_h=32, image_w=32, patch_size=4,
                      dim_vision=16, vision_layers=1,
                      dim_language=16, language_layers=1,
                      max_tokens=8, vocab_size=15,
                      dim_fusion=16, fusion_layers=2, heads=2)
    ds = generate(seed=5, count=2, h=32, w=32)
    params = init_model(np.random.default_rng(7), cfg)
    return cfg, params, ds


class TestRenderSample:
    def test_files_parse_and_match_binarized_logits(self, tmp_path,
                                                    trained_free_setup):
        cfg, params, ds = trained_free_setup
        paths = render_sample(params, cfg, ds[0], tmp_path, 0)
        mask_img = read_pgm(paths["mask"])
        assert mask_img.shape == (32, 32)
        predicted = predicted_masks(params, cfg, [ds[0]])[0]
        npt.assert_array_equal(mask_img, predicted * 255)
        patch_img = read_pgm(paths["patch"])
        assert patch_img.shape == (32, 32)  # x patch_size upscale
        overlay = read_ppm(paths["overlay"])
        assert overlay.shape == (32, 32, 3)

    def test_float32_image_renders_as_its_float64_cast(self, tmp_path,
                                                       trained_free_setup):
        # (k + 0.5) / 255 rounded to float32: for about half of these, v * 255
        # taken in float32 rounds to the other neighbour, so the overlay must
        # scale in float64 to write the bytes a float64 image gives.
        cfg, params, ds = trained_free_setup
        halves = ((np.arange(255) + 0.5) / 255).astype(np.float32)
        image = np.resize(halves, (32, 32, 3))
        assert (np.rint(image * np.float32(255)) != np.rint(image.astype(float) * 255)).any()
        files = [render_sample(params, cfg, dataclasses.replace(ds[0], image=img),
                               tmp_path / name, 0)
                 for name, img in (("f32", image), ("f64", image.astype(np.float64)))]
        for key in files[0]:
            assert files[0][key].read_bytes() == files[1][key].read_bytes(), key
