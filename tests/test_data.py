"""Synthetic data: rasterization oracle, expression semantics, disk format."""

import os

import numpy as np
import numpy.testing as npt
import pytest

from restr.data import (AmbiguityError, DataFormatError, GenerationError,
                        RELATIONS, Scene, SceneObject, VOCABULARY, generate,
                        length_histogram, load, rasterize_object, resolve, save)
from restr.encoders import PAD_ID


def brute_force_pixels(obj, h, w):
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            dx, dy, s = x - obj.cx, y - obj.cy, obj.size
            if obj.shape == "square":
                out[y, x] = abs(dx) <= s and abs(dy) <= s
            elif obj.shape == "circle":
                out[y, x] = dx * dx + dy * dy <= s * s
            else:
                out[y, x] = -s <= dy <= s and 2 * abs(dx) <= dy + s
    return out


class TestRasterization:
    @pytest.mark.parametrize("shape", ["square", "circle", "triangle"])
    def test_matches_per_pixel_oracle(self, shape):
        obj = SceneObject(shape=shape, color="red", cx=13, cy=17, size=7)
        npt.assert_array_equal(rasterize_object(obj, 32, 40),
                               brute_force_pixels(obj, 32, 40))

    def test_scene_objects_disjoint_and_inside(self):
        ds = generate(seed=3, count=8, h=32, w=32)
        for s in ds:
            assert s.mask[:, :, 0].sum() > 0
            masks = [rasterize_object(o, 32, 32) for o in s.scene.objects]
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    assert not (masks[i] & masks[j]).any()

    def test_render_uses_pure_channel_colors(self):
        ds = generate(seed=4, count=4, h=32, w=32)
        img = ds.samples[0].image
        values = np.unique(img)
        assert set(values.tolist()) <= {0.0, 1.0}


class TestResolve:
    def _scene(self):
        return Scene(h=64, w=64, objects=[
            SceneObject("square", "red", cx=15, cy=20, size=6),
            SceneObject("square", "green", cx=45, cy=20, size=6),
            SceneObject("circle", "blue", cx=30, cy=45, size=6),
        ])

    def test_single_matching_object(self):
        assert resolve(self._scene(), "blue circle") == 2
        assert resolve(self._scene(), "circle") == 2
        assert resolve(self._scene(), "the red square") == 0

    def test_relation_semantics(self):
        scene = self._scene()
        assert resolve(scene, "square left of the blue circle") == 0
        assert resolve(scene, "square right of the red square") == 1
        assert resolve(scene, "circle below the green square") == 2
        with pytest.raises(AmbiguityError):  # both squares sit above the circle
            resolve(scene, "square above the circle")

    def test_ambiguous_expression_raises(self):
        with pytest.raises(AmbiguityError):
            resolve(self._scene(), "square")

    def test_no_referent_raises(self):
        with pytest.raises(AmbiguityError):
            resolve(self._scene(), "yellow triangle")

    def test_malformed_expression_raises(self):
        with pytest.raises(AmbiguityError):
            resolve(self._scene(), "red banana")

    def test_generated_samples_resolve_to_stored_target(self):
        ds = generate(seed=6, count=40, h=48, w=48)
        for s in ds:
            assert resolve(s.scene, s.expression) == s.target_index


class TestGenerate:
    def test_deterministic_given_seed(self):
        a = generate(seed=7, count=8, h=32, w=32)
        b = generate(seed=7, count=8, h=32, w=32)
        assert len(a) == len(b) == 8
        for sa, sb in zip(a, b):
            npt.assert_array_equal(sa.image, sb.image)
            npt.assert_array_equal(sa.mask, sb.mask)
            assert sa.token_ids == sb.token_ids

    def test_mask_is_exact_rerasterization(self):
        ds = generate(seed=8, count=10, h=40, w=40)
        for s in ds:
            target = s.scene.objects[s.target_index]
            npt.assert_array_equal(s.mask[:, :, 0].astype(bool),
                                   brute_force_pixels(target, 40, 40))
            colors = {tuple(px) for px in s.image[s.mask[:, :, 0].astype(bool)]}
            assert len(colors) == 1  # mask pixels carry exactly the target color

    def test_relation_fraction_at_least_30_percent(self):
        for seed in (0, 1, 2):
            ds = generate(seed=seed, count=16, h=64, w=64)
            rel = sum(1 for s in ds
                      if any(r in s.expression.split() for r in RELATIONS))
            assert rel / len(ds) >= 0.3

    def test_every_image_has_expression_pair(self):
        ds = generate(seed=9, count=16, h=64, w=64)
        by_key: dict = {}
        for s in ds:
            by_key.setdefault(s.image.tobytes(), []).append(s)
        for group in by_key.values():
            assert len(group) >= 2
            targets = {g.target_index for g in group}
            assert len(targets) >= 2

    def test_length_buckets_covered(self):
        ds = generate(seed=10, count=16, h=64, w=64)
        buckets = [(1, 2), (3, 3), (4, 5), (6, 20)]
        hist = length_histogram(ds)
        covered = sum(any(lo <= length <= hi for length in hist) for lo, hi in buckets)
        assert covered >= 3

    def test_vocab_closed_and_pad_free(self):
        ds = generate(seed=11, count=8, h=32, w=32)
        for s in ds:
            assert all(0 <= t < len(ds.vocab) for t in s.token_ids)
            assert PAD_ID not in s.token_ids
            assert len(s.token_ids) <= 20

    def test_canvas_too_small(self):
        with pytest.raises(GenerationError):
            generate(seed=0, count=2, h=16, w=16)

    def test_count_validated(self):
        with pytest.raises(GenerationError):
            generate(seed=0, count=0, h=32, w=32)


class TestDiskFormat:
    def test_round_trip_exact(self, tmp_path):
        ds = generate(seed=12, count=6, h=32, w=32)
        save(ds, tmp_path / "d")
        back = load(tmp_path / "d")
        assert len(back) == 6
        assert back.vocab == ds.vocab
        for sa, sb in zip(ds, back):
            npt.assert_array_equal(sa.image, sb.image)
            npt.assert_array_equal(sa.mask, sb.mask)
            assert sa.token_ids == sb.token_ids

    def test_save_is_byte_stable(self, tmp_path):
        ds = generate(seed=13, count=4, h=32, w=32)
        save(ds, tmp_path / "a")
        save(load(tmp_path / "a"), tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_truncated_image_file(self, tmp_path):
        ds = generate(seed=14, count=2, h=32, w=32)
        save(ds, tmp_path / "d")
        target = tmp_path / "d" / "0000.img"
        target.write_bytes(target.read_bytes()[:100])
        with pytest.raises(DataFormatError, match="bytes"):
            load(tmp_path / "d")

    def test_nan_pixel_rejected(self, tmp_path):
        save(generate(seed=14, count=2, h=32, w=32), tmp_path / "d")
        target = tmp_path / "d" / "0000.img"
        blob = bytearray(target.read_bytes())
        blob[40:44] = np.array([np.nan], dtype="<f4").tobytes()
        target.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="sample 0: .*non-finite"):
            load(tmp_path / "d")

    def test_unknown_version(self, tmp_path):
        ds = generate(seed=15, count=2, h=32, w=32)
        save(ds, tmp_path / "d")
        index = tmp_path / "d" / "index.txt"
        index.write_text(index.read_text().replace("RSTRDS 1", "RSTRDS 9"))
        with pytest.raises(DataFormatError, match="version"):
            load(tmp_path / "d")

    def test_missing_index(self, tmp_path):
        with pytest.raises(DataFormatError):
            load(tmp_path / "nope")

    def test_index_without_samples(self, tmp_path):
        # loaded as an empty dataset, on which train died with an IndexError
        save(generate(seed=16, count=2, h=32, w=32), tmp_path / "d")
        index = tmp_path / "d" / "index.txt"
        index.write_text(index.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataFormatError, match="lists no samples"):
            load(tmp_path / "d")

    def test_corrupt_index_line(self, tmp_path):
        ds = generate(seed=16, count=2, h=32, w=32)
        save(ds, tmp_path / "d")
        index = tmp_path / "d" / "index.txt"
        index.write_text(index.read_text() + "not a valid line\n")
        with pytest.raises(DataFormatError, match="malformed"):
            load(tmp_path / "d")

    @pytest.mark.parametrize("old, new", [(b"RSTRDS 1", b"RSTRDS \xff"),
                                          ("RSTRDS 1".encode(), "RSTRDS ²".encode()),
                                          (b"\n0 32 32", b"\n0 -32 -32")])
    def test_corrupt_index_fields(self, tmp_path, old, new):
        # each raised UnicodeDecodeError or ValueError before the fields were checked
        save(generate(seed=16, count=2, h=32, w=32), tmp_path / "d")
        index = tmp_path / "d" / "index.txt"
        assert index.read_bytes().count(old) == 1
        index.write_bytes(index.read_bytes().replace(old, new))
        with pytest.raises(DataFormatError):
            load(tmp_path / "d")

    def test_missing_sample_file(self, tmp_path):
        ds = generate(seed=17, count=2, h=32, w=32)
        save(ds, tmp_path / "d")
        (tmp_path / "d" / "0001.msk").unlink()
        with pytest.raises(DataFormatError, match="missing"):
            load(tmp_path / "d")

    def test_failed_save_leaves_old_dataset(self, tmp_path):
        d = tmp_path / "d"
        save(generate(seed=19, count=4, h=32, w=32), d)
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        new = generate(seed=20, count=4, h=32, w=32)
        new.samples[2].image = new.samples[2].image[:, :, 0]  # fails at sample 2
        with pytest.raises(ValueError):
            save(new, d)
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before
        assert [s.token_ids for s in load(d)] == \
            [s.token_ids for s in generate(seed=19, count=4, h=32, w=32)]

    def test_interrupted_renames_leave_no_index(self, tmp_path, monkeypatch):
        # old index with some new blobs could load as a wrong dataset
        d = tmp_path / "d"
        save(generate(seed=19, count=4, h=32, w=32), d)
        real_replace, calls = os.replace, []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 4:
                raise OSError("interrupted")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="interrupted"):
            save(generate(seed=20, count=4, h=32, w=32), d)
        assert not list(d.glob("*.tmp"))
        with pytest.raises(DataFormatError, match="no index"):
            load(d)

    def test_vocabulary_file_written(self, tmp_path):
        ds = generate(seed=18, count=2, h=32, w=32)
        save(ds, tmp_path / "d")
        lines = (tmp_path / "d" / "vocab.txt").read_text().splitlines()
        assert lines == VOCABULARY
