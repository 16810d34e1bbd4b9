"""Synthetic referring-segmentation data: shape scenes, templated expressions,
exact masks, and the on-disk dataset format.

Scenes hold 2-4 disjoint colored shapes on a black canvas. Every scene emits
two samples with different target objects, so each image carries at least one
pair of expressions referring to different regions. Expressions come from a
small template grammar; spatial relations are evaluated on object centers
(left means strictly smaller center column, above means strictly smaller
center row). Rasterization is aliasing-free: image pixels and mask pixels are
the same integer membership test.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoders import PAD_ID, load_vocab, save_vocab, tokenize

SHAPES = ("square", "circle", "triangle")
COLORS = {"red": (1.0, 0.0, 0.0), "green": (0.0, 1.0, 0.0),
          "blue": (0.0, 0.0, 1.0), "yellow": (1.0, 1.0, 0.0)}
RELATIONS = ("left", "right", "above", "below")

VOCABULARY = ["<pad>", "<unk>", *SHAPES, *COLORS, *RELATIONS, "of", "the"]

MIN_CANVAS = 32
MIN_RELATION_FRACTION = 0.3
INDEX_MAGIC = "RSTRDS"
INDEX_VERSION = 1
_DECIMAL = re.compile(r"-?[0-9]+")  # index fields; str.isdigit also accepts "²"


class GenerationError(RuntimeError):
    """The requested dataset cannot be generated (e.g. canvas too small)."""


class AmbiguityError(ValueError):
    """An expression matches zero or several objects in its scene."""


class DataFormatError(RuntimeError):
    """A dataset directory is missing, truncated, of an unknown version, or
    holds non-finite pixels."""


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: str
    cx: int
    cy: int
    size: int


@dataclass
class Scene:
    h: int
    w: int
    objects: list[SceneObject]


@dataclass
class Sample:
    image: np.ndarray  # (H, W, 3) in [0, 1]
    token_ids: list[int]
    mask: np.ndarray  # (H, W, 1) binary
    expression: str = ""
    target_index: int | None = None
    scene: "Scene | None" = None  # in-memory only; not serialized


@dataclass
class Dataset:
    samples: list[Sample]
    vocab: list[str] = field(default_factory=lambda: list(VOCABULARY))

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)


def rasterize_object(obj: SceneObject, h: int, w: int) -> np.ndarray:
    """Boolean membership mask of one object on an h*w canvas."""
    yy, xx = np.mgrid[0:h, 0:w]
    dx = xx - obj.cx
    dy = yy - obj.cy
    s = obj.size
    if obj.shape == "square":
        return (np.abs(dx) <= s) & (np.abs(dy) <= s)
    if obj.shape == "circle":
        return dx * dx + dy * dy <= s * s
    if obj.shape == "triangle":
        # apex at (cx, cy - s), base at cy + s, halfwidth grows linearly
        inside_rows = (dy >= -s) & (dy <= s)
        return inside_rows & (2 * np.abs(dx) <= (dy + s))
    raise ValueError(f"unknown shape {obj.shape!r}")


def render_scene(scene: Scene) -> np.ndarray:
    image = np.zeros((scene.h, scene.w, 3))
    for obj in scene.objects:
        image[rasterize_object(obj, scene.h, scene.w)] = COLORS[obj.color]
    return image


def _relation_holds(target: SceneObject, relation: str, anchor: SceneObject) -> bool:
    if relation == "left":
        return target.cx < anchor.cx
    if relation == "right":
        return target.cx > anchor.cx
    if relation == "above":
        return target.cy < anchor.cy
    if relation == "below":
        return target.cy > anchor.cy
    raise ValueError(f"unknown relation {relation!r}")


def _match(objects: Sequence[SceneObject], shape: str,
           color: str | None) -> list[int]:
    return [i for i, o in enumerate(objects)
            if o.shape == shape and (color is None or o.color == color)]


def _parse_expression(tokens: list[str]):
    """Grammar: [the] [color] shape [relation [of] the [color] shape]."""
    toks = list(tokens)

    def descriptor():
        nonlocal toks
        color = None
        if toks and toks[0] == "the":
            toks = toks[1:]
        if toks and toks[0] in COLORS:
            color = toks[0]
            toks = toks[1:]
        if not toks or toks[0] not in SHAPES:
            raise AmbiguityError(f"expected a shape word, got {toks[:1]}")
        shape = toks[0]
        toks = toks[1:]
        return shape, color

    shape, color = descriptor()
    relation = None
    anchor = None
    if toks:
        if toks[0] not in RELATIONS:
            raise AmbiguityError(f"expected a relation word, got {toks[0]!r}")
        relation = toks[0]
        toks = toks[1:]
        if relation in ("left", "right"):
            if not toks or toks[0] != "of":
                raise AmbiguityError(f"relation {relation!r} must be followed by 'of'")
            toks = toks[1:]
        anchor = descriptor()
    if toks:
        raise AmbiguityError(f"trailing tokens {toks} in expression")
    return shape, color, relation, anchor


def resolve(scene: Scene, expression: str | Sequence[str]) -> int:
    """Index of the unique object the expression denotes, else AmbiguityError."""
    tokens = expression.split() if isinstance(expression, str) else list(expression)
    shape, color, relation, anchor = _parse_expression(tokens)
    candidates = _match(scene.objects, shape, color)
    if relation is not None:
        a_shape, a_color = anchor
        anchors = _match(scene.objects, a_shape, a_color)
        if len(anchors) != 1:
            raise AmbiguityError(
                f"anchor '{a_color or ''} {a_shape}' matches {len(anchors)} objects")
        ref = scene.objects[anchors[0]]
        candidates = [i for i in candidates
                      if i != anchors[0]
                      and _relation_holds(scene.objects[i], relation, ref)]
    if len(candidates) != 1:
        raise AmbiguityError(f"expression {' '.join(tokens)!r} matches "
                             f"{len(candidates)} objects")
    return candidates[0]


# ---------------------------------------------------------------------------
# expression construction
# ---------------------------------------------------------------------------

def _descriptor_words(obj: SceneObject, with_color: bool) -> list[str]:
    return [obj.color, obj.shape] if with_color else [obj.shape]


def _relation_words(relation: str) -> list[str]:
    return [relation, "of"] if relation in ("left", "right") else [relation]


def _candidate_expressions(scene: Scene,
                           target_idx: int) -> tuple[list[str], list[str]]:
    """All valid expressions for the target, split into (plain, relational)."""
    objs = scene.objects
    target = objs[target_idx]
    plain: list[str] = []
    if len(_match(objs, target.shape, None)) == 1:
        plain.append(target.shape)
    if len(_match(objs, target.shape, target.color)) == 1:
        plain.append(f"{target.color} {target.shape}")
        plain.append(f"the {target.color} {target.shape}")

    relational: list[str] = []
    for anchor_idx, anchor in enumerate(objs):
        if anchor_idx == target_idx:
            continue
        anchor_forms = []
        if len(_match(objs, anchor.shape, None)) == 1:
            anchor_forms.append(_descriptor_words(anchor, with_color=False))
        if len(_match(objs, anchor.shape, anchor.color)) == 1:
            anchor_forms.append(_descriptor_words(anchor, with_color=True))
        for relation in RELATIONS:
            if not _relation_holds(target, relation, anchor):
                continue
            for t_color in (False, True):
                for a_words in anchor_forms:
                    words = (_descriptor_words(target, t_color)
                             + _relation_words(relation) + ["the"] + a_words)
                    expr = " ".join(words)
                    try:
                        if resolve(scene, expr) == target_idx:
                            relational.append(expr)
                    except AmbiguityError:
                        continue
    return plain, relational


def _sample_scene(rng: np.random.Generator, h: int, w: int) -> Scene | None:
    n_objects = int(rng.integers(2, 5))
    s_lo = max(4, min(h, w) // 8)
    s_hi = max(s_lo + 1, min(h, w) // 4)
    objects: list[SceneObject] = []
    occupied = np.zeros((h, w), dtype=bool)
    for _ in range(n_objects):
        placed = False
        for _ in range(40):
            size = int(rng.integers(s_lo, s_hi + 1))
            if 2 * size + 2 >= min(h, w):
                continue
            obj = SceneObject(
                shape=str(rng.choice(SHAPES)),
                color=str(rng.choice(list(COLORS))),
                cx=int(rng.integers(size, w - size)),
                cy=int(rng.integers(size, h - size)),
                size=size,
            )
            mask = rasterize_object(obj, h, w)
            if not (mask & occupied).any():
                occupied |= mask
                objects.append(obj)
                placed = True
                break
        if not placed:
            return None
    return Scene(h=h, w=w, objects=objects)


def generate(seed: int, count: int, h: int, w: int,
             vocab: Sequence[str] | None = None) -> Dataset:
    """Deterministic dataset of ``count`` samples on an h*w canvas.

    Every scene contributes a pair of samples with distinct targets; at least
    30% of expressions use a spatial relation.
    """
    if count < 1:
        raise GenerationError(f"count must be >= 1, got {count}")
    if h < MIN_CANVAS or w < MIN_CANVAS:
        raise GenerationError(
            f"canvas {h}x{w} too small to place objects (minimum {MIN_CANVAS})")
    vocab = list(vocab) if vocab is not None else list(VOCABULARY)
    rng = np.random.default_rng(seed)
    samples: list[Sample] = []
    relation_count = 0
    plain_rotation = 0  # deterministic template rotation spreads expression lengths
    attempts = 0
    while len(samples) < count:
        attempts += 1
        if attempts > 200 * count + 200:
            raise GenerationError("could not generate enough unambiguous scenes")
        scene = _sample_scene(rng, h, w)
        if scene is None:
            continue
        options = []
        for ti in range(len(scene.objects)):
            plain, relational = _candidate_expressions(scene, ti)
            if plain or relational:
                options.append((ti, plain, relational))
        if len(options) < 2:
            continue
        order = rng.permutation(len(options))[:2]
        image = render_scene(scene)
        for oi in order:
            ti, plain, relational = options[oi]
            need_relation = relation_count < MIN_RELATION_FRACTION * (len(samples) + 1)
            if need_relation and relational:
                expr = relational[int(rng.integers(len(relational)))]
            elif plain:
                expr = plain[plain_rotation % len(plain)]
                plain_rotation += 1
            else:
                expr = relational[int(rng.integers(len(relational)))]
            relation_count += int(any(r in expr.split() for r in RELATIONS))
            mask = rasterize_object(scene.objects[ti], h, w).astype(float)[:, :, None]
            samples.append(Sample(
                image=image,
                token_ids=tokenize(expr, vocab),
                mask=mask,
                expression=expr,
                target_index=ti,
                scene=scene,
            ))
            if len(samples) == count:
                break
    return Dataset(samples=samples, vocab=vocab)


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def save(dataset: Dataset, out_dir) -> None:
    """Write index.txt, vocab.txt, and per-sample .img/.msk blobs.

    Every file is first written in full under a ``.tmp`` name. Only then is
    the old index removed and each file renamed into place, index.txt last.
    A save that fails while writing leaves an existing dataset untouched; one
    interrupted while renaming leaves no index, so the directory never loads
    as a mix of old and new files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged: list[Path] = []

    def stage(name: str) -> Path:
        staged.append(out / f"{name}.tmp")
        return staged[-1]

    try:
        save_vocab(dataset.vocab, stage("vocab.txt"))
        lines = [f"{INDEX_MAGIC} {INDEX_VERSION}"]
        for i, s in enumerate(dataset.samples):
            h, w, _ = s.image.shape
            ids = " ".join(str(t) for t in s.token_ids)
            lines.append(f"{i} {h} {w} {ids}")
            stage(f"{i:04d}.img").write_bytes(
                np.ascontiguousarray(s.image, dtype="<f4").tobytes())
            stage(f"{i:04d}.msk").write_bytes(
                np.ascontiguousarray(s.mask.reshape(-1), dtype=np.uint8).tobytes())
        stage("index.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "index.txt").unlink(missing_ok=True)
        for tmp in staged:
            os.replace(tmp, tmp.with_suffix(""))
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def load(data_dir) -> Dataset:
    """Inverse of :func:`save`; fails loudly on corrupt or unknown data."""
    root = Path(data_dir)
    index_path = root / "index.txt"
    if not index_path.is_file():
        raise DataFormatError(f"no index.txt in {root}")
    try:
        text = index_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{index_path} is not valid UTF-8 (byte {exc.start})") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError(f"empty index at {index_path}")
    header = lines[0].split()
    if len(header) != 2 or header[0] != INDEX_MAGIC or not _DECIMAL.fullmatch(header[1]):
        raise DataFormatError(f"bad index header {lines[0]!r}")
    if int(header[1]) != INDEX_VERSION:
        raise DataFormatError(f"unknown dataset version {header[1]}")
    if len(lines) == 1:
        raise DataFormatError(f"index at {index_path} lists no samples")
    try:
        vocab = load_vocab(root / "vocab.txt")
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"unreadable vocabulary: {exc}") from exc
    samples: list[Sample] = []
    seen: set[int] = set()
    for line in lines[1:]:
        fields = line.split()
        if len(fields) < 4 or not all(_DECIMAL.fullmatch(f) for f in fields):
            raise DataFormatError(f"malformed index line {line!r}")
        sid, h, w = int(fields[0]), int(fields[1]), int(fields[2])
        if h < 1 or w < 1:
            raise DataFormatError(f"sample {sid}: image size {h}x{w} is not positive")
        if sid in seen:
            raise DataFormatError(f"sample id {sid} appears twice in {index_path}")
        seen.add(sid)
        token_ids = [int(v) for v in fields[3:]]
        for t in token_ids:
            if not 0 <= t < len(vocab):
                raise DataFormatError(f"sample {sid}: token id {t} outside vocabulary")
        img_path = root / f"{sid:04d}.img"
        msk_path = root / f"{sid:04d}.msk"
        if not img_path.is_file() or not msk_path.is_file():
            raise DataFormatError(f"sample {sid}: missing image or mask file")
        img_bytes = img_path.read_bytes()
        if len(img_bytes) != h * w * 3 * 4:
            raise DataFormatError(
                f"sample {sid}: image file has {len(img_bytes)} bytes, "
                f"expected {h * w * 3 * 4}")
        msk_bytes = msk_path.read_bytes()
        if len(msk_bytes) != h * w:
            raise DataFormatError(
                f"sample {sid}: mask file has {len(msk_bytes)} bytes, expected {h * w}")
        image = np.frombuffer(img_bytes, dtype="<f4").astype(np.float64).reshape(h, w, 3)
        if not np.isfinite(image).all():
            raise DataFormatError(f"sample {sid}: image has non-finite pixels")
        mask_flat = np.frombuffer(msk_bytes, dtype=np.uint8)
        if not np.isin(mask_flat, (0, 1)).all():
            raise DataFormatError(f"sample {sid}: mask bytes outside {{0, 1}}")
        mask = mask_flat.astype(np.float64).reshape(h, w, 1)
        expr = " ".join(vocab[t] for t in token_ids if t != PAD_ID)
        samples.append(Sample(image=image, token_ids=token_ids, mask=mask,
                              expression=expr))
    return Dataset(samples=samples, vocab=vocab)


def length_histogram(dataset: Dataset) -> dict[int, int]:
    hist: dict[int, int] = {}
    for s in dataset.samples:
        hist[len(s.token_ids)] = hist.get(len(s.token_ids), 0) + 1
    return dict(sorted(hist.items()))
