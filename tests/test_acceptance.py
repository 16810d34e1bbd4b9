"""Acceptance criteria A1-A10.

One test per criterion, each printing a PASS line with its measured numbers.
The expensive overfit run (A5) is shared with the expression-sensitivity
check (A6) through a module-scoped fixture. Run with ``pytest -v -s`` to see
every line.
"""

import csv
import json
import time

import numpy as np
import numpy.testing as npt
import pytest

import restr.tensor as T
from restr.cli import main
from restr.data import generate
from restr.decoder import (attention_probe, decoder_channel_chain, init_model,
                           mask_features, patch_predict)
from restr.encoders import ModelConfig, language_encode, vision_encode
from restr.fusion import FusionVariant, fuse, init_fusion, profile, project
from restr.gradcheck import check_all_ops, check_model_gradients
from restr.metrics import (cumulative_iou, evaluate_model, intersection_union,
                           parse_buckets, prec_at, predicted_masks)
from restr.tensor import Tensor
from restr.training import TrainConfig, patch_labels, train

from conftest import sample_iou


def report(line: str) -> None:
    print(f"\n{line}")


TINY = dict(image_h=16, image_w=16, patch_size=4, dim_vision=16,
            vision_layers=1, dim_language=16, language_layers=1,
            max_tokens=6, vocab_size=15, dim_fusion=16, fusion_layers=2,
            heads=2)

OVERFIT_MODEL = dict(image_h=64, image_w=64, patch_size=8,
                     dim_vision=64, vision_layers=2,
                     dim_language=64, language_layers=2,
                     max_tokens=20, vocab_size=15,
                     dim_fusion=64, fusion_layers=2, heads=4,
                     fusion_variant="cme")

OVERFIT_TRAIN = dict(base_lr=5e-4, warmup_iters=100, total_iters=3000,
                     batch_size=8, seed=3, eval_every=100, log_every=100,
                     tau=0.8, lam=0.5)


@pytest.fixture(scope="module")
def overfit_run():
    cfg = ModelConfig(**OVERFIT_MODEL)
    dataset = generate(seed=7, count=16, h=64, w=64)
    params = init_model(np.random.default_rng(1), cfg)
    t0 = time.time()
    result = train(params, cfg, TrainConfig(**OVERFIT_TRAIN), dataset.samples,
                   stop_at_iou=0.90)
    elapsed = time.time() - t0
    return cfg, params, dataset, result, elapsed


@pytest.fixture(scope="module")
def quality_record(tmp_path_factory):
    """The slow criteria's results, written as JSON to ``quality.json`` in
    pytest's base temporary directory (``--basetemp``) when the module ends,
    passed or failed, so a run can be compared before and after a change."""
    record: dict = {}
    yield record
    if record:
        path = tmp_path_factory.getbasetemp() / "quality.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def test_a1_autodiff_ops_pass_finite_differences():
    t0 = time.time()
    rep = check_all_ops()
    elapsed = time.time() - t0
    assert rep.tol == 1e-4
    assert rep.passed, f"\n{rep}"
    assert elapsed < 120.0
    report(f"A1 PASS - {len(rep.errors)} ops x 5 seeds, "
           f"max rel err {rep.max_rel_err:.2e} <= 1e-4, {elapsed:.1f}s < 120s")


def test_a2_end_to_end_gradient_at_tiny_config():
    rep = check_model_gradients()
    assert rep.tol == 1e-3 and len(rep.errors) == 50
    assert rep.passed, f"\n{rep}"
    report(f"A2 PASS - 50 sampled parameters, "
           f"max rel err {rep.max_rel_err:.2e} <= 1e-3")


def test_a3_equation_oracles():
    # Patch labels (Eq. 11) against brute-force pixel counting, 1000 masks.
    rng = np.random.default_rng(0)
    p = 4
    for trial in range(1000):
        mask = (rng.uniform(size=(16, 16, 1))
                < rng.uniform(0.2, 0.95)).astype(float)
        got = patch_labels(mask, p, 0.8)
        want = []
        for r in range(0, 16, p):
            for c in range(0, 16, p):
                count = int(mask[r:r + p, c:c + p, 0].sum())
                want.append(1.0 if count / (p * p) > 0.8 else 0.0)
        npt.assert_array_equal(got, np.array(want)[:, None])
    boundary = np.zeros((4, 4, 1))
    boundary.flat[:13] = 1.0
    assert patch_labels(boundary, 4, 0.8)[0, 0] == 1.0  # 13/16 = .8125 > .8
    boundary.flat[12] = 0.0
    assert patch_labels(boundary, 4, 0.8)[0, 0] == 0.0  # 12/16 = .75

    # Eq. 9 on zero features is exactly one half.
    logits = patch_predict(Tensor(np.zeros((5, 16))),
                           Tensor(np.random.default_rng(1).standard_normal((1, 16))))
    npt.assert_array_equal(T.sigmoid(logits).data, np.full((5, 1), 0.5))

    # Eq. 10 equals row scaling elementwise.
    z = np.random.default_rng(2).standard_normal((6, 8))
    gate = np.random.default_rng(3).uniform(size=(6, 1))
    npt.assert_array_equal(mask_features(Tensor(z), Tensor(gate)).data, z * gate)

    # Attention rows and probe segments sum to one.
    cfg = ModelConfig(**{**TINY, "fusion_variant": "vme"})
    params = init_model(np.random.default_rng(4), cfg)
    rng2 = np.random.default_rng(5)
    pv, pl = project(vision_encode(rng2.uniform(size=(1, 16, 16, 3)), params.vision, cfg),
                     language_encode([[2, 3]], params.language, cfg), params.fusion)
    with T.attention_maps() as maps:
        fuse(pv, pl, params.fusion)
    for attn in maps:  # one (batch, heads, n, n) array per block
        npt.assert_allclose(attn.sum(axis=-1), np.ones(attn.shape[:-1]),
                            atol=1e-6)
    stats = attention_probe(params, cfg,
                            [(rng2.uniform(size=(16, 16, 3)), [2, 3, 4])])
    for layer in stats.layers:
        assert abs(layer.a_v + layer.a_l + layer.a_self - 1.0) <= 1e-6
    report("A3 PASS - Eq.11 oracle x1000 exact (incl. 13/16 vs 12/16), "
           "Eq.9 zero -> 0.5, Eq.10 row scaling, attention sums within 1e-6")


def test_a4_shape_and_topology_contracts():
    cfg16 = ModelConfig(image_h=32, image_w=32, patch_size=16,
                        dim_vision=16, dim_language=16, dim_fusion=16,
                        vision_layers=1, language_layers=1, max_tokens=5,
                        fusion_layers=2, heads=2)
    assert cfg16.decoder_blocks == 4
    chain = decoder_channel_chain(cfg16)
    assert chain == [32, 16, 8, 4, 2]  # 2D down to D/8
    assert chain[-1] == 2 * cfg16.dim_fusion // 2 ** 4

    cfg = ModelConfig(**{**TINY, "fusion_variant": "ime"})
    fparams = init_fusion(np.random.default_rng(0), cfg)
    rng = np.random.default_rng(1)
    z_l = Tensor(rng.standard_normal((cfg.max_tokens, cfg.dim_fusion)))
    seeds = []
    for _ in range(3):
        z_v = Tensor(rng.standard_normal((cfg.n_patches, cfg.dim_fusion)))
        seeds.append(fuse(z_v, z_l, fparams)[1].data)
    npt.assert_array_equal(seeds[0], seeds[1])
    npt.assert_array_equal(seeds[0], seeds[2])

    cfg_v = ModelConfig(**{**TINY, "fusion_variant": "vme"})
    vparams = init_fusion(np.random.default_rng(2), cfg_v)
    with T.attention_maps() as maps:
        fuse(Tensor(rng.standard_normal((cfg_v.n_patches, cfg_v.dim_fusion))),
             Tensor(rng.standard_normal((cfg_v.max_tokens, cfg_v.dim_fusion))),
             vparams)
    n = cfg_v.n_patches + cfg_v.max_tokens + 1
    assert all(attn.shape == (n, n) for heads in maps for attn in heads)
    report(f"A4 PASS - P=16 decoder: K=4, chain {chain}; IME seed exactly "
           f"visual-invariant; VME sequence length {n} = N_v+N_l+1")


@pytest.mark.slow
def test_a5_overfit_reaches_iou(overfit_run, quality_record):
    cfg, params, dataset, result, elapsed = overfit_run
    final = evaluate_model(params, cfg, dataset.samples)
    quality_record["a5"] = {
        "iterations_to_0.90": result.stopped_at,  # None: not reached
        "eval_every": OVERFIT_TRAIN["eval_every"],  # the granularity of that count
        "wall_minutes": round(elapsed / 60, 2),
        "cumulative_iou": final.cumulative_iou,
        "prec_at": {f"{t:.1f}": v for t, v in sorted(final.prec.items())},
    }
    assert result.final_iou is not None
    assert result.final_iou >= 0.90
    iterations = result.stopped_at or OVERFIT_TRAIN["total_iters"]
    assert iterations <= 3000
    assert elapsed <= 900.0
    report(f"A5 PASS - cumulative IoU {result.final_iou:.4f} >= 0.90 at "
           f"iteration {iterations} <= 3000, {elapsed / 60:.1f} min <= 15 min "
           f"(seeded: data 7, init 1, schedule 3)")


@pytest.mark.slow
def test_a6_expression_sensitivity(overfit_run, quality_record):
    cfg, params, dataset, _, _ = overfit_run
    by_image: dict = {}
    for s in dataset.samples:
        by_image.setdefault(s.image.tobytes(), []).append(s)
    pairs = [group for group in by_image.values() if len(group) >= 2]
    assert pairs, "overfit dataset must carry expression pairs per image"

    cross_ious, own_ious = [], []
    for group in pairs:
        masks = predicted_masks(params, cfg, group)
        for m, s in zip(masks, group):
            own_ious.append(sample_iou(m, s.mask[:, :, 0].astype(np.uint8)))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                cross_ious.append(sample_iou(masks[i], masks[j]))
    mean_cross = float(np.mean(cross_ious))
    mean_own = float(np.mean(own_ious))
    quality_record["a6"] = {"own_ground_truth_iou": mean_own,
                            "cross_expression_iou": mean_cross}
    assert mean_cross <= 0.5
    assert mean_own >= 0.8
    report(f"A6 PASS - mean cross-expression IoU {mean_cross:.3f} <= 0.5, "
           f"mean own-ground-truth IoU {mean_own:.3f} >= 0.8 "
           f"({len(pairs)} image pairs)")


def test_a7_profiler_structure():
    checked = 0
    for kw in (dict(), dict(fusion_layers=4),
               dict(image_h=32, image_w=32, max_tokens=12),
               dict(heads=4, dim_fusion=32, dim_vision=32, dim_language=32)):
        cfg = ModelConfig(**{**TINY, **kw})
        counts = {v: profile(v, cfg) for v in FusionVariant}
        assert (counts[FusionVariant.VME].param_count
                == counts[FusionVariant.IME].param_count
                == counts[FusionVariant.CME].param_count)
        assert counts[FusionVariant.VME].mac_count > counts[FusionVariant.CME].mac_count
        assert counts[FusionVariant.CME].mac_count == counts[FusionVariant.IME].mac_count
        checked += 1
    cfg4 = ModelConfig(**{**TINY, "fusion_layers": 4})
    assert profile(FusionVariant.CME_SHARED, cfg4).param_count * 2 == \
        profile(FusionVariant.CME, cfg4).param_count

    # Instrumented multiply counter agrees exactly at the toy geometry.
    for variant in FusionVariant:
        cfg = ModelConfig(**{**TINY, "max_tokens": 5,
                             "fusion_variant": variant.value})
        fparams = init_fusion(np.random.default_rng(0), cfg)
        rng = np.random.default_rng(1)
        z_v = Tensor(rng.standard_normal((cfg.n_patches, cfg.dim_fusion)))
        z_l = Tensor(rng.standard_normal((cfg.max_tokens, cfg.dim_fusion)))
        with T.no_grad(), T.count_macs() as counter:
            fuse(z_v, z_l, fparams)
        assert counter.macs == profile(variant, cfg).mac_count, variant
    report(f"A7 PASS - params equal across VME/IME/CME over {checked} configs, "
           f"MAC ordering VME > CME = IME, CME_SHARED exactly half at 4 layers, "
           f"instrumented counts exact for all 4 variants")


def test_a8_attention_bias_at_reference_geometry():
    cfg = ModelConfig(image_h=480, image_w=480, patch_size=16,
                      dim_vision=16, vision_layers=1,
                      dim_language=16, language_layers=1,
                      max_tokens=20, vocab_size=15,
                      dim_fusion=16, fusion_layers=2, heads=2,
                      fusion_variant="vme")
    assert cfg.n_patches == 900
    params = init_model(np.random.default_rng(0), cfg)
    rng = np.random.default_rng(1)
    samples = [(rng.uniform(size=(480, 480, 3)),
                [int(v) for v in rng.integers(2, 15, size=5)])]
    stats = attention_probe(params, cfg, samples)
    uniform_share = 900 / 921  # 97.72%
    a_v = stats.layers[0].a_v
    assert a_v is not None
    assert abs(a_v - uniform_share) <= 0.05
    report(f"A8 PASS - untrained VME at N_v=900/N_l=20: layer-1 a_v "
           f"{100 * a_v:.2f}% within 5 points of uniform 97.72%")


def test_a9_metric_correctness():
    pred = np.zeros((4, 4), dtype=np.uint8)
    pred[0:2, 0:2] = 1
    gt = np.zeros((4, 4), dtype=np.uint8)
    gt[1:3, 0:2] = 1
    assert intersection_union(pred, gt) == (2, 6)
    npt.assert_allclose(cumulative_iou([pred], [gt]), 1 / 3)

    rng = np.random.default_rng(0)
    for _ in range(20):
        ious = rng.uniform(size=rng.integers(1, 30)).tolist()
        values = [prec_at(ious, t) for t in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    buckets = parse_buckets("1-2,3,4-5,6-20")
    assert buckets == [(1, 2), (3, 3), (4, 5), (6, 20)]
    lengths = rng.integers(1, 21, 40).tolist()
    ius = [(int(i), int(i + u)) for i, u in
           zip(rng.integers(0, 6, 40), rng.integers(1, 6, 40))]
    from restr.metrics import bucket_by_length
    table = bucket_by_length(lengths, ius, buckets)
    # reconstruction: bucket sums give back the overall ratio exactly
    num = den = 0
    for b in table:
        bi = sum(i for ln, (i, u) in zip(lengths, ius) if b[0] <= ln <= b[1])
        bu = sum(u for ln, (i, u) in zip(lengths, ius) if b[0] <= ln <= b[1])
        assert table[b] == bi / bu
        num += bi
        den += bu
    assert (num, den) == (sum(i for i, _ in ius), sum(u for _, u in ius))
    report("A9 PASS - hand-counted cumulative IoU (2/6 -> 1/3), Prec@X "
           "non-increasing x20, bucket scheme 1-2/3/4-5/6-20 verbatim, "
           "bucket reconstruction exact")


def test_a10_persistence_and_determinism(tmp_path):
    flags = ["--patch_size", "4", "--dim_vision", "16", "--dim_language", "16",
             "--dim_fusion", "16", "--vision_layers", "1",
             "--language_layers", "1", "--fusion_layers", "2", "--heads", "2",
             "--max_tokens", "8", "--base_lr", "1e-4", "--warmup_iters", "2",
             "--batch_size", "4", "--seed", "5", "--log_every", "1"]
    data_dir = tmp_path / "ds"
    assert main(["gen", "--seed", "3", "--count", "8", "--size", "32",
                 "--out", str(data_dir)]) == 0

    # identical seeds -> identical logs, identical eval reports
    logs, reports = [], []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--data", str(data_dir), "--out", str(out),
                     "--quiet", "--total_iters", "4", *flags]) == 0
        logs.append((out / "train_log.csv").read_bytes())
        ev = tmp_path / f"{name}_eval"
        assert main(["eval", "--ckpt", str(out / "checkpoint.rstr"),
                     "--data", str(data_dir), "--out", str(ev)]) == 0
        reports.append((ev / "report.csv").read_bytes())
    assert logs[0] == logs[1]
    assert reports[0] == reports[1]

    # checkpoint round trip within float32 rounding
    from restr.checkpoint import load_checkpoint, save_checkpoint
    cfg, params, _ = load_checkpoint(tmp_path / "r1" / "checkpoint.rstr")
    save_checkpoint(tmp_path / "again.rstr", cfg, params)
    cfg2, params2, _ = load_checkpoint(tmp_path / "again.rstr")
    max_rel = 0.0
    for (_, t1), (_, t2) in zip(params.named_parameters(),
                                      params2.named_parameters()):
        denom = np.maximum(np.abs(t1.data), 1e-12)
        max_rel = max(max_rel, float((np.abs(t1.data - t2.data) / denom).max()))
    assert max_rel <= 1e-6

    # resume equivalence within float32 rounding
    full = tmp_path / "full"
    assert main(["train", "--data", str(data_dir), "--out", str(full),
                 "--quiet", "--total_iters", "6", *flags]) == 0
    part = tmp_path / "part"
    assert main(["train", "--data", str(data_dir), "--out", str(part),
                 "--quiet", "--total_iters", "6", "--stop-after", "3", *flags]) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--data", str(data_dir), "--out", str(resumed),
                 "--quiet", "--resume", str(part / "checkpoint.rstr"),
                 "--total_iters", "6", *flags]) == 0

    def losses(path):
        with open(path / "train_log.csv") as fh:
            return {int(r["iter"]): float(r["loss_total"])
                    for r in csv.DictReader(fh)}

    full_losses, resumed_losses = losses(full), losses(resumed)
    rel = abs(full_losses[4] - resumed_losses[4]) / abs(full_losses[4])
    assert rel < 1e-4
    report(f"A10 PASS - checkpoint round trip rel err {max_rel:.2e} <= 1e-6, "
           f"resume next-step loss rel diff {rel:.2e}, identical seeds give "
           f"byte-identical logs and eval reports")
