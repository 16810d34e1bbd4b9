"""Training pipeline: patch labels, loss, LR schedule, AdamW, loop determinism."""

import dataclasses
import math
import tracemalloc

import numpy as np

import restr.tensor as T
import numpy.testing as npt
import pytest

from restr.data import VOCABULARY, generate
from restr.decoder import forward, init_model
from restr.encoders import ModelConfig, patchify
from restr.metrics import cumulative_iou, predicted_masks
from restr.tensor import Tensor
from restr.training import (AdamW, NonFiniteLossError, TrainConfig, batch_indices,
                            decays, lr_at, patch_labels, segmentation_loss, train)
from restr.transformer import ConfigError

from conftest import A5, A8, run_with_blas_threads


def brute_force_patch_labels(mask, p, tau):
    h, w = mask.shape[:2]
    labels = []
    for r in range(0, h, p):
        for c in range(0, w, p):
            count = 0
            for i in range(p):
                for j in range(p):
                    count += mask[r + i, c + j, 0] != 0
            labels.append(1.0 if count / (p * p) > tau else 0.0)
    return np.array(labels)[:, None]


class TestPatchLabels:
    def test_full_patch_is_positive(self):
        mask = np.ones((4, 4, 1))
        npt.assert_array_equal(patch_labels(mask, 4, 0.8), [[1.0]])

    def test_boundary_13_vs_12_of_16(self):
        mask = np.zeros((4, 4, 1))
        mask.flat[:13] = 1.0  # 13/16 = 0.8125 > 0.8
        npt.assert_array_equal(patch_labels(mask, 4, 0.8), [[1.0]])
        mask.flat[12] = 0.0  # 12/16 = 0.75 <= 0.8
        npt.assert_array_equal(patch_labels(mask, 4, 0.8), [[0.0]])

    def test_exact_tau_is_negative(self):
        mask = np.zeros((4, 4, 1))
        mask.flat[:8] = 1.0  # exactly 0.5
        npt.assert_array_equal(patch_labels(mask, 4, 0.5), [[0.0]])

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mask = (rng.uniform(size=(8, 8, 1)) < rng.uniform(0.3, 0.95)).astype(float)
            npt.assert_array_equal(patch_labels(mask, 4, 0.8),
                                   brute_force_patch_labels(mask, 4, 0.8))

    def test_order_matches_patchify(self):
        mask = np.zeros((8, 8, 1))
        mask[0:4, 4:8] = 1.0  # second patch in row-major patch order
        npt.assert_array_equal(patch_labels(mask, 4, 0.8),
                               [[0.0], [1.0], [0.0], [0.0]])
        assert patchify(mask, 4)[1].mean() == 1.0

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError):
            patch_labels(np.full((4, 4, 1), 0.5), 4, 0.8)


class TestLoss:
    def _pred(self, patch, pixel_logit, cfg):
        return type("P", (), {
            "patch_logits": Tensor(np.full((cfg.n_patches, 1), patch)),
            "pixel_logits": Tensor(np.full((cfg.image_h, cfg.image_w, 1),
                                           pixel_logit)),
        })()

    def test_lambda_zero_keeps_pixel_term_only(self):
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4, dim_fusion=16,
                          dim_vision=16, dim_language=16, vision_layers=1,
                          language_layers=1, fusion_layers=2, heads=2)
        pred = self._pred(2.2, 0.0, cfg)
        y_p = np.ones((cfg.n_patches, 1))
        mask = np.ones((16, 16, 1))
        total, _, pixel = segmentation_loss(pred, y_p, mask, lam=0.0)
        npt.assert_allclose(total.item(), pixel.item())

    def test_symmetric_half_predictions_analytic(self):
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4, dim_fusion=16,
                          dim_vision=16, dim_language=16, vision_layers=1,
                          language_layers=1, fusion_layers=2, heads=2)
        pred = self._pred(0.0, 0.0, cfg)  # sigmoid(0) = 0.5 on both sides
        y_p = (np.random.default_rng(1).uniform(size=(cfg.n_patches, 1)) < 0.5
               ).astype(float)
        mask = (np.random.default_rng(2).uniform(size=(16, 16, 1)) < 0.5).astype(float)
        total, _, _ = segmentation_loss(pred, y_p, mask, lam=0.1)
        npt.assert_allclose(total.item(), 1.1 * math.log(2), rtol=1e-12)

    def test_perfect_prediction_near_zero(self):
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4, dim_fusion=16,
                          dim_vision=16, dim_language=16, vision_layers=1,
                          language_layers=1, fusion_layers=2, heads=2)
        y_p = np.ones((cfg.n_patches, 1))
        mask = np.ones((16, 16, 1))
        pred = type("P", (), {
            "patch_logits": Tensor(80.0 * y_p - 40.0),
            "pixel_logits": Tensor(np.full((16, 16, 1), 40.0)),
        })()
        total, _, _ = segmentation_loss(pred, y_p, mask, lam=0.1)
        assert 0.0 <= total.item() < 1e-6

    def test_confident_wrong_pixel_keeps_its_gradient(self):
        # A background pixel at logit 20: sigmoid(20) lies past the former
        # probability clip's 1 - 1e-7, which gave it exactly zero gradient.
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4, dim_fusion=16,
                          dim_vision=16, dim_language=16, vision_layers=1,
                          language_layers=1, fusion_layers=2, heads=2)
        pred = self._pred(0.0, 0.0, cfg)
        pred.pixel_logits = Tensor(np.zeros((16, 16, 1)), requires_grad=True)
        pred.pixel_logits.data[3, 5, 0] = 20.0
        mask = np.ones((16, 16, 1))
        mask[3, 5, 0] = 0.0
        total, _, _ = segmentation_loss(pred, np.ones((cfg.n_patches, 1)), mask, lam=0.1)
        T.backward(total)
        grad = pred.pixel_logits.grad[3, 5, 0]
        npt.assert_allclose(grad, 1.0 / (1.0 + math.exp(-20.0)) / 256, rtol=1e-12)


class TestLrSchedule:
    def _cfg(self, **kw):
        base = dict(base_lr=1e-3, warmup_iters=100, total_iters=1100)
        base.update(kw)
        return TrainConfig(**base)

    def test_ramp_endpoints(self):
        cfg = self._cfg()
        assert lr_at(0, cfg) == 0.0
        npt.assert_allclose(lr_at(100, cfg), 1e-3)

    def test_decay_endpoint(self):
        cfg = self._cfg()
        assert lr_at(1100, cfg) == 0.0

    def test_midpoint_analytic(self):
        cfg = self._cfg()
        npt.assert_allclose(lr_at(600, cfg), 1e-3 * 0.5 ** 0.9, rtol=1e-12)

    def test_continuity_at_junction(self):
        cfg = self._cfg()
        npt.assert_allclose(lr_at(101, cfg), 1e-3, rtol=2e-3)

    def test_warmup_not_exceeding_total(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_iters=10, total_iters=5)


class TestTrainConfig:
    @pytest.mark.parametrize("key,value", [
        ("base_lr", math.nan), ("base_lr", math.inf), ("base_lr", -1e-5),
        ("weight_decay", -1.0), ("weight_decay", math.nan), ("lam", math.nan),
        ("lam", math.inf), ("total_iters", 0), ("log_every", 0), ("warmup_iters", -1),
        ("eval_every", -1)])
    def test_malformed_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must"):
            TrainConfig(**{key: value})

    def test_range_edges_accepted(self):
        TrainConfig(base_lr=0.0, weight_decay=0.0, lam=0.0, warmup_iters=0, total_iters=1,
                    eval_every=0, log_every=1)


class TestAdamW:
    def test_zero_grad_zero_decay_fixed_point(self):
        t = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        opt = AdamW([("w", t)], TrainConfig(weight_decay=0.0))
        t.grad = np.zeros((1, 2))
        opt.step(1e-3)
        npt.assert_array_equal(t.data, [[1.0, -2.0]])

    def test_first_step_is_signed_lr(self):
        t = Tensor(np.array([0.0]), requires_grad=True)
        opt = AdamW([("w", t)], TrainConfig(weight_decay=0.0))
        t.grad = np.array([0.37])
        opt.step(1e-2)
        npt.assert_allclose(t.data, [-1e-2 * 0.37 / (0.37 + 1e-8)], rtol=1e-9)

    def test_quadratic_convergence(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        cfg = TrainConfig(weight_decay=0.0, total_iters=2000)
        opt = AdamW([("w", t)], cfg)
        for _ in range(2000):
            t.grad = 2.0 * t.data  # d/dx x^2
            opt.step(5e-3)
        assert abs(t.data[0]) <= 1e-3

    def test_decay_flag_respected(self):
        decayed = Tensor(np.array([1.0]), requires_grad=True)
        exempt = Tensor(np.array([1.0]), requires_grad=True)
        cfg = TrainConfig(weight_decay=0.1)
        opt = AdamW([("w", decayed), ("b", exempt)], cfg)
        decayed.grad = np.array([0.0])
        exempt.grad = np.array([0.0])
        opt.step(1.0)
        assert decayed.data[0] == 0.9
        assert exempt.data[0] == 1.0

    def test_decay_rule(self):
        exempt = ["vision.pos", "fusion.seed", "vision.patch.b",
                  "vision.stack.blocks.0.b_qkv", "language.stack.blocks.1.mlp.b2",
                  "decoder.final.b", "vision.stack.blocks.0.ln1.gain",
                  "language.stack.blocks.0.ln2.bias", "fusion.stack_a.ln_f.gain",
                  "fusion.proj_l.ln.bias"]
        decayed = ["vision.patch.w", "vision.stack.blocks.0.w_qkv",
                   "fusion.stack_b.blocks.0.w_out", "language.stack.blocks.1.mlp.w1",
                   "fusion.proj_v.w", "decoder.blocks.2.w", "language.embed"]
        assert not any(decays(n) for n in exempt)
        assert all(decays(n) for n in decayed)
        names = [n for n, _ in init_model(np.random.default_rng(0),
                                          ModelConfig(**A5)).named_parameters()]
        assert (len(names), sum(map(decays, names))) == (95, 32)

    def test_zero_lr_changes_nothing(self):
        rng = np.random.default_rng(3)
        t = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        before = t.data.copy()
        opt = AdamW([("w", t)], TrainConfig())
        t.grad = rng.standard_normal((3, 3))
        opt.step(0.0)
        npt.assert_array_equal(t.data, before)

    def test_state_round_trip(self):
        rng = np.random.default_rng(4)
        t = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        cfg = TrainConfig()
        opt = AdamW([("w", t)], cfg)
        t.grad = rng.standard_normal((2, 2))
        opt.step(1e-3)
        opt2 = AdamW([("w", t)], cfg)
        opt2.load_state(opt.state())
        assert opt2.step_count == 1
        npt.assert_array_equal(opt2.m[0], opt.m[0])

    def test_load_state_rejects_short_v(self):
        # a short v used to load, and the next step never updated the last parameter
        params = [(name, Tensor(np.zeros(2), requires_grad=True)) for name in ("w", "b")]
        opt = AdamW(params, TrainConfig())
        state = opt.state()
        with pytest.raises(ValueError, match="does not match"):
            opt.load_state({**state, "v": state["v"][:1]})


class TestBatchSchedule:
    def test_pure_function_of_iteration(self):
        a = batch_indices(7, 16, 8, seed=3)
        b = batch_indices(7, 16, 8, seed=3)
        npt.assert_array_equal(a, b)

    def test_epoch_covers_dataset(self):
        seen = np.concatenate([batch_indices(1, 16, 8, 0), batch_indices(2, 16, 8, 0)])
        assert sorted(seen.tolist()) == list(range(16))

    def test_epochs_differ(self):
        e0 = np.concatenate([batch_indices(1, 16, 8, 0), batch_indices(2, 16, 8, 0)])
        e1 = np.concatenate([batch_indices(3, 16, 8, 0), batch_indices(4, 16, 8, 0)])
        assert not np.array_equal(e0, e1)


@pytest.fixture(scope="module")
def setup():
    cfg = ModelConfig(image_h=32, image_w=32, patch_size=4,
                      dim_vision=16, vision_layers=1,
                      dim_language=16, language_layers=1,
                      max_tokens=8, vocab_size=15,
                      dim_fusion=16, fusion_layers=2, heads=2)
    ds = generate(seed=5, count=4, h=32, w=32)
    return cfg, ds


class TestTrainLoop:
    def test_identical_seeds_identical_curves(self, setup):
        cfg, ds = setup
        tc = TrainConfig(base_lr=1e-4, warmup_iters=2, total_iters=6,
                         batch_size=2, seed=11)
        runs = []
        for _ in range(2):
            params = init_model(np.random.default_rng(1), cfg)
            res = train(params, cfg, tc, ds.samples)
            runs.append([(r.loss_total, r.loss_patch, r.loss_pixel) for r in res.rows])
        assert runs[0] == runs[1]

    def test_initial_loss_near_symmetric_value(self, setup):
        cfg, ds = setup
        params = init_model(np.random.default_rng(2), cfg)
        sample = ds.samples[0]
        pred = forward(np.asarray(sample.image)[None], [sample.token_ids], params, cfg)
        y_p = patch_labels(np.asarray(sample.mask), cfg.patch_size, 0.8)[None]
        total, _, _ = segmentation_loss(pred, y_p, np.asarray(sample.mask), lam=0.1)
        expected = 1.1 * math.log(2)
        assert abs(total.item() - expected) / expected < 0.20

    def test_empty_dataset_rejected(self, setup):
        cfg, _ = setup
        params = init_model(np.random.default_rng(3), cfg)
        with pytest.raises(ValueError):
            train(params, cfg, TrainConfig(total_iters=1), [])

    def test_loss_decreases_on_tiny_overfit(self, setup):
        cfg, ds = setup
        params = init_model(np.random.default_rng(4), cfg)
        tc = TrainConfig(base_lr=5e-4, warmup_iters=5, total_iters=40,
                         batch_size=4, seed=12)
        res = train(params, cfg, tc, ds.samples)
        first = np.mean([r.loss_total for r in res.rows[:5]])
        last = np.mean([r.loss_total for r in res.rows[-5:]])
        assert last < first

    def test_periodic_eval_covers_long_expressions(self, setup):
        # 21 tokens: past max_tokens and past the default report buckets
        cfg, ds = setup
        params = init_model(np.random.default_rng(5), cfg)
        samples = [dataclasses.replace(ds.samples[0], token_ids=[2] * 21),
                   *ds.samples[1:]]
        tc = TrainConfig(base_lr=1e-4, warmup_iters=1, total_iters=2,
                         batch_size=2, seed=13, eval_every=1)
        with pytest.warns(UserWarning, match="truncated"):
            res = train(params, cfg, tc, samples)
            masks = predicted_masks(params, cfg, samples)
        assert [r.iteration for r in res.rows if r.eval_iou is not None] == [1, 2]
        gts = [np.asarray(s.mask)[:, :, 0] for s in samples]
        assert res.rows[-1].eval_iou == res.final_iou == cumulative_iou(masks, gts)

    @pytest.mark.parametrize("eval_every,stop_at_iou,message", [
        (0, 0.9, "needs periodic evaluation"), (1, math.nan, "must lie in"),
        (1, 0.0, "must lie in"), (1, 1.5, "must lie in")])
    def test_unreachable_stop_at_iou_rejected(self, setup, eval_every, stop_at_iou,
                                              message):
        # each of these used to train to total_iters without stopping or warning
        cfg, ds = setup
        params = init_model(np.random.default_rng(6), cfg)
        tc = TrainConfig(warmup_iters=0, total_iters=1, batch_size=2,
                         eval_every=eval_every)
        with pytest.raises(ValueError, match=message):
            train(params, cfg, tc, ds.samples, stop_at_iou=stop_at_iou)

    @pytest.mark.parametrize("stop_after", [0, -2])
    def test_stop_after_below_one_rejected(self, setup, stop_after):
        # these used to return without a step and leave the model untrained
        cfg, ds = setup
        params = init_model(np.random.default_rng(6), cfg)
        tc = TrainConfig(warmup_iters=0, total_iters=1, batch_size=2)
        with pytest.raises(ValueError, match=f"stop_after must be >= 1, got {stop_after}"):
            train(params, cfg, tc, ds.samples, stop_after=stop_after)


class TestTrainLog:
    def test_norm_time_and_throughput(self, setup, tmp_path):
        cfg, ds = setup
        params = init_model(np.random.default_rng(6), cfg)
        tc = TrainConfig(base_lr=1e-4, warmup_iters=1, total_iters=3,
                         batch_size=2, seed=14)
        res = train(params, cfg, tc, ds.samples)
        for r in res.rows:
            for value in (r.grad_norm, r.wall_ms, r.samples_per_s):
                assert math.isfinite(value) and value > 0
            assert r.samples_per_s == pytest.approx(2e3 / r.wall_ms)
        # the last step leaves its gradients on the parameters
        grads = [t.grad for _, t in params.named_parameters() if t.grad is not None]
        assert res.rows[-1].grad_norm == pytest.approx(
            math.sqrt(sum(float((g * g).sum()) for g in grads)), rel=1e-12)

        res.write_csv(tmp_path / "log.csv")
        res.write_timing_csv(tmp_path / "timing.csv")
        log = (tmp_path / "log.csv").read_text().splitlines()
        timing = (tmp_path / "timing.csv").read_text().splitlines()
        assert log[0] == "iter,lr,loss_total,loss_patch,loss_pixel,grad_norm,eval_iou"
        assert timing[0] == "iter,wall_ms,samples_per_s"
        assert [float(line.split(",")[5]) for line in log[1:]] == \
            [float(f"{r.grad_norm:.10g}") for r in res.rows]
        assert len(timing) == len(log) == 4


class TestNonFiniteLoss:
    @pytest.mark.parametrize("name,term", [("decoder.final.w", "pixel term is nan"),
                                           ("vision.patch.w", "patch term is nan")])
    def test_nan_weight_stops_before_the_step(self, setup, name, term):
        cfg, ds = setup
        params = init_model(np.random.default_rng(6), cfg)
        named = dict(params.named_parameters())

        def poison(row):  # after the step of iteration 2
            if row.iteration == 2:
                named[name].data[0, 0] = np.nan

        tc = TrainConfig(base_lr=1e-4, warmup_iters=1, total_iters=4, batch_size=2, seed=3)
        with pytest.raises(NonFiniteLossError, match=f"iteration 3: {term}"):
            train(params, cfg, tc, ds.samples, on_log=poison)
        before = {n: t.data.copy() for n, t in named.items()}
        with pytest.raises(NonFiniteLossError, match=f"iteration 1: {term}"):
            train(params, cfg, tc, ds.samples)
        for n, t in named.items():  # the failed iteration stepped no weight
            npt.assert_array_equal(t.data, before[n])

    def test_nan_gradient_stops_before_any_write(self, setup):
        # with a finite loss, AdamW used to apply it and the run died one
        # iteration later, blaming the loss
        cfg, _ = setup
        params = init_model(np.random.default_rng(6), cfg)
        opt = AdamW(params.named_parameters(), TrainConfig())
        rng = np.random.default_rng(7)
        for _ in range(2):
            for _, t in params.named_parameters():
                t.grad = rng.standard_normal(t.data.shape)
            opt.step(1e-3)
        named = dict(params.named_parameters())
        named["decoder.final.w"].grad[0, 0] = np.nan
        before = ([t.data.copy() for t in named.values()],
                  [m.copy() for m in opt.m], [v.copy() for v in opt.v])
        with pytest.raises(NonFiniteLossError,
                           match="non-finite gradient at iteration 3: decoder.final.w"):
            opt.step(1e-3)
        assert opt.step_count == 2
        after = ([t.data for t in named.values()], opt.m, opt.v)
        for want, got in zip(before, after):
            for a, b in zip(want, got):
                npt.assert_array_equal(b, a)


class TestBatchInvariance:
    """One graph over a batch is the same math as one graph per sample."""

    CFG = dict(image_h=16, image_w=16, patch_size=4, dim_vision=16,
               vision_layers=1, dim_language=16, language_layers=1,
               max_tokens=6, vocab_size=15, dim_fusion=16, fusion_layers=2,
               heads=2)

    def _batch(self, cfg):
        rng = np.random.default_rng(21)
        images = rng.uniform(size=(4, 16, 16, 3))
        ids = [[2, 3], [4, 5, 6], [7], [8, 9, 10, 11]]
        masks = (rng.uniform(size=(4, 16, 16, 1)) < 0.4).astype(float)
        y_p = np.stack([patch_labels(m, cfg.patch_size, 0.8) for m in masks])
        return images, ids, masks, y_p

    def _loss_and_grads(self, params, cfg, images, ids, masks, y_p):
        named = params.named_parameters()
        for _, t in named:
            t.grad = None
        T.reset_graph()
        total, _, _ = segmentation_loss(forward(images, ids, params, cfg), y_p,
                                        masks, lam=0.1)
        T.backward(total)
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                 for _, t in named]
        return total.item(), grads

    def test_batch_loss_and_gradients_equal_mean_of_single_runs(self):
        cfg = ModelConfig(**self.CFG)
        params = init_model(np.random.default_rng(22), cfg)
        images, ids, masks, y_p = self._batch(cfg)
        loss, grads = self._loss_and_grads(params, cfg, images, ids, masks, y_p)
        singles = [self._loss_and_grads(params, cfg, images[i:i + 1], ids[i:i + 1],
                                        masks[i:i + 1], y_p[i:i + 1])
                   for i in range(4)]
        mean_loss = np.mean([s[0] for s in singles])
        assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
        for (name, _), g, *per_sample in zip(params.named_parameters(), grads,
                                             *[s[1] for s in singles]):
            mean = np.mean(per_sample, axis=0)
            scale = np.abs(mean).max()
            assert np.abs(g - mean).max() <= 1e-12 * scale, name

    def test_logits_do_not_depend_on_batch_mates(self):
        cfg = ModelConfig(**self.CFG)
        params = init_model(np.random.default_rng(23), cfg)
        images, ids, _, _ = self._batch(cfg)
        with T.no_grad():
            alone = forward(images[:1], ids[:1], params, cfg).pixel_logits.data[0]
            for order in ([0, 1, 2, 3], [0, 3], [2, 1, 0]):
                pos = order.index(0)
                batched = forward(images[order], [ids[i] for i in order],
                                  params, cfg).pixel_logits.data[pos]
                npt.assert_allclose(batched, alone, rtol=0, atol=1e-12)


class TestPerSampleDecoder:
    """``train`` decodes each sample on a tape of its own and seeds the
    token-stage backward with the gradients the decoders return: the same
    gradients and losses as one graph over the batch, at a lower peak."""

    TC = dict(base_lr=5e-4, warmup_iters=20, total_iters=3000, seed=0)

    @staticmethod
    def _a5(count):
        cfg = ModelConfig(vocab_size=len(VOCABULARY), **A5)
        return cfg, init_model(np.random.default_rng(0), cfg), generate(5, count, 64, 64).samples

    @staticmethod
    def _one_graph_step(params, cfg, tc, samples, iteration):
        """The batch's loss and gradients from forward + segmentation_loss +
        backward, one graph over the whole batch."""
        batch = [samples[i] for i in batch_indices(iteration, len(samples),
                                                   tc.batch_size, tc.seed)]
        masks = np.stack([s.mask for s in batch])
        y_p = np.stack([patch_labels(m, cfg.patch_size, tc.tau) for m in masks])
        named = params.named_parameters()
        for _, t in named:
            t.grad = None
        T.reset_graph()
        total, _, _ = segmentation_loss(
            forward(np.stack([s.image for s in batch]), [s.token_ids for s in batch],
                    params, cfg), y_p, masks, tc.lam)
        T.backward(total)
        return total.item(), {name: t.grad for name, t in named}

    @pytest.mark.parametrize("count,batch_size,iteration,size",
                             [(16, 8, 1, 8), (10, 4, 3, 2)],
                             ids=["batch8", "partial-last-batch"])
    def test_step_gradients_equal_one_graph(self, count, batch_size, iteration, size):
        cfg, params, samples = self._a5(count)
        tc = TrainConfig(batch_size=batch_size, **self.TC)
        assert len(batch_indices(iteration, count, batch_size, tc.seed)) == size
        loss, want = self._one_graph_step(params, cfg, tc, samples, iteration)
        opt = AdamW(params.named_parameters(), tc)
        opt.step_count = iteration - 1  # train() runs this iteration's batch
        res = train(params, cfg, tc, samples, stop_after=iteration, optimizer=opt)
        assert abs(res.rows[0].loss_total - loss) <= 1e-12 * loss
        for name, t in params.named_parameters():
            scale = np.abs(want[name]).max()
            assert np.abs(t.grad - want[name]).max() <= 1e-12 * scale, name

    def test_losses_of_a_run_equal_one_graph_training(self):
        cfg, params, samples = self._a5(16)
        tc = TrainConfig(batch_size=8, **self.TC)
        res = train(params, cfg, tc, samples, stop_after=20)
        _, params, _ = self._a5(16)
        opt = AdamW(params.named_parameters(), tc)
        want = []
        for iteration in range(1, 21):
            want.append(self._one_graph_step(params, cfg, tc, samples, iteration)[0])
            opt.step(lr_at(iteration, tc))
        got = [r.loss_total for r in res.rows]
        assert len(got) == 20
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * b

    def test_a5_step_peaks_under_36_mib(self):
        # Batch-8 A5: 47.2 MiB with every sample's pixel grids on one tape,
        # about 28 MiB with one sample's at a time.
        cfg, params, samples = self._a5(16)
        tc = TrainConfig(batch_size=8, **self.TC)
        opt = AdamW(params.named_parameters(), tc)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train(params, cfg, tc, samples, stop_after=1, optimizer=opt)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 36 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB at the step's peak"


# The no-grad pixel logits of one model, then every parameter gradient of one
# training step on the batch, as train() makes them, saved to an .npz file.
_OUTPUTS = """
import numpy as np
import restr.tensor as T
from restr.data import VOCABULARY, generate
from restr.decoder import forward, init_model
from restr.encoders import ModelConfig
from restr.training import decoded_backward, patch_labels
cfg = ModelConfig(vocab_size=len(VOCABULARY), **{geometry!r})
params = init_model(np.random.default_rng(0), cfg)
samples = generate(5, {batch}, cfg.image_h, cfg.image_w).samples
images = np.stack([s.image for s in samples])
ids = [s.token_ids for s in samples]
masks = np.stack([s.mask for s in samples])
y_p = np.stack([patch_labels(m, cfg.patch_size, 0.8) for m in masks])
with T.no_grad():
    arrays = {{"logits": forward(images, ids, params, cfg).pixel_logits.data}}
decoded_backward(1, images, ids, y_p, masks, params, cfg, lam=0.1)
arrays.update((name, t.grad) for name, t in params.named_parameters())
np.savez({path!r}, **arrays)
"""


def _outputs_by_blas_threads(tmp_path, geometry, batch):
    """The logits and gradients of ``_OUTPUTS`` under 1 and under 2 BLAS threads."""
    runs = []
    for threads in ("1", "2"):
        path = str(tmp_path / f"threads{threads}.npz")
        run_with_blas_threads(_OUTPUTS.format(geometry=geometry, batch=batch, path=path),
                              threads)
        with np.load(path) as saved:
            runs.append(dict(saved))
    cfg = ModelConfig(vocab_size=len(VOCABULARY), **geometry)
    assert len(runs[0]) == 1 + len(init_model(np.random.default_rng(0), cfg).named_parameters())
    return runs


def test_a5_bits_do_not_depend_on_blas_threads(tmp_path):
    one, two = _outputs_by_blas_threads(tmp_path, A5, batch=8)
    assert one.keys() == two.keys()
    for name in one:
        assert two[name].tobytes() == one[name].tobytes(), name


# The README's contract for outputs under different BLAS thread counts: each
# array moves by at most this fraction of its largest magnitude. Measured at
# A8, batch 2: 6.9e-16 on the logits and at most 2.5e-15 on a gradient.
BLAS_THREAD_RTOL = 1e-12


def test_a8_outputs_within_blas_thread_tolerance(tmp_path):
    # At A8 the 900-token attention GEMMs change bits with the thread count,
    # so only the relative tolerance holds.
    one, two = _outputs_by_blas_threads(tmp_path, A8, batch=2)
    assert one.keys() == two.keys()
    for name in one:
        scale = np.abs(one[name]).max()
        assert np.abs(two[name] - one[name]).max() <= BLAS_THREAD_RTOL * scale, name
