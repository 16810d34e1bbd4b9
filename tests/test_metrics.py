"""Evaluation metrics: cumulative IoU, Prec@X, length buckets, and the
chunked prediction path."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restr import decoder, metrics
from restr.data import VOCABULARY, generate
from restr.decoder import init_model
from restr.encoders import ModelConfig
from restr.metrics import (binarize, bucket_by_length, cumulative_iou,
                           evaluate_model, intersection_union, parse_buckets,
                           predicted_masks, prec_at, EvalReport)

from conftest import A5, A8, sample_iou


def block_mask(h, w, r0, c0, r1, c1):
    m = np.zeros((h, w), dtype=np.uint8)
    m[r0:r1, c0:c1] = 1
    return m


class TestBinarize:
    def test_zero_logits_count_as_foreground(self):
        npt.assert_array_equal(binarize(np.zeros((2, 2, 1))), np.ones((2, 2)))

    def test_large_negative_is_empty(self):
        npt.assert_array_equal(binarize(np.full((3, 3), -40.0)), np.zeros((3, 3)))

    def test_sign_split(self):
        out = binarize(np.array([[-0.1, 0.1], [0.0, -5.0]]))
        npt.assert_array_equal(out, [[0, 1], [1, 0]])


class TestCumulativeIou:
    def test_perfect_prediction(self):
        masks = [block_mask(4, 4, 0, 0, 2, 2), block_mask(4, 4, 1, 1, 4, 4)]
        assert cumulative_iou(masks, masks) == 1.0

    def test_hand_counted_single_sample(self):
        pred = block_mask(6, 6, 0, 0, 2, 2)
        gt = block_mask(6, 6, 1, 0, 3, 2)  # overlap 2, union 6
        assert intersection_union(pred, gt) == (2, 6)
        npt.assert_allclose(cumulative_iou([pred], [gt]), 1 / 3)

    def test_cumulative_differs_from_mean(self):
        # (I=2,U=2) and (I=0,U=4): cumulative 2/6, mean (1 + 0)/2
        a_pred = block_mask(4, 4, 0, 0, 1, 2)
        a_gt = a_pred.copy()
        b_pred = block_mask(4, 4, 0, 0, 1, 2)
        b_gt = block_mask(4, 4, 2, 2, 3, 4)
        cum = cumulative_iou([a_pred, b_pred], [a_gt, b_gt])
        npt.assert_allclose(cum, 2 / 6)
        mean = np.mean([sample_iou(a_pred, a_gt), sample_iou(b_pred, b_gt)])
        npt.assert_allclose(mean, 0.5)
        assert cum != mean

    def test_disjoint_prediction_is_zero(self):
        pred = block_mask(4, 4, 0, 0, 2, 2)
        gt = block_mask(4, 4, 2, 2, 4, 4)
        assert cumulative_iou([pred], [gt]) == 0.0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        preds = [rng.integers(0, 2, (5, 5)).astype(np.uint8) for _ in range(6)]
        gts = [rng.integers(0, 2, (5, 5)).astype(np.uint8) for _ in range(6)]
        forward_order = cumulative_iou(preds, gts)
        perm = rng.permutation(6)
        shuffled = cumulative_iou([preds[i] for i in perm], [gts[i] for i in perm])
        assert forward_order == shuffled

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            cumulative_iou([], [])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            intersection_union(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_empty_vs_empty_sample_conventions(self):
        empty = np.zeros((3, 3), dtype=np.uint8)
        assert sample_iou(empty, empty) == 1.0
        assert intersection_union(empty, empty) == (0, 0)


class TestPrecAt:
    def test_all_perfect(self):
        for t in (0.5, 0.6, 0.7, 0.8, 0.9):
            assert prec_at([1.0, 1.0, 1.0], t) == 1.0

    def test_direct_count(self):
        assert prec_at([0.55, 0.45], 0.5) == 0.5

    def test_threshold_inclusive(self):
        assert prec_at([0.5], 0.5) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
    def test_non_increasing_in_threshold(self, ious):
        values = [prec_at(ious, t) for t in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestBuckets:
    def test_parse_reference_scheme(self):
        assert parse_buckets("1-2,3,4-5,6-20") == [(1, 2), (3, 3), (4, 5), (6, 20)]

    def test_parse_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            parse_buckets("5-2")
        with pytest.raises(ValueError):
            parse_buckets("0-3")

    @pytest.mark.parametrize("spec,first,second", [
        ("1-5,3-7", "1-5", "3-7"), ("3,3", "3-3", "3-3"), ("4-9,1-4", "1-4", "4-9"),
        ("1-2,6-20,2-2", "1-2", "2-2")])
    def test_parse_rejects_overlapping_ranges(self, spec, first, second):
        # the first range that held a length took it, so the report mislabeled it
        with pytest.raises(ValueError, match=f"bucket ranges {first} and {second} overlap"):
            parse_buckets(spec)

    def test_disjoint_ranges_in_any_order(self):
        assert parse_buckets("6-20,3,1-2,4-5") == [(6, 20), (3, 3), (1, 2), (4, 5)]

    def test_single_bucket_equals_overall(self):
        rng = np.random.default_rng(1)
        ius = [(int(i), int(u)) for i, u in
               zip(rng.integers(0, 5, 8), rng.integers(5, 9, 8))]
        lengths = rng.integers(1, 21, 8).tolist()
        table = bucket_by_length(lengths, ius, [(1, 20)])
        total_i = sum(i for i, _ in ius)
        total_u = sum(u for _, u in ius)
        npt.assert_allclose(table[(1, 20)], total_i / total_u)

    def test_uncovered_length_rejected(self):
        with pytest.raises(ValueError):
            bucket_by_length([25], [(1, 2)], [(1, 20)])

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(2)
        buckets = parse_buckets("1-2,3,4-5,6-20")
        lengths = rng.integers(1, 21, 30).tolist()
        ius = [(int(i), int(i + u)) for i, u in
               zip(rng.integers(0, 6, 30), rng.integers(1, 6, 30))]
        table = bucket_by_length(lengths, ius, buckets)
        sums = {b: [0, 0] for b in buckets}
        for length, (i, u) in zip(lengths, ius):
            home = next(b for b in buckets if b[0] <= length <= b[1])
            sums[home][0] += i
            sums[home][1] += u
        total_i = sum(v[0] for v in sums.values())
        total_u = sum(v[1] for v in sums.values())
        npt.assert_allclose(total_i / total_u,
                            cumulative_iou_from_ius(ius))
        # bucket-weighted reconstruction equals overall cumulative IoU exactly
        recon_i = sum(sums[b][0] for b in table)
        recon_u = sum(sums[b][1] for b in table)
        assert (recon_i, recon_u) == (total_i, total_u)


def cumulative_iou_from_ius(ius):
    return sum(i for i, _ in ius) / sum(u for _, u in ius)


class TestReport:
    def test_csv_and_text_render(self):
        report = EvalReport(cumulative_iou=0.5, ious=[0.5, 0.5],
                            prec={0.5: 1.0, 0.9: 0.0},
                            length_buckets={(1, 2): 0.5}, n_samples=2)
        rows = report.csv_rows()
        assert rows[0] == "metric,key,value"
        assert any(r.startswith("prec,0.5,") for r in rows)
        assert "cumulative IoU" in report.text_table()


@pytest.fixture(scope="module")
def a5_model():
    cfg = ModelConfig(vocab_size=len(VOCABULARY), **A5)
    return cfg, init_model(np.random.default_rng(0), cfg)


@pytest.fixture(scope="module")
def a5_samples():
    return generate(3, 10, 64, 64).samples


class TestChunkedPrediction:
    def test_chunk_size_at_benchmark_geometries(self):
        assert metrics._chunk_size(ModelConfig(**A5)) == 4
        assert metrics._chunk_size(ModelConfig(**A8)) == 1

    # 10 samples run as chunks of 4, 4 and 2
    @pytest.mark.parametrize("use_decoder", [True, False])
    def test_set_equals_single_samples(self, a5_model, a5_samples, use_decoder):
        cfg, params = a5_model
        whole = predicted_masks(params, cfg, a5_samples, use_decoder=use_decoder)
        assert len(whole) == len(a5_samples)
        for sample, mask in zip(a5_samples, whole):
            alone = predicted_masks(params, cfg, [sample], use_decoder=use_decoder)
            npt.assert_array_equal(mask, alone[0])

    def test_report_equals_single_samples(self, a5_model, a5_samples):
        cfg, params = a5_model
        report = evaluate_model(params, cfg, a5_samples)
        singles = [evaluate_model(params, cfg, [s]).inter_unions[0] for s in a5_samples]
        assert report.inter_unions == singles

    def test_chunk_of_one_passes_the_image_as_a_view(self, a5_model, a5_samples,
                                                      monkeypatch):
        seen = []
        encode = decoder.encode

        def spy(images, *args, **kwargs):
            seen.append(images)
            return encode(images, *args, **kwargs)

        monkeypatch.setattr(decoder, "encode", spy)
        cfg, params = a5_model
        predicted_masks(params, cfg, a5_samples[:1])
        assert np.shares_memory(seen[0], a5_samples[0].image)

    def test_peak_memory_decodes_one_sample_at_a_time(self, a5_model, a5_samples):
        # 8 samples are two chunks of 4. Their token stages and one sample's
        # decode measured 3.3 MiB; decoding a whole chunk at once, 8.0 MiB.
        cfg, params = a5_model
        peak = peak_bytes(lambda: predicted_masks(params, cfg, a5_samples[:8]))
        assert peak < 6 * 2 ** 20

    def test_no_logits_outlive_their_sample(self, a5_model, a5_samples, monkeypatch):
        # In chunks of one, each further sample may add its uint8 mask (H·W
        # bytes) to the peak; the last sample's float64 logits, kept alive
        # through the next forward, would add 8·H·W more.
        monkeypatch.setattr(metrics, "_CHUNK_SCORES", 1)
        cfg, params = a5_model
        one, three = (peak_bytes(lambda: predicted_masks(params, cfg, a5_samples[:n]))
                      for n in (1, 3))
        assert three - one < 4 * cfg.image_h * cfg.image_w


def peak_bytes(fn) -> int:
    """tracemalloc's peak over one call of ``fn``, after an untraced warm-up."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvalBuckets:
    def test_truncated_expression_buckets_at_max_tokens(self, a5_model, a5_samples):
        cfg, params = a5_model
        long = dataclasses.replace(a5_samples[0], token_ids=[2] * 48)
        with pytest.warns(UserWarning, match="truncated"):
            report = evaluate_model(params, cfg, [long], buckets="1-2,3,4-5,6-20")
        assert list(report.length_buckets) == [(6, 20)]

    def test_uncovered_length_fails_before_forward(self, a5_model, a5_samples,
                                                   monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran before the bucket check")

        monkeypatch.setattr(decoder, "encode", no_forward)
        cfg, params = a5_model
        with pytest.raises(ValueError, match="not covered"):
            evaluate_model(params, cfg, a5_samples, buckets="1-2")
