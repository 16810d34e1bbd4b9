"""Tests of the benchmark itself, on shrunken copies of its workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import prep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_MODEL = {"image_h": 32, "image_w": 32, "patch_size": 8, "dim_vision": 8,
              "dim_language": 8, "dim_fusion": 8, "vision_layers": 1,
              "language_layers": 1, "fusion_layers": 2, "heads": 2}


def tiny(kind: str, variant: str) -> workloads.Workload:
    return workloads.Workload(
        f"tiny_{kind}", kind, {**TINY_MODEL, "fusion_variant": variant}, samples=4,
        batch_size=2, rep_steps=12, warmup_steps=2, prep_samples=4, prep_batch=2,
        prep_steps=3, min_units=4, setup_repeats=2)


@pytest.fixture
def in_process_prep(monkeypatch):
    def ensure(w, cache_dir, src_dir):
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"{w.name}.rstr"
        return path, prep.train_checkpoint(w, path)
    monkeypatch.setattr(run.prep, "ensure_checkpoint", ensure)


def test_seed_changes_the_inputs_and_nothing_else():
    w = workloads.WORKLOADS["train_a5"]
    a, again, b = (workloads.make_inputs(w, s) for s in (1, 1, 2))
    for x, y in zip(a, again):
        assert np.array_equal(x.image, y.image) and x.token_ids == y.token_ids
        assert np.array_equal(x.mask, y.mask)
    assert any(not np.array_equal(x.image, y.image) for x, y in zip(a, b))
    assert len(a) == len(b) == w.samples and a.vocab == b.vocab
    assert [x.image.shape for x in a] == [y.image.shape for y in b]
    assert workloads.model_config(w, len(a.vocab)) == workloads.model_config(w, len(b.vocab))


def test_declared_names_are_well_formed_and_unique():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("kind,variant", [("train", "cme"), ("eval", "vme")])
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_names_are_the_declared_ones(kind, variant, trace, tmp_path,
                                            in_process_prep):
    result, info = run.measure(tiny(kind, variant), seed=3, seconds=0, trace=trace,
                               build_dir=tmp_path)
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert np.isfinite(metric["value"])
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        assert values["trace.missing"] == 0
        assert abs(values["trace.stage_sum_pct"] - 100.0) < 10.0
        assert values["tensor.op_calls"] == int(values["tensor.op_calls"])


def test_a_raising_unit_counts_as_failed_and_the_loop_goes_on():
    tally = workloads.Tally()

    def stub():
        raise RuntimeError("stub unit")

    tally.run(stub, lambda out: None)
    tally.run(lambda: 1, lambda out: None)
    tally.run(lambda: 2, lambda out: "wrong output")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "RuntimeError: stub unit" in tally.problems[0]


def test_raising_single_sample_calls_are_counted_in_a_real_run(tmp_path, monkeypatch,
                                                               in_process_prep):
    from restr import metrics
    original = metrics.predicted_masks

    def flaky(params, cfg, dataset, use_decoder=True):
        if len(dataset) == 1:
            raise RuntimeError("stub failure")
        return original(params, cfg, dataset, use_decoder)

    monkeypatch.setattr(metrics, "predicted_masks", flaky)
    w = tiny("eval", "cme")
    result, info = run.measure(w, seed=4, seconds=0, trace=False, build_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == info["timed_units"] > 0
    assert result["attempted"] > result["failed"]


def test_a_missing_entry_point_is_reported_not_fatal(monkeypatch):
    from restr import decoder
    monkeypatch.delattr(decoder, "patch_predict")
    tracer = Tracer(fusion_macs_per_sample=0)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["restr.decoder.patch_predict"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval_a5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
