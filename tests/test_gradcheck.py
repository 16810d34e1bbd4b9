"""The finite-difference harness itself: reproducible across processes, and
able to fail."""

import os
import subprocess
import sys
from pathlib import Path

import restr
from restr import training
from restr.gradcheck import check_model_gradients

_SUITE = ("from restr.gradcheck import op_check_suite; "
          "print(list(op_check_suite(0).items()))")


def _suite_in_subprocess(hash_seed: str) -> str:
    src = str(Path(restr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", _SUITE], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_op_suite_errors_do_not_depend_on_hash_seed():
    first = _suite_in_subprocess("1")
    assert "softmax" in first
    assert _suite_in_subprocess("2") == first


def test_model_check_catches_a_dropped_batch_weight(monkeypatch):
    # Back-propagating each sample's loss without its 1/B weight sums the
    # samples' gradients instead of averaging them, so every gradient of the
    # step comes out B times too large.
    batch_mean = training.decoded_backward

    def unweighted(iteration, images, token_ids, y_p, masks, params, model_cfg, lam):
        terms = batch_mean(iteration, images, token_ids, y_p, masks, params, model_cfg, lam)
        for _, t in params.named_parameters():
            if t.grad is not None:
                t.grad = t.grad * len(images)
        return terms

    monkeypatch.setattr(training, "decoded_backward", unweighted)
    rep = check_model_gradients()
    assert not rep.passed
    assert rep.max_rel_err > 0.4
