"""The finite-difference harness itself: reproducible across processes."""

import os
import subprocess
import sys
from pathlib import Path

import restr

_SUITE = ("from restr.gradcheck import op_check_suite; "
          "print([(e.name, e.max_rel_err) for e in op_check_suite(0).entries])")


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
