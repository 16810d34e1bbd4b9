"""Prepared checkpoints for the eval workloads.

Untrained weights put every pixel logit within 1e-4 of the mask threshold,
where any reordering of float sums flips pixels and no mask comparison is
sound. The prep trains each eval geometry on a fixed seeded schedule (it
does not depend on --seed), so the logits move away from 0. It runs in a
child process, which keeps its memory out of the workload's peak RSS, and
its result is cached under a key made from the source of restr and of the
benchmark, so only the first run in a checkout pays for it.

    python3 perfbench/prep.py <workload> <checkpoint path>
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def cache_key(w, src_dir: Path) -> str:
    digest = hashlib.sha256(repr(w).encode())
    paths = sorted((src_dir / "restr").glob("*.py")) + [HERE / "prep.py",
                                                       HERE / "workloads.py"]
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_checkpoint(w, cache_dir: Path, src_dir: Path) -> tuple[Path, dict]:
    """Path of the prepared checkpoint for ``w`` and what its prep reported."""
    key = cache_key(w, src_dir)
    ckpt = cache_dir / f"{w.name}-{key}.rstr"
    meta = ckpt.with_suffix(".json")
    cached = ckpt.is_file() and meta.is_file()
    if not cached:
        cache_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        env.pop("RESTR_THREADS", None)
        subprocess.run([sys.executable, str(HERE / "prep.py"), w.name, str(ckpt)],
                       env=env, check=True, timeout=600)
    info = json.loads(meta.read_text(encoding="utf-8"))
    info["cached"] = cached
    return ckpt, info


def train_checkpoint(w, path: Path) -> dict:
    """Train ``w``'s geometry on the fixed prep schedule and save it."""
    import numpy as np
    from restr import data, decoder, training
    from restr.checkpoint import save_checkpoint
    import workloads

    start = perf_counter()
    ds = data.generate(workloads.PREP_SEED, w.prep_samples,
                       w.model["image_h"], w.model["image_w"])
    cfg = workloads.model_config(w, len(ds.vocab))
    params = decoder.init_model(np.random.default_rng(workloads.INIT_SEED), cfg)
    losses: list[float] = []
    training.train(params, cfg, workloads.train_config(w.prep_batch), ds.samples,
                   stop_after=w.prep_steps,
                   on_log=lambda row: losses.append(row.loss_total))
    tmp = path.with_name(path.name + ".tmp")
    save_checkpoint(tmp, cfg, params)
    os.replace(tmp, path)
    return {"prep_s": perf_counter() - start, "prep_steps": len(losses),
            "final_loss": workloads.final_loss(losses)}


def main(argv: list[str]) -> int:
    import workloads

    name, out = argv
    path = Path(out)
    info = train_checkpoint(workloads.WORKLOADS[name], path)
    meta = path.with_suffix(".json")
    tmp = meta.with_name(meta.name + ".tmp")
    tmp.write_text(json.dumps(info), encoding="utf-8")
    os.replace(tmp, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
