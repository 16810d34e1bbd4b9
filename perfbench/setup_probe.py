"""One set-up, measured in a fresh process: import restr, data.load, then
load_checkpoint (eval) or init_model (train). Prints one JSON object.

    python3 perfbench/setup_probe.py <src dir> <data dir> ckpt <path>
    python3 perfbench/setup_probe.py <src dir> <data dir> init <model json>
"""

import json
import sys
from time import perf_counter

from workloads import INIT_SEED


def main(argv: list[str]) -> int:
    src, data_dir, mode, arg = argv
    sys.path.insert(0, src)
    start = perf_counter()
    import restr  # noqa: F401
    from restr import checkpoint, data, decoder, encoders
    out = {"setup.import_s": perf_counter() - start}
    start = perf_counter()
    ds = data.load(data_dir)
    out["data.load_s"] = perf_counter() - start
    start = perf_counter()
    if mode == "ckpt":
        checkpoint.load_checkpoint(arg)
        out["checkpoint.load_s"] = perf_counter() - start
    else:
        import numpy as np
        cfg = encoders.ModelConfig(vocab_size=len(ds.vocab), **json.loads(arg))
        decoder.init_model(np.random.default_rng(INIT_SEED), cfg)
        out["decoder.init_model_s"] = perf_counter() - start
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
