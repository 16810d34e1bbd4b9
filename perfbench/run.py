"""restr benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload train_a5 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (each metric with its value and
unit): the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The line before it holds the machine
facts, the prep report and the first failed checks. ``--seed`` changes only
the generated dataset. See README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

import prep  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end-to-end and the per-layer sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "RESTR_THREADS": os.environ.get("RESTR_THREADS", "unset"),
    }


def probe_setup(data_dir: Path, w, ckpt: Path | None) -> dict[str, float]:
    """One set-up in a fresh process (import, data.load, model)."""
    mode, arg = ("ckpt", str(ckpt)) if ckpt else ("init", json.dumps(w.model))
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                          str(data_dir), mode, arg],
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def measure(w, seed: int, seconds: float, trace: bool, build_dir: Path) -> tuple[dict, dict]:
    """Run workload ``w``; returns (result line, info line)."""
    setups = [{}]
    start = perf_counter()
    import restr  # noqa: F401
    from restr import checkpoint, data, decoder, fusion
    setups[0]["setup.import_s"] = perf_counter() - start

    run_dir = build_dir / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        info: dict = {"workload": w.name, "seed": seed}
        start = perf_counter()
        data.save(workloads.make_inputs(w, seed), run_dir / "data")
        info["inputs_s"] = perf_counter() - start
        ckpt = None
        if w.kind == "eval":
            ckpt, info["prep"] = prep.ensure_checkpoint(w, build_dir / "prep", SRC)

        start = perf_counter()
        ds = data.load(run_dir / "data")
        setups[0]["data.load_s"] = perf_counter() - start
        start = perf_counter()
        if ckpt:
            cfg, params, _ = checkpoint.load_checkpoint(ckpt)
            setups[0]["checkpoint.load_s"] = perf_counter() - start
        else:
            import numpy as np
            cfg = workloads.model_config(w, len(ds.vocab))
            params = decoder.init_model(np.random.default_rng(workloads.INIT_SEED), cfg)
            setups[0]["decoder.init_model_s"] = perf_counter() - start
        start = perf_counter()
        setups += [probe_setup(run_dir / "data", w, ckpt)
                   for _ in range(w.setup_repeats - 1)]
        info["setup_probes_s"] = perf_counter() - start
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tally = workloads.Tally()
    tracer = Tracer(fusion.profile(cfg.fusion_variant, cfg).mac_count) if trace else None
    loop = workloads.run_train if w.kind == "train" else workloads.run_eval
    start = perf_counter()
    out = loop(w, ds.samples, cfg, params, seconds, tally, tracer)
    info["loop_s"] = perf_counter() - start

    setup_parts = ("setup.import_s", "data.load_s", "checkpoint.load_s",
                   "decoder.init_model_s")
    if trace:
        # A7 from outside: every fuse call counted profile()'s MACs per sample
        tally.record("; ".join(tracer.fuse_mismatches[:3]) or None)
        metrics = {part: statistics.median(s.get(part, 0.0) for s in setups)
                   for part in setup_parts}
        metrics.update(tracer.metrics(statistics.median(out["unit_s"]),
                                      statistics.median(out["traced_unit_s"]),
                                      train=w.kind == "train"))
        info["missing_entry_points"] = tracer.missing
    else:
        metrics = {
            "setup_s": statistics.median(sum(s.values()) for s in setups),
            "samples_per_s": out["samples_per_s"],
            "latency_ms_p50": 1e3 * percentile(out["unit_s"], 50),
            "latency_ms_p90": 1e3 * percentile(out["unit_s"], 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "loss": out["loss"] if w.kind == "train" else info["prep"]["final_loss"],
        }
    info["timed_units"] = len(out["unit_s"]) + len(out["traced_unit_s"])
    info["machine"] = machine_facts()
    info["problems"] = tally.problems
    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "restr" / "__init__.py").is_file():
        print(f"perfbench: no restr source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("RESTR_THREADS", None)  # the serial default
    sys.path.insert(0, str(SRC))
    # All prep happens in the first run in a checkout, whatever its workload,
    # so that no later run pays for it.
    for w in workloads.WORKLOADS.values():
        if w.kind == "eval":
            prep.ensure_checkpoint(w, BUILD / "prep", SRC)
    result, info = measure(workloads.WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace), BUILD)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
