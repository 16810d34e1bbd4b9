"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound.

    python3 perfbench/spread.py --workload eval_a5 --seeds 1-10 [--seconds 35]
    python3 perfbench/spread.py ... --baseline perfbench/BASELINE.json

The spread is (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``. With ``--baseline`` the medians,
quartiles, the per-layer metrics of one traced run (first seed) and the
machine facts are merged into that file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    def run(seed: int, trace: int) -> tuple[dict, dict]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(trace)],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        return json.loads(lines[-1]), json.loads(lines[-2])

    seeds = parse_seeds(args.seeds)
    runs, facts = [], None
    for seed in seeds:
        result, info = run(seed, 0)
        facts = info["machine"]
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} units "
                  f"failed: {info['problems']}", file=sys.stderr)
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": metric["unit"]}
        flag = "ok" if spread <= metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "OVER BOUND")
        print(f"{name:16s} median {median:12.6g} spread {spread:7.4f} "
              f"bound {metric['bound']:.2f}  {flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"runs {len(runs)}, failed units {failed}")
    if args.baseline:
        traced, _ = run(seeds[0], 1)
        failed += traced["failed"]
        base = (json.loads(args.baseline.read_text(encoding="utf-8"))
                if args.baseline.is_file() else {})
        base["machine"] = facts
        base.setdefault("workloads", {})[args.workload] = {
            "seeds": args.seeds, "seconds": args.seconds, "end_to_end": summary,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()}}
        args.baseline.write_text(json.dumps(base, indent=2) + "\n", encoding="utf-8")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
