"""Check the result line of a traced benchmark run.

    python3 perfbench/run.py --workload eval_a5 --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 .github/scripts/check_traced_run.py

Exits non-zero when a unit failed, when the tracer missed an entry point, or
when ``fusion.macs`` or ``decoder.decode_ms`` reads 0: the tracer no longer
sees the fuse or the decoder, so the per-call fuse-MAC check did not run.
"""

import json
import sys

result = json.loads(sys.stdin.read())
print(json.dumps(result))
metrics = result["metrics"]
problems = []
if result["failed"] != 0:
    problems.append(f"failed units: {result['failed']}")
if metrics["trace.missing"]["value"] != 0:
    problems.append(f"missing entry points: {metrics['trace.missing']['value']}")
for name in ("fusion.macs", "decoder.decode_ms"):
    if not metrics[name]["value"] > 0:
        problems.append(f"{name} reads {metrics[name]['value']}")
if problems:
    sys.exit("; ".join(problems))
