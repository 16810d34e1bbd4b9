"""Report the result line of an untraced benchmark run in the job summary.

    python3 perfbench/run.py --workload eval_r480 --seed 1 --seconds 1 --trace 0 \\
        | tail -n 1 | python3 .github/scripts/report_untraced_run.py

Appends the workload's ``peak_rss_mb``, ``setup_s`` and failed-unit count to
the file named by ``$GITHUB_STEP_SUMMARY`` (when set) and exits non-zero
when a unit failed.
"""

import json
import os
import sys

result = json.loads(sys.stdin.read())
metrics = result["metrics"]
line = (f"untraced run: peak_rss_mb {metrics['peak_rss_mb']['value']:.1f}, "
        f"setup_s {metrics['setup_s']['value']:.3f}, "
        f"failed {result['failed']} of {result['attempted']} units")
print(line)
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
if result["failed"] != 0:
    sys.exit(f"failed units: {result['failed']}")
