"""Fail unless a benchmark run's last stdout line reports a correct run with
no failed operation.

    python3 .github/check_bench_line.py LABEL STDOUT_FILE
"""

import json
import sys

label, path = sys.argv[1:]
with open(path) as f:
    lines = f.read().splitlines()
result = json.loads(lines[-1]) if lines else {}
print(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
      f"of {result.get('attempted')}")
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
