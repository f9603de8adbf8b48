"""Fresh-process probe: import quatcalc.cli, run jobs, report time and memory.

Reads ``{"jobs": [{"argv": [...], "text": "..."}, ...]}`` on stdin and
writes ``{"seconds": s, "peak_rss_mb": m, "outcomes": [[code, stdout], ...]}``.
``seconds`` runs from before the import to the end of the last job; nothing
outside the standard library is imported before the clock starts.
``peak_rss_mb`` is ``VmHWM``, the high-water mark of this process image:
``getrusage``'s ``ru_maxrss`` would also count the parent's resident set,
which a forked child carries until it executes Python.
"""

import json
import sys
import time

from harness import pin_threads, run_job, use_source_tree

jobs = json.loads(sys.stdin.read())["jobs"]
pin_threads()
use_source_tree()
start = time.perf_counter()
import quatcalc.cli as cli  # noqa: E402  (the import is part of what is timed)

outcomes = [run_job(cli, job["argv"], job["text"]) for job in jobs]
elapsed = time.perf_counter() - start
with open("/proc/self/status", encoding="ascii") as fh:
    peak_mb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0
sys.stdout.write(json.dumps({"seconds": elapsed, "peak_rss_mb": peak_mb, "outcomes": outcomes}))
