"""Fresh-process probe for setup_s and first_call_s.

Run by run.py, never by hand: it imports symindex, prints one line so
the parent can time the interpreter up to that point, then reads one
operation as JSON from standard input, runs it as the first library
call of the process and prints its time, the host samples either side
of it (hostref.py) and its verdict as JSON.
"""

import json
import sys
import time

import symindex

print("imported", flush=True)

import hostref  # noqa: E402  (after the timed import on purpose)
import workloads  # noqa: E402

op = workloads.Op.from_json(sys.stdin.read())
host = hostref.HostReference()
before = host.sample()
t0 = time.perf_counter()
outcomes = workloads.execute(op, symindex)
seconds = time.perf_counter() - t0
print(json.dumps({"seconds": seconds, "before": before, "after": host.sample(),
                  "failed": any(o.failed or not o.checked for o in outcomes)}),
      flush=True)
