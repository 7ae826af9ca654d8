"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload dense-crossings --seeds 1-10

Runs run.py once per seed, one run at a time, with the run_seconds of
BENCHMARK.json, and prints for each metric its median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound.  A benchmark is steady when every spread but that
of setup_s stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--save", help="also write the runs and their medians here as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, runs = {}, []
    for seed in _seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=str(ROOT), check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append(json.loads((HERE / "out" / ("%s-seed%d-trace0.json" % (args.workload, seed)))
                               .read_text()))
        print("seed %d: attempted %d failed %d" % (seed, result["attempted"], result["failed"]),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    medians = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        medians[name] = {"median": med, "spread": spread}
        print("%-16s median %12.6g  spread %6.3f  bound %s  values %s"
              % (name, med, spread, bounds.get(name),
                 " ".join("%.4g" % v for v in vals)))
    for key in ("wrong_frac", "failed_frac", "samples"):
        medians[key] = {"median": statistics.median(r["summary"][key] for r in runs)}
    if args.save:
        Path(args.save).write_text(json.dumps({"medians": medians, "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
