"""Benchmark of the symindex index engine.

    python3 perfbench/run.py --workload index-small --seed 1 --seconds 10 --trace 0

Runs one workload in this process, closed loop with one caller, BLAS
pinned to one thread, and checks every answer against the closed forms
in oracle.py.  End-to-end times are reported at a reference host speed
(hostref.py).  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of tracing.py with --trace 1.
Results, the environment and (traced) the spans are also written to
perfbench/out/.  See BENCHMARK.md for the workloads and metrics.
"""

import os

# pin BLAS before numpy is first imported, here and in the probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import hostref  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: fresh processes per run for setup_s and first_call_s (median reported)
PROBES = 11
#: seconds a probe may take before it is killed and the run fails
PROBE_TIMEOUT = 60
#: every run does a fixed number of passes, round(seconds / this), so
#: its answers, failures and counts repeat exactly for a seed: about one
#: pass's time at the reference host speed, so a run measures about
#: --seconds of reference time
NOMINAL_PASS_S = {"index-small": 0.75, "index-large": 1.2,
                  "dense-crossings": 2.8, "acceptance": 10.0}


def _probe(op_json, host):
    """(setup_s, first_call_s, failed, raw setup_s, raw first_call_s)
    from one fresh interpreter.  Set-up is scaled by the host samples
    taken here before the start and in the probe just after the import,
    the first call by the probe's samples either side of it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = host.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "first_call.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=str(ROOT), text=True)
    try:
        proc.stdin.write(op_json)
        proc.stdin.close()
        marker = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if marker.strip() != "imported" or proc.returncode != 0:
        raise RuntimeError("probe process failed (exit %s)" % proc.returncode)
    first = json.loads(rest.strip().splitlines()[-1])
    return (hostref.scale(setup, before, first["before"]),
            hostref.scale(first["seconds"], first["before"], first["after"]),
            first["failed"], setup, first["seconds"])


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "grid": "256 and 1024" if args.workload == "dense-crossings" else "256",
    }


def run(args):
    oracle.self_test()
    env = environment(args)

    import symindex as si
    import symindex.checks  # noqa: F401  (loaded so it can be wrapped)

    if Path(si.__file__).resolve().parent != SRC / "symindex":
        raise RuntimeError("imported symindex from %s, not from %s" % (si.__file__, SRC))

    # warm lazy imports and first-use costs before anything is timed
    reference = workloads.reference_op(args.workload)
    workloads.execute(reference, si)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, si)
    host = hostref.HostReference()
    clock = hostref.ScaledClock(host)

    # untraced runs spread their fresh-process probes over the passes,
    # so their median sees the same host as the passes do
    want_probes = 0 if args.trace else PROBES
    probes = []
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    outcomes, raw, scaled, pass_s, pass_raw, pass_scaled = [], [], [], [], [], []
    for p in range(passes):
        while len(probes) < want_probes * p // passes:
            probes.append(_probe(reference.to_json(), host))
        ops = workloads.make_pass(args.workload, args.seed, p)
        t_pass = time.perf_counter()
        # traced runs take host samples between calls only, so that no
        # sample lands inside a span
        if args.trace:
            clock.mark()
        else:
            clock.start()
        for op in ops:
            r0, s0 = clock.raw, clock.scaled
            outcomes += workloads.execute(op, si)
            clock.mark()
            raw.append(clock.raw - r0)
            scaled.append(clock.scaled - s0)
        clock.stop()
        pass_s.append(time.perf_counter() - t_pass)
        pass_raw.append(sum(raw[-len(ops):]))
        pass_scaled.append(sum(scaled[-len(ops):]))
    while len(probes) < want_probes:
        probes.append(_probe(reference.to_json(), host))
    if tracer is not None:
        tracer.close()

    # acceptance makes one call (the suite) per run
    p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8] if len(scaled) > 1 else scaled[0]
    attempted = len(outcomes)
    wrong = sum(o.wrong for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    summary = {
        "passes": len(pass_s),
        "samples": len(scaled),
        "samples_beyond_p90": sum(x > p90 for x in scaled),
        "wrong_frac": wrong / attempted,
        "failed_frac": failed / attempted,
        "errors": dict(Counter(o.error for o in outcomes if o.error)),
        "host_factor": statistics.median(host.samples) / hostref.REF_S,
        "raw_calls_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "raw_suite_s": statistics.median(pass_raw),
    }

    if tracer is None:
        summary.update({
            "raw_setup_s": statistics.median(probe[3] for probe in probes),
            "raw_first_call_s": statistics.median(probe[4] for probe in probes),
            "probe_failed": sum(probe[2] for probe in probes),
            "probe_setup_s": [probe[0] for probe in probes],
            "probe_first_call_s": [probe[1] for probe in probes],
        })
        metrics = {
            "setup_s": (statistics.median(probe[0] for probe in probes), "s"),
            "first_call_s": (statistics.median(probe[1] for probe in probes), "s"),
            "calls_per_s": (len(scaled) / sum(scaled), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "latency_p90_ms": (1e3 * p90, "ms"),
            "suite_s": (statistics.median(pass_scaled), "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer)
        untraced = OUT / ("%s-seed%d-trace0.json" % (args.workload, args.seed))
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["suite_s"]["value"]
            summary["trace_overhead_frac"] = statistics.median(pass_scaled) / base - 1.0
        summary["spans"] = len(tracer.spans)

    result = {
        "correct": all(o.checked for o in outcomes) and not summary.get("probe_failed"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(
        dict(result, environment=env, summary=summary, pass_s=pass_s), indent=1))
    if tracer is not None:
        tracer.write(OUT / (stem + "-spans.json"))
    print("environment: " + json.dumps(env))
    print("summary: " + json.dumps(summary))
    print(json.dumps(result))


def pin_to_one_cpu():
    """Keep this process and its probes on the lowest allowed CPU: the
    CPUs of a shared host can differ in speed, and a process moved
    between them would add that difference to its timings."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symindex" / "__init__.py").is_file():
        print("error: no symindex sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
