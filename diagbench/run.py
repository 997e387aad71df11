"""Run one diagcat benchmark workload and print its metrics.

    python3 diagbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a diagcat checkout: the program is imported from
./src. One round runs the workload's whole query list in a closed loop
with one caller; rounds repeat while the next one would end less than
half a round past --seconds (at least one round runs). With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 rounds alternate untraced and traced and it carries the
per-layer metrics and the tracing overhead instead. Every round's
outputs are checked outside the timed region. A copy of the result,
with the spans of a traced run, is written to diagbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# The machines this benchmark runs on switch between speeds up to 2x
# apart for minutes at a time. A fixed slice of interpreter work is timed
# before every round, and every time figure is scaled by REFERENCE_S over
# the run's median slice time: times are reported in seconds of a
# machine on which one slice takes REFERENCE_S.
REFERENCE_S = 0.0035
REFERENCE_SLICES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "taut", "algebra", "chars"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import diagcat from this checkout's src/, or explain why not."""
    if not (SRC / "diagcat" / "__init__.py").is_file():
        raise SystemExit(f"diagbench: no diagcat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diagcat

    if Path(diagcat.__file__).resolve().parent != SRC / "diagcat":
        raise SystemExit(f"diagbench: imported diagcat from {diagcat.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup(args):
    """Median time from spawning a fresh interpreter to its first query:
    interpreter start, importing diagcat and numpy, building the inputs."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"diagbench: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples), samples


def run_round(wl, clearers, tracer=None):
    """One pass over the preamble and the queries; returns per-query
    latencies, outputs and the number of queries that raised."""
    from workloads import QueryFailed

    latencies, outputs, failed = [], [], 0
    for phase in (wl.preamble, wl.queries):
        for clear in clearers:
            clear()
        for label, thunk in phase:
            if tracer is not None:
                tracer.query = len(latencies)
            start = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # a failed query is counted, not fatal
                out = QueryFailed(repr(exc))
            latencies.append(time.perf_counter() - start)
            failed += isinstance(out, QueryFailed)
            outputs.append(out)
    return latencies, outputs, failed


def reference_work():
    """Dict, tuple, sort and Fraction work, the operations of diagcat's
    inner loops; it does not touch diagcat."""
    table = {}
    for i in range(3000):
        key = (i % 13, i % 7, (i * 5) % 11)
        table[key] = table.get(key, 0) + i
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return sorted(table.items(), reverse=True), acc


def reference_slices():
    out = []
    for _ in range(REFERENCE_SLICES):
        start = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - start)
    return out


def per_query_medians(rounds):
    """Median latency of each query over the rounds."""
    return [statistics.median(col) for col in zip(*(lat for _, lat in rounds))]


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # default configuration: the sweeps run single-threaded
    os.environ.pop("DIAGCAT_THREADS", None)
    workloads = import_program()
    wl = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0
    clearers = workloads.cache_clearers()
    slices = reference_slices()
    setup_s, setup_samples = measure_setup(args)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(extra_modules=[sys.modules["workloads"]])
    plain, traced = [], []  # per-round (run_s, latencies)
    attempted = failed = 0
    errors = []
    began = time.monotonic()
    while True:
        gc.collect()
        slices += reference_slices()
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        round_began = time.monotonic()
        try:
            latencies, outputs, n_failed = run_round(wl, clearers, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append((sum(latencies), latencies))
        attempted += len(latencies)
        failed += n_failed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors += wl.check_round(outputs)
        del outputs
        round_wall = time.monotonic() - round_began
        done = time.monotonic() - began
        # stop where another round would end more than half a round past
        # --seconds, so that a run measures about --seconds on average
        need_traced = tracer is not None and not traced
        if not need_traced and done + round_wall / 2 > args.seconds:
            break

    # each query's median over the rounds: a latency spike from another
    # process on the machine then moves no figure
    medians = per_query_medians(plain)
    run_s = sum(medians)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": len(plain), "traced_rounds": len(traced), **environment()}
    if args.trace:
        metrics = tracer.layer_metrics(len(traced))
        traced_s = sum(per_query_medians(traced))
        metrics["trace.run_s"] = traced_s
        metrics["trace.untraced_run_s"] = run_s
        metrics["trace.overhead_s"] = traced_s - run_s
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        # the preamble is the same on every workload; the median is taken
        # over the workload's own queries
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "query_p50_ms": statistics.median(medians[len(wl.preamble):]) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "run_s": "s", "query_p50_ms": "ms", "peak_rss_mb": "MB"}
    scale = REFERENCE_S / statistics.median(slices)
    info["speed_scale"] = scale
    scaled = {k: v * scale if units[k] in ("s", "ms", "us") else v for k, v in metrics.items()}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in scaled.items()},
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "info": info,
        "result": result,
        "unscaled_metrics": metrics,
        "reference_slices_s": slices,
        "setup_samples_s": setup_samples,
        "round_s": [r for r, _ in plain],
        "traced_round_s": [r for r, _ in traced],
        "errors": errors[:200],
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    for err in errors[:20]:
        print(f"diagbench: check failed: {err}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
