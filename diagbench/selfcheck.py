"""Quick self-check of the benchmark: every workload at a reduced size.

    python3 diagbench/selfcheck.py

Runs one untraced and one traced round of each workload's small
variant, checks every output, checks that a corrupted output is
rejected and that tracing restores the program untouched, that the oracles reproduce known values, and that
BENCHMARK.json names exactly the metrics the benchmark prints. Exits 1
on the first failed check. Takes a few seconds; it is not part of the
repository's test suite.
"""

import json
import sys
import time
from fractions import Fraction

import run


def check(cond, what):
    if not cond:
        print(f"selfcheck: FAILED: {what}")
        raise SystemExit(1)


def check_oracles(orc):
    check([orc.hom_count("brauer", n, 8 - n) for n in range(9)] == [105] * 9, "(n+m-1)!!")
    check(orc.bell(5) == 52 and orc.catalan(4) == 14, "Bell and Catalan numbers")
    check(orc.hom_count("walled", (1, 1), (2, 0)) == 0
          and orc.hom_count("walled", (1, 1), (1, 1)) == 2, "walled hom counts")
    # cap o cup closes one loop; the partition pair joins through the middle
    cup = (((1, 1), (1, 2)),)
    cap = (((0, 1), (0, 2)),)
    check(orc.brauer_compose(cup, cap) == ((), 1), "path tracing closes cap o cup")
    blocks = orc.partition_compose((((0, 1), (1, 1)), ((1, 2),)), (((0, 1), (0, 2), (1, 1)),))
    check(blocks == ((((0, 1), (1, 1)),), 0), "components merge through the middle row")
    check(orc.rui_brauer_roots(3) == {Fraction(-2), Fraction(1)}, "Rui's set for n = 3")
    check(orc.rui_brauer_roots(4) == {Fraction(i) for i in (-4, -2, 0, 1, 2)}, "Rui's set for n = 4")
    check(orc.martin_partition_roots(2) == {Fraction(i) for i in (0, 1, 2)}, "Martin's set for n = 2")
    check(orc.determinant([[2, 1], [4, 3]]) == 2, "Bareiss determinant")
    check(orc.parse_poly("3 + -1/2*d + 5*d^3") == (3, Fraction(-1, 2), 0, 5), "discriminant text form")
    check(orc.planar_loop_value(2) == Fraction(-5, 2), "cap o cup for q = 2")


def corrupt(out):
    """A wrong answer of the same shape, which the checks must reject."""
    if isinstance(out, int):
        return out + 1
    if isinstance(out, list):
        return [out[0] + 1] + out[1:]
    if isinstance(out, dict):  # a verification report
        return {**out, "pass": False}
    first, second = out
    if isinstance(second, str):  # CLI exit code and JSON text
        obj = json.loads(second)
        obj["rational_roots"] = obj["rational_roots"] + ["99"]
        return first, json.dumps(obj)
    return first, second + 1  # two routes, or pairs checked and pairs failing


def check_benchmark_json(tracing):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = [m["name"] for m in spec["per_layer"]]
    check(layer == [name for name, _, _ in tracing.LAYER_METRICS], "per_layer metrics of BENCHMARK.json")
    check([m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "query_p50_ms", "peak_rss_mb"],
          "end_to_end metrics of BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == ["sweep", "taut", "algebra", "chars"], "workloads")


def main():
    began = time.monotonic()
    workloads = run.import_program()
    import oracles
    import tracing

    check_oracles(oracles)
    check_benchmark_json(tracing)
    clearers = workloads.cache_clearers()
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed=7, small=True)
        tracer = tracing.Tracer(extra_modules=[sys.modules["workloads"]])
        originals = {id(v) for mod in (workloads.dc.linear, workloads.dc.coeff.DeltaPoly) for v in vars(mod).values()}
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                latencies, outputs, failed = run.run_round(wl, clearers, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            check(failed == 0, f"{name}: {failed} queries raised")
            errors = wl.check_round(outputs)
            check(not errors, f"{name}: {errors[:3]}")
        first = len(wl.preamble)
        outputs[first] = corrupt(outputs[first])
        check(wl.check_round(outputs), f"{name}: a corrupted output passed the checks")
        restored = {id(v) for mod in (workloads.dc.linear, workloads.dc.coeff.DeltaPoly) for v in vars(mod).values()}
        check(restored == originals, f"{name}: tracing left wrappers behind")
        metrics = tracer.layer_metrics(1)
        # the preamble reaches every layer, so no layer reads zero
        zero = [k for k, v in metrics.items() if v <= 0]
        check(not zero, f"{name}: layers never reached: {zero}")
        print(f"selfcheck: {name}: {len(latencies)} queries, {sum(latencies):.2f}s, ok")
    print(f"selfcheck: all passed in {time.monotonic() - began:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
