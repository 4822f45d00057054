"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads cli_desk cli_large --seeds 1-10 \
        [--trace-seeds N ...] [--out FILE]

For every workload it runs ``bench/run.py`` once per seed (one at a
time), reads the JSON result line and prints, per end-to-end metric, the
median of the per-run values, their first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A
spread should stay below a third of its bound; a wider one is flagged.
``--trace-seeds`` adds one traced run per workload and seed, and fails if
a count that depends on the sizes only (every count but
``cli.bytes_out``) differs between those runs. ``--out`` writes every
value, with the host and the git sha, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import spans

RUN = os.path.join(run.BENCH, "run.py")


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{proc.stderr[-3000:]}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"machine": run.machine(), "seeds": args.seeds,
           "seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} pass_s="
                  f"{result['metrics']['pass_s']['value']:.4f}", file=sys.stderr)
        entry = {"end_to_end": {}}
        print(f"\n{workload}: {'metric':16} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": spread, "values": series}
            flag = "" if spread < bounds[name] / 3 else "  WIDE"
            print(f"{'':{len(workload) + 2}}{name:16} {median:10.5g} {q1:10.5g} "
                  f"{q3:10.5g} {spread:8.4f} {bounds[name] / 3:8.4f}{flag}")
        for seed in args.trace_seeds:
            traced = run_once(workload, seed, spec["run_seconds"], 1)
            layers = {name: m["value"] for name, m in traced["metrics"].items()}
            first = entry.setdefault("per_layer", layers)
            for name in spans.COUNT_METRICS:
                if layers[name] != first[name]:
                    raise SystemExit(f"{workload}: {name} is {first[name]} at seed "
                                     f"{args.trace_seeds[0]} but {layers[name]} at "
                                     f"seed {seed}")
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
