"""Before/after timings of two source trees, for the BENCH_*.json files.

    python3 tools/bench_dampedwave.py inprocess PARENT CHANGE [--processes P] > inprocess.json
    python3 tools/bench_dampedwave.py cli PARENT CHANGE [--pairs N] > cli.json
    python3 tools/bench_dampedwave.py rss PARENT CHANGE [--pairs N] > rss.json
    python3 tools/bench_dampedwave.py jobs-rss PARENT CHANGE --workload W \\
        --seeds S0 S1 > jobs.json
    python3 tools/bench_dampedwave.py bench PARENT CHANGE --workload W --seeds S0 S1 \\
        [--trace 0|1] > W.json
    python3 tools/bench_dampedwave.py report --what TEXT --layer TEXT \\
        [--claim WORKLOAD METRIC DROP] --bench W.json [W2.json ...] \\
        --parent-commit REV [--inprocess inprocess.json --cli cli.json \\
        --rss rss.json --jobs-rss jobs.json] > report.json

PARENT and CHANGE are the roots of two source checkouts. Every measuring
mode pairs the two trees, alternates which side runs first, and prints its
raw samples as one JSON document; ``report`` summarizes those documents
into one report, a committed file or one entry of it. ``inprocess``, ``cli`` and ``rss`` time the
well-mode shooting (BENCH_dampedwave.json); ``bench`` and ``report`` serve
any layer (BENCH_lagrangian.json comes from them alone). The ``--what``,
``--layer`` and ``--claim`` each file was made with are its ``what`` and
``layer`` entries and its ``claim.workload``, ``claim.metric`` and
``claim.min_drop``; a report made without ``--claim`` claims no gain and
has ``"claim": null``. BENCH_memory.json and BENCH_dampedwave.json are
lists of such reports, one per change, oldest first.

* ``inprocess``: each of P processes loads both ``src/`` trees side by
  side (as the packages ``parent`` and ``change``) and times
  ``dampedwave.damped_well_modes(0.5, 1.0, count=C)`` for C in 5, 20, 200,
  2000 and 20000, call by call. A sample is the mean of enough calls to
  fill about 20 ms.
* ``cli``: wall time of ``python -m retromech dampedwave --xi 0 --well 1
  --count 20000 --output FILE`` in fresh processes; the two trees' files
  must be byte-identical.
* ``rss``: peak RSS and call time of one ``damped_well_modes(0.5, 1.0,
  count=C)`` in a fresh process, for C in 20000 and 200000: the parent, the
  change, and the change shooting every mode as one stack
  (``SHOOTING_BLOCK`` raised above C).
* ``jobs-rss``: each job's own peak RSS. Every job of the CLI workload W
  (``bench/workloads.py``, one pair per seed S0 .. S1, which draws the
  job parameters) runs once per tree through that tree's
  ``bench/launcher.py``, which starts it with ``posix_spawn`` and reads
  its ``wait4`` rusage, so a job's peak is its own and not its
  spawner's. The two trees' exit codes, stdout, stderr and output files
  must be byte-identical. ``bench/`` is only read.
* ``bench``: ``python3 bench/run.py --workload W --seed S --seconds 20
  --trace T`` run from each root, one pair per seed; keeps every run's
  report.
* ``report``: medians, quartiles and pair wins of every sample set, and,
  given ``--claim``, whether the claimed gain holds: METRIC of WORKLOAD
  (trace off) at least DROP lower than the parent's, in at least 90 % of
  the pairs, with a median gap wider than the parent's IQR.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

COUNTS = (5, 20, 200, 2000, 20000)
RSS_COUNTS = (20000, 200000)
SIDES = ("parent", "change")

#: the claimed metric must be lower in at least this share of the pairs
CLAIM_WINS = 0.9

RSS_CODE = """if True:
    import resource, sys, time
    from retromech import dampedwave
    count, one_stack = int(sys.argv[1]), sys.argv[2] == "1"
    if one_stack:
        dampedwave.SHOOTING_BLOCK = count + 1
    start = time.perf_counter()
    dampedwave.damped_well_modes(0.5, 1.0, count=count)
    elapsed = time.perf_counter() - start
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, elapsed)
"""


def _load(alias, root):
    """Import ROOT/src/retromech as the top-level package ``alias``."""
    path = os.path.join(root, "src", "retromech", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        alias, path, submodule_search_locations=[os.path.dirname(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.dampedwave")


def _time_call(fn, count):
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn(0.5, 1.0, count=count)
        elapsed = time.perf_counter() - start
        if elapsed >= 0.02:
            return elapsed / reps
        reps *= 2


def _orders(pairs):
    """Which side runs first, alternating pair by pair."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def _worker(parent, change, pairs):
    """One process: ``pairs`` alternating samples per count."""
    modules = {"parent": _load("parent", parent), "change": _load("change", change)}
    out = {str(c): {side: [] for side in SIDES} for c in COUNTS}
    for count in COUNTS:
        for side in SIDES:  # warm-up
            _time_call(modules[side].damped_well_modes, count)
        for order in _orders(pairs):
            for side in order:
                out[str(count)][side].append(
                    _time_call(modules[side].damped_well_modes, count))
    return out


def inprocess(args):
    merged = {f"damped_well_modes_count{c}_s": {side: [] for side in SIDES}
              for c in COUNTS}
    for _ in range(args.processes):
        done = subprocess.run(
            [sys.executable, __file__, "_worker", args.parent, args.change,
             "--pairs", str(args.pairs)],
            capture_output=True, text=True, check=True)
        for count, sides in json.loads(done.stdout).items():
            for side, values in sides.items():
                merged[f"damped_well_modes_count{count}_s"][side].extend(values)
    return {"processes": args.processes, "pairs": args.pairs, "samples": merged}


def _env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def cli(args):
    argv = [sys.executable, "-m", "retromech", "dampedwave", "--xi", "0",
            "--well", "1", "--count", "20000", "--output"]
    times = {side: [] for side in SIDES}
    roots = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {side: os.path.join(tmp, f"{side}.csv") for side in SIDES}
        for order in _orders(args.pairs):
            for side in order:
                start = time.perf_counter()
                subprocess.run([*argv, outputs[side]], env=_env(roots[side]), check=True)
                times[side].append(time.perf_counter() - start)
            if not filecmp.cmp(outputs["parent"], outputs["change"], shallow=False):
                raise SystemExit("error: the two trees wrote different files")
    return {"pairs": args.pairs, "samples": {"cli_well_count20000_s": times}}


def rss(args):
    # (name, root, one stack?)
    runs = [("parent", args.parent, False), ("change", args.change, False),
            ("change_one_stack", args.change, True)]
    peak = {f"count{c}": {name: [] for name, _, _ in runs} for c in RSS_COUNTS}
    call = {f"count{c}": {name: [] for name, _, _ in runs} for c in RSS_COUNTS}
    for count in RSS_COUNTS:
        for i in range(args.pairs):
            for name, root, one_stack in (runs if i % 2 == 0 else runs[::-1]):
                done = subprocess.run(
                    [sys.executable, "-c", RSS_CODE, str(count), str(int(one_stack))],
                    env=_env(root), capture_output=True, text=True, check=True)
                mb, seconds = map(float, done.stdout.split())
                peak[f"count{count}"][name].append(mb)
                call[f"count{count}"][name].append(seconds)
    return {"pairs": args.pairs, "peak_rss_mb": peak, "call_s": call}


def _launch(root):
    """``bench/launcher.py`` of ROOT, starting its jobs on ROOT/src."""
    launcher = os.path.join(root, "bench", "launcher.py")
    return subprocess.Popen([sys.executable, launcher], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=root, env=_env(root))


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _run_job(launcher, job, tmp):
    """Run one workload job through ``launcher``; returns its peak RSS in
    MiB and its (exit code, stdout, stderr, output file) bytes."""
    out, err, path = (os.path.join(tmp, f"job.{ext}") for ext in ("out", "err", "file"))
    argv = [sys.executable, "-m", "retromech", *job.argv]
    argv += ["--output", path] if job.output else []
    request = {"argv": argv, "stdout": out, "stderr": err, "timeout": 600}
    launcher.stdin.write(json.dumps(request) + "\n")
    launcher.stdin.flush()
    reply = json.loads(launcher.stdout.readline())
    wrote = _read_bytes(path) if job.output else None
    result = (reply["code"], _read_bytes(out), _read_bytes(err), wrote)
    return reply["maxrss_kib"] / 1024, result


def jobs_rss(args):
    roots = {"parent": args.parent, "change": args.change}
    # started before numpy loads here, as bench/run.py starts its launcher
    launchers = {side: _launch(roots[side]) for side in SIDES}
    sys.path.insert(0, os.path.join(args.parent, "bench"))
    import workloads
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    orders = _orders(len(seeds))
    peaks = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for seed, order in zip(seeds, orders):
                jobs = workloads.CLI_WORKLOADS[args.workload](workloads.draw(seed))
                for job in jobs:
                    outputs = {}
                    for side in order:
                        peak, outputs[side] = _run_job(launchers[side], job, tmp)
                        peaks.setdefault(job.name, {s: [] for s in SIDES})[side].append(
                            peak)
                    if outputs["parent"] != outputs["change"]:
                        raise SystemExit(f"error: {job.name} (seed {seed}) differs "
                                         "between the two trees")
    finally:
        for launcher in launchers.values():
            launcher.stdin.close()
            launcher.wait()
            launcher.stdout.close()
    return {"workload": args.workload, "seeds": seeds,
            "first": [order[0] for order in orders], "maxrss_mb": peaks}


def bench(args):
    roots = {"parent": args.parent, "change": args.change}
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    runs = {side: [] for side in SIDES}
    orders = _orders(len(seeds))
    for seed, order in zip(seeds, orders):
        for side in order:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", "20", "--trace", str(args.trace)],
                cwd=roots[side], capture_output=True, text=True, check=True)
            runs[side].append(json.loads(done.stdout.splitlines()[-1]))
    return {"workload": args.workload, "trace": args.trace, "seeds": seeds,
            "first": [order[0] for order in orders], "runs": runs}


def _summary(parent, change):
    """Medians and quartiles of paired samples, and the pairs the change
    reads lower in."""
    def quartiles(values):
        q = statistics.quantiles(values, n=4)
        return [q[0], q[2]]
    return {"parent_median": statistics.median(parent),
            "parent_quartiles": quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "change_lower": f"{sum(c < p for p, c in zip(parent, change))}/{len(parent)}",
            "parent": parent, "change": change}


def _bench_summary(doc):
    runs = doc["runs"]
    return {"seeds": doc["seeds"], "first": doc["first"],
            "correct": {s: [r["correct"] for r in runs[s]] for s in SIDES},
            "failed_jobs": {s: [r["failed"] for r in runs[s]] for s in SIDES},
            "attempted_jobs": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
            "metrics": {m: _summary(*([r["metrics"][m]["value"] for r in runs[s]]
                                      for s in SIDES))
                        for m in runs["parent"][0]["metrics"]}}


def _claim(bench_runs, workload, metric, min_drop):
    """Whether METRIC of WORKLOAD (trace off) meets the claimed gain in each
    run of it."""
    text = (f"{workload} {metric} at least {min_drop:.0%} lower than the parent, "
            f"change lower in at least {CLAIM_WINS:.0%} of the pairs, median gap "
            "larger than the parent IQR")
    claim = {"text": text, "workload": workload, "metric": metric,
             "min_drop": min_drop, "runs": {}}
    for key, run in bench_runs.items():
        if key.startswith(f"{workload} trace 0"):
            s = run["metrics"][metric]
            lower, pairs = map(int, s["change_lower"].split("/"))
            low, high = s["parent_quartiles"]
            drop = 1.0 - s["change_median"] / s["parent_median"]
            met = (drop >= min_drop and lower >= CLAIM_WINS * pairs
                   and s["parent_median"] - s["change_median"] > high - low)
            claim["runs"][key] = {"drop": drop, "met": met}
    claim["met"] = (all(r["met"] for r in claim["runs"].values())
                    if claim["runs"] else None)
    return claim


def _host():
    versions = ", ".join(f"{name} {importlib.import_module(name).__version__}"
                         for name in ("numpy", "scipy"))
    return (f"{os.cpu_count()} CPUs ({platform.machine()}), {platform.system()}; "
            f"Python {platform.python_version()}, {versions}")


def report(args):
    def read(path):
        with open(path) as f:
            return json.load(f)
    doc = {"what": args.what,
           "layer": args.layer,
           "parent_commit": args.parent_commit,
           "host": _host(),
           "harness": "tools/bench_dampedwave.py; see its docstring for each section"}
    if args.inprocess:
        inproc = read(args.inprocess)
        doc["in_process"] = {
            "processes": inproc["processes"], "pairs_per_process": inproc["pairs"],
            **{name: _summary(s["parent"], s["change"])
               for name, s in inproc["samples"].items()}}
    if args.cli:
        times = read(args.cli)
        doc["cli"] = {"pairs": times["pairs"],
                      **{name: _summary(s["parent"], s["change"])
                         for name, s in times["samples"].items()}}
    if args.jobs_rss:
        jobs = read(args.jobs_rss)
        peaks = jobs["maxrss_mb"]
        largest = {side: [max(runs[side][i] for runs in peaks.values())
                          for i in range(len(jobs["seeds"]))] for side in SIDES}
        doc["jobs_rss"] = {"workload": jobs["workload"], "seeds": jobs["seeds"],
                           "first": jobs["first"],
                           "largest_job_mb": _summary(largest["parent"],
                                                      largest["change"]),
                           **{name: _summary(runs["parent"], runs["change"])
                              for name, runs in peaks.items()}}
    if args.rss:
        memory = read(args.rss)
        doc["rss"] = {"runs_each": memory["pairs"],
                      **{f"{quantity}_median": {
                          count: {name: statistics.median(values)
                                  for name, values in runs.items()}
                          for count, runs in memory[quantity].items()}
                         for quantity in ("peak_rss_mb", "call_s")},
                      "samples": {q: memory[q] for q in ("peak_rss_mb", "call_s")}}
    bench_runs = {}
    for path in args.bench:
        run = read(path)
        key = (f"{run['workload']} trace {run['trace']} "
               f"seeds {run['seeds'][0]}-{run['seeds'][-1]}")
        bench_runs[key] = _bench_summary(run)
    if args.claim:
        workload, metric, min_drop = args.claim
        doc["claim"] = _claim(bench_runs, workload, metric, float(min_drop))
    else:
        doc["claim"] = None
    doc["bench_run"] = bench_runs
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("inprocess", "cli", "rss", "jobs-rss", "bench", "_worker"):
        p = sub.add_parser(mode)
        p.add_argument("parent")
        p.add_argument("change")
        p.add_argument("--processes", type=int, default=10)
        p.add_argument("--pairs", type=int, default=11 if mode != "rss" else 3)
        p.add_argument("--workload", default="library_sweep")
        p.add_argument("--seeds", type=int, nargs=2, default=(1101, 1110))
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("report")
    p.add_argument("--what", required=True, help="the change, in one paragraph")
    p.add_argument("--layer", required=True, help="the layer it moves and its spans")
    p.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "DROP"),
                   help="the gain claimed, if any")
    p.add_argument("--inprocess")
    p.add_argument("--cli")
    p.add_argument("--rss")
    p.add_argument("--jobs-rss")
    p.add_argument("--bench", nargs="+", required=True)
    p.add_argument("--parent-commit", required=True)
    args = parser.parse_args()
    if args.mode == "_worker":
        result = _worker(args.parent, args.change, args.pairs)
    else:
        result = {"inprocess": inprocess, "cli": cli, "rss": rss, "jobs-rss": jobs_rss,
                  "bench": bench, "report": report}[args.mode](args)
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
